"""Validated two-qubit density matrices, the named state families, the
CSV format of a state stack and the package's one CSV writer.

Every check runs on a (n, 4, 4) stack: ``validate_stack`` checks the whole
stack for Hermiticity and non-finite entries in one ``cmat`` call, its
traces in one einsum and positive semidefiniteness in one batched
``eigvalsh``, and raises the error of its lowest-indexed invalid matrix.  A
``DensityMatrix`` is one matrix validated as a 1-stack.  ``write_stack``
and ``read_stack`` stream a stack to and from a text file, one 32-field row
per matrix; the reader streams the rows through numpy's C text parser,
validates what it read and names the file line of any fault.
``write_csv`` writes every CSV file and table of the package, each float in
the one format CSV_FLOAT.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import cmat
from .errors import EntanglementLabError, NotHermitian, NotPSD, ParameterOutOfRange, TraceNotOne

CSV_HEADER = ",".join(f"m{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im"))
CSV_FLOAT = "%.17g"  # every float in a CSV: 17 significant digits read back as the same float64
_CSV_BLOCK = 4096  # rows write_csv formats with one %, so its text stays within a few MB


def _stack_fault(ms: np.ndarray) -> tuple[int, EntanglementLabError] | None:
    """(index, error) of the first matrix of a complex (n, 4, 4) stack that
    fails a check, or None if every matrix is a density matrix.

    The checks run in turn on the whole stack: Hermiticity and finite
    entries, then unit trace, then no eigenvalue below -TOL.psd_clamp; the
    first check that fails names its lowest failing matrix.  Each error has
    the class, message and deviation that matrix alone would give.
    """
    try:
        cmat._require_hermitian(ms)
    except NotHermitian:
        with np.errstate(invalid="ignore", over="ignore"):
            defect = np.abs(ms - ms.swapaxes(-1, -2).conj()).max(axis=(1, 2))
        row = int(np.argmax(~(defect <= cmat.TOL.hermiticity)))  # NaN counts as failing
        try:
            cmat._require_hermitian(ms[row])
        except NotHermitian as exc:
            return row, exc
        raise  # not reached: the row's own check fails as the stack's did
    trace_dev = np.abs(np.einsum("nii->n", ms).real - 1.0)
    bad = np.nonzero(trace_dev > cmat.TOL.hermiticity)[0]
    if len(bad):
        dev = float(trace_dev[bad[0]])
        return int(bad[0]), TraceNotOne(f"trace deviates from 1 by {dev:.3e}", deviation=dev)
    wmin = cmat._lapack(np.linalg.eigvalsh, ms)[:, 0]
    bad = np.nonzero(wmin < -cmat.TOL.psd_clamp)[0]
    if len(bad):
        w = float(wmin[bad[0]])
        return int(bad[0]), NotPSD(f"smallest eigenvalue is {w:.3e}", deviation=-w)
    return None


def validate_stack(ms: np.ndarray) -> np.ndarray:
    """ms as a complex (n, 4, 4) stack, after checking that every matrix is
    Hermitian, of unit trace and positive semidefinite (each to the central
    tolerances); otherwise raises the error of the first invalid matrix."""
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1:] != (4, 4):
        raise NotHermitian(f"expected a (n, 4, 4) stack, got shape {ms.shape}")
    fault = _stack_fault(ms)
    if fault is not None:
        raise fault[1]
    return ms


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit state: Hermitian, unit trace, positive semidefinite.

    Construction validates the three invariants (each to the central
    tolerances) and stores a read-only copy of the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NotHermitian(f"expected a 4x4 matrix, got shape {m.shape}")
        out = validate_stack(m[None])[0].copy()
        out.setflags(write=False)
        object.__setattr__(self, "matrix", out)


def pure_schmidt(alpha: float) -> DensityMatrix:
    """Projector onto alpha|00> + sqrt(1 - alpha^2)|11>."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterOutOfRange(f"Schmidt coefficient must be in [0, 1], got {alpha}")
    beta = math.sqrt(1.0 - alpha * alpha)
    psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
    return DensityMatrix(np.outer(psi, psi.conj()))


def singlet() -> DensityMatrix:
    """Projector onto (|01> - |10>)/sqrt(2); entries are exact halves."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = -0.5
    return DensityMatrix(m)


def check_werner_range(fs) -> np.ndarray:
    """fs as a float array, after checking that every singlet fraction lies
    in [1/4, 1]; raises ParameterOutOfRange naming the first that does not."""
    fs = np.asarray(fs, dtype=float)
    bad = np.nonzero(~((fs >= 0.25) & (fs <= 1.0)))[0]  # NaN counts as out of range
    if len(bad):
        raise ParameterOutOfRange(f"Werner parameter must be in [1/4, 1], got {fs[bad[0]]}")
    return fs


def werner_stack(fs) -> np.ndarray:
    """Werner states for a 1-d array of singlet fractions, as an unvalidated
    (n, 4, 4) stack; every F is range-checked before any state is built.

    rho_F = (4F - 1)/3 * |psi-><psi-| + (1 - F)/3 * I, F in [1/4, 1].
    The identity term uses the full 4x4 identity so the trace is one.
    """
    fs = check_werner_range(fs)[:, None, None]
    return ((4.0 * fs - 1.0) / 3.0) * singlet().matrix + ((1.0 - fs) / 3.0) * np.eye(4)


def werner_state(f: float) -> DensityMatrix:
    """Singlet fraction F mixed with white noise; see ``werner_stack``."""
    return DensityMatrix(werner_stack([f])[0])


def write_csv(fh, header: str, columns, template: str | None = None) -> None:
    """Write the header line to the text stream fh, then for each index of
    the equal-length columns (1-d arrays or lists) the line template % row,
    template being CSV_FLOAT per column unless given; one % per _CSV_BLOCK rows."""
    line = (template or ",".join([CSV_FLOAT] * len(columns))) + "\n"
    fh.write(header + "\n")
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        parts = [np.asarray(col[start : start + _CSV_BLOCK]).tolist() for col in columns]
        fh.write(line * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))


def write_stack(fh, ms: np.ndarray) -> None:
    """Write a header line, then one row of 32 floats (row-major, real and
    imaginary parts interleaved) per matrix of a (n, 4, 4) stack, to the
    text stream fh."""
    flat = np.ascontiguousarray(ms, dtype=complex).view(np.float64).reshape(len(ms), 32)
    write_csv(fh, CSV_HEADER, flat.T)


def _parse_rows(rows) -> np.ndarray:
    """The float64 (n, k) array of an iterable of n non-empty rows of k
    comma-separated floats each, read by numpy's C text parser; ValueError if
    a field is no float or the rows differ in width."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _parses(text: str) -> bool:
    """Whether the parser reads text, a non-empty row or field, without error."""
    try:
        _parse_rows([text])
    except ValueError:
        return False
    return True


def _row_fault(rows, linenos) -> ValueError | NotHermitian | None:
    """The error of the first of the stripped rows that has a field the
    parser rejects, or other than 32 fields, naming its file line; None if
    no row is faulty."""
    for row, lineno in zip(rows, linenos):
        fields = row.split(",")
        if not _parses(row):
            # the parser rejects a row only for a field it rejects on its own
            bad = next(tok for tok in fields if not (tok and _parses(tok)))
            return ValueError(f"line {lineno}: could not convert string to float: {bad!r}")
        if len(fields) != 32:
            return NotHermitian(f"line {lineno}: expected 32 CSV fields, got {len(fields)}")
    return None


def _read_rows(fh) -> tuple[np.ndarray, array.array]:
    """The (n, 32) float64 fields of the rows of the text stream fh, and the
    file line of each row, as ``read_stack`` reads them.

    The rows stream through one parser call, so none is held.  The parser
    reads no row past the first one it rejects, and every row before that
    one has the first row's width; so the first and the last row it was
    handed hold the first faulty row of the file.
    """
    lines = array.array("q")  # the file line of each row handed to the parser
    last = ""  # the last row handed to the parser

    def rows():
        nonlocal last
        for lineno, line in enumerate(fh, start=1):
            row = line.strip()
            if row and not (lineno == 1 and row == CSV_HEADER):
                lines.append(lineno)
                last = row
                yield row

    stream = rows()
    first = next(stream, None)
    if first is None:  # the parser warns on input without rows
        return np.empty((0, 32)), lines
    try:
        fields = _parse_rows(chain([first], stream))
    except ValueError as exc:
        # with no faulty row read, the error is the stream's own (a decode error)
        raise (_row_fault([first, last], [lines[0], lines[-1]]) or exc) from None
    if fields.shape[1] != 32:
        raise _row_fault([first], [lines[0]])
    return fields, lines


def read_stack(fh) -> np.ndarray:
    """The validated (n, 4, 4) stack of the rows of the text stream fh, as
    ``write_stack`` writes them (header line optional, blank lines skipped).

    Fields are parsed by numpy's C text parser, whose float grammar is that
    of ``float`` without digit-group underscores.  The first row with a field
    that is no float raises ValueError, or with other than 32 fields
    NotHermitian; then the whole stack is validated.  Every error names its
    line.
    """
    fields, lines = _read_rows(fh)
    flat = fields.ravel()
    with np.errstate(invalid="ignore"):  # validation rejects non-finite entries
        ms = (flat[0::2] + 1j * flat[1::2]).reshape(-1, 4, 4)
    fault = _stack_fault(ms)
    if fault is not None:
        row, exc = fault
        raise type(exc)(f"line {lines[row]}: {exc}", deviation=exc.deviation)
    return ms
