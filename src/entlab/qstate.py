"""Validated two-qubit density matrices, the named state families and the
CSV format of a state stack.

Every check runs on a (n, 4, 4) stack: ``validate_stack`` checks the whole
stack for Hermiticity and non-finite entries in one ``cmat`` call, its
traces in one einsum and positive semidefiniteness in one batched
``eigvalsh``, and raises the error of its lowest-indexed invalid matrix.  A
``DensityMatrix`` is one matrix validated as a 1-stack.  ``write_stack``
and ``read_stack`` stream a stack to and from a text file, one 32-field row
per matrix; the reader validates what it read and names the file line of
any fault.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass

import numpy as np

from . import cmat
from .errors import EntanglementLabError, NotHermitian, NotPSD, ParameterOutOfRange, TraceNotOne

CSV_HEADER = ",".join(f"m{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im"))
# One CSV row: the 16 entries row-major, real and imaginary parts interleaved.
_CSV_ROW = ",".join(["{:.17g}"] * 32) + "\n"


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


def write_stack(fh, ms: np.ndarray) -> None:
    """Write a header line, then one row of 32 floats (17 significant
    digits, row-major, real and imaginary parts interleaved) per matrix of
    a (n, 4, 4) stack, to the text stream fh, one row at a time."""
    flat = np.ascontiguousarray(ms, dtype=complex).view(np.float64).reshape(len(ms), 32)
    fh.write(CSV_HEADER + "\n")
    for row in flat:
        fh.write(_CSV_ROW.format(*row.tolist()))


def read_stack(fh) -> np.ndarray:
    """The validated (n, 4, 4) stack of the rows of the text stream fh, as
    ``write_stack`` writes them (header line optional, blank lines skipped).

    Each field is parsed with ``float``.  Rows are parsed in file order, and
    the first row with a field that is no float raises ValueError, or with
    other than 32 fields NotHermitian; then the whole stack is validated.
    Every error names its line.
    """
    values = array.array("d")  # every parsed field, flat
    lines = array.array("q")  # the file line of each row
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or (lineno == 1 and line == CSV_HEADER):
            continue
        start = len(values)
        try:
            values.extend([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if len(values) - start != 32:
            raise NotHermitian(f"line {lineno}: expected 32 CSV fields, got {len(values) - start}")
        lines.append(lineno)
    flat = np.frombuffer(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # validation rejects non-finite entries
        ms = (flat[0::2] + 1j * flat[1::2]).reshape(-1, 4, 4)
    fault = _stack_fault(ms)
    if fault is not None:
        row, exc = fault
        raise type(exc)(f"line {lines[row]}: {exc}", deviation=exc.deviation)
    return ms
