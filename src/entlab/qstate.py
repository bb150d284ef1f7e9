"""Validated two-qubit density matrices, the named state families, the
CSV format of a state stack and the package's one CSV writer.

Every check runs on a (n, 4, 4) stack: ``validate_stack`` checks the whole
stack for Hermiticity and non-finite entries in one per-matrix pass, its
traces in one einsum and positive semidefiniteness in one batched
``eigvalsh``, and raises the error of its lowest-indexed invalid matrix.  A
``DensityMatrix`` is one matrix validated as a 1-stack.  ``write_stack``
and ``read_stack`` stream a stack to and from a text file, one 32-field row
per matrix, and keep every bit, signed zeros included; the reader streams
the rows through numpy's C text parser, validates what it read and names
the file line of any fault.
``write_csv`` writes every CSV file and table of the package, each float in
the one format CSV_FLOAT.  It renders a block of values at a time as
fixed-width byte fields and joins them into one string: zeros and the
values of 1e-4 <= |x| < 1, nearly all of the package's output, take an
exact vectorized kernel (``_float_fields``) that writes the bytes
CSV_FLOAT writes; every other value takes CSV_FLOAT itself.
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
# Values write_csv renders at a time (512 state rows), so that its
# temporaries stay within a few MB.
_CSV_VALUES = 16384
# Tables of the float kernel, _float_fields.  Each 4-digit group 0000..9999
# as four ASCII bytes, then the same with its trailing zeros as NUL bytes,
# each group one uint32 in memory order.
_DIGITS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_DIGITS = _DIGITS.reshape(10_000, 4)
_KEPT = np.logical_or.accumulate(_DIGITS[:, ::-1] != ord("0"), axis=1)[:, ::-1]  # a nonzero digit at or after it
_GROUPS = np.concatenate([_DIGITS, _DIGITS * _KEPT]).view(np.uint32).ravel()
# The first 8 bytes of a field, right-aligned with NUL bytes on the left:
# sign, "0." and k - 1 zeros, then the leading digit d, at index
# 40 sign + 10 (k - 1) + d for k = 1..4; d = 0 gives the zero "0" or "-0".
_HEADS = np.array(
    [
        (sign + (f"0.{'0' * zeros}{d}" if d else "0")).rjust(8, "\0")
        for sign in ("", "-")
        for zeros in range(4)
        for d in range(10)
    ],
    dtype="S8",
).view(np.uint64)
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a float64 into two 26-bit halves


def _stack_fault(ms: np.ndarray) -> tuple[int, EntanglementLabError] | None:
    """(index, error) of the first matrix of a complex (n, 4, 4) stack that
    fails a check, or None if every matrix is a density matrix.

    The checks run in turn on the whole stack: Hermiticity and finite
    entries, then unit trace, then no eigenvalue below -TOL.psd_clamp; the
    first check that fails names its lowest failing matrix.  Each error has
    the class, message and deviation that matrix alone would give.
    """
    defects = cmat.hermiticity_defects(ms)
    bad = np.nonzero(~(defects <= cmat.TOL.hermiticity))[0]  # NaN counts as failing
    if len(bad):
        return int(bad[0]), cmat._not_hermitian(ms[bad[0]], float(defects[bad[0]]))
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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 values a into hi + lo, each of at most
    26 significant bits, so that products of halves are exact."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


# 10^16 .. 10^22, exact doubles (5^22 < 2^53), and their halves
_SCALES = 10.0 ** np.arange(16, 23)
_SCALES_HI, _SCALES_LO = _split(_SCALES)


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e = ax 10^(16 + k) exactly and p the rounded product
    (Dekker's two-product; ax in [1e-4, 1), k in 0..6)."""
    s, s_hi, s_lo = _SCALES[k], _SCALES_HI[k], _SCALES_LO[k]
    a_hi, a_lo = _split(ax)
    p = ax * s
    return p, ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def _correct_decade(ax, k, p, e):
    """(k, p, e) with k moved by one wherever P = p + e = ax 10^(16 + k)
    lies outside [10^16, 10^17), and p, e scaled again there.

    log10 rounds to -j for some doubles just below 10^-j (the largest double
    below 0.1 among them), so the k of its floor can be one too small, and
    one too large on a libm that rounds the other way.  The test is exact:
    10^16 and 10^17 are doubles, and p is P rounded.
    """
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))  # rare: near a power of ten
    if len(off):
        po, eo = p[off], e[off]
        low = (po < 1e16) | ((po == 1e16) & (eo < 0))
        high = (po > 1e17) | ((po == 1e17) & (eo >= 0))
        k[off] += low.astype(k.dtype) - high.astype(k.dtype)
        p[off], e[off] = _scaled(ax[off], k[off])
    return k, p, e


def _float_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fields, refused): the (n, 24) uint8 fields of the float64 values x
    as CSV_FLOAT writes them, NUL-padded, and the mask of the values the
    kernel refuses, whose fields are all NUL.

    The kernel takes zeros and finite 1e-4 <= |x| < 1, which %.17g writes
    in fixed notation, 17 significant digits with trailing zeros stripped:
    [-]0.[000]digits.  With k = -floor(log10 |x|), corrected so that
    P = |x| 10^(16 + k) lies in [10^16, 10^17), the two-product gives
    P = p + e exactly; p > 2^53 is an even integer, so int(p) + rint(e) is
    P rounded half to even, as CPython's dtoa rounds.  No value carries to
    10^17: the largest double below each power of ten 1 .. 0.001 has P at
    least 8.3 below 10^17.  Byte 0 of a field is NUL for the caller's
    separator; bytes 0-7 hold the sign, "0.", the zeros and the leading
    digit (``_HEADS``), bytes 8-23 the other 16 digits in four groups.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1.0)  # NaN fails both
    safe = np.where(fast, ax, 0.5)
    k = (-np.floor(np.log10(safe))).astype(np.intp)
    k, p, e = _correct_decade(safe, k, *_scaled(safe, k))
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    digits[~fast] = 0  # a zero has no digits after its head
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    fields = np.zeros((len(x), 6), np.uint32)
    fields.view(np.uint64)[:, 0] = _HEADS[40 * np.signbit(x) + 10 * (k - 1) + lead]
    # a group takes the stripped table when every group after it is zero
    fields[:, 2] = _GROUPS[g1 + 10_000 * ((low == 0) & (g2 == 0))]
    fields[:, 3] = _GROUPS[g2 + 10_000 * (low == 0)]
    fields[:, 4] = _GROUPS[g3 + 10_000 * (g4 == 0)]
    fields[:, 5] = _GROUPS[g4 + 10_000]
    refused = ~fast & (x != 0)
    fields[refused] = 0
    return fields.view(np.uint8), refused


def _ascii(strings: list[str]) -> np.ndarray:
    """The (m, w) uint8 bytes of m ASCII strings, NUL-padded to the longest."""
    a = np.array(strings, dtype="S")
    return a.view(np.uint8).reshape(len(a), a.itemsize)


def write_csv(fh, header: str, columns, template: str | None = None) -> None:
    """Write the header line to the text stream fh, then for each index of
    the equal-length columns (1-d arrays or lists) one line, field c being
    spec_c % value for the comma-separated specs of the template, CSV_FLOAT
    per column unless given.

    A block of rows of about _CSV_VALUES values is rendered as one byte
    array of fixed-width fields and written as one string.  CSV_FLOAT
    columns go through ``_float_fields``; the values it refuses take
    CSV_FLOAT, with one % for the block, and every other column its spec,
    with one % per value.  Fields are NUL-padded, and dropping the NUL
    bytes joins them.
    """
    specs = (template or ",".join([CSV_FLOAT] * len(columns))).split(",")
    is_float = [spec == CSV_FLOAT for spec in specs]
    floats, others = np.flatnonzero(is_float), np.flatnonzero(np.logical_not(is_float))
    n, step = len(columns[0]), max(1, _CSV_VALUES // len(columns))
    fh.write(header)
    for start in range(0, n, step):
        block = slice(start, start + step)
        rows = min(step, n - start)
        values = np.empty((rows, len(floats)))
        for j, c in enumerate(floats):
            values[:, j] = columns[c][block]
        fields, refused = _float_fields(values.ravel())
        ref_rows, ref_cols = np.nonzero(refused.reshape(rows, len(floats)))
        lines = (CSV_FLOAT + "\n") * len(ref_rows) % tuple(values[ref_rows, ref_cols].tolist())
        refused_text = _ascii(lines.split("\n")[:-1])
        other_texts = [_ascii([specs[c] % v for v in np.asarray(columns[c][block]).tolist()]) for c in others]
        # byte 0 of each slot holds the separator before its field
        width = max(24, 1 + max(text.shape[1] for text in [refused_text, *other_texts]))
        slots = np.zeros((rows, len(columns), width), np.uint8)
        slots[:, floats, :24] = fields.reshape(rows, len(floats), 24)
        slots[ref_rows, floats[ref_cols], 1 : 1 + refused_text.shape[1]] = refused_text
        for c, text in zip(others, other_texts):
            slots[:, c, 1 : 1 + text.shape[1]] = text
        slots[:, 1:, 0] = ord(",")
        slots[:, 0, 0] = ord("\n")
        fh.write(slots[slots != 0].tobytes().decode("ascii"))
    fh.write("\n")


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
    ms = fields.view(np.complex128).reshape(-1, 4, 4)  # every bit, signed zeros included
    fault = _stack_fault(ms)
    if fault is not None:
        row, exc = fault
        raise type(exc)(f"line {lines[row]}: {exc}", deviation=exc.deviation)
    return ms
