"""Validated two-qubit density matrices, the named state families, the
CSV format of a state stack and the package's one CSV writer.

Every state stack, however it enters, takes one check, ``_checked_eig``:
any array but a numeric (n, 4, 4) stack refused, then Hermiticity and
finite entries in one per-matrix pass, the traces in one einsum and
positive semidefiniteness from one batched ``eigh``, whose eigenpairs it
returns; it raises the error of the lowest-indexed invalid matrix, the
error that matrix alone raises, LAPACK's failure included.  Each job has
one entry to it, ``DensityMatrix`` for a state (a 1-stack),
``measures.measure_table`` for a stack and ``read_stack`` for a file, and
no state the library built or checked is checked again.  ``write_stack``,
the one writer of a state file, streams the stacks of an iterable
(``entlab sample`` passes its blocks), and ``read_stack`` reads them back,
one 32-field row per matrix, every bit kept, signed zeros included.  The
reader reads each field as ``float`` does, digit-group underscores
refused: -?0 or -?0. and up to 20 digits by an exact vectorized kernel
(``_decimal_fields``), every other field by ``float`` itself.  Its check's
``eigh`` is the one the measures reuse, and every error names its file
line.
``write_csv`` writes every CSV file and table of the package, each column
as its dtype sets: floats in the one format CSV_FLOAT, integers in decimal,
booleans as true/false.  It renders blocks of _CSV_VALUES values as
fixed-width byte slots joined into one string: zeros and 1e-4 <= |x| < 1,
nearly all of the package's floats, take an exact vectorized kernel
(``_float_fields``) that writes the bytes CSV_FLOAT writes, and whose
fields are the slots; every other float takes CSV_FLOAT itself.  A table
passed as a 2-d float array, as ``write_stack``'s, is read row by row in
place.
"""

from __future__ import annotations

import array
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import cmat
from .errors import NotConverged, NotHermitian, NotPSD, ParameterOutOfRange, TraceNotOne

CSV_HEADER = ",".join(f"m{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im"))
CSV_FLOAT = "%.17g"  # every float in a CSV: 17 significant digits read back as the same float64
# Values write_csv renders at a time (256 state rows), so that its
# temporaries stay within a few MB; 8192 wrote as fast as 16384 and faster
# than 4096 or 32768 (write_stack of 5000 states, 2 cores).
_CSV_VALUES = 8192
_FLAGS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)  # a boolean's field, NUL-padded
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
_ROW_BLOCK = 512  # rows read_stack converts at a time; at 1024 the kernel ran 1.6x slower
# _DIGIT_BYTES[j, b]: the bytes of word j of a field's last 24 bytes that
# lie past the first b of them, where a field of 24 - b digits has digits.
_DIGIT_BYTES = ~np.array([[(1 << 8 * min(max(b - j, 0), 8)) - 1 for b in range(25)] for j in (0, 8, 16)], np.uint64)
_MIDPOINT_GAP = 2.0**-30  # how far from a half-integer t must lie; its error is below 1e-15
_SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2 + 0j  # |psi-><psi-|, of exact halves
_SINGLET.setflags(write=False)


def _checked_eig(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, u): the eigenvalues (ascending) and eigenvectors of a (n, 4, 4)
    stack of density matrices, from the one ``eigh`` of its check, each step
    to the central tolerances: Hermiticity and finite entries
    (``cmat.hermiticity_fault``) over the stack, the traces in one einsum
    over the matrices before its first fault, then PSD over those before the
    first trace fault (``cmat._psd_eig``).  So the lowest-indexed faulty
    matrix raises the error it alone raises, with its ``index``; any other
    array raises NotHermitian first."""
    if ms.ndim != 3 or ms.shape[1:] != (4, 4):
        raise NotHermitian(f"expected a (n, 4, 4) stack, got shape {ms.shape}")
    ms = cmat._numeric(ms)  # float64 or complex128: no integer trace wraps, and eigh takes every float
    fault = cmat.hermiticity_fault(ms)
    n = len(ms) if fault is None else fault[0]  # the matrices before the first fault
    trace_dev = np.abs(np.einsum("nii->n", ms[:n]).real - 1.0)
    bad = np.flatnonzero(trace_dev > cmat.TOL.hermiticity)
    if len(bad):
        dev = float(trace_dev[bad[0]])
        fault = int(bad[0]), TraceNotOne(f"trace deviates from 1 by {dev:.3e}", deviation=dev)
    return cmat._psd_eig(ms, fault)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit state: Hermitian, unit trace, positive semidefinite.

    Construction checks the matrix as a 1-stack (``_checked_eig``), and
    stores a read-only complex copy, which no later caller checks again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = cmat._numeric(self.matrix)
        if m.shape != (4, 4):
            raise NotHermitian(f"expected a 4x4 matrix, got shape {m.shape}")
        _checked_eig(m[None])
        out = m.astype(complex)
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
    return DensityMatrix(_SINGLET)


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
    return ((4.0 * fs - 1.0) / 3.0) * _SINGLET + ((1.0 - fs) / 3.0) * np.eye(4)


def werner_state(f: float) -> DensityMatrix:
    """Singlet fraction F mixed with white noise; see ``werner_stack``."""
    return DensityMatrix(werner_stack([f])[0])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 values a into hi + lo, each of at most
    26 significant bits, so that products of halves are exact."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


# 10^0 .. 10^22, exact doubles (5^22 < 2^53), and their halves
_POWERS = 10.0 ** np.arange(23)
_POWERS_HI, _POWERS_LO = _split(_POWERS)


def _times_power(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e = a 10^k exactly and p the rounded product
    (Dekker's two-product; finite a below 2^1000 in magnitude, k in 0..22)."""
    s, s_hi, s_lo = _POWERS[k], _POWERS_HI[k], _POWERS_LO[k]
    a_hi, a_lo = _split(a)
    p = a * s
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
        p[off], e[off] = _times_power(ax[off], 16 + k[off])
    return k, p, e


def _float_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fields, refused): the (n, 24) uint8 fields of the float64 values x
    as CSV_FLOAT writes them, NUL-padded, and the mask of the values the
    kernel refuses, whose fields are meaningless.

    The kernel takes zeros and finite 1e-4 <= |x| < 1, which %.17g writes
    in fixed notation, 17 significant digits with trailing zeros stripped:
    [-]0.[000]digits.  With k = -floor(log10 |x|), corrected so that
    P = |x| 10^(16 + k) lies in [10^16, 10^17), the two-product gives
    P = p + e exactly; p > 2^53 is an even integer, so int(p) + rint(e) is
    P rounded half to even, as CPython's dtoa rounds.  No value carries to
    10^17: the largest double below each power of ten 1 .. 0.001 has P at
    least 8.3 below 10^17.  A field is three uint64 words, and its byte 0
    is NUL for the caller's separator: the first word holds the sign, "0.",
    the zeros and the leading digit, right-aligned (``_HEADS``), the other
    two the next 16 digits in four groups (``_GROUPS``).
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1.0)  # NaN fails both
    safe = np.where(fast, ax, 0.5)
    k = (-np.floor(np.log10(safe))).astype(np.intp)
    k, p, e = _correct_decade(safe, k, *_times_power(safe, 16 + k))
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    digits *= fast  # a zero has no digits after its head
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g1, g3 = high // 10**4, low // 10**4
    g2, g4 = high - g1 * 10**4, low - g3 * 10**4
    k -= 1
    k *= 10
    k += lead
    k += 40 * np.signbit(x).view(np.int8)  # _HEADS's index; int8 is faster
    # a group takes the stripped table when every group after it is zero
    zero_low = low == 0
    g4 += 10_000
    g3 += 10_000 * (g4 == 10_000)
    g2 += 10_000 * zero_low
    g1 += 10_000 * (zero_low & (g2 == 10_000))
    words = np.empty((len(x), 3), np.uint64)
    words[:, 0] = _HEADS[k]
    groups = words.view(np.uint32)
    for j, g in enumerate((g1, g2, g3, g4), start=2):
        groups[:, j] = _GROUPS[g]
    return words.view(np.uint8), ~fast & (x != 0)


def _printed(spec: str, values: list) -> np.ndarray:
    """The (m, w) uint8 bytes of spec % v for the m values, NUL-padded to the longest."""
    a = np.array(((spec + "\n") * len(values) % tuple(values)).split("\n")[:-1], dtype="S")
    return a.view(np.uint8).reshape(len(a), a.itemsize)


def _column_text(col: np.ndarray) -> np.ndarray:
    """The (m, w) uint8 bytes of a boolean or integer column's fields, NUL-padded."""
    return _FLAGS[col.astype(np.intp)] if col.dtype == bool else _printed("%d", col.tolist())


def _write_rows(fh, columns) -> None:
    """Write to the text stream fh one line per row of the columns, each
    line after a newline: the rows of ``write_csv``, without its header and
    final newline.

    A block of _CSV_VALUES values is rendered as one byte array of
    fixed-width slots, one per value in row order, and written as one
    string.  Every value takes ``_float_fields``, whose fields are the slots
    themselves (0.0 stands in for a column of another dtype), and byte 0 of
    a slot takes the separator before its field.  The floats the kernel
    refuses then take CSV_FLOAT, with one % for the block, and every other
    column its own text: booleans a two-entry table, integers one % per
    column; the slots widen for a text of over 23 bytes.  Slots are
    NUL-padded, and dropping the NUL bytes joins them.
    """
    if isinstance(columns, np.ndarray) and columns.ndim == 2 and columns.dtype.kind == "f":
        table, others = columns.T, {}  # a row-major table, such as write_stack's, is not copied
    else:
        columns = [np.asarray(col) for col in columns]
        others = {c: col for c, col in enumerate(columns) if col.dtype.kind != "f"}
        table = np.zeros((len(columns[0]), len(columns)))  # 0.0 in the other columns' slots
        for c, col in enumerate(columns):
            if c not in others:
                table[:, c] = col
    n, width = table.shape
    step = max(1, _CSV_VALUES // width)
    for start in range(0, n, step):
        block = slice(start, start + step)
        values = np.ascontiguousarray(table[block], dtype=np.float64)
        fields, refused = _float_fields(values.ravel())
        # (the slots it goes to, text): a column's slots, or the refused floats'
        texts = [(slice(c, None, width), _column_text(col[block])) for c, col in others.items()]
        where = np.flatnonzero(refused)
        if len(where):
            texts.append((where, _printed(CSV_FLOAT, values.ravel()[where].tolist())))
        wide = 1 + max((text.shape[1] for _, text in texts), default=0)
        if wide > 24:  # the widest texts, such as -2.2250738585072014e-308
            fields = np.pad(fields, ((0, 0), (0, wide - 24)))
        for slots, text in texts:
            fields[slots, 1:] = 0
            fields[slots, 1 : 1 + text.shape[1]] = text
        fields[:, 0] = ord(",")
        fields[::width, 0] = ord("\n")
        fh.write(fields[fields != 0].tobytes().decode("ascii"))


def write_csv(fh, header: str, columns) -> None:
    """Write the header line to the text stream fh, then for each index of
    the equal-length columns one line, each column as its dtype sets:
    floats in CSV_FLOAT, booleans as true/false, and every other column
    (integers, Python ints past 2^64 among them) as %d does.  The columns
    are 1-d arrays or lists, or the rows of a 2-d float array.
    """
    fh.write(header)
    _write_rows(fh, columns)
    fh.write("\n")


def write_stack(fh, stacks) -> None:
    """Write to the text stream fh a header line, then one row of 32 floats
    (row-major, real and imaginary parts interleaved) per matrix of each
    (n, 4, 4) stack of the iterable stacks in turn, holding one at a time."""
    fh.write(CSV_HEADER)
    for ms in stacks:
        _write_rows(fh, np.ascontiguousarray(ms, dtype=complex).view(np.float64).reshape(len(ms), 32).T)
        del ms  # before the next stack is drawn
    fh.write("\n")


def _decimal_fields(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, exact): the float64 ``float`` reads from each field
    data[start:end] of the form -?0 or -?0. and 1 to 20 digits, at most 17
    significant (trailing zeros counted), and the mask of those fields (the
    other values are meaningless).  Each field must end 24 bytes or more
    into data, and before its last byte.

    The field's last 24 bytes are three little-endian words; XOR with "0"
    and a mask leave the digits' values, and the 8-digit SWAR step converts
    each word (Lemire, "Number Parsing at a Gigabyte per Second", 2021).
    The field is S / 10^L, S < 10^17, L <= 20.  q = fl(fl(S) / 10^L) lies
    within 1.5 ulp; the residual S - q 10^L from Dekker's two-product,
    rounded once, gives t = (S / 10^L - q) / ulp(q) within 1e-15, and
    q + rint(t) ulp(q) is the nearest double where t lies over _MIDPOINT_GAP
    from a half-integer and neither it nor q is a power of two (Clinger,
    PLDI 1990).
    """
    buf = np.frombuffer(data, np.uint8)
    neg = buf[starts] == ord("-")
    at = starts + neg
    nd = ends - at - 2  # digits after "0.", -1 for a bare zero
    exact = (buf[at] == ord("0")) & ((nd == -1) | ((buf[at + 1] == ord(".")) & (nd >= 1) & (nd <= 20)))
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # the word at each byte
    w = words[ends - np.array([[24], [16], [8]])] ^ 0x3030303030303030
    w &= np.take(_DIGIT_BYTES, np.clip(24 - nd, 0, 24), axis=1)
    # every byte at most 9: neither it nor it plus 0x76 reaches 0x80
    exact &= (np.bitwise_or.reduce((w + 0x7676767676767676) | w) & 0x8080808080808080) == 0
    w = (w * (10 * 2**8 + 1)) >> 8  # digit pairs
    w = ((w & 0x00FF00FF00FF00FF) * (100 * 2**16 + 1)) >> 16  # groups of 4
    w = ((w & 0x0000FFFF0000FFFF) * (10**4 * 2**32 + 1)) >> 32  # groups of 8
    high = w[0] * 10**8 + w[1]
    exact &= high < 10**9  # at most 17 significant digits, trailing zeros counted
    s = np.where(exact, high * 10**8 + w[2], 0).astype(np.int64)
    sf = s.astype(np.float64)
    lo = (s - sf.astype(np.int64)).astype(np.float64)  # s = sf + lo exactly
    power = np.clip(nd, 0, 20)
    scale = _POWERS[power]
    q = sf / scale
    p, e = _times_power(q, power)
    ulp = np.spacing(q)
    t = (((sf - p) + lo) - e) / ulp / scale  # sf - p is exact (Sterbenz), and so is adding lo
    m = np.rint(t)
    y = q + m * ulp
    fraction = 0x000FFFFFFFFFFFFF  # the bits that are zero in a power of two
    off_powers = ((q.view(np.uint64) & fraction) != 0) & ((y.view(np.uint64) & fraction) != 0)
    exact &= (s == 0) | ((np.abs(t - m) < 0.5 - _MIDPOINT_GAP) & off_powers)
    np.negative(y, out=y, where=neg)
    return y, exact


def _floats(tokens: list[str], lines) -> list[float]:
    """float(tok) for each token, in one list comprehension if all are ASCII
    without "_"; else one at a time, digit-group underscores and non-ASCII
    digits refused, the first faulty token raising float's error with its line."""
    if (joined := "".join(tokens)).isascii() and "_" not in joined:
        with contextlib.suppress(ValueError):
            return [float(tok) for tok in tokens]
    values = []
    for tok, line in zip(tokens, lines):
        with contextlib.suppress(ValueError):
            if "_" not in tok and tok.strip().isascii():  # a non-ASCII character in a float is a digit
                values.append(float(tok))
                continue
        raise ValueError(f"line {line}: could not convert string to float: {tok!r}")
    return values


def _convert_block(rows: list[str], lines) -> np.ndarray:
    """The (n, 32) fields of n stripped rows, their file lines in lines, as
    ``float`` reads them: the kernel's, and the others by ``_floats`` up to
    the end of the first row without 32 fields, which then raises.  So the
    first faulty row is reported, a bad field in it before its count."""
    text = "\n".join(rows) + "\n"
    data = bytes(24) + text.encode("ascii", "replace") + b"\0"  # room for each field's 24 bytes
    row_ends = np.cumsum(np.fromiter(map(len, rows), np.intp, len(rows)) + 1) + 23  # not at an LF within a row
    ends = np.frombuffer(data, np.uint8) == ord(",")  # the mask of the separators, freed once read
    ends[row_ends] = True
    ends = np.flatnonzero(ends)
    last = np.searchsorted(ends, row_ends)  # each row's last field
    counts = np.diff(last, prepend=-1)
    short = np.flatnonzero(counts != 32)[:1]  # the first row without 32 fields, if any
    starts = np.concatenate([[24], ends[:-1] + 1])
    values, exact = _decimal_fields(data, starts, ends)
    others = np.flatnonzero(~exact[: last[short[0]] + 1 if len(short) else None])
    tokens = [text[a:b] for a, b in zip((starts[others] - 24).tolist(), (ends[others] - 24).tolist())]
    values[others] = _floats(tokens, (lines[r] for r in np.searchsorted(last, others)))
    if len(short):
        raise NotHermitian(f"line {lines[short[0]]}: expected 32 CSV fields, got {counts[short[0]]}")
    return values.reshape(-1, 32)


def _row_blocks(fh):
    """(rows, lines): the stripped rows of the text stream fh, header and
    blank lines skipped, and their file lines, in blocks of at most
    _ROW_BLOCK.  A ValueError of the stream itself (a decode error) comes
    after the rows read before it, so that their faults come first."""
    rows, lines = [], []
    try:
        for lineno, line in enumerate(fh, start=1):
            row = line.strip()
            if row and not (lineno == 1 and row == CSV_HEADER):
                rows.append(row)
                lines.append(lineno)
                if len(rows) == _ROW_BLOCK:
                    yield rows, lines
                    rows, lines = [], []
    except ValueError:
        yield rows, lines
        raise
    yield rows, lines


def _read_stack_eig(fh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ms, w, u): ``read_stack``'s stack and its eigenvalues (ascending)
    and eigenvectors, from ``_checked_eig``, whose errors name the line."""
    blocks, lines = [np.empty((0, 32))], array.array("q")
    for rows, block_lines in _row_blocks(fh):
        if rows:
            blocks.append(_convert_block(rows, block_lines))
            lines.extend(block_lines)
    ms = np.concatenate(blocks).view(np.complex128).reshape(-1, 4, 4)  # every bit, signed zeros included
    try:
        w, u = _checked_eig(ms)
    except (NotHermitian, TraceNotOne, NotPSD, NotConverged) as exc:
        exc.args = (f"line {lines[exc.index]}: {exc}",)
        raise
    return ms, w, u


def read_stack(fh) -> np.ndarray:
    """The validated (n, 4, 4) stack of the rows of the text stream fh, as
    ``write_stack`` writes them (header line optional, blank lines skipped),
    each field as ``float`` reads it, bit for bit (see the module docstring).
    The first row with a field that is no float raises ValueError, or with
    other than 32 fields NotHermitian; then the whole stack is validated, at
    the cost of one ``eigh``, eigenvectors included, per state.  Every error
    names its line.
    """
    return _read_stack_eig(fh)[0]
