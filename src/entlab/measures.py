"""Entanglement measures for two-qubit states.

Each quantity has one numerical core that works on a raw (..., 4, 4) stack
or an array of values: ``concurrence_from_eig`` (from a spectral pair
(p, U); ``concurrence_batch`` feeds it one checked eigendecomposition of
each matrix), ``ef_from_concurrence_batch``, ``linear_entropy_batch``,
``_pt_min`` (the smallest partial-transpose (PT) eigenvalue, which alone
fixes E_N, E_sum = 2 E_N and separability, because a two-qubit PT has at
most one negative eigenvalue) and the column assembler behind
``measure_table``.  The concurrence core's singular values come from a
one-sided Jacobi kernel, and the smallest PT eigenvalue from Laguerre steps
on each PT's characteristic polynomial, for stacks of at least
_JACOBI_MIN_STACK and _PT_MIN_STACK matrices; LAPACK takes smaller stacks
and any matrix a kernel cannot certify, and the two routes agree to
rounding.  The Monte Carlo harness uses the same cores and the same
separability rule ``_pt_entangled``, but screens states by det(rho^Gamma)
(``_pt_screen``, which works on the sampler's (4, 4, n) entry stack, forms
each PT once and passes the states it keeps, with their determinants, to
``_pt_min``) and takes the concurrence from the sampler's column stacks.
Every command of the CLI that handles states measures them as one stack
through ``measure_table`` (``qstate`` validates the stack first), so a file
of at least 256 states takes the kernels.  ``measure_report`` evaluates the
body of ``measure_table`` for one DensityMatrix, whose construction already
checked its Hermiticity; it serves ``experiment.compare_pair`` and the
scalar functions (``concurrence``, ``e_formation``, ``e_negative``,
``e_sum``, ``linear_entropy``, ``is_separable``), which return its fields,
so a scalar call equals the corresponding entry of a 1-stack table exactly
and of a larger table to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmat
from .qstate import DensityMatrix

# PT eigenvalues above -EPS_SEP count as separable; the Monte Carlo harness
# discards such states rather than treating rounding noise as entanglement.
EPS_SEP = 1e-10
# det(rho^Gamma) above DET_SCREEN certifies that a density matrix is
# separable under the EPS_SEP rule, without its PT spectrum; see _pt_screen.
DET_SCREEN = 1e-12
# Column pairs of the 2x2 minors in _hermitian_det; pair k's complement is pair 5 - k.
_LAPLACE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Flat entry index of rho for each flat entry of rho^Gamma.
_PT_ROWS = cmat.partial_transpose_b(np.arange(16).reshape(4, 4)).ravel()
# One-sided Jacobi singular values (_jacobi): the smallest stack it is used
# for, the most sweeps a matrix gets and the residual that certifies it.  On
# 2 cores with OpenBLAS 0.3.31, the LAPACK route of _r_spectrum took 0.03 ms
# for 1 matrix, 1.1-1.9 ms for 256 and 18 ms for 3000, the kernel route
# 0.6-0.8, 1.1-2.0 and 8.4 ms; LAPACK won at 192, the kernel at 512.
_JACOBI_MIN_STACK = 256
_JACOBI_SWEEPS = 5
_JACOBI_TOL = 1e-8
# One sweep: three rounds of two disjoint column pairs, (0, 1) (2, 3), then
# (0, 2) (1, 3), then (0, 3) (1, 2), as basic slices of the column axis.
_JACOBI_ROUNDS = (
    (slice(0, None, 2), slice(1, None, 2)),
    (slice(0, 2), slice(2, 4)),
    (slice(0, 2), slice(3, 1, -1)),
)

# Smallest PT eigenvalue by its characteristic polynomial (_pt_min): the
# smallest stack the kernel is used for, its Laguerre step count, the error
# bound that certifies a matrix and the largest row 1-norm it accepts (a
# density matrix's PT has row 1-norms of at most 2).  On 2 cores with
# OpenBLAS 0.3.31, LAPACK's eigvalsh took 0.007 ms for 1 matrix and 0.49 ms
# for 256, the kernel 0.26 ms and 0.39 ms; at 3000 matrices 1.6 ms against 6.0.
_PT_MIN_STACK = 256
_PT_LAGUERRE_STEPS = 6
_PT_TOL = 1e-15
_PT_MAX_ROW = 4.0
# Indices, into the upper off-diagonal entries in _LAPLACE_PAIRS order, of the
# three in each row (or column) of the matrix and of the (ij, jk, ik) entries
# of each principal 3x3 minor.
_OFF_OF_ROW = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
_TRIANGLES = ((0, 3, 1), (0, 4, 2), (1, 5, 2), (3, 5, 4))
# Unit roundoff of float64.
_U = 2.0**-53

# sigma_y (x) sigma_y is the real anti-diagonal matrix with entries
# (-1, 1, 1, -1) from the top row down, so row i of (sy x sy) M is
# _FLIP_SIGNS[i] times row 3 - i of M.
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class MeasureReport:
    """All measure values for one state."""

    concurrence: float
    e_formation: float
    e_negative: float
    e_sum: float
    linear_entropy: float
    separable: bool


REPORT_CSV_HEADER = "concurrence,e_formation,e_negative,e_sum,linear_entropy,separable"
# One CSV row of a measure table: five values to 17 significant digits, then the flag.
_REPORT_ROW = ",".join(["{:.17g}"] * 5) + ",{}"


def table_csv_rows(table: dict[str, np.ndarray]) -> list[str]:
    """One CSV row per state of a ``measure_table`` result, in the column
    order of REPORT_CSV_HEADER."""
    columns = [table[name].tolist() for name in REPORT_CSV_HEADER.split(",")[:-1]]
    flags = ["true" if s else "false" for s in table["separable"].tolist()]
    return [_REPORT_ROW.format(*row) for row in zip(*columns, flags)]


def concurrence_from_eig(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Concurrence of rho = u diag(p) u^dagger from its spectral pair, for
    spectra p of shape (..., 4) and unitaries u of shape (..., 4, 4).

    The R spectrum, the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), is the
    set of singular values of B = sqrt(p) u^dagger (sy x sy) conj(u) sqrt(p)
    (Wootters, PRL 80, 2245 (1998)): B is sqrt(rho) (sy x sy) sqrt(rho)^T with
    the unitaries u and u^T taken off its two sides, and R^2 is unitarily
    similar to B B^dagger.  Singular values keep full absolute accuracy for
    near-zero R eigenvalues, where squaring and rooting would lose half the
    digits that rank-deficient (pure) states need.  They come from one core,
    ``_r_spectrum``, so a state's value depends on the size of the stack it
    comes in only by rounding.  Entries of p in [-TOL.psd_clamp, 0) are
    clipped to zero; anything lower, or NaN, raises NotPSD.
    """
    lam = _r_spectrum(p, u)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _r_spectrum(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Descending R spectrum of u diag(p) u^dagger: the singular values of B.

    Stacks under _JACOBI_MIN_STACK go to ``_lapack_r_spectrum``.  Larger
    ones go through ``_jacobi`` on the column stack ``_conj_b`` forms (no
    copy of u when it is a transposed column stack, as the Monte Carlo
    harness passes it), and the matrices it does not certify go to
    ``_lapack_r_spectrum``, which gives them the bits a small stack would.
    """
    root = np.sqrt(cmat._require_psd(np.asarray(p)))
    u = np.asarray(u)
    lead = u.shape[:-2]
    if math.prod(lead) < _JACOBI_MIN_STACK:
        return _lapack_r_spectrum(root, u)
    root, u = root.reshape(-1, 4), u.reshape(-1, 4, 4)
    norms_sq, certified = _jacobi(_conj_b(root, u))
    lam = np.sort(np.sqrt(norms_sq).T, axis=-1)[:, ::-1]
    failed = np.nonzero(~certified)[0]
    if len(failed):
        lam[failed] = _lapack_r_spectrum(root[failed], u[failed])
    return lam.reshape(lead + (4,))


def _lapack_r_spectrum(root: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Singular values of B = root u^dagger (sy x sy) conj(u) root, for root
    the square roots of the spectra: one batched product and LAPACK's SVD.
    (sy x sy) conj(u) is a signed row reversal."""
    flipped = _FLIP_SIGNS[:, None] * np.conj(u[..., ::-1, :])
    b = root[..., :, None] * (np.conj(np.swapaxes(u, -1, -2)) @ flipped) * root[..., None, :]
    return cmat._lapack(np.linalg.svd, b, compute_uv=False)


def _conj_b(root: np.ndarray, u: np.ndarray) -> np.ndarray:
    """conj(B), which has B's singular values, for root (m, 4) and u
    (m, 4, 4), as a (4, 4, m) column stack: ``b[l, k]`` is the (m,) row of
    entry k of column l.

    B is complex symmetric, so only its ten upper entries are formed: with
    v_k = sqrt(p_k) times column k of u, entry (k, l) of conj(B) is
    v_1k v_2l + v_2k v_1l - v_0k v_3l - v_3k v_0l, four products of
    contiguous rows in a fixed order, so a state's bits do not depend on m.
    A real u (from a real stack) is made complex, as ``_jacobi`` needs.
    """
    u = np.ascontiguousarray(u.transpose(2, 1, 0), dtype=complex)
    v = u * np.ascontiguousarray(root.T)[:, None, :]
    b = np.empty_like(v)
    for k in range(4):
        for l in range(k, 4):
            x, y = v[k], v[l]
            b[k, l] = b[l, k] = x[1] * y[2] + x[2] * y[1] - x[0] * y[3] - x[3] * y[0]
    return b


def _column_norms_sq(cols: np.ndarray) -> np.ndarray:
    """Squared 2-norms (4, n) of the columns of a (4, 4, n) column stack."""
    f = cols.view(np.float64)  # real and imaginary parts interleaved along the last axis
    sq = np.einsum("crn,crn->cn", f, f)
    return sq[:, 0::2] + sq[:, 1::2]


def _jacobi(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Jacobi (Hestenes, J. SIAM 6, 51 (1958)) on a (4, 4, n)
    complex column stack, which it overwrites; returns the squared column
    norms (4, n) it ends with and the mask of certified matrices.

    Each sweep makes every pair of columns b_j, b_k orthogonal by a complex
    rotation, which keeps the singular values, so afterwards they are the
    column norms (in no particular order).  A sweep is three rounds of two
    disjoint pairs, each round two basic-slice views of the stack, and the
    norms are recomputed every round.  A matrix passes a sweep when, before
    each of its rotations, |b_j^H b_k| <= _JACOBI_TOL ||b_j|| ||b_k|| (never
    for NaN); it is certified after that sweep and leaves the stack, and one
    that passes none of _JACOBI_SWEEPS sweeps is not certified.
    Jacobi computes singular values to high relative accuracy (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)), and a sweep that
    starts from that residual leaves an error second order in it.  Of the
    acceptance run's kept states, 0.3% pass sweep 3, 89% sweep 4, the rest 5.
    """
    norms, certified = np.empty((4, cols.shape[-1])), np.zeros(cols.shape[-1], dtype=bool)
    live = np.arange(cols.shape[-1])  # the matrices still sweeping, in stack order
    for sweep in range(_JACOBI_SWEEPS):
        passed = np.ones(len(live), dtype=bool)
        for pick_x, pick_y in _JACOBI_ROUNDS:
            x, y = cols[pick_x], cols[pick_y]  # (2, 4, n) views: two pairs of columns
            norms_sq = _column_norms_sq(cols)
            alpha, beta = norms_sq[pick_x], norms_sq[pick_y]
            gamma = (np.conj(x) * y).sum(axis=1)
            g2 = gamma.real**2 + gamma.imag**2
            passed &= (g2 <= _JACOBI_TOL**2 * alpha * beta).all(axis=0)
            # The rotation that diagonalizes the Gram block [[alpha, gamma],
            # [gamma*, beta]] has tan(theta) = t = sign(delta) 2|gamma| /
            # (|delta| + hypot(delta, 2|gamma|)); w = t / |gamma|.
            delta = beta - alpha
            den = np.sqrt(delta * delta + 4.0 * g2) + np.abs(delta)
            w = np.divide(np.copysign(2.0, delta), den, out=np.zeros_like(den), where=den > 0.0)
            c = 1.0 / np.sqrt(1.0 + w * w * g2)
            a = (c * w * gamma)[:, None, :]  # sin(theta) e^{i arg gamma}
            c = c[:, None, :]
            x_part = np.conj(a) * y
            y *= c
            y += a * x
            x *= c
            x -= x_part
        leave = passed if sweep < _JACOBI_SWEEPS - 1 else np.ones_like(passed)
        if leave.any():
            done = live[leave]
            norms[:, done] = _column_norms_sq(cols)[:, leave]
            certified[done] = passed[leave]
            stay = np.nonzero(~leave)[0]
            if not len(stay):
                break
            live, cols = live[stay], np.take(cols, stay, axis=2)
    return norms, certified


def concurrence_batch(ms: np.ndarray) -> np.ndarray:
    """max{0, l1 - l2 - l3 - l4} over the descending R spectrum of each state
    of a (..., 4, 4) stack, from one checked eigendecomposition."""
    return concurrence_from_eig(*cmat.hermitian_eig(ms))


def _binary_entropy_arr(x: np.ndarray) -> np.ndarray:
    """-x log2 x - (1 - x) log2(1 - x) elementwise, for x clipped to [0, 1],
    with the 0 log 0 = 0 convention."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1.0 - xi) * np.log2(1.0 - xi))
    return out


def ef_from_concurrence_batch(c: np.ndarray) -> np.ndarray:
    """Formation measure, a strictly increasing function of the concurrence
    c (clipped to [0, 1]), elementwise."""
    c = np.clip(np.asarray(c), 0.0, 1.0)
    return _binary_entropy_arr((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def linear_entropy_batch(ms: np.ndarray) -> np.ndarray:
    ms = np.asarray(ms)
    return np.maximum(0.0, 1.0 - np.einsum("...ij,...ji->...", ms, ms).real)


def _pt_entangled(pt_min: np.ndarray) -> np.ndarray:
    """True where the smallest PT eigenvalue lies below -EPS_SEP (entangled)."""
    return pt_min < -EPS_SEP


def _hermitian_det(m: np.ndarray) -> np.ndarray:
    """Real determinant of each Hermitian matrix of a (..., 4, 4) stack, by
    Laplace expansion along rows 0-1: the signed sum of the six products of a
    2x2 minor of rows 0-1 and the complementary minor of rows 2-3."""
    r0, r1, r2, r3 = (m[..., i, :] for i in range(4))
    det = 0.0
    for sign, (j, k), (l, q) in zip((1, -1, 1, 1, -1, 1), _LAPLACE_PAIRS, _LAPLACE_PAIRS[::-1]):
        top = r0[..., j] * r1[..., k] - r0[..., k] * r1[..., j]
        bottom = r2[..., l] * r3[..., q] - r2[..., q] * r3[..., l]
        det = det + sign * (top * bottom).real
    return det


def _det_with_bound(
    d: np.ndarray, off: np.ndarray, q: np.ndarray, mod: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Determinant of each Hermitian matrix A of a stack, with a running bound
    on its rounding error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.3) taken from the magnitudes met on the way.
    A is given by the rows of its real diagonal d (4, m) and of its upper
    off-diagonal entries off (6, m), in _LAPLACE_PAIRS order, with their
    squared moduli q and moduli mod.

    This is the expansion of ``_hermitian_det``, with the minors of columns
    01 (rows 0-1) and 23 (rows 2-3) real, d_0 d_1 - |a_01|^2 and
    d_2 d_3 - |a_23|^2, and the 23 term |top_23|^2, as A is Hermitian.  A
    product of two complex numbers errs by at most sqrt(2) gamma_2 < 3u
    times the product of the moduli, one with a real factor by u and |a|^2
    by 2u |a|^2, so a minor errs by at most u (3 P + |minor|), for P the sum
    of the moduli of its two products; a term by its factors' errors times
    the other factor plus 2u |top| |bottom|, and each addition by u times
    the partial sum.  Second-order terms are dropped (the rounding of mod
    among them); the added 1e-300 covers underflow for entries of modulus
    at most _PT_MAX_ROW.
    """
    d0, d1, d2, d3 = d
    e0, e1, e2, e3 = d.astype(complex)  # complex products are faster than mixed ones
    a01, a02, a03, a12, a13, a23 = off
    c01, c02, c03, c12, c13, c23 = np.conj(off)
    s01, s02, s03, s12, s13, s23 = mod
    m0, m1, m2, m3 = np.abs(d)
    top23 = a02 * a13 - a03 * a12
    top23_sum = s02 * s13 + s03 * s12
    det, err = 0.0, 1e-300 / _U
    # (sign, minor of rows 0-1, the sum P of its products' moduli, the same of
    # the complementary minor of rows 2-3) for columns 01, 02, 03, 12, 13, 23
    for sign, top, t_sum, bottom, b_sum in (
        (1, d0 * d1 - q[0], m0 * m1 + q[0], d2 * d3 - q[5], m2 * m3 + q[5]),
        (-1, e0 * a12 - a02 * c01, m0 * s12 + s02 * s01, c12 * e3 - a23 * c13, s12 * m3 + s23 * s13),
        (1, e0 * a13 - a03 * c01, m0 * s13 + s03 * s01, c12 * c23 - e2 * c13, s12 * s23 + m2 * s13),
        (1, a01 * a12 - a02 * e1, s01 * s12 + s02 * m1, c02 * e3 - a23 * c03, s02 * m3 + s23 * s03),
        (-1, a01 * a13 - a03 * e1, s01 * s13 + s03 * m1, c02 * c23 - e2 * c03, s02 * s23 + m2 * s03),
        (1, top23, top23_sum, np.conj(top23), top23_sum),
    ):
        t, b = np.abs(top), np.abs(bottom)
        det = det + sign * (top * bottom).real
        err = err + t * (3.0 * b_sum + b) + b * (3.0 * t_sum + t) + 2.0 * t * b + np.abs(det)
    return det, _U * err


def _char_poly(x, e1, e2, e3, e4):
    """p, p' and p'' at x of p(x) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4, by Horner."""
    p = (((x - e1) * x + e2) * x - e3) * x + e4
    dp = ((4.0 * x - 3.0 * e1) * x + 2.0 * e2) * x - e3
    ddp = (12.0 * x - 6.0 * e1) * x + 2.0 * e2
    return p, dp, ddp


def _pt_min(pt: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of a (4, 4, m) entry stack
    (``pt[a, b]`` the (m,) row of entry (a, b)), given its determinants det
    if the caller has them.

    Stacks of at least _PT_MIN_STACK matrices go through ``_laguerre_min``;
    the matrices it does not certify, and smaller stacks (where one LAPACK
    call per stack is faster), go to ``np.linalg.eigvalsh``.
    """
    if pt.shape[-1] < _PT_MIN_STACK:
        return cmat._lapack(np.linalg.eigvalsh, pt.transpose(2, 0, 1))[:, 0]
    with np.errstate(all="ignore"):  # overflow and NaN leave a matrix uncertified
        if det is None:
            det = _hermitian_det(pt.transpose(2, 0, 1))
        lam, certified = _laguerre_min(pt, det)
    failed = np.nonzero(~certified)[0]
    if len(failed):
        lam[failed] = cmat._lapack(np.linalg.eigvalsh, pt[:, :, failed].transpose(2, 0, 1))[:, 0]
    return lam


def _laguerre_min(pt: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of each matrix of a (4, 4, m) Hermitian entry stack
    with determinants det, from its characteristic polynomial, and the mask of
    certified matrices.

    A is the Hermitian matrix that the real diagonal d and the lower
    triangle define, the one eigvalsh reads, so a stack that is Hermitian
    only within TOL.hermiticity gets the same value from either route.  The
    coefficients e1..e3 of p(x) = det(x I - A) are the sums of its principal
    1x1, 2x2 and 3x3 minors, formed from d and the six off-diagonal rows
    a_ij (i < j); e4 = det, which the caller formed from the whole matrix
    (where that is not A, the Newton step below corrects the difference or
    leaves the matrix uncertified).  All roots of p are real, and
    Laguerre's method started below all of them climbs monotonically to the
    smallest (Parlett, Math. Comp. 18, 464 (1964)), with cubic convergence;
    the start is Gershgorin's bound min_i (d_i - sum_j |a_ij|).  After
    _PT_LAGUERRE_STEPS steps, a final Newton step takes p(x) as det(A - x I)
    from ``_det_with_bound``, straight from the entries, so that its error
    bound E does not carry the coefficients' rounding.

    A matrix is certified when its row 1-norms are at most _PT_MAX_ROW
    (nothing overflows), the result is finite, the Newton step s is at most
    _PT_TOL (the iteration has converged) and
    (E + |p''| s^2) / |p'| + u max_i |d_i - x| <= _PT_TOL.  The first term
    bounds the distance to the root to first order, Newton's remainder
    included; the second bounds the rounding of the shifted diagonal, a
    Hermitian perturbation of at most that norm (Weyl).  On 2.9e5 screened
    sampler states, 5 steps already left every certified value within 6e-16
    of LAPACK's; 6 keep one step in reserve.  The certificate refused 0.23%
    of those states.  It refuses pure states of Schmidt coefficient
    alpha <= 0.01 in a generic product basis, where three PT eigenvalues lie
    within alpha of zero and the kernel's value can be off by 3e-4.
    """
    rows, cols = zip(*_LAPLACE_PAIRS)
    d = pt[range(4), range(4)].real
    off = np.conj(pt[cols, rows])  # the lower triangle, which eigvalsh reads
    q = off.real * off.real + off.imag * off.imag
    mod = np.sqrt(q)
    r = mod[_OFF_OF_ROW, :].sum(axis=1)  # off-diagonal row sums of |A|
    in_range = (np.abs(d) + r).max(axis=0) <= _PT_MAX_ROW
    x = (d - r).min(axis=0)
    dd, ds = d[rows, :] * d[cols, :], d[rows, :] + d[cols, :]
    ij, jk, ik = (off[list(t), :] for t in zip(*_TRIANGLES))
    e1 = d.sum(axis=0)
    e2 = (dd - q).sum(axis=0)
    # pair k's complementary pair is 5 - k, so ds[::-1] sums the other two diagonal entries
    e3 = dd[0] * ds[5] + dd[5] * ds[0] - (q * ds[::-1]).sum(axis=0)
    e3 = e3 + 2.0 * (ij * jk * np.conj(ik)).real.sum(axis=0)
    for _ in range(_PT_LAGUERRE_STEPS):
        p, dp, ddp = _char_poly(x, e1, e2, e3, det)
        # below the smallest root p > 0 > p'; the denominator is Laguerre's
        # p' -/+ sqrt(...) of larger modulus, so x moves up towards that root
        x = x - 4.0 * p / (dp - np.sqrt(np.maximum(9.0 * dp * dp - 12.0 * p * ddp, 0.0)))
    _, dp, ddp = _char_poly(x, e1, e2, e3, det)
    p, bound = _det_with_bound(d - x, off, q, mod)
    step = p / dp
    lam = x - step
    bound = (bound + np.abs(ddp) * step * step) / np.abs(dp) + _U * np.abs(d - x).max(axis=0)
    certified = in_range & np.isfinite(lam) & (np.abs(step) <= _PT_TOL) & (bound <= _PT_TOL)
    return lam, certified


def _pt_screen(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, smallest PT eigenvalues) of the states of a (4, 4, n) entry
    stack of density matrices (``rho[a, b]`` the (n,) row of entry (a, b), the
    sampler's layout) that the EPS_SEP rule might call entangled: those with
    det(rho^Gamma) <= DET_SCREEN, with lambda_min(rho^Gamma) from ``_pt_min``.

    rho^Gamma is formed once, for every state, as a permutation of the 16
    entry rows, and its Hermiticity checked; ``_hermitian_det`` reads it
    through a (n, 4, 4) view, so every minor multiplies contiguous rows, and
    only the screened states are gathered, as a (4, 4, m) entry stack that
    ``_pt_min`` takes with their determinants.  A two-qubit PT has at most
    one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)),
    so det(rho^Gamma) > 0 means PPT.  Rounding cannot defeat the screen: a
    certified lambda_min lies within 1e-15 of the exact one by its error
    bound, and an eigvalsh value is exact for a matrix within about 1e-15 of
    rho^Gamma (whose norm is at most 1), which moves no eigenvalue by more
    than 1e-15 (Weyl).  So a state that ``_pt_entangled`` calls entangled
    has one eigenvalue below -EPS_SEP + 1e-15 < 0 and, being a PT up to
    rounding, three above about -1e-15, hence a true determinant below about
    1e-15.  The computed determinant is a sum of 24 signed products of four
    entries, formed through 2x2 minors in a fixed order; its rounding error
    is at most about 20 u perm(|rho^Gamma|), with u = 1.1e-16 and a permanent
    of at most prod_i ||row_i||_1 <= prod_i 2 ||row_i||_2 <= 1, because the
    rows' squared norms sum to tr(rho^2) <= 1.  So it moves the determinant
    by at most about 2e-15, far below DET_SCREEN.  The argument needs
    rho^Gamma Hermitian, because eigvalsh and the kernel read one triangle
    and the expansion the whole matrix; the sampler's entry stacks are
    exactly Hermitian by construction.
    """
    n = rho.shape[-1]
    pt = rho.reshape(16, n)[_PT_ROWS].reshape(4, 4, n)
    cmat._require_hermitian(pt.transpose(2, 0, 1))
    det = _hermitian_det(pt.transpose(2, 0, 1))
    screened = np.nonzero(det <= DET_SCREEN)[0]
    return screened, _pt_min(pt[:, :, screened], det[screened])


def _measure_columns(ms: np.ndarray, pt_min: np.ndarray, c: np.ndarray) -> dict[str, np.ndarray]:
    """C, E_F, E_N, E_sum and S for a (n, 4, 4) stack with smallest PT
    eigenvalues pt_min and concurrences c.

    The PT of a two-qubit density matrix has unit trace and at most one
    negative eigenvalue, so the sum of its absolute eigenvalues minus one is
    -2 pt_min when pt_min < 0: E_sum = 2 E_N, exactly in floating point.
    The Monte Carlo harness passes only the entangled states of a chunk,
    with concurrences from the sampler's spectral pairs.
    """
    return {
        "concurrence": c,
        "e_formation": ef_from_concurrence_batch(c),
        # + 0.0 turns the -0.0 that np.maximum returns for pt_min == 0.0 into 0.0
        "e_negative": np.maximum(0.0, -pt_min) + 0.0,
        "e_sum": np.maximum(0.0, -2.0 * pt_min) + 0.0,
        "linear_entropy": linear_entropy_batch(ms),
    }


def measure_table(ms: np.ndarray) -> dict[str, np.ndarray]:
    """All measures for a (n, 4, 4) stack, sharing the eigendecompositions.

    Hermiticity is checked once, here: the entries of rho^Gamma -
    (rho^Gamma)^dagger are a permutation of those of rho - rho^dagger, so
    both have the same defect.
    """
    ms = np.asarray(ms)
    cmat._require_hermitian(ms)
    return _table_of_hermitian(ms)


def _table_of_hermitian(ms: np.ndarray) -> dict[str, np.ndarray]:
    """``measure_table`` for a stack already known to be Hermitian."""
    c = concurrence_from_eig(*cmat._lapack(np.linalg.eigh, ms))
    pt_min = _pt_min(np.ascontiguousarray(cmat.partial_transpose_b(ms).transpose(1, 2, 0)))
    table = _measure_columns(ms, pt_min, c)
    table["separable"] = ~_pt_entangled(pt_min)
    return table


def measure_report(rho: DensityMatrix) -> MeasureReport:
    """Evaluate every measure once for a single state.

    A DensityMatrix is Hermitian by construction, so the table skips the
    check.  A single state always takes the LAPACK route: routing it through
    the kernels was measured about twelve times slower.  Stacks of states,
    as the CLI reads them, go to ``measure_table`` in one call instead.
    """
    table = _table_of_hermitian(rho.matrix[None])
    return MeasureReport(**{name: column[0].item() for name, column in table.items()})


def concurrence(rho: DensityMatrix) -> float:
    return measure_report(rho).concurrence


def e_formation(rho: DensityMatrix) -> float:
    return measure_report(rho).e_formation


def e_negative(rho: DensityMatrix) -> float:
    """Modulus of the most negative partial-transpose eigenvalue (0 if none)."""
    return measure_report(rho).e_negative


def e_sum(rho: DensityMatrix) -> float:
    """Sum of absolute partial-transpose eigenvalues minus one (0 iff PPT)."""
    return measure_report(rho).e_sum


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - tr(rho^2); zero for pure states, 3/4 for the maximally mixed state."""
    return measure_report(rho).linear_entropy


def is_separable(rho: DensityMatrix) -> bool:
    """Positive-partial-transpose test, exact for two qubits."""
    return measure_report(rho).separable
