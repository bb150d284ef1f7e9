"""Entanglement measures for two-qubit states.

Every state is measured through one route, ``_spectral_table``, from a
spectral pair (p, U): p >= 0 and the column stack of U.  It assembles
rho = U diag(p) U^dagger exactly Hermitian, screens it by det(rho^Gamma),
read in place from rho's entry rows (``_pt_screen``, whose kept states,
with their determinants, go on without rho to ``_pt_min``, the smallest
partial-transpose (PT) eigenvalue; that alone fixes E_N, E_sum = 2 E_N and
separability, because a two-qubit PT has at most one negative eigenvalue),
takes the concurrence of the NPT states from their pairs
(``concurrence_from_eig``, then ``ef_from_concurrence_batch``) and the
linear entropy from p.  The Monte Carlo harness passes the sampler's
pairs; ``measure_table``, every command of the CLI that handles states and
the scalar API pass the clamped eigenpairs of one ``eigh``
(``_table_from_eig``): of ``qstate``'s stack check, which
``measure_table`` runs and ``measure --input`` takes from the reader, or
of a DensityMatrix, which its construction checked.  ``_table_from_eig``
measures a stack of n >= 2 _TABLE_BLOCK states in n // _TABLE_BLOCK
parts of at least _TABLE_BLOCK states, so that the route's working set is
that of one part; the harness's chunks, all smaller, go whole.  Inside the
route and its kernels, each array is dropped after its last reader.

Both kernels work on characteristic polynomials: the concurrence on that
of B^H B, whose largest root and the sum of the square roots of the other
three give C without the singular values themselves, and the smallest PT
eigenvalue on that of each PT; both take (4, 4, n) entry stacks, as the
determinant does, and share one root step, ``_laguerre_newton`` (Laguerre
steps, then a Newton step with a certified error bound), and one
fallback, ``_kernel_or_lapack``: LAPACK takes stacks under _C_MIN_STACK
or _PT_MIN_STACK matrices and any matrix a kernel cannot certify, and the
two routes agree to rounding.  A state's bits depend on the rest of its
stack only through that cutoff, which applies to the screened and the NPT
states.  ``measure_report`` returns the one row of the table of one
state; it serves ``experiment.compare_pair`` and the scalar functions
(``concurrence``, ``e_formation``, ``e_negative``, ``e_sum``,
``linear_entropy``, ``is_separable``), which return its fields, so a
scalar call equals the corresponding entry of a 1-stack table exactly and
of a larger table to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import cmat, qstate, sampler
from .errors import ParameterOutOfRange

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
# Concurrence by the characteristic polynomial of B^H B (_laguerre_concurrence):
# the smallest stack it is used for, its Laguerre step count, the largest
# final Newton step and error bound, relative to mu1 and sqrt(mu1), that
# certify a value, and the largest cancellation factor allowed in e2.  On 2
# cores with OpenBLAS 0.3.31, LAPACK's route took 0.05 ms for 1 matrix,
# 1.4 ms for 192 and 1.9 ms for 256, the kernel 1.0, 1.4 and 1.4 ms; at 3000
# matrices 4.3 ms against 22 ms.
_C_MIN_STACK = 256
_C_LAGUERRE_STEPS = 5
_C_STEP = 1e-13
_C_TOL = 2.5e-16
_C_CANCEL = 8.0
# The entry rows (i, j, l, n) of the 2x2 minors b_il b_jn - b_in b_jl of B
# behind e2: rows I = (i, j) and columns J = (l, n) among _LAPLACE_PAIRS,
# first the six with I = J, then the 15 with I < J, each of which stands
# also for (J, I), as B is symmetric.
_MINOR_ENTRIES = tuple(
    _LAPLACE_PAIRS[i] + _LAPLACE_PAIRS[j]
    for i, j in [(i, i) for i in range(6)] + [(i, j) for i in range(6) for j in range(i + 1, 6)]
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
# Largest |p'' s / p'| for a final Newton step s at which a kernel trusts its
# first-order error bound (see _laguerre_newton).
_NEWTON_H = 0.01
# Unit roundoff of float64.
_U = 2.0**-53

# Fewest states of each part in which _table_from_eig measures a large stack:
# above the largest chunk of the Monte Carlo harness (11409 draws), which
# calls _spectral_table directly.  At 8192 and at 16384 states a part,
# `measure --input` of 10^5 states peaked at the same RSS, set by the reader.
_TABLE_BLOCK = 16384

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


REPORT_CSV_HEADER = ",".join(field.name for field in fields(MeasureReport))


def concurrence_from_eig(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Concurrence of rho = u diag(p) u^dagger from its spectral pair, for
    spectra p of shape (..., 4) and unitaries u of shape (..., 4, 4).

    The R spectrum, the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), is the
    set of singular values of B = sqrt(p) u^dagger (sy x sy) conj(u) sqrt(p)
    (Wootters, PRL 80, 2245 (1998)): B is sqrt(rho) (sy x sy) sqrt(rho)^T with
    the unitaries u and u^T taken off its two sides, and R^2 is unitarily
    similar to B B^dagger, so C = max(0, l1 - l2 - l3 - l4) for the singular
    values l1 >= ... >= l4 of B.  ``_kernel_or_lapack`` sends stacks under
    _C_MIN_STACK, and the matrices ``_laguerre_concurrence`` does not
    certify on the entry stack ``_conj_w`` forms, to
    ``_lapack_concurrence``; the two routes agree to rounding.
    Entries of p in [-TOL.psd_clamp, 0) are clipped to zero; anything lower,
    or NaN, raises the error of ``cmat.psd_fault``.
    """
    if fault := cmat.psd_fault(p):
        raise fault[1]
    p, u = np.clip(p, 0.0, None), np.asarray(u)
    lead = u.shape[:-2]
    p, u = p.reshape(-1, 4), u.reshape(-1, 4, 4)
    c = _kernel_or_lapack(
        len(u), _C_MIN_STACK,
        lambda: _laguerre_concurrence(np.ascontiguousarray(p.T), _conj_w(u)),
        lambda rows: _lapack_concurrence(p[rows], u[rows]),
    )
    return c.reshape(lead)


def _kernel_or_lapack(n, min_stack, kernel, lapack) -> np.ndarray:
    """Values of a stack of n matrices: ``lapack(...)``, LAPACK's for the
    whole stack, if n < min_stack, where one LAPACK call is faster; else the
    values of ``kernel()`` (values, certified mask), run under
    ``np.errstate`` since overflow and NaN only leave a matrix uncertified,
    with ``lapack(rows)`` for the rows it refuses, the bits a small stack
    would give them."""
    if n < min_stack:
        return lapack(...)
    with np.errstate(all="ignore"):
        values, certified = kernel()
    failed = np.nonzero(~certified)[0]
    if len(failed):
        values[failed] = lapack(failed)
    return values


def _lapack_concurrence(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Concurrence from LAPACK's singular values of B = sqrt(p) u^dagger
    (sy x sy) conj(u) sqrt(p): one batched product and one SVD.  Singular
    values keep full absolute accuracy for near-zero R eigenvalues, where
    squaring and rooting would lose half the digits that rank-deficient
    (pure) states need.  (sy x sy) conj(u) is a signed row reversal."""
    root = np.sqrt(p)
    flipped = _FLIP_SIGNS[:, None] * np.conj(u[..., ::-1, :])
    b = root[..., :, None] * (np.conj(np.swapaxes(u, -1, -2)) @ flipped) * root[..., None, :]
    lam = cmat._lapack(np.linalg.svd, b, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _conj_w(u: np.ndarray) -> np.ndarray:
    """conj(W) for the symmetric unitary W = u^dagger (sy x sy) conj(u), with
    B = sqrt(p) W sqrt(p), for u (m, 4, 4), as a (4, 4, m) entry stack:
    ``w[k, l]`` is the (m,) row of entry (k, l).

    Only the ten upper entries are formed: entry (k, l) is
    u_1k u_2l + u_2k u_1l - u_0k u_3l - u_3k u_0l, four products of
    contiguous rows of the column stack in a fixed order, so a state's bits
    do not depend on m.  A transposed column stack, as the Monte Carlo
    harness passes it, is read without a copy; a real u (from a real stack)
    is made complex.
    """
    u = np.ascontiguousarray(u.transpose(2, 1, 0), dtype=complex)
    w = np.empty_like(u)
    for k in range(4):
        for l in range(k, 4):
            x, y = u[k], u[l]
            w[k, l] = w[l, k] = x[1] * y[2] + x[2] * y[1] - x[0] * y[3] - x[3] * y[0]
    return w


def _laguerre_concurrence(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence of each state of a stack given by its spectra p (4, m) and
    the conj(W) entry stack w (4, 4, m) of ``_conj_w``, from the
    characteristic polynomial of G = B^H B, and the mask of certified values.

    Cauchy-Binet gives each coefficient e_k of
    det(x I - G) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4 as the sum of
    |det B[I, J]|^2 = p_I p_J |det W[I, J]|^2 over the k-subsets I, J, with
    B = D W D, D = diag(sqrt(p)) and p_I the product of p over I: e1 from
    the entries of B; e2 from its 21 distinct 2x2 minors (B is symmetric);
    e3 from the entries of W with weights q_k q_l, q_k the product of the
    other three p, since a unitary's 3x3 minors have the moduli of the
    complementary entries; and e4 = (p0 p1 p2 p3)^2.  Every term is
    nonnegative, so the small roots keep their relative accuracy unless the
    2x2 minors cancel: a matrix whose minors' products
    sum (|B_il B_jn|^2 + |B_in B_jl|^2) exceed _C_CANCEL e2 is not certified.

    The largest root mu1 = l1^2 comes from ``_laguerre_newton`` started at
    e1 >= mu1, with G_kl = sum_j conj(B_jk) B_jl formed from the entries of
    B for its Newton step.  The other three roots are never found: deflating
    p(x) by x - mu1 gives their elementary symmetric functions f3 = e4 / mu1,
    f2 = (e3 - f3) / mu1 and f1 = (e2 - f2) / mu1, each subtraction losing
    at most a factor 2, as f3 <= mu1 f2 and f2 <= mu1 f1; and
    s = l2 + l3 + l4 solves s = sqrt(f1 + 2 t) with
    t = sqrt(f2 + 2 sqrt(f3) s), a map of slope at most 1/9 (AM-GM), so four
    Newton steps from sqrt(f1 + 2 sqrt(f2)) <= s converge.  Then C = l1 - s.
    For pure and exactly rank-2 states f2 = f3 = 0, the Newton steps divide
    0 by 0 and the value is not finite.

    A value is certified when it is finite, passes the cancellation test
    and either the Newton step is at most _C_STEP mu1, passes the
    Kantorovich test and its bound on mu1, halved by sqrt(mu1), is at most
    _C_TOL; or sqrt(mu1 + |step| + that bound) lies below s by a relative
    margin of 1e-12, far above the rounding of s, which proves C = 0.  The
    Newton step is about the difference between the coefficients' rounding
    and the entries', below 7e-14 mu1 for 99% of the sampler's states.  Of
    2e5 sampler states, every certified value lay within 7e-16 of LAPACK's
    SVD, and 2 of the 73578 entangled ones were refused.
    """
    # B, |W|^2 and |B|^2 entry by entry: (m,) rows keep every temporary
    # small, where (4, 4, m) ones cost more in page faults than in
    # arithmetic, and each set of rows is dropped after its last reader.
    # conj(B) is named: numpy multiplies into an unnamed temporary of 256 KiB
    # or more in place, which rounds differently, so a state's bits would
    # depend on the size of its stack.
    root = np.sqrt(p)
    b, w2, b2 = {}, {}, {}
    for k in range(4):
        for l in range(k, 4):
            entry = w[k, l]
            w2[k, l] = w2[l, k] = entry.real * entry.real + entry.imag * entry.imag
            b[k, l] = b[l, k] = entry * (root[k] * root[l])
            b2[k, l] = b2[l, k] = w2[k, l] * (p[k] * p[l])
    del root, w, entry  # w dies here when the caller passed it unnamed, as concurrence_from_eig does
    d = np.array([b2[0, k] + b2[1, k] + b2[2, k] + b2[3, k] for k in range(4)])  # the diagonal of G
    e1 = d.sum(axis=0)
    p01, p23 = p[0] * p[1], p[2] * p[3]
    q = (p[1] * p23, p[0] * p23, p01 * p[3], p01 * p[2])
    e3 = sum(q[k] * (q[k] * w2[k, k] + 2.0 * sum(q[l] * w2[k, l] for l in range(k + 1, 4))) for k in range(4))
    e4 = (p01 * p23) ** 2
    del w2, q, p01, p23
    # the minors with I = J count once, the others twice, for (I, J) and (J, I)
    minors_sq, products = [0.0, 0.0], [0.0, 0.0]
    for k, (i, j, l, n) in enumerate(_MINOR_ENTRIES):
        minor = b[i, l] * b[j, n] - b[i, n] * b[j, l]
        twice = int(k >= 6)
        minors_sq[twice] += minor.real * minor.real + minor.imag * minor.imag
        products[twice] += b2[i, l] * b2[j, n] + b2[i, n] * b2[j, l]
    e2 = minors_sq[0] + 2.0 * minors_sq[1]
    products = products[0] + 2.0 * products[1]
    del b2, minor, minors_sq
    conj_b = {}
    for k in range(4):
        for l in range(k, 4):
            conj_b[k, l] = conj_b[l, k] = np.conj(b[k, l])
    off = np.array([sum(b[r, i] * conj_b[r, j] for r in range(4)) for i, j in _LAPLACE_PAIRS])
    del b, conj_b
    off_sq = off.real * off.real + off.imag * off.imag
    mu1, step, bound, kantorovich = _laguerre_newton(
        e1, (e1, e2, e3, e4), d, off, off_sq, _C_LAGUERRE_STEPS, largest=True
    )
    f3 = e4 / mu1
    f2 = (e3 - f3) / mu1
    f1 = (e2 - f2) / mu1
    r3 = np.sqrt(f3)
    s = np.sqrt(f1 + 2.0 * np.sqrt(f2))
    for _ in range(4):
        t = np.sqrt(f2 + 2.0 * r3 * s)
        phi = np.sqrt(f1 + 2.0 * t)
        s = s - (s - phi) / (1.0 - r3 / (t * phi))
    l1 = np.sqrt(mu1)
    conc = l1 - s
    sharp = (np.abs(step) <= _C_STEP * mu1) & kantorovich & (bound <= 2.0 * _C_TOL * l1)
    zero = np.sqrt(mu1 + np.abs(step) + bound) < (1.0 - 1e-12) * s
    certified = np.isfinite(conc) & (products <= _C_CANCEL * e2) & (sharp | zero)
    return np.maximum(0.0, conc), certified


def ef_from_concurrence_batch(c: np.ndarray) -> np.ndarray:
    """Formation measure of the concurrence c (clipped to [0, 1]), elementwise:
    h(y), the binary entropy of y = (1 - sqrt(1 - c^2)) / 2 (Wootters, PRL
    80, 2245 (1998)), formed as c^2 / (2 (1 + sqrt(1 - c^2))), with log2(1 - y)
    from log1p(-y), so that nothing cancels and weak entanglement keeps its
    relative accuracy; a NaN raises ParameterOutOfRange."""
    if np.isnan(c).any():  # the clip keeps a NaN, whose E_F would read 0
        raise ParameterOutOfRange(f"concurrence must be a number, got nan at index {np.flatnonzero(np.isnan(c))[0]}")
    c = np.clip(np.asarray(c), 0.0, 1.0)
    y = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    log2_y = np.log2(y, out=np.zeros_like(y), where=y > 0.0)  # 0 log 0 = 0
    return -(y * log2_y + (1.0 - y) * np.log1p(-y) / np.log(2.0)) + 0.0  # + 0.0: no -0.0 at c = 0


def _hermitian_det(m) -> np.ndarray:
    """Real determinant of each Hermitian matrix of a (4, 4, n) entry stack m
    (or nested lists: ``m[a][b]`` the (n,) row of entry (a, b)), by Laplace
    expansion along rows 0-1: the signed sum of the six products of a 2x2
    minor of rows 0-1 and the complementary minor of rows 2-3."""
    r0, r1, r2, r3 = m
    det = 0.0
    for sign, (j, k), (l, q) in zip((1, -1, 1, 1, -1, 1), _LAPLACE_PAIRS, _LAPLACE_PAIRS[::-1]):
        top = r0[j] * r1[k] - r0[k] * r1[j]
        bottom = r2[l] * r3[q] - r2[q] * r3[l]
        det = det + sign * (top * bottom).real
    return det


def _det_with_bound(d: np.ndarray, off: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant of each Hermitian matrix A of a stack, with a running bound
    on its rounding error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.3) taken from the magnitudes met on the way.
    A is given by the rows of its real diagonal d (4, m) and of its upper
    off-diagonal entries off (6, m), in _LAPLACE_PAIRS order, and their
    squared moduli q.

    This is the expansion of ``_hermitian_det``, with the minors of columns
    01 (rows 0-1) and 23 (rows 2-3) real, d_0 d_1 - |a_01|^2 and
    d_2 d_3 - |a_23|^2, and the 23 term |top_23|^2, as A is Hermitian.  A
    product of two complex numbers errs by at most sqrt(2) gamma_2 < 3u
    times the product of the moduli, one with a real factor by u and |a|^2
    by 2u |a|^2, so a minor errs by at most u (3 P + |minor|), for P the sum
    of the moduli of its two products; a term by its factors' errors times
    the other factor plus 2u |top| |bottom|, and each addition by u times
    the partial sum.  Second-order terms are dropped (the rounding of the
    moduli among them); the added 1e-300 covers underflow for entries of
    modulus at most _PT_MAX_ROW.
    """
    d0, d1, d2, d3 = d
    e0, e1, e2, e3 = d.astype(complex)  # complex products are faster than mixed ones
    a01, a02, a03, a12, a13, a23 = off
    c01, c02, c03, c12, c13, c23 = np.conj(off)
    s01, s02, s03, s12, s13, s23 = np.sqrt(q)
    m0, m1, m2, m3 = np.abs(d)

    def terms():
        """(sign, minor of rows 0-1, the sum P of its products' moduli, the
        same of the complementary minor of rows 2-3) for columns 01, 02, 03,
        12, 13, 23, each formed only once the loop asks for it."""
        yield 1, d0 * d1 - q[0], m0 * m1 + q[0], d2 * d3 - q[5], m2 * m3 + q[5]
        yield -1, e0 * a12 - a02 * c01, m0 * s12 + s02 * s01, c12 * e3 - a23 * c13, s12 * m3 + s23 * s13
        yield 1, e0 * a13 - a03 * c01, m0 * s13 + s03 * s01, c12 * c23 - e2 * c13, s12 * s23 + m2 * s13
        yield 1, a01 * a12 - a02 * e1, s01 * s12 + s02 * m1, c02 * e3 - a23 * c03, s02 * m3 + s23 * s03
        yield -1, a01 * a13 - a03 * e1, s01 * s13 + s03 * m1, c02 * c23 - e2 * c03, s02 * s23 + m2 * s03
        top23, top23_sum = a02 * a13 - a03 * a12, s02 * s13 + s03 * s12
        yield 1, top23, top23_sum, np.conj(top23), top23_sum

    det, err = 0.0, 1e-300 / _U
    for sign, top, t_sum, bottom, b_sum in terms():
        t, b = np.abs(top), np.abs(bottom)
        det = det + sign * (top * bottom).real
        err = err + t * (3.0 * b_sum + b) + b * (3.0 * t_sum + t) + 2.0 * t * b + np.abs(det)
        del top, t_sum, bottom, b_sum, t, b  # before the next term is formed
    return det, _U * err


def _char_poly(x, e1, e2, e3, e4):
    """p, p' and p'' at x of p(x) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4, by Horner."""
    p = (((x - e1) * x + e2) * x - e3) * x + e4
    dp = ((4.0 * x - 3.0 * e1) * x + 2.0 * e2) * x - e3
    ddp = (12.0 * x - 6.0 * e1) * x + 2.0 * e2
    return p, dp, ddp


def _laguerre_newton(x, e, d, off, q, steps: int, largest: bool):
    """(root, final Newton step s, error bound, Kantorovich mask) for the
    largest (or smallest) root of p(x) = det(x I - A) =
    x^4 - e1 x^3 + e2 x^2 - e3 x + e4, e = (e1, e2, e3, e4), for each
    Hermitian A of a stack given as ``_det_with_bound`` takes it, from a
    start x above (below) every root.

    All roots of p are real, and Laguerre's method started beyond them moves
    monotonically to the nearest (Parlett, Math. Comp. 18, 464 (1964)); its
    denominator p' +/- sqrt(...) of larger modulus takes + above the roots
    (p > 0 < p'), - below (p > 0 > p').  After ``steps`` steps, one Newton
    step takes p(x) as det(A - x I) from ``_det_with_bound``, so that its
    error bound E does not carry the coefficients' rounding.  The bound
    (E + |p''| s^2) / |p'| + u max_i |d_i - x| holds to first order, Newton's
    remainder included, the second term for the rounding of the shifted
    diagonal (Weyl); first order is enough only where |p'' s / p'|, the
    quantity of Kantorovich's theorem, is small, as the mask
    |p'' s| <= _NEWTON_H |p'| asks.  Next to a root of multiplicity k it is
    about (k - 1) / k: a PT with a triple eigenvalue 0 (every entry 1e-12)
    passed a first-order bound of 4e-16 at -1.2e-15.
    """
    toward = np.add if largest else np.subtract
    for _ in range(steps):
        p, dp, ddp = _char_poly(x, *e)
        x = x - 4.0 * p / toward(dp, np.sqrt(np.maximum(9.0 * dp * dp - 12.0 * p * ddp, 0.0)))
    _, dp, ddp = _char_poly(x, *e)
    p, bound = _det_with_bound(d - x, off, q)
    step = p / dp
    bound = (bound + np.abs(ddp) * step * step) / np.abs(dp) + _U * np.abs(d - x).max(axis=0)
    return x - step, step, bound, np.abs(ddp * step) <= _NEWTON_H * np.abs(dp)


def _pt_min(pt: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of a (4, 4, m) entry stack
    (``pt[a, b]`` the (m,) row of entry (a, b)) with determinants det.

    ``_kernel_or_lapack`` sends stacks under _PT_MIN_STACK, and the
    matrices ``_laguerre_min`` does not certify, to ``np.linalg.eigvalsh``.
    """
    return _kernel_or_lapack(
        pt.shape[-1], _PT_MIN_STACK,
        lambda: _laguerre_min(pt, det),
        lambda rows: cmat._lapack(np.linalg.eigvalsh, pt[:, :, rows].transpose(2, 0, 1))[:, 0],
    )


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
    leaves the matrix uncertified).  The smallest root comes from
    ``_laguerre_newton`` with _PT_LAGUERRE_STEPS steps, started at
    Gershgorin's bound min_i (d_i - sum_j |a_ij|).

    A matrix is certified when its row 1-norms are at most _PT_MAX_ROW
    (nothing overflows), the result is finite, the Newton step is at most
    _PT_TOL (the iteration has converged) and passes the Kantorovich test,
    and the error bound is at most _PT_TOL.  On 2.9e5 screened sampler
    states, 5 steps already left every certified value within 6e-16
    of LAPACK's; 6 keep one step in reserve.  The certificate refused 0.23%
    of those states.  Every stack comes through ``_pt_screen``: on the
    whole, unscreened stack of 5000 sampler states (seed 20260810) it
    refused 4.3%, 209 of the 214 with lambda_min above 1e-3, but of that
    file's screened states only 3, which ``_pt_min`` sends to ``eigvalsh``.
    It refuses pure states of Schmidt coefficient alpha <= 0.01 in a generic
    product basis, where three PT eigenvalues lie within alpha of zero and
    the kernel's value can be off by 3e-4.
    """
    rows, cols = zip(*_LAPLACE_PAIRS)
    d = pt[range(4), range(4)].real
    off = np.conj(pt[cols, rows])  # the lower triangle, which eigvalsh reads
    q = off.real * off.real + off.imag * off.imag
    r = np.sqrt(q)[_OFF_OF_ROW, :].sum(axis=1)  # off-diagonal row sums of |A|
    in_range = (np.abs(d) + r).max(axis=0) <= _PT_MAX_ROW
    start = (d - r).min(axis=0)
    del r
    dd, ds = d[rows, :] * d[cols, :], d[rows, :] + d[cols, :]
    ij, jk, ik = (off[list(t), :] for t in zip(*_TRIANGLES))
    e1 = d.sum(axis=0)
    e2 = (dd - q).sum(axis=0)
    # pair k's complementary pair is 5 - k, so ds[::-1] sums the other two diagonal entries
    e3 = dd[0] * ds[5] + dd[5] * ds[0] - (q * ds[::-1]).sum(axis=0)
    e3 = e3 + 2.0 * (ij * jk * np.conj(ik)).real.sum(axis=0)
    del dd, ds, ij, jk, ik
    lam, step, bound, kantorovich = _laguerre_newton(
        start, (e1, e2, e3, det), d, off, q, _PT_LAGUERRE_STEPS, largest=False
    )
    converged = (np.abs(step) <= _PT_TOL) & kantorovich
    return lam, in_range & np.isfinite(lam) & converged & (bound <= _PT_TOL)


def _pt_screen(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, PT entry stack, PT determinants) of the states of a
    (4, 4, n) entry stack of density matrices (``rho[a, b]`` the (n,) row of
    entry (a, b), the sampler's layout) that the EPS_SEP rule might call
    entangled: those with det(rho^Gamma) <= DET_SCREEN.

    rho^Gamma is read in place, unchecked (see below): ``_hermitian_det``
    takes rho's 16 entry rows in PT order (``_PT_ROWS``), so every minor
    multiplies rows of rho, and only the screened states' entries are
    gathered, by one index, as the (4, 4, m) entry stack that ``_pt_min``
    takes with their determinants.  Nothing returned refers to rho, so a
    caller that holds no other reference frees it before ``_pt_min`` runs.

    The screen is sound for every rho that ``_spectral_table`` passes:
    u diag(p) u^dagger assembled by ``sampler._assemble_entries`` from p >= 0
    and a u unitary to rounding, as the sampler's pairs and the clamped
    eigenpairs of ``eigh`` are.  Such a rho is exactly Hermitian, so
    eigvalsh and the kernel, which read one triangle, and the expansion,
    which reads the whole matrix, see one matrix; and it lies within about
    1e-15 of a PSD matrix of trace sum(p) = 1 to within 5e-10 (the trace
    check and the clamp), whose PT has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), so det(rho^Gamma) > 0
    means PPT.  Rounding cannot defeat the screen: a certified lambda_min
    lies within 1e-15 of the exact one by its error bound, and an eigvalsh
    value is exact for a matrix within about 1e-15 of rho^Gamma (of norm at
    most about 1), which moves no eigenvalue by more than 1e-15 (Weyl).  So
    a state that the EPS_SEP rule calls entangled has one eigenvalue below
    -EPS_SEP + 1e-15 < 0 and three above about -2e-15, hence a true
    determinant below about 1e-15.  The computed determinant is a sum of 24
    signed products of four entries, formed through 2x2 minors in a fixed
    order; its rounding error is at most about 20 u perm(|rho^Gamma|), with
    u = 1.1e-16 and a permanent of at most prod_i ||row_i||_1 <=
    prod_i 2 ||row_i||_2, about 1, because the rows' squared norms sum to
    tr(rho^2) <= sum(p)^2.  So it moves the determinant by at most about
    2e-15, far below DET_SCREEN.
    """
    flat = rho.reshape(16, rho.shape[-1])
    det = _hermitian_det([[flat[k] for k in row] for row in _PT_ROWS.reshape(4, 4)])
    screened = np.nonzero(det <= DET_SCREEN)[0]
    pt = flat[_PT_ROWS[:, None], screened].reshape(4, 4, len(screened))
    return screened, pt, det[screened]


def _spectral_table(p: np.ndarray, cols: np.ndarray) -> dict[str, np.ndarray]:
    """All measures of the states rho = u diag(p) u^dagger of a spectral
    pair: spectra p >= 0 (n, 4) and the (4, 4, n) column stack cols of the u
    (``cols[k, r]`` the (n,) row of entry r of column k).

    rho is assembled exactly Hermitian and screened by ``_pt_screen``; the
    states it drops are PPT.  rho is freed before ``_pt_min`` takes the
    smallest PT eigenvalue of the others, and their PT entries before the
    concurrence.  C comes from the pairs of the NPT states (lambda_min < 0)
    alone, and is 0 for the PPT ones, which two qubits make separable.  The
    PT has unit trace and at most one negative eigenvalue, so
    E_sum = 2 E_N, exactly in floating point.  S = 1 - sum p^2.
    """
    screened, pt, det = _pt_screen(sampler._assemble_entries(p, cols))
    lam = _pt_min(pt, det)
    del pt, det
    pt_min = np.zeros(len(p))
    pt_min[screened] = lam
    npt = screened[lam < 0.0]
    c = np.zeros(len(p))
    c[npt] = concurrence_from_eig(p[npt], np.take(cols, npt, axis=2).transpose(2, 1, 0))
    return {
        "concurrence": c,
        "e_formation": ef_from_concurrence_batch(c),
        # + 0.0 turns the -0.0 that np.maximum returns for pt_min == 0.0 into 0.0
        "e_negative": np.maximum(0.0, -pt_min) + 0.0,
        "e_sum": np.maximum(0.0, -2.0 * pt_min) + 0.0,
        "linear_entropy": np.maximum(0.0, 1.0 - (p * p).sum(axis=1)),
        "separable": ~(pt_min < -EPS_SEP),
    }


def _table_from_eig(w: np.ndarray, u: np.ndarray) -> dict[str, np.ndarray]:
    """``_spectral_table`` of the eigenvalues w (ascending) and eigenvectors
    u of a checked (n, 4, 4) stack, as ``eigh`` gives them: w clamped at 0,
    u as a complex column stack (a real stack has real eigenvectors).

    A stack of n >= 2 _TABLE_BLOCK states is measured in n // _TABLE_BLOCK
    consecutive parts whose sizes differ by at most one state, and their
    columns are joined, so that the route's working set stays that of one
    part.  Every part holds at least _TABLE_BLOCK states, no short tail, so
    its screened and NPT stacks stay far above the kernels' LAPACK cutoff.
    """
    n = len(w)
    parts = max(1, n // _TABLE_BLOCK)
    edges = [n * k // parts for k in range(parts + 1)]
    tables = [
        _spectral_table(np.clip(w[a:b], 0.0, None), np.ascontiguousarray(u[a:b].transpose(2, 1, 0), dtype=complex))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    if parts == 1:
        return tables[0]
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


def measure_table(ms: np.ndarray) -> dict[str, np.ndarray]:
    """All measures for a (n, 4, 4) stack of density matrices:
    ``_table_from_eig`` of ``qstate._checked_eig``, which raises the error
    of the first matrix that is not Hermitian, of unit trace and PSD, or of
    any array but a numeric (n, 4, 4) stack."""
    return _table_from_eig(*qstate._checked_eig(np.asarray(ms)))


def measure_report(rho: qstate.DensityMatrix) -> MeasureReport:
    """Evaluate every measure once for a single state: row 0 of the table of
    one ``eigh`` of the matrix, which construction checked, and so row 0 of
    its 1-stack ``measure_table``.

    A single state always takes the LAPACK route: routing it through the
    kernels was measured about twelve times slower.  Stacks of states, as
    the CLI reads them, go to ``measure_table`` in one call instead.
    """
    table = _table_from_eig(*cmat._lapack(np.linalg.eigh, rho.matrix[None]))
    return MeasureReport(**{name: column[0].item() for name, column in table.items()})


def concurrence(rho: qstate.DensityMatrix) -> float:
    return measure_report(rho).concurrence


def e_formation(rho: qstate.DensityMatrix) -> float:
    return measure_report(rho).e_formation


def e_negative(rho: qstate.DensityMatrix) -> float:
    """Modulus of the most negative partial-transpose eigenvalue (0 if none)."""
    return measure_report(rho).e_negative


def e_sum(rho: qstate.DensityMatrix) -> float:
    """Sum of absolute partial-transpose eigenvalues minus one (0 iff PPT)."""
    return measure_report(rho).e_sum


def linear_entropy(rho: qstate.DensityMatrix) -> float:
    """1 - tr(rho^2); zero for pure states, 3/4 for the maximally mixed state."""
    return measure_report(rho).linear_entropy


def is_separable(rho: qstate.DensityMatrix) -> bool:
    """Positive-partial-transpose test, exact for two qubits."""
    return measure_report(rho).separable
