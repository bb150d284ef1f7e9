"""Entanglement measures for two-qubit states.

Each quantity has one numerical core that works on a raw (..., 4, 4) stack
or an array of values: ``concurrence_from_eig`` (from a spectral pair
(p, U); ``concurrence_batch`` feeds it one checked eigendecomposition of
each matrix), ``ef_from_concurrence_batch``, ``linear_entropy_batch`` and
the column assembler behind ``measure_table``, which also forms the
partial-transpose (PT) spectra.  The concurrence core's singular values
come from a one-sided Jacobi kernel for stacks of at least
_JACOBI_MIN_STACK matrices and from LAPACK below that and for any matrix
the kernel cannot certify; the two agree to rounding.  The Monte Carlo
harness uses the same cores and the same separability rule
``_pt_entangled``, but screens states by det(rho^Gamma) (``_pt_screen``,
which works on the sampler's (4, 4, n) entry stack, forms each PT once and
returns the spectra of the states it keeps) and takes the concurrence from
the sampler's spectral pairs.  ``measure_report`` evaluates the body of
``measure_table`` for one DensityMatrix, whose construction already checked
its Hermiticity, and the scalar functions (``concurrence``,
``e_formation``, ``e_negative``, ``e_sum``, ``linear_entropy``,
``is_separable``) return its fields, so a scalar call equals the
corresponding table entry exactly.
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
# for, the sweep count and the residual that certifies a matrix.  On 2 cores
# with OpenBLAS 0.3.31, LAPACK's svd took 0.014 ms for 1 matrix and 1.4 ms
# for 256, the kernel 0.7 ms and 1.4 ms; at 3000 matrices 16 ms against 8.3.
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


def report_csv_row(report: MeasureReport) -> str:
    """One CSV row per MeasureReport, 17 significant digits."""
    values = (
        report.concurrence,
        report.e_formation,
        report.e_negative,
        report.e_sum,
        report.linear_entropy,
    )
    tail = "true" if report.separable else "false"
    return ",".join(f"{v:.17g}" for v in values) + "," + tail


def concurrence_from_eig(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Concurrence of rho = u diag(p) u^dagger from its spectral pair, for
    spectra p of shape (..., 4) and unitaries u of shape (..., 4, 4).

    The R spectrum, the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), is the
    set of singular values of B = sqrt(p) u^dagger (sy x sy) conj(u) sqrt(p)
    (Wootters, PRL 80, 2245 (1998)): B is sqrt(rho) (sy x sy) sqrt(rho)^T with
    the unitaries u and u^T taken off its two sides, and R^2 is unitarily
    similar to B B^dagger.  Singular values keep full absolute accuracy for
    near-zero R eigenvalues, where squaring and rooting would lose half the
    digits that rank-deficient (pure) states need.  (sy x sy) conj(u) is a
    signed row reversal, so B needs one product.  The singular values come
    from one core, ``_singular_values``: a one-sided Jacobi kernel for stacks
    of at least _JACOBI_MIN_STACK matrices, LAPACK below that and for any
    matrix the kernel cannot certify, so a state's value depends on the size
    of the stack it comes in only by rounding.  Entries of p in
    [-TOL.psd_clamp, 0) are clipped to zero; anything lower, or NaN, raises
    NotPSD.
    """
    lam = _r_spectrum(p, u)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _r_spectrum(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Descending R spectrum of u diag(p) u^dagger: the singular values of B."""
    root = np.sqrt(cmat._require_psd(np.asarray(p)))
    u = np.asarray(u)
    flipped = _FLIP_SIGNS[:, None] * np.conj(u[..., ::-1, :])
    b = root[..., :, None] * (np.conj(np.swapaxes(u, -1, -2)) @ flipped) * root[..., None, :]
    return _singular_values(b)


def _singular_values(b: np.ndarray) -> np.ndarray:
    """Descending singular values of a (..., 4, 4) stack.

    Stacks of at least _JACOBI_MIN_STACK matrices go through ``_jacobi``;
    the matrices it does not certify, and smaller stacks (where one LAPACK
    call per stack is faster), go to ``np.linalg.svd``.
    """
    lead = b.shape[:-2]
    if math.prod(lead) < _JACOBI_MIN_STACK:
        return cmat._lapack(np.linalg.svd, b, compute_uv=False)
    b = b.reshape(-1, 4, 4)
    cols = np.ascontiguousarray(b.transpose(2, 1, 0))  # cols[j, :, k]: column j of matrix k
    certified = _jacobi(cols)
    lam = np.sort(np.sqrt(_column_norms_sq(cols)).T, axis=-1)[:, ::-1]
    failed = np.nonzero(~certified)[0]
    if len(failed):
        lam[failed] = cmat._lapack(np.linalg.svd, b[failed], compute_uv=False)
    return lam.reshape(lead + (4,))


def _column_norms_sq(cols: np.ndarray) -> np.ndarray:
    """Squared 2-norms (4, n) of the columns of a (4, 4, n) column stack."""
    f = cols.view(np.float64)  # real and imaginary parts interleaved along the last axis
    sq = np.einsum("crn,crn->cn", f, f)
    return sq[:, 0::2] + sq[:, 1::2]


def _jacobi(cols: np.ndarray) -> np.ndarray:
    """One-sided Jacobi (Hestenes, J. SIAM 6, 51 (1958)) on a (4, 4, n)
    complex column stack, in place; returns the mask of certified matrices.

    Each sweep makes every pair of columns b_j, b_k orthogonal by a complex
    rotation, which keeps the singular values, so afterwards they are the
    column norms (in no particular order).  A sweep is three rounds of two
    disjoint pairs, each round two basic-slice views of the stack, and the
    norms are recomputed every round.  The kernel runs _JACOBI_SWEEPS sweeps
    and certifies a matrix when, before each rotation of the last sweep,
    |b_j^H b_k| <= _JACOBI_TOL ||b_j|| ||b_k|| (never for NaN).  Jacobi
    computes singular values to high relative accuracy (Demmel & Veselic,
    SIAM J. Matrix Anal. Appl. 13, 1204 (1992)), and the last sweep leaves
    an error second order in that residual: on 3.3e5 sampler matrices, rows
    whose residual before a sweep was up to 1e-4 came out within 1e-15 of
    LAPACK after it.  Five sweeps certified every one of them; after four,
    the residual still exceeded 1e-3 on some.
    """
    certified = np.ones(cols.shape[-1], dtype=bool)
    for sweep in range(_JACOBI_SWEEPS):
        for pick_x, pick_y in _JACOBI_ROUNDS:
            x, y = cols[pick_x], cols[pick_y]  # (2, 4, n) views: two pairs of columns
            norms_sq = _column_norms_sq(cols)
            alpha, beta = norms_sq[pick_x], norms_sq[pick_y]
            gamma = (np.conj(x) * y).sum(axis=1)
            g2 = gamma.real**2 + gamma.imag**2
            if sweep == _JACOBI_SWEEPS - 1:
                certified &= (g2 <= _JACOBI_TOL**2 * alpha * beta).all(axis=0)
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
    return certified


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


def _pt_entangled(pt_w: np.ndarray) -> np.ndarray:
    """True where the smallest PT eigenvalue lies below -EPS_SEP (entangled)."""
    return pt_w[..., -1] < -EPS_SEP


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


def _pt_screen(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, PT eigenvalues) of the states of a (4, 4, n) entry stack of
    density matrices (``rho[a, b]`` the (n,) row of entry (a, b), the
    sampler's layout) that the EPS_SEP rule might call entangled: those with
    det(rho^Gamma) <= DET_SCREEN, with their descending PT spectra.

    rho^Gamma is formed once, for every state, as a permutation of the 16
    entry rows, and its Hermiticity checked; ``_hermitian_det`` reads it
    through a (n, 4, 4) view, so every minor multiplies contiguous rows, and
    only the screened states are gathered into a (m, 4, 4) stack for the
    eigensolver.  A two-qubit PT has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), so det(rho^Gamma) > 0
    means PPT.  Rounding cannot defeat the screen: eigvalsh's eigenvalues
    are exact for a matrix within about 1e-15 of rho^Gamma (whose norm is at
    most 1), so a state that ``_pt_entangled`` calls entangled has one
    eigenvalue below -EPS_SEP + 1e-15 < 0 and three above -1e-15, hence a
    true determinant below about 1e-15.  The computed determinant is a sum
    of 24 signed products of four entries, formed through 2x2 minors in a
    fixed order; its rounding error is at most about 20 u perm(|rho^Gamma|),
    with u = 1.1e-16 and a permanent of at most prod_i ||row_i||_1 <=
    prod_i 2 ||row_i||_2 <= 1, because the rows' squared norms sum to
    tr(rho^2) <= 1.  So it moves the determinant by at most about 2e-15, far
    below DET_SCREEN.  The argument needs rho^Gamma Hermitian, because
    eigvalsh reads one triangle and the expansion the whole matrix; the
    sampler's entry stacks are exactly Hermitian by construction.
    """
    n = rho.shape[-1]
    pt = rho.reshape(16, n)[_PT_ROWS].reshape(4, 4, n).transpose(2, 0, 1)
    cmat._require_hermitian(pt)
    screened = np.nonzero(_hermitian_det(pt) <= DET_SCREEN)[0]
    return screened, cmat._lapack(np.linalg.eigvalsh, pt[screened])[..., ::-1]


def _measure_columns(ms: np.ndarray, pt_w: np.ndarray, c: np.ndarray) -> dict[str, np.ndarray]:
    """C, E_F, E_N, E_sum and S for a (n, 4, 4) stack with PT eigenvalues pt_w
    and concurrences c.

    The Monte Carlo harness passes only the entangled states of a chunk, with
    concurrences from the sampler's spectral pairs.
    """
    return {
        "concurrence": c,
        "e_formation": ef_from_concurrence_batch(c),
        "e_negative": np.maximum(0.0, -pt_w[..., -1]),
        "e_sum": np.maximum(0.0, np.abs(pt_w).sum(axis=-1) - 1.0),
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
    pt_w = cmat._lapack(np.linalg.eigvalsh, cmat.partial_transpose_b(ms))[..., ::-1]
    table = _measure_columns(ms, pt_w, c)
    table["separable"] = ~_pt_entangled(pt_w)
    return table


def measure_report(rho: DensityMatrix) -> MeasureReport:
    """Evaluate every measure once for a single state.

    A DensityMatrix is Hermitian by construction, so the table skips the check.
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
