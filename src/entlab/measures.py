"""Entanglement measures for two-qubit states.

Each quantity has one numerical core that works on a raw (..., 4, 4) stack
or an array of values: ``pt_eigenvalues``, ``concurrence_from_eig`` (from a
spectral pair (p, U); ``concurrence_batch`` feeds it one checked
eigendecomposition of each matrix), ``ef_from_concurrence_batch``,
``linear_entropy_batch`` and the column assembler behind ``measure_table``.
The Monte Carlo harness uses the same cores and the same separability rule
``_pt_entangled``, but screens states by det(rho^Gamma) (``_pt_screen``)
before it computes PT spectra, and takes the concurrence from the sampler's
spectral pairs.  ``measure_report`` evaluates ``measure_table`` for one validated
DensityMatrix, and the scalar functions (``concurrence``, ``e_formation``,
``e_negative``, ``e_sum``, ``linear_entropy``, ``is_separable``) return its
fields, so a scalar call equals the corresponding table entry exactly.
``binary_entropy`` and ``ef_from_concurrence`` check their argument's
domain and then return the element of the array formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmat
from .errors import DomainError
from .qstate import DensityMatrix

# PT eigenvalues above -EPS_SEP count as separable; the Monte Carlo harness
# discards such states rather than treating rounding noise as entanglement.
EPS_SEP = 1e-10
# det(rho^Gamma) above DET_SCREEN certifies that a density matrix is
# separable under the EPS_SEP rule, without its PT spectrum; see _pt_screen.
DET_SCREEN = 1e-12
_DOMAIN_SLACK = 1e-12

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y (x) sigma_y is exactly real: the anti-diagonal (-1, 1, 1, -1).
_FLIP = cmat.kron2(SIGMA_Y, SIGMA_Y).real
# Row i of (sy x sy) M is _FLIP_SIGNS[i] times row 3 - i of M.
_FLIP_SIGNS = np.fliplr(_FLIP).diagonal()


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


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y), conjugation in the computational basis."""
    return spin_flip_batch(rho.matrix)


def spin_flip_batch(ms: np.ndarray) -> np.ndarray:
    ms = np.asarray(ms)
    return _FLIP @ np.conj(ms) @ _FLIP


def pt_eigenvalues(ms: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the partial transpose, for a (..., 4, 4) stack."""
    return cmat.eigvalsh_desc(cmat.partial_transpose_b(np.asarray(ms)))


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
    signed row reversal, so B needs one product.  Entries of p in
    [-TOL.psd_clamp, 0) are clipped to zero; anything lower raises NotPSD.
    """
    root = np.sqrt(cmat._require_psd(np.asarray(p)))
    u = np.asarray(u)
    flipped = _FLIP_SIGNS[:, None] * np.conj(u[..., ::-1, :])
    b = root[..., :, None] * (np.conj(np.swapaxes(u, -1, -2)) @ flipped) * root[..., None, :]
    lam = np.linalg.svd(b, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_batch(ms: np.ndarray) -> np.ndarray:
    """max{0, l1 - l2 - l3 - l4} over the descending R spectrum of each state
    of a (..., 4, 4) stack, from one checked eigendecomposition."""
    return concurrence_from_eig(*cmat.psd_eigh(ms))


def _clamped_unit(x: float, what: str) -> float:
    if not -_DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"{what} must lie in [0, 1], got {x!r}")
    return min(max(x, 0.0), 1.0)


def binary_entropy(x: float) -> float:
    """-x log2 x - (1 - x) log2(1 - x), with the 0 log 0 = 0 convention.

    Arguments within 1e-12 of the interval are clamped; anything further
    out raises DomainError.
    """
    x = _clamped_unit(float(x), "binary_entropy argument")
    return float(_binary_entropy_arr(np.array([x]))[0])


def _binary_entropy_arr(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1.0 - xi) * np.log2(1.0 - xi))
    return out


def ef_from_concurrence(c: float) -> float:
    """Formation measure as a strictly increasing function of the concurrence."""
    c = _clamped_unit(float(c), "concurrence")
    return float(ef_from_concurrence_batch(np.array([c]))[0])


def ef_from_concurrence_batch(c: np.ndarray) -> np.ndarray:
    c = np.clip(np.asarray(c), 0.0, 1.0)
    return _binary_entropy_arr((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def linear_entropy_batch(ms: np.ndarray) -> np.ndarray:
    ms = np.asarray(ms)
    return np.maximum(0.0, 1.0 - np.einsum("...ij,...ji->...", ms, ms).real)


def _pt_entangled(pt_w: np.ndarray) -> np.ndarray:
    """True where the smallest PT eigenvalue lies below -EPS_SEP (entangled)."""
    return pt_w[..., -1] < -EPS_SEP


def _pt_screen(ms: np.ndarray) -> np.ndarray:
    """Indices of the states of a (n, 4, 4) stack of density matrices that the
    EPS_SEP rule might call entangled: those with det(rho^Gamma) <= DET_SCREEN.

    The Hermiticity check covers every PT, screened out or not.  A two-qubit
    PT has at most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58,
    826 (1998)), so det(rho^Gamma) > 0 means PPT.  Rounding cannot defeat the
    screen: eigvalsh's eigenvalues are exact for a matrix within about 1e-15
    of rho^Gamma (whose norm is at most 1), so a state that ``_pt_entangled``
    calls entangled has one eigenvalue below -EPS_SEP + 1e-15 < 0 and three
    above -1e-15, hence a true determinant below about 1e-15; LU rounding
    moves the computed determinant by at most about 1e-14, far below
    DET_SCREEN.  The argument needs a Hermiticity defect at rounding level,
    as the sampler's stacks have (about 1e-16), because eigvalsh reads one
    triangle and det the whole matrix.
    """
    pt = cmat.partial_transpose_b(np.asarray(ms))
    cmat._require_hermitian(pt)
    return np.nonzero(np.linalg.det(pt).real <= DET_SCREEN)[0]


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
    """All measures for a (n, 4, 4) stack, sharing the eigendecompositions."""
    ms = np.asarray(ms)
    pt_w = pt_eigenvalues(ms)
    table = _measure_columns(ms, pt_w, concurrence_batch(ms))
    table["separable"] = ~_pt_entangled(pt_w)
    return table


def measure_report(rho: DensityMatrix) -> MeasureReport:
    """Evaluate every measure once for a single state."""
    table = measure_table(rho.matrix[None])
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
