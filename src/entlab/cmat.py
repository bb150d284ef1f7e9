"""Dense 4x4 complex linear algebra for two-qubit state calculations.

All operations accept a single (4, 4) matrix; where noted they also accept a
stack of shape (..., 4, 4) and operate on every matrix in the stack.  The
basis ordering is fixed throughout: |00>, |01>, |10>, |11>, with the first
qubit labelled A and the second B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, NotHermitian, NotPSD


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by the library and its test suites."""

    hermiticity: float = 1e-10
    psd_clamp: float = 1e-10
    reconstruction: float = 1e-9


TOL = Tolerances()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


# Row and column indices of the upper triangle of a 4x4 matrix, diagonal included.
_UPPER = np.triu_indices(4)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest absolute entry of m - m^dagger (max over a stack).

    Entry (j, i) of m - m^dagger is minus the conjugate of entry (i, j), so
    the upper triangle, diagonal included, holds every value of the defect.
    A stack compares that triangle with the lower one, half the work of the
    whole difference; for one matrix the whole difference is faster, because
    it takes fewer numpy calls than the two gathers.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    if m.size <= 16:
        return float(np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max())
    rows, cols = _UPPER if m.shape[-1] == 4 else np.triu_indices(m.shape[-1])
    return float(np.abs(m[..., rows, cols] - np.conj(m[..., cols, rows])).max())


def _require_hermitian(m: np.ndarray, tol: float = TOL.hermiticity) -> None:
    """Raise NotHermitian unless m is finite with a defect of at most tol."""
    defect = hermiticity_defect(m)
    # any non-finite entry makes its defect entry inf or NaN, and max keeps NaN
    if not defect <= tol:
        if not np.isfinite(defect):
            raise NotHermitian("matrix has non-finite entries", deviation=defect)
        raise NotHermitian(
            f"matrix deviates from Hermiticity by {defect:.3e} (tolerance {tol:.1e})",
            deviation=defect,
        )


def _lapack(fn, m: np.ndarray, **kwargs):
    """fn(m, **kwargs) for a numpy.linalg routine, with its failure to converge
    raised as NotConverged."""
    try:
        return fn(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"{fn.__name__} did not converge: {exc}") from exc


def eigvalsh_desc(m: np.ndarray) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian matrix or (..., 4, 4) stack."""
    m = np.asarray(m)
    _require_hermitian(m)
    return _lapack(np.linalg.eigvalsh, m)[..., ::-1]


def hermitian_eig(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a single Hermitian matrix, eigenvalues descending.

    The returned eigenvector matrix U is unitary with U diag(w) U^dagger
    reconstructing the input; both hold to Tolerances.reconstruction.
    """
    m = np.asarray(m)
    _require_hermitian(m)
    w, v = _lapack(np.linalg.eigh, m)
    return EigenDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def _require_psd(w: np.ndarray, clamp: float = TOL.psd_clamp) -> np.ndarray:
    """Eigenvalues w of a PSD matrix or stack, clipped at zero.

    Values in [-clamp, 0) are treated as rounding noise; anything below
    -clamp, and NaN, raises NotPSD.
    """
    wmin = float(w.min()) if w.size else 0.0  # min keeps NaN
    if not wmin >= -clamp:
        raise NotPSD(
            f"matrix has eigenvalue {wmin:.3e}, not >= -{clamp:.1e}",
            deviation=-wmin,
        )
    return np.clip(w, 0.0, None)


def psd_eigh(m: np.ndarray, clamp: float = TOL.psd_clamp) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, clipped at zero) and eigenvectors (columns) of a
    Hermitian PSD matrix or (..., 4, 4) stack.

    Raises NotHermitian, or NotPSD for an eigenvalue below -clamp.
    """
    m = np.asarray(m)
    _require_hermitian(m)
    w, v = _lapack(np.linalg.eigh, m)
    return _require_psd(w, clamp), v


def psd_sqrt(m: np.ndarray, clamp: float = TOL.psd_clamp) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix or (..., 4, 4) stack.

    Eigenvalues in [-clamp, 0) are treated as rounding noise and clamped to
    zero before the square root; anything below -clamp raises NotPSD.
    """
    w, v = psd_eigh(m, clamp)
    s = (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return 0.5 * (s + np.conj(np.swapaxes(s, -1, -2)))


def partial_transpose_b(m: np.ndarray) -> np.ndarray:
    """Transpose the second-qubit indices of a (..., 4, 4) matrix.

    This is a pure entry permutation: it preserves the trace exactly, is an
    exact involution, and maps Hermitian matrices to Hermitian matrices.
    """
    m = np.asarray(m)
    lead = m.shape[:-2]
    blocks = m.reshape(lead + (2, 2, 2, 2))
    return blocks.swapaxes(-3, -1).reshape(lead + (4, 4))

