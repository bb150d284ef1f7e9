"""Dense 4x4 complex linear algebra for two-qubit state calculations.

Every operation accepts a single (4, 4) matrix or a stack of shape
(..., 4, 4) and operates on every matrix in the stack.
``hermiticity_defects`` is the one Hermiticity defect, per matrix, and
``hermitian_eig`` the one checked eigendecomposition; ``psd_sqrt`` and the
measures build on it.  The basis ordering is fixed throughout: |00>, |01>,
|10>, |11>, with the first qubit labelled A and the second B.
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


def hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of m - m^dagger for each matrix of a (..., n, n) stack.

    Entry (j, i) of m - m^dagger is minus the conjugate of entry (i, j), so
    the upper triangle, diagonal included, holds every value of the defect.
    A stack takes it entry by entry, |m[..., i, j] - conj(m[..., j, i])| for
    i <= j, half the work of the whole difference and no gather; for one
    matrix the whole difference is faster, because it takes fewer numpy
    calls.  A non-finite entry makes its matrix's defect NaN (inf - inf) or
    inf, and so does a difference beyond the float range; neither raises a
    numpy warning.
    """
    m = np.asarray(m)
    with np.errstate(invalid="ignore", over="ignore"):
        if m.size <= 16:
            return np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
        defects = np.zeros(m.shape[:-2])
        for i, j in zip(*np.triu_indices(m.shape[-1])):
            # np.maximum, unlike max, keeps a NaN wherever it stands
            np.maximum(defects, np.abs(m[..., i, j] - np.conj(m[..., j, i])), out=defects)
        return defects


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest absolute entry of m - m^dagger, over a whole stack (0.0 if empty)."""
    return float(np.max(hermiticity_defects(m), initial=0.0))


def _not_hermitian(m: np.ndarray, defect: float) -> NotHermitian:
    """The NotHermitian error of a matrix or stack m whose defect fails TOL.hermiticity."""
    message = f"matrix deviates from Hermiticity by {defect:.3e} (tolerance {TOL.hermiticity:.1e})"
    return NotHermitian(message if np.isfinite(m).all() else "matrix has non-finite entries", deviation=defect)


def _require_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian unless m is finite with a defect of at most TOL.hermiticity."""
    defect = hermiticity_defect(m)
    # any non-finite entry makes its defect entry inf or NaN, and max keeps NaN
    if not defect <= TOL.hermiticity:
        raise _not_hermitian(m, defect)


def _lapack(fn, m: np.ndarray, **kwargs):
    """fn(m, **kwargs) for a numpy.linalg routine, with its failure to converge
    raised as NotConverged."""
    try:
        return fn(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"{fn.__name__} did not converge: {exc}") from exc


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix
    or (..., 4, 4) stack, after the Hermiticity check.

    Each eigenvector matrix U is unitary with U diag(w) U^dagger reconstructing
    its input; both hold to Tolerances.reconstruction.
    """
    m = np.asarray(m)
    _require_hermitian(m)
    return _lapack(np.linalg.eigh, m)


def _require_psd(w: np.ndarray) -> np.ndarray:
    """Eigenvalues w of a PSD matrix or stack, clipped at zero.

    Values in [-TOL.psd_clamp, 0) are treated as rounding noise; anything
    lower, and NaN, raises NotPSD.
    """
    wmin = float(w.min()) if w.size else 0.0  # min keeps NaN
    if not wmin >= -TOL.psd_clamp:
        raise NotPSD(
            f"matrix has eigenvalue {wmin:.3e}, not >= -{TOL.psd_clamp:.1e}",
            deviation=-wmin,
        )
    return np.clip(w, 0.0, None)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix or (..., 4, 4) stack.

    Eigenvalues in [-TOL.psd_clamp, 0) are treated as rounding noise and
    clamped to zero before the square root; anything lower raises NotPSD.
    """
    w, v = hermitian_eig(m)
    s = (v * np.sqrt(_require_psd(w))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
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

