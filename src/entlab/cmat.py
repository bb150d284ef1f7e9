"""Dense 4x4 complex linear algebra for two-qubit state calculations.

Every operation accepts a single (4, 4) matrix or a stack of shape
(..., 4, 4) and operates on every matrix in the stack.  Each matrix
invariant has one check, which finds a stack's first faulty matrix and the
error it alone raises: ``hermiticity_fault`` (finite and Hermitian, by
``hermiticity_defects``) and ``psd_fault`` (positive semidefinite, PSD).
``hermitian_eig``, ``psd_sqrt`` and ``qstate``'s stack check build on them.
The basis ordering is fixed throughout: |00>, |01>, |10>, |11>, with the
first qubit labelled A and the second B.
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
    i <= j, half the work of the whole difference and no gather.  A
    non-finite entry makes its matrix's defect NaN (inf - inf) or inf, and
    so does a difference beyond the float range; neither raises a numpy
    warning.
    """
    m = np.asarray(m)
    with np.errstate(invalid="ignore", over="ignore"):
        defects = np.zeros(m.shape[:-2])
        for i, j in zip(*np.triu_indices(m.shape[-1])):
            # np.maximum, unlike max, keeps a NaN wherever it stands
            np.maximum(defects, np.abs(m[..., i, j] - np.conj(m[..., j, i])), out=defects)
        return defects


def _numeric(m) -> np.ndarray:
    """m as float64 or complex128, which LAPACK takes and in which no integer
    difference wraps; NotHermitian for any but a numeric (..., 4, 4) array."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2:] != (4, 4) or m.dtype.kind not in "iufc":
        raise NotHermitian(f"expected a numeric (..., 4, 4) array, got shape {m.shape} and dtype {m.dtype}")
    return m.astype(complex if m.dtype.kind == "c" else float, copy=False)


def hermiticity_fault(m: np.ndarray) -> tuple[int, NotHermitian] | None:
    """(index, error) of the first matrix of a (..., 4, 4) stack, flattened,
    that is not Hermitian with finite entries to TOL.hermiticity, with the
    error that matrix alone raises; or None, after ``_numeric``'s check."""
    m = _numeric(m)
    defects = hermiticity_defects(m).ravel()
    bad = np.flatnonzero(~(defects <= TOL.hermiticity))  # a non-finite entry makes its defect inf or NaN
    if not len(bad):
        return None
    index, defect = int(bad[0]), float(defects[bad[0]])
    message = f"matrix deviates from Hermiticity by {defect:.3e} (tolerance {TOL.hermiticity:.1e})"
    finite = np.isfinite(m.reshape(-1, *m.shape[-2:])[index]).all()
    return index, NotHermitian(message if finite else "matrix has non-finite entries", deviation=defect)


def psd_fault(w: np.ndarray) -> tuple[int, NotPSD] | None:
    """(index, error) of the first spectrum of a (..., k) stack of
    eigenvalues, flattened, whose smallest value is NaN or lies below
    -TOL.psd_clamp (above it, a negative value is rounding noise), with the
    error its matrix alone raises; or None.  One reduction passes a PSD
    stack; only a failing one is searched spectrum by spectrum."""
    w = np.asarray(w)
    if w.min(initial=0.0) >= -TOL.psd_clamp:  # min keeps NaN, which fails
        return None
    wmin = w.reshape(-1, w.shape[-1]).min(axis=1)
    index = int(np.flatnonzero(~(wmin >= -TOL.psd_clamp))[0])
    return index, NotPSD(f"smallest eigenvalue is {wmin[index]:.3e}", deviation=-float(wmin[index]))


def _lapack(fn, m: np.ndarray, **kwargs):
    """fn(m, **kwargs) for a numpy.linalg routine, with its failure to converge
    raised as NotConverged."""
    try:
        return fn(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"{fn.__name__} did not converge: {exc}") from exc


def _eigh_converges(m: np.ndarray) -> bool:
    """Whether ``eigh`` converges on the matrix m alone."""
    try:
        _lapack(np.linalg.eigh, m)
    except NotConverged:
        return False
    return True


def _psd_eig(ms: np.ndarray, fault: tuple[int, Exception] | None) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) of ``eigh`` over a numeric (n, 4, 4) stack before the index of
    fault, an earlier check's (index, error) or None; the first of it,
    ``eigh``'s failure (a stack fails where a matrix fails alone, searched
    for only then) and ``psd_fault``'s raises, with its index as ``index``."""
    n = len(ms) if fault is None else fault[0]
    try:
        w, u = _lapack(np.linalg.eigh, ms[:n])
    except NotConverged as exc:
        fault = next((i, exc) for i in range(n) if not _eigh_converges(ms[i]))
        w, u = _lapack(np.linalg.eigh, ms[: fault[0]])
    if fault := psd_fault(w) or fault:
        fault[1].index = fault[0]
        raise fault[1]
    return w, u


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix
    or (..., 4, 4) stack, after ``hermiticity_fault``, whose error it raises.

    Each eigenvector matrix U is unitary with U diag(w) U^dagger reconstructing
    its input; both hold to Tolerances.reconstruction.
    """
    if fault := hermiticity_fault(m):
        raise fault[1]
    return _lapack(np.linalg.eigh, _numeric(m))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix or (..., 4, 4) stack.

    Eigenvalues in [-TOL.psd_clamp, 0) are treated as rounding noise and
    clamped to zero before the square root; ``psd_fault``'s error is raised
    for anything lower.  A stack's first faulty matrix raises (``_psd_eig``).
    """
    m = _numeric(m)
    w, v = _psd_eig(m.reshape(-1, 4, 4), hermiticity_fault(m))
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return (0.5 * (s + np.conj(np.swapaxes(s, -1, -2)))).reshape(m.shape)


def partial_transpose_b(m: np.ndarray) -> np.ndarray:
    """Transpose the second-qubit indices of a (..., 4, 4) matrix.

    This is a pure entry permutation: it preserves the trace exactly, is an
    exact involution, and maps Hermitian matrices to Hermitian matrices.
    """
    m = np.asarray(m)
    lead = m.shape[:-2]
    blocks = m.reshape(lead + (2, 2, 2, 2))
    return blocks.swapaxes(-3, -1).reshape(lead + (4, 4))

