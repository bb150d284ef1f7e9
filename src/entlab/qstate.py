"""Validated two-qubit density matrices and the named state families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmat
from .errors import NotHermitian, NotPSD, ParameterOutOfRange, TraceNotOne

CSV_HEADER = ",".join(f"m{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im"))


def _validated(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NotHermitian(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    cmat._require_hermitian(m)
    trace_dev = abs(float(np.trace(m).real) - 1.0)
    if trace_dev > cmat.TOL.hermiticity:
        raise TraceNotOne(f"trace deviates from 1 by {trace_dev:.3e}", deviation=trace_dev)
    wmin = float(cmat._lapack(np.linalg.eigvalsh, m)[0])
    if wmin < -cmat.TOL.psd_clamp:
        raise NotPSD(f"smallest eigenvalue is {wmin:.3e}", deviation=-wmin)
    out = m.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit state: Hermitian, unit trace, positive semidefinite.

    Construction validates the three invariants (each to the central
    tolerances) and stores a read-only copy of the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _validated(self.matrix))


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


def werner_state(f: float) -> DensityMatrix:
    """Singlet fraction F mixed with white noise.

    rho_F = (4F - 1)/3 * |psi-><psi-| + (1 - F)/3 * I, F in [1/4, 1].
    The identity term uses the full 4x4 identity so the trace is one.
    """
    if not 0.25 <= f <= 1.0:
        raise ParameterOutOfRange(f"Werner parameter must be in [1/4, 1], got {f}")
    m = ((4.0 * f - 1.0) / 3.0) * singlet().matrix + ((1.0 - f) / 3.0) * np.eye(4)
    return DensityMatrix(m)


def to_csv_row(rho: DensityMatrix) -> str:
    """Serialize as 32 decimal floats (row-major, re/im interleaved)."""
    parts = []
    for entry in rho.matrix.ravel():
        parts.append(f"{entry.real:.17g}")
        parts.append(f"{entry.imag:.17g}")
    return ",".join(parts)


def from_csv_row(line: str) -> DensityMatrix:
    """Rebuild a density matrix from a 32-field CSV row, validating it."""
    values = [float(tok) for tok in line.strip().split(",")]
    if len(values) != 32:
        raise NotHermitian(f"expected 32 CSV fields, got {len(values)}")
    with np.errstate(invalid="ignore"):  # validation rejects non-finite entries
        flat = np.array(values[0::2]) + 1j * np.array(values[1::2])
    return DensityMatrix(flat.reshape(4, 4))


def save_states(path, states) -> None:
    """Write a header line plus one CSV row per state."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rho in states:
            fh.write(to_csv_row(rho) + "\n")


def load_states(path) -> list[DensityMatrix]:
    """Read states written by save_states (header line optional, blank lines skipped)."""
    states = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line == CSV_HEADER):
                continue
            states.append(from_csv_row(line))
    return states
