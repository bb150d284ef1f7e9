"""Random two-qubit density matrices: Haar-uniform U(4) rotations of simplex spectra.

Every state consumes exactly DRAWS_PER_STATE uniforms in a fixed, documented
order (three spectrum draws, then the rotation angles pair by pair), so the
scalar and batch samplers walk the identical stream and two streams with the
same seed produce identical state sequences.
"""

from __future__ import annotations

import numpy as np

from .errors import BadIndices
from .qstate import DensityMatrix

# Rotation pairs in composition order; the product is taken left to right.
PAIR_SEQUENCE = ((1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4))
# Pairs whose rotation carries the extra chi phase.
_CHI_PAIRS = frozenset({(1, 2), (1, 3), (1, 4)})

# 3 spectrum uniforms + 15 angle uniforms (phi, psi[, chi] per pair).
DRAWS_PER_STATE = 18


class RngStream:
    """Seeded counter-based uniform stream with reproducible substreams.

    Backed by the Philox bit generator (period > 2^128; uniforms use the top
    53 bits of each 64-bit word).  Equal (seed, spawn_key) always reproduce
    the identical sequence of uniform [0, 1) draws; ``substream`` derives an
    independent stream for e.g. a worker shard.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def uniform(self) -> float:
        """Next uniform [0, 1) draw."""
        return float(self._gen.random())

    def uniforms(self, *shape: int) -> np.ndarray:
        """Next draws, filling the array in row-major order."""
        return self._gen.random(shape)

    def subsample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), in increasing order."""
        return np.sort(self._gen.choice(n, size=k, replace=False))

    def substream(self, *key: int) -> "RngStream":
        """Independent stream addressed by (seed, spawn_key + key)."""
        return RngStream(self.seed, self.spawn_key + key)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def _rotations(a: int, b: int, phi: np.ndarray, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """(n, 4, 4) two-level rotations on 0-based indices a < b, identity elsewhere."""
    e = np.broadcast_to(np.eye(4, dtype=complex), (len(phi), 4, 4)).copy()
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    e[:, a, a] = cos_phi * np.exp(1j * psi)
    e[:, a, b] = sin_phi * np.exp(1j * chi)
    e[:, b, a] = -sin_phi * np.exp(-1j * chi)
    e[:, b, b] = cos_phi * np.exp(-1j * psi)
    return e


def elementary_unitary(i: int, j: int, phi: float, psi: float, chi: float = 0.0) -> np.ndarray:
    """Two-level rotation on basis indices i < j (1-based), identity elsewhere."""
    if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer)) and 1 <= i < j <= 4):
        raise BadIndices(f"need integer indices 1 <= i < j <= 4, got ({i}, {j})")
    return _rotations(i - 1, j - 1, np.array([phi]), np.array([psi]), np.array([chi]))[0]


def _angles_to_unitaries(draws: np.ndarray) -> np.ndarray:
    """Compose the six elementary rotations for each row of 15 angle uniforms.

    For pair (i, j) the mixing angle phi is drawn so that cos^2(phi) has
    density i * t^(i-1) on [0, 1] (phi = arccos(xi^(1/(2i)))); together with
    the uniform psi/chi phases this makes the product Haar-distributed on
    U(4) up to a global phase, which conjugation cancels.  The tests compare
    against a QR-orthonormalized Gaussian sampler.
    """
    n = draws.shape[0]
    u = np.broadcast_to(np.eye(4, dtype=complex), (n, 4, 4)).copy()
    col = 0
    for (i, j) in PAIR_SEQUENCE:
        xi = draws[:, col]
        col += 1
        phi = np.arccos(xi ** (1.0 / (2.0 * i)))
        psi = draws[:, col] * (2.0 * np.pi)
        col += 1
        if (i, j) in _CHI_PAIRS:
            chi = draws[:, col] * (2.0 * np.pi)
            col += 1
        else:
            chi = np.zeros(n)
        u = u @ _rotations(i - 1, j - 1, phi, psi, chi)
    return u


def random_cue_unitary(rng: RngStream) -> np.ndarray:
    """One Haar-uniform 4x4 unitary (up to a global phase)."""
    return _angles_to_unitaries(rng.uniforms(1, 15))[0]


def _uniforms_to_simplex(x: np.ndarray) -> np.ndarray:
    """Map rows of 3 uniforms onto the probability simplex, uniformly."""
    p = np.empty((x.shape[0], 4))
    p[:, 0] = 1.0 - x[:, 0] ** (1.0 / 3.0)
    p[:, 1] = (1.0 - x[:, 1] ** (1.0 / 2.0)) * (1.0 - p[:, 0])
    p[:, 2] = (1.0 - x[:, 2]) * (1.0 - p[:, 0] - p[:, 1])
    p[:, 3] = 1.0 - p[:, 0] - p[:, 1] - p[:, 2]
    return p


def random_simplex(rng: RngStream) -> np.ndarray:
    """One point (p1, p2, p3, p4), uniform on the probability simplex."""
    return _uniforms_to_simplex(rng.uniforms(1, 3))[0]


def random_density_batch(rng: RngStream, n: int, return_probs: bool = False):
    """Stack of n random density matrices as a raw (n, 4, 4) complex array.

    Each matrix is U diag(p) U^dagger with p uniform on the simplex and U
    Haar-uniform, so the results satisfy the DensityMatrix invariants by
    construction.  With return_probs=True the drawn spectra are returned too.
    """
    draws = rng.uniforms(n, DRAWS_PER_STATE)
    probs = _uniforms_to_simplex(draws[:, :3])
    u = _angles_to_unitaries(draws[:, 3:])
    rhos = (u * probs[:, None, :]) @ np.conj(u.transpose(0, 2, 1))
    if return_probs:
        return rhos, probs
    return rhos


def random_density(rng: RngStream) -> DensityMatrix:
    """One validated random density matrix."""
    return DensityMatrix(random_density_batch(rng, 1)[0])
