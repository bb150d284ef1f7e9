"""Random two-qubit density matrices: Haar-uniform U(4) rotations of simplex spectra.

The ensemble is rho = U diag(p) U^dagger with p uniform on the probability
simplex and U Haar-uniform (Zyczkowski, Horodecki, Sanpera & Lewenstein, PRA
58, 883 (1998)); U is a product of six two-level rotations (Hurwitz's
parametrization, Zyczkowski & Kus, J. Phys. A 27, 4235 (1994)).  Every state
consumes exactly DRAWS_PER_STATE uniforms in a fixed, documented order (three
spectrum draws, then the rotation angles pair by pair), so n calls for one
state each walk the same stream as one call for n states, and two streams
with the same seed produce identical state sequences.

The core works in one layout, states on the last axis: ``_spectral_stacks``
returns the (4, 4, n) entry stack of rho (``rho[a, b]`` is the (n,) row of
entry (a, b)), the spectra and the (4, 4, n) column stack of U, and the Monte
Carlo harness screens that layout directly.  It is the composition of a
draw step, ``_draw_spectra`` (the uniforms, as spectra and rows of angle
uniforms), and a build step, ``_angles_to_columns`` then
``_assemble_entries``, which the harness applies only to the draws whose
spectrum leaves their separability open.  Both build kernels work state by
state, so any selection of a draw step's states builds to the same bits as
in the whole chunk.  The rotations update two columns at a time, one
contiguous row per entry; the mixing angle enters only through
cos^2(phi) = xi^(1/i), so it needs no trigonometric call; and rho is
assembled from its ten upper entries.
``random_density_batch`` transposes the states to a raw (n, 4, 4) stack.
"""

from __future__ import annotations

import numpy as np

# Rotation pairs in composition order; the product is taken left to right.
PAIR_SEQUENCE = ((1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4))
# Pairs whose rotation carries the extra chi phase.
_CHI_PAIRS = frozenset({(1, 2), (1, 3), (1, 4)})

# 3 spectrum uniforms + 15 angle uniforms (phi, psi[, chi] per pair).
DRAWS_PER_STATE = 18
# (a, b) of the upper triangle of a 4x4 matrix, diagonal included.
_UPPER = tuple((a, b) for a in range(4) for b in range(a, 4))
# i^q for q = 0..3; multiplying by one of them is exact.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


class RngStream:
    """Seeded counter-based uniform stream.

    Backed by the Philox bit generator (period > 2^128; uniforms use the top
    53 bits of each 64-bit word).  Equal (seed, spawn_key) always reproduce
    the identical sequence of uniform [0, 1) draws, and distinct spawn keys
    give independent streams, e.g. one per Monte Carlo shard.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        self.spawn_key = tuple(int(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def uniforms(self, *shape: int) -> np.ndarray:
        """Next draws, filling the array in row-major order."""
        return self._gen.random(shape)

    def subsample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), in increasing order."""
        return np.sort(self._gen.choice(n, size=k, replace=False))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def _mixing(x: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos phi, sin phi) of the mixing angle phi = arccos(x^(1/(2i))) of pair
    (i, j), i in {1, 2, 3}, without trigonometric calls.

    cos^2 phi = t = x^(1/i), so cos phi = sqrt(t) and sin phi = sqrt(1 - t).
    For i > 1, 1 - t is taken as (1 - x) / (1 + r + ... + r^(i-1)) with
    r = x^(1/i), which keeps sin phi to full relative accuracy as x -> 1.
    """
    if i == 1:
        return np.sqrt(x), np.sqrt(1.0 - x)
    r = np.sqrt(x) if i == 2 else np.cbrt(x)
    rest = 1.0 + r if i == 2 else 1.0 + r * (1.0 + r)
    return np.sqrt(r), np.sqrt((1.0 - x) / rest)


def _phase(x: np.ndarray) -> np.ndarray:
    """e^(2 pi i x) for uniforms x, as i^q e^(i (4x - q) pi/2) with q the
    nearest quarter turn: 4x - q is exact, and cos and sin of an angle in
    [-pi/4, pi/4] are both faster and more accurate than of one in [0, 2 pi)."""
    q = np.rint(4.0 * x)
    angle = (4.0 * x - q) * (0.5 * np.pi)
    e = np.empty(angle.shape, dtype=complex)
    e.real, e.imag = np.cos(angle), np.sin(angle)
    return e * _QUARTER_TURNS[q.astype(np.intp) & 3]


def _block(cos_phi, sin_phi, e_psi, e_chi=None) -> tuple:
    """Entries (E_aa, E_ab, E_ba, E_bb) of the two-level rotation on indices
    a < b: [[cos phi e^(i psi), sin phi e^(i chi)], [-sin phi e^(-i chi),
    cos phi e^(-i psi)]], with chi = 0 when e_chi is None."""
    e_aa = cos_phi * e_psi
    e_ab = sin_phi * e_chi if e_chi is not None else sin_phi + 0j
    return e_aa, e_ab, -np.conj(e_ab), np.conj(e_aa)


_ONE = object()  # an entry of the identity that no rotation has touched yet


def _times(v, e):
    """v * e for a row v that may be the exact 0 (None) or 1 (_ONE)."""
    return None if v is None else e if v is _ONE else v * e


def _plus(v, w):
    return w if v is None else v if w is None else v + w


def _angles_to_columns(draws: np.ndarray) -> np.ndarray:
    """Compose the six elementary rotations for each row of 15 angle uniforms,
    as a (4, 4, n) column stack: ``cols[k, r]`` is entry r of column k.

    For pair (i, j) the mixing angle phi is drawn so that cos^2(phi) has
    density i * t^(i-1) on [0, 1], i.e. cos^2(phi) = xi^(1/i) for a uniform
    xi (phi = arccos(xi^(1/(2i))), taken algebraically by ``_mixing``);
    together with the uniform psi/chi phases this makes the product
    Haar-distributed on U(4) up to a global phase, which conjugation cancels
    (Zyczkowski & Kus, J. Phys. A 27, 4235 (1994)).  The tests compare
    against a QR-orthonormalized Gaussian sampler and a 40-digit product of
    the elementary rotations.  The product is taken left to right over
    PAIR_SEQUENCE; each factor mixes two columns of the running product, so
    every entry is a contiguous (n,) row updated on its own, and the rows
    still exactly 0 or 1 from the identity are skipped.
    """
    col = [[_ONE if r == k else None for r in range(4)] for k in range(4)]
    x = iter(draws.T)  # the uniforms in their documented order
    for (i, j) in PAIR_SEQUENCE:
        cos_phi, sin_phi = _mixing(next(x), i)
        e_psi = _phase(next(x))
        e_chi = _phase(next(x)) if (i, j) in _CHI_PAIRS else None
        e_aa, e_ab, e_ba, e_bb = _block(cos_phi, sin_phi, e_psi, e_chi)
        col_a, col_b = col[i - 1], col[j - 1]
        for r in range(4):
            v, w = col_a[r], col_b[r]
            col_a[r] = _plus(_times(v, e_aa), _times(w, e_ba))
            col_b[r] = _plus(_times(v, e_ab), _times(w, e_bb))
    # PAIR_SEQUENCE leaves no entry exactly 0 or 1, so every one is now a row
    return np.array(col)


def _uniforms_to_simplex(x: np.ndarray) -> np.ndarray:
    """Map rows of 3 uniforms onto the probability simplex, uniformly."""
    p = np.empty((x.shape[0], 4))
    p[:, 0] = 1.0 - x[:, 0] ** (1.0 / 3.0)
    p[:, 1] = (1.0 - x[:, 1] ** (1.0 / 2.0)) * (1.0 - p[:, 0])
    p[:, 2] = (1.0 - x[:, 2]) * (1.0 - p[:, 0] - p[:, 1])
    p[:, 3] = 1.0 - p[:, 0] - p[:, 1] - p[:, 2]
    return p


def _assemble_entries(probs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rho = u diag(probs) u^dagger as a (4, 4, n) entry stack, ``rho[a, b]``
    the (n,) row of entry (a, b), from probs (n, 4) and the column stack of u.

    Each upper entry is rho_ab = sum_k (p_k u_ak) conj(u_bk), a sum of four
    products of contiguous rows added in k order, so a state's bits do not
    depend on n; the sum is accumulated column by column of u, so only one
    column's weighted and conjugated rows are alive at a time.  The lower
    entries are the conjugates of the upper ones and the diagonal's
    imaginary part is 0, so rho is exactly Hermitian.
    """
    p = np.ascontiguousarray(probs.T)
    rho = np.empty_like(cols)
    term = np.empty_like(cols[0, 0])
    for k in range(4):
        weighted, conj = cols[k] * p[k], np.conj(cols[k])
        for a, b in _UPPER:
            if k == 0:
                np.multiply(weighted[a], conj[b], out=rho[a, b])
            else:
                rho[a, b] += np.multiply(weighted[a], conj[b], out=term)
    for a, b in _UPPER:
        if a == b:
            rho[a, a].imag = 0.0
        else:
            np.conj(rho[a, b], out=rho[b, a])
    return rho


def _draw_spectra(rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draw step of n states: their spectra (n, 4) and their (n, 15) rows
    of angle uniforms, a view into the chunk's uniforms."""
    draws = rng.uniforms(n, DRAWS_PER_STATE)
    return _uniforms_to_simplex(draws[:, :3]), draws[:, 3:]


def _spectral_stacks(rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n random density matrices in the sampler's layout, as (rho, probs, cols):
    the (4, 4, n) entry stack of ``_assemble_entries``, the spectra (n, 4)
    and the (4, 4, n) column stack of the unitaries."""
    probs, angles = _draw_spectra(rng, n)
    cols = _angles_to_columns(angles)
    return _assemble_entries(probs, cols), probs, cols


def random_density_batch(rng: RngStream, n: int) -> np.ndarray:
    """Stack of n random density matrices as a raw (n, 4, 4) complex array.

    Each is u diag(probs) u^dagger with probs uniform on the simplex and u
    Haar-uniform, so it satisfies the DensityMatrix invariants by
    construction.
    """
    return np.ascontiguousarray(_spectral_stacks(rng, n)[0].transpose(2, 0, 1))
