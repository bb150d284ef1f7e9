"""Independent reference routes used only by the tests.

Everything here deliberately avoids the library's code paths: the two-level
rotations are written out from cos, sin and exp, the product spectrum uses a
general (non-Hermitian) eigensolver, Haar matrices come from QR
orthonormalization, simplex samples come from sorted-uniform spacings, and
the high-precision concurrence uses mpmath's eigensolver on rho rho~ and the
high-precision smallest eigenvalue its Hermitian eigensolver.
"""

import numpy as np

SY2 = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)


def elementary_unitary(i: int, j: int, phi: float, psi: float, chi: float = 0.0) -> np.ndarray:
    """Two-level rotation on basis indices i < j (1-based), identity elsewhere:
    [[cos phi e^(i psi), sin phi e^(i chi)], [-sin phi e^(-i chi), cos phi e^(-i psi)]]
    on rows and columns i, j."""
    a, b = i - 1, j - 1
    u = np.eye(4, dtype=complex)
    u[a, a] = np.cos(phi) * np.exp(1j * psi)
    u[a, b] = np.sin(phi) * np.exp(1j * chi)
    u[b, a] = -np.sin(phi) * np.exp(-1j * chi)
    u[b, b] = np.cos(phi) * np.exp(-1j * psi)
    return u


def assembled_entries(probs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """u diag(probs) u^dagger as a (4, 4, n) entry stack from the (4, 4, n)
    column stack of u, with whole-stack weighted and conjugated copies: each
    upper entry is w[0] c[0] + w[1] c[1] + w[2] c[2] + w[3] c[3] for
    w = p_k u_ak and c = conj(u_bk), the lower ones their conjugates and the
    diagonal real."""
    weighted = cols * np.ascontiguousarray(probs.T)[:, None, :]
    conj = np.conj(cols)
    rho = np.empty_like(cols)
    for a in range(4):
        for b in range(a, 4):
            w, c = weighted[:, a], conj[:, b]
            rho[a, b] = w[0] * c[0] + w[1] * c[1] + w[2] * c[2] + w[3] * c[3]
            if a == b:
                rho[a, a].imag = 0.0
            else:
                np.conj(rho[a, b], out=rho[b, a])
    return rho


def gathered_hermiticity_defect(m: np.ndarray) -> float:
    """Largest |m_ij - conj(m_ji)| over i <= j and a stack, from one gather
    of the upper and one of the lower triangle."""
    rows, cols = np.triu_indices(m.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(m[..., rows, cols] - np.conj(m[..., cols, rows])).max())


def concurrence_product_route(ms: np.ndarray) -> np.ndarray:
    """C from the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    ms = np.asarray(ms)
    prod = ms @ (SY2 @ np.conj(ms) @ SY2)
    ev = np.linalg.eigvals(prod)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)), axis=-1)[..., ::-1]
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def haar_kets(rng: np.random.Generator, n: int, dim: int = 4) -> np.ndarray:
    kets = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return kets / np.linalg.norm(kets, axis=1)[:, None]


def projectors(kets: np.ndarray) -> np.ndarray:
    return kets[:, :, None] * np.conj(kets[:, None, :])


def qr_haar_unitaries(rng: np.random.Generator, n: int, dim: int = 4) -> np.ndarray:
    a = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def flat_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform samples on the 3-simplex via spacings of sorted uniforms."""
    u = np.sort(rng.random((n, 3)), axis=1)
    padded = np.concatenate([np.zeros((n, 1)), u, np.ones((n, 1))], axis=1)
    return np.diff(padded, axis=1)


def spacing_fraction_below(unitaries: np.ndarray, frac: float = 0.1) -> float:
    """Fraction of nearest-neighbour eigenphase spacings below frac x mean."""
    phases = np.sort(np.angle(np.linalg.eigvals(unitaries)), axis=1)
    closed = np.concatenate([phases, phases[:, :1] + 2.0 * np.pi], axis=1)
    d = np.diff(closed, axis=1).ravel()
    return float((d < frac * d.mean()).mean())


def reduced_state_a(ms: np.ndarray) -> np.ndarray:
    """Partial trace over the second qubit of a (n, 4, 4) stack."""
    n = ms.shape[0]
    return np.einsum("nabcb->nac", ms.reshape(n, 2, 2, 2, 2))


def entropy_bits(w: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of probability rows, 0 log 0 = 0."""
    w = np.clip(w, 0.0, 1.0)
    terms = np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def concurrence_mp(mpmath, p: np.ndarray, u: np.ndarray, dps: int = 40) -> float:
    """C of u diag(p) u^dagger at dps digits, from the eigenvalues of rho rho~."""
    with mpmath.workdps(dps):
        U = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in u])
        rho = U * mpmath.diag([mpmath.mpf(float(x)) for x in p]) * U.transpose_conj()
        flip = mpmath.matrix(SY2.tolist())
        ev = mpmath.eig(rho * (flip * rho.conjugate() * flip), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def eigvalsh_min_mp(mpmath, m: np.ndarray, dps: int = 40) -> float:
    """Smallest eigenvalue of the Hermitian matrix m at dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])
        return float(min(mpmath.re(e) for e in mpmath.eigh(a, eigvals_only=True)))
