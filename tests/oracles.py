"""Independent reference routes used only by the tests.

Everything here deliberately avoids the library's code paths: the two-level
rotations are written out from cos, sin and exp, the product spectrum uses a
general (non-Hermitian) eigensolver, Haar matrices come from QR
orthonormalization, simplex samples come from sorted-uniform spacings, and
the high-precision concurrence uses mpmath's eigensolver on rho rho~ and the
high-precision smallest eigenvalue its Hermitian eigensolver.  The two
polynomial kernels here are the exception: they are the concurrence and PT
kernels as they stood before they shared one root step, each with its own
Laguerre loop, Newton step, error bound and Kantorovich test written out,
and they keep the library's constants, ``_char_poly`` and
``_det_with_bound``, so that they must agree with the shared step bit for
bit.
"""

import numpy as np

from entlab.measures import (
    _C_CANCEL,
    _C_LAGUERRE_STEPS,
    _C_STEP,
    _C_TOL,
    _LAPLACE_PAIRS,
    _MINOR_ENTRIES,
    _NEWTON_H,
    _OFF_OF_ROW,
    _PT_LAGUERRE_STEPS,
    _PT_MAX_ROW,
    _PT_TOL,
    _TRIANGLES,
    _U,
    _char_poly,
    _det_with_bound,
)

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


def unshared_laguerre_concurrence(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(concurrences, certified mask) of ``measures._laguerre_concurrence``
    for spectra p (4, m) and the conj(W) entry stack w (4, 4, m), with the
    largest root of det(x I - B^H B) found by its own Laguerre steps and
    Newton step."""
    root = np.sqrt(p)
    b, w2, b2 = {}, {}, {}
    for k in range(4):
        for l in range(k, 4):
            entry = w[k, l]
            w2[k, l] = w2[l, k] = entry.real * entry.real + entry.imag * entry.imag
            b[k, l] = b[l, k] = entry * (root[k] * root[l])
            b2[k, l] = b2[l, k] = w2[k, l] * (p[k] * p[l])
    d = np.array([b2[0, k] + b2[1, k] + b2[2, k] + b2[3, k] for k in range(4)])
    e1 = d.sum(axis=0)
    p01, p23 = p[0] * p[1], p[2] * p[3]
    q = (p[1] * p23, p[0] * p23, p01 * p[3], p01 * p[2])
    e3 = sum(q[k] * (q[k] * w2[k, k] + 2.0 * sum(q[l] * w2[k, l] for l in range(k + 1, 4))) for k in range(4))
    e4 = (p01 * p23) ** 2
    minors_sq, products = [0.0, 0.0], [0.0, 0.0]
    for k, (i, j, l, n) in enumerate(_MINOR_ENTRIES):
        minor = b[i, l] * b[j, n] - b[i, n] * b[j, l]
        twice = int(k >= 6)
        minors_sq[twice] += minor.real * minor.real + minor.imag * minor.imag
        products[twice] += b2[i, l] * b2[j, n] + b2[i, n] * b2[j, l]
    e2 = minors_sq[0] + 2.0 * minors_sq[1]
    products = products[0] + 2.0 * products[1]
    off = np.array([sum(b[r, i] * np.conj(b[r, j]) for r in range(4)) for i, j in _LAPLACE_PAIRS])
    off_sq = off.real * off.real + off.imag * off.imag
    x = e1
    for _ in range(_C_LAGUERRE_STEPS):
        poly, dp, ddp = _char_poly(x, e1, e2, e3, e4)
        x = x - 4.0 * poly / (dp + np.sqrt(np.maximum(9.0 * dp * dp - 12.0 * poly * ddp, 0.0)))
    _, dp, ddp = _char_poly(x, e1, e2, e3, e4)
    poly, bound = _det_with_bound(d - x, off, off_sq)
    step = poly / dp
    mu1 = x - step
    bound = (bound + np.abs(ddp) * step * step) / np.abs(dp) + _U * np.abs(d - x).max(axis=0)
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
    converged = (np.abs(step) <= _C_STEP * mu1) & (np.abs(ddp * step) <= _NEWTON_H * np.abs(dp))
    sharp = converged & (bound <= 2.0 * _C_TOL * l1)
    zero = np.sqrt(mu1 + np.abs(step) + bound) < (1.0 - 1e-12) * s
    certified = np.isfinite(conc) & (products <= _C_CANCEL * e2) & (sharp | zero)
    return np.maximum(0.0, conc), certified


def unshared_laguerre_min(pt: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest eigenvalues, certified mask) of ``measures._laguerre_min``
    for a (4, 4, m) Hermitian entry stack with determinants det, with the
    smallest root found by its own Laguerre steps and Newton step."""
    rows, cols = zip(*_LAPLACE_PAIRS)
    d = pt[range(4), range(4)].real
    off = np.conj(pt[cols, rows])
    q = off.real * off.real + off.imag * off.imag
    r = np.sqrt(q)[_OFF_OF_ROW, :].sum(axis=1)
    in_range = (np.abs(d) + r).max(axis=0) <= _PT_MAX_ROW
    x = (d - r).min(axis=0)
    dd, ds = d[rows, :] * d[cols, :], d[rows, :] + d[cols, :]
    ij, jk, ik = (off[list(t), :] for t in zip(*_TRIANGLES))
    e1 = d.sum(axis=0)
    e2 = (dd - q).sum(axis=0)
    e3 = dd[0] * ds[5] + dd[5] * ds[0] - (q * ds[::-1]).sum(axis=0)
    e3 = e3 + 2.0 * (ij * jk * np.conj(ik)).real.sum(axis=0)
    for _ in range(_PT_LAGUERRE_STEPS):
        p, dp, ddp = _char_poly(x, e1, e2, e3, det)
        x = x - 4.0 * p / (dp - np.sqrt(np.maximum(9.0 * dp * dp - 12.0 * p * ddp, 0.0)))
    _, dp, ddp = _char_poly(x, e1, e2, e3, det)
    p, bound = _det_with_bound(d - x, off, q)
    step = p / dp
    lam = x - step
    bound = (bound + np.abs(ddp) * step * step) / np.abs(dp) + _U * np.abs(d - x).max(axis=0)
    converged = (np.abs(step) <= _PT_TOL) & (np.abs(ddp * step) <= _NEWTON_H * np.abs(dp))
    certified = in_range & np.isfinite(lam) & converged & (bound <= _PT_TOL)
    return lam, certified
