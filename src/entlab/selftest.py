"""Fast runtime self-checks over every module's invariants.

Used by the ``selftest`` CLI command; the pytest suite runs the same
invariants at full scale.
"""

from __future__ import annotations

import numpy as np

from . import cmat, experiment, measures, qstate, sampler
from .errors import EntanglementLabError


def _random_hermitian(rng: sampler.RngStream, n: int) -> np.ndarray:
    u = rng.uniforms(n, 4, 4)
    v = rng.uniforms(n, 4, 4)
    a = (u - 0.5) + 1j * (v - 0.5)
    return a + np.conj(a.transpose(0, 2, 1))


def check_linalg(n: int = 2000) -> None:
    rng = sampler.RngStream(101)
    herm = _random_hermitian(rng, n)
    w, u = cmat.hermitian_eig(herm)
    u_dag = np.conj(u.transpose(0, 2, 1))
    assert np.all(np.diff(w, axis=1) >= 0)
    assert np.abs(u @ u_dag - np.eye(4)).max() < 1e-10
    assert np.abs((u * w[:, None, :]) @ u_dag - herm).max() < cmat.TOL.reconstruction
    traces = np.einsum("nii->n", herm).real
    assert np.abs(w.sum(axis=1) - traces).max() < 1e-10
    pt = cmat.partial_transpose_b(herm)
    assert np.array_equal(cmat.partial_transpose_b(pt), herm)
    assert np.array_equal(np.einsum("nii->n", pt), np.einsum("nii->n", herm))
    g = rng.uniforms(n, 4, 4) - 0.5 + 1j * (rng.uniforms(n, 4, 4) - 0.5)
    psd = g @ np.conj(g.transpose(0, 2, 1))
    psd /= np.einsum("nii->n", psd).real[:, None, None]
    s = cmat.psd_sqrt(psd)
    assert np.abs(s @ s - psd).max() < cmat.TOL.reconstruction


def check_states(n_grid: int = 26) -> None:
    for f in np.linspace(0.25, 1.0, n_grid):
        rho = qstate.werner_state(float(f))
        w, _ = cmat.hermitian_eig(rho.matrix)
        expect = np.sort([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
        assert np.abs(w - expect).max() < 1e-12
    for alpha in np.linspace(0.0, 1.0, n_grid):
        rho = qstate.pure_schmidt(float(alpha))
        assert np.abs(rho.matrix @ rho.matrix - rho.matrix).max() < 1e-12
    assert np.abs(qstate.singlet().matrix - qstate.werner_state(1.0).matrix).max() < 1e-15


def check_measures(n: int = 2000) -> None:
    for f in np.linspace(0.5, 1.0, 26):
        rho = qstate.werner_state(float(f))
        assert abs(measures.concurrence(rho) - (2 * f - 1)) < 1e-10
        assert abs(measures.e_negative(rho) - (f - 0.5)) < 1e-10
    rng = sampler.RngStream(103)
    kets = rng.uniforms(n, 4) - 0.5 + 1j * (rng.uniforms(n, 4) - 0.5)
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    pures = kets[:, :, None] * np.conj(kets[:, None, :])
    pure_table = measures.measure_table(pures)
    assert np.abs(pure_table["concurrence"] - 2 * pure_table["e_negative"]).max() < 1e-9
    rhos = sampler.random_density_batch(sampler.RngStream(104), n)
    table = measures.measure_table(rhos)
    assert np.all(table["concurrence"] >= 2 * table["e_negative"] - 1e-9)
    sep = table["separable"]
    assert np.array_equal(sep, table["e_negative"] <= measures.EPS_SEP)


def check_sampler(n: int = 2000) -> None:
    a = sampler.random_density_batch(sampler.RngStream(105), n)
    b = sampler.random_density_batch(sampler.RngStream(105), n)
    assert np.array_equal(a, b)
    rho, probs, cols = sampler._spectral_stacks(sampler.RngStream(106), n)
    u = cols.transpose(2, 1, 0)
    assert np.abs(u @ np.conj(u.transpose(0, 2, 1)) - np.eye(4)).max() < 1e-12
    w, _ = cmat.hermitian_eig(rho.transpose(2, 0, 1))
    assert np.abs(w - np.sort(probs, axis=1)).max() < 1e-10


def check_experiment(n_pairs: int = 256) -> None:
    cfg1 = experiment.ExperimentConfig(seed=108, n_pairs=n_pairs)
    cfg2 = experiment.ExperimentConfig(seed=108, n_pairs=n_pairs, threads=2)
    s1 = experiment.run_experiment(cfg1)
    s2 = experiment.run_experiment(cfg2)
    assert np.array_equal(s1.pairs, s2.pairs)
    assert s1.p_entangled == s2.p_entangled
    assert s1.n_pairs == n_pairs
    assert s1.states_drawn == s1.states_kept + s1.states_discarded
    assert s1.states_kept == 2 * (s1.n_pairs + s1.n_ties_excluded)


def check_harness_rows(n: int = 2000) -> None:
    chunk = sampler._spectral_stacks(sampler.RngStream(109), n)
    screened, pt_min = measures._pt_screen(chunk[0])
    assert len(screened) >= measures._PT_MIN_STACK  # so the screened stack takes the kernel
    pts = cmat.partial_transpose_b(chunk[0].transpose(2, 0, 1)[screened])
    assert np.abs(pt_min - cmat._lapack(np.linalg.eigvalsh, pts)[:, 0]).max() <= 1e-15
    stats = experiment._entangled_state_stats(*chunk, 0)
    table = measures.measure_table(chunk[0].transpose(2, 0, 1))
    entangled = ~table["separable"]
    assert np.array_equal(stats[:, 5], np.nonzero(entangled)[0])
    names = ("concurrence", "e_formation", "e_negative", "e_sum", "linear_entropy")
    for col, name in enumerate(names):
        assert np.abs(stats[:, col] - table[name][entangled]).max() <= 1e-12, name


def cn_region_excess(table: dict[str, np.ndarray]) -> float:
    """How far the (C, N) points of a measure table, N = 2 E_N, lie outside
    the region two-qubit states fill, sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C
    (Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34, 10327 (2001));
    0.0 for points inside it."""
    c, n = table["concurrence"], 2.0 * table["e_negative"]
    lower = np.sqrt((1.0 - c) ** 2 + c * c) - (1.0 - c)
    return float(max(0.0, (lower - n).max(initial=0.0), (n - c).max(initial=0.0)))


def check_cn_region(n: int = 2000) -> None:
    rhos = sampler.random_density_batch(sampler.RngStream(110), n)
    rng = sampler.RngStream(111)
    kets = rng.uniforms(n, 4) - 0.5 + 1j * (rng.uniforms(n, 4) - 0.5)
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    eps = np.logspace(-12, -2, n)[:, None, None]
    near_pure = (1.0 - eps) * (kets[:, :, None] * np.conj(kets[:, None, :])) + eps * rhos
    werner = qstate.werner_stack(np.linspace(0.25, 1.0, max(n // 4, measures._JACOBI_MIN_STACK)))
    for name, ms in (("sampler", rhos), ("near-pure", near_pure), ("Werner", werner)):
        excess = cn_region_excess(measures.measure_table(ms))
        assert excess <= 1e-12, f"{name} states leave the (C, N) region by {excess:.3e}"


SUITES = (
    ("linear algebra invariants", check_linalg),
    ("state constructors", check_states),
    ("measure oracles", check_measures),
    ("sampler determinism and spectra", check_sampler),
    ("experiment determinism and counting", check_experiment),
    ("harness rows match measure_table", check_harness_rows),
    ("(C, N) within the two-qubit region", check_cn_region),
)


def run_selftest(verbose: bool = True) -> bool:
    """Run every suite; returns True iff all pass.

    A suite that fails a check or raises a library error is reported as
    failed, and the remaining suites still run.
    """
    ok = True
    for name, fn in SUITES:
        try:
            fn()
        except (AssertionError, EntanglementLabError) as exc:
            ok = False
            if verbose:
                print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        else:
            if verbose:
                print(f"[PASS] {name}")
    return ok
