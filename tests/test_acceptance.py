"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import hashlib

import numpy as np
import pytest

import oracles
from entlab import cmat, measures, qstate, sampler
from entlab.cli import main
from entlab.experiment import ExperimentConfig, run_experiment, write_csvs

BIG_SEED = 20260810


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big_run():
    return run_experiment(ExperimentConfig(seed=BIG_SEED, n_pairs=100_000))


def test_criterion_1_entangled_fraction():
    rhos = sampler.random_density_batch(sampler.RngStream(911), 100_000)
    frac = float((~measures.measure_table(rhos)["separable"]).mean())
    report(1, 0.355 <= frac <= 0.375, f"entangled fraction {frac:.5f} in [0.355, 0.375]")


def test_criterion_2_violation_probability(big_run):
    p = big_run.p_violation
    early = int(big_run.pairs["violation"][:1000].sum())
    ok = (0.040 <= p <= 0.054) and early >= 1
    report(
        2,
        ok,
        f"p_violation {p:.5f} in [0.040, 0.054]; {early} violations in first 1000 pairs",
    )


def test_criterion_3_werner_oracle_table():
    worst = 0.0
    for f in np.linspace(0.50, 1.00, 11):
        r = measures.measure_report(qstate.werner_state(float(f)))
        mu = 0.5 + np.sqrt(f * (1.0 - f))
        ef = 0.0 if mu >= 1.0 else -(mu * np.log2(mu) + (1 - mu) * np.log2(1 - mu))
        worst = max(
            worst,
            abs(r.concurrence - (2 * f - 1)),
            abs(r.e_negative - (f - 0.5)),
            abs(r.e_formation - ef),
        )
    for f in np.linspace(0.25, 0.45, 5):
        r = measures.measure_report(qstate.werner_state(float(f)))
        assert r.separable
        worst = max(worst, abs(r.concurrence), abs(r.e_formation), abs(r.e_negative), abs(r.e_sum))
    report(3, worst < 1e-10, f"Werner grid max deviation {worst:.2e} < 1e-10")


def test_criterion_4_pure_state_oracle():
    rng = np.random.default_rng(912)
    kets = oracles.haar_kets(rng, 10_000)
    pures = oracles.projectors(kets)
    table = measures.measure_table(pures)
    c, ef, en = table["concurrence"], table["e_formation"], table["e_negative"]
    dev_connection = float(np.abs(c - 2 * en).max())
    reduced_eigs = np.linalg.eigvalsh(oracles.reduced_state_a(pures))
    dev_entropy = float(np.abs(ef - oracles.entropy_bits(reduced_eigs)).max())
    ok = dev_connection < 1e-9 and dev_entropy < 1e-9
    report(
        4,
        ok,
        f"10^4 pure states: |C - 2E_N| <= {dev_connection:.2e}, "
        f"|E_F - S_vN(reduced)| <= {dev_entropy:.2e} (both < 1e-9)",
    )


def test_criterion_5_bound_on_entangled_states(big_run):
    c = np.concatenate([big_run.pairs["c1"], big_run.pairs["c2"]])
    en = np.concatenate([big_run.pairs["en1"], big_run.pairs["en2"]])
    assert len(c) >= 100_000
    min_slack = float((c - 2 * en).min())
    report(
        5,
        min_slack >= -1e-9,
        f"C >= 2 E_N - 1e-9 on {len(c)} entangled states (min C - 2E_N = {min_slack:.2e})",
    )


def test_criterion_6_concurrence_route_equivalence():
    rhos = sampler.random_density_batch(sampler.RngStream(913), 10_000)
    ours = measures.concurrence_from_eig(*cmat.hermitian_eig(rhos))
    dev = float(np.abs(ours - oracles.concurrence_product_route(rhos)).max())
    report(6, dev < 1e-8, f"R-spectrum vs product-spectrum concurrence max dev {dev:.2e} < 1e-8")


def test_criterion_7_violation_trend(big_run):
    s = big_run.pairs["s_total"]
    top = float(s.max())
    counts, _ = np.histogram(s, bins=10, range=(0.0, top))
    vio, _ = np.histogram(s[big_run.pairs["violation"]], bins=10, range=(0.0, top))
    rates = np.where(counts > 0, vio / np.maximum(counts, 1), 0.0)
    populated = np.nonzero(counts > 0)[0]
    low, high = populated[0], populated[-1]
    s_single_max = float(max(big_run.pairs["s1"].max(), big_run.pairs["s2"].max()))
    if s_single_max > 0.70:
        print(f"[LOG] criterion 7: single-state linear entropy reached {s_single_max:.4f} > 0.70")
    report(
        7,
        rates[high] > rates[low],
        f"violation rate {rates[high]:.4f} (top bin) > {rates[low]:.4f} (bottom bin); "
        f"max single-state S = {s_single_max:.4f}",
    )


def test_criterion_8_linear_algebra_suite():
    rng = np.random.default_rng(914)
    a = rng.standard_normal((10_000, 4, 4)) + 1j * rng.standard_normal((10_000, 4, 4))
    herm = a + np.conj(a.transpose(0, 2, 1))
    worst_recon = worst_ortho = 0.0
    for m in herm:
        w, u = cmat.hermitian_eig(m)
        worst_ortho = max(worst_ortho, np.abs(np.conj(u.T) @ u - np.eye(4)).max())
        worst_recon = max(worst_recon, np.abs((u * w) @ np.conj(u.T) - m).max())
    pt_ok = np.array_equal(cmat.partial_transpose_b(cmat.partial_transpose_b(herm)), herm)
    tr_ok = np.array_equal(
        np.einsum("nii->n", cmat.partial_transpose_b(herm)), np.einsum("nii->n", herm)
    )
    psd = a @ np.conj(a.transpose(0, 2, 1))
    psd /= np.einsum("nii->n", psd).real[:, None, None]
    root = cmat.psd_sqrt(psd)
    worst_sq = float(np.abs(root @ root - psd).max())
    ok = worst_recon < 1e-10 and worst_ortho < 1e-10 and pt_ok and tr_ok and worst_sq < 1e-9
    report(
        8,
        ok,
        f"10^4 inputs: eig reconstruction {worst_recon:.2e} < 1e-10, orthonormality "
        f"{worst_ortho:.2e} < 1e-10, PT involution/trace exact: {pt_ok and tr_ok}, "
        f"sqrt squaring {worst_sq:.2e} < 1e-9",
    )


def test_criterion_9_byte_identical_compare_runs(tmp_path):
    dirs = [tmp_path / name for name in ("run1", "run2", "run4")]
    for d, threads in zip(dirs, ("1", "1", "4")):
        code = main(
            ["compare", "--seed", "31415", "--pairs", "3000", "--out", str(d),
             "--threads", threads]
        )
        assert code == 0
    names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "summary.csv"]
    same = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        and (dirs[0] / n).read_bytes() == (dirs[2] / n).read_bytes()
        for n in names
    )
    report(9, same, "compare CSVs byte-identical across reruns and --threads {1,1,4}")


def test_sum_measure_ordering_disagrees_with_formation(big_run):
    # companion to criterion 2: the sum measure also produces a non-empty
    # violating pair set against the formation measure on the same run
    p = big_run.pairs
    d_esum = (p["esum1"] - p["esum2"]) / (p["esum1"] + p["esum2"])
    n_vio = int((d_esum * p["d_ef"] < 0).sum())
    report("2b", n_vio > 0, f"(E_F, E_sum) ordering violations: {n_vio} > 0")


# SHA-256 of the acceptance run's fig4.csv and summary.csv, measured with
# numpy 2.4.6, OpenBLAS 0.3.31, Python 3.11.7.  Both hold only counts, rates
# and the run's configuration, so they pin every violation flag and counter
# of the paper's result; a change of chunk size or kernel route moves C, E_F
# and E_N by rounding (fig1-3) but must leave these bytes alone.
BIG_RUN_SHA256 = {
    "fig4.csv": "e6691c4f3c6a0388cf67e4b970652e000d14b0f6736ddbd17ce5720e34bb5b04",
    "summary.csv": "3773edde4b8c259d63554b984e01398eb9e8972be0b92c6fd3d2585029ea036b",
}


def test_pinned_acceptance_counts_and_digests(big_run, tmp_path):
    paths = write_csvs(big_run, tmp_path)
    digests = {
        name: hashlib.sha256(open(paths[name], "rb").read()).hexdigest()
        for name in BIG_RUN_SHA256
    }
    counts = (
        big_run.states_drawn,
        big_run.states_kept,
        big_run.n_ties_excluded,
        int(big_run.pairs["violation"].sum()),
    )
    assert counts == (542901, 200000, 0, 4145)
    assert digests == BIG_RUN_SHA256
