import itertools
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from entlab import cmat, experiment, measures, sampler, selftest
from entlab.cli import main
from entlab.errors import EntanglementLabError, SeparableInput
from entlab.experiment import ExperimentConfig, compare_pair
from entlab.qstate import pure_schmidt, singlet, werner_state


def unskipped_rows(monkeypatch, rng, n, first_draw=7, states=None):
    """``_chunk_stats`` rows of n draws of rng with every draw built, the
    first with draw index first_draw; states (probs, u), a (n, 4) and a
    (n, 4, 4) stack, stand in for the draws' spectra and unitaries."""
    with monkeypatch.context() as m:
        m.setattr(experiment, "_separable_orbit", lambda probs: np.zeros(len(probs), dtype=bool))
        if states is not None:
            probs, u = states
            cols = np.ascontiguousarray(u.transpose(2, 1, 0))
            m.setattr(sampler, "_draw_spectra", lambda rng, n: (probs, np.zeros((n, 15))))
            m.setattr(sampler, "_angles_to_columns", lambda angles: cols)
        return experiment._chunk_stats(rng, n, first_draw)


class TestComparePair:
    def test_werner_pair_consistent(self):
        record = compare_pair(werner_state(0.9), werner_state(0.7))
        assert record.d_ef > 0 and record.d_en > 0
        assert not record.violation and not record.tie
        assert record.s_total == pytest.approx(
            measures.linear_entropy(werner_state(0.9))
            + measures.linear_entropy(werner_state(0.7))
        )

    def test_matched_negativity_is_tie(self):
        # pure alpha=0.6 has E_N = 0.48; Werner F = 0.98 matches it exactly
        record = compare_pair(pure_schmidt(0.6), werner_state(0.98))
        assert record.tie
        assert not record.violation
        assert abs(record.d_en) <= 1e-12

    def test_identical_states_tie(self):
        record = compare_pair(singlet(), singlet())
        assert record.d_ef == 0.0 and record.d_en == 0.0
        assert record.tie and not record.violation

    def test_weakly_entangled_pair_is_ordered(self):
        # just above F = 1/2, with E_N > EPS_SEP and C about 5e-10, E_F is
        # about 1e-18 and keeps its order: no tie and no violation
        rho1, rho2 = werner_state(0.5 + 2e-10), werner_state(0.5 + 3e-10)
        assert 0.0 < measures.e_formation(rho1) < measures.e_formation(rho2)
        record = compare_pair(rho1, rho2)
        assert not record.tie and not record.violation
        assert record.d_ef < 0.0 and record.d_en < 0.0  # state 1 is the weaker by both

    def test_rejects_separable_input(self):
        with pytest.raises(SeparableInput):
            compare_pair(werner_state(0.3), singlet())


def histogram(records):
    s = np.array([r.s_total for r in records])
    violation = np.array([r.violation for r in records], dtype=bool)
    return experiment._histogram_core(s, violation)


class TestSHistogram:
    def test_pure_pairs_fill_first_bin(self):
        records = [
            compare_pair(pure_schmidt(0.3), pure_schmidt(0.8)),
            compare_pair(pure_schmidt(0.5), pure_schmidt(0.9)),
        ]
        hist = histogram(records)
        assert len(hist.pair_counts) == experiment.S_BINS == 30
        assert hist.pair_counts[0] == 2
        assert hist.pair_counts[1:].sum() == 0
        assert hist.violation_rates[0] == 0.0

    def test_single_record_one_bin(self):
        record = compare_pair(werner_state(0.9), werner_state(0.7))
        hist = histogram([record])
        assert hist.pair_counts.sum() == hist.pair_counts[int(record.s_total * 20)] == 1
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 1.5

    def test_empty_bins_flagged(self):
        hist = histogram([compare_pair(werner_state(0.9), werner_state(0.8))])
        assert hist.empty.sum() == 29
        assert np.all(hist.violation_rates[hist.empty] == 0.0)


@pytest.fixture(scope="module")
def small_run():
    return experiment.run_experiment(ExperimentConfig(seed=61, n_pairs=3000))


class TestRunExperiment:
    def test_deterministic(self, small_run):
        again = experiment.run_experiment(ExperimentConfig(seed=61, n_pairs=3000))
        assert np.array_equal(small_run.pairs, again.pairs)
        assert small_run.p_entangled == again.p_entangled
        assert small_run.p_violation == again.p_violation
        assert np.array_equal(small_run.scatter_def_den, again.scatter_def_den)

    def test_thread_count_is_invisible(self, small_run):
        threaded = experiment.run_experiment(
            ExperimentConfig(seed=61, n_pairs=3000, threads=3)
        )
        assert np.array_equal(small_run.pairs, threaded.pairs)
        assert small_run.states_drawn == threaded.states_drawn
        assert np.array_equal(small_run.scatter_ef_en, threaded.scatter_ef_en)
        assert np.array_equal(
            small_run.s_histogram.violation_counts, threaded.s_histogram.violation_counts
        )

    def test_counting_consistency(self, small_run):
        s = small_run
        assert s.n_pairs == 3000 == len(s.pairs)
        assert s.states_drawn == s.states_kept + s.states_discarded
        assert s.states_kept == 2 * (s.n_pairs + s.n_ties_excluded)

    def test_record_wiring(self, small_run):
        p = small_run.pairs
        assert np.array_equal(p["d_ef"], (p["ef1"] - p["ef2"]) / (p["ef1"] + p["ef2"]))
        assert np.array_equal(p["d_en"], (p["en1"] - p["en2"]) / (p["en1"] + p["en2"]))
        assert np.array_equal(p["violation"], p["d_ef"] * p["d_en"] < 0)
        assert np.array_equal(p["s_total"], p["s1"] + p["s2"])
        assert np.all(np.abs(p["d_ef"]) <= 1.0) and np.all(np.abs(p["d_en"]) <= 1.0)

    def test_all_pair_states_entangled(self, small_run):
        p = small_run.pairs
        for member in (1, 2):
            assert np.all(p[f"en{member}"] > measures.EPS_SEP)
            assert np.all(p[f"c{member}"] > 0)

    def test_standard_errors(self, small_run):
        s = small_run
        assert s.se_violation == pytest.approx(
            np.sqrt(s.p_violation * (1 - s.p_violation) / s.n_pairs)
        )
        assert s.se_entangled == pytest.approx(
            np.sqrt(s.p_entangled * (1 - s.p_entangled) / s.states_drawn)
        )

    def test_scatter_shapes(self, small_run):
        assert small_run.scatter_def_den.shape == (3000, 2)
        assert small_run.scatter_ef_en.shape == (6000, 2)
        assert small_run.scatter_c_en.shape == (6000, 2)

    def test_formation_sum_orderings_agree_with_negativity(self, small_run):
        # two-qubit partial transposes have at most one negative eigenvalue,
        # so the sum measure orders pairs exactly as the negativity does
        p = small_run.pairs
        d_esum = (p["esum1"] - p["esum2"]) / (p["esum1"] + p["esum2"])
        assert np.array_equal(d_esum * p["d_ef"] < 0, p["violation"])

    def test_single_pair_run(self):
        s = experiment.run_experiment(ExperimentConfig(seed=62, n_pairs=1))
        assert s.n_pairs == 1
        assert s.p_violation in (0.0, 1.0)

    def test_config_validation(self):
        for bad in (
            {"n_pairs": 0},
            {"threads": 0},
            {"n_pairs": experiment.MAX_PAIRS + 1},
            {"threads": experiment.MAX_THREADS + 1},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**{"seed": 1, "n_pairs": 10, **bad})
        # a non-integer is refused at construction, naming its field and value
        for name, value in (
            ("seed", 1.5), ("seed", "7"), ("seed", True), ("n_pairs", 2.5), ("n_pairs", np.float64(10)),
            ("threads", 2.0), ("threads", None),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
                ExperimentConfig(**{"seed": 1, "n_pairs": 10, name: value})
        # a negative seed is refused at construction with RngStream's message
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            ExperimentConfig(seed=-1, n_pairs=10)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            sampler.RngStream(-1)
        # numpy integers pass
        cfg = ExperimentConfig(seed=np.uint64(2**63), n_pairs=np.int32(10), threads=np.int64(2))
        assert (cfg.seed, cfg.n_pairs, cfg.threads) == (2**63, 10, 2)


class TestShardPairing:
    """A shard's pairs and counters are those of the pairing rule written out
    in ``repairing_shard``, bit for bit, across chunk boundaries, odd-length
    chunks and ties."""

    @staticmethod
    def repairing_shard(seed, shard_index, quota):
        """The shard's pairing rule: before every chunk, pair all the states
        gathered so far consecutively in draw order and stop once the usable
        pairs meet the quota; count through the pair that fills it."""
        rng = sampler.RngStream(seed, (experiment._SHARD_KEY, shard_index))
        stats, drawn = np.empty((0, 6)), 0
        while True:
            n = len(stats) - len(stats) % 2
            rows, tie = experiment._pair_rows(stats[0:n:2], stats[1:n:2])
            need = quota - int(np.count_nonzero(~tie))
            if need <= 0:
                break
            size = int(2 * need / experiment._P_KEPT) + experiment._CHUNK_MARGIN
            stats = np.concatenate([stats, experiment._chunk_stats(rng, size, drawn)])
            drawn += size
        last = int(np.searchsorted(np.cumsum(~tie), quota))
        used = slice(0, last + 1)
        return rows[used][~tie[used]], int(stats[2 * last + 1, 5]) + 1, 2 * last + 2, int(tie[used].sum())

    @pytest.mark.parametrize("tie_epsilon", [experiment.TIE_EPSILON, 0.02])
    def test_matches_repairing_every_chunk(self, monkeypatch, tie_epsilon):
        # a wide tie threshold makes some pairs ties; the acceptance run has none
        monkeypatch.setattr(experiment, "TIE_EPSILON", tie_epsilon)
        # chunks sized for a kept fraction of 1 cover a third of the draws a quota needs
        monkeypatch.setattr(experiment, "_P_KEPT", 1.0)
        chunk_sizes = []
        chunk_stats = experiment._chunk_stats

        def counted(rng, n, first_draw):
            stats = chunk_stats(rng, n, first_draw)
            chunk_sizes.append(len(stats))
            return stats

        monkeypatch.setattr(experiment, "_chunk_stats", counted)
        rows = np.empty(700, dtype=experiment.PAIR_DTYPE)
        drawn, kept, ties = experiment._run_shard(65, 3, rows)
        assert len(chunk_sizes) >= 3 and any(size % 2 for size in chunk_sizes)
        assert (ties > 0) == (tie_epsilon == 0.02)
        ref_rows, ref_drawn, ref_kept, ref_ties = self.repairing_shard(65, 3, 700)
        assert rows.tobytes() == ref_rows.tobytes()
        assert (drawn, kept, ties) == (ref_drawn, ref_kept, ref_ties)


def traced_peak(call):
    """Bytes that call() allocates at its peak above what was live before,
    by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestOneChunkPerShard:
    """A shard's first chunk is sized for its whole quota, and a shard that
    draws it in one piece peaks under 11 MiB of traced memory."""

    def test_acceptance_shard_draws_one_chunk(self, monkeypatch):
        sizes = []
        chunk_stats = experiment._chunk_stats

        def counted(rng, n, first_draw):
            sizes.append(n)
            return chunk_stats(rng, n, first_draw)

        monkeypatch.setattr(experiment, "_chunk_stats", counted)
        experiment._run_shard(20260810, 0, np.empty(experiment.SHARD_PAIRS, dtype=experiment.PAIR_DTYPE))
        assert sizes == [11409]  # int(2 * SHARD_PAIRS / _P_KEPT) + _CHUNK_MARGIN

    def test_shard_memory_peak(self):
        out = np.empty(experiment.SHARD_PAIRS, dtype=experiment.PAIR_DTYPE)
        experiment._run_shard(20260810, 0, out)  # first-call set-up
        assert traced_peak(lambda: experiment._run_shard(20260810, 0, out)) <= 11 * 2**20


class TestWorkingSet:
    """A run holds one copy of its pair rows and one chunk's working set."""

    def test_chunk_memory_peak(self):
        # shard 0's chunk of the acceptance run: 11409 draws, 4204 of them
        # screened and NPT; 6.6 MB with each array dropped after its last
        # reader, 11.0 MB when they lived to the end of their function
        def chunk():
            experiment._chunk_stats(sampler.RngStream(20260810, (experiment._SHARD_KEY, 0)), 11409, 0)

        chunk()  # first-call set-up
        assert traced_peak(chunk) <= 7 * 10**6

    def test_run_holds_one_copy_of_its_pairs(self, monkeypatch):
        # chunks of rows from a fixed table, so that the pair rows, not the
        # kernels, set what a run allocates; a chunk sized for a kept fraction
        # of 1 fills each shard at once, with no ties
        monkeypatch.setattr(experiment, "_P_KEPT", 1.0)
        values = np.random.default_rng(3).random((2 * experiment.SHARD_PAIRS + 64, 5)) + 0.5

        def rows_of(rng, n, first_draw):
            rows = np.empty((n, 6))
            rows[:, :5], rows[:, 5] = values[:n], np.arange(first_draw, first_draw + n)
            return rows

        monkeypatch.setattr(experiment, "_chunk_stats", rows_of)
        shards, run_shard = [], experiment._run_shard

        def recorded(seed, shard_index, out):
            shards.append(out)
            return run_shard(seed, shard_index, out)

        cfg = ExperimentConfig(seed=5, n_pairs=3 * experiment.SHARD_PAIRS)
        out = np.empty(experiment.SHARD_PAIRS, dtype=experiment.PAIR_DTYPE)
        shard_peak = traced_peak(lambda: run_shard(5, 0, out))
        monkeypatch.setattr(experiment, "_run_shard", recorded)
        summaries = []
        run_peak = traced_peak(lambda: summaries.append(experiment.run_experiment(cfg)))
        pairs = summaries[0].pairs
        # each shard filled its own slice of the run's one array
        assert len(shards) == 3 and all(np.shares_memory(rows, pairs) for rows in shards)
        assert pairs.tobytes() == b"".join(rows.tobytes() for rows in shards)
        # the rows, one shard's working set, and under a quarter of the rows
        # again for the scatter and histogram arrays (a sixth is measured); a
        # second copy of the rows, or the scatters from whole-run columns, exceed it
        assert run_peak <= pairs.nbytes + shard_peak + pairs.nbytes // 4


class TestDrawCap:
    """A shard that cannot fill its quota stops after a bounded number of draws."""

    @pytest.fixture
    def mixed_sampler(self, monkeypatch):
        draws = []

        def maximally_mixed(rng, n):
            draws.append(n)
            return np.full((n, 4), 0.25), np.zeros((n, sampler.DRAWS_PER_STATE - 3))

        monkeypatch.setattr(sampler, "_draw_spectra", maximally_mixed)
        return draws

    def test_run_stops(self, mixed_sampler):
        with pytest.raises(EntanglementLabError, match="shard 0 drew"):
            experiment.run_experiment(ExperimentConfig(seed=1, n_pairs=100))
        cap = experiment._MAX_DRAW_FACTOR * 2 * 100 / experiment._P_KEPT
        assert cap <= sum(mixed_sampler) <= cap + max(mixed_sampler)

    def test_cli_exit_code(self, mixed_sampler, capsys, tmp_path):
        assert main(["compare", "--seed", "1", "--pairs", "100", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: shard 0 drew")

    def test_message_counts(self, monkeypatch):
        # chunks sized for a kept fraction of 1 fall short, a wide tie threshold
        # makes ties, and a cap of four draws per pair of the quota stops the
        # shard after a few chunks; the message counts all of their states
        monkeypatch.setattr(experiment, "_P_KEPT", 1.0)
        monkeypatch.setattr(experiment, "_MAX_DRAW_FACTOR", 2)
        monkeypatch.setattr(experiment, "TIE_EPSILON", 0.02)
        sizes, chunks = [], []
        chunk_stats = experiment._chunk_stats

        def recorded(rng, n, first_draw):
            sizes.append(n)
            chunks.append(chunk_stats(rng, n, first_draw))
            return chunks[-1]

        monkeypatch.setattr(experiment, "_chunk_stats", recorded)
        with pytest.raises(EntanglementLabError) as raised:
            experiment._run_shard(65, 3, np.empty(700, dtype=experiment.PAIR_DTYPE))
        stats = np.concatenate(chunks)
        n = len(stats) - len(stats) % 2
        a, b = stats[0:n:2, 1:3], stats[1:n:2, 1:3]
        ties = int(np.count_nonzero((np.abs(a - b) <= 0.02 * (a + b)).any(axis=1)))
        lacking = 700 - (n // 2 - ties)
        assert len(chunks) >= 2 and ties > 0 and lacking > 0
        assert str(raised.value) == (
            f"shard 3 drew {sum(sizes)} states and still lacks {lacking} of 700 usable "
            f"pairs ({len(stats)} entangled, {ties} tie pairs)"
        )


class TestDeterminantScreen:
    """The det(rho^Gamma) screen drops only states the EPS_SEP rule calls separable."""

    @staticmethod
    def rows_with_and_without_screen(monkeypatch, seed, n, states=None):
        screened = unskipped_rows(monkeypatch, sampler.RngStream(seed), n, states=states)
        with monkeypatch.context() as m:
            m.setattr(measures, "DET_SCREEN", np.inf)  # every state gets its PT spectrum
            unscreened = unskipped_rows(m, sampler.RngStream(seed), n, states=states)
        return screened, unscreened

    def test_sampler_states(self, monkeypatch):
        screened, unscreened = self.rows_with_and_without_screen(monkeypatch, 63, 20_000)
        assert 7000 < len(screened) < 8000
        assert np.array_equal(screened, unscreened)

    def test_werner_states_at_the_threshold(self, monkeypatch):
        # E_N = F - 1/2 lies just above, just below and far below EPS_SEP
        fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3), 0.5)
        rhos = np.stack([werner_state(f).matrix for f in fs])
        states = cmat.hermitian_eig(rhos)
        screened, unscreened = self.rows_with_and_without_screen(monkeypatch, 0, 3, states)
        assert np.array_equal(screened, unscreened)
        assert screened[:, 5].tolist() == [7.0]

    def test_minors_determinant_matches_lu(self):
        rhos = sampler.random_density_batch(sampler.RngStream(64), 20_000)
        pt = cmat.partial_transpose_b(rhos)
        lu = np.linalg.det(pt).real
        assert np.abs(measures._hermitian_det(pt.transpose(1, 2, 0)) - lu).max() < 1e-15
        screened = measures._pt_screen(np.ascontiguousarray(rhos.transpose(1, 2, 0)))[0]
        assert np.array_equal(screened, np.nonzero(lu <= measures.DET_SCREEN)[0])

    @staticmethod
    def stack_screen(rhos):
        """The screen on a C-contiguous (n, 4, 4) stack: PT, minors determinant,
        LAPACK's smallest eigenvalue of the screened PTs."""
        pt = cmat.partial_transpose_b(rhos)
        screened = np.nonzero(measures._hermitian_det(pt.transpose(1, 2, 0)) <= measures.DET_SCREEN)[0]
        return screened, np.linalg.eigvalsh(pt[screened])[:, 0]

    def test_entry_layout_matches_stack_route(self):
        fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3), 0.5, 0.3, 0.9)
        werner = np.stack([werner_state(f).matrix for f in fs])
        chunks = (
            sampler._spectral_stacks(sampler.RngStream(65), 20_000)[0],
            np.ascontiguousarray(werner.transpose(1, 2, 0)),
        )
        for rho in chunks:
            screened, pt, det = measures._pt_screen(rho)
            pt_min = measures._pt_min(pt, det)
            ref_screened, ref_min = self.stack_screen(np.ascontiguousarray(rho.transpose(2, 0, 1)))
            assert np.array_equal(screened, ref_screened)
            assert np.abs(pt_min - ref_min).max() <= 1e-15

    def test_chunk_without_entangled_states(self, monkeypatch):
        rhos = np.stack([np.eye(4, dtype=complex) / 4, werner_state(0.4).matrix])
        states = cmat.hermitian_eig(rhos)
        assert unskipped_rows(monkeypatch, sampler.RngStream(0), 2, states=states).shape == (0, 6)


def orbit_bound(lam):
    """Smallest lambda_min(rho^Gamma) over the unitary orbit of spectra lam
    (n, 4) in descending order."""
    l1, l2, l3, l4 = lam.T
    return (l2 + l4 - np.hypot(l1 - l3, l2 - l4)) / 2


def scaled_spectra(rng, n, scale):
    """n descending spectra with l1 - l3 = scale * 2 sqrt(l2 l4): on the
    boundary of separability for every rotation at scale 1, inside it below."""
    l2, l3, l4 = -np.sort(-rng.random((4 * n, 3)), axis=1).T
    l1 = l3 + scale * 2.0 * np.sqrt(l2 * l4)
    lam = np.column_stack([l1, l2, l3, l4])[l1 >= l2][:n]
    assert len(lam) == n
    return lam / lam.sum(axis=1, keepdims=True)


def near_identity_unitaries(rng, n):
    """Unitaries within about 1e-9..1e-1 of the identity, from QR of I + eps G."""
    eps = np.logspace(-9, -1, n)[:, None, None]
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    q, r = np.linalg.qr(np.eye(4) + eps * g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# Eigenvectors (|00> + |11>)/sqrt(2), |01>, (|00> - |11>)/sqrt(2), |10> as
# columns, in the order of descending eigenvalues: the orbit's worst rotation.
_H = np.sqrt(0.5)
EXTREMAL_BASIS = np.array(
    [[_H, 0, _H, 0], [0, 1, 0, 0], [0, 0, 0, 1], [_H, 0, -_H, 0]], dtype=complex
)


def pt_min_lapack(u, lam):
    rho = (u * lam[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    return np.linalg.eigvalsh(cmat.partial_transpose_b(rho))[..., 0]


class TestSpectrumSkip:
    """Draws whose spectrum alone proves them separable are never built, and
    the harness rows are those of the unskipped path, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-6])
    def test_orbit_bound_is_a_lower_bound(self, scale):
        rng = np.random.default_rng(71)
        for lam in scaled_spectra(rng, 4, scale):
            haar = oracles.qr_haar_unitaries(rng, 10_000)
            near_worst = near_identity_unitaries(rng, 10_000) @ EXTREMAL_BASIS
            for u in (haar, near_worst):
                worst = pt_min_lapack(u, lam).min()
                assert worst >= -1e-15
                assert worst >= orbit_bound(lam[None])[0] - 1e-15

    @pytest.mark.parametrize("scale", [0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 2.0])
    def test_orbit_bound_is_attained(self, scale):
        lam = scaled_spectra(np.random.default_rng(72), 2000, scale)
        attained = pt_min_lapack(EXTREMAL_BASIS, lam)
        assert np.abs(attained - orbit_bound(lam)).max() <= 1e-15

    def test_sorting_network_in_every_order(self):
        probs = sampler._draw_spectra(sampler.RngStream(73), 20_000)[0]
        expect = orbit_bound(-np.sort(-probs, axis=1)) >= experiment._ORBIT_MARGIN
        assert 0.3 < expect.mean() < 0.35
        for order in itertools.permutations(range(4)):
            assert np.array_equal(experiment._separable_orbit(probs[:, order]), expect)

    @pytest.mark.parametrize("seed,n", [(63, 20_000), (66, 37), (67, 300), (67, 700)])
    def test_chunk_rows_match_the_unskipped_path(self, monkeypatch, seed, n):
        # a skipped draw that the screen would keep would drop or change a row
        rows = experiment._chunk_stats(sampler.RngStream(seed), n, 11)
        probs = sampler._draw_spectra(sampler.RngStream(seed), n)[0]
        assert experiment._separable_orbit(probs).any()
        assert np.array_equal(rows, unskipped_rows(monkeypatch, sampler.RngStream(seed), n, 11))

    def test_harness_rows_within_cn_region(self):
        pairs = experiment.run_experiment(ExperimentConfig(seed=31415, n_pairs=3000)).pairs
        table = {
            "concurrence": np.concatenate([pairs["c1"], pairs["c2"]]),
            "e_negative": np.concatenate([pairs["en1"], pairs["en2"]]),
        }
        assert selftest.cn_region_excess(table) <= 1e-12


class TestCsvEmission:
    def test_files_and_shapes(self, small_run, tmp_path):
        paths = experiment.write_csvs(small_run, tmp_path)
        assert sorted(paths) == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "summary.csv"]
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert fig1[0] == "d_en,d_ef"
        assert len(fig1) == 1 + 3000
        fig4 = (tmp_path / "fig4.csv").read_text().splitlines()
        assert fig4[0] == "bin_center,pair_count,violation_count,violation_rate,empty"
        assert len(fig4) == 1 + experiment.S_BINS

    def test_round_trip_matches_summary(self, small_run, tmp_path):
        experiment.write_csvs(small_run, tmp_path)
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p_violation"]) == small_run.p_violation
        assert int(values["states_drawn"]) == small_run.states_drawn
        assert int(values["seed"]) == 61
