import numpy as np
import pytest

from entlab import cmat, experiment, measures, sampler
from entlab.cli import main
from entlab.errors import EntanglementLabError, SeparableInput
from entlab.experiment import ExperimentConfig, compare_pair
from entlab.qstate import pure_schmidt, singlet, werner_state


def sampler_layout(rhos, probs, u):
    """A chunk (rho, probs, cols) in the sampler's layout, from (n, 4, 4) stacks
    rhos = u diag(probs) u^dagger."""
    cols = np.ascontiguousarray(u.transpose(2, 1, 0))
    return np.ascontiguousarray(rhos.transpose(1, 2, 0)), probs, cols


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

    def test_underflowing_formation_is_tie(self):
        # just above F = 1/2 both E_F values underflow to 0 while E_N > EPS_SEP,
        # so d_ef has a zero denominator; the harness counts that as a tie
        rho1, rho2 = werner_state(0.5 + 2e-10), werner_state(0.5 + 3e-10)
        assert measures.e_formation(rho1) == measures.e_formation(rho2) == 0.0
        record = compare_pair(rho1, rho2)
        assert record.tie and not record.violation
        assert record.d_ef == 0.0

    def test_rejects_separable_input(self):
        with pytest.raises(SeparableInput):
            compare_pair(werner_state(0.3), singlet())


def histogram(records, n_bins):
    s = np.array([r.s_total for r in records])
    violation = np.array([r.violation for r in records], dtype=bool)
    return experiment._histogram_core(s, violation, n_bins)


class TestSHistogram:
    def test_pure_pairs_fill_first_bin(self):
        records = [
            compare_pair(pure_schmidt(0.3), pure_schmidt(0.8)),
            compare_pair(pure_schmidt(0.5), pure_schmidt(0.9)),
        ]
        hist = histogram(records, n_bins=15)
        assert hist.pair_counts[0] == 2
        assert hist.pair_counts[1:].sum() == 0
        assert hist.violation_rates[0] == 0.0

    def test_single_record_one_bin(self):
        hist = histogram([compare_pair(werner_state(0.9), werner_state(0.7))], 1)
        assert hist.pair_counts[0] == 1
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 1.5

    def test_empty_bins_flagged(self):
        hist = histogram([compare_pair(werner_state(0.9), werner_state(0.8))], 10)
        assert hist.empty.sum() == 9
        assert np.all(hist.violation_rates[hist.empty] == 0.0)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, n_pairs=10, s_bins=0)


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
            {"s_bins": 0},
            {"threads": 0},
            {"tie_epsilon": -1e-12},
            {"tie_epsilon": float("nan")},
            {"scatter_points": -5},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**{"seed": 1, "n_pairs": 10, **bad})

    @pytest.mark.parametrize("tie_epsilon", [1.0, 2.0, float("inf")])
    def test_tie_epsilon_of_one_or_more_rejected(self, tie_epsilon):
        # every relative difference lies in [-1, 1], so every pair would be a tie
        with pytest.raises(ValueError, match="tie_epsilon"):
            ExperimentConfig(seed=1, n_pairs=10, tie_epsilon=tie_epsilon)

    def test_tie_epsilon_just_below_one_accepted(self):
        below_one = np.nextafter(1.0, 0.0)
        assert ExperimentConfig(seed=1, n_pairs=10, tie_epsilon=below_one).tie_epsilon == below_one


class TestDrawCap:
    """A shard that cannot fill its quota stops after a bounded number of draws."""

    @pytest.fixture
    def mixed_sampler(self, monkeypatch):
        draws = []

        def maximally_mixed(rng, n):
            draws.append(n)
            u = np.broadcast_to(np.eye(4, dtype=complex), (n, 4, 4))
            probs = np.full((n, 4), 0.25)
            return sampler_layout((u * probs[:, None, :]) @ u, probs, u)

        monkeypatch.setattr(sampler, "_spectral_stacks", maximally_mixed)
        return draws

    def test_run_stops(self, mixed_sampler):
        with pytest.raises(EntanglementLabError, match="shard 0 drew"):
            experiment.run_experiment(ExperimentConfig(seed=1, n_pairs=100))
        cap = experiment._MAX_DRAW_FACTOR * 2 * 100 / experiment._P_KEPT
        assert cap <= sum(mixed_sampler) <= cap + max(mixed_sampler)

    def test_cli_exit_code(self, mixed_sampler, capsys, tmp_path):
        assert main(["compare", "--seed", "1", "--pairs", "100", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: shard 0 drew")


class TestDeterminantScreen:
    """The det(rho^Gamma) screen drops only states the EPS_SEP rule calls separable."""

    @staticmethod
    def rows_with_and_without_screen(monkeypatch, rho, probs, cols):
        screened = experiment._entangled_state_stats(rho, probs, cols, 7)
        with monkeypatch.context() as m:
            m.setattr(measures, "DET_SCREEN", np.inf)  # every state gets its PT spectrum
            unscreened = experiment._entangled_state_stats(rho, probs, cols, 7)
        return screened, unscreened

    def test_sampler_states(self, monkeypatch):
        chunk = sampler._spectral_stacks(sampler.RngStream(63), 20_000)
        screened, unscreened = self.rows_with_and_without_screen(monkeypatch, *chunk)
        assert 7000 < len(screened) < 8000
        assert np.array_equal(screened, unscreened)

    def test_werner_states_at_the_threshold(self, monkeypatch):
        # E_N = F - 1/2 lies just above, just below and far below EPS_SEP
        fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3), 0.5)
        rhos = np.stack([werner_state(f).matrix for f in fs])
        chunk = sampler_layout(rhos, *cmat.hermitian_eig(rhos))
        screened, unscreened = self.rows_with_and_without_screen(monkeypatch, *chunk)
        assert np.array_equal(screened, unscreened)
        assert screened[:, 5].tolist() == [7.0]

    def test_minors_determinant_matches_lu(self):
        rhos = sampler.random_density_batch(sampler.RngStream(64), 20_000)
        pt = cmat.partial_transpose_b(rhos)
        lu = np.linalg.det(pt).real
        assert np.abs(measures._hermitian_det(pt) - lu).max() < 1e-15
        screened, _ = measures._pt_screen(np.ascontiguousarray(rhos.transpose(1, 2, 0)))
        assert np.array_equal(screened, np.nonzero(lu <= measures.DET_SCREEN)[0])

    @staticmethod
    def stack_screen(rhos):
        """The screen on a C-contiguous (n, 4, 4) stack: PT, minors determinant,
        LAPACK's smallest eigenvalue of the screened PTs."""
        pt = cmat.partial_transpose_b(rhos)
        screened = np.nonzero(measures._hermitian_det(pt) <= measures.DET_SCREEN)[0]
        return screened, np.linalg.eigvalsh(pt[screened])[:, 0]

    def test_entry_layout_matches_stack_route(self):
        fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3), 0.5, 0.3, 0.9)
        werner = np.stack([werner_state(f).matrix for f in fs])
        chunks = (
            sampler._spectral_stacks(sampler.RngStream(65), 20_000)[0],
            np.ascontiguousarray(werner.transpose(1, 2, 0)),
        )
        for rho in chunks:
            screened, pt_min = measures._pt_screen(rho)
            ref_screened, ref_min = self.stack_screen(np.ascontiguousarray(rho.transpose(2, 0, 1)))
            assert np.array_equal(screened, ref_screened)
            assert np.abs(pt_min - ref_min).max() <= 1e-15

    def test_chunk_without_entangled_states(self):
        rhos = np.stack([np.eye(4, dtype=complex) / 4, werner_state(0.4).matrix])
        chunk = sampler_layout(rhos, *cmat.hermitian_eig(rhos))
        assert experiment._entangled_state_stats(*chunk, 0).shape == (0, 6)


class TestCsvEmission:
    def test_files_and_shapes(self, small_run, tmp_path):
        paths = experiment.write_csvs(small_run, tmp_path)
        assert sorted(paths) == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "summary.csv"]
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert fig1[0] == "d_en,d_ef"
        assert len(fig1) == 1 + 3000
        fig4 = (tmp_path / "fig4.csv").read_text().splitlines()
        assert fig4[0] == "bin_center,pair_count,violation_count,violation_rate,empty"
        assert len(fig4) == 1 + small_run.config.s_bins

    def test_round_trip_matches_summary(self, small_run, tmp_path):
        experiment.write_csvs(small_run, tmp_path)
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p_violation"]) == small_run.p_violation
        assert int(values["states_drawn"]) == small_run.states_drawn
        assert int(values["seed"]) == 61
