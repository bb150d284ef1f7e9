import numpy as np
import pytest

from entlab import cmat, measures, qstate
from entlab.errors import NotHermitian, NotPSD, ParameterOutOfRange, TraceNotOne
from entlab.sampler import RngStream, random_density_batch


class TestValidation:
    def test_maximally_mixed_valid(self):
        rho = qstate.DensityMatrix(np.eye(4) / 4)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne) as err:
            qstate.DensityMatrix(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert err.value.deviation == pytest.approx(1.0)

    def test_not_psd(self):
        with pytest.raises(NotPSD) as err:
            qstate.DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
        assert err.value.deviation == pytest.approx(0.5)

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5j
        with pytest.raises(NotHermitian):
            qstate.DensityMatrix(m)

    def test_non_finite_entry(self):
        # eigvalsh reads only the lower triangle, so an upper-triangle NaN
        # would otherwise pass every check and fail later inside the SVD
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(NotHermitian):
            qstate.DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = qstate.singlet()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPureSchmidt:
    def test_alpha_one_is_product_projector(self):
        rho = qstate.pure_schmidt(1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.matrix, expected)

    def test_balanced_is_maximally_entangled(self):
        rho = qstate.pure_schmidt(1 / np.sqrt(2))
        assert measures.e_formation(rho) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_06_negativity(self):
        rho = qstate.pure_schmidt(0.6)
        assert measures.e_negative(rho) == pytest.approx(0.48, abs=1e-12)

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 21))
    def test_idempotent(self, alpha):
        m = qstate.pure_schmidt(float(alpha)).matrix
        assert np.abs(m @ m - m).max() < 1e-12

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ParameterOutOfRange):
            qstate.pure_schmidt(alpha)


class TestSinglet:
    def test_trace_exact(self):
        assert np.trace(qstate.singlet().matrix) == 1.0 + 0.0j

    def test_equals_werner_at_one(self):
        assert np.abs(qstate.singlet().matrix - qstate.werner_state(1.0).matrix).max() < 1e-15

    def test_negativity(self):
        assert measures.e_negative(qstate.singlet()) == pytest.approx(0.5, abs=1e-12)


class TestWerner:
    def test_quarter_is_maximally_mixed(self):
        assert np.abs(qstate.werner_state(0.25).matrix - np.eye(4) / 4).max() < 1e-15

    def test_werner_075_negativity(self):
        assert measures.e_negative(qstate.werner_state(0.75)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("f", [0.1, 0.24, 1.01, -1.0])
    def test_rejects_bad_parameter(self, f):
        with pytest.raises(ParameterOutOfRange):
            qstate.werner_state(f)

    @pytest.mark.parametrize("f", np.linspace(0.25, 1.0, 26))
    def test_spectrum(self, f):
        w, _ = cmat.hermitian_eig(qstate.werner_state(float(f)).matrix)
        expected = np.sort([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
        assert np.abs(w - expected).max() < 1e-12


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        rhos = random_density_batch(RngStream(7), 50)
        for m in rhos:
            rho = qstate.DensityMatrix(m)
            again = qstate.from_csv_row(qstate.to_csv_row(rho))
            assert np.array_equal(again.matrix, rho.matrix)

    def test_file_round_trip(self, tmp_path):
        states = [qstate.DensityMatrix(m) for m in random_density_batch(RngStream(8), 10)]
        path = tmp_path / "states.csv"
        qstate.save_states(path, states)
        loaded = qstate.load_states(path)
        assert len(loaded) == len(states)
        for a, b in zip(loaded, states):
            assert np.array_equal(a.matrix, b.matrix)

    def test_header_fields(self):
        assert len(qstate.CSV_HEADER.split(",")) == 32

    def test_rejects_wrong_width(self):
        with pytest.raises(NotHermitian):
            qstate.from_csv_row(",".join(["0.0"] * 31))
