import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab import cmat, measures, qstate
from entlab.errors import (
    EntanglementLabError,
    NotHermitian,
    NotPSD,
    ParameterOutOfRange,
    TraceNotOne,
)
from entlab.sampler import RngStream, random_density_batch
from test_measures import raw_stacks


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

    @given(raw_stacks(sizes=st.just(1), forms=("raw", "hermitian", "gram", "state")))
    @example(np.array([[[0.25, 1.7e308, 0, 0], [-1.7e308, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]]))
    @settings(max_examples=400, deadline=None)
    def test_raw_input_is_a_state_or_library_error(self, ms):
        # NaN, inf, 1e+-300 and subnormal entries, and a defect beyond the float
        # range; pytest turns any numpy warning into an error, so the check
        # must stay silent as well
        try:
            rho = qstate.DensityMatrix(ms[0])
        except EntanglementLabError:
            return
        m = rho.matrix
        assert np.isfinite(m).all()
        assert cmat.hermiticity_defect(m) <= cmat.TOL.hermiticity
        assert abs(np.trace(m).real - 1.0) <= cmat.TOL.hermiticity
        assert np.linalg.eigvalsh(m)[0] >= -cmat.TOL.psd_clamp

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


def write_text(ms) -> str:
    buf = io.StringIO()
    qstate.write_stack(buf, ms)
    return buf.getvalue()


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        ms = random_density_batch(RngStream(7), 50)
        again = qstate.read_stack(io.StringIO(write_text(ms)))
        assert again.shape == ms.shape and np.array_equal(again, ms)

    def test_file_round_trip(self, tmp_path):
        ms = random_density_batch(RngStream(8), 10)
        path = tmp_path / "states.csv"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            qstate.write_stack(fh, ms)
        with open(path, "r", encoding="ascii") as fh:
            loaded = qstate.read_stack(fh)
        assert np.array_equal(loaded, ms)

    def test_rows_match_field_by_field_format(self):
        # the writer's row format against the plain per-entry formatting,
        # signed zeros included
        ms = np.concatenate([random_density_batch(RngStream(9), 5), np.full((1, 4, 4), complex(-0.0, -0.0))])
        header, *rows = write_text(ms).splitlines()
        assert header == qstate.CSV_HEADER
        for m, row in zip(ms, rows):
            assert row == ",".join(f"{v:.17g}" for z in m.ravel() for v in (z.real, z.imag))
        assert rows[-1] == ",".join(["-0"] * 32)

    def test_empty_and_header_only(self):
        assert write_text(np.zeros((0, 4, 4))) == qstate.CSV_HEADER + "\n"
        for text in ("", qstate.CSV_HEADER + "\n", "\n\n"):
            assert qstate.read_stack(io.StringIO(text)).shape == (0, 4, 4)

    def test_header_fields(self):
        assert len(qstate.CSV_HEADER.split(",")) == 32

    def test_rejects_wrong_width(self):
        with pytest.raises(NotHermitian, match="^line 1: expected 32 CSV fields, got 31$"):
            qstate.read_stack(io.StringIO(",".join(["0.0"] * 31)))

    def test_parse_faults_in_file_order(self):
        # a token that is no float is found before the row's field count,
        # and the first faulty row in the file is reported
        rows = write_text(np.eye(4)[None] / 4).splitlines()
        short_bad = ",".join(["abc"] + ["0"] * 30)
        with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'abc'$"):
            qstate.read_stack(io.StringIO("\n".join(rows + [short_bad, ",".join(["0"] * 31)])))
        with pytest.raises(NotHermitian, match="^line 3: "):
            qstate.read_stack(io.StringIO("\n".join(rows + [",".join(["0"] * 31), short_bad])))

    def test_stack_fault_names_lowest_line(self):
        # line 1 is the header, line 3 blank: the rows are on lines 2, 4, 5, 6
        ms = np.stack([np.eye(4) / 4] * 4).astype(complex)
        ms[2] = np.diag([1.5, -0.5, 0.0, 0.0])  # not PSD
        ms[3] = np.eye(4) / 2  # trace 2

        def with_blank_line(ms):
            header, first, *rest = write_text(ms).splitlines()
            return io.StringIO("\n".join([header, first, "", *rest]))

        with pytest.raises(TraceNotOne, match="^line 6: trace deviates from 1 by 1.000e[+]00$") as err:
            qstate.read_stack(with_blank_line(ms))
        assert err.value.deviation == 1.0
        ms[3] = np.eye(4) / 4
        with pytest.raises(NotPSD, match="^line 5: smallest eigenvalue is -5.000e-01$"):
            qstate.read_stack(with_blank_line(ms))


class TestValidateStack:
    @staticmethod
    def faulty_matrices():
        nan = np.eye(4, dtype=complex) / 4
        nan[0, 1] = np.nan
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 0.5j
        huge = np.eye(4, dtype=complex) / 4
        huge[0, 1], huge[1, 0] = 1.7e308, -1.7e308
        return [nan, skew, huge, np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0])]

    def test_error_of_a_matrix_is_its_density_matrix_error(self):
        # in a stack of valid states, each fault raises the class, message
        # and deviation a DensityMatrix of that one matrix raises
        for m in self.faulty_matrices():
            ms = np.concatenate([random_density_batch(RngStream(10), 300), m[None]])
            with pytest.raises(EntanglementLabError) as in_stack:
                qstate.validate_stack(ms)
            with pytest.raises(EntanglementLabError) as alone:
                qstate.DensityMatrix(m)
            assert type(in_stack.value) is type(alone.value)
            assert str(in_stack.value) == str(alone.value)
            assert in_stack.value.deviation == alone.value.deviation or (
                np.isnan(in_stack.value.deviation) and np.isnan(alone.value.deviation)
            )

    def test_lowest_index_of_the_first_failing_check(self):
        nan, skew, _, trace, psd = self.faulty_matrices()
        ms = np.stack([np.eye(4) / 4, psd, skew, trace, nan]).astype(complex)
        # Hermiticity is checked first: index 2 (0.5 defect) before the NaN at 4
        with pytest.raises(NotHermitian, match="deviates from Hermiticity by 5.000e-01"):
            qstate.validate_stack(ms)
        with pytest.raises(TraceNotOne):
            qstate.validate_stack(ms[[0, 1, 3]])
        with pytest.raises(NotPSD):
            qstate.validate_stack(ms[[0, 1]])

    def test_valid_stack_passes_unchanged(self):
        ms = random_density_batch(RngStream(11), 500)
        assert np.array_equal(qstate.validate_stack(ms), ms)
        assert qstate.validate_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (2, 4, 4, 1)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(NotHermitian, match="expected a"):
            qstate.validate_stack(np.zeros(shape))
