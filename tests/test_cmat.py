import numpy as np
import pytest

from entlab import cmat
from entlab.errors import NotHermitian, NotPSD
from entlab.qstate import singlet, werner_state

RNG = np.random.default_rng(2101)


def random_hermitian(n):
    a = RNG.standard_normal((n, 4, 4)) + 1j * RNG.standard_normal((n, 4, 4))
    return a + np.conj(a.transpose(0, 2, 1))


def random_psd_unit_trace(n):
    a = RNG.standard_normal((n, 4, 4)) + 1j * RNG.standard_normal((n, 4, 4))
    m = a @ np.conj(a.transpose(0, 2, 1))
    return m / np.einsum("nii->n", m).real[:, None, None]


class TestHermitianEig:
    def test_identity(self):
        w, _ = cmat.hermitian_eig(np.eye(4))
        assert np.allclose(w, [1, 1, 1, 1], atol=1e-14)

    def test_diagonal_descending(self):
        w, v = cmat.hermitian_eig(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert np.allclose(w, [1, 2, 3, 4], atol=1e-14)  # LAPACK's ascending order
        # standard basis vectors up to phase, in the same order
        assert np.allclose(np.abs(v), np.eye(4)[:, [3, 2, 1, 0]], atol=1e-14)

    def test_singlet_partial_transpose_spectrum(self):
        # hand-diagonalized: block {1/2, 1/2} plus the 2x2 [[0,-1/2],[-1/2,0]]
        pt = cmat.partial_transpose_b(singlet().matrix)
        w, _ = cmat.hermitian_eig(pt)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NotHermitian) as err:
            cmat.hermitian_eig(m)
        assert err.value.deviation == pytest.approx(1e-6)

    def test_reconstruction_and_orthonormality_bulk(self):
        herm = random_hermitian(10_000)
        w, u = cmat.hermitian_eig(herm)
        u_dag = np.conj(u.transpose(0, 2, 1))
        assert np.all(np.diff(w, axis=1) >= 0)
        assert np.abs(u_dag @ u - np.eye(4)).max() < 1e-10
        assert np.abs((u * w[:, None, :]) @ u_dag - herm).max() < 1e-10
        for m, wk, uk in zip(herm[:100], w, u):  # a single matrix gets its stack entry
            w1, u1 = cmat.hermitian_eig(m)
            assert np.array_equal(w1, wk) and np.array_equal(u1, uk)

    def test_eigenvalue_sum_is_trace(self):
        herm = random_hermitian(10_000)
        w, _ = cmat.hermitian_eig(herm)
        traces = np.einsum("nii->n", herm).real
        assert np.abs(w.sum(axis=1) - traces).max() < 1e-10


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(cmat.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        s = cmat.psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]))
        assert np.allclose(s, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_werner_root_squares_back(self):
        m = werner_state(0.7).matrix
        s = cmat.psd_sqrt(m)
        assert np.abs(s @ s - m).max() < 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD) as err:
            cmat.psd_sqrt(np.diag([1.0, -0.5, 0.2, 0.3]))
        assert err.value.deviation == pytest.approx(0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        m = np.eye(4, dtype=complex) / 4
        m[2, 3] = value
        with pytest.raises(NotHermitian):
            cmat.psd_sqrt(m)
        with pytest.raises(NotHermitian):
            cmat.psd_sqrt(np.full((4, 4), value))

    def test_rejects_nan_eigenvalue(self):
        with pytest.raises(NotPSD):
            cmat._require_psd(np.array([0.5, np.nan, 0.5, 0.0]))

    def test_clamps_rounding_noise(self):
        s = cmat.psd_sqrt(np.diag([1.0, -5e-11, 0.0, 0.0]))
        assert np.allclose(s, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)

    def test_square_property_bulk(self):
        psd = random_psd_unit_trace(10_000)
        s = cmat.psd_sqrt(psd)
        assert np.abs(s @ s - psd).max() < cmat.TOL.reconstruction
        assert cmat.hermiticity_defect(s) == 0.0


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(cmat.partial_transpose_b(d), d)

    def test_involution_exact(self):
        herm = random_hermitian(100)
        assert np.array_equal(cmat.partial_transpose_b(cmat.partial_transpose_b(herm)), herm)

    def test_trace_preserved_exactly(self):
        herm = random_hermitian(100)
        pt = cmat.partial_transpose_b(herm)
        assert np.array_equal(np.einsum("nii->n", pt), np.einsum("nii->n", herm))

    def test_entry_permutation(self):
        m = np.arange(16.0).reshape(4, 4)
        expected = np.array(
            [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]], dtype=float
        )
        assert np.array_equal(cmat.partial_transpose_b(m), expected)

    def test_hermiticity_preserved(self):
        pt = cmat.partial_transpose_b(random_hermitian(100))
        assert cmat.hermiticity_defect(pt) == 0.0

    def test_singlet_negative_eigenvalue(self):
        w, _ = cmat.hermitian_eig(cmat.partial_transpose_b(singlet().matrix))
        assert w[0] == pytest.approx(-0.5, abs=1e-12)



class TestHermiticityDefect:
    """The upper-triangle defect equals the largest entry of |m - m^dagger|, bit for bit."""

    @staticmethod
    def full_defect(m):
        return float(np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max())

    def test_equals_full_difference(self):
        shape = (4096, 4, 4)
        noise = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        noisy = random_psd_unit_trace(4096) + 1e-13 * noise
        assert cmat.hermiticity_defect(noisy) == self.full_defect(noisy) > 0.0
        for m in noisy[:64]:
            assert cmat.hermiticity_defect(m) == self.full_defect(m)

    def test_partial_transpose_has_the_same_defect(self):
        noisy = random_hermitian(4096) + 1e-13 * RNG.standard_normal((4096, 4, 4))
        pt = cmat.partial_transpose_b(noisy)
        assert cmat.hermiticity_defect(pt) == cmat.hermiticity_defect(noisy)

    def test_diagonal_counts(self):
        diagonal_only = random_hermitian(64) + 1e-13j * np.eye(4)
        assert cmat.hermiticity_defect(diagonal_only) == cmat.hermiticity_defect(diagonal_only[0]) > 0.0

    def test_strided_view_and_other_sizes(self):
        noisy = random_hermitian(512) + 1e-13j * RNG.standard_normal((512, 4, 4))
        view = np.ascontiguousarray(noisy.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert cmat.hermiticity_defect(view) == self.full_defect(noisy)
        for m3 in (noisy[:, :3, :3], noisy[0, :3, :3]):
            assert cmat.hermiticity_defect(m3) == self.full_defect(m3)
        assert cmat.hermiticity_defect(np.zeros((0, 4, 4))) == 0.0
