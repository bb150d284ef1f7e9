from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import raw_stacks
from entlab import cmat, measures, qstate, sampler, selftest
from entlab.errors import EntanglementLabError, NotConverged, NotHermitian, NotPSD
from entlab.qstate import pure_schmidt, singlet, werner_state
from entlab.sampler import RngStream, random_density_batch

MIXED = np.eye(4) / 4


def spectral_batch(seed, n):
    """n sampler states as (rhos, probs, u): (n, 4, 4) stacks rhos = u diag(probs)
    u^dagger, with the spectra and unitaries they were built from."""
    rho, probs, cols = sampler._spectral_stacks(RngStream(seed), n)
    return (
        np.ascontiguousarray(rho.transpose(2, 0, 1)),
        probs,
        np.ascontiguousarray(cols.transpose(2, 1, 0)),
    )


def spin_flip(m):
    """(sy x sy) conj(m) (sy x sy), by the signed reversal the concurrence core applies."""
    signs = measures._FLIP_SIGNS
    return signs[:, None] * np.conj(m)[..., ::-1, ::-1] * signs


class TestSpinFlip:
    """The signed row reversal _FLIP_SIGNS that stands for sigma_y (x) sigma_y."""

    def test_flip_signs_are_sigma_y_pair(self):
        sy = np.array([[0, -1j], [1j, 0]])
        expected = np.array(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
        )
        assert np.allclose(np.kron(sy, sy), expected, atol=0)
        assert np.array_equal(measures._FLIP_SIGNS[:, None] * np.eye(4)[::-1], expected)

    def test_singlet_invariant(self):
        m = singlet().matrix
        assert np.abs(spin_flip(m) - m).max() < 1e-15

    def test_product_state_flips_both_qubits(self):
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 0] = 1.0  # |00><00|
        flipped = spin_flip(qstate.DensityMatrix(zero).matrix)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0  # |11><11|
        assert np.abs(flipped - expected).max() == 0.0

    def test_maximally_mixed_invariant(self):
        rho = qstate.DensityMatrix(MIXED)
        assert np.abs(spin_flip(rho.matrix) - MIXED).max() < 1e-16

    def test_result_is_a_state(self):
        for m in random_density_batch(RngStream(31), 20):
            qstate.DensityMatrix(spin_flip(m))


class TestConcurrence:
    @pytest.mark.parametrize("f", np.linspace(0.50, 1.00, 51))
    def test_werner(self, f):
        assert measures.concurrence(werner_state(float(f))) == pytest.approx(
            2 * f - 1, abs=1e-10
        )

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 21))
    def test_pure_schmidt(self, alpha):
        expected = 2 * alpha * np.sqrt(1 - alpha**2)
        assert measures.concurrence(pure_schmidt(float(alpha))) == pytest.approx(
            expected, abs=1e-10
        )

    def test_maximally_mixed(self):
        assert measures.concurrence(qstate.DensityMatrix(MIXED)) == 0.0

    def test_matches_product_spectrum_route(self):
        rhos = random_density_batch(RngStream(32), 3000)
        ours = measures.concurrence_batch(rhos)
        reference = oracles.concurrence_product_route(rhos)
        assert np.abs(ours - reference).max() < 1e-8


class TestConcurrenceFromEig:
    """The spectral core: concurrence of u diag(p) u^dagger from (p, u)."""

    def test_matches_product_spectrum_route(self):
        rhos, probs, u = spectral_batch(38, 10_000)
        ours = measures.concurrence_from_eig(probs, u)
        assert np.abs(ours - oracles.concurrence_product_route(rhos)).max() < 1e-8
        assert np.abs(ours - measures.concurrence_batch(rhos)).max() < 1e-13

    @pytest.mark.parametrize("k", range(4))
    def test_pure_spectrum(self, k):
        # p = e_k is the pure state u[:, k], whose concurrence is |psi^T (sy x sy) psi|
        _, _, u = spectral_batch(39, 500)
        probs = np.zeros((500, 4))
        probs[:, k] = 1.0
        psi = u[:, :, k]
        expected = np.abs(np.einsum("ni,ij,nj->n", psi, oracles.SY2, psi))
        assert np.abs(measures.concurrence_from_eig(probs, u) - expected).max() < 1e-14

    def test_clips_rounding_noise(self):
        _, _, u = spectral_batch(40, 50)
        clean = np.tile([0.6, 0.4, 0.0, 0.0], (50, 1))
        noisy = clean.copy()
        noisy[:, 3] = -1e-17
        assert np.array_equal(measures.concurrence_from_eig(noisy, u), measures.concurrence_from_eig(clean, u))

    def test_rejects_negative_spectrum(self):
        _, _, u = spectral_batch(41, 3)
        probs = np.tile([0.6, 0.4, 1e-9, -1e-9], (3, 1))
        with pytest.raises(NotPSD):
            measures.concurrence_from_eig(probs, u)


class TestJacobiKernel:
    """The one-sided Jacobi singular values behind concurrence_from_eig."""

    SPECTRA = {
        "pure": (1.0, 0.0, 0.0, 0.0),
        "rank 2": (0.6, 0.4, 0.0, 0.0),
        "maximally mixed": (0.25, 0.25, 0.25, 0.25),
        "one large": (0.7, 0.1, 0.1, 0.1),
        "near pure": (1.0 - 3e-12, 1e-12, 1e-12, 1e-12),
    }

    def test_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        _, probs, u = spectral_batch(50, 4096)
        in_stack = measures.concurrence_from_eig(probs, u)
        idx = np.nonzero(in_stack > 0.0)[0][:60]
        alone = measures.concurrence_from_eig(probs[idx], u[idx])  # below the threshold
        assert len(idx) < measures._JACOBI_MIN_STACK <= len(u)
        reference = np.array([oracles.concurrence_mp(mpmath, probs[i], u[i]) for i in idx])
        assert np.abs(in_stack[idx] - reference).max() <= 1e-15
        assert np.abs(alone - reference).max() <= 1e-15

    @pytest.mark.parametrize("name", SPECTRA)
    def test_spectra_against_lapack(self, monkeypatch, name):
        u = oracles.qr_haar_unitaries(np.random.default_rng(47), 4000)
        probs = np.tile(self.SPECTRA[name], (4000, 1))
        assert len(u) >= measures._JACOBI_MIN_STACK
        lam = measures._r_spectrum(probs, u)
        with monkeypatch.context() as m:
            m.setattr(measures, "_JACOBI_MIN_STACK", np.inf)
            lapack = measures._r_spectrum(probs, u)
        assert np.abs(lam - lapack).max() <= 1e-15

    @staticmethod
    def batched_b(probs, u):
        """B = sqrt(p) u^dagger (sy x sy) conj(u) sqrt(p) by batched matrix products."""
        root = np.sqrt(probs)
        m = np.conj(u.transpose(0, 2, 1)) @ oracles.SY2 @ np.conj(u)
        return root[:, :, None] * m * root[:, None, :]

    @pytest.mark.parametrize("name", SPECTRA)
    def test_certifies_every_matrix(self, name):
        u = oracles.qr_haar_unitaries(np.random.default_rng(47), 1000)
        probs = np.tile(self.SPECTRA[name], (1000, 1))
        b = self.batched_b(probs, u)
        cols = np.ascontiguousarray(b.transpose(2, 1, 0))
        norms_sq, certified = measures._jacobi(cols)
        assert certified.all()
        lam = np.sort(np.sqrt(norms_sq).T, axis=1)[:, ::-1]
        assert np.abs(lam - np.linalg.svd(b, compute_uv=False)).max() <= 1e-15

    @pytest.mark.parametrize("name", [*SPECTRA, "sampler"])
    def test_row_products_match_batched_product(self, name):
        if name == "sampler":
            _, probs, u = spectral_batch(45, 20_000)
        else:
            u = oracles.qr_haar_unitaries(np.random.default_rng(47), 1000)
            probs = np.tile(self.SPECTRA[name], (1000, 1))
        rows = np.conj(measures._conj_b(np.sqrt(probs), u)).transpose(2, 1, 0)
        assert np.abs(rows - self.batched_b(probs, u)).max() <= 4e-16

    def test_early_exit_against_lapack(self, monkeypatch):
        # 2e5 sampler states: every one is certified, within 1e-15 of LAPACK on the same B
        worst = 0.0
        for seed in range(60, 64):
            _, probs, u = spectral_batch(seed, 50_000)
            b = measures._conj_b(np.sqrt(probs), u)
            lapack = np.linalg.svd(b.transpose(2, 1, 0), compute_uv=False)
            norms_sq, certified = measures._jacobi(b.copy())
            assert certified.all()
            lam = np.sort(np.sqrt(norms_sq).T, axis=1)[:, ::-1]
            worst = max(worst, float(np.abs(lam - lapack).max()))
        assert worst <= 1e-15
        # a matrix certified by four sweeps left the stack there: a fifth
        # sweep would have moved its norms' last bits
        monkeypatch.setattr(measures, "_JACOBI_SWEEPS", 4)
        four, early = measures._jacobi(b)
        assert 0.5 < early.mean() < 1.0
        assert np.array_equal(four[:, early], norms_sq[:, early])

    def test_forced_fallback_is_lapack(self, monkeypatch):
        _, probs, u = spectral_batch(51, 2000)
        with monkeypatch.context() as m:
            m.setattr(measures, "_JACOBI_MIN_STACK", np.inf)
            lapack = measures.concurrence_from_eig(probs, u)
        # the kernel's values differ from LAPACK's in the last bits ...
        assert not np.array_equal(measures.concurrence_from_eig(probs, u), lapack)
        # ... so equality shows that every matrix fell back: one sweep certifies none
        monkeypatch.setattr(measures, "_JACOBI_SWEEPS", 1)
        assert np.array_equal(measures.concurrence_from_eig(probs, u), lapack)

    def test_single_state_matches_stack(self):
        _, probs, u = spectral_batch(49, 4096)
        in_stack = measures.concurrence_from_eig(probs, u)
        alone = [measures.concurrence_from_eig(probs[i : i + 1], u[i : i + 1])[0] for i in range(512)]
        assert np.abs(in_stack[:512] - alone).max() <= 1e-15


def pt_entry_stack(ms):
    """The partial transposes of a (n, 4, 4) stack as the (4, 4, n) entry stack
    that _pt_min takes."""
    return np.ascontiguousarray(cmat.partial_transpose_b(ms).transpose(1, 2, 0))


def lapack_pt_min(ms):
    return np.linalg.eigvalsh(cmat.partial_transpose_b(ms))[:, 0]


class TestPtMinKernel:
    """The characteristic-polynomial kernel behind the smallest PT eigenvalue."""

    @staticmethod
    def special_states():
        """Pure states of Schmidt coefficient 1e-1 .. 1e-6 in random product
        bases, Werner states on either side of the EPS_SEP boundary, the singlet."""
        rng = np.random.default_rng(52)
        ua, ub = (oracles.qr_haar_unitaries(rng, 6, 2) for _ in range(2))
        states = []
        for k, (a, b) in enumerate(zip(ua, ub), start=1):
            alpha = 10.0**-k
            psi = np.kron(a, b) @ np.array([alpha, 0.0, 0.0, np.sqrt(1.0 - alpha**2)])
            states.append(np.outer(psi, np.conj(psi)))
        fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3))
        states += [werner_state(f).matrix for f in fs] + [singlet().matrix]
        return np.stack(states)

    def test_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rhos = random_density_batch(RngStream(53), 4096)
        special = self.special_states()
        ms = np.concatenate([rhos, special])
        pt = pt_entry_stack(ms)
        entangled = np.nonzero(lapack_pt_min(rhos) < -measures.EPS_SEP)[0][:60]
        idx = np.concatenate([entangled, len(rhos) + np.arange(len(special))])
        in_stack = measures._pt_min(pt)
        alone = measures._pt_min(np.ascontiguousarray(pt[:, :, idx]))  # below the threshold
        assert len(idx) < measures._PT_MIN_STACK <= pt.shape[-1]
        reference = np.array(
            [oracles.eigvalsh_min_mp(mpmath, cmat.partial_transpose_b(ms[i])) for i in idx]
        )
        assert np.abs(in_stack[idx] - reference).max() <= 1e-15
        assert np.abs(alone - reference).max() <= 1e-15
        # Schmidt coefficients <= 1e-2 put three PT eigenvalues within alpha of
        # zero, so |p'| is tiny and the certificate must refuse them; it accepts
        # the Werner states and the singlet, whose root is Gershgorin's bound
        _, certified = measures._laguerre_min(pt, measures._hermitian_det(pt.transpose(2, 0, 1)))
        assert certified[entangled].all()
        assert not certified[len(rhos) + 1 : len(rhos) + 6].any()
        assert certified[len(rhos) + 6 :].all()
        assert in_stack[-1] == reference[-1] == -0.5

    def test_against_lapack(self):
        worst = 0.0
        for seed in range(54, 58):
            rhos = random_density_batch(RngStream(seed), 50_000)
            diff = measures._pt_min(pt_entry_stack(rhos)) - lapack_pt_min(rhos)
            worst = max(worst, float(np.abs(diff).max()))
        assert worst <= 1e-15

    def test_forced_fallback_is_lapack(self, monkeypatch):
        rhos = random_density_batch(RngStream(58), 2000)
        pt = pt_entry_stack(rhos)
        lapack = lapack_pt_min(rhos)
        # the kernel's values differ from LAPACK's in the last bits ...
        assert not np.array_equal(measures._pt_min(pt), lapack)
        # ... so equality shows that every matrix fell back: a zero tolerance certifies none
        monkeypatch.setattr(measures, "_PT_TOL", 0.0)
        assert np.array_equal(measures._pt_min(pt), lapack)

    @pytest.mark.parametrize("triangle", [np.triu, np.tril])
    def test_hermitian_within_tolerance(self, triangle):
        # noise on one triangle leaves a defect just inside TOL.hermiticity;
        # the kernel reads the lower triangle, as eigvalsh does
        rng = np.random.default_rng(60)
        rhos = random_density_batch(RngStream(60), 4000)
        noise = 1e-11 * (rng.standard_normal(rhos.shape) + 1j * rng.standard_normal(rhos.shape))
        offset = 1 if triangle is np.triu else -1
        noisy = rhos + triangle(noise.transpose(1, 2, 0), offset).transpose(2, 0, 1)
        assert 1e-11 < cmat.hermiticity_defect(noisy) <= cmat.TOL.hermiticity
        diff = measures._pt_min(pt_entry_stack(noisy)) - lapack_pt_min(noisy)
        assert np.abs(diff).max() <= 1e-15

    def test_single_state_matches_stack(self):
        pt = pt_entry_stack(random_density_batch(RngStream(59), 4096))
        in_stack = measures._pt_min(pt)
        alone = [measures._pt_min(pt[:, :, i : i + 1])[0] for i in range(512)]
        assert np.abs(in_stack[:512] - alone).max() <= 1e-15


class TestNonFiniteInput:
    """NaN and infinite entries end in a library error, not in LAPACK."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_measure_table(self, value):
        ms = np.tile(MIXED, (3, 1, 1)).astype(complex)
        ms[1, 0, 1] = value
        with pytest.raises(NotHermitian):
            measures.measure_table(ms)

    def test_all_nan_stack(self):
        with pytest.raises(NotHermitian):
            measures.measure_table(np.full((1, 4, 4), np.nan))

    def test_concurrence_from_nan_spectrum(self):
        _, probs, u = spectral_batch(42, 3)
        probs[1, 2] = np.nan
        with pytest.raises(NotPSD):
            measures.concurrence_from_eig(probs, u)


class TestRawStacks:
    """The stack entry points return a value or raise a library error, never a
    numpy LinAlgError, whatever (n, 4, 4) complex stack they get."""

    @staticmethod
    def value_or_library_error(ms):
        for fn in (measures.measure_table, measures.concurrence_batch, cmat.psd_sqrt):
            try:
                with np.errstate(all="ignore"):
                    fn(ms)
            except EntanglementLabError:
                pass

    @given(raw_stacks())
    @settings(max_examples=400, deadline=None)
    def test_value_or_library_error(self, ms):
        self.value_or_library_error(ms)

    @given(raw_stacks())
    @settings(max_examples=400, deadline=None)
    def test_value_or_library_error_through_the_kernel(self, ms):
        # with the size threshold at 1 every stack takes the polynomial kernel,
        # which must certify no wrong value and, unlike the LAPACK routines
        # above, runs without a numpy error state around it
        with mock.patch.object(measures, "_PT_MIN_STACK", 1):
            self.value_or_library_error(ms)
            try:
                cmat._require_hermitian(ms)
                lam = measures._pt_min(pt_entry_stack(ms))
                reference = cmat._lapack(np.linalg.eigvalsh, cmat.partial_transpose_b(ms))[:, 0]
            except EntanglementLabError:
                return
        # a certified value is within 1e-15 of the exact one, LAPACK's within a
        # few u ||rho^Gamma||; any other matrix fell back to LAPACK
        with np.errstate(all="ignore"):
            scale = np.abs(ms).sum(axis=-1).max(axis=-1) if len(ms) else 0.0
            close = np.abs(lam - reference) <= 1e-15 + 1e-15 * scale
        assert np.all(close | (lam == reference) | (np.isnan(lam) & np.isnan(reference)))

    def test_eigensolver_failure_is_a_library_error(self):
        # finite and Hermitian, but LAPACK's eigh does not converge on it
        ms = np.zeros((1, 4, 4), dtype=complex)
        ms[0, 0, 1], ms[0, 1, 2], ms[0, 2, 3] = 5e299j, 1j, 1j
        ms += np.conj(ms.transpose(0, 2, 1))
        for fn in (measures.measure_table, measures.concurrence_batch, cmat.psd_sqrt):
            with pytest.raises(NotConverged):
                fn(ms)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert measures._binary_entropy_arr(np.array([0.5]))[0] == 1.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_endpoints(self, x):
        assert measures._binary_entropy_arr(np.array([x]))[0] == 0.0

    def test_reference_value(self):
        # frozen from a 40-digit evaluation of the defining formula
        assert measures._binary_entropy_arr(np.array([0.933013]))[0] == pytest.approx(
            0.3545777698733827, abs=1e-12
        )

    def test_clamps_within_slack(self):
        h = measures._binary_entropy_arr(np.array([-1e-13, 1 + 1e-13]))
        assert np.array_equal(h, [0.0, 0.0])

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, x):
        h, h_mirror = measures._binary_entropy_arr(np.array([x, 1.0 - x]))
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(h_mirror, abs=1e-12)


class TestFormationFromConcurrence:
    def test_endpoints(self):
        ef = measures.ef_from_concurrence_batch(np.array([0.0, 1.0]))
        assert np.array_equal(ef, [0.0, 1.0])

    def test_half_concurrence(self):
        # equals the Werner F = 3/4 value h(1/2 + sqrt(3)/4)
        assert measures.ef_from_concurrence_batch(np.array([0.5]))[0] == pytest.approx(
            0.35457890266526988, abs=1e-14
        )

    def test_strictly_increasing(self):
        values = measures.ef_from_concurrence_batch(np.linspace(0.0, 1.0, 401))
        assert np.all(np.diff(values) > 0)


class TestScalarMatchesArrayFormula:
    """A one-element call returns the element of the whole-grid call, bit for bit."""

    GRID = np.linspace(0.0, 1.0, 10_000)

    @staticmethod
    def one_at_a_time(fn, grid):
        return np.array([fn(np.array([x]))[0] for x in grid])

    def test_formation_from_concurrence(self):
        batch = measures.ef_from_concurrence_batch(self.GRID)
        scalar = self.one_at_a_time(measures.ef_from_concurrence_batch, self.GRID)
        assert np.array_equal(scalar, batch)

    def test_binary_entropy(self):
        batch = measures._binary_entropy_arr(self.GRID)
        scalar = self.one_at_a_time(measures._binary_entropy_arr, self.GRID)
        assert np.array_equal(scalar, batch)


class TestFormation:
    def test_singlet(self):
        assert measures.e_formation(singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_separability_boundary(self):
        assert measures.e_formation(werner_state(0.5)) == pytest.approx(0.0, abs=1e-10)

    def test_balanced_pure(self):
        assert measures.e_formation(pure_schmidt(1 / np.sqrt(2))) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("f", np.linspace(0.50, 1.00, 51))
    def test_werner_closed_form(self, f):
        mu = 0.5 + np.sqrt(f * (1 - f))
        expected = 0.0 if mu >= 1.0 else -(
            mu * np.log2(mu) + (1 - mu) * np.log2(1 - mu)
        )
        assert measures.e_formation(werner_state(float(f))) == pytest.approx(
            expected, abs=1e-10
        )


class TestNegativity:
    @pytest.mark.parametrize("f", np.linspace(0.50, 1.00, 51))
    def test_werner(self, f):
        assert measures.e_negative(werner_state(float(f))) == pytest.approx(
            f - 0.5, abs=1e-10
        )

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 21))
    def test_pure_schmidt(self, alpha):
        expected = alpha * np.sqrt(1 - alpha**2)
        assert measures.e_negative(pure_schmidt(float(alpha))) == pytest.approx(
            expected, abs=1e-10
        )

    def test_maximally_mixed(self):
        assert measures.e_negative(qstate.DensityMatrix(MIXED)) == 0.0


class TestSumMeasure:
    @pytest.mark.parametrize("f", [0.25, 0.3, 0.4, 0.5])
    def test_separable_werner(self, f):
        assert measures.e_sum(werner_state(f)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state(self):
        m = np.zeros((4, 4))
        m[1, 1] = 1.0  # |01><01|
        assert measures.e_sum(qstate.DensityMatrix(m)) == 0.0

    def test_singlet(self):
        # PT spectrum {1/2, 1/2, 1/2, -1/2} gives 3/2 + 1/2 - 1 = 1
        assert measures.e_sum(singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_werner_075_twice_negativity(self):
        rho = werner_state(0.75)
        assert measures.e_sum(rho) == pytest.approx(0.5, abs=1e-12)
        assert measures.e_sum(rho) == pytest.approx(2 * measures.e_negative(rho), abs=1e-12)

    def test_single_negative_pt_eigenvalue_on_random_states(self):
        # at most one PT eigenvalue can be negative, so e_sum = 2 e_negative
        rhos = random_density_batch(RngStream(33), 5000)
        pt_w, _ = cmat.hermitian_eig(cmat.partial_transpose_b(rhos))
        assert np.all(pt_w[:, 1] > 0)
        table = measures.measure_table(rhos)
        assert np.abs(table["e_sum"] - 2 * table["e_negative"]).max() < 1e-12


class TestLinearEntropy:
    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 11))
    def test_pure_states_vanish(self, alpha):
        assert measures.linear_entropy(pure_schmidt(float(alpha))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed(self):
        assert measures.linear_entropy(qstate.DensityMatrix(MIXED)) == pytest.approx(
            0.75, abs=1e-15
        )

    @pytest.mark.parametrize("f", np.linspace(0.25, 1.0, 16))
    def test_werner_spectrum_formula(self, f):
        expected = 1 - f**2 - (1 - f) ** 2 / 3
        assert measures.linear_entropy(werner_state(float(f))) == pytest.approx(
            expected, abs=1e-12
        )


class TestSeparability:
    def test_werner_04_separable(self):
        assert measures.is_separable(werner_state(0.4))

    def test_singlet_entangled(self):
        assert not measures.is_separable(singlet())

    def test_product_state_separable(self):
        m = np.zeros((4, 4))
        m[1, 1] = 1.0
        assert measures.is_separable(qstate.DensityMatrix(m))

    def test_three_way_consistency_on_random_states(self):
        table = measures.measure_table(random_density_batch(RngStream(34), 10_000))
        sep = table["separable"]
        assert np.array_equal(sep, table["e_negative"] <= measures.EPS_SEP)
        assert np.array_equal(sep, table["e_sum"] <= 4 * measures.EPS_SEP)


class TestMeasureReport:
    def test_singlet(self):
        r = measures.measure_report(singlet())
        assert r.concurrence == pytest.approx(1.0, abs=1e-12)
        assert r.e_formation == pytest.approx(1.0, abs=1e-12)
        assert r.e_negative == pytest.approx(0.5, abs=1e-12)
        assert r.e_sum == pytest.approx(1.0, abs=1e-12)
        assert r.linear_entropy == pytest.approx(0.0, abs=1e-12)
        assert not r.separable

    def test_maximally_mixed(self):
        r = measures.measure_report(qstate.DensityMatrix(MIXED))
        assert r.concurrence == 0.0
        assert r.e_formation == 0.0
        assert r.e_negative == 0.0
        assert r.e_sum == pytest.approx(0.0, abs=1e-15)
        assert r.linear_entropy == pytest.approx(0.75, abs=1e-15)
        assert r.separable

    def test_werner_075(self):
        r = measures.measure_report(werner_state(0.75))
        assert r.concurrence == pytest.approx(0.5, abs=1e-12)
        assert r.e_negative == pytest.approx(0.25, abs=1e-12)
        assert r.e_formation == pytest.approx(0.35457890266526988, abs=1e-10)
        assert not r.separable

    def test_matches_scalar_functions(self):
        # at draw 6377, E_F through math.log2 differs from the table's
        # np.log2 value in the last bit
        draws = random_density_batch(RngStream(35), 6378)
        for m in [*draws[:10], draws[6377]]:
            rho = qstate.DensityMatrix(m)
            r = measures.measure_report(rho)
            assert r.concurrence == measures.concurrence(rho)
            assert r.e_formation == measures.e_formation(rho)
            assert r.e_negative == measures.e_negative(rho)
            assert r.e_sum == measures.e_sum(rho)
            assert r.linear_entropy == measures.linear_entropy(rho)
            assert r.separable == measures.is_separable(rho)

    def test_equals_its_table_row(self, monkeypatch):
        # measure_report skips the Hermiticity check that measure_table makes;
        # with LAPACK for every stack size, each report is a table row bit for bit
        fs = (0.25, 0.5, 0.5 + 1e-10, 0.75, 1.0)
        alphas = (0.0, 0.6, 1 / np.sqrt(2))
        states = [qstate.DensityMatrix(m) for m in random_density_batch(RngStream(39), 500)]
        states += [werner_state(f) for f in fs] + [pure_schmidt(a) for a in alphas] + [singlet()]
        monkeypatch.setattr(measures, "_JACOBI_MIN_STACK", np.inf)
        monkeypatch.setattr(measures, "_PT_MIN_STACK", np.inf)
        table = measures.measure_table(np.stack([rho.matrix for rho in states]))
        for k, rho in enumerate(states):
            row = measures.MeasureReport(**{name: col[k].item() for name, col in table.items()})
            assert repr(measures.measure_report(rho)) == repr(row)  # repr tells -0.0 from 0.0

    def test_csv_row(self):
        (row,) = measures.table_csv_rows(measures.measure_table(MIXED[None]))
        fields = row.split(",")
        assert len(fields) == 6
        assert fields[-1] == "true"
        assert float(fields[4]) == pytest.approx(0.75)
        table = measures.measure_table(np.stack([singlet().matrix, MIXED]))
        names = measures.REPORT_CSV_HEADER.split(",")[:-1]
        for k, row in enumerate(measures.table_csv_rows(table)):
            assert row.split(",") == [f"{table[name][k]:.17g}" for name in names] + ["false", "true"][k:k + 1]

    @pytest.mark.parametrize("n", [1, 300])
    def test_product_state_has_no_negative_zero(self, n):
        # lambda_min of the PT of |00><00| is exactly 0.0, on the LAPACK
        # route (1 state) and the kernel route (300)
        m = np.zeros((n, 4, 4))
        m[:, 0, 0] = 1.0
        table = measures.measure_table(m)
        for name in ("concurrence", "e_formation", "e_negative", "e_sum", "linear_entropy"):
            assert not np.signbit(table[name]).any(), name
        assert set(measures.table_csv_rows(table)) == {"0,0,0,0,0,true"}


class TestPureStateConnection:
    def test_concurrence_is_twice_negativity(self):
        rng = np.random.default_rng(36)
        pures = oracles.projectors(oracles.haar_kets(rng, 10_000))
        table = measures.measure_table(pures)
        assert np.abs(table["concurrence"] - 2 * table["e_negative"]).max() < 1e-9


class TestOrderingBound:
    def test_concurrence_dominates_twice_negativity(self):
        rhos = random_density_batch(RngStream(37), 10_000)
        table = measures.measure_table(rhos)
        assert np.all(table["concurrence"] >= 2 * table["e_negative"] - 1e-9)


class TestConcurrenceNegativityRegion:
    """sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C with N = 2 E_N, within 1e-12,
    on stacks that take the kernels."""

    def test_sampler_stack(self):
        table = measures.measure_table(random_density_batch(RngStream(61), 20_000))
        assert selftest.cn_region_excess(table) <= 1e-12

    def test_near_pure_states(self):
        rng = np.random.default_rng(62)
        n = 4000
        pures = oracles.projectors(oracles.haar_kets(rng, n))
        eps = np.logspace(-15, -1, n)[:, None, None]
        for ms in (pures, (1.0 - eps) * pures + eps * random_density_batch(RngStream(63), n)):
            table = measures.measure_table(ms)
            assert selftest.cn_region_excess(table) <= 1e-12

    def test_werner_line(self):
        table = measures.measure_table(qstate.werner_stack(np.linspace(0.25, 1.0, 3001)))
        assert selftest.cn_region_excess(table) <= 1e-12

    def test_excess_measures_both_bounds(self):
        # (C, N) = (0.5, 0.6) lies above N <= C, (0.5, 0.2) below the lower
        # bound sqrt(0.5) - 0.5 = 0.2071...
        for c, e_n, excess in ((0.5, 0.3, 0.1), (0.5, 0.1, np.sqrt(0.5) - 0.7), (0.5, 0.15, 0.0)):
            table = {"concurrence": np.array([c]), "e_negative": np.array([e_n])}
            assert selftest.cn_region_excess(table) == pytest.approx(excess, abs=1e-15)
