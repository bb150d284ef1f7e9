import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import any_arrays, raw_stacks
from entlab import cmat, experiment, measures, qstate, sampler, selftest
from entlab.errors import EntanglementLabError, NotConverged, NotHermitian, NotPSD, ParameterOutOfRange
from entlab.qstate import pure_schmidt, singlet, werner_state
from entlab.sampler import RngStream, random_density_batch

MIXED = np.eye(4) / 4


def concurrence_of(ms):
    """Concurrence of each matrix of a (..., 4, 4) stack, from one checked
    eigendecomposition."""
    return measures.concurrence_from_eig(*cmat.hermitian_eig(ms))


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
        ours = concurrence_of(rhos)
        reference = oracles.concurrence_product_route(rhos)
        assert np.abs(ours - reference).max() < 1e-8


class TestConcurrenceFromEig:
    """The spectral core: concurrence of u diag(p) u^dagger from (p, u)."""

    def test_matches_product_spectrum_route(self):
        rhos, probs, u = spectral_batch(38, 10_000)
        ours = measures.concurrence_from_eig(probs, u)
        assert np.abs(ours - oracles.concurrence_product_route(rhos)).max() < 1e-8
        assert np.abs(ours - concurrence_of(rhos)).max() < 1e-13

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
    """The characteristic-polynomial kernel behind concurrence_from_eig, which
    replaced a one-sided Jacobi kernel whose name the class keeps."""

    SPECTRA = {
        "pure": (1.0, 0.0, 0.0, 0.0),
        "rank 2": (0.6, 0.4, 0.0, 0.0),
        "maximally mixed": (0.25, 0.25, 0.25, 0.25),
        "one large": (0.7, 0.1, 0.1, 0.1),
        "near pure": (1.0 - 3e-12, 1e-12, 1e-12, 1e-12),
    }

    @staticmethod
    def kernel(probs, u):
        """(concurrences, certified mask) of the kernel alone."""
        with np.errstate(all="ignore"):
            return measures._laguerre_concurrence(np.ascontiguousarray(probs.T), measures._conj_w(u))

    def test_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        _, probs, u = spectral_batch(50, 4096)
        in_stack = measures.concurrence_from_eig(probs, u)
        idx = np.nonzero(in_stack > 0.0)[0][:60]
        alone = measures.concurrence_from_eig(probs[idx], u[idx])  # below the threshold
        assert len(idx) < measures._C_MIN_STACK <= len(u)
        reference = np.array([oracles.concurrence_mp(mpmath, probs[i], u[i]) for i in idx])
        assert np.abs(in_stack[idx] - reference).max() <= 1e-15
        assert np.abs(alone - reference).max() <= 1e-15

    @pytest.mark.parametrize("name", SPECTRA)
    def test_spectra_against_lapack(self, monkeypatch, name):
        u = oracles.qr_haar_unitaries(np.random.default_rng(47), 4000)
        probs = np.tile(self.SPECTRA[name], (4000, 1))
        assert len(u) >= measures._C_MIN_STACK
        c = measures.concurrence_from_eig(probs, u)
        with monkeypatch.context() as m:
            m.setattr(measures, "_C_MIN_STACK", np.inf)
            lapack = measures.concurrence_from_eig(probs, u)
        assert np.abs(c - lapack).max() <= 1e-15

    @staticmethod
    def batched_b(probs, u):
        """B = sqrt(p) u^dagger (sy x sy) conj(u) sqrt(p) by batched matrix products."""
        root = np.sqrt(probs)
        m = np.conj(u.transpose(0, 2, 1)) @ oracles.SY2 @ np.conj(u)
        return root[:, :, None] * m * root[:, None, :]

    @pytest.mark.parametrize("name", SPECTRA)
    def test_certified_values_match_svd(self, name):
        # pure and rank-2 states fail the cancellation test, so the kernel
        # refuses them all; what it certifies is within 1e-15 of LAPACK's SVD
        u = oracles.qr_haar_unitaries(np.random.default_rng(47), 1000)
        probs = np.tile(self.SPECTRA[name], (1000, 1))
        c, certified = self.kernel(probs, u)
        assert certified.any() != (name in ("pure", "rank 2"))
        lam = np.linalg.svd(self.batched_b(probs, u), compute_uv=False)
        svd = np.maximum(0.0, lam[:, 0] - lam[:, 1:].sum(axis=1))
        assert np.abs(c - svd)[certified].max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("name", [*SPECTRA, "sampler"])
    def test_row_products_match_batched_product(self, name):
        if name == "sampler":
            _, probs, u = spectral_batch(45, 20_000)
        else:
            u = oracles.qr_haar_unitaries(np.random.default_rng(47), 1000)
            probs = np.tile(self.SPECTRA[name], (1000, 1))
        root = np.sqrt(probs)
        rows = root[:, :, None] * np.conj(measures._conj_w(u)).transpose(2, 0, 1) * root[:, None, :]
        assert np.abs(rows - self.batched_b(probs, u)).max() <= 4e-16

    def test_refusal_rate_against_lapack(self):
        # 2e5 sampler states: at least 99% of the entangled ones certified,
        # every certified value within 1e-15 of LAPACK's SVD
        worst, entangled, refused = 0.0, 0, 0
        for seed in range(60, 64):
            _, probs, u = spectral_batch(seed, 50_000)
            c, certified = self.kernel(probs, u)
            lapack = measures._lapack_concurrence(probs, u)
            worst = max(worst, float(np.abs(c - lapack)[certified].max()))
            entangled += int(np.count_nonzero(lapack > 0.0))
            refused += int(np.count_nonzero((lapack > 0.0) & ~certified))
        assert worst <= 1e-15
        assert refused <= 0.01 * entangled

    def test_forced_fallback_is_lapack(self, monkeypatch):
        _, probs, u = spectral_batch(51, 2000)
        with monkeypatch.context() as m:
            m.setattr(measures, "_C_MIN_STACK", np.inf)
            lapack = measures.concurrence_from_eig(probs, u)
        # the kernel's values differ from LAPACK's in the last bits ...
        assert not np.array_equal(measures.concurrence_from_eig(probs, u), lapack)
        # ... so equality shows that every matrix fell back: a zero
        # cancellation factor certifies none
        monkeypatch.setattr(measures, "_C_CANCEL", 0.0)
        assert np.array_equal(measures.concurrence_from_eig(probs, u), lapack)

    @pytest.mark.parametrize("entry", [(0, 2), (0, 3)])
    def test_tiny_off_diagonal_state_through_the_kernel(self, monkeypatch, entry):
        # a valid rank-deficient state with off-diagonal entries of 5e-88 (on
        # which the Jacobi kernel overflowed) among 299 sampler states: no
        # RuntimeWarning, and the kernel route stays within 1e-15 of LAPACK's
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[entry] = rho[entry[::-1]] = 5e-88
        ms = np.concatenate([random_density_batch(RngStream(5), 299), rho[None]])  # measure_table checks it
        monkeypatch.setattr(measures, "_C_MIN_STACK", 1)
        c = measures.measure_table(ms)["concurrence"]
        monkeypatch.setattr(measures, "_C_MIN_STACK", np.inf)
        assert np.abs(c - measures.measure_table(ms)["concurrence"]).max() <= 1e-15

    def test_single_state_matches_stack(self):
        _, probs, u = spectral_batch(49, 4096)
        in_stack = measures.concurrence_from_eig(probs, u)
        alone = [measures.concurrence_from_eig(probs[i : i + 1], u[i : i + 1])[0] for i in range(512)]
        assert np.abs(in_stack[:512] - alone).max() <= 1e-15


def pt_entry_stack(ms):
    """The partial transposes of a (n, 4, 4) stack as the (4, 4, n) entry stack
    that _pt_min takes."""
    return np.ascontiguousarray(cmat.partial_transpose_b(ms).transpose(1, 2, 0))


def pt_min_of(pt):
    """_pt_min of a (4, 4, n) entry stack, with the determinants it takes
    (formed under an error state, as the kernel runs)."""
    with np.errstate(all="ignore"):
        det = measures._hermitian_det(pt)
    return measures._pt_min(pt, det)


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
        in_stack = pt_min_of(pt)
        alone = pt_min_of(np.ascontiguousarray(pt[:, :, idx]))  # below the threshold
        assert len(idx) < measures._PT_MIN_STACK <= pt.shape[-1]
        reference = np.array(
            [oracles.eigvalsh_min_mp(mpmath, cmat.partial_transpose_b(ms[i])) for i in idx]
        )
        assert np.abs(in_stack[idx] - reference).max() <= 1e-15
        assert np.abs(alone - reference).max() <= 1e-15
        # Schmidt coefficients <= 1e-2 put three PT eigenvalues within alpha of
        # zero, so |p'| is tiny and the certificate must refuse them; it accepts
        # the Werner states and the singlet, whose root is Gershgorin's bound
        _, certified = measures._laguerre_min(pt, measures._hermitian_det(pt))
        assert certified[entangled].all()
        assert not certified[len(rhos) + 1 : len(rhos) + 6].any()
        assert certified[len(rhos) + 6 :].all()
        assert in_stack[-1] == reference[-1] == -0.5

    def test_against_lapack(self):
        worst = 0.0
        for seed in range(54, 58):
            rhos = random_density_batch(RngStream(seed), 50_000)
            diff = pt_min_of(pt_entry_stack(rhos)) - lapack_pt_min(rhos)
            worst = max(worst, float(np.abs(diff).max()))
        assert worst <= 1e-15

    def test_refuses_a_triple_root(self):
        # every entry 1e-12: the PT is the matrix itself, with eigenvalues
        # 4e-12, 0, 0, 0, where Newton's first-order bound does not hold
        pt = np.full((4, 4, 1), 1e-12 + 0j)
        _, certified = measures._laguerre_min(pt, measures._hermitian_det(pt))
        assert not certified.any()

    def test_forced_fallback_is_lapack(self, monkeypatch):
        rhos = random_density_batch(RngStream(58), 2000)
        pt = pt_entry_stack(rhos)
        lapack = lapack_pt_min(rhos)
        # the kernel's values differ from LAPACK's in the last bits ...
        assert not np.array_equal(pt_min_of(pt), lapack)
        # ... so equality shows that every matrix fell back: a zero tolerance certifies none
        monkeypatch.setattr(measures, "_PT_TOL", 0.0)
        assert np.array_equal(pt_min_of(pt), lapack)

    @pytest.mark.parametrize("triangle", [np.triu, np.tril])
    def test_hermitian_within_tolerance(self, triangle):
        # noise on one triangle leaves a defect just inside TOL.hermiticity;
        # the kernel reads the lower triangle, as eigvalsh does
        rng = np.random.default_rng(60)
        rhos = random_density_batch(RngStream(60), 4000)
        noise = 1e-11 * (rng.standard_normal(rhos.shape) + 1j * rng.standard_normal(rhos.shape))
        offset = 1 if triangle is np.triu else -1
        noisy = rhos + triangle(noise.transpose(1, 2, 0), offset).transpose(2, 0, 1)
        assert 1e-11 < cmat.hermiticity_defects(noisy).max(initial=0.0) <= cmat.TOL.hermiticity
        diff = pt_min_of(pt_entry_stack(noisy)) - lapack_pt_min(noisy)
        assert np.abs(diff).max() <= 1e-15

    def test_single_state_matches_stack(self):
        pt = pt_entry_stack(random_density_batch(RngStream(59), 4096))
        in_stack = pt_min_of(pt)
        alone = [pt_min_of(pt[:, :, i : i + 1])[0] for i in range(512)]
        assert np.abs(in_stack[:512] - alone).max() <= 1e-15


@pytest.fixture(scope="module")
def shard_kernel_inputs():
    """The arguments of every call of the concurrence and PT kernels while
    shard 0 of the acceptance run (seed 20260810) is drawn: its kept and its
    screened stacks."""
    calls = {"_laguerre_concurrence": [], "_laguerre_min": []}

    def recording(name):
        kernel = getattr(measures, name)

        def recorded(*args):
            calls[name].append(args)
            return kernel(*args)

        return recorded

    with mock.patch.multiple(measures, **{name: recording(name) for name in calls}):
        experiment._run_shard(20260810, 0, np.empty(experiment.SHARD_PAIRS, dtype=experiment.PAIR_DTYPE))
    return calls


class TestSharedRootStep:
    """The kernels that share ``_laguerre_newton`` return the bits of the
    kernels that wrote their root step out each (oracles.unshared_*)."""

    PAIRS = {
        "_laguerre_concurrence": oracles.unshared_laguerre_concurrence,
        "_laguerre_min": oracles.unshared_laguerre_min,
    }

    @staticmethod
    def assert_same_bits(name, args):
        with np.errstate(all="ignore"):
            shared = getattr(measures, name)(*args)
            unshared = TestSharedRootStep.PAIRS[name](*args)
        for got, expected in zip(shared, unshared):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", PAIRS)
    def test_shard_stacks(self, shard_kernel_inputs, name):
        calls = shard_kernel_inputs[name]
        assert calls and all(args[-1].shape[-1] >= measures._C_MIN_STACK for args in calls)
        for args in calls:
            self.assert_same_bits(name, args)

    @given(raw_stacks(sizes=st.integers(0, 6), forms=("hermitian", "state")))
    @settings(max_examples=300, deadline=None)
    def test_hermitian_and_state_stacks(self, ms):
        with np.errstate(all="ignore"):
            pt = pt_entry_stack(ms)
            det = measures._hermitian_det(pt)
        self.assert_same_bits("_laguerre_min", (pt, det))
        try:
            with np.errstate(all="ignore"):
                p, u = np.linalg.eigh(ms)
        except np.linalg.LinAlgError:
            return
        self.assert_same_bits("_laguerre_concurrence", (np.ascontiguousarray(p.T), measures._conj_w(u)))


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

    @pytest.mark.parametrize("smallest", [-0.5, -np.inf, np.nan])
    def test_one_psd_message(self, smallest):
        # the spectra of the harness and of every checked stack share
        # cmat.psd_fault, so a spectrum gets one message whichever route it takes
        _, probs, u = spectral_batch(43, 3)
        probs[1, 2] = smallest
        index, expected = cmat.psd_fault(probs)
        assert index == 1 and str(expected) == f"smallest eigenvalue is {smallest:.3e}"
        with pytest.raises(NotPSD) as err:
            measures.concurrence_from_eig(probs, u)
        assert str(err.value) == str(expected)
        assert err.value.deviation == -smallest or np.isnan(smallest) and np.isnan(err.value.deviation)


class TestRawStacks:
    """The stack entry points return a value or raise a library error, never a
    numpy error, whatever (n, 4, 4) complex stack, or any other array, they get."""

    @staticmethod
    def value_or_library_error(ms):
        for fn in (measures.measure_table, concurrence_of, cmat.psd_sqrt):
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
                if fault := cmat.hermiticity_fault(ms):
                    raise fault[1]
                lam = pt_min_of(pt_entry_stack(ms))
                reference = cmat._lapack(np.linalg.eigvalsh, cmat.partial_transpose_b(ms))[:, 0]
            except EntanglementLabError:
                return
        # a certified value is within 1e-15 of the exact one, LAPACK's within a
        # few u ||rho^Gamma||; any other matrix fell back to LAPACK
        with np.errstate(all="ignore"):
            scale = np.abs(ms).sum(axis=-1).max(axis=-1) if len(ms) else 0.0
            close = np.abs(lam - reference) <= 1e-15 + 1e-15 * scale
        assert np.all(close | (lam == reference) | (np.isnan(lam) & np.isnan(reference)))

    @given(any_arrays())
    @settings(max_examples=400, deadline=None)
    def test_any_array_gives_a_value_or_a_library_error(self, a):
        # every shape and dtype, bool, str and object included: each entry
        # point refuses what is no numeric stack of the shape it takes
        numeric_stack = a.dtype.kind in "iufc" and a.ndim == 3 and a.shape[1:] == (4, 4)
        for fn in (measures.measure_table, qstate.DensityMatrix, cmat.hermitian_eig, cmat.psd_sqrt):
            try:
                with np.errstate(all="ignore"):
                    fn(a)
            except NotHermitian as exc:
                if "expected a" in str(exc):
                    assert not numeric_stack or fn is qstate.DensityMatrix
            except EntanglementLabError:
                pass

    def test_eigensolver_failure_is_a_library_error(self):
        # finite, Hermitian and of unit trace, but LAPACK's eigh does not converge on it
        ms = np.zeros((1, 4, 4), dtype=complex)
        ms[0, 0, 1], ms[0, 1, 2], ms[0, 2, 3] = 5e299j, 1j, 1j
        ms += np.conj(ms.transpose(0, 2, 1)) + 0.25 * np.eye(4)
        for fn in (measures.measure_table, concurrence_of, cmat.psd_sqrt):
            with pytest.raises(NotConverged):
                fn(ms)


def binary_entropy(x):
    """-x log2 x - (1 - x) log2(1 - x), with 0 log 0 = 0, by the textbook formula."""
    return -sum(t * np.log2(t) for t in (x, 1.0 - x) if t > 0.0)


class TestBinaryEntropy:
    """E_F is the binary entropy h of x = (1 + sqrt(1 - C^2)) / 2, or of
    1 - x, as ``ef_from_concurrence_batch`` forms it: h's properties read
    through E_F."""

    def test_half_is_one(self):
        # C = 1 gives x = 1/2
        assert measures.ef_from_concurrence_batch(np.array([1.0]))[0] == 1.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_endpoints(self, x):
        # C = 0 gives x = 1, h = 0; and E_F(C) = C at both ends
        assert measures.ef_from_concurrence_batch(np.array([x]))[0] == x

    def test_reference_value(self):
        # C = 1e-4, x = 1 - 2.5e-9, frozen from a 60-digit mpmath evaluation
        # of h; the textbook formula of x is off by about 8e-9 relative there
        assert measures.ef_from_concurrence_batch(np.array([1e-4]))[0] == pytest.approx(
            7.5045299674057645919728e-8, rel=1e-15, abs=0.0
        )

    def test_clamps_within_slack(self):
        h = measures.ef_from_concurrence_batch(np.array([-1e-13, 1 + 1e-13]))
        assert np.array_equal(h, [0.0, 1.0])

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, c):
        # h(x) = h(1 - x) to the textbook formula's rounding, and
        # 0 <= E_F <= C, since E_F is convex in C with E_F(0) = 0, E_F(1) = 1
        ef = measures.ef_from_concurrence_batch(np.array([c]))[0]
        x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
        assert 0.0 <= ef <= c
        assert ef == pytest.approx(binary_entropy(x), abs=1e-12)
        assert ef == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


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

    def test_mpmath_reference(self):
        # relative accuracy over C log-uniform on [1e-10, 1], down to where
        # the harness keeps a state (E_N > 1e-10, C > 2e-10)
        mpmath = pytest.importorskip("mpmath")
        c = np.concatenate([10.0 ** (-10.0 * RngStream(64).uniforms(2000)), [1e-10, 1.0]])
        ef = measures.ef_from_concurrence_batch(c)
        with mpmath.workdps(60):
            ys = [(1 - mpmath.sqrt(1 - mpmath.mpf(x) ** 2)) / 2 for x in c.tolist()]
            reference = np.array([float(-(y * mpmath.log(y, 2) + (1 - y) * mpmath.log(1 - y, 2))) for y in ys])
        assert np.all(np.abs(ef - reference) <= 1e-15 * reference)

    def test_nan_is_refused_and_finite_values_clipped(self):
        # a NaN would pass the clip and read as E_F = 0; the first is named
        for c, index in ((np.nan, 0), ([0.5, np.nan, 1.0, np.nan], 1)):
            message = rf"^concurrence must be a number, got nan at index {index}$"
            with pytest.raises(ParameterOutOfRange, match=message):
                measures.ef_from_concurrence_batch(c)
        ef = measures.ef_from_concurrence_batch(np.array([-0.5, -np.inf, 1.5, np.inf]))
        assert np.array_equal(ef, [0.0, 0.0, 1.0, 1.0])


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
        # weak concurrences, where E_F is the binary entropy of a tiny argument
        grid = np.logspace(-10.0, -2.0, 2000)
        batch = measures.ef_from_concurrence_batch(grid)
        scalar = self.one_at_a_time(measures.ef_from_concurrence_batch, grid)
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
        # measure_report is row 0 of a 1-stack measure_table; with LAPACK for
        # every stack size, each report is a row of the whole table bit for bit
        fs = (0.25, 0.5, 0.5 + 1e-10, 0.75, 1.0)
        alphas = (0.0, 0.6, 1 / np.sqrt(2))
        states = [qstate.DensityMatrix(m) for m in random_density_batch(RngStream(39), 500)]
        states += [werner_state(f) for f in fs] + [pure_schmidt(a) for a in alphas] + [singlet()]
        monkeypatch.setattr(measures, "_C_MIN_STACK", np.inf)
        monkeypatch.setattr(measures, "_PT_MIN_STACK", np.inf)
        table = measures.measure_table(np.stack([rho.matrix for rho in states]))
        for k, rho in enumerate(states):
            row = measures.MeasureReport(**{name: col[k].item() for name, col in table.items()})
            assert repr(measures.measure_report(rho)) == repr(row)  # repr tells -0.0 from 0.0

    @pytest.mark.parametrize("n", [1, 300])
    def test_product_state_has_no_negative_zero(self, n):
        # lambda_min of the PT of |00><00| is exactly 0.0, on the LAPACK
        # route (1 state) and the kernel route (300)
        m = np.zeros((n, 4, 4))
        m[:, 0, 0] = 1.0
        table = measures.measure_table(m)
        for name in ("concurrence", "e_formation", "e_negative", "e_sum", "linear_entropy"):
            assert not np.signbit(table[name]).any(), name


def reassembled(ms):
    """The clamped spectral pair (p, cols) of the one eigh of a (n, 4, 4)
    stack of density matrices and the (n, 4, 4) stack u diag(p) u^dagger
    that the measures assemble from it."""
    w, u = np.linalg.eigh(ms)
    p, cols = np.clip(w, 0.0, None), np.ascontiguousarray(u.transpose(2, 1, 0), dtype=complex)
    return p, cols, np.ascontiguousarray(sampler._assemble_entries(p, cols).transpose(2, 0, 1))


def stress_stacks():
    """The self-test's near-product pure states, where three PT eigenvalues
    lie near zero, and Werner states just either side of EPS_SEP and on it."""
    fs = (0.5 + 1e-10 * (1 + 1e-3), 0.5 + 1e-10 * (1 - 1e-3), 0.5 + 1e-10, 0.5)
    return {"near-product": selftest._near_product_pures(), "Werner": qstate.werner_stack(fs)}


class TestSpectralRoute:
    """Every state is measured from its checked spectral pair, through one
    screened route."""

    @staticmethod
    def assert_screen_keeps_the_entangled(ms):
        # no state that eigvalsh of the reassembled PT calls entangled is dropped
        _, _, rho = reassembled(ms)
        screened = measures._pt_screen(np.ascontiguousarray(rho.transpose(1, 2, 0)))[0]
        lam = np.linalg.eigvalsh(cmat.partial_transpose_b(rho))[:, 0]
        assert np.isin(np.nonzero(lam < -measures.EPS_SEP)[0], screened).all()

    @pytest.mark.parametrize("name", ["near-product", "Werner"])
    def test_screen_on_stress_stacks(self, name):
        self.assert_screen_keeps_the_entangled(stress_stacks()[name])

    @given(raw_stacks(sizes=st.integers(1, 6), forms=("state",)))
    @settings(max_examples=300, deadline=None)
    def test_screen_on_checked_hypothesis_stacks(self, ms):
        try:
            with np.errstate(all="ignore"):
                qstate._checked_eig(ms)
        except EntanglementLabError:
            return
        self.assert_screen_keeps_the_entangled(ms)

    @pytest.mark.parametrize("name", ["sampler", "near-product", "Werner"])
    def test_table_is_that_of_the_reassembled_state(self, name):
        ms = random_density_batch(RngStream(78), 3000) if name == "sampler" else stress_stacks()[name]
        table = measures.measure_table(ms)
        p, cols, rho = reassembled(ms)
        lam = np.linalg.eigvalsh(cmat.partial_transpose_b(rho))[:, 0]
        c = measures.concurrence_from_eig(p, cols.transpose(2, 1, 0))
        expected = {
            "concurrence": c,
            "e_formation": measures.ef_from_concurrence_batch(c),
            "e_negative": np.maximum(0.0, -lam),
            "e_sum": np.maximum(0.0, -2.0 * lam),
            "linear_entropy": 1.0 - np.einsum("nij,nji->n", rho, rho).real,
        }
        for column, values in expected.items():
            assert np.abs(table[column] - values).max() <= 1e-14, column
        assert np.array_equal(table["separable"], lam >= -measures.EPS_SEP)
        assert table["concurrence"].tobytes() == c.tobytes()

    def test_blocks_equal_the_whole_stack(self):
        # a state's bits depend on its stack only through the 256-matrix
        # cutoff, also past 16384 states, where the kernels' (m,) temporaries
        # reach the 256 KiB at which numpy computes into an unnamed one in place
        ms = random_density_batch(RngStream(77), 40_000)
        whole, starts = measures.measure_table(ms), range(0, 40_000, 5000)
        blocks = [measures.measure_table(ms[i : i + 5000]) for i in starts]
        for name, column in whole.items():
            assert column.tobytes() == np.concatenate([block[name] for block in blocks]).tobytes(), name
        _, probs, u = spectral_batch(77, 40_000)
        c = np.concatenate([measures.concurrence_from_eig(probs[i : i + 5000], u[i : i + 5000]) for i in starts])
        assert measures.concurrence_from_eig(probs, u).tobytes() == c.tobytes()

    def test_large_stack_is_measured_in_parts(self, monkeypatch):
        # 2 B + 1 states: two parts, of B and B + 1 states, with the bits of
        # the whole stack in one piece
        block = measures._TABLE_BLOCK
        _, probs, cols = sampler._spectral_stacks(RngStream(79), 2 * block + 1)
        probs = np.clip(probs, 0.0, None)
        whole = measures._spectral_table(probs, cols)
        sizes, spectral_table = [], measures._spectral_table

        def recorded(p, cols):
            sizes.append(len(p))
            return spectral_table(p, cols)

        monkeypatch.setattr(measures, "_spectral_table", recorded)
        parts = measures._table_from_eig(probs, cols.transpose(2, 1, 0))
        assert sizes == [block, block + 1]
        for name, column in whole.items():
            assert parts[name].tobytes() == column.tobytes(), name

    def test_rho_is_freed_before_the_pt_kernel(self, monkeypatch):
        # the assembled entry stack dies when _pt_screen returns its
        # screened PT entries, before _pt_min runs on them
        refs, alive = [], []
        assemble, pt_min = sampler._assemble_entries, measures._pt_min

        def assembled(probs, cols):
            rho = assemble(probs, cols)
            refs.append(weakref.ref(rho))
            return rho

        def checked(pt, det):
            alive.append(refs[-1]() is not None)
            return pt_min(pt, det)

        monkeypatch.setattr(sampler, "_assemble_entries", assembled)
        monkeypatch.setattr(measures, "_pt_min", checked)
        _, probs, cols = sampler._spectral_stacks(RngStream(80), 2000)
        measures._spectral_table(probs, cols)
        assert alive == [False]

    def test_report_does_not_recheck_a_built_state(self, monkeypatch):
        rho, calls = werner_state(0.75), []
        fault = cmat.hermiticity_fault
        monkeypatch.setattr(cmat, "hermiticity_fault", lambda m: calls.append(m) or fault(m))
        report = measures.measure_report(rho)
        assert calls == [] and not report.separable


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

    @staticmethod
    def excess_if_valid(ms):
        """Region excess of a stack that validates as states, else 0.0."""
        try:
            qstate._checked_eig(ms)
        except EntanglementLabError:
            return 0.0
        return selftest.cn_region_excess(measures.measure_table(ms))

    @given(raw_stacks(forms=("state",)))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_states(self, ms):
        # extreme Gram matrices over their trace, on the LAPACK routes
        assert self.excess_if_valid(ms) <= 1e-12

    @given(raw_stacks(forms=("state",)))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_states_through_the_kernel(self, ms):
        # with the size thresholds at 1 the PT and concurrence kernels take every stack
        with mock.patch.object(measures, "_PT_MIN_STACK", 1), mock.patch.object(measures, "_C_MIN_STACK", 1):
            assert self.excess_if_valid(ms) <= 1e-12

    def test_excess_measures_both_bounds(self):
        # (C, N) = (0.5, 0.6) lies above N <= C, (0.5, 0.2) below the lower
        # bound sqrt(0.5) - 0.5 = 0.2071...
        for c, e_n, excess in ((0.5, 0.3, 0.1), (0.5, 0.1, np.sqrt(0.5) - 0.7), (0.5, 0.15, 0.0)):
            table = {"concurrence": np.array([c]), "e_negative": np.array([e_n])}
            assert selftest.cn_region_excess(table) == pytest.approx(excess, abs=1e-15)
