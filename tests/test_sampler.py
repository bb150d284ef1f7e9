import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entlab import cmat, experiment, measures, qstate, sampler
from entlab.sampler import RngStream


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123).uniforms(1000)
        b = RngStream(123).uniforms(1000)
        assert np.array_equal(a, b)

    def test_numpy_integer_seed_is_its_int(self):
        for seed in (np.int64(123), np.uint64(123)):
            assert np.array_equal(RngStream(seed).uniforms(100), RngStream(123).uniforms(100))
        assert RngStream(np.uint64(2**63)).seed == 2**63

    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, "7", True, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        # refused, not truncated: RngStream(1.5) would draw seed 1's stream
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(str(seed))}$"):
            RngStream(seed)


class TestElementaryUnitary:
    def test_zero_angles_identity(self):
        u = oracles.elementary_unitary(1, 2, 0.0, 0.0, 0.0)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_quarter_turn_swaps(self):
        u = oracles.elementary_unitary(1, 2, np.pi / 2, 0.0, 0.0)
        assert abs(u[0, 1] - 1.0) < 1e-15
        assert abs(u[1, 0] + 1.0) < 1e-15
        assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
        assert u[2, 2] == 1.0 and u[3, 3] == 1.0

    def test_structure_off_pair(self):
        u = oracles.elementary_unitary(2, 4, 0.3, 1.1, 0.0)
        assert u[0, 0] == 1.0 and u[2, 2] == 1.0
        untouched = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        assert all(u[r, c] == 0.0 for r, c in untouched)

    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=100)
    def test_always_unitary(self, phi, psi, chi):
        u = oracles.elementary_unitary(1, 3, phi, psi, chi)
        assert np.abs(u @ np.conj(u.T) - np.eye(4)).max() < 1e-12


def unitaries(draws):
    """The unitaries of ``_angles_to_columns`` as a (n, 4, 4) stack."""
    return sampler._angles_to_columns(draws).transpose(2, 1, 0)


class TestCueUnitary:
    def test_every_draw_unitary(self):
        us = unitaries(RngStream(40).uniforms(1000, 15))
        defect = np.abs(us @ np.conj(us.transpose(0, 2, 1)) - np.eye(4)).max()
        assert defect < 1e-12

    def test_forced_draws_give_identity(self):
        # xi -> 1 puts every rotation angle at zero and every phase at 2*pi
        u = unitaries(np.ones((1, 15)))[0]
        assert np.abs(u - np.eye(4)).max() < 1e-12

    def test_matches_elementary_product(self):
        # the documented convention: per pair (i, j) in PAIR_SEQUENCE take
        # phi = arccos(xi^(1/(2i))), psi = 2*pi*x, chi = 2*pi*x on _CHI_PAIRS
        # (else 0), and multiply the elementary rotations left to right
        draws = np.vstack([RngStream(46).uniforms(1000, 15), np.zeros(15), np.ones(15)])
        us = unitaries(draws)
        for row, u in zip(draws, us):
            x = iter(row)
            ref = np.eye(4, dtype=complex)
            for (i, j) in sampler.PAIR_SEQUENCE:
                phi = np.arccos(next(x) ** (1.0 / (2.0 * i)))
                psi = 2.0 * np.pi * next(x)
                chi = 2.0 * np.pi * next(x) if (i, j) in sampler._CHI_PAIRS else 0.0
                ref = ref @ oracles.elementary_unitary(i, j, phi, psi, chi)
            assert np.abs(u - ref).max() < 1e-14

    def test_scalar_form(self):
        # one state's draws give the unitary the same draws give in a stack
        u = unitaries(RngStream(41).uniforms(1, 15))[0]
        v = unitaries(RngStream(41).uniforms(64, 15))[0]
        assert np.array_equal(u, v)

    def test_eigenphase_repulsion_matches_haar(self):
        us = unitaries(RngStream(42).uniforms(10_000, 15))
        frac = oracles.spacing_fraction_below(us)
        frac_ref = oracles.spacing_fraction_below(
            oracles.qr_haar_unitaries(np.random.default_rng(43), 10_000)
        )
        assert frac < 0.01
        assert frac_ref < 0.01  # oracle sanity: same repulsion in the reference sampler

    def test_element_magnitudes_uniform(self):
        # every |u_kl|^2 has mean 1/4 under the invariant measure
        us = unitaries(RngStream(44).uniforms(10_000, 15))
        means = (np.abs(us) ** 2).mean(axis=0)
        assert np.abs(means - 0.25).max() < 0.01


class TestSimplex:
    def test_corner_draws(self):
        assert np.array_equal(
            sampler._uniforms_to_simplex(np.zeros((1, 3)))[0], [1.0, 0.0, 0.0, 0.0]
        )
        assert np.array_equal(
            sampler._uniforms_to_simplex(np.ones((1, 3)))[0], [0.0, 0.0, 0.0, 1.0]
        )

    def test_valid_simplex_points(self):
        p = sampler._uniforms_to_simplex(RngStream(45).uniforms(100_000, 3))
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-15

    def test_marginal_means(self):
        p = sampler._uniforms_to_simplex(RngStream(46).uniforms(100_000, 3))
        assert np.abs(p.mean(axis=0) - 0.25).max() < 0.003

    def test_sorted_components_match_flat_oracle(self):
        n = 100_000
        ours = np.sort(sampler._uniforms_to_simplex(RngStream(47).uniforms(n, 3)), axis=1)
        ref = np.sort(oracles.flat_simplex(np.random.default_rng(48), n), axis=1)
        assert np.abs(ours.mean(axis=0) - ref.mean(axis=0)).max() < 0.005

    def test_scalar_form(self):
        # one state's draws give the point the same draws give in a stack
        p = sampler._uniforms_to_simplex(RngStream(49).uniforms(1, 3))[0]
        q = sampler._uniforms_to_simplex(RngStream(49).uniforms(64, 3))[0]
        assert np.array_equal(p, q)


class TestRandomDensity:
    def test_deterministic(self):
        a = sampler.random_density_batch(RngStream(50), 500)
        b = sampler.random_density_batch(RngStream(50), 500)
        assert np.array_equal(a, b)

    def test_scalar_walks_same_stream(self):
        stream = RngStream(51)
        singles = np.concatenate([sampler.random_density_batch(stream, 1) for _ in range(20)])
        batch = sampler.random_density_batch(RngStream(51), 20)
        assert np.array_equal(singles, batch)

    def test_all_pass_validation(self):
        rhos = sampler.random_density_batch(RngStream(52), 100_000)
        assert cmat.hermiticity_defects(rhos).max(initial=0.0) <= 1e-10
        assert np.abs(np.einsum("nii->n", rhos).real - 1.0).max() <= 1e-10
        assert np.linalg.eigvalsh(rhos)[:, 0].min() >= -1e-10
        qstate._checked_eig(rhos)
        for m in rhos[:100]:
            qstate.DensityMatrix(m)

    def test_spectrum_equals_drawn_simplex(self):
        rho, probs, cols = sampler._spectral_stacks(RngStream(53), 2000)
        rhos, u = rho.transpose(2, 0, 1), cols.transpose(2, 1, 0)
        assert np.array_equal(rhos, sampler.random_density_batch(RngStream(53), 2000))
        assert np.abs(rhos - (u * probs[:, None, :]) @ np.conj(u.transpose(0, 2, 1))).max() <= 1e-15
        assert np.array_equal(rhos, np.conj(rhos.transpose(0, 2, 1)))
        w, _ = cmat.hermitian_eig(rhos)
        assert np.abs(w - np.sort(probs, axis=1)).max() < 1e-10

    def test_entangled_fraction(self):
        rhos = sampler.random_density_batch(RngStream(54), 100_000)
        frac = float((~measures.measure_table(rhos)["separable"]).mean())
        assert 0.355 <= frac <= 0.375


# Positions of the mixing-angle uniforms among a state's 15 angle uniforms.
_MIXING = [0, 3, 5, 8, 10, 12]


def _mp_unitary(row) -> np.ndarray:
    """40-digit product of the elementary rotations for one row of 15 angle
    uniforms, with phi = arccos(xi^(1/(2i))) taken in mpmath."""
    with mpmath.workdps(40):
        x = iter(mpmath.mpf(float(v)) for v in row)
        u = mpmath.eye(4)
        for (i, j) in sampler.PAIR_SEQUENCE:
            phi = mpmath.acos(next(x) ** (mpmath.mpf(1) / (2 * i)))
            e_psi = mpmath.expjpi(2 * next(x))
            e_chi = mpmath.expjpi(2 * next(x)) if (i, j) in sampler._CHI_PAIRS else mpmath.mpf(1)
            block = (
                mpmath.cos(phi) * e_psi,
                mpmath.sin(phi) * e_chi,
                -mpmath.sin(phi) * mpmath.conj(e_chi),
                mpmath.cos(phi) * mpmath.conj(e_psi),
            )
            a, b = i - 1, j - 1
            for r in range(4):
                ua, ub = u[r, a], u[r, b]
                u[r, a] = ua * block[0] + ub * block[2]
                u[r, b] = ua * block[1] + ub * block[3]
        return np.array([[complex(u[r, c]) for c in range(4)] for r in range(4)])


def _arccos_route(row) -> np.ndarray:
    """The same product in double precision with phi = arccos(xi^(1/(2i)))."""
    x = iter(row)
    ref = np.eye(4, dtype=complex)
    for (i, j) in sampler.PAIR_SEQUENCE:
        phi = np.arccos(next(x) ** (1.0 / (2.0 * i)))
        psi = 2.0 * np.pi * next(x)
        chi = 2.0 * np.pi * next(x) if (i, j) in sampler._CHI_PAIRS else 0.0
        ref = ref @ oracles.elementary_unitary(i, j, phi, psi, chi)
    return ref


class TestSamplerKernels:
    def test_unitaries_against_mpmath(self):
        draws = RngStream(55).uniforms(300, 15)
        edge = (0.0, 1.0, 1.0 - 2.0**-40, 2.0**-40)
        for k, value in enumerate(edge):
            draws[k, _MIXING] = value  # every mixing uniform at the edge
            draws[len(edge) + k :: 25, _MIXING[k % 6]] = value  # one of them, in many rows
        us = unitaries(draws)
        ours = max(np.abs(u - _mp_unitary(row)).max() for u, row in zip(us, draws))
        arccos = max(np.abs(_arccos_route(row) - _mp_unitary(row)).max() for row in draws)
        assert ours <= 2e-15
        assert ours <= arccos

    def test_mixing_keeps_relative_accuracy(self):
        xi = np.array([0.0, 2.0**-40, 0.3, 0.5, 0.9, 1.0 - 2.0**-40, 1.0])
        for i in (1, 2, 3):
            cos_phi, sin_phi = sampler._mixing(xi, i)
            with mpmath.workdps(40):
                for x, c, s in zip(xi, cos_phi, sin_phi):
                    t = mpmath.mpf(float(x)) ** (mpmath.mpf(1) / i)
                    assert abs(c - float(mpmath.sqrt(t))) <= 2.3e-16 * c
                    assert abs(s - float(mpmath.sqrt(1 - t))) <= 4.5e-16 * s

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_entry_assembly_bits_do_not_depend_on_n(self, n):
        rho, probs, cols = sampler._spectral_stacks(RngStream(56), n)
        big_rho, big_probs, big_cols = sampler._spectral_stacks(RngStream(56), 8192)
        assert np.array_equal(probs, big_probs[:n])
        assert np.array_equal(cols, big_cols[:, :, :n])
        assert np.array_equal(rho, big_rho[:, :, :n])

    @pytest.mark.parametrize("n", [1, 2, 7, 11409])
    def test_entry_assembly_matches_whole_stack_formula(self, n):
        _, probs, cols = sampler._spectral_stacks(RngStream(58), n)
        rho = sampler._assemble_entries(probs, cols)
        assert rho.tobytes() == oracles.assembled_entries(probs, cols).tobytes()

    def test_entries_exactly_hermitian(self):
        # measures._pt_screen relies on it unchecked.  The second stack holds
        # the states the acceptance run's first chunk (shard 0 of seed
        # 20260810) builds, those _separable_orbit does not skip.
        probs, angles = sampler._draw_spectra(RngStream(20260810, (experiment._SHARD_KEY, 0)), 11409)
        built = ~experiment._separable_orbit(probs)
        shard_rho = sampler._assemble_entries(probs[built], sampler._angles_to_columns(angles[built]))
        for rho in (sampler._spectral_stacks(RngStream(57), 8192)[0], shard_rho):
            assert np.array_equal(rho, np.conj(rho.transpose(1, 0, 2)))
            assert not np.einsum("aan->an", rho).imag.any()
            assert cmat.hermiticity_defects(rho.transpose(2, 0, 1)).max(initial=0.0) == 0.0
