import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entlab import cmat, measures, qstate, sampler
from entlab.errors import BadIndices
from entlab.sampler import RngStream


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123).uniforms(1000)
        b = RngStream(123).uniforms(1000)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        base = RngStream(123).uniforms(100)
        sub = RngStream(123).substream(1).uniforms(100)
        assert not np.array_equal(base, sub)

    def test_substream_reproducible(self):
        a = RngStream(5).substream(2, 9).uniforms(64)
        b = RngStream(5, (2, 9)).uniforms(64)
        assert np.array_equal(a, b)

    def test_scalar_matches_batch(self):
        stream = RngStream(9)
        batch = RngStream(9).uniforms(8)
        assert np.array_equal(np.array([stream.uniform() for _ in range(8)]), batch)


class TestElementaryUnitary:
    def test_zero_angles_identity(self):
        u = sampler.elementary_unitary(1, 2, 0.0, 0.0, 0.0)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_quarter_turn_swaps(self):
        u = sampler.elementary_unitary(1, 2, np.pi / 2, 0.0, 0.0)
        assert abs(u[0, 1] - 1.0) < 1e-15
        assert abs(u[1, 0] + 1.0) < 1e-15
        assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
        assert u[2, 2] == 1.0 and u[3, 3] == 1.0

    def test_structure_off_pair(self):
        u = sampler.elementary_unitary(2, 4, 0.3, 1.1, 0.0)
        assert u[0, 0] == 1.0 and u[2, 2] == 1.0
        untouched = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        assert all(u[r, c] == 0.0 for r, c in untouched)

    @pytest.mark.parametrize("i,j", [(2, 2), (3, 1), (0, 2), (1, 5)])
    def test_bad_indices(self, i, j):
        with pytest.raises(BadIndices):
            sampler.elementary_unitary(i, j, 0.1, 0.2, 0.3)

    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=100)
    def test_always_unitary(self, phi, psi, chi):
        u = sampler.elementary_unitary(1, 3, phi, psi, chi)
        assert np.abs(u @ np.conj(u.T) - np.eye(4)).max() < 1e-12


class TestCueUnitary:
    def test_every_draw_unitary(self):
        us = sampler._angles_to_unitaries(RngStream(40).uniforms(1000, 15))
        defect = np.abs(us @ np.conj(us.transpose(0, 2, 1)) - np.eye(4)).max()
        assert defect < 1e-12

    def test_forced_draws_give_identity(self):
        # xi -> 1 puts every rotation angle at zero and every phase at 2*pi
        u = sampler._angles_to_unitaries(np.ones((1, 15)))[0]
        assert np.abs(u - np.eye(4)).max() < 1e-12

    def test_matches_elementary_product(self):
        # the documented convention: per pair (i, j) in PAIR_SEQUENCE take
        # phi = arccos(xi^(1/(2i))), psi = 2*pi*x, chi = 2*pi*x on _CHI_PAIRS
        # (else 0), and multiply the elementary rotations left to right
        draws = np.vstack([RngStream(46).uniforms(1000, 15), np.zeros(15), np.ones(15)])
        us = sampler._angles_to_unitaries(draws)
        for row, u in zip(draws, us):
            x = iter(row)
            ref = np.eye(4, dtype=complex)
            for (i, j) in sampler.PAIR_SEQUENCE:
                phi = np.arccos(next(x) ** (1.0 / (2.0 * i)))
                psi = 2.0 * np.pi * next(x)
                chi = 2.0 * np.pi * next(x) if (i, j) in sampler._CHI_PAIRS else 0.0
                ref = ref @ sampler.elementary_unitary(i, j, phi, psi, chi)
            assert np.abs(u - ref).max() < 1e-14

    def test_scalar_form(self):
        u = sampler.random_cue_unitary(RngStream(41))
        v = sampler._angles_to_unitaries(RngStream(41).uniforms(1, 15))[0]
        assert np.array_equal(u, v)

    def test_eigenphase_repulsion_matches_haar(self):
        us = sampler._angles_to_unitaries(RngStream(42).uniforms(10_000, 15))
        frac = oracles.spacing_fraction_below(us)
        frac_ref = oracles.spacing_fraction_below(
            oracles.qr_haar_unitaries(np.random.default_rng(43), 10_000)
        )
        assert frac < 0.01
        assert frac_ref < 0.01  # oracle sanity: same repulsion in the reference sampler

    def test_element_magnitudes_uniform(self):
        # every |u_kl|^2 has mean 1/4 under the invariant measure
        us = sampler._angles_to_unitaries(RngStream(44).uniforms(10_000, 15))
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
        p = sampler.random_simplex(RngStream(49))
        q = sampler._uniforms_to_simplex(RngStream(49).uniforms(1, 3))[0]
        assert np.array_equal(p, q)


class TestRandomDensity:
    def test_deterministic(self):
        a = sampler.random_density_batch(RngStream(50), 500)
        b = sampler.random_density_batch(RngStream(50), 500)
        assert np.array_equal(a, b)

    def test_scalar_walks_same_stream(self):
        stream = RngStream(51)
        singles = np.stack([sampler.random_density(stream).matrix for _ in range(20)])
        batch = sampler.random_density_batch(RngStream(51), 20)
        assert np.array_equal(singles, batch)

    def test_all_pass_validation(self):
        rhos = sampler.random_density_batch(RngStream(52), 100_000)
        assert cmat.hermiticity_defect(rhos) <= 1e-10
        assert np.abs(np.einsum("nii->n", rhos).real - 1.0).max() <= 1e-10
        assert np.linalg.eigvalsh(rhos)[:, 0].min() >= -1e-10
        for m in rhos[:100]:
            qstate.density_from_matrix(m)

    def test_spectrum_equals_drawn_simplex(self):
        rhos, probs = sampler.random_density_batch(RngStream(53), 2000, return_probs=True)
        w = cmat.eigvalsh_desc(rhos)
        assert np.abs(w - np.sort(probs, axis=1)[:, ::-1]).max() < 1e-10

    def test_entangled_fraction(self):
        rhos = sampler.random_density_batch(RngStream(54), 100_000)
        frac = float((measures.pt_eigenvalues(rhos)[:, -1] < -measures.EPS_SEP).mean())
        assert 0.355 <= frac <= 0.375
