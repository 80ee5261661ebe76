import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import haar_fidelity_inverse_cdf
from pqc_lens import baselines, simulator
from pqc_lens import (
    Histogram,
    MPBaseline,
    haar_fidelity_baseline,
    haar_fidelity_cdf,
    haar_mean_marginal_purity,
    histogram,
    js_distance,
    kl_divergence,
    mp_reference_spectrum,
    sample_haar_state,
    spectral_xi,
    subsystem_purity,
)
from pqc_lens import simulator
from pqc_lens.baselines import xi_profiles

LN2 = math.log(2.0)


def _hist(masses):
    masses = np.asarray(masses, dtype=float)
    edges = np.linspace(0.0, 1.0, masses.size + 1)
    return Histogram(edges, masses, 1)


def _fidelity_draws(n_qubits, pairs, seed, unitary=None):
    rng = np.random.default_rng(seed)
    out = np.empty(pairs)
    for i in range(pairs):
        a = sample_haar_state(n_qubits, rng).amplitudes
        b = sample_haar_state(n_qubits, rng).amplitudes
        if unitary is not None:
            a, b = unitary @ a, unitary @ b
        out[i] = abs(np.vdot(a, b)) ** 2
    return out


class TestHistogram:
    def test_masses_sum_to_one(self):
        h = histogram(np.linspace(0, 1, 101), bins=10, value_range=(0.0, 1.0))
        assert float(h.masses.sum()) == pytest.approx(1.0, abs=1e-12)
        assert h.total_samples == 101

    def test_bins_are_half_open_with_last_closed(self):
        h = histogram([0.5], bins=2, value_range=(0.0, 1.0))
        assert h.masses == pytest.approx([0.0, 1.0])
        h = histogram([1.0], bins=2, value_range=(0.0, 1.0))
        assert h.masses == pytest.approx([0.0, 1.0])

    def test_out_of_range_values_clamp_to_edge_bins(self):
        h = histogram([-3.0, 7.0], bins=4, value_range=(0.0, 1.0))
        assert h.masses == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            histogram([], bins=4, value_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            histogram([0.5], bins=0, value_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            histogram([0.5], bins=4, value_range=(1.0, 1.0))

    def test_oversized_bin_counts_fail_before_allocation(self, monkeypatch):
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**20)
        with pytest.raises(ValueError, match="histogram of 30000 bins takes"):
            histogram([0.5], bins=30000, value_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="baseline of 30000 bins takes"):
            haar_fidelity_baseline(bins=30000, dim=4)
        assert histogram([0.5], bins=20000, value_range=(0.0, 1.0)).masses.size == 20000
        assert haar_fidelity_baseline(bins=20000, dim=4).masses.size == 20000

    def test_container_validates_shape_and_mass(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.2]), 1)

    @pytest.mark.parametrize("masses, message", [
        ([1.5, -0.5], "non-negative"),
        ([math.nan], "non-negative"),
        ([math.inf, -math.inf], "non-negative"),
        ([math.inf, 0.0], "sum to 1"),
    ])
    def test_container_rejects_negative_and_non_finite_masses(self, masses, message):
        edges = np.linspace(0.0, 1.0, len(masses) + 1)
        with pytest.raises(ValueError, match=message):
            Histogram(edges, masses, 1)


class TestHaarFidelityBaseline:
    def test_cdf_endpoints_and_shape(self):
        assert haar_fidelity_cdf(0.0, 4) == pytest.approx(0.0)
        assert haar_fidelity_cdf(1.0, 4) == pytest.approx(1.0)
        assert haar_fidelity_cdf(0.5, 2) == pytest.approx(0.5)

    def test_bin_masses_are_cdf_increments(self):
        base = haar_fidelity_baseline(bins=10, dim=8)
        want = np.diff(haar_fidelity_cdf(np.linspace(0, 1, 11), 8))
        assert base.masses == pytest.approx(want, abs=1e-15)
        assert float(base.masses.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_two_dim_baseline_is_uniform(self):
        base = haar_fidelity_baseline(bins=5, dim=2)
        assert base.masses == pytest.approx([0.2] * 5)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            haar_fidelity_cdf(0.5, 1)

    def test_sampled_fidelities_match_closed_form(self):
        draws = _fidelity_draws(2, pairs=2000, seed=7)
        ks = stats.kstest(draws, lambda f: haar_fidelity_cdf(f, 4)).statistic
        assert ks < 0.03

    def test_sampled_fidelities_match_inverse_cdf_oracle(self):
        draws = _fidelity_draws(2, pairs=2000, seed=8)
        oracle = haar_fidelity_inverse_cdf(
            np.random.default_rng(9).random(2000), 4
        )
        ks = stats.ks_2samp(draws, oracle).statistic
        assert ks < 0.05

    def test_fidelity_law_is_unitarily_invariant(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        draws = _fidelity_draws(2, pairs=2000, seed=11, unitary=q)
        ks = stats.kstest(draws, lambda f: haar_fidelity_cdf(f, 4)).statistic
        assert ks < 0.03

    def test_haar_states_are_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = sample_haar_state(3, rng)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestDivergences:
    def test_kl_of_identical_is_zero(self):
        h = _hist([0.25, 0.25, 0.5])
        assert kl_divergence(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_kl_point_mass_versus_uniform(self):
        assert kl_divergence(_hist([1.0, 0.0]), _hist([0.5, 0.5])) == pytest.approx(
            LN2, abs=1e-6
        )

    def test_kl_is_asymmetric(self):
        p, q = _hist([0.8, 0.2]), _hist([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_kl_of_disjoint_masses_is_large(self):
        assert kl_divergence(_hist([1.0, 0.0]), _hist([0.0, 1.0])) > 10.0

    def test_js_distance_of_disjoint_hits_the_bound(self):
        d = js_distance(_hist([1.0, 0.0]), _hist([0.0, 1.0]))
        assert d == pytest.approx(math.sqrt(LN2), abs=1e-6)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            kl_divergence(_hist([1.0, 0.0]), _hist([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError):
            js_distance(_hist([1.0, 0.0]), _hist([0.5, 0.25, 0.25]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_js_is_a_bounded_symmetric_metric(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        p, q, r = (_hist(rng.dirichlet(np.ones(k))) for _ in range(3))
        dpq, dqp = js_distance(p, q), js_distance(q, p)
        assert dpq == pytest.approx(dqp, abs=1e-12)
        assert 0.0 <= dpq <= math.sqrt(LN2) + 1e-9
        assert js_distance(p, r) <= dpq + js_distance(q, r) + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_kl_is_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        p, q = (_hist(rng.dirichlet(np.ones(k))) for _ in range(2))
        assert kl_divergence(p, q) >= 0.0


class TestSpectralXi:
    def test_basic_mapping(self):
        xi = spectral_xi([1.0, math.exp(-2.0), math.exp(-31.0)])
        assert xi == pytest.approx([0.0, 2.0, 30.0])

    def test_clamps_zero_and_negative_eigenvalues(self):
        xi = spectral_xi([0.0, -1e-16])
        assert xi == pytest.approx([30.0, 30.0])

    def test_clips_rounding_above_one(self):
        assert spectral_xi([1.0 + 1e-12])[0] == pytest.approx(0.0)

    def test_custom_cutoff(self):
        xi = spectral_xi([math.exp(-12.0), 0.0], cutoff=-10.0)
        assert xi == pytest.approx([10.0, 10.0])

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_rejects_cutoff_that_is_not_finite_and_negative(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            spectral_xi([0.5, 0.1], cutoff=cutoff)


class TestMPReference:
    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_bad_cutoff_fails_before_any_draw(self, monkeypatch, cutoff):
        draws = []
        monkeypatch.setattr(baselines, "sample_haar_state", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="cutoff"):
            mp_reference_spectrum(4, 2, 3, cutoff=cutoff)
        assert not draws

    def test_shapes_and_grid(self):
        ref = mp_reference_spectrum(4, 2, samples=50, rng=0)
        assert isinstance(ref, MPBaseline)
        assert ref.profile.shape == (4,)
        assert np.all(np.diff(ref.profile) <= 0)
        assert ref.histogram.bin_edges[0] == 0.0
        assert ref.histogram.bin_edges[-1] == 30.0
        assert ref.histogram.masses.shape == (75,)
        assert ref.d_a == 4 and ref.d_b == 4

    def test_deterministic_under_seed(self):
        a = mp_reference_spectrum(3, 1, samples=30, rng=5)
        b = mp_reference_spectrum(3, 1, samples=30, rng=5)
        assert np.array_equal(a.profile, b.profile)
        assert np.array_equal(a.histogram.masses, b.histogram.masses)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 12))
    def test_chunking_keeps_the_draw_order(self, seed, n, samples):
        k = 1 + seed % (n - 1)
        whole = mp_reference_spectrum(n, k, samples, rng=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CHUNK_BYTES", 1)  # one state per chunk
            single = mp_reference_spectrum(n, k, samples, rng=seed)
        assert np.array_equal(whole.profile, single.profile)
        assert np.array_equal(whole.histogram.masses, single.histogram.masses)

    def test_chunk_size_keeps_the_draws_in_order(self):
        # 1 MiB states: the default chunks hold four of the nine draws each,
        # CHUNK_BYTES = 1 one; both match draws taken one at a time in order
        whole = mp_reference_spectrum(16, 8, 9, rng=11)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CHUNK_BYTES", 1)
            single = mp_reference_spectrum(16, 8, 9, rng=11)
        assert np.array_equal(whole.profile, single.profile)
        assert np.array_equal(whole.histogram.masses, single.histogram.masses)
        rng = np.random.default_rng(11)
        one_by_one = np.concatenate([xi_profiles(sample_haar_state(16, rng).amplitudes[None], 8)
                                     for _ in range(9)])
        assert np.array_equal(whole.profile, one_by_one.mean(axis=0))

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            mp_reference_spectrum(3, 0, samples=10)
        with pytest.raises(ValueError):
            mp_reference_spectrum(3, 3, samples=10)
        with pytest.raises(ValueError):
            mp_reference_spectrum(3, 1, samples=0)

    def test_profile_mean_matches_marginal_purity_scale(self):
        # mean exp(-xi) over ranks equals the average eigenvalue 1/d_a;
        # a sanity link between the profile and normalization
        ref = mp_reference_spectrum(4, 1, samples=200, rng=2)
        assert float(np.exp(-ref.profile).sum()) == pytest.approx(1.0, abs=0.02)


class TestHaarPurity:
    def test_closed_form_values(self):
        assert haar_mean_marginal_purity(2, 2) == pytest.approx(0.8)
        assert haar_mean_marginal_purity(2, 8) == pytest.approx(10.0 / 17.0)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(13)
        vals = [subsystem_purity(sample_haar_state(3, rng), (0,))
                for _ in range(3000)]
        want = haar_mean_marginal_purity(2, 4)
        assert float(np.mean(vals)) == pytest.approx(want, abs=0.01)
