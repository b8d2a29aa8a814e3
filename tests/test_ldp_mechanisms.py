import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpfair import (
    LaplaceMechanism,
    PreconditionError,
    RandomizedResponse,
    check_lemma1,
    compose,
    identity_channel,
    induced_joint,
    laplace_log_ratio_bound,
    laplace_randomize,
    mechanism_from_spec,
    mutual_information,
    new_channel,
    random_channel,
    random_source,
    rr_channel,
    rr_randomize,
    verify_ldp,
)


class TestLaplaceMechanism:
    def test_scale_formula(self):
        mech = LaplaceMechanism(epsilon=5.0, t=0.5, d=2)
        assert mech.scale == pytest.approx(0.4)

    def test_invalid_params(self):
        with pytest.raises(PreconditionError):
            LaplaceMechanism(epsilon=0.0, t=0.5, d=2)
        with pytest.raises(PreconditionError):
            LaplaceMechanism(epsilon=1.0, t=-0.1, d=2)

    @pytest.mark.parametrize(
        "epsilon, t", [(float("nan"), 0.5), (float("inf"), 0.5), (1.0, float("nan")), (1.0, float("inf")),
                       (1e-310, 0.5)],  # the last one's noise scale overflows
    )
    def test_non_finite_params_rejected(self, epsilon, t):
        with pytest.raises(PreconditionError):
            LaplaceMechanism(epsilon=epsilon, t=t, d=2)

    def test_out_of_range_input_rejected(self):
        mech = LaplaceMechanism(epsilon=1.0, t=0.5, d=2)
        with pytest.raises(PreconditionError):
            laplace_randomize(np.array([0.6, 0.0]), mech, np.random.default_rng(0))

    def test_vanishing_noise_limit(self):
        mech = LaplaceMechanism(epsilon=1e6, t=0.5, d=2)
        rng = np.random.default_rng(0)
        z = laplace_randomize(np.array([[0.3, -0.2]] * 1000), mech, rng)
        assert np.abs(z - [0.3, -0.2]).mean() < 10 * mech.scale

    def test_log_ratio_bound_extremes(self):
        # opposite corners of the truncation box reach exactly epsilon
        mech = LaplaceMechanism(epsilon=2.0, t=0.5, d=1)
        assert laplace_log_ratio_bound(mech, [-0.5], [0.5]) == pytest.approx(2.0, abs=1e-12)
        assert laplace_log_ratio_bound(mech, [0.1], [0.1]) == 0.0

    def test_empirical_density_ratio(self):
        # histogram audit of the worst-input pair stays under the budget
        mech = LaplaceMechanism(epsilon=2.0, t=0.5, d=1)
        rng = np.random.default_rng(0)
        n = 400_000
        za = laplace_randomize(np.full((n, 1), -0.5), mech, rng).ravel()
        zb = laplace_randomize(np.full((n, 1), 0.5), mech, rng).ravel()
        bins = np.linspace(-2, 2, 21)
        ha, _ = np.histogram(za, bins=bins)
        hb, _ = np.histogram(zb, bins=bins)
        mask = (ha > 500) & (hb > 500)
        ratios = np.log(ha[mask] / hb[mask])
        assert np.abs(ratios).max() <= mech.epsilon + 0.1  # sampling slack


class TestRandomizedResponse:
    def test_warner_case(self):
        mech = RandomizedResponse(epsilon=np.log(3.0), k=2, d=1)
        assert mech.keep_prob == pytest.approx(0.75, abs=1e-12)
        assert mech.flip_prob == pytest.approx(0.25, abs=1e-12)

    def test_channel_matrix(self):
        ch = rr_channel(RandomizedResponse(epsilon=np.log(3.0), k=2, d=1))
        np.testing.assert_allclose(ch.rows, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_zero_budget_uniform(self):
        mech = RandomizedResponse(epsilon=0.0, k=4, d=1)
        ch = rr_channel(mech)
        np.testing.assert_allclose(ch.rows, 0.25, atol=1e-12)
        rng = np.random.default_rng(0)
        out = rr_randomize(np.zeros((40_000, 1), dtype=int), mech, rng)
        freq = np.bincount(out.ravel(), minlength=4) / out.size
        np.testing.assert_allclose(freq, 0.25, atol=0.01)

    def test_tensor_power_structure(self):
        mech = RandomizedResponse(epsilon=1.0, k=2, d=2)
        single = rr_channel(RandomizedResponse(epsilon=0.5, k=2, d=1)).rows
        np.testing.assert_allclose(rr_channel(mech).rows, np.kron(single, single), atol=1e-12)

    @pytest.mark.parametrize("epsilon, d", [(float("nan"), 1), (float("inf"), 2), (2000.0, 2), (710.0, 1)])
    def test_non_finite_epsilon_rejected(self, epsilon, d):
        # NaN, inf, or an e^(epsilon/d) that overflows would give NaN keep/flip probabilities
        with pytest.raises(PreconditionError):
            RandomizedResponse(epsilon=epsilon, k=3, d=d)

    def test_large_finite_budget_keeps_every_symbol(self):
        mech = RandomizedResponse(epsilon=1400.0, k=3, d=2)  # e^700 is finite
        assert mech.keep_prob == 1.0 and 0.0 < mech.flip_prob < 1e-300

    def test_out_of_range_symbol(self):
        mech = RandomizedResponse(epsilon=1.0, k=3, d=1)
        with pytest.raises(PreconditionError):
            rr_randomize(np.array([3]), mech, np.random.default_rng(0))

    def test_keep_frequency_matches_channel(self):
        mech = RandomizedResponse(epsilon=2.0, k=4, d=1)
        rng = np.random.default_rng(1)
        out = rr_randomize(np.full((100_000, 1), 2), mech, rng)
        kept = (out == 2).mean()
        assert kept == pytest.approx(mech.keep_prob, abs=0.005)

    def test_channel_cap(self):
        with pytest.raises(PreconditionError):
            rr_channel(RandomizedResponse(epsilon=1.0, k=4, d=8))


class TestVerifyLdp:
    def test_rr_exact_budget(self):
        for eps in (0.5, 1.0, 2.0):
            ratio, ok = verify_ldp(rr_channel(RandomizedResponse(epsilon=eps, k=3, d=1)), eps)
            assert ok
            assert ratio == pytest.approx(eps, abs=1e-9)

    def test_identity_fails_everything(self):
        ratio, ok = verify_ldp(identity_channel(2), 100.0)
        assert not ok and ratio == np.inf

    def test_uniform_channel_is_zero_ldp(self):
        ratio, ok = verify_ldp(new_channel(np.full((3, 3), 1 / 3)), 0.0)
        assert ok and ratio == 0.0


class TestLemma1:
    @given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_composition_preserves_ldp(self, seed, eps):
        enc = random_channel(3, 3, seed=seed)
        mech_ch = rr_channel(RandomizedResponse(epsilon=eps, k=3, d=1))
        assert check_lemma1(enc, mech_ch, eps)

    def test_rejects_non_ldp_mechanism(self):
        with pytest.raises(PreconditionError):
            check_lemma1(random_channel(2, 2, seed=0), identity_channel(2), 1.0)


class TestLemma2:
    @given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_budget_bounds_information(self, seed, eps):
        src = random_source(2, 2, 3, seed=seed)
        enc = random_channel(3, 3, seed=seed + 1)
        mech_ch = rr_channel(RandomizedResponse(epsilon=eps, k=3, d=1))
        full = induced_joint(src, compose(enc, mech_ch))
        assert mutual_information(full.p_xz()) <= eps + 1e-9


class TestMechanismFromSpec:
    def test_laplace(self):
        mech = mechanism_from_spec({"kind": "laplace", "epsilon": 5})
        assert isinstance(mech, LaplaceMechanism)
        assert (mech.t, mech.d) == (0.5, 2)

    def test_rr(self):
        mech = mechanism_from_spec({"kind": "rr", "epsilon": 1, "k": 3, "d": 1})
        assert isinstance(mech, RandomizedResponse)
        assert (mech.k, mech.d) == (3, 1)

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            mechanism_from_spec({"kind": "gauss", "epsilon": 1})
