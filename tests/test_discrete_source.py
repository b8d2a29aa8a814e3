import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpfair import (
    Channel,
    InvalidDistributionError,
    compose,
    identity_channel,
    induced_joint,
    new_channel,
    new_joint,
    random_channel,
    random_source,
    sample,
)
from ldpfair.discrete_source import load_channel, load_source, save_channel, save_source


def uniform_source(cu=2, cs=2, cx=2):
    n = cu * cs * cx
    return new_joint(np.full((cu, cs, cx), 1.0 / n))


@st.composite
def sources(draw, max_card=3):
    cu = draw(st.integers(2, max_card))
    cs = draw(st.integers(2, max_card))
    cx = draw(st.integers(2, max_card))
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=cu * cs * cx, max_size=cu * cs * cx)
    )
    arr = np.array(raw).reshape(cu, cs, cx)
    return new_joint(arr / arr.sum())


@st.composite
def channels(draw, in_card=None, max_card=3):
    ci = in_card if in_card is not None else draw(st.integers(2, max_card))
    co = draw(st.integers(2, max_card))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=ci * co, max_size=ci * co))
    arr = np.array(raw).reshape(ci, co)
    return new_channel(arr / arr.sum(axis=1, keepdims=True))


class TestNewJoint:
    def test_uniform_marginals(self):
        src = uniform_source()
        for marg in (src.p_u(), src.p_s(), src.p_x()):
            np.testing.assert_allclose(marg, 0.5)

    def test_negative_entry_rejected(self):
        probs = np.full((2, 2, 2), 1.0 / 8)
        probs[0, 0, 0] = -0.1
        probs[1, 1, 1] = 0.35
        with pytest.raises(InvalidDistributionError):
            new_joint(probs)

    def test_nan_entry_rejected(self):
        probs = np.full((2, 2, 2), 1.0 / 8)
        probs[0, 0, 0] = np.nan
        with pytest.raises(InvalidDistributionError, match="NaN"):
            new_joint(probs)

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            new_joint(np.zeros((2, 2, 2)))

    def test_off_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            new_joint(np.full((2, 2, 2), 0.2))

    def test_marginal_embedding(self):
        # a 2x2x4 construction with a pinned minority rate on the u-marginal
        p_u1 = 0.2362
        probs = np.zeros((2, 2, 4))
        probs[0] = (1 - p_u1) / 8
        probs[1] = p_u1 / 8
        src = new_joint(probs)
        np.testing.assert_allclose(src.p_u(), [1 - p_u1, p_u1], atol=1e-12)

    def test_renormalizes_small_drift(self):
        probs = np.full((2, 2, 2), 1.0 / 8) * (1 + 4e-10)
        src = new_joint(probs)
        assert abs(src.probs.sum() - 1.0) < 1e-15


class TestChannel:
    def test_identity(self):
        ch = identity_channel(3)
        np.testing.assert_array_equal(ch.rows, np.eye(3))

    def test_row_not_stochastic_rejected(self):
        with pytest.raises(InvalidDistributionError):
            new_channel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_nan_entry_rejected(self):
        with pytest.raises(InvalidDistributionError, match="NaN"):
            new_channel(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    @given(channels())
    @settings(max_examples=30, deadline=None)
    def test_compose_identity_left(self, ch):
        out = compose(identity_channel(ch.in_card), ch)
        np.testing.assert_allclose(out.rows, ch.rows, atol=1e-12)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_compose_associative(self, data):
        a = data.draw(channels())
        b = data.draw(channels(in_card=a.out_card))
        c = data.draw(channels(in_card=b.out_card))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rows, right.rows, atol=1e-12)


class TestInducedJoint:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_marginalizing_z_recovers_source(self, data):
        src = data.draw(sources())
        enc = data.draw(channels(in_card=src.card_x))
        full = induced_joint(src, enc)
        np.testing.assert_allclose(full.probs.sum(axis=3), src.probs, atol=1e-12)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_markov_property(self, data):
        # z depends on (u, s) only through x: p(z | u,s,x) == p(z | x)
        src = data.draw(sources())
        enc = data.draw(channels(in_card=src.card_x))
        full = induced_joint(src, enc)
        for u in range(src.card_u):
            for s in range(src.card_s):
                for x in range(src.card_x):
                    p_usx = src.probs[u, s, x]
                    if p_usx > 1e-12:
                        cond = full.probs[u, s, x] / p_usx
                        np.testing.assert_allclose(cond, enc.rows[x], atol=1e-9)

    def test_identity_encoder_couples_x_and_z(self):
        src = uniform_source(cx=3)
        full = induced_joint(src, identity_channel(3))
        np.testing.assert_allclose(full.p_xz(), np.diag(src.p_x()), atol=1e-12)


class TestSample:
    def test_shape_and_determinism(self):
        src = random_source(2, 2, 3, seed=5)
        a = sample(src, 100, seed=7)
        b = sample(src, 100, seed=7)
        assert a.shape == (100, 3)
        np.testing.assert_array_equal(a, b)
        assert a[:, 0].max() < 2 and a[:, 2].max() < 3

    def test_empirical_frequencies_converge(self):
        src = random_source(2, 2, 2, seed=1)
        draws = sample(src, 200_000, seed=0)
        emp = np.zeros((2, 2, 2))
        np.add.at(emp, (draws[:, 0], draws[:, 1], draws[:, 2]), 1.0)
        emp /= emp.sum()
        np.testing.assert_allclose(emp, src.probs, atol=0.01)


class TestSerialization:
    def test_source_round_trip(self, tmp_path):
        src = random_source(2, 3, 2, seed=9)
        path = tmp_path / "src.txt"
        save_source(src, path)
        loaded = load_source(path)
        np.testing.assert_array_equal(loaded.probs, src.probs)

    def test_channel_round_trip(self, tmp_path):
        ch = random_channel(3, 4, seed=2)
        path = tmp_path / "ch.txt"
        save_channel(ch, path)
        loaded = load_channel(path)
        np.testing.assert_array_equal(loaded.rows, ch.rows)
