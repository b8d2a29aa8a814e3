import numpy as np
import pytest

from ldpfair import (
    LaplaceMechanism,
    PreconditionError,
    SyntheticSpec,
    TrainConfig,
    delta_dp,
    delta_eo,
    full_report,
    generate_synthetic,
    mutual_information,
    random_source,
    sensitive_accuracy,
    train,
    train_downstream,
    RandomizedResponse,
)
from ldpfair.fair_encoder import EncoderModel


class TestDeltaDp:
    def test_hand_computed(self):
        preds = [1, 1, 0, 0, 1, 0, 0, 0]
        s = [0, 0, 0, 0, 1, 1, 1, 1]
        # group 0 rate 0.5, group 1 rate 0.25
        assert delta_dp(preds, s) == pytest.approx(0.25)

    def test_symmetric_in_groups(self):
        preds = [1, 0, 1, 1]
        s = [0, 0, 1, 1]
        assert delta_dp(preds, s) == delta_dp(preds, [1 - v for v in s])

    def test_empty_group_rejected(self):
        with pytest.raises(PreconditionError):
            delta_dp([1, 0], [0, 0])

    def test_zero_when_rates_match(self):
        assert delta_dp([1, 0, 1, 0], [0, 0, 1, 1]) == 0.0


class TestDeltaEo:
    def test_hand_computed(self):
        # per-label gaps: u=0 -> |0 - 1| = 1, u=1 -> |1 - 1| = 0
        preds = [0, 1, 1, 1]
        s = [0, 0, 1, 1]
        u = [0, 1, 0, 1]
        assert delta_eo(preds, s, u) == pytest.approx(1.0)

    def test_empty_cell_rejected(self):
        with pytest.raises(PreconditionError):
            delta_eo([1, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1])

    def test_at_least_delta_dp_on_balanced_labels(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, 400)
        s = rng.integers(0, 2, 400)
        u = np.tile([0, 1], 200)
        assert delta_eo(preds, s, u) >= 0.0


class TestDownstream:
    def test_learns_separable_data(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(600, 4))
        y = (z[:, 0] + z[:, 1] > 0).astype(int)
        clf = train_downstream(z, y, seed=0)
        assert clf.accuracy > 0.9
        assert not clf.degenerate

    def test_degenerate_labels_flagged(self):
        z = np.random.default_rng(1).normal(size=(50, 3))
        clf = train_downstream(z, np.zeros(50, dtype=int), seed=0)
        assert clf.degenerate and clf.accuracy == 1.0

    def test_chance_level_on_independent_labels(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(800, 4))
        y = rng.integers(0, 2, 800)
        clf = train_downstream(z, y, seed=0)
        assert abs(clf.accuracy - 0.5) < 0.12

    def test_too_few_samples(self):
        with pytest.raises(PreconditionError):
            train_downstream(np.zeros((5, 2)), np.zeros(5, dtype=int), seed=0)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_equals_taped_training(self, classes):
        # the same seeded split, minibatches and Adam steps, differentiated
        # on the tape: weights and accuracy equal bit for bit (600 rows give
        # a partial last batch of 164)
        from ldpfair import autodiff as ad
        from ldpfair import fairness_metrics as fm

        rng = np.random.default_rng(3)
        z = rng.normal(size=(600, 4))
        y = (z[:, 0] > 0).astype(int) + (classes == 3) * (z[:, 1] > 0.5)
        clf = train_downstream(z, y, seed=5)

        rng = np.random.default_rng(5)
        net = ad.Mlp(ad.MlpSpec((4, 100, classes), ("relu", "identity")), rng)
        order = rng.permutation(600)
        tr, te = order[:420], order[420:]
        params, opt = net.parameters(), ad.AdamState(lr=fm.DOWNSTREAM_LR)
        for _ in range(fm.DOWNSTREAM_EPOCHS):
            ep_order = rng.permutation(tr.size)
            for lo in range(0, tr.size, fm.DOWNSTREAM_BATCH):
                sel = tr[ep_order[lo : lo + fm.DOWNSTREAM_BATCH]]
                logp = ad.log_softmax(net(ad.Tensor(z[sel])))
                ad.zero_grad(params)
                ad.backward(ad.mean(ad.mul(ad.Tensor(-1.0), ad.pick(logp, y[sel]))))
                ad.adam_step(params, opt)
        for a, b in zip(clf.net.parameters(), params):
            assert np.array_equal(a.data, b.data)
        preds = np.argmax(net(ad.Tensor(z[te])).data, axis=1)
        assert clf.accuracy == float((preds == y[te]).mean())


class TestSensitiveAccuracy:
    def test_single_class_rejected(self):
        z = np.zeros((100, 2))
        with pytest.raises(PreconditionError):
            sensitive_accuracy(z, np.zeros(100, dtype=int), seed=0)

    def test_recovers_exposed_attribute(self):
        rng = np.random.default_rng(3)
        s = rng.integers(0, 2, 600)
        z = np.column_stack([s + 0.1 * rng.normal(size=600), rng.normal(size=600)])
        assert sensitive_accuracy(z, s, seed=0) > 0.9


def _trained_model(mech, epochs=6):
    src = random_source(2, 2, 4, seed=3)
    spec = SyntheticSpec(
        source=src, means=2.0 * np.eye(4), sigma=0.4, n_train=1500, n_test=1200, seed=0
    )
    tr, te = generate_synthetic(spec)
    model = EncoderModel(tr.schema, mech, seed=0)
    train(model, tr, TrainConfig(beta=2.0, epochs=epochs, batch_size=256))
    return model, te


class TestFullReport:
    def test_continuous_report_fields(self):
        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2))
        rep = full_report(model, te, seeds=[0, 1])
        assert 0.0 <= rep.accuracy_mean <= 1.0
        assert rep.leakage_mean >= -0.05
        assert len(rep.per_seed["accuracy"]) == 2

    def test_continuous_leakage_below_data_processing_ceiling(self):
        # S -> X -> features -> Z is a Markov chain, so I(S;Z) <= I(S;X);
        # the source is the one of random_source(2, 2, 4, seed) for seeds
        # 0..9 with the largest I(S;X), and a large budget lets Z keep much
        # of what the features carry about s
        src = random_source(2, 2, 4, seed=9)
        i_sx = mutual_information(src.p_sx())
        spec = SyntheticSpec(
            source=src, means=2.0 * np.eye(4), sigma=0.4, n_train=1500, n_test=1500, seed=0
        )
        tr, te = generate_synthetic(spec)
        model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=20.0, t=0.5, d=2), seed=0)
        train(model, tr, TrainConfig(beta=2.0, epochs=6, batch_size=256))
        rep = full_report(model, te, seeds=[0, 1, 2])
        assert all(leak <= i_sx + 0.01 for leak in rep.per_seed["leakage"])
        assert rep.leakage_mean > 0.0

    def test_discrete_uses_plugin_leakage(self):
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=4, d=2))
        rep = full_report(model, te, seeds=[0])
        assert rep.leakage_mean >= 0.0

    def test_requires_seeds(self):
        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2), epochs=1)
        with pytest.raises(PreconditionError):
            full_report(model, te, seeds=[])

    def test_json_round_trip(self, tmp_path):
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=4, d=2), epochs=1)
        rep = full_report(model, te, seeds=[0])
        path = tmp_path / "report.json"
        rep.to_json(path, extra={"config_hash": "abc"})
        import json

        loaded = json.loads(path.read_text())
        assert loaded["config_hash"] == "abc"
        assert loaded["accuracy_mean"] == rep.accuracy_mean
