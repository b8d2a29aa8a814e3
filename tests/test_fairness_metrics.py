import itertools
import tracemalloc

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
    embed_dataset,
    plugin_mi,
    rr_channel,
)
from ldpfair.datasets import ColumnSpec
from ldpfair.fair_encoder import EncoderModel, pre_mechanism
from ldpfair.fairness_metrics import (
    DOWNSTREAM_TEST_FRACTION,
    _channel_attacker,
    _channel_figures,
    _laplace_attacker,
    bayes_attacker_accuracy,
)


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

    def test_negative_or_fractional_labels_rejected(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(60, 2))
        y = (z[:, 0] > 0).astype(int)
        with pytest.raises(PreconditionError, match="negative"):
            train_downstream(z, y - 1, seed=0)
        for bad in (0.7 * y, np.where(y == 1, np.nan, 0.0), np.where(y == 1, np.inf, 0.0)):
            with pytest.raises(PreconditionError, match="whole numbers"):
                train_downstream(z, bad, seed=0)

    def test_whole_float_labels_accepted(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(60, 2))
        y = (z[:, 0] > 0).astype(int)
        as_float = train_downstream(z, y.astype(float), seed=0)
        assert as_float.accuracy == train_downstream(z, y, seed=0).accuracy
        assert not as_float.degenerate

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


def _split(n, seed):
    """The attacker's seeded train and held-out rows."""
    order = np.random.default_rng(seed).permutation(n)
    cut = max(1, int(round(n * (1.0 - DOWNSTREAM_TEST_FRACTION))))
    return order[:cut], order[cut:]


class TestBayesAttacker:
    @pytest.mark.parametrize("codes", [2, 4, 6])
    def test_is_the_best_lookup_table_on_the_training_part(self, codes):
        # every map from K codes to s, enumerated: the rule scores on the
        # held-out rows as the first (so lowest-s on ties) of the tables
        # that are most accurate on the training rows, with a code absent
        # from training sent to the training majority
        rng = np.random.default_rng(codes)
        for seed in range(8):
            n = int(rng.integers(10, 40))
            c = rng.integers(0, codes, n) * 1000 + 7  # codes need not be 0..K-1
            s = rng.integers(0, 2, n)
            s[:2] = (0, 1)
            tr, te = _split(n, seed)
            labels = np.unique(c)
            pos = np.searchsorted(labels, c)
            best, best_hits = None, -1
            for table in itertools.product((0, 1), repeat=labels.size):
                hits = int((np.array(table)[pos[tr]] == s[tr]).sum())
                if hits > best_hits:
                    best, best_hits = np.array(table), hits
            majority = int(np.bincount(s[tr], minlength=2).argmax())
            unseen = ~np.isin(labels, c[tr])
            best[unseen] = majority
            expected = float((best[pos[te]] == s[te]).mean())
            assert bayes_attacker_accuracy(c, s, seed) == expected

    @pytest.mark.parametrize("held_out_s, accuracy", [(1, 1.0), (0, 0.0)])
    def test_unseen_code_gets_the_training_majority(self, held_out_s, accuracy):
        # training rows: code 0 holds s = 0 (4 rows) and code 1 holds s = 1
        # (10 rows), so the majority is 1; every held-out row has code 9
        tr, te = _split(20, seed=3)
        c, s = np.zeros(20, dtype=int), np.zeros(20, dtype=int)
        c[tr[4:]], s[tr[4:]] = 1, 1
        c[te], s[te] = 9, held_out_s
        assert bayes_attacker_accuracy(c, s, seed=3) == accuracy

    def test_ties_go_to_s_zero(self):
        # code 0 has 7 training rows of each s, and so does the whole
        # training part: both the code's row and the majority tie
        tr, te = _split(20, seed=4)
        c, s = np.zeros(20, dtype=int), np.zeros(20, dtype=int)
        s[tr[7:]] = 1
        c[te[:3]] = 5  # unseen, so the (tied) majority
        assert bayes_attacker_accuracy(c, s, seed=4) == 1.0
        s[te] = 1
        assert bayes_attacker_accuracy(c, s, seed=4) == 0.0

    def test_rejects_constant_s_short_input_and_length_mismatch(self):
        with pytest.raises(PreconditionError, match="single value"):
            bayes_attacker_accuracy(np.arange(50), np.ones(50, dtype=int), seed=0)
        with pytest.raises(PreconditionError, match="at least 10"):
            bayes_attacker_accuracy(np.arange(9), np.arange(9) % 2, seed=0)
        with pytest.raises(PreconditionError, match="disagree"):
            bayes_attacker_accuracy(np.arange(20), np.arange(21) % 2, seed=0)

    def test_huge_alphabet_stays_small(self):
        # 200 rows over a 10^10-code alphabet: only the codes that occur
        # are counted, so some KiB and not a table over the alphabet
        rng = np.random.default_rng(5)
        c = rng.integers(0, 10**10, 200)
        c[100:] = c[:100]
        s = rng.integers(0, 2, 200)
        tracemalloc.start()
        try:
            acc = bayes_attacker_accuracy(c, s, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= acc <= 1.0
        assert peak < 64 * 1024


class TestLaplaceAttacker:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("scale", [0.05, 0.3, 2.0])
    def test_equals_the_explicit_kernel_matrix(self, d, classes, scale):
        # the held-out x training Laplace kernel matrix written out, summed
        # per class of the training rows, and its argmax (the lowest s on
        # ties) scored on the held-out rows
        rng = np.random.default_rng(100 * d + 10 * classes + int(20 * scale))
        for seed in range(4):
            n = int(rng.integers(12, 80))
            s = rng.integers(0, classes, n)
            clean = rng.uniform(-0.5, 0.5, size=(n, d)) + 0.3 * s[:, None]
            noisy = clean + rng.laplace(0.0, scale, size=(n, d))
            tr, te = _split(n, seed)
            kernel = np.exp(-np.abs(noisy[te][:, None, :] - clean[tr][None]).sum(axis=2) / scale)
            labels = np.unique(s[tr])
            sums = np.stack([kernel[:, s[tr] == label].sum(axis=1) for label in labels], axis=1)
            expected = float((labels[sums.argmax(axis=1)] == s[te]).mean())
            assert _laplace_attacker(clean, s, noisy, scale, seed) == expected

    def test_wide_noise_predicts_the_training_majority(self):
        # the vectors lie within L1 distance 4 of each other, so with scale
        # 10^4 a held-out row's kernel terms agree within a factor e^(4e-4),
        # and each class's sum is its training count times about one factor
        rng = np.random.default_rng(8)
        s = (rng.random(300) < 0.6).astype(int)
        clean = rng.uniform(-0.5, 0.5, size=(300, 2)) + s[:, None]
        noisy = clean + rng.laplace(0.0, 1e4, size=clean.shape)
        for seed in range(3):
            tr, te = _split(300, seed)
            majority = np.bincount(s[tr]).argmax()
            assert np.bincount(s[tr]).max() > np.bincount(s[tr]).min() + 5
            assert _laplace_attacker(clean, s, noisy, 1e4, seed) == float((s[te] == majority).mean())

    def test_full_report_trains_no_downstream_mlp(self, monkeypatch):
        from ldpfair import fairness_metrics

        def no_training(*args, **kwargs):
            raise AssertionError("the continuous report trained an MLP")

        monkeypatch.setattr(fairness_metrics, "train_downstream", no_training)
        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2), epochs=1)
        rep = full_report(model, te, seeds=[0, 1])
        assert all(0.0 <= acc <= 1.0 for acc in rep.per_seed["sensitive_accuracy"])


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

    def test_continuous_leakage_is_never_negative(self, monkeypatch):
        # the mixture estimate can dip below 0 near independence; at
        # n_test = 2000 one trained Laplace model's seed read -4.5e-4 nats
        from ldpfair import fairness_metrics

        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2), epochs=1)
        estimates = iter([2e-3, -4.5e-4])
        monkeypatch.setattr(fairness_metrics, "laplace_mixture_mi", lambda *args: next(estimates))
        rep = full_report(model, te, seeds=[0, 1])
        assert rep.per_seed["leakage"] == [2e-3, 0.0]

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

    # above CHANNEL_CAP (65^2 = 4225 > 4096 joint codes) each seed scores
    # one mechanism draw
    def test_discrete_uses_plugin_leakage(self):
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=65, d=2))
        rep = full_report(model, te, seeds=[0])
        assert rep.leakage_mean >= 0.0

    def test_discrete_attacker_is_the_count_table(self):
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=65, d=2))
        seeds = [0, 7, 11]
        rep = full_report(model, te, seeds=seeds)
        for i, seed in enumerate(seeds):
            emb = embed_dataset(model, te, seed)
            code = np.ravel_multi_index(tuple(emb.indices.T), (65, 65))
            assert rep.per_seed["sensitive_accuracy"][i] == bayes_attacker_accuracy(code, te.s, seed)
            assert rep.per_seed["leakage"][i] == plugin_mi(code, te.s, card_a=65**2, card_b=2)

    def test_continuous_attacker_is_the_known_noise_bayes_rule(self):
        # each seed's figure is the rule on that seed's split and draw, with
        # the test rows' pre-noise vectors as the kernel centers
        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2), epochs=1)
        seeds = [2, 5]
        rep = full_report(model, te, seeds=seeds)
        clean = pre_mechanism(model, te.features)
        assert rep.per_seed["sensitive_accuracy"] == [
            _laplace_attacker(clean, te.s, embed_dataset(model, te, seed).z, model.mechanism.scale, seed)
            for seed in seeds
        ]

    @pytest.mark.parametrize(
        "mech", [RandomizedResponse(epsilon=5.0, k=4, d=2), LaplaceMechanism(epsilon=5.0, t=0.5, d=2)]
    )
    def test_encoder_runs_once_per_report(self, mech, monkeypatch):
        model, te = _trained_model(mech, epochs=1)
        calls = []
        features = EncoderModel.encoder_features
        monkeypatch.setattr(
            EncoderModel, "encoder_features", lambda self, x: calls.append(1) or features(self, x)
        )
        full_report(model, te, seeds=[0, 1, 2])
        assert len(calls) == 1

    def test_requires_seeds(self):
        model, te = _trained_model(LaplaceMechanism(epsilon=5.0, t=0.5, d=2), epochs=1)
        with pytest.raises(PreconditionError):
            full_report(model, te, seeds=[])


def _codeword_predictions(model):
    """The utility decoder's label for each of the k^d codewords, in
    lexicographic code order."""
    mech = model.mechanism
    rows = np.indices((mech.k,) * mech.d).reshape(mech.d, -1).T
    return model.predict_utility(model.codebook.data[rows].reshape(mech.k**mech.d, -1))


class TestChannelFigures:
    """Below CHANNEL_CAP joint codes every discrete figure is an expectation
    over the rr channel."""

    # models whose four codewords do not all get one label
    @pytest.mark.parametrize("model_seed", [2, 7, 9])
    @pytest.mark.parametrize("epsilon", [0.5, 3.0])
    def test_equal_the_enumeration_of_every_draw(self, model_seed, epsilon):
        # k = 2, d = 2 and 5 rows: all 4^5 releases, each weighted by its
        # probability; the groups s = 0 and 1 have 2 and 3 rows
        mech = RandomizedResponse(epsilon=epsilon, k=2, d=2)
        model = EncoderModel([ColumnSpec("a", "numeric", 1, ())], mech, seed=model_seed)
        pred = _codeword_predictions(model)
        assert 0 < pred.sum() < 4
        code, u, s = np.array([0, 3, 1, 3, 2]), np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 1])
        channel = rr_channel(mech).rows
        acc, rate, cell, joint = 0.0, np.zeros(2), np.zeros((2, 2)), np.zeros((4, 2))
        for z in itertools.product(range(4), repeat=5):
            z = np.array(z)
            w = channel[code, z].prod()
            hit = pred[z] == 1
            acc += w * (pred[z] == u).mean()
            for g in (0, 1):
                rate[g] += w * hit[s == g].mean()
                for label in (0, 1):
                    cell[label, g] += w * hit[(s == g) & (u == label)].mean()
            np.add.at(joint, (z, s), w / 5)
        got = _channel_figures(model, code, u, s)
        assert abs(got["accuracy"] - acc) <= 1e-12
        assert abs(got["delta_dp"] - abs(rate[0] - rate[1])) <= 1e-12
        assert abs(got["delta_eo"] - np.abs(cell[:, 0] - cell[:, 1]).max()) <= 1e-12
        assert abs(got["leakage"] - mutual_information(joint)) <= 1e-12

    @pytest.mark.parametrize("k, d", [(2, 2), (3, 2), (4, 1)])
    def test_attacker_equals_the_channel_matrix_formula(self, k, d):
        # the count-table rule fit to the training rows' expected released
        # codes, scored by its expected accuracy on the held-out rows
        mech = RandomizedResponse(epsilon=2.0, k=k, d=d)
        rng = np.random.default_rng(k + d)
        code = rng.integers(0, k**d, 60)
        s = (rng.random(60) < 0.2 + 0.6 * (code % 2)).astype(int)
        channel = rr_channel(mech).rows
        for seed in range(5):
            tr, te = _split(60, seed)
            guess = (channel[code[tr]].T @ np.eye(2)[s[tr]]).argmax(axis=1)
            expected = np.mean([channel[c] @ (guess == sv) for c, sv in zip(code[te], s[te])])
            assert abs(_channel_attacker(code, s, mech, seed) - expected) <= 1e-12

    def test_report_repeats_the_expected_figures_per_seed(self):
        # the figures of the explicit (n, k^d) release matrix W, the same for
        # every seed; only the attacker's split moves with the seed
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=4, d=2))
        seeds = [0, 7, 11]
        rep = full_report(model, te, seeds)
        code = np.ravel_multi_index(tuple(pre_mechanism(model, te.features).T), (4, 4))
        w = rr_channel(model.mechanism).rows[code]
        pred = _codeword_predictions(model)
        hit = w @ (pred == 1)

        def gap(mask):
            return abs(hit[mask & (te.s == 0)].mean() - hit[mask & (te.s == 1)].mean())

        expected = {
            "accuracy": (w * (pred == te.u[:, None])).sum(axis=1).mean(),
            "delta_dp": gap(te.s >= 0),
            "delta_eo": max(gap(te.u == label) for label in (0, 1)),
            "leakage": mutual_information(np.stack([w[te.s == g].sum(axis=0) for g in (0, 1)], 1) / te.n),
        }
        for key, value in expected.items():
            assert len(set(rep.per_seed[key])) == 1 and len(rep.per_seed[key]) == 3
            assert abs(rep.per_seed[key][0] - value) <= 1e-12
            assert getattr(rep, f"{key}_mean") == rep.per_seed[key][0]
            assert getattr(rep, f"{key}_std") == 0.0
        assert rep.per_seed["sensitive_accuracy"] == [
            _channel_attacker(code, te.s, model.mechanism, seed) for seed in seeds
        ]

    def test_leakage_is_below_the_plug_in_mean(self):
        # the propagated leakage is the MI of the draws' expected joint; MI
        # is convex in p(z|s) at fixed p(s), so it is at most the plug-in's
        # expectation, which 20 draws' mean estimates well above it
        model, te = _trained_model(RandomizedResponse(epsilon=5.0, k=4, d=2))
        leak = full_report(model, te, [0]).leakage_mean
        sampled = [
            plugin_mi(np.ravel_multi_index(tuple(embed_dataset(model, te, seed).indices.T), (4, 4)), te.s)
            for seed in range(20)
        ]
        assert 0.0 < leak < np.mean(sampled)
