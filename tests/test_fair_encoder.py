import numpy as np
import pytest

from ldpfair import (
    ColumnSpec,
    DatasetError,
    LaplaceMechanism,
    PreconditionError,
    RandomizedResponse,
    SyntheticSpec,
    TrainConfig,
    embed_dataset,
    encode,
    full_report,
    generate_synthetic,
    load_model,
    mc_loss,
    quantize,
    random_channel,
    random_source,
    rr_channel,
    rr_randomize,
    save_model,
    train,
    true_posteriors,
    variational_objective,
)
from ldpfair import autodiff as ad
from ldpfair import fair_encoder as fe
from ldpfair.datasets import load_checkpoint, save_checkpoint
from ldpfair.fair_encoder import EncoderModel


def toy_dataset(n_train=600, n_test=400, card_x=4, sigma=0.4, seed=0):
    src = random_source(2, 2, card_x, seed=seed)
    spec = SyntheticSpec(
        source=src, means=2.0 * np.eye(card_x), sigma=sigma, n_train=n_train,
        n_test=n_test, seed=seed,
    )
    tr, te = generate_synthetic(spec)
    return src, tr, te


class TestQuantize:
    def test_nearest_assignment(self):
        codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, emb = quantize(np.array([[0.1, 0.2], [0.9, 0.8]]), codebook)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(emb, codebook)

    def test_tie_breaks_to_lowest_index(self):
        codebook = np.array([[1.0], [-1.0]])
        idx, _ = quantize(np.array([[0.0]]), codebook)
        assert idx[0] == 0

    def test_dim_mismatch(self):
        with pytest.raises(PreconditionError):
            quantize(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_batch_shape_preserved(self):
        idx, emb = quantize(np.zeros((5, 3, 2)), np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert idx.shape == (5, 3)
        assert emb.shape == (5, 3, 2)


class TestQuantizeBlocks:
    """`quantize` forms the distances a block of rows at a time."""

    @staticmethod
    def unblocked(features, codebook):
        flat = features.reshape(-1, codebook.shape[1])
        d2 = (flat * flat).sum(axis=1, keepdims=True) - 2.0 * flat @ codebook.T + (codebook * codebook).sum(axis=1)
        return np.argmin(d2, axis=1).reshape(features.shape[:-1])

    @pytest.mark.parametrize("k", [7, 40, 300])
    def test_many_blocks_equal_one(self, monkeypatch, k):
        # a 256-entry block holds 36, 6 and (k alone exceeding it) 1 row
        rng = np.random.default_rng(k)
        feats, codebook = rng.normal(size=(103, 2, 3)), rng.normal(size=(k, 3))
        monkeypatch.setattr(fe, "QUANTIZE_BLOCK", 256)
        idx, emb = quantize(feats, codebook)
        np.testing.assert_array_equal(idx, self.unblocked(feats, codebook))
        np.testing.assert_array_equal(emb, codebook[idx])

    def test_memory_is_bounded_at_a_large_alphabet(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        feats, codebook = rng.normal(size=(200, 2, 8)), rng.normal(size=(100_000, 8))
        tracemalloc.start()
        try:
            idx, _ = quantize(feats, codebook)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 400 x 10^5 distance matrix would take 320 MB
        assert peak < 32 * 2**20
        np.testing.assert_array_equal(idx[:5], self.unblocked(feats[:5], codebook))


class TestJointCode:
    @pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_ranks_rows_lexicographically(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        z = rng.integers(0, k, size=(60, d))
        code = fe.joint_code(z, k)
        # equal rows share a code, and codes order the rows as tuples do
        rows = [tuple(r) for r in z]
        for i in range(60):
            for j in range(60):
                assert (code[i] < code[j]) == (rows[i] < rows[j])
                assert (code[i] == code[j]) == (rows[i] == rows[j])

    def test_no_wrap_past_int64(self):
        # 2^16 symbols at d = 4: k^d = 2^64, where a mixed-radix index wraps
        k = 2**16
        z = np.array([[0, 0, 0, 1], [k - 1, k - 1, k - 1, k - 1], [1, 0, 0, 0], [0, 0, 0, 1], [k - 1, 0, 0, 0]])
        np.testing.assert_array_equal(fe.joint_code(z, k), [0, 3, 1, 0, 2])
        assert np.array_equal(fe.joint_code(z[:, :1], k), z[:, 0])


class TestEncode:
    def test_continuous_representation_shape_and_noise(self):
        _, tr, _ = toy_dataset()
        mech = LaplaceMechanism(epsilon=5.0, t=0.5, d=2)
        model = EncoderModel(tr.schema, mech, seed=0)
        out = encode(model, tr.features[:50], np.random.default_rng(0))
        assert out.z.shape == (50, 2)
        assert out.indices is None
        # pre-noise encoder output is truncated to [-t, t]
        assert np.abs(model.encoder_features(tr.features[:50])).max() <= mech.t

    def test_discrete_zero_budget_output_independent_of_input(self):
        # at epsilon = 0 the randomized code carries no input information
        _, tr, _ = toy_dataset()
        mech = RandomizedResponse(epsilon=0.0, k=4, d=2)
        model = EncoderModel(tr.schema, mech, seed=0)
        out = encode(model, tr.features, np.random.default_rng(0))
        freq = np.bincount(out.indices.ravel(), minlength=4) / out.indices.size
        np.testing.assert_allclose(freq, 0.25, atol=0.05)

    def test_embed_dataset_frozen_draw(self):
        _, tr, te = toy_dataset()
        model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=5.0, t=0.5, d=2), seed=0)
        a = embed_dataset(model, te, seed=3)
        b = embed_dataset(model, te, seed=3)
        np.testing.assert_array_equal(a.z, b.z)


class TestMcLoss:
    def test_batch_validation(self):
        _, tr, _ = toy_dataset()
        model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=5.0, t=0.5, d=2), seed=0)
        with pytest.raises(PreconditionError):
            mc_loss(model, tr.features[:5], tr.u[:4], tr.s[:5], TrainConfig(), np.random.default_rng(0))

    def test_more_samples_reduce_variance(self):
        _, tr, _ = toy_dataset()
        model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=1.0, t=0.5, d=2), seed=0)
        batch = (tr.features[:256], tr.u[:256], tr.s[:256])

        def spread(L):
            vals = [
                mc_loss(model, *batch, TrainConfig(mc_samples=L), np.random.default_rng(s)).total
                for s in range(12)
            ]
            return np.std(vals)

        assert spread(8) < spread(1)

    def test_matches_enumerated_expectation(self):
        # enumerable toy model: |X| = |S| = |U| = 2, K = 2, d = 1; the only
        # randomness is the response flip, so the expectation enumerates
        src = random_source(2, 2, 2, seed=0)
        mech = RandomizedResponse(epsilon=1.0, k=2, d=1)
        schema = [ColumnSpec("f0", "numeric", 1), ColumnSpec("f1", "numeric", 1)]
        model = EncoderModel(schema, mech, seed=1, code_dim=2)
        feats_by_x = np.eye(2)

        # exact expectation over (u, s, x) and the response channel
        ch = rr_channel(mech).rows
        cfg = TrainConfig(beta=2.0)
        exact = 0.0
        for u in range(2):
            for s in range(2):
                for x in range(2):
                    p = src.probs[u, s, x]
                    if p == 0:
                        continue
                    f = model.encoder_features(feats_by_x[x])[0]  # (1, code_dim)
                    idx, emb = quantize(f, model.codebook.data)
                    sse = float(((f - emb) ** 2).sum())  # codebook and commitment value
                    cell = sse + cfg.commitment_weight * sse
                    for z in range(2):
                        z_emb = model.codebook.data[z].reshape(1, -1)
                        nll = -model.side_log_likelihood(z_emb, [s], feats_by_x[x][None])[0]
                        nll -= cfg.beta * model.utility_log_probs(z_emb)[0, u]
                        cell += ch[idx[0], z] * nll
                    exact += p * cell

        # empirical average over 1e5 seeded draws, chunked for memory
        rng = np.random.default_rng(42)
        from ldpfair import sample

        triples = sample(src, 100_000, seed=7)
        total = 0.0
        for lo in range(0, triples.shape[0], 10_000):
            chunk = triples[lo : lo + 10_000]
            bd = mc_loss(model, feats_by_x[chunk[:, 2]], chunk[:, 0], chunk[:, 1], cfg, rng)
            total += bd.total * chunk.shape[0]
        empirical = total / triples.shape[0]
        assert empirical == pytest.approx(exact, abs=0.01)


MIXED_SCHEMA = [
    ColumnSpec("age", "numeric", 1),
    ColumnSpec("work", "categorical", 3, ("a", "b", "c")),
    ColumnSpec("hours", "numeric", 1),
    ColumnSpec("sex", "categorical", 2, ("f", "m")),
]
NUMERIC_SCHEMA = [ColumnSpec(f"f{i}", "numeric", 1) for i in range(4)]


def schema_batch(schema, n, seed):
    rng = np.random.default_rng(seed)
    cols = [
        rng.normal(size=(n, 1)) if c.kind == "numeric" else np.eye(c.size)[rng.integers(0, c.size, n)]
        for c in schema
    ]
    return np.concatenate(cols, axis=1), rng.integers(0, 2, n), rng.integers(0, 2, n)


class TestObjective:
    """The hand-written gradient against the taped `_loss_graph`, bit for bit."""

    @pytest.mark.parametrize("mechanism", ["rr", "laplace"])
    @pytest.mark.parametrize("schema", ["numeric", "mixed"])
    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_equals_tape(self, mechanism, schema, draws):
        mech = (
            RandomizedResponse(epsilon=3.0, k=4, d=2) if mechanism == "rr"
            else LaplaceMechanism(epsilon=3.0, t=0.5, d=2)
        )
        model = EncoderModel(NUMERIC_SCHEMA if schema == "numeric" else MIXED_SCHEMA, mech, seed=1)
        cfg = TrainConfig(beta=1.7, mc_samples=draws)
        objective = fe.Objective(model, cfg)
        params = model.parameters()
        # a full batch, a partial one, and the full size again on reused buffers
        for n, seed in ((64, 5), (37, 6), (64, 7)):
            x, u, s = schema_batch(model.schema, n, seed)
            loss, taped_bd = fe._loss_graph(model, x, u, s, cfg, np.random.default_rng(seed))
            ad.zero_grad(params)
            ad.backward(loss)
            taped = np.concatenate([p.grad.ravel() for p in params])
            assert objective(x, u, s, np.random.default_rng(seed)) == taped_bd
            assert np.array_equal(objective.grad, taped)

    def test_train_steps_equal_taped_steps(self):
        # three Adam steps through train against the same steps on the tape
        _, tr, _ = toy_dataset(n_train=300)
        cfg = TrainConfig(epochs=1, batch_size=128, seed=4, mc_samples=2)
        mech = RandomizedResponse(epsilon=2.0, k=4, d=2)
        model = EncoderModel(tr.schema, mech, seed=0)
        history = train(model, tr, cfg)

        ref = EncoderModel(tr.schema, mech, seed=0)
        params, opt = ref.parameters(), ad.AdamState(lr=cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(tr.n)
        total, batches = 0.0, 0
        for lo in range(0, tr.n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            loss, bd = fe._loss_graph(ref, tr.features[sel], tr.u[sel], tr.s[sel], cfg, rng)
            ad.zero_grad(params)
            ad.backward(loss)
            ad.adam_step(params, opt)
            total += bd.total
            batches += 1
        assert batches == 3 and history[0].total == total / batches
        for a, b in zip(model.parameters(), params):
            assert np.array_equal(a.data, b.data)


def per_row_loss_graph(model, x, u, s, cfg, rng):
    """The discrete loss as the tape built it before the (code, u) table:
    the utility decoder on every row, its input (cb[z] - f) + f, and the
    mean of the rows' NLLs.  The reference for the pooled term."""
    n, mech = x.shape[0], model.mechanism
    s_onehot = np.eye(model.card_s)[np.asarray(s, dtype=np.intp)]
    recon_terms, util_terms, cb_terms, cm_terms = [], [], [], []
    h = model.encoder(ad.Tensor(x))
    for _ in range(cfg.mc_samples):
        feats = ad.reshape(h, (n * mech.d, model.code_dim))
        idx, emb = quantize(feats.data, model.codebook.data)
        z_idx = rr_randomize(idx.reshape(n, mech.d), mech, rng).reshape(-1)
        emb_rand = model.codebook.data[z_idx]
        dec_in = ad.reshape(ad.add(feats, ad.Tensor(emb_rand - feats.data)), (n, mech.d * model.code_dim))
        picked = ad.gather_rows(model.codebook, idx.reshape(-1))
        cb_terms.append(ad.mean(ad.tsum(ad.square(ad.sub(picked, ad.Tensor(feats.data))), axis=1)))
        cm_terms.append(ad.mean(ad.tsum(ad.square(ad.sub(feats, ad.Tensor(emb))), axis=1)))
        util_logp = ad.log_softmax(model.utility_decoder(dec_in))
        util_terms.append(ad.mean(ad.mul(ad.Tensor(-1.0), ad.pick(util_logp, u))))
        pred = model.side_decoder(ad.concat([dec_in, ad.Tensor(s_onehot)], axis=1))
        parts = []
        if model._numeric_cols.size:
            diff = ad.sub(ad.take_cols(pred, model._numeric_cols), ad.Tensor(x[:, model._numeric_cols]))
            parts.append(ad.mul(ad.Tensor(0.5), ad.tsum(ad.square(diff), axis=1)))
        for lo, hi in model._cat_slices:
            logp = ad.log_softmax(ad.take_cols(pred, slice(lo, hi)))
            parts.append(ad.mul(ad.Tensor(-1.0), ad.tsum(ad.mul(logp, ad.Tensor(x[:, lo:hi])), axis=1)))
        nll = parts[0]
        for part in parts[1:]:
            nll = ad.add(nll, part)
        recon_terms.append(ad.mean(nll))

    def avg(terms):
        out = terms[0]
        for t in terms[1:]:
            out = ad.add(out, t)
        return ad.mul(out, ad.Tensor(1.0 / len(terms)))

    recon, util, cb, cm = avg(recon_terms), avg(util_terms), avg(cb_terms), avg(cm_terms)
    loss = ad.add(ad.add(recon, ad.mul(ad.Tensor(cfg.beta), util)), ad.add(cb, ad.mul(ad.Tensor(cfg.commitment_weight), cm)))
    values = [float(t.data) for t in (loss, recon, util, cb, cm)]
    params = model.parameters()
    ad.zero_grad(params)
    ad.backward(loss)
    return np.array(values), np.concatenate([p.grad.ravel() for p in params])


def taped_loss_and_grad(model, x, u, s, cfg, rng):
    loss, bd = fe._loss_graph(model, x, u, s, cfg, rng)
    params = model.parameters()
    ad.zero_grad(params)
    ad.backward(loss)
    values = np.array([bd.total, bd.reconstruction, bd.utility, bd.codebook, bd.commitment])
    return values, np.concatenate([p.grad.ravel() for p in params])


class TestPooledUtility:
    """The utility term over the (code, u) table against the per-row term,
    at fixed parameters and mechanism draws.  Only the order of float
    operations differs, so each loss term and the whole gradient agree
    within 1e-12 relative (the gradient relative to its largest entry)."""

    @staticmethod
    def check(model, x, u, s, cfg, seed):
        ref_values, ref_grad = per_row_loss_graph(model, x, u, s, cfg, np.random.default_rng(seed))
        tape_values, tape_grad = taped_loss_and_grad(model, x, u, s, cfg, np.random.default_rng(seed))
        objective = fe.Objective(model, cfg)
        bd = objective(x, u, s, np.random.default_rng(seed))
        values = np.array([bd.total, bd.reconstruction, bd.utility, bd.codebook, bd.commitment])
        for got, grad in ((values, objective.grad), (tape_values, tape_grad)):
            assert np.all(np.abs(got - ref_values) <= 1e-12 * np.abs(ref_values))
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("card_u", [2, 3])
    @pytest.mark.parametrize("draws", [1, 2, 3])
    @pytest.mark.parametrize("schema", ["numeric", "mixed"])
    def test_equals_per_row_term(self, card_u, draws, schema):
        mech = RandomizedResponse(epsilon=3.0, k=4, d=2)
        model = EncoderModel(NUMERIC_SCHEMA if schema == "numeric" else MIXED_SCHEMA, mech, seed=2, card_u=card_u)
        cfg = TrainConfig(beta=1.3, mc_samples=draws)
        for n, seed in ((64, 11), (37, 12)):  # a full batch and a partial one
            x, _, s = schema_batch(model.schema, n, seed)
            u = np.random.default_rng(seed).integers(0, card_u, n)
            self.check(model, x, u, s, cfg, seed)

    def test_all_codes_distinct(self):
        # 5000^2 joint codes at epsilon = 1: every row's released code is its own
        mech = RandomizedResponse(epsilon=1.0, k=5000, d=2)
        model = EncoderModel(NUMERIC_SCHEMA, mech, seed=3)
        x, u, s = schema_batch(model.schema, 48, 13)
        z = fe.rr_randomize(fe.pre_mechanism(model, x), mech, np.random.default_rng(13))
        assert np.unique(fe.joint_code(z, mech.k)).size == 48
        self.check(model, x, u, s, TrainConfig(beta=0.8, mc_samples=2), 13)

    def test_a_single_code(self):
        # one input row repeated, and no flip at epsilon = 60: one (code, u) pair
        mech = RandomizedResponse(epsilon=60.0, k=3, d=1)
        model = EncoderModel(NUMERIC_SCHEMA, mech, seed=4)
        x = np.repeat(schema_batch(model.schema, 1, 14)[0], 30, axis=0)
        u, s = np.ones(30, dtype=np.intp), np.arange(30) % 2
        z = fe.rr_randomize(fe.pre_mechanism(model, x), mech, np.random.default_rng(14))
        assert np.unique(z).size == 1
        self.check(model, x, u, s, TrainConfig(beta=2.0, mc_samples=2), 14)

    def test_labels_outside_the_decoder_are_rejected(self):
        model = EncoderModel(NUMERIC_SCHEMA, RandomizedResponse(epsilon=3.0, k=4, d=2), seed=0)
        x, u, s = schema_batch(model.schema, 20, 15)
        for bad in (2, -1):
            u[3] = bad
            with pytest.raises(PreconditionError, match="utility labels"):
                mc_loss(model, x, u, s, TrainConfig(), np.random.default_rng(0))


class TestExactCodewords:
    def test_decoders_see_the_released_codewords(self, monkeypatch):
        # every decoder input row of a training step is codebook[z] of its
        # draw, bit for bit; the utility decoder sees one row per (code, u)
        # pair, in the pairs' order
        _, tr, _ = toy_dataset(n_train=200)
        mech = RandomizedResponse(epsilon=2.0, k=4, d=2)
        model = EncoderModel(tr.schema, mech, seed=0)
        train(model, tr, TrainConfig(epochs=1, batch_size=64, seed=1))  # codes move off their init
        draws, inputs = [], {}
        rr, forward = fe.rr_randomize, ad.MlpPass.forward

        def record_rr(idx, m, rng):
            z = rr(idx, m, rng)
            draws.append((z.copy(), model.codebook.data.copy()))
            return z

        def record_forward(self, x):
            inputs.setdefault(id(self.net), []).append(x.copy())
            return forward(self, x)

        monkeypatch.setattr(fe, "rr_randomize", record_rr)
        monkeypatch.setattr(ad.MlpPass, "forward", record_forward)
        x, u, s = tr.features[:100], tr.u[:100], tr.s[:100]
        fe.Objective(model, TrainConfig(mc_samples=3))(x, u, s, np.random.default_rng(2))
        width = mech.d * model.code_dim
        side, util = inputs[id(model.side_decoder)], inputs[id(model.utility_decoder)]
        assert len(draws) == len(side) == len(util) == 3
        for (z, cb), side_in, util_in in zip(draws, side, util):
            released = cb[z].reshape(100, width)
            assert np.array_equal(side_in[:, :width], released)
            first = {}
            for i, pair in enumerate(zip(map(tuple, z), u)):
                first.setdefault(pair, i)
            assert np.array_equal(util_in, released[[first[pair] for pair in sorted(first)]])


class TestTrain:
    def test_loss_decreases_continuous(self):
        _, tr, _ = toy_dataset()
        model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=5.0, t=0.5, d=2), seed=0)
        hist = train(model, tr, TrainConfig(epochs=8, batch_size=128))
        assert hist[-1].total < hist[0].total

    def test_loss_decreases_discrete(self):
        # the codebook term transiently grows while codes chase the encoder,
        # so the stable progress signal is the variational part of the loss
        _, tr, _ = toy_dataset()
        model = EncoderModel(tr.schema, RandomizedResponse(epsilon=5.0, k=4, d=2), seed=0)
        hist = train(model, tr, TrainConfig(epochs=8, batch_size=128))
        start = hist[0].reconstruction + hist[0].utility
        end = hist[-1].reconstruction + hist[-1].utility
        assert end < start
        assert hist[-1].codebook >= 0.0 and hist[-1].commitment >= 0.0

    def test_deterministic_given_seed(self):
        _, tr, _ = toy_dataset(n_train=300)
        losses = []
        for _ in range(2):
            model = EncoderModel(tr.schema, LaplaceMechanism(epsilon=5.0, t=0.5, d=2), seed=0)
            hist = train(model, tr, TrainConfig(epochs=2, batch_size=128, seed=9))
            losses.append(hist[-1].total)
        assert losses[0] == losses[1]


MECHANISMS = [RandomizedResponse(epsilon=5.0, k=4, d=2), LaplaceMechanism(epsilon=5.0, t=0.5, d=2)]


class TestNoTapeInProduction:
    """The tape is the reference only: training and evaluation run every
    network through `MlpPass`."""

    @pytest.mark.parametrize("mech", MECHANISMS, ids=["rr", "laplace"])
    def test_train_and_evaluate_run_no_tape_forward(self, monkeypatch, mech):
        def tape(*args, **kwargs):
            raise AssertionError("a tape forward ran")

        monkeypatch.setattr(ad.Mlp, "__call__", tape)
        monkeypatch.setattr(ad, "log_softmax", tape)
        _, tr, te = toy_dataset(n_train=300, n_test=200)
        model = EncoderModel(tr.schema, mech, seed=0)
        train(model, tr, TrainConfig(epochs=1, batch_size=128))
        encode(model, te.features, np.random.default_rng(0))
        full_report(model, te, [0, 1])

    @pytest.mark.parametrize("mech", MECHANISMS, ids=["rr", "laplace"])
    def test_forwards_equal_the_tape_bit_for_bit(self, mech):
        _, tr, _ = toy_dataset(n_train=300)
        model = EncoderModel(tr.schema, mech, seed=0)
        train(model, tr, TrainConfig(epochs=1, batch_size=128))
        x, s = tr.features[:150], tr.s[:150]
        h = model.encoder(ad.Tensor(x)).data
        if model.discrete:
            np.testing.assert_array_equal(model.encoder_features(x), h.reshape(150, mech.d, model.code_dim))
        else:
            np.testing.assert_array_equal(model.encoder_features(x), mech.t * np.tanh(h))
        z = encode(model, x, np.random.default_rng(1)).z
        np.testing.assert_array_equal(
            model.utility_log_probs(z), ad.log_softmax(model.utility_decoder(ad.Tensor(z))).data
        )
        pred = model.side_decoder(ad.Tensor(np.concatenate([z, np.eye(2)[s]], axis=1))).data
        ll = np.zeros(150)
        if model._numeric_cols.size:
            diff = pred[:, model._numeric_cols] - x[:, model._numeric_cols]
            ll -= 0.5 * (diff * diff).sum(axis=1)
        for lo, hi in model._cat_slices:
            ll += (x[:, lo:hi] * ad.log_softmax(ad.Tensor(pred[:, lo:hi])).data).sum(axis=1)
        np.testing.assert_array_equal(model.side_log_likelihood(z, s, x), ll)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        _, tr, _ = toy_dataset(n_train=200)
        model = EncoderModel(tr.schema, RandomizedResponse(epsilon=2.0, k=4, d=2), seed=0)
        train(model, tr, TrainConfig(epochs=1, batch_size=64))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert loaded.mechanism == model.mechanism


    @pytest.mark.parametrize("damage", ["shape", "count"])
    def test_mismatched_checkpoint_is_a_dataset_error(self, tmp_path, damage):
        _, tr, _ = toy_dataset(n_train=200)
        model = EncoderModel(tr.schema, RandomizedResponse(epsilon=2.0, k=4, d=2), seed=0)
        path = tmp_path / "model.npz"
        save_model(model, path)
        meta, arrays = load_checkpoint(path)
        if damage == "shape":
            arrays["p0"] = arrays["p0"][:-1]
        else:
            del arrays[f"p{len(arrays) - 1}"]
        save_checkpoint(path, meta, arrays)
        with pytest.raises(DatasetError, match="model.npz"):
            load_model(path)


class TestVariationalBound:
    def test_random_decoders_never_exceed_true_posteriors(self):
        src = random_source(2, 2, 3, seed=0)
        enc = random_channel(3, 3, seed=1)
        mech_ch = rr_channel(RandomizedResponse(epsilon=1.0, k=3, d=1))
        best = variational_objective(src, enc, mech_ch, beta=2.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            qx = rng.dirichlet(np.ones(3), size=(3, 2)).transpose(2, 0, 1)
            qu = rng.dirichlet(np.ones(2), size=3).T
            val = variational_objective(src, enc, mech_ch, beta=2.0, q_x_given_zs=qx, q_u_given_z=qu)
            assert val <= best + 1e-12

    def test_equality_at_true_posteriors(self):
        src = random_source(2, 2, 3, seed=5)
        enc = random_channel(3, 3, seed=6)
        mech_ch = rr_channel(RandomizedResponse(epsilon=0.7, k=3, d=1))
        xp, up = true_posteriors(src, enc, mech_ch)
        a = variational_objective(src, enc, mech_ch, beta=1.5)
        b = variational_objective(src, enc, mech_ch, beta=1.5, q_x_given_zs=xp, q_u_given_z=up)
        assert abs(a - b) <= 1e-9

    def test_decoder_table_validation(self):
        src = random_source(2, 2, 3, seed=0)
        enc = random_channel(3, 3, seed=1)
        mech_ch = rr_channel(RandomizedResponse(epsilon=1.0, k=3, d=1))
        bad = np.full((3, 3, 2), 0.2)  # columns do not sum to 1
        with pytest.raises(PreconditionError):
            variational_objective(src, enc, mech_ch, beta=1.0, q_x_given_zs=bad)


class TestConfigValidation:
    def test_invalid_train_config(self):
        with pytest.raises(PreconditionError):
            TrainConfig(mc_samples=0)
        with pytest.raises(PreconditionError):
            TrainConfig(commitment_weight=0.0)
        with pytest.raises(PreconditionError):
            TrainConfig(learning_rate=-1.0)
