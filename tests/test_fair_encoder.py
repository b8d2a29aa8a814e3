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
    generate_synthetic,
    load_model,
    mc_loss,
    quantize,
    random_channel,
    random_source,
    rr_channel,
    save_model,
    train,
    true_posteriors,
    variational_objective,
)
from ldpfair import autodiff as ad
from ldpfair import fair_encoder as fe
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
        meta, arrays = ad.load_checkpoint(path)
        if damage == "shape":
            arrays["p0"] = arrays["p0"][:-1]
        else:
            del arrays[f"p{len(arrays) - 1}"]
        ad.save_checkpoint(path, meta, arrays)
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
