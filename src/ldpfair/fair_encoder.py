"""Variational encoder training under a local-privacy randomizer.

Two model families share one training loop.  The continuous family maps
features to a truncated real vector (t * tanh of the encoder output) and
adds Laplace noise; the discrete family vector-quantizes the encoder
output against a learned codebook and randomizes the code indices.  In
both cases the decoders only ever see the randomized representation, so
everything downstream of the mechanism inherits its privacy guarantee.

The minimized loss is a Monte Carlo estimate (L draws of the mechanism
per datum) of

    E[-log q(x | z, s)] + beta * E[-log q(u | z)]

plus, for the discrete family, the codebook and commitment terms.
`Objective` computes that loss and its gradient by hand over buffered
network passes, and `train` and `mc_loss` use it; `_loss_graph` builds the
same loss on the autodiff tape and stays as the reference it is tested
against, bit for bit.  The module also carries exact enumeration helpers
for small finite models so the sampled loss and the variational bound can
be checked against closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .datasets import ColumnSpec, TabularDataset
from .discrete_source import Channel, JointSourceUSX, compose, induced_joint
from .errors import DatasetError, DivergenceError, PreconditionError
from .ldp_mechanisms import (
    LaplaceMechanism,
    RandomizedResponse,
    laplace_randomize,
    rr_randomize,
)

DEFAULT_CODE_DIM = 8
HIDDEN_WIDTH = 100


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the minibatch training loop."""

    beta: float = 1.0
    epochs: int = 150
    batch_size: int = 512
    learning_rate: float = 1e-3
    mc_samples: int = 1  # mechanism draws per datum per step
    commitment_weight: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise PreconditionError("mc_samples must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise PreconditionError("epochs and batch_size must be >= 1")
        if self.commitment_weight <= 0:
            raise PreconditionError("commitment_weight must be > 0")
        if self.learning_rate <= 0:
            raise PreconditionError("learning_rate must be > 0")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term averages for one evaluation or one epoch."""

    total: float
    reconstruction: float
    utility: float
    codebook: float = 0.0
    commitment: float = 0.0


@dataclass
class Embeddings:
    """Mechanism-randomized representations for a batch.

    Continuous: z is the noisy (n, d) real matrix and indices is None.
    Discrete: indices is the randomized (n, d) code matrix and z is its
    (n, d*code_dim) codebook embedding, which is what decoders consume.
    """

    z: np.ndarray
    indices: np.ndarray | None = None


class EncoderModel:
    """Encoder plus utility and side decoders, mode fixed by the mechanism."""

    def __init__(
        self,
        schema: list[ColumnSpec],
        mechanism: LaplaceMechanism | RandomizedResponse,
        seed: int = 0,
        card_u: int = 2,
        card_s: int = 2,
        code_dim: int = DEFAULT_CODE_DIM,
    ):
        self.schema = list(schema)
        self.mechanism = mechanism
        self.card_u = card_u
        self.card_s = card_s
        self.input_dim = sum(c.size for c in schema)
        self.discrete = isinstance(mechanism, RandomizedResponse)
        self.code_dim = code_dim if self.discrete else 0

        rng = np.random.default_rng(seed)
        if self.discrete:
            enc_out = mechanism.d * code_dim
            repr_dim = mechanism.d * code_dim
            # small uniform init keeps codes near the initial feature scale
            bound = 1.0 / mechanism.k
            self.codebook = ad.parameter(
                rng.uniform(-bound, bound, size=(mechanism.k, code_dim))
            )
        else:
            enc_out = mechanism.d
            repr_dim = mechanism.d
            self.codebook = None

        self.encoder = ad.Mlp(
            ad.MlpSpec((self.input_dim, HIDDEN_WIDTH, enc_out), ("relu", "identity")), rng
        )
        self.utility_decoder = ad.Mlp(
            ad.MlpSpec((repr_dim, HIDDEN_WIDTH, HIDDEN_WIDTH, card_u), ("relu", "relu", "identity")),
            rng,
        )
        side_out = sum(c.size for c in schema)
        self.side_decoder = ad.Mlp(
            ad.MlpSpec((repr_dim + card_s, HIDDEN_WIDTH, side_out), ("relu", "identity")), rng
        )

        # decoder output columns per column kind
        offsets = np.cumsum([0] + [c.size for c in schema])
        self._numeric_cols = np.array(
            [offsets[i] for i, c in enumerate(schema) if c.kind == "numeric"], dtype=np.intp
        )
        self._cat_slices = [
            (int(offsets[i]), int(offsets[i + 1]))
            for i, c in enumerate(schema)
            if c.kind == "categorical"
        ]

    def parameters(self) -> list[ad.Tensor]:
        out = self.encoder.parameters() + self.utility_decoder.parameters() + self.side_decoder.parameters()
        if self.codebook is not None:
            out.append(self.codebook)
        return out

    # -- no-grad numpy forwards for evaluation and exact enumeration ---------

    def encoder_features(self, x: np.ndarray) -> np.ndarray:
        """Pre-mechanism encoder output: (n, d) truncated vector for the
        continuous family, (n, d, code_dim) raw features for the discrete."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = self.encoder(ad.Tensor(x)).data
        if self.discrete:
            return h.reshape(x.shape[0], self.mechanism.d, self.code_dim)
        return self.mechanism.t * np.tanh(h)

    def utility_log_probs(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return ad.log_softmax(self.utility_decoder(ad.Tensor(z))).data

    def predict_utility(self, z: np.ndarray) -> np.ndarray:
        """Hard labels from the utility decoder on randomized representations."""
        return np.argmax(self.utility_log_probs(z), axis=1)

    def side_log_likelihood(self, z: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per-sample log q(x | z, s): unit-variance Gaussian on numeric
        columns (up to the additive constant) plus categorical log-softmax."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        s_onehot = np.eye(self.card_s)[np.asarray(s, dtype=np.intp).reshape(-1)]
        pred = self.side_decoder(ad.Tensor(np.concatenate([z, s_onehot], axis=1))).data
        ll = np.zeros(z.shape[0])
        if self._numeric_cols.size:
            diff = pred[:, self._numeric_cols] - x[:, self._numeric_cols]
            ll -= 0.5 * (diff * diff).sum(axis=1)
        for lo, hi in self._cat_slices:
            ll += (x[:, lo:hi] * ad.log_softmax_kernel(pred[:, lo:hi])).sum(axis=1)
        return ll


def quantize(features: np.ndarray, codebook: np.ndarray):
    """Nearest-codebook assignment.

    features: (..., code_dim); codebook: (k, code_dim).  Ties resolve to
    the lowest index.  Returns (indices, embeddings) with the shapes
    (...) and (..., code_dim).
    """
    f = np.asarray(features, dtype=np.float64)
    cb = np.asarray(codebook, dtype=np.float64)
    if f.shape[-1] != cb.shape[1]:
        raise PreconditionError(
            f"feature dim {f.shape[-1]} does not match code dim {cb.shape[1]}"
        )
    flat = f.reshape(-1, cb.shape[1])
    d2 = (flat * flat).sum(axis=1, keepdims=True) - 2.0 * flat @ cb.T + (cb * cb).sum(axis=1)
    idx = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
    return idx.reshape(f.shape[:-1]), cb[idx].reshape(f.shape)


def encode(model: EncoderModel, x: np.ndarray, rng: np.random.Generator) -> Embeddings:
    """Randomized representation of a feature batch; never exposes the
    pre-mechanism value."""
    feats = model.encoder_features(x)
    if model.discrete:
        idx, _ = quantize(feats, model.codebook.data)
        z_idx = rr_randomize(idx, model.mechanism, rng)
        emb = model.codebook.data[z_idx].reshape(z_idx.shape[0], -1)
        return Embeddings(z=emb, indices=z_idx)
    return Embeddings(z=laplace_randomize(feats, model.mechanism, rng))


def embed_dataset(model: EncoderModel, ds: TabularDataset, seed: int) -> Embeddings:
    """One frozen mechanism draw per datum for downstream evaluation."""
    return encode(model, ds.features, np.random.default_rng(seed))


# -- loss --------------------------------------------------------------------


def _loss_graph(model, x, u, s, cfg, rng):
    """Build the scalar loss tensor for one batch on the tape; returns
    (tensor, breakdown).  The reference for `Objective`."""
    n = x.shape[0]
    s_onehot = np.eye(model.card_s)[np.asarray(s, dtype=np.intp)]
    recon_terms, util_terms = [], []
    codebook_terms, commit_terms = [], []

    h = model.encoder(ad.Tensor(x))
    for _ in range(cfg.mc_samples):
        if model.discrete:
            mech = model.mechanism
            feats = ad.reshape(h, (n * mech.d, model.code_dim))
            idx, emb = quantize(feats.data, model.codebook.data)
            z_idx = rr_randomize(
                idx.reshape(n, mech.d), mech, rng
            ).reshape(-1)
            # straight-through: decoders see the randomized embedding, the
            # encoder sees an identity gradient through the quantizer
            emb_rand = model.codebook.data[z_idx]
            dec_in = ad.reshape(
                ad.add(feats, ad.Tensor(emb_rand - feats.data)), (n, mech.d * model.code_dim)
            )
            picked = ad.gather_rows(model.codebook, idx.reshape(-1))
            cb_diff = ad.sub(picked, ad.Tensor(feats.data))
            codebook_terms.append(ad.mean(ad.tsum(ad.square(cb_diff), axis=1)))
            cm_diff = ad.sub(feats, ad.Tensor(emb))
            commit_terms.append(ad.mean(ad.tsum(ad.square(cm_diff), axis=1)))
        else:
            zhat = ad.mul(ad.Tensor(model.mechanism.t), ad.tanh(h))
            noise = rng.laplace(0.0, model.mechanism.scale, size=zhat.shape)
            dec_in = ad.add(zhat, ad.Tensor(noise))

        util_logp = ad.log_softmax(model.utility_decoder(dec_in))
        util_terms.append(ad.mean(ad.mul(ad.Tensor(-1.0), ad.pick(util_logp, u))))

        pred = model.side_decoder(ad.concat([dec_in, ad.Tensor(s_onehot)], axis=1))
        nll_parts = []
        if model._numeric_cols.size:
            cols = model._numeric_cols
            diff = ad.sub(ad.take_cols(pred, cols), ad.Tensor(x[:, cols]))
            nll_parts.append(ad.mul(ad.Tensor(0.5), ad.tsum(ad.square(diff), axis=1)))
        for lo, hi in model._cat_slices:
            logp = ad.log_softmax(ad.take_cols(pred, slice(lo, hi)))
            nll_parts.append(
                ad.mul(ad.Tensor(-1.0), ad.tsum(ad.mul(logp, ad.Tensor(x[:, lo:hi])), axis=1))
            )
        total_nll = nll_parts[0]
        for part in nll_parts[1:]:
            total_nll = ad.add(total_nll, part)
        recon_terms.append(ad.mean(total_nll))

    def avg(terms):
        out = terms[0]
        for t in terms[1:]:
            out = ad.add(out, t)
        return ad.mul(out, ad.Tensor(1.0 / len(terms)))

    recon = avg(recon_terms)
    util = avg(util_terms)
    loss = ad.add(recon, ad.mul(ad.Tensor(cfg.beta), util))
    cb_val = cm_val = 0.0
    if model.discrete:
        cb = avg(codebook_terms)
        cm = avg(commit_terms)
        loss = ad.add(loss, ad.add(cb, ad.mul(ad.Tensor(cfg.commitment_weight), cm)))
        cb_val, cm_val = float(cb.data), float(cm.data)
    breakdown = LossBreakdown(
        total=float(loss.data),
        reconstruction=float(recon.data),
        utility=float(util.data),
        codebook=cb_val,
        commitment=cm_val,
    )
    return loss, breakdown


class Objective:
    """The Monte Carlo loss of one model and its gradient, by hand.

    Calling it on a batch returns the loss breakdown and fills `grad`, one
    flat array over `model.parameters()` in the layout of
    `autodiff.flat_grad`, which `adam_step` takes whole.  Every float
    operation is the one `_loss_graph` tapes, run in the order the tape's
    backward runs it, so the breakdown equals `_loss_graph`'s and `grad`
    the taped gradient, bit for bit; the tape accumulates a gradient fed
    by several mechanism draws in draw order, and so does this.  The three
    networks run through `autodiff.MlpPass`, and each draw's decoder
    passes finish before the next draw reuses their buffers.  Draws from
    `rng` are made in `_loss_graph`'s order.
    """

    def __init__(self, model: EncoderModel, cfg: TrainConfig):
        self.model, self.cfg = model, cfg
        self.params = model.parameters()
        self.grad, views = ad.flat_grad(self.params)
        n_enc, n_util = len(model.encoder.parameters()), len(model.utility_decoder.parameters())
        n_dec = n_util + len(model.side_decoder.parameters())
        self._enc_grads = views[:n_enc]
        self._dec_grads = views[n_enc : n_enc + n_dec]
        self._cb_grad = views[-1] if model.discrete else None
        # decoder gradients of the draws after the first, added to the first's
        self._dec_extra, self._dec_extra_grads = ad.flat_grad(self.params[n_enc : n_enc + n_dec])
        lo = sum(v.size for v in self._enc_grads)
        self._dec_span = slice(lo, lo + self._dec_extra.size)
        self._n_util = n_util
        self._encoder = ad.MlpPass(model.encoder)
        self._utility = ad.MlpPass(model.utility_decoder, input_grad=True)
        self._side = ad.MlpPass(model.side_decoder, input_grad=True)

    def __call__(self, x: np.ndarray, u: np.ndarray, s: np.ndarray, rng: np.random.Generator) -> LossBreakdown:
        model, cfg = self.model, self.cfg
        n, draws = x.shape[0], cfg.mc_samples
        # each term's upstream gradient, formed as the tape's backward forms
        # it through the average over draws
        per_draw = 1.0 / draws
        g_util = cfg.beta * per_draw
        s_onehot = np.eye(model.card_s)[s]

        h = self._encoder.forward(x)
        if model.discrete:
            mech, cb = model.mechanism, model.codebook.data
            feats = h.reshape(n * mech.d, model.code_dim)
            idx, emb = quantize(feats, cb)
            # codebook term: |cb[idx] - sg(feats)|^2, commitment term:
            # |feats - sg(cb[idx])|^2; their values are equal, their
            # gradients go to the codebook and to the encoder
            cm_diff = feats - emb
            sq_dist = (cm_diff * cm_diff).sum(axis=1).mean()
            rows = feats.shape[0]
            g_commit = (2.0 * ((cfg.commitment_weight * per_draw) / rows)) * cm_diff
            g_picked = (2.0 * (per_draw / rows)) * (emb - feats)
            # the tape's np.add.at scatter: per code, the rows' gradients
            # summed in row order from 0, as bincount sums them
            cells = (idx[:, None] * model.code_dim + np.arange(model.code_dim)).ravel()
            cb_grad = np.bincount(cells, weights=g_picked.ravel(), minlength=cb.size).reshape(cb.shape)
        else:
            t_h = ad.ACTIVATIONS["tanh"][0](h)
            zhat = model.mechanism.t * t_h

        recon_terms, util_terms = [], []
        h_grad = None
        for draw in range(draws):
            if model.discrete:
                z_idx = rr_randomize(idx.reshape(n, mech.d), mech, rng).reshape(-1)
                # straight-through: the decoders see the randomized embedding,
                # the encoder an identity gradient through the quantizer
                dec_in = cb[z_idx] - feats
                dec_in += feats
                dec_in = dec_in.reshape(n, -1)
            else:
                dec_in = zhat + rng.laplace(0.0, model.mechanism.scale, size=zhat.shape)
            grads = self._dec_grads if draw == 0 else self._dec_extra_grads

            util_nll, g = ad.nll_and_grad(self._utility.forward(dec_in), u, g_util)
            util_terms.append(util_nll)
            g_util_in = self._utility.backward(g, grads[: self._n_util])

            pred = self._side.forward(np.concatenate([dec_in, s_onehot], axis=1))
            recon, g = self._reconstruction(pred, x, per_draw / n)
            recon_terms.append(recon)
            g_side_in = self._side.backward(g, grads[self._n_util :])
            g_dec = g_util_in + g_side_in[:, : dec_in.shape[1]]
            if draw:
                self.grad[self._dec_span] += self._dec_extra

            if model.discrete:
                g_h = g_dec.reshape(feats.shape) + g_commit
            else:
                g_h = ad.ACTIVATIONS["tanh"][1](g_dec * model.mechanism.t, t_h)
            if h_grad is None:
                h_grad = g_h
            else:
                h_grad += g_h
        self._encoder.backward(h_grad.reshape(h.shape), self._enc_grads)

        def avg(terms):
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            return total * (1.0 / len(terms))

        recon, util = avg(recon_terms), avg(util_terms)
        loss = recon + cfg.beta * util
        cb_val = cm_val = 0.0
        if model.discrete:
            self._cb_grad[...] = cb_grad
            for _ in range(1, draws):
                self._cb_grad += cb_grad
            cb_val = cm_val = avg([sq_dist] * draws)
            loss = loss + (cb_val + cfg.commitment_weight * cm_val)
        return LossBreakdown(
            total=float(loss), reconstruction=float(recon), utility=float(util),
            codebook=float(cb_val), commitment=float(cm_val),
        )

    def _reconstruction(self, pred: np.ndarray, x: np.ndarray, g_row: float):
        """Mean side-decoder NLL of x and its gradient on pred, for upstream
        gradient g_row on each row's NLL: Gaussian on the numeric columns,
        log-softmax on each categorical block."""
        model = self.model
        grad = np.zeros_like(pred)
        parts = []
        if model._numeric_cols.size:
            cols = model._numeric_cols
            diff = pred[:, cols] - x[:, cols]
            parts.append(0.5 * (diff * diff).sum(axis=1))
            grad[:, cols] = (2.0 * (g_row * 0.5)) * diff
        for lo, hi in model._cat_slices:
            logp = ad.log_softmax_kernel(pred[:, lo:hi])
            onehot = x[:, lo:hi]
            parts.append(-1.0 * (logp * onehot).sum(axis=1))
            grad[:, lo:hi] = ad.log_softmax_grad((g_row * -1.0) * onehot, logp)
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total.mean(), grad


def mc_loss(
    model: EncoderModel, x, u, s, cfg: TrainConfig, rng: np.random.Generator
) -> LossBreakdown:
    """Monte Carlo loss of a batch under cfg.mc_samples mechanism draws."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    u = np.asarray(u, dtype=np.intp).reshape(-1)
    s = np.asarray(s, dtype=np.intp).reshape(-1)
    if x.shape[0] != u.size or u.size != s.size:
        raise PreconditionError("mc_loss: batch row counts disagree")
    return Objective(model, cfg)(x, u, s, rng)


def train(model: EncoderModel, ds: TabularDataset, cfg: TrainConfig) -> list[LossBreakdown]:
    """Minibatch Adam training; returns one averaged LossBreakdown per epoch.

    Deterministic given cfg.seed.  Raises DivergenceError naming the epoch
    if the loss goes non-finite.  Gradients come from `Objective`, equal
    to the taped `_loss_graph`'s bit for bit.
    """
    objective = Objective(model, cfg)
    opt = ad.AdamState(lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(ds.n)
        sums = np.zeros(5)
        batches = 0
        for lo in range(0, ds.n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            bd = objective(ds.features[sel], ds.u[sel], ds.s[sel], rng)
            if not np.isfinite(bd.total):
                raise DivergenceError(f"training loss non-finite at epoch {epoch}")
            ad.adam_step(objective.params, opt, objective.grad)
            sums += (bd.total, bd.reconstruction, bd.utility, bd.codebook, bd.commitment)
            batches += 1
        history.append(LossBreakdown(*(sums / batches)))
    return history


# -- checkpoints -------------------------------------------------------------


def save_model(model: EncoderModel, path: str | Path) -> None:
    mech = model.mechanism
    meta = {
        "discrete": model.discrete,
        "card_u": model.card_u,
        "card_s": model.card_s,
        "code_dim": model.code_dim,
        "schema": [(c.name, c.kind, c.size, list(c.categories)) for c in model.schema],
        "mechanism": (
            {"kind": "rr", "epsilon": mech.epsilon, "k": mech.k, "d": mech.d}
            if model.discrete
            else {"kind": "laplace", "epsilon": mech.epsilon, "t": mech.t, "d": mech.d}
        ),
    }
    arrays = {f"p{i}": p.data for i, p in enumerate(model.parameters())}
    ad.save_checkpoint(path, meta, arrays)


def load_model(path: str | Path) -> EncoderModel:
    meta, arrays = ad.load_checkpoint(path)
    m = meta["mechanism"]
    mech = (
        RandomizedResponse(epsilon=m["epsilon"], k=m["k"], d=m["d"])
        if meta["discrete"]
        else LaplaceMechanism(epsilon=m["epsilon"], t=m["t"], d=m["d"])
    )
    schema = [ColumnSpec(n, k, sz, tuple(cats)) for n, k, sz, cats in meta["schema"]]
    model = EncoderModel(
        schema, mech, card_u=meta["card_u"], card_s=meta["card_s"],
        code_dim=meta["code_dim"] or DEFAULT_CODE_DIM,
    )
    params = model.parameters()
    if sorted(arrays) != sorted(f"p{i}" for i in range(len(params))):
        raise DatasetError(f"{path}: checkpoint arrays {sorted(arrays)} do not match the model's {len(params)} parameters")
    for i, p in enumerate(params):
        saved = arrays[f"p{i}"]
        if saved.shape != p.data.shape:
            raise DatasetError(f"{path}: checkpoint array p{i} has shape {saved.shape}, expected {p.data.shape}")
        p.data = saved.astype(np.float64)
    return model


# -- exact enumeration on finite models --------------------------------------


def true_posteriors(src: JointSourceUSX, enc: Channel, mech_ch: Channel):
    """Exact p(x | z, s) and p(u | z) induced by encoder + mechanism.

    Returned as arrays indexed [x, z, s] and [u, z]; cells with an
    impossible conditioning event are left uniform.
    """
    full = induced_joint(src, compose(enc, mech_ch))
    p_xzs = full.p_xzs()
    p_zs = p_xzs.sum(axis=0, keepdims=True)
    x_post = np.divide(
        p_xzs, p_zs, out=np.full_like(p_xzs, 1.0 / p_xzs.shape[0]), where=p_zs > 0
    )
    p_uz = full.p_uz()
    p_z = p_uz.sum(axis=0, keepdims=True)
    u_post = np.divide(p_uz, p_z, out=np.full_like(p_uz, 1.0 / p_uz.shape[0]), where=p_z > 0)
    return x_post, u_post


def variational_objective(
    src: JointSourceUSX,
    enc: Channel,
    mech_ch: Channel,
    beta: float,
    q_x_given_zs: np.ndarray | None = None,
    q_u_given_z: np.ndarray | None = None,
) -> float:
    """Exact E[log q(x|z,s)] + beta * E[log q(u|z)] under the true joint.

    With decoders omitted the true posteriors are used, which maximizes
    the value; any other decoders lower it by the conditional KL terms.
    """
    x_post, u_post = true_posteriors(src, enc, mech_ch)
    qx = x_post if q_x_given_zs is None else np.asarray(q_x_given_zs, dtype=np.float64)
    qu = u_post if q_u_given_z is None else np.asarray(q_u_given_z, dtype=np.float64)
    if qx.shape != x_post.shape or qu.shape != u_post.shape:
        raise PreconditionError("decoder table shapes do not match the model alphabets")
    for q, axis, name in ((qx, 0, "q(x|z,s)"), (qu, 0, "q(u|z)")):
        if np.any(q < 0) or np.any(np.abs(q.sum(axis=axis) - 1.0) > 1e-9):
            raise PreconditionError(f"{name} rows must be probability distributions")

    full = induced_joint(src, compose(enc, mech_ch))
    p_xzs = full.p_xzs()
    p_uz = full.p_uz()
    with np.errstate(divide="ignore"):
        term_x = np.where(p_xzs > 0, p_xzs * np.log(np.where(p_xzs > 0, qx, 1.0)), 0.0).sum()
        term_u = np.where(p_uz > 0, p_uz * np.log(np.where(p_uz > 0, qu, 1.0)), 0.0).sum()
    return float(term_x + beta * term_u)
