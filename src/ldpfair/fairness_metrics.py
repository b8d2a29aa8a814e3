"""Group fairness gaps, downstream utility, and attacker-style leakage.

Demographic-parity and equalized-odds gaps are computed from hard
predictions.  Downstream utility and the sensitive-recovery attack both
use the same small MLP classifier trained on frozen randomized
representations; leakage in nats comes from the plug-in estimator for
discrete codes and, for Laplace-noised vectors, the known-noise
Laplace-mixture estimator over the test split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .datasets import TabularDataset
from .errors import PreconditionError
from .fair_encoder import EncoderModel, embed_dataset
from .info_measures import laplace_mixture_mi, plugin_mi

DOWNSTREAM_EPOCHS = 40
DOWNSTREAM_BATCH = 256
DOWNSTREAM_LR = 1e-3


def delta_dp(preds, s) -> float:
    """Demographic-parity gap |Pr[pred=1 | s=0] - Pr[pred=1 | s=1]|."""
    p = np.asarray(preds).reshape(-1)
    sv = np.asarray(s).reshape(-1)
    if p.size != sv.size:
        raise PreconditionError("delta_dp: predictions and s differ in length")
    rates = []
    for group in (0, 1):
        mask = sv == group
        if not mask.any():
            raise PreconditionError(f"delta_dp: group s={group} is empty")
        rates.append(float((p[mask] == 1).mean()))
    return abs(rates[0] - rates[1])


def delta_eo(preds, s, u) -> float:
    """Equalized-odds gap: the worst per-label demographic gap.

    max over u in {0,1} of |Pr[pred=1 | s=0, U=u] - Pr[pred=1 | s=1, U=u]|.
    """
    p = np.asarray(preds).reshape(-1)
    sv = np.asarray(s).reshape(-1)
    uv = np.asarray(u).reshape(-1)
    if not (p.size == sv.size == uv.size):
        raise PreconditionError("delta_eo: input lengths disagree")
    worst = 0.0
    for label in (0, 1):
        rates = []
        for group in (0, 1):
            mask = (sv == group) & (uv == label)
            if not mask.any():
                raise PreconditionError(f"delta_eo: cell s={group}, u={label} is empty")
            rates.append(float((p[mask] == 1).mean()))
        worst = max(worst, abs(rates[0] - rates[1]))
    return worst


@dataclass
class DownstreamClassifier:
    """Small MLP trained on frozen representations."""

    net: ad.Mlp
    accuracy: float
    degenerate: bool = False  # single-class labels: accuracy 1 is trivial

    def predict(self, representations: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(representations, dtype=np.float64))
        return np.argmax(self.net(ad.Tensor(z)).data, axis=1)


def train_downstream(
    representations, labels, seed: int, test_fraction: float = 0.3
) -> DownstreamClassifier:
    """Fit a 1-hidden-layer (100-unit) MLP with Adam on a seeded split.

    The reported accuracy is on the held-out fraction.  Constant labels
    are not an error here: the classifier is trivially perfect and the
    result is flagged degenerate so callers can discount it.  Each
    minibatch's mean negative log-likelihood is differentiated by
    `autodiff.MlpPass` into one flat gradient buffer for Adam, bit for bit
    the gradient the tape would give.
    """
    z = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    y = np.asarray(labels, dtype=np.intp).reshape(-1)
    if z.shape[0] != y.size:
        raise PreconditionError("train_downstream: representation/label counts disagree")
    if z.shape[0] < 10:
        raise PreconditionError("train_downstream: need at least 10 samples")
    classes = int(y.max()) + 1 if y.size else 0
    rng = np.random.default_rng(seed)
    net = ad.Mlp(
        ad.MlpSpec((z.shape[1], 100, max(classes, 2)), ("relu", "identity")), rng
    )
    if np.unique(y).size < 2:
        return DownstreamClassifier(net=net, accuracy=1.0, degenerate=True)

    order = rng.permutation(z.shape[0])
    cut = max(1, int(round(z.shape[0] * (1.0 - test_fraction))))
    tr, te = order[:cut], order[cut:]
    params = net.parameters()
    opt = ad.AdamState(lr=DOWNSTREAM_LR)
    mlp = ad.MlpPass(net)
    grad, views = ad.flat_grad(params)
    for _ in range(DOWNSTREAM_EPOCHS):
        ep_order = rng.permutation(tr.size)
        for lo in range(0, tr.size, DOWNSTREAM_BATCH):
            sel = tr[ep_order[lo : lo + DOWNSTREAM_BATCH]]
            _, g = ad.nll_and_grad(mlp.forward(z[sel]), y[sel])
            mlp.backward(g, views)
            ad.adam_step(params, opt, grad)
    preds = np.argmax(net(ad.Tensor(z[te])).data, axis=1)
    return DownstreamClassifier(net=net, accuracy=float((preds == y[te]).mean()))


def sensitive_accuracy(representations, s, seed: int) -> float:
    """Held-out accuracy of an attacker predicting s from representations."""
    sv = np.asarray(s, dtype=np.intp).reshape(-1)
    if np.unique(sv).size < 2:
        raise PreconditionError("sensitive_accuracy: s takes a single value")
    return train_downstream(representations, sv, seed).accuracy


@dataclass
class EvalReport:
    """Seed-aggregated evaluation of a trained encoder."""

    accuracy_mean: float
    accuracy_std: float
    delta_dp_mean: float
    delta_dp_std: float
    delta_eo_mean: float
    delta_eo_std: float
    leakage_mean: float
    leakage_std: float
    sensitive_accuracy_mean: float
    sensitive_accuracy_std: float
    seeds: list[int] = field(default_factory=list)
    per_seed: dict = field(default_factory=dict)

    def to_json(self, path: str | Path, extra: dict | None = None) -> None:
        payload = dict(self.__dict__)
        if extra:
            payload.update(extra)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def full_report(model: EncoderModel, test_ds: TabularDataset, seeds: list[int]) -> EvalReport:
    """Embed the test split once per seed and aggregate all metrics.

    Each seed fixes a single mechanism draw per datum; utility predictions
    come from the trained utility decoder, the attacker is trained on the
    same frozen representations, and leakage toward s is estimated by
    plug-in mutual information over discrete codes, or over continuous
    vectors by the Laplace-mixture estimator, which scores the draw against
    the exact noise density around every pre-noise encoder output.
    """
    if not seeds:
        raise PreconditionError("full_report: need at least one seed")
    per = {k: [] for k in ("accuracy", "delta_dp", "delta_eo", "leakage", "sensitive_accuracy")}
    clean = None if model.discrete else model.encoder_features(test_ds.features)
    for seed in seeds:
        emb = embed_dataset(model, test_ds, seed)
        preds = model.predict_utility(emb.z)
        per["accuracy"].append(float((preds == test_ds.u).mean()))
        per["delta_dp"].append(delta_dp(preds, test_ds.s))
        per["delta_eo"].append(delta_eo(preds, test_ds.s, test_ds.u))
        if emb.indices is not None:
            k, d = model.mechanism.k, model.mechanism.d
            joint_code = np.ravel_multi_index(tuple(emb.indices.T), (k,) * d)
            per["leakage"].append(plugin_mi(joint_code, test_ds.s, card_a=k**d, card_b=2))
        else:
            per["leakage"].append(
                laplace_mixture_mi(clean, test_ds.s, emb.z, model.mechanism.scale)
            )
        per["sensitive_accuracy"].append(sensitive_accuracy(emb.z, test_ds.s, seed))

    def mean_std(key):
        vals = np.array(per[key])
        return float(vals.mean()), float(vals.std())

    acc = mean_std("accuracy")
    dp = mean_std("delta_dp")
    eo = mean_std("delta_eo")
    leak = mean_std("leakage")
    sens = mean_std("sensitive_accuracy")
    return EvalReport(
        accuracy_mean=acc[0], accuracy_std=acc[1],
        delta_dp_mean=dp[0], delta_dp_std=dp[1],
        delta_eo_mean=eo[0], delta_eo_std=eo[1],
        leakage_mean=leak[0], leakage_std=leak[1],
        sensitive_accuracy_mean=sens[0], sensitive_accuracy_std=sens[1],
        seeds=list(seeds), per_seed=per,
    )
