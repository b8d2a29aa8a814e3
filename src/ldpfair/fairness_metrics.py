"""Group fairness gaps, downstream utility, and attacker-style leakage.

Demographic-parity and equalized-odds gaps are computed from hard
predictions of the trained utility decoder.  The sensitive-recovery
attacker sees only the randomized representation: on released discrete
codes it is the empirical Bayes rule, a count table over the codes, and
on Laplace-noised vectors a small MLP classifier.  Leakage in nats comes
from the plug-in estimator for discrete codes and, for Laplace-noised
vectors, the known-noise Laplace-mixture estimator over the test split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datasets import TabularDataset
from .errors import PreconditionError
from .fair_encoder import EncoderModel, joint_code, pre_mechanism, randomize
from .info_measures import laplace_mixture_mi, plugin_mi

DOWNSTREAM_EPOCHS = 40
DOWNSTREAM_BATCH = 256
DOWNSTREAM_LR = 1e-3
DOWNSTREAM_TEST_FRACTION = 0.3


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


def train_downstream(representations, labels, seed: int) -> DownstreamClassifier:
    """Fit a 1-hidden-layer (100-unit) MLP with Adam on a seeded split.

    The labels are class indices 0, 1, ...: whole numbers, ints or floats
    such as 0.0 and 1.0, and never negative; anything else raises
    PreconditionError.  The reported accuracy is on the held-out
    `DOWNSTREAM_TEST_FRACTION` of the rows.  Constant labels are not an
    error here: the classifier is trivially perfect and the result is
    flagged degenerate so callers can discount it.  Each minibatch's mean negative log-likelihood is
    differentiated by `autodiff.MlpPass` into one flat gradient buffer for
    Adam, bit for bit the gradient the tape would give, and the held-out
    predictions come from the same pass's forward.
    """
    z = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    raw = np.asarray(labels).reshape(-1)
    if raw.dtype.kind == "f" and not (np.isfinite(raw).all() and (raw == np.round(raw)).all()):
        raise PreconditionError("train_downstream: labels must be whole numbers")
    y = raw.astype(np.intp)
    if y.size and y.min() < 0:
        raise PreconditionError(f"train_downstream: negative label {y.min()}")
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
    cut = max(1, int(round(z.shape[0] * (1.0 - DOWNSTREAM_TEST_FRACTION))))
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
    preds = np.argmax(mlp.forward(z[te]), axis=1)
    return DownstreamClassifier(net=net, accuracy=float((preds == y[te]).mean()))


def sensitive_accuracy(representations, s, seed: int) -> float:
    """Held-out accuracy of an attacker predicting s from representations."""
    sv = np.asarray(s).reshape(-1)
    if np.unique(sv).size < 2:
        raise PreconditionError("sensitive_accuracy: s takes a single value")
    return train_downstream(representations, sv, seed).accuracy


def bayes_attacker_accuracy(codes, s, seed: int) -> float:
    """Held-out accuracy of the empirical Bayes rule predicting s from codes.

    On a seeded split of `sensitive_accuracy`'s sizes, each code seen in
    the training part predicts its most frequent s there, and a code never
    seen predicts the training majority; ties go to the lowest s.  Over a
    finite alphabet no attacker is more accurate on the training part
    (Bayes vulnerability: Smith, "On the Foundations of Quantitative
    Information Flow", FoSSaCS 2009).  Only the codes that occur are
    counted, so memory is O(n) whatever the alphabet size.
    """
    c = np.asarray(codes).reshape(-1)
    s_vals, sv = np.unique(np.asarray(s).reshape(-1), return_inverse=True)
    if s_vals.size < 2:
        raise PreconditionError("bayes_attacker_accuracy: s takes a single value")
    if c.size != sv.size:
        raise PreconditionError("bayes_attacker_accuracy: code/label counts disagree")
    if c.size < 10:
        raise PreconditionError("bayes_attacker_accuracy: need at least 10 samples")
    order = np.random.default_rng(seed).permutation(c.size)
    cut = max(1, int(round(c.size * (1.0 - DOWNSTREAM_TEST_FRACTION))))
    tr, te = order[:cut], order[cut:]
    code = np.unique(c, return_inverse=True)[1].reshape(-1)
    m = s_vals.size
    table = np.bincount(code[tr] * m + sv[tr], minlength=(code.max() + 1) * m).reshape(-1, m)
    guess = table.argmax(axis=1)  # argmax takes the lowest s on ties
    guess[table.sum(axis=1) == 0] = np.bincount(sv[tr], minlength=m).argmax()
    return float((guess[code[te]] == sv[te]).mean())


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


def full_report(model: EncoderModel, test_ds: TabularDataset, seeds: list[int]) -> EvalReport:
    """Randomize the test split's encoder output once per seed and
    aggregate all metrics.

    The encoder runs once; each seed fixes a single mechanism draw per
    datum.  Utility predictions come from the trained utility decoder.  On
    discrete codes the attacker is the empirical Bayes rule over the
    released joint codes (`bayes_attacker_accuracy`) and leakage toward s
    is their plug-in mutual information; on continuous vectors the
    attacker is an MLP trained on the noisy vectors (`sensitive_accuracy`)
    and leakage is the Laplace-mixture estimate, which scores the draw
    against the exact noise density around every pre-noise encoder output.
    """
    if not seeds:
        raise PreconditionError("full_report: need at least one seed")
    per = {k: [] for k in ("accuracy", "delta_dp", "delta_eo", "leakage", "sensitive_accuracy")}
    clean = pre_mechanism(model, test_ds.features)
    for seed in seeds:
        emb = randomize(model, clean, np.random.default_rng(seed))
        preds = model.predict_utility(emb.z)
        per["accuracy"].append(float((preds == test_ds.u).mean()))
        per["delta_dp"].append(delta_dp(preds, test_ds.s))
        per["delta_eo"].append(delta_eo(preds, test_ds.s, test_ds.u))
        if model.discrete:
            k, d = model.mechanism.k, model.mechanism.d
            code = joint_code(emb.indices, k)
            per["leakage"].append(plugin_mi(code, test_ds.s, card_a=k**d, card_b=2))
            per["sensitive_accuracy"].append(bayes_attacker_accuracy(code, test_ds.s, seed))
        else:
            # no I(S;Z) is below 0, but the estimate's logs are biased low and
            # can take it there near independence (see laplace_mixture_mi)
            per["leakage"].append(
                max(0.0, laplace_mixture_mi(clean, test_ds.s, emb.z, model.mechanism.scale))
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
