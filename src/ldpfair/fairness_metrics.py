"""Group fairness gaps, downstream utility, and attacker-style leakage.

Demographic-parity and equalized-odds gaps are computed from the
predictions of the trained utility decoder on the randomized
representation.  The sensitive-recovery attacker sees only that
representation: on released discrete codes it is the empirical Bayes
rule, a count table over the codes, and on Laplace-noised vectors a small
MLP classifier.  Below `CHANNEL_CAP` joint codes every discrete figure is
exact in expectation over the randomized-response channel: the test
split's pre-mechanism codes are pushed through the known channel, the
sample-propagation estimator of Goldfeld et al. (arXiv:1810.05728), so
leakage carries no plug-in bias and the seeds drive only the attacker's
split.  Above the cap a discrete figure is that of one mechanism draw a
seed, with plug-in leakage.  For Laplace-noised vectors leakage is the
known-noise Laplace-mixture estimator over the test split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datasets import TabularDataset
from .errors import PreconditionError
from .fair_encoder import EncoderModel, joint_code, pre_mechanism, randomize
from .info_measures import laplace_mixture_mi, mutual_information, plugin_mi
from .ldp_mechanisms import CHANNEL_CAP, RandomizedResponse, rr_propagate

DOWNSTREAM_EPOCHS = 40
DOWNSTREAM_BATCH = 256
DOWNSTREAM_LR = 1e-3
DOWNSTREAM_TEST_FRACTION = 0.3


def _rate_gap(ones, rows, where: str) -> float:
    """|ones[0] / rows[0] - ones[1] / rows[1]|: the gap between groups
    s = 0 and 1 in the rate of predicting 1, from each group's count of
    rows predicted 1 (or its expectation over the mechanism) and its count
    of rows."""
    for group in (0, 1):
        if not rows[group]:
            raise PreconditionError(f"{where} s={group} is empty")
    return float(abs(ones[0] / rows[0] - ones[1] / rows[1]))


def delta_dp(preds, s) -> float:
    """Demographic-parity gap |Pr[pred=1 | s=0] - Pr[pred=1 | s=1]|."""
    p = np.asarray(preds).reshape(-1)
    sv = np.asarray(s).reshape(-1)
    if p.size != sv.size:
        raise PreconditionError("delta_dp: predictions and s differ in length")
    groups = [sv == group for group in (0, 1)]
    return _rate_gap([(p[m] == 1).sum() for m in groups], [m.sum() for m in groups], "delta_dp: group")


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
        cells = [(sv == group) & (uv == label) for group in (0, 1)]
        ones, rows = [(p[m] == 1).sum() for m in cells], [m.sum() for m in cells]
        worst = max(worst, _rate_gap(ones, rows, f"delta_eo: cell u={label},"))
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
    tr, te = _attacker_split(c.size, seed)
    code = np.unique(c, return_inverse=True)[1].reshape(-1)
    m = s_vals.size
    table = np.bincount(code[tr] * m + sv[tr], minlength=(code.max() + 1) * m).reshape(-1, m)
    guess = table.argmax(axis=1)  # argmax takes the lowest s on ties
    guess[table.sum(axis=1) == 0] = np.bincount(sv[tr], minlength=m).argmax()
    return float((guess[code[te]] == sv[te]).mean())


def _attacker_split(n: int, seed: int):
    """The count-table attacker's seeded training and held-out rows, of
    `sensitive_accuracy`'s sizes."""
    if n < 10:
        raise PreconditionError("the attacker needs at least 10 samples")
    order = np.random.default_rng(seed).permutation(n)
    cut = max(1, int(round(n * (1.0 - DOWNSTREAM_TEST_FRACTION))))
    return order[:cut], order[cut:]


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
    """Accuracy, fairness gaps, leakage and attacker accuracy of the
    encoder's released representation of the test split, over `seeds`.

    The encoder runs once.  On the discrete family with at most
    `CHANNEL_CAP` joint codes, every figure is exact in expectation over
    the rr mechanism: the pre-mechanism codes' count tables are pushed
    through the known channel (`rr_propagate`) instead of drawn, and the
    utility decoder runs once over the k^d codewords.
    - Accuracy is the expected accuracy of the randomized classifier, the
      decoder's prediction on the released code.
    - ΔDP and ΔEO are the gaps between the groups' expected rates of
      predicting 1: the fairness of that randomized classifier, not the
      mean of per-draw gaps.
    - Leakage is I(S;Z) of the expected joint of released code and s, so
      it carries no plug-in bias.
    - The attacker is the empirical Bayes rule on a seeded 70/30 split,
      fit to the expected training table and scored by its expected
      accuracy on the held-out rows (`_channel_attacker`).
    So `seeds` drive only the attacker's split; the other four figures
    repeat per seed and their `_std` fields read 0.

    Otherwise each seed fixes a single mechanism draw per datum, and the
    figures are those of the draw.  Above the cap the attacker is the
    empirical Bayes rule over the released joint codes
    (`bayes_attacker_accuracy`) and leakage toward s is their plug-in
    mutual information.  On continuous vectors the attacker is an MLP
    trained on the noisy vectors (`sensitive_accuracy`) and leakage is the
    Laplace-mixture estimate, which scores the draw against the exact noise
    density around every pre-noise encoder output.
    """
    if not seeds:
        raise PreconditionError("full_report: need at least one seed")
    clean = pre_mechanism(model, test_ds.features)
    mech = model.mechanism
    if model.discrete and mech.k**mech.d <= CHANNEL_CAP:
        code = np.ravel_multi_index(tuple(clean.T), (mech.k,) * mech.d)  # lexicographic
        figures = _channel_figures(model, code, test_ds.u, test_ds.s)
        per = {key: [value] * len(seeds) for key, value in figures.items()}
        per["sensitive_accuracy"] = [_channel_attacker(code, test_ds.s, mech, seed) for seed in seeds]
    else:
        per = _sampled_figures(model, clean, test_ds, seeds)

    def mean_std(key):
        vals = np.array(per[key])
        if (vals == vals[0]).all():  # a mean of equal values can differ from them in the last bit
            return float(vals[0]), 0.0
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


def _channel_figures(model: EncoderModel, code, u, s) -> dict:
    """Accuracy, ΔDP, ΔEO and leakage in expectation over the rr channel,
    for rows with pre-mechanism joint codes `code` (lexicographic ranks
    below k^d) and labels u and s: what `full_report` repeats per seed."""
    mech = model.mechanism
    size = mech.k**mech.d
    u, s = np.asarray(u, dtype=np.intp), np.asarray(s, dtype=np.intp)
    cu, cs = max(model.card_u, int(u.max()) + 1), max(2, int(s.max()) + 1)
    counts = np.bincount((code * cu + u) * cs + s, minlength=size * cu * cs).reshape(size, -1)
    # released[z, u, s]: expected rows with labels (u, s) released as code z
    released = rr_propagate(counts, mech).reshape(size, cu, cs)
    rows = counts.reshape(size, cu, cs).sum(axis=0)
    shape = (mech.k,) * mech.d
    codewords = model.codebook.data[np.indices(shape).reshape(mech.d, -1).T]
    pred = model.predict_utility(codewords.reshape(size, -1))
    ones = released[pred == 1].sum(axis=0)  # expected rows predicted 1, by (u, s)
    return {
        "accuracy": float(released[np.arange(size), pred].sum() / code.size),
        "delta_dp": _rate_gap(ones.sum(axis=0), rows.sum(axis=0), "full_report: group"),
        "delta_eo": max(
            _rate_gap(ones[label], rows[label], f"full_report: cell u={label},") for label in (0, 1)
        ),
        "leakage": mutual_information(released.sum(axis=1) / code.size),
    }


def _channel_attacker(code, s, mech: RandomizedResponse, seed: int) -> float:
    """`bayes_attacker_accuracy` in expectation over the rr channel: on the
    same seeded split, each released code predicts its most frequent s in
    the expected training table (the lowest s on ties), and the rule is
    scored by its expected accuracy on the held-out rows."""
    s = np.asarray(s, dtype=np.intp)
    size, cs = mech.k**mech.d, max(2, int(s.max()) + 1)
    tr, te = _attacker_split(code.size, seed)
    seen = rr_propagate(np.bincount(code[tr] * cs + s[tr], minlength=size * cs).reshape(size, cs), mech)
    # hit[c, s]: the probability that code c is released as one the rule sends to s
    hit = rr_propagate(np.eye(cs)[seen.argmax(axis=1)], mech)
    return float(hit[code[te], s[te]].mean())


def _sampled_figures(model: EncoderModel, clean, ds: TabularDataset, seeds) -> dict:
    """`full_report`'s per-seed figures, each from one mechanism draw."""
    per = {k: [] for k in ("accuracy", "delta_dp", "delta_eo", "leakage", "sensitive_accuracy")}
    for seed in seeds:
        emb = randomize(model, clean, np.random.default_rng(seed))
        preds = model.predict_utility(emb.z)
        per["accuracy"].append(float((preds == ds.u).mean()))
        per["delta_dp"].append(delta_dp(preds, ds.s))
        per["delta_eo"].append(delta_eo(preds, ds.s, ds.u))
        if model.discrete:
            k, d = model.mechanism.k, model.mechanism.d
            code = joint_code(emb.indices, k)
            per["leakage"].append(plugin_mi(code, ds.s, card_a=k**d, card_b=2))
            per["sensitive_accuracy"].append(bayes_attacker_accuracy(code, ds.s, seed))
        else:
            # no I(S;Z) is below 0, but the estimate's logs are biased low and
            # can take it there near independence (see laplace_mixture_mi)
            per["leakage"].append(
                max(0.0, laplace_mixture_mi(clean, ds.s, emb.z, model.mechanism.scale))
            )
            per["sensitive_accuracy"].append(sensitive_accuracy(emb.z, ds.s, seed))
    return per
