"""Entropy and mutual information, exact and estimated.

All quantities are in nats; the privacy-budget bound I(X;Z) <= epsilon
only holds with natural logarithms.  The 0 log 0 = 0 convention is used
throughout.  Exact measures are pure functions over validated probability
arrays; plugin_mi works on paired discrete samples; laplace_mixture_mi
uses the known noise density of Laplace-noised representations; and
mine_estimate is the Donsker-Varadhan neural estimator for continuous
samples whose noise is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DivergenceError, InvalidDistributionError, PreconditionError

_CLAMP_TOL = 1e-9


def _validated(arr, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != ndim:
        raise InvalidDistributionError(f"{what}: expected {ndim} axes, got shape {a.shape}")
    if np.any(a < 0):
        raise InvalidDistributionError(f"{what}: negative entry {a.min():g}")
    total = a.sum()
    if abs(total - 1.0) > 1e-9 or total <= 0:
        raise InvalidDistributionError(f"{what}: mass {total!r} is not 1")
    return a / total


def _clamp_nonneg(value: float) -> float:
    """Snap tiny negative round-off to exactly 0; reject real negatives."""
    if value < -_CLAMP_TOL:
        raise InvalidDistributionError(f"information quantity {value:g} below -{_CLAMP_TOL}")
    return max(value, 0.0)


def _plogp(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float((nz * np.log(nz)).sum())


def entropy(dist) -> float:
    """Shannon entropy H(p) = -sum p log p in nats."""
    p = _validated(dist, 1, "entropy")
    return _clamp_nonneg(-_plogp(p))


def mutual_information(joint) -> float:
    """I(A;B) from a 2-axis joint, in nats."""
    j = _validated(joint, 2, "mutual_information")
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    # I = sum p(a,b) log p(a,b) - sum p(a) log p(a) - sum p(b) log p(b)
    return _clamp_nonneg(_plogp(j.reshape(-1)) - _plogp(pa) - _plogp(pb))


def conditional_mi(joint) -> float:
    """I(X;Z|S) from a 3-axis joint over (x, z, s), in nats."""
    j = _validated(joint, 3, "conditional_mi")
    total = 0.0
    for s in range(j.shape[2]):
        ps = j[:, :, s].sum()
        if ps > 0:
            total += ps * mutual_information(j[:, :, s] / ps)
    return _clamp_nonneg(total)


def plugin_mi(samples_a, samples_b, card_a=None, card_b=None, smoothing: float = 0.0) -> float:
    """Plug-in MI of the empirical joint over paired discrete labels.

    Optional additive smoothing adds pseudo-counts to every cell of the
    declared card_a x card_b table before normalizing.  With the default 0
    the estimate is biased upward by about (K - 1)(L - 1) / (2n) nats for
    K x L cells and n samples, so it can exceed the true MI, and any
    data-processing ceiling, at small n.  Only the labels that occur are
    counted, so memory is O(n) whatever the declared cardinalities.
    """
    a = np.asarray(samples_a, dtype=np.intp).reshape(-1)
    b = np.asarray(samples_b, dtype=np.intp).reshape(-1)
    if a.size != b.size:
        raise PreconditionError(f"plugin_mi: {a.size} vs {b.size} samples")
    if a.size < 2:
        raise PreconditionError("plugin_mi: need at least 2 samples")
    if smoothing < 0:
        raise PreconditionError("plugin_mi: smoothing must be >= 0")
    ka = int(card_a) if card_a is not None else int(a.max()) + 1
    kb = int(card_b) if card_b is not None else int(b.max()) + 1
    if a.min() < 0 or a.max() >= ka or b.min() < 0 or b.max() >= kb:
        raise PreconditionError("plugin_mi: label outside declared cardinality")
    # rows and columns of the labels that occur, in label order: the
    # declared table's other cells are empty and add nothing to the sums
    a = np.unique(a, return_inverse=True)[1].reshape(-1)
    b = np.unique(b, return_inverse=True)[1].reshape(-1)
    rows, cols = int(a.max()) + 1, int(b.max()) + 1
    counts = np.bincount(a * cols + b, minlength=rows * cols).reshape(rows, cols).astype(np.float64)
    if not smoothing:
        return mutual_information(counts / counts.sum())
    # each empty cell, row and column of the declared table holds only
    # pseudo-counts, so enters the sums once, weighted by how many there are
    total = counts.sum() + smoothing * ka * kb

    def plogp(seen, empty_value, empty):
        p = np.append(seen, empty_value) / total
        return float((np.append(np.ones(seen.size), empty) * p * np.log(p)).sum())

    counts += smoothing
    joint = plogp(counts.ravel(), smoothing, ka * kb - rows * cols)
    pa = plogp(counts.sum(axis=1) + smoothing * (kb - cols), smoothing * kb, ka - rows)
    pb = plogp(counts.sum(axis=0) + smoothing * (ka - rows), smoothing * ka, kb - cols)
    return _clamp_nonneg(joint - pa - pb)


# -- known-noise mixture -----------------------------------------------------

# rows whose terms laplace_mixture_mi sums together before adding the group
# to its running total: max(1, _PAIR_BUDGET // n).  The grouping is part of
# the estimate's bits, so it stays that of the former 2^18-pair blocks.
_PAIR_BUDGET = 2**18
# pair entries in each of laplace_mixture_mi's two scratch arrays: 512 KiB
# of float64, so both fit a 2 MiB per-core L2 cache together
_BLOCK_PAIRS = 2**16


def laplace_mixture_mi(clean, s, noisy, scale: float) -> float:
    """Estimate I(S;Z) in nats when Z = C + i.i.d. Laplace(0, scale) noise.

    `clean` holds the pre-noise vectors c_i, `noisy` the draw z_j = c_j +
    noise_j and `s` the discrete label of each row.  The noise density is
    known, so p(z) and p(z | s) are the exact Laplace mixtures over the
    sample, each evaluated leave-one-out (i != j) so that z_j is scored
    against components independent of its own noise:

        I ~ mean_j [log p(z_j | s_j) - log p(z_j)].

    This is the sample-propagation estimator of Goldfeld et al.,
    "Estimating Information Flow in Deep Neural Networks" (ICML 2019).  It
    needs no training and is deterministic.  It costs O(n^2 d) time, in
    row blocks of about _BLOCK_PAIRS pairs computed on two scratch arrays
    made once per call: 512 KiB each, so the log-kernel and its
    exponential stay in a 2 MiB L2 cache instead of going through memory.
    Its memory is those two arrays plus O(n d), about 1.5 MiB at n = 8000
    (n above _BLOCK_PAIRS makes one-row blocks of n pairs).  Block size
    does not change the result: each row's term is computed on its own,
    and the terms are summed in groups of _PAIR_BUDGET // n rows.
    Each mixture is an unbiased density estimate, but its log is biased
    low, the conditional's more (it averages fewer components); the net
    bias is small and downward, largest when the noise is narrow next to
    the spread of the clean vectors (about -0.006 nats for independent s,
    n = 2000, d = 2, clean vectors uniform on [-1/2, 1/2]^2 and scale
    0.05).  So the estimate can be slightly negative near independence.
    """
    c = np.asarray(clean, dtype=np.float64)
    z = np.asarray(noisy, dtype=np.float64)
    c = c.reshape(-1, 1) if c.ndim == 1 else c
    z = z.reshape(-1, 1) if z.ndim == 1 else z
    labels = np.asarray(s).reshape(-1)
    if c.ndim != 2 or c.shape != z.shape:
        raise PreconditionError(f"laplace_mixture_mi: clean {c.shape} vs noisy {z.shape}")
    if labels.size != c.shape[0]:
        raise PreconditionError(f"laplace_mixture_mi: {labels.size} labels for {c.shape[0]} rows")
    if not (np.isfinite(scale) and scale > 0):
        raise PreconditionError(f"laplace_mixture_mi: scale must be finite and > 0, got {scale}")
    for name, a in (("clean", c), ("noisy", z)):
        if not np.isfinite(a).all():
            raise PreconditionError(f"laplace_mixture_mi: {name} has a non-finite entry")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2 or counts.min() < 2:
        raise PreconditionError(
            f"laplace_mixture_mi: every class of s needs >= 2 rows and s needs >= 2 classes, "
            f"got counts {dict(zip(classes.tolist(), counts.tolist()))}"
        )

    # rows sorted by class, so each class is one contiguous column slice
    order = np.argsort(labels, kind="stable")
    c, z, labels = c[order], z[order], labels[order]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    n = c.shape[0]
    own = np.searchsorted(classes, labels)
    step = max(1, _BLOCK_PAIRS // n)
    logk_buf, work_buf = np.empty(step * n), np.empty(step * n)
    terms = np.empty(n)  # log p(z_j | s_j) - log p(z_j), row by row
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        # log-kernel up to the constant -d log(2b), which cancels in the ratio
        logk = logk_buf[: (hi - lo) * n].reshape(hi - lo, n)
        work = work_buf[: (hi - lo) * n].reshape(hi - lo, n)
        np.abs(np.subtract(z[lo:hi, 0:1], c[:, 0], out=logk), out=logk)
        for k in range(1, c.shape[1]):
            logk += np.abs(np.subtract(z[lo:hi, k : k + 1], c[:, k], out=work), out=work)
        logk *= -1.0 / scale
        rows = np.arange(hi - lo)
        logk[rows, lo + rows] = -np.inf  # leave one out
        # per-class log-sum-exp, each shifted by its own row maximum
        per_class = np.empty((hi - lo, classes.size))
        for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            block = logk[:, a:b]
            shift = block.max(axis=1, keepdims=True)
            e = work_buf[: (hi - lo) * (b - a)].reshape(hi - lo, b - a)
            np.exp(np.subtract(block, shift, out=e), out=e)
            per_class[:, m] = np.log(e.sum(axis=1)) + shift[:, 0]
        log_cond = per_class[rows, own[lo:hi]] - np.log(counts[own[lo:hi]] - 1)
        shift = per_class.max(axis=1, keepdims=True)
        log_marg = np.log(np.exp(per_class - shift).sum(axis=1)) + shift[:, 0] - np.log(n - 1)
        np.subtract(log_cond, log_marg, out=terms[lo:hi])
    group = max(1, _PAIR_BUDGET // n)
    total = 0.0
    for lo in range(0, n, group):
        total += float(terms[lo : lo + group].sum())
    return total / n


# -- MINE --------------------------------------------------------------------

@dataclass(frozen=True)
class MineConfig:
    """Donsker-Varadhan estimator settings.

    The statistics network is an MLP on the concatenated sample pair;
    marginal samples come from in-batch shuffling of the second
    coordinate.  The gradient's partition-function denominator uses an
    exponential moving average; the reported value is the uncorrected DV
    bound averaged over the final `avg_window` iterations.
    """

    hidden: tuple[int, int] = (100, 100)
    activation: str = "relu6"
    iterations: int = 50_000
    batch_size: int = 512
    learning_rate: float = 1e-3
    ema_rate: float = 0.01
    avg_window: int = 100

    def __post_init__(self):
        if not (0.0 < self.ema_rate <= 1.0):
            raise PreconditionError(f"ema_rate {self.ema_rate} outside (0, 1]")
        if self.iterations < self.avg_window:
            raise PreconditionError("iterations must cover at least one averaging window")


def mine_estimate(samples_a, samples_b, cfg: MineConfig, seed: int) -> float:
    """Estimate I(A;B) in nats from paired real-valued samples.

    Deterministic given the seed.  Raises DivergenceError on non-finite
    values, which usually signals a too-large learning rate.  The network
    is built and updated with the autodiff module's Mlp and Adam, and
    differentiated by its buffered `MlpPass`: the loss has one fixed shape,
    and taping it costs more than the matrix products themselves.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    a = a.reshape(-1, 1) if a.ndim == 1 else a
    b = b.reshape(-1, 1) if b.ndim == 1 else b
    if a.shape[0] != b.shape[0]:
        raise PreconditionError(f"mine_estimate: {a.shape[0]} vs {b.shape[0]} samples")
    n = a.shape[0]
    if n < 1000:
        raise PreconditionError(f"mine_estimate: need >= 1000 samples, got {n}")

    rng = np.random.default_rng(seed)
    spec = ad.MlpSpec(
        widths=(a.shape[1] + b.shape[1], *cfg.hidden, 1),
        activations=(cfg.activation,) * len(cfg.hidden) + ("identity",),
    )
    net = ad.Mlp(spec, rng)
    params = net.parameters()
    opt = ad.AdamState(lr=cfg.learning_rate)

    ema_denominator = None
    batch = min(cfg.batch_size, n)
    recent: list[float] = []
    mlp = ad.MlpPass(net)
    # the joint and marginal terms' gradients, summed into the first for Adam
    grad, views = ad.flat_grad(params)
    grad_marg, views_marg = ad.flat_grad(params)
    for it in range(cfg.iterations):
        idx = rng.integers(0, n, size=batch)
        shuffle = rng.permutation(batch)
        xa, xb = a[idx], b[idx]
        # The joint term's gradient does not depend on the EMA, so its pass
        # is finished before the marginal pass reuses the work buffers.
        t_joint = float(mlp.forward(np.concatenate([xa, xb], axis=1)).mean())
        mlp.backward(np.full((batch, 1), -1.0 / batch), views)

        # clip the statistic before exponentiation to keep the partition
        # term finite early in training
        t_marg = mlp.forward(np.concatenate([xa, xb[shuffle]], axis=1))
        exp_marg = np.exp(np.clip(t_marg, -50.0, 50.0))
        denom_val = float(exp_marg.mean())
        if not np.isfinite(denom_val):
            raise DivergenceError(f"MINE partition term diverged at iteration {it}")
        if ema_denominator is None:
            ema_denominator = denom_val
        else:
            ema_denominator = (1 - cfg.ema_rate) * ema_denominator + cfg.ema_rate * denom_val

        dv = t_joint - np.log(denom_val)
        if not np.isfinite(dv):
            raise DivergenceError(f"MINE estimate non-finite at iteration {it}")
        recent.append(dv)
        if len(recent) > cfg.avg_window:
            recent.pop(0)

        # EMA-corrected gradient: d/dtheta [ -T_joint + denom / ema ]
        g_marg = np.full((batch, 1), (1.0 / ema_denominator) / batch) * exp_marg
        g_marg = g_marg * ((t_marg >= -50.0) & (t_marg <= 50.0))
        mlp.backward(g_marg, views_marg)
        grad += grad_marg
        ad.adam_step(params, opt, grad)

    return float(np.mean(recent))
