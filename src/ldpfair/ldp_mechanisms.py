"""Laplace and randomized-response local-differential-privacy randomizers.

Both mechanisms are immutable; sampling takes a caller-owned seeded
generator, so parallel use across disjoint generators is safe.  The
discrete mechanism also exposes its exact channel form so privacy
guarantees can be verified by exhaustive enumeration instead of flaky
statistical tests; the continuous mechanism is audited analytically via
its closed-form density ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete_source import Channel, compose, new_channel
from .errors import PreconditionError

VERIFY_TOL = 1e-9
COORD_TOL = 1e-9
CHANNEL_CAP = 4096


@dataclass(frozen=True)
class LaplaceMechanism:
    """Additive Laplace noise on truncated d-dimensional real vectors.

    Applies only to inputs with every coordinate in [-t, t]; that
    truncation is what limits the per-pair l1 sensitivity to 2*t*d and
    makes the noise scale 2*t*d/epsilon sufficient for epsilon-LDP.
    """

    epsilon: float
    t: float
    d: int

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):  # also rejects NaN
            raise PreconditionError(f"Laplace mechanism needs a finite epsilon > 0, got {self.epsilon}")
        if not (self.t > 0 and math.isfinite(self.t)):
            raise PreconditionError(f"truncation threshold must be finite and > 0, got {self.t}")
        if self.d < 1:
            raise PreconditionError(f"dimension must be >= 1, got {self.d}")
        if not math.isfinite(self.scale):
            raise PreconditionError(f"noise scale 2td/epsilon overflows at epsilon = {self.epsilon}")

    @property
    def scale(self) -> float:
        return 2.0 * self.t * self.d / self.epsilon


@dataclass(frozen=True)
class RandomizedResponse:
    """Per-coordinate symbol randomizer over [k]^d.

    Each coordinate keeps its symbol with probability
    e^(eps/d) / (e^(eps/d) + k - 1) and otherwise substitutes a uniform
    draw over the other k - 1 symbols.
    """

    epsilon: float
    k: int
    d: int

    def __post_init__(self):
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):  # also rejects NaN
            raise PreconditionError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.k < 2:
            raise PreconditionError(f"alphabet size must be >= 2, got {self.k}")
        if self.d < 1:
            raise PreconditionError(f"dimension must be >= 1, got {self.d}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(self.epsilon / self.d)):
                raise PreconditionError(f"e^(epsilon/d) overflows at epsilon = {self.epsilon}, d = {self.d}")

    @property
    def keep_prob(self) -> float:
        e = np.exp(self.epsilon / self.d)
        return float(e / (e + self.k - 1))

    @property
    def flip_prob(self) -> float:
        """Probability of landing on any one specific other symbol."""
        e = np.exp(self.epsilon / self.d)
        return float(1.0 / (e + self.k - 1))


def laplace_randomize(zhat, mech: LaplaceMechanism, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Laplace(0, 2td/eps) noise to a truncated vector.

    Accepts a single d-vector or an (n, d) batch.  Coordinates outside
    [-t, t] are an error: it means the caller skipped the truncation the
    privacy proof depends on.
    """
    z = np.asarray(zhat, dtype=np.float64)
    if z.shape[-1] != mech.d:
        raise PreconditionError(f"expected {mech.d}-dimensional input, got shape {z.shape}")
    if np.any(np.abs(z) > mech.t + COORD_TOL):
        worst = np.abs(z).max()
        raise PreconditionError(
            f"coordinate magnitude {worst:g} exceeds truncation threshold t={mech.t}"
        )
    return z + rng.laplace(0.0, mech.scale, size=z.shape)


def laplace_log_ratio_bound(mech: LaplaceMechanism, zhat, zhat_prime) -> float:
    """Closed-form worst-case |log density ratio| for two inputs.

    Equals eps * ||z - z'||_1 / (2 t d); at the extreme corners of the
    truncation box this reaches exactly eps.
    """
    delta = np.abs(np.asarray(zhat, dtype=np.float64) - np.asarray(zhat_prime, dtype=np.float64))
    return float(mech.epsilon * delta.sum() / (2.0 * mech.t * mech.d))


def rr_randomize(zhat, mech: RandomizedResponse, rng: np.random.Generator) -> np.ndarray:
    """Randomize symbols in [k]^d; accepts a d-vector or an (n, d) batch."""
    z = np.asarray(zhat)
    if not np.issubdtype(z.dtype, np.integer):
        zi = np.asarray(zhat, dtype=np.int64)
        if np.any(zi != z):
            raise PreconditionError("rr_randomize: symbols must be integers")
        z = zi
    if z.shape[-1] != mech.d:
        raise PreconditionError(f"expected {mech.d}-dimensional input, got shape {z.shape}")
    if z.min() < 0 or z.max() >= mech.k:
        raise PreconditionError(
            f"symbol outside [0, {mech.k}): range [{z.min()}, {z.max()}]"
        )
    keep = rng.random(z.shape) < mech.keep_prob
    # uniform over the OTHER k-1 symbols, so the keep probability is
    # exactly the channel diagonal
    offset = rng.integers(1, mech.k, size=z.shape)
    return np.where(keep, z, (z + offset) % mech.k)


def rr_channel(mech: RandomizedResponse) -> Channel:
    """Exact k^d x k^d channel matrix: tensor power of the per-dimension form."""
    size = mech.k**mech.d
    if size > CHANNEL_CAP:
        raise PreconditionError(f"channel would have {size} outputs, cap is {CHANNEL_CAP}")
    single = np.full((mech.k, mech.k), mech.flip_prob)
    np.fill_diagonal(single, mech.keep_prob)
    rows = np.ones((1, 1))
    for _ in range(mech.d):
        rows = np.kron(rows, single)
    # the smallest entry is flip_prob^d; if that product underflowed (to 0,
    # or to a subnormal that lost digits), verify_ldp would misjudge the channel
    smallest = rows.min()
    if smallest == 0 or abs(math.log(smallest) - mech.d * math.log(mech.flip_prob)) > VERIFY_TOL:
        raise PreconditionError(
            f"rr channel entry flip_prob^d underflows float64 at epsilon = {mech.epsilon}, d = {mech.d}"
        )
    return new_channel(rows)


def rr_propagate(table, mech: RandomizedResponse) -> np.ndarray:
    """A (k^d, m) table over the codes of [k]^d, rows in lexicographic
    order, mapped through the rr channel: `rr_channel(mech).rows.T @ table`.

    The channel is the d-th tensor power of one coordinate's k x k form,
    flip_prob everywhere and keep_prob on the diagonal, so it is applied
    one coordinate axis at a time and never formed: memory stays that of
    the table.  The channel is symmetric, so the same map also takes a
    table over released codes back to one over inputs (`rows @ table`).
    """
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != mech.k**mech.d:
        raise PreconditionError(f"rr_propagate: expected {mech.k**mech.d} rows, got shape {t.shape}")
    keep, flip = mech.keep_prob, mech.flip_prob
    out = t.reshape((mech.k,) * mech.d + t.shape[1:])
    for axis in range(mech.d):
        out = flip * out.sum(axis=axis, keepdims=True) + (keep - flip) * out
    return out.reshape(t.shape)


def verify_ldp(ch: Channel, epsilon: float) -> tuple[float, bool]:
    """Worst-case log p(z|x)/p(z|x') over all triples, and the epsilon verdict.

    0/0 columns are treated as satisfied; a positive probability against a
    zero one is an infinite ratio.  Passes iff the max is <= eps + 1e-9.
    """
    max_log_ratio = 0.0
    for z in range(ch.out_card):
        col = ch.rows[:, z]
        positive = col[col > 0]
        if positive.size == 0:
            continue
        if positive.size < col.size:
            return float("inf"), False
        ratio = float(np.log(positive.max()) - np.log(positive.min()))
        max_log_ratio = max(max_log_ratio, ratio)
    return max_log_ratio, max_log_ratio <= epsilon + VERIFY_TOL


def check_lemma1(enc: Channel, mech_ch: Channel, epsilon: float) -> bool:
    """Post-processing closure: any encoder followed by an LDP channel is LDP.

    Raises if the mechanism channel itself is not epsilon-LDP (a
    precondition failure, distinct from the composition conclusion).
    """
    ratio, ok = verify_ldp(mech_ch, epsilon)
    if not ok:
        raise PreconditionError(
            f"mechanism channel is not {epsilon}-LDP (max log ratio {ratio:g})"
        )
    _, composed_ok = verify_ldp(compose(enc, mech_ch), epsilon)
    return composed_ok


def mechanism_from_spec(spec: dict):
    """Build a mechanism from a config mapping: kind, epsilon, t, d, k."""
    kind = str(spec.get("kind", "")).lower()
    if kind == "laplace":
        return LaplaceMechanism(
            epsilon=float(spec["epsilon"]), t=float(spec.get("t", 0.5)), d=int(spec.get("d", 2))
        )
    if kind == "rr":
        return RandomizedResponse(
            epsilon=float(spec["epsilon"]), k=int(spec.get("k", 4)), d=int(spec.get("d", 2))
        )
    raise PreconditionError(f"unknown mechanism kind {spec.get('kind')!r}; use 'laplace' or 'rr'")
