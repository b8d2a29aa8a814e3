"""Finite joint distributions p(u,s,x) and row-stochastic channels.

Everything here is exact: probabilities live in linear space as float64
arrays, alphabets are small (<= a few dozen symbols per axis), and all
derived joints are computed by plain summation.  Values are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetError,
    DimensionMismatchError,
    InvalidDistributionError,
    PreconditionError,
)

# Inputs within this distance of stochastic are renormalized; anything
# worse is treated as a bug in the caller, not round-trip noise.
NORMALIZATION_TOL = 1e-9
EXACT_TOL = 1e-12


def _validated_probs(probs: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.size == 0:
        raise InvalidDistributionError(f"{what}: empty array")
    if not np.all(arr >= 0):  # also false for NaN
        raise InvalidDistributionError(f"{what}: negative or NaN entry {arr.min():g}")
    total = arr.sum()
    if total <= 0:
        raise InvalidDistributionError(f"{what}: zero total mass")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistributionError(
            f"{what}: mass {total!r} further than {NORMALIZATION_TOL} from 1"
        )
    arr = arr / total
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointSourceUSX:
    """Exact joint distribution of (utility, sensitive, observed) variables."""

    probs: np.ndarray  # shape (card_u, card_s, card_x)

    @property
    def card_u(self) -> int:
        return self.probs.shape[0]

    @property
    def card_s(self) -> int:
        return self.probs.shape[1]

    @property
    def card_x(self) -> int:
        return self.probs.shape[2]

    def p_u(self) -> np.ndarray:
        return self.probs.sum(axis=(1, 2))

    def p_s(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 2))

    def p_x(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 1))

    def p_ux(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def p_sx(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class Channel:
    """Row-stochastic conditional distribution p(out | in)."""

    rows: np.ndarray  # shape (in_card, out_card)

    @property
    def in_card(self) -> int:
        return self.rows.shape[0]

    @property
    def out_card(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class JointFull:
    """Joint distribution over (u, s, x, z) induced by an encoding of x."""

    probs: np.ndarray  # shape (card_u, card_s, card_x, card_z)

    def source_joint(self) -> np.ndarray:
        return self.probs.sum(axis=3)

    def p_uz(self) -> np.ndarray:
        return self.probs.sum(axis=(1, 2))

    def p_sz(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 2))

    def p_xz(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 1))

    def p_xzs(self) -> np.ndarray:
        """Joint over (x, z, s), the axis order conditional_mi expects."""
        return self.probs.sum(axis=0).transpose(1, 2, 0)

    def p_z(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 1, 2))


def new_joint(probs: np.ndarray) -> JointSourceUSX:
    """Validate and renormalize a 3-axis array into a source distribution."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionMismatchError(f"expected 3 axes (u, s, x), got shape {arr.shape}")
    return JointSourceUSX(_validated_probs(arr, "joint source"))


def new_channel(rows: np.ndarray) -> Channel:
    """Validate and row-renormalize a matrix into a channel."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidDistributionError("channel: empty matrix")
    if not np.all(arr >= 0):  # also false for NaN
        raise InvalidDistributionError(f"channel: negative or NaN entry {arr.min():g}")
    sums = arr.sum(axis=1)
    if np.any(sums <= 0):
        raise InvalidDistributionError("channel: a row has zero mass")
    if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
        worst = np.abs(sums - 1.0).max()
        raise InvalidDistributionError(
            f"channel: row mass off by {worst:g}, beyond {NORMALIZATION_TOL}"
        )
    arr = arr / sums[:, None]
    arr.setflags(write=False)
    return Channel(arr)


def identity_channel(card: int) -> Channel:
    return new_channel(np.eye(card))


def compose(a: Channel, b: Channel) -> Channel:
    """Cascade two channels: rows(result) = rows(a) @ rows(b)."""
    if a.out_card != b.in_card:
        raise DimensionMismatchError(
            f"compose: {a.out_card} outputs feed a channel with {b.in_card} inputs"
        )
    return new_channel(a.rows @ b.rows)


def induced_joint(src: JointSourceUSX, enc: Channel) -> JointFull:
    """Joint p(u,s,x,z) = p(u,s,x) p(z|x) for an encoding of x.

    The Markov property (U,S) - X - Z holds exactly by construction.
    """
    if enc.in_card != src.card_x:
        raise DimensionMismatchError(
            f"encoder expects {enc.in_card} inputs, source has |X| = {src.card_x}"
        )
    probs = src.probs[:, :, :, None] * enc.rows[None, None, :, :]
    probs.setflags(write=False)
    return JointFull(probs)


def sample(src: JointSourceUSX, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. (u, s, x) triples; deterministic given the seed.

    Returns an (n, 3) integer array with columns (u, s, x).
    """
    if n < 1:
        raise PreconditionError(f"sample: n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    flat = src.probs.reshape(-1)
    idx = rng.choice(flat.size, size=n, p=flat)
    u, s, x = np.unravel_index(idx, src.probs.shape)
    return np.stack([u, s, x], axis=1)


# -- textual serialization ---------------------------------------------------
#
# Source file: one header line "card_u card_s card_x", then one probability
# per line in row-major (u, s, x) order.  Channel file: header "in out",
# then row-major entries.


def save_source(src: JointSourceUSX, path: str | Path) -> None:
    lines = [f"{src.card_u} {src.card_s} {src.card_x}"]
    lines += [f"{v:.17g}" for v in src.probs.reshape(-1)]
    Path(path).write_text("\n".join(lines) + "\n")


def _load_table(path: str | Path, axes: int) -> np.ndarray:
    """The body of a source or channel file, shaped by its header of
    `axes` positive integers."""
    try:
        tokens = Path(path).read_text().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    if len(tokens) < axes:
        raise InvalidDistributionError(f"{path}: missing header")
    try:
        shape = tuple(int(t) for t in tokens[:axes])
        body = np.array([float(t) for t in tokens[axes:]])
    except ValueError as exc:
        raise InvalidDistributionError(f"{path}: not a table of numbers: {exc}") from None
    if min(shape) < 1:
        raise InvalidDistributionError(f"{path}: header sizes must be >= 1, got {shape}")
    if body.size != np.prod(shape):
        raise DimensionMismatchError(
            f"{path}: header promises {np.prod(shape)} entries, found {body.size}"
        )
    return body.reshape(shape)


def load_source(path: str | Path) -> JointSourceUSX:
    return new_joint(_load_table(path, 3))


def save_channel(ch: Channel, path: str | Path) -> None:
    lines = [f"{ch.in_card} {ch.out_card}"]
    lines += [f"{v:.17g}" for v in ch.rows.reshape(-1)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_channel(path: str | Path) -> Channel:
    return new_channel(_load_table(path, 2))


def random_source(card_u: int, card_s: int, card_x: int, seed: int) -> JointSourceUSX:
    """Dirichlet(1)-distributed random source, for tests and sweeps."""
    rng = np.random.default_rng(seed)
    return new_joint(rng.dirichlet(np.ones(card_u * card_s * card_x)).reshape(card_u, card_s, card_x))


def random_channel(in_card: int, out_card: int, seed: int) -> Channel:
    """Random row-stochastic channel with Dirichlet(1) rows."""
    rng = np.random.default_rng(seed)
    return new_channel(rng.dirichlet(np.ones(out_card), size=in_card))
