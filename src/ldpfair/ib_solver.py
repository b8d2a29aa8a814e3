"""Exact utility-leakage optimization on small discrete alphabets.

Maximizes I(X;Z|S) + beta * I(U;Z) over encoders composed with a fixed
randomized-response channel.  The objective is convex in the encoder, so
a deterministic encoder is a maximizer, and the solver searches those
alone.  One kernel weighs I(X;Z), I(S;Z) and I(U;Z) over their stacked
tables in one pass, for a batch of channels p(z|x) = rr[assign], the rr
rows picked by each encoder's symbols.  Up to 4^4 encoders, one kernel
call scores them all at every beta of a frontier, and the best is the
exact answer.  Above that, a steepest-ascent search over deterministic
encoders runs every restart and every beta at once: each sweep scores
every encoder one input away from a start's current one, in one kernel
call up to a bounded batch.  Every reported quantity is recomputed
exactly.

The oracle for min I(S;Z) subject to I(U;Z) >= gamma, the privacy
funnel, is a linear program over posteriors p(x|z) (`solve_G_bruteforce`),
and `_batched_mi_terms` rescores the channel it returns.

Only the discrete randomized-response mechanism is admitted here: it has
an exact finite channel form, so the theory checks are enumerations, not
estimates.  Continuous (Laplace) mechanisms are handled by the trained
encoder path with estimated information measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .discrete_source import Channel, JointSourceUSX, compose, induced_joint, new_channel
from .errors import DivergenceError, InfeasibleGammaError, PreconditionError
from .info_measures import conditional_mi, entropy, mutual_information
from .ldp_mechanisms import RandomizedResponse, rr_channel

CONSTRAINT_TOL = 1e-6
TIE_RTOL = 1e-12  # objectives this close to the best, relative to max(1, |best|), tie
# most channel entries one kernel call of the search scores: 8 MiB of
# channels, so a sweep's memory stays bounded as |X| |Zhat| grows
_SWEEP_ENTRIES = 2**20


@dataclass(frozen=True)
class SolverConfig:
    """Weight beta of I(U;Z) and the solver's settings.  restarts,
    iterations and seed drive only the search, which runs where
    |Zhat|^|X| exceeds 4^4 deterministic encoders: restart r starts at
    the encoder default_rng([seed, r]) draws, and climbs for at most
    `iterations` sweeps."""

    beta: float = 1.0
    restarts: int = 4
    iterations: int = 1500
    zhat_card: int | None = None  # defaults to |X|
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise PreconditionError(f"beta must be finite and >= 0, got {self.beta}")
        if self.restarts < 1 or self.iterations < 1:
            raise PreconditionError("restarts and iterations must be positive")
        if self.seed < 0:
            raise PreconditionError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FrontierPoint:
    """One solved operating point with exactly recomputed information terms."""

    beta: float
    epsilon: float
    gamma_target: float
    Gamma: float  # I(U;Z)
    Omega: float  # I(S;Z)
    nu: float  # I(X;Z|S)
    ixz: float  # I(X;Z)
    encoder: Channel
    objective: float
    converged: bool


def _log_ratio(p_ax: np.ndarray, channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(a, z) and log[p(a,z) / (p(a) p(z))], 0 where p(a,z) = 0, both in the
    (A, Z, B) layout, for each channel p(z|x) in a (B, X, Z) batch, given the
    table p(a, x).  The candidate axis is innermost, so every step after the
    product is a pass over contiguous length-B rows.

    The product is one matrix product: M holds p(a, x) at (x Z + z, a Z + z),
    and p(a, z) = M^T @ channels^T over the rows (a, z).  Each entry is the
    same chain over x as in ``p_ax @ channels``, since M's zeros add nothing.
    On OpenBLAS 0.3.31 (Haswell kernels) the bits were equal on every case
    measured with |A| >= 2 and |A| |Z| <= 32, and with |Z| = 4 up to
    |A| = 100.  Above |A| |Z| = 32 with |Z| < 4, and at |A| = 1, where
    ``p_ax @ channels`` runs gemv, the two products add the same |X| terms
    in another rounding order: p(a, z) moved by at most 2 ulp.  The other
    orientation, ``(channels @ M).T``, rounds differently, and numpy sends
    a one-column product to gemv, which does too, so one candidate is
    scored as two copies of itself.  p(z) adds the rows of p(a, z) in
    a-order, and the log-ratio is formed in place on its own buffer.
    """
    card_a, card_x = p_ax.shape
    batch, _, card_z = channels.shape
    cols = np.repeat(channels, 2, axis=0) if batch == 1 else channels
    m = np.kron(p_ax.T, np.eye(card_z))  # (X Z, A Z): p(a, x) at (x Z + z, a Z + z)
    p_az = (m.T @ cols.reshape(len(cols), card_x * card_z).T)[:, :batch].reshape(card_a, card_z, batch)
    p_z = p_az[0].copy()  # the rows added in order: the bits of p_az.sum(axis=0)
    for a in range(1, card_a):
        p_z += p_az[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(p_az)
        log_ratio -= np.log(p_z, out=p_z)
        log_ratio -= np.log(p_ax.sum(axis=1))[:, None, None]
    np.copyto(log_ratio, 0.0, where=p_az == 0)
    return p_az, log_ratio


def _tables(src: JointSourceUSX) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables p(a, x) of I(X;Z), I(S;Z) and I(U;Z), stacked once per
    solve: diag p(x), p(s, x) and p(u, x) as the rows of one array; the log
    of each row's sum, -inf for an empty row; p(x); and the (rows, 3)
    indicator of the table each row belongs to."""
    p_x = src.p_x()
    p_ax = np.vstack([np.diag(p_x), src.p_sx(), src.p_ux()])
    with np.errstate(divide="ignore"):
        log_pa = np.log(p_ax.sum(axis=1, keepdims=True))
    return p_ax, log_pa, p_x, np.repeat(np.eye(3), [src.card_x, src.card_s, src.card_u], axis=0)


def _objective_graph(channels: np.ndarray, tables: tuple, weights: np.ndarray) -> np.ndarray:
    """w_X I(X;Z) + w_S I(S;Z) + w_U I(U;Z) for each channel p(z|x) in a
    (B, |X|, |Z|) batch, with one row of (w_X, w_S, w_U) per channel in the
    (B, 3) `weights`; `tables` comes from `_tables`.

    With S - X - Z Markov, I(X;Z|S) + beta I(U;Z) takes the weights (1, -1, beta).
    The three tables share p(z) = sum_x p(x) p(z|x), so one pass over the
    stacked rows serves all.
    """
    p_ax, log_pa, p_x, which = tables
    p_az = p_ax @ channels
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(p_az)
        log_ratio -= np.log(p_x @ channels)[:, None, :]
        log_ratio -= log_pa
    np.copyto(log_ratio, 0.0, where=p_az == 0)
    log_ratio *= (weights @ which.T)[:, :, None]  # each row's table weight
    return (p_az * log_ratio).sum(axis=(1, 2))


def _exact_point(
    src: JointSourceUSX, enc: Channel, rr_rows: np.ndarray, beta: float, epsilon: float, converged: bool
) -> FrontierPoint:
    """Recompute all reported quantities from the exact induced joint."""
    full = induced_joint(src, compose(enc, new_channel(rr_rows)))
    Gamma, nu = mutual_information(full.p_uz()), conditional_mi(full.p_xzs())
    return FrontierPoint(
        beta=beta, epsilon=epsilon, gamma_target=math.nan, Gamma=Gamma,
        Omega=mutual_information(full.p_sz()), nu=nu, ixz=mutual_information(full.p_xz()),
        encoder=enc, objective=nu + beta * Gamma, converged=converged,
    )


def _all_encoders(card_x: int, card_z: int) -> np.ndarray:
    """All card_z^card_x deterministic encoders as one (B, card_x) array of
    symbols: encoder i sends x to digit x of i in base card_z, so encoder 0
    sends every x to z = 0."""
    return np.arange(card_z**card_x)[:, None] // card_z ** np.arange(card_x) % card_z


def _first_best(values: np.ndarray) -> int:
    """The lowest index whose value is within TIE_RTOL of the best: at
    eps = 0 every objective is 0 up to rounding, and the choice must not
    rest on that rounding."""
    top = values.max()
    return int(np.argmax(values >= top - TIE_RTOL * max(1.0, abs(top))))


def _solve(
    src: JointSourceUSX, mech: RandomizedResponse, betas: list[float], cfg: SolverConfig
) -> list[FrontierPoint]:
    """The best deterministic encoder found at each beta, recomputed from
    its exact joint.

    Each term is a mutual information, convex in p(z|x) = encoder @ rr, so
    the objective is convex in the encoder and a deterministic encoder
    reaches its maximum (Witsenhausen and Wyner, IEEE T-IT 1975).  Up to
    4^4 of them, every encoder is a start and no sweep runs, so
    the best start is the maximum.  Above that, start r is the encoder
    default_rng([cfg.seed, r]) draws, and each (beta, start) row climbs:
    a sweep scores every encoder that differs from the row's current one
    in one input, all rows in one kernel call (or a few, each holding at
    most _SWEEP_ENTRIES channel entries), and the row moves to the
    best of them if it beats the current value by more than TIE_RTOL,
    relative to max(1, |value|).  A row stops when no candidate does, and
    is then converged, or after cfg.iterations sweeps.  At each beta
    `_first_best` picks the winning start, so at eps = 0, where every
    value is 0 up to rounding, it is start 0.
    """
    zhat_card = cfg.zhat_card if cfg.zhat_card is not None else src.card_x
    if zhat_card != mech.k**mech.d:
        raise PreconditionError(
            f"intermediate alphabet {zhat_card} does not match mechanism "
            f"alphabet k^d = {mech.k**mech.d}"
        )
    card_x = src.card_x
    if zhat_card**card_x <= 4**4:
        starts, sweeps = _all_encoders(card_x, zhat_card), 0
    else:
        starts = np.array([
            np.random.default_rng([cfg.seed, r]).integers(0, zhat_card, size=card_x) for r in range(cfg.restarts)
        ])
        sweeps = cfg.iterations
    rr_rows, tables = rr_channel(mech).rows, _tables(src)
    row_beta = np.repeat(betas, len(starts))
    weights = np.column_stack([np.ones_like(row_beta), -np.ones_like(row_beta), row_beta])
    assign = np.tile(starts, (len(betas), 1))  # row b * len(starts) + r: start r at betas[b]
    values = _objective_graph(rr_rows[assign], tables, weights)
    converged = np.full(len(assign), sweeps == 0)  # every encoder scored: the best is the maximum
    moves = np.arange(card_x * zhat_card)  # move m sends input m // |Zhat| to symbol m % |Zhat|
    rows_per_call = max(1, _SWEEP_ENTRIES // (len(moves) * card_x * zhat_card))
    for _ in range(sweeps):
        active = np.flatnonzero(~converged)
        if not active.size:
            break
        for rows in np.array_split(active, -(-len(active) // rows_per_call)):  # rows climb alone
            cand = np.repeat(assign[rows, None, :], len(moves), axis=1)
            cand[:, moves, moves // zhat_card] = moves % zhat_card
            scores = _objective_graph(
                rr_rows[cand.reshape(-1, card_x)], tables, np.repeat(weights[rows], len(moves), axis=0)
            ).reshape(len(rows), len(moves))
            best = scores.argmax(axis=1)
            top = scores[np.arange(len(rows)), best]
            now = values[rows]
            up = top > now + TIE_RTOL * np.maximum(1.0, np.abs(now))
            converged[rows[~up]] = True
            assign[rows[up]] = cand[up, best[up]]
            values[rows[up]] = top[up]
    eye = np.eye(zhat_card)
    points = []
    for b, beta in enumerate(betas):
        r = b * len(starts) + _first_best(values[b * len(starts):(b + 1) * len(starts)])
        points.append(_exact_point(src, new_channel(eye[assign[r]]), rr_rows, beta, mech.epsilon, bool(converged[r])))
    return points


def solve_g(src: JointSourceUSX, mech: RandomizedResponse, cfg: SolverConfig) -> FrontierPoint:
    """The deterministic encoder maximizing I(X;Z|S) + beta I(U;Z), with
    its reported quantities recomputed from the exact joint.

    Up to 4^4 deterministic encoders, the best of them is the exact
    maximum and the point has converged = True.  Above that, the best
    restart of the search (`_solve`), driven by cfg's restarts, iterations
    and seed; converged = True there means the winning restart reached an
    encoder that no one-input change improves.
    """
    (pt,) = _solve(src, mech, [cfg.beta], cfg)
    return pt


def trace_frontier(
    src: JointSourceUSX, mech: RandomizedResponse, beta_grid, cfg: SolverConfig
) -> list[FrontierPoint]:
    """One solved point per beta, in ascending beta order, all solved in
    one batch, exactly up to 4^4 deterministic encoders (as `solve_g`).
    cfg's beta is not used; its restarts, iterations and seed drive the
    search above that, and each point equals a solo `solve_g` at its beta."""
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise PreconditionError("beta grid is empty")
    bad = [b for b in betas if not 0 <= b < math.inf]
    if bad:
        raise PreconditionError(f"beta must be finite and >= 0, got {bad[0]}")
    betas.sort()
    return _solve(src, mech, betas, cfg)


def check_theorem1(pt: FrontierPoint, gamma: float, tol: float = 1e-6) -> tuple[bool, dict]:
    """Report the three inequalities of the main utility-leakage guarantee.

    Assumes the point met its utility constraint Gamma >= gamma.
    """
    eps = pt.epsilon
    report = {
        "gamma_le_Gamma_le_eps": gamma - tol <= pt.Gamma <= eps + tol,
        "Omega_le_eps_minus_nu": pt.Omega <= eps - pt.nu + tol,
        "Omega_le_ixz_le_eps": pt.Omega <= pt.ixz + tol and pt.ixz <= eps + tol,
    }
    return all(report.values()), report


# -- privacy-funnel oracle ---------------------------------------------------

ORACLE_MAX_CARD_X = 4  # the oracle's regime
# grid step 1/N of the candidate posteriors, by the count of x with p(x) > 0
_GRID_STEPS = {1: 1, 2: 200, 3: 60, 4: 20}
_REFINEMENTS = (4, 16)  # refinement r adds grid points of step 1/(r N) around each atom
_REACH = 8  # ... within this many of those steps, in l-inf over the first coordinates
_BLAND_AFTER = 20  # degenerate pivots in a row before Bland's rule prices
_PRICE_TOL, _PIVOT_TOL = 1e-12, 1e-14  # entering reduced costs < -1e-12; ratio-test entries > 1e-14


def _pairwise_fold(rows: np.ndarray) -> np.ndarray:
    """Add the rows of an (n, B) array in numpy's pairwise order, in place,
    and return the row that holds the sum: up to 7 rows in order, up to 128
    into eight accumulator rows combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    with the rest added in order, and above 128 the two halves split at a
    multiple of 8, each folded alone."""
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        left = _pairwise_fold(rows[:half])
        left += _pairwise_fold(rows[half:])
        return left
    if n < 8:
        for i in range(1, n):
            rows[0] += rows[i]
        return rows[0]
    blocked = n - n % 8
    for i in range(8, blocked, 8):
        rows[:8] += rows[i:i + 8]
    for step in (1, 2, 4):  # (r0+r1), (r2+r3), ... then their pairs
        rows[0:8:2 * step] += rows[step:8:2 * step]
    for i in range(blocked, n):
        rows[0] += rows[i]
    return rows[0]


def _batched_mi_terms(probs_2d: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """I(A;Z) for each channel in a (B, X, Z) batch, given p(a, x).

    The terms p(a,z) log-ratio are formed in place in the (A, Z, B) layout
    of `_log_ratio`, and their A Z rows are folded into one in numpy's
    pairwise order, so each value has the bits of the (B, A, Z) formula's
    ``.sum(axis=(1, 2))``.  numpy's sum starts from +0.0, which the
    returned copy adds, so a sum of negative zeros is +0.0 there too.
    """
    p_az, log_ratio = _log_ratio(probs_2d, channels)
    log_ratio *= p_az
    return _pairwise_fold(log_ratio.reshape(-1, log_ratio.shape[-1])) + 0.0


def _grid(centers: np.ndarray, reach: int, denominator: int) -> np.ndarray:
    """The simplex points a / denominator, a >= 0 integer, whose first
    coordinates a[:-1] lie within `reach` of a row of `centers` in l-inf."""
    side, dims = 2 * reach + 1, centers.shape[1]
    heads = np.concatenate(centers[:, None] + np.indices((side,) * dims).reshape(dims, side**dims).T - reach)
    last = denominator - heads.sum(axis=1)
    keep = (heads >= 0).all(axis=1) & (last >= 0)
    return np.column_stack([heads[keep], last[keep]]) / denominator


def _divergence(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(m_i || p) of each row m_i, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m > 0, m * np.log(m / p), 0.0).sum(axis=1)


def _zero_leakage_vertices(cond_s: np.ndarray, p_s: np.ndarray) -> list[np.ndarray]:
    """The vertices of {q : P_{S|X} q = p_S} in the simplex: the strictly
    positive solutions of [1; P_{S|X}[:-1, T]] q_T = [1; p_S[:-1]] of full
    column rank, over the supports T of at most |S| inputs."""
    card_s, n = cond_s.shape
    rhs, found = np.append(1.0, p_s[:-1]), []
    for size in range(1, min(card_s, n) + 1):
        for t in map(list, itertools.combinations(range(n), size)):
            system = np.vstack([np.ones(size), cond_s[:-1, t]])
            q_t, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
            if rank == size and (q_t > 0).all() and np.allclose(system @ q_t, rhs, rtol=0, atol=1e-12):
                found.append(np.zeros(n))
                found[-1][t] = q_t
    return found


def _simplex(
    a: np.ndarray, c: np.ndarray, b: np.ndarray, basis: list[int], pivots: int
) -> tuple[list[int], np.ndarray, int]:
    """Revised simplex for min c x s.t. a x = b, x >= 0 from a feasible
    `basis`: the optimal basis, its values and the pivots left of `pivots`
    (DivergenceError past them).  Dantzig's rule prices, and Bland's rule,
    which cannot cycle, after _BLAND_AFTER degenerate pivots in a row."""
    degenerate = 0
    while True:
        b_mat = a[:, basis]
        x = np.maximum(np.linalg.solve(b_mat, b), 0.0)
        reduced = c - np.linalg.solve(b_mat.T, c[basis]) @ a
        entering = np.flatnonzero(reduced < -_PRICE_TOL)
        if not entering.size:
            return basis, x, pivots
        if not pivots:
            raise DivergenceError("the oracle's linear program did not finish within its pivot budget")
        bland = degenerate >= _BLAND_AFTER
        e = entering[0] if bland else entering[np.argmin(reduced[entering])]
        d = np.linalg.solve(b_mat, a[:, e])
        rows = np.flatnonzero(d > _PIVOT_TOL)  # never empty: sum(w) = 1 bounds the LP
        ratios = x[rows] / d[rows]
        ties = rows[ratios == ratios.min()]
        basis[ties[np.argmin(np.take(basis, ties))] if bland else ties[0]] = e
        degenerate = degenerate + 1 if ratios.min() <= _PIVOT_TOL else 0
        pivots -= 1


def solve_G_bruteforce(
    src: JointSourceUSX, gamma: float, budget: int = 1_000_000, seed: int = 0
) -> tuple[float, Channel]:
    """Upper bound on min I(S;Z) s.t. I(U;Z) >= gamma - 1e-6 for |X| <= 4,
    and a channel of at most |X| + 1 outputs reaching it.  The name, kept
    as the benchmark's span target, is the random search's it replaced;
    `budget` caps the simplex pivots over all solves (DivergenceError past
    it), and `seed` is validated but unused: the LP is deterministic.

    With w_z = p(z), q_z = p(x|z), f(q) = D(P_{S|X} q || p_S) and g(q) =
    D(P_{U|X} q || p_U), the LP over posteriors Q on the x with p(x) > 0
    (unit vectors, the 1/N grid, the zero-leakage vertices) is min f w
    s.t. Q^T w = p(x), g w - t = gamma - 1e-6 + 1e-12 clamped to
    [0, I(U;X)], w, t >= 0, from the basis of the unit vectors and t; the
    1e-12 keeps the recomputed I(U;Z) off an ulp below.  Each of
    _REFINEMENTS adds finer grid points around the atoms and solves again.
    A basic solution has at most |X| + 1 atoms, as has the true optimum by
    Caratheodory (Witsenhausen and Wyner, IEEE T-IT 1975).  The channel is
    p(z|x) = w_z q_z(x) / p(x), an x of p(x) = 0 sent to output 0, and its
    leakage is recomputed and clamped at 0.
    """
    if src.card_x > ORACLE_MAX_CARD_X:
        raise PreconditionError(f"oracle regime is |X| <= {ORACLE_MAX_CARD_X}, got {src.card_x}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise PreconditionError(f"budget must be an integer >= 1, got {budget!r}")
    if not math.isfinite(gamma):
        raise PreconditionError(f"gamma must be finite, got {gamma}")
    p_ux, p_sx, p_x = src.p_ux(), src.p_sx(), src.p_x()
    max_util = mutual_information(p_ux)  # identity channel ceiling
    if gamma > max_util + CONSTRAINT_TOL:
        raise InfeasibleGammaError(f"gamma = {gamma:g} exceeds the maximum achievable I(U;Z) = {max_util:g}")

    on = np.flatnonzero(p_x > 0)
    n, p_on, steps = len(on), p_x[on], _GRID_STEPS[len(on)]
    cond_s, cond_u = p_sx[:, on] / p_on, p_ux[:, on] / p_on
    p_s, p_u = p_sx.sum(axis=1), p_ux.sum(axis=1)
    a, c = np.append(np.zeros(n), -1.0)[:, None], np.zeros(1)  # column 0 is t

    def add(q: np.ndarray) -> None:  # columns [q; g(q)] costing f(q)
        nonlocal a, c
        a = np.hstack([a, np.vstack([q.T, _divergence(q @ cond_u.T, p_u)])])
        c = np.append(c, _divergence(q @ cond_s.T, p_s))

    grid = _grid(np.zeros((1, n - 1), int), steps, steps)  # all of the 1/N grid: within N steps of 0
    add(np.vstack([np.eye(n), grid, *_zero_leakage_vertices(cond_s, p_s)]))
    cap = a[n, 1:n + 1] @ p_on  # I(U;X) from the unit vectors' g, so t >= 0 at the start
    b = np.append(p_on, min(max(gamma - CONSTRAINT_TOL + 1e-12, 0.0), cap))
    basis, x, pivots = _simplex(a, c, b, [*range(1, n + 1), 0], budget)
    for r in _REFINEMENTS:
        atoms = a[:n - 1, [j for j, w in zip(basis, x) if j and w > 0]].T
        add(_grid(np.rint(atoms * (r * steps)).astype(int), _REACH, r * steps))
        basis, x, pivots = _simplex(a, c, b, basis, pivots)

    atoms = [(j, w) for j, w in zip(basis, x) if j and w > 0]
    rows = np.zeros((src.card_x, len(atoms)))
    rows[:, 0] = 1.0  # an x with p(x) = 0 goes to output 0
    rows[on] = np.column_stack([w * a[:n, j] for j, w in atoms]) / p_on[:, None]
    channel = new_channel(rows)
    if _batched_mi_terms(p_ux, channel.rows[None])[0] < gamma - CONSTRAINT_TOL:
        raise InfeasibleGammaError(f"the oracle's channel misses I(U;Z) >= {gamma:g}")
    return max(float(_batched_mi_terms(p_sx, channel.rows[None])[0]), 0.0), channel


def check_corollary2(
    src: JointSourceUSX,
    gamma: float,
    budget: int = 1_000_000,
    cfg: SolverConfig | None = None,
) -> dict:
    """Checkable claims of the budget-equals-floor corollary, as a report.

    At eps = gamma * 1.001 the utility floor is out of reach for every
    encoder: Gamma <= I(X;Z) <= C_RR(eps) < gamma, where C_RR(eps) =
    log k - H(rr row) is the randomized-response channel's capacity.  The
    report checks that chain on the solver's frontier across the beta grid
    logspace(-2, 3, 6).  At the smallest eps in {1, ..., 5} whose frontier
    reaches Gamma >= gamma, it checks that the oracle's leakage, an upper
    bound on the minimum, is at most the smallest feasible one there and
    that the main guarantee holds at that point.  The solver-oracle gap
    is recorded, not checked: the solver maximizes nu + beta * Gamma,
    whose maximizer need not be the leakage minimizer.
    ``report["pass"]`` is true iff every claim holds.
    """
    if not 0 < gamma < math.inf:
        raise PreconditionError(f"gamma must be finite and > 0, got {gamma}")
    cfg = cfg if cfg is not None else SolverConfig()
    zhat_card = cfg.zhat_card if cfg.zhat_card is not None else src.card_x
    betas = np.logspace(-2, 3, 6)

    mech = RandomizedResponse(epsilon=gamma * 1.001, k=zhat_card, d=1)
    capacity = math.log(zhat_card) - entropy(rr_channel(mech).rows[0])
    points = trace_frontier(src, mech, betas, cfg)
    max_ixz = np.max([p.ixz for p in points])
    max_gamma = np.max([p.Gamma for p in points])
    report = {
        "capacity_nats": capacity,
        "max_ixz": max_ixz,
        "max_Gamma": max_gamma,
        "capacity_below_gamma": capacity < gamma,
        "ixz_le_capacity": max_ixz <= capacity + 1e-12,
        "Gamma_le_ixz": max_gamma <= max_ixz + 1e-12,
    }

    oracle_leak, _ = solve_G_bruteforce(src, gamma, budget=budget, seed=cfg.seed)
    report["oracle_nats"] = oracle_leak
    for eps in (1.0, 2.0, 3.0, 4.0, 5.0):
        points = trace_frontier(src, RandomizedResponse(epsilon=eps, k=zhat_card, d=1), betas, cfg)
        feasible = [p for p in points if p.Gamma >= gamma - CONSTRAINT_TOL]
        if feasible:
            best = min(feasible, key=lambda p: p.Omega)
            report.update(
                floor_epsilon=eps,
                solver_Omega=best.Omega,
                gap_nats=best.Omega - oracle_leak,
                oracle_le_solver=oracle_leak <= best.Omega + CONSTRAINT_TOL,
                theorem1=check_theorem1(best, gamma)[0],
            )
            break
    else:
        report["floor_epsilon"] = None  # no eps in 1..5 reaches the floor
    checks = ("capacity_below_gamma", "ixz_le_capacity", "Gamma_le_ixz", "oracle_le_solver", "theorem1")
    report["pass"] = all(report.get(k, False) for k in checks)
    return report
