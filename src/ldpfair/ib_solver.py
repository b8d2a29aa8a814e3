"""Exact utility-leakage optimization on small discrete alphabets.

Maximizes I(X;Z|S) + beta * I(U;Z) over softmax-parameterized encoders
composed with a fixed randomized-response channel.  The objective and its
gradient have a closed form in the induced joint (log-ratio terms, as in
the information bottleneck): one kernel weighs I(X;Z), I(S;Z) and I(U;Z)
over their stacked tables in one pass, one batched Adam ascent runs every
restart and every beta of a frontier at once, and every reported quantity
is recomputed exactly.  A brute-force candidate search over raw channels,
scored by `_log_ratio`, is the independent oracle for min I(S;Z) subject
to I(U;Z) >= gamma: a worker thread draws random candidates in chunks of
25k while the calling thread scores the previous chunk, with the same
candidate stream and first-minimum choice as a serial search.

Only the discrete randomized-response mechanism is admitted here: it has
an exact finite channel form, so the theory checks are enumerations, not
estimates.  Continuous (Laplace) mechanisms are handled by the trained
encoder path with estimated information measures.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .discrete_source import Channel, JointSourceUSX, compose, induced_joint, new_channel
from .errors import DivergenceError, InfeasibleGammaError, PreconditionError
from .info_measures import conditional_mi, entropy, mutual_information
from .ldp_mechanisms import RandomizedResponse, rr_channel

CONSTRAINT_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    beta: float = 1.0
    restarts: int = 8
    iterations: int = 2000
    learning_rate: float = 0.05
    tol: float = 1e-7
    zhat_card: int | None = None  # defaults to |X|
    seed: int = 0

    def __post_init__(self):
        if self.beta < 0:
            raise PreconditionError(f"beta must be >= 0, got {self.beta}")
        if self.restarts < 1 or self.iterations < 1 or self.learning_rate <= 0 or self.tol <= 0:
            raise PreconditionError("restarts, iterations, learning_rate, tol must be positive")


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
    encoder: Channel | None
    objective: float
    converged: bool


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stochastic encoder p(zhat|x) from logits, over the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_ratio(p_ax: np.ndarray, channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(a, z) and log[p(a,z) / (p(a) p(z))], 0 where p(a,z) = 0, for each
    channel p(z|x) in a (B, X, Z) batch, given the table p(a, x)."""
    p_az = p_ax @ channels
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(p_az)
        log_ratio -= np.log(p_az.sum(axis=1, keepdims=True))
        log_ratio -= np.log(p_ax.sum(axis=1))[:, None]
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


def _objective_graph(
    logits: np.ndarray, tables: tuple, channel: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """w_X I(X;Z) + w_S I(S;Z) + w_U I(U;Z) and its gradient w.r.t. the
    logits, in closed form, for a (B, |X|, |Zhat|) batch of logits with one
    row of (w_X, w_S, w_U) per logit row in the (B, 3) `weights`.  Z is the
    softmax encoder followed by `channel`; `tables` comes from `_tables`.

    With S - X - Z Markov, I(X;Z|S) + beta I(U;Z) takes the weights (1, -1, beta).
    For a table p(a, x), dI(A;Z)/dp(z|x) = sum_a p(a,x) log[p(a,z) / (p(a) p(z))]
    up to a per-x constant, which the softmax chain removes.  The three tables
    share p(z) = sum_x p(x) p(z|x), so one pass over the stacked rows serves all.
    """
    p_ax, log_pa, p_x, which = tables
    enc = _softmax(logits)
    pzx = enc @ channel
    p_az = p_ax @ pzx
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(p_az)
        log_ratio -= np.log(p_x @ pzx)[:, None, :]
        log_ratio -= log_pa
    np.copyto(log_ratio, 0.0, where=p_az == 0)
    log_ratio *= (weights @ which.T)[:, :, None]  # each row's table weight
    g_enc = (p_ax.T @ log_ratio) @ channel.T
    return (p_az * log_ratio).sum(axis=(1, 2)), enc * (g_enc - (enc * g_enc).sum(axis=2, keepdims=True))


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


def _solve(
    src: JointSourceUSX, mech: RandomizedResponse, betas: list[float], cfg: SolverConfig
) -> list[FrontierPoint | None]:
    """Adam ascent of every (beta, restart) pair as one batch of logits.

    Row b * restarts + r runs restart r, seeded by [cfg.seed, r], at
    betas[b].  A row stops once its objective moves by less than cfg.tol
    or becomes non-finite; the rows still running share Adam's step count,
    so each follows the trajectory it would follow alone.  Per beta, the
    restart with the best objective before its last step wins, and the
    point is recomputed from its exact joint; None marks a beta with a
    non-finite restart.
    """
    zhat_card = cfg.zhat_card if cfg.zhat_card is not None else src.card_x
    if zhat_card != mech.k**mech.d:
        raise PreconditionError(
            f"intermediate alphabet {zhat_card} does not match mechanism "
            f"alphabet k^d = {mech.k**mech.d}"
        )
    rr_rows = rr_channel(mech).rows
    tables = _tables(src)
    starts = [
        np.random.default_rng([cfg.seed, r]).normal(0.0, 1.0, size=(src.card_x, zhat_card))
        for r in range(cfg.restarts)
    ]
    logits = np.tile(starts, (len(betas), 1, 1))
    row_beta = np.repeat(betas, cfg.restarts)
    weights = np.column_stack([np.ones_like(row_beta), -np.ones_like(row_beta), row_beta])
    last = np.full(len(logits), -np.inf)
    converged = np.zeros(len(logits), dtype=bool)
    finite = np.ones(len(logits), dtype=bool)

    active = np.arange(len(logits))
    param = ad.parameter(logits.copy())
    opt = ad.AdamState(lr=cfg.learning_rate)
    for _ in range(cfg.iterations):
        val, grad = _objective_graph(param.data, tables, rr_rows, weights)
        bad = ~np.isfinite(val)
        done = bad | (np.abs(val - last[active]) < cfg.tol)
        if done.any():
            finite[active[bad]] = False
            converged[active[done & ~bad]] = True
            logits[active[done]] = param.data[done]
            keep = ~done
            active, val, grad, weights = active[keep], val[keep], grad[keep], weights[keep]
            if opt.m is not None:  # Adam's flat moments, in the parameter's layout
                opt.m, opt.v = (a.reshape(param.data.shape)[keep].ravel() for a in (opt.m, opt.v))
            param = ad.parameter(param.data[keep])
            if not active.size:
                break
        last[active] = val
        ad.adam_step([param], opt, grads=-grad.ravel())  # ascent
    logits[active] = param.data

    points = []
    for b, beta in enumerate(betas):
        rows = slice(b * cfg.restarts, (b + 1) * cfg.restarts)
        if not finite[rows].all():
            points.append(None)
            continue
        best = b * cfg.restarts + int(np.argmax(last[rows]))
        enc = new_channel(_softmax(logits[best]))
        points.append(_exact_point(src, enc, rr_rows, beta, mech.epsilon, bool(converged[best])))
    return points


def solve_g(src: JointSourceUSX, mech: RandomizedResponse, cfg: SolverConfig) -> FrontierPoint:
    """Gradient-ascent maximization of I(X;Z|S) + beta I(U;Z).

    Multi-restart Adam over encoder logits; the best restart wins and its
    reported quantities are recomputed from the final exact joint.
    """
    (pt,) = _solve(src, mech, [cfg.beta], cfg)
    if pt is None:
        raise DivergenceError("solver objective became non-finite; lower the learning rate")
    return pt


def trace_frontier(
    src: JointSourceUSX, mech: RandomizedResponse, beta_grid, cfg: SolverConfig
) -> list[FrontierPoint]:
    """One solved point per beta, in ascending beta order, all solved in
    one batch; a beta whose ascent diverged is recorded as an unconverged
    NaN point rather than aborting the sweep."""
    betas = sorted(float(b) for b in beta_grid)
    if not betas:
        raise PreconditionError("beta grid is empty")
    if betas[0] < 0:
        raise PreconditionError(f"beta must be >= 0, got {betas[0]}")
    nan = math.nan
    return [
        pt if pt is not None else FrontierPoint(
            beta=beta, epsilon=mech.epsilon, gamma_target=nan, Gamma=nan, Omega=nan, nu=nan,
            ixz=nan, encoder=None, objective=nan, converged=False,
        )
        for beta, pt in zip(betas, _solve(src, mech, betas, cfg))
    ]


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


# -- brute-force oracle ------------------------------------------------------

_CONCENTRATIONS = (0.05, 0.2, 1.0, 5.0)  # Dirichlet concentrations of the random candidates
_CHUNK = 25_000  # random candidates per drawn and scored batch


def _batched_mi_terms(probs_2d: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """I(A;Z) for each channel in a (B, X, Z) batch, given p(a, x)."""
    p_az, log_ratio = _log_ratio(probs_2d, channels)
    return (p_az * log_ratio).sum(axis=(1, 2))


def solve_G_bruteforce(
    src: JointSourceUSX, gamma: float, budget: int = 1_000_000, seed: int = 0, card_z: int | None = None
) -> tuple[float, Channel]:
    """Oracle minimum of I(S;Z) subject to I(U;Z) >= gamma - 1e-6.

    Searches deterministic channels plus Dirichlet-sampled random
    channels at several concentrations; intended for |X| <= 4, |Z| <= 4
    where the candidate cloud covers the feasible set densely.

    The random candidates come in chunks of _CHUNK.  One worker thread
    draws chunk k + 1 while this thread scores chunk k; the worker makes
    the same ``rng.dirichlet`` calls in the same order as a serial loop,
    and a split draw equals an unsplit one, so the candidate stream does
    not depend on the chunking.  A later candidate replaces the best only
    if its leakage is strictly lower, so the first minimum wins.
    """
    card_z = card_z if card_z is not None else src.card_x
    if src.card_x > 4 or card_z > 4:
        raise PreconditionError("oracle regime is |X| <= 4 and |Z| <= 4")
    p_ux, p_sx = src.p_ux(), src.p_sx()
    max_util = mutual_information(p_ux)  # identity channel ceiling
    if gamma > max_util + CONSTRAINT_TOL:
        raise InfeasibleGammaError(
            f"gamma = {gamma:g} exceeds the maximum achievable I(U;Z) = {max_util:g}"
        )
    rng = np.random.default_rng(seed)

    best_leak = np.inf
    best_channel = None

    def consider(channels: np.ndarray) -> None:
        nonlocal best_leak, best_channel
        util = _batched_mi_terms(p_ux, channels)
        feasible = channels[util >= gamma - CONSTRAINT_TOL]
        if not len(feasible):
            return
        leak = _batched_mi_terms(p_sx, feasible)
        i = int(np.argmin(leak))
        if leak[i] < best_leak:
            best_leak = float(leak[i])
            best_channel = feasible[i].copy()  # not a view pinning the batch

    # all deterministic channels (at most 4**4): channel i sends x to digit x of i in base card_z
    det = np.eye(card_z)[np.arange(card_z**src.card_x)[:, None] // card_z ** np.arange(src.card_x) % card_z]

    per_conc = max(budget - len(det), 0) // len(_CONCENTRATIONS)
    draws = [
        (alpha, min(_CHUNK, per_conc - done))
        for alpha in _CONCENTRATIONS
        for done in range(0, per_conc, _CHUNK)
    ]

    def draw(alpha: float, size: int) -> np.ndarray:
        return rng.dirichlet(np.full(card_z, alpha), size=(size, src.card_x))

    with ThreadPoolExecutor(max_workers=1) as worker:
        futures = (worker.submit(draw, *d) for d in draws)  # each submitted when taken
        pending = next(futures, None)
        consider(det)
        while pending is not None:
            channels = pending.result()
            pending = next(futures, None)
            consider(channels)

    if best_channel is None:
        raise InfeasibleGammaError(
            f"no candidate among {budget} reached I(U;Z) >= {gamma:g}; "
            f"maximum achievable is {max_util:g}"
        )
    return best_leak, new_channel(best_channel)


def check_corollary2(
    src: JointSourceUSX,
    gamma: float,
    budget: int = 1_000_000,
    cfg: SolverConfig | None = None,
    slack: float = 1e-3,
    beta_grid=None,
) -> dict:
    """Checkable claims of the budget-equals-floor corollary, as a report.

    At eps = gamma * (1 + slack) the utility floor is out of reach for every
    encoder: Gamma <= I(X;Z) <= C_RR(eps) < gamma, where C_RR(eps) =
    log k - H(rr row) is the randomized-response channel's capacity.  The
    report checks that chain on the solver's frontier across the beta grid.
    At the smallest eps in {1, ..., 5} whose frontier reaches Gamma >= gamma,
    it checks that the brute-force oracle lower-bounds the smallest feasible
    leakage and that the main guarantee holds at that point.  The
    solver-oracle gap is recorded, not checked: the solver maximizes
    nu + beta * Gamma, whose maximizer need not be the leakage minimizer.
    ``report["pass"]`` is true iff every claim holds.
    """
    if gamma <= 0:
        raise PreconditionError(f"gamma must be > 0, got {gamma}")
    cfg = cfg if cfg is not None else SolverConfig()
    zhat_card = cfg.zhat_card if cfg.zhat_card is not None else src.card_x
    betas = beta_grid if beta_grid is not None else np.logspace(-2, 3, 6)

    mech = RandomizedResponse(epsilon=gamma * (1.0 + slack), k=zhat_card, d=1)
    capacity = math.log(zhat_card) - entropy(rr_channel(mech).rows[0])
    points = trace_frontier(src, mech, betas, cfg)
    max_ixz = np.max([p.ixz for p in points])  # a NaN point fails the checks below
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
