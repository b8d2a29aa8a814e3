"""Reference values and output checks for the benchmark.

Every reference here is computed with numpy alone from the source the
benchmark generated; nothing in this module imports ``ldpfair``.  Each
check returns a list of problems, empty when the output passes, so a run
can report every failed property rather than the first one.

All information quantities are in nats.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TOL = 1e-9  # bound chains on exact quantities
ZERO_TOL = 1e-12  # every exact quantity at epsilon = 0
GAMMA_TOL = 1e-6  # the oracle's own feasibility slack
SIGMAS = 4.0  # sampling tolerance, in standard errors
MINE_TOL = 0.05  # nats: finite-sample excess of the neural estimate
ATTACKER_HOLDOUT = 0.3  # held-out share of the attacker's split


# -- exact references ----------------------------------------------------------


def mutual_info(joint) -> float:
    """I(A;B) of a 2-axis joint."""
    j = np.asarray(joint, dtype=np.float64)
    j = j / j.sum()
    outer = j.sum(axis=1, keepdims=True) * j.sum(axis=0, keepdims=True)
    nz = j > 0
    return float((j[nz] * np.log(j[nz] / outer[nz])).sum())


def rr_capacity(epsilon: float, k: int) -> float:
    """C_RR(eps) = log k - H(row) of the k-ary randomized-response channel."""
    denom = math.exp(epsilon) + k - 1
    keep, flip = math.exp(epsilon) / denom, 1.0 / denom
    return math.log(k) + keep * math.log(keep) + (k - 1) * flip * math.log(flip)


def bayes_accuracy(p_ax) -> float:
    """Accuracy of the MAP guess of A from X, given p(a, x)."""
    return float(np.asarray(p_ax).max(axis=0).sum())


def majority_rate(p_ax) -> float:
    """Accuracy of always guessing the most likely A."""
    return float(np.asarray(p_ax).sum(axis=1).max())


def _log_ratio_second_moment(p_sx) -> float:
    """Bound on E[log^2 p(s|z)/p(s)] over every Z with S - X - Z, for binary S.

    p(s=1|z) is a mixture of the p(s=1|x), so it lies between their
    extremes; the conditional second moment is maximized over that interval.
    """
    p_s1 = p_sx[1].sum()
    post = p_sx[1] / p_sx.sum(axis=0)
    q = np.linspace(post.min(), post.max(), 2001)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [np.where(w > 0, w * np.log(w / ps) ** 2, 0.0) for w, ps in ((q, p_s1), (1 - q, 1 - p_s1))]
    return float((terms[0] + terms[1]).max())


def source_refs(probs) -> dict:
    """The reference quantities of a (u, s, x) joint that the checks use."""
    p = np.asarray(probs, dtype=np.float64)
    p_ux, p_sx = p.sum(axis=1), p.sum(axis=0)
    return {
        "p_ux": p_ux,
        "p_sx": p_sx,
        "i_ux": mutual_info(p_ux),
        "i_sx": mutual_info(p_sx),
        "bayes_u": bayes_accuracy(p_ux),
        "bayes_s": bayes_accuracy(p_sx),
        "majority_u": majority_rate(p_ux),
        "min_p_us": float(p.sum(axis=2).min()),
        "leak_m2": _log_ratio_second_moment(p_sx),
    }


def _interval_problems(what: str, value: float, lo: float, hi: float) -> list[str]:
    if not (math.isfinite(value) and lo <= value <= hi):
        return [f"{what} = {value!r} outside [{lo:.6g}, {hi:.6g}]"]
    return []


# -- exact layer -----------------------------------------------------------------


def read_frontier_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    for r in rows:
        for key in ("beta", "epsilon", "Gamma", "Omega", "nu", "ixz"):
            r[key] = float(r[key])
    return rows


def check_frontier(rows: list[dict], refs: dict, epsilon: float, k: int, betas) -> list[str]:
    """Bound chains on every frontier row; collapse at epsilon = 0."""
    problems = []
    if sorted(r["beta"] for r in rows) != sorted(float(b) for b in betas):
        problems.append(f"frontier betas {[r['beta'] for r in rows]} != grid {list(betas)}")
    cap = rr_capacity(epsilon, k)
    if cap > epsilon + TOL:
        problems.append(f"C_RR({epsilon}) = {cap} exceeds epsilon")
    for r in rows:
        where = f"frontier eps={epsilon} beta={r['beta']}"
        gamma, omega, nu, ixz = r["Gamma"], r["Omega"], r["nu"], r["ixz"]
        values = (gamma, omega, nu, ixz)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value {values}")
            continue
        if r["epsilon"] != epsilon:
            problems.append(f"{where}: epsilon column reads {r['epsilon']}")
        if min(values) < -TOL:
            problems.append(f"{where}: negative information {values}")
        if gamma > min(ixz, refs["i_ux"]) + TOL:
            problems.append(f"{where}: Gamma {gamma} > min(ixz {ixz}, I(U;X) {refs['i_ux']})")
        if omega > min(ixz, refs["i_sx"]) + TOL:
            problems.append(f"{where}: Omega {omega} > min(ixz {ixz}, I(S;X) {refs['i_sx']})")
        if ixz > cap + TOL:
            problems.append(f"{where}: ixz {ixz} > C_RR {cap}")
        if omega > epsilon - nu + TOL:
            problems.append(f"{where}: Omega {omega} > eps - nu {epsilon - nu}")
        if epsilon == 0 and max(values) > ZERO_TOL:
            problems.append(f"{where}: no collapse at eps = 0: {values}")
    return problems


def check_oracle(
    leak: float, channel, refs: dict, gamma: float, frontier_rows: list[dict]
) -> list[str]:
    """Recompute the oracle's channel; it must lower-bound every feasible solver point."""
    ch = np.asarray(channel, dtype=np.float64)
    problems = []
    if ch.ndim != 2 or ch.shape[0] != refs["p_ux"].shape[1]:
        return [f"oracle channel has shape {ch.shape}"]
    if ch.min() < 0 or np.abs(ch.sum(axis=1) - 1.0).max() > TOL:
        problems.append("oracle channel is not row-stochastic")
    utility = mutual_info(refs["p_ux"] @ ch)
    leakage = mutual_info(refs["p_sx"] @ ch)
    if utility < gamma - GAMMA_TOL:
        problems.append(f"oracle channel reaches I(U;Z) = {utility}, below gamma {gamma}")
    if not abs(leakage - leak) <= TOL:
        problems.append(f"oracle reports leakage {leak}, its channel gives {leakage}")
    for r in frontier_rows:
        if r["Gamma"] >= gamma - GAMMA_TOL and leak > r["Omega"] + GAMMA_TOL:
            problems.append(
                f"oracle {leak} above feasible solver Omega {r['Omega']} "
                f"(eps={r['epsilon']} beta={r['beta']})"
            )
    return problems


VERIFY_CHECKS = ("lemma1_closure", "lemma2_budget_bound", "theorem1_bounds", "zero_budget_collapse")


def check_verify(payload: dict) -> list[str]:
    checks = payload.get("checks", {})
    problems = []
    if sorted(checks) != sorted(VERIFY_CHECKS):
        problems.append(f"verify ran checks {sorted(checks)}, expected {sorted(VERIFY_CHECKS)}")
    problems += [f"verify check {n} failed: {c}" for n, c in checks.items() if c.get("pass") is not True]
    if payload.get("pass") is not True:
        problems.append("verify.json overall pass is not true")
    return problems


# -- neural layer ----------------------------------------------------------------


def accuracy_bounds(refs: dict, n_test: int) -> tuple[float, float]:
    """Trained utility accuracy lies between these, on n_test rows.

    The floor asks for at least a quarter of the Bayes rule's gain over
    the majority guess; the ceiling adds SIGMAS standard errors of a
    Bayes-accurate classifier's empirical accuracy.
    """
    bayes, majority = refs["bayes_u"], refs["majority_u"]
    floor = majority + 0.25 * (bayes - majority)
    return floor, bayes + SIGMAS * math.sqrt(bayes * (1 - bayes) / n_test)


def attacker_ceiling(refs: dict, n_test: int) -> float:
    bayes = refs["bayes_s"]
    held_out = n_test - round(n_test * (1 - ATTACKER_HOLDOUT))
    return bayes + SIGMAS * math.sqrt(bayes * (1 - bayes) / held_out)


def leakage_ceiling(refs: dict, epsilon: float, n_test: int, codes: int | None) -> float:
    """min(eps, I(S;X)) plus the estimator's slack.

    Plug-in over `codes` symbols with binary S: the first-order bias
    (codes - 1) / (2n) plus SIGMAS standard errors, each at most
    sqrt(E[log^2 p(s|z)/p(s)] / n).  Neural (codes is None): MINE_TOL.
    """
    bound = min(epsilon, refs["i_sx"])
    if codes is None:
        return bound + MINE_TOL
    return bound + (codes - 1) / (2 * n_test) + SIGMAS * math.sqrt(refs["leak_m2"] / n_test)


def check_report(
    report: dict, refs: dict, epsilon: float, n_test: int, seeds, codes: int | None
) -> list[str]:
    """Every per-seed figure of an evaluation report against the source's limits."""
    per = report.get("per_seed", {})
    if report.get("seeds") != list(seeds):
        return [f"report seeds {report.get('seeds')} != requested {list(seeds)}"]
    lo, hi = accuracy_bounds(refs, n_test)
    att = attacker_ceiling(refs, n_test)
    leak = leakage_ceiling(refs, epsilon, n_test, codes)
    problems = []
    for i, seed in enumerate(seeds):
        try:
            problems += _interval_problems(f"seed {seed} accuracy", per["accuracy"][i], lo, hi)
            problems += _interval_problems(
                f"seed {seed} sensitive_accuracy", per["sensitive_accuracy"][i], 0.0, att
            )
            problems += _interval_problems(f"seed {seed} leakage", per["leakage"][i], -TOL, leak)
            problems += _interval_problems(f"seed {seed} delta_dp", per["delta_dp"][i], 0.0, 1.0)
            problems += _interval_problems(f"seed {seed} delta_eo", per["delta_eo"][i], 0.0, 1.0)
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"report lacks a per-seed figure for seed {seed}: {exc!r}")
    return problems


def check_history(text: str, epochs: int) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))[1:]
    if len(rows) != epochs:
        return [f"history has {len(rows)} epochs, expected {epochs}"]
    bad = [r for r in rows if not all(math.isfinite(float(v)) for v in r)]
    return [f"history rows not finite: {bad[:3]}"] if bad else []


# -- repeatability -----------------------------------------------------------------


def check_repeat(first: dict, again: dict) -> list[str]:
    """Artifacts of a repeated round must equal the first round's exactly."""
    problems = []
    for key in sorted(set(first) | set(again)):
        a, b = first.get(key), again.get(key)
        same = (
            a is not None
            and b is not None
            and (
                a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)
                if isinstance(a, dict) and isinstance(b, dict)
                else a == b
            )
        )
        if not same:
            problems.append(f"artifact {key} differs between rounds with the same seeds")
    return problems
