"""Each output check accepts a correct output and rejects a corrupted one.

Also checks the span arithmetic, the tracer's patching, and that
BENCHMARK.json names exactly the metrics and workloads the runner prints.
Run with: python -m pytest benchmarks/test_benchmark.py
"""

import copy
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import refcheck
import spans
import workloads

PROBS = np.random.default_rng(7).dirichlet(np.ones(12)).reshape(2, 2, 3)
REFS = refcheck.source_refs(PROBS)


def exact_row(eps: float, beta: float = 1.0) -> dict:
    """The exact figures of a random encoder followed by 3-ary RR at eps."""
    enc = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
    e = math.exp(eps)
    rr = np.full((3, 3), 1.0 / (e + 2))
    np.fill_diagonal(rr, e / (e + 2))
    ch = enc @ rr
    p_xz = PROBS.sum(axis=(0, 1))[:, None] * ch
    p_s = PROBS.sum(axis=(0, 2))
    nu = sum(p_s[s] * refcheck.mutual_info(REFS["p_sx"][s][:, None] * ch) for s in range(2))
    return {
        "beta": beta, "epsilon": eps,
        "Gamma": refcheck.mutual_info(REFS["p_ux"] @ ch),
        "Omega": refcheck.mutual_info(REFS["p_sx"] @ ch),
        "nu": nu, "ixz": refcheck.mutual_info(p_xz),
    }


# -- exact layer ------------------------------------------------------------------


def test_frontier_accepts_exact_rows():
    for eps in (0.0, 0.5, 3.0):
        row = exact_row(eps)
        if eps == 0:
            row = {**row, "Gamma": 0.0, "Omega": 0.0, "nu": 0.0, "ixz": 0.0}
        assert refcheck.check_frontier([row], REFS, eps, 3, [1.0]) == []


def test_frontier_csv_round_trip():
    text = "# config_hash=abc\nbeta,epsilon,gamma,Gamma,Omega,nu,ixz,converged\n1.0,0.5,nan,0.1,0.01,0.1,0.11,True\n"
    (row,) = refcheck.read_frontier_csv(text)
    assert row["beta"] == 1.0 and row["Omega"] == 0.01


@pytest.mark.parametrize(
    "field, value, eps, message",
    [
        ("Gamma", "ixz+", 3.0, "Gamma"),
        ("Omega", "ixz+", 3.0, "Omega"),
        ("Omega", REFS["i_sx"] + 1e-6, 3.0, "Omega"),
        ("ixz", refcheck.rr_capacity(0.5, 3) + 1e-6, 0.5, "C_RR"),
        ("nu", 0.5, 0.5, "eps - nu"),
        ("Gamma", float("nan"), 3.0, "non-finite"),
        ("nu", -1e-6, 3.0, "negative"),
        ("epsilon", 2.0, 3.0, "epsilon column"),
        ("beta", 2.0, 3.0, "betas"),
        ("ixz", 1e-11, 0.0, "collapse"),
    ],
)
def test_frontier_rejects_corrupted_row(field, value, eps, message):
    row = exact_row(eps)
    if eps == 0:
        row = {**row, "Gamma": 0.0, "Omega": 0.0, "nu": 0.0, "ixz": 0.0}
    row[field] = row["ixz"] + 1e-6 if value == "ixz+" else value
    problems = refcheck.check_frontier([row], REFS, eps, 3, [1.0])
    assert any(message in p for p in problems), problems


def test_gamma_above_utility_ceiling_rejected():
    row = exact_row(3.0)
    row["ixz"] = row["Gamma"] = REFS["i_ux"] + 1e-6  # ixz is not the binding cap here
    problems = refcheck.check_frontier([row], REFS, 3.0, 3, [1.0])
    assert any("I(U;X)" in p for p in problems), problems


def test_oracle_accepts_identity_channel():
    leak = refcheck.mutual_info(REFS["p_sx"])
    feasible = {"Gamma": REFS["i_ux"], "Omega": leak, "epsilon": 9.0, "beta": 1.0}
    assert refcheck.check_oracle(leak, np.eye(3), REFS, 0.5 * REFS["i_ux"], [feasible]) == []


@pytest.mark.parametrize("corruption", ["leak", "gamma", "bound", "stochastic", "shape"])
def test_oracle_rejects_corruption(corruption):
    leak, channel, gamma = refcheck.mutual_info(REFS["p_sx"]), np.eye(3), 0.5 * REFS["i_ux"]
    rows = []
    if corruption == "leak":
        leak += 1e-7
    elif corruption == "gamma":
        gamma = REFS["i_ux"] + 1e-5
    elif corruption == "bound":
        rows = [{"Gamma": gamma, "Omega": leak - 1e-5, "epsilon": 3.0, "beta": 1.0}]
    elif corruption == "stochastic":
        channel = channel * 1.01
    else:
        channel = np.eye(4)
    assert refcheck.check_oracle(leak, channel, REFS, gamma, rows) != []


def test_oracle_ignores_infeasible_solver_points():
    leak, gamma = refcheck.mutual_info(REFS["p_sx"]), 0.5 * REFS["i_ux"]
    rows = [{"Gamma": gamma - 1e-3, "Omega": 0.0, "epsilon": 1.0, "beta": 1.0}]
    assert refcheck.check_oracle(leak, np.eye(3), REFS, gamma, rows) == []


VERIFY_OK = {
    "pass": True,
    "checks": {name: {"pass": True} for name in refcheck.VERIFY_CHECKS},
}


def test_verify_accepts_passing_payload():
    assert refcheck.check_verify(VERIFY_OK) == []


@pytest.mark.parametrize("corruption", ["check", "overall", "extra", "missing"])
def test_verify_rejects_corruption(corruption):
    payload = copy.deepcopy(VERIFY_OK)
    if corruption == "check":
        payload["checks"]["theorem1_bounds"]["pass"] = False
    elif corruption == "overall":
        payload["pass"] = False
    elif corruption == "extra":
        payload["checks"]["budget_equals_floor"] = {"pass": True}
    else:
        del payload["checks"]["lemma1_closure"]
    assert refcheck.check_verify(payload) != []


# -- neural layer -----------------------------------------------------------------

N_TEST, SEEDS = 2000, [4, 5]


def good_report(codes):
    lo, hi = refcheck.accuracy_bounds(REFS, N_TEST)
    per = {
        "accuracy": [(lo + hi) / 2] * 2,
        "sensitive_accuracy": [REFS["bayes_s"]] * 2,
        "leakage": [0.5 * REFS["i_sx"]] * 2,
        "delta_dp": [0.1] * 2,
        "delta_eo": [0.2] * 2,
    }
    return {"seeds": list(SEEDS), "per_seed": per}


@pytest.mark.parametrize("codes", [16, None])
def test_report_accepts_plausible_figures(codes):
    assert refcheck.check_report(good_report(codes), REFS, 8.0, N_TEST, SEEDS, codes) == []


@pytest.mark.parametrize("codes", [16, None])
@pytest.mark.parametrize(
    "key, value",
    [
        ("accuracy", REFS["majority_u"]),  # a constant predictor
        ("accuracy", 1.0),
        ("sensitive_accuracy", 1.0),
        ("leakage", REFS["i_sx"] + 0.3),
        ("leakage", float("nan")),
        ("delta_dp", 1.5),
        ("delta_eo", -0.1),
    ],
)
def test_report_rejects_corrupted_figure(codes, key, value):
    report = good_report(codes)
    report["per_seed"][key][1] = value
    assert refcheck.check_report(report, REFS, 8.0, N_TEST, SEEDS, codes) != []


def test_report_leakage_capped_by_budget():
    report = good_report(16)
    report["per_seed"]["leakage"] = [0.5 * REFS["i_sx"]] * 2
    assert refcheck.check_report(report, REFS, 1e-3, N_TEST, SEEDS, 16) != []


def test_report_rejects_wrong_seeds_or_missing_figure():
    report = good_report(16)
    assert refcheck.check_report(report, REFS, 8.0, N_TEST, [4, 6], 16) != []
    del report["per_seed"]["delta_eo"]
    assert refcheck.check_report(report, REFS, 8.0, N_TEST, SEEDS, 16) != []


def test_history_checks():
    head = "# config_hash=abc\nepoch,total,reconstruction,utility,codebook,commitment\n"
    good = head + "0,1.0,0.5,0.5,0.0,0.0\n1,0.9,0.4,0.5,0.0,0.0\n"
    assert refcheck.check_history(good, 2) == []
    assert refcheck.check_history(good, 3) != []
    assert refcheck.check_history(good.replace("0.9", "nan"), 2) != []


def test_repeat_checks():
    first = {"csv": "a,b\n", "model": {"p0": np.arange(3.0)}}
    assert refcheck.check_repeat(first, copy.deepcopy(first)) == []
    assert refcheck.check_repeat(first, {**first, "csv": "a,c\n"}) != []
    assert refcheck.check_repeat(first, {**first, "model": {"p0": np.arange(3.0) + 1e-15}}) != []
    assert refcheck.check_repeat(first, {"csv": "a,b\n"}) != []


# -- tracing ----------------------------------------------------------------------


def test_self_times_subtract_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    s = [["a", 0, 10, -1, 1, None], ["b", 1, 4, 0, 1, None], ["d", 2, 3, 1, 1, None], ["c", 5, 9, 0, 1, None]]
    assert [round(t * 1e9) for t in spans.self_times(s)] == [3, 2, 1, 4]
    summary = spans.summarize(s, lo=1)
    assert summary["b"]["self_s"] * 1e9 == pytest.approx(2) and "a" not in summary


@pytest.fixture
def fake_package(monkeypatch):
    pkg, core, user = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.core", "fakepkg.user"))

    def work(x):
        return inner(x) + 1

    def inner(x):
        return x * 2

    def fit(x):
        return core.inner(x)

    core.work, core.inner, core.fit = work, inner, fit
    user.work = work  # as bound by "from .core import work"
    for m in (pkg, core, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return core, user


def test_tracer_patches_every_binding_and_restores(fake_package, monkeypatch):
    core, user = fake_package
    original = core.work
    tracer = spans.Tracer("fakepkg")
    tracer.install([spans.Target("core", "work", fields=lambda x: x)])
    assert user.work is core.work is not original
    with tracer.operation("op"):
        assert user.work(3) == 7
    tracer.uninstall()
    assert user.work is core.work is original
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [("op", -1, 1, None), ("core.work", 0, 1, 3)]


def test_fit_only_targets_record_under_fit_spans(fake_package, monkeypatch):
    core, _ = fake_package
    monkeypatch.setattr(spans, "FIT_SPANS", frozenset({"core.fit"}))
    tracer = spans.Tracer("fakepkg")
    tracer.install([spans.Target("core", "fit"), spans.Target("core", "inner", fit_only=True)])
    core.inner(1)  # outside any fit span: not recorded
    core.fit(1)
    tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["core.fit", "core.inner"]


def test_feasible_ratio_splits_utility_and_leakage_passes():
    summary = {"ib_solver.batched_mi_terms": {"fields": [((1, 100), 0), ((2, 25), 0), ((1, 100), 0), ((7, 50), 5)]}}
    assert workloads._feasible_ratio(summary) == pytest.approx(25 / 250)


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    per_layer = [m[:3] for m in workloads.PER_LAYER] + [workloads.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert spec["command"] == ["python3", "benchmarks/run.py"] and spec["paths"] == ["benchmarks"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
