"""The benchmark's workloads, its operation runner and its metrics.

A run sets up its inputs several times (reporting the median set-up
time), then repeats whole rounds of its workload's operations until the
time is up, with at least two rounds.  Every operation goes through a
public entry point of the program: ``ldpfair.cli.main`` in-process, or
``ib_solver.solve_G_bruteforce``, which no command exposes.  Every output
is checked by `refcheck`, and every round after the first must reproduce
the first round's artifacts exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import refcheck
import spans

SETUP_REPEATS = 9
MIN_ROUNDS = 2
PACKAGE = "ldpfair"


def import_program():
    """Import ldpfair and its CLI afresh, so each set-up repeat pays the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    return sys.modules[PACKAGE]


class Runner:
    """Runs operations, counts them, and collects problems found in outputs."""

    def __init__(self, program):
        self.program = program
        self.tracer = spans.Tracer(PACKAGE)
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_seconds: list[tuple[str, float]] = []  # of the current round

    def call(self, kind: str, fn):
        """(ok, result, seconds) of fn(); an exception or exit code != 0 is a failed operation."""
        self.attempted += 1
        op = self.tracer.operation(kind) if self.tracing else contextlib.nullcontext()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with op, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                result = fn()
        except Exception:  # the run goes on; the traceback names the fault
            self.failed += 1
            print(f"operation {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False, None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        self.op_seconds.append((kind, seconds))
        if kind.startswith("cli.") and result != 0:
            self.failed += 1
            print(f"operation {kind} exited {result}: {err.getvalue().strip()}", file=sys.stderr)
            return False, None, seconds
        return True, result, seconds

    def cli(self, command: str, config: Path, out: Path, seed: int):
        # the module attribute is looked up per call, so traced rounds see the wrapper
        argv = [command, "--config", str(config), "--out", str(out), "--seed", str(seed)]
        return self.call(f"cli.{command}", lambda: self.program.cli.main(argv))

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)


class Round:
    """Timings and artifacts of one round."""

    def __init__(self):
        self.fit_units = self.eval_units = 0
        self.fit_s = self.eval_s = self.wall_s = 0.0
        self.artifacts: dict = {}
        self.ops: list[tuple[str, float]] = []


# -- exact-frontier --------------------------------------------------------------


class ExactFrontier:
    """frontier over a beta grid at several epsilon, verify, and the oracle.

    One source with |X| = 3 and one with |X| = 4, both |U| = |S| = 2,
    drawn Dirichlet(1) from the seed.  The encoder alphabet is |X| and the
    mechanism is k = |X| randomized response, the frontier command's
    defaults.
    """

    name = "exact-frontier"
    CARD_X = (3, 4)
    EPSILONS = (0.0, 1.0, 3.0)
    BETAS = (0.1, 1.0, 10.0, 100.0)
    RESTARTS, ITERATIONS = 2, 400
    ORACLE_BUDGET = 1_000_000

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, program) -> None:
        rng = np.random.default_rng([self.seed, 0])
        solver = f"beta={','.join(map(str, self.BETAS))}\nrestarts={self.RESTARTS}\niterations={self.ITERATIONS}\n"
        self.sources = []
        for i, card_x in enumerate(self.CARD_X):
            probs = rng.dirichlet(np.ones(4 * card_x)).reshape(2, 2, card_x)
            path = self.work / f"source{i}.txt"
            path.write_text(f"2 2 {card_x}\n" + "\n".join(f"{v:.17g}" for v in probs.ravel()) + "\n")
            frontier_cfgs = []
            for eps in self.EPSILONS:
                cfg = self.work / f"frontier{i}-eps{eps}.cfg"
                cfg.write_text(f"source={path}\nepsilon={eps}\n{solver}")
                frontier_cfgs.append((eps, cfg))
            verify_cfg = self.work / f"verify{i}.cfg"
            budgets = ",".join(str(e) for e in self.EPSILONS if e > 0)
            verify_cfg.write_text(
                f"source={path}\nepsilon={budgets}\nsolve_epsilon={max(self.EPSILONS)}\n{solver}"
            )
            refs = refcheck.source_refs(probs)
            self.sources.append({
                "index": i,
                "card_x": card_x,
                "refs": refs,
                "gamma": 0.5 * refs["i_ux"],
                "source": program.discrete_source.load_source(path),
                "frontier_cfgs": frontier_cfgs,
                "verify_cfg": verify_cfg,
                "cli_seed": int(rng.integers(0, 2**31)),
            })

    def round(self, run: Runner, rnd: Round) -> None:
        for src in self.sources:
            i, refs = src["index"], src["refs"]
            rows_all = []
            for eps, cfg in src["frontier_cfgs"]:
                out = self.work / f"frontier{i}-eps{eps}"
                ok, _, seconds = run.cli("frontier", cfg, out, src["cli_seed"])
                rnd.fit_s += seconds
                if not ok:
                    continue
                rnd.fit_units += len(self.BETAS)
                text = (out / "frontier.csv").read_text()
                rnd.artifacts[f"frontier{i}-eps{eps}"] = text
                rows = refcheck.read_frontier_csv(text)
                run.check(refcheck.check_frontier(rows, refs, eps, src["card_x"], self.BETAS))
                rows_all += rows

            out = self.work / f"verify{i}"
            ok, _, _ = run.cli("verify", src["verify_cfg"], out, src["cli_seed"])
            if ok:
                text = (out / "verify.json").read_text()
                rnd.artifacts[f"verify{i}"] = text
                run.check(refcheck.check_verify(json.loads(text)))

            ok, result, seconds = run.call(
                "ib_solver.solve_G_bruteforce",
                lambda: run.program.ib_solver.solve_G_bruteforce(
                    src["source"], src["gamma"], budget=self.ORACLE_BUDGET, seed=src["cli_seed"]
                ),
            )
            rnd.eval_s += seconds
            if ok:
                rnd.eval_units += self.ORACLE_BUDGET
                leak, channel = result
                rnd.artifacts[f"oracle{i}"] = {"leak": np.array(leak), "channel": channel.rows}
                run.check(refcheck.check_oracle(leak, channel.rows, refs, src["gamma"], rows_all))


# -- neural-discrete and neural-continuous ---------------------------------------


class Neural:
    """train, then evaluate over several seeds, on a synthetic dataset.

    The source is ldpfair's Dirichlet(1) synthetic source; the benchmark
    draws its source seed and keeps the first whose Bayes accuracy for U
    from X beats the majority rate by BAYES_GAIN and whose every (u, s)
    cell has mass MIN_CELL, so that a trained model has something to learn
    and every fairness gap is defined on the test split.
    """

    CARD_X, N_TRAIN, N_TEST = 4, 4000, 2000
    EPOCHS, BATCH, BETA = 30, 256, 1.0
    BAYES_GAIN, MIN_CELL = 0.15, 0.02

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, program) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(1000):
            source_seed = int(rng.integers(1, 2**31))
            probs = np.random.default_rng(source_seed).dirichlet(np.ones(4 * self.CARD_X))
            refs = refcheck.source_refs(probs.reshape(2, 2, self.CARD_X))
            if refs["bayes_u"] - refs["majority_u"] >= self.BAYES_GAIN and refs["min_p_us"] >= self.MIN_CELL:
                break
        else:
            raise RuntimeError("no synthetic source seed meets the Bayes-gain and cell-mass limits")
        self.refs = refs
        self.cli_seed = int(rng.integers(0, 2**31))
        self.eval_seeds = [int(v) for v in rng.integers(0, 2**31, size=self.N_EVAL_SEEDS)]
        self.cfg = self.work / "neural.cfg"
        self.cfg.write_text(
            f"dataset=synthetic\ncard_x={self.CARD_X}\nsource_seed={source_seed}\n"
            f"data_seed={int(rng.integers(0, 2**31))}\n"
            f"n_train={self.N_TRAIN}\nn_test={self.N_TEST}\n{self.MECHANISM}\n"
            f"epsilon={self.EPSILON}\nbeta={self.BETA}\nepochs={self.EPOCHS}\nbatch={self.BATCH}\n"
            f"seeds={','.join(map(str, self.eval_seeds))}\n"
        )

    def round(self, run: Runner, rnd: Round) -> None:
        out = self.work / "model"
        ok, _, seconds = run.cli("train", self.cfg, out, self.cli_seed)
        rnd.fit_s += seconds
        if ok:
            rnd.fit_units += self.N_TRAIN * self.EPOCHS
            with np.load(out / "model.npz") as f:
                rnd.artifacts["model"] = {k: f[k] for k in f.files}
            history = (out / "history.csv").read_text()
            rnd.artifacts["history"] = history
            run.check(refcheck.check_history(history, self.EPOCHS))

        ok, _, seconds = run.cli("evaluate", self.cfg, out, self.cli_seed)
        rnd.eval_s += seconds
        if ok:
            rnd.eval_units += len(self.eval_seeds)
            text = (out / "report.json").read_text()
            rnd.artifacts["report"] = text
            run.check(refcheck.check_report(
                json.loads(text), self.refs, self.EPSILON, self.N_TEST, self.eval_seeds, self.CODES
            ))


class NeuralDiscrete(Neural):
    """Randomized response on learned codes; leakage is plug-in, MINE is idle."""

    name = "neural-discrete"
    MECHANISM = "mechanism=rr\nk=4\nd=2"
    EPSILON = 8.0
    CODES = 4**2
    N_EVAL_SEEDS = 4


class NeuralContinuous(Neural):
    """Laplace noise on a truncated vector; leakage is MINE, 2000 iterations a seed."""

    name = "neural-continuous"
    MECHANISM = "mechanism=laplace\nt=0.5\nd=2"
    EPSILON = 10.0
    CODES = None
    N_EVAL_SEEDS = 2


WORKLOADS = {w.name: w for w in (ExactFrontier, NeuralDiscrete, NeuralContinuous)}


# -- metrics -----------------------------------------------------------------------

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fit_rate", "1/s", "higher"),
    ("eval_rate", "1/s", "higher"),
)


def _feasible_ratio(summary: dict) -> float:
    """Candidates meeting gamma over candidates tried, from the oracle's MI batches.

    Within one oracle call the first batch's table is p(u, x); batches over
    any other table are the leakage passes over the feasible candidates.
    """
    utility_table: dict = {}
    tried = feasible = 0
    for (table, n), parent in summary.get("ib_solver.batched_mi_terms", {}).get("fields", []):
        if utility_table.setdefault(parent, table) == table:
            tried += n
        else:
            feasible += n
    return feasible / tried if tried else 0.0


def _mine_iter_ms(summary: dict) -> float:
    entry = summary.get("info_measures.mine_estimate")
    if not entry:
        return 0.0
    return 1000.0 * entry["self_s"] / sum(f for f, _ in entry["fields"])


def _self_s(span: str):
    return lambda summary: summary[span]["self_s"] if span in summary else 0.0


def _calls(span: str):
    return lambda summary: summary[span]["calls"] if span in summary else 0


# name, unit, better, value from one traced round's span summary
PER_LAYER = (
    ("ib_solver.solve_g_s", "s", "lower", _self_s("ib_solver.solve_g")),
    ("ib_solver.solve_g_calls", "count", "lower", _calls("ib_solver.solve_g")),
    ("ib_solver.objective_graph_s", "s", "lower", _self_s("ib_solver.objective_graph")),
    ("ib_solver.objective_graph_calls", "count", "lower", _calls("ib_solver.objective_graph")),
    ("autodiff.backward_s", "s", "lower", _self_s("autodiff.backward")),
    ("autodiff.backward_calls", "count", "lower", _calls("autodiff.backward")),
    ("autodiff.adam_step_s", "s", "lower", _self_s("autodiff.adam_step")),
    ("autodiff.adam_step_calls", "count", "lower", _calls("autodiff.adam_step")),
    ("ib_solver.bruteforce_s", "s", "lower", _self_s("ib_solver.solve_G_bruteforce")),
    ("ib_solver.mi_batch_s", "s", "lower", _self_s("ib_solver.batched_mi_terms")),
    ("ib_solver.mi_batch_calls", "count", "lower", _calls("ib_solver.batched_mi_terms")),
    ("ib_solver.oracle_feasible_ratio", "ratio", "higher", _feasible_ratio),
    ("ldp_mechanisms.verify_ldp_s", "s", "lower", _self_s("ldp_mechanisms.verify_ldp")),
    ("info_measures.exact_mi_calls", "count", "lower", _calls("info_measures.mutual_information")),
    ("fair_encoder.train_s", "s", "lower", _self_s("fair_encoder.train")),
    ("fair_encoder.loss_graph_s", "s", "lower", _self_s("fair_encoder.loss_graph")),
    ("fair_encoder.loss_graph_calls", "count", "lower", _calls("fair_encoder.loss_graph")),
    ("fair_encoder.quantize_s", "s", "lower", _self_s("fair_encoder.quantize")),
    ("ldp_mechanisms.rr_randomize_s", "s", "lower", _self_s("ldp_mechanisms.rr_randomize")),
    ("info_measures.mine_estimate_s", "s", "lower", _self_s("info_measures.mine_estimate")),
    ("info_measures.mine_iter_ms", "ms", "lower", _mine_iter_ms),
    ("fairness_metrics.full_report_s", "s", "lower", _self_s("fairness_metrics.full_report")),
    ("fairness_metrics.train_downstream_s", "s", "lower", _self_s("fairness_metrics.train_downstream")),
    ("fairness_metrics.train_downstream_calls", "count", "lower", _calls("fairness_metrics.train_downstream")),
    ("fair_encoder.encode_s", "s", "lower", _self_s("fair_encoder.encode")),
    ("info_measures.plugin_mi_s", "s", "lower", _self_s("info_measures.plugin_mi")),
    ("cli.self_s", "s", "lower", _self_s("cli.main")),
    ("datasets.generate_synthetic_calls", "count", "lower", _calls("datasets.generate_synthetic")),
)
OVERHEAD = ("trace.overhead_s", "s", "lower")


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- a run -------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: Path) -> tuple[dict, bool]:
    """One benchmark run; returns (result object, whether to exit 0)."""
    work = out_root / "scratch" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(WORKLOADS[workload](seed, work), seed, seconds, trace, out_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, seed: int, seconds: float, trace: bool, out_root: Path) -> tuple[dict, bool]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        program = import_program()
        wl.setup(program)
        setup_times.append(time.perf_counter() - t0)

    runner = Runner(program)
    rounds: list[Round] = []
    traced_summaries = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rnd = Round()
        # in a traced run, odd rounds are traced and even rounds are not
        runner.tracing = trace and len(rounds) % 2 == 1
        lo = len(runner.tracer.spans)
        runner.op_seconds = rnd.ops
        if runner.tracing:
            runner.tracer.install()
        t0 = time.perf_counter()
        try:
            wl.round(runner, rnd)
        finally:
            rnd.wall_s = time.perf_counter() - t0
            runner.tracer.uninstall()
        if runner.tracing:
            traced_summaries.append(spans.summarize(runner.tracer.spans, lo))
        if rounds:
            runner.check(refcheck.check_repeat(rounds[0].artifacts, rnd.artifacts))
        rounds.append(rnd)
        print(
            f"{wl.name} round {len(rounds)}{' traced' if runner.tracing else ''}: "
            f"{rnd.wall_s:.3f} s, fit {rnd.fit_units} in {rnd.fit_s:.3f} s, "
            f"eval {rnd.eval_units} in {rnd.eval_s:.3f} s",
            file=sys.stderr,
        )

    for p in runner.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not runner.problems
    if trace:
        untraced = [r.wall_s for i, r in enumerate(rounds) if i % 2 == 0]
        traced = [r.wall_s for i, r in enumerate(rounds) if i % 2 == 1]
        metrics = {
            name: _metric(statistics.median(fn(s) for s in traced_summaries), unit)
            for name, unit, _, fn in PER_LAYER
        }
        metrics[OVERHEAD[0]] = _metric(statistics.median(traced) - statistics.median(untraced), OVERHEAD[1])
        (out_root / "traces").mkdir(parents=True, exist_ok=True)
        runner.tracer.write(out_root / "traces" / f"{wl.name}-seed{seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fit_rate": statistics.median(r.fit_units / r.fit_s for r in rounds),
            "eval_rate": statistics.median(r.eval_units / r.eval_s for r in rounds),
        }
        metrics = {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    detail = dict(result, machine=machine(), rounds=[{"wall_s": r.wall_s, "ops": r.ops} for r in rounds])
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    (out_root / "results" / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail) + "\n")
    return result, correct and runner.failed == 0
