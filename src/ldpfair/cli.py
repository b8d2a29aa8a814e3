"""Batch command-line surface.

Commands: fetch-data, verify, solve, frontier, train, evaluate, sweep,
report.  Configuration is plain key=value text (diff-friendly experiment
records).  `KEYS` gives every key's type and whether it takes a grid,
e.g. ``beta=logspace(-3,3,7)`` or ``epsilon=0.5,5,1000``; `main` checks
the config against it before any work.  A command that uses one value of
a grid key exits 2 on a grid; verify checks every beta.  Every artifact
embeds the hash of the parsed config, so a result file can always be
traced to the exact configuration that produced it.

Exit codes: 0 success, 2 config error, 3 check failure, 4 runtime/data
error.  An `--out` that cannot be made a directory is a config error.  A
sweep with a failed cell still writes sweep.csv (the other cells' rows)
and sweep_failures.txt, and exits 4.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import datasets, fair_encoder, fairness_metrics, ib_solver
from .discrete_source import load_source, random_source
from .errors import ConfigError, DatasetError, LdpFairError, PreconditionError
from .ib_solver import SolverConfig, check_theorem1, solve_g, trace_frontier
from .ldp_mechanisms import (
    check_lemma1,
    mechanism_from_spec,
    rr_channel,
    verify_ldp,
    RandomizedResponse,
)

CACHE_ENV = "LDPFAIR_CACHE_DIR"
SWEEP_COLUMNS = [
    "beta", "epsilon", "mode", "accuracy", "delta_dp", "delta_eo",
    "leakage_nats", "sensitive_acc", "seed",
]
REPORT_METRICS = ("accuracy", "delta_dp", "delta_eo", "leakage_nats", "sensitive_acc")

# key -> (cast, takes a grid).  Every key some command reads; any other key
# is a misspelling.  Grid keys read as a list even when given one value.
ONE, GRID = False, True
KEYS: dict[str, tuple[type, bool]] = {
    # data
    "dataset": (str, ONE), "adult_url": (str, ONE), "cache_dir": (str, ONE),
    "compas_csv": (str, ONE), "card_x": (int, ONE), "feat_dim": (int, ONE),
    "source_seed": (int, ONE), "data_seed": (int, ONE), "sigma": (float, ONE),
    "n_train": (int, ONE), "n_test": (int, ONE),
    # exact layer: source, solver and checks
    "source": (str, ONE), "card_u": (int, ONE), "card_s": (int, ONE),
    "zhat_card": (int, ONE), "restarts": (int, ONE), "iterations": (int, ONE),
    "solve_epsilon": (float, ONE), "gamma": (float, ONE),
    "oracle_budget": (int, ONE), "verify_sources": (int, ONE),
    "check_budget_equals_floor": (bool, ONE),
    # mechanism and training
    "epsilon": (float, GRID), "beta": (float, GRID), "mechanism": (str, GRID),
    "t": (float, ONE), "d": (int, ONE), "k": (int, ONE), "D": (int, ONE),
    "L": (int, ONE), "epochs": (int, ONE), "batch": (int, ONE), "lr": (float, ONE),
    # evaluation and reports
    "model": (str, ONE), "seeds": (int, GRID), "sweep": (str, GRID),
}
# the least value of each bounded int key: seeds of numpy generators take no
# negative value, an oracle budget or a source count of 0 checks nothing,
# and an empty alphabet makes an empty source
MINIMUMS = {
    "source_seed": 0, "data_seed": 0, "seeds": 0, "oracle_budget": 1, "verify_sources": 1,
    "card_u": 1, "card_s": 1, "card_x": 1,
}
# float keys that must be finite and > 0: a utility floor of 0 or below
# checks nothing, and a NaN or an infinite one reaches no comparison
POSITIVE = ("gamma",)
_BOOLS = {"true": True, "false": False, "1": True, "0": False}

_GRID_RE = re.compile(r"^logspace\(\s*(-?[\d.]+)\s*,\s*(-?[\d.]+)\s*,\s*(\d+)\s*\)$")
# most points a logspace grid may ask for; checked before the grid is made
MAX_GRID_POINTS = 10_000


def parse_config(text: str) -> dict:
    """key=value lines; '#' comments; grids via logspace(a,b,n) or commas."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        cfg[key] = _parse_value(value)
    return cfg


def _parse_value(value: str):
    m = _GRID_RE.match(value)
    if m:
        try:
            lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
        except ValueError:  # a bound such as "." or "1..2"
            raise ConfigError(f"logspace grid bounds must be numbers: {value!r}") from None
        if n < 1:
            raise ConfigError(f"logspace grid needs >= 1 points: {value!r}")
        if n > MAX_GRID_POINTS:
            raise ConfigError(f"logspace grid of {n} points; at most {MAX_GRID_POINTS}: {value!r}")
        return [float(v) for v in np.logspace(lo, hi, n)]
    if "," in value:
        return [_parse_scalar(v.strip()) for v in value.split(",") if v.strip()]
    return _parse_scalar(value)


def _parse_scalar(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def check_config(cfg: dict) -> dict:
    """A typed copy of a parsed config, checked against `KEYS`.

    Raises ConfigError on an unknown key (naming the nearest known one), a
    value that does not cast, a fractional int, a bad bool, a value below
    its key's `MINIMUMS` entry, a `POSITIVE` key's value that is not finite
    and > 0, or a grid on a one-value key.  A grid key
    maps to a non-empty list.
    """
    typed = {}
    for key, value in cfg.items():
        if key not in KEYS:
            near = difflib.get_close_matches(key, KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        cast, grid = KEYS[key]
        if grid:
            values = value if isinstance(value, list) else [value]
            if not values:
                raise ConfigError(f"config key {key!r} has an empty grid")
            typed[key] = [_cast(key, v, cast) for v in values]
        elif isinstance(value, list):
            raise ConfigError(f"config key {key!r} takes one value, got the grid {value!r}")
        else:
            typed[key] = _cast(key, value, cast)
        if key in MINIMUMS and min(typed[key] if grid else [typed[key]]) < MINIMUMS[key]:
            raise ConfigError(f"config key {key!r} must be >= {MINIMUMS[key]}, got {value!r}")
        if key in POSITIVE and not 0 < typed[key] < math.inf:
            raise ConfigError(f"config key {key!r} must be finite and > 0, got {value!r}")
    return typed


def _cast(key: str, value, cast):
    if cast is str:
        return str(value)
    if cast is bool:
        flag = _BOOLS.get(str(value).lower())
        if flag is None:
            raise ConfigError(f"config key {key!r} must be true, false, 1 or 0, got {value!r}")
        return flag
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None
    if cast is int and number != value:
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return number


def _required(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _one(cfg: dict, key: str, default=None):
    """The value of a grid key where the command takes one; no default
    means the key is required."""
    values = _required(cfg, key) if default is None else cfg.get(key, [default])
    if len(values) > 1:
        raise ConfigError(f"config key {key!r} takes one value, got the grid {values!r}")
    return values[0]


def _cache_dir(cfg: dict, out: Path) -> Path:
    return Path(os.environ.get(CACHE_ENV) or cfg.get("cache_dir", out / "cache"))


def _write_json(path: Path, payload: dict) -> None:
    # numpy scalars (np.bool_, np.float64) leak into check reports; .item()
    # converts them to native types
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.item()) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], chash: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={chash}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    header, *rows = list(csv.reader(lines)) or [[]]
    return header, rows


def _load_config_source(cfg: dict):
    path = cfg.get("source")
    if path:
        return load_source(path)
    return random_source(
        cfg.get("card_u", 2), cfg.get("card_s", 2),
        cfg.get("card_x", 3), seed=cfg.get("source_seed", 0),
    )


def _solver_config(cfg: dict, beta: float, seed: int) -> SolverConfig:
    return SolverConfig(
        beta=beta, seed=seed,
        **_given(restarts=cfg.get("restarts"), iterations=cfg.get("iterations"), zhat_card=cfg.get("zhat_card")),
    )


def _solver_mechanism(cfg: dict, src, epsilon: float) -> RandomizedResponse:
    return RandomizedResponse(epsilon=epsilon, k=cfg.get("zhat_card", src.card_x), d=1)


def _load_dataset_pair(cfg: dict, out: Path):
    name = _required(cfg, "dataset")
    if name == "adult":
        train_raw, test_raw = datasets.fetch_uci_adult(
            _cache_dir(cfg, out), url_override=cfg.get("adult_url")
        )
        return datasets.preprocess_adult(train_raw, test_raw)
    if name == "compas":
        return datasets.load_compas(_required(cfg, "compas_csv"))
    if name == "synthetic":
        return datasets.generate_synthetic(_synthetic_spec(cfg))
    raise ConfigError(f"unknown dataset {name!r}; use adult, compas, or synthetic")


def _load_test_split(cfg: dict, out: Path):
    """The test split of `_load_dataset_pair`; synthetic data builds it alone."""
    if cfg.get("dataset") == "synthetic":
        return datasets.synthetic_split(_synthetic_spec(cfg), "test")
    return _load_dataset_pair(cfg, out)[1]


def _synthetic_spec(cfg: dict) -> datasets.SyntheticSpec:
    card_x = cfg.get("card_x", 4)
    feat_dim = cfg.get("feat_dim", card_x)
    src = random_source(2, 2, card_x, seed=cfg.get("source_seed", 0))
    return datasets.SyntheticSpec(
        source=src, means=2.0 * np.eye(card_x, feat_dim), sigma=cfg.get("sigma", 0.5),
        n_train=cfg.get("n_train", 4000),
        n_test=cfg.get("n_test", 2000),
        seed=cfg.get("data_seed", 0),
    )


def _given(**values) -> dict:
    """The arguments whose config key is set; the rest take the callee's default."""
    return {name: v for name, v in values.items() if v is not None}


def _train_model(cfg: dict, train_ds, kind: str, epsilon: float, beta: float, seed: int):
    """(model, per-epoch losses) of an encoder built and trained as the config says."""
    mech = mechanism_from_spec(
        {"kind": kind, "epsilon": epsilon, **_given(t=cfg.get("t"), d=cfg.get("d"), k=cfg.get("k"))}
    )
    model = fair_encoder.EncoderModel(
        train_ds.schema, mech, seed=seed, code_dim=cfg.get("D", fair_encoder.DEFAULT_CODE_DIM)
    )
    tc = fair_encoder.TrainConfig(
        beta=beta, seed=seed,
        **_given(epochs=cfg.get("epochs"), batch_size=cfg.get("batch"),
                 learning_rate=cfg.get("lr"), mc_samples=cfg.get("L")),
    )
    return model, fair_encoder.train(model, train_ds, tc)


# -- commands ----------------------------------------------------------------


def cmd_fetch_data(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    train, test = _load_dataset_pair(cfg, out)
    datasets.save_dataset(train, out / "train.npz")
    datasets.save_dataset(test, out / "test.npz")
    _write_json(
        out / "fetch.json",
        {
            "config_hash": chash,
            "train_rows": train.n,
            "test_rows": test.n,
            "train_hash": train.content_hash(),
            "test_hash": test.content_hash(),
        },
    )
    print(f"wrote {out / 'train.npz'} ({train.n} rows) and {out / 'test.npz'} ({test.n} rows)")
    return 0


def cmd_verify(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    """Run every theory check; exit 0 iff all pass.  The lemmas are checked
    at every epsilon, the bound chain at solve_epsilon and every beta, and
    the collapse at epsilon 0 and every beta."""
    checks: dict[str, dict] = {}
    rng_seeds = [seed + i for i in range(cfg.get("verify_sources", 3))]
    check_floor = cfg.get("check_budget_equals_floor", False)
    src = _load_config_source(cfg)
    if check_floor and src.card_x > ib_solver.ORACLE_MAX_CARD_X:  # fail before any check runs
        raise ConfigError(
            f"check_budget_equals_floor: oracle regime is |X| <= {ib_solver.ORACLE_MAX_CARD_X}, got {src.card_x}"
        )

    # closure + budget bound over random encoders and RR channels
    worst_ratio, worst_mi = 0.0, 0.0
    lemma_ok = True
    from .discrete_source import compose, induced_joint, random_channel
    from .info_measures import mutual_information

    for eps in cfg.get("epsilon", [0.5, 1.0, 2.0]):
        mech_ch = rr_channel(RandomizedResponse(epsilon=eps, k=3, d=1))
        for s in rng_seeds:
            lemma_src = random_source(2, 2, 3, seed=s)
            enc = random_channel(3, 3, seed=s + 1)
            if not check_lemma1(enc, mech_ch, eps):
                lemma_ok = False
            ratio, _ = verify_ldp(compose(enc, mech_ch), eps)
            worst_ratio = max(worst_ratio, ratio - eps)
            mi = mutual_information(induced_joint(lemma_src, compose(enc, mech_ch)).p_xz())
            worst_mi = max(worst_mi, mi - eps)
    checks["lemma1_closure"] = {"pass": lemma_ok, "worst_ratio_excess": worst_ratio}
    checks["lemma2_budget_bound"] = {"pass": worst_mi <= 1e-9, "worst_mi_excess": worst_mi}

    # bound chain at the solved point of every beta, each inequality held
    # at all of them, plus the zero-budget case at its largest terms
    betas = cfg.get("beta", [10.0])
    solver_cfg = _solver_config(cfg, betas[0], seed)
    points = trace_frontier(src, _solver_mechanism(cfg, src, cfg.get("solve_epsilon", 1.0)), betas, solver_cfg)
    reports = [check_theorem1(p, gamma=p.Gamma)[1] for p in points]
    report = {name: all(r[name] for r in reports) for name in reports[0]}
    checks["theorem1_bounds"] = {"pass": all(report.values()), **report}

    zero = trace_frontier(src, _solver_mechanism(cfg, src, 0.0), betas, solver_cfg)
    largest = {name: max(getattr(p, name) for p in zero) for name in ("Gamma", "Omega", "ixz")}
    checks["zero_budget_collapse"] = {"pass": max(largest.values()) <= 1e-12, **largest}

    if check_floor:
        try:
            checks["budget_equals_floor"] = ib_solver.check_corollary2(
                src, gamma=cfg.get("gamma", 0.05),
                budget=cfg.get("oracle_budget", 100_000), cfg=solver_cfg,
            )
        except LdpFairError as exc:
            checks["budget_equals_floor"] = {"pass": False, "error": str(exc)}

    all_ok = bool(all(c["pass"] for c in checks.values()))
    payload = {"config_hash": chash, "pass": all_ok, "checks": checks}
    _write_json(out / "verify.json", payload)
    for name, c in checks.items():
        print(f"{'PASS' if c['pass'] else 'FAIL'} {name}")
    if not all_ok:
        failed = [n for n, c in checks.items() if not c["pass"]]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_solve(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    src = _load_config_source(cfg)
    eps = _one(cfg, "epsilon")
    beta = _one(cfg, "beta", 1.0)
    pt = solve_g(src, _solver_mechanism(cfg, src, eps), _solver_config(cfg, beta, seed))
    payload = {
        "config_hash": chash,
        "beta": pt.beta, "epsilon": pt.epsilon, "Gamma": pt.Gamma, "Omega": pt.Omega,
        "nu": pt.nu, "ixz": pt.ixz, "objective": pt.objective, "converged": pt.converged,
    }
    _write_json(out / "solution.json", payload)
    from .discrete_source import save_channel

    save_channel(pt.encoder, out / "encoder.channel")
    print(f"Gamma={pt.Gamma:.6f} Omega={pt.Omega:.6f} ixz={pt.ixz:.6f}")
    return 0


def cmd_frontier(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    src = _load_config_source(cfg)
    eps = _one(cfg, "epsilon")
    betas = _required(cfg, "beta")
    points = trace_frontier(src, _solver_mechanism(cfg, src, eps), betas, _solver_config(cfg, betas[0], seed))
    rows = [
        [p.beta, p.epsilon, p.gamma_target, p.Gamma, p.Omega, p.nu, p.ixz, p.converged]
        for p in points
    ]
    _write_csv(
        out / "frontier.csv",
        ["beta", "epsilon", "gamma", "Gamma", "Omega", "nu", "ixz", "converged"],
        rows, chash,
    )
    print(f"wrote {out / 'frontier.csv'} ({len(points)} points)")
    return 0


def cmd_train(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    train_ds, _ = _load_dataset_pair(cfg, out)
    model, history = _train_model(
        cfg, train_ds, _one(cfg, "mechanism", "laplace"), _one(cfg, "epsilon"),
        _one(cfg, "beta", 1.0), seed,
    )
    fair_encoder.save_model(model, out / "model.npz")
    _write_csv(
        out / "history.csv",
        ["epoch", "total", "reconstruction", "utility", "codebook", "commitment"],
        [
            [i, bd.total, bd.reconstruction, bd.utility, bd.codebook, bd.commitment]
            for i, bd in enumerate(history)
        ],
        chash,
    )
    print(f"trained {len(history)} epochs; final loss {history[-1].total:.4f}")
    return 0


def cmd_evaluate(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    ckpt = Path(cfg.get("model", out / "model.npz"))
    if not ckpt.exists():
        raise DatasetError(f"no checkpoint at {ckpt}; run the train command first")
    model = fair_encoder.load_model(ckpt)
    test_ds = _load_test_split(cfg, out)
    if model.schema != test_ds.schema:
        trained, given = (", ".join(f"{c.name}[{c.size}]" for c in sc) for sc in (model.schema, test_ds.schema))
        raise DatasetError(
            f"checkpoint {ckpt} was trained on columns {trained}, but the dataset has {given}"
            + (" with other categories" if trained == given else "")
        )
    seeds = cfg.get("seeds", [seed])
    report = fairness_metrics.full_report(model, test_ds, seeds)
    _write_json(out / "report.json", {**report.__dict__, "config_hash": chash})
    print(
        f"accuracy {report.accuracy_mean:.4f} ddp {report.delta_dp_mean:.4f} "
        f"leakage {report.leakage_mean:.4f} nats"
    )
    return 0


def _sweep_cell(args):
    """One (beta, epsilon, mode) training + evaluation; returns result rows."""
    cfg, out_str, beta, eps, mode, seed = args
    out = Path(out_str)
    try:
        train_ds, test_ds = _load_dataset_pair(cfg, out)
        model, _ = _train_model(cfg, train_ds, mode, eps, beta, seed)
        seeds = cfg.get("seeds", [seed])
        rep = fairness_metrics.full_report(model, test_ds, seeds)
        return [
            [beta, eps, mode, rep.per_seed["accuracy"][i], rep.per_seed["delta_dp"][i],
             rep.per_seed["delta_eo"][i], rep.per_seed["leakage"][i],
             rep.per_seed["sensitive_accuracy"][i], sd]
            for i, sd in enumerate(seeds)
        ], None
    except LdpFairError as exc:
        return [], f"beta={beta} epsilon={eps} mode={mode}: {exc}"


def cmd_sweep(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    betas, epsilons = _required(cfg, "beta"), _required(cfg, "epsilon")
    modes = cfg.get("mechanism", ["laplace"])
    cells = [(cfg, str(out), b, e, m, seed) for b in betas for e in epsilons for m in modes]

    # a fork-started pool forks all its workers at the first submit, so no
    # more than one a cell
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    rows, failures = [], []
    for cell_rows, err in results:
        rows.extend(cell_rows)
        if err:
            failures.append(err)
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[8]))  # deterministic merge
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows, chash)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    if failures:
        (out / "sweep_failures.txt").write_text("\n".join(failures) + "\n")
        print(f"{len(failures)} cells failed; see {out / 'sweep_failures.txt'}", file=sys.stderr)
        return 4
    return 0


def cmd_report(cfg: dict, out: Path, seed: int, jobs: int, chash: str) -> int:
    """Merge sweep CSVs into per-(beta, epsilon, mode) accuracy vs fairness tables."""
    paths = [Path(p) for p in cfg.get("sweep", [out / "sweep.csv"])]
    groups: dict[tuple, dict[str, list[float]]] = {}
    for path in paths:
        try:
            header, rows = _read_csv(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise DatasetError(f"cannot read sweep file {path}: {exc}") from None
        missing = [c for c in ("beta", "epsilon", "mode", *REPORT_METRICS) if c not in header]
        if missing:
            raise DatasetError(f"{path} is not a sweep CSV: no column {', '.join(missing)}")
        col = {name: i for i, name in enumerate(header)}
        try:
            for r in rows:
                key = (float(r[col["beta"]]), float(r[col["epsilon"]]), r[col["mode"]])
                g = groups.setdefault(key, {m: [] for m in REPORT_METRICS})
                for m in g:
                    g[m].append(float(r[col[m]]))
        except (IndexError, ValueError) as exc:
            raise DatasetError(f"{path}: malformed sweep row: {exc}") from None
    table = []
    for (beta, eps, mode), metrics in sorted(groups.items()):
        entry = {"beta": beta, "epsilon": eps, "mode": mode}
        for m, vals in metrics.items():
            entry[f"{m}_median"] = float(np.median(vals))
            entry[f"{m}_std"] = float(np.std(vals))
        table.append(entry)
    payload = {"config_hash": chash, "cells": table}
    _write_json(out / "report.json", payload)
    print(f"wrote {out / 'report.json'} ({len(table)} cells)")
    return 0


COMMANDS = {
    "fetch-data": cmd_fetch_data,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "frontier": cmd_frontier,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldpfair",
        description="fair representation learning under local differential privacy",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    args = parser.parse_args(argv)

    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        parsed = parse_config(args.config.read_text()) if args.config else {}
        cfg = check_config(parsed)
        args.out.mkdir(parents=True, exist_ok=True)  # fails if --out names a file
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return COMMANDS[args.command](cfg, args.out, args.seed, args.jobs, config_hash(parsed))
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LdpFairError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
