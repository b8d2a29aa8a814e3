"""Batch command-line surface.

Commands: fetch-data, verify, solve, frontier, train, evaluate, sweep,
report.  Configuration is plain key=value text (diff-friendly experiment
records) with an explicit grid syntax, e.g. ``beta=logspace(-3,3,7)`` or
``epsilon=0.5,5,1000``.  Every artifact embeds the config hash so a
result file can always be traced to the exact configuration that
produced it.

Exit codes: 0 success, 2 config error, 3 check failure, 4 runtime/data
error.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import datasets, fair_encoder, fairness_metrics, ib_solver
from .discrete_source import load_source, random_source
from .errors import (
    ConfigError,
    DatasetError,
    DivergenceError,
    LdpFairError,
    PreconditionError,
)
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

# every key some command reads; any other key is a misspelling
KNOWN_KEYS = frozenset({
    "D", "L", "adult_url", "batch", "beta", "cache_dir", "card_s", "card_u", "card_x",
    "check_budget_equals_floor", "compas_csv", "d", "data_seed", "dataset", "epochs",
    "epsilon", "feat_dim", "gamma", "iterations", "k", "lr", "mechanism", "model",
    "n_test", "n_train", "oracle_budget", "restarts", "seeds", "sigma", "solve_epsilon",
    "solver_lr", "source", "source_seed", "sweep", "t", "verify_sources", "zhat_card",
})

_GRID_RE = re.compile(r"^logspace\(\s*(-?[\d.]+)\s*,\s*(-?[\d.]+)\s*,\s*(\d+)\s*\)$")


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


def check_keys(cfg: dict) -> None:
    """Reject a key no command reads, suggesting the nearest known one."""
    for key in cfg:
        if key not in KNOWN_KEYS:
            near = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")


def _parse_value(value: str):
    m = _GRID_RE.match(value)
    if m:
        lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
        if n < 1:
            raise ConfigError(f"logspace grid needs >= 1 points: {value!r}")
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


def _dump_json(payload: dict) -> str:
    # numpy scalars (np.bool_, np.float64) leak into check reports; .item()
    # converts them to native types
    return json.dumps(
        payload, indent=2, default=lambda o: o.item() if hasattr(o, "item") else str(o)
    ) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"config key {key!r} is required")
    return default


_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def _get_bool(cfg: dict, key: str, default: bool) -> bool:
    """A flag given as true, false, 1 or 0; anything else is a ConfigError."""
    value = _get(cfg, key, default)
    flag = _BOOLS.get(str(value).lower())
    if flag is None:
        raise ConfigError(f"config key {key!r} must be true, false, 1 or 0, got {value!r}")
    return flag


def _number(key: str, value, cast):
    """One config value as int or float; a grid, a non-number or a
    fractional int is a ConfigError."""
    if isinstance(value, list):
        raise ConfigError(f"config key {key!r} takes one value, got the grid {value!r}")
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None
    if cast is int and number != value:
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return number


def _get_int(cfg: dict, key: str, default=None):
    return _number(key, cfg[key], int) if key in cfg else default


def _get_float(cfg: dict, key: str, default=None):
    return _number(key, cfg[key], float) if key in cfg else default


def _get_numbers(cfg: dict, key: str, cast, default=None, required: bool = False) -> list:
    """A scalar or a grid, as a list of numbers."""
    return [_number(key, v, cast) for v in _as_list(_get(cfg, key, default, required))]


def _cache_dir(cfg: dict, out: Path) -> Path:
    return Path(os.environ.get(CACHE_ENV) or _get(cfg, "cache_dir", out / "cache"))


def _write_csv(path: Path, header: list[str], rows: list[list], chash: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={chash}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _load_config_source(cfg: dict):
    path = _get(cfg, "source")
    if path:
        return load_source(path)
    return random_source(
        _get_int(cfg, "card_u", 2), _get_int(cfg, "card_s", 2),
        _get_int(cfg, "card_x", 3), seed=_get_int(cfg, "source_seed", 0),
    )


def _solver_config(cfg: dict, beta: float, seed: int) -> SolverConfig:
    return SolverConfig(
        beta=beta,
        restarts=_get_int(cfg, "restarts", 4),
        iterations=_get_int(cfg, "iterations", 1500),
        learning_rate=_get_float(cfg, "solver_lr", 0.05),
        zhat_card=_get_int(cfg, "zhat_card"),
        seed=seed,
    )


def _solver_mechanism(cfg: dict, src, epsilon: float) -> RandomizedResponse:
    k = _get_int(cfg, "zhat_card", src.card_x)
    return RandomizedResponse(epsilon=epsilon, k=k, d=1)


def _load_dataset_pair(cfg: dict, out: Path):
    name = str(_get(cfg, "dataset", required=True))
    if name == "adult":
        train_raw, test_raw = datasets.fetch_uci_adult(
            _cache_dir(cfg, out), url_override=_get(cfg, "adult_url")
        )
        return datasets.preprocess_adult(train_raw, test_raw)
    if name == "compas":
        return datasets.load_compas(_get(cfg, "compas_csv", required=True))
    if name == "synthetic":
        card_x = _get_int(cfg, "card_x", 4)
        feat_dim = _get_int(cfg, "feat_dim", card_x)
        src = random_source(2, 2, card_x, seed=_get_int(cfg, "source_seed", 0))
        means = 2.0 * np.eye(card_x, feat_dim)
        spec = datasets.SyntheticSpec(
            source=src, means=means, sigma=_get_float(cfg, "sigma", 0.5),
            n_train=_get_int(cfg, "n_train", 4000),
            n_test=_get_int(cfg, "n_test", 2000),
            seed=_get_int(cfg, "data_seed", 0),
        )
        return datasets.generate_synthetic(spec)
    raise ConfigError(f"unknown dataset {name!r}; use adult, compas, or synthetic")


def _mechanism(cfg: dict, epsilon: float):
    return mechanism_from_spec(
        {
            "kind": _get(cfg, "mechanism", "laplace"),
            "epsilon": epsilon,
            "t": _get_float(cfg, "t", 0.5),
            "d": _get_int(cfg, "d", 2),
            "k": _get_int(cfg, "k", 4),
        }
    )


def _train_config(cfg: dict, beta: float, seed: int) -> fair_encoder.TrainConfig:
    return fair_encoder.TrainConfig(
        beta=beta,
        epochs=_get_int(cfg, "epochs", 150),
        batch_size=_get_int(cfg, "batch", 512),
        learning_rate=_get_float(cfg, "lr", 1e-3),
        mc_samples=_get_int(cfg, "L", 1),
        seed=seed,
    )


# -- commands ----------------------------------------------------------------


def cmd_fetch_data(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    train, test = _load_dataset_pair(cfg, out)
    chash = config_hash(cfg)
    datasets.save_dataset(train, out / "train.npz")
    datasets.save_dataset(test, out / "test.npz")
    (out / "fetch.json").write_text(
        json.dumps(
            {
                "config_hash": chash,
                "train_rows": train.n,
                "test_rows": test.n,
                "train_hash": train.content_hash(),
                "test_hash": test.content_hash(),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {out / 'train.npz'} ({train.n} rows) and {out / 'test.npz'} ({test.n} rows)")
    return 0


def cmd_verify(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    """Run every theory check; exit 0 iff all pass."""
    checks: dict[str, dict] = {}
    rng_seeds = [seed + i for i in range(_get_int(cfg, "verify_sources", 3))]
    check_floor = _get_bool(cfg, "check_budget_equals_floor", False)

    # closure + budget bound over random encoders and RR channels
    worst_ratio, worst_mi = 0.0, 0.0
    lemma_ok = True
    from .discrete_source import compose, induced_joint, random_channel
    from .info_measures import mutual_information

    for eps in _get_numbers(cfg, "epsilon", float, [0.5, 1.0, 2.0]):
        mech_ch = rr_channel(RandomizedResponse(epsilon=eps, k=3, d=1))
        for s in rng_seeds:
            src = random_source(2, 2, 3, seed=s)
            enc = random_channel(3, 3, seed=s + 1)
            if not check_lemma1(enc, mech_ch, eps):
                lemma_ok = False
            ratio, _ = verify_ldp(compose(enc, mech_ch), eps)
            worst_ratio = max(worst_ratio, ratio - eps)
            mi = mutual_information(induced_joint(src, compose(enc, mech_ch)).p_xz())
            worst_mi = max(worst_mi, mi - eps)
    checks["lemma1_closure"] = {"pass": lemma_ok, "worst_ratio_excess": worst_ratio}
    checks["lemma2_budget_bound"] = {"pass": worst_mi <= 1e-9, "worst_mi_excess": worst_mi}

    # bound chain at a solved operating point, plus the zero-budget case
    src = _load_config_source(cfg)
    eps = _get_float(cfg, "solve_epsilon", 1.0)
    beta = _get_numbers(cfg, "beta", float, 10.0)[0]
    pt = solve_g(src, _solver_mechanism(cfg, src, eps), _solver_config(cfg, beta, seed))
    ok, report = check_theorem1(pt, gamma=pt.Gamma)
    checks["theorem1_bounds"] = {"pass": ok, **report}

    zero = solve_g(src, _solver_mechanism(cfg, src, 0.0), _solver_config(cfg, beta, seed))
    zero_ok = max(zero.Gamma, zero.Omega, zero.ixz) <= 1e-12
    checks["zero_budget_collapse"] = {
        "pass": zero_ok, "Gamma": zero.Gamma, "Omega": zero.Omega, "ixz": zero.ixz,
    }

    if check_floor:
        try:
            checks["budget_equals_floor"] = ib_solver.check_corollary2(
                src, gamma=_get_float(cfg, "gamma", 0.05),
                budget=_get_int(cfg, "oracle_budget", 100_000), cfg=_solver_config(cfg, beta, seed),
            )
        except LdpFairError as exc:
            checks["budget_equals_floor"] = {"pass": False, "error": str(exc)}

    all_ok = bool(all(c["pass"] for c in checks.values()))
    payload = {"config_hash": config_hash(cfg), "pass": all_ok, "checks": checks}
    (out / "verify.json").write_text(_dump_json(payload))
    for name, c in checks.items():
        print(f"{'PASS' if c['pass'] else 'FAIL'} {name}")
    if not all_ok:
        failed = [n for n, c in checks.items() if not c["pass"]]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_solve(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    src = _load_config_source(cfg)
    eps = _get_numbers(cfg, "epsilon", float, required=True)[0]
    beta = _get_numbers(cfg, "beta", float, 1.0)[0]
    pt = solve_g(src, _solver_mechanism(cfg, src, eps), _solver_config(cfg, beta, seed))
    payload = {
        "config_hash": config_hash(cfg),
        "beta": pt.beta, "epsilon": pt.epsilon, "Gamma": pt.Gamma, "Omega": pt.Omega,
        "nu": pt.nu, "ixz": pt.ixz, "objective": pt.objective, "converged": pt.converged,
    }
    (out / "solution.json").write_text(json.dumps(payload, indent=2) + "\n")
    from .discrete_source import save_channel

    save_channel(pt.encoder, out / "encoder.channel")
    print(f"Gamma={pt.Gamma:.6f} Omega={pt.Omega:.6f} ixz={pt.ixz:.6f}")
    return 0


def cmd_frontier(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    src = _load_config_source(cfg)
    eps = _get_numbers(cfg, "epsilon", float, required=True)[0]
    betas = _get_numbers(cfg, "beta", float, required=True)
    points = trace_frontier(src, _solver_mechanism(cfg, src, eps), betas, _solver_config(cfg, betas[0], seed))
    rows = [
        [p.beta, p.epsilon, p.gamma_target, p.Gamma, p.Omega, p.nu, p.ixz, p.converged]
        for p in points
    ]
    _write_csv(
        out / "frontier.csv",
        ["beta", "epsilon", "gamma", "Gamma", "Omega", "nu", "ixz", "converged"],
        rows, config_hash(cfg),
    )
    print(f"wrote {out / 'frontier.csv'} ({len(points)} points)")
    return 0


def cmd_train(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    train_ds, _ = _load_dataset_pair(cfg, out)
    eps = _get_numbers(cfg, "epsilon", float, required=True)[0]
    mech = _mechanism(cfg, eps)
    model = fair_encoder.EncoderModel(
        train_ds.schema, mech, seed=seed, code_dim=_get_int(cfg, "D", 8)
    )
    tc = _train_config(cfg, _get_float(cfg, "beta", 1.0), seed)
    history = fair_encoder.train(model, train_ds, tc)
    fair_encoder.save_model(model, out / "model.npz")
    _write_csv(
        out / "history.csv",
        ["epoch", "total", "reconstruction", "utility", "codebook", "commitment"],
        [
            [i, bd.total, bd.reconstruction, bd.utility, bd.codebook, bd.commitment]
            for i, bd in enumerate(history)
        ],
        config_hash(cfg),
    )
    print(f"trained {tc.epochs} epochs; final loss {history[-1].total:.4f}")
    return 0


def cmd_evaluate(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    ckpt = Path(_get(cfg, "model", out / "model.npz"))
    if not ckpt.exists():
        raise DatasetError(f"no checkpoint at {ckpt}; run the train command first")
    model = fair_encoder.load_model(ckpt)
    _, test_ds = _load_dataset_pair(cfg, out)
    seeds = _get_numbers(cfg, "seeds", int, [seed])
    report = fairness_metrics.full_report(model, test_ds, seeds)
    report.to_json(out / "report.json", extra={"config_hash": config_hash(cfg)})
    print(
        f"accuracy {report.accuracy_mean:.4f} ddp {report.delta_dp_mean:.4f} "
        f"leakage {report.leakage_mean:.4f} nats"
    )
    return 0


def _sweep_cell(args):
    """One (beta, epsilon, mode) training + evaluation; returns result rows."""
    cfg, out_str, beta, eps, mode, seed = args
    out = Path(out_str)
    cell_cfg = dict(cfg)
    cell_cfg["mechanism"] = mode
    try:
        train_ds, test_ds = _load_dataset_pair(cell_cfg, out)
        mech = _mechanism(cell_cfg, eps)
        model = fair_encoder.EncoderModel(
            train_ds.schema, mech, seed=seed, code_dim=_get_int(cell_cfg, "D", 8)
        )
        fair_encoder.train(model, train_ds, _train_config(cell_cfg, beta, seed))
        seeds = _get_numbers(cell_cfg, "seeds", int, [seed])
        rep = fairness_metrics.full_report(model, test_ds, seeds)
        return [
            [beta, eps, mode, rep.per_seed["accuracy"][i], rep.per_seed["delta_dp"][i],
             rep.per_seed["delta_eo"][i], rep.per_seed["leakage"][i],
             rep.per_seed["sensitive_accuracy"][i], sd]
            for i, sd in enumerate(seeds)
        ], None
    except LdpFairError as exc:
        return [], f"beta={beta} epsilon={eps} mode={mode}: {exc}"


def cmd_sweep(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    betas = _get_numbers(cfg, "beta", float, required=True)
    epsilons = _get_numbers(cfg, "epsilon", float, required=True)
    modes = [str(m) for m in _as_list(_get(cfg, "mechanism", "laplace"))]
    cells = [(cfg, str(out), b, e, m, seed) for b in betas for e in epsilons for m in modes]

    results = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    rows, failures = [], []
    for cell_rows, err in results:
        rows.extend(cell_rows)
        if err:
            failures.append(err)
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[8]))  # deterministic merge
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows, config_hash(cfg))
    if failures:
        (out / "sweep_failures.txt").write_text("\n".join(failures) + "\n")
        print(f"{len(failures)} cells failed; see {out / 'sweep_failures.txt'}", file=sys.stderr)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_report(cfg: dict, out: Path, seed: int, jobs: int) -> int:
    """Merge sweep CSVs into per-(beta, epsilon, mode) accuracy vs fairness tables."""
    paths = [Path(p) for p in _as_list(_get(cfg, "sweep", out / "sweep.csv"))]
    groups: dict[tuple, dict[str, list[float]]] = {}
    for path in paths:
        if not path.exists():
            raise DatasetError(f"sweep file not found: {path}")
        header, rows = _read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        for r in rows:
            key = (float(r[col["beta"]]), float(r[col["epsilon"]]), r[col["mode"]])
            g = groups.setdefault(key, {m: [] for m in ("accuracy", "delta_dp", "delta_eo", "leakage_nats", "sensitive_acc")})
            for m in g:
                g[m].append(float(r[col[m]]))
    table = []
    for (beta, eps, mode), metrics in sorted(groups.items()):
        entry = {"beta": beta, "epsilon": eps, "mode": mode}
        for m, vals in metrics.items():
            entry[f"{m}_median"] = float(np.median(vals))
            entry[f"{m}_std"] = float(np.std(vals))
        table.append(entry)
    payload = {"config_hash": config_hash(cfg), "cells": table}
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
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
        cfg = parse_config(args.config.read_text()) if args.config else {}
        check_keys(cfg)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, args.out, args.seed, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, DivergenceError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LdpFairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
