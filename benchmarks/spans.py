"""Span tracing installed from outside the program.

`Tracer.install` wraps functions at the boundaries of ldpfair's modules.
Each wrapper records a span (name, start, end, parent, operation id,
fields) in memory.  A function is replaced under every name any ldpfair
module holds it by (``cli.solve_g`` as well as ``ib_solver.solve_g``),
so calls through ``from x import f`` bindings are traced too.
`Tracer.uninstall` puts the originals back, so untraced work runs the
program unchanged.

A span's self time is its duration minus the time its direct children
cover; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# spans of these functions open a "fit" scope for `Target.fit_only`
FIT_SPANS = frozenset({"ib_solver.solve_g", "fair_encoder.train"})


@dataclass(frozen=True)
class Target:
    """One traced function: module, attribute, and what its span records."""

    module: str
    attr: str
    fields: Callable | None = None  # (*args, **kwargs) -> JSON-able value
    fit_only: bool = False  # record only under a FIT_SPANS span

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.lstrip('_')}"


TARGETS = (
    Target("cli", "main"),
    Target("datasets", "generate_synthetic"),
    Target("ib_solver", "solve_g"),
    Target("ib_solver", "_objective_graph"),
    Target("ib_solver", "solve_G_bruteforce"),
    # (id of the probability table, candidates): the utility pass over every
    # candidate and the leakage pass over the feasible ones use different tables
    Target("ib_solver", "_batched_mi_terms", fields=lambda probs, ch: [id(probs), ch.shape[0]]),
    Target("autodiff", "backward", fit_only=True),
    Target("autodiff", "adam_step", fit_only=True),
    Target("ldp_mechanisms", "verify_ldp"),
    Target("ldp_mechanisms", "rr_randomize"),
    Target("info_measures", "mutual_information"),
    Target("info_measures", "plugin_mi"),
    Target("info_measures", "mine_estimate", fields=lambda a, b, cfg, seed: cfg.iterations),
    Target("fair_encoder", "train"),
    Target("fair_encoder", "_loss_graph"),
    Target("fair_encoder", "quantize"),
    Target("fair_encoder", "encode"),
    Target("fairness_metrics", "full_report"),
    Target("fairness_metrics", "train_downstream"),
)


class Tracer:
    """In-memory span recorder.  Span: [name, start_ns, end_ns, parent, op, fields]."""

    def __init__(self, package: str = "ldpfair"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, fields) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._op, fields]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """A benchmark operation: a top-level span with a fresh operation id."""
        self._op += 1
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def _in_fit(self) -> bool:
        return any(self.spans[i][0] in FIT_SPANS for i in self._stack)

    def _wrap(self, target: Target, fn):
        name, fields, fit_only = target.name, target.fields, target.fit_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fit_only and not self._in_fit():
                return fn(*args, **kwargs)
            rec = self._open(name, fields(*args, **kwargs) if fields else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace every binding of each target in every loaded package module."""
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        for t in targets:
            original = getattr(sys.modules[f"{self.package}.{t.module}"], t.attr)
            wrapper = self._wrap(t, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, fields in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op, "fields": fields}) + "\n")


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time in seconds of spans[lo:hi]; parents precede their children."""
    hi = len(spans) if hi is None else hi
    own = [(s[2] - s[1]) for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return [ns / 1e9 for ns in own]


def summarize(spans: list[list], lo: int = 0, hi: int | None = None) -> dict:
    """Per span name: total self seconds, call count and the recorded fields."""
    hi = len(spans) if hi is None else hi
    out: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "fields": []})
    for s, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
        entry = out[s[0]]
        entry["self_s"] += own
        entry["calls"] += 1
        if s[5] is not None:
            entry["fields"].append((s[5], s[3]))
    return out
