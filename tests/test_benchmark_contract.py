"""The benchmark's traced run wraps ldpfair functions by name
(``benchmarks/spans.py``); a renamed or re-signatured target would make
``benchmarks/run.py --trace 1`` fail, so every target is checked here."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import spans  # noqa: E402


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: t.name)
def test_span_target_resolves_to_a_callable(target):
    module = importlib.import_module(f"ldpfair.{target.module}")
    fn = getattr(module, target.attr, None)
    assert callable(fn), f"ldpfair.{target.module}.{target.attr} is not a callable"
    if target.fields is not None:
        # the span's field extractor is called with the target's own arguments
        assert len(inspect.signature(target.fields).parameters) == len(inspect.signature(fn).parameters)

