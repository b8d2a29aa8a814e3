"""The demos run to completion against the current library API.

`demo_mi_estimation.py` is left out: it spends about 30 s training MINE,
whose calibration criterion 8 of the acceptance gate already covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["demo_exact_tradeoff.py", "demo_mechanisms.py", "demo_training_pipeline.py"]
)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
