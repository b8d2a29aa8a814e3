"""Benchmark of ldpfair: one workload per process, through the program's entry points.

Run from the repository root:

    python3 benchmarks/run.py --workload exact-frontier --seed 1 --seconds 30 --trace 0

Workloads: exact-frontier, neural-discrete, neural-continuous.  Progress
goes to stderr; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones.  With --trace 1 rounds alternate untraced and traced,
and the metrics are the per-layer ones from the traced rounds plus the
tracing overhead.  Results, span traces and scratch files go under
bench-out/ in the repository root.  Exits 1 if an output check or an
operation fails, and 2 if the program's sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"
# The program's matrices are at most 512 x 100: a second BLAS thread was
# measured no faster, and it spins on the second core.
BLAS_THREADS = "1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-frontier", "neural-discrete", "neural-continuous"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ldpfair" / "__init__.py").is_file():
        print(f"ldpfair sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one BLAS thread (at most nproc); set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads

    result, ok = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
