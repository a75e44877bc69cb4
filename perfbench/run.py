#!/usr/bin/env python3
"""seqplace benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-deploy.seqslam --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12 --trace 0

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones listed in BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones. Lines before it give the environment and every
figure by name, with its unit and sample count. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy can be imported, so that no run uses
# more compute threads than the sweep pool's workers (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy does not ask for transparent huge pages: whether the kernel has them
# free varies from minute to minute, and with them one seqslam deploy at
# paper scale took 7.2-9.7 s in one process against 11.3-11.5 s without.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "seqplace" / "__init__.py").is_file():
        print(f"error: no seqplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
