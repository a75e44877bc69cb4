#!/usr/bin/env python3
"""Write perfbench/digests.json: SHA-256 of each generated SPD1 input.

    python3 perfbench/pin_digests.py

It pins input seeds 0 to workloads.INPUT_SEEDS - 1, the seeds every
workload seed maps onto. Run it only in a change that deliberately alters
a workload's inputs; a run whose generated files differ from this table
fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))
import bench  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    bench.WORK.mkdir(exist_ok=True)
    table = {}
    for inputs in workloads.INPUTS:
        table[inputs.key] = {}
        for seed in range(workloads.INPUT_SEEDS):
            directory = tempfile.mkdtemp(prefix="pin-", dir=bench.WORK)
            try:
                code, _ = workloads.run_cli(inputs.synth_argv(seed, directory))
                if code != 0:
                    raise RuntimeError(f"seqplace synth exited {code}")
                table[inputs.key][str(seed)] = workloads.file_digests(directory)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        print(f"{inputs.key}: {workloads.INPUT_SEEDS} seeds pinned", flush=True)
    bench.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
