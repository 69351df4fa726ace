#!/usr/bin/env python3
"""Record the key scalars of every workload as the benchmark's reference.

    python3 perfbench/make_reference.py

Runs each workload once for each of the seeds 0-9 through the CLI entry
point, refuses to record a run that fails the output checks, and rewrites
``perfbench/reference.json``.  Run it only when the program's numbers are
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_out" / "reference"
RTOL = 1e-6
# decay.final_ratio sits at the round-off floor (about 1e-25); its check
# reads "below 1e-12", far under the 1e-6 acceptance threshold
ATOL = {"decay.final_ratio": 1e-12}
SEEDS = range(10)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import harness
    from porovisco.cli import main as cli_main

    seeds = {}
    for seed in SEEDS:
        for workload in harness.WORKLOADS.values():
            work = WORK / f"{workload.name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg = harness.make_config(workload, seed)
            cfg_path = work / "config.json"
            cfg_path.write_bytes(harness.config_bytes(cfg))
            codes = harness.run_workload(workload, cfg_path, work / "out", cli_main)
            problems = harness.check_outputs(workload, cfg, work / "out", codes)
            if problems:
                print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            seeds.setdefault(str(seed), {})[workload.name] = harness.key_scalars(workload, work / "out")
            print(f"recorded {workload.name} seed {seed}", flush=True)
    doc = {"rtol": RTOL, "atol": ATOL, "seeds": seeds}
    harness.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
