"""Run one workload once in this fresh process, for the peak-RSS metric.

    PYTHONPATH=src python3 perfbench/rss_child.py WORKLOAD CONFIG OUT

Prints the subcommands' exit codes as a JSON list on the last line.
"""

import json
import sys
from pathlib import Path

import harness
from porovisco.cli import main

if __name__ == "__main__":
    name, cfg_path, out = sys.argv[1:4]
    codes = harness.run_workload(harness.WORKLOADS[name], Path(cfg_path), Path(out), main)
    print(json.dumps(codes))
