"""The byte manifest of porovisco's CLI outputs, for telling two trees
apart.

    python tools/manifest.py [CONFIG ...] > manifest.txt

It runs the CLI of the ``src/`` next to this script, in process and with
BLAS on one thread:

* the seven commands on each given config (the shipped one if none is
  given);
* ``decay`` on the shipped config with the solve of one step perturbed, so
  that the residual gate stops the run at that step;
* the benchmark workloads sweep64, grid1024 and linear64 at seeds 0-9, on
  the configs ``perfbench/harness.make_config`` generates.

It prints one line per run: its label, command and exit code, a digest of
its standard error, and the sha256 of every CSV file it wrote.  Run it in
two checkouts and diff the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import harness  # noqa: E402
from porovisco import cli, linear_solver  # noqa: E402

SEEDS = range(10)
FAILING_STEP = 300  # in decay's second row block at n = 64


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(label: str, command: str, config: Path, out: Path) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])
    files = [f"{p.name}={sha256(p.read_bytes())}" for p in sorted(out.glob("*.csv"))]
    print(" ".join([label, command, f"exit={code}", f"stderr={sha256(err.getvalue().encode())[:16]}", *files]),
          flush=True)


@contextlib.contextmanager
def perturbed_solve(step: int):
    """The solve of the given step (counted from 1) returns its first
    unknown off by 1e-6."""
    solve, calls = linear_solver.LinearStepper._solve, []

    def off(self, b):
        y = solve(self, b)
        calls.append(1)
        if len(calls) == step:
            y[1] += 1e-6
        return y

    linear_solver.LinearStepper._solve = off
    try:
        yield
    finally:
        linear_solver.LinearStepper._solve = solve


def main(argv: list) -> int:
    configs = [Path(a).resolve() for a in argv] or [cli.default_config_path()]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, config in enumerate(configs):
            for command in cli._COMMANDS:
                run(f"config{i}:{config.name}", command, config, tmp / f"config{i}" / command)
        with perturbed_solve(FAILING_STEP):
            run(f"failing-step-{FAILING_STEP}", "decay", cli.default_config_path(), tmp / "failing-step")
        for name, workload in harness.WORKLOADS.items():
            for seed in SEEDS:
                config = tmp / f"{name}-seed{seed}.json"
                config.write_bytes(harness.config_bytes(harness.make_config(workload, seed)))
                for command in workload.commands:
                    run(f"{name}-seed{seed}", command, config, tmp / f"{name}-seed{seed}" / command)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
