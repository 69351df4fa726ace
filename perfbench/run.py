#!/usr/bin/env python3
"""porovisco benchmark: one workload at one seed.

    python3 perfbench/run.py --workload sweep64 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload once more under the span recorder and reports the
per-layer metrics.  Every run of the workload passes the correctness gate
of ``harness.Gate``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run artifacts (configs,
outputs, ``result.json``, ``spans.csv``) go to ``.perfbench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
REPO = harness.REPO
SRC = REPO / "src"
WORK = REPO / ".perfbench_out"
# The box has 2 shared cores: single-threaded BLAS keeps thread scheduling
# out of the figures and makes the run a plain single-threaded baseline.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import porovisco
from porovisco.cli import parse_config
parse_config(sys.argv[1])
dt = time.perf_counter() - t0
print(json.dumps([dt, porovisco.__file__]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_time(cfg_path: Path) -> float:
    """``import porovisco`` plus ``parse_config`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(cfg_path)],
        env=child_env(), cwd=REPO, capture_output=True, text=True, timeout=60, check=True,
    )
    dt, where = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported porovisco from {where}, not from {SRC}")
    return dt


def rss_child(workload: str, cfg_path: Path, out: Path):
    """Run the workload once in a fresh child process; returns its exit
    codes and the peak RSS of the children so far (MiB).  It runs before
    any other child, so that peak is its own."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "rss_child.py"), workload, str(cfg_path), str(out)],
            env=child_env(), cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        codes = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as err:
        print(f"fresh-process run failed: {type(err).__name__}", file=sys.stderr)
        codes = [-1]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return codes, peak


def openblas_threads():
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _run(workload, cfg_path, out, main):
    t0 = time.perf_counter()
    codes = harness.run_workload(workload, cfg_path, out, main)
    return time.perf_counter() - t0, codes


def end_to_end(seconds, workload, cfg_path, cfg, gate, work, result) -> dict:
    codes, peak = rss_child(workload.name, cfg_path, work / "rss")
    gate.check("rss-child", work / "rss", codes)
    setups = [setup_time(cfg_path) for _ in range(SETUP_REPEATS)]

    from porovisco.cli import main

    warm_path = work / "warmup.json"
    warm_path.write_bytes(harness.config_bytes(harness.warmup_config(cfg)))
    _run(workload, warm_path, work / "warmup", main)
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        out = work / f"run{len(walls)}"
        dt, codes = _run(workload, cfg_path, out, main)
        walls.append(dt)
        gate.check(out.name, out, codes)
        if len(walls) > 1:
            shutil.rmtree(out)
    # the mean, not the median, of the timed runs: the shared box slows down
    # in spells, and over ten runs the mean spread less than the median
    # (README, "Environment and noise")
    wall = statistics.mean(walls)
    work_units = harness.cell_steps(workload, cfg)
    result.update(
        wall_runs_s=walls, setup_runs_s=setups,
        cell_steps=work_units, out_bytes=harness.output_bytes(work / "run0"),
    )
    return {
        "wall_s": (wall, "s"),
        "cell_steps_per_s": (work_units / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "ok_frac": (1.0 - gate.fail_frac, "ratio"),
    }


def traced(workload, cfg_path, gate, work, result) -> dict:
    import layers
    import spans as sp

    from porovisco.cli import main

    for label in ("warmup", "untraced"):
        untraced_s, codes = _run(workload, cfg_path, work / label, main)
        gate.check(label, work / label, codes)
    rec = sp.Recorder()
    with layers.Instrumentation(rec):
        traced_s, codes = _run(workload, cfg_path, work / "traced", rec.wrap("cli.main", main))
    gate.check("traced", work / "traced", codes)
    ix = layers.SpanIndex(rec.spans)
    m = layers.layer_metrics(ix)
    m["cli.out_bytes"] = (harness.output_bytes(work / "traced"), "bytes")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m.update(layers.scale_probe(cfg_path))
    sp.write_csv(rec.spans, work / "spans.csv")
    top = list(ix.self_by_name().items())[:10]
    claims = layers.layer_map(workload.name, ix, m)
    result.update(untraced_s=untraced_s, traced_s=traced_s, n_spans=len(rec.spans),
                  top_self_s=dict(top), layer_map=dict(claims))
    print("largest self times:")
    for name, s in top:
        print(f"  {name:48s} {s:10.4f} s")
    for claim, holds in claims:
        print(f"layer map: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "porovisco" / "cli.py").is_file():
        print(f"error: no porovisco sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import porovisco

    if not Path(porovisco.__file__).resolve().is_relative_to(SRC):
        print(f"error: porovisco imported from {porovisco.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload, seed = harness.WORKLOADS[args.workload], args.seed
    work = WORK / f"{workload.name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = harness.make_config(workload, seed)
    cfg_path = work / "config.json"
    cfg_path.write_bytes(harness.config_bytes(cfg))
    gate = harness.Gate(workload, cfg, seed, harness.load_reference())
    result = {
        "workload": workload.name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "config_sha256": harness.sha256_file(cfg_path), "drawn": harness.draw(seed),
        "environment": environment(),
    }
    print(f"workload {workload.name}  seed {seed}  config sha256 {result['config_sha256'][:16]}  drawn {result['drawn']}")

    if args.trace:
        metrics = traced(workload, cfg_path, gate, work, result)
    else:
        metrics = end_to_end(args.seconds, workload, cfg_path, cfg, gate, work, result)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}")
    if not args.trace:
        print(f"{'fail_frac':28s} {gate.fail_frac:16.6g} ratio  ({gate.failed} failed of {gate.attempted})")
    for f in gate.failures:
        print(f"FAILED {f['run']}: {'; '.join(f['problems'])}")
    report = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result.update(report, fail_frac=gate.fail_frac, failures=gate.failures)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"result file {work / 'result.json'}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
