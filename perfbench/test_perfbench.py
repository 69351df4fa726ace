"""Self-tests of the benchmark harness: self-time arithmetic, seeded
config generation and failure counting."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import spans as sp  # noqa: E402
from porovisco.cli import main  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_of_a_synthetic_nest():
    spans = [
        _span("run", 0, 100, -1),
        _span("mech", 10, 40, 0),
        _span("solve", 20, 30, 1),
        _span("diff", 35, 60, 0),  # overlaps "mech": the union is 10..60
        _span("io", 55, 70, 3),  # reaches past its parent: clipped at 60
        _span("ledger", 80, 90, 0),
    ]
    assert sp.self_times(spans) == [100 - 50 - 10, 30 - 10, 10, 25 - 5, 15, 10]
    ix = layers.SpanIndex(spans)
    # run time not covered by the "mech" and "diff" children only
    assert ix.uncovered_s("run", {"mech", "diff"}) == pytest.approx(1e-9 * 50)
    assert ix.total_s({"mech", "solve"}) == pytest.approx(1e-9 * 30)  # outermost only


def test_recorder_nests_wrapped_calls():
    rec = sp.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, value_of=lambda args, result: result)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [s[sp.NAME] for s in rec.spans]
    assert names == ["outer", "inner"]
    assert rec.spans[1][sp.PARENT] == 0 and rec.spans[1][sp.VALUE] == 2
    assert all(s[sp.END] >= s[sp.START] for s in rec.spans)


def test_same_seed_gives_byte_identical_configs():
    for workload in harness.WORKLOADS.values():
        a = harness.config_bytes(harness.make_config(workload, 7))
        b = harness.config_bytes(harness.make_config(workload, 7))
        assert a == b
        assert a != harness.config_bytes(harness.make_config(workload, 8))
    for seed in range(50):
        d = harness.draw(seed)
        assert 0.5 <= d["loading.f_profile.scale"] <= 0.7
        assert 0.2 <= d["loading.g_amplitude.scale"] <= 0.3
        assert -0.5 <= d["initial.rho0.scale"] <= 0.5


def test_failing_config_is_counted_not_dropped(tmp_path):
    workload = harness.Workload("probe", ("simulate-nonlinear",))
    cfg = harness.make_config(workload, 3)
    cfg["grid"]["n_cells"] = 8
    cfg["time"].update(tau=0.001, T=0.004)
    cfg["solver"]["max_newton"] = 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(harness.config_bytes(cfg))
    gate = harness.Gate(workload, cfg, seed=3, reference={"rtol": 0.0, "atol": {}, "seeds": {}})
    for k in range(2):
        codes = harness.run_workload(workload, cfg_path, tmp_path / f"run{k}", main)
        assert codes == [1]
        assert not gate.check(f"run{k}", tmp_path / f"run{k}", codes)
    assert (gate.attempted, gate.failed, gate.fail_frac) == (2, 2, 1.0)
    assert "exit code 1" in gate.failures[0]["problems"][0]


def test_failed_first_run_does_not_fail_later_runs(tmp_path):
    workload = harness.Workload("probe", ("static",))
    cfg = harness.make_config(workload, 3)
    cfg["grid"]["n_cells"] = 8
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(harness.config_bytes(cfg))
    gate = harness.Gate(workload, cfg, seed=3, reference={"rtol": 0.0, "atol": {}, "seeds": {}})
    (tmp_path / "crashed" / "static").mkdir(parents=True)  # partial outputs of a crash
    assert not gate.check("crashed", tmp_path / "crashed", [-1])
    for k in range(2):
        codes = harness.run_workload(workload, cfg_path, tmp_path / f"run{k}", main)
        assert gate.check(f"run{k}", tmp_path / f"run{k}", codes)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert gate.fail_frac == pytest.approx(1 / 3)


def test_reference_check_rejects_missing_and_nan_values(tmp_path, monkeypatch):
    workload = harness.Workload("probe", ())
    reference = {"rtol": 1e-6, "atol": {}, "seeds": {"0": {"probe": {"x": 2.0}}}}
    for got, fails in (({"x": 2.0}, False), ({"x": 2.1}, True), ({"x": float("nan")}, True), ({}, True)):
        monkeypatch.setattr(harness, "key_scalars", lambda w, out, got=got: got)
        assert bool(harness.check_reference(workload, 0, tmp_path, reference)) == fails
    assert harness.check_reference(workload, 1, tmp_path, reference) == []  # no reference for seed 1


def test_warmup_cuts_every_run_horizon():
    cfg = harness.make_config(harness.WORKLOADS["linear64"], 0)
    short = harness.warmup_config(cfg)
    assert short["time"]["T"] == cfg["time"]["T"] / 10
    assert short["time"]["decay_T"] == cfg["time"]["decay_T"] / 10


def test_traced_run_reports_every_declared_per_layer_metric():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = set(layers.layer_metrics(layers.SpanIndex([])))
    names |= {"cli.out_bytes", "trace.overhead_s"}
    names |= {f"scale.{k}_step_ms.n{n}" for n in layers.SCALE_SIZES for k in ("mech", "diff")}
    assert names == {m["name"] for m in declared["per_layer"]}
