"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches
porovisco's functions by name at every module that looks them up.  A
rename or removal under ``src/`` that breaks it fails here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
from porovisco import cli  # noqa: E402


def test_benchmark_instrumentation_enters_and_exits(tmp_path, capsys):
    original = cli.parse_config
    rec = spans.Recorder()
    with layers.Instrumentation(rec):
        assert cli.parse_config is not original
        code = cli.main(["verify", "--config", str(cli.default_config_path()), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert cli.parse_config is original
    names = {span[spans.NAME] for span in rec.spans}
    assert {"cli.parse_config", "cli._write_summary", "constitutive.linearize"} <= names
