"""Smoke tests of the benchmark harness: every workload and every check at
tiny size.  They assert what the harness reports, never how fast it was.

Run with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        work = ROOT / ".bench_work" / workload
        assert (work / "spans.jsonl").stat().st_size > 0
        assert json.loads((work / "trace.json").read_text())["functions"]


def _cli(workload, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config()))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "quantloop.cli",
                    *workload.argv(config, out)], env=env, check=True,
                   capture_output=True, timeout=300)
    return out


def _replace_in(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("name, file, old, new", [
    ("sweep-grid", "grid.csv", ",9,", ",8,"),
    ("analyze-long", "trajectory.csv", "rho-zero-branch",
     "rho-nonzero-branch"),
    ("table1-campaign", "table1.csv", "0.", "1."),
])
def test_checks_accept_the_program_and_catch_a_changed_output(
        name, file, old, new, tmp_path):
    workload = WORKLOADS[name](seed=5, smoke=True)
    out = _cli(workload, tmp_path)
    assert workload.check(out) == []
    _replace_in(out / file, old, new)
    assert workload.check(out) != []


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "analyze-long", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
