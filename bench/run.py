"""Benchmark of quantloop's three user actions: sweep, analyze and table1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke]

Runs one workload (see ``workloads.py``) as a closed loop: one CLI command
at a time, each in a fresh process, until S seconds have passed.  The first
command's outputs are checked against the reference model; every later
command must write the same bytes.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
the mean wall time and CPU time of the run's commands (the run's throughput
as time per command), the least peak RSS among them, and the median set-up
time of repeated fresh interpreters.  With ``--trace 1``
each untraced command is followed by a traced one; the metrics are the
per-layer ones, medians over the traced commands (``trace.overhead_s`` is
the mean traced wall time minus the mean untraced one), and the spans go to
``.bench_work/<workload>/spans.jsonl``.  ``--smoke`` shrinks every input
so that a run takes seconds.

The program measured is the checkout's ``src/quantloop``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh interpreters timed for ``setup_s`` before each command.
SETUP_REPS = 2
#: A command that takes longer than this counts as failed.
OP_TIMEOUT_S = 150


class Runner:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config(), indent=1) + "\n")
        self.out = work / "out"
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None

    def setup_s(self) -> float:
        """Time from starting a fresh interpreter until it has imported
        quantloop.cli and loaded the workload's config.

        The probe itself reads the clock when it is done: the parent would
        see the exit only at its next poll, and ``subprocess.run`` with a
        timeout polls at up to 50 ms intervals.
        """
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), "setup", self.workload.kind,
             str(self.config), repr(time.perf_counter())],
            env=self.env, check=True, stdout=subprocess.PIPE, text=True,
            timeout=OP_TIMEOUT_S)
        return float(proc.stdout)

    def command(self, spans: Path = None):
        """Run the workload's command once; return its cost, or None if it
        failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        result_path = self.work / "op.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "op.py"), "run", str(result_path)]
        if spans is not None:
            w = self.workload
            cmd += ["--trace", str(spans), w.name, str(w.seed),
                    str(int(w.smoke))]
        cmd += ["--"] + self.workload.argv(self.config, self.out)
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0 or not result_path.exists():
            self.failed += 1
            return None
        result = json.loads(result_path.read_text())
        if result["rc"] != 0:
            self.failed += 1
            return None
        self._check_outputs()
        return result

    def _check_outputs(self) -> None:
        h = hashlib.sha256()
        for name in self.workload.outputs:
            h.update((self.out / name).read_bytes())
        if self.digest is None:
            self.digest = h.hexdigest()
            self.failures += self.workload.check(self.out)
        elif h.hexdigest() != self.digest:
            self.failures.append("outputs differ between repeated commands")

    def result(self, metrics: dict) -> dict:
        for failure in self.failures[:20]:
            print(f"check failed: {failure}", file=sys.stderr)
        return {"correct": not self.failures and self.digest is not None,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _with_units(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def timed_run(runner: Runner, seconds: float, spec: dict) -> dict:
    runner.setup_s()  # fills the bytecode cache; not timed
    setups, costs = [], []
    start = time.perf_counter()
    while not costs or time.perf_counter() - start < seconds:
        setups += [runner.setup_s() for _ in range(SETUP_REPS)]
        cost = runner.command()
        if cost is None and not costs and runner.failed > 3:
            break
        if cost is not None:
            costs.append(cost)
    (runner.work / "costs.json").write_text(
        json.dumps({"setup_s": setups, "commands": costs}, indent=1) + "\n")
    values = {"setup_s": statistics.median(setups)}
    for key, pick in (("wall_s", statistics.mean), ("cpu_s", statistics.mean),
                      ("peak_rss_mb", min)):
        values[key] = pick(c[key] for c in costs) if costs else 0.0
    return runner.result(_with_units(values, spec["end_to_end"]))


def traced_run(runner: Runner, seconds: float, spec: dict) -> dict:
    plain, traced, per_op, all_spans = [], [], [], []
    classified = {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        cost = runner.command()
        spans_path = runner.work / f"spans-{len(traced)}.jsonl"
        traced_cost = runner.command(spans=spans_path)
        if cost is None or traced_cost is None:
            if runner.failed > 3:
                break
            continue
        spans = tracer.read_spans(spans_path)
        metrics, mismatches = tracer.layer_metrics(spans, classified)
        runner.failures += mismatches
        metrics.update(traced_cost["micro"])
        metrics["cli.import_s"] = traced_cost["import_s"]
        plain.append(cost["wall_s"])
        traced.append(traced_cost["wall_s"])
        per_op.append(metrics)
        all_spans += spans
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = (statistics.mean(traced) - statistics.mean(plain)
                            if traced else 0.0)
        else:
            values[name] = (statistics.median(op[name] for op in per_op)
                            if per_op else 0.0)
    with open(runner.work / "spans.jsonl", "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(s) + "\n")
    summary = {"per_layer": values, "functions": tracer.function_table(all_spans),
               "traced_commands": len(traced)}
    (runner.work / "trace.json").write_text(json.dumps(summary, indent=1) + "\n")
    return runner.result(_with_units(values, spec["per_layer"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload and check in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quantloop" / "cli.py").is_file():
        print(f"error: no quantloop sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, work)
    if args.trace:
        result = traced_run(runner, args.seconds, spec)
    else:
        result = timed_run(runner, args.seconds, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
