"""The long-horizon guard: claims that only show at scale.

Each test runs ``python -m quantloop.cli`` in a fresh interpreter on a
config at a long horizon, under a 60 s timeout, and checks what it writes:
an exact cycle at 10^7 steps, the deadbeat loop at 10^7, the analysis at
10^6, a float analysis and float cycles at 10^5, the three ramps at 10^6, a
ramp that never settles (an exact run stored step by step) at 10^5 and the
table's limits at 10^5.  A trajectory of 10^5 or more rows is deleted once
its lines are counted.
"""

import csv
import json
from fractions import Fraction
from pathlib import Path

from oracles import run_fresh

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

#: An exact switched scenario whose cycle has 8 switch steps in 37.
LONG = {"alpha": "11/8", "controller": "switched-pi",
        "disturbance": {"kind": "constant", "value": "82/37"},
        "e0": "-7/3", "u0": "4/5", "horizon": 10_000_000, "mode": "exact"}


def cli(tmp_path: Path, command: str, name: str, config: dict,
        strict: bool = False) -> Path:
    """The output directory of ``quantloop <command>`` run on ``config``,
    saved as ``<name>.json``, in a fresh interpreter; ``strict`` turns
    warnings into errors."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    done = run_fresh(*(["-W", "error"] if strict else []), "-m",
                     "quantloop.cli", command, "-c", str(path), "-o",
                     str(out), timeout=60)
    assert done.returncode == 0, done.stderr
    return out


def read(path: Path) -> dict:
    return json.loads(path.read_text())


def cycle(report: dict) -> tuple:
    return report["cycle"]["n"], report["cycle"]["m"]


def counted_lines(path: Path) -> int:
    """The line count of the file at ``path``, which is then deleted."""
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n")
                    for chunk in iter(lambda: fh.read(1 << 20), b""))
    path.unlink()
    return lines


def test_exact_cycle_at_ten_million_steps(tmp_path):
    out = cli(tmp_path, "cycles", "long", LONG)
    assert cycle(read(out / "cycles.json")) == (8, 37)


def test_deadbeat_at_ten_million_steps(tmp_path):
    out = cli(tmp_path, "cycles", "deadbeat", {
        "alpha": "2", "controller": "unquantized-pi",
        "disturbance": {"kind": "constant", "value": "1/3"},
        "e0": "1/5", "u0": "0", "horizon": 10_000_000, "mode": "exact"})
    assert cycle(read(out / "cycles.json")) == (0, 1)


def test_analysis_at_a_million_steps(tmp_path):
    out = cli(tmp_path, "analyze", "long6", {**LONG, "horizon": 1_000_000})
    report = read(out / "report.json")
    assert cycle(report) == (8, 37)
    assert report["capture"]["status"] == report["band"]["status"] == "pass"
    assert counted_lines(out / "trajectory.csv") == 1_000_002


def test_float_analysis_and_cycles_of_a_run_stored_step_by_step(tmp_path):
    config = {**LONG, "horizon": 100_000, "mode": "float"}
    out = cli(tmp_path, "analyze", "long5", config)
    report = read(out / "report.json")
    assert cycle(report) == (8, 37)
    assert (report["capture"]["status"] == report["control-lock"]["status"]
            == report["band"]["status"] == "pass")
    (out / "trajectory.csv").unlink()
    out = cli(tmp_path, "cycles", "long5", config, strict=True)
    assert cycle(read(out / "cycles.json")) == (8, 37)


def test_ramps_at_a_million_steps(tmp_path):
    ramps = sorted(EXPERIMENTS.glob("ramp-*.json"))
    assert len(ramps) == 3
    for ramp in ramps:
        config = json.loads(ramp.read_text())
        assert config["horizon"] == 200
        out = cli(tmp_path, "simulate", ramp.stem,
                  {**config, "horizon": 1_000_000})
        assert counted_lines(out / "trajectory.csv") == 1_000_002


def test_exact_ramp_that_never_settles(tmp_path):
    out = cli(tmp_path, "simulate", "dense", {
        "alpha": "11/8", "controller": "switched-pi",
        "disturbance": {"kind": "piecewise-linear",
                        "breakpoints": [[0, "0"], [100_000, "3/7"]]},
        "e0": "0", "u0": "0", "horizon": 100_000, "mode": "exact"})
    assert counted_lines(out / "trajectory.csv") == 100_002


def test_table_limits(tmp_path):
    # over a cycle the mean of rho(e)^2 is |dbar| switched and 2|dbar|
    # standard, so the improvement is 1 - 1/sqrt(2); the slack covers the
    # transient and the three printed decimals
    H = 100_000
    out = cli(tmp_path, "table1", "table1-long", {"horizon": H}, strict=True)
    with open(out / "table1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8, rows
    for row in rows:
        d = abs(float(Fraction(row["disturbance"])))
        sw, std = float(row["rms_switched"]), float(row["rms_standard"])
        assert abs(sw ** 2 - d) <= 4 / H + sw / 1000, row
        assert abs(std ** 2 - 2 * d) <= 4 / H + std / 1000, row
        assert row["improvement"] == "0.293", row
