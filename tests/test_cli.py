"""Command line interface tests (direct invocation of main)."""

import csv
import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from quantloop import campaign
from quantloop.cli import main, parse_args
from quantloop.numerics import parse_scalar
from oracles import run_fresh

CAPTURE_SCENARIO = {
    "alpha": "11/10",
    "controller": "switched-pi",
    "disturbance": {"kind": "constant", "value": "0.4"},
    "e0": "0.2",
    "u0": "0.6",
    "horizon": 100,
    "mode": "exact",
}

CYCLE_SCENARIO = {
    "alpha": "11/10",
    "controller": "switched-pi",
    "disturbance": {"kind": "constant", "value": "1/5"},
    "e0": "-2/5",
    "u0": "1/5",
    "horizon": 80,
    "mode": "exact",
}

#: Gain 11/8 from rest against d = 1/10; every law runs it.
FROM_REST = {
    "alpha": "11/8",
    "controller": "switched-pi",
    "disturbance": {"kind": "constant", "value": "1/10"},
    "e0": "0",
    "u0": "0",
    "horizon": 200,
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_simulate_subcommand(tmp_path, capsys):
    config = write_scenario(tmp_path, CAPTURE_SCENARIO)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config), "-o", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert "trajectory.csv" in capsys.readouterr().out


def test_simulate_horizon_zero(tmp_path):
    payload = dict(CAPTURE_SCENARIO)
    payload["horizon"] = 0
    config = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config), "-o", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["k"] == "0"


def test_analyze_subcommand(tmp_path):
    config = write_scenario(tmp_path, CAPTURE_SCENARIO)
    out = tmp_path / "out"
    assert main(["analyze", "-c", str(config), "-o", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["capture"]["status"] == "pass"


def test_cycles_subcommand(tmp_path, capsys):
    config = write_scenario(tmp_path, CYCLE_SCENARIO)
    out = tmp_path / "out"
    assert main(["cycles", "-c", str(config), "-o", str(out)]) == 0
    report = json.loads((out / "cycles.json").read_text())
    assert report["cycle"]["n"] == 1
    assert report["cycle"]["m"] == 5
    assert report["predicted-cycle"]["n"] == 1
    assert report["cycle-agreement"] is True
    assert "n=1" in capsys.readouterr().out


@pytest.mark.parametrize("command, horizon, files, summary", [
    ("simulate", 80, ["trajectory.csv"], []),
    ("analyze", 80, ["trajectory.csv", "report.json"], []),
    ("cycles", 80, ["cycles.json"],
     ["periodic: n=1 switches per period, m=5 steps, entry step 1"]),
    ("cycles", 3, ["cycles.json"],
     ["no recurrence detected within the horizon"]),
], ids=["simulate", "analyze", "cycles", "cycles-no-recurrence"])
def test_scenario_command_writes_exactly_its_files(tmp_path, capsys, command,
                                                   horizon, files, summary):
    # each scenario command writes its own files and no other, and prints
    # its cycle summary, if any, then one line per file in that order
    config = write_scenario(tmp_path, dict(CYCLE_SCENARIO, horizon=horizon))
    out = tmp_path / "out"
    assert main([command, "-c", str(config), "-o", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(files)
    assert capsys.readouterr().out == "".join(
        f"{line}\n" for line in
        summary + [f"wrote {out / name}" for name in files])


def test_cycles_prints_the_report_it_was_handed(tmp_path, capsys,
                                                monkeypatch):
    # the cycle line comes from the report the runner returns: the command
    # reads its config and no file it wrote
    from quantloop import campaign
    config = write_scenario(tmp_path, CYCLE_SCENARIO)
    read_json = campaign.read_json

    def config_only(path):
        assert Path(path) == config, f"read back {path}"
        return read_json(path)
    monkeypatch.setattr(campaign, "read_json", config_only)
    assert main(["cycles", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith(
        "periodic: n=1 switches per period, m=5 steps, entry step 1\n")


def test_cycles_rejects_ramp(tmp_path):
    payload = dict(CYCLE_SCENARIO)
    payload["disturbance"] = {"kind": "piecewise-linear",
                              "breakpoints": [[0, "1/5"], [10, "2/5"]]}
    config = write_scenario(tmp_path, payload)
    assert main(["cycles", "-c", str(config), "-o", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("breakpoints", [
    [[0, "0"], [100, "3/7"]],
    # one breakpoint a step: a jump, then the last value held
    [[0, "1/5"], [1, "2/5"]],
], ids=["ramp", "unit-steps"])
@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_analyses_reject_a_varying_disturbance_before_simulating(
        tmp_path, capsys, command, breakpoints):
    # rejected while loading, before a trajectory is written; simulate
    # still runs the scenario
    disturbance = {"kind": "piecewise-linear", "breakpoints": breakpoints}
    config = write_scenario(tmp_path, dict(CYCLE_SCENARIO,
                                           disturbance=disturbance))
    out = tmp_path / "out"
    assert main([command, "-c", str(config), "-o", str(out)]) == 1
    assert f"error: {config}: key 'disturbance.kind': the analysis needs a " \
        "constant disturbance, got 'piecewise-linear'" in \
        capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "-c", str(config),
                 "-o", str(tmp_path / "simulate")]) == 0


def test_mode_override_flag(tmp_path):
    config = write_scenario(tmp_path, dict(CYCLE_SCENARIO, mode="float"))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config), "-o", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert "." in rows[1]["e"]  # float serialization, not n/m


def test_sweep_subcommand(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "alpha": {"lo": "1.3", "hi": "1.4", "count": 2},
        "delta_d": {"lo": "-1/4", "hi": "1/4", "count": 3},
        "init": {"box": "2", "count": 3},
        "budget": 2000,
    }))
    out = tmp_path / "out"
    assert main(["sweep", "-c", str(grid), "-o", str(out), "--jobs", "2"]) == 0
    with open(out / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(row["n_theorem1"] == "9" for row in rows)
    with open(out / "region.csv") as fh:
        mask = list(csv.DictReader(fh))
    assert [row["in_region"] for row in mask] == ["1"] * 6


def test_table1_subcommand(tmp_path, capsys):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({
        "disturbances": ["1/10", "2/5"],
        "horizon": 300,
    }))
    out = tmp_path / "out"
    assert main(["table1", "-c", str(campaign), "-o", str(out)]) == 0
    with open(out / "table1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert "disturbance" in capsys.readouterr().out


def test_missing_config_is_runtime_error(tmp_path, capsys):
    code = main(["simulate", "-c", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "-c", str(bad), "-o", str(tmp_path / "out")])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required arguments
    assert exc.value.code == 2
    out = str(tmp_path / "out")
    for argv, named in (([], "command"),
                        (["simulate", "-o", out, "-c"], "-c"),
                        (["sweep", "-o", out, "--jobs"], "--jobs"),
                        (["table1", "-o", out, "--seed", "3"], "--seed"),
                        (["sweep", "--jobs", "2", "-o", out, "--cells"],
                         "--cells"),
                        (["simulate", "--config=", "-o", out], "--config"),
                        (["table1", "-o", out, "extra"], "extra"),
                        (["table1", "-c", "-o", out], "-c"),
                        (["simulate", "-c", "a.json", "--jobs", "2",
                          "-o", out], "--jobs")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: quantloop "), argv
        assert err.splitlines()[1].startswith("quantloop: error: "), argv
        assert named in err.splitlines()[1], argv
    assert not (tmp_path / "out").exists()
    config = write_scenario(tmp_path, CYCLE_SCENARIO)
    with pytest.raises(SystemExit) as exc:  # the config's mode key sets it
        main(["simulate", "-c", str(config), "-o", str(tmp_path / "out"),
              "--mode", "float"])
    assert exc.value.code == 2


@pytest.mark.parametrize("literal", ["float:nan", "float:inf", "float:-inf",
                                     "float:1e999"])
def test_non_finite_disturbance_is_rejected_at_the_boundary(
        tmp_path, capsys, literal):
    payload = dict(CYCLE_SCENARIO)
    payload["disturbance"] = {"kind": "constant", "value": literal}
    config = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "key 'disturbance.value'" in err
    assert "non-finite" in err
    assert not out.exists()


def test_bare_json_nan_is_rejected(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(CYCLE_SCENARIO).replace('"-2/5"', "NaN"))
    assert main(["simulate", "-c", str(config), "-o", str(tmp_path / "o")]) == 1
    assert "key 'e0'" in capsys.readouterr().err


GRID = {
    "alpha": {"lo": "1.3", "hi": "1.4", "count": 2},
    "delta_d": {"lo": "-1/4", "hi": "1/4", "count": 3},
    "init": {"box": "2", "count": 3},
    "budget": 2000,
}


def run_with_config(tmp_path, command, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return main([command, "-c", str(path), "-o", str(tmp_path / "out")])


def test_grid_block_without_lo_names_the_key(tmp_path, capsys):
    payload = json.loads(json.dumps(GRID))
    del payload["alpha"]["lo"]
    assert run_with_config(tmp_path, "sweep", payload) == 1
    assert "missing key 'alpha.lo'" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("delta_d", "count"), 2.5),
    (("init", "count"), "three"),
    (("budget",), True),
])
def test_grid_non_integer_names_the_key(tmp_path, capsys, path, value):
    payload = json.loads(json.dumps(GRID))
    block = payload
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    assert run_with_config(tmp_path, "sweep", payload) == 1
    assert f"key {'.'.join(path)!r}: expected an integer" in \
        capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("alpha", "lo"), "float:1.3"),
    (("alpha", "hi"), "float:1.4"),
    (("delta_d", "lo"), "float:-0.25"),
    (("delta_d", "hi"), "sqrt2-1"),
    (("init", "box"), "float:2.5"),
    (("init", "box"), "sqrt2-1"),
])
def test_grid_float_literal_names_the_key(tmp_path, capsys, monkeypatch,
                                          path, value):
    # a sweep samples exact rationals: a float would print as a binary
    # fraction in grid.csv; rejected while loading, before any fork
    monkeypatch.setattr(os, "fork", no_fork)
    payload = json.loads(json.dumps(GRID))
    payload[path[0]][path[1]] = value
    assert run_with_config(tmp_path, "sweep", payload) == 1
    err = capsys.readouterr().err
    assert f"key {'.'.join(path)!r}: a sweep has no float mode, got the " \
        f"float {parse_scalar(value)!r}" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_campaign_non_integer_horizon_names_the_key(tmp_path, capsys):
    payload = {"disturbances": ["1/10"], "horizon": 12.5}
    assert run_with_config(tmp_path, "table1", payload) == 1
    assert "key 'horizon': expected an integer" in capsys.readouterr().err


def test_campaign_bad_disturbance_names_the_key(tmp_path, capsys):
    payload = {"disturbances": ["1/10", "float:nan"], "horizon": 10}
    assert run_with_config(tmp_path, "table1", payload) == 1
    assert "key 'disturbances'" in capsys.readouterr().err


def test_campaign_disturbances_not_a_list_names_the_key(tmp_path, capsys):
    payload = {"disturbances": "1/10"}
    assert run_with_config(tmp_path, "table1", payload) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'config.json'}: key 'disturbances': expected " \
        "a JSON list, got '1/10'\n"
    assert not (tmp_path / "out").exists()


def test_scenario_non_integer_horizon_names_the_key(tmp_path, capsys):
    payload = dict(CYCLE_SCENARIO)
    payload["horizon"] = "80.5"
    assert run_with_config(tmp_path, "simulate", payload) == 1
    assert "key 'horizon': expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value, shown", [
    (1000.0, "1000.0"),
    ("6/2", "6/2"),
    ("three", "three"),
    ("80.5", "161/2"),
    ("float:2.5", "2.5"),
])
def test_scenario_integer_key_error_shows_the_value(tmp_path, capsys, value,
                                                    shown):
    # a whole number not written as an integer is shown as written, so the
    # error does not call 1000 a non-integer; a fraction is shown as the
    # scalar it is, as a record built in code shows it
    payload = dict(CYCLE_SCENARIO, horizon=value)
    assert run_with_config(tmp_path, "simulate", payload) == 1
    assert capsys.readouterr().err.endswith(
        f"key 'horizon': expected an integer, got {shown}\n")


def test_top_level_list_config_is_rejected(tmp_path, capsys):
    for command in ("simulate", "sweep", "table1"):
        assert run_with_config(tmp_path, command, [GRID]) == 1
        assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", dict(CYCLE_SCENARIO, horzion=20), "horzion"),
    ("sweep", dict(GRID, budgett=5), "budgett"),
    ("sweep", dict(GRID, mode="float"), "mode"),
    ("table1", {"horzion": 20, "disturbances": ["0.1"]}, "horzion"),
    ("table1", {"disturbances": ["0.1"],
                "controllers": ["standard-pi", "switched-pi"]}, "controllers"),
    # keys inside a block, and a disturbance payload key of another kind
    ("sweep", dict(GRID, alpha={"lo": "1.3", "hi": "1.4", "count": 2,
                                "cuont": 5}), "alpha.cuont"),
    ("sweep", dict(GRID, delta_d={"lo": "0", "hi": "0", "count": 1,
                                  "cuont": 5}), "delta_d.cuont"),
    ("sweep", dict(GRID, init={"box": "2", "count": 3, "cuont": 5}),
     "init.cuont"),
    ("simulate", dict(CYCLE_SCENARIO, disturbance={
        "kind": "constant", "value": "1/5", "valeu": "2/5"}),
     "disturbance.valeu"),
    # no kind takes per-step values: one breakpoint a step is a ramp
    ("simulate", dict(CYCLE_SCENARIO, disturbance={
        "kind": "samples", "values": ["1/5", "2/5"]}), "disturbance.values"),
    ("simulate", dict(CYCLE_SCENARIO, disturbance={
        "kind": "piecewise-linear", "breakpoints": [[0, "1/5"]],
        "values": ["1/5"]}), "disturbance.values"),
    # a campaign always starts from rest
    ("table1", {"disturbances": ["0.1"], "e0": "1/3"}, "e0"),
    ("table1", {"disturbances": ["0.1"], "u0": "2"}, "u0"),
    # the analyses load a scenario the same way: the per-step values fail
    # as a key before the constant-disturbance check is reached
    ("analyze", dict(CYCLE_SCENARIO, disturbance={
        "kind": "samples", "values": ["1/5", "2/5"]}), "disturbance.values"),
    ("cycles", dict(CYCLE_SCENARIO, disturbance={
        "kind": "samples", "values": ["1/5", "2/5"]}), "disturbance.values"),
])
def test_unknown_config_key_is_rejected(tmp_path, capsys, command, payload,
                                        key):
    assert run_with_config(tmp_path, command, payload) == 1
    assert f"error: {tmp_path / 'config.json'}: unknown key {key!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_bad_mode_names_the_key(tmp_path, capsys):
    payload = dict(CYCLE_SCENARIO, mode="symbolic")
    assert run_with_config(tmp_path, "simulate", payload) == 1
    assert "key 'mode': unknown arithmetic mode: 'symbolic'" in \
        capsys.readouterr().err


def no_fork():
    raise AssertionError("a sweep worker was forked")


@pytest.mark.parametrize("lo, hi, key", [("1.5", "1.6", "alpha.lo"),
                                         ("1.3", "1.6", "alpha.hi"),
                                         ("1", "1.4", "alpha.lo")])
def test_sweep_gain_outside_the_capture_range_names_the_key(
        tmp_path, capsys, monkeypatch, lo, hi, key):
    # rejected while loading, before a worker could be forked
    monkeypatch.setattr(os, "fork", no_fork)
    payload = dict(GRID, alpha={"lo": lo, "hi": hi, "count": 2})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload))
    assert main(["sweep", "-c", str(path), "-o", str(tmp_path / "out"),
                 "--jobs", "2"]) == 1
    assert f"error: {path}: key {key!r}: the capture analysis needs a gain " \
        "in (1, 3/2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lo, hi, key", [("-2", "2", "delta_d.lo"),
                                         ("0", "2", "delta_d.hi"),
                                         ("-1/2", "float:0.6", "delta_d.hi")])
def test_sweep_residual_outside_its_range_names_the_key(
        tmp_path, capsys, monkeypatch, lo, hi, key):
    # a rounding error lies in [-1/2, 1/2]; rejected before any fork
    monkeypatch.setattr(os, "fork", no_fork)
    payload = dict(GRID, delta_d={"lo": lo, "hi": hi, "count": 3})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload))
    assert main(["sweep", "-c", str(path), "-o", str(tmp_path / "out"),
                 "--jobs", "2"]) == 1
    assert f"error: {path}: key {key!r}: a disturbance rounding error " \
        "satisfies |delta_d| <= 1/2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", ["3/2", "2", "2.9"])
def test_analyze_gain_outside_the_capture_range_names_the_key(
        tmp_path, capsys, alpha):
    # rejected while loading, before a trajectory is written; simulate and
    # cycles still run any stable gain
    config = write_scenario(tmp_path, dict(CYCLE_SCENARIO, alpha=alpha))
    out = tmp_path / "out"
    assert main(["analyze", "-c", str(config), "-o", str(out)]) == 1
    assert f"error: {config}: key 'alpha': the capture analysis needs a " \
        f"gain in (1, 3/2), got {parse_scalar(alpha)}" in \
        capsys.readouterr().err
    assert not out.exists()
    for command in ("simulate", "cycles"):
        assert main([command, "-c", str(config),
                     "-o", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("controller", ["standard-pi", "unquantized-pi"])
def test_analyze_rejects_a_controller_other_than_switched_pi(
        tmp_path, capsys, controller):
    # the capture, lock and band verdicts are the switched loop's theory;
    # rejected while loading, before a trajectory is written
    config = write_scenario(tmp_path, dict(FROM_REST, controller=controller))
    out = tmp_path / "out"
    assert main(["analyze", "-c", str(config), "-o", str(out)]) == 1
    assert f"error: {config}: key 'controller': the capture analysis needs " \
        f"'switched-pi', got {controller!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("controller, cycle", [
    ("switched-pi", (1, 10)), ("standard-pi", (2, 10)),
    ("unquantized-pi", None)], ids=["switched-pi", "standard-pi",
                                    "unquantized-pi"])
def test_cycles_predicts_only_switched_runs(tmp_path, controller, cycle):
    # predict_cycle holds for the switched law only; other runs report the
    # detected cycle alone
    config = write_scenario(tmp_path, dict(FROM_REST, controller=controller))
    assert main(["cycles", "-c", str(config), "-o", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "cycles.json").read_text())
    detected = report["cycle"]
    assert ((detected["n"], detected["m"]) if detected["periodic"]
            else None) == cycle
    keys = ["delta_d", "cycle"]
    if controller == "switched-pi":
        keys += ["predicted-cycle", "cycle-agreement"]
        assert report["cycle-agreement"] is True
    assert list(report) == keys


def ramp_scenario(breakpoints):
    return dict(CYCLE_SCENARIO, disturbance={"kind": "piecewise-linear",
                                             "breakpoints": breakpoints})


@pytest.mark.parametrize("command, payload, message", [
    ("sweep", dict(GRID, budget=0),
     "key 'budget': expected an integer >= 1, got 0"),
    ("sweep", dict(GRID, init={"box": "2", "count": 0}),
     "key 'init.count': expected an integer >= 1, got 0"),
    ("table1", {"disturbances": ["1/10"], "horizon": 0},
     "key 'horizon': expected an integer >= 1, got 0"),
    ("table1", {"disturbances": ["1/10"], "alpha": "1"},
     "key 'alpha': alpha=1 is outside (1, 3); the loop is unstable"),
    ("table1", {"disturbances": ["1/10"], "alpha": "5"},
     "key 'alpha': alpha=5 is outside (1, 3); the loop is unstable"),
    ("sweep", dict(GRID, alpha={"lo": "1.3", "hi": "1.4", "count": 0}),
     "key 'alpha.count': expected an integer >= 1, got 0"),
    ("sweep", dict(GRID, delta_d={"lo": "0", "hi": "0", "count": -2}),
     "key 'delta_d.count': expected an integer >= 1, got -2"),
    ("simulate", dict(CYCLE_SCENARIO, controller="pid"),
     "key 'controller': unknown controller: 'pid'"),
    ("simulate", dict(CYCLE_SCENARIO, alpha="3"),
     "key 'alpha': alpha=3 is outside (1, 3); the loop is unstable"),
    ("simulate", dict(CYCLE_SCENARIO, horizon=-1),
     "key 'horizon': expected an integer >= 0, got -1"),
    # every breakpoint is a [step, value] pair
    ("simulate", ramp_scenario([[5]]), "key 'disturbance.breakpoints': "
     "expected a [step, value] pair, got [5]"),
    ("simulate", ramp_scenario([[5, "1", 7]]), "key 'disturbance.breakpoints': "
     "expected a [step, value] pair, got [5, '1', 7]"),
    ("simulate", ramp_scenario([{"k": 5}]), "key 'disturbance.breakpoints': "
     "expected a [step, value] pair, got {'k': 5}"),
    ("simulate", ramp_scenario([5]), "key 'disturbance.breakpoints': "
     "expected a [step, value] pair, got 5"),
    ("simulate", ramp_scenario([[5, "1"], [5, "2"]]),
     "key 'disturbance.breakpoints': breakpoint steps must be strictly "
     "increasing"),
    ("simulate", ramp_scenario([]), "key 'disturbance.breakpoints': "
     "piecewise-linear disturbance needs at least one value"),
])
def test_spec_errors_name_the_file(tmp_path, capsys, command, payload,
                                   message):
    assert run_with_config(tmp_path, command, payload) == 1
    assert f"error: {tmp_path / 'config.json'}: {message}" in \
        capsys.readouterr().err


def test_cycles_and_analyze_share_the_cycle_records(tmp_path):
    for scenario in (CYCLE_SCENARIO, dict(CYCLE_SCENARIO, mode="float")):
        config = write_scenario(tmp_path, scenario)
        for command in ("analyze", "cycles"):
            assert main([command, "-c", str(config),
                         "-o", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / "analyze" / "report.json").read_text())
        cycles = json.loads((tmp_path / "cycles" / "cycles.json").read_text())
        assert cycles == {key: report[key] for key in cycles}
        keys = ["delta_d", "cycle"]
        if scenario["mode"] == "exact":
            keys += ["predicted-cycle", "cycle-agreement"]
        assert list(cycles) == keys


def test_float_cycle_search_takes_a_state_beyond_a_cell_index(tmp_path):
    # 1e300 over the cell size 1e-9 overflows to inf, a cell of its own; the
    # exact run from the same start recurs at (8, 37) from step 1472 too
    config = write_scenario(tmp_path, {
        "alpha": "11/8", "controller": "switched-pi",
        "disturbance": {"kind": "constant", "value": "82/37"},
        "e0": "float:1e300", "u0": "4/5", "horizon": 3000, "mode": "float"})
    for command in ("cycles", "analyze"):
        assert main([command, "-c", str(config),
                     "-o", str(tmp_path / command)]) == 0
    cycle = json.loads((tmp_path / "cycles" / "cycles.json").read_text())[
        "cycle"]
    assert (cycle["n"], cycle["m"], cycle["entry_step"]) == (8, 37, 1472)
    report = json.loads((tmp_path / "analyze" / "report.json").read_text())
    assert report["cycle"] == cycle
    assert (report["capture"]["status"] == report["control-lock"]["status"]
            == report["band"]["status"] == "pass")


def test_float_run_past_the_float_range_fails_with_one_line(tmp_path,
                                                           capsys):
    # gain 11/8 times a rho(e) near 1.7e308 overflows to inf, which no
    # quantizer can round; the command fails before it writes a file
    config = write_scenario(tmp_path, {
        "alpha": "11/8", "controller": "switched-pi",
        "disturbance": {"kind": "constant", "value": "82/37"},
        "e0": "float:1.7e308", "u0": "4/5", "horizon": 3000,
        "mode": "float"})
    for command in ("simulate", "analyze"):
        assert main([command, "-c", str(config),
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: the float run overflowed: cannot convert float infinity"
            " to integer\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3", str((os.cpu_count() or 1) + 1),
                                  "two"])
def test_jobs_outside_the_cpu_range_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch, jobs):
    # rejected while parsing, so no worker (and no process) is ever forked
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-o", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: The files each command writes.
OUTPUTS = {"table1": ("table1.csv",), "simulate": ("trajectory.csv",),
           "analyze": ("trajectory.csv", "report.json"),
           "cycles": ("cycles.json",), "sweep": ("grid.csv", "region.csv")}
#: The committed experiments: each file, by its name's prefix, is run by
#: each of these commands, with its options, into one output directory:
#: the file's stem (None) or a fixed name.
EXPERIMENT_KINDS = {
    "ramp": (None, (("simulate",),)),
    "constant": (None, (("analyze",), ("cycles",))),
    "sweep": ("sweep", (("sweep", "--jobs", "1"), ("sweep", "--jobs", "2")))}
#: The SHA-256 sums of the experiments' outputs, one ``<sum>  <dir>/<file>``
#: line each, the directory named by its run.
OUTPUT_SUMS = dict(line.split()[::-1] for line in (
    Path(__file__).parents[1] / ".github" / "experiment-outputs.sha256"
).read_text().splitlines())


def experiment_runs() -> list:
    """``(command, config, options, output directory)`` of each run, as a
    test parameter named by them: the reference table, then each
    experiment by its kind; the command is None for a file of no kind."""
    runs = [("table1", None, (), "t1")]
    for config in sorted((Path(__file__).parents[1] / "experiments").glob(
            "*")):
        out, commands = EXPERIMENT_KINDS.get(config.name.split("-")[0],
                                             (None, ((None,),)))
        runs += [(command, config, tuple(options), out or config.stem)
                 for command, *options in commands]
    return [pytest.param(*run, id="-".join(filter(None, (
        run[0], run[1] and run[1].stem, *run[2]))).replace("---", "-"))
        for run in runs]


@pytest.mark.parametrize("command, config, options, out", experiment_runs())
def test_experiment_outputs_match_the_committed_sums(tmp_path, command,
                                                     config, options, out):
    # each run as a user makes it, in a fresh interpreter where a warning is
    # an error; it writes exactly its command's files, each of the bytes its
    # committed sum was taken of, so a config that drifts from its loader,
    # a new one with no sums or an output that changes fails here
    assert command, f"{config.name}: no command for its name's prefix"
    # the only option is --jobs, which the CLI caps at the CPU count
    if options and int(options[1]) > (hasattr(os, "fork") and os.cpu_count()
                                      or 1):
        pytest.skip(f"--jobs {options[1]} needs {options[1]} CPUs and fork")
    done = run_fresh("-W", "error", "-m", "quantloop.cli", command,
                     *(("-c", str(config)) if config else ()), *options,
                     "-o", str(tmp_path / out), timeout=300)
    assert done.returncode == 0, done.stderr
    written = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*") if path.is_file()}
    assert set(written) == {f"{out}/{name}" for name in OUTPUTS[command]}
    assert written == {name: OUTPUT_SUMS.get(name) for name in written}


def test_every_committed_sum_has_a_run():
    outputs = set()
    for run in experiment_runs():
        command, *_, out = run.values
        outputs.update(f"{out}/{name}" for name in OUTPUTS.get(command, ()))
    assert outputs == set(OUTPUT_SUMS)


@pytest.mark.parametrize("kind, shown", [("sine", "'sine'"), (3, "'3'")])
def test_unknown_disturbance_kind_names_its_key(tmp_path, capsys, kind,
                                                shown):
    # the kind is read as text, so a number prints quoted as a string does
    payload = dict(CYCLE_SCENARIO, disturbance={"kind": kind, "value": "1"})
    assert run_with_config(tmp_path, "simulate", payload) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'config.json'}: key 'disturbance.kind': " \
        f"unknown disturbance kind {shown}\n"


def test_campaign_reports_the_first_bad_key_in_table_order(tmp_path, capsys):
    # keys are read in the loader's table order (disturbances, alpha,
    # horizon), not in the file's order
    payload = {"horizon": 0, "alpha": "9", "disturbances": ["1/10"]}
    assert run_with_config(tmp_path, "table1", payload) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'config.json'}: key 'alpha': alpha=9 is " \
        "outside (1, 3); the loop is unstable\n"


def test_table1_fails_when_the_signs_disagree(tmp_path, capsys,
                                             monkeypatch):
    # -dbar scores 1e-9 above +dbar: the table is not written
    rms = campaign._campaign_rms
    monkeypatch.setattr(campaign, "_campaign_rms", lambda spec, law, dbar:
                        rms(spec, law, dbar) + (1e-9 if dbar < 0 else 0))
    spec = campaign.CampaignSpec(disturbances=(Fraction(1, 10),),
                                 horizon=200)
    plus = rms(spec, "standard-pi", Fraction(1, 10))
    line = (f"sign symmetry violated for standard-pi, dbar=1/10: {plus} vs "
            f"{plus + 1e-9}")
    with pytest.raises(ArithmeticError) as exc:
        campaign.run_table1(spec)
    assert str(exc.value) == line
    payload = {"disturbances": ["1/10"], "horizon": 200}
    assert run_with_config(tmp_path, "table1", payload) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out" / "table1.csv").exists()


def test_cli_import_loads_its_layers_and_no_heavy_stdlib(tmp_path):
    # the records are named tuples, so nothing imports dataclasses and the
    # inspect it pulls in.  Every layer is in sys.modules and on the
    # package once the CLI is imported, analysis and reachability as lazy
    # modules that load at their first use, so the benchmark's tracer finds
    # each one to wrap; loading them imports no heavy module either.
    out = run_fresh("-c", "import sys, quantloop.cli; "
                    "import quantloop.analysis, quantloop.reachability; "
                    "quantloop.reachability.sweep, "
                    "quantloop.analysis.detect_cycle; print(*sys.modules)")
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert not loaded & {"csv", "dataclasses", "inspect", "multiprocessing",
                         "pickle", "signal"}
    assert {"quantloop.dynamics", "quantloop.analysis",
            "quantloop.reachability", "quantloop.campaign"} <= loaded
    # a parallel sweep forks its workers itself, with no process pool; its
    # children send their tallies with marshal, so only a failed worker
    # needs pickle and only a failed sweep kills with signal
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    out = run_fresh("-c", "import os, sys; os.cpu_count = lambda: 2; "
                    "from quantloop.cli import main; "
                    f"main(['sweep', '-c', {str(grid)!r}, '-o', "
                    f"{str(tmp_path / 'out')!r}, '--jobs', '2']); "
                    "print('modules:', *sys.modules)")
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.splitlines()[-1].split()[1:])
    assert not loaded & {"multiprocessing", "pickle", "signal"}
    assert (tmp_path / "out" / "region.csv").is_file()


def test_cli_warning_names_the_config(tmp_path):
    # gain 11/10 lies outside (5/4, 3/2), so simulate warns
    config = write_scenario(tmp_path, CYCLE_SCENARIO)
    out = run_fresh("-m", "quantloop.cli", "simulate", "-c", str(config),
                    "-o", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stderr.startswith(f"warning: {config}: TuningWarning: ")
    assert out.stderr.count("\n") == 1
    assert "campaign.py" not in out.stderr
    # a warning turned into an error fails the command with one line
    out = run_fresh("-W", "error", "-m", "quantloop.cli", "simulate",
                    "-c", str(config), "-o", str(tmp_path / "strict"))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {config}: TuningWarning: ")
    assert out.stderr.count("\n") == 1
    assert not (tmp_path / "strict").exists()


def test_table1_float_gain_runs_without_a_warning(tmp_path):
    # a campaign has no mode key: a float gain, like a float disturbance,
    # makes its runs float instead of promoting exact runs with a warning
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"disturbances": ["1/10"],
                                  "alpha": "float:1.375", "horizon": 200}))
    out = run_fresh("-W", "error", "-m", "quantloop.cli", "table1",
                    "-c", str(config), "-o", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert (tmp_path / "out" / "table1.csv").is_file()


def test_jobs_accepts_every_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        args = parse_args(["sweep", "-o", "out", "--jobs", str(jobs)])
        assert args.jobs == jobs
    with pytest.raises(SystemExit):
        parse_args(["sweep", "-o", "out", "--jobs", "3"])


def test_jobs_without_fork_takes_only_one_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert parse_args(["sweep", "-o", "out", "--jobs", "1"]).jobs == 1
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "-o", "out", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "-c", "a.json", "-o", "out"],
    ["analyze", "--config", "a.json", "--out", "out"],
    ["analyze", "--config=a.json", "--out=out"],
    ["analyze", "-o", "first", "-c", "b.json", "--out", "out", "-c=a.json"],
])
def test_parse_args_forms_and_last_value(argv):
    # an option's value follows it or its ``=``; one given twice keeps
    # its last value
    args = parse_args(argv)
    assert (args.command, args.config, args.out, args.jobs) == (
        "analyze", "a.json", "out", 1)
    assert args.func is parse_args(["cycles", "-c", "x", "-o", "y"]).func


def test_parse_args_defaults_of_the_optional_options():
    args = parse_args(["table1", "-o", "out"])
    assert (args.config, args.out) == (None, "out")
    args = parse_args(["sweep", "-o", "out"])
    assert (args.config, args.jobs) == (None, 1)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"],
                                  ["frobnicate", "--help"]])
def test_help_prints_the_commands_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: quantloop ")
    for command in ("simulate", "analyze", "cycles", "sweep", "table1"):
        assert f"    {command} " in out


def test_no_command_imports_argparse_gettext_or_locale(tmp_path):
    # the table parser needs none of them: argparse costs a fresh process
    # about 2 ms to import and gettext's first lookup loads locale
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    scenario = write_scenario(tmp_path, CAPTURE_SCENARIO)
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"disturbances": ["1/10"],
                                    "horizon": 200}))
    # the layers each command compiles and runs; the others stay lazy
    layers = {"numerics", "dynamics", "analysis", "reachability", "campaign",
              "cli"}
    eager = {"cli", "campaign", "dynamics", "numerics"}
    for argv, ran_layers in (
            (["simulate", "-c", str(scenario)], eager),
            (["analyze", "-c", str(scenario)], eager | {"analysis"}),
            (["cycles", "-c", str(scenario)], eager | {"analysis"}),
            (["sweep", "-c", str(grid)], layers),
            (["table1", "-c", str(campaign)], eager)):
        argv += ["-o", str(tmp_path / argv[0])]
        out = run_fresh("-c", "import sys, types; "
                        "from quantloop.cli import main; "
                        f"code = main({argv!r}); "
                        "print('modules:', code, *sys.modules); "
                        "print('ran:', *(name for name, module in "
                        "sys.modules.items() if name.startswith('quantloop.')"
                        " and type(module) is types.ModuleType))")
        assert out.returncode == 0, out.stderr
        code, *loaded = out.stdout.splitlines()[-2].split()[1:]
        assert code == "0"
        assert not {"argparse", "gettext", "locale"} & set(loaded), argv
        # a layer still lazy is in sys.modules, but was never compiled
        assert {f"quantloop.{layer}" for layer in layers} <= set(loaded)
        ran = {name.split(".")[1]
               for name in out.stdout.splitlines()[-1].split()[1:]}
        assert ran == ran_layers, argv
