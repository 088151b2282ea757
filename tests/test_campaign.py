"""RMS metric, comparison table, and scenario runner tests."""

import csv
import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantloop import campaign
from quantloop.campaign import (
    TABLE1_CSV_COLUMNS,
    CAMPAIGN_KEYS,
    GRID_KEYS,
    SCENARIO_KEYS,
    CampaignSpec,
    RmsRow,
    analyze_trajectory,
    format_table1,
    load_config,
    load_scenario,
    rms_quantized_error,
    run_scenario,
    run_table1,
    write_table1_csv,
)
from quantloop.dynamics import (
    Disturbance,
    LoopConfig,
    Trajectory,
    simulate,
    write_trajectory_csv,
)
from quantloop.numerics import SQRT2_MINUS_1, format_scalar
from quantloop.reachability import (
    GRID_CSV_COLUMNS,
    REGION_CSV_COLUMNS,
    CellResult,
    GridSpec,
    write_grid_csv,
    write_region_csv,
)
from oracles import disturbance_value, read_trajectory_csv, unit_steps


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


RAMP_SCENARIO = {
    "alpha": "11/8",
    "controller": "switched-pi",
    "disturbance": {"kind": "piecewise-linear",
                    "breakpoints": [[20, "2.6"], [40, "2.4"]]},
    "e0": "0",
    "u0": "0",
    "horizon": 200,
    "mode": "exact",
}


# --- RMS --------------------------------------------------------------------

def test_rms_all_zero_trajectory():
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.constant(0),
                        e0=0, u0=0, horizon=100)
    assert rms_quantized_error(simulate(config), 100) == 0.0


def test_rms_counts_transient_from_step_zero():
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.constant(F(12, 10)),
                        e0=F(2), u0=0, horizon=10)
    traj = simulate(config)
    records = traj.records
    assert records[0].rho_e == 2  # the transient is part of the score
    # every window end: the window is steps 0..horizon-1
    for horizon in range(1, 11):
        expected = math.sqrt(sum(r.rho_e ** 2 for r in records[:horizon])
                             / horizon)
        assert rms_quantized_error(traj, horizon) == expected


rms_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=10)


# exact lassos of both quantized laws, entered at step 0 or later, and
# dense float runs; every window end, from below the entry to the run's
# length, cuts the cycle at each offset
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["standard-pi", "switched-pi"]),
       st.fractions(min_value=F(41, 40), max_value=F(119, 40),
                    max_denominator=40),
       rms_scalars, rms_scalars, rms_scalars,
       st.sampled_from(["exact", "float"]), st.integers(0, 80))
@example("switched-pi", F(11, 8), F(1, 5), F(-3, 10), 0, "exact", 23)
@example("standard-pi", F(11, 8), F(1, 10), 0, 0, "exact", 80)
def test_rms_is_the_mean_square_over_its_window(controller, alpha, dbar, e0,
                                                u0, mode, horizon):
    traj = simulate(LoopConfig(alpha, controller, Disturbance.constant(dbar),
                               e0, u0, horizon, mode))
    squares = [r.rho_e ** 2 for r in traj.records]
    for h, total in enumerate(itertools.accumulate(squares), 1):
        assert rms_quantized_error(traj, h) == math.sqrt(total / h)


def test_rms_horizon_too_short():
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.constant(0),
                        e0=0, u0=0, horizon=5)
    traj = simulate(config)
    # past the run, and below one step (no mean over zero steps)
    for horizon in (10, 0, -3):
        with pytest.raises(ValueError):
            rms_quantized_error(traj, horizon)


def test_reference_rms_values_single_rows():
    spec = CampaignSpec(disturbances=(F(1, 10),))
    [row] = run_table1(spec)
    assert abs(row.rms_switched - 0.316) <= 0.01
    assert abs(row.rms_standard - 0.446) <= 0.01
    assert row.improvement > 0.25


# --- campaign ---------------------------------------------------------------

def test_run_table1_empty():
    assert run_table1(CampaignSpec(disturbances=())) == []


def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(horizon=0)


def test_campaign_default_gain_is_eleven_eighths():
    # table1.csv reads the same at 21/16, so its sums cannot pin the gain
    for spec in (CampaignSpec(), campaign.load_config(None, CampaignSpec,
                                                      campaign.CAMPAIGN_KEYS)):
        assert type(spec.alpha) is F and spec.alpha == F(11, 8)


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=F(1, 50), max_value=F(49, 50),
                    max_denominator=50))
def test_rms_sign_symmetry_from_rest(dbar):
    spec = CampaignSpec(disturbances=(dbar,), horizon=200)
    [row] = run_table1(spec)  # raises if +dbar and -dbar disagree
    assert row.rms_standard >= 0 and row.rms_switched >= 0


def test_table1_csv_and_text_output(tmp_path):
    rows = run_table1(CampaignSpec(disturbances=(F(1, 10), F(2, 5)),
                                   horizon=300))
    path = tmp_path / "table1.csv"
    write_table1_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["disturbance"] for r in parsed] == ["1/10", "2/5"]
    assert all("." in r["rms_standard"] for r in parsed)
    text = format_table1(rows)
    assert "1/10" in text and "switched" in text.splitlines()[0]


def test_table_csvs_read_back_to_the_fields_written(tmp_path):
    # the writers quote nothing, so csv's reader must see every field as
    # written: exact scalars, floats, ints and %.3f strings
    cells = [CellResult(F(1001, 1000), F(-1, 2), 441, 400, 20, 1, 20),
             CellResult(F(13, 10), F(0), 9, 9, 0, 0, 0),
             CellResult(F(3, 2) - F(1, 10 ** 30), F(1, 3), 1, 1, 0, 0, 0)]
    rows = [RmsRow(F(1, 100), 0.0905, 0.1, 0.0), RmsRow(-0.0, 1.5, 2.25, -1.0),
            RmsRow(SQRT2_MINUS_1, 1e-300, 12345.6785, 0.5)]
    expected = {
        write_grid_csv: (cells, [list(GRID_CSV_COLUMNS)] + [
            [format_scalar(c.alpha), format_scalar(c.delta_d),
             *map(str, c[2:])] for c in cells]),
        write_region_csv: (cells, [list(REGION_CSV_COLUMNS)] + [
            [format_scalar(c.alpha), format_scalar(c.delta_d), flag]
            for c, flag in zip(cells, "011")]),
        write_table1_csv: (rows, [list(TABLE1_CSV_COLUMNS)] + [
            [format_scalar(r.disturbance), *(f"{x:.3f}" for x in r[1:])]
            for r in rows]),
    }
    for writer, (data, fields) in expected.items():
        path = tmp_path / f"{writer.__name__}.csv"
        writer(data, path)
        assert path.read_bytes().count(b"\r\n") == len(fields)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == fields


# --- scenario configs -------------------------------------------------------

def test_load_scenario_round_trip(tmp_path):
    path = write_json(tmp_path / "scenario.json", RAMP_SCENARIO)
    config = load_scenario(path)
    assert config.alpha == F(11, 8)
    assert config.controller == "switched-pi"
    assert disturbance_value(config.disturbance, 30) == F(5, 2)
    assert config.horizon == 200
    assert config.mode == "exact"


def test_load_scenario_decimal_strings_stay_exact(tmp_path):
    payload = dict(RAMP_SCENARIO)
    payload["disturbance"] = {"kind": "constant", "value": 1.2}
    path = write_json(tmp_path / "scenario.json", payload)
    config = load_scenario(path)
    # JSON floats are re-parsed from their text, not from binary doubles
    assert config.disturbance.breakpoints == ((0, F(6, 5)),)


def test_load_scenario_unit_step_ramp_holds_last(tmp_path):
    # per-step values are written as one breakpoint a step
    payload = dict(RAMP_SCENARIO)
    payload["disturbance"] = {"kind": "piecewise-linear",
                              "breakpoints": [[0, "1/2"], [1, "1/4"]]}
    config = load_scenario(write_json(tmp_path / "scenario.json", payload))
    assert config.disturbance == unit_steps([F(1, 2), F(1, 4)])
    assert [disturbance_value(config.disturbance, k) for k in range(6)] == \
        [F(1, 2)] + [F(1, 4)] * 5


def test_scenario_errors_name_the_key(tmp_path):
    payload = dict(RAMP_SCENARIO)
    del payload["alpha"]
    with pytest.raises(ValueError, match="alpha"):
        load_scenario(write_json(tmp_path / "s1.json", payload))

    payload = dict(RAMP_SCENARIO)
    payload["e0"] = "abc"
    with pytest.raises(ValueError, match="e0"):
        load_scenario(write_json(tmp_path / "s2.json", payload))

    payload = dict(RAMP_SCENARIO)
    payload["disturbance"] = {"kind": "brownian"}
    with pytest.raises(ValueError, match="disturbance"):
        load_scenario(write_json(tmp_path / "s3.json", payload))


def test_scenario_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "alpha": "11/8",\n  oops\n}\n')
    with pytest.raises(ValueError, match="line 3"):
        load_scenario(path)


#: Each config kind: its loader, record and key table, a full config whose
#: values are not the defaults, a block it may leave out, a key that a
#: present block needs, a defaulted top-level key and a required key (None
#: where the kind has none).
ONE_RULE = {
    "scenario": (load_scenario, LoopConfig, SCENARIO_KEYS,
                 dict(RAMP_SCENARIO, mode="float"), "mode",
                 "disturbance.breakpoints", "mode", "alpha"),
    "grid": (lambda path: load_config(path, GridSpec, GRID_KEYS), GridSpec,
             GRID_KEYS,
             {"alpha": {"lo": "1.3", "hi": "1.4", "count": 2},
              "delta_d": {"lo": "-1/4", "hi": "1/4", "count": 3},
              "init": {"box": "2", "count": 3}, "budget": 2000},
             "delta_d", "init.count", "budget", None),
    "campaign": (lambda path: load_config(path, CampaignSpec, CAMPAIGN_KEYS),
                 CampaignSpec, CAMPAIGN_KEYS,
                 {"disturbances": ["1/10"], "alpha": "1.3", "horizon": 30},
                 "alpha", None, "horizon", None),
}


def without(config: dict, path: str) -> dict:
    """A copy of ``config`` without the value at the dotted ``path``."""
    config = json.loads(json.dumps(config))
    *blocks, key = path.split(".")
    block = config
    for name in blocks:
        block = block[name]
    del block[key]
    return config


@pytest.mark.parametrize("kind", ONE_RULE)
def test_one_absent_key_rule(tmp_path, kind):
    # a key is read when its top-level block is in the file or its field
    # has no default
    load, record, keys, full, block, needed, optional, required = \
        ONE_RULE[kind]
    defaults = record._field_defaults
    loaded = load(write_json(tmp_path / "full.json", full))
    assert all(getattr(loaded, name) != value
               for name, value in defaults.items())
    # an absent block keeps its defaults, and only those
    path = write_json(tmp_path / "absent.json", without(full, block))
    assert load(path)._asdict() == {**loaded._asdict(), **{
        name: defaults[name] for key, (name, _) in keys.items()
        if key.split(".")[0] == block}}
    # a defaulted top-level key is optional
    path = write_json(tmp_path / "optional.json", without(full, optional))
    assert getattr(load(path), optional) == defaults[optional]
    # a present block needs every key, and a missing required key is named
    for key in filter(None, (needed, required)):
        path = write_json(tmp_path / "missing.json", without(full, key))
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: missing key {key!r}"


# --- scenario runner --------------------------------------------------------

def test_run_scenario_writes_trajectory(tmp_path):
    path = write_json(tmp_path / "scenario.json", RAMP_SCENARIO)
    outputs, report = run_scenario(path, tmp_path / "out")
    assert report is None
    traj = read_trajectory_csv(outputs["trajectory"], mode="exact")
    assert traj.length == 201
    records = traj.records
    # transient crossing flips the quantized error into both signs ...
    window = [r.rho_e for r in records[25:60]]
    assert 1 in window and -1 in window
    # ... and the new invariant set has unit excursion in {0, 1}
    tail = [r.rho_e for r in records[-100:]]
    assert set(tail) == {0, 1}


def test_run_scenario_ramp_without_threshold_crossing(tmp_path):
    payload = dict(RAMP_SCENARIO)
    payload["disturbance"] = {"kind": "piecewise-linear",
                              "breakpoints": [[20, "2.6"], [40, "2.501"]]}
    path = write_json(tmp_path / "scenario.json", payload)
    outputs, _ = run_scenario(path, tmp_path / "out")
    traj = read_trajectory_csv(outputs["trajectory"], mode="exact")
    tail = [r.rho_e for r in traj.records[50:]]
    # same invariant set as before the ramp: excursion stays in {-1, 0}
    assert set(tail) <= {-1, 0}
    assert -1 in tail


def test_run_scenario_standard_pi_keeps_oscillating(tmp_path):
    payload = dict(RAMP_SCENARIO)
    payload["controller"] = "standard-pi"
    path = write_json(tmp_path / "scenario.json", payload)
    outputs, _ = run_scenario(path, tmp_path / "out")
    records = read_trajectory_csv(outputs["trajectory"], mode="exact").records
    for lo in range(50, 150, 25):
        window = {r.rho_e for r in records[lo:lo + 50]}
        assert {-1, 1} <= window


def test_run_scenario_with_analysis(tmp_path):
    scenario = {
        "alpha": "11/10", "controller": "switched-pi",
        "disturbance": {"kind": "constant", "value": "0.4"},
        "e0": "0.2", "u0": "0.6", "horizon": 100,
    }
    path = write_json(tmp_path / "scenario.json", scenario)
    outputs, _ = run_scenario(path, tmp_path / "out", "analyze")
    report = json.loads(outputs["report"].read_text())
    assert report["delta_d"] == "2/5"
    assert report["capture"]["status"] == "pass"
    assert report["control-lock"]["status"] == "pass"
    assert report["cycle"]["periodic"] is True
    assert (report["cycle"]["n"], report["cycle"]["m"]) == (2, 5)
    assert report["cycle-agreement"] is True
    assert report["band"]["status"] == "pass"
    assert report["band"]["interval"]["lo"] == "-1/10"


@pytest.mark.parametrize("horizon", [100, 10**6])
def test_failing_verdict_lists_each_state_once(horizon):
    # gain 21/20 from (-10, -10) against 3/10 ends on a 10-step cycle outside
    # the predicted band: at horizon 10^6 the band fails at 899,950 steps,
    # yet the report names each failing state once, whatever the horizon
    config = LoopConfig(alpha=F(21, 20), controller="switched-pi",
                        disturbance=Disturbance.constant(F(3, 10)),
                        e0=-10, u0=-10, horizon=horizon, mode="exact")
    report = analyze_trajectory(simulate(config), config)
    assert (report["cycle"]["m"], report["cycle"]["entry_step"]) == (10, 56)
    assert report["band"]["status"] == "fail"
    assert report["band"]["violations"] == tuple(range(57, 66))
    assert len(json.dumps(report)) < 1000


@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_run_scenario_checks_preconditions_before_simulating(
        tmp_path, monkeypatch, command):
    def no_run(config):
        raise AssertionError("a rejected scenario was simulated")
    monkeypatch.setattr(campaign, "simulate", no_run)
    path = write_json(tmp_path / "scenario.json", RAMP_SCENARIO)
    with pytest.raises(ValueError, match="needs a constant disturbance"):
        run_scenario(path, tmp_path / "out", command)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_run_scenario_returns_the_report_it_wrote(tmp_path, command):
    # the report handed back is the one written, byte for byte
    path = write_json(tmp_path / "scenario.json",
                      dict(RAMP_SCENARIO, disturbance={"kind": "constant",
                                                       "value": "1/5"}))
    outputs, report = run_scenario(path, tmp_path / "out", command)
    written = outputs["cycles" if command == "cycles" else "report"]
    assert written.read_text() == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_analysis_rejects_time_varying_disturbance(tmp_path, command):
    # the analysis checks its preconditions itself, outside run_scenario
    config = load_scenario(write_json(tmp_path / "scenario.json",
                                      RAMP_SCENARIO))
    traj = simulate(config)
    with pytest.raises(ValueError, match="needs a constant disturbance"):
        analyze_trajectory(traj, config, command)


# --- atomic outputs ---------------------------------------------------------

class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def _failing_writes():
    """``(writer, argument)`` pairs whose write raises part-way."""
    good = CellResult(F(13, 10), F(1, 4), 9, 9, 0, 0, 0)
    bad = CellResult(Unprintable(), F(1, 4), 9, 0, 9, 0, 0)
    grid = (good, bad)
    n = 3000  # past the first chunk of rows the trajectory writer formats
    traj = Trajectory((F(0),) * n, (F(0),) * n,
                      (0,) * (n - 1) + (Unprintable(),), (0,) * n,
                      (F(0),) * n, n, n)
    return [
        (write_trajectory_csv, traj),
        (campaign.write_json, {"delta_d": "1/5", "cycle": Unprintable()}),
        (write_table1_csv, [RmsRow(F(1, 10), 0.5, 0.3, 0.4),
                            RmsRow(F(1, 5), "x", 0.3, 0.4)]),
        (write_grid_csv, grid),
        (write_region_csv, grid),
    ]


@pytest.mark.parametrize("writer, data", _failing_writes())
def test_a_failed_write_leaves_the_earlier_file(tmp_path, writer, data):
    path = tmp_path / "output"
    path.write_text("earlier\n")
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        writer(data, path)
    assert path.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [path]
