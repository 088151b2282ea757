"""The package's records: immutable, validated when built, picklable."""

import json
import os
import pickle
import typing
from fractions import Fraction as F

import pytest

from quantloop.analysis import CycleReport, EntryRegion, Interval, Verdict
from quantloop.campaign import CampaignSpec, RmsRow
from quantloop.cli import main
from quantloop.dynamics import (
    Disturbance,
    LoopConfig,
    TrajectoryRecord,
    simulate,
)
from quantloop.reachability import AttractorClass, CellResult, GridSpec


def config(**changes):
    fields = dict(alpha=F(11, 8), controller="switched-pi",
                  disturbance=Disturbance.constant(F(1, 10)), e0=0, u0=0,
                  horizon=20)
    return LoopConfig(**{**fields, **changes})


#: One record of each kind.
RECORDS = {
    "Disturbance": lambda: Disturbance.ramp([(0, 0), (5, F(1, 2))]),
    "LoopConfig": config,
    "TrajectoryRecord": lambda: TrajectoryRecord(0, 0, 0, 0, 0, 0, "n/a"),
    "Trajectory": lambda: simulate(config()),
    "EntryRegion": lambda: EntryRegion(F(11, 8), F(1, 10)),
    "Verdict": lambda: Verdict("capture", "pass", 3),
    "Interval": lambda: Interval(F(-2, 5), F(3, 5), True, False),
    "CycleReport": lambda: CycleReport(True, 1, 10, 4),
    "GridSpec": lambda: GridSpec(alpha_count=2),
    "AttractorClass": lambda: AttractorClass("theorem1-set", frozenset()),
    "CellResult": lambda: CellResult(F(11, 8), F(1, 10), 9, 9, 0, 0, 0),
    "CampaignSpec": lambda: CampaignSpec(horizon=10),
    "RmsRow": lambda: RmsRow(F(1, 10), 0.5, 0.3, 0.4),
}


@pytest.mark.parametrize("make", [
    lambda: GridSpec(alpha_count=0),
    lambda: config(mode="fast"),
    lambda: Disturbance("piecewise-linear", ((3, 0), (3, 1))),
    lambda: Disturbance.ramp([(5, 0), (2, 1)]),
    lambda: Disturbance.ramp([(0, 0), (2.5, 1)]),
    lambda: Disturbance.ramp([(True, 1)]),
    lambda: Disturbance("piecewise-linear", ((0, 0), (2.5, 1))),
    lambda: CampaignSpec(alpha=3),
    lambda: EntryRegion(F(3, 2), F(1, 10)),
], ids=["grid-count", "loop-mode", "equal-steps", "decreasing-steps",
        "ramp-float-step", "ramp-bool-step", "float-step",
        "campaign-gain", "entry-gain"])
def test_validated_records_reject_bad_input_when_built(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for attr in (type(record)._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", ["GridSpec", "CellResult"])
def test_pool_records_survive_a_pickle_round_trip(name):
    # a forked sweep worker pipes back only ints, but a library caller
    # may ship a spec or a cell between processes as a pickle
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)


#: Each input record: a field, a bad value that ``_replace`` gives it, and
#: how its check's error begins.  A ruled field's error names the record and
#: the field; ``Disturbance`` and ``EntryRegion`` check in their own words.
REPLACED = [
    ("Disturbance", "breakpoints", ((3, 0), (3, 1)), "breakpoint steps"),
    ("LoopConfig", "mode", "fast", "LoopConfig.mode: "),
    ("EntryRegion", "alpha", F(3, 2), "the capture analysis needs a gain"),
    ("GridSpec", "alpha_count", 0, "GridSpec.alpha_count: "),
    ("CampaignSpec", "alpha", 3, "CampaignSpec.alpha: "),
]


@pytest.mark.parametrize("name, field, bad, begins", REPLACED,
                         ids=[name for name, *_ in REPLACED])
def test_replaced_record_is_checked_when_unpickled(name, field, bad, begins):
    # _replace skips the check, but unpickling calls the constructor, which
    # fails as building the record with that value fails
    record = RECORDS[name]()._replace(**{field: bad})
    with pytest.raises(ValueError) as built:
        type(record)(**record._asdict())
    data = pickle.dumps(record)
    with pytest.raises(ValueError) as loaded:
        pickle.loads(data)
    assert str(loaded.value) == str(built.value)
    assert str(loaded.value).startswith(begins)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_annotated_with_types_not_strings(name):
    # a postponed annotation would reach NamedTuple as a string, which it
    # keeps as a ForwardRef
    record = type(RECORDS[name]())
    assert set(record.__annotations__) == set(record._fields)
    for annotation in record.__annotations__.values():
        assert not isinstance(annotation, (str, typing.ForwardRef))


#: Each loaded record: the command that loads it and a valid config.
LOADED = {
    LoopConfig: ("simulate", {
        "alpha": "11/8", "controller": "switched-pi",
        "disturbance": {"kind": "constant", "value": "1/10"},
        "e0": "0", "u0": "0", "horizon": 20, "mode": "exact"}),
    GridSpec: ("sweep", {
        "alpha": {"lo": "13/10", "hi": "7/5", "count": 2},
        "delta_d": {"lo": "-1/4", "hi": "1/4", "count": 3},
        "init": {"box": "2", "count": 3}, "budget": 100}),
    CampaignSpec: ("table1", {"disturbances": ["1/10"], "alpha": "11/8",
                              "horizon": 20}),
}


def as_json(value):
    """``value`` as a config file writes it."""
    if isinstance(value, F):
        return str(value)
    return f"float:{value!r}" if isinstance(value, float) else value


#: Each ruled field of a loaded record: its key path and a bad value.
RULED = [
    (LoopConfig, "alpha", "alpha", F(3)),
    (LoopConfig, "controller", "controller", "pid"),
    (LoopConfig, "horizon", "horizon", -1),
    (LoopConfig, "mode", "mode", "symbolic"),
    (GridSpec, "alpha_lo", "alpha.lo", F(3, 2)),
    (GridSpec, "alpha_hi", "alpha.hi", 1.45),
    (GridSpec, "alpha_count", "alpha.count", 0),
    (GridSpec, "delta_d_lo", "delta_d.lo", -2),
    (GridSpec, "delta_d_hi", "delta_d.hi", 0.25),
    (GridSpec, "delta_d_count", "delta_d.count", 0),
    (GridSpec, "init_box", "init.box", 2.5),
    (GridSpec, "init_count", "init.count", 0),
    (GridSpec, "budget", "budget", 0),
    (CampaignSpec, "alpha", "alpha", F(5)),
    (CampaignSpec, "horizon", "horizon", 0),
]

#: Integer fields given a value that is not an int.
NOT_INT = [
    (GridSpec, "alpha_count", "alpha.count", 2.5),
    (LoopConfig, "horizon", "horizon", 2.5),
    (GridSpec, "budget", "budget", True),
]


@pytest.mark.parametrize("record, field, key, bad", RULED + NOT_INT, ids=[
    f"{record.__name__}.{field}" for record, field, *_ in RULED] + [
    f"{record.__name__}.{field}={bad!r}" for record, field, _, bad in NOT_INT])
def test_each_rule_has_one_home(tmp_path, capsys, monkeypatch, record, field,
                                key, bad):
    # a bad value fails with one rule text whether the record is built in
    # code or loaded from a file, where the error names the key path; a
    # sweep fails before any worker is forked
    def no_fork():
        raise AssertionError("a sweep worker was forked")
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    make = config if record is LoopConfig else record
    with pytest.raises(ValueError) as exc:
        make(**{field: bad})
    prefix = f"{record.__name__}.{field}: "
    assert str(exc.value).startswith(prefix)
    text = str(exc.value)[len(prefix):]

    command, payload = LOADED[record]
    payload = json.loads(json.dumps(payload))
    *blocks, last = key.split(".")
    block = payload
    for name in blocks:
        block = block[name]
    block[last] = as_json(bad)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main([command, "-c", str(path), "-o", str(tmp_path / "out"),
                 *(["--jobs", "2"] if command == "sweep" else [])]) == 1
    assert capsys.readouterr().err == f"error: {path}: key {key!r}: {text}\n"
    assert not (tmp_path / "out").exists()
