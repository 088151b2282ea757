"""The package's records: immutable, validated when built, picklable."""

import pickle
from fractions import Fraction as F

import pytest

from quantloop.analysis import CycleReport, EntryRegion, Interval, Verdict
from quantloop.campaign import CampaignSpec, RmsRow
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
    lambda: CampaignSpec(alpha=3),
    lambda: EntryRegion(F(3, 2), F(1, 10)),
], ids=["grid-count", "loop-mode", "equal-steps", "decreasing-steps",
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
    # a forked sweep worker pipes its cells back as a pickle, and a
    # caller may ship the spec the same way
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)
