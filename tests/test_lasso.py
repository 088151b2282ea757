"""Lasso runs: an exact run, under any of the three laws, stored up to its
first state recurrence from the step its disturbance settles, checked
against the same run stored densely."""

import csv
import io
import itertools
import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.analysis import (
    EntryRegion,
    cycle_error_band,
    detect_cycle,
    predict_cycle,
    verify_band,
    verify_capture,
    verify_control_lock,
)
from quantloop.campaign import rms_quantized_error
from quantloop.dynamics import (
    CONTROLLERS,
    MODE_NA,
    MODE_ZERO,
    TRAJECTORY_COLUMNS,
    Disturbance,
    LoopConfig,
    Trajectory,
    _CSV_CHUNK,
    shift_trajectory,
    simulate,
    write_trajectory_csv,
)
from quantloop.numerics import format_scalar, rounding_error
from oracles import cycle_oracle, first_of_each_state, steady_step
from test_dynamics import lattice_disturbances, law_records

# rationals, the rounding ties Z + 1/2, and disturbances at |delta_d| = 1/2
ties = st.integers(-10, 9).map(lambda n: F(2 * n + 1, 2))
scalars = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12), ties)
disturbances = st.one_of(
    scalars,
    st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=12),
    st.builds(lambda n, half: n + half, st.integers(-3, 3),
              st.sampled_from([F(1, 2), F(-1, 2)])))
gains = st.one_of(
    st.fractions(min_value=F(41, 40), max_value=F(119, 40),
                 max_denominator=40),
    st.sampled_from([F(5, 4), F(11, 8), F(3, 2), F(2)]))


def constant_config(alpha, controller, dbar, e0, u0, horizon):
    return LoopConfig(alpha=alpha, controller=controller,
                      disturbance=Disturbance.constant(dbar), e0=e0, u0=u0,
                      horizon=horizon)


def dense_run(traj: Trajectory) -> Trajectory:
    """The run of ``traj`` stored step by step, built from its records."""
    records = traj.records
    return Trajectory(tuple(r.e for r in records),
                      tuple(r.u for r in records),
                      tuple(r.rho_e for r in records),
                      tuple(r.rho_u for r in records),
                      tuple(r.d for r in records), traj.length, traj.length,
                      traj.switched, traj.mode)


def csv_bytes(traj: Trajectory, path) -> bytes:
    write_trajectory_csv(traj, path)
    return path.read_bytes()


def reference_csv(traj: Trajectory) -> bytes:
    """The CSV of ``traj`` written row by row with :mod:`csv`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRAJECTORY_COLUMNS)
    writer.writerows((r.k, format_scalar(r.e), format_scalar(r.u), r.rho_e,
                      r.rho_u, format_scalar(r.d), r.mode)
                     for r in traj.records)
    return buf.getvalue().encode()


@st.composite
def lasso_runs(draw):
    """An exact config of any of the three laws, under a constant
    disturbance or a ramp that settles by step 30, whose horizon
    cuts the run's cycle at a drawn offset, or ends before it."""
    e0, u0 = draw(st.one_of(st.just((0, 0)), st.tuples(scalars, scalars)))
    disturbance = draw(st.one_of(disturbances.map(Disturbance.constant),
                                 lattice_disturbances()))
    controller = draw(st.sampled_from(CONTROLLERS))
    # the unquantized law's denominators grow about 3 bits a step
    longest = 100 if controller == "unquantized-pi" else 600
    config = LoopConfig(alpha=draw(gains), controller=controller,
                        disturbance=disturbance, e0=e0, u0=u0,
                        horizon=longest)
    traj = simulate(config)
    entry, period = traj.entry, traj.period
    if period and draw(st.integers(0, 3)):
        # cut the cycle at every offset
        horizon = (entry + period * draw(st.integers(1, 3))
                   + draw(st.integers(0, period - 1)))
    else:
        # may end before the state recurs or the disturbance settles
        horizon = draw(st.integers(0, entry + period if period else longest))
    return LoopConfig(**{**config._asdict(), "horizon": horizon})


@settings(max_examples=300, deadline=None)
@given(lasso_runs(), st.integers(-2, 8), st.data())
def test_lasso_matches_its_dense_expansion(tmp_path_factory, config, start,
                                           data):
    traj = simulate(config)
    dense = dense_run(traj)
    assert traj.records == dense.records == law_records(config)
    assert traj.length == config.horizon + 1
    assert {len(column) for column in (traj.e, traj.u, traj.rho_e,
                                       traj.rho_u, traj.d)} == \
        {traj.entry + traj.period}

    work = tmp_path_factory.getbasetemp()
    reference = reference_csv(dense)
    assert csv_bytes(traj, work / "lasso.csv") == reference
    assert csv_bytes(dense, work / "dense.csv") == reference

    # index reaches every stored step, and counts tallies every prefix of
    # the run's steps
    assert set(map(traj.index, range(traj.length))) == \
        set(range(len(traj.rho_e)))

    horizons = {1, traj.length, data.draw(st.integers(1, traj.length))}
    for horizon in horizons:
        assert sum(traj.counts(horizon)) == horizon
        assert rms_quantized_error(traj, horizon) == \
            rms_quantized_error(dense, horizon)

    assert detect_cycle(traj) == cycle_oracle(dense)
    if config.disturbance.kind != "constant":
        return
    [(_, dbar)] = config.disturbance.breakpoints
    shifted = shift_trajectory(traj, dbar)
    dense_shifted = shift_trajectory(dense, dbar)
    assert shifted.records == dense_shifted.records
    assert detect_cycle(shifted) == cycle_oracle(dense_shifted)

    # the lasso's verdicts are the dense expansion's, listing each failing
    # state once, at its first failing step
    records = dense_shifted.records

    def once(verdict):
        return verdict._replace(violations=tuple(
            first_of_each_state(verdict.violations, records)))

    delta_d = rounding_error(F(dbar))
    if 1 < config.alpha < F(3, 2):
        region = EntryRegion(config.alpha, delta_d)
        assert verify_capture(shifted, region) == \
            once(verify_capture(dense_shifted, region))
    assert verify_control_lock(shifted, config.alpha, start) == \
        once(verify_control_lock(dense_shifted, config.alpha, start))
    if abs(delta_d) < F(1, 2):
        band = cycle_error_band(delta_d)
        assert verify_band(shifted, band, start) == \
            once(verify_band(dense_shifted, band, start))


@settings(max_examples=100, deadline=None)
@given(lasso_runs())
def test_counts_are_the_tally_of_index(config):
    traj = simulate(config)
    tally = [0] * len(traj.rho_e)
    for stop in range(traj.length + 1):
        assert traj.counts(stop) == tally
        if stop < traj.length:
            tally[traj.index(stop)] += 1
    # every stored step is reached
    assert all(tally)


def test_cycle_entered_at_step_zero():
    # from rest the switched loop is back at rest after one period: the
    # state recurs at step 10, but row 0 has no branch and row 10 has one
    config = constant_config(F(11, 8), "switched-pi", F(1, 10), 0, 0, 95)
    traj = simulate(config)
    assert (traj.entry, traj.period) == (0, 10)
    assert len(traj.e) == 10
    records = traj.records
    assert records[0].mode == MODE_NA
    assert records[10].mode == MODE_ZERO
    assert (records[0].e, records[0].u) == (records[10].e, records[10].u)
    assert records == law_records(config)


def test_run_without_recurrence_in_the_horizon_stays_dense(tmp_path):
    config = constant_config(F(11, 8), "switched-pi", F(1, 211), 0, 0, 150)
    traj = simulate(config)
    assert (traj.entry, traj.period) == (151, 0)
    assert all(len(column) == 151 for column in (
        traj.e, traj.u, traj.rho_e, traj.rho_u, traj.d))
    assert not detect_cycle(traj).periodic
    assert csv_bytes(traj, tmp_path / "t.csv") == reference_csv(traj)


def test_dense_csv_longer_than_a_write_chunk(tmp_path):
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.constant(F(1, 10)), e0=F(1, 3),
                        u0=0, horizon=2500, mode="float")
    traj = simulate(config)
    assert csv_bytes(traj, tmp_path / "t.csv") == reference_csv(traj)


@pytest.mark.parametrize("config, shape", [
    # entry 2, period 37, written in blocks of 27 periods (999 steps): the
    # steps after the stored ones are 3 whole periods, 122 steps that end
    # 11 into a period, a block and one step short of another, 3 whole
    # blocks, and 4 blocks and 966 steps
    *(
        (constant_config(F(11, 8), "switched-pi", F(82, 37), F(-7, 3),
                         F(4, 5), horizon), (2, 37))
        for horizon in (149, 160, 2035, 3035, 5000)),
    # a fixed point from step 5, also over blocks, and the deadbeat one
    (constant_config(F(11, 8), "switched-pi", 0, 3, 0, 60), (5, 1)),
    (constant_config(F(11, 8), "switched-pi", 0, 3, 0, 3000), (5, 1)),
    (constant_config(F(2), "unquantized-pi", F(1, 3), 3, 0, 60), (2, 1)),
    # a cycle entered at step 0, and a run of row 0 alone
    (constant_config(F(11, 8), "switched-pi", F(1, 10), 0, 0, 95), (0, 10)),
    (constant_config(F(11, 8), "switched-pi", F(1, 10), 0, 0, 0), (1, 0)),
])
def test_lasso_csv_matches_rows_written_one_by_one(tmp_path, config, shape):
    traj = simulate(config)
    assert (traj.entry, traj.period) == shape
    assert csv_bytes(traj, tmp_path / "t.csv") == reference_csv(traj)


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_dense_csv_at_a_chunk_boundary(tmp_path, extra):
    # rows 1..s-1 after row 0: 2 chunks less one row, 2 chunks, 2 and one
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.constant(F(1, 10)), e0=F(1, 3),
                        u0=0, horizon=2 * _CSV_CHUNK - 1 + extra, mode="float")
    traj = simulate(config)
    assert len(traj.rho_e) == 2 * _CSV_CHUNK + extra
    assert csv_bytes(traj, tmp_path / "t.csv") == reference_csv(traj)


def test_float_csv_keeps_negative_zero(tmp_path):
    config = LoopConfig(alpha=1.375, controller="standard-pi",
                        disturbance=Disturbance.constant(-0.0), e0=-0.0,
                        u0=-0.0, horizon=40, mode="float")
    traj = simulate(config)
    data = csv_bytes(traj, tmp_path / "t.csv")
    assert data == reference_csv(traj)
    assert data.splitlines()[1] == b"0,-0.0,-0.0,0,0,-0.0,n/a"
    assert data.splitlines()[-1].endswith(b",-0.0,n/a")


def test_long_horizon_stores_one_cycle():
    # the analyze-long shape: delta_d = 8/37, started away from rest
    horizon = 10 ** 7
    config = constant_config(F(11, 8), "switched-pi", 2 + F(8, 37), F(-7, 3),
                             F(4, 5), horizon)
    traj = simulate(config)
    assert traj.length == horizon + 1 and traj.period
    for column in (traj.e, traj.u, traj.rho_e, traj.rho_u, traj.d):
        assert len(column) == traj.entry + traj.period
    delta_d = F(8, 37)
    [(_, dbar)] = config.disturbance.breakpoints
    report = detect_cycle(shift_trajectory(traj, dbar))
    predicted = predict_cycle(delta_d)
    assert (report.n, report.m) == (predicted.n, predicted.m) == (8, 37)

    def steps():  # rho_e over steps 0..horizon-1
        cycle = itertools.cycle(traj.rho_e[traj.entry:])
        return itertools.islice(itertools.chain(traj.rho_e, cycle), horizon)

    squares = sum(map(operator.mul, steps(), steps()))
    assert rms_quantized_error(traj, horizon) == math.sqrt(squares / horizon)


def test_settling_ramp_stores_a_lasso():
    # the ramp scenario settles at step 40; from there the run is
    # autonomous, so a long horizon stores only the steps to its cycle
    horizon = 10 ** 5
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.ramp([(20, F(26, 10)),
                                                      (40, F(24, 10))]),
                        e0=0, u0=0, horizon=horizon)
    traj = simulate(config)
    assert traj.length == horizon + 1 and traj.period
    assert traj.entry >= steady_step(traj.d) == 40
    for column in (traj.e, traj.u, traj.rho_e, traj.rho_u, traj.d):
        assert len(column) == traj.entry + traj.period <= 50
    assert detect_cycle(traj).m == traj.period


def test_deadbeat_unquantized_run_stores_its_fixed_point():
    # gain 2 without quantizers is deadbeat: the state is fixed from step 2
    config = constant_config(F(2), "unquantized-pi", F(1, 3), F(1, 5), 0,
                             10 ** 4)
    traj = simulate(config)
    assert traj.length == 10 ** 4 + 1 and traj.period
    for column in (traj.e, traj.u, traj.rho_e, traj.rho_u, traj.d):
        assert len(column) == traj.entry + traj.period <= 3
    report = detect_cycle(traj)
    assert (report.n, report.m) == (0, 1)
    assert traj.records[-1] == law_records(config)[-1]
