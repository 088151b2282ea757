"""Capture predicates, switch-step formula, and cycle detection tests."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantloop.analysis import (
    EntryRegion,
    amplitude2_pairs,
    checked_residual,
    cycle_error_band,
    detect_cycle,
    detect_cycle_approx,
    in_entry_region,
    minimal_invariant_pairs,
    predict_cycle,
    verify_band,
    verify_capture,
    verify_control_lock,
)
from quantloop.dynamics import (
    Disturbance,
    LoopConfig,
    in_capture_range,
    shift_trajectory,
    simulate,
)
from quantloop.numerics import rounding_error, sign
from oracles import (first_of_each_state, simulate_shifted,
                     steps_to_switch, unit_steps)


@st.composite
def capture_cases(draw, max_denominator=40):
    """(alpha, delta_d, e0, u_bar0) with the initial state inside the
    capture region, all exact."""
    alpha = draw(st.fractions(min_value=F(21, 20), max_value=F(29, 20),
                              max_denominator=max_denominator))
    delta_d = draw(st.fractions(min_value=F(-1, 2), max_value=F(1, 2),
                                max_denominator=max_denominator))
    e0 = draw(st.fractions(min_value=F(-19, 40), max_value=F(19, 40),
                           max_denominator=max_denominator))
    s = sign(delta_d)
    if s == 0:
        lo, hi = F(-1, 2), F(1, 2)
    elif s > 0:
        lo, hi = alpha - F(3, 2), alpha - 1   # 1 <= alpha - u*s < 3/2
    else:
        lo, hi = 1 - alpha, F(3, 2) - alpha
    lo = max(lo, F(-1, 2))
    hi = min(hi, F(1, 2))
    t = draw(st.fractions(min_value=0, max_value=1,
                          max_denominator=max_denominator))
    u0 = lo + (hi - lo) * t
    # the admissible u interval is half open on one side
    if s > 0:
        assume(u0 != lo)
    elif s < 0:
        assume(u0 != hi)
    else:
        assume(lo < u0 < hi)
    return alpha, delta_d, e0, u0


# --- capture region ---------------------------------------------------------

def test_entry_region_examples():
    region = EntryRegion(F(11, 10), F(4, 10))
    # second inequality fails: 1.1 - 0.6 = 0.5 < 1
    assert not in_entry_region(F(2, 10), F(6, 10), region)
    assert in_entry_region(F(2, 10), F(0), region)
    # zero residual makes the mixed inequality gain-only
    assert in_entry_region(0, 0, EntryRegion(F(5, 4), 0))


def test_entry_region_boundary_senses():
    region = EntryRegion(F(5, 4), F(1, 10))
    assert not in_entry_region(F(1, 2), 0, region)        # e bound strict
    assert not in_entry_region(0, F(1, 2), region)        # u bound strict
    assert in_entry_region(0, F(1, 4), region)            # 1 <= 1.25-0.25 ok
    # alpha - u*s == 3/2 is excluded
    assert not in_entry_region(0, F(-1, 4), region)


def test_entry_region_invalid_gain():
    assert not in_capture_range(F(8, 5))
    with pytest.raises(ValueError):
        in_entry_region(0, 0, EntryRegion(F(8, 5), F(1, 10)))


def test_minimal_invariant_pairs():
    assert minimal_invariant_pairs(F(4, 10)) == {(0, 0), (1, -1)}
    assert minimal_invariant_pairs(0) == {(0, 0)}
    assert minimal_invariant_pairs(F(-3, 10)) == {(0, 0), (-1, 1)}


def test_amplitude2_pairs():
    assert amplitude2_pairs(F(1, 2)) == {(-1, 1), (1, -2)}
    assert amplitude2_pairs(F(-1, 2)) == {(-1, 2), (1, -1)}
    assert amplitude2_pairs(F(4, 10)) is None


# --- capture and control-lock verdicts --------------------------------------

def test_verify_capture_on_capture_scenario():
    traj = simulate_shifted(F(11, 10), F(4, 10), F(2, 10), F(6, 10), 100)
    verdict = verify_capture(traj, EntryRegion(F(11, 10), F(4, 10)))
    assert verdict.status == "pass"
    assert verdict.entry_step == 2
    assert verdict.violations == ()


def test_verify_capture_zero_residual():
    traj = simulate_shifted(F(5, 4), 0, F(1, 10), 0, 50)
    verdict = verify_capture(traj, EntryRegion(F(5, 4), 0))
    assert verdict.status == "pass"
    assert set(zip(traj.rho_e, traj.rho_u)) == {(0, 0)}


def test_verify_capture_not_entered():
    # low gain, never reaches the region: settles on {(0,1),(1,0)} instead
    traj = simulate_shifted(F(11, 10), F(-3, 10), F(-1, 4), F(6, 10), 200)
    verdict = verify_capture(traj, EntryRegion(F(11, 10), F(-3, 10)))
    assert verdict.status == "not-entered"
    assert {(r.rho_e, r.rho_u) for r in traj.records[50:]} == {(0, 1), (1, 0)}


def test_verify_control_lock_on_capture_scenario():
    traj = simulate_shifted(F(11, 10), F(4, 10), F(2, 10), F(6, 10), 100)
    capture = verify_capture(traj, EntryRegion(F(11, 10), F(4, 10)))
    lock = verify_control_lock(traj, F(11, 10), capture.entry_step)
    assert lock.status == "pass"


def test_verify_control_lock_zero_residual():
    traj = simulate_shifted(F(5, 4), 0, F(1, 10), 0, 50)
    lock = verify_control_lock(traj, F(5, 4), 0)
    assert lock.status == "pass"
    assert all(r.u == 0 for r in traj.records[2:])


def test_control_lock_fails_for_standard_pi():
    # the lock is a property of the switched law, not of plain PI
    config = LoopConfig(alpha=F(11, 10), controller="standard-pi",
                        disturbance=Disturbance.constant(F(4, 10)),
                        e0=F(2, 10), u0=F(6, 10), horizon=100)
    traj = simulate(config)
    lock = verify_control_lock(traj, F(11, 10), 2)
    assert lock.status != "pass"


# --- switch-step count ------------------------------------------------------

@pytest.mark.parametrize("delta_d, e_start, expected", [
    (F(2, 5), F(1, 5), 1),
    (F(1, 5), F(-3, 10), 4),
    (F(-2, 5), F(1, 5), 2),
    (F(1, 5), F(3, 10), 1),     # lands exactly on the threshold
])
def test_steps_to_switch_examples(delta_d, e_start, expected):
    assert steps_to_switch(delta_d, e_start) == expected


def test_steps_to_switch_errors():
    with pytest.raises(ValueError):
        steps_to_switch(0, F(1, 10))
    with pytest.raises(ValueError):
        steps_to_switch(F(1, 5), F(1, 2))


@given(st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=64),
       st.fractions(min_value=F(-31, 64), max_value=F(31, 64),
                    max_denominator=64))
def test_steps_to_switch_matches_brute_force(delta_d, e_start):
    assume(delta_d != 0)
    k = steps_to_switch(delta_d, e_start)
    e, steps = e_start, 0
    while steps < 10_000:
        e += delta_d
        steps += 1
        if (delta_d > 0 and e >= F(1, 2)) or (delta_d < 0 and e <= F(-1, 2)):
            break
    assert k == steps


# --- error band -------------------------------------------------------------

def test_cycle_error_band_senses():
    band = cycle_error_band(F(2, 10))
    assert (band.lo, band.hi) == (F(-3, 10), F(7, 10))
    assert band.lo_closed and not band.hi_closed
    assert band.lo in band and band.hi not in band

    band = cycle_error_band(F(-4, 10))
    assert (band.lo, band.hi) == (F(-9, 10), F(1, 10))
    assert not band.lo_closed and band.hi_closed
    assert band.lo not in band and band.hi in band


def test_cycle_error_band_degenerate_zero():
    band = cycle_error_band(0)
    assert (band.lo, band.hi) == (F(-1, 2), F(1, 2))
    assert band.lo_closed and not band.hi_closed


def test_cycle_error_band_rejects_half():
    with pytest.raises(ValueError):
        cycle_error_band(F(1, 2))
    with pytest.raises(ValueError):
        cycle_error_band(F(-3, 5))


# --- cycle prediction -------------------------------------------------------

def test_predict_cycle_examples():
    report = predict_cycle(F(1, 5))
    assert (report.periodic, report.n, report.m) == (True, 1, 5)
    assert report.error_band == cycle_error_band(F(1, 5))
    report = predict_cycle(F(-2, 5))
    assert (report.n, report.m) == (2, 5)
    report = predict_cycle(0)
    assert (report.periodic, report.n, report.m) == (True, 0, 1)


def test_predict_cycle_reduces_fraction():
    assert (predict_cycle(F(2, 10)).n, predict_cycle(F(2, 10)).m) == (1, 5)


def test_predict_cycle_rejects_floats_and_large_values():
    with pytest.raises(TypeError):
        predict_cycle(0.2)
    with pytest.raises(ValueError):
        predict_cycle(F(3, 5))


def test_residual_rule_rejects_nan():
    # NaN compares false both ways, so the rule tests that |delta_d| is
    # at most 1/2, not that it is not above
    with pytest.raises(ValueError, match=r"^a disturbance rounding error "
                       r"satisfies \|delta_d\| <= 1/2, got nan$"):
        checked_residual(float("nan"))


def test_predict_cycle_flags_half_boundary():
    with pytest.warns(UserWarning):
        report = predict_cycle(F(1, 2))
    assert (report.n, report.m) == (1, 2)
    assert report.error_band is None


# --- cycle detection --------------------------------------------------------

def test_detect_cycle_one_switch_period_five():
    traj = simulate_shifted(F(11, 10), F(1, 5), F(-2, 5), F(1, 5), 60)
    report = detect_cycle(traj)
    assert report.periodic and (report.n, report.m) == (1, 5)
    assert report.entry_step == 1


def test_detect_cycle_two_switches_period_five():
    traj = simulate_shifted(F(11, 10), F(-2, 5), F(-2, 5), F(1, 5), 60)
    report = detect_cycle(traj)
    assert report.periodic and (report.n, report.m) == (2, 5)


def test_detect_cycle_fixed_point():
    traj = simulate_shifted(F(5, 4), 0, F(1, 10), 0, 30)
    report = detect_cycle(traj)
    assert report.periodic and (report.n, report.m) == (0, 1)


def test_detect_cycle_of_a_float_run_is_the_approximate_detection():
    # a float run is stored step by step, so no lasso holds its cycle
    traj = simulate_shifted(11 / 10, 0.2, -0.4, 0.2, 30, mode="float")
    report = detect_cycle(traj)
    assert report == detect_cycle_approx(traj)
    assert report.periodic and (report.n, report.m) == (1, 5)


def test_detect_cycle_non_periodic_when_denominator_exceeds_horizon():
    traj = simulate_shifted(F(11, 8), F(1, 211), 0, 0, 150)
    assert not detect_cycle(traj).periodic


def test_detect_cycle_approx_agrees_with_exact():
    exact = detect_cycle(simulate_shifted(F(11, 10), F(1, 5),
                                          F(-2, 5), F(1, 5), 60))
    approx = detect_cycle_approx(simulate_shifted(11 / 10, 0.2, -0.4, 0.2, 60,
                                                  mode="float"))
    assert approx.periodic
    assert (approx.n, approx.m) == (exact.n, exact.m)


def test_detect_cycle_approx_irrational_residual():
    traj = simulate_shifted(11 / 10, math.sqrt(2) / 3, 0.2, 0.6, 10_000,
                            mode="float")
    report = detect_cycle_approx(traj)
    assert not report.periodic


def test_detect_cycle_approx_constant_zero():
    traj = simulate_shifted(F(11, 8), 0, 0, 0, 20, mode="float")
    report = detect_cycle_approx(traj)
    assert report.periodic and report.m == 1


# --- property suites --------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(capture_cases())
def test_capture_keeps_pairs_in_minimal_set(case):
    alpha, delta_d, e0, u0 = case
    traj = simulate_shifted(alpha, delta_d, e0, u0, 120)
    allowed = minimal_invariant_pairs(delta_d)
    assert all((r.rho_e, r.rho_u) in allowed for r in traj.records[1:])


@settings(max_examples=120, deadline=None)
@given(capture_cases())
def test_control_locks_two_steps_after_capture(case):
    alpha, delta_d, e0, u0 = case
    traj = simulate_shifted(alpha, delta_d, e0, u0, 120)
    assert verify_control_lock(traj, alpha, 0).status == "pass"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_rational_residual_gives_coprime_cycle(m, data):
    # n/m <= 1/2: larger ratios cannot arise as rounding errors
    n = data.draw(st.integers(1, m // 2).filter(lambda n: math.gcd(n, m) == 1))
    sgn = data.draw(st.sampled_from((1, -1)))
    delta_d = F(sgn * n, m)
    alpha, e0, u0 = F(13, 10), F(1, 10), F(1, 10)
    traj = simulate_shifted(alpha, delta_d, e0, u0, 12 * m + 40)
    detected = detect_cycle(traj)
    assert detected.periodic
    assert (detected.n, detected.m) == (n, m)
    if abs(delta_d) < F(1, 2):
        assert (predict_cycle(delta_d).n, predict_cycle(delta_d).m) == (n, m)
        # every in-cycle error sample obeys the one-sided band
        band = cycle_error_band(delta_d)
        assert verify_band(traj, band, detected.entry_step).status == "pass"


def test_verify_band_flags_out_of_band_samples():
    traj = simulate_shifted(F(11, 10), F(4, 10), F(2, 10), F(6, 10), 40)
    band = cycle_error_band(F(4, 10))
    # the pre-capture transient is outside the band; starting from entry it fits
    assert traj.records[1].e not in band
    assert verify_band(traj, band, 0).status != "pass"
    report = detect_cycle(traj)
    assert verify_band(traj, band, report.entry_step).status == "pass"


# --- columnar verdicts against their record-wise definitions ----------------

def record_wise_verdicts(traj, region, alpha, band, start, tol=1e-12):
    """Capture entry and violations, lock and band violations, step by step
    over the records."""
    records = traj.records

    def firsts(steps):
        return first_of_each_state(steps, records, traj.mode)

    entry = next((r.k for r in records if in_entry_region(r.e, r.u, region)),
                 None)
    allowed = minimal_invariant_pairs(region.delta_d)
    capture = None if entry is None else firsts(
        r.k for r in records[entry + 1:] if (r.rho_e, r.rho_u) not in allowed)
    lock = firsts(r.k for r in records if r.k > start + 1 and (
        r.u != -alpha * r.rho_e if traj.mode == "exact"
        else abs(r.u + alpha * r.rho_e) > tol))
    return entry, capture, lock, firsts(
        r.k for r in records if r.k >= start and r.e not in band)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=F(41, 40), max_value=F(59, 40), max_denominator=40),
       st.fractions(min_value=-3, max_value=3, max_denominator=30),
       st.fractions(min_value=-4, max_value=4, max_denominator=12),
       st.fractions(min_value=-4, max_value=4, max_denominator=12),
       st.sampled_from(["exact", "float"]), st.integers(-2, 70))
def test_verdicts_match_their_record_wise_definitions(alpha, dbar, e0, u0,
                                                      mode, start):
    delta_d = rounding_error(dbar)
    assume(abs(delta_d) < F(1, 2))
    config = LoopConfig(alpha=alpha, controller="switched-pi",
                        disturbance=Disturbance.constant(dbar), e0=e0, u0=u0,
                        horizon=60, mode=mode)
    traj = simulate(config)
    shifted = shift_trajectory(traj, traj.d[0])
    region, band = EntryRegion(alpha, delta_d), cycle_error_band(delta_d)
    entry, capture, lock, outside = record_wise_verdicts(shifted, region, alpha,
                                                         band, start)
    verdict = verify_capture(shifted, region)
    assert verdict.entry_step == entry
    assert (list(verdict.violations) if entry is not None else None) == capture
    assert list(verify_control_lock(shifted, alpha, start).violations) == lock
    assert list(verify_band(shifted, band, start).violations) == outside


def test_detect_cycle_skips_a_recurrence_the_disturbance_ends():
    # at rest under a zero disturbance the state recurs at once, but the
    # disturbance steps to 1/3 at k = 5; the cycle is the one it drives
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=unit_steps([F(0)] * 5 + [F(1, 3)]),
                        e0=0, u0=0, horizon=80)
    report = detect_cycle(simulate(config))
    assert report.periodic and report.m == 3 and report.entry_step >= 5
