"""Acceptance suite.

Each test checks one exit criterion at its stated tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go by).  Random corpora are seeded, so the whole suite
is deterministic.
"""

import math
import random
import warnings
from fractions import Fraction as F

import pytest

from quantloop.analysis import (
    EntryRegion,
    cycle_error_band,
    detect_cycle,
    detect_cycle_approx,
    predict_cycle,
    verify_band,
    verify_capture,
    verify_control_lock,
)
from quantloop.campaign import CampaignSpec, run_table1
from quantloop.dynamics import (
    Disturbance,
    LoopConfig,
    shift_trajectory,
    simulate,
)
from quantloop.numerics import SQRT2_MINUS_1, sign
from quantloop.reachability import (
    TAG_AMPLITUDE2,
    GridSpec,
    attraction_region,
    classify_trajectory,
    grid_values,
    sweep,
)
from oracles import generic_law, identity, simulate_shifted, steps_to_switch

JOBS = 2  # sweep parallelism used by the reachability criterion


def ok(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance: {name}: PASS{suffix}")


# --- shared corpora ---------------------------------------------------------

def sample_gain(rng):
    q = rng.randint(3, 80)
    p = rng.randint(1, (q - 1) // 2)
    return 1 + F(p, q)  # in (1, 3/2)


def sample_residual(rng):
    q = rng.randint(1, 80)
    n = rng.randint(-(q // 2), q // 2)
    return F(n, q)  # |delta_d| <= 1/2, including 0 and the +-1/2 boundary


def sample_region_state(rng, alpha, delta_d):
    q = rng.randint(1, 60)
    e0 = F(rng.randint(-(q - 1), q - 1), 2 * q) if q > 1 else F(0)
    s = sign(delta_d)
    if s == 0:
        q = rng.randint(1, 60)
        u0 = F(rng.randint(-(q - 1), q - 1), 2 * q) if q > 1 else F(0)
    else:
        t_den = rng.randint(1, 40)
        t = F(rng.randint(1, t_den), t_den)
        u0 = s * (alpha - F(3, 2) + t * F(1, 2))
    return e0, u0


@pytest.fixture(scope="module")
def capture_corpus():
    """10^3 seeded exact cases started inside the capture region, run for
    500 further steps."""
    rng = random.Random(20260810)
    runs = []
    for _ in range(1000):
        alpha = sample_gain(rng)
        delta_d = sample_residual(rng)
        e0, u0 = sample_region_state(rng, alpha, delta_d)
        traj = simulate_shifted(alpha, delta_d, e0, u0, 500)
        runs.append((alpha, delta_d, e0, u0, traj))
    return runs


def feasible_coprime_pairs(max_m):
    """Coprime (n, m), n < m, restricted to n/m <= 1/2: larger ratios can
    never arise as a disturbance rounding error."""
    return [(n, m) for m in range(2, max_m + 1)
            for n in range(1, m // 2 + 1) if math.gcd(n, m) == 1]


@pytest.fixture(scope="module")
def cycle_corpus():
    """Detected cycles for every feasible coprime (n, m), m <= 30, from 5
    region-entering initial conditions each."""
    rng = random.Random(20260811)
    runs = []
    for n, m in feasible_coprime_pairs(30):
        for _ in range(5):
            delta_d = F(rng.choice((n, -n)), m)
            alpha = sample_gain(rng)
            e0, u0 = sample_region_state(rng, alpha, delta_d)
            traj = simulate_shifted(alpha, delta_d, e0, u0, 4 * m + 60)
            runs.append((n, m, alpha, delta_d, traj, detect_cycle(traj)))
    return runs


# --- criteria ---------------------------------------------------------------

def test_rms_table_reproduction():
    expected = {
        F(1, 100): (0.138, 0.100),
        F(1, 50): (0.197, 0.141),
        F(1, 25): (0.281, 0.200),
        F(1, 20): (0.314, 0.223),
        F(1, 10): (0.446, 0.316),
        F(1, 5): (0.631, 0.447),
        F(2, 5): (0.893, 0.632),
        SQRT2_MINUS_1: (0.909, 0.643),
    }
    rows = run_table1(CampaignSpec())
    assert len(rows) == 8
    worst = 0.0
    for row in rows:
        ref_std, ref_sw = expected[row.disturbance]
        worst = max(worst, abs(row.rms_standard - ref_std),
                    abs(row.rms_switched - ref_sw))
        assert abs(row.rms_standard - ref_std) <= 0.01
        assert abs(row.rms_switched - ref_sw) <= 0.01
        assert row.rms_switched < row.rms_standard
    mean_improvement = sum(r.improvement for r in rows) / len(rows)
    assert mean_improvement >= 0.25
    ok("rms table reproduction",
       f"worst |err|={worst:.4f}, mean improvement={mean_improvement:.3f}")


def test_capture_containment_random_cases(capture_corpus):
    failures = []
    for alpha, delta_d, e0, u0, traj in capture_corpus:
        verdict = verify_capture(traj, EntryRegion(alpha, delta_d))
        if not (verdict.status == "pass" and verdict.entry_step == 0):
            failures.append((alpha, delta_d, e0, u0, verdict.status))
    assert failures == []
    ok("capture containment suite",
       f"{len(capture_corpus)} cases x 500 steps, 0 violations")


def test_control_lock_random_cases(capture_corpus):
    failures = []
    for alpha, delta_d, e0, u0, traj in capture_corpus:
        verdict = verify_control_lock(traj, alpha, 0)
        if verdict.status != "pass":
            failures.append((alpha, delta_d, e0, u0, verdict.violations[:3]))
    assert failures == []
    ok("control lock suite", f"{len(capture_corpus)} cases, exact equality")


def test_cycle_detection_matches_prediction(cycle_corpus):
    checked = 0
    for n, m, alpha, delta_d, traj, report in cycle_corpus:
        assert report.periodic, (n, m, alpha, delta_d)
        assert (report.n, report.m) == (n, m), (alpha, delta_d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # |delta_d| = 1/2 band notice
            predicted = predict_cycle(delta_d)
        assert (predicted.n, predicted.m) == (n, m)
        checked += 1

    # reference cases: one and two switches per five steps
    traj = simulate_shifted(F(11, 10), F(1, 5), F(-2, 5), F(1, 5), 60)
    report = detect_cycle(traj)
    assert (report.n, report.m) == (1, 5)
    traj = simulate_shifted(F(11, 10), F(-2, 5), F(-2, 5), F(1, 5), 60)
    report = detect_cycle(traj)
    assert (report.n, report.m) == (2, 5)
    n_pairs = len(feasible_coprime_pairs(30))
    ok("limit-cycle oracle",
       f"{n_pairs} coprime pairs x 5 inits = {checked} runs, exact (n, m)")


def test_switch_step_formula_vs_brute_force():
    rng = random.Random(20260812)
    for _ in range(10_000):
        q = rng.randint(2, 64)
        delta_d = F(rng.choice((1, -1)) * rng.randint(1, q // 2), q)
        qx = rng.randint(2, 64)
        e_start = F(rng.randint(-(qx - 1), qx - 1), 2 * qx)
        predicted = steps_to_switch(delta_d, e_start)
        e, steps = e_start, 0
        while True:
            e += delta_d
            steps += 1
            if (delta_d > 0 and e >= F(1, 2)) or \
               (delta_d < 0 and e <= F(-1, 2)):
                break
        assert predicted == steps, (delta_d, e_start)
    ok("switch-step formula", "10^4 cases, exact match")


def test_irrational_residual_has_no_period():
    traj = simulate_shifted(F(11, 8), SQRT2_MINUS_1, 0.0, 0.0, 100_000,
                            mode="float")
    report = detect_cycle_approx(traj)
    assert not report.periodic
    ok("aperiodicity proxy", "1e5 steps, no recurrence within 1e-9")


def test_attraction_sweep_desk_scale():
    spec = GridSpec(alpha_lo=F(126, 100), alpha_hi=F(149, 100), alpha_count=24,
                    delta_d_lo=F(-45, 100), delta_d_hi=F(45, 100),
                    delta_d_count=19, init_box=10, init_count=21,
                    budget=10_000)
    assert grid_values(spec.alpha_lo, spec.alpha_hi, 24)[1] - \
        grid_values(spec.alpha_lo, spec.alpha_hi, 24)[0] == F(1, 100)
    cells = sweep(spec, jobs=JOBS)
    assert len(cells) == 24 * 19
    stragglers = [(c.alpha, c.delta_d) for c in cells
                  if c.n_theorem1 != c.n_inits]
    assert stragglers == []
    assert len(attraction_region(cells)) == len(cells)
    n_traj = sum(c.n_inits for c in cells)
    ok("scaled reachability sweep",
       f"{len(cells)} cells, {n_traj} trajectories, 100% captured")


def test_alternative_set_reproduction():
    # Exact arithmetic puts the quoted initial state (-0.2, 0.6) on a
    # knife edge: its first error value is exactly 1/2, the away-from-zero
    # rounding switches immediately, and the run falls into the minimal
    # set.  Pinned as documentation:
    literal = simulate_shifted(F(11, 10), F(-3, 10), F(-2, 10), F(6, 10), 200)
    assert literal.records[1].e == F(1, 2)
    assert {(r.rho_e, r.rho_u) for r in literal.records[50:]} == \
        {(0, 0), (-1, 1)}

    # The second unit-excursion set is still reached from the same stated
    # scenario: in float arithmetic, with the residual -0.3 entering
    # through dbar = 0.7 and binary rounding breaking the tie downward ...
    config = LoopConfig(alpha=F(11, 10), controller="switched-pi",
                        disturbance=Disturbance.constant(0.7),
                        e0=-0.2, u0=-0.4, horizon=2000, mode="float")
    float_run = shift_trajectory(simulate(config), 0.7)
    assert float_run.records[1].e < 0.5
    float_pairs = set(zip(float_run.rho_e[100:], float_run.rho_u[100:]))
    assert float_pairs == {(0, 1), (1, 0)}

    # ... and in exact arithmetic from the neighbouring off-lattice state.
    result = classify_trajectory(F(11, 10), F(-3, 10), F(-1, 4), F(6, 10),
                                 10_000)
    assert result.tag == "alt-unit-set"
    assert result.witness_pairs == {(0, 1), (1, 0)}
    ok("alternative unit set", "pairs {(0,1),(1,0)} reached; "
       "literal init pinned as a rounding knife edge")


def test_amplitude2_set_witness_search():
    found = None
    for denom in (1, 2, 4):
        axis = [F(j, denom) for j in range(-10 * denom, 10 * denom + 1)]
        for e0 in axis:
            for u0 in axis:
                result = classify_trajectory(F(13, 10), F(1, 2), e0, u0, 5000)
                if result.tag == TAG_AMPLITUDE2:
                    found = (e0, u0, denom, result)
                    break
            if found:
                break
        if found:
            break
    assert found is not None, "no amplitude-2 witness on any searched grid"
    e0, u0, denom, result = found
    assert result.witness_pairs == {(-1, 1), (1, -2)}
    ok("amplitude-2 witness",
       f"init (e0={e0}, u0={u0}) on the 1/{denom}-step grid")


def test_standard_pi_excursion_degradation():
    config = LoopConfig(alpha=F(14, 10), controller="standard-pi",
                        disturbance=Disturbance.constant(F(12, 10)),
                        e0=F(2), u0=0, horizon=400)
    traj = simulate(config)
    tail = [r.rho_e for r in traj.records[-100:]]
    assert set(tail) <= {-1, 0, 1}
    assert max(tail) == 1 and min(tail) == -1  # excursion 2
    nonzero = [v for v in tail if v != 0]
    assert len(nonzero) >= 2
    assert all(a == -b for a, b in zip(nonzero, nonzero[1:]))

    # same scenario under the switched law: excursion 1 after capture
    switched = simulate(LoopConfig(alpha=F(14, 10), controller="switched-pi",
                                   disturbance=Disturbance.constant(F(12, 10)),
                                   e0=F(2), u0=0, horizon=400))
    assert set(r.rho_e for r in switched.records[-100:]) <= {0, 1}
    ok("standard-PI degradation",
       "quantized error alternates -1/+1 over the last 100 steps")


def test_scheme_coincidence_and_deadbeat():
    rng = random.Random(20260813)
    for _ in range(1000):
        alpha = 1 + F(rng.randint(1, 79), 40)  # in (1, 3)
        dbar = F(rng.randint(-80, 80), rng.randint(1, 20))
        e0 = F(rng.randint(-40, 40), rng.randint(1, 10))
        u0 = F(rng.randint(-40, 40), rng.randint(1, 10))
        config = LoopConfig(alpha=alpha, controller="unquantized-pi",
                            disturbance=Disturbance.constant(dbar),
                            e0=e0, u0=u0, horizon=30)
        standard = simulate(config)
        e, u = F(e0), F(u0)
        for r in standard.records[1:]:
            e, u = generic_law(F(alpha), identity, True, (e, u), F(dbar))
            assert (e, u) == (r.e, r.u)

    for _ in range(200):
        dbar = F(rng.randint(-80, 80), rng.randint(1, 20))
        e0 = F(rng.randint(-40, 40), rng.randint(1, 10))
        u0 = F(rng.randint(-40, 40), rng.randint(1, 10))
        config = LoopConfig(alpha=F(2), controller="unquantized-pi",
                            disturbance=Disturbance.constant(dbar),
                            e0=e0, u0=u0, horizon=10)
        traj = simulate(config)
        assert all(r.e == 0 for r in traj.records[2:])
    ok("scheme coincidence and deadbeat",
       "10^3 quantizer-free runs bit-identical; gain-2 deadbeat exact")


def test_cycle_error_band_containment(cycle_corpus):
    checked = 0
    for n, m, alpha, delta_d, traj, report in cycle_corpus:
        if abs(delta_d) == F(1, 2):
            continue  # outside the band hypotheses
        band = cycle_error_band(delta_d)
        verdict = verify_band(traj, band, report.entry_step)
        assert verdict.status == "pass", (alpha, delta_d,
                                          verdict.violations[:3])
        entry = report.entry_step
        assert all(e in band for e in traj.e[entry:entry + report.m])
        checked += 1
    ok("cycle error band", f"{checked} cycles, endpoint senses exact")
