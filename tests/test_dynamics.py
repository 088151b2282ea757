"""Stepper, disturbance, simulator, and serialization tests."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantloop.analysis import detect_cycle
from quantloop.dynamics import (
    CONTROLLERS,
    MODE_NA,
    MODE_NONZERO,
    MODE_ZERO,
    Disturbance,
    LoopConfig,
    ModePromotionWarning,
    TrajectoryRecord,
    TuningWarning,
    _lattice_run,
    _law,
    in_capture_range,
    shift_trajectory,
    simulate,
    write_trajectory_csv,
)
from quantloop.numerics import parse_scalar, round_half_away
from oracles import (
    cycle_oracle,
    disturbance_value,
    generic_law,
    identity,
    read_trajectory_csv,
    simulate_shifted,
    steady_step,
    unit_steps,
)

# Half-integer quantizer ties are where the original/shifted equivalence
# genuinely breaks (see test_shift_tie_divergence), so the equivalence
# property samples rationals with odd denominators: sums and integer
# multiples of those can never produce a denominator of 2.
odd_fractions = st.builds(
    lambda n, d: F(n, 2 * d + 1),
    st.integers(-60, 60),
    st.integers(0, 20),
)


@st.composite
def odd_alphas(draw, hi_num=2):
    q = 2 * draw(st.integers(0, 15)) + 1
    p = draw(st.integers(1, hi_num * q - 1))
    return 1 + F(p, q)  # in (1, 1 + hi_num), odd denominator


def constant_config(alpha, controller, dbar, e0, u0, horizon, mode="exact"):
    return LoopConfig(alpha=alpha, controller=controller,
                      disturbance=Disturbance.constant(dbar),
                      e0=e0, u0=u0, horizon=horizon, mode=mode)


# --- single steps ---------------------------------------------------------

def one_step(controller, e, u, d, alpha):
    """The second record of a one-step run from (e, u) under constant d."""
    traj = simulate(constant_config(alpha, controller, d, e, u, 1))
    assert traj.length == 2
    r = traj.records[1]
    assert r.k == 1
    return r


def test_plant_step():
    # e(k+1) = e(k) + rho(u(k)) + d(k) under both quantized laws
    for controller in ("standard-pi", "switched-pi"):
        assert one_step(controller, F(2), F(0), F(12, 10), F(14, 10)).e == F(16, 5)
        assert one_step(controller, 0, 0, 0, F(14, 10)).e == 0
        assert one_step(controller, F(2, 10), F(6, 10), F(4, 10),
                        F(14, 10)).e == F(8, 5)


def test_standard_pi_step():
    r = one_step("standard-pi", F(2), F(0), F(12, 10), F(14, 10))
    assert (r.e, r.u, r.mode) == (F(16, 5), F(-11, 5), MODE_NA)
    r = one_step("standard-pi", 0, 0, 0, F(3, 2))
    assert (r.e, r.u) == (0, 0)
    r = one_step("standard-pi", F(3, 10), F(2, 10), 0, F(11, 10))
    assert (r.e, r.u) == (F(3, 10), F(2, 10))


def test_switched_pi_step_branches():
    # quantized error nonzero: plain PI update
    r = one_step("switched-pi", F(2, 10), F(6, 10), F(4, 10), F(11, 10))
    assert (r.e, r.u, r.mode) == (F(8, 5), F(-8, 5), MODE_NONZERO)
    # quantized error zero: integrator re-based onto the quantized state
    r = one_step("switched-pi", F(3, 10), F(4, 10), F(1, 10), F(13, 10))
    assert (r.e, r.u, r.mode) == (F(2, 5), 0, MODE_ZERO)
    r = one_step("switched-pi", 0, 0, 0, F(11, 10))
    assert (r.e, r.u, r.mode) == (0, 0, MODE_ZERO)


def test_shifted_switched_step():
    for args, expected in (
        ((F(11, 10), F(4, 10), F(2, 10), F(6, 10)), (F(8, 5), F(-8, 5))),
        ((F(11, 10), F(4, 10), F(2, 10), 0), (F(3, 5), F(-11, 10))),
        ((F(5, 4), 0, F(1, 10), 0), (F(1, 10), 0)),
    ):
        r = simulate_shifted(*args, horizon=1).records[1]
        assert (r.e, r.u) == expected
        assert r.d == args[1]


def test_unquantized_pi_step():
    r = one_step("unquantized-pi", F(1), F(0), F(1, 2), F(14, 10))
    assert (r.e, r.u) == (F(3, 2), F(-11, 10))
    r = one_step("unquantized-pi", 0, 0, 0, F(2))
    assert (r.e, r.u) == (0, 0)


def test_shifted_state_round_trip():
    # u_bar = u + rho(dbar) and back: rho(-dbar) = -rho(dbar)
    dbar = F(27, 10)
    traj = simulate(constant_config(F(11, 8), "switched-pi", dbar, F(1, 3),
                                    F(-2, 7), 20))
    shifted = shift_trajectory(traj, dbar)
    before, after = traj.records, shifted.records
    assert [r.u for r in after] == [r.u + 3 for r in before]
    assert [r.rho_u for r in after] == [round_half_away(r.u + 3) for r in before]
    assert [r.d for r in after] == [F(-3, 10)] * 21
    assert len(set(map(id, shifted.d))) == 1  # the constant stays one object
    assert [(r.e, r.rho_e, r.mode) for r in after] == \
        [(r.e, r.rho_e, r.mode) for r in before]
    assert shift_trajectory(shifted, -dbar).records == traj.records


def test_shift_rounds_the_shifted_control():
    # u = -1/2 shifted by rho(dbar) = 1 is the tie 1/2, which rounds to 1:
    # offsetting rho(-1/2) = -1 instead would give 0
    traj = simulate(constant_config(F(5, 4), "switched-pi", F(6, 5), 0,
                                    F(-1, 2), 0))
    r = shift_trajectory(traj, F(6, 5)).records[0]
    assert (r.u, r.rho_u, r.d) == (F(1, 2), 1, F(1, 5))


# --- disturbances -----------------------------------------------------------

def test_constant_disturbance():
    d = Disturbance.constant(F(12, 10))
    assert d.column(1000) == (F(6, 5),)
    assert disturbance_value(d, 0) == disturbance_value(d, 999) == F(6, 5)
    assert d.kind == "constant"


def test_ramp_disturbance_interpolates_and_holds():
    d = Disturbance.ramp([(20, F(26, 10)), (40, F(24, 10))])
    column = d.column(96)
    assert len(column) == 41              # held from the last breakpoint on
    assert column[30] == F(5, 2)          # midpoint crosses the threshold
    assert column[10] == column[20] == F(13, 5)  # hold before the first one
    assert column[40] == disturbance_value(d, 95) == F(12, 5)
    assert column[35] == F(26, 10) + (F(24, 10) - F(26, 10)) * F(15, 20)
    assert d.kind != "constant"


def test_ramp_takes_each_breakpoint_value_at_its_step(tmp_path):
    # interpolating up to an interior breakpoint gave 1e16 + (0.3 - 1e16),
    # which cancels to 0.0; the breakpoint's own value is 0.3
    d = Disturbance.ramp([(3, 1e16), (5, 0.3), (9, 2.6)])
    assert d.column(12)[3::2] == (1e16, 0.3, disturbance_value(d, 7), 2.6)
    assert disturbance_value(d, 5) == 0.3
    traj = simulate(LoopConfig(F(11, 8), "standard-pi", d, 0, 0, 12,
                               mode="float"))
    assert traj.d[5] == 0.3
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    row = (tmp_path / "traj.csv").read_text().splitlines()[1 + 5]
    assert row.split(",")[5] == "0.3"


def test_samples_disturbance_holds_last():
    d = unit_steps([F(1), F(2), F(3)])
    assert d.column(5) == (1, 2, 3)
    assert [disturbance_value(d, k) for k in range(5)] == [1, 2, 3, 3, 3]


ramp_values = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.floats(min_value=-6, max_value=6))


@st.composite
def ramps(draw):
    """Ramps with breakpoints on both sides of step 0, exact or float."""
    steps = sorted(draw(st.sets(st.integers(-40, 40), min_size=1,
                                max_size=5)))
    return Disturbance.ramp([(k, draw(ramp_values)) for k in steps])


@settings(max_examples=300, deadline=None)
@given(st.one_of(ramps(), st.lists(ramp_values, min_size=1, max_size=8).map(
    unit_steps), ramp_values.map(Disturbance.constant)),
    st.integers(1, 80))
@example(Disturbance.ramp([(-3, F(1, 2))]), 5)
@example(Disturbance.ramp([(7, F(1, 2))]), 5)
@example(Disturbance.ramp([(-9, F(1, 3)), (-2, F(-1, 3))]), 1)
@example(Disturbance.ramp([(-2, 1.0), (0, -0.0), (3, 1.0)]), 5)
def test_disturbance_column_matches_its_per_step_values(disturbance, n):
    # the same values, floats bit for bit, cut at n or at a step from which
    # the signal holds its last value
    column = disturbance.column(n)
    assert 1 <= len(column) <= n
    assert list(map(repr, column)) == [
        repr(disturbance_value(disturbance, k)) for k in range(len(column))]
    if len(column) < n:
        assert all(disturbance_value(disturbance, k) == column[-1]
                   for k in range(len(column), n + 40))


def test_disturbance_validation():
    with pytest.raises(ValueError):
        Disturbance.ramp([(10, F(1)), (10, F(2))])
    with pytest.raises(ValueError):
        Disturbance.ramp([])
    with pytest.raises(ValueError):
        disturbance_value(Disturbance.constant(F(1)), -1)


# --- config validation ------------------------------------------------------

def test_config_rejects_unstable_gain():
    for alpha in (F(1), F(3), F(1, 2), F(7, 2)):
        with pytest.raises(ValueError):
            constant_config(alpha, "switched-pi", F(1, 10), 0, 0, 10)


def test_config_rejects_junk():
    with pytest.raises(ValueError):
        constant_config(F(5, 4), "pid", F(0), 0, 0, 10)
    with pytest.raises(ValueError):
        constant_config(F(5, 4), "switched-pi", F(0), 0, 0, -1)
    with pytest.raises(ValueError):
        constant_config(F(5, 4), "switched-pi", F(0), 0, 0, 10, mode="decimal")


def test_gain_range_flags():
    config = constant_config(F(13, 10), "switched-pi", F(1, 10), 0, 0, 5)
    assert in_capture_range(config.alpha) and config.alpha_in_attractive_range
    config = constant_config(F(11, 10), "switched-pi", F(1, 10), 0, 0, 5)
    assert (in_capture_range(config.alpha)
            and not config.alpha_in_attractive_range)
    config = constant_config(F(2), "unquantized-pi", F(1, 10), 0, 0, 5)
    assert not in_capture_range(config.alpha)


@pytest.mark.filterwarnings("error::quantloop.dynamics.TuningWarning")
def test_tuning_warning_for_switched_gain():
    config = constant_config(F(11, 10), "switched-pi", F(1, 10), 0, 0, 5)
    with pytest.warns(TuningWarning):
        simulate(config)
    # standard PI does not warn about switched-analysis tuning
    simulate(constant_config(F(11, 10), "standard-pi", F(1, 10), 0, 0, 5))


def test_mode_promotion_warning():
    config = constant_config(F(13, 10), "switched-pi", 0.1, 0, 0, 5)
    assert config.resolved_mode() == "float"
    with pytest.warns(ModePromotionWarning):
        traj = simulate(config)
    assert traj.mode == "float"
    assert isinstance(traj.records[3].e, float)


def test_float_mode_coerces_exact_inputs():
    config = constant_config(F(13, 10), "switched-pi", F(1, 10), 0, 0, 5,
                             mode="float")
    traj = simulate(config)
    assert traj.mode == "float"
    assert all(isinstance(r.e, float) for r in traj.records)


# --- simulate ---------------------------------------------------------------

def test_simulate_horizon_zero_single_record():
    config = constant_config(F(13, 10), "switched-pi", F(1, 10), F(2), F(-1), 0)
    traj = simulate(config)
    assert traj.length == 1
    r = traj.records[0]
    assert (r.k, r.e, r.u, r.rho_e, r.rho_u, r.mode) == (0, 2, -1, 2, -1, MODE_NA)


def test_simulate_record_count_and_indexing():
    config = constant_config(F(13, 10), "switched-pi", F(1, 10), 0, 0, 37)
    traj = simulate(config)
    assert traj.length == 38
    assert [r.k for r in traj.records] == list(range(38))


def test_simulate_is_deterministic():
    config = constant_config(F(13, 10), "switched-pi", F(17, 100), F(3), F(-2), 50)
    assert simulate(config) == simulate(config)


def test_mode_annotation_matches_quantized_error():
    config = constant_config(F(13, 10), "switched-pi", F(17, 100), F(3), F(-2), 60)
    records = simulate(config).records
    assert records[0].mode == MODE_NA
    for r in records[1:]:
        expected = MODE_ZERO if r.rho_e == 0 else MODE_NONZERO
        assert r.mode == expected


def test_standard_records_have_no_branch_annotation():
    config = constant_config(F(14, 10), "standard-pi", F(12, 10), F(2), 0, 20)
    assert all(r.mode == MODE_NA for r in simulate(config).records)


def test_capture_scenario_reaches_minimal_pairs():
    traj = simulate_shifted(F(11, 10), F(4, 10), F(2, 10), F(6, 10), 100)
    assert {(r.rho_e, r.rho_u) for r in traj.records[20:]} == \
        {(0, 0), (1, -1)}


def test_standard_pi_limit_cycle_commutes():
    config = constant_config(F(14, 10), "standard-pi", F(12, 10), F(2), 0, 300)
    traj = simulate(config)
    tail = [r.rho_e for r in traj.records[-100:]]
    assert max(tail) == 1 and min(tail) == -1
    nonzero = [v for v in tail if v != 0]
    assert all(a == -b for a, b in zip(nonzero, nonzero[1:]))


def test_time_varying_disturbance_runs_in_original_coordinates():
    ramp = Disturbance.ramp([(5, F(26, 10)), (15, F(24, 10))])
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=ramp, e0=0, u0=0, horizon=30)
    traj = simulate(config)
    assert traj.records[10].d == disturbance_value(ramp, 10)
    assert traj.length == 31


# --- coordinate change ------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(odd_alphas(), odd_fractions, odd_fractions, odd_fractions)
def test_shifted_run_equals_shifted_view_of_original(alpha, dbar, e0, u0):
    horizon = 25
    original = simulate(constant_config(alpha, "switched-pi", dbar,
                                        e0, u0, horizon))
    view = shift_trajectory(original, dbar)
    offset = round_half_away(dbar)
    direct = simulate_shifted(alpha, dbar - offset, e0, u0 + offset, horizon)
    assert view.records == direct.records


def test_shift_tie_divergence():
    # With u exactly on a half-integer, the integer disturbance offset can
    # move the tie across zero and flip the away-from-zero rounding, so the
    # original and shifted runs genuinely part ways.  Pinned, not patched.
    alpha, dbar = F(5, 4), F(-7, 10)
    original = simulate(constant_config(alpha, "switched-pi", dbar,
                                        0, F(1, 2), 1))
    assert original.records[1].e == F(3, 10)     # rho(1/2) = 1
    direct = simulate_shifted(alpha, dbar - round_half_away(dbar),
                              0, F(1, 2) + round_half_away(dbar), 1)
    assert direct.records[1].e == F(-7, 10)      # rho(-1/2) = -1


def test_shifted_tie_run_is_the_real_run_shifted():
    # from u0 = -1/2 the shift by rho(13/10) = 1 moves u across zero, so the
    # shifted run is the real run mapped by shift_trajectory and not the
    # switched run on delta_d = 3/10 from the shifted start (0, 1/2)
    alpha, dbar = F(11, 8), F(13, 10)
    shifted = shift_trajectory(simulate(constant_config(
        alpha, "switched-pi", dbar, 0, F(-1, 2), 1)), dbar)
    plain = simulate_shifted(alpha, F(3, 10), 0, F(1, 2), 1)
    assert (shifted.e[0], shifted.u[0]) == (plain.e[0], plain.u[0]) == \
        (0, F(1, 2))
    assert (shifted.e[1], shifted.u[1]) == (F(3, 10), 0)  # rho(-1/2) = -1
    assert (plain.e[1], plain.u[1]) == (F(13, 10), F(-7, 8))  # rho(1/2) = 1


# --- quantizer-free coincidence and deadbeat --------------------------------

@settings(max_examples=150, deadline=None)
@given(odd_alphas(hi_num=2),
       st.fractions(min_value=-3, max_value=3, max_denominator=40),
       st.fractions(min_value=-5, max_value=5, max_denominator=40),
       st.fractions(min_value=-5, max_value=5, max_denominator=40))
def test_pi_schemes_coincide_without_quantizers(alpha, dbar, e0, u0):
    traj = simulate(constant_config(alpha, "unquantized-pi", dbar, e0, u0, 30))
    e, u = e0, u0
    states = [(e, u)]
    for _ in range(30):
        e, u = generic_law(alpha, identity, True, (e, u), dbar)
        states.append((e, u))
    assert [(r.e, r.u) for r in traj.records] == states
    assert traj.length == 31


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=60),
       st.fractions(min_value=-6, max_value=6, max_denominator=60),
       st.fractions(min_value=-6, max_value=6, max_denominator=60))
def test_unquantized_deadbeat_with_gain_two(dbar, e0, u0):
    config = constant_config(F(2), "unquantized-pi", dbar, e0, u0, 12)
    traj = simulate(config)
    for r in traj.records[2:]:
        assert r.e == 0


# --- integer-lattice kernel -------------------------------------------------

# Rationals plus the rounding ties Z + 1/2 of both signs: the half-away rule
# and its asymmetries must survive the move to scaled integers bit for bit.
tie_fractions = st.integers(-10, 9).map(lambda n: F(2 * n + 1, 2))
lattice_scalars = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    tie_fractions,
)
# residual disturbances at and around |delta_d| = 1/2, on top of an integer
lattice_disturbance_values = st.one_of(
    lattice_scalars,
    st.builds(lambda n, half: n + half, st.integers(-3, 3),
              st.sampled_from([F(1, 2), F(-1, 2)])),
)


@st.composite
def lattice_disturbances(draw):
    kind = draw(st.sampled_from(["constant", "piecewise-linear",
                                 "unit-steps"]))
    if kind == "constant":
        return Disturbance.constant(draw(lattice_disturbance_values))
    if kind == "unit-steps":
        return unit_steps(
            draw(st.lists(lattice_disturbance_values, min_size=1, max_size=8)))
    steps = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4)))
    return Disturbance.ramp(
        [(k, draw(lattice_disturbance_values)) for k in steps])


@st.composite
def lattice_configs(draw, controllers=("standard-pi", "switched-pi")):
    return LoopConfig(
        alpha=draw(st.one_of(
            st.fractions(min_value=F(41, 40), max_value=F(119, 40),
                         max_denominator=40),
            st.sampled_from([F(5, 4), F(3, 2), F(2), F(5, 2)]))),
        controller=draw(st.sampled_from(controllers)),
        disturbance=draw(lattice_disturbances()),
        e0=draw(lattice_scalars), u0=draw(lattice_scalars),
        horizon=draw(st.integers(0, 40)))


def law_records(config, mode="exact"):
    """Record-by-record run of the generic laws in ``mode``: the oracle of
    the lattice kernel, the columnar trajectory and its per-step view."""
    coerce = float if mode == "float" else F
    quantize = identity if config.controller == "unquantized-pi" else round_half_away
    alpha = coerce(config.alpha)
    e, u = coerce(config.e0), coerce(config.u0)
    records = []
    for k in range(config.horizon + 1):
        branch = MODE_NA
        if k and config.controller == "switched-pi":
            branch = MODE_ZERO if round_half_away(e) == 0 else MODE_NONZERO
        d_k = coerce(disturbance_value(config.disturbance, k))
        records.append(TrajectoryRecord(k, e, u, round_half_away(e),
                                        round_half_away(u), d_k, branch))
        e, u = generic_law(alpha, quantize,
                           config.controller == "switched-pi", (e, u), d_k)
    return tuple(records)


def kernel_roundings(x, den):
    """Each rounding of ``x / den`` in the lattice kernel: the first
    state's ``rho_e`` and ``rho_u``, and ``rho_e`` after a step."""
    (first,), *_ = _lattice_run(0, den, False, x, x, (), 1)
    head, *_ = _lattice_run(0, den, False, 0, 0, [x], 2)
    return first[2], first[3], head[1][2]


@settings(max_examples=300, deadline=None)
@given(st.integers(-400, 400), st.integers(1, 40))
def test_scaled_rounding_matches_round_half_away(x, den):
    assert kernel_roundings(x, den) == (round_half_away(F(x, den)),) * 3


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 9))
def test_scaled_rounding_matches_round_half_away_on_large_values(x, den):
    assert kernel_roundings(x, den) == (round_half_away(F(x, den)),) * 3


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 999), st.integers(1, 5 * 10 ** 8),
       st.sampled_from([1, -1]))
# ties on lattices of den 4, 2^40 and about 10^12
@example(2, 2, 1)
@example(2, 2, -1)
@example(0, 2 ** 39, 1)
@example(7, 2 ** 39, -1)
@example(3, 5 * 10 ** 11 + 3, 1)
@example(3, 5 * 10 ** 11 + 3, -1)
def test_scaled_rounding_sends_exact_ties_away_from_zero(n, half, sign):
    # x / den = sign (n + 1/2): x = (2n + 1) den / 2 with den = 2 half
    x, den = sign * (2 * n + 1) * half, 2 * half
    expected = sign * (n + 1)
    assert expected == round_half_away(F(x, den))
    assert kernel_roundings(x, den) == (expected,) * 3


BIG = 10 ** 12


@settings(max_examples=300, deadline=None)
@given(lattice_configs())
# a step lands e1 or u1 exactly on +-(m + 1/2), where the kernel's rounding
# goes away from zero, on lattices of den 4, 2^40 and about 10^12
@example(constant_config(F(BIG + 3, BIG), "switched-pi", F(-7, 2), 0, 0,
                         6))                                 # e1 = -7/2
@example(constant_config(F(2 ** 40 + 1, 2 ** 40), "standard-pi",
                         F(5, 2) - F(1, 2 ** 40), F(1, 2 ** 40), 0,
                         6))                                 # e1 = 5/2
@example(constant_config(F(3, 2) + F(1, BIG), "switched-pi", F(1), 0,
                         F(1, BIG), 6))                      # u1 = -3/2
@example(constant_config(F(3, 2) + F(1, BIG), "standard-pi", F(-1), 0,
                         F(-1, BIG), 6))                     # u1 = 3/2
@example(constant_config(F(5, 4), "standard-pi", F(-2), 0, 0, 6))  # 5/2
@example(constant_config(F(5, 4), "switched-pi", F(2), 0, 0, 6))  # -5/2
def test_lattice_kernel_matches_fraction_law(config):
    traj = simulate(config)
    assert traj.mode == "exact"
    assert traj.records == law_records(config)
    assert all(type(z) in (int, F) for r in traj.records
               for z in (r.e, r.u))


def test_ramp_recurrence_at_its_steady_step():
    # the ramp holds 1/5 from step 2, and step 2's state is already on the
    # period-5 cycle: the run's entry is its steady step
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=Disturbance.ramp([(0, 0), (2, F(1, 5))]),
                        e0=0, u0=0, horizon=40)
    traj = simulate(config)
    assert traj.entry == steady_step(traj.d) == 2
    assert traj.period == 5 and len(traj.rho_e) == 7
    assert traj.records == law_records(config)


def test_kernel_tie_cases_pinned():
    # e0 on Z + 1/2 rounds away from zero on both sides; the standard law
    # at a negative tie and the switched reset at |delta_d| = 1/2
    for config in (
        constant_config(F(13, 10), "switched-pi", F(1, 2), F(-3, 4), F(1, 2), 30),
        constant_config(F(13, 10), "switched-pi", F(-1, 2), F(5, 2), F(-7, 2), 30),
        constant_config(F(5, 4), "standard-pi", F(-3, 2), F(-1, 2), F(1, 2), 30),
    ):
        assert simulate(config).records == law_records(config)


# Values at and next to the rounding ties, signed zeros, and magnitudes
# near 2^52, where a float's ulp goes from 1/2 to 1.
law_floats = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-20, 19).map(lambda n: n + 0.5),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.49999999999999994,
                     -0.49999999999999994]),
    st.builds(lambda m, sign: sign * m, st.floats(2.0 ** 51, 2.0 ** 53),
              st.sampled_from([1, -1])),
)
law_fractions = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    tie_fractions,
    st.builds(lambda n, sign: sign * (2 ** 52 + n + F(1, 2)),
              st.integers(-3, 3), st.sampled_from([1, -1])),
)
law_gains = st.one_of(
    st.fractions(min_value=F(41, 40), max_value=F(119, 40),
                 max_denominator=40),
    st.sampled_from([F(5, 4), F(11, 8), F(3, 2), F(2)]))
# (alpha, e, u, d), all float or all exact, as simulate coerces them
law_cases = st.one_of(
    st.tuples(law_gains.map(float), law_floats, law_floats, law_floats),
    st.tuples(law_gains, law_fractions, law_fractions, law_fractions))


def exactly(z):
    """``z`` with its type and, for a float, the sign of a zero."""
    return type(z), z, math.copysign(1, z) if isinstance(z, float) else 0


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CONTROLLERS), law_cases)
@example("switched-pi", (1.375, 0.25, 0.25, -0.25))  # a reset at e1 = 0.0
def test_law_with_views_matches_two_value_law(controller, case):
    alpha, e, u, d = case
    quantized = controller != "unquantized-pi"
    switched = controller == "switched-pi"
    (_, (e1, u1, rho_e1, rho_u1)), *_ = _law(
        alpha, quantized, switched, e, u, [d], 2)
    expected = generic_law(alpha, round_half_away if quantized else identity,
                           switched, (e, u), d)
    assert list(map(exactly, (e1, u1))) == list(map(exactly, expected))
    assert (rho_e1, rho_u1) == (round_half_away(e1), round_half_away(u1))
    if isinstance(e, float):
        assert type(e1) is type(u1) is float


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["standard-pi", "switched-pi"]),
       law_gains.map(float), law_floats, law_floats, law_floats)
def test_float_run_matches_generic_law_step_by_step(controller, alpha, e, u,
                                                     d):
    # tens of steps from ties and signed zeros: every value bit for bit
    config = constant_config(alpha, controller, d, e, u, 40, mode="float")
    traj = simulate(config)
    assert len(traj.rho_e) == traj.length == 41
    for k in range(traj.length):
        assert list(map(exactly, (traj.e[k], traj.u[k], traj.d[k]))) == \
            list(map(exactly, (e, u, d)))
        assert (traj.rho_e[k], traj.rho_u[k]) == \
            (round_half_away(e), round_half_away(u))
        e, u = generic_law(alpha, round_half_away,
                           controller == "switched-pi", (e, u), d)


def test_float_reset_keeps_float_u(tmp_path):
    config = constant_config(F(11, 8), "switched-pi", parse_scalar("float:0.1"),
                             0, 0, 60, mode="float")
    traj = simulate(config)
    assert any(r.mode == MODE_ZERO for r in traj.records)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 61
    for line in lines:
        u_cell = line.split(",")[2]
        assert "." in u_cell or "e" in u_cell, line


# --- CSV round trip ---------------------------------------------------------

def test_trajectory_csv_round_trip_exact(tmp_path):
    ramp = Disturbance.ramp([(3, F(26, 10)), (9, F(24, 10))])
    config = LoopConfig(alpha=F(11, 8), controller="switched-pi",
                        disturbance=ramp, e0=F(1, 3), u0=F(-2, 7), horizon=20)
    traj = simulate(config)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path, mode="exact")
    assert back.records == traj.records
    header = path.read_text().splitlines()[0]
    assert header == "k,e,u,rho_e,rho_u,d,mode"


def test_trajectory_csv_round_trip_float(tmp_path):
    config = constant_config(F(11, 8), "switched-pi", F(1, 10), 0, 0, 50,
                             mode="float")
    traj = simulate(config)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path, mode="float")
    assert back.records == traj.records


def test_trajectory_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


# --- columnar trajectory ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(lattice_configs(controllers=CONTROLLERS),
       st.sampled_from(["exact", "float"]))
def test_records_view_matches_law_run(config, mode):
    config = LoopConfig(**{**config._asdict(), "mode": mode})
    traj = simulate(config)
    assert traj.mode == mode
    assert traj.records == law_records(config, mode)
    assert traj.length == config.horizon + 1
    for column in (traj.e, traj.u, traj.d):
        assert len(column) == traj.entry + traj.period <= traj.length


@pytest.mark.parametrize("controller", ["switched-pi", "standard-pi"])
@pytest.mark.parametrize("d_text", ["float:0.0", "float:-0.0"])
def test_signed_zero_rows_pinned(tmp_path, controller, d_text):
    # -0.0 stays in row 0, while every later step prints 0.0: each step
    # keeps its own float, although 0.0 == -0.0.
    zero = parse_scalar("float:-0.0")
    config = constant_config(F(11, 8), controller, parse_scalar(d_text),
                             zero, zero, 4, mode="float")
    path = tmp_path / "traj.csv"
    write_trajectory_csv(simulate(config), path)
    d = d_text[len("float:"):]
    branch = MODE_ZERO if controller == "switched-pi" else MODE_NA
    assert path.read_text().splitlines() == [
        "k,e,u,rho_e,rho_u,d,mode",
        f"0,-0.0,-0.0,0,0,{d},n/a",
        *(f"{k},0.0,0.0,0,0,{d},{branch}" for k in range(1, 5)),
    ]
    back = read_trajectory_csv(path, mode="float")
    assert [str(z) for z in back.e] == ["-0.0"] + ["0.0"] * 4


@pytest.mark.parametrize("dbar, e0, u0", [
    (F(15, 7), F(3), F(-2)),
    (F(-8, 31), F(-11, 3), F(7, 5)),
    (F(1, 2), F(1, 3), F(0)),
])
def test_read_back_gives_the_same_cycle_report(tmp_path, dbar, e0, u0):
    # the CSV of a lasso run recurs, step by step, where detect_cycle says
    traj = simulate(constant_config(F(11, 8), "switched-pi", dbar, e0, u0, 400))
    shifted = shift_trajectory(traj, dbar)
    path = tmp_path / "shifted.csv"
    write_trajectory_csv(shifted, path)
    back = read_trajectory_csv(path, mode="exact")
    assert back.records == shifted.records
    report = detect_cycle(shifted)
    assert report.periodic
    assert cycle_oracle(back) == report


def test_read_back_equal_values_are_one_state(tmp_path):
    # 1/3 and 2/6 parse to one value, so the state recurs at step 1
    path = tmp_path / "traj.csv"
    path.write_text("k,e,u,rho_e,rho_u,d,mode\n"
                    "0,1/3,2/6,0,0,1/5,n/a\n"
                    "1,2/6,1/3,0,0,1/5,rho-zero-branch\n")
    back = read_trajectory_csv(path)
    assert list(zip(back.e, back.u)) == [(F(1, 3), F(1, 3))] * 2
    assert cycle_oracle(back).m == 1


def test_read_rejects_out_of_order_steps(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("k,e,u,rho_e,rho_u,d,mode\n"
                    "0,0,0,0,0,0,n/a\n"
                    "2,0,0,0,0,0,n/a\n")
    with pytest.raises(ValueError, match="steps"):
        read_trajectory_csv(path)
