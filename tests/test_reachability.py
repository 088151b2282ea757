"""Attractor classification and grid sweep tests."""

import csv
import json
import marshal
import os
import signal
import time
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantloop import reachability
from quantloop.analysis import (
    EntryRegion,
    amplitude2_pairs,
    in_entry_region,
    minimal_invariant_pairs,
)
from quantloop.cli import main
from quantloop.dynamics import capture_gain
from quantloop.numerics import round_half_away
from quantloop.reachability import (
    TAG_ALT_UNIT,
    TAG_AMPLITUDE2,
    TAG_THEOREM1,
    TAG_UNRESOLVED,
    AttractorClass,
    CellResult,
    GridSpec,
    _classify_cycle,
    attraction_region,
    classify_trajectory,
    grid_values,
    sweep,
    write_grid_csv,
    write_region_csv,
)
from oracles import generic_law, simulate_shifted


def test_grid_values_exact_spacing():
    values = grid_values(F(126, 100), F(149, 100), 24)
    assert len(values) == 24
    assert values[0] == F(63, 50) and values[-1] == F(149, 100)
    steps = {b - a for a, b in zip(values, values[1:])}
    assert steps == {F(1, 100)}


def test_grid_values_single_point():
    assert grid_values(F(1, 3), F(2, 3), 1) == [F(1, 3)]


def test_classify_far_initial_state_is_captured():
    result = classify_trajectory(F(14, 10), F(3, 10), F(73, 10), F(-41, 10),
                                 10_000)
    assert result.tag == TAG_THEOREM1
    assert result.witness_pairs == minimal_invariant_pairs(F(3, 10))
    assert result.steps_to_entry == 5


def test_classify_zero_residual_reaches_origin_pair():
    result = classify_trajectory(F(13, 10), 0, F(5), F(-3), 10_000)
    assert result.tag == TAG_THEOREM1
    assert result.witness_pairs == {(0, 0)}


def test_classify_alternative_unit_set():
    # low gain: a second unit-excursion set coexists with the minimal one
    result = classify_trajectory(F(11, 10), F(-3, 10), F(-1, 4), F(6, 10),
                                 10_000)
    assert result.tag == TAG_ALT_UNIT
    assert result.witness_pairs == {(0, 1), (1, 0)}


def test_classify_amplitude2_boundary_sets():
    result = classify_trajectory(F(13, 10), F(1, 2), F(-3, 4), F(1, 2), 10_000)
    assert result.tag == TAG_AMPLITUDE2
    assert result.witness_pairs == {(-1, 1), (1, -2)}
    result = classify_trajectory(F(13, 10), F(-1, 2), F(3, 4), F(-1, 2), 10_000)
    assert result.tag == TAG_AMPLITUDE2
    assert result.witness_pairs == {(-1, 2), (1, -1)}


def test_cycle_inside_the_minimal_set_is_theorem1():
    # the cell's minimal set, or any part of it, tags a cycle theorem1-set
    minimal = minimal_invariant_pairs(F(1, 10))
    for pairs in (minimal, frozenset({(0, 0)})):
        assert _classify_cycle(minimal, None, pairs, 3) == \
            AttractorClass(TAG_THEOREM1, pairs, 3)
    assert _classify_cycle(minimal, None, frozenset({(0, 0), (-1, 1)}),
                           3).tag == TAG_ALT_UNIT


def test_classify_budget_exhaustion_is_unresolved():
    result = classify_trajectory(F(13, 10), F(3, 10), F(10), F(10), 2)
    assert result.tag == TAG_UNRESOLVED
    assert result.steps_to_entry is None


def test_classify_zero_residual_half_integer_lattice():
    # With zero residual the error moves by integers only, so from
    # e0 = 5/2 it lives on the tie lattice Z + 1/2 forever and can never
    # reach the open capture interval.  It settles into an exact period-2
    # cycle bouncing between the ties, with a quantized-error excursion
    # of 2 -- outside every named attractor class, reported with its
    # witness pairs rather than forced into one.
    result = classify_trajectory(F(1333, 1000), 0, F(5, 2), 0, 10_000)
    assert result.tag == TAG_UNRESOLVED
    assert result.witness_pairs == {(1, -1), (-1, 1)}
    assert result.steps_to_entry == 8


def test_classify_rejects_out_of_range_gain():
    with pytest.raises(ValueError):
        classify_trajectory(F(8, 5), F(1, 10), 0, 0, 100)


@pytest.mark.parametrize("alpha", [1, F(3, 2), F(8, 5), 2])
def test_every_capture_gain_check_says_the_same(alpha):
    # the classifier, the capture region and the gain check share one rule
    message = f"the capture analysis needs a gain in (1, 3/2), got {alpha}"
    for check in (capture_gain, lambda a: EntryRegion(a, F(1, 10)),
                  lambda a: classify_trajectory(a, F(1, 10), 0, 0, 100)):
        with pytest.raises(ValueError) as exc:
            check(alpha)
        assert str(exc.value) == message


@pytest.mark.parametrize("delta_d", [F(2), F(-2), F(1, 2) + F(1, 10 ** 9),
                                     -0.75])
def test_classify_rejects_a_residual_above_one_half(delta_d):
    # a rounding error lies in [-1/2, 1/2]; the cell is not cached either
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\|delta_d\| <= 1/2"):
            classify_trajectory(F(11, 8), delta_d, 0, 0, 100)


def test_sweep_rejects_a_residual_range_above_one_half():
    # the spec fails when built, naming its first bad field, before any
    # cell is classified
    with pytest.raises(ValueError, match=r"^GridSpec\.delta_d_lo: .*"
                       r"\|delta_d\| <= 1/2, got -2$"):
        GridSpec(alpha_lo=F(11, 8), alpha_hi=F(11, 8), alpha_count=1,
                 delta_d_lo=-2, delta_d_hi=2, delta_d_count=5,
                 init_box=1, init_count=3, budget=100)


def test_sweep_rejects_a_nan_residual_on_the_residual_rule():
    # the range rule, not the exactness rule after it, names the NaN
    with pytest.raises(ValueError, match=r"^GridSpec\.delta_d_lo: .*"
                       r"\|delta_d\| <= 1/2, got nan$"):
        GridSpec(delta_d_lo=float("nan"))


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(26, 20), max_value=F(29, 20),
                    max_denominator=50),
       st.fractions(min_value=F(-9, 20), max_value=F(9, 20),
                    max_denominator=50),
       st.integers(-8, 8), st.integers(-8, 8))
def test_capture_classification_is_sound(alpha, delta_d, e0, u0):
    """A capture verdict must be confirmed by an independent re-simulation."""
    result = classify_trajectory(alpha, delta_d, e0, u0, 10_000)
    assert result.tag == TAG_THEOREM1
    traj = simulate_shifted(alpha, delta_d, e0, u0,
                            result.steps_to_entry + 1000)
    allowed = minimal_invariant_pairs(delta_d)
    start = result.steps_to_entry + 1
    assert all((r.rho_e, r.rho_u) in allowed for r in traj.records[start:])


def fraction_classify(alpha, delta_d, e0, u_bar0, budget):
    """The classification loop on Fractions with the generic switched law:
    the oracle of the lattice kernel's classification."""
    region = EntryRegion(alpha, delta_d)
    alpha, delta_d, e, u = F(alpha), F(delta_d), F(e0), F(u_bar0)
    seen = {}
    pairs = []
    for k in range(budget + 1):
        if in_entry_region(e, u, region):
            return AttractorClass(TAG_THEOREM1,
                                  minimal_invariant_pairs(delta_d), k)
        j = seen.get((e, u))
        if j is not None:
            return _classify_cycle(minimal_invariant_pairs(delta_d),
                                   amplitude2_pairs(delta_d),
                                   frozenset(pairs[j:k]), j)
        seen[(e, u)] = k
        pairs.append((round_half_away(e), round_half_away(u)))
        if k < budget:
            e, u = generic_law(alpha, round_half_away, True, (e, u),
                               delta_d)
    return AttractorClass(TAG_UNRESOLVED, frozenset(pairs[-8:]), None)


# Initial states include the rounding ties Z + 1/2 of both signs, quarter
# steps and the edges of the capture region; residuals include 0 and the
# boundary ties +-1/2.
classify_states = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-10, 9).map(lambda n: F(2 * n + 1, 2)),
)
classify_residuals = st.one_of(
    st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=30),
    st.sampled_from([F(1, 2), F(-1, 2), F(0)]),
)


@st.composite
def classify_cases(draw):
    alpha = draw(st.fractions(min_value=F(61, 60), max_value=F(89, 60),
                              max_denominator=60))
    delta_d = draw(classify_residuals)
    # u_bar = +-(alpha - 1) and +-(alpha - 3/2) put alpha - s u_bar on 1 or 3/2
    edges = st.sampled_from([F(0), F(1, 2), F(-1, 2), alpha - 1, 1 - alpha,
                             alpha - F(3, 2), F(3, 2) - alpha])
    e0 = draw(st.one_of(classify_states, edges))
    u0 = draw(st.one_of(classify_states, edges))
    return alpha, delta_d, e0, u0, draw(st.integers(0, 300))


BIG = 10 ** 12


@settings(max_examples=400, deadline=None)
@given(classify_cases())
# step 1 lands e1 or u1 exactly on +-(m + 1/2), where the kernel's rounding
# goes away from zero, on lattices of den 4, 2^40 and about 10^12
@example((F(BIG + 3, BIG), F(-1, 2), F(-3), 0, 6))             # e1 = -7/2
@example((F(2 ** 40 + 1, 2 ** 40), F(1, 2) - F(1, 2 ** 40),
          2 + F(1, 2 ** 40), 0, 6))                            # e1 = 5/2
@example((F(3, 2) - F(1, BIG), 0, 0, 1 - F(1, BIG), 6))        # u1 = -1/2
@example((F(3, 2) - F(1, BIG), 0, 0, F(1, BIG) - 1, 6))        # u1 = 1/2
@example((F(5, 4), F(1, 2), F(2), 0, 6))                       # e1 = 5/2
@example((F(5, 4), F(-1, 2), F(-2), 0, 6))                     # e1 = -5/2
def test_lattice_classification_matches_fraction_loop(case):
    assert classify_trajectory(*case) == fraction_classify(*case)


def test_lattice_classification_pinned_ties():
    cases = [
        (F(13, 10), F(1, 2), F(-3, 4), F(1, 2)),      # amplitude-2 set
        (F(13, 10), F(-1, 2), F(3, 4), F(-1, 2)),
        (F(1333, 1000), 0, F(5, 2), 0),                # stuck on the ties
        (F(1333, 1000), 0, F(-5, 2), F(-1, 2)),
        (F(11, 10), F(-3, 10), F(-1, 4), F(6, 10)),    # alternative set
    ]
    for case in cases:
        assert classify_trajectory(*case, 10_000) == \
            fraction_classify(*case, 10_000)


@pytest.mark.parametrize("alpha", [F(101, 100), F(11, 10), F(21, 16),
                                   F(11, 8), F(29, 20), F(149, 100)])
def test_classification_from_the_tie_inits(alpha):
    # the capture test reads rho(e) = rho(u_bar) = 0 off the state, and
    # half-away rounding puts the ties +-1/2 outside it
    half = F(1, 2)
    for delta_d in (0, half, -half):
        for e0 in (0, half, -half):
            for u0 in (0, half, -half):
                case = alpha, delta_d, e0, u0, 2_000
                assert classify_trajectory(*case) == fraction_classify(*case)


def test_out_of_range_gain_raises_on_every_call():
    # a failed cell is not cached: the same bad gain raises each time, also
    # after a valid call for the same residual
    for alpha in (F(8, 5), F(3, 2), 1, 1.5, F(1, 2)):
        for _ in range(2):
            with pytest.raises(ValueError, match="gain in"):
                classify_trajectory(alpha, F(1, 10), 0, 0, 100)
            classify_trajectory(F(13, 10), F(1, 10), 0, 0, 100)


@settings(max_examples=200, deadline=None)
@given(classify_cases())
# in binary 1.2 + 0.3 < 3/2, so the float state starts in the region
@example((F(6, 5), F(1, 4), F(0), F(-3, 10), 100))
def test_classification_takes_int_fraction_and_float_arguments(case):
    alpha, delta_d, e0, u0, budget = case
    # exact mode takes a float as its exact binary value
    floats = [float(z) for z in (alpha, delta_d, e0, u0)]
    assert classify_trajectory(*floats, budget) == \
        fraction_classify(*map(F, floats), budget)
    # equal values of other types (0, F(0), 0.0) share one cached cell
    ints = [int(z) if z.denominator == 1 else z for z in (delta_d, e0, u0)]
    assert classify_trajectory(alpha, *ints, budget) == \
        fraction_classify(*case)


@settings(max_examples=300, deadline=None)
@given(classify_cases())
@example((F(13, 10), F(1, 4), F(5, 2), F(-1, 2), 300))    # tie inits
@example((F(13, 10), F(1, 2), F(-3, 4), F(1, 2), 300))    # amplitude-2 sets
@example((F(13, 10), F(-1, 2), F(3, 4), F(-1, 2), 300))
@example((F(1333, 1000), F(0), F(5, 2), F(0), 300))       # stuck on the ties
@example((F(13, 10), F(0), F(3, 4), F(-5, 4), 300))
@example((F(11, 10), F(-3, 10), F(-1, 4), F(3, 5), 3))    # budget exhausted
def test_classification_is_odd(case):
    # (alpha, -delta_d) from (-e0, -u0) mirrors (alpha, delta_d) from (e0, u0)
    alpha, delta_d, e0, u0, budget = case
    plus = classify_trajectory(alpha, delta_d, e0, u0, budget)
    minus = classify_trajectory(alpha, -delta_d, -e0, -u0, budget)
    assert (minus.tag, minus.steps_to_entry) == \
        (plus.tag, plus.steps_to_entry)
    assert minus.witness_pairs == {(-p, -q) for p, q in plus.witness_pairs}


def small_spec(**overrides):
    base = dict(alpha_lo=F(13, 10), alpha_hi=F(14, 10), alpha_count=2,
                delta_d_lo=F(-1, 4), delta_d_hi=F(1, 4), delta_d_count=3,
                init_box=2, init_count=3, budget=2_000)
    base.update(overrides)
    return GridSpec(**base)


def test_sweep_single_cell_all_captured():
    spec = small_spec(alpha_lo=F(13, 10), alpha_hi=F(13, 10), alpha_count=1,
                      delta_d_lo=F(1, 4), delta_d_hi=F(1, 4), delta_d_count=1,
                      init_box=2, init_count=3)
    cells = sweep(spec)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.n_inits == 9
    assert cell.n_theorem1 == 9
    assert cell.n_alt == cell.n_amp2 == cell.n_unresolved == 0


def test_sweep_zero_residual_column():
    spec = small_spec(delta_d_lo=0, delta_d_hi=0, delta_d_count=1)
    cells = sweep(spec)
    for cell in cells:
        assert cell.n_theorem1 == cell.n_inits


def test_sweep_is_order_and_parallelism_independent():
    spec = small_spec()
    assert sweep(spec, jobs=1) == sweep(spec, jobs=2)


def every_cell(spec):
    """The sweep's cells, each classifying every initial state itself."""
    tags = (TAG_THEOREM1, TAG_ALT_UNIT, TAG_AMPLITUDE2, TAG_UNRESOLVED)
    cells = []
    for a in spec.alphas():
        for dd in spec.delta_ds():
            found = [classify_trajectory(a, dd, e0, u0, spec.budget).tag
                     for e0, u0 in spec.inits()]
            cells.append(CellResult(a, dd, len(found),
                                    *map(found.count, tags)))
    return tuple(cells)


def test_mirrored_sweep_matches_every_cell_classified():
    # tie inits (step 1/2), the amplitude-2 columns |delta_d| = 1/2 and the
    # self-mirrored delta_d = 0 column; all four tallies occur
    spec = small_spec(alpha_lo=F(21, 20), alpha_hi=F(7, 5), alpha_count=3,
                      delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2),
                      delta_d_count=5, init_box=1, init_count=5, budget=500)
    expected = every_cell(spec)
    assert sweep(spec, jobs=1) == expected
    assert sweep(spec, jobs=2) == expected


@pytest.mark.parametrize("overrides, classified", [
    # (delta_d, inits classified) of each classified cell, in order; the
    # delta_d = 0 cell of a symmetric init grid classifies the first 5 of
    # its 9 inits (4 pairs and the centre)
    # symmetric grids: only delta_d >= 0
    (dict(delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2), delta_d_count=5),
     [(0, 5), (F(1, 4), 9), (F(1, 2), 9)]),
    (dict(delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2), delta_d_count=4),
     [(F(1, 6), 9), (F(1, 2), 9)]),
    # asymmetric delta_d axis: every cell
    (dict(delta_d_lo=F(-1, 2), delta_d_hi=F(1, 4), delta_d_count=4),
     [(F(-1, 2), 9), (F(-1, 4), 9), (0, 5), (F(1, 4), 9)]),
    # one initial state (-1, -1) is not its own mirror: every cell
    (dict(delta_d_lo=F(-1, 4), delta_d_hi=F(1, 4), delta_d_count=3,
          init_box=1, init_count=1),
     [(F(-1, 4), 1), (0, 1), (F(1, 4), 1)]),
])
def test_sweep_classifies_each_cell_it_cannot_mirror(monkeypatch, overrides,
                                                     classified):
    spec = small_spec(**overrides)
    expected = every_cell(spec)
    calls = []

    def counted(alpha, delta_d, e0, u0, budget):
        calls.append((alpha, delta_d, e0, u0))
        return classify_trajectory(alpha, delta_d, e0, u0, budget)

    # sweep calls the module global once per init, which tracing relies on
    monkeypatch.setattr(reachability, "classify_trajectory", counted)
    assert sweep(spec) == expected
    assert calls == [(a, dd, e0, u0) for a in spec.alphas()
                     for dd, n in classified for e0, u0 in spec.inits()[:n]]


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("init_box, init_count, budget", [
    # odd count, step 1/2: ties +-1/2, +-3/2 and the centre; the inits with
    # e0 on a tie end on the period-2 bounce
    (2, 9, 500),
    (F(3, 2), 4, 500),  # even count, step 1: every init a tie, no centre
    (F(5, 4), 6, 4),    # even count, step 1/2: the budget binds for some
])
@pytest.mark.parametrize("delta_d_hi", [F(1, 2), F(1, 4)])
def test_paired_zero_residual_cell_matches_every_init_classified(
        jobs, init_box, init_count, budget, delta_d_hi):
    # the delta_d = 0 cells count each classified init for its mirror too,
    # on a mirrored grid and on an asymmetric axis
    spec = small_spec(alpha_lo=F(21, 20), alpha_hi=F(13, 10), alpha_count=2,
                      delta_d_lo=F(-1, 2), delta_d_hi=delta_d_hi,
                      delta_d_count=5 if delta_d_hi == F(1, 2) else 4,
                      init_box=init_box, init_count=init_count, budget=budget)
    assert 0 in spec.delta_ds()
    assert sweep(spec, jobs=jobs) == every_cell(spec)


def test_attraction_region_mask():
    spec = small_spec()
    cells = sweep(spec)
    region = attraction_region(cells)
    # the whole grid sits inside the attractive gain range
    assert len(region) == len(cells)


def test_attraction_region_empty_result():
    assert attraction_region(()) == []


def test_low_gain_cells_reach_alternative_set():
    # below gain 5/4 a second unit-excursion set coexists; with
    # half-step inits a sizeable share of each cell lands there
    spec = small_spec(alpha_lo=F(21, 20), alpha_hi=F(11, 10), alpha_count=2,
                      delta_d_lo=F(-3, 10), delta_d_hi=F(3, 10),
                      delta_d_count=2, init_box=2, init_count=9, budget=4000)
    cells = sweep(spec)
    assert all(c.n_alt > 0 for c in cells)
    assert attraction_region(cells) == []


def test_half_boundary_cell_is_not_fully_captured():
    # include the amplitude-2 basin in the sampled inits: quarter-integer
    # initial conditions around (-3/4, 1/2) reach the excursion-2 set
    spec = GridSpec(alpha_lo=F(13, 10), alpha_hi=F(13, 10), alpha_count=1,
                    delta_d_lo=F(1, 2), delta_d_hi=F(1, 2), delta_d_count=1,
                    init_box=1, init_count=9, budget=2_000)
    cells = sweep(spec)
    cell = cells[0]
    assert cell.n_amp2 > 0
    assert cell.n_theorem1 < cell.n_inits
    assert attraction_region(cells) == []


def test_full_scale_spec_warns():
    with pytest.warns(UserWarning):
        sweep(GridSpec(alpha_count=1, delta_d_count=1, init_count=1,
                       budget=3 * 10 ** 10,
                       alpha_lo=F(13, 10), alpha_hi=F(13, 10),
                       delta_d_lo=F(1, 4), delta_d_hi=F(1, 4),
                       init_box=0))


def test_full_scale_warning_names_its_threshold():
    # the threshold is the default grid's own bound
    desk_scale = GridSpec().total_steps_bound()
    assert desk_scale == 50 * 101 * 21 ** 2 * 10_000
    # one cell, one initial state: the budget alone passes the threshold,
    # and the state starts inside the capture region, so it is never spent
    spec = GridSpec(alpha_lo=F(13, 10), alpha_hi=F(13, 10), alpha_count=1,
                    delta_d_lo=F(1, 4), delta_d_hi=F(1, 4), delta_d_count=1,
                    init_box=0, init_count=1, budget=desk_scale + 1)
    assert spec.total_steps_bound() > desk_scale
    with pytest.warns(UserWarning, match="exceeds the default grid's "
                      "22,270,500,000 simulation steps"):
        cells = sweep(spec)
    assert cells[0].n_theorem1 == 1


def test_default_grid_sweeps_without_a_warning(monkeypatch):
    # the documented default sweep stays quiet under -W error; the cells
    # are tallied without classifying the real grid
    def tally(spec, inits, alpha, delta_d):
        n = sum(weight for _, _, weight in inits)
        return n, n, 0, 0, 0

    monkeypatch.setattr(reachability, "_evaluate_cell", tally)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = sweep(GridSpec())
    assert len(cells) == 50 * 101
    assert len(attraction_region(cells)) == 50 * 101


def test_parallel_sweep_keeps_grid_order_across_strides():
    # 6 x 5 cells, of which the 6 x 3 with delta_d >= 0 are classified; on
    # 2 workers each takes 9, dealt row by row from alternating strides
    spec = small_spec(alpha_count=6, delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2),
                      delta_d_count=5, init_count=2, budget=500)
    serial = sweep(spec, jobs=1)
    assert [(c.alpha, c.delta_d) for c in serial] == [
        (a, dd) for a in spec.alphas() for dd in spec.delta_ds()]
    assert sweep(spec, jobs=2) == serial


@pytest.mark.parametrize("overrides", [
    # mirrored: 3 x 3 of the 3 x 5 cells classified, 9 cells on 3 strides
    dict(alpha_count=3, delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2),
         delta_d_count=5, init_box=1, init_count=5, budget=500),
    # asymmetric: all 2 x 4 cells, strides of 3, 3 and 2
    dict(delta_d_lo=F(-1, 2), delta_d_hi=F(1, 4), delta_d_count=4)])
def test_sweep_on_three_workers_matches_one(overrides):
    spec = small_spec(**overrides)
    assert sweep(spec, jobs=3) == sweep(spec, jobs=1)


def test_parallel_sweep_spreads_the_zero_residual_cells(monkeypatch,
                                                       tmp_path):
    # 4 x 7 cells, mirrored: each gain row classifies 4 cells, and its
    # delta_d = 0 cell classifies half the inits.  Each worker logs the
    # cells it classifies; both get 2 cells of every row and 2 of the 4
    # delta_d = 0 cells.
    log, tally = tmp_path / "cells.log", reachability._evaluate_cell

    def logged(spec, inits, alpha, delta_d):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {alpha} {delta_d}\n")
        return tally(spec, inits, alpha, delta_d)

    monkeypatch.setattr(reachability, "_evaluate_cell", logged)
    spec = small_spec(alpha_count=4, delta_d_lo=F(-1, 2), delta_d_hi=F(1, 2),
                      delta_d_count=7, init_box=1, init_count=3, budget=50)
    cells = sweep(spec, jobs=2)
    workers = {}
    for line in log.read_text().splitlines():
        pid, alpha, delta_d = line.split()
        workers.setdefault(pid, []).append((F(alpha), F(delta_d)))
    assert len(workers) == 2
    for done in workers.values():
        assert sorted({a for a, _ in done}) == spec.alphas()
        assert all(sum(a == alpha for a, _ in done) == 2
                   for alpha in spec.alphas())
        assert sum(dd == 0 for _, dd in done) == 2
    monkeypatch.setattr(reachability, "_evaluate_cell", tally)
    assert cells == sweep(spec, jobs=1)


def forks_counted(monkeypatch):
    """Patch ``os.fork`` to list the pid of every child it starts."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left(pids):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_sweep_forks_no_idle_worker(monkeypatch):
    # 2 classified cells: one worker forks nothing, five fork one child
    spec = small_spec(alpha_count=1, delta_d_lo=F(-1, 4), delta_d_hi=F(1, 4),
                      delta_d_count=3)
    pids = forks_counted(monkeypatch)
    serial = sweep(spec, jobs=1)
    assert pids == []
    assert sweep(spec, jobs=5) == serial
    assert len(pids) == 1
    assert_no_child_left(pids)


def test_worker_exception_reaches_the_caller(monkeypatch):
    caller, classify = os.getpid(), reachability.classify_trajectory

    def child_fails(alpha, *args):
        if os.getpid() != caller:
            raise LookupError(f"no tag for gain {alpha}")
        return classify(alpha, *args)

    monkeypatch.setattr(reachability, "classify_trajectory", child_fails)
    pids = forks_counted(monkeypatch)
    with pytest.raises(LookupError, match="^no tag for gain 13/10$"):
        sweep(small_spec(alpha_count=1, delta_d_lo=0), jobs=2)
    assert len(pids) == 1
    assert_no_child_left(pids)


@pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
def test_failing_caller_kills_and_reaps_its_workers(monkeypatch, error):
    # the children would classify for 12 s; the caller's own first cell
    # fails (or is interrupted) at once
    caller = os.getpid()

    def caller_fails(*args):
        if os.getpid() == caller:
            raise error("caller share failed")
        time.sleep(12)

    monkeypatch.setattr(reachability, "classify_trajectory", caller_fails)
    pids = forks_counted(monkeypatch)
    t0 = time.monotonic()
    with pytest.raises(error, match="caller share failed"):
        sweep(small_spec(alpha_count=2, delta_d_lo=0), jobs=3)
    assert time.monotonic() - t0 < 4
    assert len(pids) == 2
    assert_no_child_left(pids)


def test_killed_worker_ends_the_sweep_with_one_error_line(
        monkeypatch, tmp_path, capsys):
    caller, classify = os.getpid(), reachability.classify_trajectory

    def child_killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return classify(*args)

    monkeypatch.setattr(reachability, "classify_trajectory", child_killed)
    pids = forks_counted(monkeypatch)
    with pytest.raises(ChildProcessError) as raised:
        sweep(small_spec(alpha_count=1, delta_d_lo=0), jobs=2)
    assert str(raised.value) == \
        f"sweep worker {pids[0]} (stride 1) ended without a result"
    assert_no_child_left(pids)

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "alpha": {"lo": "13/10", "hi": "13/10", "count": 1},
        "delta_d": {"lo": "0", "hi": "1/4", "count": 3},
        "init": {"box": "2", "count": 3}, "budget": 2000}))
    capsys.readouterr()
    assert main(["sweep", "-c", str(grid), "-o", str(tmp_path / "out"),
                 "--jobs", "2"]) == 1
    assert capsys.readouterr().err == \
        f"error: sweep worker {pids[1]} (stride 1) ended without a result\n"
    assert len(pids) == 2
    assert_no_child_left(pids)


@pytest.mark.parametrize("cut", [1, 5, -1])
def test_truncated_worker_payload_ends_the_sweep(monkeypatch, cut):
    # a child that dies while it writes leaves a short payload, which
    # reads as no result: marshal raises EOFError at any cut
    class Truncating:
        load = staticmethod(marshal.load)

        @staticmethod
        def dump(payload, pipe):
            pipe.write(marshal.dumps(payload)[:cut])

    monkeypatch.setattr(reachability, "marshal", Truncating)
    pids = forks_counted(monkeypatch)
    with pytest.raises(ChildProcessError) as raised:
        sweep(small_spec(alpha_count=1, delta_d_lo=0), jobs=2)
    assert str(raised.value) == \
        f"sweep worker {pids[0]} (stride 1) ended without a result"
    assert_no_child_left(pids)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(alpha_count=0)
    with pytest.raises(ValueError):
        GridSpec(budget=0)


@pytest.mark.parametrize("field", ["alpha_lo", "alpha_hi", "delta_d_lo",
                                   "delta_d_hi", "init_box"])
def test_grid_spec_rejects_a_float_bound(field):
    # a float would be sampled at its binary value: 1.3 as
    # 5854679515581645/4503599627370496; a residual bound lies in
    # [-1/2, 1/2], so it takes 3/10
    exact = F(3, 10) if field.startswith("delta_d") else F(13, 10)
    with pytest.raises(ValueError) as exc:
        GridSpec(**{field: float(exact)})
    assert str(exc.value) == (f"GridSpec.{field}: a sweep has no float "
                              f"mode, got the float {float(exact)}")
    assert getattr(GridSpec(**{field: exact}), field) == exact


def test_grid_csv_exports(tmp_path):
    spec = small_spec()
    cells = sweep(spec)
    grid_path = tmp_path / "grid.csv"
    region_path = tmp_path / "region.csv"
    write_grid_csv(cells, grid_path)
    write_region_csv(cells, region_path)

    with open(grid_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cells)
    assert rows[0]["alpha"] == "13/10"
    assert int(rows[0]["n_inits"]) == 9
    totals = (int(rows[0]["n_theorem1"]) + int(rows[0]["n_alt"])
              + int(rows[0]["n_amp2"]) + int(rows[0]["n_unresolved"]))
    assert totals == 9

    with open(region_path) as fh:
        mask = list(csv.DictReader(fh))
    assert {row["in_region"] for row in mask} == {"1"}
