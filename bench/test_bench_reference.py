"""Tests of the benchmark's reference model, above all on rounding ties.

Run with ``python3 -m pytest bench``.  The differential tests compare
against quantloop from the checkout's ``src``.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantloop.dynamics import Disturbance, LoopConfig, simulate  # noqa: E402
from quantloop.reachability import classify_trajectory  # noqa: E402


@pytest.mark.parametrize("value, expected", [
    (F(1, 2), 1), (F(-1, 2), -1), (F(3, 2), 2), (F(-3, 2), -2),
    (F(5, 2), 3), (F(-5, 2), -3), (F(0), 0), (F(1, 3), 0), (F(-2, 3), -1),
    (F(49, 100), 0), (F(-49, 100), 0), (F(51, 100), 1), (F(-51, 100), -1),
])
def test_exact_rounding_halves_go_away_from_zero(value, expected):
    assert ref.rho(value) == expected
    # the same value on a coarser lattice than its lowest terms
    assert ref.rho_scaled(value.numerator * 6, value.denominator * 6) == expected


@pytest.mark.parametrize("value, expected", [
    (0.5, 1), (-0.5, -1), (2.5, 3), (-2.5, -3), (1.5, 2), (-1.5, -2),
    (0.49999999999999994, 0), (-0.49999999999999994, 0),
    (1.4999999999999998, 1), (-1.4999999999999998, -1), (0.0, 0), (-0.0, 0),
])
def test_float_rounding_ties_and_their_neighbours(value, expected):
    assert ref.rho_float(value) == expected


def test_format_matches_lowest_terms():
    assert ref.fmt_scaled(6, 4) == "3/2"
    assert ref.fmt_scaled(-4, 2) == "-2"
    assert ref.fmt_scaled(0, 5) == "0"
    assert ref.fmt_scaled(-3, 9) == "-1/3"


@pytest.mark.parametrize("d, u1", [(F(1, 2), F(-11, 8)), (F(-1, 2), F(11, 8))])
def test_half_residual_first_step_rounds_away(d, u1):
    # From rest, e1 = d sits on a tie; rounding away from zero makes the
    # quantized error nonzero, so the switched law takes the PI branch.
    den = ref.lattice(F(11, 8), d, 0, 0)
    run = ref.exact_run(F(11, 8), d, 0, 0, 1, switched=True)
    next(run)
    e, u, branch = next(run)
    assert (F(e, den), F(u, den), branch) == (d, u1, ref.NONZERO_BRANCH)


def test_zero_residual_from_a_tie_never_enters_the_capture_region():
    # e0 in Z + 1/2 with zero residual keeps e on the tie lattice, outside
    # the open capture interval, so only a recurrence can classify it.
    alpha = F(11, 8)
    tag, path, steps = ref.classify(alpha, F(0), F(1, 2), F(0), 10_000)
    assert path == "recurrence"
    den = ref.lattice(alpha, 0, F(1, 2), 0)
    for e, _, _ in ref.exact_run(alpha, 0, F(1, 2), 0, steps, switched=True):
        assert (2 * e) % (2 * den) == den      # e is an odd multiple of 1/2


def _tie_inputs():
    halves = [F(k, 2) for k in (-5, -3, -1, 1, 3, 5)]
    for dd in (F(-1, 2), F(0), F(1, 2), F(1, 7)):
        for alpha in (F(21, 20), F(11, 8), F(29, 20)):
            for e0 in halves[::2]:
                for u0 in halves[1::2] + [F(0)]:
                    yield alpha, dd, e0, u0


def test_classification_agrees_with_quantloop_on_tie_lattices():
    tags = set()
    for alpha, dd, e0, u0 in _tie_inputs():
        tag, _, _ = ref.classify(alpha, dd, e0, u0, 2_000)
        assert tag == classify_trajectory(alpha, dd, e0, u0, 2_000).tag
        tags.add(tag)
    assert ref.AMPLITUDE2 in tags and ref.THEOREM1 in tags


@pytest.mark.parametrize("controller", ["standard-pi", "switched-pi"])
@pytest.mark.parametrize("dbar", [F(1, 2), F(-1, 2), F(5, 2), F(-3, 2), F(3, 7)])
def test_exact_runs_agree_with_quantloop_on_ties(controller, dbar):
    alpha, e0, u0 = F(11, 8), F(-1, 2), F(3, 2)
    traj = simulate(LoopConfig(alpha, controller, Disturbance.constant(dbar),
                               e0, u0, 200))
    den = ref.lattice(alpha, dbar, e0, u0)
    run = ref.exact_run(alpha, dbar, e0, u0, 200, controller == "switched-pi")
    assert [(F(e, den), F(u, den)) for e, u, _ in run] == \
        [(r.e, r.u) for r in traj.records]


@pytest.mark.parametrize("controller", ["standard-pi", "switched-pi"])
@pytest.mark.parametrize("dbar", [0.5, -0.5, 2 ** 0.5 - 1, -(2 ** 0.5 - 1), 0.1])
def test_float_runs_agree_with_quantloop_bit_for_bit(controller, dbar):
    alpha = F(11, 8)
    traj = simulate(LoopConfig(alpha, controller, Disturbance.constant(dbar),
                               0, 0, 500, mode="float"))
    run = ref.float_run(alpha, dbar, 0, 0, 500, controller == "switched-pi")
    assert list(run) == [(r.e, r.u) for r in traj.records]
