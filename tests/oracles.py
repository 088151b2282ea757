"""Test-side oracles: helpers only the tests use, kept out of the package.

* :func:`generic_law` steps the laws on ``(e, u)`` with a ``quantize``
  function (:func:`round_half_away`, or :func:`identity` for the
  unquantized law), the step-by-step reference of the simulator's step
  functions;
* :func:`simulate_shifted` runs the switched loop in shifted coordinates;
* :func:`disturbance_value` evaluates a disturbance at one step, the
  per-step reference of :meth:`Disturbance.column`, and
  :func:`unit_steps` builds a ramp with one breakpoint per step;
* :func:`read_trajectory_csv` reads a trajectory CSV back into dense
  columns (the CSV oracle), with :func:`parse_csv_scalar` for its cells;
* :func:`steady_step` finds the step from which a disturbance column
  keeps its last value;
* :func:`cycle_oracle` finds a run's first state recurrence by hashing its
  logical steps in order, the report :func:`detect_cycle` reads off the
  run's entry and period;
* :func:`first_of_each_state` keeps the first of the steps that visit
  one (e, u) state, the rule by which a verdict lists its violations;
* :func:`steps_to_switch` counts the pure-drift steps until the
  quantized error leaves zero, the closed form the switched law's
  drift-and-reset cycle is checked against;
* :func:`int_part` and :func:`frac_part` split a scalar at zero, as the
  rounding identities of ``test_numerics`` state them.
"""

import csv
import math
from fractions import Fraction

from quantloop.analysis import CycleReport
from quantloop.dynamics import (
    MODE_NA,
    TRAJECTORY_COLUMNS,
    Disturbance,
    LoopConfig,
    Trajectory,
    simulate,
)
from quantloop.numerics import Scalar, sign


def identity(z: Scalar) -> Scalar:
    return z


def generic_law(alpha, quantize, switched, state, d):
    """One step of the generic laws from ``state = (e, u)``: the standard
    law, or with ``switched`` the switched law's reset on steps whose new
    quantized error is zero.  Returns the next ``(e, u)``."""
    e, u = state
    e1 = e + quantize(u) + d
    if switched and quantize(e1) == 0:
        u1 = quantize(u) + quantize(e)
        if isinstance(u, float):
            u1 = float(u1)  # the sum of quantized values is an int
    else:
        u1 = u + quantize(e) - alpha * quantize(e1)
    return e1, u1


def simulate_shifted(alpha, delta_d, e0, u_bar0, horizon, mode="exact"):
    """Run the switched loop in shifted coordinates.

    The returned trajectory's ``u`` column holds ``u_bar`` and its ``d``
    column holds ``delta_d``; the recurrences are the switched ones, which
    coincide with the shifted ones for a constant disturbance except at a
    half-integer u that the shift moves across zero: there rho(u_bar) is
    not rho(u) + rho(dbar), and only ``shift_trajectory`` of the real run
    gives the shifted run.
    """
    config = LoopConfig(alpha=alpha, controller="switched-pi",
                        disturbance=Disturbance.constant(delta_d),
                        e0=e0, u0=u_bar0, horizon=horizon, mode=mode)
    return simulate(config)


def disturbance_value(disturbance: Disturbance, k: int) -> Scalar:
    """The value of ``disturbance`` at step ``k >= 0``, found by scanning
    its breakpoints: interpolated strictly between two of them, else the
    value of the last breakpoint at or before ``k`` (the first one's before
    it)."""
    if k < 0:
        raise ValueError("step index must be non-negative")
    points = disturbance.breakpoints
    for (k0, v0), (k1, v1) in zip(points, points[1:]):
        if k0 < k < k1:
            return v0 + (v1 - v0) * Fraction(k - k0, k1 - k0)
    return next((v for step, v in reversed(points) if step <= k),
                points[0][1])


def unit_steps(values) -> Disturbance:
    """The ramp that takes ``values[k]`` at each step k from 0 and holds the
    last value after: one breakpoint per step, the densest ramp."""
    return Disturbance.ramp(enumerate(values))


def parse_csv_scalar(text: str, mode: str) -> Scalar:
    """Parse a scalar from a CSV cell, given the trajectory's arithmetic mode."""
    if mode == "float":
        return float(text)
    return Fraction(text)


def read_trajectory_csv(path, mode: str = "exact") -> Trajectory:
    """Read a trajectory CSV back as a run stored step by step; ``mode``
    selects the scalar parser.  Exact-mode round trips are bit-exact."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        rows = list(reader)
    ks, e, u, rho_e, rho_u, d, branch = zip(*rows) if rows else [()] * 7
    if list(map(int, ks)) != list(range(len(ks))):
        raise ValueError("trajectory steps must run 0, 1, 2, ...")

    def column(texts) -> tuple:
        return tuple(parse_csv_scalar(t, mode) for t in texts)

    return Trajectory(column(e), column(u), tuple(map(int, rho_e)),
                      tuple(map(int, rho_u)), column(d), len(rows), len(rows),
                      any(b != MODE_NA for b in branch), mode)


def steady_step(d) -> int:
    """The least step from which the disturbance column ``d`` keeps its
    last value, by exact equality."""
    s = max(len(d) - 1, 0)
    while s and d[s - 1] == d[-1]:
        s -= 1
    return s


def cycle_oracle(traj: Trajectory) -> CycleReport:
    """The cycle report of a run found step by step: the first (e, u)
    recurrence (j, k) with j at or after the least step from which the
    ``d`` column keeps its last value."""
    records = traj.records
    e, u, d = ([r.e for r in records], [r.u for r in records],
               [r.d for r in records])
    seen = {}
    for k in range(steady_step(d), len(e)):
        j = seen.setdefault((e[k], u[k]), k)
        if j < k:
            return CycleReport(
                periodic=True, n=sum(r.rho_e != 0 for r in records[j:k]),
                m=k - j, entry_step=j)
    return CycleReport(periodic=False)


def first_of_each_state(steps, records, mode: str = "exact") -> list:
    """The ``steps`` (ascending) that visit their (e, u) state first among
    them: a verdict lists each failing state once, at its first failing
    step.  A float run is stored step by step, so there each step is a
    state of its own."""
    first = {}
    for k in steps:
        first.setdefault((records[k].e, records[k].u) if mode == "exact"
                         else k, k)
    return sorted(first.values())


def steps_to_switch(delta_d: Scalar, e_start: Scalar) -> int:
    """Number of pure-drift steps from ``e_start`` until the quantized
    error first leaves zero: ceil((sign(delta_d)/2 - e_start) / delta_d).

    Exact for exact inputs.  Undefined for zero residual (the error then
    never leaves zero).
    """
    half = Fraction(1, 2)
    if delta_d == 0:
        raise ValueError("zero residual disturbance never triggers a switch")
    if not -half < e_start < half:
        raise ValueError("e_start must lie strictly inside (-1/2, 1/2)")
    return math.ceil((half * sign(delta_d) - e_start) / delta_d)


def int_part(z: Scalar) -> int:
    """Integer part of ``z``: truncation toward zero (floor for z >= 0,
    ceiling for z < 0)."""
    return math.trunc(z)


def frac_part(z: Scalar) -> Scalar:
    """Fractional part ``z - int_part(z)``; same sign as ``z``, |result| < 1."""
    return z - math.trunc(z)
