"""Test-side oracles: helpers only the tests use, kept out of the package.

* :func:`simulate_shifted` runs the switched loop in shifted coordinates;
* :func:`read_trajectory_csv` reads a trajectory CSV back into dense
  columns (the CSV oracle), with :func:`parse_csv_scalar` for its cells;
* :func:`cycle_oracle` finds a dense run's first state recurrence by
  hashing its steps in order, the report :func:`detect_cycle` reads off a
  lasso;
* :func:`int_part` and :func:`frac_part` split a scalar at zero, as the
  rounding identities of ``test_numerics`` state them.
"""

import csv
import math
from fractions import Fraction

from quantloop.analysis import CycleReport
from quantloop.dynamics import (
    TRAJECTORY_COLUMNS,
    Disturbance,
    LoopConfig,
    Trajectory,
    simulate,
)
from quantloop.numerics import Scalar


def simulate_shifted(alpha, delta_d, e0, u_bar0, horizon, mode="exact"):
    """Run the switched loop in shifted coordinates.

    The returned trajectory's ``u`` column holds ``u_bar`` and its ``d``
    column holds ``delta_d``; the recurrences are the switched ones, which
    coincide with the shifted ones for a constant disturbance.
    """
    config = LoopConfig(alpha=alpha, controller="switched-pi",
                        disturbance=Disturbance.constant(delta_d),
                        e0=e0, u0=u_bar0, horizon=horizon, mode=mode)
    return simulate(config)


def parse_csv_scalar(text: str, mode: str) -> Scalar:
    """Parse a scalar from a CSV cell, given the trajectory's arithmetic mode."""
    if mode == "float":
        return float(text)
    return Fraction(text)


def read_trajectory_csv(path, mode: str = "exact") -> Trajectory:
    """Read a trajectory CSV back as dense columns; ``mode`` selects the
    scalar parser.  Exact-mode round trips are bit-exact."""
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
                      tuple(map(int, rho_u)), column(d), branch, mode)


def cycle_oracle(traj: Trajectory) -> CycleReport:
    """The cycle report of a run found step by step: the first (e, u)
    recurrence (j, k) with j at or after the least step from which the
    ``d`` column keeps its last value."""
    e, u, d = list(traj.e), list(traj.u), list(traj.d)
    steady = len(d) - 1
    while steady and d[steady - 1] == d[-1]:
        steady -= 1
    seen = {}
    for k in range(steady, len(e)):
        j = seen.setdefault((e[k], u[k]), k)
        if j < k:
            return CycleReport(
                periodic=True, n=sum(r != 0 for r in traj.rho_e[j:k]),
                m=k - j, entry_step=j)
    return CycleReport(periodic=False)


def int_part(z: Scalar) -> int:
    """Integer part of ``z``: truncation toward zero (floor for z >= 0,
    ceiling for z < 0)."""
    return math.trunc(z)


def frac_part(z: Scalar) -> Scalar:
    """Fractional part ``z - int_part(z)``; same sign as ``z``, |result| < 1."""
    return z - math.trunc(z)
