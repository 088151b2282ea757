"""Invariant-set predicates and limit-cycle analysis for the switched loop.

Everything here works on shifted-coordinate trajectories (the ``u`` column
holds the residual control input ``u_bar``, the ``d`` column the constant
disturbance rounding error ``delta_d``).

For gains in (1, 3/2), once the state enters the capture region

    -1/2 < e < 1/2
    1 <= alpha - u_bar * sign(delta_d) < 3/2
    -1/2 < u_bar < 1/2

the quantized pair (rho(e), rho(u_bar)) stays forever in the minimal
invariant set {(0, 0), (s, -s)} with s = sign(delta_d), and from two steps
after entry the residual control is locked to ``-alpha * rho(e)``.  Inside
that set the loop is a pure drift-and-reset map, which is periodic exactly
when ``|delta_d|`` is rational: ``|delta_d| = n/m`` in lowest terms gives a
cycle of ``m`` steps containing ``n`` switch steps, with the error confined
to a half-open band of width 1 around ``delta_d``.
"""

import math
import warnings
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional

from .dynamics import Trajectory, capture_gain, rule, validated
from .numerics import Scalar, format_scalar, is_exact, sign

_HALF = Fraction(1, 2)


@validated
class EntryRegion(NamedTuple):
    """Capture region of the shifted switched loop for one (alpha, delta_d)."""

    alpha: Scalar
    delta_d: Scalar

    def _check(self):
        capture_gain(self.alpha)


def in_entry_region(e: Scalar, u_bar: Scalar, region: EntryRegion) -> bool:
    """True iff (e, u_bar) satisfies all three capture inequalities,
    with their exact strict/non-strict senses."""
    if not -_HALF < e < _HALF:
        return False
    if not -_HALF < u_bar < _HALF:
        return False
    x = region.alpha - u_bar * sign(region.delta_d)
    return 1 <= x < Fraction(3, 2)


def minimal_invariant_pairs(delta_d: Scalar) -> frozenset:
    """Smallest invariant set of quantized pairs reached from the capture
    region: {(0,0), (s,-s)} with s = sign(delta_d)."""
    s = sign(delta_d)
    return frozenset({(0, 0), (s, -s)})


def amplitude2_pairs(delta_d: Scalar) -> Optional[frozenset]:
    """The excursion-2 invariant set, {(-s,s), (s,-2s)} at |delta_d| = 1/2."""
    if abs(delta_d) != _HALF:
        return None
    s = sign(delta_d)
    return frozenset({(-s, s), (s, -2 * s)})


class Verdict(NamedTuple):
    """Outcome of a trajectory check."""

    check: str
    status: str  # "pass" | "fail" | "not-entered"
    entry_step: Optional[int] = None
    violations: tuple = ()


def _verdict(check: str, traj: Trajectory, flags, start: int,
             entry_step: Optional[int]) -> Verdict:
    """The verdict ``check`` on ``traj`` given one flag per stored step:
    it fails at each flagged state's first step from ``start`` on.  Those
    are the flagged steps of the window s = max(start, 0) to min(max(s,
    entry) + period, length), whose steps repeat distinct stored steps,
    read from stored step ``index(s)`` on, round the cycle."""
    s = max(start, 0)
    steps = range(s, min(max(s, traj.entry) + traj.period, traj.length))
    i = traj.index(s) if steps else 0
    flags = tuple(flags)
    violations = tuple(compress(steps, flags[i:] + flags[traj.entry:i]))
    return Verdict(check, "fail" if violations else "pass", entry_step,
                   violations)


def verify_capture(traj: Trajectory, region: EntryRegion) -> Verdict:
    """Check that once the capture region is hit, every later quantized
    pair stays in the minimal invariant set.

    Expects a shifted-coordinate trajectory with constant residual
    disturbance.  Returns status ``not-entered`` when the region is never
    reached within the horizon.
    """
    # a stored step is its own first logical step
    entry = next((i for i, (e, u) in enumerate(zip(traj.e, traj.u))
                  if in_entry_region(e, u, region)), None)
    if entry is None:
        return Verdict("capture", "not-entered")
    allowed = minimal_invariant_pairs(region.delta_d)
    flags = (pair not in allowed for pair in zip(traj.rho_e, traj.rho_u))
    return _verdict("capture", traj, flags, entry + 1, entry)


def verify_control_lock(traj: Trajectory, alpha: Scalar,
                        entry_step: int) -> Verdict:
    """Check that from two steps after capture the residual control equals
    ``-alpha * rho(e)`` (exactly in exact mode, within 1e-12 in float)."""
    pairs = zip(traj.u, traj.rho_e)
    if traj.mode == "exact":
        # not ==, as a Fraction's != dispatches twice to reach its __eq__
        flags = (not u == -alpha * rho_e for u, rho_e in pairs)
    else:
        alpha = float(alpha)
        flags = (not abs(u - -alpha * rho_e) <= 1e-12 for u, rho_e in pairs)
    return _verdict("control-lock", traj, flags, entry_step + 2, entry_step)


class Interval(NamedTuple):
    """Interval with individually open/closed endpoints."""

    lo: Scalar
    hi: Scalar
    lo_closed: bool
    hi_closed: bool

    def __contains__(self, x: Scalar) -> bool:
        above = x >= self.lo if self.lo_closed else x > self.lo
        below = x <= self.hi if self.hi_closed else x < self.hi
        return above and below

    def to_record(self) -> dict:
        return {"lo": format_scalar(self.lo), "hi": format_scalar(self.hi),
                "lo_closed": self.lo_closed, "hi_closed": self.hi_closed}


def cycle_error_band(delta_d: Scalar) -> Interval:
    """Band containing the error while the loop lives in the minimal set:
    [-1/2+dd, 1/2+dd) for dd >= 0 and (-1/2+dd, 1/2+dd] for dd < 0.

    At dd = 0 that is [-1/2, 1/2), the capture bound on the error.
    """
    if abs(delta_d) >= _HALF:
        raise ValueError("error band defined only for |delta_d| < 1/2")
    return Interval(-_HALF + delta_d, _HALF + delta_d,
                    delta_d >= 0, delta_d < 0)


def verify_band(traj: Trajectory, band: Interval, start: int) -> Verdict:
    """Check that every error sample from step ``start`` on lies in ``band``."""
    flags = (e not in band for e in traj.e)
    return _verdict("band", traj, flags, start, start)


class CycleReport(NamedTuple):
    """Detected or predicted periodicity of a run.

    ``n`` counts the switch steps per period (steps taken on the nonzero
    branch, i.e. with nonzero quantized error); ``m`` is the period in
    steps; ``entry_step`` the first step from which the state recurs.
    """

    periodic: bool
    n: Optional[int] = None
    m: Optional[int] = None
    entry_step: Optional[int] = None
    error_band: Optional[Interval] = None

    def to_record(self) -> dict:
        return {**self._asdict(), "error_band":
                self.error_band.to_record() if self.error_band else None}


#: ``delta_d`` if it lies in [-1/2, 1/2], the range of a disturbance's
#: rounding error.
checked_residual = rule(lambda delta_d: abs(delta_d) <= _HALF,
                        "a disturbance rounding error satisfies "
                        "|delta_d| <= 1/2, got {}")


def predict_cycle(delta_d: Scalar) -> CycleReport:
    """Predict the cycle from the residual disturbance alone.

    ``|delta_d| = n/m`` in lowest terms yields an n-switch cycle of period
    m; zero residual is a degenerate fixed point (n=0, m=1).  Only exact
    rationals are accepted: the rational/irrational dichotomy is
    meaningless for binary floats, which are all rational.
    """
    if not is_exact(delta_d):
        raise TypeError("cycle prediction requires an exact rational delta_d")
    dd = Fraction(checked_residual(delta_d))
    if abs(dd) == _HALF:
        warnings.warn(
            "|delta_d| = 1/2 is outside the error-band hypotheses; "
            "no band attached", stacklevel=2)
        band = None
    else:
        band = cycle_error_band(dd)
    return CycleReport(periodic=True, n=abs(dd.numerator), m=dd.denominator,
                       error_band=band)


def detect_cycle(traj: Trajectory) -> CycleReport:
    """The period and entry step of the run's state recurrence.

    An exact run from :func:`.dynamics.simulate` stops at its first (e, u)
    recurrence from the steady step of its disturbance, which is final, and
    stores a lasso, so its entry and period are the answer.  A run stored
    without a period has no recurrence within its horizon and is not
    periodic.  A float run goes to :func:`detect_cycle_approx`.
    """
    if traj.mode != "exact":
        return detect_cycle_approx(traj)
    if not traj.period:
        return CycleReport(periodic=False)
    return CycleReport(
        periodic=True,
        n=sum(1 for rho_e in traj.rho_e[traj.entry:] if rho_e != 0),
        m=traj.period,
        entry_step=traj.entry,
    )


def detect_cycle_approx(traj: Trajectory) -> CycleReport:
    """Near-recurrence detection for float trajectories, to within a fixed
    ``tol`` of 1e-9 in max-norm, on a run stored step by step, as
    :func:`.dynamics.simulate` stores a float run.

    States are bucketed on a grid of cell size ``tol``; any pair within
    ``tol`` lands in the same or an adjacent cell, so scanning the 3x3
    neighbourhood finds all candidates.  A candidate (entry, period) is
    reported only if the near-recurrence is sustained to the end of the
    trajectory.
    """
    tol = 1e-9
    states = list(zip(traj.e, traj.u))

    def close(a, b):
        return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol

    cells: dict = {}
    for k, state in enumerate(states):
        ci = math.floor(state[0] / tol)
        cj = math.floor(state[1] / tol)
        candidates = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                candidates.extend(cells.get((ci + di, cj + dj), ()))
        for j in sorted(candidates):
            period = k - j
            if close(states[j], state) and all(
                close(states[i], states[i + period])
                for i in range(j, len(states) - period)
            ):
                return CycleReport(
                    periodic=True,
                    n=sum(1 for rho_e in traj.rho_e[j:k] if rho_e != 0),
                    m=period,
                    entry_step=j,
                )
        cells.setdefault((ci, cj), []).append(k)
    return CycleReport(periodic=False)
