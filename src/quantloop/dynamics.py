"""Time-domain recurrences of the quantized control loop.

The plant is a discrete-time integrator with a one step delay, driven by
the quantized control input plus an additive disturbance:

    e(k+1) = e(k) + rho(u(k)) + d(k)

where ``rho`` is the half-away rounding operator from :mod:`.numerics`.
Three control laws act on quantized error measurements:

``standard-pi``
    u(k+1) = u(k) + rho(e(k)) - alpha * rho(e(k+1))

``switched-pi``
    the same law on steps where rho(e(k+1)) != 0, but when the new
    quantized error is zero the integrator state is re-based to
    rho(u(k)) + rho(e(k)), which freezes the accumulation of sub-
    resolution residuals

``unquantized-pi``
    the standard law with both quantizers replaced by the identity
    (reference behaviour; without quantizers the two PI schemes coincide)

For a *constant* disturbance ``dbar`` the loop is usually analyzed in
shifted coordinates: ``u = -rho(dbar) + u_bar`` so that only the rounding
error ``delta_d = dbar - rho(dbar)`` of the disturbance drives the system.
A shifted run is the switched run on the residual disturbance from the
shifted start, except at a half-integer u that the shift moves across zero,
where rho(u_bar) != rho(u) + rho(dbar) (see :func:`shift_trajectory`).

Exact runs of the two quantized laws step on an integer lattice.  Every
exact input is a rational, so let D be the lcm of the denominators of
alpha, e0, u0 and the disturbance's per-step values.  Each step adds
integers and d to e, and adds integers and alpha times an integer to u or
resets u to an integer, so (e, u) stays on (1/D)Z.  The kernel holds the
state as the int pair (E, U) = (D e, D u): rho is one floor division,
(2|E| + D) // 2D with the sign of E, so ties go away from zero; the reset
is (rho(u) + rho(e)) D and state equality is int equality.  ``Fraction``
appears only at the boundary, one per lattice point visited.  Float runs
and the unquantized law (alpha e leaves the lattice) run the generic law
on plain values.  Both runs carry the state with its views (e, u, rho(e),
rho(u)), rounding each new value once, inline, and stop at the first
recurrence from a given step on (the kernel also on capture);
:func:`simulate` calls one once, and the sweep's classifier the kernel
once per initial state.

A :class:`Trajectory` stores a run as the per-step columns ``e``, ``u``,
``rho_e``, ``rho_u`` and ``d``, tuples of one stored length s, with the
step ``k`` implicit and the step count in ``length``.  Every disturbance holds its last value from some
step on, and a run is autonomous from its *steady step*, the least step
from which d keeps its last value by exact equality.
An exact run's first state recurrence (j, k) with j at or after that step
is therefore final: step k and every later step repeat steps j..k-1.
Every exact run, under all three laws, stops there, stores steps 0..k-1
and keeps the entry j: the run, not each column, owns the shape, and
:meth:`Trajectory.index` maps each logical step to the stored step it
repeats, so memory is O(entry + period) whatever the horizon, and
:meth:`Trajectory.counts` tallies, for each stored step at once, the
logical steps before a stop that repeat it.  A float run, or an exact
run whose recurrence lies beyond the horizon, stores every step (entry
s, no period).  Consumers do their per-step work over the stored steps
and map steps through the run's ``entry``, ``period`` and ``index``.
The branch that produced a state follows from ``rho_e`` and the law
(:func:`branch`) and is not stored; step 0 has none.

Every output is encoded text written through :func:`atomic_open`; CSV
fields are joined by commas unquoted, since none holds a comma, a quote,
a ``%`` or a line break.
"""

import contextlib
import itertools
import math
import os
import warnings
from collections.abc import Sequence
from fractions import Fraction
from functools import wraps
from typing import NamedTuple

from .numerics import (
    Scalar,
    format_scalar,
    is_exact,
    round_half_away,
)

CONTROLLERS = ("standard-pi", "switched-pi", "unquantized-pi")

MODE_ZERO = "rho-zero-branch"
MODE_NONZERO = "rho-nonzero-branch"
MODE_NA = "n/a"

TRAJECTORY_COLUMNS = ("k", "e", "u", "rho_e", "rho_u", "d", "mode")


class TuningWarning(UserWarning):
    """Controller gain outside the range some analysis guarantee needs."""


class ModePromotionWarning(UserWarning):
    """An exact-mode run contained float inputs and was promoted to float."""


def _scaled(z: Scalar, den: int) -> int:
    """``den * z`` for an exact ``z`` whose denominator divides ``den``."""
    return z.numerator * (den // z.denominator)


def _lattice_run(alpha, den, switched, e, u, inputs, steady, lo=1, hi=0):
    """The run of a quantized law on (1/den)Z from ``(e, u)``, stepped by
    each of ``inputs`` (d at steps 0, 1, ...), all scaled ints ``den *
    value``; ``switched`` selects the reset.  A state ``(e, u, rho_e,
    rho_u)`` is rounded inline (the floor of ``|x| / den + 1/2`` with the
    sign of ``x``).  States before step ``steady`` go to the list ``head``
    and the rest to the dict ``seen`` (state -> step), in step order.
    Returns ``(head, seen, k, j)`` at the first state k that repeats step
    j >= steady (not stored again), that has zero views and ``lo <= u <=
    hi`` (j = k; empty by default), or that ends the inputs (j = None)."""
    twice = 2 * den
    rho_e = (2 * e + den) // twice if e >= 0 else -((den - 2 * e) // twice)
    head, seen, k = [], {}, 0
    for d in itertools.chain(inputs, (None,)):
        rho_u = (2 * u + den) // twice if u >= 0 else -((den - 2 * u) // twice)
        state = e, u, rho_e, rho_u
        if k >= steady:
            j = seen.setdefault(state, k)
            if j != k:
                return head, seen, k, j
        else:
            head.append(state)
        if rho_e == 0 == rho_u and lo <= u <= hi:
            return head, seen, k, k
        if d is None:
            return head, seen, k, None
        k += 1
        e += rho_u * den + d
        rho_e1 = ((2 * e + den) // twice if e >= 0
                  else -((den - 2 * e) // twice))
        if switched and rho_e1 == 0:
            u = (rho_u + rho_e) * den
        else:
            u += rho_e * den - alpha * rho_e1
        rho_e = rho_e1


def _law(alpha, quantized, switched, e, u, inputs, steady):
    """:func:`_lattice_run` (no capture) of the generic laws on plain values:
    without ``quantized`` the standard law on the values, not the views.
    Views round inline by :func:`round_half_away`'s rule, twice the
    fraction against ints, so an exact run compares no float."""
    rho_e, head, seen, k = round_half_away(e), [], {}, 0
    for d in itertools.chain(inputs, (None,)):
        n = math.trunc(u)
        f2 = 2 * (u - n)
        rho_u = n + 1 if f2 >= 1 else n - 1 if f2 <= -1 else n
        state = e, u, rho_e, rho_u
        if k >= steady:
            j = seen.setdefault(state, k)
            if j != k:
                return head, seen, k, j
        else:
            head.append(state)
        if d is None:
            return head, seen, k, None
        k += 1
        q_e, q_u = (rho_e, rho_u) if quantized else (e, u)
        e = e + q_u + d
        n = math.trunc(e)
        f2 = 2 * (e - n)
        rho_e = n + 1 if f2 >= 1 else n - 1 if f2 <= -1 else n
        if switched and rho_e == 0:
            # an exact quantized run is on the lattice, so this one is float
            u = float(q_u + q_e)
        else:
            u = u + q_e - alpha * (rho_e if quantized else e)


def rule(test, message: str):
    """The rule that takes a value passing ``test``; any other fails with
    ``message`` formatted with it."""
    def check(value):
        if not test(value):
            raise ValueError(message.format(value))
        return value
    return check


def checked_count(count: int, least: int = 1) -> int:
    """``count`` if it is an int, not a bool, of at least ``least``."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"expected an integer, got {count}")
    if count < least:
        raise ValueError(f"expected an integer >= {least}, got {count}")
    return count


#: ``alpha`` if it lies in (1, 3), where the loop is stable.
stable_gain = rule(lambda alpha: 1 < alpha < 3,
                   "alpha={} is outside (1, 3); the loop is unstable")


def in_capture_range(alpha: Scalar) -> bool:
    """True for gains in (1, 3/2), the range that the capture analysis and
    the sweep's classification cover."""
    return 1 < alpha < Fraction(3, 2)


#: ``alpha`` if it lies in (1, 3/2) (see :func:`in_capture_range`).
capture_gain = rule(in_capture_range,
                    "the capture analysis needs a gain in (1, 3/2), got {}")


def check_rules(record) -> None:
    """Check each field named in ``record._rules`` by its rule, in order."""
    for name, rule in record._rules.items():
        try:
            rule(getattr(record, name))
        except ValueError as exc:
            raise ValueError(f"{type(record).__name__}.{name}: {exc}") from None


def validated(record: type) -> type:
    """The named tuple class ``record``, its constructor wrapped in place to
    run ``record._check`` (:func:`check_rules` if it defines none), so bad
    input fails when a record is built and when one is unpickled;
    ``_replace`` skips the check."""
    new, check = record.__new__, getattr(record, "_check", check_rules)

    @wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        check(self)
        return self
    record.__new__ = __new__
    return record


@validated
class Disturbance(NamedTuple):
    """Disturbance signal on the control input: ``(step, value)``
    breakpoints with strictly increasing steps.  It holds the first value
    before the first breakpoint, takes each breakpoint's value at its step,
    interpolates linearly in between and holds the last value after.  A
    ``constant`` is one breakpoint at step 0; ``kind`` only names the
    shape, as the config does."""

    kind: str
    breakpoints: tuple

    def _check(self):
        if not self.breakpoints:
            raise ValueError(f"{self.kind} disturbance needs at least one "
                             f"value")
        steps = [checked_count(k, -math.inf) for k, _ in self.breakpoints]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("breakpoint steps must be strictly increasing")

    @classmethod
    def constant(cls, value: Scalar) -> "Disturbance":
        return cls("constant", ((0, value),))

    @classmethod
    def ramp(cls, breakpoints: Sequence) -> "Disturbance":
        return cls("piecewise-linear",
                   tuple((k, v) for k, v in breakpoints))

    def column(self, n: int) -> tuple:
        """The values at steps 0..h, clamped to n - 1, where h is the last
        breakpoint's step floored at 0: from step h on the signal holds its
        last value."""
        points = self.breakpoints
        (k_first, v_first), (k_last, v_last) = points[0], points[-1]
        held = min(max(k_last, 0), n - 1)
        values = [v_first] * (min(k_first, held) + 1)
        for (k0, v0), (k1, v1) in zip(points, points[1:]):
            # values holds steps 0..len-1, up to k0 once k0 >= 0
            values += [v0 + (v1 - v0) * Fraction(k - k0, k1 - k0)
                       for k in range(len(values), min(k1, held + 1))]
            if 0 <= k1 <= held:
                values.append(v1)
        values += [v_last] * (held + 1 - len(values))
        return tuple(values)


@validated
class LoopConfig(NamedTuple):
    """Full description of one simulation run."""

    alpha: Scalar
    controller: str
    disturbance: Disturbance
    e0: Scalar
    u0: Scalar
    horizon: int
    mode: str = "exact"

    _rules = {"alpha": stable_gain,
              "controller": rule(CONTROLLERS.__contains__,
                                 "unknown controller: {!r}"),
              "horizon": lambda h: checked_count(h, 0),
              "mode": rule(("exact", "float").__contains__,
                           "unknown arithmetic mode: {!r}")}

    @property
    def alpha_in_attractive_range(self) -> bool:
        """Gain range (5/4, 3/2) for which the minimal set is a global
        attractor, provided also |delta_d| < 1/2: at |delta_d| = 1/2 some
        initial states settle on the alt-unit cycle instead."""
        return Fraction(5, 4) < self.alpha < Fraction(3, 2)

    def resolved_mode(self) -> str:
        """Arithmetic mode the run will actually use.

        A config declared exact but containing any float input is promoted
        to float for the whole run.
        """
        inputs = [self.alpha, self.e0, self.u0,
                  *(v for _, v in self.disturbance.breakpoints)]
        exact = self.mode == "exact" and all(map(is_exact, inputs))
        return "exact" if exact else "float"


class TrajectoryRecord(NamedTuple):
    """One time step: state, its quantized views, the disturbance applied
    at this step, and the controller branch that produced the state."""

    k: int
    e: Scalar
    u: Scalar
    rho_e: int
    rho_u: int
    d: Scalar
    mode: str


def branch(rho_e: int, switched: bool) -> str:
    """The switched-law branch that produced a state at a step k >= 1 from
    its quantized error ``rho_e``; ``n/a`` for the other laws."""
    if not switched:
        return MODE_NA
    return MODE_ZERO if rho_e == 0 else MODE_NONZERO


class Trajectory(NamedTuple):
    """A run of ``length`` steps: columns of the stored steps 0..s-1, each
    later step repeating stored step ``entry + (k - entry) % period`` with
    period s - entry (0 when every step is stored), the law's ``switched``
    flag for the branches, and a per-step ``records`` view.  ``len`` counts
    the fields, as for any named tuple, not the steps."""

    e: tuple
    u: tuple
    rho_e: tuple
    rho_u: tuple
    d: tuple
    entry: int
    length: int
    switched: bool = False
    mode: str = "exact"

    @property
    def period(self) -> int:
        return len(self.rho_e) - self.entry

    def index(self, k: int) -> int:
        """The stored step that logical step ``0 <= k < length`` repeats."""
        if k < len(self.rho_e):
            return k
        return self.entry + (k - self.entry) % self.period

    def counts(self, stop: int) -> list:
        """For each stored step, how many logical steps before ``stop``
        :meth:`index` maps to it: 1 or 0 before the entry, q + 1 or q on
        the cycle (q whole periods)."""
        head = min(max(stop, 0), self.entry)
        q, r = divmod(max(stop - self.entry, 0), self.period or 1)
        return ([1] * head + [0] * (self.entry - head)
                + [q + 1] * r + [q] * (self.period - r))

    @property
    def records(self) -> tuple:
        """The run as per-step records, built at each use."""
        return tuple(
            TrajectoryRecord(k, self.e[i], self.u[i], self.rho_e[i],
                             self.rho_u[i], self.d[i],
                             branch(self.rho_e[i], self.switched) if k
                             else MODE_NA)
            for k, i in enumerate(map(self.index, range(self.length))))


def simulate(config: LoopConfig) -> Trajectory:
    """Run ``config`` and return the full trajectory (horizon + 1 steps).

    Deterministic: equal configs produce equal trajectories.  An exact run
    is stored as a lasso (see the module docstring).  A float run hashes no
    state, since 0.0 == -0.0 although the two print differently, so it is
    stored densely.
    """
    if config.controller == "switched-pi":
        if not in_capture_range(config.alpha):
            warnings.warn(
                "switched-pi gain outside (1, 3/2); capture analysis does not apply",
                TuningWarning, stacklevel=2)
        elif not config.alpha_in_attractive_range:
            warnings.warn(
                "switched-pi gain outside (5/4, 3/2); the minimal invariant set "
                "may not be globally attractive",
                TuningWarning, stacklevel=2)

    mode = config.resolved_mode()
    if mode != config.mode:
        warnings.warn(
            "exact-mode config contains float inputs; run promoted to float",
            ModePromotionWarning, stacklevel=2)

    n = config.horizon + 1
    switched = config.controller == "switched-pi"
    quantized = config.controller != "unquantized-pi"
    lattice = mode == "exact" and quantized
    coerce = Fraction if mode == "exact" else float
    alpha, e, u = map(coerce, (config.alpha, config.e0, config.u0))
    d = tuple(map(coerce, config.disturbance.column(n)))
    if lattice:
        den = math.lcm(*(z.denominator for z in (alpha, e, u, *d)))
        # both runs take (alpha, q, switched, e, u, inputs, steady), where
        # q is the kernel's den or the generic law's quantized flag
        run, q, inputs = _lattice_run, den, [_scaled(z, den) for z in d]
        alpha, e, u = _scaled(alpha, den), _scaled(e, den), _scaled(u, den)
    else:
        run, q, inputs = _law, quantized, d

    # A state carries its quantized views, which (e, u) determine, so the
    # whole state is the recurrence key.
    steady = len(d) - 1 if mode == "exact" else n
    while 0 < steady < n and d[steady - 1] == d[-1]:
        steady -= 1
    inputs = itertools.chain(inputs, itertools.repeat(inputs[-1]))
    try:
        states, seen, _, entry = run(alpha, q, switched, e, u,
                                     itertools.islice(inputs, n - 1), steady)
    except (OverflowError, ValueError) as exc:
        # a float state past the float range rounds as inf, or as the NaN
        # of inf - inf; an exact run raises neither
        raise ValueError(f"the float run overflowed: {exc}") from None
    states += seen  # in step order

    e, u, *rho = zip(*states)
    if lattice:
        value = {x: Fraction(x, den) for x in {*e, *u}}.__getitem__
        e, u = tuple(map(value, e)), tuple(map(value, u))
    s = len(states)
    d = d[:s] + d[-1:] * (s - len(d))
    return Trajectory(e, u, *rho, d, s if entry is None else entry, n,
                      switched, mode)


def shift_trajectory(traj: Trajectory, dbar: Scalar) -> Trajectory:
    """Map a constant-disturbance run into shifted coordinates.

    The control input becomes ``u + rho(dbar)`` and the disturbance the
    rounding error ``d - rho(dbar)``: the control once per stored step, the
    disturbance once per distinct value, so the column's repeats stay one
    shared object.
    The quantized view of the shifted control is recomputed by rounding
    rather than by offsetting rho(u): the two differ when u sits exactly
    on a half-integer that the shift moves across zero.
    """
    offset = round_half_away(dbar)
    u = tuple(z + offset for z in traj.u)
    d = {z: z - offset for z in set(traj.d)}
    return traj._replace(u=u, rho_u=tuple(map(round_half_away, u)),
                         d=tuple(map(d.__getitem__, traj.d)))


@contextlib.contextmanager
def atomic_open(path):
    """Open a temporary file beside ``path`` for writing bytes.  It replaces
    ``path`` when the block ends and is removed if the block raises, so
    ``path`` is never left half written."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path, header: Sequence, rows) -> None:
    """Write a CSV of a ``header`` row and ``rows`` atomically to ``path``:
    each row its fields' ``str``, joined by commas and ended by CRLF."""
    with atomic_open(path) as fh:
        fh.write("".join(",".join(map(str, row)) + "\r\n"
                         for row in (header, *rows)).encode())


#: Rows per written block: stored steps, or whole periods of the cycle.
_CSV_CHUNK = 1024

#: One trajectory row; the ``%d`` takes its ``k`` when its block is filled.
_ROW = "%d,{},{},{},{},{},{}\r\n".format


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with the canonical column order.

    Every row is one :data:`_ROW`; the rows after row 0, which has no
    branch, are written in blocks of about :data:`_CSV_CHUNK`, each a
    ``%`` template filled with its steps' ``k``: formatted once per chunk
    of stored steps and once for all blocks of whole periods (the last
    takes its first rows).
    """
    n, stored, period = traj.length, len(traj.rho_e), traj.period

    def block(lo: int, hi: int) -> bytes:
        rho_e = traj.rho_e[lo:hi]
        return "".join(map(
            _ROW, map(format_scalar, traj.e[lo:hi]),
            map(format_scalar, traj.u[lo:hi]), rho_e, traj.rho_u[lo:hi],
            map(format_scalar, traj.d[lo:hi]),
            [branch(r, traj.switched) for r in rho_e])).encode()

    with atomic_open(path) as fh:
        fh.write((",".join(TRAJECTORY_COLUMNS) + "\r\n" + _ROW(
            format_scalar(traj.e[0]), format_scalar(traj.u[0]),
            traj.rho_e[0], traj.rho_u[0], format_scalar(traj.d[0]),
            MODE_NA) % 0).encode())
        for lo in range(1, stored, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, stored)
            fh.write(block(lo, hi) % tuple(range(lo, hi)))
        if stored < n:
            reps = max(1, _CSV_CHUNK // period)
            cycle, size = block(traj.entry, stored) * reps, reps * period
            for lo in range(stored, n, size):
                if n - lo < size:  # the template's first n - lo rows
                    cycle = b"\r\n".join(
                        cycle.split(b"\r\n", n - lo)[:n - lo]) + b"\r\n"
                fh.write(cycle % tuple(range(lo, min(lo + size, n))))
