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
The shifted recurrences are the switched recurrences verbatim with
``(e, u_bar, delta_d)`` in place of ``(e, u, d)``, so a shifted run is a
plain switched run on the residual disturbance.

Exact runs of the two quantized laws step on an integer lattice.  Every
exact input is a rational, so let D be the lcm of the denominators of
alpha, e0, u0 and the disturbance's per-step values.  Each step adds
integers and d to e, and adds integers and alpha times an integer to u or
resets u to an integer, so (e, u) stays on (1/D)Z.  The kernel holds the
state as the int pair (E, U) = (D e, D u): rho is one floor division,
(2|E| + D) // 2D with the sign of E, so ties go away from zero; the reset
is (rho(u) + rho(e)) D and state equality is int equality.  ``Fraction``
appears only at the boundary, one per lattice point visited.  Float runs
and the unquantized law (alpha e leaves the lattice) step with the generic
laws, the kernel's test oracle.  One loop in :func:`simulate` runs either
step function.

A :class:`Trajectory` stores a run as per-step columns with the step ``k``
implicit: ``e``, ``u``, ``rho_e``, ``rho_u``, ``d`` and the branch.  Every
disturbance holds its last value from some step on, so the ``d`` column is
a period-1 :class:`Lasso` (:meth:`Disturbance.column`), and a run is
autonomous from its *steady step* (:func:`steady_step`): the least step
from which d keeps its last value, 0 for a constant.  An exact run's first
state recurrence (j, k) with j at or after that step is therefore final:
step k and every later step repeat steps j..k-1.  Every exact run, under
all three laws, stops there and stores each column as a :class:`Lasso`:
steps 0..k-1, the entry j and the logical length horizon + 1.  The branch
column, which is ``n/a`` at step 0 whatever the state, enters at
max(j, 1).  Memory is then O(entry + period) whatever the horizon.  A
float run, and an exact run whose recurrence lies beyond the horizon,
stores plain tuples, which :func:`lasso_shape` treats as the lasso with no
period: consumers take one path, doing their per-step work over the stored
steps and expanding to logical steps only where they report them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

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


def _identity(z: Scalar) -> Scalar:
    return z


def _law(alpha, quantize, switched, state, d):
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


def _rho_scaled(x: int, den: int) -> int:
    """``round_half_away(x / den)`` for an int ``x`` and ``den > 0``: the
    floor of ``|x| / den + 1/2`` with the sign of ``x``, one division."""
    if x >= 0:
        return (2 * x + den) // (2 * den)
    return -((den - 2 * x) // (2 * den))


def _scaled(z: Scalar, den: int) -> int:
    """``den * z`` for an exact ``z`` whose denominator divides ``den``."""
    return z.numerator * (den // z.denominator)


def _lattice_step(alpha, den, switched, state, d):
    """One exact step of a quantized law on the lattice (1/den)Z.

    ``state`` is ``(e, u, rho_e, rho_u)``: ``e``, ``u``, and likewise ``d``
    and ``alpha``, are the scaled ints ``den * value``; ``rho_e`` and
    ``rho_u`` are the quantized views of the current state.  Returns the
    next state.  ``switched`` selects the switched law's reset on steps
    whose new quantized error is zero.
    """
    e, u, rho_e, rho_u = state
    e1 = e + rho_u * den + d
    rho_e1 = _rho_scaled(e1, den)
    if switched and rho_e1 == 0:
        u1 = (rho_u + rho_e) * den
    else:
        u1 = u + rho_e * den - alpha * rho_e1
    return e1, u1, rho_e1, _rho_scaled(u1, den)


def checked_mode(mode: str) -> str:
    """``mode`` if it names an arithmetic mode (exact or float)."""
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown arithmetic mode: {mode!r}")
    return mode


def stable_gain(alpha: Scalar) -> Scalar:
    """``alpha`` if it lies in (1, 3), where the loop is stable."""
    if not 1 < alpha < 3:
        raise ValueError(
            f"alpha={alpha} is outside (1, 3); the loop is unstable")
    return alpha


def in_capture_range(alpha: Scalar) -> bool:
    """True for gains in (1, 3/2), the range that the capture analysis and
    the sweep's classification cover."""
    return 1 < alpha < Fraction(3, 2)


@dataclass(frozen=True)
class Disturbance:
    """Disturbance signal on the control input.

    ``constant`` holds one value forever.  ``piecewise-linear`` holds the
    first breakpoint value before the first breakpoint, interpolates
    linearly between breakpoints, and holds the last value afterwards.
    ``samples`` is an explicit per-step list, holding its last value.
    """

    kind: str
    value: Optional[Scalar] = None
    breakpoints: tuple = ()
    samples: tuple = ()

    def __post_init__(self):
        if self.kind == "constant":
            if self.value is None:
                raise ValueError("constant disturbance needs a value")
        elif self.kind == "piecewise-linear":
            if not self.breakpoints:
                raise ValueError("piecewise-linear disturbance needs breakpoints")
            steps = [k for k, _ in self.breakpoints]
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise ValueError("breakpoint steps must be strictly increasing")
        elif self.kind == "samples":
            if not self.samples:
                raise ValueError("samples disturbance needs at least one value")
        else:
            raise ValueError(f"unknown disturbance kind: {self.kind!r}")

    @classmethod
    def constant(cls, value: Scalar) -> "Disturbance":
        return cls(kind="constant", value=value)

    @classmethod
    def ramp(cls, breakpoints: Sequence) -> "Disturbance":
        return cls(kind="piecewise-linear",
                   breakpoints=tuple((int(k), v) for k, v in breakpoints))

    @classmethod
    def from_samples(cls, values: Sequence[Scalar]) -> "Disturbance":
        return cls(kind="samples", samples=tuple(values))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def eval(self, k: int) -> Scalar:
        """Disturbance value at step ``k >= 0``."""
        if k < 0:
            raise ValueError("step index must be non-negative")
        if self.kind == "constant":
            return self.value
        if self.kind == "samples":
            return self.samples[min(k, len(self.samples) - 1)]
        points = self.breakpoints
        if k <= points[0][0]:
            return points[0][1]
        if k >= points[-1][0]:
            return points[-1][1]
        for (k0, v0), (k1, v1) in zip(points, points[1:]):
            if k0 <= k <= k1:
                return v0 + (v1 - v0) * Fraction(k - k0, k1 - k0)
        raise AssertionError("unreachable")

    def column(self, n: int) -> "Lasso":
        """The values at steps 0..n-1 as a period-1 lasso, stored up to the
        step from which the signal holds its last value (0, the last sample
        or the last breakpoint floored at 0), clamped to n - 1."""
        if self.kind == "constant":
            held = 0
        elif self.kind == "samples":
            held = len(self.samples) - 1
        else:
            held = max(self.breakpoints[-1][0], 0)
        held = min(held, n - 1)
        return Lasso(tuple(map(self.eval, range(held + 1))), held, n)

    def scalars(self) -> list:
        if self.kind == "constant":
            return [self.value]
        if self.kind == "samples":
            return list(self.samples)
        return [v for _, v in self.breakpoints]


@dataclass(frozen=True)
class LoopConfig:
    """Full description of one simulation run."""

    alpha: Scalar
    controller: str
    disturbance: Disturbance
    e0: Scalar
    u0: Scalar
    horizon: int
    mode: str = "exact"

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller: {self.controller!r}")
        checked_mode(self.mode)
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        stable_gain(self.alpha)

    @property
    def alpha_in_attractive_range(self) -> bool:
        """Gain range for which the minimal set is a global attractor."""
        return Fraction(5, 4) < self.alpha < Fraction(3, 2)

    def resolved_mode(self) -> str:
        """Arithmetic mode the run will actually use.

        A config declared exact but containing any float input is promoted
        to float for the whole run.
        """
        if self.mode == "float":
            return "float"
        inputs = [self.alpha, self.e0, self.u0, *self.disturbance.scalars()]
        if any(not is_exact(z) for z in inputs):
            return "float"
        return "exact"


@dataclass(frozen=True)
class TrajectoryRecord:
    """One time step: state, its quantized views, the disturbance applied
    at this step, and the controller branch that produced the state."""

    k: int
    e: Scalar
    u: Scalar
    rho_e: int
    rho_u: int
    d: Scalar
    mode: str


@dataclass(frozen=True)
class Lasso(Sequence):
    """A per-step column stored up to the step from which it repeats (a
    run's first state recurrence, a disturbance's last value): ``stored``
    holds steps 0..entry+period-1, and every later step k < length repeats
    step ``entry + (k - entry) % period``.  Slices are tuples."""

    stored: tuple
    entry: int
    length: int

    @property
    def period(self) -> int:
        return len(self.stored) - self.entry

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, k):
        if isinstance(k, slice):
            steps = range(*k.indices(self.length))
            if steps.step != 1:
                return tuple(map(self.__getitem__, steps))
            lo = max(steps.start, len(self.stored))
            skip = (lo - self.entry) % self.period
            cycle = itertools.cycle(self.stored[self.entry:])
            return self.stored[steps.start:steps.stop] + tuple(
                itertools.islice(cycle, skip, skip + max(steps.stop - lo, 0)))
        if k < 0:
            k += self.length
        if not 0 <= k < self.length:
            raise IndexError("lasso index out of range")
        if k >= len(self.stored):
            k = self.entry + (k - self.entry) % self.period
        return self.stored[k]

    def __iter__(self) -> Iterator:
        cycle = itertools.cycle(self.stored[self.entry:])
        return itertools.chain(self.stored, itertools.islice(
            cycle, self.length - len(self.stored)))


def lasso_shape(*columns: Sequence) -> tuple:
    """``(entry, period)`` shared by per-step ``columns`` of one run: in each
    of them every step k >= entry + period repeats step k - period.  A plain
    sequence is the lasso with no period, so any of them makes it
    ``(len, 0)``."""
    if not all(isinstance(column, Lasso) for column in columns):
        return len(columns[0]), 0
    return (max(column.entry for column in columns),
            math.lcm(*(column.period for column in columns)))


def steady_step(d: Sequence) -> int:
    """The least step from which the disturbance column ``d`` (a tuple or
    a period-1 lasso) keeps its last value, by exact equality."""
    values = d.stored if isinstance(d, Lasso) else d
    s = max(len(values) - 1, 0)
    while s and values[s - 1] == values[-1]:
        s -= 1
    return s


def map_steps(fn, column: Sequence) -> Sequence:
    """The column of ``fn(value)``, in the same layout (lasso or tuple),
    with ``fn`` called once per stored step."""
    if isinstance(column, Lasso):
        stored = tuple(map(fn, column.stored))
        return dataclasses.replace(column, stored=stored)
    return tuple(map(fn, column))


def _branches(rho_e: Sequence[int], switched: bool) -> tuple:
    """The branch column: which switched-law branch produced each state."""
    zero, nonzero = (MODE_ZERO, MODE_NONZERO) if switched else (MODE_NA,) * 2
    return (MODE_NA, *[zero if r == 0 else nonzero for r in rho_e[1:]])


@dataclass(frozen=True)
class Trajectory:
    """A run as columns with one entry per step ``k = 0 .. horizon`` (see
    the module docstring for the layout).  ``records`` gives a per-step
    view."""

    e: Sequence
    u: Sequence
    rho_e: Sequence
    rho_u: Sequence
    d: Sequence
    branch: Sequence
    mode: str = "exact"

    def __len__(self) -> int:
        return len(self.rho_e)

    @cached_property
    def records(self) -> tuple:
        """The run as per-step records, built on first use."""
        return tuple(map(TrajectoryRecord, itertools.count(), self.e, self.u,
                         self.rho_e, self.rho_u, self.d, self.branch))


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
    d = map_steps(coerce, config.disturbance.column(n))
    if lattice:
        den = math.lcm(*(z.denominator for z in (alpha, e, u, *d.stored)))
        e, u = _scaled(e, den), _scaled(u, den)
        # both step functions take (alpha, q, switched, state, d), where q
        # is the kernel's den or the generic law's quantizer
        step, alpha, q = _lattice_step, _scaled(alpha, den), den
        state = e, u, _rho_scaled(e, den), _rho_scaled(u, den)
        inputs = map_steps(lambda z: _scaled(z, den), d)
    else:
        step, q = _law, round_half_away if quantized else _identity
        state, inputs = (e, u), d

    # A lattice state carries its quantized views, which (e, u) determine,
    # so the whole state is the recurrence key.
    steady = steady_step(d) if mode == "exact" else n
    states, seen, entry = [state], {}, None
    if not steady:
        seen[state] = 0
    for k, d_k in enumerate(itertools.islice(inputs, n - 1), 1):
        state = step(alpha, q, switched, state, d_k)
        if k >= steady:
            j = seen.setdefault(state, k)
            if j < k:
                entry = j
                break
        states.append(state)

    e, u, *rho = zip(*states)
    if lattice:
        value = {x: Fraction(x, den) for x in {*e, *u}}.__getitem__
        e, u = tuple(map(value, e)), tuple(map(value, u))
    else:
        rho = tuple(map(round_half_away, e)), tuple(map(round_half_away, u))
    rho_e, rho_u = rho

    def column(values, start=entry) -> Sequence:
        return values if entry is None else Lasso(values, start, n)

    if entry == 0:  # step k = period has a branch, unlike step 0
        branch = column(_branches(rho_e + rho_e[:1], switched), 1)
    else:
        branch = column(_branches(rho_e, switched))
    return Trajectory(column(e), column(u), column(rho_e), column(rho_u), d,
                      branch, mode)


def shift_trajectory(traj: Trajectory, dbar: Scalar) -> Trajectory:
    """Map a constant-disturbance run into shifted coordinates.

    The control input becomes ``u + rho(dbar)`` and the disturbance the
    rounding error ``d - rho(dbar)``, both computed once per stored step.
    The quantized view of the shifted control is recomputed by rounding
    rather than by offsetting rho(u): the two differ when u sits exactly
    on a half-integer that the shift moves across zero.
    """
    offset = round_half_away(dbar)
    u = map_steps(lambda z: z + offset, traj.u)
    return dataclasses.replace(
        traj, u=u, rho_u=map_steps(round_half_away, u),
        d=map_steps(lambda z: z - offset, traj.d))


@contextlib.contextmanager
def atomic_open(path, **kwargs):
    """Open a temporary file beside ``path`` for writing (``kwargs`` as for
    :func:`open`).  It replaces ``path`` when the block ends and is removed
    if the block raises, so ``path`` is never left half written."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path, header: Sequence, rows) -> None:
    """Write a CSV of a ``header`` row and ``rows`` atomically to ``path``."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


#: Rows of a dense trajectory formatted per write.
_CSV_CHUNK = 1024


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with the canonical column order.

    The text after ``k`` is formatted once per stored step (a chunk at a
    time) and written again for every step that repeats it, one period at
    a time.  No field holds a line break, so the CSV rows of a chunk split
    at line ends.
    """
    columns = (traj.e, traj.u, traj.rho_e, traj.rho_u, traj.d, traj.branch)
    n = len(traj)
    entry, period = lasso_shape(*columns)
    stored = min(n, entry + period)

    def tails(lo: int, hi: int) -> list:
        e, u, rho_e, rho_u, d, branch = (c[lo:hi] for c in columns)
        buf = io.StringIO()
        csv.writer(buf).writerows(zip(
            map(format_scalar, e), map(format_scalar, u), rho_e, rho_u,
            map(format_scalar, d), branch))
        return buf.getvalue().split("\r\n")[:-1]

    def rows(k: int, lines: list) -> str:
        return "".join(map("{},{}\r\n".format, itertools.count(k), lines))

    with atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow(TRAJECTORY_COLUMNS)
        for lo in range(0, stored, _CSV_CHUNK):
            fh.write(rows(lo, tails(lo, min(lo + _CSV_CHUNK, stored))))
        if stored < n:
            cycle = tails(entry, stored)
            for lo in range(stored, n, period):
                fh.write(rows(lo, cycle[:n - lo]))
