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
alpha, e0, u0 and every disturbance value (for a piecewise-linear
disturbance, each segment contributes its value denominators times its
length, which covers the interpolated values).  Each step adds integers and
d to e, and adds integers and alpha times an integer to u or resets u to an
integer, so (e, u) stays on (1/D)Z.  The kernel holds the state as the int
pair (E, U) = (D e, D u): rounding is one ``divmod`` with the half-away tie
test ``2 r >= D``, the reset is ``(rho(u) + rho(e)) D`` and state equality
is int equality.  ``Fraction`` appears only at the boundary, in the records.
Float runs and the unquantized law (alpha e leaves the lattice) step with
the generic laws, which also serve as the kernel's test oracle.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .numerics import (
    Scalar,
    format_scalar,
    is_exact,
    parse_csv_scalar,
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


def plant_step(e: Scalar, u: Scalar, d: Scalar) -> Scalar:
    """One integrator step: ``e + rho(u) + d``."""
    return e + round_half_away(u) + d


def _standard_law(e, u, d, alpha, quantize):
    e1 = e + quantize(u) + d
    u1 = u + quantize(e) - alpha * quantize(e1)
    return e1, u1


def _switched_law(e, u, d, alpha, quantize):
    e1 = e + quantize(u) + d
    if quantize(e1) == 0:
        u1 = quantize(u) + quantize(e)
        if isinstance(u, float):
            u1 = float(u1)  # the sum of quantized values is an int
    else:
        u1 = u + quantize(e) - alpha * quantize(e1)
    return e1, u1


def _rho_scaled(x: int, den: int) -> int:
    """``round_half_away(x / den)`` for an int ``x`` and ``den > 0``."""
    if x >= 0:
        q, r = divmod(x, den)
        return q + 1 if 2 * r >= den else q
    q, r = divmod(-x, den)
    return -q - 1 if 2 * r >= den else -q


def _scaled(z: Scalar, den: int) -> int:
    """``den * z`` for an exact ``z`` whose denominator divides ``den``."""
    return z.numerator * (den // z.denominator)


def _lattice_step(e, u, rho_e, rho_u, d, alpha, den, switched):
    """One exact step of a quantized law on the lattice (1/den)Z.

    ``e``, ``u``, ``d`` and ``alpha`` are the scaled ints ``den * value``;
    ``rho_e`` and ``rho_u`` are the quantized views of the current state.
    Returns the next ``(e, u, rho_e, rho_u)``.  ``switched`` selects the
    switched law's reset on steps whose new quantized error is zero.
    """
    e1 = e + rho_u * den + d
    rho_e1 = _rho_scaled(e1, den)
    if switched and rho_e1 == 0:
        u1 = (rho_u + rho_e) * den
    else:
        u1 = u + rho_e * den - alpha * rho_e1
    return e1, u1, rho_e1, _rho_scaled(u1, den)


def _lattice_denominator(*values: Scalar) -> int:
    """Least D such that ``D * z`` is an int for every exact ``z``."""
    return math.lcm(*(Fraction(z).denominator for z in values))


@dataclass(frozen=True)
class LoopState:
    """Plant output / control input pair at step ``k``."""

    e: Scalar
    u: Scalar
    k: int = 0


@dataclass(frozen=True)
class ShiftedState:
    """State in shifted coordinates: ``u_bar = u + rho(dbar)``."""

    e: Scalar
    u_bar: Scalar
    k: int = 0

    def to_loop_state(self, dbar: Scalar) -> LoopState:
        return LoopState(self.e, -round_half_away(dbar) + self.u_bar, self.k)

    @classmethod
    def from_loop_state(cls, state: LoopState, dbar: Scalar) -> "ShiftedState":
        return cls(state.e, state.u + round_half_away(dbar), state.k)


def standard_pi_step(state: LoopState, d_k: Scalar, alpha: Scalar) -> LoopState:
    """Advance the loop one step under the standard PI law."""
    e1, u1 = _standard_law(state.e, state.u, d_k, alpha, round_half_away)
    return LoopState(e1, u1, state.k + 1)


def switched_pi_step(state: LoopState, d_k: Scalar, alpha: Scalar) -> LoopState:
    """Advance the loop one step under the switched PI law."""
    e1, u1 = _switched_law(state.e, state.u, d_k, alpha, round_half_away)
    return LoopState(e1, u1, state.k + 1)


def shifted_switched_step(
    state: ShiftedState, delta_d: Scalar, alpha: Scalar
) -> ShiftedState:
    """Advance the shifted switched loop one step.

    Only defined for a constant disturbance: ``delta_d`` is its rounding
    error and must not change between calls within one run.
    """
    e1, u1 = _switched_law(state.e, state.u_bar, delta_d, alpha, round_half_away)
    return ShiftedState(e1, u1, state.k + 1)


def unquantized_pi_step(state: LoopState, d_k: Scalar, alpha: Scalar) -> LoopState:
    """Advance the loop one step with both quantizers removed."""
    e1, u1 = _standard_law(state.e, state.u, d_k, alpha, _identity)
    return LoopState(e1, u1, state.k + 1)


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

    def denominator(self) -> int:
        """Least D such that ``D * eval(k)`` is an int for every step ``k``
        (exact values only).  A ramp segment's interpolated values have
        denominators dividing its value denominators times its length."""
        if self.kind != "piecewise-linear":
            return _lattice_denominator(*self.scalars())
        points = self.breakpoints
        den = _lattice_denominator(points[0][1])
        for (k0, v0), (k1, v1) in zip(points, points[1:]):
            den = math.lcm(den, _lattice_denominator(v0, v1) * (k1 - k0))
        return den

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
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown arithmetic mode: {self.mode!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not 1 < self.alpha < 3:
            raise ValueError(
                f"alpha={self.alpha} is outside (1, 3); the loop is unstable"
            )

    @property
    def alpha_in_capture_range(self) -> bool:
        """Gain range required by the invariant-capture analysis."""
        return 1 < self.alpha < Fraction(3, 2)

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
class Trajectory:
    """Dense per-step record of a run, plus the config that produced it."""

    records: tuple
    mode: str = "exact"
    config: Optional[LoopConfig] = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def quantized_pairs(self) -> list:
        return [(r.rho_e, r.rho_u) for r in self.records]

    def states(self) -> list:
        return [(r.e, r.u) for r in self.records]


def _coerce(z: Scalar, mode: str) -> Scalar:
    if mode == "float":
        return float(z)
    return Fraction(z)


def simulate(config: LoopConfig) -> Trajectory:
    """Run ``config`` and return the full trajectory (horizon + 1 records).

    Deterministic: equal configs produce equal trajectories.
    """
    if config.controller == "switched-pi":
        if not config.alpha_in_capture_range:
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
    if mode == "exact" and config.controller != "unquantized-pi":
        return Trajectory(tuple(_lattice_records(config)), mode, config)

    if config.controller == "standard-pi":
        law, quantize = _standard_law, round_half_away
    elif config.controller == "switched-pi":
        law, quantize = _switched_law, round_half_away
    else:
        law, quantize = _standard_law, _identity

    annotate = config.controller == "switched-pi"
    dist = config.disturbance
    alpha = _coerce(config.alpha, mode)
    e = _coerce(config.e0, mode)
    u = _coerce(config.u0, mode)

    d_k = _coerce(dist.eval(0), mode)
    records = [TrajectoryRecord(0, e, u, round_half_away(e), round_half_away(u),
                                d_k, MODE_NA)]
    for k in range(config.horizon):
        e, u = law(e, u, d_k, alpha, quantize)
        rho_e = round_half_away(e)
        if annotate:
            branch = MODE_ZERO if rho_e == 0 else MODE_NONZERO
        else:
            branch = MODE_NA
        d_k = _coerce(dist.eval(k + 1), mode)
        records.append(TrajectoryRecord(k + 1, e, u, rho_e, round_half_away(u),
                                        d_k, branch))
    return Trajectory(tuple(records), mode, config)


def _lattice_records(config: LoopConfig) -> list:
    """Records of an exact quantized run, stepped by :func:`_lattice_step`."""
    switched = config.controller == "switched-pi"
    zero_branch = MODE_ZERO if switched else MODE_NA
    nonzero_branch = MODE_NONZERO if switched else MODE_NA
    dist = config.disturbance
    if dist.is_constant:
        d_values = itertools.repeat(Fraction(dist.value))
    else:
        d_values = (Fraction(dist.eval(k)) for k in itertools.count())
    den = math.lcm(_lattice_denominator(config.alpha, config.e0, config.u0),
                   dist.denominator())
    alpha = _scaled(config.alpha, den)
    e, u = _scaled(config.e0, den), _scaled(config.u0, den)
    rho_e, rho_u = _rho_scaled(e, den), _rho_scaled(u, den)
    # Under a constant disturbance an exact run is eventually periodic, so
    # the records share one value per lattice point visited instead of
    # building two Fractions per step.  Integer points (every reset of u)
    # stay ints, which later record-wise arithmetic handles much faster.
    values: dict = {}

    def value(x: int) -> Scalar:
        z = values.get(x)
        if z is None:
            q, r = divmod(x, den)
            z = values[x] = Fraction(x, den) if r else q
        return z

    d_k = next(d_values)
    records = [TrajectoryRecord(0, value(e), value(u), rho_e, rho_u, d_k,
                                MODE_NA)]
    for k in range(1, config.horizon + 1):
        e, u, rho_e, rho_u = _lattice_step(e, u, rho_e, rho_u,
                                           _scaled(d_k, den), alpha, den,
                                           switched)
        d_k = next(d_values)
        records.append(TrajectoryRecord(
            k, value(e), value(u), rho_e, rho_u, d_k,
            zero_branch if rho_e == 0 else nonzero_branch))
    return records


def simulate_shifted(
    alpha: Scalar,
    delta_d: Scalar,
    e0: Scalar,
    u_bar0: Scalar,
    horizon: int,
    mode: str = "exact",
) -> Trajectory:
    """Run the switched loop in shifted coordinates.

    The returned trajectory's ``u`` column holds ``u_bar`` and its ``d``
    column holds ``delta_d``; the recurrences are the switched ones, which
    coincide with the shifted ones for a constant disturbance.
    """
    config = LoopConfig(alpha=alpha, controller="switched-pi",
                        disturbance=Disturbance.constant(delta_d),
                        e0=e0, u0=u_bar0, horizon=horizon, mode=mode)
    return simulate(config)


def shift_trajectory(traj: Trajectory, dbar: Scalar) -> Trajectory:
    """Map a constant-disturbance run into shifted coordinates.

    Each record's control input becomes ``u + rho(dbar)`` and its
    disturbance column becomes the rounding error ``d - rho(dbar)``.
    The quantized view of the shifted control is recomputed by rounding
    rather than by offsetting rho(u): the two differ when u sits exactly
    on a half-integer that the shift moves across zero.
    """
    offset = round_half_away(dbar)
    records = tuple(
        TrajectoryRecord(r.k, r.e, r.u + offset, r.rho_e,
                         round_half_away(r.u + offset), r.d - offset, r.mode)
        for r in traj.records
    )
    return Trajectory(records, traj.mode, traj.config)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with the canonical column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in traj.records:
            writer.writerow([r.k, format_scalar(r.e), format_scalar(r.u),
                             r.rho_e, r.rho_u, format_scalar(r.d), r.mode])


def read_trajectory_csv(path, mode: str = "exact") -> Trajectory:
    """Read a trajectory CSV back; ``mode`` selects the scalar parser.

    Exact-mode round trips are bit-exact.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        for row in reader:
            records.append(TrajectoryRecord(
                int(row[0]), parse_csv_scalar(row[1], mode),
                parse_csv_scalar(row[2], mode), int(row[3]), int(row[4]),
                parse_csv_scalar(row[5], mode), row[6]))
    return Trajectory(tuple(records), mode, None)
