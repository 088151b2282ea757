"""Scenario and campaign runners with CSV/report export.

The comparison campaign runs the standard and the switched PI controller
from rest (e0 = u0 = 0) against a list of constant disturbances and scores
each run by the root-mean-square of the quantized error over the horizon:

    rms = sqrt( (1/H) * sum_{i=0..H-1} rho(e(i))^2 )

The window starts at step 0 on purpose: the transient is part of the
score.  By the odd symmetry of the loop, +dbar and -dbar give identical
scores from rest; the runner computes both and treats any asymmetry as a
hard error since it would falsify the reported table.
"""

import contextlib
import json
import math
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import analysis
from .dynamics import (
    Disturbance,
    LoopConfig,
    Trajectory,
    atomic_open,
    capture_gain,
    checked_count,
    rule,
    shift_trajectory,
    simulate,
    stable_gain,
    validated,
    write_csv,
    write_trajectory_csv,
)
from .numerics import (
    SQRT2_MINUS_1,
    Scalar,
    format_scalar,
    is_exact,
    parse_scalar,
    rounding_error,
)

#: Disturbance magnitudes of the reference comparison table.  All exact
#: rationals except the deliberately irrational last entry.
TABLE1_DISTURBANCES = (
    Fraction(1, 100), Fraction(1, 50), Fraction(1, 25), Fraction(1, 20),
    Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), SQRT2_MINUS_1,
)

TABLE1_CSV_COLUMNS = ("disturbance", "rms_standard", "rms_switched",
                      "improvement")


@validated
class CampaignSpec(NamedTuple):
    """Comparison campaign: disturbance magnitudes, gain and horizon."""

    disturbances: tuple = TABLE1_DISTURBANCES
    alpha: Scalar = Fraction(11, 8)
    horizon: int = 1000

    _rules = {"alpha": stable_gain, "horizon": checked_count}


class RmsRow(NamedTuple):
    """One table row: scores of both controllers for one |dbar|."""

    disturbance: Scalar
    rms_standard: float
    rms_switched: float
    improvement: float


def rms_quantized_error(traj: Trajectory, horizon: int) -> float:
    """RMS of the quantized error over steps 0..horizon-1: each stored
    step's square counts once per step before the horizon that repeats it
    (:meth:`Trajectory.counts`), an exact int sum in one pass."""
    checked_count(horizon)
    if traj.length < horizon:
        raise ValueError(
            f"trajectory has {traj.length} records, horizon {horizon} needs "
            f"at least {horizon}")
    total = sum(rho_e * rho_e * count for rho_e, count
                in zip(traj.rho_e, traj.counts(horizon)) if rho_e)
    return math.sqrt(total / horizon)


def _campaign_rms(spec: CampaignSpec, controller: str, dbar: Scalar) -> float:
    mode = "exact" if is_exact(dbar) and is_exact(spec.alpha) else "float"
    config = LoopConfig(alpha=spec.alpha, controller=controller,
                        disturbance=Disturbance.constant(dbar),
                        e0=0, u0=0, horizon=spec.horizon,
                        mode=mode)
    return rms_quantized_error(simulate(config), spec.horizon)


def run_table1(spec: Optional[CampaignSpec] = None) -> list:
    """Run the comparison campaign; one row per disturbance magnitude.

    Each magnitude is simulated at +dbar and -dbar for both controllers;
    the scores must agree (exactly in exact arithmetic, to within float
    noise otherwise) and the row reports the +dbar value.
    """
    spec = spec or CampaignSpec()
    rows = []
    for dbar in spec.disturbances:
        scores = {}
        for controller in ("standard-pi", "switched-pi"):
            plus = _campaign_rms(spec, controller, dbar)
            minus = _campaign_rms(spec, controller, -dbar)
            if abs(plus - minus) > 1e-12:
                raise ArithmeticError(
                    f"sign symmetry violated for {controller}, dbar={dbar}: "
                    f"{plus} vs {minus}")
            scores[controller] = plus
        std, sw = scores["standard-pi"], scores["switched-pi"]
        improvement = (std - sw) / std if std > 0 else 0.0
        rows.append(RmsRow(dbar, std, sw, improvement))
    return rows


def write_table1_csv(rows: Sequence[RmsRow], path) -> None:
    write_csv(path, TABLE1_CSV_COLUMNS, (
        [format_scalar(row.disturbance), f"{row.rms_standard:.3f}",
         f"{row.rms_switched:.3f}", f"{row.improvement:.3f}"]
        for row in rows))


def format_table1(rows: Sequence[RmsRow]) -> str:
    lines = ["disturbance      standard   switched   improvement"]
    for row in rows:
        lines.append(f"{format_scalar(row.disturbance):<16} "
                     f"{row.rms_standard:>8.3f} {row.rms_switched:>10.3f} "
                     f"{row.improvement:>12.3f}")
    return "\n".join(lines)


def read_json(path) -> dict:
    """Load a JSON config object; decimal numbers stay text, so they parse
    exactly.  Errors name the file (and the line of a syntax error)."""
    with open(path) as fh:
        try:
            raw = json.load(fh, parse_float=str)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return raw


def output_dir(path) -> Path:
    """The output directory ``path``, created with its parents if missing."""
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_json(data: dict, path) -> Path:
    """Write a JSON report, indented and newline-terminated; returns path."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(data, indent=2) + "\n").encode())
    return path


def _unknown_key(raw: dict, keys, prefix: str = "") -> Optional[str]:
    """The dotted path of the first key of ``raw`` that is neither one of
    the dotted ``keys`` nor a block above one of them, or None."""
    for key, value in raw.items():
        path = prefix + key
        if path in keys:
            continue
        if not any(k.startswith(path + ".") for k in keys):
            return path
        if isinstance(value, dict):
            found = _unknown_key(value, keys, path + ".")
            if found:
                return found
    return None


def load_config(path, record: type, keys: dict, raw: Optional[dict] = None):
    """The ``record`` of a JSON config: the file at ``path`` (none: ``{}``)
    or its object ``raw`` already read.  ``keys`` maps each dotted key, in
    read order, to its ``(field, parser)``; a key is read when its top-level
    block is in the config or its field has no default.  A value is parsed,
    then checked by its field's rule, if any; errors name the path and the
    key path.  A key outside ``keys``, at any depth, is an error."""
    raw = raw if raw is not None else read_json(path) if path else {}
    if unknown := _unknown_key(raw, keys):
        raise ValueError(f"{path}: unknown key {unknown!r}")
    fields = {}
    for key, (name, parse) in keys.items():
        if key.split(".")[0] not in raw and name in record._field_defaults:
            continue
        value = raw
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ValueError(f"{path}: missing key {key!r}")
            value = value[part]
        try:
            value, rule = parse(value), record._rules.get(name)
            fields[name] = rule(value) if rule else value
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None
    return record(**fields)


def parse_int(value) -> int:
    """An integer config value: a JSON integer or a string of one.  A scalar
    literal with a fractional part is read as that scalar, so its error
    reads as a record built in code reads; other text is shown as written."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            with contextlib.suppress(ValueError):
                scalar = parse_scalar(value)
                value = scalar if scalar % 1 else value  # "1000.0" stays text
    return checked_count(value, -math.inf)  # a field's rule bounds it


def parse_list(values, parse=parse_scalar) -> list:
    if not isinstance(values, list):
        raise TypeError(f"expected a JSON list, got {values!r}")
    return [parse(v) for v in values]


def _parse_breakpoint(point) -> tuple:
    if not isinstance(point, list) or len(point) != 2:
        raise TypeError(f"expected a [step, value] pair, got {point!r}")
    return parse_int(point[0]), parse_scalar(point[1])


#: The payload key of each disturbance kind.
_PAYLOADS = {"constant": "disturbance.value",
             "piecewise-linear": "disturbance.breakpoints"}

#: The LoopConfig field and the parser of each key of a scenario config, in
#: read order; a disturbance is its kind's payload, built in the parser.
SCENARIO_KEYS = {
    "disturbance.kind": ("disturbance", lambda kind: rule(
        _PAYLOADS.__contains__, "unknown disturbance kind {!r}")(str(kind))),
    "disturbance.value": ("disturbance",
                          lambda v: Disturbance.constant(parse_scalar(v))),
    "disturbance.breakpoints": ("disturbance", lambda v: Disturbance.ramp(
        parse_list(v, _parse_breakpoint))),
    "mode": ("mode", str), "alpha": ("alpha", parse_scalar),
    "controller": ("controller", str), "e0": ("e0", parse_scalar),
    "u0": ("u0", parse_scalar), "horizon": ("horizon", parse_int)}


def load_scenario(path) -> LoopConfig:
    """Load a scenario config from JSON.

    Keys: alpha, controller, disturbance (kind + payload), e0, u0,
    horizon, mode.  Scalar values may be strings in the literal syntax of
    :func:`quantloop.numerics.parse_scalar` or bare integers; decimal
    numbers should be quoted so they stay exact.  Raises ValueError with
    the offending key on malformed input.
    """
    raw = read_json(path)
    block = raw.get("disturbance")
    # a known kind allows its own payload key, any other kind fails first
    own = isinstance(block, dict) and _PAYLOADS.get(str(block.get("kind")))
    return load_config(path, LoopConfig, {
        key: pair for key, pair in SCENARIO_KEYS.items()
        if not own or key == own or key not in _PAYLOADS.values()}, raw)


#: The GridSpec field and the parser of each key of a grid config.
GRID_KEYS = {
    "alpha.lo": ("alpha_lo", parse_scalar),
    "alpha.hi": ("alpha_hi", parse_scalar),
    "alpha.count": ("alpha_count", parse_int),
    "delta_d.lo": ("delta_d_lo", parse_scalar),
    "delta_d.hi": ("delta_d_hi", parse_scalar),
    "delta_d.count": ("delta_d_count", parse_int),
    "init.box": ("init_box", parse_scalar),
    "init.count": ("init_count", parse_int), "budget": ("budget", parse_int)}

#: The CampaignSpec field and the parser of each key of a campaign config.
CAMPAIGN_KEYS = {
    "disturbances": ("disturbances", lambda v: tuple(parse_list(v))),
    "alpha": ("alpha", parse_scalar), "horizon": ("horizon", parse_int)}


#: The analyses' preconditions in check order: the rule of the value at a
#: key path of a scenario config, and the commands that check it.
PRECONDITIONS = {
    "disturbance.kind": (
        rule(("constant",).__contains__,
             "the analysis needs a constant disturbance, got {!r}"),
        ("cycles", "analyze")),
    "controller": (
        rule(("switched-pi",).__contains__,
             "the capture analysis needs 'switched-pi', got {!r}"),
        ("analyze",)),
    "alpha": (capture_gain, ("analyze",)),
}


def checked_analyzable(config: LoopConfig, command: str = "analyze",
                       source="scenario") -> LoopConfig:
    """``config`` if it meets the preconditions of the scenario command
    ``command``; an error names the source and the key path."""
    for path, (rule, commands) in PRECONDITIONS.items():
        if command in commands:
            try:
                rule(attrgetter(path)(config))
            except ValueError as exc:
                raise ValueError(f"{source}: key {path!r}: {exc}") from None
    return config


def analyze_trajectory(traj: Trajectory, config: LoopConfig,
                       command: str = "analyze") -> dict:
    """The ``analyze`` or ``cycles`` report of a run of ``config``, in
    shifted coordinates: ``delta_d`` and the cycle, detected and, for an
    exact switched-pi run, predicted; ``analyze`` adds the capture,
    control-lock and error-band verdicts.  A config outside that command's
    preconditions is rejected."""
    checked_analyzable(config, command)
    dbar = traj.d[0]  # already coerced to the run's mode
    delta_d, shifted = rounding_error(dbar), shift_trajectory(traj, dbar)
    report: dict = {"delta_d": format_scalar(delta_d)}
    if command == "analyze":
        capture = analysis.verify_capture(
            shifted, analysis.EntryRegion(config.alpha, delta_d))
        report["capture"] = capture._asdict()
        if capture.status != "not-entered":
            report["control-lock"] = analysis.verify_control_lock(
                shifted, config.alpha, capture.entry_step)._asdict()

    cycle = analysis.detect_cycle(shifted)
    report["cycle"] = cycle.to_record()
    if shifted.mode == "exact" and config.controller == "switched-pi":
        predicted = analysis.predict_cycle(delta_d)
        report["predicted-cycle"] = predicted.to_record()
        # the same periodicity, switch count and period
        report["cycle-agreement"] = cycle[:3] == predicted[:3]

    if command == "analyze" and cycle.periodic \
            and abs(delta_d) < Fraction(1, 2):
        band = analysis.cycle_error_band(delta_d)
        verdict = analysis.verify_band(shifted, band, cycle.entry_step)
        report["band"] = {**verdict._asdict(), "interval": band.to_record()}
    return report


def run_scenario(config_path, out_dir, command: str = "simulate") -> tuple:
    """Run a scenario config for ``command`` and write its outputs:
    ``(outputs, report)``, the map of the paths written and the report,
    None for ``simulate``.  ``simulate`` writes ``trajectory.csv``,
    ``analyze`` also ``report.json`` and ``cycles`` only ``cycles.json``.
    A config the command's preconditions reject writes nothing."""
    config = checked_analyzable(load_scenario(config_path), command,
                                config_path)
    traj = simulate(config)
    out_dir = output_dir(out_dir)
    outputs, report = {}, None
    if command != "cycles":
        outputs["trajectory"] = out_dir / "trajectory.csv"
        write_trajectory_csv(traj, outputs["trajectory"])
    if command != "simulate":
        report = analyze_trajectory(traj, config, command)
        name = "cycles" if command == "cycles" else "report"
        outputs[name] = write_json(report, out_dir / f"{name}.json")
    return outputs, report
