"""The benchmark's three workloads: inputs made from a seed, the quantloop
command that runs them, and the checks of that command's outputs.

Every check compares against :mod:`reference`, which is written apart from
quantloop, or against a property the method must have; none compares against
a stored copy of an earlier output.  This module imports nothing from
quantloop, so ``run.py`` can check outputs without loading the program it
measures.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

_HALF = Fraction(1, 2)


def _grid(lo, hi, count: int) -> list:
    """``count`` equally spaced rationals from lo to hi inclusive."""
    lo, hi = Fraction(lo), Fraction(hi)
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * Fraction(i, count - 1) for i in range(count)]


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _alpha_choices() -> list:
    """Gains inside (5/4, 3/2), where the minimal set attracts everything."""
    return [Fraction(21, 16), Fraction(11, 8), Fraction(23, 16),
            Fraction(13, 10), Fraction(7, 5), Fraction(27, 20),
            Fraction(29, 20)]


class Workload:
    """One closed-loop workload: a single CLI command, repeated."""

    name = ""
    kind = ""          # the quantloop subcommand, also the probe kind
    outputs = ()       # files the command writes into its output directory

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")

    def config(self) -> dict:
        raise NotImplementedError

    def argv(self, config_path: Path, out_dir: Path) -> list:
        return [self.kind, "-c", str(config_path), "-o", str(out_dir)]

    def check(self, out_dir: Path) -> list:
        """Return a list of failed checks (empty when the outputs are right)."""
        raise NotImplementedError

    def micro_case(self):
        """(alpha, delta_d, e0, u0) of a run whose states feed the step-level
        micro-measurements."""
        raise NotImplementedError


class SweepGrid(Workload):
    """``quantloop sweep --jobs 2`` over the whole gain range (1, 3/2) and the
    whole residual range [-1/2, 1/2].

    The seed picks the initial-state lattice: box (70 + j)/7 for j in
    -3..3, so the lattice points are multiples of (70 + j)/21.  Their odd
    denominators keep every initial state off the tie lattice Z + 1/2.
    """

    name = "sweep-grid"
    kind = "sweep"
    outputs = ("grid.csv", "region.csv")
    alpha_lo, alpha_hi = Fraction(103, 100), Fraction(147, 100)
    budget = 10_000
    jobs = 2

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.box = Fraction(70 + self.rng.randint(-3, 3), 7)
        if smoke:
            self.alpha_count, self.delta_count, self.init_count = 2, 3, 3
        else:
            self.alpha_count, self.delta_count, self.init_count = 7, 11, 7

    def config(self) -> dict:
        return {
            "alpha": {"lo": str(self.alpha_lo), "hi": str(self.alpha_hi),
                      "count": self.alpha_count},
            "delta_d": {"lo": "-1/2", "hi": "1/2", "count": self.delta_count},
            "init": {"box": str(self.box), "count": self.init_count},
            "budget": self.budget,
        }

    def argv(self, config_path, out_dir):
        return super().argv(config_path, out_dir) + ["--jobs", str(self.jobs)]

    def cells(self) -> list:
        return [(a, dd) for a in _grid(self.alpha_lo, self.alpha_hi,
                                       self.alpha_count)
                for dd in _grid(-_HALF, _HALF, self.delta_count)]

    def inits(self) -> list:
        axis = _grid(-self.box, self.box, self.init_count)
        return [(e0, u0) for e0 in axis for u0 in axis]

    def check(self, out_dir):
        failures = []
        grid = _read_csv(out_dir / "grid.csv")
        region = _read_csv(out_dir / "region.csv")
        cells = self.cells()
        inits = self.inits()
        if grid[0] != ["alpha", "delta_d", "n_inits", "n_theorem1", "n_alt",
                       "n_amp2", "n_unresolved"]:
            return [f"grid.csv header {grid[0]}"]
        if len(grid) - 1 != len(cells) or len(region) - 1 != len(cells):
            return [f"{len(grid) - 1} grid rows, {len(region) - 1} region "
                    f"rows for {len(cells)} cells"]
        tag_column = {ref.THEOREM1: 0, ref.ALT_UNIT: 1, ref.AMPLITUDE2: 2,
                      ref.UNRESOLVED: 3}
        for (alpha, dd), row, mask in zip(cells, grid[1:], region[1:]):
            where = f"cell alpha={alpha} delta_d={dd}"
            if [Fraction(row[0]), Fraction(row[1])] != [alpha, dd]:
                failures.append(f"{where}: grid.csv row {row[:2]}")
                continue
            n_inits, *tally = (int(x) for x in row[2:])
            if n_inits != len(inits) or sum(tally) != n_inits:
                failures.append(f"{where}: tallies {tally} of {n_inits}")
            if (Fraction(5, 4) < alpha < Fraction(3, 2) and abs(dd) < _HALF
                    and tally[0] != n_inits):
                failures.append(f"{where}: high-gain cell not fully captured")
            if tally[2] and abs(dd) != _HALF:
                failures.append(f"{where}: amplitude-2 set off |delta_d| = 1/2")
            in_region = int(n_inits > 0 and tally[0] == n_inits)
            if mask[:2] != row[:2] or mask[2] != str(in_region):
                failures.append(f"{where}: region.csv row {mask}")
            expected = [0, 0, 0, 0]
            for e0, u0 in inits:
                tag, _, _ = ref.classify(alpha, dd, e0, u0, self.budget)
                expected[tag_column[tag]] += 1
            if tally != expected:
                failures.append(f"{where}: tallies {tally}, reference "
                                f"{expected}")
        return failures

    def micro_case(self):
        return self.alpha_lo, Fraction(1, 10), -self.box, -self.box


class AnalyzeLong(Workload):
    """``quantloop analyze`` on one exact constant-disturbance scenario with a
    long horizon, started away from rest.

    The seed picks the gain (in (5/4, 3/2)), the residual delta_d = +-p/q
    with q a prime from 29 to 43 and p the integer nearest q/5 (so every
    period is 29 to 43 steps and about a fifth of the steps switch), the
    disturbance's integer part in -2..2 and the initial state (e0 in
    thirds, u0 in fifths, both nonzero).
    """

    name = "analyze-long"
    kind = "analyze"
    outputs = ("trajectory.csv", "report.json")

    def __init__(self, seed: int, smoke: bool = False, horizon=None):
        super().__init__(seed, smoke)
        rng = self.rng
        self.alpha = rng.choice(_alpha_choices())
        q = rng.choice((29, 31, 37, 41, 43))
        self.delta_d = Fraction(rng.choice((-1, 1)) * round(q / 5), q)
        self.dbar = rng.randint(-2, 2) + self.delta_d
        self.e0 = Fraction(rng.choice([a for a in range(-12, 13) if a]), 3)
        self.u0 = Fraction(rng.choice([b for b in range(-15, 16) if b]), 5)
        self.horizon = horizon or (2_000 if smoke else 25_000)

    def config(self) -> dict:
        return {"alpha": str(self.alpha), "controller": "switched-pi",
                "disturbance": {"kind": "constant", "value": str(self.dbar)},
                "e0": str(self.e0), "u0": str(self.u0),
                "horizon": self.horizon, "mode": "exact"}

    def check(self, out_dir):
        failures = []
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
        for key in ("capture", "control-lock", "band"):
            status = report.get(key, {}).get("status")
            if status != "pass":
                failures.append(f"report.json {key}: {status}")
        delta_d = ref.residual(self.dbar)
        if delta_d != self.delta_d:
            failures.append(f"residual of {self.dbar} is {delta_d}")
        cycle = report.get("cycle", {})
        n_m = (abs(delta_d.numerator), delta_d.denominator)
        if (cycle.get("n"), cycle.get("m")) != n_m:
            failures.append(f"cycle (n, m) = ({cycle.get('n')}, "
                            f"{cycle.get('m')}), expected {n_m}")
        rows = _read_csv(out_dir / "trajectory.csv")
        if rows[0] != ["k", "e", "u", "rho_e", "rho_u", "d", "mode"]:
            failures.append(f"trajectory.csv header {rows[0]}")
        expected = ref.trajectory_rows(self.alpha, self.dbar, self.e0, self.u0,
                                       self.horizon)
        n = 0
        for n, (row, want) in enumerate(zip(rows[1:], expected), 1):
            if row != want:
                failures.append(f"trajectory.csv row {n}: {row}, reference "
                                f"{want}")
                break
        if n != self.horizon + 1 or len(rows) != self.horizon + 2:
            failures.append(f"trajectory.csv has {len(rows) - 1} rows for "
                            f"horizon {self.horizon}")
        return failures

    def micro_case(self):
        return self.alpha, self.delta_d, self.e0, self.u0


class Table1Campaign(Workload):
    """``quantloop table1`` on the reference disturbances: seven exact values
    plus ``sqrt2-1`` in binary floats, each run on both controllers at +dbar
    and -dbar.

    The seed picks the gain (in (5/4, 3/2)) and the order of the rows.
    """

    name = "table1-campaign"
    kind = "table1"
    outputs = ("table1.csv",)
    disturbances = ("1/100", "1/50", "1/25", "1/20", "1/10", "1/5", "2/5",
                    "sqrt2-1")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.alpha = self.rng.choice(_alpha_choices())
        self.order = list(self.disturbances)
        self.rng.shuffle(self.order)
        self.horizon = 500 if smoke else 1_500

    def config(self) -> dict:
        return {"disturbances": self.order, "alpha": str(self.alpha),
                "horizon": self.horizon}

    @staticmethod
    def value(text: str):
        return math.sqrt(2.0) - 1.0 if text == "sqrt2-1" else Fraction(text)

    def check(self, out_dir):
        failures = []
        rows = _read_csv(out_dir / "table1.csv")
        if rows[0] != ["disturbance", "rms_standard", "rms_switched",
                       "improvement"]:
            return [f"table1.csv header {rows[0]}"]
        if len(rows) - 1 != len(self.order):
            return [f"table1.csv has {len(rows) - 1} rows"]
        # Over a window of H steps from rest, the share of steps with a
        # nonzero quantized error is |dbar| (switched) or 2|dbar| (standard)
        # up to the period cut at the window's end and the first switch:
        # at most four steps of the window.
        tol = 4 / self.horizon
        for text, row in zip(self.order, rows[1:]):
            dbar = self.value(text)
            if isinstance(dbar, float):
                same = float(row[0]) == dbar
            else:
                same = Fraction(row[0]) == dbar and "." not in row[0]
            if not same:
                failures.append(f"row {row}: expected disturbance {text}")
                continue
            std = ref.rms_from_rest(self.alpha, dbar, self.horizon, False)
            sw = ref.rms_from_rest(self.alpha, dbar, self.horizon, True)
            gain = (std - sw) / std if std > 0 else 0.0
            want = [f"{std:.3f}", f"{sw:.3f}", f"{gain:.3f}"]
            if row[1:] != want:
                failures.append(f"row {row}: reference {want}")
            printed_std, printed_sw = float(row[1]), float(row[2])
            # A value printed to 3 decimals squares to within ~x/1000.
            if abs(printed_sw ** 2 - abs(dbar)) > tol + printed_sw / 1000:
                failures.append(f"row {row}: rms_switched^2 not within "
                                f"{tol} of |dbar|")
            if abs(printed_std ** 2 - 2 * abs(dbar)) > tol + printed_std / 1000:
                failures.append(f"row {row}: rms_standard^2 not within "
                                f"{tol} of 2|dbar|")
            if not float(row[3]) > 0:
                failures.append(f"row {row}: improvement not positive")
        return failures

    def micro_case(self):
        return self.alpha, Fraction(1, 10), 0, 0


WORKLOADS = {w.name: w for w in (SweepGrid, AnalyzeLong, Table1Campaign)}
