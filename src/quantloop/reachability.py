"""Grid sweep classifying which invariant set each initial condition reaches.

For every (alpha, delta_d) cell of a parameter grid, the shifted switched
loop is run from a grid of initial states.  A trajectory is classified as
soon as it either hits the capture region (from which containment in the
minimal invariant set is guaranteed) or revisits an exact state, at which
point its terminal cycle of quantized pairs is known.  Grid coordinates
are sampled as exact rationals so the classification itself is exact,
including the delicate |delta_d| = 1/2 boundary.

Cells are independent work items, dealt so that each stride gets an equal
share of every gain row; the calling process and forked workers classify
a stride each, and the caller builds the workers' tallies into results in
grid order.  The loop is odd in (e, u_bar, delta_d), so on a delta_d axis
that is its own negation (lo == -hi, over an initial-state grid that is
too) only the cells with delta_d >= 0 are classified and each cell with
delta_d < 0 takes the tallies of its mirror; an asymmetric axis has every
cell classified.  A delta_d = 0 cell is its own mirror: on a symmetric
initial-state grid it pairs its initial states, classifying one of each
pair (e0, u0), (-e0, -u0), counted twice, and the centre.
"""

import functools
import itertools
import marshal
import math
import os
import warnings
from fractions import Fraction
from typing import NamedTuple, Optional

from .analysis import amplitude2_pairs, checked_residual, minimal_invariant_pairs
from .dynamics import (
    _lattice_run,
    _scaled,
    capture_gain,
    checked_count,
    rule,
    validated,
    write_csv,
)
from .numerics import Scalar, format_scalar, is_exact, sign

TAG_THEOREM1 = "theorem1-set"
TAG_ALT_UNIT = "alt-unit-set"
TAG_AMPLITUDE2 = "amplitude2-set"
TAG_UNRESOLVED = "unresolved"

GRID_CSV_COLUMNS = ("alpha", "delta_d", "n_inits", "n_theorem1", "n_alt",
                    "n_amp2", "n_unresolved")
REGION_CSV_COLUMNS = ("alpha", "delta_d", "in_region")


#: ``z`` if it is exact, as every value of a sweep grid must be.
checked_exact = rule(is_exact, "a sweep has no float mode, got the float {!r}")


def _exact(check):
    """The rule ``check`` (a range), then :func:`checked_exact`."""
    return lambda z: checked_exact(check(z))


@validated
class GridSpec(NamedTuple):
    """Sweep description: parameter grid, initial-state grid, step budget.

    Defaults are the desk-scale study (50 x 101 parameter cells, 21x21
    initial conditions, 10^4 steps per trajectory).  Larger grids are
    accepted but warned about, since the run time grows accordingly.
    """

    alpha_lo: Scalar = Fraction(1001, 1000)
    alpha_hi: Scalar = Fraction(1499, 1000)
    alpha_count: int = 50
    delta_d_lo: Scalar = Fraction(-1, 2)
    delta_d_hi: Scalar = Fraction(1, 2)
    delta_d_count: int = 101
    init_box: Scalar = 10
    init_count: int = 21
    budget: int = 10_000

    _rules = {"alpha_lo": _exact(capture_gain),
              "alpha_hi": _exact(capture_gain), "alpha_count": checked_count,
              "delta_d_lo": _exact(checked_residual),
              "delta_d_hi": _exact(checked_residual),
              "delta_d_count": checked_count, "init_box": checked_exact,
              "init_count": checked_count, "budget": checked_count}

    def alphas(self) -> list:
        return grid_values(self.alpha_lo, self.alpha_hi, self.alpha_count)

    def delta_ds(self) -> list:
        return grid_values(self.delta_d_lo, self.delta_d_hi, self.delta_d_count)

    def inits(self) -> list:
        axis = grid_values(-self.init_box, self.init_box, self.init_count)
        return [(e0, u0) for e0 in axis for u0 in axis]

    def total_steps_bound(self) -> int:
        return (self.alpha_count * self.delta_d_count
                * self.init_count ** 2 * self.budget)


def grid_values(lo: Scalar, hi: Scalar, count: int) -> list:
    """``count`` equally spaced exact rationals from ``lo`` to ``hi``
    inclusive (just ``lo`` when count is 1)."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * Fraction(i, count - 1) for i in range(count)]


class AttractorClass(NamedTuple):
    """Classification of one trajectory.

    ``witness_pairs`` is the quantized-pair set of the terminal cycle (for
    capture-classified runs, the guaranteed minimal set).  ``steps_to_entry``
    is the capture step, or the first step on the terminal cycle.
    """

    tag: str
    witness_pairs: frozenset
    steps_to_entry: Optional[int] = None


def classify_trajectory(
    alpha: Scalar,
    delta_d: Scalar,
    e0: Scalar,
    u_bar0: Scalar,
    budget: int,
) -> AttractorClass:
    """Classify the attractor reached from one initial condition.

    Capture-region entry classifies immediately.  Otherwise the run
    continues until an exact state revisit reveals the terminal cycle, or
    the budget is exhausted (tag ``unresolved``).  No escape radius is
    enforced: far from the origin the loop contracts like its unquantized
    version, so excursions outside the initial box return on their own.
    Int, Fraction and float arguments are all taken at their exact value.
    """
    a, d, den, s, minimal, amp2 = _exact_cell(*alpha.as_integer_ratio(),
                                              *delta_d.as_integer_ratio())
    e_num, e_den = e0.as_integer_ratio()
    u_num, u_den = u_bar0.as_integer_ratio()
    # The cell's lattice (1/den)Z, refined to hold the initial state too.
    scale = math.lcm(den, e_den, u_den) // den
    a, d, den = a * scale, d * scale, den * scale
    e, u = e_num * (den // e_den), u_num * (den // u_den)
    # captured: rho(e) = rho(u_bar) = 0 and 1 <= alpha - s u_bar < 3/2,
    # that is s u in [lo, hi] on the ints
    lo, hi = (2 * a - 3 * den) // 2 + 1, a - den
    lo, hi = (lo, hi) if s > 0 else (-hi, -lo) if s else (-den, den)
    _, seen, k, j = _lattice_run(a, den, True, e, u,
                                 itertools.repeat(d, budget), 0, lo, hi)
    if j is None:
        last = frozenset(x[2:] for x in list(seen)[-8:])
        return AttractorClass(TAG_UNRESOLVED, last, None)
    if j == k:
        return AttractorClass(TAG_THEOREM1, minimal, k)
    # seen's keys from the j-th on are the states of steps j..k-1
    pairs = frozenset(x[2:] for x in itertools.islice(seen, j, None))
    return _classify_cycle(minimal, amp2, pairs, j)


@functools.lru_cache(maxsize=16)
def _exact_cell(alpha_num, alpha_den, delta_num, delta_den) -> tuple:
    """``(den alpha, den delta_d, den, sign(delta_d), minimal set,
    amplitude-2 set)`` of the cell alpha = alpha_num / alpha_den, delta_d =
    delta_num / delta_den, both in lowest terms.  Computed once for all its
    initial states (a sweep runs them in a row) and keyed by the ints,
    which hash far faster than two ``Fraction``s; a gain or residual out of
    range raises, so it is never cached."""
    alpha = capture_gain(Fraction(alpha_num, alpha_den))
    delta_d = checked_residual(Fraction(delta_num, delta_den))
    den = math.lcm(alpha_den, delta_den)
    return (_scaled(alpha, den), _scaled(delta_d, den), den, sign(delta_num),
            minimal_invariant_pairs(delta_d), amplitude2_pairs(delta_d))


def _classify_cycle(minimal, amp2, cycle_pairs, entry) -> AttractorClass:
    """The tag of a terminal cycle, given the cell's minimal set and its
    amplitude-2 set (None off |delta_d| = 1/2)."""
    if cycle_pairs <= minimal:
        return AttractorClass(TAG_THEOREM1, cycle_pairs, entry)
    if cycle_pairs == amp2:
        return AttractorClass(TAG_AMPLITUDE2, cycle_pairs, entry)
    rho_es = [p[0] for p in cycle_pairs]
    if max(rho_es) - min(rho_es) <= 1:
        return AttractorClass(TAG_ALT_UNIT, cycle_pairs, entry)
    return AttractorClass(TAG_UNRESOLVED, cycle_pairs, entry)


class CellResult(NamedTuple):
    """Classification tally over all sampled initial conditions of one cell."""

    alpha: Scalar
    delta_d: Scalar
    n_inits: int
    n_theorem1: int
    n_alt: int
    n_amp2: int
    n_unresolved: int


def _evaluate_cell(spec: GridSpec, inits: list, alpha, delta_d) -> tuple:
    """:class:`CellResult`'s tallies of ``inits``, ``(e0, u0, weight)``:
    each state is classified once and counts for ``weight`` of them."""
    counts = {TAG_THEOREM1: 0, TAG_ALT_UNIT: 0, TAG_AMPLITUDE2: 0,
              TAG_UNRESOLVED: 0}  # in the order of CellResult's tallies
    for e0, u0, weight in inits:
        result = classify_trajectory(alpha, delta_d, e0, u0, spec.budget)
        counts[result.tag] += weight
    return sum(counts.values()), *counts.values()


def _fork_map(fn, strides: list) -> list:
    """``[[fn(x) for x in stride] for stride in strides]``, a process per
    stride: this one maps the first, and forked children pipe back the
    others with ``marshal`` (what one raised as a pickle inside it), so
    ``fn`` returns ints, tuples and lists.  No child outlives the call."""
    results = [None] * len(strides)
    children = []  # (pid, stride index, read end of its pipe)
    try:
        for i, stride in enumerate(strides[1:], 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # leaves by os._exit: no exit handler, no flush
                try:
                    try:
                        payload = True, [fn(x) for x in stride]
                    except BaseException as exc:
                        import pickle  # only a failed child needs it
                        payload = False, pickle.dumps(exc)
                    with open(w, "wb") as pipe:
                        marshal.dump(payload, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, i, open(r, "rb")))
        results[0] = [fn(x) for x in strides[0]]
        for pid, i, pipe in children:
            try:
                ok, results[i] = marshal.load(pipe)
            except EOFError:  # killed before it answered
                raise ChildProcessError(f"sweep worker {pid} (stride {i}) "
                                        f"ended without a result") from None
            if not ok:
                import pickle
                raise pickle.loads(results[i])
    except BaseException:
        import signal  # on success every child has written and exits
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, _, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return results


def sweep(spec: GridSpec, jobs: int = 1) -> tuple:
    """Run the full grid sweep; one :class:`CellResult` per cell.

    Deterministic for a given spec regardless of ``jobs``: results come in
    grid order (alpha-major).  ``jobs`` > 1 forks, so call it from one
    thread.
    """
    desk_scale = GridSpec().total_steps_bound()
    if spec.total_steps_bound() > desk_scale:
        warnings.warn(
            f"sweep upper bound exceeds the default grid's {desk_scale:,} "
            "simulation steps; expect a very long run", stacklevel=2)
    alphas, delta_ds, inits = spec.alphas(), spec.delta_ds(), spec.inits()
    # Half-away rounding is odd, so cell (alpha, -dd) from (-e0, -u0) gets
    # the tag of (alpha, dd) from (e0, u0).  Where the inits are their own
    # negation (inits[-1 - i] mirrors inits[i]), the cell dd = 0 is its own
    # mirror: it classifies the first half of the inits, each counted
    # twice, and the centre.  Where the dd axis is its own negation too,
    # only the cells with dd >= 0 are classified.
    symmetric = inits[::-1] == [(-e0, -u0) for e0, u0 in inits]
    mirrored = symmetric and delta_ds[::-1] == [-dd for dd in delta_ds]
    every = [(e0, u0, 1) for e0, u0 in inits]
    half = len(inits) // 2 if symmetric else 0
    paired = ([(e0, u0, 2) for e0, u0 in inits[:half]]
              + every[half:len(inits) - half])
    rows = [[(a, dd) for dd in delta_ds if dd >= 0 or not mirrored]
            for a in alphas]
    # row r deals its cells in turn from stride r on, so the cheap dd = 0
    # cells (and a row's extra cells) go round the strides
    strides = [[c for r, row in enumerate(rows)
                for c in row[(i - r) % jobs::jobs]] for i in range(jobs)]
    strides = [stride for stride in strides if stride]
    tallies = dict(zip(itertools.chain(*strides), itertools.chain(
        *_fork_map(lambda c: _evaluate_cell(
            spec, paired if c[1] == 0 else every, *c), strides))))
    return tuple(CellResult(a, dd, *tallies[a, abs(dd) if mirrored else dd])
                 for a in alphas for dd in delta_ds)


def attraction_region(cells) -> list:
    """Cells whose every sampled initial condition reached the guaranteed
    minimal set; the empirical global-attractiveness region."""
    return [(c.alpha, c.delta_d) for c in cells
            if c.n_inits > 0 and c.n_theorem1 == c.n_inits]


def write_grid_csv(cells, path) -> None:
    write_csv(path, GRID_CSV_COLUMNS, (
        [format_scalar(c.alpha), format_scalar(c.delta_d), c.n_inits,
         c.n_theorem1, c.n_alt, c.n_amp2, c.n_unresolved]
        for c in cells))


def write_region_csv(cells, path) -> None:
    region = set(attraction_region(cells))
    write_csv(path, REGION_CSV_COLUMNS, (
        [format_scalar(c.alpha), format_scalar(c.delta_d),
         1 if (c.alpha, c.delta_d) in region else 0]
        for c in cells))
