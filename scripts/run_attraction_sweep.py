#!/usr/bin/env python3
"""Map the global-attractiveness region of the minimal invariant set.

Sweeps a (gain, residual-disturbance) grid, classifying every trajectory
from a grid of initial states, and writes per-cell tallies plus the 0/1
region mask.  The defaults are the desk-scale grid; pass --fast for a
coarse preview or override individual counts.

Initial-state grids whose spacing puts errors exactly on half-integers
(e.g. a step of 5/2) leave the zero-residual column partly unresolved:
from e0 in Z + 1/2 with zero residual the error is stuck on the rounding
ties and can never enter the open capture interval.  Integer or odd-
denominator grids avoid that measure-zero lattice.
"""

import argparse
import os
import time
from fractions import Fraction
from pathlib import Path

from quantloop.cli import _jobs
from quantloop.reachability import (
    GridSpec,
    attraction_region,
    sweep,
    write_grid_csv,
    write_region_csv,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out", default="results/sweep",
                        help="output directory (default results/sweep)")
    parser.add_argument("--jobs", type=_jobs,
                        default=min(2, os.cpu_count() or 1),
                        help="worker processes, 1 to the number of CPUs")
    parser.add_argument("--alpha-count", type=int, default=50)
    parser.add_argument("--delta-count", type=int, default=101)
    parser.add_argument("--init-count", type=int, default=21)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--fast", action="store_true",
                        help="coarse 10 x 21 x 7x7 preview grid")
    args = parser.parse_args(argv)

    if args.fast:
        spec = GridSpec(alpha_count=10, delta_d_count=21, init_count=7,
                        budget=args.budget)
    else:
        spec = GridSpec(alpha_count=args.alpha_count,
                        delta_d_count=args.delta_count,
                        init_count=args.init_count, budget=args.budget)

    started = time.time()
    result = sweep(spec, jobs=args.jobs)
    elapsed = time.time() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(result, out_dir / "grid.csv")
    write_region_csv(result, out_dir / "region.csv")

    region = set(attraction_region(result))
    n_attractive_rect = sum(
        1 for c in result.cells
        if Fraction(5, 4) < c.alpha < Fraction(3, 2)
        and abs(c.delta_d) < Fraction(1, 2) and (c.alpha, c.delta_d) in region)
    n_rect = sum(1 for c in result.cells
                 if Fraction(5, 4) < c.alpha < Fraction(3, 2)
                 and abs(c.delta_d) < Fraction(1, 2))
    print(f"{len(result.cells)} cells in {elapsed:.1f}s; "
          f"{len(region)} fully captured")
    print(f"high-gain rectangle (gain > 5/4, |residual| < 1/2): "
          f"{n_attractive_rect}/{n_rect} cells captured")
    print(f"wrote {out_dir / 'grid.csv'}")
    print(f"wrote {out_dir / 'region.csv'}")


if __name__ == "__main__":
    main()
