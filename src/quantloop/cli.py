"""Command line interface.

Subcommands::

    simulate  -c scenario.json -o OUT
    analyze   -c scenario.json -o OUT
    cycles    -c scenario.json -o OUT
    sweep     [-c grid.json]    -o OUT [--jobs N]
    table1    [-c campaign.json] -o OUT

A scenario's ``mode`` key sets its arithmetic; a float literal in an exact
scenario promotes the run to float, with a warning.  Everything is
deterministic, so there is no seed flag.  Exit codes:
0 success, 1 runtime error (bad config contents, I/O), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Optional

from . import campaign, reachability


def _add_scenario_args(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("-c", "--config", required=True, help="scenario JSON file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_scenario)


def _jobs(text: str) -> int:
    """``--jobs``: a worker count from 1 to the CPU count (1 without fork)."""
    jobs, limit = int(text), hasattr(os, "fork") and os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(
            f"expected a worker count from 1 to {limit}, got {jobs}")
    return jobs


def _cmd_scenario(args) -> int:
    """``simulate``, ``analyze`` and ``cycles``: run a scenario, write its
    outputs; ``cycles`` also prints the cycle it found."""
    outputs, report = campaign.run_scenario(args.config, args.out,
                                            args.command)
    if args.command == "cycles":
        cycle = report["cycle"]
        if cycle["periodic"]:
            print(f"periodic: n={cycle['n']} switches per period, "
                  f"m={cycle['m']} steps, entry step {cycle['entry_step']}")
        else:
            print("no recurrence detected within the horizon")
    for path in outputs.values():
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cells = reachability.sweep(campaign.load_grid_spec(args.config),
                               jobs=args.jobs)
    out_dir = campaign.output_dir(args.out)
    grid_path = out_dir / "grid.csv"
    region_path = out_dir / "region.csv"
    reachability.write_grid_csv(cells, grid_path)
    reachability.write_region_csv(cells, region_path)
    n_region = len(reachability.attraction_region(cells))
    print(f"{len(cells)} cells, {n_region} fully captured")
    print(f"wrote {grid_path}")
    print(f"wrote {region_path}")
    return 0


def _cmd_table1(args) -> int:
    rows = campaign.run_table1(campaign.load_campaign_spec(args.config))
    path = campaign.output_dir(args.out) / "table1.csv"
    campaign.write_table1_csv(rows, path)
    print(campaign.format_table1(rows))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantloop",
        description="Simulate and analyze PI control loops with quantized "
                    "input and output signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_scenario_args(sub, "simulate", "run a scenario, write its trajectory")
    _add_scenario_args(sub, "analyze",
                       "run a scenario, write trajectory and analysis report")
    _add_scenario_args(sub, "cycles",
                       "detect and predict the limit cycle of a scenario")

    p = sub.add_parser("sweep", help="classify attractors over a parameter grid")
    p.add_argument("-c", "--config", help="grid JSON file (defaults to the "
                                          "desk-scale grid)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for cells, 1 to the number of "
                        "CPUs (default 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="run the controller comparison campaign")
    p.add_argument("-c", "--config", help="campaign JSON file (defaults to "
                                          "the reference campaign)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_table1)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)

    def show(message, category, *_, kind="warning"):
        # one line that names the config, not the line of quantloop that
        # warned; under ``-W error`` a warning raises and ends as an error
        print(": ".join(filter(None, (kind, args.config,
                                      category.__name__, str(message)))),
              file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except Warning as exc:
            show(exc, type(exc), kind="error")
            return 1
        except (OSError, ValueError, TypeError, KeyError,
                ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
