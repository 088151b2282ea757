"""Command line interface.

Subcommands (``-h`` prints this text)::

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

import importlib.util
import os
import sys
import warnings
from types import SimpleNamespace
from typing import Optional


def _lazy(name: str):
    """The module ``name``, in ``sys.modules`` and on its package as
    ``import`` leaves it, but compiled and run at its first attribute
    access; a module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


# A command compiles only the layers it runs: table1 and simulate neither,
# analyze and cycles the analysis, a sweep both.
_lazy("quantloop.analysis")
reachability = _lazy("quantloop.reachability")
from . import campaign  # noqa: E402  (after the lazy layers it imports)


def _jobs(text: str) -> int:
    """``--jobs``: a worker count from 1 to the CPU count (1 without fork)."""
    jobs, limit = int(text), hasattr(os, "fork") and os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise ValueError(
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
    spec = campaign.load_config(args.config, reachability.GridSpec,
                                campaign.GRID_KEYS)
    cells = reachability.sweep(spec, jobs=args.jobs)
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
    spec = campaign.load_config(args.config, campaign.CampaignSpec,
                                campaign.CAMPAIGN_KEYS)
    rows = campaign.run_table1(spec)
    path = campaign.output_dir(args.out) / "table1.csv"
    campaign.write_table1_csv(rows, path)
    print(campaign.format_table1(rows))
    print(f"wrote {path}")
    return 0


#: Each command's handler and its options: field -> (parser, required).
_SCENARIO = _cmd_scenario, {"config": (str, True), "out": (str, True)}
COMMANDS = {
    **dict.fromkeys(("simulate", "analyze", "cycles"), _SCENARIO),
    "sweep": (_cmd_sweep, {"config": (str, False), "out": (str, True),
                           "jobs": (_jobs, False)}),
    "table1": (_cmd_table1, {"config": (str, False), "out": (str, True)}),
}
_FLAGS = {"-c": "config", "--config": "config", "-o": "out", "--out": "out",
          "--jobs": "jobs"}
_USAGE = "usage: quantloop COMMAND [-c FILE] -o DIR [--jobs N]"


def _usage_error(what: str):
    print(f"{_USAGE}\nquantloop: error: {what}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list) -> SimpleNamespace:
    """The command of ``argv`` with its handler (``func``) and options;
    ``-h`` prints the commands and exits 0, a bad command line exits 2."""
    if {"-h", "--help"} & set(argv):
        print(f"{_USAGE}\n\n{__doc__}")
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"expected a command, one of {', '.join(COMMANDS)}")
    args = SimpleNamespace(command=argv[0], config=None, out=None, jobs=1)
    args.func, options = COMMANDS[args.command]
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if (name := _FLAGS.get(flag)) not in options:
            _usage_error(f"unrecognized argument: {word}")
        value = value if eq else next(words, "")
        if not value or not eq and value.partition("=")[0] in _FLAGS:
            _usage_error(f"argument {flag}: expected one argument")
        try:
            setattr(args, name, options[name][0](value))
        except ValueError as exc:
            _usage_error(f"argument {flag}: {exc}")
    for name, (_, required) in options.items():
        if required and getattr(args, name) is None:
            _usage_error(f"the option --{name} is required")
    return args


def main(argv: Optional[list] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)

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
