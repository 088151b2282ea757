"""One quantloop command in a fresh process, and what it cost.

    op.py setup KIND CONFIG STARTED
        import quantloop.cli, load and validate the KIND (analyze, sweep or
        table1) config CONFIG and print the seconds since STARTED, the
        caller's ``time.perf_counter()`` when it started this process (the
        clock is system-wide): that is the set-up time.
    op.py run RESULT [--trace SPANS WORKLOAD SEED SMOKE] -- CLI-ARGS...
        run ``quantloop CLI-ARGS`` through ``quantloop.cli.main`` and write
        its wall time, CPU time and peak RSS to RESULT as JSON.

The process is fresh for every command, so ``RUSAGE_CHILDREN`` covers only
this command's pool workers: it is a running maximum over every child
already waited for, and a long-lived harness would report the largest run
so far.  Peak RSS is the larger of this process and its largest worker, not
their sum.

With ``--trace`` the command runs with spans (see :mod:`tracer`).  After it,
the same process probes the layers the command does not reach, on small
inputs of the other workloads, and times the step-level functions.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _load_config(kind: str, path: str):
    """Load and validate a workload config through quantloop's public API."""
    from quantloop import campaign, numerics, reachability

    if kind == "analyze":
        return campaign.load_scenario(path)
    with open(path) as fh:
        raw = json.load(fh, parse_float=str)
    parse = numerics.parse_scalar
    if kind == "sweep":
        return reachability.GridSpec(
            alpha_lo=parse(raw["alpha"]["lo"]), alpha_hi=parse(raw["alpha"]["hi"]),
            alpha_count=int(raw["alpha"]["count"]),
            delta_d_lo=parse(raw["delta_d"]["lo"]),
            delta_d_hi=parse(raw["delta_d"]["hi"]),
            delta_d_count=int(raw["delta_d"]["count"]),
            init_box=parse(raw["init"]["box"]),
            init_count=int(raw["init"]["count"]), budget=int(raw["budget"]))
    return campaign.CampaignSpec(
        disturbances=tuple(parse(v) for v in raw["disturbances"]),
        alpha=parse(raw["alpha"]), horizon=int(raw["horizon"]))


def _per_call_ns(fn, args: list, repeat: int = 5) -> float:
    """Median over ``repeat`` passes of the time per call, in ns."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - t0) / len(args))
    return sorted(times)[repeat // 2] * 1e9


def _micro(workload) -> dict:
    """Step-level timings on states of a run taken from the workload."""
    from fractions import Fraction

    import reference as ref
    from quantloop.analysis import EntryRegion, in_entry_region
    from quantloop.numerics import format_scalar, round_half_away

    alpha, delta_d, e0, u0 = workload.micro_case()
    den = ref.lattice(alpha, delta_d, e0, u0)
    exact = [Fraction(x, den) for e, u, _ in
             ref.exact_run(alpha, delta_d, e0, u0, 999, True) for x in (e, u)]
    floats = [float(z) for z in exact]
    region = EntryRegion(alpha, delta_d)
    states = [(exact[i], exact[i + 1], region) for i in range(0, len(exact), 2)]
    return {
        "numerics.round_half_away.exact_ns":
            _per_call_ns(round_half_away, [(z,) for z in exact]),
        "numerics.round_half_away.float_ns":
            _per_call_ns(round_half_away, [(z,) for z in floats]),
        "numerics.format_scalar.exact_ns":
            _per_call_ns(format_scalar, [(z,) for z in exact]),
        "analysis.in_entry_region.ns": _per_call_ns(in_entry_region, states),
    }


def _probe(kind: str, seed: int, smoke: bool, work: Path) -> None:
    """Call the layers a workload of ``kind`` reaches, on small inputs."""
    import quantloop.campaign as campaign
    import quantloop.dynamics as dynamics
    import quantloop.reachability as reachability
    from fractions import Fraction

    import workloads

    if kind == "analyze":
        w = workloads.AnalyzeLong(seed, smoke, horizon=1_000 if smoke else 5_000)
        path = work / "probe-scenario.json"
        path.write_text(json.dumps(w.config()))
        config = campaign.load_scenario(path)
        traj = dynamics.simulate(config)
        dynamics.write_trajectory_csv(traj, work / "probe-trajectory.csv")
        campaign.analyze_trajectory(traj, config)
    elif kind == "table1":
        w = workloads.Table1Campaign(seed, smoke)
        spec = campaign.CampaignSpec(
            disturbances=(Fraction(1, 10), w.value("sqrt2-1")),
            alpha=w.alpha, horizon=500)
        campaign.run_table1(spec)
    else:
        w = workloads.SweepGrid(seed, smoke)
        spec = reachability.GridSpec(
            alpha_lo=Fraction(21, 20), alpha_hi=Fraction(29, 20),
            alpha_count=2, delta_d_lo=Fraction(-1, 2),
            delta_d_hi=Fraction(1, 2), delta_d_count=3, init_box=w.box,
            init_count=3, budget=w.budget)
        reachability.sweep(spec, jobs=1)


def run(result_path: str, trace, argv: list) -> int:
    t0 = time.perf_counter()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer(Path(trace[0]))
    t_import = time.perf_counter()
    import quantloop.cli
    import_s = time.perf_counter() - t_import
    if tracer is not None:
        tracer.install()
    rc = quantloop.cli.main(argv)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime
                  + kids.ru_utime + kids.ru_stime),
        "peak_rss_mb": max(ru1.ru_maxrss, kids.ru_maxrss) / 1024,
        "import_s": import_s,
    }
    if tracer is not None:
        import workloads
        name, seed, smoke = trace[1], int(trace[2]), trace[3] == "1"
        workload = workloads.WORKLOADS[name](seed, smoke)
        tracer.phase = "probe"
        for kind in ("analyze", "table1", "sweep"):
            if kind != workload.kind:
                _probe(kind, seed, smoke, tracer.span_path.parent)
        tracer.write()
        result["micro"] = _micro(workload)
    Path(result_path).write_text(json.dumps(result))
    return 0


def main(args: list) -> int:
    if args[0] == "setup":
        import quantloop.cli  # noqa: F401  (the import is what is timed)
        _load_config(args[1], args[2])
        print(repr(time.perf_counter() - float(args[3])))
        return 0
    sep = args.index("--")
    trace = args[3:sep] if args[2:3] == ["--trace"] else None
    return run(args[1], trace, args[sep + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
