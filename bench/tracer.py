"""Spans around calls into quantloop's public functions, and the per-layer
metrics derived from them.

The tracer wraps module-level functions of quantloop from outside: it
replaces every binding of a listed function, in every loaded quantloop
module, with a wrapper that records a span (name, start, end, parent span).
Nothing in quantloop changes.  Spans are kept in memory and written out
when the traced command ends.  Pool workers forked during a span inherit
the wrappers; each worker appends its spans to a file of its own as they
end, since a pool terminates its workers without running exit handlers.

Step-level functions (one quantizer call, one ``in_entry_region`` call)
get no spans: a span costs about as much as such a call.  They are timed
as micro-measurements instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference as ref

#: Functions that get a span, by layer (= quantloop module).
SPANNED = {
    "dynamics": ("simulate", "shift_trajectory", "write_trajectory_csv"),
    "analysis": ("verify_capture", "verify_control_lock", "detect_cycle",
                 "detect_cycle_approx", "verify_band", "predict_cycle"),
    "reachability": ("sweep", "classify_trajectory", "write_grid_csv",
                     "write_region_csv"),
    "campaign": ("load_scenario", "run_scenario", "analyze_trajectory",
                 "run_table1", "rms_quantized_error", "write_table1_csv"),
    "cli": ("main",),
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _simulate_attrs(fn, args, kwargs, result, rss0):
    config = _bound(fn, args, kwargs)["config"]
    return {"steps": config.horizon, "mode": result.mode,
            "rss_mb": (_rss_bytes() - rss0) / 2 ** 20}


def _csv_attrs(fn, args, kwargs, result, rss0):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _classify_attrs(fn, args, kwargs, result, rss0):
    bound = _bound(fn, args, kwargs)
    return {"args": [str(bound[k]) for k in
                     ("alpha", "delta_d", "e0", "u_bar0", "budget")],
            "tag": result.tag}


def _sweep_attrs(fn, args, kwargs, result, rss0):
    return {"jobs": _bound(fn, args, kwargs).get("jobs", 1)}


#: Extra attributes recorded on a span: ``hook(fn, args, kwargs, result,
#: rss_before) -> dict``.
_ATTRS = {
    "dynamics.simulate": _simulate_attrs,
    "dynamics.write_trajectory_csv": _csv_attrs,
    "reachability.classify_trajectory": _classify_attrs,
    "reachability.sweep": _sweep_attrs,
}


class Tracer:
    """Records spans of the calls listed in :data:`SPANNED`."""

    def __init__(self, span_path: Path):
        self.span_path = Path(span_path)
        self.spans = []
        self.stack = []
        self.phase = "op"
        self._next = 0
        self._worker_fd = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # A forked pool worker: its spans are children of the span open in
        # the parent, and they go straight to the worker's own file.
        self.spans = []
        path = f"{self.span_path}.{os.getpid()}"
        self._worker_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def install(self) -> None:
        """Wrap every binding of the spanned functions in loaded modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "quantloop" or name.startswith("quantloop.")]
        for layer, names in SPANNED.items():
            home = sys.modules.get(f"quantloop.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                traced = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def _wrap(self, name, fn):
        hook = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next += 1
            span_id = f"{os.getpid()}:{self._next}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            rss0 = _rss_bytes() if hook is _simulate_attrs else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "pid": os.getpid(), "phase": self.phase,
                    "start": t0, "end": t1}
            if hook is not None:
                span.update(hook(fn, args, kwargs, result, rss0))
            self._record(span)
            return result

        return traced

    def _record(self, span) -> None:
        if self._worker_fd is None:
            self.spans.append(span)
        else:
            os.write(self._worker_fd, (json.dumps(span) + "\n").encode())

    def write(self) -> None:
        """Write this process's spans, then those its workers left."""
        with open(self.span_path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for part in sorted(self.span_path.parent.glob(
                    self.span_path.name + ".*")):
                out.write(part.read_text())
                part.unlink()


def read_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list) -> dict:
    """Each span's duration minus the part of it its children cover.

    Children in pool workers count too, so a sweep's self time is the time
    no worker was classifying.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def _duration(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans: list, classified: dict) -> tuple:
    """Per-layer metrics of one traced command.

    A metric comes from the command's own spans when it made any of the
    function in question, else from the probe's.  Work counts come from the
    command alone.  ``classified`` caches the reference classification of
    each ``classify_trajectory`` call's arguments.  Returns the metrics and
    a list of calls whose tag disagrees with the reference.
    """
    def pick(name, keep=lambda s: True):
        found = [s for s in spans if s["name"] == name and keep(s)]
        return [s for s in found if s["phase"] == "op"] or \
            [s for s in found if s["phase"] == "probe"]

    def own(name):
        return [s for s in spans if s["name"] == name and s["phase"] == "op"]

    m = {}
    for mode in ("exact", "float"):
        sims = pick("dynamics.simulate", lambda s: s["mode"] == mode)
        m[f"dynamics.simulate.{mode}_steps_per_s"] = \
            sum(s["steps"] for s in sims) / _duration(sims)
    m["dynamics.trajectory.mb"] = max(
        s["rss_mb"] for s in pick("dynamics.simulate"))
    for name in ("dynamics.write_trajectory_csv", "dynamics.shift_trajectory",
                 "analysis.verify_capture", "analysis.verify_control_lock",
                 "analysis.detect_cycle", "analysis.verify_band",
                 "campaign.analyze_trajectory", "campaign.run_table1",
                 "campaign.rms_quantized_error", "campaign.load_scenario"):
        m[f"{name}.s"] = _duration(pick(name))

    mismatches = []
    calls = pick("reachability.classify_trajectory")
    by_path = {"capture": [], "recurrence": [], "budget": []}
    steps = {"capture": 0, "recurrence": 0, "budget": 0}
    cells = {}
    for s in calls:
        key = tuple(s["args"])
        if key not in classified:
            alpha, delta_d, e0, u0 = (Fraction(x) for x in key[:4])
            classified[key] = ref.classify(alpha, delta_d, e0, u0, int(key[4]))
        tag, path, n = classified[key]
        if tag != s["tag"]:
            mismatches.append(f"classify_trajectory{key}: {s['tag']}, "
                              f"reference {tag}")
        by_path[path].append(s["end"] - s["start"])
        if s["phase"] == "op":
            steps[path] += n
        cell = cells.setdefault((s["pid"], key[0], key[1]), [s["start"], s["end"]])
        cell[0], cell[1] = min(cell[0], s["start"]), max(cell[1], s["end"])
    busy = _duration(calls)
    m["reachability.classify_trajectory.per_s"] = len(calls) / busy
    m["reachability.classify_trajectory.steps_per_s"] = sum(
        classified[tuple(s["args"])][2] for s in calls) / busy
    for path in ("capture", "recurrence"):
        m[f"reachability.classify_trajectory.{path}_us"] = \
            1e6 * sum(by_path[path]) / len(by_path[path])
    cell_s = [end - start for start, end in cells.values()]
    m["reachability.sweep.cell_s.p50"] = statistics.median(cell_s)
    m["reachability.sweep.cell_s.max"] = max(cell_s)
    sweeps = pick("reachability.sweep")
    m["reachability.sweep.parallel_efficiency"] = sum(cell_s) / sum(
        s["jobs"] * (s["end"] - s["start"]) for s in sweeps)

    m["dynamics.steps"] = sum(s["steps"] for s in own("dynamics.simulate"))
    m["dynamics.write_trajectory_csv.bytes"] = sum(
        s["bytes"] for s in own("dynamics.write_trajectory_csv"))
    m["reachability.trajectories"] = len(own("reachability.classify_trajectory"))
    m["reachability.steps.capture"] = steps["capture"]
    m["reachability.steps.recurrence"] = steps["recurrence"]
    m["reachability.steps"] = sum(steps.values())

    own_self = self_times(spans)
    for layer in SPANNED:
        mine = [s for s in spans if s["name"].startswith(layer + ".")]
        mine = [s for s in mine if s["phase"] == "op"] or mine
        m[f"{layer}.self_s"] = sum(own_self[s["id"]] for s in mine)
    return m, mismatches


def function_table(spans: list) -> dict:
    """Calls, total time and self time of each spanned function, by phase."""
    own_self = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(f"{s['phase']}:{s['name']}",
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own_self[s["id"]]
    return table
