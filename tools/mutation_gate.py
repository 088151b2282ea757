"""Mutation gate: every mutant in the table must fail the tests named for it.

    python tools/mutation_gate.py

Each entry of :data:`MUTANTS` is one edit of the package: a file, an exact
old text, the new text and the test files that must catch it.  For each
entry the gate copies ``src/``, ``tests/``, ``experiments/``,
``pyproject.toml`` and the experiments' output sums to a temporary
directory, replaces the old text, which must occur exactly once in its
file, and runs ``python -m pytest -x -q`` on the entry's test files.  The
mutant is killed when a test fails.  Beside the mutants, one check per
test file that the table names runs that file's named tests on an
unmutated copy, which must pass: a test that fails there would count as a
kill for every mutant it is named for.  The checks and then the entries
run ``os.cpu_count()`` at a time, each in its own copy, and their verdicts
print in that order.  The last line gives the kill count and the gate's
wall time.

The gate exits 1 if an unmutated check fails, if a mutant survives, if an
old text is not found exactly once (so a refactor that moves mutated code
updates the table with it), or if pytest ends any other way than with a
failed test, such as a collection error.  It needs only the standard
library and the test dependencies."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def reach(*names: str) -> tuple:
    """Tests of ``tests/test_reachability.py`` by name: a sweep mutant runs
    only the tests aimed at it, not the whole module."""
    return tuple(f"tests/test_reachability.py::{name}" for name in names)


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # the tie rule, in each of its copies: halves round away from zero
    Mutant("round-half-away-tie", "src/quantloop/numerics.py",
           "if 2 * abs(f) >= 1:", "if 2 * abs(f) > 1:",
           ("tests/test_numerics.py",)),
    Mutant("lattice-tie-first-e", "src/quantloop/dynamics.py",
           "rho_e = (2 * e + den) // twice",
           "rho_e = (2 * e + den - 1) // twice",
           ("tests/test_dynamics.py",)),
    Mutant("lattice-tie-u", "src/quantloop/dynamics.py",
           "rho_u = (2 * u + den) // twice",
           "rho_u = (2 * u + den - 1) // twice",
           ("tests/test_dynamics.py",)),
    Mutant("lattice-tie-step-e", "src/quantloop/dynamics.py",
           "rho_e1 = ((2 * e + den) // twice",
           "rho_e1 = ((2 * e + den - 1) // twice",
           ("tests/test_dynamics.py",)),
    Mutant("law-tie-u", "src/quantloop/dynamics.py",
           "rho_u = n + 1 if f2 >= 1 else n - 1 if f2 <= -1 else n",
           "rho_u = n + 1 if f2 > 1 else n - 1 if f2 < -1 else n",
           ("tests/test_dynamics.py::"
            "test_law_with_views_matches_two_value_law",)),
    Mutant("law-tie-step-e", "src/quantloop/dynamics.py",
           "rho_e = n + 1 if f2 >= 1 else n - 1 if f2 <= -1 else n",
           "rho_e = n + 1 if f2 > 1 else n - 1 if f2 < -1 else n",
           ("tests/test_dynamics.py::"
            "test_law_with_views_matches_two_value_law",)),
    # the lattice kernel: the switched reset, recurrences from the steady
    # step on, and capture on the half-open interval of alpha - s u_bar
    Mutant("lattice-reset-sign", "src/quantloop/dynamics.py",
           "u = (rho_u + rho_e) * den", "u = (rho_u - rho_e) * den",
           ("tests/test_dynamics.py",)),
    Mutant("lattice-steady-step", "src/quantloop/dynamics.py",
           "// twice)\n        state = e, u, rho_e, rho_u\n"
           "        if k >= steady:",
           "// twice)\n        state = e, u, rho_e, rho_u\n"
           "        if k > steady:",
           ("tests/test_dynamics.py",)),
    Mutant("lattice-capture-closed", "src/quantloop/reachability.py",
           "lo, hi = (2 * a - 3 * den) // 2 + 1, a - den",
           "lo, hi = (2 * a - 3 * den) // 2, a - den",
           reach("test_lattice_classification_matches_fraction_loop")),
    Mutant("count-takes-a-bool", "src/quantloop/dynamics.py",
           "if isinstance(count, bool) or not isinstance(count, int):",
           "if not isinstance(count, int):",
           ("tests/test_records.py",)),
    # capture needs the strict inequalities
    Mutant("capture-closed-bounds", "src/quantloop/analysis.py",
           "if not -_HALF < e < _HALF:", "if not -_HALF <= e <= _HALF:",
           ("tests/test_analysis.py",)),
    # the invariant sets and the band, each one formula in s = sign(delta_d)
    Mutant("minimal-set-sign", "src/quantloop/analysis.py",
           "return frozenset({(0, 0), (s, -s)})",
           "return frozenset({(0, 0), (s, s)})",
           ("tests/test_analysis.py",)),
    Mutant("amplitude2-sign", "src/quantloop/analysis.py",
           "(s, -2 * s)", "(s, -2)",
           ("tests/test_analysis.py",)),
    Mutant("zero-residual-band", "src/quantloop/analysis.py",
           "delta_d >= 0, delta_d < 0", "delta_d > 0, delta_d <= 0",
           ("tests/test_analysis.py",)),
    # a disturbance's steps are integers
    Mutant("ramp-step-any-number", "src/quantloop/dynamics.py",
           "steps = [checked_count(k, -math.inf) for k, _ in "
           "self.breakpoints]",
           "steps = [k for k, _ in self.breakpoints]",
           ("tests/test_records.py",)),
    # the sweep's odd symmetry: the delta_d = 0 pairs and the mirror
    Mutant("zero-residual-pair-weight", "src/quantloop/reachability.py",
           "paired = ([(e0, u0, 2) for", "paired = ([(e0, u0, 1) for",
           reach("test_mirrored_sweep_matches_every_cell_classified",
                 "test_paired_zero_residual_cell_matches_"
                 "every_init_classified")),
    Mutant("mirror-sign", "src/quantloop/reachability.py",
           "CellResult(a, dd, *tallies", "CellResult(a, abs(dd), *tallies",
           reach("test_mirrored_sweep_matches_every_cell_classified")),
    Mutant("zero-residual-centre-dropped", "src/quantloop/reachability.py",
           "+ every[half:len(inits) - half])", "+ every[half:half])",
           reach("test_mirrored_sweep_matches_every_cell_classified",
                 "test_paired_zero_residual_cell_matches_"
                 "every_init_classified")),
    # the strides: each row dealt round them, each child its own, and
    # every child killed on failure and reaped
    Mutant("stride-deal", "src/quantloop/reachability.py",
           "row[(i - r) % jobs::jobs]", "row[i::jobs]",
           reach("test_parallel_sweep_spreads_the_zero_residual_cells")),
    Mutant("fork-stride", "src/quantloop/reachability.py",
           "payload = True, [fn(x) for x in stride]",
           "payload = True, [fn(x) for x in strides[i - 1]]",
           reach("test_parallel_sweep_keeps_grid_order_across_strides",
                 "test_sweep_on_three_workers_matches_one")),
    Mutant("fork-kill-dropped", "src/quantloop/reachability.py",
           "os.kill(pid, signal.SIGKILL)", "pass",
           reach("test_failing_caller_kills_and_reaps_its_workers")),
    Mutant("fork-reap-dropped", "src/quantloop/reachability.py",
           "            os.waitpid(pid, 0)\n", "",
           reach("test_sweep_forks_no_idle_worker",
                 "test_worker_exception_reaches_the_caller",
                 "test_failing_caller_kills_and_reaps_its_workers")),
    # a worker count is checked before any stride is dealt
    Mutant("sweep-jobs-unchecked", "src/quantloop/reachability.py",
           "        checked_count(jobs)\n", "        pass\n",
           reach("test_sweep_rejects_a_worker_count_before_forking")),
    # the trajectory CSV's blocks of stored steps, and its run's steps:
    # the len of a run, a named tuple, counts its fields
    Mutant("csv-block-short", "src/quantloop/dynamics.py",
           "hi = min(lo + _CSV_CHUNK, stored)",
           "hi = min(lo + _CSV_CHUNK, stored - 1)",
           ("tests/test_dynamics.py",)),
    Mutant("run-length-from-len", "src/quantloop/dynamics.py",
           "n, stored, period = traj.length,",
           "n, stored, period = len(traj),",
           ("tests/test_lasso.py::"
            "test_lasso_csv_matches_rows_written_one_by_one",)),
    # the score: a mean over steps 0..horizon-1, each stored step counted
    # once per step before the horizon that repeats it
    Mutant("rms-divisor", "src/quantloop/campaign.py",
           "return math.sqrt(total / horizon)",
           "return math.sqrt(total / traj.length)",
           ("tests/test_campaign.py",)),
    Mutant("rms-window-end", "src/quantloop/campaign.py",
           "traj.counts(horizon)", "traj.counts(horizon + 1)",
           ("tests/test_campaign.py::"
            "test_rms_counts_transient_from_step_zero",)),
    Mutant("count-whole-last-period", "src/quantloop/dynamics.py",
           "+ [q + 1] * r + [q] * (self.period - r))",
           "+ [q + (r > 0)] * self.period)",
           ("tests/test_campaign.py::"
            "test_rms_is_the_mean_square_over_its_window",)),
    # cycle detection: a float run, stored step by step, is no lasso; its
    # recurrence holds in both columns, and a state too large for a cell
    # index has a cell of its own
    Mutant("float-run-read-as-lasso", "src/quantloop/analysis.py",
           'if traj.mode == "exact":\n        if not traj.period:',
           'if True:\n        if not traj.period:',
           ("tests/test_analysis.py::test_detect_cycle_of_a_float_run_"
            "is_the_approximate_detection",)),
    Mutant("near-recurrence-drops-u", "src/quantloop/analysis.py",
           "if (abs(e[j] - ek) <= tol and abs(u[j] - uk) <= tol\n"
           "                        and all(abs(a - b) <= tol\n"
           "                                for a, b in zip(e[j:], e[k:]))\n"
           "                        and all(abs(a - b) <= tol\n"
           "                                for a, b in zip(u[j:], u[k:]))):",
           "if (abs(e[j] - ek) <= tol\n"
           "                        and all(abs(a - b) <= tol\n"
           "                                for a, b in zip(e[j:], e[k:]))):",
           ("tests/test_analysis.py::test_detect_cycle_of_a_float_run_"
            "is_its_definition",)),
    Mutant("huge-state-cell", "src/quantloop/analysis.py",
           "            try:\n                ci, cj = math.floor(ek / tol), "
           "math.floor(uk / tol)\n"
           "            except OverflowError:  # an infinite quotient is its "
           "own cell\n"
           "                ci, cj = (q if math.isinf(q) else math.floor(q)\n"
           "                          for q in (ek / tol, uk / tol))\n",
           "            ci, cj = math.floor(ek / tol), math.floor(uk / tol)\n",
           ("tests/test_cli.py::test_float_cycle_search_takes_a_state_"
            "beyond_a_cell_index",)),
    # the scenario runner: preconditions first, each command's own files
    Mutant("check-after-simulate", "src/quantloop/campaign.py",
           "    config = checked_analyzable(load_scenario(config_path), "
           "command,\n"
           "                                config_path)\n"
           "    traj = simulate(config)\n",
           "    config = load_scenario(config_path)\n"
           "    traj = simulate(config)\n"
           "    checked_analyzable(config, command, config_path)\n",
           ("tests/test_campaign.py",)),
    Mutant("cycles-writes-trajectory", "src/quantloop/campaign.py",
           'if command != "cycles":', "if command:",
           ("tests/test_cli.py",)),
    Mutant("verdicts-for-every-command", "src/quantloop/campaign.py",
           'if command == "analyze":\n'
           '        capture = analysis.verify_capture(',
           'if command:\n        capture = analysis.verify_capture(',
           ("tests/test_cli.py::test_cycles_predicts_only_switched_runs",)),
    Mutant("prediction-for-standard-pi", "src/quantloop/campaign.py",
           'if shifted.mode == "exact" and config.controller == '
           '"switched-pi":',
           'if shifted.mode == "exact" and config.controller != '
           '"unquantized-pi":',
           ("tests/test_cli.py",)),
    Mutant("analyze-takes-any-law", "src/quantloop/campaign.py",
           '"the capture analysis needs \'switched-pi\', got {!r}"),\n'
           '        ("analyze",)),',
           '"the capture analysis needs \'switched-pi\', got {!r}"),\n'
           '        ()),',
           ("tests/test_cli.py",)),
    # a failing verdict names each failing stored state once, at its first
    # step from the verdict's start, so a report does not grow with the run:
    # the flagged steps of one window from the start clamped at step 0,
    # read round the cycle; the float lock has its tolerance
    Mutant("verdict-every-repeat", "src/quantloop/analysis.py",
           "violations = tuple(compress(steps, flags[i:] + "
           "flags[traj.entry:i]))",
           "violations = tuple(k for k in range(s, traj.length) "
           "if flags[traj.index(k)])",
           ("tests/test_campaign.py::"
            "test_failing_verdict_lists_each_state_once",
            "tests/test_analysis.py::"
            "test_verdicts_match_their_record_wise_definitions")),
    Mutant("verdict-window-wraps-to-zero", "src/quantloop/analysis.py",
           "flags[traj.entry:i]", "flags[:i]",
           ("tests/test_analysis.py::"
            "test_verdicts_match_their_record_wise_definitions",)),
    Mutant("verdict-start-unclamped", "src/quantloop/analysis.py",
           "    s = max(start, 0)\n", "    s = start\n",
           ("tests/test_analysis.py::"
            "test_verdicts_match_their_record_wise_definitions",)),
    Mutant("lock-float-tolerance-zero", "src/quantloop/analysis.py",
           "<= 1e-12", "<= 0",
           ("tests/test_analysis.py::"
            "test_verdicts_match_their_record_wise_definitions",)),
    # the campaign's gain: table1.csv reads the same at 21/16
    Mutant("campaign-default-gain", "src/quantloop/campaign.py",
           "alpha: Scalar = Fraction(11, 8)",
           "alpha: Scalar = Fraction(21, 16)",
           ("tests/test_campaign.py::"
            "test_campaign_default_gain_is_eleven_eighths",)),
    # a table whose +dbar and -dbar scores disagree is not written
    Mutant("sign-symmetry-dropped", "src/quantloop/campaign.py",
           "if abs(plus - minus) > 1e-12:", "if False:",
           ("tests/test_cli.py::"
            "test_table1_fails_when_the_signs_disagree",)),
    # the command line: a required option and the worker range
    Mutant("required-option-dropped", "src/quantloop/cli.py",
           "if required and getattr(args, name) is None:",
           "if required and False:",
           ("tests/test_cli.py::test_usage_errors_exit_two",)),
    Mutant("jobs-range-dropped", "src/quantloop/cli.py",
           "if not 1 <= jobs <= limit:", "if False:",
           ("tests/test_cli.py::test_jobs_accepts_every_cpu_count",
            "tests/test_cli.py::"
            "test_jobs_without_fork_takes_only_one_worker")),
    # the config loader: an absent block keeps its defaults, a key outside
    # the table fails at any depth, and a list key takes only a list
    Mutant("absent-block-read", "src/quantloop/campaign.py",
           'if key.split(".")[0] not in raw and name in '
           "record._field_defaults:",
           "if False:",
           ("tests/test_campaign.py::test_one_absent_key_rule",)),
    Mutant("unknown-key-dropped", "src/quantloop/campaign.py",
           "    if unknown := _unknown_key(raw, keys):\n"
           '        raise ValueError(f"{path}: unknown key {unknown!r}")\n',
           "",
           ("tests/test_cli.py::test_unknown_config_key_is_rejected",)),
    Mutant("list-key-takes-any-value", "src/quantloop/campaign.py",
           "    if not isinstance(values, list):\n", "    if False:\n",
           ("tests/test_cli.py::"
            "test_campaign_disturbances_not_a_list_names_the_key",)),
    # the records: each rule tests its value, and each input record's
    # constructor runs its check, the field rules by default
    Mutant("rule-test-dropped", "src/quantloop/dynamics.py",
           "if not test(value):", "if False:",
           ("tests/test_records.py::test_each_rule_has_one_home",)),
    Mutant("record-check-dropped", "src/quantloop/dynamics.py",
           "self = new(cls, *args, **kwargs)\n        check(self)\n",
           "self = new(cls, *args, **kwargs)\n",
           ("tests/test_records.py::"
            "test_replaced_record_is_checked_when_unpickled",)),
    Mutant("record-default-check-no-op", "src/quantloop/dynamics.py",
           'getattr(record, "_check", check_rules)',
           'getattr(record, "_check", lambda record: None)',
           ("tests/test_records.py::"
            "test_validated_records_reject_bad_input_when_built",)),
    # the writers: CRLF rows, no temporary file left behind, row 0 at k = 0
    Mutant("csv-row-lf", "src/quantloop/dynamics.py",
           '",".join(map(str, row)) + "\\r\\n"',
           '",".join(map(str, row)) + "\\n"',
           ("tests/test_campaign.py::"
            "test_table_csvs_read_back_to_the_fields_written",)),
    Mutant("atomic-open-keeps-temporary", "src/quantloop/dynamics.py",
           "os.remove(tmp)", "pass",
           ("tests/test_campaign.py::"
            "test_a_failed_write_leaves_the_earlier_file",)),
    Mutant("csv-row-zero-step", "src/quantloop/dynamics.py",
           "MODE_NA) % 0).encode())", "MODE_NA) % 1).encode())",
           ("tests/test_dynamics.py::test_trajectory_csv_round_trip_exact",)),
    # a float switched reset keeps the run's values floats
    Mutant("float-reset-dropped", "src/quantloop/dynamics.py",
           "u = float(q_u + q_e)", "u = q_u + q_e",
           ("tests/test_dynamics.py::"
            "test_law_with_views_matches_two_value_law",)),
    # a ramp run warns of nothing; only the committed experiments, run as
    # a user runs them under -W error, simulate a ramp with warnings fatal
    Mutant("ramp-warns", "src/quantloop/dynamics.py",
           "    mode = config.resolved_mode()\n",
           "    if len(config.disturbance.breakpoints) > 1:\n"
           "        warnings.warn(\"ramp\", TuningWarning, stacklevel=2)\n"
           "    mode = config.resolved_mode()\n",
           tuple(f"tests/test_cli.py::test_experiment_outputs_match_the_"
                 f"committed_sums[simulate-ramp-{name}]"
                 for name in ("standard-crossing", "switched-crossing",
                              "switched-no-crossing"))),
    # a worker's exception ends the sweep with that exception
    Mutant("fork-exception-swallowed", "src/quantloop/reachability.py",
           "raise pickle.loads(results[i])", "pass",
           reach("test_worker_exception_reaches_the_caller")),
    # the cycle line: the detected cycle of the report the runner returns
    Mutant("cycle-line-from-prediction", "src/quantloop/cli.py",
           'cycle = report["cycle"]', 'cycle = report["predicted-cycle"]',
           ("tests/test_cli.py::test_scenario_command_"
            "writes_exactly_its_files",
            "tests/test_cli.py::test_cycles_prints_the_report_it_was_handed")),
    # the lazy layers: a module already imported stays the one in
    # sys.modules, and a lazy one is bound on its package as import does
    Mutant("lazy-layer-replaces-import", "src/quantloop/cli.py",
           "    if name in sys.modules:\n"
           "        return sys.modules[name]\n",
           "", reach("test_sweep_classifies_each_cell_it_cannot_mirror")),
    Mutant("lazy-layer-not-on-package", "src/quantloop/cli.py",
           "setattr(sys.modules[package], child, module)", "pass",
           ("tests/test_cli.py::"
            "test_cli_import_loads_its_layers_and_no_heavy_stdlib",)),
)


def copy_tree(tree: Path) -> Path:
    """``tree``: a copy of the package, its tests and its pytest settings,
    with the experiments and their outputs' sums that the tests run."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests", "experiments"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    (tree / ".github").mkdir()
    for name in ("pyproject.toml", ".github/experiment-outputs.sha256"):
        shutil.copy2(ROOT / name, tree / name)
    return tree


def pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, capture_output=True, text=True)


def unmutated_checks() -> tuple:
    """One job per test file that the table names, editing nothing: the
    whole file if the table names it, else the tests it names there."""
    files = {}
    for name in sorted({name for mutant in MUTANTS for name in mutant.tests}):
        files.setdefault(name.split("::")[0], []).append(name)
    return tuple(Mutant(f"unmutated-{Path(path).stem}", "", "", "",
                        (path,) if path in names else tuple(names))
                 for path, names in files.items())


def run(mutant: Mutant, scratch: Path) -> str:
    """``killed by <test>``, ``survived`` or what else went wrong, on a copy
    of the tree under ``scratch`` with ``mutant`` applied; ``passed`` for
    an unmutated check (no ``path``) whose tests pass."""
    tree = copy_tree(scratch / mutant.name)
    if mutant.path:
        target = tree / mutant.path
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"old text found {found} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
    proc = pytest(tree, mutant.tests)
    if proc.returncode == 0:
        return "survived" if mutant.path else "passed"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed and mutant.path:
        return f"killed by {failed[0]}"
    return f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"


def main() -> int:
    jobs = unmutated_checks() + MUTANTS
    killed = failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as scratch:

        def timed(mutant: Mutant) -> tuple:
            t0 = time.perf_counter()
            return run(mutant, Path(scratch)), time.perf_counter() - t0

        # one job per CPU at a time, each in its own copy of the tree; the
        # verdicts print in job order
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for job, (verdict, seconds) in zip(jobs, pool.map(timed, jobs)):
                killed += verdict.startswith("killed")
                failed += not verdict.startswith(("killed", "passed"))
                print(f"{job.name}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
