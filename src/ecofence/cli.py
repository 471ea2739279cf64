"""Command-line front end.

Subcommands:
  run          execute one scenario and write trace/command-log/summary files
  compare      baseline vs control on the same seed, plus plot tables
  sweep        compare across a seed range, merged summary by seed order
  solve-debug  print the assignment solution for a problem JSON file

Exit codes: 0 success, 1 scenario/problem validation failure, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
# concurrent.futures imports its process pool, and multiprocessing with it,
# only when sweep first reads ProcessPoolExecutor
import concurrent.futures
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .coordinator import FenceToss
from .engine import run
from .optimizer import GeofenceProblem, budget_spend, solve
from .reporting import (
    CompareResult,
    assignment_snapshot_table,
    before_after_table,
    fleet_size_table,
    run_compare,
    summarize,
    total_emissions_table,
    write_commands_csv,
    write_summary_json,
    write_table_csv,
    write_trace_csv,
)
from .scenario import (
    Scenario,
    ScenarioError,
    _budget_problems,
    _json_object,
    _number,
    _parse_background,
    _shaped,
    _text_lines,
    load_density_file,
    load_scenario,
    with_density,
)

logger = logging.getLogger(__name__)


def _parse_background_arg(value: str):
    """Read a ``--background`` value: a constant, or a ``time,level`` CSV file
    as ``[[time, level], ...]``, the scenario file's form."""
    try:
        return float(value)
    except ValueError:
        pass
    series = []
    path = Path(value)
    if not path.exists():
        raise ScenarioError([f"background {value!r}: not a number and not a file"])
    for lineno, raw in enumerate(_text_lines(path, f"background file {value!r}"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line == "time,level":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ScenarioError([f"{value}:{lineno}: expected 'time,level'"])
        try:
            series.append([float(parts[0]), float(parts[1])])
        except ValueError:
            raise ScenarioError([f"{value}:{lineno}: values must be numbers"]) from None
    if not series:
        raise ScenarioError([f"background file {value!r} is empty"])
    return series


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    controller = scenario.controller
    changes = {}
    if args.tau is not None:
        changes["tau"] = args.tau
    if args.radius is not None:
        changes["radius"] = args.radius
    if args.limit is not None:
        changes["allowable_limit"] = args.limit
    if changes:
        try:
            controller = dataclasses.replace(controller, **changes)
        except ValueError as exc:
            raise ScenarioError([f"control override: {exc}"]) from None
        scenario = dataclasses.replace(scenario, controller=controller)
    if args.no_control:
        scenario = dataclasses.replace(scenario, control_enabled=False)
    if args.single_vehicle:
        scenario = dataclasses.replace(scenario, single_vehicle=True)
    if args.background is not None:
        problems: list[str] = []
        raw = _parse_background_arg(args.background)
        background = _parse_background(raw, problems, f"--background {args.background}")
        if problems:
            raise ScenarioError(problems)
        scenario = dataclasses.replace(scenario, background=background)
    problems = _budget_problems(scenario.controller.allowable_limit, scenario.background, "control override")
    if problems:
        raise ScenarioError(problems)
    if args.density is not None:
        weights = load_density_file(args.density, scenario.network)
        scenario = with_density(scenario, weights)
    return scenario


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    return _apply_overrides(scenario, args)


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, made with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ScenarioError([f"--out {path}: not a directory"]) from None
    return out


def _cmd_run(args) -> int:
    scenario = _load(args)
    out = _out_dir(args.out)
    result = run(scenario, args.seed)
    write_trace_csv(result.trace, out / "trace.csv")
    write_commands_csv(result.commands, out / "commands.csv")
    write_summary_json(summarize(result), out / "summary.json")
    write_table_csv(total_emissions_table(result.trace), out / "plot_total_emissions.csv")
    print(f"wrote trace.csv, commands.csv, summary.json to {out}")
    return 0


def _write_compare_outputs(compared: CompareResult, out: Path) -> None:
    write_trace_csv(compared.baseline.trace, out / "baseline_trace.csv")
    write_trace_csv(compared.control.trace, out / "control_trace.csv")
    write_commands_csv(compared.control.commands, out / "control_commands.csv")
    write_summary_json(compared.summary, out / "summary.json")
    write_table_csv(
        before_after_table(compared.control.trace, compared.baseline.trace),
        out / "plot_before_after.csv",
    )
    commands = compared.control.commands
    if any(type(entry) is FenceToss for entry in commands):
        write_table_csv(assignment_snapshot_table(commands), out / "plot_assignment_snapshot.csv")
        write_table_csv(fleet_size_table(commands), out / "plot_fleet_size.csv")


def _cmd_compare(args) -> int:
    scenario = _load(args)
    out = _out_dir(args.out)
    compared = run_compare(scenario, args.seed)
    _write_compare_outputs(compared, out)
    summary = compared.summary
    print(
        f"baseline mean in-fence {summary.baseline_mean_in_fence:.4f} g/min, "
        f"control mean {summary.control_mean_in_fence:.4f} g/min, "
        f"budget {summary.budget:.4f} g/min"
    )
    return 0


def _parse_seed_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise ScenarioError([f"bad seed range {text!r}; expected a..b"]) from None
        if stop < start:
            raise ScenarioError([f"bad seed range {text!r}: end before start"])
        return list(range(start, stop + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ScenarioError([f"bad seed {text!r}"]) from None


def _sweep_one(payload):
    scenario, seed = payload
    return seed, run_compare(scenario, seed).summary


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError([f"--jobs {args.jobs}: must be at least 1"])
    scenario = _load(args)
    seeds = _parse_seed_range(args.seeds)
    out = _out_dir(args.out)
    payloads = [(scenario, seed) for seed in seeds]
    # the pool forks all its workers at the first submit, so ask for no
    # more than there are seeds
    jobs = min(args.jobs, len(seeds))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, payloads))
    else:
        results = [_sweep_one(p) for p in payloads]
    results.sort(key=lambda item: item[0])  # merge deterministically by seed
    merged = [
        {
            "seed": seed,
            "budget": summary.budget,
            "baseline_mean_in_fence": summary.baseline_mean_in_fence,
            "control_mean_in_fence": summary.control_mean_in_fence,
            "control_max_in_fence": summary.control_max_in_fence,
            "within_budget_fraction": summary.within_budget_fraction,
        }
        for seed, summary in results
    ]
    with open(out / "sweep_summary.json", "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"swept {len(seeds)} seeds -> {out / 'sweep_summary.json'}")
    return 0


def _required_number(data: dict, key: str, problems: list[str], where: str) -> float | None:
    if data.get(key) is None:
        problems.append(f"{where}.{key}: must be a finite number")
        return None
    return _number(data, key, problems, where)


def _parse_problem(data: dict) -> GeofenceProblem:
    """Build the problem of a parsed problem file, checked as the scenario
    loader checks a scenario: every violation is reported with its field
    path.  Only here does a problem enter from outside, so the checks the
    solvers rely on are made here."""
    problems: list[str] = []
    limit = _required_number(data, "limit", problems, "problem")
    raw_entries = data.get("entries")
    if raw_entries is None:
        problems.append("entries: must be a list")
    vehicle_ids, densities, rates = [], [], []
    seen: set[str] = set()
    for i, raw in enumerate(_shaped(raw_entries, list, problems, "entries") or []):
        where = f"entries[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        vid = raw.get("vehicle_id")
        if not isinstance(vid, str) or not vid:
            problems.append(f"{where}.vehicle_id: must be a non-empty string")
        elif vid in seen:
            problems.append(f"{where}.vehicle_id: duplicate vehicle {vid!r}")
        else:
            seen.add(vid)
        density = _required_number(raw, "density", problems, where)
        if density is not None and density < 1.0:
            problems.append(f"{where}.density: must be >= 1.0, got {density!r}")
        rate = _required_number(raw, "emission_rate", problems, where)
        if rate is not None and rate < 0.0:
            problems.append(f"{where}.emission_rate: must be >= 0, got {rate!r}")
        vehicle_ids.append(vid)
        densities.append(density)
        rates.append(rate)
    if problems:
        raise ScenarioError(problems)
    return GeofenceProblem(tuple(vehicle_ids), tuple(densities), tuple(rates), limit)


def _cmd_solve_debug(args) -> int:
    problem = _parse_problem(_json_object(args.problem, "problem file"))
    assignment = solve(problem)
    print(f"{'vehicle_id':<12} {'d':>8} {'e':>10} {'x':>8}")
    for (vehicle_id, density, rate), x in zip(problem.entries, assignment.x):
        print(f"{vehicle_id:<12} {density:>8.3f} {rate:>10.4f} {x:>8.4f}")
    spend = f"objective {assignment.objective_value:.6f}, expected rate {budget_spend(assignment, problem):.6f}"
    if problem.limit > 0.0:
        print(f"{spend} <= limit {problem.limit:.6f}")
    else:
        # the solver meets max(limit, 0): a limit at or below zero sets every x to 0
        print(f"{spend} <= 0.000000 (all-electric rule: limit {problem.limit:.6f} is not positive)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecofence",
        description="Geofence emission regulation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_control_flags: bool):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--tau", type=float, default=None, help="decision interval override (s)")
        p.add_argument("--radius", type=float, default=None, help="geofence radius override (m)")
        p.add_argument("--limit", type=float, default=None, help="allowable limit override (g/min)")
        p.add_argument(
            "--background",
            default=None,
            help="background level: a constant or a CSV file of time,level",
        )
        p.add_argument("--density", default=None, help="density weight CSV (edge_id,weight)")
        if with_control_flags:
            p.add_argument("--no-control", action="store_true", help="disable the controller")
            p.add_argument(
                "--single-vehicle",
                action="store_true",
                help="single-vehicle operation (detector-only electric switching)",
            )

    p_run = sub.add_parser("run", help="run one scenario")
    add_common(p_run, with_control_flags=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="baseline vs control with one seed")
    add_common(p_cmp, with_control_flags=False)
    p_cmp.add_argument("--seed", type=int, required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare, no_control=False, single_vehicle=False)

    p_sweep = sub.add_parser("sweep", help="compare across a seed range")
    add_common(p_sweep, with_control_flags=False)
    p_sweep.add_argument("--seeds", required=True, help="seed range a..b (inclusive) or one seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers (at least 1)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep, no_control=False, single_vehicle=False)

    p_dbg = sub.add_parser("solve-debug", help="print the solution of a problem JSON file")
    p_dbg.add_argument("--problem", required=True)
    p_dbg.set_defaults(func=_cmd_solve_debug)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive catch-all
        logger.exception("run failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
