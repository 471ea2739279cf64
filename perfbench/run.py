"""End-to-end benchmark of the ecofence simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

It builds the workload's scenario from the bundled demo ring (see
``workloads.py``), then runs operations, each in a fresh interpreter
(``child.py``): a set-up (``import ecofence``, ``load_scenario`` and
``load_default_table``) followed by one call of ``ecofence.cli.main`` with
the workload's command and seed.  Operations repeat at least ``MIN_OPS``
times and while the next one is expected to end within ``--seconds``.

Every operation replays the same seed, so it does the same work and must
write the same bytes.  The first operation's outputs get every check in
``checks.py``; each later one must match its sha256 digests.  A broken
check fails the operation.

The host this was tuned on alternates between two CPU speeds, about 1.5x
apart, in phases of seconds to minutes.  A time that averages over a
whole operation mixes the two in a share that differs from run to run, so
timings are taken as the best of the run's replays of identical work
(the ``timeit`` rule): a step's time is its fastest replay.  ``step_ms_p50`` is the median of those step
times over the control runs' steps and ``vehicle_steps_per_s`` divides
the vehicle-steps of one operation by their sum.  ``step_ms_p98`` is a
tail, so it is taken over every replayed control step.  ``setup_s`` is
the median over the operations' set-ups.  The command's own wall time
is printed (fastest and median operation) but is not one of the result's
metrics: whole operations are too long to escape the slow phases, and
its spread over runs reached a third of its median.

With ``--trace 1`` the first operation runs untraced and the rest with
every layer wrapped (``layers.py``); the per-layer metrics are medians
over the traced operations.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``.bench_work/`` in the checkout and are
removed at the end, except the span file of the last traced run of each
workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

import checks  # noqa: E402  (HERE is on sys.path as the script's directory)
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 4  # at least 640 control steps for p98 on a 160-step workload
MIN_TRACED_OPS = 2  # one untraced, for the overhead, and one traced
DEADLINE_S = 170.0  # a run must end within 180 s

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "vehicle_steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p98": "ms",
    "peak_rss_mb": "MiB",
    "in_fence_g_per_min": "g/min",
}
PER_LAYER_EXTRA = {"trace.overhead_s": "s"}


class BenchmarkError(Exception):
    """The benchmark cannot run here, or no operation produced a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_child(request: dict, name: str, work: Path, deadline: float) -> dict | None:
    """Run ``child.py`` on ``request``; its result, or None if it failed."""
    request = dict(request, root=str(ROOT), result=str(work / f"{name}.result.json"))
    request_path = work / f"{name}.request.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(request_path)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # one process group, so sweep workers die with it
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out", flush=True)
        return None
    finally:
        if proc.returncode is None:  # timed out, or this script is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result_path = Path(request["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        print(f"{name}: exited with {proc.returncode}: " + " | ".join(tail), flush=True)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def simulated_stats(command: str, out: Path) -> tuple[float, float]:
    """(within_budget_fraction, control in-fence g/min) of one operation;
    a sweep gives the mean over its seeds."""
    if command == "sweep":
        entries = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
        return (
            statistics.fmean(e["within_budget_fraction"] for e in entries),
            statistics.fmean(e["control_mean_in_fence"] for e in entries),
        )
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return summary["within_budget_fraction"], summary["control_mean_in_fence"]


def op_metrics(child: dict, command: str, out: Path) -> dict:
    """What one operation contributes; steps are keyed by (seed, control)."""
    within, in_fence = simulated_stats(command, out)
    return {
        "setup_s": child["setup_s"],
        "wall_s": child["wall_s"],
        "vehicle_steps": sum(r["vehicle_steps"] for r in child["runs"]),
        "steps": {(r["seed"], r["control"]): r["step_s"] for r in child["runs"]},
        "peak_rss_mb": (child["rss_kib"] + child["children_rss_kib"]) / 1024.0,
        "in_fence_g_per_min": in_fence,
        "within_budget_fraction": within,
    }


def end_to_end(ops: list[dict], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics of a run from its untraced operations."""
    best: dict[tuple, list[float]] = {}
    for op in ops:
        for key, steps in op["steps"].items():
            best[key] = [min(pair) for pair in zip(best[key], steps)] if key in best else steps
    control_best = [s for (_, control), steps in best.items() if control for s in steps]
    control_all = [s for op in ops for (_, control), steps in op["steps"].items() if control for s in steps]
    return {
        "setup_s": statistics.median(setups),
        "vehicle_steps_per_s": ops[0]["vehicle_steps"] / sum(sum(steps) for steps in best.values()),
        "step_ms_p50": 1000.0 * percentile(control_best, 0.50),
        "step_ms_p98": 1000.0 * percentile(control_all, 0.98),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "in_fence_g_per_min": statistics.median(op["in_fence_g_per_min"] for op in ops),
    }


def per_layer(layer_ops: list[tuple[dict, dict]], untraced_wall: float) -> tuple[dict, list[str]]:
    """Median of every per-layer metric over the traced operations."""
    values: dict[str, list[float]] = {}
    absent: set[str] = set()
    for child, metrics in layer_ops:
        absent.update(child["absent"])
        for name, value in child["per_layer"].items():
            values.setdefault(name, []).append(value)
        values.setdefault("trace.overhead_s", []).append(metrics["wall_s"] - untraced_wall)
    units = {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()}
    units.update(PER_LAYER_EXTRA)
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in units.items()
        if name in values and name not in absent
    }
    return metrics, sorted(absent)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the result object plus report fields."""
    began = time.monotonic()
    deadline = began + DEADLINE_S
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "demo_sweep":
            scenario = workloads.demo_path(ROOT)
        else:
            scenario = workloads.write_scenario(workload, ROOT, work / "scenario.json")
        from ecofence.optimizer import BUDGET_TOL
        from ecofence.scenario import load_scenario

        steps = load_scenario(scenario).steps()
        ops, layer_ops, setups = [], [], []
        attempted = failed = decisions = 0
        first_digests = None
        problems: list[str] = []
        start = time.monotonic()
        last_op_s = 0.0
        min_ops = MIN_TRACED_OPS if traced else MIN_OPS
        # Start another operation while it is expected to end within --seconds.
        while attempted < min_ops or time.monotonic() - start + last_op_s <= seconds:
            if time.monotonic() > deadline - 10:
                break
            op_start = time.monotonic()
            index = attempted
            attempted += 1
            out = work / f"op{index}"
            argv = workloads.cli_args(workload, scenario, seed, out, traced=traced)
            request = {
                "scenario": str(scenario),
                "argv": argv,
                "traced": traced and index > 0,
                "runs_dir": str(work / f"op{index}-runs"),
                "spans_path": str(WORK / f"spans-{workload}.csv"),
            }
            child = run_child(request, f"op{index}", work, deadline)
            if child is None:
                broken = ["no result"]
            else:
                digests, checked, broken = checks.check_operation(
                    argv[0], out, child, steps, BUDGET_TOL, first_digests
                )
                decisions += checked
            if broken:
                failed += 1
                problems.extend(f"op{index}: {p}" for p in broken)
            else:
                first_digests = first_digests or digests
                metrics = op_metrics(child, argv[0], out)
                setups.append(child["setup_s"])
                if request["traced"]:
                    layer_ops.append((child, metrics))
                else:
                    ops.append(metrics)
            shutil.rmtree(out, ignore_errors=True)
            last_op_s = time.monotonic() - op_start
        if not ops or (traced and not layer_ops):
            raise BenchmarkError("no operation completed: " + "; ".join(problems[:5]))

        report = {
            "workload": workload,
            "seed": seed,
            "ops": attempted,
            "failed_ratio": failed / attempted,
            "decisions_checked": decisions,
            "problems": problems,
            "digests": first_digests or {},
            "within_budget_fraction": sorted({m["within_budget_fraction"] for m in ops}),
            "elapsed_s": time.monotonic() - began,
            "samples": {"setup_s": len(setups), "untraced_ops": len(ops), "traced_ops": len(layer_ops)},
        }
        if traced:
            metrics_out, report["absent"] = per_layer(layer_ops, ops[0]["wall_s"])
            report["spans_file"] = str(WORK / f"spans-{workload}.csv")
        else:
            values = end_to_end(ops, setups)
            metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            report["wall_s"] = {
                "best": min(op["wall_s"] for op in ops),
                "median": statistics.median(op["wall_s"] for op in ops),
            }
            report["samples"]["control_steps"] = sum(
                len(s) for (_, control), s in ops[0]["steps"].items() if control
            )
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}
        return {"result": result, "report": report}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict, metrics: dict) -> None:
    print(
        f"workload {report['workload']} seed {report['seed']}: {report['ops']} operations, "
        f"failed_ratio {report['failed_ratio']:.4f}, "
        f"{report['decisions_checked']} decisions checked, {report['elapsed_s']:.1f} s"
    )
    for problem in report["problems"]:
        print(f"  check failed: {problem}")
    for name, digest in sorted(report["digests"].items()):
        print(f"  sha256 {name} {digest}")
    print(f"  within_budget_fraction {report['within_budget_fraction']}")
    if "wall_s" in report:
        wall = report["wall_s"]
        print(f"  wall_s (reported, not bounded): best {wall['best']:.6f} s, median {wall['median']:.6f} s")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  samples: {json.dumps(report['samples'])}")
    if "absent" in report:
        print(f"  spans written to {report['spans_file']}")
        for name in report["absent"]:
            print(f"  absent: {name} (its wrap target no longer exists)")
        print_design_checks(metrics)


def print_design_checks(metrics: dict) -> None:
    """The traced numbers that confirm why the workload was chosen."""
    times = {n: m["value"] for n, m in metrics.items() if n.endswith("_s") and n != "trace.overhead_s"}
    if not times:
        return
    top = max(times, key=times.get)
    print(f"  largest self time: {top} {times[top]:.4f} s")
    if "engine.detect_s" in times:
        control = sum(v for n, v in times.items() if n.startswith(("coordinator.", "optimizer.")))
        print(
            f"  coordinator + optimizer self time {control:.4f} s vs engine.detect_s "
            f"{times['engine.detect_s']:.4f} s"
        )


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which stops its child


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ecofence" / "__init__.py").is_file() or not workloads.demo_path(ROOT).is_file():
        print(f"error: no ecofence sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            measured = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(measured["report"], measured["result"]["metrics"])
            results[name] = measured["result"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
