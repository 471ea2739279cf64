"""Which program names the traced run wraps, and the per-layer metrics.

Every layer boundary is named by the module and attribute it lives at.
The metric list is the one ``BENCHMARK.json`` declares under
``per_layer``; a metric whose target did not resolve, or whose observer
found the program's objects changed, is left out of the result and
listed as absent instead.
"""

from __future__ import annotations

import os

from tracer import Tracer, self_time_by_name

# target name -> ((module, attribute), ...); "span" targets record time,
# "count" targets only count calls.
SPAN_TARGETS = {
    "cli.main": (("ecofence.cli", "main"),),
    "engine.run": (("ecofence.engine", "run"),),
    "engine.step": (("ecofence.engine", "step"),),
    "engine.detect": (("ecofence.engine", "detect"),),
    "engine.snapshot": (("ecofence.engine", "_snapshot_vehicles"),),
    "engine.trace_row": (("ecofence.engine", "_trace_row"),),
    "coordinator.on_detection": (("ecofence.coordinator", "GeofenceCoordinator.on_detection"),),
    "coordinator.step": (("ecofence.coordinator", "GeofenceCoordinator.step"),),
    "coordinator.members": (("ecofence.coordinator", "members"),),
    "coordinator.build_problem": (("ecofence.coordinator", "GeofenceCoordinator.build_problem"),),
    "coordinator.toss": (("ecofence.coordinator", "GeofenceCoordinator._toss_fence"),),
    "optimizer.solve": (("ecofence.optimizer", "solve"),),
    "emissions.rate": (("ecofence.emissions", "vehicle_emission_rate"),),
    "scenario.load": (
        ("ecofence.scenario", "load_scenario"),
        ("ecofence.scenario", "parse_scenario"),
    ),
    "scenario.to_dict": (("ecofence.scenario", "Scenario.to_dict"),),
    "reporting.summarize": (("ecofence.reporting", "summarize"),),
    "reporting.write": (
        ("ecofence.reporting", "write_trace_csv"),
        ("ecofence.reporting", "write_commands_csv"),
        ("ecofence.reporting", "write_summary_json"),
        ("ecofence.reporting", "write_table_csv"),
    ),
}
COUNT_TARGETS = {
    "network.position_at": (("ecofence.network", "Edge.position_at"),),
    "network.edge": (("ecofence.network", "RoadNetwork.edge"),),
    "coordinator.draw": (("ecofence.coordinator", "toss_polluting"),),
    "coordinator.restore": (("ecofence.coordinator", "GeofenceCoordinator._restore"),),
}


def _observers(t: Tracer) -> dict:
    """Per-target hooks run after each call, on its arguments and result."""

    def detect(args, result):
        world = args[0]
        t.count("detect.pairs", len(world.cyclists) * len(world.vehicles))
        t.count("detect.hits", len(result))

    def trace_row(args, result):
        # Runs after the step's commands were queued: the queue's peak.
        t.peak("pending", len(args[0].pending_commands))

    def members(args, result):
        t.count("members.tested", len(args[1]))
        t.count("members.found", len(result))

    def solve(args, result):
        t.peak("solve.entries", len(args[0].entries))

    def rate(args, result):
        t.distinct("rate.keys", (args[0], args[2]))

    def write(args, result):
        t.count("write.bytes", os.path.getsize(args[1]))

    return {
        "engine.detect": detect,
        "engine.trace_row": trace_row,
        "coordinator.step": lambda args, result: t.count("step.commands", len(result)),
        "coordinator.members": members,
        "coordinator.build_problem": lambda args, result: t.count("problem.entries", len(result.entries)),
        "optimizer.solve": solve,
        "emissions.rate": rate,
        "reporting.write": write,
    }


def _guarded(t: Tracer, target: str, observe):
    """An observer that reports its target absent instead of failing the run."""

    def run_observer(args, result):
        if target in t.absent:
            return
        try:
            observe(args, result)
        except Exception:  # the program's objects changed shape
            t.absent.add(target)

    return run_observer


def install(t: Tracer) -> None:
    """Wrap every target; unresolved ones end up in ``t.absent``."""
    observers = _observers(t)
    for target, places in SPAN_TARGETS.items():
        observe = observers.get(target)
        if observe is not None:
            observe = _guarded(t, target, observe)
        for module, attr in places:
            if target == "engine.run":
                make = lambda fn: _numbered_runs(t, t.spanned("engine.run", fn))
            else:
                make = lambda fn, target=target, observe=observe: t.spanned(target, fn, observe)
            if not t.patch(module, attr, make):
                t.absent.add(target)
    for target, places in COUNT_TARGETS.items():
        for module, attr in places:
            if not t.patch(module, attr, lambda fn, target=target: t.counted(target, fn)):
                t.absent.add(target)


def _numbered_runs(t: Tracer, traced_run):
    """Give the spans of each simulation run their own run id; 0 is outside runs."""
    runs = [0]

    def run(*args, **kwargs):
        runs[0] += 1
        outer, t.run_id = t.run_id, runs[0]
        try:
            return traced_run(*args, **kwargs)
        finally:
            t.run_id = outer

    return run


class _View:
    """What a metric is computed from: self times, span counts and counters."""

    def __init__(self, t: Tracer):
        spans = t.spans()
        self.selfs = self_time_by_name(spans)
        self.spans: dict[str, int] = {}
        for span in spans:
            self.spans[span.name] = self.spans.get(span.name, 0) + 1
        self.t = t

    def self_time(self, target: str) -> float:
        return self.selfs.get(target, 0.0)

    def calls(self, target: str) -> int:
        return self.spans.get(target, 0)

    def count(self, key: str) -> float:
        return self.t.counts.get(key, 0)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def _self_s(target):
    return ("s", (target,), lambda v: v.self_time(target))


def _calls(target):
    return ("count", (target,), lambda v: v.calls(target))


def _counter(target, key, unit="count"):
    return (unit, (target,), lambda v: v.count(key))


def _peak(target, key):
    return ("count", (target,), lambda v: v.t.maxima.get(key, 0))


# metric name -> (unit, targets it needs, value from a _View); the same
# names, in this order, are BENCHMARK.json's per_layer list.
PER_LAYER = {
    "engine.run_s": _self_s("engine.run"),
    "engine.step_s": _self_s("engine.step"),
    "engine.snapshot_s": _self_s("engine.snapshot"),
    "engine.trace_row_s": _self_s("engine.trace_row"),
    "engine.detect_s": _self_s("engine.detect"),
    "engine.detect_pairs": _counter("engine.detect", "detect.pairs"),
    "engine.detect_hit_ratio": (
        "ratio",
        ("engine.detect",),
        lambda v: v.ratio(v.count("detect.hits"), v.count("detect.pairs")),
    ),
    "engine.pending_commands_max": _peak("engine.trace_row", "pending"),
    "network.position_at_calls": _counter("network.position_at", "network.position_at"),
    "network.edge_lookups": _counter("network.edge", "network.edge"),
    "emissions.rate_s": _self_s("emissions.rate"),
    "emissions.rate_calls": _calls("emissions.rate"),
    "emissions.rate_repeat_ratio": (
        "ratio",
        ("emissions.rate",),
        lambda v: 1.0 - v.ratio(len(v.t.keys.get("rate.keys", ())), v.calls("emissions.rate"))
        if v.calls("emissions.rate")
        else 0.0,
    ),
    "optimizer.solve_s": _self_s("optimizer.solve"),
    "optimizer.solves": _calls("optimizer.solve"),
    "optimizer.solve_entries_max": _peak("optimizer.solve", "solve.entries"),
    "coordinator.step_s": _self_s("coordinator.step"),
    "coordinator.build_problem_s": _self_s("coordinator.build_problem"),
    "coordinator.problem_entries": _counter("coordinator.build_problem", "problem.entries"),
    "coordinator.toss_s": _self_s("coordinator.toss"),
    "coordinator.draws": _counter("coordinator.draw", "coordinator.draw"),
    "coordinator.members_s": _self_s("coordinator.members"),
    "coordinator.membership_hit_ratio": (
        "ratio",
        ("coordinator.members",),
        lambda v: v.ratio(v.count("members.found"), v.count("members.tested")),
    ),
    "coordinator.on_detection_s": _self_s("coordinator.on_detection"),
    "coordinator.commands": _counter("coordinator.step", "step.commands"),
    "coordinator.restores": _counter("coordinator.restore", "coordinator.restore"),
    "coordinator.solve_use_ratio": (
        "ratio",
        ("coordinator.toss", "optimizer.solve"),
        lambda v: v.ratio(v.calls("coordinator.toss"), v.calls("optimizer.solve")),
    ),
    "scenario.load_s": _self_s("scenario.load"),
    "scenario.to_dict_s": _self_s("scenario.to_dict"),
    "reporting.summarize_s": _self_s("reporting.summarize"),
    "reporting.write_s": _self_s("reporting.write"),
    "reporting.bytes_written": _counter("reporting.write", "write.bytes", unit="B"),
    "cli.main_s": _self_s("cli.main"),
}


def per_layer_metrics(t: Tracer) -> tuple[dict[str, float], list[str]]:
    """(metric values, absent metric names) of one traced process."""
    view = _View(t)
    values, absent = {}, []
    for name, (_unit, needs, value) in PER_LAYER.items():
        if any(target in t.absent for target in needs):
            absent.append(name)
        else:
            values[name] = value(view)
    return values, absent
