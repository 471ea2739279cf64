"""One measured operation, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py <request.json>``.  The request names
the checkout root, the workload's scenario file and ``cli.main``
arguments, and where to write the result.

The set-up is timed first: ``import ecofence`` plus ``load_scenario`` of
the workload file and ``load_default_table``.  Then ``engine.run`` and
``engine.step`` are wrapped to time every simulation run and every step,
and ``ecofence.cli.main`` is called once.  Each run appends one JSON line
to ``runs-<pid>.jsonl`` in the request's ``runs_dir``, so runs made in a
sweep's forked worker processes are seen as well.  With ``traced`` set,
every layer in ``layers.py`` is wrapped too and the spans are written to
``spans_path``.

The result file holds the set-up and wall times, the exit code, the peak
RSS of this process and of its largest child, the run records and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


class RunRecorder:
    """Wraps ``engine.run`` and ``engine.step`` to time runs and steps."""

    def __init__(self, runs_dir: Path):
        self.runs_dir = runs_dir
        self.stamps: list[float] | None = None

    def wrap_step(self, step):
        def timed_step(*args, **kwargs):
            if self.stamps is not None:
                self.stamps.append(time.perf_counter())
            return step(*args, **kwargs)

        return timed_step

    def wrap_run(self, run):
        def timed_run(scenario, seed, *args, **kwargs):
            outer, self.stamps = self.stamps, []
            start = time.perf_counter()
            try:
                result = run(scenario, seed, *args, **kwargs)
            finally:
                end = time.perf_counter()
                stamps, self.stamps = self.stamps, outer
            rows = result.trace.rows
            record = {
                "control": bool(scenario.control_enabled),
                "seed": seed,
                "run_s": end - start,
                "rows": len(rows),
                "vehicle_steps": sum(row.n_vehicles for row in rows),
                "commands": len(result.commands),
                "step_s": [b - a for a, b in zip(stamps, stamps[1:] + [end])],
            }
            with open(self.runs_dir / f"runs-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            return result

        return timed_run

    def collect(self) -> list[dict]:
        records = []
        for path in sorted(self.runs_dir.glob("runs-*.jsonl")):
            with open(path, "r", encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        return records


def _peak_rss_kib() -> tuple[int, int]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, children


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    root = Path(request["root"])
    sys.path.insert(0, str(root / "src"))
    import layers
    from tracer import Tracer

    start = time.perf_counter()
    from ecofence.emissions import load_default_table
    from ecofence.scenario import load_scenario

    load_scenario(request["scenario"])
    load_default_table()
    result: dict = {"setup_s": time.perf_counter() - start}

    from ecofence import cli

    runs_dir = Path(request["runs_dir"])
    runs_dir.mkdir(parents=True, exist_ok=True)
    recorder = RunRecorder(runs_dir)
    hooks = Tracer()  # only its patching is used: these wrappers record no spans
    for attr, wrap in (("run", recorder.wrap_run), ("step", recorder.wrap_step)):
        if not hooks.patch("ecofence.engine", attr, wrap):
            raise SystemExit(f"ecofence.engine.{attr} is missing")
    tracer = None
    if request["traced"]:
        tracer = Tracer()
        layers.install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(request["argv"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    result["wall_s"] = time.perf_counter() - start
    result["exit_code"] = code
    result["runs"] = recorder.collect()
    if tracer is not None:
        tracer.unpatch()
        tracer.write_spans(request["spans_path"])
        result["per_layer"], result["absent"] = layers.per_layer_metrics(tracer)
    result["rss_kib"], result["children_rss_kib"] = _peak_rss_kib()
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
