"""The repository benchmark: one workload, one run, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline-prio --seed 1 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``offline-prio`` -- ``prio import --prioritize`` over fixed DAGMan inputs;
* ``sweep`` -- PRIO-vs-FIFO ``ratio_sweep`` on the batched kernel, and on
  the per-replication path with a ``TelemetryRecorder``;
* ``serve-mix`` -- ``prio serve --shards 1`` under a closed request loop.

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` runs every item once untraced and once traced, back to
back, and prints the per-layer metrics (a layer the workload bypasses
reads 0) with the tracing overhead.
Every run checks its outputs, writes its full result (run envelope,
sample counts, per-layer self times, spans) under ``perfbench/out/`` and
prints a human-readable table on standard error.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  ``--toy``
shrinks every workload to seconds with a single set-up (the benchmark's
own tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import common  # noqa: E402

WORKLOADS = ("offline-prio", "sweep", "serve-mix")


def _module(workload: str):
    if workload == "offline-prio":
        from harness import offline as module
    elif workload == "sweep":
        from harness import sweep as module
    else:
        from harness import serve as module
    return module


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs")
    parser.add_argument(
        "--out", type=Path, default=common.OUT_DIR, help="where the full result is written"
    )
    return parser.parse_args(argv)


def select_metrics(spec: dict, result: common.RunResult, trace: bool) -> dict:
    """The metrics BENCHMARK.json names, in its order and units."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    source = result.layers if trace else result.metrics
    chosen = {}
    for entry in names:
        metric = source.get(entry["name"])
        if metric is None:
            if not trace:
                result.fail(f"the run measured no {entry['name']}")
                continue
            # a layer this workload bypasses did no work
            metric = common.Metric(0.0, entry["unit"])
        if metric.unit != entry["unit"]:
            result.fail(f"{entry['name']} measured in {metric.unit}, not {entry['unit']}")
        chosen[entry["name"]] = {"value": float(metric.value), "unit": entry["unit"]}
    return chosen


def print_table(env: dict, result: common.RunResult, trace: bool) -> None:
    out = sys.stderr
    print(f"# {env['workload']} seed={env['seed']} trace={int(trace)} "
          f"sha={env['git_sha'][:12]} dirty={env['git_dirty']} cpus={env['host_cpus']} "
          f"python={env['python']} numpy={env['numpy']}", file=out)
    groups = [("end-to-end", result.metrics), ("workload figures", result.reported),
              ("per-layer", result.layers)]
    for title, metrics in groups:
        if not metrics:
            continue
        print(f"## {title}", file=out)
        for name, m in metrics.items():
            samples = f"  (n={m.samples})" if m.samples is not None else ""
            print(f"  {name:42s} {m.value:14.6g} {m.unit}{samples}", file=out)
    if result.self_seconds:
        print("## self time per pass (s)", file=out)
        for name, value in sorted(result.self_seconds.items(), key=lambda kv: -kv[1]):
            print(f"  {name:42s} {value:14.6g}", file=out)
    for note in result.notes:
        print(f"  note: {note}", file=out)
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}", file=out)
    print(f"  attempted={result.attempted} failed={result.failed}", file=out)


def main(argv=None) -> int:
    spec = common.load_spec()
    args = parse_args(spec, argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.ensure_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = common.envelope(args.workload, args.seed, args.seconds, bool(args.trace))
    env["toy"] = args.toy
    work = common.OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = _module(args.workload).run(args, common.load_pins(), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = select_metrics(spec, result, bool(args.trace))
    env["operations"] = result.attempted
    env["repetitions"] = result.repetitions
    path = common.write_result(result, env, args.out, result.tracer)
    print(f"result: {path}", file=sys.stderr)
    print_table(env, result, bool(args.trace))
    line = {
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
