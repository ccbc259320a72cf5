"""offline-prio: the ``prio import --prioritize -o`` path as library calls.

Set-up renders a fixed set of DAGMan inputs to disk: three of the
paper's dags at full size and sdss at its small size, three
arena-shaped object dags and two generated multi-file trees.  A pass
takes about 3 s on a 2-vCPU host, so a window holds enough repetitions
of every input for its typical time (``common.typical``).  Each measured
item runs ``import_dagman_file`` ->
``prioritize_dagman(flat, respect_done=True)`` -> ``render`` on one
input.  The inputs are fixed so their orders can be
pinned, and every pass visits them in the same order; the seed changes
nothing here but is recorded with the result.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks
from .common import Metric, RunResult, geomean, median, pass_seconds, self_peak_rss_mb, typical
from .tracing import NullTracer, PassTotals, Tracer, traced_prio

#: Generator seed of the randomized arena family; part of the pinned input.
ARENA_SEED = 20060427

#: (name, kind, argument) per input; ``kind`` picks the generator.
FULL_INPUTS = (
    ("airsn", "registry", "airsn"),
    ("inspiral", "registry", "inspiral"),
    ("montage", "registry", "montage"),
    ("sdss", "registry", "sdss-small"),
    ("layered", "arena", 4000),
    ("fork-join", "arena", 4000),
    ("chain-bundle", "arena", 4000),
    ("cax", "cax", (40, 8)),
    ("nipype", "nipype", (25, 8)),
)
TOY_INPUTS = (
    ("airsn", "registry", "airsn-small"),
    ("inspiral", "registry", "inspiral-small"),
    ("montage", "registry", "montage-small"),
    ("sdss", "registry", "sdss-small"),
    ("layered", "arena", 400),
    ("fork-join", "arena", 400),
    ("chain-bundle", "arena", 400),
    ("cax", "cax", (5, 4)),
    ("nipype", "nipype", (6, 4)),
)
INPUT_NAMES = tuple(name for name, _, _ in FULL_INPUTS)

#: span name -> per-layer metric name
SPAN_METRICS = {
    "dagman.import": "dagman.import_s",
    "dagman.to_dag": "dagman.to_dag_s",
    "dagman.set_priorities": "dagman.set_priorities_s",
    "dagman.render": "dagman.render_s",
    "core.prio": "core.prio_s",
    "core.transitive_reduction": "core.transitive_reduction_s",
    "core.decompose": "core.decompose_s",
    "core.recurse": "core.recurse_s",
    "core.combine": "core.combine_s",
}


#: Set-ups per run; ``setup_s`` is their median (a set-up takes about
#: 0.3 s, so more of them span more of the host's slow and fast stretches).
SETUPS = 15


@dataclass
class Input:
    name: str
    path: Path


def _object_dag(compiled):
    """The object ``Dag`` of an arena-built ``CompiledDag``."""
    from repro.dag.graph import Dag

    parents = np.repeat(np.arange(compiled.n), np.diff(compiled.indptr))
    arcs = zip(parents.tolist(), compiled.children.tolist())
    return Dag(compiled.n, arcs, check_acyclic=False)


def write_inputs(directory: Path, toy: bool) -> list[Input]:
    """Generate and render every input under *directory*."""
    from repro.dagman.writer import dag_to_dagman
    from repro.workloads.corpus import cax_tree, nipype_tree, write_tree
    from repro.workloads.registry import get_workload
    from repro.workloads.synthetic import arena_family

    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for name, kind, arg in TOY_INPUTS if toy else FULL_INPUTS:
        if kind in ("registry", "arena"):
            if kind == "registry":
                dag = get_workload(arg)
            else:
                rng = np.random.default_rng(ARENA_SEED)
                dag = _object_dag(arena_family(name, arg, rng))
            path = directory / f"{name}.dag"
            path.write_text(dag_to_dagman(dag).render())
        elif kind == "cax":
            path = write_tree(cax_tree(runs=arg[0], chunks=arg[1]), directory / name)
        else:
            path = write_tree(
                nipype_tree(subjects=arg[0], depth=arg[1]), directory / name
            )
        inputs.append(Input(name, path))
    return inputs


def run_item(inp: Input, tracer):
    """One input through the tool: import, prioritize, render."""
    from repro.core.tool import prioritize_dagman
    from repro.dagman.importer import import_dagman_file

    with tracer.span("offline.input", item=inp.name):
        started = time.perf_counter()
        with tracer.span("dagman.import"):
            imported = import_dagman_file(inp.path)
        with tracer.span("core.tool"):
            tool = prioritize_dagman(imported.flat, respect_done=True)
        with tracer.span("dagman.render"):
            text = imported.render()
        seconds = time.perf_counter() - started
    return imported, tool, text, seconds


def reimport_digest(inp: Input, text: str, scratch: Path):
    """Re-import an instrumented render from disk; returns the digest of
    the re-imported render and the re-imported workflow."""
    from repro.dagman.importer import import_dagman_file

    copy = scratch / f"{inp.name}.reimport.dag"
    copy.write_text(text)
    again = import_dagman_file(copy)
    return checks.sha256(again.render()), again


class OutputChecker:
    """Checks every item's output against the pins.

    Cheap checks run on every output; the first output of each input is
    also checked to be a topological order, and its render is re-imported
    after the measured window (:meth:`finish`), so the re-import does not
    eat into the window.
    """

    def __init__(self, pins: dict, scratch: Path, result: RunResult):
        self.pins = pins
        self.scratch = scratch
        self.result = result
        self.seen: dict[str, tuple[str, str]] = {}
        self.deferred: list[tuple[Input, str, str, list[int]]] = []
        self.structure: dict[str, dict] = {}

    def __call__(self, inp: Input, imported, tool, text: str) -> None:
        name = inp.name
        digests = (checks.digest_ints(tool.prio.schedule), checks.sha256(text))
        if name in self.seen:
            self.result.check(self.seen[name] == digests, f"{name}: output changed between passes")
            return
        self.seen[name] = digests
        problems = [
            checks.order_problem(imported.dag, tool.prio.schedule),
            checks.pin_problem(self.pins, f"order/{name}", digests[0]),
            checks.pin_problem(self.pins, f"render/{name}", digests[1]),
        ]
        for problem in problems:
            if problem is not None:
                self.result.fail(problem)
        priorities = [tool.priorities[j] for j in imported.flat.jobs]
        self.deferred.append((inp, text, imported.fingerprint(), priorities))
        families = tool.prio.families_used
        blocks = tool.prio.decomposition.n_components
        self.structure[name] = {
            "jobs": imported.n_jobs,
            "files": len(imported.sources),
            "blocks": blocks,
            "family_blocks": blocks - families.get("<out-degree fallback>", 0),
        }

    def finish(self) -> None:
        """Re-import each first render: same dag, same priorities, pinned bytes."""
        for inp, text, fingerprint, priorities in self.deferred:
            digest, again = reimport_digest(inp, text, self.scratch)
            problem = checks.pin_problem(self.pins, f"reimport/{inp.name}", digest)
            if problem is not None:
                self.result.fail(problem)
            if again.fingerprint() != fingerprint:
                self.result.fail(f"{inp.name}: re-import changed the dag")
            elif [again.flat.get_priority(j) for j in again.flat.jobs] != priorities:
                self.result.fail(f"{inp.name}: re-import changed the priorities")
        self.deferred.clear()


def measure(inputs, seconds, modes, checker, result) -> list[dict[str, list[float]]]:
    """Visit the inputs in passes until *seconds* have elapsed and every
    input has been run; returns seconds per input for each mode.

    *modes* lists ``(tracer, patch targets)``.  A traced run has two, and
    each item runs once per mode back to back, in alternating order from
    item to item, so the host's speed drifts alike under both and their
    difference is the tracing overhead.  Each item starts from a
    collected heap and drops its outputs once checked, so its time does
    not depend on the garbage the item before it left behind.
    """
    samples = [{inp.name: [] for inp in inputs} for _ in modes]
    visited: set[str] = set()
    order = list(range(len(modes)))
    deadline = time.perf_counter() + seconds
    while True:
        for inp in inputs:
            if time.perf_counter() >= deadline and inp.name in visited:
                return samples
            visited.add(inp.name)
            for mode in order:
                tracer, targets = modes[mode]
                result.attempted += 1
                gc.collect()
                try:
                    with tracer.patched(targets):
                        imported, tool, text, elapsed = run_item(inp, tracer)
                except Exception as exc:  # a crash is a failed operation
                    result.fail(f"{inp.name}: {type(exc).__name__}: {exc}")
                    continue
                samples[mode][inp.name].append(elapsed)
                checker(inp, imported, tool, text)
                del imported, tool, text
            order.reverse()


def layer_metrics(tracer: Tracer, checker: OutputChecker, untraced, traced) -> tuple[dict, dict]:
    """Per-layer seconds per pass and the self time of every span name."""
    totals = PassTotals(tracer)
    layers = {
        metric: Metric(totals.seconds("total", span), "s")
        for span, metric in SPAN_METRICS.items()
    }
    for name in INPUT_NAMES:
        layers[f"core.prio_s.{name}"] = Metric(totals.seconds("total", "core.prio", name), "s")
    structure = checker.structure.values()
    blocks = sum(s["blocks"] for s in structure)
    layers["dagman.files_read"] = Metric(sum(s["files"] for s in structure), "count")
    layers["core.blocks"] = Metric(blocks, "count")
    layers["core.family_ratio"] = Metric(
        sum(s["family_blocks"] for s in structure) / blocks if blocks else 0.0, "ratio"
    )
    loose, wall = totals.unaccounted()
    layers["trace.unaccounted_share"] = Metric(loose / wall if wall else 0.0, "ratio")
    base = pass_seconds(untraced)
    layers["trace.overhead_share"] = Metric(
        (pass_seconds(traced) - base) / base if base else 0.0, "ratio"
    )
    return layers, totals.self_seconds()


def run(args, pins: dict, work: Path) -> RunResult:
    from repro.core import tool as tool_module
    from repro.dagman.model import DagmanFile

    result = RunResult()
    size = "toy" if args.toy else "full"
    setups = []
    count = 1 if args.toy else SETUPS
    for attempt in range(count):
        started = time.perf_counter()
        directory = work / f"inputs{attempt}"
        inputs = write_inputs(directory, args.toy)
        setups.append(time.perf_counter() - started)
        if attempt + 1 < count:
            shutil.rmtree(directory)
    scratch = work / "reimport"
    scratch.mkdir(parents=True, exist_ok=True)
    checker = OutputChecker(pins.get("offline-prio", {}).get(size, {}), scratch, result)
    if not args.trace:
        (samples,) = measure(inputs, args.seconds, [(NullTracer(), [])], checker, result)
        checker.finish()
        result.repetitions = sum(len(t) for t in samples.values())
        jobs = sum(s["jobs"] for s in checker.structure.values())
        per_input = {name: typical(times) for name, times in samples.items() if times}
        rate = jobs / pass_seconds(samples)
        typical_ms = geomean(per_input.values()) * 1000.0
        result.reported["offline.jobs_per_s"] = Metric(rate, "jobs/s", result.repetitions)
        result.reported["offline.input_geomean_ms"] = Metric(typical_ms, "ms", len(per_input))
        result.reported["offline.jobs"] = Metric(jobs, "count")
        for name, value in per_input.items():
            result.reported[f"offline.input_ms.{name}"] = Metric(
                value * 1000.0, "ms", len(samples[name])
            )
        result.metrics["work_per_s"] = Metric(
            rate, "1/s", result.repetitions, "jobs per second"
        )
        result.metrics["latency_ms"] = Metric(
            typical_ms, "ms", len(per_input), "geometric mean of the inputs' upper-quartile times"
        )
    else:
        tracer = Tracer()
        targets = [
            (DagmanFile, "to_dag", "dagman.to_dag"),
            (DagmanFile, "set_priorities", "dagman.set_priorities"),
            (tool_module, "prio_schedule", traced_prio(tracer)),
        ]
        modes = [(NullTracer(), []), (tracer, targets)]
        untraced, traced = measure(inputs, args.seconds, modes, checker, result)
        checker.finish()
        result.repetitions = sum(len(t) for t in traced.values())
        result.layers, result.self_seconds = layer_metrics(tracer, checker, untraced, traced)
        result.tracer = tracer
    result.metrics["setup_s"] = Metric(median(setups), "s", len(setups))
    result.metrics["peak_rss_mb"] = Metric(self_peak_rss_mb(), "MB")
    return result
