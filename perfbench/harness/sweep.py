"""sweep: replicated PRIO-vs-FIFO ``ratio_sweep``, telemetry off and on.

Set-up builds each dag, its PRIO order and its compiled form, so prio is
off the timed path.  A round sweeps each of the four small paper dags
once with telemetry off (the batched kernel), over a grid with both
small-batch (mu_BS <= 16) and large-batch cells, and then two of them
again with a ``TelemetryRecorder`` attached, which forces the
per-replication path.  Every sweep of a dag in a round must give the
same cells, so telemetry must not change a byte.

Round 0 uses a fixed simulation seed so its per-cell metric arrays can be
pinned (the telemetry sweeps check the same pins); later rounds derive
theirs from the run's seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import checks
from .common import Metric, RunResult, geomean, median, pass_seconds, self_peak_rss_mb, typical
from .tracing import NullTracer, PassTotals, Tracer

PIN_SEED = 20060427
SMALL_BATCH_MAX = 16.0


#: Set-ups per run; ``setup_s`` is their median.  A set-up takes about
#: 0.2 s; nine of them spanned under 2 s, short enough for one slow or
#: fast stretch of the host to move their median by 30% between runs.
SETUPS = 25

@dataclass(frozen=True)
class Shape:
    workloads: tuple[str, ...]
    telemetry: tuple[str, ...]
    mu_bits: tuple[float, ...]
    mu_bss: tuple[float, ...]
    p: int
    q: int

    def items(self) -> list[tuple[str, bool]]:
        """(dag, telemetry) of each sweep in a round."""
        return [(n, False) for n in self.workloads] + [(n, True) for n in self.telemetry]

    def reps_per_sweep(self) -> int:
        return len(self.mu_bits) * len(self.mu_bss) * 2 * self.p * self.q


FULL = Shape(
    workloads=("airsn-small", "inspiral-small", "montage-small", "sdss-small"),
    telemetry=("airsn-small", "montage-small"),
    mu_bits=(1.0, 10.0),
    mu_bss=(4.0, 16.0, 256.0, 2048.0),
    p=4,
    q=4,
)
TOY = Shape(
    workloads=("airsn-small", "inspiral-small"),
    telemetry=("airsn-small",),
    mu_bits=(1.0,),
    mu_bss=(4.0, 256.0),
    p=2,
    q=2,
)


def round_seed(seed: int, index: int) -> int:
    if index == 0:
        return PIN_SEED
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sweep_config(shape: Shape, seed: int):
    from repro.analysis.sweep import SweepConfig

    return SweepConfig(
        mu_bits=shape.mu_bits, mu_bss=shape.mu_bss, p=shape.p, q=shape.q, seed=seed
    )


def setup(names):
    """Dags, PRIO orders and a warmed schedule cache; returns the state
    and the seconds spent compiling."""
    from repro.core.prio import prio_schedule
    from repro.perf.cache import ScheduleCache
    from repro.workloads.registry import get_workload

    cache = ScheduleCache()
    dags, orders = {}, {}
    compile_seconds = 0.0
    for name in names:
        dags[name] = get_workload(name)
        orders[name] = prio_schedule(dags[name]).schedule
        started = time.perf_counter()
        cache.compiled(dags[name])
        compile_seconds += time.perf_counter() - started
    return (dags, orders, cache), compile_seconds


class Capture:
    """Digest every metric array ``ratio_sweep`` gets back from
    ``run_replications`` (the arrays the round-0 pins cover)."""

    def __init__(self):
        self.digests: list[str] = []

    def __call__(self, original):
        def run_replications(*args, **kwargs):
            arrays = original(*args, **kwargs)
            self.digests.append(
                checks.sha256(
                    b"".join(
                        np.ascontiguousarray(arrays.metric(m), dtype="<f8").tobytes()
                        for m in ("execution_time", "stalling_probability", "utilization")
                    )
                )
            )
            return arrays

        return run_replications

    def digest(self) -> str:
        return checks.sha256("".join(self.digests))


def traced_replications(tracer: Tracer):
    def factory(original):
        def run_replications(dag, build, params, *args, **kwargs):
            if kwargs.get("metrics") is not None:
                name = "sim.replicate_telemetry"
            elif params.mu_bs <= SMALL_BATCH_MAX:
                name = "sim.replicate.small_batch"
            else:
                name = "sim.replicate.large_batch"
            with tracer.span(name):
                return original(dag, build, params, *args, **kwargs)

        return run_replications

    return factory


def label(name: str, telemetry: bool) -> str:
    return f"{name}+telemetry" if telemetry else name


class Rounds:
    """Per-sweep and per-cell seconds over the measured rounds, keyed by
    the sweep's :func:`label`."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        #: (label, cell index) -> seconds
        self.cells: dict[tuple[str, int], list[float]] = {}
        self.rounds = 0
        self.counters = {"events": 0, "batches": 0}

    def select(self, labels) -> dict[tuple[str, int], list[float]]:
        return {key: times for key, times in self.cells.items() if key[0] in labels}


@contextmanager
def capturing(capture: Capture | None):
    """Route ``ratio_sweep``'s ``run_replications`` through *capture*."""
    from repro.analysis import sweep as sweep_module

    if capture is None:
        yield
        return
    original = sweep_module.run_replications
    sweep_module.run_replications = capture(original)
    try:
        yield
    finally:
        sweep_module.run_replications = original


def sweep_item(name, state, config, mode, telemetry=None):
    """One ``ratio_sweep`` call; returns the result, its seconds and the
    seconds of each cell (from the sweep's progress callback)."""
    from repro.analysis.sweep import ratio_sweep

    dags, orders, cache = state
    tracer, targets = mode
    stamps: list[float] = []
    with tracer.patched(targets):
        with tracer.span("sweep.item", item=label(name, telemetry is not None)):
            started = time.perf_counter()
            with tracer.span("analysis.sweep"):
                swept = ratio_sweep(
                    dags[name], orders[name], config, name, cache=cache,
                    telemetry=telemetry,
                    progress=lambda done, total: stamps.append(time.perf_counter()),
                )
            elapsed = time.perf_counter() - started
    return swept, elapsed, np.diff([started, *stamps]).tolist()


def run_round(index, shape, state, seed, modes, result, rounds, pins, work):
    """Sweep every item of *shape* once per mode: the untraced and traced
    sweeps of an item run back to back, in alternating order from item to
    item.  The first sweep of each dag in the round is the reference
    every later one (the other mode, or with telemetry) must equal."""
    from repro.obs.events import TelemetryWriter
    from repro.obs.recorder import TelemetryRecorder

    config = sweep_config(shape, round_seed(seed, index))
    order = list(range(len(modes)))
    counters = [{"events": 0, "batches": 0} for _ in modes]
    reference: dict[str, str] = {}
    for name, telemetry in shape.items():
        item = label(name, telemetry)
        order.reverse()
        for mode in order:
            result.attempted += 1
            capture = Capture() if index == 0 and mode == 0 else None
            writer = TelemetryWriter(work / "telemetry.jsonl") if telemetry else None
            recorder = TelemetryRecorder(writer) if telemetry else None
            try:
                with capturing(capture):
                    swept, elapsed, cells = sweep_item(
                        name, state, config, modes[mode], recorder
                    )
            except Exception as exc:
                result.fail(f"sweep {item}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if writer is not None:
                    writer.close()
            rounds[mode].times.setdefault(item, []).append(elapsed)
            for cell, seconds in enumerate(cells):
                rounds[mode].cells.setdefault((item, cell), []).append(seconds)
            cells_repr = repr(swept.cells)
            result.check(
                reference.setdefault(name, cells_repr) == cells_repr,
                f"sweep {item}: cells differ from the dag's first sweep in the round",
            )
            if capture is not None:
                problem = checks.pin_problem(pins, f"cells/{name}", capture.digest())
                result.check(problem is None, f"sweep {item}: {problem}")
            if recorder is not None:
                snapshot = recorder.registry.snapshot()["counters"]
                counters[mode]["events"] += snapshot.get("engine.events", 0)
                counters[mode]["batches"] += snapshot.get("engine.batches", 0)
    for mode_rounds, mode_counters in zip(rounds, counters):
        mode_rounds.counters = mode_counters
        mode_rounds.rounds += 1


def measure(shape, state, seed, modes, result, pins, work, seconds) -> list[Rounds]:
    rounds = [Rounds() for _ in modes]
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        run_round(index, shape, state, seed, modes, result, rounds, pins, work)
        index += 1
    return rounds


SPAN_METRICS = {
    "sim.replicate.small_batch": "sim.replicate_s.small_batch",
    "sim.replicate.large_batch": "sim.replicate_s.large_batch",
    "sim.replicate_telemetry": "sim.replicate_telemetry_s",
    "stats.ratio": "stats.ratio_s",
}


def layer_metrics(tracer, reps, untraced: Rounds, traced: Rounds, compile_seconds):
    """Per-layer seconds per round and the self time of every span name."""
    totals = PassTotals(tracer)
    layers = {
        metric: Metric(totals.seconds("total", span), "s") for span, metric in SPAN_METRICS.items()
    }
    layers["analysis.sweep_self_s"] = Metric(totals.seconds("self", "analysis.sweep"), "s")
    layers["perf.compile_s"] = Metric(compile_seconds + totals.seconds("total", "perf.compile"), "s")
    layers["sim.replications"] = Metric(reps, "count")
    layers["sim.events"] = Metric(traced.counters["events"], "count")
    layers["sim.batches"] = Metric(traced.counters["batches"], "count")
    loose, wall = totals.unaccounted()
    layers["trace.unaccounted_share"] = Metric(loose / wall if wall else 0.0, "ratio")
    base = pass_seconds(untraced.times)
    layers["trace.overhead_share"] = Metric(
        (pass_seconds(traced.times) - base) / base if base else 0.0, "ratio"
    )
    return layers, totals.self_seconds()


def run(args, pins: dict, work) -> RunResult:
    from repro.analysis import sweep as sweep_module
    from repro.perf.cache import ScheduleCache

    result = RunResult()
    shape = TOY if args.toy else FULL
    pins = pins.get("sweep", {}).get("toy" if args.toy else "full", {})
    setups = []
    for _ in range(1 if args.toy else SETUPS):
        started = time.perf_counter()
        state, compile_seconds = setup(shape.workloads)
        setups.append(time.perf_counter() - started)
    per_sweep = shape.reps_per_sweep()
    reps = per_sweep * len(shape.items())
    if not args.trace:
        (rounds,) = measure(
            shape, state, args.seed, [(NullTracer(), [])], result, pins, work, args.seconds
        )
        result.repetitions = rounds.rounds
        figures = {
            "sweep.": [label(n, False) for n in shape.workloads],
            "sweep.telemetry_": [label(n, True) for n in shape.telemetry],
            "sweep.telemetry_off_": [label(n, False) for n in shape.telemetry],
        }
        for prefix, labels in figures.items():
            cells = rounds.select(labels)
            result.reported[f"{prefix}replications_per_s"] = Metric(
                per_sweep * len(labels) / pass_seconds(cells), "reps/s", rounds.rounds
            )
            result.reported[f"{prefix}cell_geomean_ms"] = Metric(
                geomean(typical(t) for t in cells.values()) * 1000.0, "ms", len(cells)
            )
        # A cell is the finest repeated unit (tens of milliseconds, one
        # repetition a round).  Cells differ by orders of magnitude (airsn
        # vs sdss, mu_BS 4 vs 2048), so their typical time is a geometric
        # mean.
        result.metrics["work_per_s"] = Metric(
            reps / pass_seconds(rounds.cells), "1/s", rounds.rounds,
            "replications per second, telemetry off and on",
        )
        result.metrics["latency_ms"] = Metric(
            geomean(typical(t) for t in rounds.cells.values()) * 1000.0, "ms",
            len(rounds.cells), "geometric mean of the cells' upper-quartile times",
        )
    else:
        tracer = Tracer()
        targets = [
            (sweep_module, "run_replications", traced_replications(tracer)),
            (sweep_module, "ratio_statistics", "stats.ratio"),
            (ScheduleCache, "compiled", "perf.compile"),
        ]
        modes = [(NullTracer(), []), (tracer, targets)]
        untraced, traced = measure(
            shape, state, args.seed, modes, result, pins, work, args.seconds
        )
        result.repetitions = traced.rounds
        result.layers, result.self_seconds = layer_metrics(
            tracer, reps, untraced, traced, compile_seconds
        )
        result.tracer = tracer
    result.metrics["setup_s"] = Metric(median(setups), "s", len(setups))
    result.metrics["peak_rss_mb"] = Metric(self_peak_rss_mb(), "MB")
    return result
