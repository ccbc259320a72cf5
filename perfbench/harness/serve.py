"""serve-mix: ``prio serve --shards 1`` under a closed loop of mixed requests.

Two keep-alive connections from one client process each run their own
seeded script: 70% ``/schedule`` hits over a hot pool of registry dags,
10% ``/schedule`` misses on fresh ``random_pipeline`` dags, 10%
``/simulate`` on montage-small (mostly one replication, some batched) and
10% live-session traffic (a create, then split-tick ``event_stream``
advances on the same connection).  The script deals the mix in shuffled
decks (each deck holds every hot dag by its weight and each other kind in
its share), so any stretch of a script has the same composition and a
window's work does not swing with the seed.  The loop is closed because
real callers wait for each reply.  Set-up generates each script for 1.3
times the measured request rate over the whole window; a connection that gets
further draws more requests from the same seeded generator as it goes,
so the window always ends on the clock.  Misses are never requested
again and every hot dag recurs every few dozen requests, so however many
misses a window holds, the shard LRU (256 entries) only ever evicts old
misses and the planned cache hits stay exact.

Sessions stay in memory (no ``--session-dir``) and the cache has no disk
tier: fsync timing on a shared disk varies too much run to run, so
session persistence and disk-tier cache reads are deliberately left
unmeasured.

Every response is checked against the in-process bytes of a staged
replay (route -> decode -> parse -> compute -> encode).  The traced run
replays a prefix of the same script request by request, untraced and
traced in turn, which gives the per-stage times and the tracing overhead.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import checks
from .common import (
    ROOT,
    Metric,
    RunResult,
    child_pids,
    geomean,
    median,
    percentile,
    proc_peak_rss_mb,
    slice_rate,
)
from .tracing import NullTracer, Tracer, traced_prio


#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

@dataclass(frozen=True)
class Shape:
    #: (dag, hits per deck) of the hot pool
    hot: tuple[tuple[str, int], ...]
    #: misses, simulates and session requests per deck, each
    others: int
    miss_shape: tuple
    advances_per_session: int


FULL = Shape(
    hot=(
        ("airsn-small", 4),
        ("nipype-medium", 4),
        ("cax-medium", 4),
        ("montage-small", 4),
        ("sdss-small", 4),
        ("sdss-medium", 1),
    ),
    others=3,
    miss_shape=(10, (80, 120), 0.05),
    advances_per_session=8,
)
TOY = Shape(
    hot=(("airsn-small", 2), ("nipype-small", 2), ("montage-small", 1)),
    others=1,
    miss_shape=(4, (4, 8), 0.3),
    advances_per_session=3,
)

#: Requests per second and connection each script is generated for in
#: set-up (about 30 are served on a 2-vCPU host; generating more only
#: lengthens set-up).
PREFILL_RATE = 40.0
SESSION_DAG = "montage-small"
SIM_SEEDS = 8
SIM_BATCH = 16
#: (mu_BS, replications) of the simulates, dealt like the mix: one in five
#: batched
SIM_DECK = tuple(
    (mu_bs, replications) for mu_bs in (4.0, 16.0, 64.0) for replications in (1, 1, 1, 1, SIM_BATCH)
)
CONNECTIONS = 2
KINDS = ("hit", "miss", "simulate", "create", "advance")
PATHS = ("/schedule", "/simulate", "/session", "/advance")
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Request:
    kind: str
    path: str
    body: bytes
    #: identity of the request's dag, the part of the shard cache key
    #: that differs between requests
    dag: str = ""
    #: latency class: the kind, and the dag of a hit or the replications
    #: of a simulate
    label: str = ""


@dataclass
class Sent:
    request: Request
    started: float = 0.0
    finished: float = 0.0
    status: int = 0
    digest: str = ""
    error: str = ""


def _body(payload) -> bytes:
    from repro.dag.io_json import dumps_canonical

    return dumps_canonical(payload).encode("utf-8")


# ----------------------------------------------------------------------
# Script generation
# ----------------------------------------------------------------------


class Script:
    """One connection's seeded request stream: the requests generated in
    set-up, then, should the connection get that far, more from the same
    generator."""

    def __init__(self, source, prefill: int):
        self.source = source
        self.prefill = list(itertools.islice(source, prefill))

    def __iter__(self):
        yield from self.prefill
        yield from self.source


class Inputs:
    """The hot pool, the session dag and the seeded per-connection scripts,
    each generated for a window of *seconds*."""

    def __init__(self, shape: Shape, seed: int, seconds: float):
        from repro.core.prio import prio_schedule
        from repro.dag.io_json import dag_to_json
        from repro.workloads.registry import get_workload

        self.shape = shape
        self.hot = {}
        for name, _ in shape.hot:
            self.hot[name] = _body({"dag": dag_to_json(get_workload(name))})
        self.hot_names = [name for name, _ in shape.hot]
        self.session_dag = get_workload(SESSION_DAG)
        self.session_json = dag_to_json(self.session_dag)
        self.session_priorities = prio_schedule(self.session_dag).priorities
        self._simulate: dict[tuple, bytes] = {}
        self.warmup = [Request("warm", "/schedule", self.hot[n], n) for n in self.hot_names]
        self.warmup.append(
            Request("warm", "/simulate", self.simulate_body(16.0, 0, 1), SESSION_DAG)
        )
        prefill = math.ceil(PREFILL_RATE * seconds)
        self.scripts = [
            Script(self.requests(seed, conn), prefill) for conn in range(CONNECTIONS)
        ]

    def simulate_body(self, mu_bs: float, seed: int, replications: int) -> bytes:
        key = (mu_bs, seed, replications)
        if key not in self._simulate:
            self._simulate[key] = _body(
                {
                    "dag": self.session_json,
                    "params": {"mu_bit": 1.0, "mu_bs": mu_bs},
                    "policy": "prio",
                    "seed": seed,
                    "replications": replications,
                }
            )
        return self._simulate[key]

    def session_batches(self, rng) -> list:
        from repro.live.stream import EventPlan, event_stream

        n = self.session_dag.n
        failing = np.flatnonzero(rng.random(n) < 0.5).tolist()
        plan = EventPlan(failures={u: 1 for u in failing})
        stream = event_stream(
            self.session_dag,
            plan,
            priorities=self.session_priorities,
            batch_jobs=max(1, -(-n // 40)),
            split_ticks=True,
        )
        return list(itertools.islice(stream, self.shape.advances_per_session))

    def requests(self, seed: int, conn: int):
        """Connection *conn*'s endless request stream."""
        from repro.dag.io_json import dag_to_json
        from repro.live.store import session_token
        from repro.workloads.synthetic import random_pipeline

        rng = np.random.default_rng([seed, conn])
        miss_rng = np.random.default_rng([seed, conn, 1])
        deck = [name for name, count in self.shape.hot for _ in range(count)]
        for kind in ("miss", "simulate", "session"):
            deck += [kind] * self.shape.others
        simulates: list = []
        token = session_token(self.session_json)
        pending: list = []
        sessions = 0
        for index in itertools.count():
            if index % len(deck) == 0:
                rng.shuffle(deck)
            card = deck[index % len(deck)]
            if card in self.hot:
                yield Request("hit", "/schedule", self.hot[card], card, f"hit.{card}")
            elif card == "miss":
                dag = random_pipeline(*self.shape.miss_shape, miss_rng)
                body = _body({"dag": dag_to_json(dag)})
                yield Request("miss", "/schedule", body, f"miss-{conn}-{index}", "miss")
            elif card == "simulate":
                if not simulates:
                    simulates = [SIM_DECK[i] for i in rng.permutation(len(SIM_DECK))]
                mu_bs, replications = simulates.pop()
                body = self.simulate_body(mu_bs, int(rng.integers(SIM_SEEDS)), replications)
                yield Request(
                    "simulate", "/simulate", body, SESSION_DAG, f"simulate.r{replications}"
                )
            elif pending:
                yield pending.pop(0)
            else:
                sessions += 1
                name = f"s{seed % 10**9}-c{conn}-{sessions}"
                yield Request(
                    "create", "/session", _body({"dag": self.session_json, "name": name}),
                    label="create",
                )
                session_id = f"{token}.{name}"
                pending = [
                    Request(
                        "advance",
                        "/advance",
                        _body({"session": session_id, "seq": seq, "events": events}),
                        label="advance",
                    )
                    for seq, events in self.session_batches(rng)
                ]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """``python -m repro.cli serve --shards 1`` on an ephemeral port."""

    def __init__(self, log_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--shards", "1",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise RuntimeError("server did not announce its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server exited before announcing its port")
            line += chunk
        self.port = int(line.decode().strip().rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the frontend and its shard processes."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM drains the frontend, which joins its shards; whatever
        is still alive after that is killed."""
        children = child_pids(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.stdout.close()
        self.log.close()


def exchange(conn, request: Request, sent: Sent) -> None:
    sent.started = time.perf_counter()
    try:
        conn.request("POST", request.path, body=request.body, headers=HEADERS)
        response = conn.getresponse()
        data = response.read()
    except (http.client.HTTPException, OSError) as exc:
        sent.finished = time.perf_counter()
        sent.error = f"{type(exc).__name__}: {exc}"
        conn.close()
        return
    sent.finished = time.perf_counter()
    sent.status = response.status
    sent.digest = checks.sha256(data)


def drive(port: int, script: Script, deadline: float, out: list[Sent]) -> None:
    """One closed-loop connection: send the next request after the reply."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for request in script:
            if time.perf_counter() >= deadline:
                break
            sent = Sent(request)
            exchange(conn, request, sent)
            out.append(sent)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The in-process replay
# ----------------------------------------------------------------------


class Staged:
    """``compute_response`` split at its layer boundaries, so each stage
    can be timed; the bytes are the in-process ``encode(...)``."""

    def __init__(self, tracer, cache=None):
        from repro.live.store import SessionStore
        from repro.perf.cache import ScheduleCache

        self.tracer = tracer
        self.cache = cache if cache is not None else ScheduleCache()
        self.store = SessionStore()

    def run(self, request: Request) -> bytes:
        from repro.serve import protocol
        from repro.serve.shard import routing_key

        t = self.tracer
        kind = request.kind
        with t.span("serve.request", kind=kind):
            with t.span("serve.route"):
                routing_key(request.path, request.body)
            with t.span("serve.decode"):
                payload = protocol.decode_body(request.body)
            if request.path == "/schedule":
                with t.span(f"serve.parse.{kind}"):
                    dag, algorithm, kwargs = protocol.parse_schedule_request(payload)
                with t.span(f"serve.compute.{kind}"):
                    out = protocol.schedule_payload(dag, algorithm, cache=self.cache, **kwargs)
            elif request.path == "/simulate":
                with t.span(f"serve.parse.{kind}"):
                    sim = protocol.parse_simulate_request(payload)
                with t.span(f"serve.compute.{kind}"):
                    out = protocol.simulate_payload(
                        sim.dag, sim.params, sim.seed, sim.policy, sim.replications,
                        cache=self.cache,
                    )
            elif request.path == "/session":
                with t.span(f"serve.parse.{kind}"):
                    dag_payload, name, mode = protocol.parse_session_request(payload)
                with t.span(f"serve.compute.{kind}"):
                    with t.span("live.create"):
                        session = self.store.create(dag_payload, name=name, mode=mode)
                    out = protocol.session_payload(session.state_summary())
            else:
                with t.span(f"serve.parse.{kind}"):
                    session_id, seq, events = protocol.parse_advance_request(payload)
                with t.span(f"serve.compute.{kind}"):
                    with t.span("live.advance"):
                        delta = self.store.advance(session_id, events, seq=seq)
                    out = protocol.advance_payload(delta)
            with t.span("serve.encode"):
                return protocol.encode(out)


def verify(warm: list[Sent], sent: list[Sent], result: RunResult) -> None:
    """Every response must equal the in-process bytes.  Stateless
    requests share body objects, so each distinct one is computed once."""
    staged = Staged(NullTracer())
    memo: dict[int, bytes] = {}
    for record in [*warm, *sent]:
        request = record.request
        label = f"{request.kind} {request.path}"
        if record.error:
            result.fail(f"{label}: transport error {record.error}")
            continue
        if record.status != 200:
            result.fail(f"{label}: HTTP {record.status}")
        stateless = request.path in ("/schedule", "/simulate")
        key = id(request.body)
        try:
            if stateless and key in memo:
                expected = memo[key]
            else:
                expected = staged.run(request)
        except Exception as exc:
            result.fail(f"{label}: replay raised {type(exc).__name__}: {exc}")
            continue
        if stateless:
            memo[key] = expected
        if record.status == 200:
            problem = checks.response_problem(expected, record.digest, label)
            if problem is not None:
                result.fail(problem)


def planned_cache(requests) -> dict:
    """Hits and misses the shard cache must report: each distinct order
    key misses once, a simulate also looks up its compiled dag, and
    sessions do not touch the cache."""
    seen: set = set()
    hits = misses = 0
    for request in requests:
        keys = {
            "/schedule": [("order", request.dag)],
            "/simulate": [("order", request.dag), ("compiled", request.dag)],
        }.get(request.path, [])
        for key in keys:
            if key in seen:
                hits += 1
            else:
                seen.add(key)
                misses += 1
    return {"hits": hits, "misses": misses}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def set_up(shape, seed, seconds, work, attempt):
    inputs = Inputs(shape, seed, seconds)
    server = Server(work / f"server{attempt}.log")
    try:
        server.wait_ready()
        warm = []
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for request in inputs.warmup:
                record = Sent(request)
                exchange(conn, request, record)
                warm.append(record)
        finally:
            conn.close()
    except BaseException:
        server.stop()
        raise
    return inputs, server, warm


def client_window(server, inputs, seconds):
    outs: list[list[Sent]] = [[] for _ in inputs.scripts]
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=drive, args=(server.port, script, deadline, out))
        for script, out in zip(inputs.scripts, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(s.finished for out in outs for s in out) - started
    sent = sorted((s for out in outs for s in out), key=lambda s: s.started)
    return sent, started, elapsed


def paired_replay(requests: list[Request], modes, budget: float) -> list[list[float]]:
    """Replay the script once per mode -- ``(tracer, patch targets)``,
    each with its own cache and session store -- request by request in
    alternating mode order, until *budget* seconds have passed; returns
    seconds per request for each mode."""
    staged = [Staged(tracer) for tracer, _ in modes]
    times: list[list[float]] = [[] for _ in modes]
    order = list(range(len(modes)))
    started = time.perf_counter()
    for request in requests:
        if time.perf_counter() - started >= budget:
            break
        for mode in order:
            with modes[mode][0].patched(modes[mode][1]):
                begun = time.perf_counter()
                staged[mode].run(request)
                times[mode].append(time.perf_counter() - begun)
        order.reverse()
    return times


def layer_metrics(tracer, untraced_times, traced_times, server_metrics) -> tuple[dict, dict]:
    roots = tracer.roots()
    by_kind: dict[str, list[dict]] = {}
    for root in roots:
        by_kind.setdefault(root["attrs"]["kind"], []).append(root)

    def med(span: str, kinds=None) -> float:
        chosen = [r for k, rs in by_kind.items() if kinds is None or k in kinds for r in rs]
        return median([r["total"].get(span, 0) for r in chosen]) / 1e9 if chosen else 0.0

    layers = {
        "serve.route_s": Metric(med("serve.route"), "s", len(roots)),
        "serve.decode_s": Metric(med("serve.decode"), "s", len(roots)),
        "serve.encode_s": Metric(med("serve.encode"), "s", len(roots)),
        "live.create_s": Metric(med("live.create", ("create",)), "s"),
        "live.advance_s": Metric(med("live.advance", ("advance",)), "s"),
        "perf.compile_s": Metric(med("perf.compile", ("simulate",)), "s"),
        "core.prio_s": Metric(med("core.prio", ("miss",)), "s"),
    }
    for phase in ("transitive_reduction", "decompose", "recurse", "combine"):
        layers[f"core.{phase}_s"] = Metric(med(f"core.{phase}", ("miss",)), "s")
    for kind in KINDS:
        count = len(by_kind.get(kind, []))
        layers[f"serve.parse_s.{kind}"] = Metric(med(f"serve.parse.{kind}", (kind,)), "s", count)
        layers[f"serve.compute_s.{kind}"] = Metric(med(f"serve.compute.{kind}", (kind,)), "s", count)
    latency = server_metrics.get("latency", {})
    for path in PATHS:
        p50 = latency.get(path, {}).get("p50")
        layers[f"serve.server_ms.{path.strip('/')}"] = Metric(
            p50 * 1000.0 if p50 is not None else 0.0, "ms", latency.get(path, {}).get("count")
        )
    shards = server_metrics.get("shards", {})
    cache = [s.get("cache") or {} for s in shards.values()]
    hits = sum(c.get("hits", 0) for c in cache)
    misses = sum(c.get("misses", 0) for c in cache)
    layers["perf.cache_hit_ratio"] = Metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    layers["serve.shard_restarts"] = Metric(sum(s.get("restarts", 0) for s in shards.values()), "count")
    wall = sum(r["wall"] for r in roots)
    loose = sum(r["unaccounted"] for r in roots)
    layers["trace.unaccounted_share"] = Metric(loose / wall if wall else 0.0, "ratio")
    base = sum(untraced_times)
    layers["trace.overhead_share"] = Metric(
        (sum(traced_times) - base) / base if base else 0.0, "ratio"
    )
    self_seconds = {
        name: sum(r["self"].get(name, 0) for r in roots) / len(roots) / 1e9
        for name in tracer.child_names()
    }
    self_seconds["(unaccounted)"] = loose / len(roots) / 1e9 if roots else 0.0
    return layers, self_seconds


def run(args, pins: dict, work) -> RunResult:
    result = RunResult()
    shape = TOY if args.toy else FULL
    setups = []
    server = None
    seconds = max(1.0, args.seconds / 2 if args.trace else args.seconds)
    try:
        for attempt in range(1 if args.toy else SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            inputs, server, warm = set_up(shape, args.seed, seconds, work, attempt)
            setups.append(time.perf_counter() - started)
        sent, window_start, elapsed = client_window(server, inputs, seconds)
        server_metrics = server.get("/metrics")
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    result.attempted = len(warm) + len(sent)
    result.repetitions = len(sent)
    verify(warm, sent, result)
    shard_cache = server_metrics.get("shards", {}).get("0", {}).get("cache")
    planned = planned_cache(r.request for r in [*warm, *sent])
    problem = checks.cache_plan_problem(planned, shard_cache)
    result.check(problem is None, str(problem))
    result.notes.append(f"planned cache {planned}, shard reported {shard_cache}")

    ok = [s for s in sent if not s.error and s.status == 200]
    latencies = [(s.finished - s.started) * 1000.0 for s in ok]
    if not args.trace:
        rps = len(ok) / elapsed
        result.reported["serve.rps"] = Metric(rps, "req/s", len(ok))
        typical_rps, slices = slice_rate(
            [(s.started, s.finished) for s in ok], window_start, elapsed
        )
        result.reported["serve.slice_rps"] = Metric(typical_rps, "req/s", slices)
        result.reported["serve.p50_ms"] = Metric(median(latencies), "ms", len(latencies))
        result.reported["serve.p99_ms"] = Metric(percentile(latencies, 99), "ms", len(latencies))
        if len(latencies) < 1000:
            result.notes.append(f"only {len(latencies)} samples: fewer than 10 lie beyond p99")
        for kind in ("hit", "miss", "simulate", "advance", "create"):
            values = [(s.finished - s.started) * 1000.0 for s in ok if s.request.kind == kind]
            if values:
                result.reported[f"serve.{kind}_p50_ms"] = Metric(median(values), "ms", len(values))
            if len(values) < 100 and kind != "create":
                result.notes.append(f"only {len(values)} {kind} samples")
        for path in PATHS:
            client = [(s.finished - s.started) * 1000.0 for s in ok if s.request.path == path]
            server_p50 = server_metrics.get("latency", {}).get(path, {}).get("p50")
            if client and server_p50 is not None:
                result.notes.append(
                    f"{path}: client p50 {median(client):.2f} ms, server p50 "
                    f"{server_p50 * 1000:.2f} ms (transport + shard IPC share)"
                )
        # The mix is multimodal (a 143-job hit next to a 13,806-job one), so
        # its median jumps between modes; each class's median does not.
        classes: dict[str, list[float]] = {}
        for s in ok:
            classes.setdefault(s.request.label, []).append((s.finished - s.started) * 1000.0)
        for label, values in sorted(classes.items()):
            result.reported[f"serve.p50_ms.{label}"] = Metric(median(values), "ms", len(values))
        typical_ms = geomean(median(v) for v in classes.values())
        result.metrics["work_per_s"] = Metric(
            typical_rps, "1/s", slices, "median requests per second over 1-s slices"
        )
        result.metrics["latency_ms"] = Metric(
            typical_ms, "ms", len(classes), "geometric mean of the request classes' medians"
        )
    else:
        from repro.core import prio as prio_module
        from repro.perf.cache import ScheduleCache

        tracer = Tracer()
        targets = [
            (prio_module, "prio_schedule", traced_prio(tracer)),
            (ScheduleCache, "compiled", "perf.compile"),
        ]
        requests = [r.request for r in [*warm, *sent]]
        untraced_times, traced_times = paired_replay(
            requests, [(NullTracer(), []), (tracer, targets)], args.seconds / 2
        )
        result.layers, result.self_seconds = layer_metrics(
            tracer, untraced_times, traced_times, server_metrics
        )
        result.tracer = tracer
    result.metrics["setup_s"] = Metric(median(setups), "s", len(setups))
    result.metrics["peak_rss_mb"] = Metric(peak, "MB")
    return result
