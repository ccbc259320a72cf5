"""Correctness checks shared by the workloads and the benchmark's tests.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; a reason counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_ints(values) -> str:
    """Digest of an integer sequence (an order or a priority vector)."""
    return sha256(json.dumps([int(v) for v in values], separators=(",", ":")))


def order_problem(dag, order) -> str | None:
    """Why *order* is not a topological permutation of *dag*, or None."""
    n = dag.n
    if len(order) != n:
        return f"order has {len(order)} entries for {n} jobs"
    position = [-1] * n
    for index, u in enumerate(order):
        if not 0 <= u < n or position[u] != -1:
            return f"order is not a permutation (job {u} at {index})"
        position[u] = index
    for u, v in dag.arcs():
        if position[u] > position[v]:
            return f"order runs job {v} before its parent {u}"
    return None


def order_from_priorities(priorities) -> list[int]:
    """The schedule a priority vector encodes (highest priority first)."""
    return sorted(range(len(priorities)), key=lambda u: -priorities[u])


def pin_problem(pins: dict, key: str, value: str) -> str | None:
    """Compare a digest with its committed pin (absent pin = mismatch)."""
    expected = pins.get(key)
    if expected is None:
        return f"no committed pin for {key}"
    if expected != value:
        return f"{key} digest {value[:12]} differs from pin {expected[:12]}"
    return None


def response_problem(expected: bytes, got_digest: str, label: str) -> str | None:
    """The server's bytes must equal the in-process ``encode(...)``."""
    if sha256(expected) != got_digest:
        return f"{label}: response bytes differ from the in-process encode"
    return None


def cache_plan_problem(planned: dict, observed: dict | None) -> str | None:
    """The shard cache must see exactly the planned hits and misses.

    A hit turned miss (an LRU eviction, a changed cache key) makes the
    hit and miss latencies incomparable with another run's, so it fails
    the run.
    """
    if observed is None:
        return "server reported no cache statistics"
    got = {"hits": observed.get("hits"), "misses": observed.get("misses")}
    want = {"hits": planned["hits"], "misses": planned["misses"]}
    if got != want:
        return f"cache saw {got}, the script planned {want}"
    return None
