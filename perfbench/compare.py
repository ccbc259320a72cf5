"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

A result set is a directory of the ``*.json`` files ``run.py`` writes
under ``perfbench/out/`` (one per run; run several seeds per side).  Runs
are only compared with runs of the same window (``--seconds``) and size
(``--toy``); a set that mixes them is refused with exit code 2.  For
each workload and end-to-end metric the tool prints each side's median
and quartiles with the run count, the bound from BENCHMARK.json, and a
verdict:

* ``win`` -- the change is better in at least 9 of 10 pairs (runs
  matched by seed, else by the order they ran) and the medians differ
  by more than the base's quartile spread;
* ``regression`` -- the change's median is worse than the base's by
  more than the bound;
* ``unresolved`` -- the spread is wider than the bound and the change's
  runs do not all read better than the base's;
* ``unchanged`` -- otherwise.

The workload's own figures (per-kind serve latencies, serve p99, per-input
times) are printed beside them with their change in median but no
verdict: they carry no bound, only the end-to-end metrics do.  From
traced runs (``--trace 1``) it prints the per-layer metrics and the
largest per-layer self-time deltas, so a regression points to a layer.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness.common import load_spec, quartiles  # noqa: E402

#: Envelope fields two runs must share to be compared.
COMPARABLE = ("seconds", "toy")


def load_results(directory) -> dict:
    """``{(workload, traced): [result, ...]}`` from one result directory."""
    grouped: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        payload = json.loads(path.read_text())
        env = payload.get("envelope")
        if env is None:
            continue
        grouped.setdefault((env["workload"], bool(env["trace"])), []).append(payload)
    return grouped


def series(results, section: str, name: str) -> dict[int, float]:
    """Per-seed values of one metric (seed -> value), in the order the
    runs started."""
    ordered = sorted(results, key=lambda r: r["envelope"]["started_unix"])
    return {
        r["envelope"]["seed"]: r[section][name]["value"]
        for r in ordered
        if name in r.get(section, {})
    }


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    if not base or not change:
        return "missing"
    b = list(base.values())
    c = list(change.values())
    b_med, c_med = statistics.median(b), statistics.median(c)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - b_med) / b_med if b_med else 0.0
    b_q1, _, b_q3 = quartiles(b)
    c_q1, _, c_q3 = quartiles(c)
    spread_base = (b_q3 - b_q1) / b_med if b_med else 0.0
    spread = max(spread_base, (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = (
        max(c) < min(b) if better == "lower" else min(c) > max(b)
    )
    pairs = [(base[s], change[s]) for s in base if s in change]
    if not pairs:  # different seeds on each side: pair runs in the order they ran
        pairs = list(zip(b, c))
    won = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and won >= 0.9 * len(pairs) and -worse > spread_base:
        return "win"
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    return "unchanged"


def fmt(values: dict) -> str:
    if not values:
        return f"{'-':>34}"
    q1, med, q3 = quartiles(list(values.values()))
    return f"{med:12.5g} [{q1:9.4g},{q3:9.4g}] n={len(values):<2d}"


def mismatch(runs: list) -> str | None:
    """Why *runs* cannot be compared with each other, or None."""
    kinds = {tuple(r["envelope"].get(k) for k in COMPARABLE) for r in runs}
    if len(kinds) < 2:
        return None
    listed = "; ".join(
        ", ".join(f"{k}={v}" for k, v in zip(COMPARABLE, kind)) for kind in sorted(kinds, key=str)
    )
    return f"runs differ in their window or size ({listed})"


def compare_workload(workload: str, base: list, change: list, spec: dict) -> None:
    print(f"\n== {workload}")
    print(f"  {'metric':36s} {'unit':7s} {'base median [q1,q3]':>34} "
          f"{'change median [q1,q3]':>34} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        b = series(base, "metrics", m["name"])
        c = series(change, "metrics", m["name"])
        print(f"  {m['name']:36s} {m['unit']:7s} {fmt(b)} {fmt(c)} {m['bound']:6.2f}  "
              f"{verdict(b, c, m['better'], m['bound'])}")
    names = sorted({n for r in base + change for n in r.get("reported", {})})
    for name in names:
        b = series(base, "reported", name)
        c = series(change, "reported", name)
        unit = next(r["reported"][name]["unit"] for r in base + change if name in r["reported"])
        change_share = ""
        if b and c and statistics.median(b.values()):
            share = statistics.median(c.values()) / statistics.median(b.values()) - 1.0
            change_share = f"{share:+.1%}"
        print(f"  {name:36s} {unit:7s} {fmt(b)} {fmt(c)} {'-':>6}  {change_share}")


def compare_layers(workload: str, base: list, change: list) -> None:
    print(f"\n== {workload} per layer (traced runs)")
    layer_names = sorted({n for r in base + change for n in r.get("layers", {})})
    for name in layer_names:
        b = series(base, "layers", name)
        c = series(change, "layers", name)
        if any(b.values()) or any(c.values()):
            print(f"  {name:36s} {fmt(b)} {fmt(c)}")
    deltas = []
    spans = {n for r in base + change for n in r.get("self_seconds", {})}
    for name in spans:
        b = [r["self_seconds"].get(name, 0.0) for r in base]
        c = [r["self_seconds"].get(name, 0.0) for r in change]
        if b and c:
            deltas.append((statistics.median(c) - statistics.median(b), name, statistics.median(b)))
    print("  self-time deltas (change - base, seconds per pass; largest first):")
    for delta, name, base_value in sorted(deltas, key=lambda d: -abs(d[0]))[:12]:
        share = f"{delta / base_value:+.1%}" if base_value else "new"
        print(f"    {name:36s} {delta:+12.5g}  ({share})")


def envelope_line(label: str, results: list) -> str:
    envs = {(r["envelope"]["git_sha"][:12], r["envelope"]["git_dirty"],
             r["envelope"]["host_cpus"], r["envelope"]["python"],
             r["envelope"]["numpy"]) for r in results}
    return f"{label}: " + "; ".join(
        f"sha={s} dirty={d} cpus={c} python={p} numpy={n}" for s, d, c, p, n in sorted(envs, key=str)
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, change = load_results(argv[0]), load_results(argv[1])
    print(envelope_line("base", [r for rs in base.values() for r in rs]))
    print(envelope_line("change", [r for rs in change.values() for r in rs]))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for traced in (False, True):
            problem = mismatch(base.get((workload, traced), []) + change.get((workload, traced), []))
            if problem is not None:
                print(f"compare: {workload} trace={int(traced)}: {problem}", file=sys.stderr)
                return 2
    for workload in workloads:
        b, c = base.get((workload, False), []), change.get((workload, False), [])
        if b or c:
            compare_workload(workload, b, c, spec)
        b, c = base.get((workload, True), []), change.get((workload, True), [])
        if b or c:
            compare_layers(workload, b, c)
    return 0


if __name__ == "__main__":
    sys.exit(main())
