"""The benchmark's own tests: toy-size smoke runs and tampered outputs.

    python3 -m pytest perfbench/tests -q

Each workload runs for about a second at toy size, traced and untraced;
the printed metric names must be exactly those BENCHMARK.json lists.
The correctness checks must fire on a swapped pair in an order, on one
flipped response byte and on a "hit" the shard cache evicted.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import checks, common  # noqa: E402

common.ensure_source()

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 2 <= len(WORKLOADS) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace, tmp_path):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--toy", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, done.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    # every printed name is in BENCHMARK.json and every listed name is printed
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert line["metrics"][m["name"]]["value"] > 0
    (result,) = [p for p in tmp_path.glob("*.json")]
    envelope = json.loads(result.read_text())["envelope"]
    for key in ("git_sha", "git_dirty", "host_cpus", "python", "numpy", "seed", "repetitions"):
        assert key in envelope


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _toy_output(name: str, tmp_path):
    from harness import offline
    from harness.tracing import NullTracer

    (inp,) = [i for i in offline.write_inputs(tmp_path / "in", toy=True) if i.name == name]
    imported, tool, text, _ = offline.run_item(inp, NullTracer())
    return inp, imported, tool, text


def test_swapped_pair_in_an_order_fails(tmp_path):
    from harness import offline

    pins = common.load_pins()["offline-prio"]["toy"]
    inp, imported, tool, text = _toy_output("montage", tmp_path)
    clean = common.RunResult()
    checker = offline.OutputChecker(pins, tmp_path, clean)
    checker(inp, imported, tool, text)
    checker.finish()
    assert clean.failures == []

    order = tool.prio.schedule
    parent, child = next(iter(imported.dag.arcs()))
    i, j = order.index(parent), order.index(child)
    order[i], order[j] = order[j], order[i]
    assert checks.order_problem(imported.dag, order) is not None
    tampered = common.RunResult()
    offline.OutputChecker(pins, tmp_path, tampered)(inp, imported, tool, text)
    assert any("before its parent" in f for f in tampered.failures)
    assert any("order/montage" in f for f in tampered.failures)


def test_flipped_response_byte_fails():
    from harness.serve import Request, Staged, _body
    from harness.tracing import NullTracer
    from repro.dag.io_json import dag_to_json
    from repro.serve.dispatch import compute_response
    from repro.workloads.registry import get_workload

    request = Request("hit", "/schedule", _body({"dag": dag_to_json(get_workload("airsn-small"))}))
    expected = Staged(NullTracer()).run(request)
    served = compute_response(request.path, request.body)
    assert checks.response_problem(expected, checks.sha256(served), "hit") is None
    flipped = bytearray(served)
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.response_problem(expected, checks.sha256(bytes(flipped)), "hit") is not None


def test_evicted_hit_fails():
    from harness.serve import TOY, Inputs, Staged, planned_cache
    from harness.tracing import NullTracer
    from repro.perf.cache import ScheduleCache

    inputs = Inputs(TOY, seed=5, seconds=2.0)
    script = inputs.warmup + inputs.scripts[0].prefill
    planned = planned_cache(script)
    assert planned["hits"] > 0

    def replay(capacity: int) -> dict:
        staged = Staged(NullTracer(), cache=ScheduleCache(max_entries=capacity))
        for request in script:
            staged.run(request)
        return staged.cache.stats()

    assert checks.cache_plan_problem(planned, replay(256)) is None
    assert checks.cache_plan_problem(planned, replay(1)) is not None


def test_compare_verdicts():
    from compare import verdict

    base = {s: 100.0 + s for s in range(10)}
    faster = {s: 80.0 + s for s in range(10)}
    slower = {s: 130.0 + s for s in range(10)}
    noisy = {s: (60.0 if s % 2 else 140.0) for s in range(10)}
    assert verdict(base, faster, "lower", 0.1) == "win"
    assert verdict(base, slower, "lower", 0.1) == "regression"
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict(base, dict(base), "lower", 0.1) == "unchanged"
    assert verdict(base, slower, "higher", 0.1) == "win"


def test_compare_refuses_mixed_windows():
    from compare import mismatch

    runs = [{"envelope": {"seconds": 20.0, "toy": False}} for _ in range(3)]
    assert mismatch(runs) is None
    assert mismatch([*runs, {"envelope": {"seconds": 25.0, "toy": False}}]) is not None
    assert mismatch([*runs, {"envelope": {"seconds": 20.0, "toy": True}}]) is not None


def test_slice_rate_counts_requests_by_their_share_of_a_slice():
    # slices [0,1) [1,2) [2,3): 2, 1.5 and 0.5 requests
    spans = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.5)]
    assert common.slice_rate(spans, 0.0, 3.0) == (1.5, 3)
    assert common.slice_rate(spans, 0.0, 0.5) == (8.0, 1)


def test_script_outlasts_its_prefill():
    from harness.serve import TOY, Inputs

    script = Inputs(TOY, seed=5, seconds=1.0).scripts[0]
    drawn = list(itertools.islice(iter(script), 3 * len(script.prefill)))
    # the requests drawn past the prefill are the ones a longer set-up makes
    assert drawn == Inputs(TOY, seed=5, seconds=3.0).scripts[0].prefill
