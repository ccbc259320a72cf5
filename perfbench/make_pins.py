"""Regenerate ``perfbench/pins.json``, the committed correctness pins.

    python3 perfbench/make_pins.py

The pins are sha256 digests of (1) each offline-prio input's prio order,
its instrumented render and that render re-imported, and (2) the sweep
workloads' per-cell metric arrays at the fixed round-0 seed, for both the
full and the toy inputs.  They are taken once, at a commit whose outputs
are trusted; a later change that alters any of these bytes fails the
benchmark instead of re-pinning.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import checks, common  # noqa: E402


def offline_pins(toy: bool, directory: Path) -> dict:
    from harness import offline
    from harness.tracing import NullTracer

    pins = {}
    for inp in offline.write_inputs(directory / "inputs", toy):
        imported, tool, text, _ = offline.run_item(inp, NullTracer())
        problem = checks.order_problem(imported.dag, tool.prio.schedule)
        if problem is not None:
            raise SystemExit(f"{inp.name}: {problem}")
        pins[f"order/{inp.name}"] = checks.digest_ints(tool.prio.schedule)
        pins[f"render/{inp.name}"] = checks.sha256(text)
        pins[f"reimport/{inp.name}"], _ = offline.reimport_digest(inp, text, directory)
    return pins


def sweep_pins(toy: bool) -> dict:
    from harness import sweep
    from repro.analysis.sweep import ratio_sweep

    shape = sweep.TOY if toy else sweep.FULL
    (dags, orders, cache), _ = sweep.setup(shape.workloads)
    config = sweep.sweep_config(shape, sweep.round_seed(0, 0))
    pins = {}
    for name in shape.workloads:
        capture = sweep.Capture()
        with sweep.capturing(capture):
            ratio_sweep(dags[name], orders[name], config, name, cache=cache)
        pins[f"cells/{name}"] = capture.digest()
    return pins


def main() -> int:
    common.ensure_source()
    pins: dict = {"offline-prio": {}, "sweep": {}}
    with tempfile.TemporaryDirectory(dir=common.BENCH_DIR) as tmp:
        for size in ("toy", "full"):
            directory = Path(tmp) / size
            directory.mkdir()
            pins["offline-prio"][size] = offline_pins(size == "toy", directory)
            pins["sweep"][size] = sweep_pins(size == "toy")
    common.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
