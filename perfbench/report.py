"""Print every end-to-end metric of every workload, with units and counts.

    python3 perfbench/report.py                 # run each workload once
    python3 perfbench/report.py --seconds 10 --seed 3
    python3 perfbench/report.py --from DIR      # summarize saved results

Each workload runs once through ``run.py --trace 0`` (results go to a
fresh directory under ``perfbench/out/``; the window defaults to
BENCHMARK.json's ``run_seconds``); the table shows, per workload,
the end-to-end metrics BENCHMARK.json names and the workload's own
figures, each as the median over the runs found with its quartiles, its
unit, and the sample count inside one run beside every percentile.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import load_results, mismatch  # noqa: E402
from harness.common import OUT_DIR, ROOT, load_spec, quartiles  # noqa: E402


def summarize(directory: Path, spec: dict) -> int:
    results = load_results(directory)
    failed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = results.get((workload, False), [])
        if not runs:
            continue
        problem = mismatch(runs)
        if problem is not None:
            print(f"report: {workload}: {problem}", file=sys.stderr)
            return 1
        print(f"\n== {workload}  ({len(runs)} run(s); "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} operations)")
        failed += sum(r["failed"] for r in runs)
        for section in ("metrics", "reported"):
            names = list(dict.fromkeys(n for r in runs for n in r[section]))
            for name in names:
                values = [r[section][name]["value"] for r in runs if name in r[section]]
                unit = next(r[section][name]["unit"] for r in runs if name in r[section])
                samples = [r[section][name].get("samples") for r in runs if name in r[section]]
                q1, med, q3 = quartiles(values)
                counts = "" if samples[0] is None else f"  n={int(statistics.median(samples))}"
                if name.endswith("p99_ms") and samples[0] is not None:
                    counts += f" ({int(statistics.median(samples) * 0.01)} beyond)"
                print(f"  {name:36s} {med:12.5g} {unit:7s} [{q1:.5g}, {q3:.5g}]{counts}")
        for note in runs[-1].get("notes", []):
            print(f"  note: {note}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--from", dest="source", type=Path)
    parser.add_argument("--seconds", help="window of each run (default: run_seconds)")
    parser.add_argument("--seed", default="1")
    args = parser.parse_args(argv)
    spec = load_spec()
    directory = args.source
    if directory is None:
        directory = OUT_DIR / f"report-{int(time.time())}"
        for workload in [w["name"] for w in spec["workloads"]]:
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", args.seed, "--trace", "0", "--out", str(directory),
                 *(["--seconds", args.seconds] if args.seconds else [])],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
    return 1 if summarize(directory, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
