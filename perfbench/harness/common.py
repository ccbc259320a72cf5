"""Shared plumbing: source discovery, statistics, run envelope, results.

The benchmark runs from the root of a checkout.  It imports the program
from that checkout's ``src/`` and nothing else, so a directory holding
only the benchmark (no ``src/repro``) fails fast instead of measuring
some other installed copy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = BENCH_DIR / "pins.json"
OUT_DIR = BENCH_DIR / "out"


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def ensure_source() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and check it is used."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SourceMissing(
            f"imported repro from {repro.__file__}, not from {src}"
        )


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> dict:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) the way ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100), numpy's default."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values) -> float:
    return float(statistics.fmean(values))


def geomean(values) -> float:
    """Geometric mean: the typical time over items whose sizes differ by
    orders of magnitude, where a median would jump between them."""
    return math.exp(mean([math.log(v) for v in values]))


#: Percentile of an item's repeated times that stands for the item.
TYPICAL_PERCENTILE = 75.0


def typical(times) -> float:
    """The time an item takes: the upper quartile of its repetitions in
    the window, each of which does the same work.

    The benchmark shares its cores with other tenants.  On the 2-vCPU
    host it was built on, a fixed pass over the offline inputs mostly
    took 2.2-2.9 s but dropped to 1.5-1.9 s in stretches of a few
    seconds at irregular times, and a telemetry sweep round likewise.
    Over 30-second windows of such a trace, the upper quartile of the
    repetitions spread 4-10% (interquartile range over median) between
    windows, the median 8-24%, the mean 9-18% and the lower quartile or
    minimum 17-29%: the fast stretches come and go, and the upper
    quartile only moves when they cover three quarters of the window.
    (Requests of one class are not such repetitions: their spread is
    mostly queueing behind the other connection, and their median is
    the steadier figure; see :func:`slice_rate`.)
    """
    return percentile(times, TYPICAL_PERCENTILE)


def pass_seconds(samples: dict) -> float:
    """Time of one pass over every item, each item at its typical time.

    A window ends part-way through a pass, so items are taken one by one
    rather than summing the window.
    """
    return sum(typical(times) for times in samples.values() if times)


def slice_rate(spans, started: float, elapsed: float, width: float = 1.0) -> tuple[float, int]:
    """Completions per second of a typical slice of the window.

    *spans* are the ``(start, finish)`` times of the completed requests.
    The window is cut into *width*-second slices, and each request counts
    in a slice by the share of its time that falls there, so a slice's
    rate is not rounded to whole requests.  Returns the median of the
    slices' rates and the number of slices; a window shorter than one
    slice gives its overall rate.
    """
    slices = int(elapsed // width)
    if slices < 1:
        return len(spans) / elapsed, 1
    done = [0.0] * slices
    for begin, end in spans:
        length = max(end - begin, 1e-9)
        first = max(int((begin - started) // width), 0)
        last = min(int((end - started) // width), slices - 1)
        for index in range(first, last + 1):
            low = max(begin, started + index * width)
            high = min(end, started + (index + 1) * width)
            if high > low:
                done[index] += (high - low) / length
    return median([d / width for d in done]), slices


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*, found by scanning ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry.name))
    return sorted(children)


# ----------------------------------------------------------------------
# Run envelope
# ----------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def envelope(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What a result must carry to be compared with another one."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": time.time(),
    }


# ----------------------------------------------------------------------
# One run's result
# ----------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None
    note: str = ""


@dataclass
class RunResult:
    """Everything one run measured and checked.

    ``metrics`` holds the end-to-end metrics named in BENCHMARK.json;
    ``reported`` the workload's own named figures (sample counts and
    percentiles the compare tool and the report print); ``layers`` the
    per-layer metrics of a traced run.
    """

    attempted: int = 0
    #: timed repetitions in the window: items, rounds or requests
    repetitions: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    reported: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    self_seconds: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: object | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def metric_dict(metrics: dict[str, Metric]) -> dict:
    return {
        name: {
            "value": m.value,
            "unit": m.unit,
            **({"samples": m.samples} if m.samples is not None else {}),
            **({"note": m.note} if m.note else {}),
        }
        for name, m in metrics.items()
    }


def write_result(result: RunResult, env: dict, out_dir: Path, spans=None) -> Path:
    """Write the full result (and spans, for traced runs) under *out_dir*."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (
        f"{env['workload']}.seed{env['seed']}.trace{int(env['trace'])}."
        f"{int(env['started_unix'] * 1000)}"
    )
    path = out_dir / f"{stem}.json"
    payload = {
        "envelope": env,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:50],
        "metrics": metric_dict(result.metrics),
        "reported": metric_dict(result.reported),
        "layers": metric_dict(result.layers),
        "self_seconds": result.self_seconds,
        "notes": result.notes,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        spans.dump(out_dir / f"{stem}.spans.jsonl")
    return path
