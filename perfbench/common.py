"""Shared plumbing: checkout paths, environment isolation, statistics,
and the result line every workload prints."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Names the workloads and metrics, with their units and bounds.
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space for caches, daemon logs and span files; inside the
#: checkout and ignored by git.
WORK = os.path.join(ROOT, ".perfbench")
TRACE_DIR = os.path.join(WORK, "traces")

#: Variables that change what the program does behind the benchmark's
#: back: a disabled or remote cache, a memory-tier budget, an injected
#: per-evaluation delay in serve workers, baseline rewrites.
SCRUBBED_ENV = ("REPRO_CACHE", "REPRO_CACHE_MEMORY_BUDGET",
                "REPRO_STORE_URL", "REPRO_STORE_TIMEOUT",
                "REPRO_SERVE_TEST_DELAY", "REPRO_UPDATE_BASELINE")

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def log(message: str) -> None:
    print("perfbench: " + message, flush=True)


def isolate_environment() -> List[str]:
    """Drop :data:`SCRUBBED_ENV` from this process (and so from every
    child it starts) and point the default cache away from the home
    directory.  Returns the names that were set."""
    removed = [name for name in SCRUBBED_ENV if name in os.environ]
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(WORK, "default-cache")
    return removed


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a ``python -m repro`` child of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


class Workdir:
    """A fresh directory under :data:`WORK`, removed on close."""

    def __init__(self, label: str) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.path = os.path.join(WORK, "%s-%d" % (label, os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._serial = 0

    def fresh(self, label: str) -> str:
        self._serial += 1
        path = os.path.join(self.path, "%s-%d" % (label, self._serial))
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total / (1024.0 * 1024.0)


def reset_peak_rss() -> None:
    """Start a new peak-resident-set window for this process (Linux
    resets ``VmHWM`` to the current resident set)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float
               ) -> Tuple[Optional[float], int]:
    """Nearest-rank ``q`` percentile and the number of samples beyond
    it; ``(None, beyond)`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None, 0
    rank = max(int(math.ceil(q * len(ordered))), 1)
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        return None, beyond
    return ordered[rank - 1], beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- results ----------------------------------------------------------------

def declared_metrics(kind: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric
    in ``BENCHMARK.json``, in its order."""
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        specs = json.load(handle)[kind]
    return [(spec["name"], spec["unit"]) for spec in specs]


class Result:
    """Everything one run reports: counts, metrics, human-readable notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.units = dict(declared_metrics("end_to_end")
                          + declared_metrics("per_layer"))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def metric(self, name: str, value: float,
               samples: Optional[int] = None) -> None:
        """Report the declared metric ``name`` (in its declared unit)."""
        unit = self.units[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        suffix = "" if samples is None else "  (n=%d)" % samples
        log("%-28s %.6g %s%s" % (name, value, unit, suffix))

    def note(self, name: str, value: Optional[float], unit: str,
             samples: int) -> None:
        """Print a figure that is not one of the reported metrics."""
        if value is None:
            log("%-28s n/a (fewer than %d samples beyond it; %d samples)"
                % (name, MIN_BEYOND, samples))
        else:
            log("%-28s %.6g %s  (n=%d, not reported)"
                % (name, value, unit, samples))

    def emit(self) -> None:
        for reason in self.failures:
            log("FAILED: " + reason)
        failed_frac = self.failed / self.attempted if self.attempted else 1.0
        log("%-28s %.6g (failed %d of %d attempted)"
            % ("failed_frac", failed_frac, self.failed, self.attempted))
        line = {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}
        sys.stdout.flush()
        print(json.dumps(line, sort_keys=True), flush=True)
