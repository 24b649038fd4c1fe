"""Statistics, memory, provenance and set-up timing shared by the workloads.

Nothing here imports :mod:`repro` at module level, so the self-tests and the
argument checks run even where the package is missing.
"""

from __future__ import annotations

import datetime
import fractions
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

__all__ = [
    "ROOT",
    "TAIL_LADDER",
    "load_spec",
    "median",
    "rank",
    "nearest_rank",
    "tail_percentile",
    "tail",
    "current_rss_bytes",
    "peak_rss_bytes",
    "import_seconds",
    "provenance",
]

#: The checkout root: the directory that holds ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Percentiles a tail may be reported at, lowest first: the usual p50 / p90 /
#: p99 / p99.9 steps.  A coarse ladder keeps the reported percentile the
#: same across runs whose sample counts differ a little, so two runs report
#: comparable numbers.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def rank(q: float, n: int) -> int:
    """The 1-based nearest rank of the ``q``-th percentile of ``n`` samples,
    in exact arithmetic (``99.9 / 100 * 10000`` is not 9990 in floats)."""
    return max(1, math.ceil(fractions.Fraction(str(q)) * n / 100))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of already sorted values."""
    return float(sorted_values[rank(q, len(sorted_values)) - 1])


def tail_percentile(
    n: int, ladder: Sequence[float] = TAIL_LADDER, min_beyond: int = 10
) -> Optional[float]:
    """The highest ladder percentile with at least ``min_beyond`` of ``n``
    samples ranked beyond it, or ``None`` when even the lowest has fewer."""
    best = None
    for q in ladder:
        if n - rank(q, n) >= min_beyond:
            best = q
    return best


def tail(values: Sequence[float], ladder: Sequence[float] = TAIL_LADDER) -> dict:
    """The tail value with its percentile and sample counts.

    ``value`` is ``None`` when there are too few samples for any percentile
    on the ladder to have ten beyond it.
    """
    data = sorted(values)
    q = tail_percentile(len(data), ladder)
    if q is None:
        return {"value": None, "percentile": None, "samples": len(data), "beyond": 0}
    return {
        "value": nearest_rank(data, q),
        "percentile": q,
        "samples": len(data),
        "beyond": len(data) - rank(q, len(data)),
    }


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def current_rss_bytes() -> int:
    """Resident set size of this process now (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ----------------------------------------------------------------------
# Set-up and provenance
# ----------------------------------------------------------------------


def import_seconds(modules: Sequence[str], root: Path = ROOT) -> float:
    """Seconds a fresh interpreter spends importing ``modules`` from ``src/``.

    Imports happen once per process, so each set-up repetition times them
    in a child interpreter; the child's start-up itself is not counted.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True, timeout=120, cwd=root,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` file paths and contents (identifies the code
    where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, root: Path = ROOT) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    from repro import jitkernels

    # Only the checkout's own repository counts, not one that encloses it.
    top = _git(root, "rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == root.resolve()
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain") if sha is not None else None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jit_available": bool(jitkernels.available()),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "machine": platform.machine(),
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
