"""Shared pieces of the benchmark: spans, statistics, digests, environment.

Nothing here imports ``repro`` at module level, so the span and
statistics helpers are testable without the package on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: SimResult counters compared by every correctness check and folded
#: into the counter digest.  ``engine`` is included on purpose: a host
#: whose native tier is missing runs other engines and must not compare
#: as the same program.
COUNTER_FIELDS = (
    "refs", "cycles", "hits_main", "hits_assist", "misses",
    "lines_fetched", "words_fetched", "writebacks", "bounce_backs",
    "bounce_aborts", "swaps", "invalidations", "prefetches_issued",
    "prefetch_hits", "write_buffer_stalls",
)

#: Ambient knobs that would change what is measured; cleared per run.
PINNED_ENV = (
    "REPRO_JOBS", "REPRO_ENGINE", "REPRO_PIPELINE_WORKERS",
    "REPRO_READAHEAD", "REPRO_CACHE",
)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: ``(id, parent, name, start, end)`` rows.

    Spans nest through a per-tracer stack; :meth:`add` records a span
    timed elsewhere (for example on a load-generator thread) under an
    explicit parent.  The layer of a span is its name up to the first
    dot (``"sim.soft"`` belongs to ``sim``).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            self.clock(),
            None,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[4] = self.clock()
            self._stack.pop()

    def current(self) -> Optional[int]:
        """Id of the innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        self.spans.append([len(self.spans), parent, name, start, end])
        return len(self.spans) - 1

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)


class NullTracer:
    """The tracing-off stand-in: spans cost one context manager."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield None

    def current(self) -> None:
        return None

    def add(self, name, start, end, parent=None) -> None:
        return None


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus the part of its
    interval that its child spans cover (children may overlap, as the
    load generator's threads do), summed by layer."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        own = (end - start) - _covered(children.get(sid, ()), start, end)
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def more_passes(
    begin: float, walls: Sequence[float], seconds: float, min_passes: int = 1
) -> bool:
    """Whether to run another pass: at least ``min_passes``, then more
    while the window, rounded to the nearest whole pass, has room."""
    if len(walls) < min_passes:
        return True
    elapsed = time.perf_counter() - begin
    return elapsed + median(walls) / 2 < seconds


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rank ceil(q/100 * n), 1-based)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def counters(result) -> Dict[str, object]:
    """The compared counters of a SimResult or its JSON payload."""
    fields = COUNTER_FIELDS + ("engine",)
    if isinstance(result, dict):
        return {name: result[name] for name in fields}
    return {name: getattr(result, name) for name in fields}


def same_counters(a, b) -> bool:
    """Counter equality, ignoring which engine produced each side."""
    left, right = counters(a), counters(b)
    return all(left[k] == right[k] for k in COUNTER_FIELDS)


def digest(records: Iterable[Tuple[str, Dict[str, object]]]) -> str:
    """SHA-256 over ``(label, counters)`` rows in label order."""
    rows = sorted((label, row) for label, row in records)
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    The sum is an upper bound on what was resident at once; ru_maxrss
    is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def dir_mb(path: Path) -> float:
    return sum(
        f.stat().st_size for f in Path(path).rglob("*") if f.is_file()
    ) / 1e6


def environment(native_diagnostic: Optional[str]) -> Dict[str, object]:
    """What the numbers depend on besides the code.  ``cc`` is the
    version line of the compiler the native tier would use (None when
    there is none), from the native build's own probe."""
    import numpy

    from repro.sim.native import build

    cmd = build.compiler_command()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": build._compiler_version(cmd)[0] if cmd else None,
        "native_available": native_diagnostic is None,
        "native_diagnostic": native_diagnostic,
        "platform": platform.platform(),
    }
