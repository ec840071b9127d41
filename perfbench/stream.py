"""The streamed trace store: write the suite to a TraceStore, stream it back.

One pass writes ``n_seeds`` x the nine ``paper`` traces into a fresh
store with the writer's defaults, then streams the store (by path, so
through ``TraceStream`` and its read-ahead) into ``simulate("standard",
...)``, which takes the native tier.  A one-seed store streams through
``soft`` (the assisted fast walker), where a faster trace layer should
show no gain because the walker dominates.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from perfbench.common import (
    NullTracer, counters, dir_mb, more_passes, same_counters,
)

#: Streamed simulations of each kind per pass; the median is reported.
#: The native stream repeats further until it has run STREAM_MIN_S, so a
#: one-seed store is not timed from a tenth of a second.
STREAM_REPEATS = 3
STREAM_MIN_S = 3.0


def source_traces(seed: int, n_seeds: int, scale: str) -> List:
    """The store's input: ``n_seeds`` consecutive trace seeds x the suite."""
    from repro import get_trace
    from repro.workloads.registry import BENCHMARK_ORDER

    return [
        get_trace(name, scale, seed * n_seeds + k)
        for k in range(n_seeds)
        for name in BENCHMARK_ORDER
    ]


def write_store(path: Path, name: str, traces, tracer=None):
    from repro import TraceStore

    tracer = tracer or NullTracer()
    shutil.rmtree(path, ignore_errors=True)
    with tracer.span("memtrace.store_write"):
        with TraceStore.create(path, name=name) as writer:
            for trace in traces:
                writer.append_trace(trace)
    return writer.store


def concat_fingerprint(traces, name: str) -> str:
    """``Trace.fingerprint()`` of the sources laid end to end (the store
    keeps no instruction ids, so neither does the concatenation)."""
    import numpy as np

    from repro import Trace

    def cat(column):
        return np.concatenate([getattr(t, column) for t in traces])

    return Trace(
        cat("addresses"), cat("is_write"), cat("temporal"), cat("spatial"),
        cat("gaps"), name=name,
    ).fingerprint()


class TimedChunks:
    """A stream wrapper whose ``chunks()`` times each chunk it hands over.

    ``simulate`` accepts any object with ``chunks()`` and ``name``; the
    time spent inside ``next()`` is the time the kernel waited for the
    trace layer (read-ahead included), recorded as ``stream.chunk``
    spans under the caller's open span.
    """

    def __init__(self, stream, tracer) -> None:
        self.stream = stream
        self.name = stream.name
        self.tracer = tracer
        self.wait_s = 0.0

    def chunks(self):
        parent = self.tracer.current()
        iterator = iter(self.stream.chunks())
        while True:
            t0 = time.perf_counter()
            chunk = next(iterator, None)
            t1 = time.perf_counter()
            self.wait_s += t1 - t0
            self.tracer.add("stream.chunk", t0, t1, parent)
            if chunk is None:
                return
            yield chunk


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _one_pass(work, state, tracer, label):
    """Write, then stream standard and soft; returns the timings."""
    from repro import simulate

    sources = state["sources"]
    soft_path = state["soft_store"].path
    refs = sum(len(t) for t in sources)
    path = work / label
    begin = time.perf_counter()
    with tracer.span("bench.stream_pass"):
        write_s, store = _timed(
            lambda: write_store(path, state["name"], sources, tracer)
        )
        # The two kinds take turns, so each median samples the host over
        # the whole stretch instead of one burst of it.
        stream_runs, soft_runs = [], []
        for turn in range(1, STREAM_REPEATS + 1):
            while (
                len(stream_runs) < turn
                or sum(s for s, _ in stream_runs) < STREAM_MIN_S * turn / STREAM_REPEATS
            ):
                with tracer.span("sim.stream_standard"):
                    stream_runs.append(
                        _timed(lambda: simulate("standard", str(path)))
                    )
            with tracer.span("sim.stream_soft"):
                soft_runs.append(
                    _timed(lambda: simulate("soft", str(soft_path)))
                )
    return {
        "wall_s": time.perf_counter() - begin,
        "refs": refs,
        "write_s": write_s,
        "store": store,
        "stream_s": median([s for s, _ in stream_runs]),
        "stream_results": [r for _, r in stream_runs],
        "soft_s": median([s for s, _ in soft_runs]),
        "soft_results": [r for _, r in soft_runs],
    }


def setup(seed: int, n_seeds: int, scale: str) -> Dict:
    """Generate the sources (the stores are written by :func:`run`)."""
    return {
        "seed": seed,
        "n_seeds": n_seeds,
        "name": f"suite-{seed}",
        "sources": source_traces(seed, n_seeds, scale),
    }


def run(
    work: Path, state: Dict, seconds: float, min_passes: int, tracer
) -> Dict:
    """Store passes for ``seconds`` (at least ``min_passes``).

    ``out["check"]`` holds the checks; the caller runs it after every
    measured stage, so it stays out of the timed region and out of the
    peak-memory figure.
    """
    # The one-seed store the soft stream reads; written untimed.
    sources = state["sources"]
    soft_store = state["soft_store"] = write_store(
        work / "soft-store", f"soft-{state['seed']}",
        sources[: len(sources) // state["n_seeds"]],
    )
    passes = []
    begin = time.perf_counter()
    while more_passes(begin, [p["wall_s"] for p in passes], seconds, min_passes):
        passes.append(
            _one_pass(work, state, NullTracer(), f"store-{len(passes) % 2}")
        )
    refs = passes[-1]["refs"]
    out = {
        # The store fingerprint, plus every streamed simulation.
        "attempted": 1 + sum(
            len(p["stream_results"]) + len(p["soft_results"]) for p in passes
        ),
        "check": lambda: check(state, passes),
        "metrics": {
            "store_write_mrefs_s": refs / median([p["write_s"] for p in passes]) / 1e6,
            "stream_sim_mrefs_s": refs / median([p["stream_s"] for p in passes]) / 1e6,
            "stream_soft_mrefs_s": len(soft_store) / median([p["soft_s"] for p in passes]) / 1e6,
        },
        "passes": len(passes),
    }
    if tracer.enabled:
        out["layers"] = _layers(work, state, tracer, passes)
    return out


def check(state: Dict, passes) -> Dict:
    """The last store must fingerprint as its sources laid end to end,
    and every streamed result must equal the in-memory fast engine on
    the materialised store.  The sources are dropped first: the
    in-memory check holds a whole store."""
    from repro import get_trace, simulate

    store = passes[-1]["store"]
    soft_store = state["soft_store"]
    mismatches = []
    if store.fingerprint() != concat_fingerprint(state.pop("sources"), store.name):
        mismatches.append("store fingerprint")
    get_trace.cache_clear()
    expect_std = simulate("standard", store.load(), engine="fast")
    expect_soft = simulate("soft", soft_store.load(), engine="fast")
    for p in passes:
        for result in p["stream_results"]:
            if not same_counters(result, expect_std):
                mismatches.append("streamed standard")
        for result in p["soft_results"]:
            if not same_counters(result, expect_soft):
                mismatches.append("streamed soft")

    first_std, first_soft = passes[-1]["stream_results"][0], passes[-1]["soft_results"][0]
    engines: Dict[str, int] = {}
    for result in (first_std, first_soft):
        engines[result.engine] = engines.get(result.engine, 0) + 1
    return {
        "failed": len(mismatches),
        "mismatches": mismatches,
        "records": [
            ("stream/standard", counters(first_std)),
            ("stream/soft", counters(first_soft)),
            ("stream/fingerprint", {"store": store.fingerprint()}),
        ],
        "engines": engines,
    }


def _layers(work, state, tracer, passes) -> Dict[str, float]:
    from repro import TraceStream, simulate

    untraced = passes[0]
    traced = _one_pass(work, state, tracer, "store-traced")
    store = traced["store"]
    layers = {
        "trace.stream_overhead_s": (
            traced["write_s"] + traced["stream_s"] + traced["soft_s"]
        ) - (untraced["write_s"] + untraced["stream_s"] + untraced["soft_s"]),
        "memtrace.store_write_s": traced["write_s"],
        "memtrace.store_mb": dir_mb(store.path),
        "sim.soft_stream_s": traced["soft_s"],
    }
    with tracer.span("memtrace.chunk_read"):
        for index in range(store.n_chunks):
            store.chunk(index, verify=False)
    with tracer.span("memtrace.chunk_read_verify"):
        for index in range(store.n_chunks):
            store.chunk(index, verify=True)
    read = tracer.total("memtrace.chunk_read")
    layers["memtrace.chunk_read_s"] = read
    layers["memtrace.chunk_verify_s"] = (
        tracer.total("memtrace.chunk_read_verify") - read
    )
    timed = TimedChunks(TraceStream.from_store(store), tracer)
    with tracer.span("sim.stream_timed"):
        wall, _ = _timed(lambda: simulate("standard", timed))
    layers["stream.chunk_wait_s"] = timed.wait_s
    layers["sim.stream_kernel_s"] = wall - timed.wait_s
    trace = store.load()
    with tracer.span("sim.in_memory"):
        in_memory_s, _ = _timed(lambda: simulate("standard", trace))
    layers["sim.in_memory_mrefs_s"] = len(trace) / in_memory_s / 1e6
    return layers
