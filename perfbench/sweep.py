"""The cold sweep: the nine-benchmark suite x the ten presets.

One pass is what a researcher pays to regenerate the paper's figures
from nothing: generate every trace with ``get_trace``, then dispatch the
90 cells through ``run_cells(jobs=2)`` into an empty ``ResultCache``.
"""

from __future__ import annotations

import pickle
import random
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from perfbench.common import NullTracer, counters, more_passes, same_counters

JOBS = 2


def _cells(seed: int, scale: str):
    from repro import get_trace, presets
    from repro.workloads.registry import BENCHMARK_ORDER

    traces = [get_trace(name, scale, seed) for name in BENCHMARK_ORDER]
    return traces, [
        (trace, presets.spec(config))
        for trace in traces
        for config in presets.config_names()
    ]


def _fresh_dir(root: Path, label: str) -> Path:
    path = root / label
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _one_pass(work: Path, seed: int, scale: str, tracer, label: str):
    """One cold sweep; returns (wall seconds, cell names, results).

    The traces are not returned, so a pass never holds an earlier pass's
    traces and peak memory does not grow with the number of passes.
    """
    from repro import get_trace
    from repro.harness.parallel import ResultCache, run_cells

    get_trace.cache_clear()
    cache = ResultCache(_fresh_dir(work, label))
    begin = time.perf_counter()
    with tracer.span("bench.sweep"):
        with tracer.span("workloads.get_trace"):
            traces, cells = _cells(seed, scale)
        if tracer.enabled:
            # run_cells keys every cell by fingerprint; timing it here
            # first leaves run_cells the memoised value.
            with tracer.span("memtrace.fingerprint"):
                for trace in traces:
                    trace.fingerprint()
        with tracer.span("harness.run_cells"):
            results = run_cells(cells, jobs=JOBS, cache=cache)
    wall = time.perf_counter() - begin
    return wall, [(trace.name, spec) for trace, spec in cells], results


def run(
    work: Path, seed: int, scale: str, seconds: float, min_passes: int, tracer
) -> Dict:
    """Cold sweeps for ``seconds`` (at least ``min_passes``).

    ``out["check"]`` holds the reference check; the caller runs it after
    every measured stage, so it stays out of the timed region and out of
    the peak-memory figure.
    """
    walls: List[float] = []
    first = None
    attempted = failed = 0
    begin = time.perf_counter()
    untraced = NullTracer()
    while more_passes(begin, walls, seconds, min_passes):
        wall, names, results = _one_pass(
            work, seed, scale, untraced, f"sweep-{len(walls)}"
        )
        walls.append(wall)
        attempted += len(names)
        if first is None:
            first = (names, results)
        else:
            failed += sum(
                not same_counters(a, b) for a, b in zip(first[1], results)
            )
    names, results = first
    out = {
        "attempted": attempted,
        "check": lambda: check(seed, scale, names, results, failed),
        "metrics": {"sweep_s": median(walls)},
        "passes": len(walls),
    }
    if tracer.enabled:
        out["layers"] = _layers(work, seed, scale, tracer, walls, results)
    return out


def check(seed: int, scale: str, names, results, failed: int = 0) -> Dict:
    """One seeded cell per preset against the reference engine, counter
    for counter, on traces generated again from the seed.  ``names``
    holds each cell's ``(trace name, spec)``; ``failed`` counts the cells
    of later passes that disagreed with the first pass."""
    from repro import simulate

    _traces, cells = _cells(seed, scale)
    rng = random.Random(seed)
    n_traces = len(cells) // 10
    mismatches = []
    for column in range(10):
        index = rng.randrange(n_traces) * 10 + column
        trace, spec = cells[index]
        expect = simulate(spec, trace, engine="reference")
        if not same_counters(expect, results[index]):
            mismatches.append(f"{trace.name}/{spec.label()}")
    engines: Dict[str, int] = {}
    for result in results:
        engines[result.engine] = engines.get(result.engine, 0) + 1
    return {
        "failed": failed + len(mismatches),
        "mismatches": mismatches,
        "records": [
            (f"sweep/{name}/{spec.label()}", counters(result))
            for (name, spec), result in zip(names, results)
        ],
        "engines": engines,
    }


def _layers(work, seed, scale, tracer, walls, results) -> Dict[str, float]:
    """The traced pass plus per-layer probes (``--trace 1`` only)."""
    from repro import simulate
    from repro.harness.parallel import ResultCache

    traced_wall, _, _ = _one_pass(work, seed, scale, tracer, "sweep-traced")
    _traces, cells = _cells(seed, scale)  # the traced pass's, memoised
    layers: Dict[str, float] = {
        "trace.sweep_overhead_s": traced_wall - walls[0],
        "workloads.get_trace_s": tracer.total("workloads.get_trace"),
        "memtrace.fingerprint_s": tracer.total("memtrace.fingerprint"),
    }
    pool_wall = tracer.total("harness.run_cells")

    # Serial cell costs, split by preset: the same work the pool does.
    serial = 0.0
    with tracer.span("bench.serial"):
        for trace, spec in cells:
            preset = _preset_name(spec)
            with tracer.span("core.build"):
                model = spec.build()
            t0 = time.perf_counter()
            with tracer.span(f"sim.{preset}"):
                simulate(model, trace)
            serial += time.perf_counter() - t0
    layers["core.build_s"] = tracer.total("core.build")
    from repro import presets

    for name in presets.config_names():
        layers[f"sim.{name}.s"] = tracer.total(f"sim.{name}")
    for engine in ("native", "fast", "reference"):
        layers[f"sim.engine.{engine}.cells"] = sum(
            r.engine == engine for r in results
        )

    # What crosses the pool boundary: the (trace, spec, engine) payload
    # out and the SimResult back.
    ipc_bytes = 0
    with tracer.span("harness.pickle"):
        for (trace, spec), result in zip(cells, results):
            ipc_bytes += len(pickle.dumps((trace, spec, "auto")))
            ipc_bytes += len(pickle.dumps(result))
    layers["harness.pickle_s"] = tracer.total("harness.pickle")
    layers["harness.ipc_mb"] = ipc_bytes / 1e6

    cache = ResultCache(_fresh_dir(work, "sweep-cacheio"))
    keys = [
        cache.key(trace.fingerprint(), spec.fingerprint(), "auto")
        for trace, spec in cells
    ]
    with tracer.span("harness.cache_put"):
        for key, result in zip(keys, results):
            cache.put(key, result)
    with tracer.span("harness.cache_get"):
        for key in keys:
            cache.get(key)
    layers["harness.cache_put_s"] = tracer.total("harness.cache_put")
    layers["harness.cache_get_s"] = tracer.total("harness.cache_get")
    layers["harness.pool_efficiency"] = serial / (JOBS * pool_wall)
    return layers


def _preset_name(spec) -> str:
    from repro import presets

    for name, candidate in presets.SPECS.items():
        if candidate == spec:
            return name
    return spec.kind
