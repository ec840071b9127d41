"""The serve loop: ``repro serve`` under a seeded request mix.

The server runs as its own process (``python -m repro serve --workers
1``), so the load generator never shares its interpreter lock.  Its
durable tier is filled at set-up by an in-process ``run_cells`` (the
state a server has after earlier sweeps); the hot set is then touched
once, so it starts resident in the hot tier.

The mix: 90% repeats of the hot set, 7% first touches of disk-tier
cells and 3% fresh ``test``-scale cells; in the open loop each fresh
cell is sent twice back to back, so the second can coalesce.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from perfbench.common import counters, percentile, same_counters
from perfbench.loadgen import closed_loop, open_loop

RATE_RPS = 200.0
CONNECTIONS = 2
SCALE = "test"
HOT_PRESETS = ("standard", "victim", "soft", "spatial")
FRESH_PRESETS = ("standard", "victim", "soft", "spatial", "temporal")
#: Seconds to wait for the server to announce its port.
START_TIMEOUT_S = 60.0
#: Disk-tier configs per trace: plain caches of other sizes and ways.
#: The first one per trace is touched at set-up so the server has
#: resolved the trace before the run; the rest are first touches.
DISK_CONFIGS = tuple(
    {"kind": "standard", "params": {"size_bytes": size, "ways": ways}}
    for size in (2048, 4096, 16384, 32768)
    for ways in (1, 2, 4)
)
#: Shares of a plan: disk first touches and fresh cells; the rest are
#: hot-set repeats.  In the open loop each fresh cell is sent twice back
#: to back, so the second can coalesce with the first.  The closed loop
#: sends fresh cells once each: there, whether the copy coalesced would
#: depend on which connection freed first, and capacity with it.
DISK_SHARE = 0.07
FRESH_SHARE = 0.03


def _trace_seed(seed: int, role: int, k: int) -> int:
    # Roles get disjoint seed ranges so no two roles share a trace.
    return seed * 100_000 + role * 10_000 + k


def _cell(benchmark: str, trace_seed: int, config) -> Dict:
    return {
        "trace": {"benchmark": benchmark, "scale": SCALE, "seed": trace_seed},
        "config": config,
    }


def cell_id(cell: Dict) -> str:
    return json.dumps(cell, sort_keys=True)


def _fresh(seed: int, k: int) -> Dict:
    """The k-th fresh cell: benchmarks and presets cycle together, and
    their counts are coprime, so every 45 cells cover every pair."""
    from repro.workloads.registry import BENCHMARK_ORDER

    return _cell(
        BENCHMARK_ORDER[k % len(BENCHMARK_ORDER)],
        _trace_seed(seed, 2, k),
        FRESH_PRESETS[k % len(FRESH_PRESETS)],
    )


def make_plans(seed: int, sizes: List[Tuple[int, int]]):
    """Seeded request plans: one ``(open, closed)`` pair per segment.

    Returns ``(plans, hot, disk, warm)``; each plan is a list of
    ``(kind, cell)``.  The share of each kind is exact and the fresh and
    disk cells are dealt in a fixed order, so the seed moves only the
    trace data and the positions of the requests, not the cost of the
    mix.  Disk cells are dealt once each, so every disk request is a
    first touch.
    """
    from repro.workloads.registry import BENCHMARK_ORDER

    rng = random.Random(seed)
    hot = [
        _cell(b, _trace_seed(seed, 0, 0), p)
        for b in BENCHMARK_ORDER
        for p in HOT_PRESETS
    ]
    disk_cursor = 0
    fresh_cursor = 0
    plans = []
    for n_open, n_closed in sizes:
        pair = []
        for n, coalesce in ((n_open, True), (n_closed, False)):
            n_fresh = round(n * FRESH_SHARE / 2)
            n_disk = round(n * DISK_SHARE)
            kinds = (
                ["hot"] * (n - n_disk - 2 * n_fresh)
                + ["disk"] * n_disk
                + ["fresh"] * n_fresh
            )
            rng.shuffle(kinds)
            plan: List[Tuple[str, Dict]] = []
            for kind in kinds:
                if kind == "hot":
                    plan.append(("hot", rng.choice(hot)))
                elif kind == "disk":
                    plan.append(("disk", disk_cursor))
                    disk_cursor += 1
                else:
                    cells = [_fresh(seed, fresh_cursor)]
                    cells.append(cells[0] if coalesce else _fresh(seed, fresh_cursor + 1))
                    fresh_cursor += len(set(map(cell_id, cells)))
                    plan += [("fresh", cell) for cell in cells]
            pair.append(plan)
        plans.append(pair)
    per_trace = len(DISK_CONFIGS) - 1
    n_traces = max(1, math.ceil(disk_cursor / per_trace))
    disk_traces = [
        (BENCHMARK_ORDER[k % len(BENCHMARK_ORDER)],
         _trace_seed(seed, 1, k // len(BENCHMARK_ORDER)))
        for k in range(n_traces)
    ]
    disk = [
        _cell(b, s, config)
        for b, s in disk_traces
        for config in DISK_CONFIGS[1:]
    ]
    warm = [_cell(b, s, DISK_CONFIGS[0]) for b, s in disk_traces]
    resolved = [
        [[(k, disk[c] if k == "disk" else c) for k, c in plan] for plan in pair]
        for pair in plans
    ]
    return resolved, hot, disk, warm


def _resolve(cell: Dict):
    from repro import get_trace, presets
    from repro.core.spec import CacheSpec

    ref = cell["trace"]
    trace = get_trace(ref["benchmark"], ref["scale"], ref["seed"])
    config = cell["config"]
    spec = presets.spec(config) if isinstance(config, str) else CacheSpec.from_dict(config)
    return trace, spec


class Server:
    """``repro serve`` in its own session, stopped with its workers."""

    def __init__(self, root: Path, cache_dir: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--host",
             "127.0.0.1", "--port", "0", "--workers", "1",
             "--cache-dir", str(cache_dir)],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            for sig, grace in ((signal.SIGTERM, 10), (signal.SIGKILL, 10)):
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.proc.wait(grace)
                    break
                except subprocess.TimeoutExpired:
                    continue
        try:  # the pool worker shares the session; leave none behind
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class _Sender:
    def __init__(self, host: str, port: int) -> None:
        from repro.serve.client import ServeClient

        self.client = ServeClient(host, port, timeout=60.0)

    def send(self, request):
        _kind, cell = request
        status, body = self.client.request_raw("POST", "/submit", cell)
        if status != 200:
            return False, None, None, body
        return True, body["served"], body["elapsed_ms"], body

    def close(self) -> None:
        self.client.close()


def setup(root: Path, work: Path, seed: int, sizes) -> Dict:
    """Fill the durable tier, start the server, touch the hot set.

    ``sizes`` holds one ``(open, closed)`` request count per segment.
    """
    from repro.harness.parallel import ResultCache, run_cells
    from repro.serve.client import ServeClient
    from repro.workloads.registry import BENCHMARK_ORDER

    plans, hot, disk, warm = make_plans(seed, sizes)
    cache_dir = work / "serve-cache"
    prefill = hot + warm + disk
    results = run_cells(
        [_resolve(c) for c in prefill], jobs=1, cache=ResultCache(cache_dir)
    )
    expected = {cell_id(c): r for c, r in zip(prefill, results)}
    # One simulated cell per fresh preset starts the server's worker
    # process and its engines, so the measured fresh cells do not pay it.
    spawn = [
        _cell(b, _trace_seed(seed, 3, 0), p)
        for b, p in zip(BENCHMARK_ORDER, FRESH_PRESETS)
    ]
    server = Server(root, cache_dir, work / "serve.log")
    try:
        with ServeClient(server.host, server.port) as client:
            touched = [(cell, client.submit(cell)) for cell in hot + warm + spawn]
    except BaseException:
        server.stop()
        raise
    return {
        "server": server, "plans": plans, "expected": expected,
        "touched": touched, "segments": [],
    }


def run_segment(state: Dict, tracer) -> None:
    """Run the next planned segment: its open loop, then its closed loop.

    The run spreads its segments between the other stages, so the serve
    figures sample the host at several points of the run.
    """
    server = state["server"]
    index = len(state["segments"])
    open_plan, closed_plan = state["plans"][index]

    def connect():
        return _Sender(server.host, server.port)

    # The generator's own heap (earlier stages' traces and results) is
    # frozen out of its garbage collector, so collections inside the
    # loops stay small and do not stall the clients.
    gc.collect()
    gc.freeze()
    try:
        with tracer.span("bench.serve_open"):
            opened = open_loop(open_plan, RATE_RPS, connect, CONNECTIONS)
        t0 = time.perf_counter()
        with tracer.span("bench.serve_closed"):
            closed = closed_loop(closed_plan, connect, CONNECTIONS)
        closed_wall = time.perf_counter() - t0
    finally:
        gc.unfreeze()
    if tracer.enabled:
        parent = len(tracer.spans) - 1  # the closed-loop span
        for sample in closed:
            tracer.add("serve.request", sample.sent, sample.done, parent)
    state["segments"].append(
        {"open": opened, "closed": closed, "closed_wall": closed_wall,
         "traced": tracer.enabled}
    )


def _summary(segments) -> Dict[str, float]:
    """End-to-end figures over segments: latencies pooled from the open
    loops, capacity from the closed loops' pooled requests and time."""
    ok = [s for seg in segments for s in seg["open"] if s.ok]
    lat = [s.latency * 1e3 for s in ok]
    hits = [s.latency * 1e3 for s in ok if s.tier in ("hot", "disk")]
    return {
        "serve_p50_ms": percentile(lat, 50),
        "serve_p99_ms": percentile(lat, 99),
        "serve_hit_p99_ms": percentile(hits, 99),
        "serve_capacity_rps": (
            sum(len(seg["closed"]) for seg in segments)
            / sum(seg["closed_wall"] for seg in segments)
        ),
    }


def _served(state: Dict):
    """Every response as ``(cell, ok, body)``: the set-up touches (which
    raise on a failed request, so all are ok) and each segment's
    samples."""
    served = [(cell, True, body) for cell, body in state["touched"]]
    for seg, pair in zip(state["segments"], state["plans"]):
        for samples, plan in ((seg["open"], pair[0]), (seg["closed"], pair[1])):
            served += [
                (cell, sample.ok, sample.body)
                for sample, (_kind, cell) in zip(samples, plan)
            ]
    return served


def finish(state: Dict, tracer) -> Dict:
    """Read /metrics and summarise.  ``out["check"]`` holds the response
    check; the caller runs it after the server has stopped."""
    from repro.serve.client import ServeClient

    server = state["server"]
    segments = state["segments"]
    with ServeClient(server.host, server.port) as client:
        served_metrics = client.metrics()
    untraced = [seg for seg in segments if not seg["traced"]]
    out = {
        "attempted": len(_served(state)),
        "check": lambda: check(state),
        "metrics": _summary(untraced),
        "passes": len(untraced),
    }
    if tracer.enabled:
        out["layers"] = _layers(segments, served_metrics)
    return out


def check(state: Dict) -> Dict:
    """Every response against an in-process simulation of the same
    cell; a failed or refused request fails too."""
    from repro import simulate

    expected = state["expected"]
    failed = 0
    mismatches: List[str] = []
    records = []
    for cell, ok, body in _served(state):
        if not ok:
            failed += 1
            continue
        key = cell_id(cell)
        if key not in expected:
            trace, spec = _resolve(cell)
            expected[key] = simulate(spec, trace)
        if not same_counters(body["result"], expected[key]):
            failed += 1
            mismatches.append(key)
        records.append((key, counters(expected[key])))
    engines: Dict[str, int] = {}
    for row in dict(records).values():
        engines[row["engine"]] = engines.get(row["engine"], 0) + 1
    return {
        "failed": failed,
        "mismatches": sorted(set(mismatches)),
        "records": sorted(set((k, _freeze(v)) for k, v in records)),
        "engines": engines,
    }


def _freeze(row):
    return tuple(sorted(row.items()))


def _layers(segments, served: Dict) -> Dict[str, float]:
    traced = [seg for seg in segments if seg["traced"]]
    untraced_wall = median([seg["closed_wall"] for seg in segments if not seg["traced"]])
    ok = [s for seg in traced for s in seg["open"] if s.ok]
    summary = _summary(traced)
    layers: Dict[str, float] = {
        "trace.serve_overhead_s": traced[0]["closed_wall"] - untraced_wall,
        # Tail latencies: too unsteady run to run for an end-to-end
        # bound (README.md), reported here for diagnosis.
        "serve.p99_ms": summary["serve_p99_ms"],
        "serve.hit_p99_ms": summary["serve_hit_p99_ms"],
    }
    for tier in ("hot", "disk", "simulated", "coalesced"):
        lat = [s.latency * 1e3 for s in ok if s.tier == tier]
        layers[f"serve.tier.{tier}.count"] = len(lat)
        layers[f"serve.tier.{tier}.p50_ms"] = percentile(lat, 50) if lat else 0.0
    store = served["store"]
    lookups = store["hot_hits"] + store["disk_hits"] + store["misses"]
    layers.update({
        "serve.simulations": served["simulations"],
        "serve.coalesced": served["coalesced"],
        "serve.rejected": served["rejected"],
        "serve.hot_hit_ratio": store["hot_hits"] / lookups if lookups else 0.0,
        "serve.hot_evictions": store["hot"]["evictions"],
        # Client-side service time (sent to done) less the server's own
        # timing of the same requests: HTTP, JSON and the socket.
        "serve.transport_ms": (
            median([(s.done - s.sent) * 1e3 for s in ok])
            - median([s.server_ms for s in ok])
        ),
        "serve.late_p99_ms": percentile([s.late * 1e3 for s in ok], 99),
    })
    return layers
