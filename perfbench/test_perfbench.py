"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
They use ``tiny``-scale inputs, so they take seconds, not a benchmark run.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import common, loadgen, serve, stream, sweep  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in common.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)
    return tmp_path


# ----------------------------------------------------------------------
# Seeds: same seed, same inputs and counters; another seed, other ones
# ----------------------------------------------------------------------
def _checked(out):
    """A stage's output with its deferred check applied."""
    out.update(out.pop("check")())
    return out


def _sweep_digest(work, seed, label):
    out = _checked(sweep.run(work / label, seed, "tiny", 0.0, 1, common.NullTracer()))
    assert out["failed"] == 0, out["mismatches"]
    return common.digest(out["records"])


def test_same_seed_same_fingerprints_and_digest(work):
    first = [t.fingerprint() for t in stream.source_traces(3, 2, "tiny")]
    again = [t.fingerprint() for t in stream.source_traces(3, 2, "tiny")]
    assert first == again
    assert _sweep_digest(work, 3, "a") == _sweep_digest(work, 3, "b")
    assert serve.make_plans(3, [(50, 20)]) == serve.make_plans(3, [(50, 20)])


def test_other_seed_other_digest(work):
    assert _sweep_digest(work, 3, "a") != _sweep_digest(work, 4, "b")
    assert serve.make_plans(3, [(50, 20)]) != serve.make_plans(4, [(50, 20)])


# ----------------------------------------------------------------------
# Correctness checks catch a perturbed counter
# ----------------------------------------------------------------------
def _off_by_one(monkeypatch, only_engine=None):
    """Make ``repro.simulate`` report one miss too many (only for calls
    with ``engine=only_engine`` when given)."""
    import dataclasses

    import repro

    real = repro.simulate

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        if only_engine is not None and kwargs.get("engine") != only_engine:
            return result
        return dataclasses.replace(result, misses=result.misses + 1)

    monkeypatch.setattr(repro, "simulate", off_by_one)


def _tiny_stream(work, monkeypatch):
    monkeypatch.setattr(stream, "STREAM_MIN_S", 0.0)
    state = stream.setup(0, 1, "tiny")
    return stream.run(work, state, 0.0, 1, common.NullTracer())


def test_stream_check_passes_unperturbed(work, monkeypatch):
    out = _checked(_tiny_stream(work, monkeypatch))
    assert out["attempted"] == 1 + 2 * stream.STREAM_REPEATS
    assert out["failed"] == 0, out["mismatches"]


def _perturbed_sweep(work, monkeypatch):
    # run_cells does not go through repro.simulate; the reference side does.
    _off_by_one(monkeypatch)
    out = sweep.run(work, 0, "tiny", 0.0, 1, common.NullTracer())
    return out, 10  # one sampled cell per preset


def _perturbed_stream_counters(work, monkeypatch):
    # Only the check's in-memory fast engine is perturbed, so every
    # streamed result disagrees with it.
    out = _tiny_stream(work, monkeypatch)
    _off_by_one(monkeypatch, only_engine="fast")
    return out, 2 * stream.STREAM_REPEATS


def _perturbed_stream_fingerprint(work, monkeypatch):
    out = _tiny_stream(work, monkeypatch)
    monkeypatch.setattr(stream, "concat_fingerprint", lambda traces, name: "0" * 64)
    return out, 1


def _perturbed_serve(work, monkeypatch):
    """A fabricated serve run: one right response, one off by one and
    one refused request (429)."""
    import dataclasses

    from repro import simulate

    def tiny_cell(benchmark, config):
        return {
            "trace": {"benchmark": benchmark, "scale": "tiny", "seed": 1},
            "config": config,
        }

    def body(cell, extra_misses=0):
        trace, spec = serve._resolve(cell)
        result = simulate(spec, trace)
        result = dataclasses.replace(result, misses=result.misses + extra_misses)
        return {"result": common.counters(result)}

    def sample(ok, payload):
        return loadgen.Sample(0, 0.0, 0.0, 0.0, ok, "hot", 0.0, payload)

    good, wrong = tiny_cell("MV", "standard"), tiny_cell("SpMV", "soft")
    state = {
        "touched": [(good, body(good))],
        "plans": [([("hot", good), ("fresh", wrong), ("fresh", wrong)], [])],
        "segments": [{
            "open": [
                sample(True, body(good)),
                sample(True, body(wrong, extra_misses=1)),
                sample(False, {"error": "queue full"}),
            ],
            "closed": [],
        }],
        "expected": {},
    }
    return {"check": lambda: serve.check(state)}, 2


@pytest.mark.parametrize("perturb", [
    _perturbed_sweep, _perturbed_stream_counters,
    _perturbed_stream_fingerprint, _perturbed_serve,
])
def test_perturbed_output_fails_the_check(work, monkeypatch, perturb):
    out, expected_failures = perturb(work, monkeypatch)
    out = _checked(out)
    assert out["failed"] == expected_failures
    assert out["mismatches"]


def test_same_counters_ignores_engine_only():
    row = {name: 1 for name in common.COUNTER_FIELDS}
    assert common.same_counters(dict(row, engine="fast"), dict(row, engine="native"))
    for name in common.COUNTER_FIELDS:
        assert not common.same_counters(dict(row, engine="x"), dict(row, engine="x", **{name: 2}))


def test_digest_includes_the_engine():
    row = {name: 1 for name in common.COUNTER_FIELDS}
    a = common.digest([("cell", dict(row, engine="native"))])
    b = common.digest([("cell", dict(row, engine="fast"))])
    assert a != b


# ----------------------------------------------------------------------
# Self time on a synthetic span tree
# ----------------------------------------------------------------------
def test_self_times_subtract_covered_child_intervals():
    spans = [
        # id, parent, name, start, end
        [0, None, "bench.root", 0.0, 10.0],
        [1, 0, "sim.a", 1.0, 4.0],
        [2, 0, "sim.b", 3.0, 6.0],      # overlaps sim.a: union is 1..6
        [3, 2, "memtrace.read", 4.0, 5.0],
        [4, 0, "harness.put", 8.0, 12.0],  # runs past its parent: clipped
    ]
    got = common.self_times(spans)
    assert got["bench"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got["sim"] == pytest.approx(3.0 + (3.0 - 1.0))
    assert got["memtrace"] == pytest.approx(1.0)
    assert got["harness"] == pytest.approx(4.0)


def test_tracer_nests_spans_and_totals():
    ticks = iter(range(100))
    tracer = common.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.outer"):
        with tracer.span("sim.inner"):
            pass
        tracer.add("stream.chunk", 2.5, 3.0, tracer.current())
    assert [s[1] for s in tracer.spans] == [None, 0, 0]
    assert tracer.total("sim.inner") == 1.0
    assert common.self_times(tracer.spans) == {
        "bench": pytest.approx(3.0 - 1.0 - 0.5),
        "sim": 1.0,
        "stream": 0.5,
    }


def test_percentile_is_nearest_rank():
    sample = list(range(1, 101))
    assert common.percentile(sample, 50) == 50
    assert common.percentile(sample, 99) == 99
    assert common.percentile([7.0], 99) == 7.0


# ----------------------------------------------------------------------
# The open loop times from the due time
# ----------------------------------------------------------------------
class _StallFirst:
    """A sender whose first request stalls; the rest answer at once."""

    def __init__(self, stall_s):
        self.stall_s = stall_s

    def send(self, request):
        if request == 0:
            time.sleep(self.stall_s)
        return True, "hot", 0.0, None

    def close(self):
        pass


def test_open_loop_times_requests_from_their_due_time():
    rate = 100.0  # one request due every 10 ms
    samples = loadgen.open_loop(
        list(range(5)), rate, lambda: _StallFirst(0.08), connections=1
    )
    start = samples[0].due
    for i, sample in enumerate(samples):
        assert sample.due == pytest.approx(start + i / rate)
    # Request 1 was due 10 ms in but could only go out after the 80 ms
    # stall: its latency counts the wait, and the generator was late.
    assert samples[1].late >= 0.06
    assert samples[1].latency >= samples[1].done - samples[1].sent + 0.06
    assert samples[4].latency >= 0.08 - 0.04 - 0.005


def test_closed_loop_times_from_send():
    samples = loadgen.closed_loop(
        list(range(4)), lambda: _StallFirst(0.02), connections=2
    )
    assert all(s.due == s.sent for s in samples)
    assert samples[0].latency >= 0.02
