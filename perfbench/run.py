"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Every run exercises the whole stack — the cold sweep, the streamed
trace store and the serve loop — because every workload reports every
end-to-end metric.  The workload names the stage that runs at full size
for the measured window; the other runs at its probe size, and the
serve loop is the same in both (see README.md).  The last line of standard output is the result JSON;
the lines before it record the environment and the counter digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402
    PINNED_ENV, NullTracer, Tracer, digest, environment, peak_rss_mb,
    self_times,
)

WORKLOADS = ("sweep-cold", "stream-store")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The stage each workload runs at full size for the measured window.
#: The other stage runs at its probe size for a fixed number of passes,
#: and the serve loop is the same in every run.
PRIMARY = {"sweep-cold": "sweep", "stream-store": "stream"}
SWEEP_SCALE = {"full": "paper", "probe": "test"}
STREAM_SEEDS = {"full": 8, "probe": 1}
PROBE_PASSES = {"sweep": 3, "stream": 1}
#: The serve loop runs in segments spread through the run, each
#: (open-loop requests at serve.RATE_RPS, closed-loop requests); a traced
#: run adds one traced segment.
SERVE_SEGMENTS = 3
SERVE_REQUESTS = (540, 1500)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment(work: Path) -> None:
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg")


def _windows(workload: str, seconds: float):
    """Per stage: (size, parameter, window seconds, minimum passes)."""
    out = {}
    for stage, param in (("sweep", SWEEP_SCALE), ("stream", STREAM_SEEDS)):
        if PRIMARY[workload] == stage:
            out[stage] = ("full", param["full"], seconds, 1)
        else:
            out[stage] = ("probe", param["probe"], 0.0, PROBE_PASSES[stage])
    return out


def _setup(work: Path, seed: int, windows, segments: int):
    """Everything the measured stages need, from nothing."""
    from perfbench import serve, stream
    from repro import get_trace
    from repro.sim.native import build

    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    get_trace.cache_clear()
    build.ensure_library()
    return {
        "stream": stream.setup(seed, windows["stream"][1], "paper"),
        "serve": serve.setup(ROOT, work, seed, [SERVE_REQUESTS] * segments),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    _pin_environment(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, work: Path) -> int:
    from perfbench import serve, stream, sweep
    from repro.sim.native import build

    windows = _windows(args.workload, args.seconds)
    segments = SERVE_SEGMENTS + args.trace
    state = None
    setup_walls = []
    try:
        for index in range(SETUP_REPEATS):
            if state is not None:
                state["serve"]["server"].stop()
                state = None  # release its traces before the next set-up
            t0 = time.perf_counter()
            state = _setup(work / f"setup-{index}", args.seed, windows, segments)
            setup_walls.append(time.perf_counter() - t0)
        native = build.availability()
        env = environment(native)
        print(json.dumps({"environment": env}), flush=True)

        tracer = Tracer() if args.trace else NullTracer()
        # The serve segments sit between the other stages, so the serve
        # figures sample the host across the whole run.
        serve_state = state["serve"]
        untraced = NullTracer()
        stage_out = {}
        serve.run_segment(serve_state, untraced)
        stage_out["sweep"] = sweep.run(
            work, args.seed, *windows["sweep"][1:], tracer
        )
        serve.run_segment(serve_state, untraced)
        stage_out["stream"] = stream.run(
            work, state["stream"], *windows["stream"][2:], tracer
        )
        serve.run_segment(serve_state, untraced)
        if args.trace:
            serve.run_segment(serve_state, tracer)
        stage_out["serve"] = serve.finish(serve_state, tracer)
    finally:
        if state is not None:
            state["serve"]["server"].stop()
    # The high-water mark covers the measured stages only: it is read
    # before the checks, which hold whole stores and run in-memory
    # engines that are not on the measured path.  The server has been
    # reaped by now, so it counts as a child.
    rss_mb = peak_rss_mb()
    for out in stage_out.values():
        out.update(out.pop("check")())

    attempted = sum(out["attempted"] for out in stage_out.values())
    failed = sum(out["failed"] for out in stage_out.values())
    records = [r for out in stage_out.values() for r in out["records"]]
    for name, out in stage_out.items():
        for mismatch in out["mismatches"]:
            print(f"mismatch [{name}]: {mismatch}", file=sys.stderr)
    print(json.dumps({
        "counter_digest": digest(records),
        "engines": {name: out["engines"] for name, out in stage_out.items()},
        "passes": {name: out.get("passes", 1) for name, out in stage_out.items()},
        "sizes": {name: w[0] for name, w in windows.items()},
        "setup_walls_s": [round(w, 3) for w in setup_walls],
    }), flush=True)

    if args.trace:
        values = {}
        for out in stage_out.values():
            values.update(out["layers"])
        for layer, seconds_self in self_times(tracer.spans).items():
            values[f"self.{layer}_s"] = seconds_self
    else:
        values = {}
        for out in stage_out.values():
            values.update(out["metrics"])
        values["setup_s"] = statistics.median(setup_walls)
        values["peak_rss_mb"] = rss_mb
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in section
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
