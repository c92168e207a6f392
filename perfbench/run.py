"""Benchmark of the abelcon library: one workload per process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload h10_search --seed 1 --seconds 15 --trace 0

The seed generates the workload's requests (see ``workloads.py``) before
anything is timed. Set-up imports ``abelcon`` from ``src/`` and builds the
workload's presentations. The loop then sends the requests one after
another, in whole stratified blocks of the pool, cycling through the pool,
until ``--seconds`` have passed and at least ``MIN_SAMPLES`` distinct
requests are done. Nothing is warmed first: the first request at a new presentation and
bound builds its Cayley ball inside its own latency, as it would for a
user. Every answer is checked; a wrong answer or an exception is a failed
request. Between blocks the set-up is timed again in fresh interpreters
(``setup_probe.py``) for about ``SETUP_SHARE`` of the request time, so that
the reported median set-up time samples the same stretch of machine time as
the requests, and the workload's process holds one copy of the library only.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` the run sends the pool's first ``pool.traced`` requests in
passes, and the library's public functions are wrapped in a span recorder
(``tracer.py``) on every other pass; the per-layer metrics are taken over
the first pass, whose spans are written to ``perfbench/out/``, and the
tracing overhead is the throughput of the later traced passes over that of
the untraced ones between them.

Run as a script, the benchmark restarts itself with ``PYTHONHASHSEED=0``
unless that is already set, so that string hashing, and with it the order
of every set and dict the library iterates, is the same in every run.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.1  # set-up time sampled between blocks, as a share of the request time
MIN_SAMPLES = 100  # distinct requests, so that at least 10 of them lie beyond p90

_clock = time.perf_counter


class LibraryMissing(Exception):
    """The abelcon sources are not under ``src/`` next to the benchmark."""


def _abelcon_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "abelcon" or n.startswith("abelcon.")}


def load_library():
    """Import abelcon afresh from ``SRC``, dropping any copy imported before."""
    if not (SRC / "abelcon" / "__init__.py").is_file():
        raise LibraryMissing(f"no abelcon package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _abelcon_modules():
        del sys.modules[name]
    lib = importlib.import_module("abelcon")
    if Path(lib.__file__).resolve().parent != (SRC / "abelcon").resolve():
        raise LibraryMissing(f"abelcon was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(pool: workloads.Pool):
    """Import the library and build the pool's presentations."""
    lib = load_library()
    return lib, {name: lib.Presentation.from_text(text) for name, text in pool.graphs.items()}


def time_set_ups(pool: workloads.Pool, seconds: float) -> list[float]:
    """Set-up times of fresh interpreters, sampled for about ``seconds`` of set-up.

    Each sample is one run of ``setup_probe.py``, which imports abelcon and
    builds the pool's presentations; its interpreter start is not timed.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *pool.graphs.values()]
    times: list[float] = []
    while sum(times) < seconds or not times:
        out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    by_request: defaultdict = field(default_factory=lambda: defaultdict(list))  # id -> latencies
    verdicts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)  # per block, or per traced-run pass
    setup_seconds: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    search_requests: int = 0
    ball_reused: int = 0
    recorder: Optional[tracer.Recorder] = None
    first_pass_layers: Optional[dict] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    def decided_ratio(self) -> float:
        decided = sum(n for v, n in self.verdicts.items() if v in workloads.DECIDED)
        return decided / self.attempted

    def overhead_ratio(self) -> float:
        """Traced over untraced throughput, from the warm passes of a traced run.

        Passes 2, 4, ... are traced and 1, 3, ... are not (pass 0, traced
        and cold, is left out), so both sides see the same machine load.
        """
        traced = self.pass_seconds[2::2]
        untraced = self.pass_seconds[1::2]
        return (sum(untraced) / len(untraced)) / (sum(traced) / len(traced))


def _send(lib, pres: dict, workload: workloads.Workload, requests: list,
          res: LoopResult, balls_built: set, recorder: Optional[tracer.Recorder]) -> None:
    for req in requests:
        if req.bound is not None:
            key = (req.graph, req.bound)
            res.search_requests += 1
            res.ball_reused += key in balls_built
            balls_built.add(key)
        frame = None
        if recorder is not None:
            recorder.request = res.attempted
            frame = recorder.push("request")
        t0 = _clock()
        try:
            out = workload.handle(lib, pres, req)
        except Exception as exc:  # a failed request; the loop goes on
            out = workloads.Outcome(f"error:{type(exc).__name__}", False, repr(exc))
        res.latencies.append(_clock() - t0)
        res.by_request[id(req)].append(res.latencies[-1])
        if frame is not None:
            recorder.pop(frame)
        res.verdicts[out.verdict] += 1
        if not out.ok:
            res.failures.append(f"{req.kind} {req.graph}: {out.verdict} {out.why}")


def run_loop(lib, pres: dict, workload: workloads.Workload, pool: workloads.Pool,
             seconds: float, min_samples: int = MIN_SAMPLES, trace: bool = False) -> LoopResult:
    """Send requests until time and sample count are both reached.

    Untraced, in blocks (:func:`_blocks`); traced, in passes (:func:`_traced_passes`).
    """
    if trace:
        return _traced_passes(lib, pres, workload, pool, seconds, min_samples)
    return _blocks(lib, pres, workload, pool, seconds, min_samples)


def _blocks(lib, pres, workload, pool, seconds, min_samples) -> LoopResult:
    """Send the pool in whole blocks, cycling through it, sampling set-up between blocks."""
    res = LoopResult()
    balls_built: set[tuple] = set()
    starts = itertools.cycle(range(0, len(pool.requests), pool.block))
    setup_due = 0.0
    start = _clock()
    while True:
        i = next(starts)
        t0 = _clock()
        _send(lib, pres, workload, pool.requests[i:i + pool.block], res, balls_built, None)
        res.pass_seconds.append(_clock() - t0)
        setup_due += SETUP_SHARE * res.pass_seconds[-1]
        if setup_due > 0:
            taken = time_set_ups(pool, setup_due)
            res.setup_seconds += taken
            setup_due -= sum(taken)
        res.elapsed = _clock() - start
        if res.elapsed >= seconds and len(res.by_request) >= min_samples:
            return res


def _traced_passes(lib, pres, workload, pool, seconds, min_samples) -> LoopResult:
    """Passes over the pool's first ``pool.traced`` requests, traced on even passes.

    The per-layer metrics come from pass 0, and at least three passes run.
    """
    res = LoopResult(recorder=tracer.Recorder())
    requests = pool.requests[:pool.traced]
    balls_built: set[tuple] = set()
    start = _clock()
    while True:
        traced = res.passes % 2 == 0
        installation = tracer.install(res.recorder) if traced else None
        t0 = _clock()
        try:
            _send(lib, pres, workload, requests, res, balls_built,
                  res.recorder if traced else None)
        finally:
            if installation is not None:
                installation.remove()
        res.pass_seconds.append(_clock() - t0)
        if res.passes == 1:
            res.first_pass_layers = res.recorder.snapshot()
            res.recorder.keep_spans = False  # keep pass 0's spans only
        res.elapsed = _clock() - start
        if res.elapsed >= seconds and res.attempted >= min_samples and res.passes >= 3:
            return res


def typical_latencies(res: LoopResult) -> list[float]:
    """Each distinct request's median latency over its sends in the run.

    A stall of the machine that hits one send of a request does not move
    its median, so the percentiles over these track the cost of the
    requests rather than how often the machine stalled during the run.
    """
    return [statistics.median(v) for v in res.by_request.values()]


def end_to_end(res: LoopResult) -> dict[str, tuple[float, str]]:
    lat = typical_latencies(res)
    return {
        "requests_per_s": (res.attempted / sum(res.pass_seconds), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "decided_ratio": (res.decided_ratio(), "ratio"),
        "setup_s": (statistics.median(res.setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or 'all' to run each in its own process in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in sorted(workloads.WORKLOADS)]
        return max(codes)
    workload = workloads.WORKLOADS[args.workload]

    pool = workload.generate(args.seed)
    try:
        lib, pres = set_up(pool)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    res = run_loop(lib, pres, workload, pool, args.seconds, trace=bool(args.trace))

    descriptors = pool.descriptors()
    descriptors["ball_reuse_share"] = (res.ball_reused / res.search_requests
                                       if res.search_requests else None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res.passes} {'passes' if args.trace else 'blocks'}, "
          f"{res.attempted} requests in {sum(res.pass_seconds):.2f} s "
          f"({res.elapsed:.2f} s in all), {res.failed} failed; "
          f"closed loop, 1 caller")
    print("descriptors " + json.dumps(descriptors, sort_keys=True))
    print("verdicts " + json.dumps(dict(sorted(res.verdicts.items()))))
    for line in res.failures[:10]:
        print("failure " + line)

    if args.trace:
        values = dict(res.first_pass_layers)
        values["tracing.overhead_ratio"] = res.overhead_ratio()
        metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res.recorder.write_spans(span_file)
        print(f"spans of pass 0: {len(res.recorder.spans)} written to "
              f"{span_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(res)
        print(f"latency samples {res.attempted} over {len(res.by_request)} distinct requests "
              f"(percentiles over their medians), set-up samples {len(res.setup_seconds)}")
        print(f"error_rate = {res.failed / res.attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
