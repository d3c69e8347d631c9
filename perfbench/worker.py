"""One workload process: set up, then time, trace or measure memory.

Started by run.py with the BLAS and OpenMP thread counts pinned to 1 and
``src`` on PYTHONPATH. Prints one JSON object as its last line.

Modes:
  setup   build the input, report the set-up time, time reference_work
          SETUP_REFERENCES times and exit
  time    set up, then run untraced iterations for --seconds (at least one),
          timing reference_work before and after each
  trace   set up, then alternate untraced and traced iterations for
          --seconds; writes the spans to --spans when it ends
  memory  set up, then measure the bytes a fresh dataset keeps alive
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads
from run import PINNED_THREADS

MIN_TRACED = 2  # traced iterations, so that their counts can be compared
SETUP_REFERENCES = 3  # reference timings that normalize a setup process's set-up time
# Share of a traced iteration's wall time that may fall outside every span.
# Where an iteration is a series of cli.run calls this share is near 0, as
# cli.self_s takes all of cli.py's own work (see spans.TIMED); the check
# guards the library-call chain of many_ticks.
MAX_UNATTRIBUTED = 0.05


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in PINNED_THREADS},
    }


def digest(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


class Loop:
    """Runs iterations, checks each one and counts failures."""

    def __init__(self, workload, reference: dict[str, str] | None = None):
        self.workload = workload
        # Digests of the run's first iteration, possibly from an earlier process.
        self.reference = reference
        # ru_maxrss when the first call returned, before the harness reads its outputs.
        self.peak_rss_mb: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def once(self, timed_call):
        """timed_call(call) -> (result, seconds).

        Returns the seconds of a call that returned, even when its outputs
        fail the checks (the failure is counted), and None when it raised.
        """
        wl = self.workload
        wl.prepare()
        gc.collect()
        self.attempted += 1
        seconds = None
        try:
            result, seconds = timed_call(wl.iterate)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            artifacts = wl.artifacts(result)
            problems = wl.check(result, artifacts)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        else:
            hashes = digest(artifacts)
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                changed = sorted(k for k in hashes.keys() | self.reference.keys()
                                 if hashes.get(k) != self.reference.get(k))
                problems.append(f"artifacts differ from the first iteration: {changed}")
        if problems:
            self.failed += 1
            self.problems.extend(f"iteration {self.attempted - 1}: {p}" for p in problems)
        return seconds


def untimed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


REFERENCE_DATA = np.random.default_rng(0).random(3000)


def reference_work() -> float:
    """A fixed mix of interpreter, text and numpy work, about 10 ms; no rangevar code."""
    total, table = 0, {}
    for i in range(30_000):
        total += i * i
        table[i & 255] = str(i)
    text = ",".join(f"{x:.9g}" for x in REFERENCE_DATA)
    parsed = np.array([float(v) for v in text.split(",")])
    return total + len(table) + float(np.sort(parsed).sum())


def reference_seconds() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_time(loop: Loop, seconds: float) -> dict:
    """Iterations, each between two timings of reference_work.

    Returns every iteration's wall seconds and its speed ratio: wall seconds
    over the mean of the two reference timings next to it. Other tenants of
    a shared host slow both alike, so the ratio stays put where the wall
    time does not.
    """
    walls, ratios = [], []
    before = reference_seconds()
    refs = [before]
    deadline = time.monotonic() + seconds
    while loop.attempted == 0 or time.monotonic() < deadline:
        wall = loop.once(untimed)
        after = reference_seconds()
        refs.append(after)
        if wall is not None:
            walls.append(wall)
            ratios.append(2.0 * wall / (before + after))
        before = after
    return {"walls": walls, "ratios": ratios, "references": refs}


def run_trace(loop: Loop, seconds: float, spans_path: Path) -> dict:
    tracer = spans.Tracer(workloads.MODULES)
    untraced = []
    deadline = time.monotonic() + seconds
    i = 0
    while i < 2 * MIN_TRACED or time.monotonic() < deadline:
        if i % 2 == 0:
            wall = loop.once(untimed)
            if wall is not None:
                untraced.append(wall)
        else:
            loop.once(lambda call, i=i: tracer.run(i, call))
            if i in tracer.counts:
                tracer.counts[i]["cli.bytes_written"] = loop.workload.bytes_written()
        i += 1

    with gzip.open(spans_path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "iteration"],
                   "spans": tracer.spans}, fh)

    summaries = spans.iteration_summaries(tracer.spans, tracer.counts)
    problems = spans.nesting_errors(tracer.spans)
    counts = {it: {k: s["counts"].get(k, 0) for k in spans.COUNT_METRICS}
              for it, s in summaries.items()}
    if len({json.dumps(c, sort_keys=True) for c in counts.values()}) > 1:
        problems.append(f"counts differ between traced iterations: {counts}")
    for it, s in summaries.items():
        if s["root_self"] > MAX_UNATTRIBUTED * s["wall"]:
            problems.append(
                f"iteration {it}: self times leave {s['root_self']:.4f} s of "
                f"{s['wall']:.4f} s unattributed"
            )
    if problems:
        loop.failed += 1
        loop.problems.extend(problems)
    return {
        "per_layer": spans.per_layer_metrics(summaries, untraced) if untraced and summaries else {},
        "traced_iterations": len(summaries),
        "untraced_walls": untraced,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "time", "trace", "memory"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--size", choices=workloads.SIZES, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--perturb-truth", action="store_true")
    p.add_argument("--reference", default=None,
                   help="JSON artifact digests every iteration must match")
    args = p.parse_args(argv)

    shape = workloads.shape_of(args.workload, args.size)
    a_factor = workloads.PERTURBED_A_FACTOR if args.perturb_truth else 1.0
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](shape, args.seed, workdir, a_factor)
    setup_s = time.monotonic() - args.spawned_at

    record: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        record["references"] = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    elif args.mode == "memory":
        record["dataset_bytes_per_obs"] = workloads.dataset_bytes_per_obs(workload.memory_dataset)
    elif args.mode in ("time", "trace"):
        loop = Loop(workload, json.loads(args.reference) if args.reference else None)
        if args.mode == "time":
            record.update(run_time(loop, args.seconds))
        else:
            record.update(run_trace(loop, args.seconds, Path(args.spans)))
        record.update(
            attempted=loop.attempted,
            failed=loop.failed,
            problems=loop.problems[:20],
            artifacts=loop.reference or {},
            peak_rss_mb=loop.peak_rss_mb,
            environment=environment(),
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
