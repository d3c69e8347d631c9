"""rangevar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan_files --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a source checkout: rangevar is imported from
``src`` without being installed. Every measurement happens in a child
process (perfbench/worker.py) with BLAS and OpenMP pinned to one thread.
The metric names and units are the ones BENCHMARK.json declares.

--trace 0  ROUNDS processes one after the other, each setting up afresh and
           then running a closed loop with one client for --seconds/ROUNDS,
           all at the ``timed`` size (see workloads.py). Every iteration's
           artifacts must match the run's first iteration, across processes
           too. Then one iteration at the ``full`` size in a process of its
           own, whose input was built by another process.
           wall_s       median normalized seconds of one timed iteration
           setup_s      median of the normalized time from process start
                        to the end of set-up (interpreter start, ``import
                        rangevar`` and building the input) over SETUPS
                        processes: the ROUNDS timed ones and SETUPS - ROUNDS
                        that only set up
           peak_rss_mb  ru_maxrss of the full-size process when its
                        iteration returned (many_ticks builds its in-memory
                        dataset in that process)

Normalized seconds. On a shared host other tenants slow this process by up
to 2x in phases of seconds to minutes, so raw times of runs made an hour
apart differ by more than any useful bound. Each timed process therefore
times worker.reference_work, a fixed computation that is not rangevar code,
before and after every iteration. An iteration's speed ratio is its wall
time over the mean of those two timings, and a process's set-up ratio is
its set-up time over the median of its timings. Both are reported times
REFERENCE_S, the reference's undisturbed time on the host the benchmark was
defined on: seconds as that host runs when nothing else disturbs it. A
change to rangevar moves the ratios and not the reference. The record keeps
every raw sample, and the summary line prints the raw median and fastest
iteration as well.

--trace 1  one process alternating untraced and traced iterations, then
           one memory process (tracemalloc). Reports the per-layer metrics.

``--workload all`` runs every workload with --trace 0 and prints one line
each, error_rate included.
The last line of standard output is the JSON result. A fuller record
(environment, samples, failures, sha256 of every artifact) goes to
.perfbench_runs/<workload>-seed<n>-trace<t>.json, and a traced run's spans
next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
ROUNDS = 7
# One process's set-up time varies by some 15%; a median of this many keeps
# setup_s steady from run to run.
SETUPS = 21
# worker.reference_work's undisturbed time (fastest of 300) on the 2-vCPU
# Intel Xeon host the benchmark was defined on; it sets the scale of the
# normalized times.
REFERENCE_S = 0.007
RUN_BUDGET_S = 170.0  # every process of one workload's run ends within this
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts worker processes for one benchmark invocation and cleans up after them."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = RUNS / f"work-{os.getpid()}"
        self.env = dict(os.environ, **PINNED_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.children = 0

    def new_workdir(self) -> Path:
        self.children += 1
        return self.workdir / str(self.children)

    def worker(self, mode: str, workload: str, *extra: str, full: bool = False,
               seconds: float = 0.0, workdir: Path | None = None) -> dict:
        size = "smoke" if self.args.smoke else "full" if full else "timed"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(self.args.seed), "--seconds", repr(seconds), "--size", size,
            "--workdir", str(workdir or self.new_workdir()), *extra,
        ]
        if self.args.perturb_truth:
            cmd.append("--perturb-truth")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s used up before {mode}")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} process did not end within the run budget") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"{workload} {mode} process exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def checked(runs: list[dict]) -> dict:
    """attempted, failed and problems summed over worker results."""
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]][:20],
    }


def timed_run(runner: Runner, workload: str) -> tuple[dict, dict]:
    rounds, reference = [], None
    for _ in range(ROUNDS):
        extra = ("--reference", json.dumps(reference)) if reference else ()
        rounds.append(runner.worker("time", workload, *extra,
                                    seconds=runner.args.seconds / ROUNDS))
        reference = reference or rounds[-1]["artifacts"] or None
    setup_runs = rounds + [runner.worker("setup", workload) for _ in range(SETUPS - ROUNDS)]
    workdir = runner.new_workdir()
    runner.worker("setup", workload, full=True, workdir=workdir)
    full = runner.worker("time", workload, full=True, workdir=workdir)

    walls = [w for r in rounds for w in r["walls"]]
    ratios = [x for r in rounds for x in r["ratios"]]
    setups = [r["setup_s"] for r in setup_runs]
    setup_ratios = [r["setup_s"] / statistics.median(r["references"]) for r in setup_runs]
    if not walls:
        raise BenchError(f"{workload}: no iteration returned; {rounds[0]['problems'][:3]}")
    metrics = {
        "wall_s": REFERENCE_S * statistics.median(ratios),
        "peak_rss_mb": full["peak_rss_mb"],
        "setup_s": REFERENCE_S * statistics.median(setup_ratios),
    }
    record = {
        "samples": {"wall_s": [r["walls"] for r in rounds], "ratios": [r["ratios"] for r in rounds],
                    "setup_s": setups, "setup_ratios": setup_ratios},
        "raw_wall_s": {"min": min(walls), "median": statistics.median(walls),
                       "quartiles": quartiles(walls)},
        **checked(rounds + [full]),
        "artifacts": reference or {},
        "artifacts_full_size": full["artifacts"],
        "environment": rounds[0]["environment"],
    }
    record["error_rate"] = record["failed"] / record["attempted"]
    return metrics, record


def traced_run(runner: Runner, workload: str, spans_path: Path, names: list[str]) -> tuple[dict, dict]:
    traced = runner.worker("trace", workload, "--spans", str(spans_path),
                           seconds=runner.args.seconds)
    memory = runner.worker("memory", workload)
    metrics = dict(traced["per_layer"])
    metrics["ingest.dataset_bytes_per_obs"] = memory["dataset_bytes_per_obs"]
    missing = set(names) - metrics.keys()
    if missing:
        raise BenchError(f"{workload}: traced run lacks {sorted(missing)}; {traced['problems'][:3]}")
    record = {
        "traced_iterations": traced["traced_iterations"],
        "untraced_walls": traced["untraced_walls"],
        **checked([traced]),
        "artifacts": traced["artifacts"],
        "environment": traced["environment"],
    }
    record["error_rate"] = record["failed"] / record["attempted"]
    return metrics, record


def summary_line(workload: str, metrics: dict, record: dict) -> str:
    n = sum(map(len, record["samples"]["wall_s"]))
    raw = record["raw_wall_s"]
    return (
        f"{workload}: wall_s {metrics['wall_s']:.4f} s (normalized median of {n} in {ROUNDS} "
        f"processes; raw median {raw['median']:.4f} s, fastest {raw['min']:.4f} s) | "
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (one full-size iteration) | "
        f"setup_s {metrics['setup_s']:.4f} s (normalized median of {SETUPS}; raw median "
        f"{statistics.median(record['samples']['setup_s']):.4f} s) | "
        f"error_rate {record['error_rate']:.4g} ({record['failed']}/{record['attempted']})"
    )


def run_one(runner: Runner, workload: str, units: dict[str, str]) -> tuple[dict, dict]:
    args = runner.args
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, record = traced_run(runner, workload, RUNS / f"{stem}-spans.json.gz", list(units))
    else:
        metrics, record = timed_run(runner, workload)
        print(summary_line(workload, metrics, record))
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "trace": args.trace, "metrics": result_metrics, **record}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{workload} environment: {json.dumps(record['environment'])}")
    print(f"{workload} artifacts sha256: {json.dumps(record['artifacts'])}")
    for problem in record["problems"]:
        print(f"{workload} failure: {problem}")
    return result_metrics, record


def main(argv=None) -> int:
    if not (ROOT / "src" / "rangevar" / "__init__.py").is_file():
        print(f"error: no rangevar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs at every step, for the benchmark's own test")
    p.add_argument("--perturb-truth", action="store_true",
                   help="check against a wrong truth model; every iteration must fail")
    args = p.parse_args(argv)
    if args.workload == "all" and args.trace:
        p.error("--workload all runs untraced only")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    RUNS.mkdir(exist_ok=True)
    runs = {}
    for name in names if args.workload == "all" else [args.workload]:
        runner = Runner(args)
        try:
            runs[name] = run_one(runner, name, units)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            runner.close()

    if args.workload == "all":
        metrics = {f"{name}.{k}": v for name, (m, _) in runs.items() for k, v in m.items()}
    else:
        metrics = runs[args.workload][0]
    attempted = sum(r["attempted"] for _, r in runs.values())
    failed = sum(r["failed"] for _, r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
