"""ncwreath benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload diagram_calculus --seed 0 --seconds 10 --trace 0

Every measurement runs in a fresh interpreter (``worker.py``). With
``--trace 0`` the end-to-end metrics come from one timed run plus six
set-up-only runs; with ``--trace 1`` one untraced and one traced run give the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_RUNS = 7
BUDGET_S = 170.0  # a workload's whole run, all interpreters together

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def source_stamp() -> dict:
    """Git commit when there is one, and a digest of the library sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0))}


def start_worker(args, mode: str, trace: int, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its result and the
    time from just before start-up until it was ready to time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--mode", mode]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} {mode} run exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} run exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def measure(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    source = source_stamp()
    if args.trace:
        runs = [start_worker(args, "run", 0, deadline), start_worker(args, "run", 1, deadline)]
        untraced, traced = runs
        metrics = dict(traced["layers"])
        metrics["bench.trace_overhead_frac"] = (
            1.0 - traced["ops_per_s"] / untraced["ops_per_s"], "fraction")
        metrics["bench.probes_failed"] = (
            sum(not ok for _, ok, _ in traced["probes"]), "count")
        setups = []
    else:
        setups = [start_worker(args, "setup", 0, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        timed = start_worker(args, "run", 0, deadline)
        runs = [timed]
        setups.append(timed["setup_s"])
        metrics = {name: (timed[name] if name != "setup_s" else statistics.median(setups), unit)
                   for name, unit in END_TO_END_UNITS.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    probes = [p for r in runs for p in r["probes"]]
    wrong_probes = sum(not ok and outcome == "value" for _, ok, outcome in probes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source,
        "setup_runs_s": setups,
        "runs": runs,
        "correct": failed == 0 and wrong_probes == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    w = record["workload"]
    stamp = record["runs"][0]["stamp"]
    print(f"== {w}  seed={record['seed']}  seconds={record['seconds']}  trace={record['trace']}")
    print(f"   source {record['source']}  python {stamp['python']}  numpy {stamp['numpy']}"
          f"  {stamp['blas']}  blas_threads={stamp['blas_threads']}")
    for run in record["runs"]:
        probes = run["probes"]
        probe_failed = sum(not ok for _, ok, _ in probes)
        failed_frac = (run["failed"] + probe_failed) / (run["attempted"] + len(probes))
        print(f"   run: {run['attempted']} ops in {run['rounds']} rounds {run['kinds']}, "
              f"{run['busy_s']:.2f} s timed; failed {run['failed']}"
              f"{' ' + json.dumps(run['failures']) if run['failures'] else ''}")
        print(f"   probes: {probe_failed} of {len(probes)} failed {probes}; "
              f"failed_frac {failed_frac:.6f} (timed ops and probes)")
        print(f"   latency samples {run['attempted'] - run['failed']}, "
              f"{run['p99_beyond']} beyond p99")
    if record["setup_runs_s"]:
        print(f"   setup runs (s): {[round(s, 4) for s in record['setup_runs_s']]}")
    for name, (value, unit) in record["metrics"].items():
        print(f"   {name:55s} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ncwreath" / "__init__.py").is_file():
        print(f"error: no ncwreath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            args.workload = name
            records.append(measure(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for record in records:
        report(record)
        path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
        path.write_text(json.dumps(record, indent=1))

    def metric(value, unit):
        return {"value": value, "unit": unit}

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): metric(*v)
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
