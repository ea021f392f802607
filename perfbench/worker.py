"""Run one workload in this interpreter: set up, time, check, report.

Started by ``run.py`` in a fresh interpreter for every measurement. With
``--mode setup`` it stops when the first timed operation would start. It
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Peak memory is read after this many rounds, a fixed amount of work, so a
# faster program is not charged for the extra rounds it completes in the run.
MEMORY_ROUNDS = 3


def load_library():
    """Import ``ncwreath`` from this checkout's ``src`` and collect the
    public callables the workloads use, plus the classes they build inputs
    from."""
    sys.path.insert(0, str(SRC))
    import ncwreath
    from ncwreath import cli, decorated, fusion, groups, partitions, tensor_maps
    from ncwreath.algebra import MultiMatrixAlgebra

    if Path(ncwreath.__file__).resolve().parent != SRC / "ncwreath":
        raise SystemExit(f"ncwreath imported from {ncwreath.__file__}, not from {SRC}")
    functions = {
        "enumerate_partitions": partitions.enumerate_partitions,
        "compose": partitions.compose,
        "tensor": partitions.tensor,
        "adjoint": partitions.adjoint,
        "partition_from_dict": partitions.Partition.from_dict,
        "partition_to_dict": partitions.Partition.to_dict,
        "algebra_from_dict": MultiMatrixAlgebra.from_dict,
        "is_delta_form": MultiMatrixAlgebra.is_delta_form,
        "decompose_by_delta": MultiMatrixAlgebra.decompose_by_delta,
        "build_map": tensor_maps.build_map,
        "verify_composition": tensor_maps.verify_composition,
        "gram_rank": tensor_maps.gram_rank,
        "parse_group_spec": groups.parse_group_spec,
        "parse_word_text": groups.parse_word_text,
        "decorated_hom_dimension": decorated.decorated_hom_dimension,
        "fusion_product": fusion.fusion_product,
        "dimension": fusion.dimension,
        "multiplicity_of_trivial": fusion.multiplicity_of_trivial,
        "a_rep_trivial_multiplicity": fusion.a_rep_trivial_multiplicity,
        "free_product_fusion": fusion.free_product_fusion,
        "cli_run": cli.run,
    }
    classes = {
        "Word": fusion.Word,
        "WordRing": fusion.WordRing,
        "AlternatingWord": fusion.AlternatingWord,
        "BoundError": ncwreath.BoundError,
    }
    return functions, classes, cli


def trace_cli(tracer: Tracer, cli) -> dict:
    """Wrap the library functions the CLI module calls, so a traced
    ``cli.run`` shows which layers its time went to. Returns the originals."""
    originals = {
        name: value for name, value in vars(cli).items()
        if inspect.isfunction(value) and value.__module__.startswith("ncwreath.")
        and value.__module__ != cli.__name__
    }
    for name, fn in originals.items():
        setattr(cli, name, tracer.wrap(fn))
    return originals


def blas_threads():
    """OpenBLAS's thread count, read from the copy bundled with numpy."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def stamp() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def percentile(ordered, q: float):
    """Nearest-rank percentile of sorted values and the samples beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def kind_summary(records) -> dict:
    """Per kind of operation: count, median and largest latency in ms."""
    by_kind = {}
    for op, _, _, latency in records:
        by_kind.setdefault(op.kind, []).append(latency)
    return {kind: [len(v), round(statistics.median(v) * 1e3, 4), round(max(v) * 1e3, 4)]
            for kind, v in by_kind.items()}


def timed_phase(workload, seconds: float, tracer):
    """Run whole rounds until ``seconds`` of operation time have passed and
    at least MEMORY_ROUNDS rounds are done. Returns one ``(op, raised,
    digest, latency)`` record per operation, the operation time, the round
    count and the peak RSS after MEMORY_ROUNDS rounds."""
    records, busy, rounds = [], 0.0, 0
    ops = workload.ops(0)
    while True:
        for op in ops:
            if tracer:
                tracer.op = len(records)
            raised = None
            start = time.perf_counter()
            try:
                out = op.fn(*op.args)
            except Exception as exc:  # an outcome to check, like a value
                raised = type(exc).__name__
            latency = time.perf_counter() - start
            busy += latency
            records.append((op, raised, None if raised else workload.digest(op, out), latency))
            out = None
        rounds += 1
        if rounds == MEMORY_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if busy >= seconds and rounds >= MEMORY_ROUNDS:
            return records, busy, rounds, peak_rss_mb
        ops = workload.ops(rounds)


def check(workload, records):
    """Latencies of the operations whose outcome is the expected one, and the
    failures of the others by kind."""
    ok_latencies, failures = [], {}
    for op, raised, digest, latency in records:
        try:
            ok = raised == op.raises and (raised is not None or workload.check(op, digest))
        except Exception as exc:  # a check that cannot run counts as a failure
            ok, raised = False, f"check raised {type(exc).__name__}: {exc}"
        if ok:
            ok_latencies.append(latency)
        else:
            failures.setdefault(op.kind, []).append(raised or "wrong output")
    return sorted(ok_latencies), failures


def run(args) -> dict:
    functions, classes, cli = load_library()
    tracer = Tracer() if args.trace else None
    wrap = tracer.wrap if tracer else (lambda fn: fn)
    lib = SimpleNamespace(**{name: wrap(fn) for name, fn in functions.items()})
    raw = SimpleNamespace(**functions, **classes)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    originals = trace_cli(tracer, cli) if tracer and args.workload == "cli_scripts" else {}
    try:
        workload = WORKLOADS[args.workload](lib, raw, args.seed, workdir)
        for op in workload.ops(-1, tiny=True):
            try:
                op.fn(*op.args)
            except Exception:  # outcomes of warm-up inputs are not checked
                pass
        if tracer:
            tracer.spans.clear()
            tracer.counts.clear()
        ready = time.perf_counter()
        if args.mode == "setup":
            return {"ready": ready}
        try:
            records, busy, rounds, peak_rss_mb = timed_phase(workload, args.seconds, tracer)
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
        ok_latencies, failures = check(workload, records)
        probes = workload.probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    p50, _ = percentile(ok_latencies, 0.5) if ok_latencies else (0.0, 0)
    p99, beyond = percentile(ok_latencies, 0.99) if ok_latencies else (0.0, 0)
    result = {
        "ready": ready,
        "rounds": rounds,
        "attempted": len(records),
        "failed": len(records) - len(ok_latencies),
        "failures": {kind: [len(v), v[0]] for kind, v in failures.items()},
        "kinds": kind_summary(records),
        "busy_s": busy,
        "ops_per_s": len(ok_latencies) / busy,
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "p99_beyond": beyond,
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "stamp": stamp(),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    result = run(parser.parse_args())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
