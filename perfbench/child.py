"""One benchmark run: a fresh interpreter runs one workload's job list once.

    python3 perfbench/child.py WORKLOAD SEED RUN SPAWN_TIME TRACE

run.py starts it with the package source on PYTHONPATH and passes the
CLOCK_MONOTONIC time at which it spawned the process, so `setup_s` covers
interpreter start, the import and building the job list.  The last stdout
line is one JSON record of the run.  With TRACE=1 the package's functions are
wrapped by the tracer and the record carries the per-layer figures.

Before the first job and after every job the run times `probe`, a fixed loop
that runs no package code; run.py uses these times to cancel the machine's
speed changes out of the job times.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from cohomolab import ansatz, cocycles, linalg, operators, poly, quantization, report, symbols
from cohomolab.report import emit_report

import workloads
from tracer import Target, Tracer

REFERENCE_FILE = Path(__file__).with_name("reference_hashes.json")
PROBE_ITERATIONS = 3000

TARGETS = [
    Target("poly.mul", poly.Poly, "__mul__", "terms_out", lambda a, r, b: len(r.terms)),
    Target("poly.add", poly.Poly, "__add__"),
    Target("poly.diff_multi", poly.Poly, "diff_multi"),
    Target("poly.diff", poly.Poly, "diff"),
    Target("poly.check_term_budget", poly, "check_term_budget"),
    Target("symbols.schouten_bracket", symbols, "schouten_bracket"),
    Target("operators.compose", operators.PolyDiffOp, "compose", "terms_out",
           lambda a, r, b: len(r.terms)),
    Target("operators.apply", operators.PolyDiffOp, "apply"),
    Target("operators.symbol_map", operators.PolyDiffOp, "symbol_map", "entries_out",
           lambda a, r, b: len(r.entries)),
    Target("operators.module_action", operators, "module_action"),
    Target("operators.affine_equivariant_basis", operators, "affine_equivariant_basis"),
    Target("ansatz.operator_for_field", ansatz.BilinearOp, "operator_for_field"),
    Target("ansatz.recurrence_solutions", ansatz, "recurrence_solutions"),
    Target("ansatz.solve_equivariant_direct", ansatz, "solve_equivariant_direct"),
    Target("ansatz.impose_cocycle", ansatz, "impose_cocycle"),
    Target("cocycles.cocycle_check", cocycles, "cocycle_check", "pairs",
           lambda a, r, b: r.pairs_checked),
    # a call is a cache hit when it leaves the cocycle's cache the same size
    Target("cocycles.evaluate", cocycles.OneCocycle, "evaluate", "hits",
           lambda a, r, b: int(len(a[0]._cache) == b), lambda a: len(a[0]._cache)),
    Target("cocycles.coboundary_solve", cocycles, "coboundary_solve"),
    Target("cocycles.class_proportionality", cocycles, "class_proportionality"),
    Target("linalg.add_row", linalg.RowReducer, "add_row", "useful", lambda a, r, b: int(r)),
    Target("linalg.solve", linalg, "solve"),
    Target("linalg.nullspace", linalg, "nullspace"),
    Target("quantization.operator_from_symbol_values", quantization,
           "operator_from_symbol_values"),
    Target("quantization.sequence_cocycle", quantization, "sequence_cocycle"),
    Target("quantization.DensityOperator.compose", quantization.DensityOperator, "compose"),
    Target("report.cohomology_table", report, "cohomology_table"),
]

# Per-layer metrics reported for every target: <target>.<stat>.
LAYER_STATS = {
    "operators.compose": ("calls", "self_s", "total_s", "terms_out", "share"),
    "poly.mul": ("calls", "self_s", "terms_out", "share"),
    "poly.add": ("calls", "self_s"),
    "poly.diff_multi": ("calls", "self_s"),
    "poly.diff": ("calls", "self_s"),
    "poly.check_term_budget": ("calls",),
    "operators.apply": ("calls", "self_s", "total_s", "share"),
    "symbols.schouten_bracket": ("calls", "self_s", "total_s", "share"),
    "operators.symbol_map": ("calls", "self_s", "entries_out"),
    "operators.module_action": ("calls", "total_s"),
    "operators.affine_equivariant_basis": ("calls", "total_s"),
    "ansatz.operator_for_field": ("calls", "self_s"),
    "ansatz.recurrence_solutions": ("total_s",),
    "ansatz.solve_equivariant_direct": ("total_s", "share"),
    "ansatz.impose_cocycle": ("total_s", "share"),
    "ansatz.ansatz_term_op": ("hit_ratio",),
    "cocycles.cocycle_check": ("total_s", "pairs", "share"),
    "cocycles.evaluate": ("calls", "hit_ratio"),
    "cocycles.coboundary_solve": ("total_s",),
    "cocycles.class_proportionality": ("total_s",),
    "linalg.add_row": ("calls", "self_s", "useful_ratio"),
    "linalg.solve": ("total_s",),
    "linalg.nullspace": ("total_s",),
    "quantization.operator_from_symbol_values": ("calls", "total_s", "share"),
    "quantization.sequence_cocycle": ("calls", "total_s"),
    "quantization.DensityOperator.compose": ("calls", "self_s"),
    "report.cohomology_table": ("total_s",),
}

# Functions the prediction table names as moving wall_s on a workload; a
# traced run that records no call to one of them fails.
DOMINANT = {
    "table": ("operators.compose", "poly.mul", "poly.add", "poly.diff_multi",
              "poly.check_term_budget", "operators.apply", "symbols.schouten_bracket",
              "operators.symbol_map", "operators.module_action",
              "operators.affine_equivariant_basis", "ansatz.operator_for_field",
              "ansatz.impose_cocycle", "cocycles.cocycle_check", "cocycles.evaluate",
              "cocycles.coboundary_solve", "cocycles.class_proportionality",
              "report.cohomology_table"),
    "identity-sweep": ("operators.compose", "poly.mul", "poly.add",
                       "poly.check_term_budget", "cocycles.cocycle_check",
                       "cocycles.evaluate"),
    "direct-solve": ("poly.mul", "poly.add", "poly.diff_multi", "poly.diff",
                     "poly.check_term_budget", "operators.apply", "symbols.schouten_bracket",
                     "ansatz.operator_for_field", "ansatz.solve_equivariant_direct"),
    "weight-scan": ("poly.mul", "poly.add", "poly.check_term_budget",
                    "cocycles.cocycle_check", "cocycles.evaluate",
                    "cocycles.coboundary_solve", "cocycles.class_proportionality",
                    "quantization.operator_from_symbol_values",
                    "quantization.sequence_cocycle", "quantization.DensityOperator.compose"),
}


def load_references() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())


def probe() -> float:
    """Seconds a fixed stdlib-only loop takes now: the host's current speed.

    The loop does the dict, tuple and Fraction work the package does, but
    none of the package's code, and runs with the cyclic collector off, so a
    change to the program does not move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i % 7, i % 11, i % 13)
            acc[key] = acc.get(key, 0) + Fraction(i, 7)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def result_hash(payload: dict) -> str:
    return hashlib.sha256(emit_report(payload).encode()).hexdigest()


def run_jobs(jobs: list[workloads.Job], references: dict[str, str],
             tracer: Tracer | None = None) -> list[dict]:
    """Run the jobs one at a time, gate each answer, and probe after each.

    A job fails when it raises (a ResourceLimitError included), when it
    reaches the wrong verdict, or when its result hash differs from the
    reference for its key.
    """
    records = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            payload, verdict = job.run()
        except Exception as exc:  # the job boundary: any raise is a failed job
            seconds = time.perf_counter() - start
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - start
            if not verdict:
                error = "wrong verdict"
            elif result_hash(payload) != references.get(job.key):
                error = "result hash differs from the reference"
            else:
                error = None
        records.append({"key": job.key, "seconds": seconds, "error": error,
                        "probe_s": probe()})
    return records


def package_namespaces() -> list:
    """Every loaded cohomolab module plus the benchmark's own job module."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "cohomolab" or name.startswith("cohomolab.")]
    return mods + [workloads]


def layer_metrics(stats: dict[str, dict], wall_s: float) -> dict[str, float]:
    """The per-layer figures of one traced run, named <target>.<stat>."""
    info = ansatz.ansatz_term_op.cache_info()
    lookups = info.hits + info.misses
    stats["ansatz.ansatz_term_op"] = {"hit_ratio": info.hits / lookups if lookups else 0.0}
    for row in stats.values():
        if "total_s" in row:
            row["share"] = row["total_s"] / wall_s
    for name, counter, ratio in (("cocycles.evaluate", "hits", "hit_ratio"),
                                 ("linalg.add_row", "useful", "useful_ratio")):
        row = stats[name]
        row[ratio] = row[counter] / row["calls"] if row["calls"] else 0.0
    return {f"{name}.{stat}": stats[name][stat]
            for name, wanted in LAYER_STATS.items() for stat in wanted}


def main(argv: list[str]) -> int:
    workload, seed, run, spawn_time, trace = argv
    jobs = workloads.ordered_jobs(workload, int(seed), int(run))
    references = load_references()
    setup_s = time.monotonic() - float(spawn_time)
    record: dict = {"setup_s": setup_s, "probe0_s": probe()}
    tracer = Tracer(TARGETS, package_namespaces()) if trace == "1" else None
    with tracer or contextlib.nullcontext():
        record["jobs"] = run_jobs(jobs, references, tracer)
    record["wall_s"] = sum(job["seconds"] for job in record["jobs"])
    if tracer is not None:
        stats = tracer.stats()
        record["silent"] = [name for name in DOMINANT[workload] if stats[name]["calls"] == 0]
        record["layers"] = layer_metrics(stats, record["wall_s"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
