"""The cohomolab benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each run is a fresh single-threaded interpreter (child.py) that imports the
package from ./src and runs one workload's job list once, one job at a time,
closed loop.  The number of runs comes from --seconds and the workload's
nominal run cost, so a seed always pools the same number of job samples.
Every job's answer is gated against perfbench/reference_hashes.json.

--trace 0 reports the end-to-end metrics (medians over runs); --trace 1 runs
traced and untraced children alternately on one job order and reports the
per-layer metrics plus trace.overhead_s.

Times are reported in reference seconds.  The machine this was built on
switches between a fast and a 1.5-2x slower state every few seconds to
minutes (other tenants), which moved medians of plain wall time by 25-40%
between runs of the same code.  So every run times a fixed stdlib-only probe
loop before the first job and after each job, and each measured time is
scaled by PROBE_REF_S over the probe time next to it.  The summary also
prints the plain wall and set-up times and the host speed factor.  The last stdout line is one JSON
object {correct, attempted, failed, metrics}; the exit code is 1 when any
job failed and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table", "identity-sweep", "direct-solve", "weight-scan")

# Wall time of one untraced run (child start to exit) at the commit that
# defined the benchmark, on a 2-core box; it fixes how many runs fit in
# --seconds (an even number at 25 s, so reversed job orders pair up).
# Traced runs cost about TRACE_COST times as much.
NOMINAL_RUN_S = {"table": 3.1, "identity-sweep": 2.5, "direct-solve": 3.1,
                 "weight-scan": 3.1}
TRACE_COST = 1.8
PROBE_REF_S = 0.014  # child.probe() on the reference box in its most common state
MIN_POOLED_JOBS = 24  # keeps the tail rank above the median
DEADLINE_S = 170.0  # per workload, so one workload's call ends within 180 s
UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COHOMOLAB_MAX_TERMS", None)  # the default term budget applies
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    # import from bytecode after the first run, cached inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def run_child(workload: str, seed: int, run: int, trace: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(run)]
    spawn = time.monotonic()
    timeout = deadline - spawn
    if timeout <= 0:
        raise HarnessError(f"{workload}: out of time before run {run}")
    try:
        proc = subprocess.run(argv + [repr(spawn), "1" if trace else "0"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}: run {run} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: run {run} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def fail_ratio(jobs: list[dict]) -> float:
    return sum(job["error"] is not None for job in jobs) / len(jobs)


def adjusted(record: dict) -> tuple[list[float], float, float]:
    """A run's job times, their sum and its set-up time, in reference seconds.

    A job is scaled by PROBE_REF_S over the mean of the probes just before and
    after it; set-up by the first probe, which follows it.
    """
    probes = probe_times(record)
    jobs = [job["seconds"] * 2 * PROBE_REF_S / (before + after)
            for job, before, after in zip(record["jobs"], probes, probes[1:])]
    return jobs, sum(jobs), record["setup_s"] * PROBE_REF_S / probes[0]


def speed(record: dict) -> float:
    """The host speed during a run relative to the reference (1.0)."""
    probes = probe_times(record)
    return PROBE_REF_S * len(probes) / sum(probes)


def probe_times(record: dict) -> list[float]:
    return [record["probe0_s"]] + [job["probe_s"] for job in record["jobs"]]


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest rank with at least 10 samples beyond it, and its percentile."""
    ordered = sorted(samples)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], math.floor(100 * (rank + 1) / len(ordered))


def end_to_end(records: list[dict]) -> dict[str, float]:
    runs = [adjusted(r) for r in records]
    jobs = [t for job_times, _, _ in runs for t in job_times]
    return {
        "wall_s": statistics.median(wall for _, wall, _ in runs),
        "job_s.p50": statistics.median(jobs),
        "job_s.tail": tail(jobs)[0],
        "setup_s": statistics.median(setup for _, _, setup in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Counts from the first traced run (they repeat exactly), the rest as medians.

    Times are scaled to reference seconds by the run's mean probe.
    """
    out = {}
    for name, first in traced[0]["layers"].items():
        if name.endswith(("calls", "_out", "pairs")):
            out[name] = first
        else:
            scale = [speed(r) if name.endswith("_s") else 1.0 for r in traced]
            out[name] = statistics.median(r["layers"][name] * f
                                          for r, f in zip(traced, scale))
    out["trace.overhead_s"] = (statistics.median(adjusted(r)[1] for r in traced)
                               - statistics.median(adjusted(r)[1] for r in plain))
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload; returns its records, metrics and failures."""
    if trace:
        pairs = max(1, round(seconds / (NOMINAL_RUN_S[workload] * (1 + TRACE_COST))))
        traced, plain = [], []
        for _ in range(pairs):
            plain.append(run_child(workload, seed, 0, False, deadline))
            traced.append(run_child(workload, seed, 0, True, deadline))
        records = traced + plain
        silent = sorted({name for r in traced for name in r["silent"]})
        metrics = per_layer(traced, plain)
    else:
        records = [run_child(workload, seed, 0, False, deadline)]
        runs = max(round(seconds / NOMINAL_RUN_S[workload]),
                   -(-MIN_POOLED_JOBS // len(records[0]["jobs"])))
        records += [run_child(workload, seed, r, False, deadline) for r in range(1, runs)]
        silent = []
        metrics = end_to_end(records)
    jobs = [job for r in records for job in r["jobs"]]
    failures = [job for job in jobs if job["error"] is not None]
    return {"records": records, "metrics": metrics, "jobs": jobs,
            "failures": failures, "silent": silent}


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_summary(workload: str, seed: int, outcome: dict, trace: bool) -> None:
    records, jobs, metrics = outcome["records"], outcome["jobs"], outcome["metrics"]
    print(f"workload {workload} seed {seed}: {len(records)} runs, {len(jobs)} jobs"
          + (" (traced and untraced)" if trace else ""))
    if trace:
        for name, value in metrics.items():
            print(f"  {name:52s} {value:.6g}")
    else:
        _, pct = tail([j["seconds"] for j in jobs])
        for name, value in metrics.items():
            note = f"  (p{pct} of {len(jobs)} jobs)" if name == "job_s.tail" else ""
            print(f"  {name:12s} {value:.6f} {UNITS[name]}{note}")
        print(f"  {'plain wall':12s} {statistics.median(r['wall_s'] for r in records):.6f} s, "
              f"plain setup {statistics.median(r['setup_s'] for r in records):.6f} s, "
              f"host speed {statistics.median(speed(r) for r in records):.3f}")
    print(f"  {'fail_ratio':12s} {fail_ratio(jobs):.6f}  "
          f"({len(outcome['failures'])}/{len(jobs)} jobs)")
    for job in outcome["failures"]:
        print(f"  FAILED {job['key']}: {job['error']}")
    for name in outcome["silent"]:
        print(f"  FAILED trace: {name} recorded no call on {workload}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cohomolab" / "__init__.py").is_file():
        print(f"benchmark error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"facts: nproc={os.cpu_count()} python={platform.python_version()} "
          f"git={git_revision()} loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in names:
        try:
            outcome = measure(workload, args.seed, args.seconds, bool(args.trace),
                              time.monotonic() + DEADLINE_S)
        except HarnessError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        print_summary(workload, args.seed, outcome, bool(args.trace))
        attempted += len(outcome["jobs"])
        failed += len(outcome["failures"]) + len(outcome["silent"])
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, value in outcome["metrics"].items():
            unit = UNITS.get(name) or layer_unit(name)
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith(("ratio", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
