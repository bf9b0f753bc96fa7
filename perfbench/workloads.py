"""The benchmark's four workloads as seeded job lists over cohomolab's public API.

A job is one call whose canonical result is hashed by the gate in child.py
and whose verdict is checked there.  A job's key names its inputs, so the
reference hashes are keyed by job identity and not by position.  The seed
draws the weight-scan weights and, for every run, the order of the jobs, so
the package's in-process caches never see one fixed order.

Degree bounds are sized so that one run of a job list takes a few seconds on
a 2-core box; see perfbench/PREDICTIONS.md for what each workload stresses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import cohomolab
from cohomolab import cli, cocycles


class Job(NamedTuple):
    key: str
    run: Callable[[], tuple[dict, bool]]  # -> (result payload, verdict)


WORKLOADS = ("table", "identity-sweep", "direct-solve", "weight-scan")

TABLE_CONFIGS = ((2, 2), (2, 3), (3, 2))  # (n, largest symbol degree)
TABLE_VF_DEGREE = 2
SWEEP_DIM, SWEEP_DEGREES, SWEEP_VF_DEGREE = 3, (2, 3, 4), 2
SWEEP_COCYCLES = {
    "c1": cohomolab.builtin_c1,
    "c2": cohomolab.builtin_c2,
    "gamma1": cohomolab.builtin_gamma1_flat,
}
# The identity holds for all three; only c1 and c2 also vanish on sl(n+1).
# The check matters: the Hessian and trace parts of c1 are cocycles on their
# own, so a wrong c1 trace factor passes the identity and fails only here.
SWEEP_VANISHES_ON_SL = {"c1": True, "c2": True, "gamma1": False}
DIRECT_DIM, DIRECT_MAX_DEGREE = 2, 3
SCAN_DIM, SCAN_ORDER, SCAN_VF_DEGREE = 2, 2, 2
HALF = Fraction(1, 2)
# Small rationals p/q, q <= 4, in [-1, 2]; the scan always adds 1/2.
WEIGHT_POOL = tuple(sorted({Fraction(p, q) for q in (1, 2, 3, 4)
                            for p in range(-q, 2 * q + 1)} - {HALF}))


def table_job(n: int, max_degree: int) -> Job:
    def run():
        config = cohomolab.RunConfig(n, max_degree, max_vf_degree=TABLE_VF_DEGREE)
        result = cohomolab.cohomology_table(config)
        return result, result["all_match_expected"] is True

    return Job(f"table n={n} K={max_degree} d={TABLE_VF_DEGREE}", run)


def identity_job(name: str, make: Callable, k: int) -> Job:
    """The verify-cocycle report of make(n, k): cocycle_check plus sl vanishing.

    `make` builds the cocycle inside the job, so its construction is timed.
    """
    def run():
        report = cocycles.build_report(make(SWEEP_DIM, k), SWEEP_VF_DEGREE)
        verdict = (report.identity.holds is True
                   and report.sl_vanishing is SWEEP_VANISHES_ON_SL[name])
        return report.to_json(), verdict

    return Job(f"identity-sweep {name} n={SWEEP_DIM} k={k} d={SWEEP_VF_DEGREE}", run)


def direct_job(k: int, p: int) -> Job:
    def run():
        recurrence = cohomolab.recurrence_solutions(DIRECT_DIM, k, p)
        direct = cohomolab.solve_equivariant_direct(DIRECT_DIM, k, p)
        agree = recurrence.same_span_as(direct)
        payload = {"recurrence": recurrence.to_json(), "direct": direct.to_json(),
                   "same_span": agree}
        return payload, agree is True

    return Job(f"direct-solve n={DIRECT_DIM} k={k} p={p}", run)


def weight_job(weight: Fraction) -> Job:
    """The quantization-cocycle report through the CLI, stdout captured."""
    argv = ["quantization-cocycle", "--dim", str(SCAN_DIM), "--order", str(SCAN_ORDER),
            f"--lambda={weight}", "--max-vf-degree", str(SCAN_VF_DEGREE)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        result = json.loads(out.getvalue())["result"]
        trivial_expected = weight == HALF
        return result, code == 0 and result["top_symbol_trivial"] is trivial_expected

    return Job(f"weight-scan n={SCAN_DIM} k={SCAN_ORDER} d={SCAN_VF_DEGREE} lambda={weight}",
               run)


def draw_weights(seed: int) -> list[Fraction]:
    """1/2, one pool weight on each side of it, and one more pool weight."""
    rng = random.Random(f"weights:{seed}")
    below = rng.choice([w for w in WEIGHT_POOL if w < HALF])
    above = rng.choice([w for w in WEIGHT_POOL if w > HALF])
    extra = rng.choice([w for w in WEIGHT_POOL if w not in (below, above)])
    return [HALF, below, above, extra]


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for a seed, in canonical order."""
    if workload == "table":
        return [table_job(n, k) for n, k in TABLE_CONFIGS]
    if workload == "identity-sweep":
        return [identity_job(name, make, k)
                for name, make in SWEEP_COCYCLES.items() for k in SWEEP_DEGREES]
    if workload == "direct-solve":
        # k = 0 is left out: a 10 ms cell that would put the pooled median
        # in the gap between the cheap p = 0 cells and the rest
        return [direct_job(k, p) for k in range(1, DIRECT_MAX_DEGREE + 1)
                for p in range(k + 1)]
    if workload == "weight-scan":
        return [weight_job(w) for w in draw_weights(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def ordered_jobs(workload: str, seed: int, run: int) -> list[Job]:
    """The job list in the order the seed draws for one run.

    Each pair of runs shares one drawn order, the odd run reversed, so over
    the pair every job precedes every other once and the warm caches a job
    inherits from earlier jobs favour no job.
    """
    jobs = build_jobs(workload, seed)
    random.Random(f"order:{workload}:{seed}:{run // 2}").shuffle(jobs)
    return jobs[::-1] if run % 2 else jobs


def reference_jobs(workload: str) -> list[Job]:
    """Every job any seed can draw, for building the reference hashes."""
    if workload == "weight-scan":
        return [weight_job(w) for w in (HALF,) + WEIGHT_POOL]
    return build_jobs(workload, 0)
