"""The benchmark's correctness gate counts wrong answers as failures."""

from fractions import Fraction

import pytest

import child
import run
import workloads
from cohomolab import ResourceLimitError
from cohomolab.cocycles import (
    OneCocycle,
    hessian_contraction_op,
    second_class_coefficients,
    trace_contraction_op,
)
from cohomolab.ansatz import AnsatzCoefficients, build_bilinear


def perturbed_c1(n, k):
    factor = Fraction(-2, n + 1) + Fraction(1, 7)

    def rule(X):
        return hessian_contraction_op(X) + trace_contraction_op(X).scale(factor)

    return OneCocycle(n, k, k - 1, "c1", rule)


def perturbed_c2(n, k):
    good = second_class_coefficients(n, k)
    gamma = {s: v + 1 for s, v in good.gamma.items()}
    bad = AnsatzCoefficients(k, 2, good.alpha, good.beta, gamma)
    return OneCocycle(n, k, k - 2, "c2", build_bilinear(bad, n).operator_for_field)


@pytest.fixture(scope="module")
def references():
    return child.load_references()


def test_builtin_c1_passes_the_gate(references):
    job = workloads.identity_job("c1", workloads.SWEEP_COCYCLES["c1"], 2)
    records = child.run_jobs([job], references)
    assert records[0]["error"] is None
    assert run.fail_ratio(records) == 0


def test_perturbed_c1_trace_factor_fails_the_gate(references):
    # The Hessian and trace contractions are cocycles on their own, so the
    # identity still holds; the wrong factor shows as lost sl(n+1) vanishing.
    job = workloads.identity_job("c1", perturbed_c1, 2)
    assert job.key in references
    payload, verdict = job.run()
    assert payload["cocycle_identity"]["holds"] is True
    assert payload["vanishes_on_sl"] is False
    assert verdict is False
    records = child.run_jobs([job], references)
    assert records[0]["error"] == "wrong verdict"
    assert run.fail_ratio(records) > 0


def test_perturbed_c2_line_breaks_the_identity(references):
    job = workloads.identity_job("c2", perturbed_c2, 3)
    payload, _ = job.run()
    assert payload["cocycle_identity"]["holds"] is False
    records = child.run_jobs([job], references)
    assert run.fail_ratio(records) == 1


def test_a_raise_and_a_changed_result_count_as_failures(references):
    def raises():
        raise ResourceLimitError("term count over budget")

    key = workloads.identity_job("c1", perturbed_c1, 2).key
    jobs = [workloads.Job(key, raises),
            workloads.Job(key, lambda: ({"holds": True}, True))]
    records = child.run_jobs(jobs, references)
    assert records[0]["error"].startswith("raised ResourceLimitError")
    assert records[1]["error"] == "result hash differs from the reference"
    assert run.fail_ratio(records) == 1


def test_every_drawable_job_has_a_reference(references):
    keys = {job.key for w in workloads.WORKLOADS for job in workloads.reference_jobs(w)}
    assert keys == set(references)
    for seed in range(20):
        weights = workloads.draw_weights(seed)
        assert weights[0] == workloads.HALF and len(set(weights)) == 4
        assert min(weights) < workloads.HALF < max(weights)
        for w in workloads.WORKLOADS:
            assert {job.key for job in workloads.build_jobs(w, seed)} <= keys
