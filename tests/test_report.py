import hashlib
import json
from fractions import Fraction

import pytest

from cohomolab import ansatz, report
from cohomolab.ansatz import (FAMILIES, AnsatzCoefficients, impose_cocycle,
                              recurrence_solutions)
from cohomolab.cocycles import (bilinear_cocycle, builtin_c1, builtin_c2, builtin_gamma1_flat,
                                class_proportionality, coboundary_solve, cocycle_check,
                                field_columns)
from cohomolab.operators import (PolyDiffOp, affine_equivariant_basis, divergence_diffop,
                                 euler_diffop, module_action)
from cohomolab.poly import Poly, StructureError, parse_poly, single_ring
from cohomolab.quantization import quantization_top_cocycle
from cohomolab.report import (
    RunConfig,
    certify_class,
    check_relation,
    cohomology_table,
    emit_report,
    expected_relative_dimension,
    wrap_report,
)
from cohomolab.symbols import sl_generators

from property_suite import run_property_suite


def test_expected_pattern():
    assert expected_relative_dimension(3, 1) == 1
    assert expected_relative_dimension(3, 2) == 1
    assert expected_relative_dimension(1, 0) == 0
    assert expected_relative_dimension(2, 0) == 1
    assert expected_relative_dimension(4, 4) == 0
    assert expected_relative_dimension(5, 1) == 0
    assert expected_relative_dimension(3, 0) == 0  # case (d), p = k = 3
    assert expected_relative_dimension(0, 0) == 0
    assert type(expected_relative_dimension(3, 1)) is int  # printed as 1, not true


def test_run_config_validation():
    with pytest.raises(StructureError):
        RunConfig(1)
    with pytest.raises(StructureError):
        RunConfig(2, -1)
    with pytest.raises(StructureError):
        RunConfig(2, 2, max_vf_degree=1)
    # a float dimension misses the cached Ring(2) and is refused, not read as 2
    single_ring(2)
    with pytest.raises(StructureError, match="dimension must be an integer"):
        cohomology_table(RunConfig(2.0, 2, 2))
    # nor is a non-int degree bound, which range() would refuse or read as 1
    with pytest.raises(StructureError, match="the symbol degree bound must be an integer"):
        cohomology_table(RunConfig(2, True, 2))
    with pytest.raises(StructureError, match="the vector-field degree bound must be an integer"):
        cohomology_table(RunConfig(2, 2, 2.0))


def test_check_relation_holds():
    res = check_relation(2)
    assert res["holds"]
    assert all(g["normal_forms_equal"] and g["counterexample"] is None
               for g in res["generators"])


def test_check_relation_names_a_counterexample_when_it_fails(monkeypatch):
    # with 2E in place of E the right side becomes (4E + n + 1) d_xi_i, so
    # lhs - rhs = -2 E d_xi_i = -2 sum_j xi_j d_xi_j d_xi_i: its least
    # (|mu|, mu) is d_xi1 d_xi2 for Q 1 and d_xi2^2 for Q 2
    monkeypatch.setattr(report, "euler_diffop", lambda ring: euler_diffop(ring).scale(2))
    res = check_relation(2)
    assert not res["holds"]
    ring = single_ring(2)
    D = divergence_diffop(ring)
    E2 = euler_diffop(ring).scale(2)
    I = PolyDiffOp.identity(ring)
    quadratic = sl_generators(2).quadratic
    named = []
    for i, g in enumerate(res["generators"]):
        assert not g["normal_forms_equal"]
        m = parse_poly(ring, g["counterexample"])
        lhs = module_action(quadratic[i], D)
        rhs = (E2.scale(2) + I.scale(3)).compose(PolyDiffOp.derivative(ring, ring.xi(i)))
        assert lhs.apply(m) != rhs.apply(m)
        named.append(m)
    assert named == [parse_poly(ring, "1*xi1*xi2"), parse_poly(ring, "1*xi2^2")]


def test_table_small_and_deterministic():
    cfg = RunConfig(2, 2, max_vf_degree=2)
    t1 = cohomology_table(cfg)
    t2 = cohomology_table(RunConfig(2, 2, max_vf_degree=2))
    assert t1["all_match_expected"]
    assert emit_report(t1) == emit_report(t2)
    cells = {(e["k"], e["ell"]): e["dimension"] for e in t1["entries"]}
    assert cells[(2, 1)] == 1
    assert cells[(2, 0)] == 1
    assert cells[(1, 0)] == 0


def test_certificates_solve_at_the_derived_degree(monkeypatch):
    # certify_class solves on fields up to min(max_vf_degree, k - ell + 1):
    # degree 2 for the p = 1 witnesses and 3 for the p = 2 ones
    seen = []
    original = report.field_columns

    def spy(c, candidates, max_vf_degree):
        seen.append((c.k - c.ell, max_vf_degree))
        return original(c, candidates, max_vf_degree)

    monkeypatch.setattr(report, "field_columns", spy)
    assert cohomology_table(RunConfig(2, 3, max_vf_degree=4))["all_match_expected"]
    assert sorted(seen) == [(1, 2), (1, 2), (2, 3), (2, 3)]


def test_quantization_report_checks_both_identities_at_its_stated_degree(monkeypatch):
    # the top cocycle, an ansatz line with no s <= 1 term, is checked on the
    # proved pair set, which is complete (empty at p = 1); the projected
    # cocycle is checked on every pair of the 30 monomial fields of degree
    # <= 4, C(30, 2) = 435; both states the max_vf_degree the report echoes
    seen = []
    original = report.cocycle_check

    def spy(c, degree, pairs=None):
        pairs = None if pairs is None else list(pairs)
        result = original(c, degree, pairs)
        seen.append((c.k - c.ell, degree, pairs, result.max_vf_degree, result.pairs_checked))
        return result

    monkeypatch.setattr(report, "cocycle_check", spy)
    out = report.quantization_report(2, 3, Fraction(1, 2), 4)
    assert out["max_vf_degree"] == 4
    assert out["projected_cocycle"]["identity_holds"]
    assert seen == [(1, 4, [], 4, 0), (2, 4, None, 4, 435)]


def _certified_classes():
    """(c, reference) for the table witnesses and the top quantization cocycles."""
    for n, top_k in ((2, 5), (3, 3)):
        for k in range(2, top_k + 1):
            for p, builtin in ((1, builtin_c1), (2, builtin_c2)):
                space = impose_cocycle(recurrence_solutions(n, k, p))
                assert space.dimension == 1
                yield (bilinear_cocycle(n, space.basis[0].normalized(), "solver"),
                       builtin(n, k))
    for n, k in ((2, 2), (2, 3), (3, 2)):
        for weight in (0, Fraction(1, 3), Fraction(1, 2), 1):
            yield quantization_top_cocycle(n, k, weight), builtin_c1(n, k)


def test_certificates_at_the_derived_degree_agree_with_degree_4(monkeypatch):
    # the derived degree is complete (certify_class's proof), so the witness,
    # the scalar and the verdicts equal those of the same solves on every
    # field of degree <= 4; the identity check is not under test here
    monkeypatch.setattr(report, "cocycle_check", lambda c, degree, pairs=None: None)
    verdicts = set()
    for c, ref in _certified_classes():
        _, cob, prop = certify_class(c, 4, ref)
        columns = field_columns(c, affine_equivariant_basis(c.n, c.k, c.ell), 4)
        assert cob.witness == coboundary_solve(columns).witness, (c.name, c.n, c.k, c.ell)
        assert prop == class_proportionality(columns, ref), (c.name, c.n, c.k, c.ell)
        verdicts.add((cob.is_coboundary, prop is not None and prop[0] != 0))
    # both answers occur: nontrivial multiples of the reference, and the
    # weight-1/2 top cocycle, a coboundary
    assert verdicts == {(False, True), (True, False)}


def _shifted(line, kind, s, delta):
    """The ansatz line with delta added to its (kind, s) coefficient."""
    data = {family: dict(getattr(line, family)) for family in FAMILIES}
    data[kind][s] = data[kind].get(s, 0) + delta
    return AnsatzCoefficients(line.k, line.p, **data)


def test_the_proved_identity_check_agrees_with_the_degree_3_loop():
    # bound: the loop runs on every pair of monomial fields of degree <= 3;
    # the certificate checks these lines (no s <= 1 term) on the proved set
    cases = []
    for n, top_k in ((2, 5), (3, 4)):
        for k in range(2, top_k + 1):
            for p in (1, 2):
                space = impose_cocycle(recurrence_solutions(n, k, p))
                cases.append(bilinear_cocycle(n, space.basis[0].normalized(), "solver"))
    for n, k in ((2, 2), (3, 3)):
        cases += [make(n, k) for make in (builtin_c1, builtin_c2, builtin_gamma1_flat)]
    cases += [quantization_top_cocycle(2, 3, w) for w in (0, Fraction(1, 3), Fraction(1, 2), 1)]
    # the c1 mutant is an affine-vanishing p = 1 line, so a cocycle, just
    # not sl-relative
    cases.append(bilinear_cocycle(
        3, _shifted(builtin_c1(3, 3).coeffs, "beta", 2, Fraction(1, 7)), "c1-mutant"))
    for c in cases:
        assert c.coeffs is not None
        assert certify_class(c, 3)[0].holds and cocycle_check(c, 3).holds, (c.name, c.n, c.k)

    c2_mutant = bilinear_cocycle(
        3, _shifted(builtin_c2(3, 3).coeffs, "beta", 3, Fraction(1, 7)), "c2-mutant")
    proved, loop = certify_class(c2_mutant, 3)[0], cocycle_check(c2_mutant, 3)
    assert not proved.holds and not loop.holds
    # the mutant fails on the first of the two quadratic pairs
    assert (proved.pairs_checked, loop.pairs_checked) == (1, 368)


def test_table_witness_checks_draw_the_proved_pairs(monkeypatch):
    # at n = 3 the p = 2 witness is checked on the two quadratic pairs that
    # generate the C(18, 2) = 153 pairs of the 18 quadratic fields, and the
    # p = 1 witness on none
    seen = []
    original = report.cocycle_check

    def spy(c, degree, pairs=None):
        result = original(c, degree, pairs)
        seen.append((c.k - c.ell, result.pairs_checked))
        return result

    monkeypatch.setattr(report, "cocycle_check", spy)
    table = cohomology_table(RunConfig(3, 2, max_vf_degree=2))
    assert table["all_match_expected"]
    assert sorted(seen) == [(1, 0), (2, 2)]
    assert all(e["witness"]["max_vf_degree"] == 2 for e in table["entries"] if "witness" in e)


def test_a_line_with_an_s_le_1_term_takes_the_bounded_loop(monkeypatch):
    # alpha_1 differentiates the field once, so the line need not vanish on
    # the affine fields and the proved pair set is not known to be complete
    def refuse(n, p):
        raise AssertionError("the proved pair set was drawn")

    monkeypatch.setattr(report, "cocycle_filter_pairs", refuse)
    c = bilinear_cocycle(2, AnsatzCoefficients(2, 1, alpha={1: 1}), "alpha1")
    identity = certify_class(c, 3)[0]
    assert identity.to_json() == cocycle_check(c, 3).to_json()


def test_the_field_degree_3_table_is_pinned(monkeypatch):
    # no benchmark job runs at field degree 3, where the cocycle checks
    # compose the most operator pairs; this is the SHA-256 of the report's
    # text from before the Leibniz support test and the symbol-image table.
    # The table shares the interned monomial fields and the sl(n+1)
    # generators among its checks, and with a bounded check of every pair of
    # fields of degree <= 3 after it; then every one still equals its fresh
    # build, hash included, so no check mutated a shared Poly
    interned, original = {}, ansatz._unit_monomial

    def spy(ring, e):
        interned[ring, e] = original(ring, e)
        return interned[ring, e]

    monkeypatch.setattr(ansatz, "_unit_monomial", spy)
    text = emit_report(cohomology_table(RunConfig(3, 4, max_vf_degree=3)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2bb1421d379a0fee188db52faf40ea6ff4b919a671ad902760491ad5cfd59427")
    assert cocycle_check(builtin_c2(3, 4), 3).holds
    assert len(interned) > 100
    for (ring, e), F in interned.items():
        fresh = Poly.monomial(ring, e)
        assert F == fresh and hash(F) == hash(fresh)
    for n in (2, 3):
        shared, fresh = sl_generators(n), sl_generators.__wrapped__(n)
        assert shared.all() == fresh.all()
        assert list(map(hash, shared.all())) == list(map(hash, fresh.all()))


def test_table_reports_resource_gaps(monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "2")
    table = cohomology_table(RunConfig(2, 2, max_vf_degree=2))
    assert not table["all_match_expected"]
    assert any("error" in e for e in table["entries"])


def test_property_suite_all_pass():
    checks = run_property_suite(seed=11, count=15)
    names = {c["name"] for c in checks}
    assert names == {"ring-axioms", "leibniz-rule", "jacobi-identity",
                     "module-action-axiom", "section-property",
                     "euler-divergence-commutator"}
    assert all(c["passed"] for c in checks)


def test_emit_report_roundtrip_and_text():
    payload = wrap_report({"dim": 2}, {"x": ["1/2", {"y": 3}]}, {"total": 1.0})
    as_json = emit_report(payload, "json")
    assert json.loads(as_json) == payload
    text = emit_report(payload, "text")
    assert "tool: cohomolab" in text
    with pytest.raises(StructureError):
        emit_report(payload, "yaml")
