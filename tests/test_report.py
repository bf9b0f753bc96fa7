import hashlib
import json
import re
from fractions import Fraction
from functools import cache

import pytest

from cohomolab import ansatz, report
from cohomolab.ansatz import (FAMILIES, AnsatzCoefficients, cocycle_filter_pairs,
                              field_monomials, impose_cocycle, recurrence_solutions)
from cohomolab.cocycles import (bilinear_cocycle, builtin_c1, builtin_c2, builtin_div,
                                builtin_gamma1_flat, class_proportionality, coboundary_solve,
                                cocycle_check, field_columns, monomial_fields)
from cohomolab.operators import (PolyDiffOp, affine_equivariant_basis, divergence_diffop,
                                 euler_diffop, module_action)
from cohomolab.poly import Poly, StructureError, parse_poly, poly_str, single_ring
from cohomolab.quantization import quantization_projected_cocycle, quantization_top_cocycle
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

from plane_ring import R2, x
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
    # certify_class solves on the one field x1^D xi1, D = min(max_vf_degree,
    # k - ell + 1): x1^2 xi1 for the p = 1 witnesses and x1^3 xi1 for the
    # p = 2 ones, each the interned monomial field
    seen = []
    original = report.field_columns

    def spy(c, candidates, fields):
        seen.append((c.k - c.ell, fields))
        return original(c, candidates, fields)

    monkeypatch.setattr(report, "field_columns", spy)
    assert cohomology_table(RunConfig(2, 3, max_vf_degree=4))["all_match_expected"]
    [x1x1] = field_monomials(2, [(2, 0)])[:1]
    [x1x1x1] = field_monomials(2, [(3, 0)])[:1]
    assert [poly_str(F) for F in (x1x1, x1x1x1)] == ["1*x1^2*xi1", "1*x1^3*xi1"]
    assert sorted(seen, key=lambda entry: entry[0]) == [
        (1, [x1x1]), (1, [x1x1]), (2, [x1x1x1]), (2, [x1x1x1])]
    assert all(fields[0] is (x1x1, x1x1x1)[p - 1] for p, fields in seen)


def test_quantization_report_checks_both_identities_at_its_stated_degree(monkeypatch):
    # both cocycles are affine-natural, so each is checked on the proved pair
    # set, which is complete: empty for the top cocycle (p = 1), and the two
    # quadratic pairs for the projected one (p = 2); both state the
    # max_vf_degree the report echoes
    seen = []
    original = report.cocycle_check

    def spy(c, degree, pairs):
        pairs = list(pairs)
        result = original(c, degree, pairs)
        seen.append((c.k - c.ell, degree, pairs, result.max_vf_degree, result.pairs_checked))
        return result

    monkeypatch.setattr(report, "cocycle_check", spy)
    out = report.quantization_report(2, 3, Fraction(1, 2), 4)
    assert out["max_vf_degree"] == 4
    assert out["projected_cocycle"]["identity_holds"]
    quadratic = list(cocycle_filter_pairs(2, 2))
    assert [(poly_str(Y), poly_str(Z)) for Y, Z in quadratic] == [
        ("1*x1^2*xi1", "1*x1*x2*xi1"), ("1*x1^2*xi1", "1*x2^2*xi2")]
    assert seen == [(1, 4, [], 4, 0), (2, 4, quadratic, 4, 2)]


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
        columns = field_columns(c, affine_equivariant_basis(c.n, c.k, c.ell),
                                monomial_fields(c.n, 4))
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
    # the weight-1/2 projected cocycles, affine-natural with the witness c D
    cases += [c for c, ref in _one_field_grid() if ref is None]
    # the c1 mutant is an affine-vanishing p = 1 line, so a cocycle, just
    # not sl-relative
    cases.append(bilinear_cocycle(
        3, _shifted(builtin_c1(3, 3).coeffs, "beta", 2, Fraction(1, 7)), "c1-mutant"))
    for c in cases:
        assert c.affine_natural
        assert certify_class(c, 3)[0].holds and cocycle_check(c, 3).holds, (c.name, c.n, c.k)

    c2_mutant = _c2_mutant()
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


def _half_witness(n, k):
    """The splitting witness c D of the weight-1/2 top quantization cocycle."""
    return certify_class(quantization_top_cocycle(n, k, Fraction(1, 2)), 2)[1].witness


def test_the_marker_is_set_on_the_proved_cocycles():
    # bilinear_cocycle sets it for a line with no s <= 1 term, and the
    # projected cocycle for a splitting that every affine field fixes, as c D
    B = _half_witness(2, 3)
    assert B == divergence_diffop(R2).scale(Fraction(-1, 2))
    marked = [builtin_c1(2, 3), builtin_c2(2, 3), builtin_gamma1_flat(2, 3),
              quantization_top_cocycle(2, 3, Fraction(1, 3)),
              quantization_projected_cocycle(2, 3, Fraction(1, 2), B),
              *(c for c, _ in _certified_classes())]
    assert all(c.affine_natural is True for c in marked)


def test_a_cocycle_without_the_marker_is_refused(monkeypatch):
    # div, the alpha_1 line (alpha_1 differentiates the field once, so it
    # need not vanish on the affine fields) and the projected cocycle of the
    # splitting x1 D, which the translation d_1 moves, are not marked; each
    # is refused by name, as cocycle or as reference, before a pair is
    # drawn or a field evaluated
    def refuse(*args):
        raise AssertionError("certify_class went past its refusal")

    x1_B = PolyDiffOp(R2, {mu: x(0) * f for mu, f in _half_witness(2, 3).terms.items()})
    alpha1 = bilinear_cocycle(2, AnsatzCoefficients(2, 1, alpha={1: 1}), "alpha1")
    cases = [(builtin_div(2, 2, 1, [Poly.zero(R2)] * 2), None), (alpha1, None),
             (quantization_projected_cocycle(2, 3, Fraction(1, 2), x1_B), None),
             (builtin_c1(2, 2), alpha1)]
    monkeypatch.setattr(report, "cocycle_filter_pairs", refuse)
    monkeypatch.setattr(report, "field_columns", refuse)
    for c, ref in cases:
        named = c if ref is None else ref
        assert named.affine_natural is False
        with pytest.raises(StructureError, match=re.escape(
                f"certify_class needs an affine-natural cocycle, and {named.name} is not"
                " marked affine_natural")):
            certify_class(c, 3, ref)
        assert c._cache == {}


def _c2_mutant():
    """c2 at (3, 3) with 1/7 added to beta_3: affine-natural, but no cocycle."""
    return bilinear_cocycle(
        3, _shifted(builtin_c2(3, 3).coeffs, "beta", 3, Fraction(1, 7)), "c2-mutant")


@cache
def _one_field_grid():
    """(c, reference or None): c1, c2 and gamma1, the table witnesses, the top
    cocycle at four weights, the weight-1/2 projected cocycle at (n, k) in
    {2, 3}^2, and the c2 mutant."""
    grid = list(_certified_classes())
    for n in (2, 3):
        for k in (2, 3):
            grid += [(builtin_c1(n, k), builtin_c1(n, k)), (builtin_c2(n, k), builtin_c2(n, k)),
                     (builtin_gamma1_flat(n, k), builtin_c1(n, k)),
                     (quantization_projected_cocycle(n, k, Fraction(1, 2), _half_witness(n, k)),
                      None)]
    return grid + [(_c2_mutant(), builtin_c2(3, 3))]


@pytest.mark.parametrize("max_vf_degree", [2, 3])
def test_one_field_gives_the_answers_of_every_field_up_to_its_degree(max_vf_degree,
                                                                     monkeypatch):
    # certify_class's proof, steps 1-4: delta vanishes on x1^D xi1 iff it
    # vanishes on every field of degree <= D, so the witness, the scalar and
    # "no-witness" equal those of the solves on monomial_fields(n, D), in
    # the complete case (D = k - ell + 1) and the bounded one (D = 2 < 3)
    # alike; the identity check is not under test here
    monkeypatch.setattr(report, "cocycle_check", lambda c, degree, pairs: None)
    verdicts = set()
    for c, ref in _one_field_grid():
        _, cob, prop = certify_class(c, max_vf_degree, ref)
        fields = monomial_fields(c.n, min(max_vf_degree, c.k - c.ell + 1))
        columns = field_columns(c, affine_equivariant_basis(c.n, c.k, c.ell), fields)
        where = (c.name, c.n, c.k, c.ell)
        assert cob.fields_checked == 1, where
        assert cob.witness == coboundary_solve(columns).witness, where
        if ref is not None:
            assert prop == class_proportionality(columns, ref), where
        verdicts.add((cob.is_coboundary, None if prop is None else prop[0] != 0))
    # every answer occurs: a witness (the weight-1/2 top cocycle), none with
    # a nonzero scalar (the table witnesses), and none with no scalar (the
    # projected cocycles, which have no reference)
    assert {(True, False), (False, True), (False, None)} <= verdicts


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


# SHA-256 of emit_report for payloads no benchmark job computes, taken from
# the every-field solves: the one-field certificates must keep them byte for
# byte.  (kind, args, sha256)
LARGE_REPORT_PINS = [
    ("table", (5, 4, 3), "70109d902c46d32a799763d40768840060688fb3ff427ac1a667057541e20034"),
    ("table", (6, 4, 3), "358ea7304c98f4cd1d75e4b0516039f80baae9f462503e9ec172328d1c3beb6a"),
    ("quantization", (3, 3, Fraction(1, 2), 3),
     "2fb48fca1bf6fc30c41bf4a32c284c79619dc3770dfa40af3d40d55599933f21"),
    ("quantization", (4, 3, Fraction(1, 2), 3),
     "6c9e34a97a53d03f836ad6d23cfff80a6f76bc57f1101f42bd5a50b7dac32084"),
]


@pytest.mark.parametrize("kind,args,digest", LARGE_REPORT_PINS,
                         ids=["-".join(map(str, (kind, *args)))
                              for kind, args, _ in LARGE_REPORT_PINS])
def test_the_large_tables_and_quantization_reports_are_pinned(kind, args, digest):
    n, k, *rest = args
    payload = (cohomology_table(RunConfig(n, k, max_vf_degree=rest[0])) if kind == "table"
               else report.quantization_report(n, k, *rest))
    assert hashlib.sha256(emit_report(payload).encode()).hexdigest() == digest


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
