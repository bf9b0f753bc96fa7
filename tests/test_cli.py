import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cohomolab.ansatz import ansatz_term_op
from cohomolab.cli import _build_parser, main
from cohomolab.operators import PolyDiffOp

from exact_helpers import one_form_primitive
from plane_ring import R2, x

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    start = out.index("{")
    return json.loads(out[start:])


def test_check_relation_command(capsys):
    code, out = run(capsys, ["check-relation", "--dim", "2"])
    assert code == 0
    data = last_json(out)
    assert data["result"]["holds"] is True
    assert data["tool"] == "cohomolab"


def test_python_m_cohomolab_runs_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "cohomolab", "check-relation", "--dim", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["tool"] == "cohomolab"
    assert data["result"]["holds"] is True


def test_classify_command_with_cocycle(capsys):
    code, out = run(capsys, ["classify-equivariant", "--dim", "2", "--order", "3",
                             "--delta", "2", "--cocycle"])
    assert code == 0
    result = last_json(out)["result"]
    assert result["dimension"] == 1
    assert result["matched_paper_case"] == "c"
    assert result["solvers_agree"] is True
    assert result["coefficients"] == [["2", "9", "1", "2", "-5"]]
    basis = result["basis"][0]
    assert basis["alpha"] == {"2": "2", "3": "9"}
    assert basis["gamma"] == {"2": "-5"}


def test_table_command(capsys):
    code, out = run(capsys, ["cohomology-table", "--dim", "2", "--order", "2",
                             "--max-vf-degree", "2"])
    assert code == 0
    assert last_json(out)["result"]["all_match_expected"] is True


def test_verify_command_gamma1(capsys):
    code, out = run(capsys, ["verify-cocycle", "--name", "gamma1", "--dim", "2",
                             "--order", "2", "--max-vf-degree", "2"])
    assert code == 0
    result = last_json(out)["result"]
    assert result["cocycle_identity"]["holds"] is True
    assert result["vanishes_on_sl"] is False


def test_verify_command_div_with_omega(capsys):
    code, out = run(capsys, ["verify-cocycle", "--name", "div", "--dim", "2",
                             "--order", "2", "--a", "2/3", "--omega", "1*x2,1*x1",
                             "--max-vf-degree", "2"])
    assert code == 0
    assert last_json(out)["result"]["cocycle_identity"]["holds"] is True


def test_coboundary_command_affine(capsys):
    code, out = run(capsys, ["coboundary-test", "--name", "c1", "--dim", "2",
                             "--order", "2"])
    assert code == 0
    result = last_json(out)["result"]
    assert result["verdict"] == "no-witness-in-candidate-space"


def test_coboundary_command_large_order_bound(capsys):
    # the affine basis is D^(k - ell), complete at every order bound, so the
    # default candidates give the complete verdict with no bound to choose
    code, out = run(capsys, ["coboundary-test", "--name", "c2", "--dim", "3",
                             "--order", "3", "--max-vf-degree", "2"])
    assert code == 0
    result = last_json(out)["result"]
    assert result["verdict"] == "no-witness-in-candidate-space"


def test_coboundary_command_custom_file(tmp_path, capsys):
    from cohomolab.operators import divergence_diffop, op_str
    from cohomolab.poly import single_ring

    path = tmp_path / "candidates.txt"
    path.write_text(op_str(divergence_diffop(single_ring(2))) + "\n")
    code, out = run(capsys, ["coboundary-test", "--name", "c1", "--dim", "2",
                             "--order", "2", "--candidates-file", str(path)])
    assert code == 0
    assert last_json(out)["result"]["verdict"] == "no-witness-in-candidate-space"


def test_coboundary_command_div_with_a_primitive_candidate(tmp_path, capsys):
    # with a = 0 the div cocycle X |-> i_X omega is the coboundary of
    # multiplication by a primitive f of omega, which the affine basis cannot hold
    from cohomolab.operators import PolyDiffOp, op_str

    argv = ["coboundary-test", "--name", "div", "--dim", "2", "--order", "1",
            "--a", "0", "--omega", "1*x2,1*x1", "--max-vf-degree", "2"]
    code, out = run(capsys, argv)
    assert code == 0
    assert last_json(out)["result"]["verdict"] == "no-witness-in-candidate-space"
    f = one_form_primitive([x(1), x(0)], R2)
    path = tmp_path / "primitive.txt"
    path.write_text(op_str(PolyDiffOp(R2, {(0, 0, 0, 0): f})) + "\n")
    code, out = run(capsys, argv + ["--candidates-file", str(path)])
    assert code == 0
    assert last_json(out)["result"]["verdict"] == "witness-found"


DIV_RUN = ["--name", "div", "--dim", "2", "--order", "1", "--max-vf-degree", "2"]


@pytest.mark.parametrize("command", ["verify-cocycle", "coboundary-test"])
@pytest.mark.parametrize("first,second,key", [
    (["--a", "0", "--omega", "1*x2,1*x1"], ["--a", "1", "--omega", "1*x2,1*x1"], "a"),
    (["--a", "0", "--omega", "1*x2,1*x1"], ["--a", "0", "--omega", "1*x1,1*x2"], "omega"),
], ids=["a", "omega"])
def test_div_configs_record_a_and_omega(command, first, second, key, capsys):
    # X |-> a div(X) + i_X omega depends on both inputs, so two div runs that
    # differ in one of them echo different configs
    configs = [last_json(run(capsys, [command, *DIV_RUN, *extra])[1])["config"]
               for extra in (first, second)]
    assert configs[0]["a"] == "0" and configs[0]["omega"] == ["1*x2", "1*x1"]
    assert configs[0] != configs[1]
    assert {k for k in configs[0] if configs[0][k] != configs[1][k]} == {key}
    # a built-in cocycle's config echoes neither
    c1 = last_json(run(capsys, [command, "--name", "c1", "--dim", "2", "--order", "2",
                                "--max-vf-degree", "2"])[1])["config"]
    assert configs[0].keys() ^ c1.keys() == {"a", "omega"}


def test_div_without_omega_uses_the_zero_form(capsys):
    code, out = run(capsys, ["verify-cocycle", *DIV_RUN])
    assert code == 0
    report = last_json(out)
    assert report["config"]["a"] == "1" and report["config"]["omega"] == ["0", "0"]
    assert report["result"]["cocycle_identity"]["holds"] is True


@pytest.mark.parametrize("omega,message", [
    ("1*x2", "--omega needs 2 comma-separated components"),
    ("1*xi1,1*x1", "1-form components must be xi-free"),
], ids=["one-component", "xi-component"])
def test_a_bad_omega_is_a_configuration_error(omega, message, capsys):
    assert main(["verify-cocycle", *DIV_RUN, "--omega", omega]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_classify_display_scaling_off_degree_drop_two(capsys):
    # at p = 1 display_normalized anchors the first nonzero coefficient
    # (alpha_2 = 1), not beta_2; the digests are of json.dumps(..., sort_keys=True)
    code, out = run(capsys, ["classify-equivariant", "--dim", "2", "--order", "3",
                             "--delta", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["coefficients"] == [["1", "-2/3"]]
    digests = tuple(hashlib.sha256(json.dumps(report[key], sort_keys=True).encode()).hexdigest()
                    for key in ("config", "result"))
    assert digests == ("c6b9b528e2e2ad3d28501af9b72bfb7bee2243dd0534f507da83ffd19726421b",
                       "de7a94ab7169ef2ff538c791fdc5326a332fdc78a5de653df5a39dab07589187")


def test_quantization_command_half(capsys):
    code, out = run(capsys, ["quantization-cocycle", "--dim", "2", "--order", "2",
                             "--lambda", "1/2", "--max-vf-degree", "2"])
    assert code == 0
    result = last_json(out)["result"]
    assert result["top_symbol_trivial"] is True
    assert result["projected_cocycle"]["nontrivial"] is True


OPTION_INVENTORY = {
    "check-relation": {"--dim", "--format"},
    "classify-equivariant": {"--dim", "--format", "--order", "--delta", "--cocycle"},
    "cohomology-table": {"--dim", "--format", "--order", "--max-vf-degree"},
    "verify-cocycle": {"--dim", "--format", "--name", "--order", "--max-vf-degree",
                       "--a", "--omega"},
    "coboundary-test": {"--dim", "--format", "--name", "--order", "--max-vf-degree",
                        "--candidates-file", "--a", "--omega"},
    "quantization-cocycle": {"--dim", "--format", "--order", "--lambda", "--max-vf-degree"},
}


def test_the_removed_properties_command_is_a_configuration_error(capsys):
    # the sampled property suite is test code, not a command: argparse rejects the name
    with pytest.raises(SystemExit) as exc:
        main(["properties", "--dim", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'properties'" in capsys.readouterr().err


def test_option_inventory_is_pinned():
    # every settable option of every subcommand, so that adding one shows up
    # in review as an edit to this table
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    found = {name: {opt for action in parser._actions for opt in action.option_strings
                    if not isinstance(action, argparse._HelpAction)}
             for name, parser in subparsers.choices.items()}
    assert found == OPTION_INVENTORY


CANDIDATE_FILES = {
    "garbage.txt": "garbage\n",
    "bad-exponent.txt": "(1) * dx1^a\n",
    "derivative-without-d.txt": "(1) * x1\n",
    "unknown-variable.txt": "(1*x1) * dy1\n",
    "coordinate-out-of-range.txt": "(1*x3) * dx1\n",
    "empty.txt": "\n",
}

CONFIG_ERRORS = {
    "bad-dimension": (["check-relation", "--dim", "1"], None),
    "bad-lambda": (["quantization-cocycle", "--dim", "2", "--order", "2",
                    "--lambda", "abc"], None),
    "zero-denominator": (["verify-cocycle", "--name", "div", "--dim", "2",
                          "--order", "2", "--a", "1/0"], None),
    "bad-omega-exponent": (["verify-cocycle", "--name", "div", "--dim", "2",
                            "--order", "2", "--omega", "1*x1^a,0"], None),
    "omega-without-coefficient": (["verify-cocycle", "--name", "div", "--dim", "2",
                                   "--order", "2", "--omega", "x2,0"], None),
    "missing-candidates-file": (["coboundary-test", "--name", "c1", "--dim", "2",
                                 "--order", "2", "--candidates-file", "{tmp}/missing.txt"], None),
    "garbage-candidate-line": (["coboundary-test", "--name", "c1", "--dim", "2",
                                "--order", "2", "--candidates-file", "{tmp}/garbage.txt"], None),
    "bad-candidate-exponent": (["coboundary-test", "--name", "c1", "--dim", "2",
                                "--order", "2", "--candidates-file", "{tmp}/bad-exponent.txt"], None),
    "derivative-without-d": (["coboundary-test", "--name", "c1", "--dim", "2", "--order",
                              "2", "--candidates-file", "{tmp}/derivative-without-d.txt"], None),
    "unknown-candidate-variable": (["coboundary-test", "--name", "c1", "--dim", "2", "--order",
                                    "2", "--candidates-file", "{tmp}/unknown-variable.txt"], None),
    "candidate-coordinate-out-of-range": (["coboundary-test", "--name", "c1", "--dim", "2",
                                           "--order", "2", "--candidates-file",
                                           "{tmp}/coordinate-out-of-range.txt"], None),
    "unknown-omega-variable": (["verify-cocycle", "--name", "div", "--dim", "2",
                                "--order", "2", "--omega", "1*y1,0"], None),
    # a superscript digit is a digit to str.isdigit but not to int()
    "superscript-omega-index": (["verify-cocycle", "--name", "div", "--dim", "2",
                                 "--order", "2", "--omega", "1*x\u00b2,0"], None),
    "empty-candidates-file": (["coboundary-test", "--name", "c1", "--dim", "2",
                               "--order", "2", "--candidates-file", "{tmp}/empty.txt"], None),
    "non-utf8-candidates-file": (["coboundary-test", "--name", "c1", "--dim", "2", "--order",
                                  "2", "--candidates-file", "{tmp}/non-utf8.txt"], None),
    "a-without-div": (["verify-cocycle", "--name", "c1", "--dim", "2", "--order", "2",
                       "--a", "5"], None),
    "omega-without-div": (["verify-cocycle", "--name", "c1", "--dim", "2", "--order", "2",
                           "--omega", "1*x2,1*x1"], None),
    "div-options-on-c2-coboundary": (["coboundary-test", "--name", "c2", "--dim", "2",
                                      "--order", "2", "--a", "1", "--omega", "0,0"], None),
    "omega-on-gamma1-coboundary": (["coboundary-test", "--name", "gamma1", "--dim", "2",
                                    "--order", "2", "--omega", ""], None),
    "affine-coboundary-fields": (["coboundary-test", "--name", "c1", "--dim", "2",
                                  "--order", "2", "--max-vf-degree", "1"], None),
    "negative-coboundary-degree": (["coboundary-test", "--name", "c1", "--dim", "2",
                                    "--order", "2", "--max-vf-degree", "-1"], None),
    "negative-table-degree": (["cohomology-table", "--dim", "2", "--order", "1",
                               "--max-vf-degree", "-5"], None),
    "quantization-order-1": (["quantization-cocycle", "--dim", "2", "--order", "1"],
                             None),
    # builtin_c1 divides by n + 1 once its ring accepts n
    "c1-dimension-minus-1": (["verify-cocycle", "--name", "c1", "--dim", "-1",
                              "--order", "2"], None),
    "non-integer-term-budget": (["check-relation", "--dim", "2"], "abc"),
    "zero-term-budget": (["verify-cocycle", "--name", "c1", "--dim", "2", "--order", "2",
                          "--max-vf-degree", "2"], "0"),
    "negative-term-budget": (["verify-cocycle", "--name", "c1", "--dim", "2",
                              "--order", "2", "--max-vf-degree", "2"], "-5"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_configuration_errors_exit_2(case, tmp_path, monkeypatch, capsys):
    argv, budget = CONFIG_ERRORS[case]
    if budget is not None:
        monkeypatch.setenv("COHOMOLAB_MAX_TERMS", budget)
    for name, text in CANDIDATE_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "non-utf8.txt").write_bytes(b"\xff\xfe")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error")


# One case per integer option, and each name poly.check_int gives it: the
# error names the option the user typed, not the parameter behind it.
FLAG_ERRORS = {
    "dim": (["check-relation", "--dim", "1"], "--dim must be an integer of at least 2, got 1"),
    "order": (["quantization-cocycle", "--dim", "2", "--order", "1", "--lambda", "0"],
              "--order must be an integer of at least 2, got 1"),
    "order-table": (["cohomology-table", "--dim", "2", "--order", "-1"],
                    "--order must be an integer of at least 0, got -1"),
    "order-below-delta": (["classify-equivariant", "--dim", "2", "--order", "3", "--delta", "5"],
                          "--order must be an integer of at least 5, got 3"),
    "delta": (["classify-equivariant", "--dim", "2", "--order", "3", "--delta", "-1"],
              "--delta must be an integer of at least 0, got -1"),
    "max-vf-degree": (["verify-cocycle", "--dim", "2", "--name", "c2", "--order", "2",
                       "--max-vf-degree", "1"],
                      "--max-vf-degree must be an integer of at least 2, got 1"),
    # coboundary-test checks the degree itself: field_columns takes a field list
    "max-vf-degree-coboundary": (["coboundary-test", "--dim", "2", "--name", "c1", "--order",
                                  "2", "--max-vf-degree", "1"],
                                 "--max-vf-degree must be an integer of at least 2, got 1"),
}


@pytest.mark.parametrize("case", sorted(FLAG_ERRORS))
def test_a_configuration_error_names_the_flag(case, capsys):
    argv, message = FLAG_ERRORS[case]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")


def test_a_huge_field_degree_reports_a_resource_limit(capsys):
    # the field count 2 * C(10^8 + 2, 2) is checked before any field is listed
    argv = ["verify-cocycle", "--dim", "2", "--name", "c2", "--order", "2",
            "--max-vf-degree", "100000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("resource limit")


def test_a_resource_limit_names_what_it_counted(capsys, monkeypatch):
    monkeypatch.delenv("COHOMOLAB_MAX_TERMS", raising=False)
    argv = ["verify-cocycle", "--dim", "2", "--name", "c2", "--order", "2",
            "--max-vf-degree", "100000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "resource limit: 10000000300000002 monomial test fields (n = 2, degree <= 100000000)"
        " exceed COHOMOLAB_MAX_TERMS=2000000\n")


def test_a_resource_limit_on_the_pair_count_exits_at_once(capsys, monkeypatch):
    # 3782 fields are under the default budget, their 7 149 871 pairs are not
    monkeypatch.delenv("COHOMOLAB_MAX_TERMS", raising=False)
    argv = ["verify-cocycle", "--dim", "2", "--name", "c2", "--order", "2",
            "--max-vf-degree", "60"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "resource limit: 7149871 pairs of monomial test fields (n = 2, degree <= 60)"
        " exceed COHOMOLAB_MAX_TERMS=2000000\n")


def test_an_ansatz_term_over_the_budget_is_refused_before_composing(capsys, monkeypatch):
    # alpha_0 at n = 3, p = 2 is Dyeta^3, with C(5, 3) = 10 terms: over a
    # budget of 9 it is refused on its count, and nothing is composed
    composed = []
    compose = PolyDiffOp.compose
    monkeypatch.setattr(PolyDiffOp, "compose",
                        lambda self, other: composed.append(1) or compose(self, other))
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "9")
    ansatz_term_op.cache_clear()
    assert main(["classify-equivariant", "--dim", "3", "--order", "3", "--delta", "2"]) == 1
    assert capsys.readouterr().err == (
        "resource limit: 10 terms of the ansatz term alpha_0 (n = 3, p = 2)"
        " exceed COHOMOLAB_MAX_TERMS=9\n")
    assert composed == []


def test_a_resource_limit_in_the_cocycle_filter(capsys, monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_TERMS", "20")
    argv = ["classify-equivariant", "--dim", "2", "--order", "3", "--delta", "2", "--cocycle"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "resource limit: 24 terms of an operator or of its largest coefficient"
        " exceed COHOMOLAB_MAX_TERMS=20\n")


def test_table_output_is_deterministic(capsys):
    argv = ["cohomology-table", "--dim", "2", "--order", "2", "--max-vf-degree", "2"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    r1 = last_json(out1)
    r2 = last_json(out2)
    assert r1["result"] == r2["result"]
    assert json.dumps(r1["result"], sort_keys=True) == json.dumps(r2["result"], sort_keys=True)


# The README's CLI examples, each with the SHA-256 of json.dumps(obj, sort_keys=True)
# for its report's config and its result.  A change that keeps every report
# byte for byte keeps these; the candidates file is primitive.txt in the
# working directory, as the README writes it, so its config reads
# "custom:primitive.txt".
README_REPORTS = {
    "check-relation --dim 2": (
        "fb89d6bb2e2912d46e176a1b4a2c311312a957670ba3675a34707049899fbaad",
        "a4068f81a3c9948ba6a0a96cc423ff3623c0bf7e10879ebb0a3c104b16bc7491"),
    "classify-equivariant --dim 2 --order 3 --delta 2 --cocycle": (
        "5ad358b5e7bf94a07322ceb61edd7e7a1622f883c9ac5f2b2aa1e90e01e3de65",
        "4470035ca62a7eee3ae1a43ba4c35a613882f63fc179487721eb5978c0f1b528"),
    "cohomology-table --dim 2 --order 5": (
        "9088507efcb3a658363580bc999c54232a2492a09444da8bd3572f3a7a2fb1c7",
        "92ae1048af80e30c234e2b16a2d1e89ae8fd7dd63f39110a6d4f0b17543502cb"),
    "cohomology-table --dim 3 --order 5": (
        "8e5d40333e5211a344fffc0e73a097e5fb1718f10d2a10c0d9906d91c8a95207",
        "d5c316b02152ccd473d450446078dd714866495d49f34690307068025960bf0f"),
    "verify-cocycle --name c1 --dim 2 --order 3 --max-vf-degree 4": (
        "50ea4024813aa1c7af6f3f2182d78df16e1d15b2f135f6ea65df55bb7862668e",
        "316101dd139808ccd856d135202b2b4796ab02e1d3f6d43101d318b6f74daee8"),
    'verify-cocycle --name div --dim 2 --order 2 --a 1 --omega "1*x2,1*x1"': (
        "ff5a4ef79f7c7fa7bc1131c59d0f8c820d4253abfe5a4d9aa20d59cf0e46f439",
        "e93acdcc06b97d9f2ba2fc36d40b2297cfc9b973d8f05ca233c4b479ddf3457c"),
    "coboundary-test --name c2 --dim 2 --order 3": (
        "23ea440a7b39a67bd39c1a9572520e8096d1b3f834310499f7f8f6ef2f258956",
        "e8a89ec100e67c65a545e3eb53ebdfd456d25e00efcc21456fbe60d7bd78ea2c"),
    'coboundary-test --name div --dim 2 --order 1 --a 0 --omega "1*x2,1*x1"'
    " --max-vf-degree 2": (
        "e56d2deb0562dc5ae24e33b4e21dd403d204054b015fd38d4c2da2e76616c85e",
        "3d339ad15306cf36990e2bdf4e759a6011f65afd90395d1f11cfad5778ea694c"),
    'coboundary-test --name div --dim 2 --order 1 --a 0 --omega "1*x2,1*x1"'
    " --max-vf-degree 2 --candidates-file primitive.txt": (
        "dc5818fb63f9f471fb77ca12038c2a0288ba10bc17810901cc76126034d4b0a3",
        "fa7f297aeb0d72d98ee8911ecf6e9c03a131aa02609207b2e649a36e5ede11e4"),
    "quantization-cocycle --dim 2 --order 2 --lambda 0": (
        "be1889cebed761905e2071f9cab5a5280510d4e3b983d3b0cb4eef4fe0e67ea5",
        "e3a0363eef81a75555a701723450d4d1f3f37dabc303512514195fc56d979579"),
    "quantization-cocycle --dim 2 --order 2 --lambda 1/4": (
        "2e4a9724de9d14245fdc19b53ecbf6068f59c61878b017cda318ec350c5bf508",
        "fddd41f8858489efe95a916d995b1f439bb80f01d411cb98a437422ed3b54782"),
    "quantization-cocycle --dim 2 --order 2 --lambda 1/3": (
        "c6f159f4262f00662e7fc66e222deb661e681c425105613f680aebc4c40ed773",
        "2e7b6aa478d5c0b8305e3c40c349cbc9c3aec95020512d9f60f200e846ed698a"),
    "quantization-cocycle --dim 2 --order 2 --lambda 1/2": (
        "91ca44e044b8990500c3de666387fc89fc5409776d043654b31c6612e3f17da2",
        "d24cc64fb4032c1a73b17bf61ca24de494b7e5d9e11bf3eb90e5795b9ac1698c"),
    "quantization-cocycle --dim 2 --order 2 --lambda 2/3": (
        "9643f3b107ab4d84c385db2df6d3349937223f19a26fe7687bdaa7cb9042abcd",
        "4b1eb65e1f0da6756ba8c6b7bf4e49af684192a629ea559cf06e08fe839072fc"),
    "quantization-cocycle --dim 2 --order 2 --lambda 1": (
        "e17fbf2a2cd41d2a130180ce135f5652c0730dd566bbe2af5890963433c83935",
        "8392195d52c5d610b99c78a21d65f17cc74d5623a3d5b010ba9e4bbc717dbf34"),
}


@pytest.mark.parametrize("example", sorted(README_REPORTS))
def test_readme_examples_report_pinned_config_and_result(example, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "primitive.txt").write_text("(1*x1*x2)\n")
    code, out = run(capsys, shlex.split(example))
    assert code == 0
    report = json.loads(out)
    digests = tuple(hashlib.sha256(json.dumps(report[key], sort_keys=True).encode()).hexdigest()
                    for key in ("config", "result"))
    assert digests == README_REPORTS[example]
