"""The package's public API: what it exports, how it refuses a bad integer, no test-only code."""

import ast
import re
from itertools import takewhile
from pathlib import Path

import pytest

import cohomolab
from cohomolab.ansatz import AnsatzCoefficients
from cohomolab.cocycles import (build_report, builtin_c1, builtin_c2, builtin_div,
                                builtin_gamma1_flat, cocycle_check, monomial_fields)
from cohomolab.operators import (PolyDiffOp, affine_equivariant_basis, divergence_diffop,
                                 monomials_up_to, xi_simplex)
from cohomolab.poly import Poly, StructureError, single_ring
from cohomolab.quantization import (DensityOperator, quantization_projected_cocycle,
                                    quantization_top_cocycle)
from cohomolab.report import RunConfig, cohomology_table, quantization_report
from cohomolab.symbols import schouten_bracket

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cohomolab"

# Top-level names the benchmark's job lists read from the package.
BENCHMARK_NAMES = {"ResourceLimitError", "RunConfig", "cohomology_table", "builtin_c1",
                   "builtin_c2", "builtin_gamma1_flat", "recurrence_solutions",
                   "solve_equivariant_direct"}


def readme_api_names() -> list[str]:
    """The backquoted names in the list of the README's "Python API" section."""
    text = (ROOT / "README.md").read_text()
    lines = text.split("\n## Python API\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- "))
    listing = "\n".join(takewhile(str.strip, lines[start:]))
    return re.findall(r"`([A-Za-z_]\w*)`", listing)


def test_exports_resolve_and_match_the_readme():
    exported = cohomolab.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(cohomolab, name)] == []
    documented = readme_api_names()
    assert len(set(documented)) == len(documented)
    assert set(exported) == set(documented)
    assert BENCHMARK_NAMES <= set(exported)


def loaded_names(tree: ast.AST, skip: set[int]) -> set[str]:
    """Names and attribute names read anywhere in tree outside the skipped nodes."""
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


# Definitions read only by the benchmark's gate tests
# (perfbench/tests/test_bench_gate.py); they stay in src/ until the benchmark
# imports its own oracles (ROADMAP item 1(a)).
UNREAD_DEFINITIONS = {"cocycles.py:hessian_contraction_op", "cocycles.py:trace_contraction_op"}


def test_every_module_level_definition_is_used_in_src_or_exported():
    # an export alone is not a use: every definition is read in src/, apart from
    # UNREAD_DEFINITIONS, so a helper that only tests call belongs in tests/;
    # __init__.py only re-exports, so its imports do not count as uses
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(node.name in loaded_names(other, own) for other in trees.values()):
                unread.append(f"{module}:{node.name}")
    assert set(unread) == UNREAD_DEFINITIONS


def test_no_module_in_src_imports_random():
    # every verdict the package prints is proved, never sampled
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "random" for name in names):
                importers.append(path.name)
    assert importers == []


# cli binds cocycle_check and report binds schouten_bracket for the benchmark
# tracer's binding test (perfbench/tests/test_bench_tracer.py)
UNREAD_IMPORTS = {"cli.py:cocycle_check", "report.py:schouten_bracket"}


def test_every_import_in_src_is_read_in_its_module():
    # __init__.py only re-exports, so its imports are never read there
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{name}")
    assert set(unread) == UNREAD_IMPORTS


def test_operators_keep_their_leibniz_table_in_a_slot():
    # a slot, not an instance dict, so a one-shot operator stays small
    op = cohomolab.PolyDiffOp.identity(cohomolab.single_ring(2))
    op.compose(op)
    assert op._table is not None
    assert not hasattr(op, "__dict__")


def test_polys_keep_their_hamiltonian_operator_in_a_slot():
    # a slot, not an instance dict, so a Poly never bracketed stays small
    f = cohomolab.Poly.variable(cohomolab.single_ring(2), 2)
    assert f._ham is None
    assert schouten_bracket(f, f).is_zero()
    assert f._ham is not None
    assert not hasattr(f, "__dict__")


def _decorator_name(node: ast.expr) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else None


def test_memo_inventory_is_pinned():
    """Every memo in src/: functools caches on functions, cache(...) calls, lazy slots.

    A memo costs memory and a lookup on every call, and pays only when the
    same object comes back, so one added to src/ comes with its measured
    hits and misses in CHANGES.md, and is added here.
    """
    decorated, calling, slots = set(), set(), {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if any(_decorator_name(d) in {"cache", "lru_cache"}
                       for d in node.decorator_list):
                    decorated.add(node.name)
                if any(isinstance(sub, ast.Call) and _decorator_name(sub) == "cache"
                       for sub in ast.walk(node)):
                    calling.add(node.name)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and [t.id for t in stmt.targets] == ["__slots__"]):
                        lazy = {e.value for e in stmt.value.elts if e.value.startswith("_")}
                        if lazy:
                            slots[node.name] = lazy
    assert decorated == {"_simplex", "_symbol_images", "_leibniz_survivors", "active_vars",
                         "single_ring", "ansatz_term_op", "monomial_section", "_lower_indices",
                         "_pack", "_unpack", "_unit_monomial", "sl_generators"}
    assert calling == {"_vanishing_system"}
    assert slots == {"Poly": {"_hash", "_ham"}, "PolyDiffOp": {"_table"}}


def _reads_the_environment(node: ast.AST) -> bool:
    """Whether node names os.environ, os.getenv or an environ or getenv imported from os."""
    if isinstance(node, ast.Attribute):
        return node.attr in {"environ", "getenv"}
    return isinstance(node, ast.Name) and node.id in {"environ", "getenv"}


def test_the_environment_is_read_once_and_the_budget_scopes_are_listed():
    """os.environ is read in poly._term_budget only, and budget_scope wraps the listed drivers.

    The poly docstring lists the drivers that read COHOMOLAB_MAX_TERMS once
    per call tree; a driver scoped or unscoped without that list changing
    fails here.
    """
    readers, scoped = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    inside.setdefault(id(sub), node.name)
                if any(_decorator_name(d) == "budget_scope" for d in node.decorator_list):
                    scoped.add(f"{path.stem}.{node.name}")
        readers += [f"{path.stem}.{inside.get(id(node))}" for node in ast.walk(tree)
                    if _reads_the_environment(node)]
    assert readers == ["poly._term_budget"]
    listed = re.findall(r"\b(\w+\.\w+)\b",
                        cohomolab.poly.__doc__.split("The scoped drivers:")[1])
    assert len(set(listed)) == len(listed)
    assert scoped == set(listed)


def _deletes_a_key(node: ast.AST) -> bool:
    """Whether node is `del d[k]` or a call `d.pop(k...)` with an argument."""
    if isinstance(node, ast.Delete):
        return any(isinstance(t, ast.Subscript) for t in node.targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop" and bool(node.args))


def test_sparse_accumulators_are_pinned():
    """Every src/ function that deletes a dict key: the sparse accumulators.

    "Add c * v at a key and drop the key when the sum reaches 0" has one
    implementation, poly.add_scaled_terms, and operators._leibniz keeps its
    own loop over packed keys on the hottest path.  Any other sum goes
    through add_scaled_terms.
    """
    deleting = {node.name
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                and any(_deletes_a_key(sub) for sub in ast.walk(node))}
    assert deleting == {"add_scaled_terms", "_leibniz"}


R2 = single_ring(2)

# Every integer parameter of the API: its call, its floor and the name the
# error gives it.  Each goes through poly.check_int.
INT_PARAMETERS = {
    "single_ring": (single_ring, 2, "dimension"),
    "Poly.__pow__": (lambda v: Poly.variable(R2, 0) ** v, 0, "the power"),
    "xi_simplex": (lambda v: xi_simplex(2, v), 0, "the symbol degree"),
    "xi_simplex.n": (lambda v: xi_simplex(v, 2), 2, "dimension"),
    "monomials_up_to.n": (lambda v: monomials_up_to(v, 2), 2, "dimension"),
    "monomials_up_to.d": (lambda v: monomials_up_to(2, v), 0, "the degree bound"),
    "monomial_fields.n": (lambda v: monomial_fields(v, 2), 2, "dimension"),
    "monomial_fields.d": (lambda v: monomial_fields(2, v), 0, "the vector-field degree bound"),
    "DensityOperator.n": (lambda v: DensityOperator(v, 0, {}), 2, "dimension"),
    "symbol_map": (lambda v: PolyDiffOp.identity(R2).symbol_map(v), 0, "the symbol degree"),
    # the zero operator reads no image table, and checks the degree itself
    "symbol_map.zero": (lambda v: PolyDiffOp.zero(R2).symbol_map(v), 0, "the symbol degree"),
    "PolyDiffOp.power": (lambda v: divergence_diffop(R2).power(v), 0, "the power"),
    "affine_equivariant_basis.k": (lambda v: affine_equivariant_basis(2, v, 0), 0,
                                   "the symbol degree k"),
    "affine_equivariant_basis.ell": (lambda v: affine_equivariant_basis(2, 3, v), 0,
                                     "the target degree ell"),
    # ell > k, where the answer is empty whatever the dimension
    "affine_equivariant_basis.n": (lambda v: affine_equivariant_basis(v, 0, 1), 2, "dimension"),
    "AnsatzCoefficients.p": (lambda v: AnsatzCoefficients(3, v), 0, "degree drop p"),
    "AnsatzCoefficients.k": (lambda v: AnsatzCoefficients(v, 1), 1, "symbol degree k"),
    "cocycle_check": (lambda v: cocycle_check(builtin_c1(2, 2), v), 2,
                      "the vector-field degree bound"),
    "builtin_gamma1_flat": (lambda v: builtin_gamma1_flat(2, v), 2, "the symbol degree"),
    "builtin_c1": (lambda v: builtin_c1(2, v), 2, "the symbol degree"),
    "builtin_c2": (lambda v: builtin_c2(2, v), 2, "the symbol degree"),
    # at a float degree this report once printed "source_degree": 2.0
    "builtin_div": (lambda v: build_report(builtin_div(2, v, 1, [Poly.zero(R2)] * 2), 2), 0,
                    "the symbol degree"),
    "quantization_top_cocycle": (lambda v: quantization_top_cocycle(2, v, 0), 1,
                                 "the symbol degree"),
    "quantization_projected_cocycle": (
        lambda v: quantization_projected_cocycle(2, v, 0, divergence_diffop(R2)), 2,
        "the symbol degree"),
    "quantization_report": (lambda v: quantization_report(2, v, 0, 2), 2, "the symbol degree"),
    "RunConfig.n": (lambda v: cohomology_table(RunConfig(v, 2, 2)), 2, "dimension"),
    # at True this table once printed "max_symbol_degree": true
    "RunConfig.max_symbol_degree": (lambda v: cohomology_table(RunConfig(2, v, 2)), 0,
                                    "the symbol degree bound"),
    "RunConfig.max_vf_degree": (lambda v: cohomology_table(RunConfig(2, 2, v)), 2,
                                "the vector-field degree bound"),
}


@pytest.mark.parametrize("site", sorted(INT_PARAMETERS))
def test_every_integer_parameter_refuses_a_non_int_or_a_value_below_its_floor(site):
    # the int at the floor runs first, so a cache keyed by it (single_ring,
    # _simplex) is warm when the bool, float or string that equals it arrives
    call, floor, name = INT_PARAMETERS[site]
    call(floor)
    for bad in (2.0, True, "3", floor - 1):
        with pytest.raises(StructureError, match=re.escape(
                f"{name} must be an integer of at least {floor}, got {bad!r}")):
            call(bad)


def test_a_filled_image_table_still_refuses_a_float_or_bool_degree():
    # SymbolMap.from_operator's image table is typed like _simplex: the int
    # entries 2 and 1 fill it, and 2.0 and True, which compare equal to
    # them, still reach the degree check
    D = divergence_diffop(R2)
    for k, bad in ((2, 2.0), (1, True)):
        assert not D.symbol_map(k).is_zero()
        with pytest.raises(StructureError, match=re.escape(
                f"the symbol degree must be an integer of at least 0, got {bad!r}")):
            D.symbol_map(bad)


# A float, a bool, a fraction, a wrong length and a negative entry: each is
# refused by Ring.exponent, so none becomes a Poly or PolyDiffOp key.
BAD_EXPONENTS = [(2.0, 0, 0, 1), (True, 0, 0, 1), (0.5, 0, 0, 1), (1, 0, 0), (-1, 0, 0, 1)]


@pytest.mark.parametrize("exp", BAD_EXPONENTS, ids=repr)
def test_every_exponent_and_derivative_index_is_nvars_ints_of_at_least_0(exp):
    one = Poly.constant(R2, 1)
    # DensityOperator takes length-n indices and pads each with n zeros
    alpha = exp[:2] if len(exp) == 4 else exp
    for shown, call in ((exp, lambda: Poly(R2, {exp: 1})),
                        (exp, lambda: Poly.monomial(R2, exp)),
                        (exp, lambda: PolyDiffOp(R2, {exp: one})),
                        (alpha + (0, 0), lambda: DensityOperator(2, 0, {alpha: one}))):
        with pytest.raises(StructureError, match=re.escape(
                f"multi-index {shown!r} must be 4 integers of at least 0")):
            call()
