"""The module layering of the package, read from the source with ``ast``.

The engine modules never reach up into the identity suite, the closed
forms of ``duality`` build on ``errors`` and ``exact`` alone, the emitters
on ``algebra``, ``exact`` and ``poly`` alone, and the checks
that only the suite reads are defined in ``suite`` alone: every function of
an engine module has a reader outside ``suite`` and ``__init__``, and so does
every method of an engine class, unless a named entry says why it stays.
A function is read by its name, bare or as an attribute; a method only as
an attribute, so a local variable of the same name does not count.  Only
the suite raises ``StructureViolation``: the engine holds no cross-check.
One-term work goes through the two kernels that the mutation tests
corrupt, ``_Model._reduce`` and ``GradedPoly._times_term``, with no
shortcut around them.  The pivot ratios are multiplied out in one place,
``duality._pivot_chain``, and each model's dimension rule is stated once,
in ``algebra``, never in the CLI.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import unival
from unival import suite
from unival.algebra import SOAlgebra, _Model, build_algebra
from unival.poly import GradedPoly

SRC = Path(__file__).resolve().parents[1] / "src" / "unival"


def _imported_modules(path: Path) -> set[str]:
    """The sibling ``unival`` modules the file at ``path`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("unival."))
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.partition(".")[0] != "unival":
                continue
            module = module.partition(".")[2]
        if module:
            found.add(module.split(".")[0])
        else:  # ``from . import suite`` or ``from unival import suite``
            found.update(alias.name for alias in node.names)
    return found


def _defined_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_duality_imports_only_errors_and_exact():
    assert _imported_modules(SRC / "duality.py") == {"errors", "exact"}


def test_emit_imports_only_algebra_exact_and_poly():
    # The suite report is read in emit only as an annotation, which needs no import.
    assert _imported_modules(SRC / "emit.py") == {"algebra", "exact", "poly"}


@pytest.mark.parametrize("engine", ["algebra", "poly", "exact", "duality", "kinematics"])
def test_engine_modules_do_not_import_the_suite(engine):
    assert "suite" not in _imported_modules(SRC / f"{engine}.py")


def test_the_reader_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import suite\nfrom .exact import ExactMatrix\nimport unival.kinematics\n"
        "from unival.poly import S\nfrom unival import algebra\nimport json\nfrom math import comb\n"
    )
    assert _imported_modules(probe) == {"suite", "exact", "kinematics", "poly", "algebra"}


def _raised_names(path: Path) -> set[str]:
    """The exception names the file at ``path`` raises, bare or as an attribute, called or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", ""))
    return names - {""}


def test_the_raise_reader_sees_every_raise_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(x):\n    if x:\n        raise StructureViolation(f'at {x}')\n    try:\n        g()\n"
        "    except KeyError as exc:\n        raise errors.NotInSpan('no') from exc\n"
        "    except OSError:\n        raise\n    raise ValueError\n"
    )
    assert _raised_names(probe) == {"StructureViolation", "NotInSpan", "ValueError"}


def test_only_the_suite_raises_structure_violation():
    # A failed structural cross-check is the suite's verdict, never an engine call's.
    raisers = {path.name for path in SRC.glob("*.py") if "StructureViolation" in _raised_names(path)}
    assert raisers == {"suite.py"}


SUITE_ONLY = {
    "_product_gram",
    "_shift",
    "annihilator_basis",
    "binomial_reduction_identity",
    "coefficient_recurrences_hold",
    "companion_relation",
    "companion_relation_is_log_component",
    "companion_relation_times_t",
    "companion_relation_vanishes",
    "difference_identity_holds",
    "falling_factorial",
    "forward_difference",
    "kinematic_annihilator_block",
    "log_component_alt",
    "log_components",
    "log_recursion_holds",
    "pairing_pivots",
    "series_dimension",
    "step_down_identity_holds",
    "top_coefficient",
}


def test_suite_only_checks_are_defined_in_the_suite_alone():
    assert SUITE_ONLY <= _defined_functions(SRC / "suite.py")
    for path in SRC.glob("*.py"):
        if path.name != "suite.py":
            assert not SUITE_ONLY & _defined_functions(path), path.name


def _readers_of(name: str, paths=tuple(SRC.glob("*.py"))) -> set[tuple[str, str]]:
    """``(file, function)`` for every function or method whose body loads ``name``, bare or as an attribute."""
    readers = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.FunctionDef) and any(
                (isinstance(inner, ast.Name) and inner.id == name and isinstance(inner.ctx, ast.Load))
                or (isinstance(inner, ast.Attribute) and inner.attr == name)
                for inner in ast.walk(node)
            ):
                readers.add((path.name, node.name))
    return readers


def test_the_function_reader_sees_bare_and_attribute_loads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n    return g(1)\n\nclass A:\n    def h(self):\n        return m.g\n\n"
        "def k():\n    g = 2\n\nx = g\n"
    )
    assert _readers_of("g", [probe]) == {("probe.py", "f"), ("probe.py", "h")}


def test_the_pivot_chain_is_walked_in_one_place():
    # _kernel_scale, positivity_scan and the suite's pairing_pivots all read the chain, never the ratio.
    assert _readers_of("_pivot_ratio") == {("duality.py", "_pivot_chain")}
    assert _readers_of("_pivot_chain") == {
        ("duality.py", "_kernel_scale"),
        ("duality.py", "positivity_scan"),
        ("suite.py", "pairing_pivots"),
    }
    assert unival.pairing_pivots is suite.pairing_pivots


def test_the_cli_states_no_dimension_rule():
    # Each model's rule lives in one gate in algebra (_unitary_dimension, _orthogonal_dimension).
    assert "dimension n must be" not in (SRC / "cli.py").read_text()
    assert {"_unitary_dimension", "_orthogonal_dimension"} <= _defined_functions(SRC / "algebra.py")


def _read_names(path: Path) -> set[str]:
    """Every name the file at ``path`` loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_attributes(path: Path) -> set[str]:
    """Every name the file at ``path`` loads as an attribute, the only way a method is read."""
    tree = ast.parse(path.read_text(), filename=path.name)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_the_name_reader_sees_bare_and_attribute_loads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    return g(x.h)\n\nk = 1\n")
    assert _read_names(probe) == {"g", "x", "h"}


def test_the_attribute_reader_sees_attribute_loads_alone(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(row):\n    block = row\n    x.y = m.terms\n    return g(x.h, block)\n")
    assert _read_attributes(probe) == {"terms", "h"}


# Read only by the suite, but wrapped by name by the benchmark's tracer, so they stay where they are.
TRACER_PINNED = {"solve_in_span", "is_positive_definite", "annihilator_congruence_holds", "step_up_identity_holds"}


ENGINES = ("algebra", "poly", "exact", "duality", "kinematics")


def _engine_reads(read=_read_names) -> set[str]:
    """Every name ``read`` finds loaded in ``src/unival`` outside ``suite`` and ``__init__``."""
    readers = set()
    for path in SRC.glob("*.py"):
        if path.name not in ("suite.py", "__init__.py"):
            readers |= read(path)
    return readers


def test_every_engine_function_has_an_engine_reader():
    readers = _engine_reads()
    unread = {engine: sorted(_defined_functions(SRC / f"{engine}.py") - readers - TRACER_PINNED) for engine in ENGINES}
    assert unread == {engine: [] for engine in unread}


def _defined_methods(path: Path) -> set[tuple[str, str]]:
    """``(class, method)`` for every method defined in a class body of the file, dunders left out."""
    return {
        (node.name, item.name)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def test_the_method_reader_sees_methods_of_every_kind(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class A:\n    def __init__(self): pass\n    def f(self): pass\n"
        "    @classmethod\n    def g(cls): pass\n    @property\n    def h(self): pass\n\ndef k(): pass\n"
    )
    assert _defined_methods(probe) == {("A", "f"), ("A", "g"), ("A", "h")}


# Engine methods that no engine module reads, each with the reason it stays in the engine.
UNREAD_METHODS = {
    ("UnitaryAlgebra", "reduction_of"): "benchmark pin: the tracer reads every table through it",
    ("ExactMatrix", "det"): "benchmark pin: the tracer wraps it; the tests' determinant oracle",
    ("ExactMatrix", "inverse"): "API: exact inversion; the suite reads it, the tracer wraps it",
    ("ExactMatrix", "to_rows"): "API: the matrix as Fraction rows, beside indexing",
    ("ExactMatrix", "identity"): "API: the identity matrix constructor; the suite reads it",
    ("TensorElement", "multiply_left"): "API: a product placed on the left factor, twin of multiply_right",
    ("TensorElement", "multiply_right"): "API: a product placed on the right factor; the suite's oracle",
    ("AlgebraElement", "restrict"): "API: the restriction to U(n-1); the suite checks it is a homomorphism",
    ("GradedPoly", "coefficient"): "API: one coefficient as a Fraction; the suite reads it",
    ("GradedPoly", "total_degree"): "API: the top grade of a polynomial; the suite reads it",
    ("GradedPoly", "terms"): "API: the terms as Fractions; the suite's pairing-formula oracle reads it",
}


def test_every_engine_method_has_an_engine_reader_or_a_reason():
    readers = _engine_reads(_read_attributes)
    methods = set().union(*(_defined_methods(SRC / f"{engine}.py") for engine in ENGINES))
    assert {method for method in methods if method[1] not in readers} == set(UNREAD_METHODS)



def _cache_names(path: Path) -> set[str]:
    """The ``functools`` caches the file at ``path`` imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=path.name)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names & {"cache", "lru_cache"}


def test_the_cache_reader_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\nfrom functools import cache as memo\n\n@functools.lru_cache\ndef f(): pass\n")
    assert _cache_names(probe) == {"cache", "lru_cache"}


def test_suite_caches_nothing_across_calls():
    # Memos live inside one check call, so a kernel patched by one test is never masked by another's values.
    assert _cache_names(SRC / "suite.py") == set()


def test_one_term_work_enters_the_kernels_the_mutation_tests_corrupt(monkeypatch):
    # tests/test_suite.py corrupts _reduce and _times_term; a shortcut around either would hide its mutants.
    reduced, multiplied = [], []
    real_reduce, real_times_term = _Model._reduce, GradedPoly._times_term

    def spy_reduce(self, terms, den):
        reduced.append((list(terms), den))
        return real_reduce(self, terms, den)

    def spy_times_term(self, term):
        multiplied.append((self, term))
        return real_times_term(self, term)

    monkeypatch.setattr(_Model, "_reduce", spy_reduce)
    monkeypatch.setattr(GradedPoly, "_times_term", spy_times_term)
    alg, so = build_algebra(3), SOAlgebra(3)
    s, half_t = GradedPoly.monomial(1, 0), GradedPoly.monomial(0, 1, Fraction(1, 2))
    entries = {
        "normal_form": (lambda: alg.normal_form(s), [([((1, 0), 1)], 1)]),
        "orthogonal normal_form": (lambda: so.normal_form(half_t), [([((0, 1), 1)], 2)]),
        "_multiply": (lambda: alg._multiply(s, half_t), [([((1, 1), 1)], 2)]),
        "reduction_of": (lambda: alg.reduction_of((2, 1)), [([((2, 1), 1)], 1)]),
    }
    for name, (call, expected) in entries.items():
        reduced.clear()
        call()
        assert reduced == expected, name
    assert not multiplied
    product = s * half_t
    assert multiplied == [(s, half_t)] and product == GradedPoly.monomial(1, 1, Fraction(1, 2))
