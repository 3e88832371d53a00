"""Layering rules: no polyceva module imports another module's private
names, none uses dataclasses, only Frozen defines how a value is
assigned, deleted, hashed or printed, every Frozen class has at least
two fields, only svgout.py computes in floats, no code reads a Point's
Fraction views, each Fraction the library builds has a listed reason,
every export has a caller in the library, every generator knob has a
``fuzz`` flag, and every name the perfbench tracer patches exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import polyceva
from polyceva.cli import build_parser
from polyceva.fuzz import GenParams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyceva"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Value classes are plain classes: importing dataclasses (and
    inspect with it) and generating their code would cost every CLI
    start-up."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert "dataclasses" not in imported


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_frozen_defines_mutation_and_hash(path):
    """Every value class is immutable, hashable by its fields alone and
    printed by Frozen's repr, which passes the int-string limit."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = [f"{node.name}.{name}" for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name != "Frozen"
               for item in node.body
               for name in _defined_names(item)
               if name in ("__setattr__", "__delattr__", "__hash__",
                           "__repr__")]
    assert defined == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a class-body statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_frozen_classes_list_two_fields():
    """Frozen's ``_values`` is ``attrgetter(*_fields)``, a tuple only for
    two or more names, so every Frozen class lists at least two."""
    fields = {}
    for path in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "_exact_oracle.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Frozen"
                    for base in node.bases):
                fields[node.name] = next(
                    (ast.literal_eval(stmt.value) for stmt in node.body
                     if "_fields" in _defined_names(stmt)), ())
    assert len(fields) >= 13
    assert sorted(name for name, names in fields.items() if len(names) < 2) == []


# math names whose value is a float.  Integer-valued ones (floor, ceil,
# gcd, lcm, isqrt, prod, comb, ...) stay allowed.
FLOAT_MATH = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt",
    "copysign", "cos", "cosh", "degrees", "dist", "e", "erf", "erfc", "exp",
    "exp2", "expm1", "fabs", "fmod", "frexp", "fsum", "gamma", "hypot", "inf",
    "isclose", "ldexp", "lgamma", "log", "log10", "log1p", "log2", "modf",
    "nan", "nextafter", "pi", "pow", "radians", "remainder", "sin", "sinh",
    "sqrt", "tan", "tanh", "tau", "ulp",
}


def _float_uses(tree: ast.AST) -> list[str]:
    """float() calls, float-valued math names and float literals, by line."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append(f"{node.lineno}: float()")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            found += [f"{node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name in FLOAT_MATH]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import cmath"
                      for alias in node.names if alias.name == "cmath"]
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, (float, complex))):
            found.append(f"{node.lineno}: literal {node.value!r}")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "svgout.py"],
                         ids=lambda p: p.name)
def test_no_floats_in_the_verification_path(path):
    """Only svgout.py, which lays figures out, computes in floats."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _float_uses(tree) == []


def test_float_lint_finds_each_kind():
    source = ("import math\nfrom math import sqrt, gcd\n"
              "def f(x, elapsed_seconds=0.0, scale=1.5):\n"
              "    return float(x) + math.hypot(x, 1) + 1e-9 + math.pi"
              " + math.gcd(2, 4)\n")
    assert sorted(_float_uses(ast.parse(source))) == [
        "2: from math import sqrt", "3: literal 0.0", "3: literal 1.5", "4: float()",
        "4: literal 1e-09", "4: math.hypot", "4: math.pi"]


def _scopes(tree: ast.AST, module: str, hit) -> set[str]:
    """Qualified names of the functions and classes whose code holds a
    node for which ``hit`` is true; ``module`` alone for module-level
    code."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif hit(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def _src_scopes(find) -> set[str]:
    """``find(tree, module)`` over every module of the library."""
    found = set()
    for path in SRC.glob("*.py"):
        found |= find(ast.parse(path.read_text(), filename=str(path)),
                      path.stem)
    return found


def _xy_readers(tree: ast.AST, module: str) -> set[str]:
    """Scopes whose code reads an attribute ``x`` or ``y``."""
    return _scopes(tree, module, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("x", "y")))


def test_no_code_reads_point_fractions():
    """Each read of a Point's ``x`` or ``y`` builds a Fraction, so the
    library reads a Point's integer ``parts`` or its homogeneous triple
    instead."""
    assert sorted(_src_scopes(_xy_readers)) == []


def test_xy_reader_lint_finds_each_scope():
    source = ("def f(p):\n    return p.x\n"
              "class C:\n    def m(self, q):\n"
              "        def inner():\n            return q.y\n"
              "        return inner\n"
              "z = P.x\n"
              "def g(p):\n    return p.parts, p.xy\n")
    assert _xy_readers(ast.parse(source), "mod") == {
        "mod.f", "mod.C.m.inner", "mod"}


# Every scope of the library that calls Fraction(...), with its reason:
# a view of stored integers, a public report field, or a public
# constructor that takes rationals.  Everything else computes on ints.
FRACTION_BUILDERS = {
    "ceva": "public report field: PARITY_SIGNS, ProductReport.expected",
    "ceva.Factor.value": "view of the pair num/den",
    "ceva.ProductReport.from_factors": "public report field: product of "
                                       "a failed identity",
    "ceva.build_converse_counterexample": "public report field: K and the "
                                          "free ratios",
    "circle._view": "view of a pair in InscribedConfig or InscribedReport",
    "circle.InscribedConfig.params": "view of the parameter pairs",
    "circle.InscribedConfig.line_specs": "view of the second parameters",
    "circle._chord_ratio_product": "public report field: the chord "
                                   "products, InscribedReport.rhs_squared",
    "geometry.as_rational": "public constructor: an int taken as a rational",
    "geometry.parse_rational": "public constructor: the wire text p/q",
    "geometry.Point.x": "view of the parts",
    "geometry.Point.y": "view of the parts",
    "geometry.Line.value_at": "public value: a*x + b*y + c at a point",
    "geometry._view": "view of a Line's triple: a, b and c",
}


def _fraction_builders(tree: ast.AST, module: str) -> set[str]:
    """Scopes whose code calls ``Fraction`` or ``fractions.Fraction``."""
    return _scopes(tree, module, lambda node: (
        isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else
             getattr(node.func, "attr", None)) == "Fraction"))


def test_each_fraction_built_has_a_reason():
    """The library builds a Fraction only where a public value needs
    one, and each entry of FRACTION_BUILDERS is still such a place."""
    assert sorted(_src_scopes(_fraction_builders)) == sorted(FRACTION_BUILDERS)


def test_fraction_lint_finds_each_scope():
    source = ("from fractions import Fraction\n"
              "ONE = Fraction(1)\n"
              "class C:\n    @property\n    def v(self):\n"
              "        return Fraction(*self.pair)\n"
              "    w = property(lambda self: Fraction(2))\n"
              "def f(x):\n    return fractions.Fraction(x), x / 2\n"
              "def g(p, q):\n    return Fraction(p, q)\n")
    assert _fraction_builders(ast.parse(source), "mod") == {
        "mod", "mod.C.v", "mod.C", "mod.f", "mod.g"}


# Exports no polyceva module uses, each with the reason it stays.
UNCALLED_EXPORTS = {
    "classic_ceva_product": "Ceva's theorem, the n = 3 case the paper extends",
    "opposite_vertex_product": "the paper's Consequence 1.1",
    "all_sides_product": "the paper's s = 1, t = n - 2 case",
    "sides_hit": "the paper's sides i + s .. i + s + t - 1 crossed by the "
                 "line at A_i; side_factors walks them itself",
    "gen_ceva_config": "perfbench digests its stream of configs",
    "gen_inscribed_config": "perfbench digests its stream of configs",
}


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and
    string constants (cli._LAZY names its lazy imports as strings)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_export_has_a_caller():
    """A name the library exports is used by another of its modules, or
    states one of the paper's cases; test-only helpers live in tests/."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    uncalled = sorted(name for names in polyceva._EXPORTS.values()
                      for name in names
                      if name not in used and name not in UNCALLED_EXPORTS)
    assert uncalled == []


def test_every_gen_param_has_a_fuzz_flag():
    """Each GenParams field is set by a flag of ``polyceva fuzz``, so no
    knob stays that only the tests set."""
    flags = vars(build_parser().parse_args(["fuzz"]))
    flags["coordinate_bound"] = flags.pop("bound")
    assert [name for name in GenParams._fields if name not in flags] == []


def test_tracer_names_resolve():
    """Each (module, attribute) pair perfbench/tracing.py patches, and
    polyceva.cli.json, exists, so renaming one fails here and not only
    in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(module, attr) for module, attr, *_ in tracing._PATCHES]
    assert len(pairs) == 24
    for module, attr in [*pairs, ("polyceva.cli", "json")]:
        assert getattr(importlib.import_module(module), attr) is not None
