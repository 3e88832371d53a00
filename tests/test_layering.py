"""Layering rules: no polyceva module imports another module's private
names, none uses dataclasses, and only svgout.py computes in floats."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyceva"


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
# The one float outside svgout.py: FuzzReport's wall-clock
# elapsed_seconds, whose default is 0.0.  It is never compared.
FLOAT_DEFAULTS = {"fuzz.py": {"elapsed_seconds"}}


def _float_uses(tree: ast.AST, allowed_defaults=frozenset()) -> list[str]:
    """float() calls, float-valued math names and float literals, by line,
    except the defaults of the parameters named in allowed_defaults."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):],
                          args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            allowed |= {id(default) for arg, default in pairs
                        if arg.arg in allowed_defaults}
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
              and isinstance(node.value, (float, complex))
              and id(node) not in allowed):
            found.append(f"{node.lineno}: literal {node.value!r}")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "svgout.py"],
                         ids=lambda p: p.name)
def test_no_floats_in_the_verification_path(path):
    """Only svgout.py, which lays figures out, computes in floats."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _float_uses(tree, FLOAT_DEFAULTS.get(path.name, frozenset())) == []


def test_float_lint_finds_each_kind():
    source = ("import math\nfrom math import sqrt, gcd\n"
              "def f(x, elapsed_seconds=0.0, scale=1.5):\n"
              "    return float(x) + math.hypot(x, 1) + 1e-9 + math.pi"
              " + math.gcd(2, 4)\n")
    assert sorted(_float_uses(ast.parse(source), {"elapsed_seconds"})) == [
        "2: from math import sqrt", "3: literal 1.5", "4: float()",
        "4: literal 1e-09", "4: math.hypot", "4: math.pi"]
