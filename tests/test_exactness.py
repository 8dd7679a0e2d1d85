"""Static check of the package's exactness contract: no floating point and
no imports hidden inside function bodies anywhere under src/isolab, and
neither `fractions` nor true division `/` in the modules that work on
integer polygons or mod p^N."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isolab"
FLOAT_NAMES = {"float", "inf"}
INEXACT_MATH = {"sqrt", "log", "log2", "log10", "floor", "ceil"}
# polygons reach poset.py as integer vertex paths and stay integers there,
# slopes compared by cross-multiplying; dieudonne.py works mod p^N, its
# characteristic polynomial by Berkowitz, and unramified.py and witt.py
# work on ints mod p or p^N.  A `/` there would make a float.
FRACTION_FREE = {"poset.py", "dieudonne.py", "unramified.py", "witt.py"}


def violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []

    def visit(node, in_function):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append("%s float literal %r" % (where, node.value))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            out.append("%s name %s" % (where, node.id))
        elif isinstance(node, ast.Attribute) and (
            node.attr in FLOAT_NAMES
            or (node.attr in INEXACT_MATH and isinstance(node.value, ast.Name) and node.value.id == "math")
        ):
            out.append("%s attribute %s" % (where, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if path.name in FRACTION_FREE:
                out.append("%s true division" % where)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if in_function:
                out.append("%s import inside a function" % where)
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            if path.name in FRACTION_FREE and "fractions" in modules:
                out.append("%s imports fractions" % where)
            from_math = isinstance(node, ast.ImportFrom) and node.module == "math"
            for alias in node.names:
                if alias.name in FLOAT_NAMES or (from_math and alias.name in INEXACT_MATH):
                    out.append("%s imports %s" % (where, alias.name))
        inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return out


MODULES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert violations(path) == []


@pytest.mark.parametrize(
    "source, count",
    [
        ("x = 0.5\n", 1),
        ("from math import inf\n", 1),
        ("import math\ny = math.sqrt(2)\n", 1),
        ("from math import floor, isqrt\n", 1),
        ("y = float('1')\n", 1),
        ("def f():\n    from itertools import product\n", 1),
        ("def f():\n    return int(7**0.5)\n", 1),
        ("from math import gcd, isqrt\ny = gcd(4, isqrt(16))\n", 0),
        ("from fractions import Fraction\n", 1),
        ("def key(rise, span):\n    return rise / span\n", 1),
    ],
)
def test_scanner_flags_inexact_code(tmp_path, source, count):
    path = tmp_path / "poset.py"  # a fraction-free name, so every rule applies
    path.write_text(source)
    assert len(violations(path)) == count
