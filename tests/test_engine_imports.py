"""The engine in src/nashblowup imports nothing outside the standard library,
sympy and the other test extras serving only as references in the tests,
it keeps no private helper that nothing calls, one helper alone pauses the
cyclic garbage collector, and one pass in groebner divides by a basis, with
no substitution, on packed-int monomials and no tuple arithmetic, whose
`_Packing` is the one bit layout of exponents, the minors' too.  Only the
polynomials read a polynomial's Fraction view `terms`; the rest reads its
integer numerators, and only polynomial.py calls the public `Polynomial(...)`
constructor.  The CLI reads the inputs of its six commands on one polynomial in
one reader, and names no u variable itself.
Neither the engine nor the tests read the environment, so the suite runs
one configuration."""

import ast
import sys
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[1] / "src" / "nashblowup"
TESTS = Path(__file__).resolve().parent


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import that is neither relative, `__future__`,
    nor a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_foreign_imports_fixture():
    source = ("from __future__ import annotations\nimport math, sympy.polys\n"
              "from . import linalg\nfrom .groebner import Ideal\n"
              "from fractions import Fraction\nfrom numpy import array\n")
    assert foreign_imports(source) == [(2, "sympy.polys"), (6, "numpy")]


def test_engine_imports_only_the_standard_library():
    paths = sorted(ENGINE.glob("*.py"))
    assert paths
    found = {path.name: foreign_imports(path.read_text()) for path in paths}
    assert {name: imports for name, imports in found.items() if imports} == {}


def orphaned_helpers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every module-level private function, `_name` but
    not `__name__`, that no code outside its own def refers to, by name or
    as an attribute, in any of the modules of `sources` (module -> text).
    An import alone is not a reference."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    helpers = [(module, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")]
    orphaned = []
    for module, helper in helpers:
        inside = {id(node) for node in ast.walk(helper)}
        if not any(isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
                   and (node.id if isinstance(node, ast.Name) else node.attr) == helper.name
                   for tree in trees.values() for node in ast.walk(tree)):
            orphaned.append((module, helper.name))
    return orphaned


def test_orphaned_helpers_fixture():
    sources = {
        "a": ("def _used(): pass\ndef _recursive(): return _recursive()\n"
              "def _imported(): pass\ndef __dunder__(): pass\ndef public(): return _used()\n"),
        "b": "from .a import _imported\nfrom . import a\nx = a._attr\ndef _attr(): pass\n",
    }
    assert orphaned_helpers(sources) == [("a", "_recursive"), ("a", "_imported")]


def test_engine_keeps_no_orphaned_private_helper():
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert orphaned_helpers(sources) == []


SWITCHES = {"disable", "enable"}


def collector_switches(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, enclosing module-level def or "", name) of every use of
    gc.disable and gc.enable in the modules of `sources` (module -> text),
    as an attribute of `gc` or imported from it, sorted."""
    found = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            where = top.name if isinstance(top, ast.FunctionDef) else ""
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in SWITCHES
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                    found.add((module, where, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                    found.update((module, where, alias.name) for alias in node.names
                                 if alias.name in SWITCHES)
    return sorted(found)


def test_collector_switches_fixture():
    sources = {
        "a": ("import gc\ndef _paused(fn):\n    gc.disable()\n    gc.enable()\n"
              "def other():\n    return gc.isenabled()\n"),
        "b": "from gc import disable as off\nimport gc\ngc.enable()\n",
    }
    assert collector_switches(sources) == [
        ("a", "_paused", "disable"), ("a", "_paused", "enable"),
        ("b", "", "disable"), ("b", "", "enable")]


def test_engine_pauses_the_collector_in_one_helper():
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert collector_switches(sources) == [
        ("hjac.py", "_collector_paused", "disable"), ("hjac.py", "_collector_paused", "enable")]


def references(sources: dict[str, str], names: set[str]) -> list[tuple[str, str]]:
    """(module, name), sorted and without repeats, of every reference to one
    of `names` in the modules of `sources` (module -> text): as a name, as
    an attribute or as a name imported from a module.  A definition is not
    a reference."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            else:
                continue
            found.update((module, name) for name in used if name in names)
    return sorted(found)


def test_references_fixture():
    sources = {
        "a": "def binomial_terms(alpha):\n    return alpha\n",
        "b": "from . import multiindex as mi\nterms = mi.binomial_terms((1,))\n",
        "c": "from .multiindex import binomial_terms as bt\nkey = id(bt)\n",
        "d": "def f(ident):\n    return ident.idx\n",
    }
    assert references(sources, {"binomial_terms", "id"}) == [
        ("b", "binomial_terms"), ("c", "binomial_terms"), ("c", "id")]


def test_engine_expands_taylor_coefficients_in_hjac_alone():
    # hjac owns the Taylor expansion, symbolic (`HigherJacobian.taylor`) and at a point
    # (`_taylor_at`); its matrix is a table read through cached cells, so
    # nothing there finds shared entries again by identity
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert references(sources, {"binomial_terms"}) == [("hjac.py", "binomial_terms")]
    assert references({"hjac.py": sources["hjac.py"]}, {"id"}) == []


def test_engine_divides_by_a_basis_in_one_pass():
    # plane branches are restricted by the groebner division pass, not by
    # substitution, and the integer pseudo-reduction is called there alone
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert references(sources, {"substitute"}) == []
    assert references(sources, {"_reduce_int"}) == [("groebner.py", "_reduce_int")]


def tuple_arithmetic(source: str, functions: set[str]) -> list[tuple[str, int, str]]:
    """(function, line, what), sorted, of every `tuple(...)` and `map(...)`
    call and every `key=` argument in the module-level defs `functions` of
    `source`."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name) and call.func.id in ("tuple", "map"):
                found.append((node.name, call.lineno, call.func.id))
            found += [(node.name, call.lineno, "key=") for kw in call.keywords if kw.arg == "key"]
    return sorted(found)


def test_tuple_arithmetic_fixture():
    source = ("def f(m, s):\n    return tuple(map(add, m, s))\n"
              "def g(w):\n    return max(w, key=len)\n"
              "def h(m):\n    return tuple(m)\n")
    assert tuple_arithmetic(source, {"f", "g"}) == [
        ("f", 2, "map"), ("f", 2, "tuple"), ("g", 4, "key=")]


def test_engine_reduces_packed_monomials():
    # the division and S-polynomial steps shift, compare and test packed
    # ints, and no order-key cache is left beside the packing
    source = (ENGINE / "groebner.py").read_text()
    assert tuple_arithmetic(source, {"_reduce_int", "_spoly_int"}) == []
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert defined & {"_KeyCache", "_keyf"} == set()


def shifted_values(source: str) -> list[tuple[int, str]]:
    """(line, shifted operand) of every `<<` and `<<=` in `source` that
    shifts anything but the constant 1, sorted."""
    shifts = [(node.lineno, node.left if isinstance(node, ast.BinOp) else node.target)
              for node in ast.walk(ast.parse(source))
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift)]
    return sorted((line, ast.unparse(value)) for line, value in shifts
                  if not (isinstance(value, ast.Constant) and value.value == 1))


def test_shifted_values_fixture():
    source = ("masks = [1 << j for j in range(4)]\nk = sum(x << sh for x, sh in m)\n"
              "field = (1 << bits) - 1\nk <<= 2\n")
    assert shifted_values(source) == [(2, "x"), (4, "k")]


def test_minors_pack_monomials_with_the_engine():
    # hjac shifts only 1, for its column bitmasks, and packs exponents by
    # groebner's _Packing, so groebner alone decides how a monomial is an int
    source = (ENGINE / "hjac.py").read_text()
    assert shifted_values(source) == []
    assert references({"hjac.py": source}, {"_Packing"}) == [("hjac.py", "_Packing")]


def enclosing_references(source: str, names: set[str]) -> list[tuple[str, str]]:
    """(module-level def or "", name), sorted and without repeats, of every
    use of one of `names` in `source` as a name or an attribute: imports and
    definitions are not uses."""
    found = set()
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and used in names:
                found.add((where, used))
    return sorted(found)


def test_enclosing_references_fixture():
    source = ("from .parser import parse_polynomial\nimport parser\n"
              "def read(args):\n    return parse_polynomial(args.poly)\n"
              "def cmd(args):\n    return list(map(parser.parse_polynomial, args))\n"
              "def parse_polynomial(text):\n    pass\nDEFAULT = parse_polynomial('x')\n")
    assert enclosing_references(source, {"parse_polynomial"}) == [
        ("", "parse_polynomial"), ("cmd", "parse_polynomial"), ("read", "parse_polynomial")]


def test_cli_reads_polynomial_inputs_in_one_reader():
    # the six commands on one polynomial read --vars, --poly and --point
    # through `_read_input`; hilbert and gb read other inputs themselves
    source = (ENGINE / "cli.py").read_text()
    assert enclosing_references(source, {"parse_polynomial", "_parse_vars", "_parse_point"}) == [
        ("_read_input", "_parse_point"), ("_read_input", "_parse_vars"),
        ("_read_input", "parse_polynomial"),
        ("cmd_gb", "_parse_vars"), ("cmd_gb", "parse_polynomial"),
        ("cmd_hilbert", "_parse_vars"), ("cmd_hilbert", "parse_polynomial")]
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert "_add_common" not in defined


def string_literals(source: str, part: str) -> list[tuple[int, str]]:
    """(line, text), sorted, of every string constant in `source` that holds
    `part`: docstrings and the literal pieces of f-strings included."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and part in node.value)


def test_string_literals_fixture():
    source = ('"""Names u_1, u_2."""\nNAME = "t"\ndef f(k, ring):\n'
              '    return f"u_{k}", fresh("u_", ring), ring.u_names\n')
    assert string_literals(source, "u_") == [(1, "Names u_1, u_2."), (4, "u_"), (4, "u_")]


def test_cli_names_no_u_variable_itself():
    # the minor listings of minors, nashideal and limits take their u's from
    # `limits.u_names`, the rule that names them in the limit ideal
    assert string_literals((ENGINE / "cli.py").read_text(), "u_") == []


def attribute_reads(sources: dict[str, str], attr: str) -> list[tuple[str, int]]:
    """(module, line), sorted, of every read of the attribute `attr` in the
    modules of `sources` (module -> text); a store is not a read."""
    return sorted((module, node.lineno) for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_attribute_reads_fixture():
    sources = {
        "a": "def f(p):\n    return p.terms\nx.terms = {}\n",
        "b": "terms = 1\ny = q.numerators\nw = len(q.terms.items())\n",
    }
    assert attribute_reads(sources, "terms") == [("a", 2), ("b", 3)]


def test_engine_reads_numerators_not_the_fraction_view():
    # the engine reads and builds a polynomial's integer numerators over its
    # den, so no Fraction makes a round trip between two of its steps
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert [(module, line) for module, line in attribute_reads(sources, "terms")
            if module != "polynomial.py"] == []
    assert references(sources, {"_from_terms"}) == []
    assert "_cleared" not in {node.name for node in ast.walk(ast.parse(sources["groebner.py"]))
                              if isinstance(node, ast.FunctionDef)}


def calls_of(sources: dict[str, str], name: str) -> list[tuple[str, int]]:
    """(module, line), sorted, of every call of `name` in the modules of
    `sources` (module -> text), by the name or as an attribute; a reference
    that is not called is not a call."""
    return sorted((module, node.lineno) for module, text in sources.items()
                  for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_calls_of_fixture():
    sources = {
        "a": ("from .polynomial import Polynomial\np = Polynomial(ring, {})\n"
              "def f(ring):\n    return [Polynomial(ring, t) for t in ts]\n"),
        "b": ("import polynomial\nq = polynomial.Polynomial(ring)\n"
              "r = Polynomial._over(ring, {}, 1)\nkind = Polynomial\nz = Polynomial.zero(ring)\n"),
    }
    assert calls_of(sources, "Polynomial") == [("a", 2), ("a", 4), ("b", 2)]


def test_engine_builds_polynomials_from_numerators():
    # outside polynomial.py the engine builds with `_over`, `zero`, `constant`
    # or `variable`, never from Fraction terms through the public constructor
    sources = {path.name: path.read_text() for path in sorted(ENGINE.glob("*.py"))}
    assert [(module, line) for module, line in calls_of(sources, "Polynomial")
            if module != "polynomial.py"] == []


ENVIRONMENT = {"environ", "getenv"}


def environment_reads(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every use of os.environ and os.getenv in the
    modules of `sources` (module -> text), as an attribute of `os` or
    imported from it, sorted."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.add((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.update((module, node.lineno, alias.name) for alias in node.names
                             if alias.name in ENVIRONMENT)
    return sorted(found)


def test_environment_reads_fixture():
    sources = {
        "a": ("import os\nif os.environ.get('SWITCH'):\n    pass\n"
              "here = os.getcwd()\n"),
        "b": "from os import getenv as env, path\nflag = env('SWITCH')\n",
        "c": "import os\ndef f(env):\n    return env.environ, os.getenv\n",
    }
    assert environment_reads(sources) == [
        ("a", 2, "environ"), ("b", 1, "getenv"), ("c", 3, "getenv")]


def test_engine_and_tests_read_no_environment():
    # no switch selects what the engine does or which checks run
    paths = sorted(ENGINE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    sources = {f"{path.parent.name}/{path.name}": path.read_text() for path in paths}
    assert environment_reads(sources) == []


def test_engine_keeps_no_test_only_view():
    # linalg keeps the RREF as integer rows alone (sympy is the tests' Fraction
    # reference), the matrix has no entry lookup by labels (conftest's `entry`),
    # and the package does not export the Fraction view `hjac.evaluate_at`
    trees = {name: ast.parse((ENGINE / name).read_text())
             for name in ("linalg.py", "hjac.py", "__init__.py")}
    assert "rref" not in {node.name for node in trees["linalg.py"].body
                          if isinstance(node, ast.FunctionDef)}
    [matrix] = [node for node in trees["hjac.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "HigherJacobian"]
    assert "entry" not in {node.name for node in matrix.body if isinstance(node, ast.FunctionDef)}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "evaluate_at" not in exported
