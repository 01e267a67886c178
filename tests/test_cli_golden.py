"""Golden output of the CLI.

`golden_cli.json` holds the exit code, stdout and stderr of a fixed set of
invocations of `nashblowup.cli.main`, and the test replays each one and
compares all three byte for byte.  Every subcommand and every error exit is
covered, in structured form, plus the text form of the commands that print
a minor table.  Each invocation runs in a scratch directory holding the
generator files named in `FILES`.

After an intended change of output, re-record the cases it changes by name,

    PYTHONPATH=src python tests/test_cli_golden.py limits-cusp limits-node

With no names the recorder adds only the cases missing from
`golden_cli.json`; it never rewrites a stored entry it was not named.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from nashblowup.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FILES = {"gens.txt": "x^2 - y\nx*y - 1\n", "empty.txt": "\n", "bad.txt": "x^2 - y\nx*(y\n"}

CUSP = ("--poly", "x^3-y^2", "--vars", "x,y")
SURFACE = ("--poly", "x*y-z^4", "--vars", "x,y,z")
JSON = ("--format", "structured")


def _limits(poly, *extra):
    return ("limits", "--poly", poly, "--vars", "x,y", "-n", "2", "--point", "0,0") + extra


CASES = {
    # jac
    "jac": ("jac", *CUSP, "-n", "2", *JSON),
    "jac-text": ("jac", *CUSP, "-n", "2"),
    "jac-order-0": ("jac", *CUSP, "-n", "0", *JSON),
    "jac-zero-poly": ("jac", "--poly", "0", "--vars", "x,y", "-n", "1", *JSON),
    "jac-parse-error": ("jac", "--poly", "x^3-w^2", "--vars", "x,y", "-n", "2", *JSON),
    "jac-long-literal": ("jac", "--poly", "x+" + "9" * 5000, "--vars", "x,y", "-n", "1", *JSON),
    "jac-power-cap": ("jac", "--poly", "(x+y)^2222", "--vars", "x,y", "-n", "1", *JSON),
    "jac-power-bits": ("jac", "--poly", "3^10000000", "--vars", "x,y", "-n", "1", *JSON),
    "jac-product-bits": ("jac", "--poly", "3^5000*3^5000*x", "--vars", "x,y", "-n", "1", *JSON),
    "jac-product-cap": ("jac", "--poly", "(x+y+1)^37*(x+y+1)^37", "--vars", "x,y", "-n", "1",
                        *JSON),
    "jac-duplicate-vars": ("jac", "--poly", "x", "--vars", "x,x", "-n", "1", *JSON),
    "jac-empty-var": ("jac", "--poly", "x", "--vars", "x,,y", "-n", "1", *JSON),
    # singular
    "singular-origin": ("singular", *CUSP, "-n", "2", "--point", "0,0", *JSON),
    "singular-smooth": ("singular", *CUSP, "-n", "2", "--point", "1/4,1/8", *JSON),
    "singular-off-surface": ("singular", *CUSP, "-n", "2", "--point", "1,2", *JSON),
    "singular-order-0": ("singular", *CUSP, "-n", "0", "--point", "0,0", *JSON),
    "singular-decimal": ("singular", *CUSP, "-n", "2", "--point", "1.0,1", *JSON),
    "singular-bad-rational": ("singular", *CUSP, "-n", "2", "--point", "1/0,1", *JSON),
    "singular-point-grammar": ("singular", *CUSP, "-n", "1", "--point", "1e3000000,0", *JSON),
    "singular-arity": ("singular", *CUSP, "-n", "2", "--point", "1", *JSON),
    # tangent
    "tangent": ("tangent", *CUSP, "-n", "2", "--point", "1,1", *JSON),
    "tangent-text": ("tangent", *CUSP, "-n", "2", "--point", "1,1"),
    "tangent-surface": ("tangent", *SURFACE, "-n", "2", "--point", "1,1,1", *JSON),
    "tangent-singular": ("tangent", *CUSP, "-n", "2", "--point", "0,0", *JSON),
    "tangent-off-surface": ("tangent", *CUSP, "-n", "2", "--point", "1,2", *JSON),
    "tangent-order-0": ("tangent", *CUSP, "-n", "0", "--point", "1,1", *JSON),
    # minors
    "minors": ("minors", *CUSP, "-n", "2", *JSON),
    "minors-text": ("minors", *CUSP, "-n", "2"),
    "minors-order-0": ("minors", *CUSP, "-n", "0", *JSON),
    "minors-cap": ("minors", *SURFACE, "-n", "4", *JSON),
    # nashideal
    "nashideal-surface": ("nashideal", *SURFACE, "-n", "2", *JSON),
    "nashideal-cusp": ("nashideal", *CUSP, "-n", "2", *JSON),
    "nashideal-cusp-text": ("nashideal", *CUSP, "-n", "2"),
    "nashideal-order-0": ("nashideal", *CUSP, "-n", "0", *JSON),
    # limits
    "limits-cusp": _limits("x^3-y^2", *JSON),
    "limits-cusp-text": _limits("x^3-y^2"),
    "limits-tacnode": _limits("y^2-x^4", *JSON),
    "limits-A4": _limits("y^2-x^5", *JSON),
    "limits-D4": _limits("x^2*y-y^3", *JSON),
    "limits-D4-text": _limits("x^2*y-y^3"),
    "limits-node": _limits("x^3+x^2-y^2", *JSON),
    "limits-A1-surface": ("limits", "--poly", "x*y-z^2", "--vars", "x,y,z", "-n", "2",
                          "--point", "0,0,0", *JSON),
    "limits-A3-surface": ("limits", *SURFACE, "-n", "2", "--point", "0,0,0", *JSON),
    "limits-max-pairs": _limits("x^3-y^2", "--max-pairs", "1", *JSON),
    "limits-max-pairs-text": _limits("x^3-y^2", "--max-pairs", "1"),
    "limits-max-reductions": _limits("x^3-y^2", "--max-reductions", "1", *JSON),
    "limits-u-named-variable": ("limits", "--poly", "u_1^3-y^2", "--vars", "u_1,y", "-n", "1",
                                "--point", "0,0"),
    "limits-u-named-variable-structured": ("limits", "--poly", "u_1^3-y^2", "--vars", "u_1,y",
                                           "-n", "1", "--point", "0,0", *JSON),
    "limits-u-named-variable-budget": ("limits", "--poly", "u_1^3-y^2", "--vars", "u_1,y",
                                       "-n", "1", "--point", "0,0", "--max-pairs", "0"),
    "limits-smooth-center": ("limits", *CUSP, "-n", "2", "--point", "1,1", *JSON),
    "limits-off-surface": ("limits", *CUSP, "-n", "2", "--point", "1,2", *JSON),
    "limits-off-surface-order-0": ("limits", *CUSP, "-n", "0", "--point", "1,2", *JSON),
    "limits-minors-cap": ("limits", *SURFACE, "-n", "4", "--point", "0,0,0", *JSON),
    "limits-minors-cap-text": ("limits", *SURFACE, "-n", "4", "--point", "0,0,0"),
    # hilbert
    "hilbert-monomials": ("hilbert", "--monomials", "x^2,y^2", "-n", "3", *JSON),
    "hilbert-monomials-vars": ("hilbert", "--monomials", "x^2", "--vars", "x,y",
                               "-n", "3", *JSON),
    "hilbert-poly": ("hilbert", *CUSP, "-n", "2", *JSON),
    "hilbert-poly-text": ("hilbert", *CUSP, "-n", "2"),
    "hilbert-both-sources": ("hilbert", "--monomials", "x^2", *CUSP, "-n", "2", *JSON),
    "hilbert-monomials-parse-error": ("hilbert", "--monomials", "x^,y", "-n", "2", *JSON),
    "hilbert-no-source": ("hilbert", "-n", "2", *JSON),
    "hilbert-poly-no-vars": ("hilbert", "--poly", "x^3-y^2", "-n", "2", *JSON),
    "hilbert-not-monomial": ("hilbert", "--monomials", "x+y", "--vars", "x,y",
                             "-n", "2", *JSON),
    "hilbert-no-variables": ("hilbert", "--monomials", "1", "-n", "2", *JSON),
    "hilbert-not-monomial-inferred": ("hilbert", "--monomials", "x+y", "-n", "2", *JSON),
    "hilbert-negative-degree": ("hilbert", "--monomials", "x^2", "-n", "-1", *JSON),
    "hilbert-poly-negative-degree": ("hilbert", *CUSP, "-n", "-1", *JSON),
    "hilbert-zero-poly": ("hilbert", "--poly", "0", "--vars", "x,y", "-n", "2", *JSON),
    "hilbert-origin-off-surface": ("hilbert", "--poly", "x^3-y^2+1", "--vars", "x,y",
                                   "-n", "2", *JSON),
    # gb
    "gb": ("gb", "gens.txt", "--vars", "x,y", *JSON),
    "gb-lex-text": ("gb", "gens.txt", "--vars", "x,y", "--order", "lex"),
    "gb-grlex": ("gb", "gens.txt", "--vars", "x,y", "--order", "grlex", *JSON),
    "gb-missing-file": ("gb", "missing.txt", "--vars", "x,y", *JSON),
    "gb-empty-file": ("gb", "empty.txt", "--vars", "x,y", *JSON),
    "gb-parse-error": ("gb", "bad.txt", "--vars", "x,y", *JSON),
    "gb-max-pairs": ("gb", "gens.txt", "--vars", "x,y", "--order", "lex",
                     "--max-pairs", "0", *JSON),
}


def run(argv) -> dict:
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def write_files(directory) -> None:
    for name, text in FILES.items():
        Path(directory, name).write_text(text)


GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_files(directory)
    return directory


def test_golden_covers_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, scratch_dir, monkeypatch):
    monkeypatch.chdir(scratch_dir)
    assert run(CASES[name]) == GOLDENS[name]


def record(names) -> None:
    """Record the named cases, or with no names the cases not yet stored,
    keeping every other stored entry as it is."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    names = names or [name for name in CASES if name not in GOLDENS]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        try:
            goldens = {**GOLDENS, **{name: run(CASES[name]) for name in names}}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(names)} invocations in {GOLDEN}: {', '.join(names)}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
