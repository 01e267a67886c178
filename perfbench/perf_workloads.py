"""The three workloads of the nashblowup benchmark.

Each workload turns a seed into a list of cases, runs one case through the
package (the CLI in-process, or library calls) and checks its output.
Cases reach the package only through module attributes looked up at call
time, so that a tracer that rebinds those attributes sees them.
`cases_per_op` is how many consecutive cases make one op.

curve-limits
    One case per plane curve, the five curves one op: `limits` at n=2 at a
    rational center chosen by the seed.  The center is moved to the origin before elimination, so the
    expected output does not depend on the seed.  This is the elimination
    path, where `groebner.buchberger` does almost all the work.
surface-nash
    One case: `nashideal` at n=3 for a*x*y - b*z^4 with seeded nonzero
    |a|, |b| <= 3, then the singular locus it cuts out, checked in both
    directions with `radical_membership` against <F, dF>.  The work is
    wedge-product minors, reduction modulo F and wide grevlex bases.
pointwise-tangent
    200 library queries on x*y - z^4 at n=4: `is_singular`, then
    `tangent_space` at a non-singular point, then
    `hilbert.nonsingular_by_dimension`.  No Groebner basis is computed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDENS = HERE / "goldens.json"

PACKAGE = "nashblowup"
MODULES = ("cli", "groebner", "hilbert", "hjac", "limits", "linalg", "parser", "polynomial")

CURVES = (
    ("cusp", "x^3-y^2"),
    ("tacnode", "y^2-x^4"),
    ("A4", "y^2-x^5"),
    ("D4", "x^2*y-y^3"),
    ("node", "x^3+x^2-y^2"),
)
CURVE_ORDER = 2

SURFACE_RING = ("x", "y", "z")
SURFACE_GOLDEN_POLY = "x*y - z^4"
SURFACE_ORDER = 3

POINT_POLY = "x*y - z^4"
POINT_ORDER = 4
POINT_QUERIES = 200
POINT_ORIGINS = 10  # one query in twenty is at the singular origin

# warm-up inputs, the same for every seed so that setup_s does not depend on it
WARM_UP_CURVE = ("D4", (Fraction(1, 2), Fraction(-1)))  # covers planes = None
WARM_UP_POINT = (Fraction(1),) * 3  # non-singular on POINT_POLY


def drop_package() -> None:
    """Forget every loaded module of the package, so the next import is
    made afresh."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load_package() -> SimpleNamespace:
    """Import the package from the source tree; its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run_cli(nb, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nb.cli.main(argv)
    return code, out.getvalue()


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if value or not nonzero:
            return value


def _signed(c: Fraction) -> str:
    return f"- {-c}" if c < 0 else f"+ {c}"


def translated_curve(poly: str, center) -> str:
    """The curve poly(x - cx, y - cy), whose singular point sits at center."""
    cx, cy = center
    return poly.replace("x", f"(x {_signed(-cx)})").replace("y", f"(y {_signed(-cy)})")


def _partials(F):
    s = F.num_vars
    return [F.derivative(tuple(int(i == j) for i in range(s))) for j in range(s)]


# -- curve-limits ----------------------------------------------------------


class CurveLimits:
    name = "curve-limits"
    cases_per_op = len(CURVES)

    def inputs(self, nb, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [self._case(curve, (_rational(rng), _rational(rng))) for curve, _ in CURVES]

    @staticmethod
    def _case(curve: str, center) -> dict:
        poly = dict(CURVES)[curve]
        return {"curve": curve, "argv": [
            "limits", f"--poly={translated_curve(poly, center)}", "--vars", "x,y",
            f"--point={center[0]},{center[1]}", "-n", str(CURVE_ORDER),
            "--format", "structured"]}

    def warm_up(self, nb, cases) -> None:
        run_cli(nb, self._case(*WARM_UP_CURVE)["argv"])

    def run(self, nb, case):
        return run_cli(nb, case["argv"])

    def check(self, nb, case, out, goldens) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        got = json.loads(stdout)
        want = goldens[self.name][case["curve"]]
        for key in ("generators", "planes", "oracle", "lambda_size"):
            if got.get(key) != want[key]:
                return f"{key} differs from the golden output"
        return None


# -- surface-nash ----------------------------------------------------------


def surface_basis(nb, F, generators):
    """Reduced grevlex basis of <F> + <generators>."""
    return nb.groebner.buchberger([F] + list(generators), nb.polynomial.grevlex(),
                                  F.ring)


class SurfaceNash:
    name = "surface-nash"
    cases_per_op = 1

    def inputs(self, nb, seed: int) -> list[dict]:
        rng = random.Random(seed)
        a, b = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
        poly = f"{a}*x*y {'-' if b > 0 else '+'} {abs(b)}*z^4"
        return [{"a": a, "b": b, "poly": poly, "n": SURFACE_ORDER}]

    def warm_up(self, nb, cases) -> None:
        run_cli(nb, ["nashideal", f"--poly={SURFACE_GOLDEN_POLY}", "--vars", "x,y,z",
                     "-n", "1", "--format", "structured"])

    def run(self, nb, case):
        code, stdout = run_cli(nb, [
            "nashideal", f"--poly={case['poly']}", "--vars", ",".join(SURFACE_RING),
            "-n", str(case["n"]), "--format", "structured"])
        if code != 0:
            return {"code": code}
        payload = json.loads(stdout)
        parse = nb.parser.parse_polynomial
        F = parse(case["poly"], SURFACE_RING)
        gens = [parse(g, SURFACE_RING) for g in payload["generators"]]
        # singular locus, as acceptance criterion 7: V(<F> + J_n) = V(F, dF)
        partials = _partials(F)
        Ideal, radical_membership = nb.groebner.Ideal, nb.groebner.radical_membership
        higher = Ideal(SURFACE_RING, [F] + gens)
        classical = Ideal(SURFACE_RING, [F] + partials)
        return {
            "code": code,
            "minor_count": payload["minor_count"],
            "F": F,
            "generators": gens,
            "partials_in_higher": all(radical_membership(d, higher) for d in partials),
            "higher_in_classical": all(radical_membership(g, classical) for g in gens),
        }

    def check(self, nb, case, out, goldens) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}"
        want = goldens[self.name]
        if out["minor_count"] != want["minor_count"]:
            return "minor count differs from the golden output"
        if not (out["partials_in_higher"] and out["higher_in_classical"]):
            return "singular locus differs from V(F, dF)"
        # <a*x*y - b*z^4> + J is the golden <x*y - z^4> + J pulled back
        # along x -> (a/b)*x; compare ideals, not generator lists
        ring = SURFACE_RING
        x = nb.polynomial.Polynomial.variable(ring, "x")
        pull = {"x": x.scalar_mul(Fraction(case["a"], case["b"]))}
        golden = [nb.parser.parse_polynomial(g, ring).substitute(pull) for g in want["basis"]]
        expected = nb.groebner.buchberger(golden, nb.polynomial.grevlex(), ring)
        if surface_basis(nb, out["F"], out["generators"]) != expected:
            return "ideal <F> + J differs from the golden ideal"
        return None


# -- pointwise-tangent -----------------------------------------------------


class PointwiseTangent:
    name = "pointwise-tangent"
    cases_per_op = 1

    def inputs(self, nb, seed: int) -> list[dict]:
        rng = random.Random(seed)
        F = nb.parser.parse_polynomial(POINT_POLY, SURFACE_RING)
        origins = set(rng.sample(range(POINT_QUERIES), POINT_ORIGINS))
        cases = []
        for k in range(POINT_QUERIES):
            if k in origins:
                point = (Fraction(0),) * 3
            else:
                s, t = _rational(rng, nonzero=True), _rational(rng)
                point = (t ** 4 / s, s, t)
            cases.append({"F": F, "point": point})
        return cases

    def warm_up(self, nb, cases) -> None:
        self.run(nb, {"F": cases[0]["F"], "point": WARM_UP_POINT})

    def run(self, nb, case):
        F, point = case["F"], case["point"]
        singular = nb.hjac.is_singular(F, POINT_ORDER, point)
        basis = None if singular else nb.hjac.tangent_space(F, POINT_ORDER, point)
        by_dimension = nb.hilbert.nonsingular_by_dimension(F, POINT_ORDER, point)
        return singular, basis, by_dimension

    def check(self, nb, case, out, goldens) -> str | None:
        F, point = case["F"], case["point"]
        singular, basis, by_dimension = out
        if singular != all(d.evaluate(point) == 0 for d in _partials(F)):
            return "rank verdict disagrees with the first partials"
        if by_dimension == singular:
            return "dimension verdict disagrees with the rank verdict"
        if singular:
            return None if basis is None else "tangent space at a singular point"
        M, C = nb.hjac.shape(F.num_vars, POINT_ORDER)
        if len(basis) != C - M or nb.linalg.rank(basis) != C - M:
            return f"tangent basis does not span a space of dimension {C - M}"
        matrix = nb.hjac.evaluate_at(nb.hjac.build(F, POINT_ORDER), point)
        if any(sum(a * v for a, v in zip(row, vec) if a and v) for row in matrix for vec in basis):
            return "tangent basis is not annihilated by the evaluated matrix"
        return None


WORKLOADS = {w.name: w for w in (CurveLimits(), SurfaceNash(), PointwiseTangent())}
