"""Command-line front-end.

Every pipeline is exposed as a subcommand with deterministic text or
structured (JSON) output, so invocations can be recorded as regression
golden files.  Exit codes: 0 ok, 2 input error, 3 precondition violation,
4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hilbert as hilbert_mod
from . import hjac, limits
from .groebner import BudgetExceededError, buchberger
from .parser import NAME, ParseError, format_polynomial, parse_polynomial
from .polynomial import MonomialOrder, Polynomial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class InputError(Exception):
    pass


def _parse_vars(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(","))
    if any(not NAME.fullmatch(v) for v in names):
        raise InputError(f"malformed variable list: {text!r}")
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variable in: {text!r}")
    return names


def _parse_point(text: str, s: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise InputError(f"point has {len(parts)} coordinates, expected {s}")
    coords = []
    for p in parts:
        if "." in p:
            raise InputError(f"decimal input rejected, use exact rationals: {p!r}")
        try:
            coords.append(Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {p!r}: {exc}") from None
    return tuple(coords)


def _parse_poly(text: str, names: tuple[str, ...]) -> Polynomial:
    try:
        return parse_polynomial(text, names)
    except ParseError as exc:
        raise InputError(str(exc)) from None


def _emit(args, payload: dict, text_lines) -> None:
    """Print the payload as JSON, or the lines that `text_lines()` builds;
    text is built only when it is printed."""
    if args.format == "structured":
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _label(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def cmd_jac(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    jac = hjac.build(F, args.n)
    rows = [[format_polynomial(e) for e in row] for row in jac.entries]
    _emit(args, {"n": args.n,
                 "row_labels": [list(b) for b in jac.row_labels],
                 "col_labels": [list(a) for a in jac.col_labels],
                 "rows": rows},
          lambda: [f"Jac_{args.n}: {jac.num_rows} x {jac.num_cols}",
                   "columns: " + " ".join(_label(a) for a in jac.col_labels),
                   *(_label(b) + " | " + "  ".join(row) for b, row in zip(jac.row_labels, rows))])
    return EXIT_OK


def cmd_singular(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    point = _parse_point(args.point, len(names))
    rank = hjac.rank_at(F, args.n, point)
    M, _ = hjac.shape(len(names), args.n)
    verdict = "singular" if rank < M else "non-singular"
    _emit(args, {"rank": rank, "full_rank": M, "verdict": verdict},
          lambda: [f"rank {rank} of {M}: {verdict}"])
    return EXIT_OK


def cmd_tangent(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    point = _parse_point(args.point, len(names))
    basis = hjac.tangent_space(F, args.n, point)
    _emit(args, {"dim": len(basis),
                 "basis": [[str(c) for c in v] for v in basis]},
          lambda: [f"dim T^{args.n} = {len(basis)}"] + [_vector(v) for v in basis])
    return EXIT_OK


def _vector(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _minor_entries(table) -> list[dict]:
    """Structured entries of a minor table, numbered u_1, ..."""
    return [{"index": k, "columns": [j + 1 for j in J], "minor": format_polynomial(d)}
            for k, (J, d) in enumerate(table, start=1)]


def _minor_lines(entries) -> list[str]:
    return [f"u_{e['index']} {_label(e['columns'])} = {e['minor']}" for e in entries]


def cmd_minors(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    table = hjac.maximal_minors(F, args.n)
    entries = _minor_entries(table)
    _emit(args, {"count": len(table), "minors": entries},
          lambda: [f"{len(table)} minors"] + _minor_lines(entries))
    return EXIT_OK


def cmd_nashideal(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    table = hjac.maximal_minors(F, args.n)
    ideal = hjac.nash_ideal(F, args.n)
    gens = [format_polynomial(g) for g in ideal.generators]
    _emit(args, {"minor_count": len(table), "generators": gens},
          lambda: [f"{len(table)} minors", *_minor_lines(_minor_entries(table)),
                   f"nash ideal modulo <F>: {len(gens)} generators", *("  " + g for g in gens)])
    return EXIT_OK


def cmd_limits(args) -> int:
    names = _parse_vars(args.vars)
    F = _parse_poly(args.poly, names)
    center = _parse_point(args.point, len(names))
    try:
        result = limits.limit_ideal(
            F, args.n, center, max_pairs=args.max_pairs, max_reductions=args.max_reductions)
    except BudgetExceededError as exc:
        # still emit the minor table computed before the engine gave up
        entries = _minor_entries(exc.minors)
        _emit(args, {"status": "resource-budget-exceeded",
                     "lambda_size": len(entries),
                     "minors": entries,
                     "error": str(exc)},
              lambda: [f"lambda size {len(entries)}", *_minor_lines(entries),
                       f"resource budget exceeded: {exc}"])
        return EXIT_BUDGET
    oracle = limits.containment_oracle(result)
    gens = [format_polynomial(g) for g in result.generators]
    entries = _minor_entries(result.minors)

    def lines():
        yield f"lambda size {result.lambda_size}"
        yield from _minor_lines(entries)
        yield f"limit ideal (block order): {len(gens)} generators"
        yield from ("  " + g for g in gens)
        yield f"containment oracle: {'pass' if oracle else 'FAIL'}"
        if result.planes is None:
            yield "planes: not reported (generators outside supported patterns)"
        else:
            yield f"planes: {len(result.planes)}"
            for plane in result.planes:
                for v in plane:
                    yield "  " + _vector(v)

    _emit(args, {"status": "ok",
                 "lambda_size": result.lambda_size,
                 "minors": entries,
                 "generators": gens,
                 "oracle": oracle,
                 "order": "block",
                 "planes": None if result.planes is None else
                 [[[str(c) for c in v] for v in plane]
                  for plane in result.planes]}, lines)
    return EXIT_OK


def cmd_hilbert(args) -> int:
    if (args.monomials is None) == (args.poly is None):
        raise InputError("give exactly one of --monomials or --poly")
    if args.monomials is not None:
        if args.vars is not None:
            names = _parse_vars(args.vars)
        else:
            seen: list[str] = []
            for chunk in args.monomials.split(","):
                for tok in chunk.replace("^", " ").replace("*", " ").split():
                    if tok.isidentifier() and tok not in seen:
                        seen.append(tok)
            names = tuple(sorted(seen))
            if not names:
                raise InputError("cannot infer variables from --monomials")
        exps = []
        for chunk in args.monomials.split(","):
            p = _parse_poly(chunk.strip(), names)
            if len(p.terms) != 1 or next(iter(p.terms.values())) != 1:
                raise InputError(f"not a monomial: {chunk.strip()!r}")
            exps.append(next(iter(p.terms)))
        value = hilbert_mod.graded_dim(
            hilbert_mod.MonomialIdeal(len(names), exps), args.n)
    else:
        names = _parse_vars(args.vars) if args.vars else None
        if names is None:
            raise InputError("--poly needs --vars")
        F = _parse_poly(args.poly, names)
        value = hilbert_mod.local_hilbert(F, args.n)
    _emit(args, {"n": args.n, "dim": value}, lambda: [str(value)])
    return EXIT_OK


def cmd_gb(args) -> int:
    names = _parse_vars(args.vars)
    try:
        with open(args.file) as fh:
            lines_in = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(str(exc)) from None
    if not lines_in:
        raise InputError(f"no generators in {args.file}")
    gens = [_parse_poly(ln, names) for ln in lines_in]
    order = MonomialOrder(args.order)
    basis = buchberger(gens, order, max_pairs=args.max_pairs,
                       max_reductions=args.max_reductions)
    out = [format_polynomial(g, order) for g in basis]
    _emit(args, {"order": args.order, "basis": out},
          lambda: [f"reduced basis ({args.order}): {len(out)} elements"] +
          ["  " + g for g in out])
    return EXIT_OK


def _add_common(p, point=False):
    p.add_argument("--poly", "-f", required=True, help="polynomial in the input grammar")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("-n", type=int, required=True, help="order of the Jacobian matrix")
    if point:
        p.add_argument("--point", required=True, help="comma-separated exact rationals")
    p.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nashblowup",
        description="Higher-order Jacobian matrices of hypersurfaces: "
                    "singularity tests, tangent spaces, Nash-blowup ideals, "
                    "and limits of higher tangent spaces.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jac", help="print the order-n Jacobian matrix")
    _add_common(p)
    p.set_defaults(func=cmd_jac)

    p = sub.add_parser("singular", help="rank test at a point")
    _add_common(p, point=True)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("tangent", help="higher tangent space at a non-singular point")
    _add_common(p, point=True)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("minors", help="all maximal minors of the matrix")
    _add_common(p)
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("nashideal", help="reduced basis of <F> + (minors), modulo <F>")
    _add_common(p)
    p.set_defaults(func=cmd_nashideal)

    p = sub.add_parser("limits", help="limit ideal of higher tangent spaces at a singular center")
    _add_common(p, point=True)
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--max-reductions", type=int, default=None)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("hilbert", help="standard-monomial counts")
    p.add_argument("--monomials", help="comma-separated monomial generators")
    p.add_argument("--poly", help="hypersurface polynomial (local count at the origin)")
    p.add_argument("--vars", help="comma-separated variable names")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    p.add_argument("file", help="one generator per line in the input grammar")
    p.add_argument("--vars", required=True)
    p.add_argument("--order", choices=("grevlex", "grlex", "lex"), default="grevlex")
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--max-reductions", type=int, default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_gb)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (hjac.PointNotOnHypersurfaceError, hjac.SingularPointError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
