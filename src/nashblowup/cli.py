"""Command-line front-end.

Every pipeline is exposed as a subcommand with deterministic text or
structured (JSON) output, so invocations can be recorded as regression
golden files.  Exit codes: 0 ok, 2 input error, 3 precondition violation,
4 resource budget exceeded, a number too long to print included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import hilbert as hilbert_mod
from . import hjac, limits
from .groebner import BudgetExceededError, buchberger
from .parser import NAME, RATIONAL, ParseError, format_polynomial, format_rational, parse_polynomial
from .polynomial import MonomialOrder, Polynomial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class InputError(ValueError):
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
        if not RATIONAL.fullmatch(p):
            raise InputError(f"decimal input rejected, use exact rationals: {p!r}" if "." in p
                             else f"bad rational {p!r}: not of the form [+-]digits[/digits]")
        try:
            coords.append(Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {p!r}: {exc}") from None
    return tuple(coords)


def _read_input(args) -> tuple[Polynomial, tuple[Fraction, ...] | None]:
    """F over --vars, then the --point if the command takes one, else None, read in this order."""
    F = parse_polynomial(args.poly, _parse_vars(args.vars))
    point = getattr(args, "point", None)
    return F, None if point is None else _parse_point(point, F.num_vars)


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
    F, _ = _read_input(args)
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
    F, point = _read_input(args)
    rank = hjac.rank_at(F, args.n, point)
    M, _ = hjac.shape(F.num_vars, args.n)
    verdict = "singular" if rank < M else "non-singular"
    _emit(args, {"rank": rank, "full_rank": M, "verdict": verdict},
          lambda: [f"rank {rank} of {M}: {verdict}"])
    return EXIT_OK


def cmd_tangent(args) -> int:
    F, point = _read_input(args)
    basis = _vector_texts(hjac.tangent_space(F, args.n, point))
    _emit(args, {"dim": len(basis), "basis": basis},
          lambda: [f"dim T^{args.n} = {len(basis)}"] + [f"({', '.join(v)})" for v in basis])
    return EXIT_OK


def _vector_texts(vectors) -> list[list[str]]:
    return [[format_rational(c) for c in v] for v in vectors]


def _minor_entries(table, names=()) -> list[dict]:
    """Structured entries of a minor table, numbered 1, 2, ...; with the
    names of the u variables, each entry also carries its name as "u"."""
    entries = [{"index": k, "columns": [j + 1 for j in J], "minor": format_polynomial(d)}
               for k, (J, d) in enumerate(table, start=1)]
    for entry, u in zip(entries, names):
        entry["u"] = u
    return entries


def _minor_lines(entries, ring) -> list[str]:
    """One line per minor, led by the name of its u in a limit ideal over `ring`, F's ring."""
    names = limits.u_names(ring, len(entries))
    return [f"{u} {_label(e['columns'])} = {e['minor']}" for e, u in zip(entries, names)]


def cmd_minors(args) -> int:
    F, _ = _read_input(args)
    table = hjac.maximal_minors(F, args.n)
    entries = _minor_entries(table)
    _emit(args, {"count": len(table), "minors": entries},
          lambda: [f"{len(table)} minors", *_minor_lines(entries, F.ring)])
    return EXIT_OK


def cmd_nashideal(args) -> int:
    F, _ = _read_input(args)
    # the ideal first: its own minor table is freed before this one is built
    ideal = hjac.nash_ideal(F, args.n)
    table = hjac.maximal_minors(F, args.n)
    gens = [format_polynomial(g) for g in ideal.generators]
    _emit(args, {"minor_count": len(table), "generators": gens},
          lambda: [f"{len(table)} minors", *_minor_lines(_minor_entries(table), F.ring),
                   f"nash ideal modulo <F>: {len(gens)} generators", *("  " + g for g in gens)])
    return EXIT_OK


def cmd_limits(args) -> int:
    F, center = _read_input(args)
    try:
        result = limits.limit_ideal(
            F, args.n, center, max_pairs=args.max_pairs, max_reductions=args.max_reductions)
    except BudgetExceededError as exc:
        if not hasattr(exc, "minors"):
            raise  # the table itself was refused; `main` reports it
        # still emit the minor table computed before the engine gave up
        entries = _minor_entries(exc.minors, exc.u_ring)
        _emit(args, {"status": "resource-budget-exceeded",
                     "lambda_size": len(entries),
                     "minors": entries,
                     "error": str(exc)},
              lambda: [f"lambda size {len(entries)}", *_minor_lines(entries, F.ring),
                       f"resource budget exceeded: {exc}"])
        return EXIT_BUDGET
    oracle = limits.containment_oracle(result)
    gens = [format_polynomial(g) for g in result.generators]
    entries = _minor_entries(result.minors, result.u_ring)
    planes = None if result.planes is None else [_vector_texts(plane) for plane in result.planes]

    def lines():
        yield f"lambda size {result.lambda_size}"
        yield from _minor_lines(entries, F.ring)
        yield f"limit ideal (block order): {len(gens)} generators"
        yield from ("  " + g for g in gens)
        yield f"containment oracle: {'pass' if oracle else 'FAIL'}"
        if planes is None:
            yield "planes: not reported (generators outside supported patterns)"
        else:
            yield f"planes: {len(planes)}"
            yield from (f"  ({', '.join(v)})" for plane in planes for v in plane)

    _emit(args, {"status": "ok",
                 "lambda_size": result.lambda_size,
                 "minors": entries,
                 "generators": gens,
                 "oracle": oracle,
                 "order": "block",
                 "planes": planes}, lines)
    return EXIT_OK


def cmd_hilbert(args) -> int:
    if (args.monomials is None) == (args.poly is None):
        raise InputError("give exactly one of --monomials or --poly")
    if args.monomials is not None:
        if args.vars is not None:
            names = _parse_vars(args.vars)
        else:
            names = tuple(sorted(set(NAME.findall(args.monomials))))
            if not names:
                raise InputError("cannot infer variables from --monomials")
        exps, start = [], 0  # start: the chunk's position in the argument
        for chunk in args.monomials.split(","):
            try:
                p = parse_polynomial(chunk.strip(), names)
            except ParseError as exc:
                exc.position += start + len(chunk) - len(chunk.lstrip())
                raise
            if p.den != 1 or list(p.numerators.values()) != [1]:
                raise InputError(f"not a monomial: {chunk.strip()!r}")
            exps.append(next(iter(p.numerators)))
            start += len(chunk) + 1
        value = hilbert_mod.graded_dim(
            hilbert_mod.MonomialIdeal(len(names), exps), args.n)
    else:
        if not args.vars:
            raise InputError("--poly needs --vars")
        F = parse_polynomial(args.poly, _parse_vars(args.vars))
        value = hilbert_mod.local_hilbert(F, args.n)
    text = format_rational(value)  # a count too long to print is refused in either format
    _emit(args, {"n": args.n, "dim": value}, lambda: [text])
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
    gens = [parse_polynomial(ln, names) for ln in lines_in]
    order = MonomialOrder(args.order)
    basis = buchberger(gens, order, max_pairs=args.max_pairs,
                       max_reductions=args.max_reductions)
    out = [format_polynomial(g, order) for g in basis]
    _emit(args, {"order": args.order, "basis": out},
          lambda: [f"reduced basis ({args.order}): {len(out)} elements"] +
          ["  " + g for g in out])
    return EXIT_OK


# the commands on one polynomial: (name, takes a --point, help), read by `_read_input`
_POLYNOMIAL_COMMANDS = (
    ("jac", False, "print the order-n Jacobian matrix"),
    ("singular", True, "rank test at a point"),
    ("tangent", True, "higher tangent space at a non-singular point"),
    ("minors", False, "all maximal minors of the matrix"),
    ("nashideal", False, "reduced basis of <F> + (minors), modulo <F>"),
    ("limits", True, "limit ideal of higher tangent spaces at a singular center"),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nashblowup",
        description="Higher-order Jacobian matrices of hypersurfaces: "
                    "singularity tests, tangent spaces, Nash-blowup ideals, "
                    "and limits of higher tangent spaces.")
    sub = top.add_subparsers(dest="command", required=True)

    for name, point, text in _POLYNOMIAL_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--poly", "-f", required=True, help="polynomial in the input grammar")
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("-n", type=int, required=True, help="order of the Jacobian matrix")
        if point:
            p.add_argument("--point", required=True, help="comma-separated exact rationals")
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.choices["limits"]
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--max-reductions", type=int, default=None)

    p = sub.add_parser("hilbert", help="standard-monomial counts")
    p.add_argument("--monomials", help="comma-separated monomial generators")
    p.add_argument("--poly", help="hypersurface polynomial (local count at the origin)")
    p.add_argument("--vars", help="comma-separated variable names")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    p.add_argument("file", help="one generator per line in the input grammar")
    p.add_argument("--vars", required=True)
    p.add_argument("--order", choices=("grevlex", "grlex", "lex"), default="grevlex")
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--max-reductions", type=int, default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")

    return top


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so that a rebound cmd_<command> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (hjac.PointNotOnHypersurfaceError, hjac.SingularPointError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # InputError, ParseError and the engine's input errors
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
