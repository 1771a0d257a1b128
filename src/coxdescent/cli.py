"""Batch command-line front end.

    coxdescent <gb|saturate|strict-ci|ci|dim|descend> FILE [--ideal NAME]
               [--against NAME] [--seed N]

stdout carries the result, stderr the diagnostics.  Exit codes:
0 success (STRICT / CI), 1 NOT_STRICT, 2 parse error, 3 semantic error,
4 NOT_CI, 5 descend precondition failure.

Exponents are capped at ``rings.EXPONENT_CAP`` (16383), the most that the
Groebner engine's packed monomials hold: a variable exponent past it in a
problem file is a parse error (exit 2), and a Groebner computation whose
monomials reach a (weighted) degree past it stops with an error (exit 3).
"""

import argparse
import sys

from .cox import _squeezed_height, _validate_hypersurfaces, is_strict_ci, subscheme_ideal
from .descent import descend
from .errors import CoxDescentError, DescentPreconditionError, ParseError
from .groebner import dimension, saturate
from .problemfile import load_problem

EXIT_OK = 0
EXIT_NOT_STRICT = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_NOT_CI = 4
EXIT_PRECONDITION = 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coxdescent",
        description="Strict complete intersections in Cox rings and Galois descent.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("gb", "print the reduced Groebner basis of an ideal"),
            ("saturate", "print the basis of the saturation of an ideal"),
            ("strict-ci", "test the strict complete intersection property"),
            ("ci", "test the complete intersection property (height test)"),
            ("dim", "print the Krull dimension of the quotient by an ideal"),
            ("descend", "rewrite invariant generators into Galois orbits")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="problem file")
        p.add_argument("--ideal", help="ideal name (defaults to the only ideal)")
        p.add_argument("--seed", type=int, default=0,
                       help="reserved; commands here are deterministic")
        if name == "saturate":
            p.add_argument("--against", default="irrelevant",
                           help="saturation direction: 'irrelevant' or an ideal name")
    return parser


def _pick_ideal(problem, name):
    if name is None:
        if len(problem.ideals) != 1:
            raise CoxDescentError("file has %d ideals; use --ideal NAME"
                                  % len(problem.ideals))
        return next(iter(problem.ideals.values()))
    if name not in problem.ideals:
        raise CoxDescentError("no ideal named %r in the file" % name)
    return problem.ideals[name]


def _print_gb(gb):
    for g in gb:
        print(g)


def _cmd_gb(problem, ideal, args):
    _print_gb(ideal.reduced_gb())
    return EXIT_OK


def _cmd_saturate(problem, ideal, args):
    if args.against == "irrelevant":
        result = subscheme_ideal(problem.ambient, ideal)
    else:
        result = saturate(ideal, _pick_ideal(problem, args.against))
    _print_gb(result.reduced_gb())
    return EXIT_OK


def _cmd_strict_ci(problem, ideal, args):
    verdict = is_strict_ci(problem.ambient, list(ideal.gens))
    if verdict.status == "strict":
        print("STRICT")
        return EXIT_OK
    if verdict.status == "not_strict":
        print("NOT_STRICT witness=%s" % verdict.witness)
        return EXIT_NOT_STRICT
    print("NOT_CI height=%d expected=%d" % (verdict.height, verdict.expected))
    return EXIT_NOT_CI


def _cmd_ci(problem, ideal, args):
    _validate_hypersurfaces(ideal.gens)
    h, expected = _squeezed_height(ideal), len(ideal.gens)
    if h == expected:
        print("CI height=%d" % h)
        return EXIT_OK
    print("NOT_CI height=%d expected=%d" % (h, expected))
    return EXIT_NOT_CI


def _cmd_dim(problem, ideal, args):
    print(dimension(ideal))
    return EXIT_OK


def _cmd_descend(problem, ideal, args):
    if problem.action is None:
        raise CoxDescentError("descend needs an action line in the problem file")
    result = descend(problem.ambient, problem.action, list(ideal.gens))
    for (a, b) in result.orbit_blocks:
        print("ORBIT { %s }" % " ; ".join(str(g) for g in result.new_gens[a:b]))
    for din, dout in result.degree_log:
        print("DEGREE %s -> %s" % (din, dout))
    print("IDEAL_EQUAL=true")
    return EXIT_OK


_COMMANDS = {
    "gb": _cmd_gb,
    "saturate": _cmd_saturate,
    "strict-ci": _cmd_strict_ci,
    "ci": _cmd_ci,
    "dim": _cmd_dim,
    "descend": _cmd_descend,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        problem = load_problem(args.file)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("cannot read %s: %s" % (args.file, exc), file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](problem, _pick_ideal(problem, args.ideal), args)
    except DescentPreconditionError as exc:
        print(exc.reason)
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except (CoxDescentError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
