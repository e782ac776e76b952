"""Command-line interface.

Subcommands: basis, reduce, mul, matrix, kinematic, son, check, positivity.
Exit codes: 0 success, 1 usage or parse error, 2 identity-suite failure.
stdout carries results; stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import reduce
from operator import mul

from .algebra import SOAlgebra, basis_monomials, build_algebra
from .duality import (
    annihilator_change_of_basis,
    companion_data,
    kinematic_matrix,
    pairing_matrix,
    positivity_scan,
    step_down_matrix,
)
from .emit import (
    format_basis,
    format_matrix,
    format_poly,
    format_positivity,
    format_report,
    format_tensor,
)
from .errors import DegreeOutOfRange, UnivalError
from .kinematics import kinematic_of, so_kinematic
from .poly import poly_parse
from .suite import run_suite

import json

SO_CEILING = 100_000  # largest real dimension; ``son --n 100000 --k 0`` takes about 10 s on 2 cores


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="unival",
        description=(
            "Exact computations in the graded algebra of unitary-invariant valuations: "
            "bases, normal forms, duality pairings, kinematic tensors, and a "
            "machine-checked identity suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, formats=("plain", "json", "latex")) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="plain", help="output format")
        p.set_defaults(func=func)
        return p

    p = command("basis", _cmd_basis, "ordered monomial basis of one degree")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("--degree", type=int, required=True, help="grading degree")

    p = command("reduce", _cmd_normal_form, "normal form of a polynomial")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("factors", nargs=1, metavar="poly", help="polynomial text, e.g. 's - 1/2*t^2'")

    p = command("mul", _cmd_normal_form, "product of two elements, in normal form")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("factors", nargs=2, metavar="poly", help="polynomial text, one per factor")

    p = command("matrix", _cmd_matrix, "duality and kinematic matrices")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("--k", type=int, required=True, help="half the degree of the paired piece")
    p.add_argument(
        "--which",
        required=True,
        choices=("P", "Q", "A", "R", "companion"),
        help=(
            "P: duality pairing matrix; Q: kinematic matrix (inverse of P); "
            "A: change of basis into annihilator coordinates; R: step-down matrix; "
            "companion: scaled product Q(n,k) P(n-1,k) with its coefficient column"
        ),
    )

    p = command("kinematic", _cmd_kinematic, "kinematic tensor of an element")
    p.add_argument("--n", type=int, help="complex dimension (unitary model)")
    p.add_argument("--so", type=int, help="real dimension (orthogonal model)")
    p.add_argument("--phi", default="1", help="element text, e.g. 't^2' (default: 1)")

    p = command("son", _cmd_son, "orthogonal-model kinematic tensor of t^k")
    p.add_argument("--n", type=int, required=True, help="real dimension")
    p.add_argument("--k", type=int, required=True, help="power of t")

    p = command("check", _cmd_check, "run the identity suite", ("plain", "json"))
    p.add_argument("--n-max", type=int, default=12, help="largest complex dimension to sweep")

    p = command("positivity", _cmd_positivity, "positive-definiteness scan", ("plain", "json", "csv"))
    p.add_argument("--n-max", type=int, default=12, help="largest complex dimension to scan")

    return parser


def _unitary_dimension(n: int) -> int:
    """``n``, refused below 1 as ``build_algebra`` refuses it, for commands that build no algebra."""
    if n < 1:
        raise DegreeOutOfRange("complex dimension n must be >= 1")
    return n


def _cmd_basis(args) -> int:
    """Reads the closed-form basis rule; the algebra is never built."""
    if not 0 <= args.degree <= 2 * _unitary_dimension(args.n):
        raise DegreeOutOfRange(f"degree must lie in 0..{2 * args.n}, got {args.degree}")
    monomials = basis_monomials(args.n, args.degree)
    if args.format == "json":
        payload = {"n": args.n, "degree": args.degree, "basis": json.loads(format_basis(monomials, "json"))}
        print(json.dumps(payload, indent=2))
    else:
        print(format_basis(monomials, args.format))
    return 0


def _cmd_normal_form(args) -> int:
    """``reduce`` prints the normal form of one polynomial, ``mul`` that of the product of two."""
    alg = build_algebra(args.n)
    element = reduce(mul, [alg.normal_form(poly_parse(text)) for text in args.factors])
    if args.format == "json":
        print(json.dumps({"n": args.n, "normal_form": str(element.poly)}, indent=2))
    else:
        print(format_poly(element.poly, args.format))
    return 0


def _cmd_matrix(args) -> int:
    _unitary_dimension(args.n)
    if args.which == "companion":
        data = companion_data(args.n, args.k)
        if args.format == "json":
            print(json.dumps(data.to_json(), indent=2))
        else:
            print(format_matrix(data.matrix, args.format))
            if args.format == "plain":
                print("a: " + ", ".join(str(c) for c in data.coefficients))
        return 0
    builders = {
        "P": pairing_matrix,
        "Q": kinematic_matrix,
        "A": annihilator_change_of_basis,
        "R": step_down_matrix,
    }
    print(format_matrix(builders[args.which](args.n, args.k), args.format))
    return 0


def _so_dimension(n: int) -> int:
    """``n``, refused past ``SO_CEILING`` before any orthogonal model is built."""
    if n > SO_CEILING:
        raise UnivalError(f"real dimension must be <= {SO_CEILING} (the orthogonal ceiling), got {n}")
    return n


def _cmd_kinematic(args) -> int:
    if (args.n is None) == (args.so is None):
        raise UnivalError("exactly one of --n (unitary) or --so (orthogonal) is required")
    model = build_algebra(args.n) if args.so is None else SOAlgebra(_so_dimension(args.so))
    print(format_tensor(kinematic_of(model.n, model.normal_form(poly_parse(args.phi))), args.format))
    return 0


def _cmd_son(args) -> int:
    print(format_tensor(so_kinematic(_so_dimension(args.n), args.k), args.format))
    return 0


def _cmd_check(args) -> int:
    if args.n_max < 1:
        raise UnivalError("--n-max must be >= 1")
    report = run_suite(args.n_max)
    print(format_report(report, args.format))
    return 0 if report.ok else 2


def _cmd_positivity(args) -> int:
    if args.n_max < 1:
        raise UnivalError("--n-max must be >= 1")
    print(format_positivity(positivity_scan(args.n_max), args.format))
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the diagnostic already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, UnivalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone; keep the exit-time flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
