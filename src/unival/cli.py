"""Command-line interface.

Subcommands: basis, reduce, mul, matrix, kinematic, son, check, positivity.
Exit codes: 0 success, 1 usage or parse error, 2 identity-suite failure.
stdout carries results; stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import SOAlgebra, build_algebra
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
from .kinematics import kinematic_of, so_kinematic, so_kinematic_of
from .poly import poly_parse
from .suite import run_suite

import json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "json", "latex", "csv"),
        default="plain",
        help="output format (csv applies to positivity only)",
    )
    return common


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(
        prog="unival",
        description=(
            "Exact computations in the graded algebra of unitary-invariant valuations: "
            "bases, normal forms, duality pairings, kinematic tensors, and a "
            "machine-checked identity suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common], help="ordered monomial basis of one degree")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("--degree", type=int, required=True, help="grading degree")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("reduce", parents=[common], help="normal form of a polynomial")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("poly", help="polynomial text, e.g. 's - 1/2*t^2'")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("mul", parents=[common], help="product of two elements, in normal form")
    p.add_argument("--n", type=int, required=True, help="complex dimension")
    p.add_argument("left", help="polynomial text")
    p.add_argument("right", help="polynomial text")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("matrix", parents=[common], help="duality and kinematic matrices")
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
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("kinematic", parents=[common], help="kinematic tensor of an element")
    p.add_argument("--n", type=int, help="complex dimension (unitary model)")
    p.add_argument("--so", type=int, help="real dimension (orthogonal model)")
    p.add_argument("--phi", default="1", help="element text, e.g. 't^2' (default: 1)")
    p.set_defaults(func=_cmd_kinematic)

    p = sub.add_parser("son", parents=[common], help="orthogonal-model kinematic tensor of t^k")
    p.add_argument("--n", type=int, required=True, help="real dimension")
    p.add_argument("--k", type=int, required=True, help="power of t")
    p.set_defaults(func=_cmd_son)

    p = sub.add_parser("check", parents=[common], help="run the identity suite")
    p.add_argument("--n-max", type=int, default=12, help="largest complex dimension to sweep")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("positivity", parents=[common], help="positive-definiteness scan")
    p.add_argument("--n-max", type=int, default=12, help="largest complex dimension to scan")
    p.set_defaults(func=_cmd_positivity)

    return parser


def _reject_csv(args) -> None:
    if args.format == "csv":
        raise UnivalError("--format csv is only supported by the positivity command")


def _cmd_basis(args) -> int:
    _reject_csv(args)
    alg = build_algebra(args.n)
    if not 0 <= args.degree <= alg.top_degree:
        raise DegreeOutOfRange(f"degree must lie in 0..{alg.top_degree}, got {args.degree}")
    monomials = alg.basis(args.degree)
    if args.format == "json":
        payload = {"n": args.n, "degree": args.degree, "basis": json.loads(format_basis(monomials, "json"))}
        print(json.dumps(payload, indent=2))
    else:
        print(format_basis(monomials, args.format))
    return 0


def _cmd_reduce(args) -> int:
    _reject_csv(args)
    element = build_algebra(args.n).normal_form(poly_parse(args.poly))
    if args.format == "json":
        print(json.dumps({"n": args.n, "normal_form": str(element.poly)}, indent=2))
    else:
        print(format_poly(element.poly, args.format))
    return 0


def _cmd_mul(args) -> int:
    _reject_csv(args)
    alg = build_algebra(args.n)
    product = alg.normal_form(poly_parse(args.left)) * alg.normal_form(poly_parse(args.right))
    if args.format == "json":
        print(json.dumps({"n": args.n, "normal_form": str(product.poly)}, indent=2))
    else:
        print(format_poly(product.poly, args.format))
    return 0


def _cmd_matrix(args) -> int:
    _reject_csv(args)
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


def _cmd_kinematic(args) -> int:
    _reject_csv(args)
    if (args.n is None) == (args.so is None):
        raise UnivalError("exactly one of --n (unitary) or --so (orthogonal) is required")
    if args.so is not None:
        phi = SOAlgebra(args.so).normal_form(poly_parse(args.phi))
        tensor = so_kinematic_of(args.so, phi)
    else:
        phi = build_algebra(args.n).normal_form(poly_parse(args.phi))
        tensor = kinematic_of(args.n, phi)
    print(format_tensor(tensor, args.format))
    return 0


def _cmd_son(args) -> int:
    _reject_csv(args)
    print(format_tensor(so_kinematic(args.n, args.k), args.format))
    return 0


def _cmd_check(args) -> int:
    _reject_csv(args)
    if args.n_max < 1:
        raise UnivalError("--n-max must be >= 1")
    report = run_suite(args.n_max)
    print(format_report(report, "json" if args.format == "json" else "plain"))
    return 0 if report.ok else 2


def _cmd_positivity(args) -> int:
    if args.n_max < 1:
        raise UnivalError("--n-max must be >= 1")
    if args.format == "latex":
        raise UnivalError("the positivity scan supports plain, json, and csv output")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnivalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
