"""Command-line interface.

Subcommands: ``compute`` a bound report for one complete intersection,
``table`` to emit the parallel-spinor and Calabi-Yau tables, ``verify`` the
polynomial and closed-form identities, ``search`` for a degree with large
characteristic number, and ``product`` to bound products with flat tori.

Exit codes: 0 success, 1 usage errors and failed verifications, 2 for valid
inputs where the bound theorem does not apply (non-spin or Fano).  Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction
from math import factorial

from . import __version__
from .charclass import (CompleteIntersection, InvalidInputError,
                        char_number, char_number_polynomial)
from .output import FORMATS, render
from .rings import MultiPoly
from .rsbounds import (RSBoundReport, TheoremInapplicableError,
                       cy_hypersurface_bound_closed_form, exceeds_torus,
                       find_degree_exceeding,
                       hypersurface_char_number_closed_form,
                       max_parallel_spinors, product_bound, rs_lower_bound,
                       torus_parallel_spinors, torus_rs_dimension)


class _UsageError(Exception):
    """Semantically invalid command parameters (exit code 1)."""


# Decimal digits per divmod step in _decimal; below 640, the smallest limit
# sys.set_int_max_str_digits accepts other than 0 (no limit).
_CHUNK_DIGITS = 600


def _decimal(value: int | Fraction) -> str:
    """str(value) for an exact number, also past the interpreter's limit on
    int-to-string conversion (4300 digits by default), which stays in place
    so that parsing keeps its protection."""
    if isinstance(value, Fraction):
        numerator = _decimal(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{_decimal(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # over the limit
        pass
    sign, rest = ("-", -value) if value < 0 else ("", value)
    chunks = []
    while rest:
        rest, chunk = divmod(rest, 10 ** _CHUNK_DIGITS)
        chunks.append(chunk)
    return sign + str(chunks.pop()) + "".join(
        f"{chunk:0{_CHUNK_DIGITS}d}" for chunk in reversed(chunks))


class _ExitOneParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved here for inputs the
    # theorem does not cover, so usage errors exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default: json)")
    shared.add_argument("--quiet", action="store_true",
                        help="suppress the stdout payload; rely on exit codes")
    shared.add_argument("--meta", action="store_true",
                        help="attach tool metadata to JSON output")

    parser = _ExitOneParser(
        prog="rscount",
        description="Exact characteristic numbers of complete intersections "
                    "and the Rarita-Schwinger dimension bounds they imply.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_ExitOneParser)

    compute = commands.add_parser(
        "compute", parents=[shared],
        help="bound report for one complete intersection")
    compute.add_argument("--complex-dim", type=int, required=True, metavar="M",
                         help="complex dimension m")
    compute.add_argument("--degrees", type=int, nargs="+", required=True,
                         metavar="A", help="degrees of the defining polynomials")
    compute.set_defaults(handler=_cmd_compute)

    table = commands.add_parser(
        "table", parents=[shared], help="emit a reference table")
    table.add_argument("name", choices=("parallel-spinors", "calabi-yau"))
    table.add_argument("--max-n", type=int, metavar="N",
                       help="largest dimension n (parallel-spinors)")
    table.add_argument("--max-m", type=int, metavar="M",
                       help="largest complex dimension m (calabi-yau)")
    table.set_defaults(handler=_cmd_table)

    verify = commands.add_parser(
        "verify", parents=[shared], help="run a verification suite")
    verify.add_argument("suite", choices=("hypersurface-poly", "symmetric-poly",
                                          "closed-form", "torus-inequality"))
    verify.add_argument("--max-m", type=int, metavar="M")
    verify.add_argument("--m", type=int, metavar="M")
    verify.add_argument("--r", type=int, metavar="R")
    verify.set_defaults(handler=_cmd_verify)

    search = commands.add_parser(
        "search", parents=[shared],
        help="smallest even degree whose hypersurface beats a threshold")
    search.add_argument("--complex-dim", type=int, required=True, metavar="M")
    search.add_argument("--threshold", type=int, required=True, metavar="C")
    search.set_defaults(handler=_cmd_search)

    product = commands.add_parser(
        "product", parents=[shared],
        help="bound for the product with a flat torus")
    product.add_argument("--complex-dim", type=int, required=True, metavar="M")
    product.add_argument("--degrees", type=int, nargs="+", required=True, metavar="A")
    product.add_argument("--torus-dim", type=int, required=True, metavar="K")
    product.set_defaults(handler=_cmd_product)

    return parser


def _report_dict(report: RSBoundReport, include_index: bool) -> dict:
    ci = report.ci
    result = {
        "m": ci.m,
        "degrees": list(ci.degrees),
        "n": report.n,
        "spin": report.spin,
        "curvature": report.curvature.value,
        "charnum": _decimal(report.charnum),
    }
    if include_index:
        result["aHatGenus"] = _decimal(report.a_hat_genus)
        result["rsIndexPlus"] = _decimal(report.rs_index_plus)
    result["deduction"] = _decimal(report.parallel_spinor_deduction)
    result["boundPlus"] = _decimal(report.bound_plus)
    result["boundMinus"] = _decimal(report.bound_minus)
    result["boundTotal"] = _decimal(report.bound_total)
    return result


def _cmd_compute(args) -> tuple[dict, int]:
    ci = CompleteIntersection(args.complex_dim, tuple(args.degrees))
    report = rs_lower_bound(ci)
    return _report_dict(report, include_index=True), 0


def _cmd_table(args) -> tuple[dict, int]:
    if args.name == "parallel-spinors":
        if args.max_n is None:
            raise _UsageError("table parallel-spinors requires --max-n")
        if args.max_n < 1:
            raise _UsageError("--max-n must be >= 1")
        rows = [{"n": n, "parallelSpinors": _decimal(max_parallel_spinors(n))}
                for n in range(1, args.max_n + 1)]
        return {"name": "parallel-spinors", "maxN": args.max_n, "rows": rows}, 0
    if args.max_m is None:
        raise _UsageError("table calabi-yau requires --max-m")
    if args.max_m < 2 or args.max_m % 2:
        raise _UsageError("--max-m must be an even integer >= 2")
    rows = [{"m": m,
             "rsBound": _decimal(cy_hypersurface_bound_closed_form(m)),
             "torusRS": _decimal(torus_rs_dimension(2 * m))}
            for m in range(2, args.max_m + 1, 2)]
    return {"name": "calabi-yau", "maxM": args.max_m, "rows": rows}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    if args.suite == "closed-form":
        result = _verify_closed_form(_even_max_m(args))
    elif args.suite == "torus-inequality":
        result = _verify_torus_inequality(_even_max_m(args))
    elif args.suite == "hypersurface-poly":
        if args.m is None or args.m < 1:
            raise _UsageError("verify hypersurface-poly requires --m >= 1")
        result = _verify_hypersurface_poly(args.m)
    else:
        if args.m is None or args.m < 1 or args.r is None or args.r < 1:
            raise _UsageError("verify symmetric-poly requires --m >= 1 and --r >= 1")
        result = _verify_symmetric_poly(args.m, args.r)
    return result, 0 if result["allPass"] else 1


def _even_max_m(args) -> int:
    if args.max_m is None or args.max_m < 2 or args.max_m % 2:
        raise _UsageError(f"verify {args.suite} requires an even --max-m >= 2")
    return args.max_m


def _checked(checks: list[dict], name: str, passed: bool) -> None:
    checks.append({"check": name, "pass": bool(passed)})


def _verify_closed_form(max_m: int) -> dict:
    checks: list[dict] = []
    for m in range(2, max_m + 1, 2):
        ci = CompleteIntersection(m, (m + 2,))
        _checked(checks, f"char-number matches closed form (m={m})",
                 char_number(ci) == hypersurface_char_number_closed_form(m))
        _checked(checks, f"bound matches closed form (m={m})",
                 rs_lower_bound(ci).bound_total == cy_hypersurface_bound_closed_form(m))
    return {"suite": "closed-form", "maxM": max_m, "checks": checks,
            "allPass": all(c["pass"] for c in checks)}


def _verify_torus_inequality(max_m: int) -> dict:
    checks: list[dict] = []
    for m in range(2, max_m + 1, 2):
        _checked(checks, f"calabi-yau bound exceeds torus count (m={m})",
                 exceeds_torus(m))
    return {"suite": "torus-inequality", "maxM": max_m, "checks": checks,
            "allPass": all(c["pass"] for c in checks)}


def _verify_hypersurface_poly(m: int) -> dict:
    poly = char_number_polynomial(m, 1)
    checks: list[dict] = []
    if m % 2:
        _checked(checks, "identically zero (odd m)", not poly)
        leading = "0"
    else:
        leading_coefficient = poly.coefficient((m + 1,))
        expected = Fraction(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
        _checked(checks, "degree equals m+1", poly.degree == m + 1)
        _checked(checks, "leading coefficient matches closed form",
                 leading_coefficient == expected)
        leading = _decimal(leading_coefficient)
    return {"suite": "hypersurface-poly", "m": m, "degree": poly.degree,
            "leadingCoefficient": leading, "checks": checks,
            "allPass": all(c["pass"] for c in checks)}


def _verify_symmetric_poly(m: int, r: int) -> dict:
    poly = char_number_polynomial(m, r)
    checks: list[dict] = []
    if m % 2:
        _checked(checks, "identically zero (odd m)", not poly)
    else:
        base = char_number_polynomial(m, 1)
        a = MultiPoly.variable(0, 1)
        specialized = poly.evaluate([a] + [MultiPoly.constant(1, 1)] * (r - 1))
        _checked(checks, "symmetric in the degrees", poly.is_symmetric())
        _checked(checks, "degree in each variable equals m+1",
                 all(poly.variable_degree(i) == m + 1 for i in range(r)))
        _checked(checks, "specialization at (a,1,...,1) matches r=1",
                 specialized == base)
    return {"suite": "symmetric-poly", "m": m, "r": r, "checks": checks,
            "allPass": all(c["pass"] for c in checks)}


def _cmd_search(args) -> tuple[dict, int]:
    m = args.complex_dim
    if m < 2 or m % 2:
        raise _UsageError("search requires an even --complex-dim >= 2")
    if args.threshold < 1:
        raise _UsageError("--threshold must be >= 1")
    degree = find_degree_exceeding(m, args.threshold)
    report = rs_lower_bound(CompleteIntersection(m, (degree,)))
    result = {
        "m": m,
        "threshold": _decimal(args.threshold),
        "degree": degree,
        "charnum": _decimal(report.charnum),
        "report": _report_dict(report, include_index=False),
    }
    return result, 0


def _cmd_product(args) -> tuple[dict, int]:
    if args.torus_dim < 0:
        raise _UsageError("--torus-dim must be >= 0")
    ci = CompleteIntersection(args.complex_dim, tuple(args.degrees))
    report = rs_lower_bound(ci)
    result = _report_dict(report, include_index=True)
    result["torusDim"] = args.torus_dim
    result["torusParallelSpinors"] = _decimal(torus_parallel_spinors(args.torus_dim))
    result["productBound"] = _decimal(product_bound(report.bound_total, args.torus_dim))
    result["totalRealDimension"] = report.n + args.torus_dim
    return result, 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # The parser's actions and groups point back at it, so it dies only in a
    # cyclic collection.  Collect it now, while it is young: otherwise, when
    # main runs many times in one process, parsers that a collection caught
    # alive pile up in the old generation until a full collection.
    gc.collect(0)
    try:
        result, code = args.handler(args)
    except TheoremInapplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        meta = {"tool": "rscount", "version": __version__} if args.meta else None
        sys.stdout.write(render(args.command, result, args.format, meta))
    return code


if __name__ == "__main__":
    sys.exit(main())
