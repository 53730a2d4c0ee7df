"""Command-line interface: parses arguments, calls the library, and renders
what it returns.  Subcommands: ``compute`` a bound report for one complete
intersection, ``table`` to emit the parallel-spinor and Calabi-Yau tables,
``verify`` to run a suite of ``rscount.verify``, ``search`` for a degree
with large characteristic number, and ``product`` to bound products with
flat tori.

Exit codes: 0 success, 1 usage errors and failed verifications, 2 for valid
inputs where the bound theorem does not apply (non-spin or Fano).  A usage
error is a flag argparse rejects, or an InvalidInputError: a missing or
foreign flag or a table range from this module, or input the library
rejects.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from gettext import gettext

from . import __version__
from .charclass import CompleteIntersection, InvalidInputError, _require_int
from .output import FORMATS, render
from .rsbounds import (RSBoundReport, TheoremInapplicableError,
                       cy_hypersurface_bound_closed_form, degree_search_report,
                       max_parallel_spinors, product_bound, rs_lower_bound,
                       torus_parallel_spinors, torus_rs_dimension)


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


class _FixedWidthFormatter(argparse.HelpFormatter):
    # A fixed width keeps help and usage text the same in any terminal, and
    # spares the shutil.get_terminal_size call that argparse otherwise makes
    # for every formatter: one per help or usage text, and one per added
    # argument, which happens once per command in a process.  78 is the
    # width argparse uses when stdout is not a terminal.
    def __init__(self, prog):
        super().__init__(prog, width=78)


class _ExitOneParser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_FixedWidthFormatter, **kwargs)

    # argparse exits 2 on bad flags; 2 is reserved here for inputs the
    # theorem does not cover, so usage errors exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _compute_arguments(parser):
    parser.add_argument("--complex-dim", type=int, required=True, metavar="M",
                        help="complex dimension m")
    parser.add_argument("--degrees", type=int, nargs="+", required=True,
                        metavar="A", help="degrees of the defining polynomials")
    parser.set_defaults(handler=_cmd_compute)


def _table_arguments(parser):
    parser.add_argument("name", choices=("parallel-spinors", "calabi-yau"))
    parser.add_argument("--max-n", type=int, metavar="N",
                        help="largest dimension n (parallel-spinors)")
    parser.add_argument("--max-m", type=int, metavar="M",
                        help="largest complex dimension m (calabi-yau)")
    parser.set_defaults(handler=_cmd_table)


def _verify_arguments(parser):
    parser.add_argument("suite", choices=("hypersurface-poly", "symmetric-poly",
                                          "closed-form", "torus-inequality"))
    parser.add_argument("--max-m", type=int, metavar="M")
    parser.add_argument("--m", type=int, metavar="M")
    parser.add_argument("--r", type=int, metavar="R")
    parser.set_defaults(handler=_cmd_verify)


def _search_arguments(parser):
    parser.add_argument("--complex-dim", type=int, required=True, metavar="M")
    parser.add_argument("--threshold", type=int, required=True, metavar="C")
    parser.set_defaults(handler=_cmd_search)


def _product_arguments(parser):
    parser.add_argument("--complex-dim", type=int, required=True, metavar="M")
    parser.add_argument("--degrees", type=int, nargs="+", required=True, metavar="A")
    parser.add_argument("--torus-dim", type=int, required=True, metavar="K")
    parser.set_defaults(handler=_cmd_product)


# Each command's help line and the function that adds its own arguments;
# -h and the output flags come from _COMMON.  A line that starts with its
# command is parsed by that command's parser alone, since argparse hands the
# command all that follows it.  Any other line, and one whose command leaves
# arguments over, is parsed by the top-level parser with every command in
# full.  Both take each command's arguments from its _command_parent, so
# after a command's first call no call adds an argument, and a call builds
# only its parser's shell: the benchmark's numeric workload ran 3655 jobs/s
# against 3145 when each call added its command's arguments (medians of ten
# 25-s runs each, 2-vCPU Xeon, CPython 3.11.7).  No parser is kept: one kept
# for the whole process would cost less again, but the benchmark keeps a
# sample per finished job, so its extra jobs would read as peak memory past
# the 5% bound (ROADMAP items 1a and 19).
_COMMANDS = {
    "compute": ("bound report for one complete intersection", _compute_arguments),
    "table": ("emit a reference table", _table_arguments),
    "verify": ("run a verification suite", _verify_arguments),
    "search": ("smallest even degree whose hypersurface beats a threshold",
               _search_arguments),
    "product": ("bound for the product with a flat torus", _product_arguments)}


# -h, in argparse's own words, and the output flags: built once, at import,
# and shared through ``parents`` by every command's parent, and so by every
# parser, whose actions are these same objects.  Parsing reads them and
# never changes them.
_COMMON = argparse.ArgumentParser(add_help=False, formatter_class=_FixedWidthFormatter)
_COMMON.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                     help=gettext("show this help message and exit"))
_COMMON.add_argument("--format", choices=FORMATS, default="json",
                     help="output format (default: json)")
_COMMON.add_argument("--quiet", action="store_true",
                     help="suppress the stdout payload; rely on exit codes")
_COMMON.add_argument("--meta", action="store_true",
                     help="attach tool metadata to JSON output")


@functools.cache
def _command_parent(command: str) -> argparse.ArgumentParser:
    """Every argument of ``command`` and its handler, built on the command's
    first call and kept; both parser shapes take them through ``parents``,
    and parsing never changes them."""
    parent = argparse.ArgumentParser(add_help=False, parents=[_COMMON],
                                     formatter_class=_FixedWidthFormatter)
    _COMMANDS[command][1](parent)
    return parent


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, as the top-level parser builds it."""
    return _ExitOneParser(prog=f"rscount {command}", add_help=False,
                          parents=[_command_parent(command)])


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every command in full."""
    parser = _ExitOneParser(
        prog="rscount",
        description="Exact characteristic numbers of complete intersections "
                    "and the Rarita-Schwinger dimension bounds they imply.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_ExitOneParser)
    for name, (help_text, _) in _COMMANDS.items():
        subparsers.add_parser(name, help=help_text, add_help=False,
                              parents=[_command_parent(name)])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of the command line ``argv``, with its ``command``."""
    if argv and argv[0] in _COMMANDS:
        # argparse's subcommand action makes this same call on the command's
        # parser, so -h, usage errors and defaults are the same
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # any other line; for a leading one, the top-level parser reports what
    # is left over as unrecognized
    return _build_parser().parse_args(argv)


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
    report = rs_lower_bound(CompleteIntersection(args.complex_dim, tuple(args.degrees)))
    return _report_dict(report, include_index=True), 0


# Largest --max-n and --max-m of table: printing takes time superlinear in
# the range, since the numbers grow with the row.  Each limit takes under 1 s.
TABLE_MAX_N = 20000
TABLE_MAX_M = 2500


def _flag_values(args, name: str, *flags: str) -> list:
    """The values of ``flags``, all of which table or suite ``name`` takes and
    requires; it refuses any other flag of table and verify."""
    given = {flag: getattr(args, flag[2:].replace("-", "_"), None)
             for flag in ("--max-n", "--max-m", "--m", "--r")}
    for flag in flags:
        if given[flag] is None:
            raise InvalidInputError(f"this command requires {flag}")
    for flag, value in given.items():
        if value is not None and flag not in flags:
            raise InvalidInputError(f"{name} does not take {flag}")
    return [given[flag] for flag in flags]


def _cmd_table(args) -> tuple[dict, int]:
    if args.name == "parallel-spinors":
        (max_n,) = _flag_values(args, args.name, "--max-n")
        _require_int(max_n, "--max-n", 1, TABLE_MAX_N, "TABLE_MAX_N")
        rows = [{"n": n, "parallelSpinors": _decimal(max_parallel_spinors(n))}
                for n in range(1, max_n + 1)]
        return {"name": "parallel-spinors", "maxN": max_n, "rows": rows}, 0
    (max_m,) = _flag_values(args, args.name, "--max-m")
    _require_int(max_m, "--max-m", 2, TABLE_MAX_M, "TABLE_MAX_M", even=True)
    rows = [{"m": m,
             "rsBound": _decimal(cy_hypersurface_bound_closed_form(m)),
             "torusRS": _decimal(torus_rs_dimension(2 * m))}
            for m in range(2, max_m + 1, 2)]
    return {"name": "calabi-yau", "maxM": max_m, "rows": rows}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    from . import verify  # only this command needs it
    if args.suite == "hypersurface-poly":
        (m,) = _flag_values(args, args.suite, "--m")
        degree, leading, checks = verify.hypersurface_poly(m)
        result = {"m": m, "degree": degree, "leadingCoefficient": _decimal(leading)}
    elif args.suite == "symmetric-poly":
        m, r = _flag_values(args, args.suite, "--m", "--r")
        checks, result = verify.symmetric_poly(m, r), {"m": m, "r": r}
    else:
        (max_m,) = _flag_values(args, args.suite, "--max-m")
        suite = verify.closed_form if args.suite == "closed-form" else verify.torus_inequality
        checks, result = suite(max_m), {"maxM": max_m}
    all_pass = all(passed for _, passed in checks)
    rows = [{"check": name, "pass": passed} for name, passed in checks]
    result = {"suite": args.suite, **result, "checks": rows, "allPass": all_pass}
    return result, 0 if all_pass else 1


def _cmd_search(args) -> tuple[dict, int]:
    report = degree_search_report(args.complex_dim, args.threshold)
    return {
        "m": args.complex_dim,
        "threshold": _decimal(args.threshold),
        "degree": report.ci.degrees[0],
        "charnum": _decimal(report.charnum),
        "report": _report_dict(report, include_index=False),
    }, 0


def _cmd_product(args) -> tuple[dict, int]:
    # before the bound, so that a bad torus dimension exits 1 on any base
    torus_spinors = torus_parallel_spinors(args.torus_dim)
    report = rs_lower_bound(CompleteIntersection(args.complex_dim, tuple(args.degrees)))
    result = _report_dict(report, include_index=True)
    result["torusDim"] = args.torus_dim
    result["torusParallelSpinors"] = _decimal(torus_spinors)
    result["productBound"] = _decimal(product_bound(report.bound_total, args.torus_dim))
    result["totalRealDimension"] = report.n + args.torus_dim
    return result, 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        result, code = args.handler(args)
    except (InvalidInputError, TheoremInapplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TheoremInapplicableError) else 1
    if not args.quiet:
        meta = {"tool": "rscount", "version": __version__} if args.meta else None
        sys.stdout.write(render(args.command, result, args.format, meta))
    return code


if __name__ == "__main__":
    sys.exit(main())
