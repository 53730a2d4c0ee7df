"""End-to-end CLI tests: golden output, exit codes, formats.

Each file in tests/goldens/ is checked by ``test_golden_bytes`` against the
command line that ``conftest.GOLDENS`` lists for its stem, by the one rule of
``conftest.golden_case``, which reads the expected outcome from the file's
name.  The result goldens' JSON was generated from paper-table and oracle
literals, not from captured CLI output, so those files pin both the
byte-level schema and the numeric content.  The ``cli_*.json`` goldens are
captured CLI output: the stdout, stderr and exit code of help and
usage-error invocations.  So are the ``.csv`` and ``.md`` goldens and
``compute_k3_meta.json``.
"""

import argparse
import contextlib
import copy
import gc
import io
import json
import operator
import random
import shutil
import sys
from collections import Counter
from fractions import Fraction
from math import comb, prod
from pathlib import Path
from unittest import mock

import pytest
from conftest import (GOLDEN_FILES, GOLDENS, golden, golden_case, polynomial_suite_edge,
                      run_cli)
from hypothesis import given, settings
from hypothesis import strategies as st

import rscount
from rscount import charclass, cli, output, rsbounds, series, verify
from rscount.charclass import MAX_ESTIMATED_SECONDS, CompleteIntersection, char_number
from rscount.output import FORMATS
from rscount.rsbounds import THRESHOLD_DIGITS, hypersurface_char_number_closed_form


def golden_result(stem):
    """The result of a golden that test_golden_bytes ties to its command line;
    the tests that read it check that the goldens' figures agree with each
    other and with the bounds' formulas."""
    return json.loads(golden(f"{stem}.json"))["result"]


class TestComputeCommand:
    def test_k3_golden(self):
        k3 = golden_result("compute_k3")
        assert (k3["charnum"], k3["deduction"], k3["boundTotal"]) == ("-40", "2", "38")
        assert int(k3["boundTotal"]) == abs(int(k3["charnum"])) - int(k3["deduction"])
        assert int(k3["boundPlus"]) + int(k3["boundMinus"]) == int(k3["boundTotal"])
        assert k3["boundTotal"] == golden_result("table_calabi_yau_30")["rows"][0]["rsBound"]

    def test_non_spin_exits_2(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "no spin structure" in proc.stderr

    def test_fano_exits_2(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "2")
        assert proc.returncode == 2
        assert "fano" in proc.stderr and "theorem inapplicable" in proc.stderr

    def test_low_dimension_exits_2(self):
        proc = run_cli("compute", "--complex-dim", "1", "--degrees", "5")
        assert proc.returncode == 2

    def test_round_trip_matches_in_process_values(self):
        from rscount import (CompleteIntersection, a_hat_genus, char_number,
                             rs_index, rs_lower_bound)
        proc = run_cli("compute", "--complex-dim", "4", "--degrees", "6")
        document = json.loads(proc.stdout)
        assert document["schema"] == "rscount/1"
        result = document["result"]
        ci = CompleteIntersection(4, (6,))
        report = rs_lower_bound(ci)
        assert int(result["charnum"]) == char_number(ci) == report.charnum
        assert int(result["aHatGenus"]) == a_hat_genus(ci)
        assert int(result["rsIndexPlus"]) == rs_index(ci, "plus")
        assert int(result["boundTotal"]) == report.bound_total
        assert int(result["deduction"]) == report.parallel_spinor_deduction

    def test_determinism(self):
        args = ("compute", "--complex-dim", "2", "--degrees", "4")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("argv", [
        ("compute", "--complex-dim", "4", "--degrees", "6"),
        ("product", "--complex-dim", "2", "--degrees", "6", "--torus-dim", "1"),
    ])
    def test_each_number_is_computed_once(self, argv, monkeypatch, capsys):
        calls = Counter()
        koszul = charclass._koszul_coefficients

        def counted_koszul(*args):
            calls["koszul"] += 1
            return koszul(*args)
        monkeypatch.setattr(charclass, "_koszul_coefficients", counted_koszul)
        for name in ("char_number", "a_hat_genus", "_characteristic_numbers"):
            original = getattr(charclass, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            for module in (charclass, rsbounds, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert cli.main(list(argv)) == 0
        assert "rsIndexPlus" in capsys.readouterr().out
        # one Koszul sum serves both numbers
        assert calls == {"_characteristic_numbers": 1, "koszul": 1}

    def test_calls_leave_no_parser_or_objects_behind(self, capsys):
        # the collector, not main, frees each call's parser and its cycles.
        # argparse points each shared action of cli._COMMON at the group of
        # the latest parser it was added to, so one call's group lives until
        # the next call replaces it: a fixed number of objects, not a growing one
        lines = [["compute", "--complex-dim", "4", "--degrees", "6"],
                 ["product", "--complex-dim", "2", "--degrees", "4", "--torus-dim", "2"]]
        assert cli.main(lines[0]) == 0
        gc.collect()
        assert not any(isinstance(o, cli._ExitOneParser) for o in gc.get_objects())
        counts = []
        for call in range(2000):
            assert cli.main(lines[call % 2]) == 0
            if call % 200 == 199:
                capsys.readouterr()
                gc.collect()
                counts.append(len(gc.get_objects()))
        assert max(abs(count - counts[0]) for count in counts) <= 100, counts

    def test_many_equal_degrees(self, capsys):
        # 2^20 subsets of the degrees, but 40 distinct signed subset sums
        argv = ["compute", "--complex-dim", "8", "--degrees", *["2"] * 19, "3"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["degrees"][-1] == 3

    def test_many_distinct_subset_sums_match_the_series(self, capsys):
        # 2^14 signed subset sums at m = 4, within the Koszul sum's budget
        degrees = [2**k for k in range(1, 14)] + [2**14 - 1]
        assert cli.main(["compute", "--complex-dim", "4",
                         "--degrees", *map(str, degrees)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        charnum = 2 * prod(degrees) * series._integrand(4, degrees)[4]
        a_hat = prod(degrees) * series._pole_free_a_hat(4, degrees)[4]
        assert result["charnum"] == str(charnum)
        assert result["aHatGenus"] == str(a_hat)


@contextlib.contextmanager
def str_digit_limit(digits):
    """Sets the interpreter's int-to-string digit limit in this process."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestNumbersPastTheStringLimit:
    """From about m = 7200 the characteristic numbers pass 4300 digits, the
    interpreter's default limit on int-to-string conversion."""

    def test_decimal_text_equals_str(self):
        values = [0, 7, -7, 10**599, 10**600 - 1, 10**600, 10**5000,
                  -(10**5000) - 1, 3**20000, Fraction(10**4400),
                  Fraction(-(10**4400) - 3, 2**15000), Fraction(5, 2)]
        # 640 is the smallest limit other than none
        with str_digit_limit(640):
            texts = [cli._decimal(value) for value in values]
        with str_digit_limit(0):
            assert texts == [str(value) for value in values]

    @pytest.mark.parametrize("argv, degree", [
        (("compute", "--complex-dim", "7200", "--degrees", "7202"), 7202),
        (("search", "--complex-dim", "7200", "--threshold", "1"), 7204)])
    def test_cli_prints_them(self, argv, degree):
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        with str_digit_limit(0):
            charnum = int(json.loads(proc.stdout)["result"]["charnum"])
            assert len(str(charnum)) > 4300
        assert charnum == char_number(CompleteIntersection(7200, (degree,)))
        if degree == 7202:
            assert charnum == hypersurface_char_number_closed_form(7200)


class TestErrorReporting:
    def test_invalid_library_input_exits_1(self, capsys):
        assert cli.main(["compute", "--complex-dim", "0", "--degrees", "4"]) == 1
        assert "complex dimension" in capsys.readouterr().err

    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(ci):
            raise ValueError("internal failure")
        monkeypatch.setattr(cli, "rs_lower_bound", broken)
        with pytest.raises(ValueError, match="internal failure"):
            cli.main(["compute", "--complex-dim", "2", "--degrees", "4"])


class TestTableCommand:
    def test_calabi_yau_single_row(self):
        rows = golden_result("table_calabi_yau_30")["rows"]
        assert golden_result("table_calabi_yau_2")["rows"] == rows[:1]

    def test_invalid_ranges_exit_1(self):
        assert run_cli("table", "calabi-yau", "--max-m", "3").returncode == 1
        assert run_cli("table", "parallel-spinors", "--max-n", "0").returncode == 1
        assert run_cli("table", "parallel-spinors").returncode == 1
        assert run_cli("table", "unknown-table", "--max-n", "3").returncode == 1


class TestVerifyCommand:
    def test_symmetric_poly_odd_m_golden(self):
        result = golden_result("verify_symmetric_poly_3_2")
        assert result["checks"] == [{"check": "identically zero (odd m)", "pass": True}]
        assert result["allPass"] is True

    def test_symmetric_poly_even_m(self):
        proc = run_cli("verify", "symmetric-poly", "--m", "2", "--r", "3")
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["allPass"] is True
        names = [c["check"] for c in result["checks"]]
        assert "symmetric in the degrees" in names
        assert "specialization at (a,1,...,1) matches r=1" in names
        assert "matches char_number at integer degrees" in names

    def test_unknown_suite_exits_1(self):
        assert run_cli("verify", "bogus-suite", "--max-m", "4").returncode == 1

    def test_missing_parameters_exit_1(self):
        assert run_cli("verify", "closed-form").returncode == 1
        assert run_cli("verify", "closed-form", "--max-m", "5").returncode == 1
        assert run_cli("verify", "symmetric-poly", "--m", "2").returncode == 1

    @pytest.mark.parametrize("argv, named", [
        (("hypersurface-poly", "--m", "0"), "m"),
        (("symmetric-poly", "--m", "2", "--r", "0"), "r"),
        (("closed-form", "--max-m", "5"), "max_m"),
    ])
    def test_arguments_the_suite_rejects_exit_1(self, argv, named, capsys):
        assert cli.main(["verify", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and f"{named} must be" in err

    def test_failed_check_exits_1_with_its_row(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "hypersurface_char_number_closed_form",
                            lambda m: 0)
        assert cli.main(["verify", "closed-form", "--max-m", "4"]) == 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["allPass"] is False
        assert result["checks"] == [
            {"check": "char-number matches closed form (m=2)", "pass": False},
            {"check": "bound matches closed form (m=2)", "pass": True},
            {"check": "char-number matches closed form (m=4)", "pass": False},
            {"check": "bound matches closed form (m=4)", "pass": True}]


class TestTableAndSuiteFlags:
    # each table and suite refuses the flags of its command that it does not
    # take, before their values are checked or any work is done
    @pytest.mark.parametrize("argv, foreign", [
        (["table", "parallel-spinors", "--max-n", "2", "--max-m", "7"], "--max-m"),
        (["table", "calabi-yau", "--max-m", "4", "--max-n", "0"], "--max-n"),
        (["verify", "closed-form", "--max-m", "4", "--m", "3", "--r", "9"], "--m"),
        (["verify", "hypersurface-poly", "--m", "4", "--max-m", "3", "--r", "0"], "--max-m"),
        (["verify", "symmetric-poly", "--m", "2", "--r", "3", "--max-m", "2"], "--max-m"),
        (["verify", "torus-inequality", "--max-m", "10", "--r", "1"], "--r"),
    ], ids=["parallel-spinors", "calabi-yau", "closed-form", "hypersurface-poly",
            "symmetric-poly", "torus-inequality"])
    def test_a_foreign_flag_exits_1_naming_it(self, argv, foreign, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {argv[1]} does not take {foreign}\n")

    def test_a_missing_flag_is_named_first(self, capsys):
        assert cli.main(["verify", "symmetric-poly", "--m", "2", "--max-m", "2"]) == 1
        assert capsys.readouterr() == ("", "error: this command requires --r\n")


class TestSearchCommand:
    def test_threshold_1_golden(self):
        t1, t100 = golden_result("search_m2_t1"), golden_result("search_m2_t100")
        # the smallest even degree past m + 2 already exceeds both thresholds
        assert t1["degree"] == t100["degree"] == t1["m"] + 4
        assert abs(int(t1["charnum"])) > int(t100["threshold"])
        assert {**t1, "threshold": t100["threshold"]} == t100
        sextic = golden_result("product_m2_d6_k1")
        assert {key: sextic[key] for key in t1["report"]} == t1["report"]

    def test_odd_dimension_exits_1(self):
        proc = run_cli("search", "--complex-dim", "3", "--threshold", "1")
        assert proc.returncode == 1

    def test_invalid_threshold_exits_1(self):
        assert run_cli("search", "--complex-dim", "2", "--threshold", "0").returncode == 1

    @staticmethod
    def assert_minimal_degree(proc, m, threshold):
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        degree = result["degree"]
        charnum = char_number(CompleteIntersection(m, (degree,)))
        assert result["charnum"] == str(charnum)
        assert abs(charnum) > threshold
        assert abs(char_number(CompleteIntersection(m, (degree - 2,)))) <= threshold

    def test_threshold_10_to_30_returns_a_minimal_degree(self):
        proc = run_cli("search", "--complex-dim", "2", "--threshold", str(10**30))
        self.assert_minimal_degree(proc, 2, 10**30)

    def test_threshold_10_to_1000_at_large_m_returns_a_minimal_degree(self):
        proc = run_cli("search", "--complex-dim", "40", "--threshold", str(10**1000))
        self.assert_minimal_degree(proc, 40, 10**1000)

    def test_the_report_reuses_the_search_numbers(self, monkeypatch, capsys):
        # the answer a's largest binomial is C((3a + n - 1)/2, n), n = m + 1
        calls = Counter()

        def counted(x, n):
            calls[x, n] += 1
            return comb(x, n)
        monkeypatch.setattr(charclass, "comb", counted)
        assert cli.main(["search", "--complex-dim", "40", "--threshold", str(10**30)]) == 0
        degree = json.loads(capsys.readouterr().out)["result"]["degree"]
        assert calls[(3 * degree + 40) // 2, 41] == 1

    def test_threshold_digit_budget(self):
        largest = 10**THRESHOLD_DIGITS - 1
        proc = run_cli("search", "--complex-dim", "2", "--threshold", str(largest))
        self.assert_minimal_degree(proc, 2, largest)
        # one digit more, and 4300 digits, the most int() parses by default
        for digits in (THRESHOLD_DIGITS + 1, 4300):
            proc = run_cli("search", "--complex-dim", "2", "--threshold", "9" * digits)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert f"THRESHOLD_DIGITS = {THRESHOLD_DIGITS}" in proc.stderr
        # past that, argparse's int refuses the value before the search sees it
        proc = run_cli("search", "--complex-dim", "2", "--threshold", "9" * 4301)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "argument --threshold: invalid int value:" in proc.stderr


class TestProductCommand:
    def test_k3_times_two_torus_golden(self):
        product = golden_result("product_m2_d4_k2")
        k3 = golden_result("compute_k3")
        assert {key: product[key] for key in k3} == k3
        assert product["torusParallelSpinors"] == str(rsbounds.torus_parallel_spinors(2))
        assert int(product["productBound"]) == (int(k3["boundTotal"])
                                                * int(product["torusParallelSpinors"]))
        assert product["totalRealDimension"] == k3["n"] + 2

    def test_zero_torus_factor_keeps_base_bound(self):
        proc = run_cli("product", "--complex-dim", "2", "--degrees", "6",
                       "--torus-dim", "0")
        result = json.loads(proc.stdout)["result"]
        assert result["productBound"] == result["boundTotal"]
        assert result["totalRealDimension"] == result["n"]

    def test_inapplicable_base_exits_2(self):
        proc = run_cli("product", "--complex-dim", "2", "--degrees", "5",
                       "--torus-dim", "1")
        assert proc.returncode == 2

    def test_negative_torus_dim_exits_1(self):
        proc = run_cli("product", "--complex-dim", "2", "--degrees", "4",
                       "--torus-dim", "-1")
        assert proc.returncode == 1

    def test_negative_torus_dim_on_inapplicable_base_exits_1(self, capsys):
        # the torus dimension is invalid input; the base alone would exit 2
        assert cli.main(["product", "--complex-dim", "2", "--degrees", "5",
                         "--torus-dim", "-1"]) == 1
        assert "torus dimension" in capsys.readouterr().err


class TestInputBudgets:
    """The polynomial suites' edges and odd m past the live-sum budget; every
    other input that a limit decides is a row of tests/test_admission.py."""

    @pytest.mark.parametrize("argv, old_cap", [
        (("hypersurface-poly",), 130),
        (("symmetric-poly", "--r", "1"), 20),
        (("symmetric-poly", "--r", "2"), 20),
        (("symmetric-poly", "--r", "8"), 20),
        (("symmetric-poly", "--m", "2"), 8),
        (("symmetric-poly", "--m", "6"), 8),
    ], ids=["hypersurface-poly", "r=1", "r=2", "r=8", "m=2", "m=6"])
    def test_polynomial_suite_edges(self, argv, old_cap, capsys):
        # the cost model sets each edge: every check passes at the largest even
        # m, or the largest r, it admits, and the next is refused before any work
        walked, largest, step = polynomial_suite_edge(argv)
        assert largest >= old_cap  # every input the earlier hand-set caps admitted stays admitted
        assert cli.main(["verify", *argv, walked, str(largest)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["allPass"] is True
        assert cli.main(["verify", *argv, walked, str(largest + step)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"MAX_ESTIMATED_SECONDS = {MAX_ESTIMATED_SECONDS}" in err

    def test_odd_dimension_is_zero_past_the_live_sum_budget(self, capsys):
        # 2, 4, ..., 2^14: zero by parity before any estimate, where 800 and one more 2 is refused
        powers = [str(2**k) for k in range(1, 15)]
        assert cli.main(["compute", "--complex-dim", "801", "--degrees", *powers]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["spin"], result["charnum"]) == (True, "0")


class TestHelpText:
    def test_no_call_probes_the_terminal(self, monkeypatch, capsys):
        def probe(*args, **kwargs):
            raise AssertionError("the CLI probed the terminal")
        monkeypatch.setattr(shutil, "get_terminal_size", probe)
        assert cli.main(["compute", "--complex-dim", "2", "--degrees", "4"]) == 0
        assert capsys.readouterr().out == golden("compute_k3.json")
        with pytest.raises(SystemExit) as exited:
            cli.main(["search", "--help"])
        assert exited.value.code == 0
        assert "--threshold C" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (("--help",), 0),
        (("compute", "--help"), 0),
        (("compute", "--complex-dim", "2"), 1),
    ])
    def test_same_bytes_at_any_terminal_width(self, argv, code, monkeypatch):
        runs = []
        for columns in ("40", "200", None):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            proc = run_cli(*argv)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1] == runs[2]
        returncode, stdout, stderr = runs[0]
        assert returncode == code
        text = stdout if code == 0 else stderr
        assert text.startswith("usage: rscount")
        assert max(map(len, text.splitlines())) <= 78
        if code:
            assert stdout == "" and "required: --degrees" in stderr

    @staticmethod
    def every_command_in_full():
        """The reference parser: all five commands registered with -h, the
        output flags and their own arguments, whatever the command line."""
        shared = cli._ExitOneParser(add_help=False)
        shared.add_argument("--format", choices=FORMATS, default="json",
                            help="output format (default: json)")
        shared.add_argument("--quiet", action="store_true",
                            help="suppress the stdout payload; rely on exit codes")
        shared.add_argument("--meta", action="store_true",
                            help="attach tool metadata to JSON output")
        parser = cli._ExitOneParser(
            prog="rscount",
            description="Exact characteristic numbers of complete intersections "
                        "and the Rarita-Schwinger dimension bounds they imply.")
        commands = parser.add_subparsers(dest="command", required=True,
                                         parser_class=cli._ExitOneParser)
        compute = commands.add_parser(
            "compute", parents=[shared], help="bound report for one complete intersection")
        compute.add_argument("--complex-dim", type=int, required=True, metavar="M",
                             help="complex dimension m")
        compute.add_argument("--degrees", type=int, nargs="+", required=True,
                             metavar="A", help="degrees of the defining polynomials")
        compute.set_defaults(handler=cli._cmd_compute)
        table = commands.add_parser("table", parents=[shared], help="emit a reference table")
        table.add_argument("name", choices=("parallel-spinors", "calabi-yau"))
        table.add_argument("--max-n", type=int, metavar="N",
                           help="largest dimension n (parallel-spinors)")
        table.add_argument("--max-m", type=int, metavar="M",
                           help="largest complex dimension m (calabi-yau)")
        table.set_defaults(handler=cli._cmd_table)
        verify = commands.add_parser("verify", parents=[shared],
                                     help="run a verification suite")
        verify.add_argument("suite", choices=("hypersurface-poly", "symmetric-poly",
                                              "closed-form", "torus-inequality"))
        verify.add_argument("--max-m", type=int, metavar="M")
        verify.add_argument("--m", type=int, metavar="M")
        verify.add_argument("--r", type=int, metavar="R")
        verify.set_defaults(handler=cli._cmd_verify)
        search = commands.add_parser(
            "search", parents=[shared],
            help="smallest even degree whose hypersurface beats a threshold")
        search.add_argument("--complex-dim", type=int, required=True, metavar="M")
        search.add_argument("--threshold", type=int, required=True, metavar="C")
        search.set_defaults(handler=cli._cmd_search)
        product = commands.add_parser(
            "product", parents=[shared], help="bound for the product with a flat torus")
        product.add_argument("--complex-dim", type=int, required=True, metavar="M")
        product.add_argument("--degrees", type=int, nargs="+", required=True, metavar="A")
        product.add_argument("--torus-dim", type=int, required=True, metavar="K")
        product.set_defaults(handler=cli._cmd_product)
        return parser

    @staticmethod
    def outcome(argv):
        """How cli.main ends on ``argv`` (its return value or the code it
        exits with), and what it writes to stdout and stderr."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                end = ("return", cli.main(argv))
            except SystemExit as exc:
                end = ("exit", exc.code)
        return end, stdout.getvalue(), stderr.getvalue()

    TOKENS = st.lists(st.sampled_from([
        "compute", "table", "verify", "search", "product",
        "parallel-spinors", "calabi-yau", "hypersurface-poly", "symmetric-poly",
        "closed-form", "torus-inequality",
        "--complex-dim", "--degrees", "--threshold", "--torus-dim",
        "--max-n", "--max-m", "--m", "--r", "--format", "--quiet", "--meta",
        "2", "4", "-1", "csv", "-h", "--help", "--", "-x", "--he", "--form", "bogus",
        "--format=csv", "--complex-dim=2", "--deg", "--he=1",
    ]), max_size=9)
    # a complete line of each command, so that the tokens after it reach its
    # parser as often as not: both what it parses and what it leaves over
    COMPLETE = st.sampled_from([
        ["compute", "--complex-dim", "2", "--degrees", "4"],
        ["table", "calabi-yau", "--max-m", "2"],
        ["verify", "closed-form", "--max-m", "2"],
        ["search", "--complex-dim", "2", "--threshold", "1"],
        ["product", "--complex-dim", "2", "--degrees", "4", "--torus-dim", "1"],
    ])

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(TOKENS, st.builds(operator.add, COMPLETE, TOKENS)))
    def test_bytes_equal_those_with_every_command_in_full(self, argv):
        with mock.patch.object(cli, "_parse_args",
                               lambda argv: self.every_command_in_full().parse_args(argv)):
            expected = self.outcome(argv)
        assert self.outcome(argv) == expected

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_commands_own_parser_formats_as_with_every_command(self, command):
        # the reference adds -h and the output flags itself, not from cli._COMMON
        (subparsers,) = [action for action in self.every_command_in_full()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        reference, parser = subparsers.choices[command], cli._command_parser(command)
        assert parser.format_help() == reference.format_help()
        assert parser.format_usage() == reference.format_usage()


class TestParserBuilding:
    # each command's arguments, by destination
    FULL = {
        "compute": ["help", "format", "quiet", "meta", "complex_dim", "degrees"],
        "table": ["help", "format", "quiet", "meta", "name", "max_n", "max_m"],
        "verify": ["help", "format", "quiet", "meta", "suite", "max_m", "m", "r"],
        "search": ["help", "format", "quiet", "meta", "complex_dim", "threshold"],
        "product": ["help", "format", "quiet", "meta", "complex_dim", "degrees", "torus_dim"],
    }

    @staticmethod
    def arguments(parser):
        (subparsers,) = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
        return {name: [action.dest for action in subparser._actions]
                for name, subparser in subparsers.choices.items()}

    # a complete line of each command
    LEADING = {
        "compute": ["compute", "--complex-dim", "4", "--degrees", "6", "8"],
        "table": ["table", "calabi-yau", "--max-m", "4"],
        "verify": ["verify", "symmetric-poly", "--m", "3", "--r", "2"],
        "search": ["search", "--complex-dim", "2", "--threshold", "100"],
        "product": ["product", "--complex-dim", "2", "--degrees", "4", "--torus-dim", "1"],
    }

    @staticmethod
    def parsers_built(argv, monkeypatch):
        """The prog of each parser that cli.main builds on ``argv``."""
        progs = []
        init = cli._ExitOneParser.__init__

        def counted(parser, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, **kwargs)
        monkeypatch.setattr(cli._ExitOneParser, "__init__", counted)
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        return progs

    def test_the_top_level_parser_has_every_command_in_full(self):
        assert self.arguments(cli._build_parser()) == self.FULL

    @pytest.mark.parametrize("command", list(FULL))
    def test_a_commands_own_parser_has_exactly_its_arguments(self, command):
        # what parses a line that starts with its command
        parser = cli._command_parser(command)
        assert parser.prog == f"rscount {command}"
        assert [action.dest for action in parser._actions] == self.FULL[command]

    @pytest.mark.parametrize("command", list(FULL))
    def test_only_the_named_command_gets_its_arguments(self, command, monkeypatch, capsys):
        # a line that starts with its command builds that command's parser alone
        assert self.parsers_built(self.LEADING[command], monkeypatch) == [f"rscount {command}"]

    @pytest.mark.parametrize("argv", [
        *LEADING.values(),
        ["compute", "--complex-dim", "2", "--degrees", "4",
         "--format", "csv", "--quiet", "--meta"],
    ])
    def test_the_named_command_parses_as_with_every_command(self, argv):
        # its own parser gives what the top-level parser gives
        parser = cli._build_parser()
        args = vars(parser.parse_args(argv))
        assert set(args) == {*self.FULL[argv[0]], "command", "handler"} - {"help"}
        assert vars(cli._parse_args(argv)) == args

    @pytest.mark.parametrize("argv", [
        ["--quiet", "compute", "--complex-dim", "2", "--degrees", "4"],
        ["-x", "table", "calabi-yau", "--max-m", "2"],
        ["bogus", "search", "product"],
        ["-x", "verify", "table", "compute"],
    ])
    def test_the_first_command_named_has_exactly_its_arguments(self, argv, monkeypatch,
                                                               capsys):
        # on any other line, argparse hands what follows the first command
        # named to that command's parser and to no other, so that parser
        # alone decides what the line prints
        first = next(arg for arg in argv if arg in self.FULL)
        parsed = []
        parse = cli._ExitOneParser.parse_known_args

        def recorded(parser, *args):
            parsed.append(parser)
            return parse(parser, *args)
        monkeypatch.setattr(cli._ExitOneParser, "parse_known_args", recorded)
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        progs = [parser.prog for parser in parsed]
        if argv[0] == "bogus":
            # an invalid choice stops the line before any command
            assert progs == ["rscount"]
        else:
            assert progs == ["rscount", f"rscount {first}"]
            assert [action.dest for action in parsed[1]._actions] == self.FULL[first]

    @staticmethod
    def arguments_added(build, monkeypatch):
        """How many add_argument calls ``build()`` makes."""
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(container, *args, **kwargs):
            calls.append(args)
            return add_argument(container, *args, **kwargs)
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        build()
        return len(calls)

    @pytest.mark.parametrize("command, own", [
        ("compute", 2), ("table", 3), ("verify", 4), ("search", 2), ("product", 3)])
    def test_a_call_adds_only_its_commands_own_arguments(self, command, own, monkeypatch,
                                                         capsys):
        # -h and the output flags are built once, at import
        assert self.arguments_added(lambda: cli.main(self.LEADING[command]),
                                    monkeypatch) == own

    def test_the_top_level_parser_adds_its_help_and_each_commands_own(self, monkeypatch):
        assert self.arguments_added(cli._build_parser, monkeypatch) == 1 + 14

    def test_every_parser_shares_the_same_four_actions(self):
        shared = cli._COMMON._actions
        assert [action.dest for action in shared] == ["help", "format", "quiet", "meta"]
        (subparsers,) = [action for action in cli._build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        for command in self.FULL:
            for parser in (cli._command_parser(command), subparsers.choices[command]):
                assert len(parser._actions) == len(self.FULL[command])
                assert all(mine is common
                           for mine, common in zip(parser._actions[:4], shared, strict=True))

    @pytest.mark.parametrize("argv, built", [
        # the command's own parser
        (["compute", "--complex-dim", "2", "--degrees", "4", "--quiet"], 1),
        # the top-level parser and one per command, for any other line
        (["--quiet", "compute", "--complex-dim", "2", "--degrees", "4"], 6),
        # the command's own parser, then the top-level parser and one per
        # command to report the unrecognized argument
        (["compute", "--complex-dim", "2", "--degrees", "4", "-x"], 7),
        # any other line
        (["--help"], 6),
        (["bogus", "compute"], 6),
    ])
    def test_parsers_built_per_call(self, argv, built, monkeypatch, capsys):
        assert len(self.parsers_built(argv, monkeypatch)) == built


class TestGlobalFlags:
    def test_malformed_flags_exit_1(self):
        assert run_cli("compute", "--complex-dim", "abc", "--degrees", "4").returncode == 1
        assert run_cli("compute", "--degrees", "4").returncode == 1
        assert run_cli().returncode == 1
        assert run_cli("unknown-command").returncode == 1

    def test_quiet_suppresses_stdout(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "4", "--quiet")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_quiet_keeps_exit_codes(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "5", "--quiet")
        assert proc.returncode == 2

    def test_meta_flag_adds_provenance_outside_result(self):
        plain = json.loads(run_cli("compute", "--complex-dim", "2",
                                   "--degrees", "4").stdout)
        with_meta = json.loads(run_cli("compute", "--complex-dim", "2",
                                       "--degrees", "4", "--meta").stdout)
        assert with_meta["meta"]["tool"] == "rscount"
        assert with_meta["result"] == plain["result"]
        assert "meta" not in plain

    def test_meta_golden(self):
        document = json.loads(golden("compute_k3_meta.json"))
        assert document.pop("meta") == {"tool": "rscount", "version": rscount.__version__}
        assert document == json.loads(golden("compute_k3.json"))

    def test_csv_format(self):
        proc = run_cli("table", "calabi-yau", "--max-m", "4", "--format", "csv")
        assert proc.stdout == "m,rsBound,torusRS\n2,38,12\n4,850,112\n"

    def test_csv_single_record(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "4",
                       "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("m,degrees,n,spin,curvature,charnum")
        assert lines[1].startswith("2,4,4,true,calabi_yau,-40")

    def test_markdown_format(self):
        proc = run_cli("table", "parallel-spinors", "--max-n", "4",
                       "--format", "markdown")
        assert proc.stdout == ("| n | parallelSpinors |\n"
                               "| --- | --- |\n"
                               "| 1 | 0 |\n"
                               "| 2 | 0 |\n"
                               "| 3 | 0 |\n"
                               "| 4 | 2 |\n")

    def test_multi_degree_csv_cell(self):
        proc = run_cli("compute", "--complex-dim", "2", "--degrees", "2", "3",
                       "--format", "csv")
        assert proc.returncode == 0
        assert "2;3" in proc.stdout


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_bytes(name):
    """The golden's line, run as a user runs it, ends with the exit code,
    stdout and stderr that the golden's name and bytes give."""
    argv, expected = golden_case(name)
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_every_golden_line_has_a_file():
    assert {Path(name).stem for name in GOLDEN_FILES} == set(GOLDENS)


def test_calls_in_one_process_leave_no_state_behind():
    """cli.main, called in one process on every golden's command line, twice
    over and in a shuffled order, ends with each golden's exit code and writes
    its stdout and stderr, as the benchmark's in-process calls rely on."""
    calls = [golden_case(name) for name in GOLDEN_FILES] * 2
    random.Random(0).shuffle(calls)
    for argv, expected in calls:
        (_, code), stdout, stderr = TestHelpText.outcome(argv)
        assert (code, stdout, stderr) == expected, argv


# What parsing could change in an action of cli._COMMON, read at import,
# before any test has parsed a line.
_ACTION_ATTRIBUTES = ("option_strings", "dest", "default", "choices", "required",
                      "nargs", "const", "help")


def _shared_actions():
    return copy.deepcopy([{name: getattr(action, name) for name in _ACTION_ATTRIBUTES}
                          for action in cli._COMMON._actions])


_SHARED_AT_IMPORT = _shared_actions()


def test_calls_leave_the_shared_flags_as_they_were():
    """-h and the output flags are built once and shared by every parser:
    no call changes them, whatever flags it passes and however it ends."""
    for argv in (["compute", "--complex-dim", "2", "--degrees", "4", "--format", "csv"],
                 ["search", "--complex-dim", "2", "--threshold", "100", "--quiet", "--meta"],
                 ["--format", "markdown", "table", "calabi-yau", "--max-m", "2"],
                 ["--meta", "--quiet", "product", "--complex-dim", "2", "--degrees", "4",
                  "--torus-dim", "1"],
                 ["-h"], ["verify", "-h"], ["compute", "--help"],
                 ["compute", "--complex-dim", "2", "--degrees", "4", "--format", "xml"],
                 ["compute", "--complex-dim", "2"], ["verify", "closed-form", "-x"],
                 ["search", "--complex-dim", "2", "--threshold", "1", "extra"],
                 ["bogus"], []):
        TestHelpText.outcome(argv)
    assert _shared_actions() == _SHARED_AT_IMPORT
    args = cli._parse_args(["compute", "--complex-dim", "2", "--degrees", "4"])
    assert (args.format, args.quiet, args.meta) == ("json", False, False)


# JSON values as a result may hold them: strings with escapes, non-ASCII and
# control characters, integers past 64 bits, bools, and nested containers,
# empty ones included.
_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028𝄞a') | st.characters())
_JSON_VALUES = st.recursive(
    _JSON_TEXT | st.integers(-2**200, 2**200) | st.booleans(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(command=_JSON_TEXT,
       result=st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5),
       meta=st.none() | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=3))
def test_json_rendering_matches_json_dumps(command, result, meta):
    document = {"schema": output.SCHEMA_VERSION, "command": command, "result": result}
    if meta is not None:
        document["meta"] = meta
    expected = json.dumps(document, indent=2) + "\n"
    assert output.render(command, result, "json", meta) == expected
    assert output.render(command, result, "json", meta) == expected
