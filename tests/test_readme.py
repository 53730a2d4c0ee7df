"""README's examples must run: each ``rscount ...`` line of the shell block
in its CLI section exits 0, each command of its paper table prints the
golden beside it, and the Python block of its Library section gives the
values its comments state.  The budgets and the polynomial suites' edges its
CLI section quotes are the library's."""

import importlib
import re
import shlex

import pytest
from conftest import GOLDEN_DIR, REPO_ROOT, polynomial_suite_edge, run_cli

from rscount import verify
from rscount.charclass import char_number


def _section(title: str) -> str:
    readme = (REPO_ROOT / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_examples() -> list[str]:
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("rscount ")]


def test_the_cli_section_has_examples():
    assert len(_cli_examples()) >= 5


@pytest.mark.parametrize("line", _cli_examples())
def test_example_exits_0(line):
    proc = run_cli(*shlex.split(line)[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _paper_table_commands() -> list[tuple[str, str]]:
    """(command, golden) pairs of the paper table, in the order they appear
    in each row."""
    pairs = []
    for row in re.findall(r"^\|(?!---)(.*)\|$", _section("Reproducing the paper"),
                          re.MULTILINE)[1:]:
        commands = re.findall(r"`(rscount [^`]*)`", row)
        goldens = re.findall(r"`tests/goldens/([^`]*)`", row)
        assert len(commands) == len(goldens) > 0, row
        pairs += zip(commands, goldens)
    return pairs


@pytest.mark.parametrize("line, name", _paper_table_commands())
def test_paper_table_command_prints_its_golden(line, name):
    proc = run_cli(*shlex.split(line)[1:])
    assert (proc.returncode, proc.stdout) == (0, (GOLDEN_DIR / name).read_text())


def test_budgets_quoted_in_the_cli_section_are_the_library_values():
    """Each `module.NAME` = value, with 10^k and c·10^k read as powers, and
    decimals such as 1.8 as floats; and the quoted names are exactly the
    public upper-case constants that charclass, rsbounds, verify and cli
    assign at their top level."""
    section = _section("CLI")
    quoted = re.findall(r"`(\w+)\.([A-Z][A-Z_]*)` =\s+(?:(\d+)·)?(10\^)?(\d+(?:\.\d+)?)",
                        section)
    assert re.findall(r"`[A-Z][A-Z_]*` = \d", section) == []  # each name has its module
    for module, name, factor, power, number in quoted:
        value = int(factor or 1) * (10 ** int(number) if power else float(number))
        assert getattr(importlib.import_module(f"rscount.{module}"), name) == value, name
    defined = {(module, name) for module in ("charclass", "rsbounds", "verify", "cli")
               for name in re.findall(r"^([A-Z][A-Z_]*) =", (
                   REPO_ROOT / "src" / "rscount" / f"{module}.py").read_text(), re.MULTILINE)}
    assert {(module, name) for module, name, *_ in quoted} == defined


def _quoted_polynomial_suite_edges() -> dict[tuple[str, ...], int]:
    """{argv: largest} from hypersurface-poly's "largest even `--m` is N",
    and symmetric-poly's "largest even `--m` is N at `--r R`, ..." and
    "largest `--r` is N at `--m M`, ...", with argv as polynomial_suite_edge
    takes it."""
    section = " ".join(_section("CLI").split())
    hypersurface = re.search(r"`hypersurface-poly --m` has .*? largest even `--m` is (\d+)\.",
                             section)
    quoted = {("hypersurface-poly",): int(hypersurface.group(1))}
    for walked, edges in re.findall(r"Its largest (?:even )?`(--[mr])` is (.*?)[.;]", section):
        for largest, fixed, value in re.findall(r"(\d+) at `(--[mr]) (\d+)`", edges):
            assert fixed != walked
            quoted[("symmetric-poly", fixed, value)] = int(largest)
    return quoted


def test_polynomial_suite_edges_quoted_in_the_cli_section_are_the_cost_models():
    """Each quoted edge against the edge the cost model admits."""
    quoted = _quoted_polynomial_suite_edges()
    assert len(quoted) == 10
    for argv, largest in quoted.items():
        assert polynomial_suite_edge(argv)[1] == largest, argv


def test_char_number_admits_symmetric_poly_points_at_the_quoted_edges():
    """symmetric-poly prices char_number at each of its three integer points
    at a_1 + ... + a_r + 1 >= r + 1 signed subset sums, which covers the
    budget's r + 1 floor and every live sum, so at each quoted edge none is
    refused."""
    for argv, largest in _quoted_polynomial_suite_edges().items():
        if argv[0] == "symmetric-poly":
            m, r = (largest, int(argv[2])) if argv[1] == "--r" else (int(argv[2]), largest)
            for ci in verify._integer_points(m, r):
                char_number(ci)  # InvalidInputError if the budget refused it


def test_library_example_gives_its_commented_values(capsys):
    """Runs the block statement by statement; a line ``code  # value``
    must print value, or evaluate to something whose str is value."""
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.DOTALL).group(1)
    namespace, pending, checked = {}, [], []
    for line in block.splitlines():
        commented = re.fullmatch(r"(.*?)\s+# (.*)", line)
        if not commented:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        code, value = commented.groups()
        if code.startswith("print("):
            exec(code, namespace)
            shown = capsys.readouterr().out.rstrip("\n")
        else:
            shown = str(eval(code, namespace))
        checked.append((shown, value))
    assert [value for _, value in checked] == ["-40", "38", "-5/6*a1^3 + 10/3*a1", "-160"]
    for shown, value in checked:
        assert shown == value
