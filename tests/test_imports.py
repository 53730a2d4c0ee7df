"""Every module of the package uses each name it imports, except on lines
marked ``# noqa``: an import left behind by a deleted call is dead code.
No other module imports ``rscount.series``, the tests' oracle, and it
imports nothing from the package, so that the oracle shares no code with
the production routes.
No module imports ``dataclasses`` or ``typing``, and importing the CLI
loads neither them nor what only one command needs, and builds only the
arguments every command shares, which keeps a cold call's start-up short."""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "rscount").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, with their lines;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_finds_an_unused_import_and_honours_noqa():
    source = ("from fractions import Fraction\n"
              "from math import comb, prod\n"
              "import json  # noqa\n"
              "import os.path\n"
              "__all__ = ['prod']\n"
              "x = os.path.sep\n")
    assert unused_imports(source) == ["1: Fraction", "2: comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_paths(source: str) -> set[str]:
    """The dotted path of every module and name that ``source``, a module of
    the package, imports: ``from . import series`` gives ``rscount`` and
    ``rscount.series``."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rscount" if node.level else "", node.module]))
            paths |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return paths


def test_finds_each_way_of_importing_a_module():
    for source in ("from .series import _integrand\n",
                   "from . import rings, series\n",
                   "import rscount.series as oracle\n",
                   "from rscount import series\n"):
        assert "rscount.series" in imported_paths(source)
    assert "rscount.series" not in imported_paths("from .rings import MultiPoly\n")


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "series.py"],
                         ids=lambda path: path.name)
def test_shares_no_code_with_the_series_oracle(path):
    assert "rscount.series" not in imported_paths(path.read_text())


def test_the_series_oracle_imports_nothing_from_the_package():
    paths = imported_paths((REPO_ROOT / "src" / "rscount" / "series.py").read_text())
    assert not {path for path in paths if path.split(".")[0] == "rscount"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_neither_dataclasses_nor_typing(path):
    modules = {name.split(".")[0] for name in imported_paths(path.read_text())}
    assert modules.isdisjoint({"dataclasses", "typing"})


def test_importing_the_cli_loads_no_slow_or_single_command_module():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = ("import sys, rscount.cli; print(' '.join(sorted(name for name in "
            "('dataclasses', 'inspect', 'typing', 'rscount.verify', 'csv') "
            "if name in sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == []


def test_import_adds_no_argument_and_the_first_call_adds_each_once():
    # the arguments each add_argument call names in a fresh interpreter: at
    # import, then on a first compute line, which builds the parser, then on
    # a second
    code = textwrap.dedent("""
        import argparse, contextlib, io
        added, add_argument = [], argparse._ActionsContainer.add_argument
        def counted(container, *args, **kwargs):
            added.append(args[0])
            return add_argument(container, *args, **kwargs)
        argparse._ActionsContainer.add_argument = counted
        import rscount.cli
        print(*added)
        for _ in range(2):
            added.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                rscount.cli.main(["compute", "--complex-dim", "2", "--degrees", "4"])
            print(*added)
        """)
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    shared = "-h --format --quiet --meta"
    assert proc.stdout.splitlines() == [
        "",
        " ".join(["-h",
                  shared, "--complex-dim --degrees",
                  shared, "name --max-n --max-m",
                  shared, "suite --max-m --m --r",
                  shared, "--complex-dim --threshold",
                  shared, "--complex-dim --degrees --torus-dim"]),
        ""]
