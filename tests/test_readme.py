"""README's CLI examples must run: each ``rscount ...`` line of the shell
block in its CLI section exits 0."""

import re
import shlex

import pytest
from conftest import REPO_ROOT, run_cli


def _cli_examples() -> list[str]:
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("rscount ")]


def test_the_cli_section_has_examples():
    assert len(_cli_examples()) >= 5


@pytest.mark.parametrize("line", _cli_examples())
def test_example_exits_0(line):
    proc = run_cli(*shlex.split(line)[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
