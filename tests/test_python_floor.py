"""The oldest Python that ``pyproject.toml`` admits is one that CI runs:
``requires-python`` names the lowest ``python-version`` of the tier-1
workflow, so no admitted interpreter goes untested."""

import ast
import re
import tomllib

from conftest import REPO_ROOT


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_the_floor_is_the_lowest_version_ci_runs():
    with open(REPO_ROOT / "pyproject.toml", "rb") as file:
        requires = tomllib.load(file)["project"]["requires-python"]
    assert requires.startswith(">=")
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (listed,) = re.findall(r"^\s*python-version:\s*(\[.*\])\s*$", workflow, re.MULTILINE)
    versions = ast.literal_eval(listed)
    assert _version(requires[2:]) == min(map(_version, versions))
