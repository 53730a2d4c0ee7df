"""The benchmark's traced run wraps rscount functions found by name; every
name it lists must still resolve, or that run fails with AttributeError."""

import importlib
import importlib.util

from conftest import REPO_ROOT


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("spans", REPO_ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves():
    missing = []
    for name, (module, attribute, _gauge) in _traced().items():
        owner = importlib.import_module(f"rscount.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: rscount.{module}.{attribute}")
    assert missing == []
