"""Deterministic rendering of command results as JSON, CSV, or Markdown.

Quantities that can outgrow 64-bit integers arrive pre-serialized as decimal
strings; rendering never reformats numbers.  Key order is fixed by the
command layer and JSON is emitted with stable indentation, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import io
import json

SCHEMA_VERSION = "rscount/1"


def _flatten(record: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _table(result: dict) -> list[list[str]]:
    """The header row, then one row of cells per record.  The records are the
    result's ``rows`` or ``checks`` list, or else the result itself; nested
    dicts become dotted columns, in the order their keys first appear."""
    records = [result]
    for key in ("rows", "checks"):
        if isinstance(result.get(key), list):
            records = result[key]
            break
    records = [_flatten(record) for record in records]
    header = list(dict.fromkeys(key for record in records for key in record))
    return [header] + [[_cell(record[key]) if key in record else "" for key in header]
                       for record in records]


def _render_csv(result: dict) -> str:
    import csv  # only this format needs it
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_table(result))
    return buffer.getvalue()


def _render_markdown(result: dict) -> str:
    header, *rows = _table(result)
    return "".join("| " + " | ".join(cells) + " |\n"
                   for cells in [header, ["---"] * len(header), *rows])


# Every format but JSON prints the result as a table.
_TABULAR = {"csv": _render_csv, "markdown": _render_markdown}

FORMATS = ("json", *_TABULAR)


def render(command: str, result: dict, fmt: str, meta: dict | None = None) -> str:
    if fmt == "json":
        document = {"schema": SCHEMA_VERSION, "command": command, "result": result}
        if meta is not None:
            document["meta"] = meta
        return json.dumps(document, indent=2) + "\n"
    if fmt not in _TABULAR:
        raise ValueError(f"unknown output format {fmt!r}")
    return _TABULAR[fmt](result)
