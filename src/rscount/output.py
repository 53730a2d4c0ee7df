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

FORMATS = ("json", "csv", "markdown")


def render(command: str, result: dict, fmt: str, meta: dict | None = None) -> str:
    if fmt == "json":
        document = {"schema": SCHEMA_VERSION, "command": command, "result": result}
        if meta is not None:
            document["meta"] = meta
        return json.dumps(document, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(result)
    if fmt == "markdown":
        return _render_markdown(result)
    raise ValueError(f"unknown output format {fmt!r}")


def _tabular(result: dict) -> list[dict] | None:
    for key in ("rows", "checks"):
        value = result.get(key)
        if isinstance(value, list):
            return value
    return None


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


def _records(result: dict) -> list[dict]:
    rows = _tabular(result)
    if rows is not None:
        return [_flatten(row) for row in rows]
    return [_flatten(result)]


def _header(records: list[dict]) -> list[str]:
    header: list[str] = []
    for record in records:
        for key in record:
            if key not in header:
                header.append(key)
    return header


def _render_csv(result: dict) -> str:
    import csv  # only this format needs it
    records = _records(result)
    header = _header(records)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        writer.writerow([_cell(record[k]) if k in record else "" for k in header])
    return buffer.getvalue()


def _render_markdown(result: dict) -> str:
    records = _records(result)
    header = _header(records)
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for record in records:
        cells = [_cell(record[k]) if k in record else "" for k in header]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
