"""Deterministic CSV and JSON artifact writers.

Every file starts with a metadata block ('#'-prefixed lines) echoing the
full configuration and base seed, so any output can be reproduced from its
own header.  Floats are rendered with repr (shortest round-trip), which
keeps byte-identical output across runs and worker counts.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

SCHEMA_VERSION = 1


def format_cell(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def metadata_lines(config: dict, version: str, reproducible: bool) -> list:
    lines = [
        f"# rmtgaps={version}",
        f"# config={config_json(config)}",
        f"# base_seed={config.get('base_seed')}",
    ]
    if not reproducible:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def write_csv(path, config: dict, version: str, header, rows, reproducible: bool) -> None:
    """Write line by line, so ``rows`` may be a generator that is never held whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for line in metadata_lines(config, version, reproducible) + [",".join(header)]:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_jsonify) + "\n")


def _jsonify(value):
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")
