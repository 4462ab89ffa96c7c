"""Run reports and their deterministic CSV, JSON and SVG artifacts.

Every ``verify`` and ``experiment`` run ends in one :class:`RunReport`, whose
``write`` is the one writer of its artifacts.  A results key ending in
``passed`` is a gate, in nested dicts and lists alike; a run passes when all
its gates do, so its JSON verdict cannot disagree with the gates it lists.

Every CSV starts with a metadata block ('#'-prefixed lines) echoing the
configuration that determines the results (the fields an experiment's kind
reads, the options a verify suite reads) and the base seed (None for a suite
that draws nothing), so any output can be reproduced from its own header.  Floats are rendered with repr (shortest round-trip), which
keeps byte-identical output across runs and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Results of one run, its config echo and the verdict of its gates."""

    command: str
    kind: str
    config: dict
    results: dict
    wall_clock_seconds: object
    passed: bool = field(init=False)
    version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.passed = all(_gates(self.results))

    def write(self, out, stem: str, header, rows, svgs=None, reproducible: bool = False) -> None:
        """Write <stem>.csv (``rows`` under ``header``), <stem>.json and each <stem>_<name>.svg."""
        out = Path(out)
        write_csv(out / f"{stem}.csv", self.config, self.version, header, rows, reproducible)
        write_json(out / f"{stem}.json", asdict(self))
        for name, svg in (svgs or {}).items():
            (out / f"{stem}_{name}.svg").write_text(svg)


def _gates(node):
    """The value of every key ending in ``passed`` in nested dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from [bool(value)] if key.endswith("passed") else _gates(value)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _gates(item)


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
