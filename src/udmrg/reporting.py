"""Deterministic report serialization.

Reports regenerate byte-identically from the same configuration: floats are
rendered with ``repr`` (shortest round-trip form), JSON keys are sorted, CSV
uses the stdlib writer with ``\\n`` line endings, and nothing time- or
host-dependent enters the CSV/JSON payloads.  Run metadata that legitimately
varies (timestamps, digests) lives only in the separately written manifest.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np


def format_value(value: Any) -> str:
    """Render a cell deterministically; floats via shortest round-trip repr."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: cell types the CSV writer renders as :func:`format_value` does
_PLAIN_CELLS = frozenset((float, int, str))


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays into JSON-serializable builtins."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class ScanReport:
    """Tabular experiment output plus a summary block.

    ``attachments`` carries secondary tables (per-method point logs, grid
    search tables) emitted as sibling CSV files named after each attachment.
    """

    name: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    attachments: list["ScanReport"] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but the report has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def csv_bytes(self) -> bytes:
        """The rows as CSV, each cell as :func:`format_value` renders it.

        A cell of exactly ``float``, ``int`` or ``str`` goes to the writer as
        it is: the writer renders it as ``repr`` and ``str`` would.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([v if type(v) in _PLAIN_CELLS else format_value(v) for v in row]
                         for row in self.rows)
        return buf.getvalue().encode("utf-8")

    def summary_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "provenance": _plain(self.provenance),
            "summary": _plain(self.summary),
        }


def canonical_json(payload: Any) -> bytes:
    """Serialize with sorted keys and stable formatting."""
    return (json.dumps(_plain(payload), sort_keys=True, indent=2,
                       ensure_ascii=False) + "\n").encode("utf-8")


def write_report_csv(report: ScanReport, path: Path) -> Path:
    path = Path(path)
    path.write_bytes(report.csv_bytes())
    return path


def write_json(payload: Any, path: Path) -> Path:
    path = Path(path)
    path.write_bytes(canonical_json(payload))
    return path


def config_hash(config: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a configuration."""
    return hashlib.sha256(canonical_json(config)).hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
