"""Result persistence: manifest, KSF1 fields, CSV tables, report.

A store is a directory with a fixed layout:

    manifest.json     resolved configuration echo (defaults materialized)
    summary.json      per-run scalar results and pass flags
    fields/*.ksf      binary field snapshots
    tables/*.csv      experiment tables
    report.md         rendered report

Everything written here is deterministic for a fixed configuration: no
timestamps, sorted JSON keys, fixed newline discipline, and floats in
their shortest round-trip form.  Re-running a command with the same
resolved configuration reproduces every byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import ksf
from .spectral import Field

MANIFEST_FORMAT = "hks-store-v1"


class StoreExistsError(RuntimeError):
    pass


def format_cell(x) -> str:
    """CSV cell: shortest round-trip form for floats, empty for None."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class ResultStore:
    def __init__(self, root):
        self.root = Path(root)
        self._outputs: list[str] = []

    @classmethod
    def create(cls, root, force: bool = False) -> "ResultStore":
        """Open a store at ``root``, refusing a non-empty directory unless
        ``force``.  Only the root is made here; ``fields/`` and ``tables/``
        are made on their first write, so a run that fails before writing
        leaves an empty directory that the next run can use."""
        root = Path(root)
        if root.exists() and any(root.iterdir()) and not force:
            raise StoreExistsError(
                f"output directory {root} is not empty; pass --force to reuse it")
        root.mkdir(parents=True, exist_ok=True)
        return cls(root)

    # -- writing ----------------------------------------------------------

    def write_field(self, name: str, field: Field) -> Path:
        path = self.root / "fields" / f"{name}.ksf"
        path.parent.mkdir(exist_ok=True)
        ksf.write_field(path, field)
        self._outputs.append(str(path.relative_to(self.root)))
        return path

    def write_table(self, name: str, header, rows) -> Path:
        """Write tables/<name>.csv; rows are sequences aligned with header."""
        path = self.root / "tables" / f"{name}.csv"
        path.parent.mkdir(exist_ok=True)
        lines = [",".join(header)]
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header {len(header)}")
            lines.append(",".join(format_cell(c) for c in row))
        path.write_text("\n".join(lines) + "\n")
        self._outputs.append(str(path.relative_to(self.root)))
        return path

    def write_summary(self, payload: dict) -> Path:
        path = self.root / "summary.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self._outputs.append("summary.json")
        return path

    def write_manifest(self, argv, config: dict) -> Path:
        payload = {
            "format": MANIFEST_FORMAT,
            "argv": list(argv),
            "config": config,
            "outputs": sorted(self._outputs),
        }
        path = self.root / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def write_report(self, text: str) -> Path:
        path = self.root / "report.md"
        path.write_text(text)
        return path

    # -- reading ----------------------------------------------------------

    def manifest(self) -> dict | None:
        path = self.root / "manifest.json"
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def summary(self) -> dict | None:
        path = self.root / "summary.json"
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def read_table(self, name: str):
        path = self.root / "tables" / f"{name}.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",") if lines else []
        return header, [line.split(",") for line in lines[1:]]
