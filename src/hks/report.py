"""Markdown report rendering from a result store.

The report inlines every table (for external plotting, no plotting
dependency here), echoes the resolved configuration, lists the band
checks that :func:`hks.probe.checks` makes of the stored summary (the
same checks the CLI judged the run by), and reduces them and the stored
pass flag to a single conjunction.  Missing pieces are listed rather
than fatal: a partial store still renders.
"""

from __future__ import annotations

from . import probe
from .store import ResultStore

# Order in which known tables appear; unknown tables follow alphabetically.
_TABLE_ORDER = ("rates", "inflation", "jk", "commutator", "v0_profile",
                "lemmas", "norms", "diagnostics")


def _config_section(manifest) -> list[str]:
    lines = ["## Configuration", ""]
    if not manifest:
        lines += ["_no results: manifest.json missing_", ""]
        return lines
    cfg = manifest.get("config", {})
    lines.append("```")
    lines.append("command: " + " ".join(manifest.get("argv", [])))
    for key in sorted(cfg):
        lines.append(f"{key}: {cfg[key]}")
    lines.append("```")
    lines.append("")
    return lines


def _table_section(store: ResultStore, name: str) -> list[str]:
    header, rows = store.read_table(name)
    lines = [f"## Table: {name}", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for row in rows:
        lines.append("| " + " | ".join(c if c else " " for c in row) + " |")
    lines += ["", "Raw CSV for plotting:", "", "```csv",
              ",".join(header)]
    lines += [",".join(row) for row in rows]
    lines += ["```", ""]
    return lines


def _summary_section(summary, d: int) -> tuple[list[str], list[bool]]:
    lines = ["## Checks", ""]
    if not summary:
        lines += ["_no results: summary.json missing_", ""]
        return lines, []
    judged = probe.checks(summary, d)
    lines += [f"- {c}" for c in judged]
    flags = [c.passed for c in judged]
    if "c0" in summary:
        lines.append(f"- c0 = {summary['c0']!r}, delta = "
                     f"{summary.get('delta')!r}")
    if "kappa" in summary:
        lines.append(f"- kappa (peak norm growth factor) = "
                     f"{summary['kappa']:.6g}")
    if "eps0" in summary:
        lines.append(f"- eps0 = {summary['eps0']!r}")
    if "pass" in summary:
        flags.append(bool(summary["pass"]))
    lines.append("")
    return lines, flags


def render_report(store: ResultStore) -> str:
    manifest = store.manifest()
    summary = store.summary()
    names = store.table_names()
    ordered = [n for n in _TABLE_ORDER if n in names]
    ordered += [n for n in names if n not in _TABLE_ORDER]

    lines = ["# Run report", ""]
    lines += _config_section(manifest)
    if ordered:
        for name in ordered:
            lines += _table_section(store, name)
    else:
        lines += ["## Tables", "", "_no results: no tables present_", ""]
    d = manifest.get("config", {}).get("d", 1) if manifest else 1
    check_lines, flags = _summary_section(summary, d)
    lines += check_lines

    missing = [n for n in ("manifest.json", "summary.json")
               if (store.root / n).is_file() is False]
    if not ordered:
        missing.append("tables/*.csv")
    if missing:
        lines += ["## Missing", ""]
        lines += [f"- {m}" for m in missing]
        lines.append("")

    if flags:
        overall = all(flags)
        lines += [f"**Overall: {'PASS' if overall else 'FAIL'}**", ""]
    return "\n".join(lines)
