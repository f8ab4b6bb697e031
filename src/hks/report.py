"""Markdown report rendering from a result store.

The manifest's ``outputs`` is the store's one table of contents: the
report inlines every table it lists (for external plotting, no plotting
dependency here), lists its fields, and echoes the resolved
configuration.  The checks section lists the band checks that
:func:`hks.probe.checks` makes of the stored summary alone (the same
checks the CLI judged the run by), then every other summary entry but
``pass`` as ``- key: value`` in key order, and reduces the checks and the
stored pass flag to a single conjunction.
Missing pieces are listed rather than fatal: an output the manifest lists
but the disk lacks goes under Missing, and a partial store still renders.
Only a run that did not finish (no summary, or one holding ``error``)
reports "no results" and a missing ``tables/*.csv`` when it lists none.
"""

from __future__ import annotations

from . import probe
from .store import ResultStore

# Order in which known tables appear; unknown tables follow alphabetically.
_TABLE_ORDER = ("rates", "inflation", "jk", "commutator", "v0_profile",
                "lemmas", "diagnostics")


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


def _summary_section(summary) -> tuple[list[str], list[bool]]:
    lines = ["## Checks", ""]
    if not summary:
        lines += ["_no results: summary.json missing_", ""]
        return lines, []
    judged = probe.checks(summary)
    names = {c.name for c in judged} | {"pass"}
    lines += [f"- {c}" for c in judged]
    lines += [f"- {key}: {summary[key]}" for key in sorted(summary) if key not in names]
    flags = [c.passed for c in judged]
    if "pass" in summary:
        flags.append(bool(summary["pass"]))
    lines.append("")
    return lines, flags


def render_report(store: ResultStore) -> str:
    manifest = store.manifest()
    summary = store.summary()
    listed = manifest.get("outputs", []) if manifest else []
    missing = [p for p in dict.fromkeys(("manifest.json", "summary.json", *listed))
               if not (store.root / p).is_file()]
    present = [p for p in listed if p not in missing]
    names = sorted(p.removeprefix("tables/").removesuffix(".csv")
                   for p in present if p.startswith("tables/"))
    ordered = [n for n in _TABLE_ORDER if n in names]
    ordered += [n for n in names if n not in _TABLE_ORDER]
    fields = [p for p in present if p.startswith("fields/")]
    unfinished = not summary or "error" in summary

    lines = ["# Run report", ""]
    lines += _config_section(manifest)
    for name in ordered:
        lines += _table_section(store, name)
    if fields:
        lines += ["## Fields", "", *(f"- {path}" for path in fields), ""]
    elif not ordered and unfinished:
        lines += ["## Tables", "", "_no results: no tables present_", ""]
    check_lines, flags = _summary_section(summary)
    lines += check_lines

    if unfinished and not any(p.startswith(("tables/", "fields/")) for p in listed):
        missing.append("tables/*.csv")
    if missing:
        lines += ["## Missing", ""]
        lines += [f"- {m}" for m in missing]
        lines.append("")

    if flags:
        overall = all(flags)
        lines += [f"**Overall: {'PASS' if overall else 'FAIL'}**", ""]
    return "\n".join(lines)
