"""Committed store digests: the exit code, stdout and every store file of
eleven small-geometry commands, against ``golden_stores.json``.

The digests are kept per environment (numpy version and machine), because
the last bits of an FFT may differ between them; on an environment with no
recorded digests the test skips.  Paths under the scratch directory are
masked, in ``manifest.json`` (the store path, and evolve's input path) and
in the ``store:`` line of stdout.  A rewritten digest is a store change.

Record the digests of the current environment (and only those) with

    PYTHONPATH=src python tests/test_golden_stores.py
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hks.cli import dispatch

GOLDEN = Path(__file__).with_name("golden_stores.json")
TMP = "{tmp}"  # stands for the scratch directory in the commands and the masks


def environment() -> str:
    return f"numpy {np.__version__} {platform.machine()}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(commands: dict, tmp: Path) -> dict:
    """Per command, run in order under ``tmp``: the exit code, the sha256 of
    stdout with its ``store:`` line masked, and the sha256 of each file of
    the store ``tmp/<name>``, with ``tmp`` masked in ``manifest.json``."""
    out = {}
    for name, argv in commands.items():  # argv: one string, split on spaces
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dispatch([a.replace(TMP, str(tmp)) for a in argv.split()])
        stdout = "".join("store: <masked>\n" if line.startswith("store: ") else line
                         for line in buf.getvalue().splitlines(keepends=True))
        files = {}
        root = tmp / name
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = data.replace(str(tmp).encode(), TMP.encode())
            files[path.relative_to(root).as_posix()] = _sha256(data)
        out[name] = {"exit": rc, "stdout": _sha256(stdout.encode()), "files": files}
    return out


def test_stores_match_committed_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = golden["digests"].get(environment())
    if expected is None:
        pytest.skip(f"no store digests recorded for {environment()!r} "
                    f"(recorded: {', '.join(sorted(golden['digests']))})")
    computed = digests(golden["commands"], tmp_path)
    mismatches = []
    for name in golden["commands"]:
        want, got = expected[name], computed[name]
        for key in ("exit", "stdout"):
            if want[key] != got[key]:
                mismatches.append(f"{name}: {key}: expected {want[key]}, computed {got[key]}")
        for path in sorted(set(want["files"]) | set(got["files"])):
            a, b = want["files"].get(path), got["files"].get(path)
            if a != b:
                mismatches.append(f"{name}: {path}: expected {a}, computed {b}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        golden["digests"][environment()] = digests(golden["commands"], Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(golden['commands'])} commands for {environment()!r}")
