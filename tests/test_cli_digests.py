"""Pin the exact stdout bytes of the CLI reports.

tests/cli_digests.json holds, for each command line below, the exit code and
the sha256 of stdout, recorded before the code that produces them was
refactored.  Any change in a report's bytes fails here.  To record the
command lines added to command_lines():

    PYTHONPATH=src python tests/test_cli_digests.py

It runs every command line, adds a record for each new one and keeps the
others as they are.  If a recorded digest no longer matches, it prints that
command line, writes nothing and exits 1.  After a deliberate report change
(and only then), delete the stale record by hand and run it again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from conftest import BATTERY

from qgrass.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")
ROOT = Path(__file__).resolve().parent.parent
# a band module: every built-in is a string module
BAND = "tests/inputs/a21-band-2.json"
# vertex names with non-ASCII, quote and backslash characters, which become
# keys of every point's spaces
NAMES = "tests/inputs/kronecker-names.json"


def command_lines() -> list[list[str]]:
    lines = [
        [command, "--builtin", name, "--q", "2,3"]
        for command in ("census", "tube", "check", "chi")
        for name in [*BATTERY, "kronecker-preproj:1"]
    ]
    lines.append(["chi", "--builtin", "a21-ex1", "--e", "0,2,1"])
    lines.append(["chi", "--builtin", "a21-ex3", "--e", "1,1,1"])
    lines.append(["check", "--builtin", "a21-ex3", "--q", "2", "--format", "table"])
    lines.append(["check", "--builtin", "a21-ray:7", "--q", "2,3"])
    lines.append(["census", "--builtin", "a21-ex1", "--e", "1,2,1", "--q", "2,3"])
    lines += [[command, "--input", BAND, "--q", "2,3,5"] for command in ("census", "check", "tube")]
    lines += [["example", "--builtin", name] for name in ("a21-ex1", "kronecker-reg:2")]
    lines += [[command, "--input", NAMES, "--q", "2,3"] for command in ("census", "check")]
    # every built-in family at several sizes, both parities of the ray, and
    # a signed suffix, which the document's name prints without its sign
    lines += [
        ["example", "--builtin", name]
        for name in (
            "a21-ray:1",
            "a21-ray:2",
            "a21-ray:5",
            "a21-ray:9",
            "kronecker-reg:1",
            "kronecker-reg:5",
            "kronecker-preproj:0",
            "kronecker-preproj:3",
            "a21-ray:+3",
        )
    ]
    # the table view walks the same payload as the JSON writer
    lines.append(["census", "--builtin", "kronecker-reg:2", "--q", "2,3", "--format", "table"])
    lines.append(["tube", "--builtin", "a21-ex1", "--q", "2", "--format", "table"])
    return lines


def run(argv: list[str]) -> dict:
    """Exit code and stdout digest of argv; an --input path is read from
    the repository root, so the recorded argv names no checkout."""
    argv = [str(ROOT / arg) if flag == "--input" else arg for flag, arg in zip(["", *argv], argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit_code": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def test_cli_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert [r["argv"] for r in recorded] == command_lines()
    for record in recorded:
        assert run(record["argv"]) == {
            "exit_code": record["exit_code"],
            "stdout_sha256": record["stdout_sha256"],
        }, record["argv"]


def record_new_lines() -> int:
    recorded = {}
    if DIGESTS.exists():
        recorded = {tuple(r["argv"]): r for r in json.loads(DIGESTS.read_text())}
    records, changed, added = [], [], 0
    for argv in command_lines():
        record = {"argv": argv, **run(argv)}
        old = recorded.get(tuple(argv))
        if old is None:
            added += 1
        elif old != record:
            changed.append(argv)
        records.append(record)
    if changed:
        for argv in changed:
            print(f"digest changed: {' '.join(argv)}", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"added {added} of {len(records)} records to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(record_new_lines())
