"""Byte-identity of the shipped reports against recorded output.

tests/golden_reports.json holds, for every corpus file, the JSON report of
its `expect` command; for every corpus file whose `expect` command is
`verify`, the JSON report of `verify --crosscheck`; and the JSON report of
`selftest --seed 7`, each with its exit code.  A change to the kernel or to
any layer above it must reproduce them exactly.  Only a change that is meant
to alter a report may rewrite the file, by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

from sandwichkit import cli

CORPUS = Path(cli.__file__).parent / "scenarios"
GOLDEN = Path(__file__).with_name("golden_reports.json")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "report": out.getvalue()}


def _commands():
    """(key, argv) for every recorded report, in a fixed order."""
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        command = json.loads(path.read_text())["expect"]["command"]
        out.append((f"expect/{path.name}", [command, str(path), "--report", "json"]))
    for path in sorted(CORPUS.glob("*.json")):
        if json.loads(path.read_text())["expect"]["command"] == "verify":
            out.append((f"crosscheck/{path.name}",
                        ["verify", str(path), "--crosscheck", "--report", "json"]))
    out.append(("selftest/seed-7", ["selftest", "--seed", "7", "--report", "json"]))
    return out


def current_reports():
    return {key: _run(argv) for key, argv in _commands()}


def test_reports_match_the_recorded_output():
    recorded = json.loads(GOLDEN.read_text())
    keys = [key for key, _ in _commands()]
    assert sorted(recorded) == sorted(keys)
    for key, argv in _commands():
        assert _run(argv) == recorded[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_reports(), indent=1, sort_keys=True) + "\n")
