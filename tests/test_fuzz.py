"""Mutated copies of the bundled scenario files never crash the CLI.

A structural mutation replaces one value of a bundled file by one of 25
literals (numbers, exact and inexact, non-numbers, null, empty and small
containers, a name), deletes one key, or duplicates one list entry.  The
copy runs under its file's expect.command, and a verify file once more with
--crosscheck: each run must exit 0, 2 or 3, with no exception.  A numeric
variant replaces one to four numbers of a verify file by small rationals
and runs `verify --crosscheck`, which must never exit 1: the oracle proves
every record of a valid scenario by its certificate, so a math_failure
there is a false alarm.
"""
import copy
import json
from pathlib import Path

import pytest

from sandwichkit import cli

CORPUS = Path(cli.__file__).parent / "scenarios"
FILES = sorted(CORPUS.glob("*.json"))
DOCS = {path.name: json.loads(path.read_text()) for path in FILES}
LITERALS = (
    0, 1, -1, 2, 7, "1/2", "-3/4", "0", "1/0", "inf", "-inf", "nan", 0.5, 1e308, -0.0,
    None, True, [], {}, "", "x", [0], [[0]], {"a": 1}, "psi",
)
assert len(LITERALS) == 25


def locations(doc, path=()):
    """(path, parent) for every value below the document's root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), doc
        yield from locations(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def is_number(value) -> bool:
    """Whether the CLI reads value as an exact number."""
    try:
        cli.to_frac(value, "")
    except cli.ScenarioError:
        return False
    return True


def run(capsys, path, doc, argv) -> int:
    path.write_text(json.dumps(doc))
    code = cli.main([argv[0], str(path), *argv[1:], "--report", "json"])
    capsys.readouterr()
    return code


def test_structural_mutations_exit_cleanly(capsys, tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "mutant.json"
    seen = set()

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(sorted(DOCS)), st.sampled_from(["replace", "delete", "duplicate"]),
               st.integers(0, 10 ** 6), st.sampled_from(range(len(LITERALS))))
    def check(name, how, pick, literal):
        doc = copy.deepcopy(DOCS[name])
        wanted = dict if how == "delete" else list if how == "duplicate" else object
        places = [(p, parent) for p, parent in locations(doc) if isinstance(parent, wanted)]
        where, parent = places[pick % len(places)]
        if how == "replace":
            parent[where[-1]] = copy.deepcopy(LITERALS[literal])
        elif how == "delete":
            del parent[where[-1]]
        else:
            parent.insert(where[-1], copy.deepcopy(parent[where[-1]]))
        command = DOCS[name]["expect"]["command"]
        runs = [[command]] + ([[command, "--crosscheck"]] if command == "verify" else [])
        for argv in runs:
            code = run(capsys, path, doc, argv)
            assert code in (0, 2, 3), (name, how, where, argv, code)
            seen.add(code)

    check()
    assert seen == {0, 2, 3}, seen


def test_numeric_variants_never_fail_the_crosscheck(capsys, tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "variant.json"
    verify_files = sorted(name for name, doc in DOCS.items()
                          if doc["expect"] == {"command": "verify", "exit": 0})
    assert len(verify_files) == 7
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    seen = set()

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(verify_files), st.lists(
        st.tuples(st.integers(0, 10 ** 6), rational), min_size=1, max_size=4))
    def check(name, changes):
        doc = copy.deepcopy(DOCS[name])
        places = [(p, parent) for p, parent in locations(doc)
                  if p[0] in ("functions", "maps", "task") and is_number(at(doc, p))]
        for pick, value in changes:
            where, parent = places[pick % len(places)]
            parent[where[-1]] = str(value)
        code = run(capsys, path, doc, ["verify", "--crosscheck"])
        assert code in (0, 2, 3), (name, changes, code)
        seen.add(code)

    check()
    assert 0 in seen and 2 in seen, seen
