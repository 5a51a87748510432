"""Tests for scenario parsing, report determinism, and the exit-code contract."""
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from test_acceptance import Stopwatch

from sandwichkit import cli, duality, numerics
from sandwichkit.cli import (
    EXIT_HYPOTHESES,
    EXIT_INPUT,
    EXIT_MATH_FAILURE,
    EXIT_PASS,
    ScenarioError,
    parse_scenario,
    to_frac,
)
from sandwichkit.geometry import Polytope

CORPUS = Path(cli.__file__).parent / "scenarios"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--report", "json"])
    return code, json.loads(out)


class TestNumbers:
    def test_exact_literals(self):
        assert to_frac(3, "x") == 3
        assert to_frac("1/2", "x") == Fraction(1, 2)
        assert to_frac("0.25", "x") == Fraction(1, 4)
        assert to_frac(Fraction(7, 3), "x") == Fraction(7, 3)

    def test_rejects_booleans_and_junk(self):
        with pytest.raises(ScenarioError) as info:
            to_frac(True, "task.gamma")
        assert info.value.field == "task.gamma"
        with pytest.raises(ScenarioError):
            to_frac("three", "x")
        with pytest.raises(ScenarioError):
            to_frac("1/0", "x")

    def test_json_decimals_parse_exactly(self):
        sc = parse_scenario(
            '{"functions": {"f": {"form": "V", "samples": [[[0.1], 0.2]]}}, '
            '"task": {"kind": "eval"}}'
        )
        point, value = sc.functions["f"].samples[0]
        assert point == (Fraction(1, 10),)
        assert value == Fraction(1, 5)


class TestParsing:
    def test_syntax_error_cites_line_and_column(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario('{"task": \n  nope}', "bad.json")
        assert "line 2" in str(info.value)
        assert "column" in str(info.value)

    def test_missing_task_cited(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario('{"functions": {}}')
        assert info.value.field == "task"

    def test_bad_sample_shape_cited(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(
                '{"functions": {"f": {"form": "V", "samples": [[[0], 1, 2]]}}, '
                '"task": {"kind": "eval"}}'
            )
        assert info.value.field == "functions.f.samples[0]"

    def test_unknown_form_cited(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(
                '{"functions": {"f": {"form": "W"}}, "task": {"kind": "eval"}}'
            )
        assert info.value.field == "functions.f.form"

    def test_corpus_parses(self):
        files = sorted(CORPUS.glob("*.json"))
        assert len(files) >= 10
        for path in files:
            sc = parse_scenario(path.read_text(), path.name)
            assert sc.task["kind"]
            assert sc.description
            assert isinstance(sc.expect["exit"], int)


class TestExitCodeContract:
    def test_corpus_documented_codes(self, capsys):
        for path in sorted(CORPUS.glob("*.json")):
            sc = parse_scenario(path.read_text(), path.name)
            command = sc.expect["command"]
            code, out = run(capsys, [command, str(path), "--report", "json"])
            assert code == sc.expect["exit"], f"{path.name}: exit {code}"
            doc = json.loads(out)
            assert doc["command"] == command
            assert doc["version"]
            assert doc["input_digest"].startswith("sha256:")

    def test_broken_file_names_both_objects(self, capsys):
        code, doc = run_json(capsys, ["verify", str(CORPUS / "broken.json")])
        assert code == EXIT_INPUT
        assert doc["verdict"] == "input_error"
        message = doc["error"]["message"]
        assert "map 'C'" in message
        assert "function 'g'" in message

    def test_task_error_names_only_the_kinds_parts(self, capsys, tmp_path):
        """Keys the kind does not read are not listed, so no object repeats."""
        doc = json.loads((CORPUS / "broken.json").read_text())
        doc["task"].update(phi="g", b="C")
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_INPUT
        assert out["error"]["message"].endswith(
            "[objects: function 'f' (dimension 1), function 'g' (dimension 1), "
            "map 'C' (1 -> 2)]")

    def test_missing_file(self, capsys):
        code, doc = run_json(capsys, ["verify", "/no/such/file.json"])
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "file"

    def test_no_float_mode(self, capsys, monkeypatch):
        argv = ["verify", str(CORPUS / "fenchel.json"), "--report", "json"]
        monkeypatch.delenv("SANDWICHKIT_MODE", raising=False)
        code, out = run(capsys, argv)
        monkeypatch.setenv("SANDWICHKIT_MODE", "float")
        assert run(capsys, argv) == (code, out)
        assert json.loads(out)["mode"] == "exact"
        for extra in (["--mode", "exact"], ["--tolerance", "1/100"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv + extra)
            assert info.value.code == EXIT_INPUT

    def test_options_live_on_their_one_subcommand(self, capsys):
        at = ["--function", "g", "--at", "0"]
        for argv in (["eval", str(CORPUS / "fenchel.json"), *at, "--seed", "3"],
                     ["interiority", str(CORPUS / "fenchel.json"), "--crosscheck"],
                     ["selftest", "--crosscheck"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == EXIT_INPUT, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: sandwichkit"), argv

    def test_violated_sandwich_reports_witness(self, capsys):
        code, doc = run_json(
            capsys, ["sandwich", str(CORPUS / "sandwich_violated.json")]
        )
        assert code == EXIT_HYPOTHESES
        assert doc["verdict"] == "hypotheses_unsatisfied"
        assert doc["hypothesis"]["witness"] == ["0"]
        assert doc["hypothesis"]["minimum"] == "-1"


class TestMalformedInput:
    VALUES = (None, 7, True, "nope", [], {}, [[1, 2, 3]])

    def test_non_list_probes_are_input_errors(self, capsys, tmp_path):
        doc = json.loads((CORPUS / "interiority.json").read_text())
        for value in (None, 7, True, "nope", {"a": [2]}):
            doc["task"]["probes"] = value
            path = tmp_path / "probes.json"
            path.write_text(json.dumps(doc))
            code, report = run_json(capsys, ["interiority", str(path)])
            assert code == EXIT_INPUT, value
            assert report["error"]["field"] == "task.probes", value

    def test_a_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        """In a batch it is one file's input error, and the files after it
        still run."""
        (tmp_path / "a.json").write_bytes('{"task": {"kind": "é"}}'.encode("latin-1"))
        (tmp_path / "b.json").write_bytes((CORPUS / "fenchel.json").read_bytes())
        code, doc = run_json(capsys, ["verify", str(tmp_path / "a.json")])
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "file"
        assert "not UTF-8" in doc["error"]["message"]
        code, doc = run_json(capsys, ["verify", str(tmp_path)])
        assert code == EXIT_INPUT
        assert [(f["file"], f["exit"]) for f in doc["files"]] == [
            ("a.json", EXIT_INPUT), ("b.json", EXIT_PASS)]

    def test_a_document_nested_too_deeply_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, doc = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_INPUT
        assert doc["verdict"] == "input_error"
        assert doc["error"]["field"] == "document"
        assert doc["error"]["message"].endswith("nested too deeply")

    def test_a_deeply_nested_description_renders_as_text(self, capsys, tmp_path):
        """The free-form description is copied into the report; the text
        report flattens it without recursion, so it gives the same verdict
        as the JSON report however deep the decoder let it be."""
        depth = 600
        doc = json.loads((CORPUS / "trivariate.json").read_text())
        doc["description"] = "deep"
        for _ in range(depth):
            doc["description"] = [doc["description"]]
        path = tmp_path / "deep_description.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_PASS and report["verdict"] == "pass"
        code, out = run(capsys, ["verify", str(path)])
        assert code == EXIT_PASS
        assert out.startswith("verify: verdict pass\n")
        assert f"\n  description: {'[' * depth}deep{']' * depth}\n" in out

    def test_every_task_key_set_to_junk_gives_one_document(self, capsys, tmp_path):
        path = tmp_path / "variant.json"
        for source in sorted(CORPUS.glob("*.json")):
            doc = json.loads(source.read_text())
            command = doc["expect"]["command"]
            for key in sorted(set(doc["task"]) | {"kind"}):
                for value in self.VALUES:
                    variant = json.loads(json.dumps(doc))
                    variant["task"][key] = value
                    path.write_text(json.dumps(variant))
                    where = f"{source.name}: task.{key} = {value!r}"
                    code, out = run(capsys, [command, str(path), "--report", "json"])
                    report = json.loads(out)
                    assert report["command"] == command, where
                    if code == EXIT_INPUT:
                        assert report["error"]["field"], where


class TestSpaces:
    """The "spaces" section, read by a sandwich task's "space"."""

    def run_sandwich(self, capsys, tmp_path, spaces, space="P"):
        doc = json.loads((CORPUS / "sandwich.json").read_text())
        doc["spaces"] = spaces
        doc["task"]["space"] = space
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        return run_json(capsys, ["sandwich", str(path)])

    def test_parsed_forms(self):
        sc = parse_scenario(json.dumps({
            "spaces": {"P": [[0, 1], [2, "1/2"]], "V": {"vector_space": 3}},
            "task": {"kind": "eval"},
        }))
        assert sc.spaces == {"P": Polytope(2, ((0, 1), (2, Fraction(1, 2)))), "V": 3}

    def test_a_space_holding_every_sample_changes_no_report(self, capsys, tmp_path):
        code, plain = run_json(capsys, ["sandwich", str(CORPUS / "sandwich.json")])
        assert code == EXIT_PASS
        del plain["input_digest"]
        for spaces in ({"P": [[-1], [1]]}, {"P": [[-2], [3]]}, {"P": {"vector_space": 1}}):
            code, doc = self.run_sandwich(capsys, tmp_path, spaces)
            assert code == EXIT_PASS, spaces
            del doc["input_digest"]
            assert doc == plain, spaces

    def test_a_space_excluding_a_sample_names_the_tasks_objects(self, capsys, tmp_path):
        code, doc = self.run_sandwich(capsys, tmp_path, {"P": [[0], [1]]})
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "task"
        assert "lies outside the ambient set" in doc["error"]["message"]
        assert doc["error"]["message"].endswith(
            "[objects: function 'S' (dimension 1), function 'k' (dimension 1), "
            "map 'B' (1 -> 1), space 'P']")

    def test_an_excluded_sample_reads_as_reports_print_points(self, capsys, tmp_path):
        for report in ([], ["--report", "json"]):
            doc = json.loads((CORPUS / "sandwich.json").read_text())
            doc["spaces"] = {"P": [[0], [1]]}
            doc["task"]["space"] = "P"
            path = tmp_path / "space.json"
            path.write_text(json.dumps(doc))
            code, out = run(capsys, ["sandwich", str(path), *report])
            assert code == EXIT_INPUT
            assert "sample point [-1] lies outside the ambient set" in out
            assert "Fraction" not in out

    @pytest.mark.parametrize("dim", [2, 0, -3])
    def test_a_vector_space_of_another_dimension_is_an_input_error(self, capsys, tmp_path,
                                                                   dim):
        """The samples live in dimension 1, so {"vector_space": d} must have
        d = 1, as a vertex list must hold points of dimension 1."""
        code, doc = self.run_sandwich(capsys, tmp_path, {"P": {"vector_space": dim}})
        assert code == EXIT_INPUT
        assert doc["error"] == {
            "field": "spaces.P",
            "message": f"a vector space of dimension {dim} does not match the sample "
                       f"space of dimension 1"}

    def test_malformed_spaces_are_input_errors(self, capsys, tmp_path):
        for body, field in ((5, "spaces.P"), ("P", "spaces.P"), ({"dim": 1}, "spaces.P"),
                            ([], "spaces.P"), ([[1], [1, 2]], "spaces.P"),
                            ([[1], "x"], "spaces.P[1]"),
                            ({"vector_space": "1/2"}, "spaces.P.vector_space")):
            code, doc = self.run_sandwich(capsys, tmp_path, {"P": body})
            assert code == EXIT_INPUT, body
            assert doc["error"]["field"] == field, body
        code, doc = self.run_sandwich(capsys, tmp_path, {"P": [[1]]}, space="Q")
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "task.space"


class TestKindTable:
    def readme_rows(self) -> dict:
        """kind -> named-parts cell of the README's task-kind table."""
        section = README.read_text().split("### Task kinds", 1)[1].split("\n#", 1)[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = cells[2]
        return rows

    def test_kind_parts_cover_every_duality_kind(self):
        assert set(cli.KIND_PARTS) == set(duality.KINDS)

    def test_readme_rows_match_kind_parts(self):
        rows = self.readme_rows()
        assert set(rows) - set(cli.KIND_PARTS) == {"sandwich", "interiority", "theorem20"}
        for kind, (_, parts) in cli.KIND_PARTS.items():
            listed = re.findall(r"`(\w+)` (function|map)", rows[kind])
            assert listed == [(key, section[:-1]) for key, section in parts], kind


def corpus_lps(capsys, monkeypatch) -> dict:
    """The repr of every LP each corpus file's expect command solves."""
    solved = []
    lp_solve = numerics.lp_solve

    def recording(lp):
        solved.append(repr(lp))
        return lp_solve(lp)

    monkeypatch.setattr(numerics, "lp_solve", recording)
    out = {}
    for path in sorted(CORPUS.glob("*.json")):
        command = json.loads(path.read_text())["expect"]["command"]
        solved.clear()
        run(capsys, [command, str(path), "--report", "json"])
        out[path.stem] = list(solved)
    return out


class TestWork:
    def test_no_command_solves_one_lp_twice(self, capsys, monkeypatch):
        # one repeat is known and allowed: t20's c25 re-evaluates the fiber
        # minimizer by its own evaluation LP, the independent re-check
        for name, solved in corpus_lps(capsys, monkeypatch).items():
            repeats = len(solved) - len(set(solved))
            assert repeats == (1 if name == "t20" else 0), name

    def test_lp_count_per_corpus_file(self, capsys, monkeypatch):
        # the hypothesis flags cost one LP per subspace test, none for the
        # sublevel interiority flag or its level, one reach level per margin
        # and, for boundedness, one reach LP per direction and no fiber LP;
        # the covering check one reach LP per probe, and one fiber LP where
        # the reach is 1/n
        counts = {name: len(solved) for name, solved in corpus_lps(capsys, monkeypatch).items()}
        assert counts == {
            "bibivariate": 3, "boundedness": 8, "broken": 0, "corollary21": 4,
            "fenchel": 6, "indicator_linear": 12, "interiority": 6,
            "partial_infconv": 3, "quadrivariate": 5, "sandwich": 3,
            "sandwich_violated": 1, "sublevel": 3, "t20": 3, "trivariate": 3,
        }
        assert sum(counts.values()) == 60


class TestDeterminism:
    def test_single_file_byte_identical(self, capsys):
        argv = ["verify", str(CORPUS / "fenchel.json"), "--report", "json"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_batch_byte_identical_and_ordered(self, capsys):
        argv = ["verify", str(CORPUS), "--report", "json"]
        code, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second
        doc = json.loads(first)
        names = [entry["file"] for entry in doc["files"]]
        assert names == sorted(names)
        assert code == EXIT_INPUT  # broken.json is part of the corpus

    def test_batch_rejected_outside_verify(self, capsys):
        code, doc = run_json(capsys, ["sandwich", str(CORPUS)])
        assert code == EXIT_INPUT


class TestCommands:
    def test_verify_worked_fenchel(self, capsys):
        code, doc = run_json(capsys, ["verify", str(CORPUS / "fenchel.json")])
        assert code == EXIT_PASS
        q3 = doc["queries"][0]
        assert q3["query"]["coeffs"] == ["3"]
        assert q3["lhs"] == "2" and q3["rhs"] == "2"
        assert q3["gap"] == "0"
        assert q3["witness"] == ["1"]
        assert q3["attained"] is True
        assert q3["verdict"] == "pass"

    def test_verify_indicator_twin_infinity(self, capsys):
        code, doc = run_json(
            capsys, ["verify", str(CORPUS / "indicator_linear.json")]
        )
        assert code == EXIT_PASS
        escaped = doc["queries"][1]
        assert escaped["lhs"] == "inf" and escaped["rhs"] == "inf"
        assert escaped["gap"] == "0"
        assert escaped["verdict"] == "pass"
        assert any("range" in note for note in escaped["notes"])

    def test_conjugate_with_witness(self, capsys):
        code, doc = run_json(capsys, [
            "conjugate", str(CORPUS / "fenchel.json"),
            "--function", "g", "--at", "3",
        ])
        assert code == EXIT_PASS
        assert doc["value"] == "4"
        assert doc["witness"] == ["2"]

    def test_eval_inside_and_outside_domain(self, capsys):
        base = ["eval", str(CORPUS / "fenchel.json"), "--function", "g"]
        code, doc = run_json(capsys, base + ["--at", "1/2"])
        assert code == EXIT_PASS and doc["value"] == "1/2"
        code, doc = run_json(capsys, base + ["--at", "7"])
        assert code == EXIT_PASS and doc["value"] == "inf"

    def test_bad_covector_cited(self, capsys):
        code, doc = run_json(capsys, [
            "eval", str(CORPUS / "fenchel.json"),
            "--function", "g", "--at", "one",
        ])
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "--at"

    def test_sandwich_forced_separator(self, capsys):
        code, doc = run_json(capsys, ["sandwich", str(CORPUS / "sandwich.json")])
        assert code == EXIT_PASS
        assert doc["separator"]["x_prime"] == ["-1"]
        assert doc["separator"]["valid"] is True
        assert doc["hypothesis"]["holds"] is True

    def test_theorem20_all_false_still_passes(self, capsys):
        code, doc = run_json(capsys, ["theorem20", str(CORPUS / "t20.json")])
        assert code == EXIT_PASS
        assert doc["conditions"] == {
            "positive_margin": False,
            "origin_in_image": False,
            "fiber_below_level": False,
        }
        assert doc["fiber_value"] == "0"

    def test_interiority_margin_and_covering(self, capsys):
        code, doc = run_json(
            capsys, ["interiority", str(CORPUS / "interiority.json")]
        )
        assert code == EXIT_PASS
        assert doc["margin"]["margin"] == "1/4"
        assert doc["covering"]["ok"] is True

    def test_interiority_auto_level(self, capsys):
        code, doc = run_json(
            capsys, ["interiority", str(CORPUS / "corollary21.json")]
        )
        assert code == EXIT_PASS
        assert doc["margin"]["gamma"] == "1"
        assert doc["margin"]["margin"] == "1/2"

    def test_boundedness_block(self, capsys):
        code, doc = run_json(
            capsys, ["interiority", str(CORPUS / "boundedness.json")]
        )
        assert code == EXIT_PASS
        assert doc["boundedness"]["holds"] is True

    def run_interiority_variant(self, capsys, tmp_path, name, edit):
        sc = json.loads((CORPUS / name).read_text())
        edit(sc["task"])
        path = tmp_path / name
        path.write_text(json.dumps(sc))
        return run_json(capsys, ["interiority", str(path)])

    def test_covering_runs_at_the_automatic_level(self, capsys, tmp_path):
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "interiority.json", lambda t: t.pop("gamma"))
        assert code == EXIT_PASS
        assert doc["margin"]["gamma"] == "1"
        assert doc["covering"]["ok"] is True
        # the same assignment as at gamma = 1/2: the covering reads no level
        assert doc["covering"]["assignments"] == [[["2"], 5]]

    def test_boundedness_with_a_level_needs_no_probes(self, capsys, tmp_path):
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "boundedness.json", lambda t: t.update(gamma="1/2"))
        assert code == EXIT_PASS
        assert doc["margin"]["gamma"] == "1/2"
        assert doc["boundedness"]["holds"] is True
        assert "covering" not in doc

    def test_probes_without_delta_are_an_input_error(self, capsys, tmp_path):
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "interiority.json", lambda t: t.pop("delta"))
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "task.delta"

    def test_delta_without_probes_or_z0_is_an_input_error(self, capsys, tmp_path):
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "corollary21.json", lambda t: t.update(delta="1/2"))
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "task.delta"

    def test_verify_runs_sandwich_and_interiority_tasks_only(self, capsys, tmp_path):
        """verify hands these two task kinds to their own commands' runners,
        for the same report; a theorem20 task is not one of them."""
        for name, command in (("sandwich.json", "sandwich"),
                              ("interiority.json", "interiority")):
            code, own = run_json(capsys, [command, str(CORPUS / name)])
            assert code == EXIT_PASS
            code, via = run_json(capsys, ["verify", str(CORPUS / name)])
            assert code == EXIT_PASS
            assert (own.pop("command"), via.pop("command")) == (command, "verify")
            assert via == own
        doc = json.loads((CORPUS / "t20.json").read_text())
        doc["task"]["kind"] = "theorem20"
        path = tmp_path / "t20.json"
        path.write_text(json.dumps(doc))
        assert run_json(capsys, ["theorem20", str(path)])[0] == EXIT_PASS
        code, report = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_INPUT
        assert report["error"]["field"] == "task.kind"

    def test_a_failing_covering_check_exits_two(self, capsys, tmp_path):
        """The probe 20 lies in i B({phi < 1/2}) only for i >= 40, past the
        cap of 16: one reach LP along it, with the value row at 1/2."""
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "interiority.json", lambda t: t.update(probes=[[20]]))
        assert code == EXIT_HYPOTHESES
        assert doc["margin"]["holds"] is True
        assert doc["covering"] == {"delta": "1/2", "ok": False, "assignments": [[["20"], None]]}

    def test_a_failing_boundedness_check_exits_two(self, capsys, tmp_path):
        """At delta 0 the sublevel set {psi < 0} is empty."""
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "boundedness.json", lambda t: t.update(delta=0))
        assert code == EXIT_HYPOTHESES
        assert doc["margin"]["holds"] is True
        assert doc["boundedness"] == {"z0": ["0", "0"], "delta": "0", "holds": False}

    def test_points_in_notes_read_as_reports_print_points(self, capsys, tmp_path):
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "boundedness.json", lambda t: t.update(z0=[5, "1/2"]))
        assert code == EXIT_HYPOTHESES
        assert doc["notes"] == ["base point [5, 1/2] lies outside the domain"]
        code, doc = self.run_interiority_variant(
            capsys, tmp_path, "interiority.json", lambda t: t.update(probes=[[1, 2]]))
        assert code == EXIT_HYPOTHESES
        assert doc["notes"] == ["probe [1, 2] has the wrong dimension"]

    def run_theorem20_variant(self, capsys, tmp_path, edit):
        sc = json.loads((CORPUS / "t20.json").read_text())
        edit(sc)
        path = tmp_path / "t20.json"
        path.write_text(json.dumps(sc))
        return run_json(capsys, ["theorem20", str(path)])

    def test_theorem20_without_the_subspace_precondition_exits_two(self, capsys, tmp_path):
        """phi on [0, 1] with B the identity: the images of its domain span a
        ray, not a subspace."""
        code, doc = self.run_theorem20_variant(
            capsys, tmp_path,
            lambda sc: sc["functions"]["phi"].update(samples=[[[0], 0], [[1], 1]]))
        assert code == EXIT_HYPOTHESES
        assert doc["kind"] == "theorem20"
        assert doc["notes"] == [
            "scaled images of the domain do not positively span a subspace; "
            "the equivalence needs that precondition"]

    def test_theorem20_needs_a_level(self, capsys, tmp_path):
        code, doc = self.run_theorem20_variant(
            capsys, tmp_path, lambda sc: sc["task"].pop("gamma"))
        assert code == EXIT_INPUT
        assert doc["error"]["field"] == "task.gamma"

    def test_a_nonzero_gap_under_a_false_flag_is_not_asserted(self, capsys, tmp_path):
        """C = 0 maps every w to x = 0, which dom g misses, so the left side
        is -inf; the right side's constraint x* after C = w' reads 0 = 1, so
        it is +inf.  The gap is +inf, reported under a note, not raised."""
        doc = {"functions": {"g": {"form": "V", "samples": [[[1, 0], 0], [[2, 0], 0]]}},
               "maps": {"C": {"matrix": [[0]]}, "D": {"matrix": [[1]]}},
               "task": {"kind": "indicator_linear", "g": "g", "c": "C", "d": "D",
                        "queries": [[1, 0]]}}
        (tmp_path / "gap.json").write_text(json.dumps(doc))
        code, report = run_json(capsys, ["verify", str(tmp_path / "gap.json")])
        assert code == EXIT_HYPOTHESES
        (record,) = report["queries"]
        assert (record["lhs"], record["rhs"], record["gap"]) == ("-inf", "inf", "inf")
        assert record["hypothesis_flags"] == {"boundedness": False, "h_proper": False}
        assert record["verdict"] == "hypotheses_unsatisfied"
        assert "equality not asserted; hypotheses unsatisfied" in record["notes"]

    def test_unsatisfied_hypotheses_exit_two(self, capsys, tmp_path):
        """f = 0 on [-1, 0] and g = 0 on [0, 1] meet only at 0, a boundary
        point of dom g, so the boundedness flag is false: every record is
        reported, not asserted, and verify exits 2, alone or in a batch."""
        doc = json.loads((CORPUS / "fenchel.json").read_text())
        doc["functions"]["f"]["samples"] = [[[-1], 0], [[0], 0]]
        doc["functions"]["g"]["samples"] = [[[0], 0], [[1], 0]]
        del doc["description"], doc["expect"]
        (tmp_path / "touching.json").write_text(json.dumps(doc))
        code, report = run_json(capsys, ["verify", str(tmp_path / "touching.json")])
        assert code == EXIT_HYPOTHESES
        assert report["verdict"] == "hypotheses_unsatisfied"
        assert len(report["queries"]) == 2
        for record in report["queries"]:
            assert record["hypothesis_flags"] == {"boundedness": False, "h_proper": True}
            assert record["verdict"] == "hypotheses_unsatisfied"
            assert (record["lhs"], record["rhs"], record["gap"]) == ("0", "0", "0")
        (tmp_path / "fenchel.json").write_bytes((CORPUS / "fenchel.json").read_bytes())
        code, batch = run_json(capsys, ["verify", str(tmp_path)])
        assert code == EXIT_HYPOTHESES
        assert batch["verdict"] == "hypotheses_unsatisfied"
        assert [(f["file"], f["exit"]) for f in batch["files"]] == [
            ("fenchel.json", EXIT_PASS), ("touching.json", EXIT_HYPOTHESES)]

    def test_crosscheck_attaches_oracle_runs(self, capsys):
        code, doc = run_json(capsys, [
            "verify", str(CORPUS / "fenchel.json"), "--crosscheck",
        ])
        assert code == EXIT_PASS
        for record in doc["queries"]:
            assert record["crosscheck"]["ok"] is True
            assert record["crosscheck"]["lhs_ok"] is True
            assert record["crosscheck"]["witness_ok"] is True

    def test_crosscheck_gate_on_the_corpus(self, capsys):
        watch = Stopwatch(60)
        for path in sorted(CORPUS.glob("*.json")):
            expect = json.loads(path.read_text())["expect"]
            if expect["command"] != "verify":
                continue
            code, doc = run_json(capsys, ["verify", str(path), "--crosscheck"])
            assert code == expect["exit"], path.name
            for record in doc.get("queries", []):
                check = record["crosscheck"]
                assert check["lhs_oracle"] is not None, path.name
                assert check["ok"] is True, (path.name, check["notes"])
        watch.check()

    def test_text_report_has_verdict_line(self, capsys):
        code, out = run(capsys, ["verify", str(CORPUS / "fenchel.json")])
        assert code == EXIT_PASS
        assert out.startswith("verify: verdict pass")

    def test_selftest_deterministic_and_green(self, capsys):
        code, doc = run_json(capsys, ["selftest", "--seed", "7"])
        assert code == EXIT_PASS
        assert doc["verdict"] == "pass"
        assert all(s["failures"] == 0 for s in doc["suites"])
        code2, doc2 = run_json(capsys, ["selftest", "--seed", "7"])
        assert doc2 == doc

    def test_query_with_constant_term(self, capsys, tmp_path):
        sc = json.loads((CORPUS / "fenchel.json").read_text())
        sc["task"]["queries"] = [{"coeffs": [3], "constant": 7}]
        del sc["expect"]
        path = tmp_path / "affine_query.json"
        path.write_text(json.dumps(sc))
        code, doc = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_PASS
        record = doc["queries"][0]
        assert record["lhs"] == "9" and record["rhs"] == "9"
        assert record["query"]["constant"] == "7"

    def test_math_failure_exit_is_reserved_for_bugs(self, capsys, monkeypatch):
        # the engine raises before ever emitting a positive gap under
        # satisfied hypotheses, so exit 1 is reachable only by patching in
        # a doctored report; the CLI must map it to math_failure
        from fractions import Fraction

        from sandwichkit.convexfn import AffineFunctional
        from sandwichkit.duality import DualityReport

        def doctored(s):
            return [DualityReport(
                kind=s.kind, query=AffineFunctional((Fraction(3),), Fraction(0)),
                hypothesis_flags={"boundedness": True, "h_proper": True},
                lhs=Fraction(2), rhs=Fraction(3), gap=Fraction(1),
                witness=(Fraction(1),), lhs_witness=None, attained=False,
            )]

        monkeypatch.setattr(cli, "verify", doctored)
        code, doc = run_json(capsys, ["verify", str(CORPUS / "fenchel.json")])
        assert code == EXIT_MATH_FAILURE
        assert doc["verdict"] == "math_failure"
        assert doc["queries"][0]["gap"] == "1"

    def test_kernel_canary_maps_to_exit_one(self, capsys, monkeypatch):
        def exploding(s):
            raise RuntimeError("weak duality violated; LP kernel is unsound")

        monkeypatch.setattr(cli, "verify", exploding)
        code, doc = run_json(capsys, ["verify", str(CORPUS / "fenchel.json")])
        assert code == EXIT_MATH_FAILURE
        assert doc["verdict"] == "math_failure"
        assert "unsound" in doc["error"]["message"]
