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
