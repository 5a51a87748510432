"""Command line front end: scenario files in, machine-readable reports out.

Scenario files are JSON documents with sections "dims", "functions",
"maps", "spaces", and "task"; every numeric literal is exact (integers,
decimal strings, or "p/q" rational strings).  Each command prints one
report document on standard output and exits with:

    0   every verdict passed
    1   a mathematical verdict failed under satisfied hypotheses (a bug)
    2   hypotheses unsatisfied (reported, not a failure)
    3   input error (unreadable file, bad field, dimension mismatch, or an
        argument the parser refuses; its usage message goes to stderr)

JSON reports are fully deterministic: keys sorted, exact rationals as
strings, a sha256 digest of the input instead of timestamps.
"""
import argparse
import functools
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .convexfn import (
    AffineFunctional,
    H_FORM,
    PolyhedralFunction,
    SublinearFunctional,
    V_FORM,
    evaluate,
)
from .duality import DualityScenario, verify
from .geometry import AffineMap, Polytope
from .interiority import (
    SublevelQuery,
    boundedness_condition,
    corollary21_auto,
    interiority_margin,
    lemma19a_check,
    theorem20_equivalence,
)
from .numerics import (
    NEG_INF,
    POS_INF,
    PreconditionError,
    StructuralError,
    Vec,
)
from .oracle import crosscheck_scenario
from .sandwich import SandwichInstance, check_separator, hypothesis_check

EXIT_PASS = 0
EXIT_MATH_FAILURE = 1
EXIT_HYPOTHESES = 2
EXIT_INPUT = 3

#: every report's "mode": all arithmetic is exact
MODE = "exact"


class ScenarioError(Exception):
    """Input problem tied to a specific field of the scenario file."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


# ---------------------------------------------------------------------------
# exact number handling


def to_frac(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise ScenarioError(field, "expected a number, found a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(field, f"not an exact number: {value!r}") from None
    raise ScenarioError(field, f"expected a number, found {type(value).__name__}")


def to_vector(value, field: str) -> Vec:
    if not isinstance(value, list):
        raise ScenarioError(field, "expected a list of numbers")
    return tuple(to_frac(v, f"{field}[{i}]") for i, v in enumerate(value))


def to_int(value, field: str) -> int:
    f = to_frac(value, field)
    if f.denominator != 1:
        raise ScenarioError(field, f"expected an integer, found {f}")
    return int(f)


def encode_scalar(value):
    """Exact values as strings, infinities by name."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == POS_INF:
        return "inf"
    if value == NEG_INF:
        return "-inf"
    raise TypeError(f"cannot encode {value!r}")


def encode_vector(v) -> Optional[list]:
    if v is None:
        return None
    return [encode_scalar(c) for c in v]


def encode_query(q: AffineFunctional) -> dict:
    return {"coeffs": encode_vector(q.coeffs), "constant": encode_scalar(q.constant)}


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    """One parsed scenario file: named objects plus the raw task section."""

    dims: dict
    functions: dict
    maps: dict
    spaces: dict
    task: dict
    description: Optional[str]
    expect: Optional[dict]


def _section(doc: dict, name: str):
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ScenarioError(name, "section must be an object")
    return value


#: each function form's data key (also `PolyhedralFunction.form` and the
#: attribute holding the data), entry noun, pair label and factory
FORMS = {
    "V": (V_FORM, "sample", "[point, value]", PolyhedralFunction.v_form),
    "H": (H_FORM, "piece", "[coeffs, constant]", PolyhedralFunction.h_form),
}


def _parse_function(body, field: str) -> PolyhedralFunction:
    if not isinstance(body, dict) or "form" not in body:
        raise ScenarioError(field, "a function needs a \"form\" key")
    form = body["form"]
    if not isinstance(form, str) or form not in FORMS:
        raise ScenarioError(f"{field}.form", f"unknown form {form!r} (expected \"V\" or \"H\")")
    key, noun, label, factory = FORMS[form]
    raw = body.get(key)
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{field}.{key}", f"need a nonempty list of {label} pairs")
    entries = []
    for i, entry in enumerate(raw):
        where = f"{field}.{key}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ScenarioError(where, f"each {noun} is a {label} pair")
        entries.append((to_vector(entry[0], where), to_frac(entry[1], where)))
    try:
        return factory(len(entries[0][0]), entries)
    except StructuralError as exc:
        raise ScenarioError(field, str(exc)) from None


def _parse_map(body, field: str) -> AffineMap:
    if not isinstance(body, dict) or "matrix" not in body:
        raise ScenarioError(field, "a map needs a \"matrix\" key")
    raw = body["matrix"]
    if not isinstance(raw, list):
        raise ScenarioError(f"{field}.matrix", "expected a list of rows")
    rows = [to_vector(r, f"{field}.matrix[{i}]") for i, r in enumerate(raw)]
    offset = None
    if "offset" in body:
        offset = to_vector(body["offset"], f"{field}.offset")
    in_dim = None
    if "in_dim" in body:
        in_dim = to_int(body["in_dim"], f"{field}.in_dim")
    try:
        return AffineMap.from_rows(rows, offset, in_dim)
    except StructuralError as exc:
        raise ScenarioError(field, str(exc)) from None


def _parse_space(body, field: str):
    if isinstance(body, dict) and "vector_space" in body:
        return to_int(body["vector_space"], f"{field}.vector_space")
    if isinstance(body, list):
        try:
            return Polytope.of([to_vector(v, f"{field}[{i}]") for i, v in enumerate(body)])
        except StructuralError as exc:
            raise ScenarioError(field, str(exc)) from None
    raise ScenarioError(field, "a space is a vertex list or {\"vector_space\": dim}")


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    try:
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "document", f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioError("document", "the top level must be an object")
    dims = {}
    for name, value in _section(doc, "dims").items():
        dims[name] = to_int(value, f"dims.{name}")
    functions = {}
    for name, body in _section(doc, "functions").items():
        functions[name] = _parse_function(body, f"functions.{name}")
    maps = {}
    for name, body in _section(doc, "maps").items():
        maps[name] = _parse_map(body, f"maps.{name}")
    spaces = {}
    for name, body in _section(doc, "spaces").items():
        spaces[name] = _parse_space(body, f"spaces.{name}")
    task = doc.get("task")
    if not isinstance(task, dict) or "kind" not in task:
        raise ScenarioError("task", "the task section needs a \"kind\" key")
    description = doc.get("description")
    expect = doc.get("expect")
    return Scenario(dims, functions, maps, spaces, task, description, expect)


# ---------------------------------------------------------------------------
# named lookups with diagnostics


def _named(sc: Scenario, section: str, name, field: str):
    table = getattr(sc, section)
    if not isinstance(name, str):
        raise ScenarioError(field, f"expected the name of an entry in \"{section}\"")
    if name not in table:
        raise ScenarioError(field, f"unknown {section[:-1]} name {name!r}")
    return table[name]


def _describe(sc: Scenario, name) -> str:
    if isinstance(name, str) and name in sc.functions:
        f = sc.functions[name]
        return f"function {name!r} (dimension {f.dim})"
    if isinstance(name, str) and name in sc.maps:
        m = sc.maps[name]
        return f"map {name!r} ({m.in_dim} -> {m.out_dim})"
    if isinstance(name, str) and name in sc.spaces:
        return f"space {name!r}"
    return repr(name)


def _task_queries(sc: Scenario) -> list:
    raw = sc.task.get("queries")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("task.queries", "need a nonempty list of queries")
    queries = []
    for i, q in enumerate(raw):
        where = f"task.queries[{i}]"
        if isinstance(q, dict):
            coeffs = to_vector(q.get("coeffs", []), f"{where}.coeffs")
            constant = to_frac(q.get("constant", 0), f"{where}.constant")
            queries.append(AffineFunctional(coeffs, constant))
        else:
            queries.append(to_vector(q, where))
    return queries


def _dim(sc: Scenario, value, field: str) -> int:
    """An integer, or the name of an entry in "dims"."""
    if isinstance(value, str) and value in sc.dims:
        return sc.dims[value]
    return to_int(value, field)


def _kind_scalar(sc: Scenario, kind: str) -> tuple:
    """The kind's own arguments between its named parts and its queries."""
    t = sc.task
    if kind == "sublevel":
        return (to_frac(t["gamma"], "task.gamma") if "gamma" in t else None,)
    if kind == "quadrivariate":
        raw = t.get("dims")
        if not isinstance(raw, list) or len(raw) != 4:
            raise ScenarioError("task.dims", "need the four block sizes [u, v, w, x]")
        return ([_dim(sc, d, f"task.dims[{i}]") for i, d in enumerate(raw)],)
    if kind == "partial_infconv":
        return (_dim(sc, t.get("x_dim"), "task.x_dim"),)
    return ()


def _task_error(sc: Scenario, exc: StructuralError, names) -> ScenarioError:
    """A structural failure of the task, naming the objects it involves."""
    involved = ", ".join(_describe(sc, n) for n in names)
    return ScenarioError("task", f"{exc} [objects: {involved}]")


_F, _M = "functions", "maps"

#: each duality kind's `DualityScenario` factory and its named parts, as
#: (task key, section) pairs in the factory's argument order
KIND_PARTS = {
    "sublevel": (DualityScenario.sublevel, (("phi", _F), ("b", _M))),
    "trivariate": (DualityScenario.trivariate, (("psi", _F), ("a", _M), ("b", _M))),
    "fenchel": (DualityScenario.fenchel, (("f", _F), ("g", _F), ("link", _M))),
    "quadrivariate": (DualityScenario.quadrivariate, (("psi", _F), ("c", _M), ("d", _M))),
    "bibivariate": (DualityScenario.bibivariate,
                    (("f", _F), ("g", _F), ("c", _M), ("d", _M))),
    "partial_infconv": (DualityScenario.partial_infconv, (("f", _F), ("g", _F))),
    "indicator_linear": (DualityScenario.indicator_linear,
                         (("g", _F), ("c", _M), ("d", _M))),
}


def build_duality_scenario(sc: Scenario) -> DualityScenario:
    """Resolve task references into a scenario, naming objects on failure.

    The factory takes the named parts, the kind's scalar, the queries
    (every kind but `sublevel`) and the hypothesis mode, in that order.
    """
    t = sc.task
    kind = t["kind"]
    if not isinstance(kind, str) or kind not in KIND_PARTS:
        raise ScenarioError("task.kind", f"unknown task kind {kind!r}")
    factory, parts = KIND_PARTS[kind]
    try:
        scalar = _kind_scalar(sc, kind)
        args = [_named(sc, section, t.get(key), f"task.{key}") for key, section in parts]
        queries = () if kind == "sublevel" else (_task_queries(sc),)
        return factory(*args, *scalar, *queries, t.get("hypothesis_mode", "boundedness"))
    except StructuralError as exc:
        names = [t[key] for key, _ in parts if t.get(key) is not None]
        raise _task_error(sc, exc, names) from None


def build_sandwich_instance(sc: Scenario) -> SandwichInstance:
    t = sc.task
    upper = _named(sc, "functions", t.get("upper"), "task.upper")
    if upper.form != H_FORM:
        raise ScenarioError("task.upper", "the upper function must be in H form")
    for i, (coeffs, constant) in enumerate(upper.pieces):
        if constant != 0:
            raise ScenarioError(
                f"functions.{t['upper']}.pieces[{i}]",
                "sublinear upper functions need zero constants",
            )
    lower = _named(sc, "functions", t.get("lower"), "task.lower")
    link = _named(sc, "maps", t.get("link"), "task.link")
    space = None
    if t.get("space") is not None:
        space = _named(sc, "spaces", t["space"], "task.space")
        if isinstance(space, int):
            space = None
    try:
        return SandwichInstance(
            SublinearFunctional.of([c for c, _ in upper.pieces]), lower, link, space
        )
    except StructuralError as exc:
        names = [t.get(k) for k in ("upper", "lower", "link") if t.get(k)]
        raise _task_error(sc, exc, names) from None


# ---------------------------------------------------------------------------
# command runners: each returns (exit_code, report_body)


def run_verify(sc: Scenario, crosscheck: bool):
    kind = sc.task["kind"]
    if kind == "sandwich":
        return run_sandwich(sc)
    if kind == "interiority":
        return run_interiority(sc)
    s = build_duality_scenario(sc)
    try:
        reports = verify(s)
    except PreconditionError as exc:
        return EXIT_HYPOTHESES, {"kind": kind, "queries": [], "notes": [str(exc)]}
    checks = [None] * len(reports)
    if crosscheck:
        checks = crosscheck_scenario(s, reports=reports)
    records = []
    code = EXIT_PASS
    for report, check in zip(reports, checks):
        record = {
            "query": encode_query(report.query),
            "lhs": encode_scalar(report.lhs),
            "rhs": encode_scalar(report.rhs),
            "gap": encode_scalar(report.gap),
            "witness": encode_vector(report.witness),
            "lhs_witness": encode_vector(report.lhs_witness),
            "attained": report.attained,
            "unbounded_direction": encode_vector(report.unbounded_direction),
            "hypothesis_flags": dict(sorted(report.hypothesis_flags.items())),
            "notes": list(report.notes),
        }
        if report.all_hypotheses_hold:
            finite = report.lhs not in (POS_INF, NEG_INF)
            if report.gap != 0 or (finite and not report.attained):
                record["verdict"] = "math_failure"
                code = EXIT_MATH_FAILURE
            else:
                record["verdict"] = "pass"
        else:
            record["verdict"] = "hypotheses_unsatisfied"
            if report.gap != 0:
                record["notes"].append("equality not asserted; hypotheses unsatisfied")
            if code == EXIT_PASS:
                code = EXIT_HYPOTHESES
        if check is not None:
            record["crosscheck"] = {
                "lhs_oracle": encode_scalar(check.lhs_oracle.value),
                "lhs_ok": check.lhs_ok,
                "witness_ok": check.witness_ok,
                "rhs_ok": check.rhs_ok,
                "ok": check.ok,
                "notes": list(check.notes),
            }
            if not check.ok:
                record["verdict"] = "math_failure"
                code = EXIT_MATH_FAILURE
        records.append(record)
    return code, {"kind": kind, "queries": records}


def run_sandwich(sc: Scenario):
    inst = build_sandwich_instance(sc)
    check = hypothesis_check(inst)
    body = {
        "kind": "sandwich",
        "hypothesis": {
            "holds": check.holds,
            "minimum": encode_scalar(check.value),
            "witness": encode_vector(check.witness),
        },
    }
    if not check.holds:
        return EXIT_HYPOTHESES, body
    sep = check.separator
    valid = check_separator(inst, sep.x_prime)
    body["separator"] = {
        "x_prime": encode_vector(sep.x_prime),
        "margin": encode_scalar(sep.margin),
        "valid": valid,
    }
    return (EXIT_PASS if valid else EXIT_MATH_FAILURE), body


def run_interiority(sc: Scenario):
    t = sc.task
    phi = _named(sc, "functions", t.get("function"), "task.function")
    b_map = _named(sc, "maps", t.get("map"), "task.map")
    body = {"kind": "interiority"}
    code = EXIT_PASS
    if "delta" in t and "probes" not in t and "z0" not in t:
        raise ScenarioError("task.delta", "delta is read only with probes or z0")

    try:
        # one query for every check; without gamma it is at the automatic
        # level, which always holds, or raises
        if "gamma" in t:
            q = SublevelQuery.build(phi, b_map, to_frac(t["gamma"], "task.gamma"))
            res = interiority_margin(q)
        else:
            q = SublevelQuery.build(phi, b_map)
            res = corollary21_auto(q).margin
        body["margin"] = {
            "gamma": encode_scalar(q.gamma),
            "holds": res.holds,
            "margin": encode_scalar(res.margin),
            "level_used": encode_scalar(res.level_used),
        }
        if not res.holds:
            code = EXIT_HYPOTHESES
        if "probes" in t:
            if "delta" not in t:
                raise ScenarioError("task.delta", "the covering check needs a level")
            delta = to_frac(t["delta"], "task.delta")
            raw = t["probes"]
            if not isinstance(raw, list) or not raw:
                raise ScenarioError("task.probes", "the covering check needs probes")
            probes = [to_vector(p, f"task.probes[{i}]") for i, p in enumerate(raw)]
            cover = lemma19a_check(q, delta, probes)
            body["covering"] = {
                "delta": encode_scalar(delta),
                "ok": cover.ok,
                "assignments": [
                    [encode_vector(p), i] for p, i in cover.assignments
                ],
            }
            if not cover.ok:
                code = EXIT_HYPOTHESES
        if "z0" in t:
            a_map = _named(sc, "maps", t.get("a"), "task.a")
            z0 = to_vector(t["z0"], "task.z0")
            delta = to_frac(t.get("delta", 1), "task.delta")
            bounded = boundedness_condition(phi, a_map, b_map, z0, delta)
            body["boundedness"] = {
                "z0": encode_vector(z0),
                "delta": encode_scalar(delta),
                "holds": bounded,
            }
            if not bounded:
                code = EXIT_HYPOTHESES
    except PreconditionError as exc:
        body["notes"] = [str(exc)]
        return EXIT_HYPOTHESES, body
    except StructuralError as exc:
        raise _task_error(sc, exc, (t.get("function"), t.get("map"))) from None
    return code, body


def run_theorem20(sc: Scenario):
    t = sc.task
    phi = _named(sc, "functions", t.get("function"), "task.function")
    b_map = _named(sc, "maps", t.get("map"), "task.map")
    if "gamma" not in t:
        raise ScenarioError("task.gamma", "the equivalence check needs a level")
    gamma = to_frac(t["gamma"], "task.gamma")
    try:
        q = SublevelQuery.build(phi, b_map, gamma)
        res = theorem20_equivalence(q)
    except PreconditionError as exc:
        return EXIT_HYPOTHESES, {"kind": "theorem20", "notes": [str(exc)]}
    except StructuralError as exc:
        raise _task_error(sc, exc, (t.get("function"), t.get("map"))) from None
    agree = res.c24 == res.c25 == res.c26
    body = {
        "kind": "theorem20",
        "gamma": encode_scalar(gamma),
        "conditions": {
            "positive_margin": res.c24,
            "origin_in_image": res.c25,
            "fiber_below_level": res.c26,
        },
        "fiber_value": encode_scalar(res.fiber_value),
    }
    return (EXIT_PASS if agree else EXIT_MATH_FAILURE), body


def run_conjugate(sc: Scenario, name: str, at: Vec):
    f = _named(sc, "functions", name, "--function")
    if len(at) != f.dim:
        raise ScenarioError(
            "--at",
            f"covector of dimension {len(at)} against {_describe(sc, name)}",
        )
    value = evaluate(f.conjugate(), at)
    body = {
        "kind": "conjugate",
        "function": name,
        "at": encode_vector(at),
        "value": encode_scalar(value),
    }
    if f.form == V_FORM and value not in (POS_INF, NEG_INF):
        best = max(f.samples, key=lambda s: sum(c * x for c, x in zip(at, s[0])) - s[1])
        body["witness"] = encode_vector(best[0])
    return EXIT_PASS, body


def run_eval(sc: Scenario, name: str, at: Vec):
    f = _named(sc, "functions", name, "--function")
    if len(at) != f.dim:
        raise ScenarioError(
            "--at",
            f"point of dimension {len(at)} against {_describe(sc, name)}",
        )
    value = evaluate(f, at)
    body = {
        "kind": "eval",
        "function": name,
        "at": encode_vector(at),
        "value": encode_scalar(value),
    }
    return EXIT_PASS, body


def run_selftest(seed: int):
    from .randomgen import (
        random_crosscheck_scenario,
        random_fenchel_scenario,
        random_sandwich_instance,
        random_sublevel_query,
        random_trivariate_scenario,
        random_vform,
    )

    rng = random.Random(seed)
    suites = []

    def suite(name, runs, check):
        failures = 0
        for _ in range(runs):
            if not check():
                failures += 1
        suites.append({"name": name, "runs": runs, "failures": failures})
        return failures == 0

    ok = True

    def biconjugation():
        # f** is the closed convex envelope, so compare evaluations, not
        # raw sample values (dominated samples sit above the envelope)
        f = random_vform(rng, rng.randint(1, 3), max_samples=6)
        ff = f.conjugate().conjugate()
        return all(evaluate(ff, p) == evaluate(f, p) for p, _ in f.samples)

    ok &= suite("biconjugation", 10, biconjugation)

    def fenchel_gap():
        s = random_fenchel_scenario(rng)
        return all(r.gap == 0 and r.attained for r in verify(s))

    ok &= suite("fenchel_duality", 5, fenchel_gap)

    def trivariate_gap():
        s = random_trivariate_scenario(rng)
        return all(r.gap == 0 for r in verify(s))

    ok &= suite("trivariate_duality", 5, trivariate_gap)

    def sandwich_separator():
        inst, _ = random_sandwich_instance(rng, satisfy=True)
        check = hypothesis_check(inst)
        return check.holds and check_separator(inst, check.separator.x_prime)

    ok &= suite("sandwich", 5, sandwich_separator)

    def equivalence():
        res = theorem20_equivalence(random_sublevel_query(rng))
        return res.c24 == res.c25 == res.c26

    ok &= suite("interiority_equivalence", 10, equivalence)

    def oracle_agreement():
        kind = rng.choice(("fenchel", "sublevel"))
        s = random_crosscheck_scenario(rng, kind)
        return all(c.ok for c in crosscheck_scenario(s))

    ok &= suite("oracle_crosscheck", 2, oracle_agreement)

    body = {
        "kind": "selftest",
        "seed": seed,
        "suites": suites,
    }
    return (EXIT_PASS if ok else EXIT_MATH_FAILURE), body


# ---------------------------------------------------------------------------
# report documents


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def make_document(command: str, digest: str, code: int, body: dict) -> dict:
    """The report: a common header, the body, and the exit code's verdict."""
    doc = {
        "command": command,
        "input_digest": digest,
        "mode": MODE,
        "version": __version__,
    }
    doc.update(body)
    doc["verdict"] = {
        EXIT_PASS: "pass",
        EXIT_MATH_FAILURE: "math_failure",
        EXIT_HYPOTHESES: "hypotheses_unsatisfied",
        EXIT_INPUT: "input_error",
    }[code]
    return doc


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"{doc['command']}: verdict {doc['verdict']}"]
    for key in sorted(doc):
        if key in ("command", "verdict"):
            continue
        lines.append(f"  {key}: {_flat(doc[key])}")
    return "\n".join(lines) + "\n"


def _flat(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flat(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return str(value)


def _error_document(command: str, digest: str, exc: ScenarioError) -> dict:
    return make_document(command, digest, EXIT_INPUT, {
        "error": {"field": exc.field, "message": str(exc)},
    })


# ---------------------------------------------------------------------------
# dispatch


def _load(path: Path):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError("file", f"cannot read {path}: {exc.strerror}") from None
    return parse_scenario(data.decode("utf-8"), str(path)), _digest(data)


def _run_single(command: str, path: Path, args) -> tuple:
    digest = "sha256:" + "0" * 64
    try:
        sc, digest = _load(path)
        if command == "verify":
            code, body = run_verify(sc, args.crosscheck)
        elif command == "sandwich":
            if sc.task["kind"] != "sandwich":
                raise ScenarioError("task.kind", "the sandwich command needs a sandwich task")
            code, body = run_sandwich(sc)
        elif command == "interiority":
            code, body = run_interiority(sc)
        elif command == "theorem20":
            code, body = run_theorem20(sc)
        elif command == "conjugate":
            code, body = run_conjugate(sc, args.function, args.at)
        else:
            code, body = run_eval(sc, args.function, args.at)
        if sc.description is not None:
            body.setdefault("description", sc.description)
        return code, make_document(command, digest, code, body)
    except ScenarioError as exc:
        return EXIT_INPUT, _error_document(command, digest, exc)
    except RuntimeError as exc:
        body = {"error": {"field": None, "message": str(exc)}}
        return EXIT_MATH_FAILURE, make_document(command, digest, EXIT_MATH_FAILURE, body)


def _run_batch(command: str, directory: Path, args) -> tuple:
    paths = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    if not paths:
        raise ScenarioError("file", f"no scenario files in {directory}")
    results = [_run_single(command, p, args) for p in paths]
    files = []
    codes = []
    for path, (code, doc) in zip(paths, results):
        codes.append(code)
        entry = {"file": path.name, "exit": code}
        entry.update(doc)
        del entry["command"]
        files.append(entry)
    digest = _digest("".join(
        f"{p.name}:{e['input_digest']}\n" for p, e in zip(paths, files)
    ).encode("utf-8"))
    batch = EXIT_PASS
    for level in (EXIT_MATH_FAILURE, EXIT_INPUT, EXIT_HYPOTHESES):
        if level in codes:
            batch = level
            break
    doc = make_document(command, digest, batch, {"files": files})
    return batch, doc


def _parse_at(text: str) -> Vec:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    return tuple(to_frac(part, "--at") for part in parts)


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments as input errors: usage on stderr, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process."""
    parser = _Parser(
        prog="sandwichkit",
        description="Exact verification of polyhedral conjugation identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="scenario file (or directory for batches)")
        p.add_argument("--report", choices=("json", "text"), default="text")

    p = sub.add_parser("conjugate", help="evaluate a named function's conjugate")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--at", required=True, help="comma-separated exact covector")

    p = sub.add_parser("eval", help="evaluate a named function")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--at", required=True, help="comma-separated exact point")

    for name, text in (
        ("sandwich", "check the hypothesis and produce a separator"),
        ("verify", "verify the task's conjugation identity two-sidedly"),
        ("interiority", "margin, covering, and boundedness checks"),
        ("theorem20", "three-way interiority equivalence at a level"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        if name == "verify":
            p.add_argument("--crosscheck", action="store_true",
                           help="attach exact LP-free oracle checks of both sides")

    p = sub.add_parser("selftest", help="run the random property suites")
    common(p, needs_file=False)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        code, body = run_selftest(args.seed)
        doc = make_document("selftest", _digest(f"seed:{args.seed}".encode()), code, body)
        sys.stdout.write(render(doc, args.report))
        return code

    try:
        if args.command in ("conjugate", "eval"):
            args.at = _parse_at(args.at)
        path = Path(args.file)
        if path.is_dir():
            if args.command != "verify":
                raise ScenarioError("file", "directory batches run under verify only")
            code, doc = _run_batch(args.command, path, args)
        else:
            code, doc = _run_single(args.command, path, args)
    except ScenarioError as exc:
        doc = _error_document(args.command, "sha256:" + "0" * 64, exc)
        code = EXIT_INPUT
    sys.stdout.write(render(doc, args.report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
