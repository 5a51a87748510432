"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Every numeric target is exact in exact mode (gaps are literally zero), and
each test asserts its own wall-clock budget.
"""
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from sandwichkit import cli
from sandwichkit.convexfn import PolyhedralFunction, SublinearFunctional, evaluate
from sandwichkit.duality import DualityScenario, verify
from sandwichkit.geometry import AffineMap
from sandwichkit.interiority import theorem20_equivalence
from sandwichkit.numerics import dot
from sandwichkit.oracle import GridSpec, crosscheck_scenario
from sandwichkit.randomgen import (
    random_crosscheck_scenario,
    random_fenchel_scenario,
    random_sandwich_instance,
    random_sublevel_query,
    random_trivariate_scenario,
    random_vec,
)
from sandwichkit.sandwich import (
    SandwichInstance,
    aux_T,
    check_separator,
    find_separator,
    verify_hypothesis,
)
from support import (
    bibivariate_to_quadrivariate,
    random_violating_fenchel,
    random_violating_trivariate,
    scenario_to_trivariate,
)

CORPUS = Path(cli.__file__).parent / "scenarios"


class Stopwatch:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{elapsed:.1f}s exceeds the {self.budget}s budget"


def rational_20(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


def test_criterion_01_biconjugation_exact_on_100_functions():
    watch = Stopwatch(10)
    rng = random.Random(9001)
    for _ in range(100):
        dim = rng.randint(1, 3)
        n = rng.randint(1, 12)
        f = PolyhedralFunction.v_form(dim, [
            (tuple(rational_20(rng) for _ in range(dim)), rational_20(rng))
            for _ in range(n)
        ])
        ff = f.conjugate().conjugate()
        for _ in range(20):
            weights = [rng.randint(0, 5) for _ in range(n)]
            total = sum(weights) or 1
            if sum(weights) == 0:
                weights[rng.randrange(n)] = 1
            point = tuple(
                sum(Fraction(w, total) * p[c] for w, (p, _) in zip(weights, f.samples))
                for c in range(dim)
            )
            assert evaluate(ff, point) == evaluate(f, point)
    watch.check()


def test_criterion_02_sandwich_separators_sound_on_100_instances():
    watch = Stopwatch(30)
    rng = random.Random(9002)
    for _ in range(100):
        inst, _ = random_sandwich_instance(rng, satisfy=True)
        assert verify_hypothesis(inst)
        sep = find_separator(inst)
        assert check_separator(inst, sep.x_prime)
        for _ in range(50):
            x = random_vec(rng, inst.x_dim)
            assert dot(sep.x_prime, x) <= aux_T(inst, x)
    watch.check()


def test_criterion_03_strong_duality_boxed_fenchel_50_scenarios():
    watch = Stopwatch(60)
    rng = random.Random(9003)
    for _ in range(50):
        s = random_fenchel_scenario(rng)
        for report in verify(s):
            assert report.all_hypotheses_hold
            assert report.gap == 0
            assert report.attained and report.witness is not None
    watch.check()


def test_criterion_04_strong_duality_subspace_trivariate_50_scenarios():
    watch = Stopwatch(60)
    rng = random.Random(9004)
    for _ in range(50):
        s = random_trivariate_scenario(rng)
        for report in verify(s):
            assert report.all_hypotheses_hold
            assert report.gap == 0
            assert report.attained and report.witness is not None
    watch.check()


def test_criterion_05_weak_duality_universal_with_50_violating():
    watch = Stopwatch(60)
    rng = random.Random(9005)
    certified = [random_fenchel_scenario(rng) for _ in range(10)]
    certified += [random_trivariate_scenario(rng) for _ in range(10)]
    violating = [random_violating_fenchel(rng) for _ in range(17)]
    violating += [random_violating_fenchel(rng, touching=True) for _ in range(16)]
    violating += [random_violating_trivariate(rng) for _ in range(17)]
    for s in certified:
        for report in verify(s):
            assert report.gap >= 0
    for s in violating:
        for report in verify(s):
            assert report.gap >= 0
            # flags must read false, so equality is never asserted here
            assert not report.all_hypotheses_hold
    watch.check()


def test_criterion_06_theorem20_equivalence_on_100_queries():
    watch = Stopwatch(30)
    rng = random.Random(9006)
    for _ in range(100):
        res = theorem20_equivalence(random_sublevel_query(rng))
        assert res.c24 == res.c25 == res.c26
    watch.check()


def test_criterion_07_reduction_consistency_20_plus_20():
    watch = Stopwatch(30)
    rng = random.Random(9007)
    for _ in range(20):
        s = random_fenchel_scenario(rng, n_queries=1)
        for a, b in zip(verify(s), verify(scenario_to_trivariate(s))):
            assert (a.lhs, a.rhs, a.gap) == (b.lhs, b.rhs, b.gap)
    from support import random_bibivariate_scenario
    for _ in range(20):
        s = random_bibivariate_scenario(rng, n_queries=1)
        for a, b in zip(verify(s), verify(bibivariate_to_quadrivariate(s))):
            assert (a.lhs, a.rhs, a.gap) == (b.lhs, b.rhs, b.gap)
    watch.check()


def test_criterion_08_worked_examples_reproduced():
    watch = Stopwatch(5)
    f = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
    g = PolyhedralFunction.v_form(1, [((-2,), 2), ((0,), 0), ((2,), 2)])
    fenchel = DualityScenario.fenchel(f, g, AffineMap.identity(1), [(Fraction(3),)])
    report = verify(fenchel)[0]
    assert report.lhs == 2 and report.rhs == 2
    assert report.witness == (Fraction(1),)

    vee = PolyhedralFunction.v_form(
        2, [((sx, sv), abs(sv)) for sx in (-1, 1) for sv in (-1, 0, 1)]
    )
    partial = DualityScenario.partial_infconv(
        vee, vee, 1, [(Fraction(0), Fraction(2))],
        hypothesis_mode="closed_subspace",
    )
    report = verify(partial)[0]
    assert report.lhs == 2 and report.rhs == 2
    assert report.witness == (Fraction(0),)

    inst = SandwichInstance(
        SublinearFunctional.of([(1,), (-1,)]),
        PolyhedralFunction.v_form(1, [((1,), -1), ((2,), -1)]),
        AffineMap.identity(1),
    )
    assert find_separator(inst).x_prime == (Fraction(1),)
    watch.check()


def test_criterion_09_oracle_agreement_20_per_kind():
    watch = Stopwatch(120)
    kinds = ("sublevel", "trivariate", "fenchel", "quadrivariate",
             "bibivariate", "partial_infconv", "indicator_linear")
    for k, kind in enumerate(kinds):
        rng = random.Random(9009 + k)
        for _ in range(20):
            s = random_crosscheck_scenario(rng, kind)
            for check in crosscheck_scenario(s, GridSpec(3)):
                assert check.ok, f"{kind}: {check.notes}"
    watch.check()


def test_criterion_10_cli_corpus_exit_codes_and_determinism(capsys):
    watch = Stopwatch(30)
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) >= 10
    first_pass = {}
    for path in files:
        expect = json.loads(path.read_text())["expect"]
        argv = [expect["command"], str(path), "--report", "json"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == expect["exit"], f"{path.name}: exit {code} != {expect['exit']}"
        first_pass[path.name] = (argv, code, out)
    for name, (argv, code, out) in first_pass.items():
        again = cli.main(argv)
        out2 = capsys.readouterr().out
        assert again == code, name
        assert out2 == out, f"{name}: report not byte-identical"
    watch.check()
