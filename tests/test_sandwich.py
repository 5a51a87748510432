"""Tests for the sandwich hypothesis, separators, and the homogenized bound."""
import random
import time
from fractions import Fraction

import pytest

from sandwichkit.convexfn import PolyhedralFunction, SublinearFunctional, evaluate
from sandwichkit.duality import DualityScenario, verify
from sandwichkit.geometry import AffineMap, Polytope
from sandwichkit.numerics import EQ, GE, NEG_INF, LpBuilder, StructuralError, dot
from sandwichkit.randomgen import random_sandwich_instance, random_vec
from sandwichkit.sandwich import (
    HypothesisViolated,
    SandwichInstance,
    aux_T,
    check_separator,
    find_separator,
    hypothesis_check,
    separator_margin,
    verify_hypothesis,
)


def ref_hypothesis_lp(inst: SandwichInstance):
    """(min of S(Bz) + k(z), a minimizer) from a hand-built LP.

    min t + sum_i lam_i v_i over convex weights lam on the samples, with
    t >= <g, sum_i lam_i B z_i> for every generator g of S.
    """
    linked = inst.linked_samples()
    b = LpBuilder()
    t = b.var()
    lam = b.block(len(linked), lo=0)
    b.add({j: 1 for j in lam}, EQ, 1)
    for g in inst.sublinear.generators:
        row = {t: Fraction(1)}
        for i, (bx, _) in enumerate(linked):
            row[lam[i]] = -dot(g, bx)
        b.add(row, GE, 0)
    obj = {t: Fraction(1)}
    for i, (_, v) in enumerate(linked):
        obj[lam[i]] = v
    b.set_objective(obj)
    res = b.solve()
    assert res.status == "optimal"
    weights = [res.point[j] for j in lam]
    witness = tuple(sum((w * p[c] for w, (p, _) in zip(weights, inst.convex.samples)),
                        start=Fraction(0)) for c in range(inst.z_dim))
    return res.value, witness


def ref_separator_lp(inst: SandwichInstance):
    """(largest margin, an x' attaining it) from the hand-built LP dual to
    ref_hypothesis_lp: max s over convex weights theta on the generators,
    with <sum_j theta_j g_j, B z_i> + v_i >= s for every sample."""
    gens = inst.sublinear.generators
    b = LpBuilder("max")
    s = b.var()
    theta = b.block(len(gens), lo=0)
    b.add({j: 1 for j in theta}, EQ, 1)
    for bx, v in inst.linked_samples():
        row = {s: Fraction(-1)}
        for j, g in enumerate(gens):
            row[theta[j]] = dot(g, bx)
        b.add(row, GE, -v)
    b.set_objective({s: 1})
    res = b.solve()
    assert res.status == "optimal"
    x_prime = tuple(sum((res.point[theta[j]] * g[c] for j, g in enumerate(gens)),
                        start=Fraction(0)) for c in range(inst.x_dim))
    return res.value, x_prime


def fenchel_report(inst: SandwichInstance):
    """verify's report on (k + S after B)* at the zero query."""
    scenario = DualityScenario.fenchel(inst.convex, inst.sublinear.as_h_form(), inst.link,
                                       [(Fraction(0),) * inst.z_dim])
    return verify(scenario)[0]


def worked_instance() -> SandwichInstance:
    """S = absolute value, k = -1 on [1, 2], identity link; x' = 1 is forced."""
    return SandwichInstance(
        SublinearFunctional.of([(1,), (-1,)]),
        PolyhedralFunction.v_form(1, [((1,), -1), ((2,), -1)]),
        AffineMap.identity(1),
    )


def violated_instance() -> SandwichInstance:
    """Same but k = -1 on [0, 2]; at z = 0 the bound -1 exceeds S(0) = 0."""
    return SandwichInstance(
        SublinearFunctional.of([(1,), (-1,)]),
        PolyhedralFunction.v_form(1, [((0,), -1), ((2,), -1)]),
        AffineMap.identity(1),
    )


class TestHypothesis:
    def test_worked_example_holds_tightly(self):
        check = hypothesis_check(worked_instance())
        assert check.holds and check.value == 0
        assert check.witness == (Fraction(1),)

    def test_violated_with_witness(self):
        check = hypothesis_check(violated_instance())
        assert not check.holds and check.value == -1
        assert check.witness == (Fraction(0),)

    def test_boolean_wrapper(self):
        assert verify_hypothesis(worked_instance())
        assert not verify_hypothesis(violated_instance())

    def test_ambient_set_checked(self):
        s = SublinearFunctional.of([(1,), (-1,)])
        k = PolyhedralFunction.v_form(1, [((1,), -1), ((2,), -1)])
        box = Polytope.of([(0,), (2,)])
        inst = SandwichInstance(s, k, AffineMap.identity(1), space=box)
        assert inst.space is box
        small = Polytope.of([(0,), (1,)])
        with pytest.raises(StructuralError):
            SandwichInstance(s, k, AffineMap.identity(1), space=small)

    def test_shape_validation(self):
        s = SublinearFunctional.of([(1, 0)])
        k = PolyhedralFunction.v_form(1, [((0,), 0)])
        with pytest.raises(StructuralError):
            SandwichInstance(s, k, AffineMap.identity(1))
        with pytest.raises(StructuralError):
            SandwichInstance(s, k.conjugate(), AffineMap.from_rows([[1], [0]]))


    def test_many_generators_within_budget(self):
        """Dimension 3, 300 generators of S and k of 20 samples: the left
        side is 24 variables by 304 general rows, solved through its
        transpose.  Solved directly it took about a minute.  The separator's
        margin equals S(Bz) + k(z) at the witness, which certifies both."""
        rng = random.Random(4)
        s = SublinearFunctional.of([tuple(rng.randint(-9, 9) for _ in range(3))
                                    for _ in range(300)])
        k = PolyhedralFunction.v_form(3, [(tuple(rng.randint(-5, 5) for _ in range(3)),
                                           rng.randint(0, 30)) for _ in range(20)])
        inst = SandwichInstance(s, k, AffineMap.identity(3))
        start = time.perf_counter()
        check = hypothesis_check(inst)
        elapsed = time.perf_counter() - start
        assert elapsed < 3, f"{elapsed:.1f}s exceeds 3s"
        assert check.holds and check.value > 0
        x_prime = check.separator.x_prime
        assert check_separator(inst, x_prime)
        assert separator_margin(inst, x_prime) == check.value == s(check.witness) + evaluate(
            k, check.witness)


class TestSeparator:
    def test_worked_example_unique_separator(self):
        sep = find_separator(worked_instance())
        assert sep.x_prime == (Fraction(1),)
        assert sep.margin == 0
        assert check_separator(worked_instance(), sep.x_prime)

    def test_violated_raises_with_witness(self):
        with pytest.raises(HypothesisViolated) as info:
            find_separator(violated_instance())
        assert info.value.witness == (Fraction(0),)
        assert info.value.value == -1

    def test_identity_bound_forces_minus_one(self):
        # slacks are -x'-1 at z=-1 and x'+1 at z=1, so only x'=-1 works
        sep = find_separator(konig_instance())
        assert sep.x_prime == (Fraction(-1),)
        assert sep.margin == 0
        assert check_separator(konig_instance(), sep.x_prime)

    def test_check_rejects_outside_hull(self):
        inst = worked_instance()
        assert not check_separator(inst, (2,))
        assert not check_separator(inst, ("1/2",))  # margin 1/2 - 1 < 0

    def test_margin_arithmetic(self):
        inst = worked_instance()
        assert separator_margin(inst, (1,)) == 0
        assert separator_margin(inst, ("1/2",)) == Fraction(-1, 2)

    def test_seeded_instances(self):
        rng = random.Random(101)
        seen_tight = seen_slack = seen_bad = 0
        for trial in range(60):
            kind = trial % 3
            if kind == 0:
                inst, slack = random_sandwich_instance(rng, satisfy=True, tight=True)
                seen_tight += 1
            elif kind == 1:
                inst, slack = random_sandwich_instance(rng, satisfy=True, tight=False)
                seen_slack += 1
            else:
                inst, slack = random_sandwich_instance(rng, satisfy=False)
                seen_bad += 1
            check = hypothesis_check(inst)
            assert check.value == slack
            if slack >= 0:
                sep = find_separator(inst)
                assert check_separator(inst, sep.x_prime)
                # max-margin optimum equals the hypothesis infimum
                assert sep.margin >= 0
            else:
                assert not check.holds
                s, k, b = inst.sublinear, inst.convex, inst.link
                w = check.witness
                assert s(b(w)) + k(w) == slack
                with pytest.raises(HypothesisViolated):
                    find_separator(inst)
        assert seen_tight and seen_slack and seen_bad

    def test_margin_equals_hypothesis_value_when_nonneg(self):
        rng = random.Random(202)
        for _ in range(20):
            inst, slack = random_sandwich_instance(rng, satisfy=True,
                                                   tight=bool(rng.getrandbits(1)))
            sep = find_separator(inst)
            assert sep.margin == hypothesis_check(inst).value == slack


class TestSeparatorViaConjugates:
    """The Fenchel route: lower bound in sample form, S in piece form; the
    separator is the dual witness of the identity at the zero query."""

    def test_worked_example(self):
        sep = find_separator(worked_instance())
        report = fenchel_report(worked_instance())
        assert sep.x_prime == report.witness == (Fraction(1),)
        assert sep.margin == 0 and report.rhs == 0 and report.gap == 0

    def test_seeded_instances_match_the_direct_separator(self):
        rng = random.Random(303)
        satisfied = violated = 0
        for trial in range(40):
            satisfy = trial % 2 == 0
            inst, slack = random_sandwich_instance(
                rng, satisfy=satisfy, tight=trial % 4 == 0)
            if satisfy:
                sep = find_separator(inst)
                report = fenchel_report(inst)
                # the dual optimum is the max-margin separator; the shared
                # optimal value is the negated hypothesis infimum
                assert report.gap == 0 and report.attained
                assert sep.x_prime == report.witness
                assert sep.margin == ref_separator_lp(inst)[0] == -report.rhs
                assert check_separator(inst, sep.x_prime)
                satisfied += 1
            else:
                with pytest.raises(HypothesisViolated):
                    find_separator(inst)
                assert not hypothesis_check(inst).holds
                violated += 1
        assert satisfied == violated == 20


class TestAgainstHandBuiltLps:
    """hypothesis_check against the primal and dual LPs written out by hand."""

    def test_seeded_draws(self):
        rng = random.Random(606)
        held = failed = 0
        for trial in range(40):
            inst, slack = random_sandwich_instance(
                rng, satisfy=trial % 3 != 2, tight=trial % 2 == 0)
            check = hypothesis_check(inst)
            value, _ = ref_hypothesis_lp(inst)
            margin, _ = ref_separator_lp(inst)
            assert check.value == value == margin == slack
            w = check.witness
            assert inst.convex(w) + inst.sublinear(inst.link(w)) == check.value
            if check.holds:
                sep = check.separator
                assert sep.margin == check.value
                assert all(t >= 0 for t in sep.weights) and sum(sep.weights) == 1
                gens = inst.sublinear.generators
                assert sep.x_prime == tuple(
                    sum((t * g[c] for t, g in zip(sep.weights, gens)), start=Fraction(0))
                    for c in range(inst.x_dim))
                held += 1
            else:
                assert check.separator is None
                failed += 1
        assert held and failed


def konig_instance() -> SandwichInstance:
    """S = absolute value, k = identity on [-1, 1]; the separator is x' = -1."""
    return SandwichInstance(
        SublinearFunctional.of([(1,), (-1,)]),
        PolyhedralFunction.v_form(1, [((-1,), -1), ((1,), 1)]),
        AffineMap.identity(1),
    )


class TestAuxT:
    def test_values_on_worked_example(self):
        inst = worked_instance()
        assert aux_T(inst, (0,)) == 0       # zero weights already optimal
        assert aux_T(inst, (1,)) == 1
        assert aux_T(inst, (2,)) == 2
        assert aux_T(inst, (4,)) == 4
        assert aux_T(inst, (-1,)) == -1     # unit weight on the sample at 1

    def test_zero_value_detects_violation(self):
        assert aux_T(worked_instance(), (0,)) == 0
        assert aux_T(violated_instance(), (0,)) is NEG_INF

    def test_identity_bound_is_linear(self):
        inst = konig_instance()
        for x in (-3, -1, 0, 2, 5):
            assert aux_T(inst, (Fraction(x),)) == -x

    def test_dominated_by_upper_bound(self):
        rng = random.Random(303)
        for _ in range(15):
            inst, _ = random_sandwich_instance(rng, satisfy=True)
            for _ in range(4):
                x = random_vec(rng, inst.x_dim)
                assert aux_T(inst, x) <= inst.sublinear(x)

    def test_positive_homogeneity(self):
        rng = random.Random(304)
        for _ in range(15):
            inst, _ = random_sandwich_instance(rng, satisfy=bool(rng.getrandbits(1)))
            x = random_vec(rng, inst.x_dim)
            t0 = aux_T(inst, x)
            for t in (Fraction(2), Fraction(1, 2)):
                scaled = tuple(t * c for c in x)
                if t0 is NEG_INF:
                    assert aux_T(inst, scaled) is NEG_INF
                else:
                    assert aux_T(inst, scaled) == t * t0

    def test_subadditive(self):
        rng = random.Random(305)
        for _ in range(15):
            inst, _ = random_sandwich_instance(rng, satisfy=True)
            x = random_vec(rng, inst.x_dim)
            y = random_vec(rng, inst.x_dim)
            both = tuple(a + b for a, b in zip(x, y))
            assert aux_T(inst, both) <= aux_T(inst, x) + aux_T(inst, y)

    def test_zero_value_tracks_hypothesis(self):
        rng = random.Random(404)
        for _ in range(20):
            inst, _ = random_sandwich_instance(rng, satisfy=bool(rng.getrandbits(1)))
            if hypothesis_check(inst).holds:
                assert aux_T(inst, (Fraction(0),) * inst.x_dim) == 0
            else:
                assert aux_T(inst, (Fraction(0),) * inst.x_dim) is NEG_INF

    def test_separator_lies_below(self):
        rng = random.Random(405)
        for inst in (worked_instance(), konig_instance()):
            sep = find_separator(inst)
            for _ in range(8):
                x = random_vec(rng, inst.x_dim)
                assert dot(sep.x_prime, x) <= aux_T(inst, x)
