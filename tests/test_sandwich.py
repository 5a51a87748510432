"""Tests for the sandwich hypothesis, separators, and the homogenized bound."""
import random
from fractions import Fraction

import pytest

from sandwichkit.convexfn import PolyhedralFunction, SublinearFunctional
from sandwichkit.geometry import AffineMap, Polytope
from sandwichkit.numerics import NEG_INF, StructuralError, dot
from sandwichkit.randomgen import random_sandwich_instance, random_vec
from sandwichkit.sandwich import (
    HypothesisViolated,
    SandwichInstance,
    aux_T,
    check_separator,
    find_separator,
    hypothesis_check,
    separator_margin,
    separator_via_conjugates,
    verify_hypothesis,
)


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
    """The Fenchel route: lower bound in sample form, S in piece form."""

    def test_worked_example(self):
        sep, report = separator_via_conjugates(worked_instance())
        assert sep.x_prime == (Fraction(1),)
        assert sep.margin == 0 and report.rhs == 0 and report.gap == 0

    def test_seeded_instances_match_the_direct_separator(self):
        rng = random.Random(303)
        satisfied = violated = 0
        for trial in range(40):
            satisfy = trial % 2 == 0
            inst, slack = random_sandwich_instance(
                rng, satisfy=satisfy, tight=trial % 4 == 0)
            if satisfy:
                sep, report = separator_via_conjugates(inst)
                # the dual optimum is the max-margin separator; the shared
                # optimal value is the negated hypothesis infimum
                assert report.gap == 0 and report.attained
                assert sep.margin == find_separator(inst).margin == -report.rhs
                assert check_separator(inst, sep.x_prime)
                satisfied += 1
            else:
                with pytest.raises(HypothesisViolated):
                    separator_via_conjugates(inst)
                assert not hypothesis_check(inst).holds
                violated += 1
        assert satisfied == violated == 20


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
