"""Tests for polyhedral functions, conjugation, evaluation, and the sup engine."""
import random
from fractions import Fraction

import pytest

from sandwichkit.convexfn import (
    AffineFunctional,
    PolyhedralFunction,
    SublinearFunctional,
    constant_function,
    eval_with_subgradient,
    evaluate,
    fenchel_young_gap,
    sup_affine_minus_convex,
)
from sandwichkit.geometry import AffineMap
from sandwichkit.numerics import POS_INF, NEG_INF, StructuralError, dot, vec
from support import indicator_of_point


def abs_v() -> PolyhedralFunction:
    """|z| restricted to [-1, 1], in sample form."""
    return PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])


def abs_h() -> PolyhedralFunction:
    """|z| on the whole line, in piece form."""
    return PolyhedralFunction.h_form(1, [((1,), 0), ((-1,), 0)])


def assert_fiber_rows_match_indicators(phi, terms, b_map):
    """The sup over {B z = 0} with B's rows as equality rows has the status
    and the value of the same sup with B z = 0 as an indicator term."""
    as_rows = sup_affine_minus_convex(phi, terms, [b_map])
    as_term = sup_affine_minus_convex(
        phi, list(terms) + [(indicator_of_point((0,) * b_map.out_dim), b_map)])
    assert (as_rows.status, as_rows.value) == (as_term.status, as_term.value)
    return as_rows


def random_fiber(rng: random.Random, d: int) -> AffineMap:
    """One or two small integer rows on Q^d, with an offset."""
    rows = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(rng.randint(1, 2))]
    return AffineMap.from_rows(rows, [rng.randint(-2, 2) for _ in rows], d)


class TestAffineFunctional:
    def test_eval(self):
        phi = AffineFunctional.of((1, 2), 3)
        assert phi((1, 1)) == 6
        with pytest.raises(StructuralError):
            phi((1,))

    def test_compose_worked_example(self):
        phi = AffineFunctional.of((1, 2), 3)
        m = AffineMap.from_rows([[1, 1], [0, 1]], [1, 0])
        comp = phi.compose(m)
        assert comp.coeffs == (Fraction(1), Fraction(3))
        assert comp.constant == 4

    def test_compose_matches_pointwise(self):
        rng = random.Random(5)
        for _ in range(20):
            n, m_dim = rng.randint(0, 3), rng.randint(0, 3)
            phi = AffineFunctional.of(
                [rng.randint(-4, 4) for _ in range(m_dim)], rng.randint(-4, 4))
            m = AffineMap.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m_dim)],
                [rng.randint(-4, 4) for _ in range(m_dim)], in_dim=n)
            z = vec([rng.randint(-3, 3) for _ in range(n)])
            assert phi.compose(m)(z) == phi(m(z))


class TestSublinear:
    def test_abs(self):
        s = SublinearFunctional.of([(1,), (-1,)])
        assert s((3,)) == 3
        assert s((-2,)) == 2

    def test_conjugate_is_indicator_of_hull(self):
        s = SublinearFunctional.of([(1,), (-1,)])
        ind = s.as_h_form().conjugate()
        assert evaluate(ind, ("1/2",)) == 0
        assert evaluate(ind, (1,)) == 0
        assert evaluate(ind, (2,)) == POS_INF

    def test_h_form_matches(self):
        s = SublinearFunctional.of([(1, 2), (-1, 0), (0, -2)])
        h = s.as_h_form()
        rng = random.Random(2)
        for _ in range(20):
            x = vec([rng.randint(-3, 3) for _ in range(2)])
            assert evaluate(h, x) == s(x)

    def test_needs_generators(self):
        with pytest.raises(StructuralError):
            SublinearFunctional.of([])


class TestEvaluate:
    def test_sample_form_envelope(self):
        f = abs_v()
        assert evaluate(f, ("1/2",)) == Fraction(1, 2)
        assert evaluate(f, (-1,)) == 1
        assert evaluate(f, (0,)) == 0
        assert evaluate(f, (2,)) == POS_INF

    def test_dominated_sample_is_ignored(self):
        f = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 1), (("1/2",), 5)])
        assert evaluate(f, ("1/2",)) == Fraction(1, 2)

    def test_piece_form(self):
        g = abs_h()
        assert evaluate(g, (-3,)) == 3
        value, slope = eval_with_subgradient(g, (2,))
        assert value == 2 and slope == (Fraction(1),)

    def test_conjugate_worked_example(self):
        fstar = abs_v().conjugate()
        assert evaluate(fstar, (3,)) == 2
        assert evaluate(fstar, (0,)) == 0
        assert evaluate(fstar, ("1/2",)) == 0

    def test_biconjugate_is_structural_identity(self):
        f = abs_v()
        assert f.conjugate().conjugate() == f

    def test_subgradient_supports_all_samples(self):
        f = abs_v()
        for z in [("-1/2",), (0,), ("3/4",), (1,)]:
            value, sub = eval_with_subgradient(f, z)
            assert sub is not None
            for p, v in f.samples:
                assert v >= value + dot(sub, tuple(a - b for a, b in zip(p, vec(z))))

    def test_subgradient_worked_values(self):
        _, sub = eval_with_subgradient(abs_v(), ("1/2",))
        assert sub == (Fraction(1),)
        _, sub = eval_with_subgradient(abs_v(), ("-1/2",))
        assert sub == (Fraction(-1),)

    def test_zero_dimensional(self):
        f = PolyhedralFunction.v_form(0, [((), 3), ((), 5)])
        assert evaluate(f, ()) == 3
        g = PolyhedralFunction.h_form(0, [((), 3), ((), 5)])
        assert evaluate(g, ()) == 5

    def test_indicators_and_constants(self):
        ind = indicator_of_point((2, -1))
        assert evaluate(ind, (2, -1)) == 0
        assert evaluate(ind, (0, 0)) == POS_INF
        assert evaluate(indicator_of_point((0, 0)), (0, 0)) == 0
        c = constant_function(2, "7/2")
        assert evaluate(c, (100, -3)) == Fraction(7, 2)

    def test_validation(self):
        with pytest.raises(StructuralError):
            PolyhedralFunction.v_form(1, [])
        with pytest.raises(StructuralError):
            PolyhedralFunction.v_form(2, [((1,), 0)])
        with pytest.raises(StructuralError):
            evaluate(abs_v(), (1, 2))
        with pytest.raises(StructuralError):
            abs_v().pieces
        with pytest.raises(StructuralError):
            abs_h().samples
        with pytest.raises(StructuralError):
            abs_h().domain()


class TestFenchelYoung:
    def test_gap_nonnegative_on_grid(self):
        f = abs_v()
        grid = [Fraction(n, 2) for n in range(-2, 3)]
        for z in grid:
            for x in [Fraction(n, 2) for n in range(-6, 7)]:
                gap = fenchel_young_gap(f, (z,), (x,))
                assert gap == POS_INF or gap >= 0

    def test_equality_at_subgradient(self):
        f = abs_v()
        for z in [("1/2",), ("-3/4",), (0,), (1,)]:
            _, sub = eval_with_subgradient(f, z)
            assert fenchel_young_gap(f, z, sub) == 0


class TestSupEngine:
    def test_worked_example_sample_form(self):
        # sup over p in [-1,1] of 3p - |p| is 2, attained at p = 1
        res = sup_affine_minus_convex(
            AffineFunctional.of((3,)), [(abs_v(), AffineMap.identity(1))])
        assert res.status == "attained"
        assert res.value == 2
        assert res.argmax == (Fraction(1),)

    def test_piece_form_term(self):
        # sup of z/2 - |z| over the line is 0 at z = 0
        res = sup_affine_minus_convex(
            AffineFunctional.of(("1/2",)), [(abs_h(), AffineMap.identity(1))])
        assert res.status == "attained"
        assert res.value == 0

    def test_unbounded(self):
        res = sup_affine_minus_convex(
            AffineFunctional.of((1,)), [(constant_function(1, 0), AffineMap.identity(1))])
        assert res.status == "unbounded"
        assert res.value == POS_INF
        assert res.ray is not None and res.ray[0] > 0

    def test_empty_domain_intersection(self):
        res = sup_affine_minus_convex(
            AffineFunctional.of((1,)),
            [(indicator_of_point((1,)), AffineMap.identity(1)),
             (indicator_of_point((2,)), AffineMap.identity(1))])
        assert res.status == "empty"
        assert res.value == NEG_INF

    def test_mixed_forms_and_map(self):
        # sup over z in [-1,1] of z - |z| - |2z| = 0 at z = 0
        double = AffineMap.from_rows([[2]])
        res = sup_affine_minus_convex(
            AffineFunctional.of((1,)),
            [(abs_v(), AffineMap.identity(1)), (abs_h(), double)])
        assert res.status == "attained"
        assert res.value == 0
        assert res.argmax == (Fraction(0),)

    def test_indicator_pins_variable(self):
        # force z = (1, 2) through an indicator term, then read phi there
        res = sup_affine_minus_convex(
            AffineFunctional.of((1, 1), 5),
            [(indicator_of_point((1, 2)), AffineMap.identity(2))])
        assert res.status == "attained"
        assert res.value == 8
        assert res.argmax == (Fraction(1), Fraction(2))

    def test_constant_added_to_an_attained_value(self):
        # max 2x + 3y + 1/2 over the hull of (0, 0), (4, 0), (2, 2), (0, 2),
        # which is x, y >= 0, y <= 2, x + y <= 4: 21/2 at (2, 2)
        region = PolyhedralFunction.v_form(
            2, [((0, 0), 0), ((4, 0), 0), ((2, 2), 0), ((0, 2), 0)])
        res = sup_affine_minus_convex(
            AffineFunctional.of((2, 3), "1/2"), [(region, AffineMap.identity(2))])
        assert (res.status, res.value) == ("attained", Fraction(21, 2))
        assert res.argmax == (Fraction(2), Fraction(2))

    def test_constant_leaves_an_infinite_sup_infinite(self):
        ident = AffineMap.identity(1)
        for c in ("-7/2", 5):
            res = sup_affine_minus_convex(
                AffineFunctional.of((1,), c), [(constant_function(1, 0), ident)])
            assert (res.status, res.value) == ("unbounded", POS_INF)
            res = sup_affine_minus_convex(
                AffineFunctional.of((1,), c),
                [(indicator_of_point((1,)), ident), (indicator_of_point((2,)), ident)])
            assert (res.status, res.value) == ("empty", NEG_INF)

    def test_conjugate_via_sup_matches_relabel(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(25):
            d = rng.randint(1, 2)
            pts = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
                   for _ in range(rng.randint(1, 4))]
            f = PolyhedralFunction.v_form(
                d, [(p, Fraction(rng.randint(-3, 3))) for p in pts])
            x = vec([rng.randint(-2, 2) for _ in range(d)])
            res = sup_affine_minus_convex(
                AffineFunctional.of(x), [(f, AffineMap.identity(d))])
            assert res.value == evaluate(f.conjugate(), x)
            seen.add(assert_fiber_rows_match_indicators(
                AffineFunctional.of(x), [(f, AffineMap.identity(d))], random_fiber(rng, d)).status)
        assert seen == {"attained", "empty"}

    def test_piece_form_conjugate_via_sup_matches_relabel(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(25):
            d = rng.randint(1, 2)
            g = PolyhedralFunction.h_form(
                d, [(tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)),
                     Fraction(rng.randint(-3, 3)))
                    for _ in range(rng.randint(1, 4))])
            y = vec([rng.randint(-2, 2) for _ in range(d)])
            res = sup_affine_minus_convex(
                AffineFunctional.of(y), [(g, AffineMap.identity(d))])
            expected = evaluate(g.conjugate(), y)
            if expected == POS_INF:
                assert res.status == "unbounded"
            else:
                assert res.value == expected
            seen.add(assert_fiber_rows_match_indicators(
                AffineFunctional.of(y), [(g, AffineMap.identity(d))], random_fiber(rng, d)).status)
        assert seen == {"attained", "unbounded", "empty"}

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            sup_affine_minus_convex(
                AffineFunctional.of((1, 0)), [(abs_v(), AffineMap.identity(2))])
        with pytest.raises(StructuralError):
            sup_affine_minus_convex(
                AffineFunctional.of((1,)), [(abs_v(), AffineMap.from_rows([[1], [0]]))])
