"""Tests for interiority margins, the fiber boundedness test, and friends."""
import dataclasses
import random
from fractions import Fraction

import pytest

from sandwichkit import numerics, randomgen
from sandwichkit.convexfn import V_FORM, PolyhedralFunction
from sandwichkit.geometry import AffineMap
from sandwichkit.interiority import (
    SublevelQuery,
    _direction_reach,
    _interior,
    boundedness_condition,
    boundedness_over_samples,
    corollary21_auto,
    interiority_margin,
    lemma19a_check,
    theorem20_equivalence,
)
from sandwichkit.numerics import PreconditionError, vec
from sandwichkit.randomgen import random_sublevel_query
from support import (
    lemma19a_by_scales,
    random_bibivariate_scenario,
    random_violating_fenchel,
    random_violating_trivariate,
    scenario_to_trivariate,
)


def abs_on_unit() -> PolyhedralFunction:
    return PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])


def query(gamma) -> SublevelQuery:
    return SublevelQuery.build(abs_on_unit(), AffineMap.identity(1), gamma)


class TestMargin:
    def test_worked_example(self):
        res = interiority_margin(query(Fraction(1, 2)))
        assert res.holds
        assert res.margin == Fraction(1, 4)
        assert res.level_used == Fraction(1, 4)

    def test_level_at_infimum_fails(self):
        res = interiority_margin(query(0))
        assert not res.holds and res.margin == 0

    def test_shifted_fiber(self):
        # flat function on [0, 2], direction map z - 1: image of any
        # sublevel set is [-1, 1], so the margin is the full unit radius
        phi = PolyhedralFunction.v_form(1, [((0,), 0), ((2,), 0)])
        b_map = AffineMap(((Fraction(1),),), (Fraction(-1),), 1)
        q = SublevelQuery.build(phi, b_map, 1)
        res = interiority_margin(q)
        assert res.holds and res.margin == 1
        assert res.level_used == Fraction(1, 2)

    def test_trivial_direction_space(self):
        zero_map = AffineMap(((Fraction(0),),), (Fraction(0),), 1)
        q = SublevelQuery.build(abs_on_unit(), zero_map, Fraction(1, 2))
        assert q.subspace_ok and not q.y.basis
        res = interiority_margin(q)
        assert res.holds and res.margin == 0 and res.level_used == Fraction(1, 2)
        assert not interiority_margin(
            SublevelQuery.build(abs_on_unit(), zero_map, 0)
        ).holds

    def test_subspace_precondition(self):
        # domain [0, 1] maps to images whose scalings fill a half-line only
        phi = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 0)])
        q = SublevelQuery.build(phi, AffineMap.identity(1), 1)
        assert not q.subspace_ok
        with pytest.raises(PreconditionError):
            interiority_margin(q)

    def test_holds_monotone_in_gamma(self):
        rng = random.Random(501)
        for _ in range(40):
            q = random_sublevel_query(rng)
            higher = SublevelQuery.build(q.phi, q.b_map, q.gamma + Fraction(1, 2))
            if interiority_margin(q).holds:
                assert interiority_margin(higher).holds

    def test_shift_invariance(self):
        rng = random.Random(502)
        for _ in range(25):
            q = random_sublevel_query(rng)
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            shifted = PolyhedralFunction.v_form(
                q.phi.dim, [(p, v + c) for p, v in q.phi.samples]
            )
            qs = SublevelQuery.build(shifted, q.b_map, q.gamma + c)
            a, b = interiority_margin(q), interiority_margin(qs)
            assert a.holds == b.holds
            assert a.margin == b.margin
            assert b.level_used == a.level_used + c


class TestBoundedness:
    @staticmethod
    def product_example(g_points=(-2, 0, 2)):
        # first factor flat on [-1, 1]; second factor |x| sampled at g_points
        samples = []
        for p in (-1, 1):
            for x in g_points:
                samples.append(((Fraction(p), Fraction(x)), Fraction(abs(x))))
        psi = PolyhedralFunction.v_form(2, samples)
        a_map = AffineMap.from_rows([[1, 0]])
        b_map = AffineMap.from_rows([[-1, 1]])
        return psi, a_map, b_map

    def test_worked_example(self):
        psi, a_map, b_map = self.product_example()
        assert boundedness_condition(psi, a_map, b_map, (0, 0), 1)

    def test_pointlike_slice_fails(self):
        psi, a_map, b_map = self.product_example(g_points=(0,))
        assert not boundedness_condition(psi, a_map, b_map, (0, 0), 1)

    def test_level_below_fiber_infimum_fails(self):
        psi, a_map, b_map = self.product_example()
        assert not boundedness_condition(psi, a_map, b_map, (0, 0), 0)

    def test_base_point_outside_domain(self):
        psi, a_map, b_map = self.product_example()
        with pytest.raises(PreconditionError):
            boundedness_condition(psi, a_map, b_map, (3, 3), 1)


# Seeded generators of every scenario kind whose boundedness flag runs the
# sample loop; each kind gets a generator on which the flag can hold and
# one on which it can fail.
FLAG_GENERATORS = {
    "trivariate": (
        lambda rng: randomgen.random_crosscheck_scenario(rng, "trivariate"),
        randomgen.random_trivariate_scenario,
        random_violating_trivariate,
    ),
    "fenchel": (
        lambda rng: randomgen.random_crosscheck_scenario(rng, "fenchel"),
        random_violating_fenchel,
    ),
    "quadrivariate": (
        lambda rng: randomgen.random_crosscheck_scenario(rng, "quadrivariate"),
    ),
    "bibivariate": (
        lambda rng: randomgen.random_crosscheck_scenario(rng, "bibivariate"),
        random_bibivariate_scenario,
    ),
    "partial_infconv": (
        lambda rng: randomgen.random_crosscheck_scenario(rng, "partial_infconv"),
        lambda rng: random_bibivariate_scenario(rng, partial=True),
    ),
}


class TestDirectionReach:
    UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def test_square(self):
        sq = [vec(p) for p in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
        assert _direction_reach(sq, vec((0, 0)), self.UNITS) == 1
        assert _direction_reach(sq, vec(("1/2", 0)), self.UNITS) == Fraction(1, 2)
        assert _direction_reach(sq, vec((1, 0)), self.UNITS) == 0
        # outside the square every direction's LP is infeasible
        assert _direction_reach(sq, vec((2, 0)), self.UNITS) == 0

    def test_segment_in_plane(self):
        seg = [vec(p) for p in [(-1, 0), (1, 0)]]
        # no room in the second coordinate, so no ambient interior
        assert _direction_reach(seg, vec((0, 0)), self.UNITS) == 0


class TestInterior:
    SQUARE = [vec(p) for p in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]

    def test_slices_of_a_square(self):
        # k = 1: the first coordinate moves on the slice fixing the second
        assert _interior(self.SQUARE, vec((0, 1)), 1)
        assert not _interior(self.SQUARE, vec((1, 0)), 1)
        assert not _interior(self.SQUARE, vec((0, 2)), 1)
        assert _interior(self.SQUARE, vec((0, 0)), 2)
        assert not _interior(self.SQUARE, vec((0, 1)), 2)

    def test_no_moving_coordinate_is_membership(self):
        # every caller's target lies in the hull, so k = 0 holds with no LP
        assert _interior(self.SQUARE, vec((1, 1)), 0)


class TestBoundednessOverSamples:
    def test_worked_examples(self):
        # one fiber, the whole line: 0 is interior to [-1, 1]
        psi, zero, ident = abs_on_unit(), AffineMap.zero_map(1), AffineMap.identity(1)
        assert boundedness_over_samples(psi, zero, ident)
        # every fiber's B image is a single point
        assert not boundedness_over_samples(*TestBoundedness.product_example(g_points=(0,)))

    def test_only_sample_base_points_count(self):
        # the fiber through (0, 0) passes; through a sample p = +-1, B's
        # image is [-2, 0] or [0, 2], with 0 on its boundary at any level
        psi, a_map, b_map = TestBoundedness.product_example(g_points=(-1, 1))
        assert boundedness_condition(psi, a_map, b_map, (0, 0), 2)
        assert not boundedness_over_samples(psi, a_map, b_map)

    @pytest.mark.parametrize("kind", sorted(FLAG_GENERATORS))
    def test_equals_the_condition_at_some_sample(self, kind):
        gens = FLAG_GENERATORS[kind]
        rng = random.Random(f"flags:{kind}")
        outcomes = set()
        for i in range(30):
            s = gens[i % len(gens)](rng)
            if s.kind == "fenchel" and s.g.form != V_FORM:
                continue
            tri = scenario_to_trivariate(
                dataclasses.replace(s, hypothesis_mode="boundedness"))
            delta = max(v for _, v in tri.psi.samples) + 1
            want = any(boundedness_condition(tri.psi, tri.a_map, tri.b_map, z0, delta)
                       for z0, _ in tri.psi.samples)
            got = boundedness_over_samples(tri.psi, tri.a_map, tri.b_map)
            assert got == want
            outcomes.add(got)
        assert outcomes == {True, False}


class TestTheorem20:
    def test_worked_queries(self):
        for gamma, want in ((Fraction(1, 2), True), (0, False)):
            res = theorem20_equivalence(query(gamma))
            assert (res.c24, res.c25, res.c26) == (want,) * 3

    def test_refuses_without_subspace(self):
        phi = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 0)])
        with pytest.raises(PreconditionError):
            theorem20_equivalence(SublevelQuery.build(phi, AffineMap.identity(1), 1))

    def test_three_forms_agree(self):
        rng = random.Random(503)
        for _ in range(100):
            res = theorem20_equivalence(random_sublevel_query(rng))
            assert res.c24 == res.c25 == res.c26


class TestLemma19a:
    def test_worked_probes(self):
        q = query(Fraction(1, 2))
        res = lemma19a_check(q, Fraction(1, 2), [(2,)])
        assert res and res.assignments == (((Fraction(2),), 5),)
        res0 = lemma19a_check(q, Fraction(1, 2), [(0,)])
        assert res0.assignments[0][1] == 1

    def test_exhaustion_reports_probe(self):
        res = lemma19a_check(query(Fraction(1, 2)), Fraction(1, 2), [(100,)], i_max=16)
        assert not res
        assert res.assignments == (((Fraction(100),), None),)

    def test_monotone_in_cap_and_level(self):
        q = query(Fraction(1, 2))
        i_small = lemma19a_check(q, Fraction(1, 2), [(2,)], i_max=5).assignments[0][1]
        i_large = lemma19a_check(q, Fraction(1, 2), [(2,)], i_max=16).assignments[0][1]
        assert i_small == i_large == 5
        looser = lemma19a_check(q, Fraction(3, 2), [(2,)]).assignments[0][1]
        assert looser <= 5

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            lemma19a_check(query(Fraction(1, 2)), 0, [(1,)])
        with pytest.raises(PreconditionError):
            lemma19a_check(query(Fraction(1, 2)), Fraction(1, 2), [(1, 1)])

    def test_probe_outside_span(self):
        zero_map = AffineMap(((Fraction(0),),), (Fraction(0),), 1)
        q = SublevelQuery.build(abs_on_unit(), zero_map, 1)
        with pytest.raises(PreconditionError):
            lemma19a_check(q, 1, [(1,)])

    def test_matches_one_fiber_lp_per_scale(self, monkeypatch):
        """The one reach LP per probe gives the assignments of the
        definition, one fiber LP per scale (support.lemma19a_by_scales),
        with at most one more LP per probe."""
        solves = []
        lp_solve = numerics.lp_solve
        monkeypatch.setattr(numerics, "lp_solve",
                            lambda *args: solves.append(1) or lp_solve(*args))
        rng = random.Random(505)
        outcomes = set()
        for _ in range(300):
            q = random_sublevel_query(rng)
            delta = q.fiber_value + Fraction(rng.randint(1, 6), rng.choice((1, 2, 4)))
            probes = []
            for _ in range(3):
                scale = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))
                coeffs = [rng.randint(-2, 2) for _ in q.y.basis]
                probes.append(tuple(
                    scale * sum((k * base[c] for k, base in zip(coeffs, q.y.basis)), Fraction(0))
                    for c in range(q.b_map.out_dim)))
            i_max = rng.randint(0, 16)
            solves.clear()
            got = lemma19a_check(q, delta, probes, i_max)
            assert len(solves) <= 2 * len(probes)
            assert got == lemma19a_by_scales(q, delta, probes, i_max)
            outcomes.update(i if i is None else min(i, 2) for _, i in got.assignments)
        assert outcomes == {None, 1, 2}


class TestCorollary21:
    def test_worked_example(self):
        res = corollary21_auto(SublevelQuery.build(abs_on_unit(), AffineMap.identity(1)))
        assert res.gamma == 1
        assert res.margin.holds and res.margin.margin == Fraction(1, 2)
        assert res.margin.level_used == Fraction(1, 2)

    def test_empty_fiber_refused(self):
        phi = PolyhedralFunction.v_form(1, [((1,), 0), ((2,), 0)])
        with pytest.raises(PreconditionError):
            corollary21_auto(SublevelQuery.build(phi, AffineMap.identity(1)))

    def test_subspace_refused(self):
        phi = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 0)])
        with pytest.raises(PreconditionError):
            corollary21_auto(SublevelQuery.build(phi, AffineMap.identity(1)))

    def test_automatic_level_passes_equivalence(self):
        rng = random.Random(504)
        for _ in range(30):
            q = random_sublevel_query(rng)
            res = corollary21_auto(SublevelQuery.build(q.phi, q.b_map))
            q2 = SublevelQuery.build(q.phi, q.b_map, res.gamma)
            res2 = theorem20_equivalence(q2)
            assert res2.c24 and res2.c25 and res2.c26
