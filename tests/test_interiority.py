"""Tests for interiority margins, the fiber boundedness test, and friends."""
import dataclasses
import random
import time
from fractions import Fraction

import pytest

from sandwichkit import numerics, randomgen
from sandwichkit.convexfn import V_FORM, PolyhedralFunction
from sandwichkit.duality import DualityScenario, verify
from sandwichkit.geometry import AffineMap, independent_rows, vec_neg
from sandwichkit.interiority import (
    MarginResult,
    SublevelQuery,
    Theorem20Result,
    _direction_reach,
    _moving_columns_lead,
    boundedness_condition,
    corollary21_auto,
    interiority_margin,
    lemma19a_check,
    theorem20_equivalence,
)
from sandwichkit.numerics import PointColumns, PreconditionError, vec
from sandwichkit.randomgen import random_sublevel_query
from support import (
    boundedness_at_some_sample,
    boundedness_over_domain,
    direction_reach_by_halflines,
    interior_point,
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


def margin_wall(n: int = 320) -> SublevelQuery:
    """phi of n samples on a space of dimension 6 and B 3 x 6, drawn from
    random.Random(n) in that order: per sample six coordinates
    randint(-5, 5), then a value randint(0, 30); per entry of B, row by
    row, randint(-2, 2), with no offset.  The level is the automatic one."""
    rng = random.Random(n)
    phi = PolyhedralFunction.v_form(6, [
        (tuple(rng.randint(-5, 5) for _ in range(6)), rng.randint(0, 30)) for _ in range(n)])
    b_map = AffineMap.from_rows([[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)])
    return SublevelQuery.build(phi, b_map)


def test_margin_and_theorem20_wall_within_budget():
    start = time.perf_counter()
    q = margin_wall()
    margin = interiority_margin(q)
    t20 = theorem20_equivalence(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 3, f"{elapsed:.1f}s exceeds 3s"
    assert (q.fiber_value, q.gamma, q.subspace_ok) == (0, 1, True)
    assert margin == MarginResult(True, Fraction(1809, 302), Fraction(1, 2))
    assert t20 == Theorem20Result(True, True, True, Fraction(0))


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
        sq = PointColumns([vec(p) for p in [(-1, -1), (1, -1), (1, 1), (-1, 1)]], 2)
        assert _direction_reach(sq, vec((0, 0)), self.UNITS) == 1
        assert _direction_reach(sq, vec(("1/2", 0)), self.UNITS) == Fraction(1, 2)
        assert _direction_reach(sq, vec((1, 0)), self.UNITS) == 0
        # outside the square every direction's LP is infeasible
        assert _direction_reach(sq, vec((2, 0)), self.UNITS) == 0

    def test_segment_in_plane(self):
        seg = PointColumns([vec(p) for p in [(-1, 0), (1, 0)]], 2)
        # no room in the second coordinate, so no ambient interior
        assert _direction_reach(seg, vec((0, 0)), self.UNITS) == 0

    def test_equals_one_lp_per_halfline(self, monkeypatch):
        """The free step, solved under +s and then -s for each +-pair, gives
        the reach of one LP per direction with r >= 0
        (support.direction_reach_by_halflines), from as many LPs: random
        points, targets in the hull and off it, unit and non-unit pairs,
        lone directions, fiber coordinates and value rows."""
        solves = []
        lp_solve = numerics.lp_solve
        monkeypatch.setattr(numerics, "lp_solve",
                            lambda *args: solves.append(1) or lp_solve(*args))
        rng = random.Random(3101)
        seen = set()

        def scalar(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3)))

        for _ in range(400):
            dim, fiber = rng.randint(1, 3), rng.randint(0, 2)
            width = dim + fiber
            points = [tuple(scalar(-4, 4) for _ in range(width))
                      for _ in range(rng.randint(1, 6))]
            weights = [rng.randint(0, 3) for _ in points]
            weights[0] += 1
            target = [sum((w * p[c] for w, p in zip(weights, points)), Fraction(0))
                      / sum(weights) for c in range(width)]
            if rng.random() < 0.3:
                target[rng.randrange(width)] += rng.randint(1, 5)
                seen.add("off the hull")
            directions = []
            for _ in range(rng.randint(1, 3)):
                d = tuple(scalar(-3, 3) for _ in range(dim))
                if not any(d):
                    d = (Fraction(1),) + d[1:]
                directions.append(d)
                if rng.random() < 0.7:
                    directions.append(vec_neg(d))
                    seen.add("pair")
                else:
                    seen.add("lone")
            value_row = None
            if rng.random() < 0.5:
                value_row = ([Fraction(rng.randint(0, 6)) for _ in points],
                             Fraction(rng.randint(0, 12), 2))
                seen.add("value row")
            solves.clear()
            got = _direction_reach(PointColumns(points, width), tuple(target), directions,
                                   value_row)
            n_got = len(solves)
            solves.clear()
            want = direction_reach_by_halflines(points, tuple(target), directions, value_row)
            assert got == want and type(got) is Fraction
            assert n_got == len(solves)
            seen.add("positive" if got > 0 else "zero")
            seen.update({"fiber"} if fiber else set())
        assert seen == {"off the hull", "pair", "lone", "value row", "positive", "zero",
                        "fiber"}


class TestInterior:
    """The interior test of `boundedness_condition`, B's moving coordinates
    of the target (0, A z0) against the square's slice through z0."""

    SQUARE = PolyhedralFunction.v_form(2, [(p, 0) for p in [(-1, -1), (1, -1), (1, 1), (-1, 1)]])

    @staticmethod
    def interior(target, k, z0=None) -> bool:
        """Whether target's first k coordinates are interior, within Q^k, to
        the square cut to the slice where the others equal target's: B
        moves the first k coordinates off target, and A reads the rest."""
        rows = [[1 if j == i else 0 for j in range(2)] for i in range(2)]
        b_map = AffineMap.from_rows(rows[:k], [-t for t in target[:k]], in_dim=2)
        a_map = AffineMap.from_rows(rows[k:], in_dim=2)
        return boundedness_condition(TestInterior.SQUARE, a_map, b_map,
                                     target if z0 is None else z0, 1)

    def test_slices_of_a_square(self):
        # k = 1: the first coordinate moves on the slice fixing the second
        assert self.interior(vec((0, 1)), 1)
        assert not self.interior(vec((1, 0)), 1)
        # off the square: the fiber LP is infeasible
        assert not self.interior(vec((2, 0)), 1, z0=(0, 0))
        assert self.interior(vec((0, 0)), 2)
        assert not self.interior(vec((0, 1)), 2)

    def test_no_moving_coordinate_is_membership(self, monkeypatch):
        # at k = 0 the fiber LP decides membership: after the check that z0
        # lies in the domain, one LP, and no reach LP
        solves = []
        lp_solve = numerics.lp_solve
        monkeypatch.setattr(numerics, "lp_solve",
                            lambda *args: solves.append(1) or lp_solve(*args))
        assert self.interior(vec((1, 1)), 0)
        assert len(solves) == 2


class TestMovingColumnsLead:
    """The rank test of `interior_through_domain` against ranks taken over
    the rationals: Q^k x {0} lies in lin aff D, the span of each block's
    differences, exactly when dropping the moving part loses k dimensions.
    Each block's coordinate c is a multiple of 1/d for a d of its own, so
    the blocks' integer images scale a shared column differently."""

    @staticmethod
    def draw_blocks(rng, k, n):
        # points base + sum_j t_j g_j, with integer t_j, over 0-2 integer
        # generators shared by every block and 0-1 of the block's own, so
        # the span often misses a moving direction; the base's coordinate c
        # is over a denominator of the block's own
        dim = k + n
        shared = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
        blocks = []
        for _ in range(rng.randint(1, 3)):
            gens = shared + [[rng.randint(-2, 2) for _ in range(dim)]
                             for _ in range(rng.randint(0, 1))]
            base = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
            points = []
            for _ in range(rng.randint(1, 4)):
                ts = [rng.randint(-2, 2) for _ in gens]
                points.append(tuple(base[c] + sum(s * g[c] for s, g in zip(ts, gens))
                                    for c in range(dim)))
            blocks.append(points)
        return blocks

    def test_matches_the_rational_ranks(self):
        rng = random.Random("moving columns lead")
        seen = set()
        for _ in range(400):
            k, n = rng.randint(1, 2), rng.randint(0, 2)
            blocks = self.draw_blocks(rng, k, n)
            diffs = [tuple(a - b for a, b in zip(p, points[0]))
                     for points in blocks for p in points[1:]]
            want = (len(independent_rows(diffs))
                    - len(independent_rows([d[k:] for d in diffs])) == k) if diffs else False
            images = [PointColumns(points, k + n) for points in blocks]
            got = _moving_columns_lead([len(points) for points in blocks],
                                       PointColumns.joined(images), k)
            assert got == want, (blocks, k)
            seen.add((len(blocks) > 1, got))
        assert seen == {(many, ok) for many in (False, True) for ok in (False, True)}


def sample_flag(psi, a_map, b_map) -> bool:
    """verify's boundedness flag of the trivariate scenario (psi, A, B)."""
    s = DualityScenario.trivariate(psi, a_map, b_map, [(0,) * a_map.out_dim])
    return verify(s)[0].hypothesis_flags["boundedness"]


class TestBoundednessOverSamples:
    """The boundedness flag of the one-function kinds is the condition
    over the whole domain, `support.boundedness_over_domain`: it holds
    wherever `boundedness_condition` holds at some sample, and also where
    it holds at a base point off the samples only, such as the point in
    the relative interior its LP finds."""

    def test_worked_examples(self):
        # one fiber, the whole line: 0 is interior to [-1, 1]
        psi, zero, ident = abs_on_unit(), AffineMap.zero_map(1), AffineMap.identity(1)
        assert sample_flag(psi, zero, ident)
        assert boundedness_at_some_sample(psi, zero, ident)
        # every fiber's B image is a single point
        example = TestBoundedness.product_example(g_points=(0,))
        assert not sample_flag(*example)
        assert not boundedness_at_some_sample(*example)

    def test_a_base_point_off_the_samples_counts(self):
        # the fiber through (0, 0) passes; through a sample p = +-1, B's
        # image is [-2, 0] or [0, 2], with 0 on its boundary at any level
        psi, a_map, b_map = TestBoundedness.product_example(g_points=(-1, 1))
        assert boundedness_condition(psi, a_map, b_map, (0, 0), 2)
        assert not boundedness_at_some_sample(psi, a_map, b_map)
        assert sample_flag(psi, a_map, b_map)

    @pytest.mark.parametrize("kind", sorted(FLAG_GENERATORS))
    def test_equals_the_condition_at_some_sample(self, kind):
        # the condition at some point of the domain: the flag is the exact
        # reference, the condition at some sample implies it, and a true
        # flag's own point passes the condition
        gens = FLAG_GENERATORS[kind]
        rng = random.Random(f"flags:{kind}")
        outcomes = set()
        for i in range(30):
            s = gens[i % len(gens)](rng)
            if s.kind == "fenchel" and s.g.form != V_FORM:
                continue
            tri = scenario_to_trivariate(
                dataclasses.replace(s, hypothesis_mode="boundedness"))
            got = verify(tri)[0].hypothesis_flags["boundedness"]
            assert got == boundedness_over_domain(tri)
            at_sample = boundedness_at_some_sample(tri.psi, tri.a_map, tri.b_map)
            assert got or not at_sample
            if got:
                delta = max(v for _, v in tri.psi.samples) + 1
                assert boundedness_condition(tri.psi, tri.a_map, tri.b_map,
                                             interior_point(tri), delta)
            outcomes.add((got, at_sample))
        assert {got for got, _ in outcomes} == {True, False}


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
