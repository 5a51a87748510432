"""Tests for the grid brute-force oracle and the scenario cross-checker."""
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from sandwichkit import cli
from sandwichkit.convexfn import (
    AffineFunctional,
    PolyhedralFunction,
    evaluate,
    sup_affine_minus_convex,
)
from sandwichkit.duality import DualityScenario
from sandwichkit.geometry import AffineMap, solve_linear
from sandwichkit.numerics import POS_INF, PreconditionError, StructuralError
from sandwichkit.oracle import (
    CrosscheckReport,
    GridSpec,
    OracleResult,
    crosscheck_scenario,
    double_description,
    dual_groups,
    dual_objective_value,
    envelope_value,
    grid_fiber_inf,
    grid_sup,
    lipschitz_bound,
    oracle_eval,
    weight_grid,
)
from sandwichkit.randomgen import (
    random_crosscheck_scenario,
    random_vec,
    random_vform,
)


def abs_three() -> PolyhedralFunction:
    """|z| on [-1, 1] with the kink sampled."""
    return PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])


def identity(dim: int) -> AffineMap:
    return AffineMap.identity(dim)


def subset_envelope(f: PolyhedralFunction, point) -> Fraction:
    """Naive reference envelope: the least interpolated value over every
    sample subset of at most dim + 1 points holding the point as a convex
    combination, +inf when none does.  Facets of the lower hull are spanned
    by such subsets, so the minimum misses nothing."""
    pts = [p for p, _ in f.samples]
    vals = [v for _, v in f.samples]
    target = (Fraction(1),) + tuple(Fraction(c) for c in point)
    best = None
    for size in range(1, f.dim + 2):
        for idx in combinations(range(len(pts)), size):
            rows = [[Fraction(1)] * size]
            for c in range(f.dim):
                rows.append([pts[i][c] for i in idx])
            weights = solve_linear(rows, target)
            if weights is None or any(wt < 0 for wt in weights):
                continue
            value = sum(
                (weights[k] * vals[i] for k, i in enumerate(idx)), start=Fraction(0)
            )
            if best is None or value < best:
                best = value
    return POS_INF if best is None else best


def convex_combination(pts, weights) -> tuple:
    total = sum(weights)
    return tuple(
        sum((Fraction(w, total) * p[c] for w, p in zip(weights, pts)), start=Fraction(0))
        for c in range(len(pts[0]))
    )


class TestGridSpec:
    def test_rejects_bad_resolution(self):
        with pytest.raises(StructuralError):
            GridSpec(0)
        with pytest.raises(StructuralError):
            GridSpec(-2)

    def test_bound_shrinks_with_resolution(self):
        pts = [(Fraction(-1),), (Fraction(1),)]
        b4 = GridSpec(4).gap_bound(pts, Fraction(3))
        b8 = GridSpec(8).gap_bound(pts, Fraction(3))
        assert b8 == b4 / 2

    def test_single_vertex_bound_is_zero(self):
        assert GridSpec(1).gap_bound([(Fraction(2),)], Fraction(5)) == 0


class TestWeightGrid:
    def test_contains_vertices_at_every_resolution(self):
        for n in (1, 2, 5):
            grid = weight_grid(3, n)
            for j in range(3):
                unit = tuple(Fraction(1 if i == j else 0) for i in range(3))
                assert unit in grid

    def test_nested_refinement(self):
        coarse = set(weight_grid(3, 2))
        fine = set(weight_grid(3, 4))
        assert coarse <= fine

    def test_all_weights_sum_to_one(self):
        for lam in weight_grid(4, 3):
            assert sum(lam) == 1
            assert all(w >= 0 for w in lam)


class TestDoubleDescription:
    def test_wedge_times_line(self):
        # {x : x0 >= |x1|}, x2 free
        lineality, rays = double_description([(-1, 1, 0), (-1, -1, 0)], 3)
        assert {tuple(abs(c) for c in v) for v in lineality} == {(0, 0, 1)}
        assert sorted(rays) == [(1, -1, 0), (1, 1, 0)]

    def test_generators_are_primitive(self):
        lineality, rays = double_description([(-6, 4), (2, -9)], 2)
        assert lineality == []
        assert sorted(rays) == [(2, 3), (9, 2)]


class TestEnvelopeValue:
    def test_matches_lp_evaluation(self):
        rng = random.Random(701)
        for _ in range(25):
            dim = rng.randint(1, 2)
            f = random_vform(rng, dim, 5)
            pts = [p for p, _ in f.samples]
            for _ in range(4):
                lam = [abs(rng.randint(0, 3)) for _ in pts]
                total = sum(lam) or 1
                z = tuple(
                    sum((Fraction(lam[i], total) * pts[i][c] for i in range(len(pts))),
                        start=Fraction(0))
                    for c in range(dim)
                )
                assert envelope_value(f, z) == evaluate(f, z)

    def test_outside_hull_is_infinite(self):
        assert envelope_value(abs_three(), (Fraction(2),)) == POS_INF

    def test_matches_subset_enumeration(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)

        @hyp.settings(max_examples=120, deadline=None, derandomize=True)
        @hyp.given(st.data())
        def check(data):
            dim = data.draw(st.integers(1, 4), "dim")
            m = data.draw(st.integers(1, 7), "samples")
            point = st.tuples(*[scalar] * dim)
            shape = data.draw(st.sampled_from(["general", "flat", "repeated"]))
            if shape == "flat":
                # collinear, coplanar, ...: a lower-dimensional hull
                k = data.draw(st.integers(0, dim - 1), "flat dim")
                base = data.draw(point)
                dirs = [data.draw(point) for _ in range(k)]
                coords = [data.draw(st.tuples(*[scalar] * k)) for _ in range(m)]
                pts = [
                    tuple(base[c] + sum((x * d[c] for x, d in zip(xs, dirs)),
                                        start=Fraction(0)) for c in range(dim))
                    for xs in coords
                ]
            elif shape == "repeated":
                distinct = data.draw(st.lists(point, min_size=1, max_size=max(1, m - 1)))
                pts = [data.draw(st.sampled_from(distinct)) for _ in range(m)]
            else:
                pts = [data.draw(point) for _ in range(m)]
            f = PolyhedralFunction.v_form(dim, [(p, data.draw(scalar)) for p in pts])
            weights = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
            weights[data.draw(st.integers(0, m - 1))] += 1
            on_hull = convex_combination(pts, weights)
            assert envelope_value(f, on_hull) == subset_envelope(f, on_hull) != POS_INF
            anywhere = data.draw(point)
            assert envelope_value(f, anywhere) == subset_envelope(f, anywhere)
            beyond = (max(p[0] for p in pts) + Fraction(1, 7),) + anywhere[1:]
            assert envelope_value(f, beyond) == subset_envelope(f, beyond) == POS_INF

        check()

    def test_quadrivariate_psi_within_budget(self):
        text = (Path(cli.__file__).parent / "scenarios" / "quadrivariate.json").read_text()
        psi = cli.parse_scenario(text).functions["psi"]
        rng = random.Random(709)
        pts = [p for p, _ in psi.samples]
        probes = [
            convex_combination(pts, [rng.randint(0, 2) for _ in pts])
            for _ in range(50)
        ]
        start = time.perf_counter()
        values = [envelope_value(psi, z) for z in probes]
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"{elapsed:.1f}s for 50 calls exceeds 5s"
        assert values == [evaluate(psi, z) for z in probes]

    def test_rejects_piece_form(self):
        h = PolyhedralFunction.h_form(1, [((1,), 0), ((-1,), 0)])
        with pytest.raises(PreconditionError):
            envelope_value(h, (0,))
        assert oracle_eval(h, (Fraction(3),)) == 3


class TestLipschitzBound:
    def test_kinked_interval(self):
        assert lipschitz_bound(abs_three()) == 1

    def test_piece_form_steepest_piece(self):
        h = PolyhedralFunction.h_form(1, [((3,), 0), ((-1,), 2)])
        assert lipschitz_bound(h) == 3

    def test_dominates_sampled_differences(self):
        rng = random.Random(702)
        for _ in range(15):
            f = random_vform(rng, rng.randint(1, 2), 4)
            bound = lipschitz_bound(f)
            pts = [p for p, _ in f.samples]
            for p in pts:
                for q in pts:
                    ep, eq = envelope_value(f, p), envelope_value(f, q)
                    dist = max((abs(a - b) for a, b in zip(p, q)), default=Fraction(0))
                    assert abs(ep - eq) <= bound * dist


class TestGridSup:
    def test_point_indicator_is_exact_anywhere(self):
        ind = PolyhedralFunction.v_form(1, [((0,), 0)])
        for n in (1, 3, 8):
            r = grid_sup(AffineFunctional((0,), 0), [(ind, identity(1))], GridSpec(n))
            assert r.value == 0 and r.conclusive and r.bound == 0

    def test_vertex_attained_worked_example(self):
        r = grid_sup(AffineFunctional((3,), 0), [(abs_three(), identity(1))], GridSpec(8))
        assert r.value == 2
        assert r.argmax == (Fraction(1),)

    def test_flat_direction_worked_example(self):
        r = grid_sup(AffineFunctional((1,), 0), [(abs_three(), identity(1))], GridSpec(8))
        assert r.value == 0

    def test_requires_identity_first_term(self):
        shift = AffineMap.from_rows([[1]], [1])
        with pytest.raises(PreconditionError):
            grid_sup(AffineFunctional((1,), 0), [(abs_three(), shift)], GridSpec(2))

    def test_never_exceeds_lp_supremum(self):
        rng = random.Random(703)
        for _ in range(15):
            dim = rng.randint(1, 2)
            f = random_vform(rng, dim, 5)
            phi = AffineFunctional(random_vec(rng, dim), Fraction(0))
            terms = [(f, identity(dim))]
            sup = sup_affine_minus_convex(phi, terms)
            r = grid_sup(phi, terms, GridSpec(3))
            assert sup.status == "attained"
            assert r.conclusive
            assert r.value <= sup.value
            assert sup.value - r.value <= r.bound

    def test_exact_when_lp_argmax_is_a_sample(self):
        rng = random.Random(704)
        hits = 0
        for _ in range(30):
            dim = rng.randint(1, 2)
            f = random_vform(rng, dim, 4)
            phi = AffineFunctional(random_vec(rng, dim, -4, 4), Fraction(0))
            terms = [(f, identity(dim))]
            sup = sup_affine_minus_convex(phi, terms)
            if sup.argmax in [p for p, _ in f.samples]:
                hits += 1
                r = grid_sup(phi, terms, GridSpec(1))
                assert r.value == sup.value
        assert hits >= 5

    def test_monotone_refinement(self):
        rng = random.Random(705)
        for _ in range(10):
            dim = rng.randint(1, 2)
            f = random_vform(rng, dim, 5)
            phi = AffineFunctional(random_vec(rng, dim), Fraction(0))
            terms = [(f, identity(dim))]
            values = [grid_sup(phi, terms, GridSpec(n)).value for n in (1, 2, 3, 4)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_second_term_domain_skips_probes(self):
        wide = PolyhedralFunction.v_form(1, [((-2,), 0), ((2,), 0)])
        narrow = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 0)])
        r = grid_sup(AffineFunctional((1,), 0),
                     [(wide, identity(1)), (narrow, identity(1))], GridSpec(4))
        assert r.value == 1
        assert r.argmax == (Fraction(1),)


class TestGridFiberInf:
    def trimmed_product(self):
        from sandwichkit.duality import product_function

        zero_on = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        abs_two = PolyhedralFunction.v_form(1, [((-2,), 2), ((0,), 0), ((2,), 2)])
        return product_function(zero_on, abs_two)

    def test_coupled_fiber_worked_example(self):
        prod = self.trimmed_product()
        a = AffineMap.from_rows([[1, 0]], in_dim=2)
        b = AffineMap.from_rows([[-1, 1]], in_dim=2)
        r = grid_fiber_inf([(prod, identity(2))], a, b, (Fraction(1, 2),), GridSpec(8))
        assert r.conclusive
        assert r.residual == 0
        assert r.value == Fraction(1, 2)

    def test_far_fiber_is_inconclusive_not_infinite(self):
        prod = self.trimmed_product()
        a = AffineMap.from_rows([[1, 0]], in_dim=2)
        b = AffineMap.from_rows([[-1, 1]], in_dim=2)
        r = grid_fiber_inf([(prod, identity(2))], a, b, (Fraction(10),), GridSpec(8))
        assert not r.conclusive
        assert r.value is None
        assert r.residual == 9

    def test_singleton_domain_is_exact(self):
        single = PolyhedralFunction.v_form(1, [((2,), 5)])
        r = grid_fiber_inf([(single, identity(1))], identity(1),
                           AffineMap.zero_map(1), (2,), GridSpec(1))
        assert r.value == 5 and r.residual == 0

    def test_reports_winning_residual(self):
        f = PolyhedralFunction.v_form(1, [((0,), 1), ((1,), 0)])
        a = identity(1)
        r = grid_fiber_inf([(f, identity(1))], a, AffineMap.zero_map(1),
                           (Fraction(1),), GridSpec(4))
        # the exact hit wins even though nearby probes have smaller values
        assert r.value == 0
        assert r.residual == 0


class TestDualRecompute:
    def test_fenchel_witness_value(self):
        f0 = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        s = DualityScenario.fenchel(f0, abs_three(), identity(1), [(3,)])
        from sandwichkit.duality import verify

        rep = verify(s)[0]
        groups, constant, constraint = dual_groups(s, rep.query)
        assert constraint is None
        assert dual_objective_value(groups, constant, rep.witness) == rep.rhs

    def test_box_scan_does_not_beat_lp(self):
        rng = random.Random(706)
        from sandwichkit.duality import verify

        for _ in range(5):
            s = random_crosscheck_scenario(rng, "trivariate")
            for rep in verify(s):
                groups, constant, _ = dual_groups(s, rep.query)
                for j in range(-4, 5):
                    probe = tuple(w + Fraction(j, 4) for w in rep.witness)
                    assert dual_objective_value(groups, constant, probe) >= rep.rhs

    def test_unbounded_dual_ray(self):
        psi = abs_three()
        shift = AffineMap(((Fraction(1),),), (Fraction(5),), 1)
        s = DualityScenario.trivariate(psi, identity(1), shift, [(0,)])
        reports = crosscheck_scenario(s, GridSpec(3))
        assert all(r.ok for r in reports)
        assert all(r.rhs_lp == float("-inf") for r in reports)


class TestCrosscheckScenario:
    def test_worked_fenchel(self):
        f0 = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        s = DualityScenario.fenchel(f0, abs_three(), identity(1), [(3,), (0,)])
        reports = crosscheck_scenario(s, GridSpec(4))
        assert [r.ok for r in reports] == [True, True]
        assert reports[0].lhs_oracle.value == reports[0].lhs_lp == 2

    def test_worked_indicator_infinite_pair(self):
        samples = []
        for xv in (-1, 0, 1):
            for uv in (-1, 0, 1):
                samples.append(((Fraction(xv), Fraction(uv)),
                                Fraction(abs(xv) + abs(uv))))
        g = PolyhedralFunction.v_form(2, samples)
        c_map = AffineMap.from_rows([[1, 0]], in_dim=2)
        s = DualityScenario.indicator_linear(g, c_map, identity(1), [(0, 1, 0)])
        rep = crosscheck_scenario(s, GridSpec(3))[0]
        assert rep.ok
        assert rep.lhs_lp == POS_INF and rep.rhs_lp == POS_INF
        assert rep.lhs_oracle.value == POS_INF

    def test_every_kind_agrees(self):
        from sandwichkit.duality import KINDS

        for k, kind in enumerate(KINDS):
            rng = random.Random(707 + k)
            for _ in range(3):
                s = random_crosscheck_scenario(rng, kind)
                for rep in crosscheck_scenario(s, GridSpec(3)):
                    assert rep.ok, (kind, rep.notes)

    def test_report_shape(self):
        s = random_crosscheck_scenario(random.Random(708), "sublevel")
        rep = crosscheck_scenario(s, GridSpec(3))[0]
        assert isinstance(rep, CrosscheckReport)
        assert isinstance(rep.lhs_oracle, OracleResult)
        assert rep.lhs_ok and rep.witness_ok and rep.scan_ok
