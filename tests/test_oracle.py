"""Tests for the exact LP-free oracle and the scenario cross-checker."""
import dataclasses
import json
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
from sandwichkit import randomgen
from sandwichkit.duality import KINDS, DualityScenario, query_program, verify
from sandwichkit.geometry import AffineMap, solve_linear
from sandwichkit.numerics import NEG_INF, POS_INF, PreconditionError, StructuralError
from sandwichkit.oracle import (
    CrosscheckReport,
    GridSpec,
    OracleResult,
    _objective_at,
    crosscheck_scenario,
    double_description,
    envelope_value,
    exact_sup,
)
from sandwichkit.randomgen import (
    random_crosscheck_scenario,
    random_sandwich_instance,
    random_vec,
    random_vform,
)
from support import (
    product_function,
    random_bibivariate_scenario,
    random_indicator_scenario,
    random_violating_fenchel,
    random_violating_trivariate,
)
from test_acceptance import Stopwatch

CORPUS = Path(cli.__file__).parent / "scenarios"


def abs_three() -> PolyhedralFunction:
    """|z| on [-1, 1] with the kink sampled."""
    return PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])


def identity(dim: int) -> AffineMap:
    return AffineMap.identity(dim)


def abs_everywhere() -> PolyhedralFunction:
    return PolyhedralFunction.h_form(1, [((1,), 0), ((-1,), 0)])


def fiber_min(terms, a_map, b_map, p):
    """inf of the summed terms over {A z = p, B z = 0}, as minus a sup."""
    shifted = AffineMap(a_map.linear, tuple(o - c for o, c in zip(a_map.offset, p)),
                        a_map.in_dim)
    phi = AffineFunctional((Fraction(0),) * a_map.in_dim, Fraction(0))
    return -exact_sup(phi, terms, [shifted, b_map]).value


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


def piece_form_fenchel(rng: random.Random) -> DualityScenario:
    """A fenchel scenario whose g is in piece form, from a sandwich instance:
    its dual has a sample-form group, g's conjugate."""
    inst, _ = random_sandwich_instance(rng, satisfy=bool(rng.getrandbits(1)))
    queries = [(0,) * inst.z_dim, random_vec(rng, inst.z_dim)]
    return DualityScenario.fenchel(inst.convex, inst.sublinear.as_h_form(), inst.link, queries)


def enumerated_sides(s: DualityScenario, query) -> tuple:
    """Both sides of a query by double description alone."""
    p = query_program(s, query)
    return (exact_sup(p.objective, p.terms, p.fibers).value,
            -exact_sup(*p.dual).value)


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


class TestExactSup:
    def test_point_indicator(self):
        ind = PolyhedralFunction.v_form(1, [((0,), 0)])
        r = exact_sup(AffineFunctional((5,), 0), [(ind, identity(1))])
        assert r == OracleResult(0, True, (0,))

    def test_vertex_attained_worked_example(self):
        r = exact_sup(AffineFunctional((3,), 0), [(abs_three(), identity(1))])
        assert r.value == 2
        assert r.argmax == (Fraction(1),)

    def test_flat_direction_worked_example(self):
        r = exact_sup(AffineFunctional((1,), 0), [(abs_three(), identity(1))])
        assert r.value == 0

    def test_shifted_term(self):
        # 2z - |z + 1| on [-2, 0]: the map need not be the identity
        shift = AffineMap.from_rows([[1]], [1])
        r = exact_sup(AffineFunctional((2,), 0), [(abs_three(), shift)])
        assert r.value == -1 and r.argmax == (0,)

    def test_matches_lp_supremum(self):
        rng = random.Random(703)
        for _ in range(15):
            dim = rng.randint(1, 2)
            f = random_vform(rng, dim, 5)
            phi = AffineFunctional(random_vec(rng, dim), Fraction(0))
            terms = [(f, identity(dim))]
            sup = sup_affine_minus_convex(phi, terms)
            r = exact_sup(phi, terms)
            assert sup.status == "attained"
            assert r.value == sup.value
            assert phi(r.argmax) - evaluate(f, r.argmax) == r.value

    def test_matches_lp_supremum_at_sample_argmax(self):
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
                assert exact_sup(phi, terms).value == sup.value
        assert hits >= 5

    def test_second_term_domain(self):
        wide = PolyhedralFunction.v_form(1, [((-2,), 0), ((2,), 0)])
        narrow = PolyhedralFunction.v_form(1, [((0,), 0), ((1,), 0)])
        r = exact_sup(AffineFunctional((1,), 0),
                      [(wide, identity(1)), (narrow, identity(1))])
        assert r.value == 1
        assert r.argmax == (Fraction(1),)

    def test_unbounded_sup_is_plus_infinity(self):
        # along a ray: sup of 2z - |z| over the line
        r = exact_sup(AffineFunctional((2,), 0), [(abs_everywhere(), identity(1))])
        assert r.value == POS_INF and r.argmax is None
        # along a lineality direction: the term ignores z entirely
        point = PolyhedralFunction.v_form(1, [((0,), 0)])
        flat = AffineMap.from_rows([[0]])
        r = exact_sup(AffineFunctional((-1,), 0), [(point, flat)])
        assert r.value == POS_INF

    def trimmed_product(self):
        zero_on = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        abs_two = PolyhedralFunction.v_form(1, [((-2,), 2), ((0,), 0), ((2,), 2)])
        return product_function(zero_on, abs_two)

    def test_coupled_fiber_worked_example(self):
        a = AffineMap.from_rows([[1, 0]], in_dim=2)
        b = AffineMap.from_rows([[-1, 1]], in_dim=2)
        terms = [(self.trimmed_product(), identity(2))]
        assert fiber_min(terms, a, b, (Fraction(1, 2),)) == Fraction(1, 2)

    def test_empty_fiber_is_minus_infinity(self):
        # {z1 = 10, z2 = z1} misses [-1, 1] x [-2, 2]: the sup is -inf
        a = AffineMap.from_rows([[1, 0]], in_dim=2)
        b = AffineMap.from_rows([[-1, 1]], in_dim=2)
        zero = AffineMap.from_rows([[1, 0]], [-10], in_dim=2)
        phi = AffineFunctional((Fraction(1), Fraction(1)), Fraction(0))
        r = exact_sup(phi, [(self.trimmed_product(), identity(2))], [zero, b])
        assert r == OracleResult(NEG_INF, True, None)
        assert fiber_min([(self.trimmed_product(), identity(2))], a, b, (10,)) == POS_INF

    def test_singleton_domain(self):
        single = PolyhedralFunction.v_form(1, [((2,), 5)])
        assert fiber_min([(single, identity(1))], identity(1),
                         AffineMap.zero_map(1), (2,)) == 5

    def slice_terms(self):
        return [
            (PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)]),
             AffineMap.from_rows([[1, 0]])),
            (PolyhedralFunction.v_form(1, [((-2,), 2), ((0,), 0), ((2,), 2)]),
             AffineMap.from_rows([[0, 1]])),
        ]

    def test_fiber_min_absolute_value_slice(self):
        a = AffineMap.from_rows([[1, 0]])
        b = AffineMap.from_rows([[-1, 1]])
        for q in (Fraction(0), Fraction(1, 2), Fraction(1)):
            assert fiber_min(self.slice_terms(), a, b, (q,)) == q

    def test_fiber_min_unreachable_parameter_is_plus_infinity(self):
        a = AffineMap.from_rows([[1, 0]])
        b = AffineMap.from_rows([[-1, 1]])
        assert fiber_min(self.slice_terms(), a, b, (Fraction(5),)) == POS_INF

    def test_fiber_min_piece_form_term(self):
        ident = identity(1)
        assert fiber_min([(abs_everywhere(), ident)], ident,
                         AffineMap.zero_map(1), (2,)) == 2

    def test_fiber_min_mixed_terms_share_the_point(self):
        ident = identity(1)
        zero_on = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        terms = [(zero_on, ident), (abs_everywhere(), ident)]
        assert fiber_min(terms, ident, AffineMap.zero_map(1), (Fraction(1, 2),)) == Fraction(1, 2)
        assert fiber_min(terms, ident, AffineMap.zero_map(1), (3,)) == POS_INF


class TestDualRecompute:
    def test_witness_check_compares_infinities_by_value(self):
        # float("inf") makes a new object, equal to the infinity constants
        # of numerics but not the same object; the check must not care
        g = PolyhedralFunction.v_form(2, [((sx, su), abs(sx) + abs(su))
                                          for sx in (-1, 0, 1) for su in (-1, 0, 1)])
        escaping = DualityScenario.indicator_linear(
            g, AffineMap.from_rows([[1, 0]]), identity(1), [(0, 1, 0)])
        empty = random_violating_trivariate(random.Random(5))
        for s, fresh in ((escaping, float("inf")), (empty, float("-inf"))):
            rep = verify(s)[0]
            assert rep.rhs == fresh and rep.rhs is not fresh
            assert fresh == POS_INF or rep.unbounded_direction is not None
            (expected,) = crosscheck_scenario(s, reports=[rep])
            assert expected.witness_ok and expected.decided_by == "enumeration", s.kind
            moved = dataclasses.replace(rep, rhs=fresh)
            assert crosscheck_scenario(s, reports=[moved]) == [expected], s.kind

    def test_fenchel_witness_value(self):
        f0 = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        s = DualityScenario.fenchel(f0, abs_three(), identity(1), [(3,)])
        rep = verify(s)[0]
        p = query_program(s, rep.query)
        assert p.constraint == ()
        assert -_objective_at(*p.dual, rep.witness) == rep.rhs

    def test_box_scan_does_not_beat_lp(self):
        rng = random.Random(706)
        for _ in range(5):
            s = random_crosscheck_scenario(rng, "trivariate")
            for rep in verify(s):
                p = query_program(s, rep.query)
                for j in range(-4, 5):
                    probe = tuple(w + Fraction(j, 4) for w in rep.witness)
                    assert -_objective_at(*p.dual, probe) >= rep.rhs

    def test_unbounded_dual_ray(self):
        psi = abs_three()
        shift = AffineMap(((Fraction(1),),), (Fraction(5),), 1)
        s = DualityScenario.trivariate(psi, identity(1), shift, [(0,)])
        reports = crosscheck_scenario(s, GridSpec(3))
        assert all(r.ok for r in reports)
        assert all(r.rhs_lp == float("-inf") for r in reports)

    def test_unbounded_dual_ray_rejects_bad_rays(self):
        """witness_ok turns false for a reported ray that breaks a fiber
        row, one that is flat or rises, and one that moves a sample-form
        group."""
        def witness_ok(s, rep, ray):
            moved = dataclasses.replace(rep, rhs=NEG_INF, unbounded_direction=ray,
                                        certificate=None)
            return crosscheck_scenario(s, reports=[moved])[0].witness_ok

        # g's x-parts (x1, x2) keep x2 >= 2, off range(C) = {(t, 0)}: both
        # sides are -inf, and the dual falls as x2 -> -inf, with x1 held at
        # the query's w-covector by the constraint row (1, 0)
        g = PolyhedralFunction.v_form(3, [((x1, x2, 0), 0) for x1 in (-1, 1) for x2 in (2, 3)])
        s = DualityScenario.indicator_linear(
            g, AffineMap.from_rows([[1], [0]]), identity(1), [(0, 0)])
        rep = verify(s)[0]
        assert rep.rhs == NEG_INF
        assert witness_ok(s, rep, rep.unbounded_direction)
        assert witness_ok(s, rep, (0, -1))
        # x1 - x2 < 0 at every sample, so the dual falls along (1, -1) too,
        # but off the constraint row
        assert not witness_ok(s, rep, (1, -1))
        assert not witness_ok(s, rep, (0, 1))
        assert not witness_ok(s, rep, (0, 0))
        # f's samples 1 and 2 give the piece group the slopes -1 and -2
        # along +1, but the ray leaves the compact domain of g*, the
        # sample-form group
        f = PolyhedralFunction.v_form(1, [((1,), 0), ((2,), 0)])
        s = DualityScenario.fenchel(f, abs_everywhere(), identity(1), [(0,)])
        assert not witness_ok(s, verify(s)[0], (1,))


class TestCrosscheckScenario:
    def test_pair_check_reuses_the_programs_dual(self):
        f0 = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        s = DualityScenario.fenchel(f0, abs_three(), identity(1), [(3,)])
        reports = verify(s)
        p = reports[0].certificate.program
        dual = p.dual
        assert crosscheck_scenario(s, reports=reports)[0].decided_by == "certificate"
        assert p.dual is dual

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
        assert rep.lhs_ok and rep.witness_ok and rep.rhs_ok

    def test_worked_empty_fiber(self):
        # B z = z + 5 never vanishes on [-1, 1]: the left side is -inf
        psi = abs_three()
        shift = AffineMap(((Fraction(1),),), (Fraction(5),), 1)
        s = DualityScenario.trivariate(psi, identity(1), shift, [(0,), (2,)])
        for rep in crosscheck_scenario(s):
            assert rep.ok
            assert rep.lhs_lp == rep.lhs_oracle.value == NEG_INF

    def test_exact_agreement_on_seeded_generators(self):
        gens = [
            randomgen.random_fenchel_scenario,
            randomgen.random_trivariate_scenario,
            random_bibivariate_scenario,
            lambda rng: random_bibivariate_scenario(rng, partial=True),
            random_indicator_scenario,
            lambda rng: random_indicator_scenario(
                rng, hypothesis_mode="closed_subspace"),
            random_violating_fenchel,
            lambda rng: random_violating_fenchel(rng, touching=True),
            random_violating_trivariate,
        ]
        gens += [lambda rng, k=kind: random_crosscheck_scenario(rng, k) for kind in KINDS]
        gens.append(piece_form_fenchel)
        infinite = 0
        for g, gen in enumerate(gens):
            rng = random.Random(710 + g)
            for _ in range(6):
                s = gen(rng)
                for rep in crosscheck_scenario(s):
                    assert rep.lhs_oracle.value == rep.lhs_lp, (g, rep.notes)
                    assert rep.rhs_ok and rep.ok, (g, rep.notes)
                    finite = {rep.lhs_lp, rep.rhs_lp}.isdisjoint({NEG_INF, POS_INF})
                    assert rep.decided_by == ("certificate" if finite else "enumeration"), g
                    if finite:
                        # the enumeration, run on its own, agrees with the proof
                        assert enumerated_sides(s, rep.query) == (rep.lhs_lp, rep.rhs_lp), g
                    infinite += not finite
        assert infinite > 0

    def test_broken_certificates_fall_back_to_enumeration(self):
        def nudged(values, at=-1):
            values = list(values)
            values[at] += Fraction(1, 7)
            return tuple(values)

        def verdict(rec):
            return (rec.lhs_oracle.value, rec.lhs_ok, rec.witness_ok, rec.rhs_ok, rec.ok,
                    rec.notes)

        scenarios = [random_crosscheck_scenario(random.Random(720 + k), kind)
                     for k, kind in enumerate(KINDS)]
        scenarios += [piece_form_fenchel(random.Random(730 + k)) for k in range(3)]
        broken_kinds = set()
        for s in scenarios:
            reports = verify(s)
            for i, rep in enumerate(reports):
                whole = crosscheck_scenario(s, reports=[rep])[0]
                assert whole.decided_by == "certificate"
                cert = rep.certificate
                breaks = {
                    "dropped": dataclasses.replace(rep, certificate=None),
                    "z": dataclasses.replace(rep, lhs_witness=nudged(rep.lhs_witness)),
                    "witness": dataclasses.replace(rep, witness=nudged(rep.witness)),
                }
                if len(reports) > 1:
                    other = reports[1 - i].query
                    breaks["query"] = dataclasses.replace(rep, query=other)
                for k, lam in enumerate(cert.term_weights):
                    if lam is not None:
                        weights = cert.term_weights[:k] + (nudged(lam, 0),) + cert.term_weights[k + 1:]
                        breaks[f"term {k} weight"] = dataclasses.replace(
                            rep, certificate=dataclasses.replace(cert, term_weights=weights))
                for k, theta in enumerate(cert.dual_weights):
                    if theta is not None:
                        weights = (cert.dual_weights[:k] + (nudged(theta, 0),)
                                   + cert.dual_weights[k + 1:])
                        breaks[f"dual {k} weight"] = dataclasses.replace(
                            rep, certificate=dataclasses.replace(cert, dual_weights=weights))
                for what, broken in breaks.items():
                    rec = crosscheck_scenario(s, reports=[broken])[0]
                    # with the certificate gone, the record is today's enumeration
                    bare = dataclasses.replace(broken, certificate=None)
                    ref = crosscheck_scenario(s, reports=[bare])[0]
                    assert rec.decided_by == ref.decided_by == "enumeration", (s.kind, what)
                    assert verdict(rec) == verdict(ref), (s.kind, what)
                    broken_kinds.add(what.split()[0])
                # the intact pair and the enumeration agree on everything else
                assert verdict(whole) == verdict(
                    crosscheck_scenario(s, reports=[breaks["dropped"]])[0])
        assert broken_kinds == {"dropped", "z", "witness", "query", "term", "dual"}

    def test_doctored_pairs_with_unchanged_values_are_refused(self):
        # each doctored pair keeps L == U == lhs == rhs and breaks one check only
        flat = PolyhedralFunction.v_form(1, [((-1,), 0), ((0,), 0), ((1,), 0)])
        fenchel = DualityScenario.fenchel(flat, abs_three(), identity(1), [(0,)])
        rep = verify(fenchel)[0]
        assert rep.lhs_witness == (0,)
        cases = []
        # both still combine to z = 0 at value 0: one sums to 2, one is negative
        for weights in ((1, 0, 1), (-1, 3, -1)):
            cert = dataclasses.replace(
                rep.certificate, term_weights=(weights,) + rep.certificate.term_weights[1:])
            cases.append((fenchel, dataclasses.replace(rep, certificate=cert)))

        zero_on = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
        trivariate = DualityScenario.trivariate(
            zero_on, AffineMap.from_rows([[0]]), identity(1), [(0,)])
        rep = verify(trivariate)[0]
        assert rep.lhs_witness == (0,)
        cert = dataclasses.replace(rep.certificate, term_weights=((0, 1),))
        # z = 1 with its weights: same value, off the fiber {z = 0}
        cases.append((trivariate, dataclasses.replace(rep, lhs_witness=(Fraction(1),),
                                                      certificate=cert)))

        g = PolyhedralFunction.v_form(2, [((sx, su), abs(sx) + abs(su))
                                          for sx in (-1, 0, 1) for su in (-1, 0, 1)])
        indicator = DualityScenario.indicator_linear(
            g, AffineMap.from_rows([[1, 0]]), identity(1), [(0, 0, 0)])
        rep = verify(indicator)[0]
        assert rep.witness == (0,)
        # x* = 1/2 keeps the dual value 0 but breaks x* after C = 0
        cases.append((indicator, dataclasses.replace(rep, witness=(Fraction(1, 2),))))

        for s, broken in cases:
            rec = crosscheck_scenario(s, reports=[broken])[0]
            bare = crosscheck_scenario(
                s, reports=[dataclasses.replace(broken, certificate=None)])[0]
            assert rec.decided_by == "enumeration", s.kind
            assert rec == bare, s.kind
        assert not rec.witness_ok

    def test_dimension_five_fenchel_within_budget(self):
        # f of 30 samples in dimension 5: double description alone takes
        # over a minute here, the certificate pair milliseconds
        rng = random.Random(2)

        def vform(count):
            return PolyhedralFunction.v_form(5, [
                (tuple(rng.randint(-9, 9) for _ in range(5)), rng.randint(0, 30))
                for _ in range(count)])

        f, g = vform(30), vform(8)
        queries = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(2)]
        s = DualityScenario.fenchel(f, g, identity(5), queries)
        watch = Stopwatch(60)
        records = crosscheck_scenario(s)
        watch.check()
        assert [(r.ok, r.decided_by) for r in records] == [(True, "certificate")] * 2

    def test_raised_lhs_is_refused_on_the_corpus(self):
        refused = set()
        for path in sorted(CORPUS.glob("*.json")):
            if json.loads(path.read_text())["expect"] != {"command": "verify", "exit": 0}:
                continue
            sc = cli.parse_scenario(path.read_text())
            if sc.task["kind"] not in KINDS:
                continue
            s = cli.build_duality_scenario(sc)
            finite = [r for r in verify(s) if r.lhs not in (POS_INF, NEG_INF)]
            raised = [dataclasses.replace(r, lhs=r.lhs + 1) for r in finite]
            for rep in crosscheck_scenario(s, reports=raised):
                assert not rep.lhs_ok and not rep.ok, path.name
            refused.add(path.name)
        assert len(refused) == 7
