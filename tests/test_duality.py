"""Tests for two-sided conjugation identities across all scenario kinds."""
import dataclasses
import random
import time
from fractions import Fraction

import pytest

from sandwichkit.convexfn import H_FORM, V_FORM, AffineFunctional, PolyhedralFunction, evaluate
from sandwichkit.geometry import (
    AffineMap,
    Polytope,
    polytope_contains,
    vec_neg,
)
from sandwichkit import duality, geometry, numerics
from sandwichkit.interiority import SublevelQuery, boundedness_condition
from sandwichkit.duality import (
    KINDS,
    MODES,
    DualityScenario,
    as_query,
    quad_fiber_maps,
    verify,
)
from sandwichkit.numerics import (
    EQ,
    GE,
    NEG_INF,
    POS_INF,
    LpBuilder,
    PreconditionError,
    StructuralError,
    dot,
)
from sandwichkit.oracle import _objective_at, crosscheck_scenario
from sandwichkit.randomgen import (
    random_affine_map,
    random_crosscheck_scenario,
    random_fenchel_scenario,
    random_trivariate_scenario,
    random_vec,
    random_vform,
)
from support import (
    LowerHull,
    bibivariate_to_quadrivariate,
    boundedness_at_some_sample,
    boundedness_over_domain,
    fenchel_to_trivariate,
    product_function,
    random_bibivariate_scenario,
    random_indicator_scenario,
    random_piece_form_fenchel,
    random_violating_fenchel,
    random_violating_trivariate,
    scenario_to_trivariate,
    solve_linear,
)
from test_geometry import zero_in_hull

F = Fraction


def zero_on_interval() -> PolyhedralFunction:
    return PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])


def abs_on_two() -> PolyhedralFunction:
    return PolyhedralFunction.v_form(1, [((-2,), 2), ((0,), 0), ((2,), 2)])


def abs_everywhere() -> PolyhedralFunction:
    return PolyhedralFunction.h_form(1, [((1,), 0), ((-1,), 0)])


def abs_fenchel(queries) -> DualityScenario:
    return DualityScenario.fenchel(
        zero_on_interval(), abs_on_two(), AffineMap.identity(1), queries
    )


def free_pair(rng: random.Random) -> DualityScenario:
    """A fenchel scenario of any two sample-form functions and any link."""
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    return DualityScenario.fenchel(random_vform(rng, n, 5), random_vform(rng, m, 5),
                                   random_affine_map(rng, n, m), [random_vec(rng, n)])


def sliding_indicator(rng: random.Random) -> DualityScenario:
    """An indicator_linear scenario with small integer samples, possibly
    repeated, and small integer maps C and D."""
    x, u, w, v = (rng.randint(1, 2), rng.randint(0, 2),
                  rng.randint(1, 2), rng.randint(0, 2))
    samples = [(tuple(rng.randint(-2, 2) for _ in range(x + u)), rng.randint(0, 4))
               for _ in range(rng.randint(1, 6))]
    g = PolyhedralFunction.v_form(x + u, samples + samples[:rng.randint(0, 1)])
    c_map = AffineMap.from_rows(
        [[rng.randint(-1, 1) for _ in range(w)] for _ in range(x)], in_dim=w)
    d_map = AffineMap.from_rows(
        [[rng.randint(-1, 1) for _ in range(u)] for _ in range(v)], in_dim=u)
    return DualityScenario.indicator_linear(g, c_map, d_map, [(0,) * (w + v)])


def point_function(*points) -> PolyhedralFunction:
    """The indicator of the hull of the given points."""
    return PolyhedralFunction.v_form(len(points[0]), [(p, 0) for p in points])


def empty_left_side(kind: str) -> DualityScenario:
    """A scenario of the kind whose h is identically +inf."""
    ident = AffineMap.identity(1)
    if kind == "sublevel":
        return DualityScenario.sublevel(point_function((1,), (2,)), ident)
    if kind == "trivariate":
        return DualityScenario.trivariate(
            point_function((1,), (2,)), ident, ident, [(F(1),)])
    if kind == "fenchel":
        return random_violating_fenchel(random.Random(612))
    if kind == "quadrivariate":
        # B(u, v, w, x) = x - w is 1 or 2 on the samples
        return DualityScenario.quadrivariate(
            point_function((0, 0, 0, 1), (0, 0, 0, 2)), ident, ident,
            (1, 1, 1, 1), [(F(1), F(-1))])
    # f's w-part 0 never meets g's x-part 1
    f, g = point_function((0, 0)), point_function((1, 0))
    if kind == "bibivariate":
        return DualityScenario.bibivariate(f, g, ident, ident, [(F(1), F(-1))])
    if kind == "partial_infconv":
        return DualityScenario.partial_infconv(f, g, 1, [(F(1), F(-1))])
    # C is the zero map while dom g sits at x >= 1
    return DualityScenario.indicator_linear(
        point_function((1, 0), (2, 0)), AffineMap(((F(0),),), (F(0),), 1),
        ident, [(F(0), F(0))])


def ref_dual_lp(groups, trailing=(), constant=F(0), constraint=()):
    """(rhs value, witness, unbounded direction, trailing weights) of the
    epigraph dual, from the LP that `verify` once built for the right side
    by hand.

    Minimizes the sum of every group's value at x* plus constant, subject
    to <a, x*> = r for each (a, r) in constraint.  A group is a polyhedral
    function of x*: in piece form it is max over (beta, c) of
    c + <beta, x*>, an epigraph variable t with one row t >= c + <beta, x*>
    per piece; in sample form it is convex weights over its samples whose
    combination is x*.  Columns: one t per group (all in piece form), then
    x*, then each trailing group's t or weights.  Rows: the constraint,
    then the groups' rows in order.  The trailing weights hold, per
    trailing group, the optimal weights in sample form and None in piece
    form; they are empty unless the minimum is attained.
    """
    b = LpBuilder()
    objective = {}
    lead = [(phi, b.var()) for phi in groups]
    xs = b.block(groups[0].dim)

    def epigraph(phi, t):
        objective[t] = F(1)
        for beta, c in phi.pieces:
            row = {t: F(1)}
            for xvar, bc in zip(xs, beta):
                if bc:
                    row[xvar] = -bc
            b.add(row, GE, c)

    for a, r in constraint:
        b.add(dict(zip(xs, a)), EQ, r)
    for phi, t in lead:
        epigraph(phi, t)
    thetas = []
    for phi in trailing:
        if phi.form == H_FORM:
            epigraph(phi, b.var())
            thetas.append(None)
            continue
        # x* = sum_j theta_j p_j, written sum_j theta_j (-p_j) + x* = 0
        theta = b.convex_weights([vec_neg(p) for p, _ in phi.samples],
                                 (F(0),) * phi.dim, [{xvar: 1} for xvar in xs])
        thetas.append(theta)
        for j, (_, value) in enumerate(phi.samples):
            if value:
                objective[theta[j]] = value
    b.set_objective(objective)
    res = b.solve()
    if res.status == "unbounded":
        return NEG_INF, None, tuple(res.ray[j] for j in xs), ()
    if res.status == "infeasible":
        return POS_INF, None, None, ()
    weights = tuple(None if theta is None else tuple(res.point[j] for j in theta)
                    for theta in thetas)
    return res.value + constant, tuple(res.point[j] for j in xs), None, weights


def dual_side_draws():
    """Scenarios for the right-side property test: random_crosscheck_scenario
    of every kind in both modes, the two violating generators, fenchel
    with g in piece form, and two indicator queries: one escapes range(C^T),
    one has a constant term."""
    for kind in KINDS:
        rng = random.Random(f"dual side:{kind}")
        for _ in range(10):
            s = random_crosscheck_scenario(rng, kind)
            for mode in MODES:
                yield dataclasses.replace(s, hypothesis_mode=mode)
    rng = random.Random("dual side:others")
    for _ in range(10):
        yield random_violating_fenchel(rng)
        yield random_violating_fenchel(rng, touching=True)
        yield random_violating_trivariate(rng)
        yield random_piece_form_fenchel(rng)
    yield cross_indicator_scenario([(F(0), F(1), F(0)), AffineFunctional.of((1, 0, 2), 3)])
    # a draw whose unbounded ray the two LPs scale differently
    yield random_violating_fenchel(random.Random(49))


class TestQueryCoercion:
    def test_plain_tuple_becomes_linear(self):
        q = as_query((F(3), F(-1)), 2)
        assert isinstance(q, AffineFunctional)
        assert q.coeffs == (F(3), F(-1))
        assert q.constant == 0

    def test_functional_passes_through(self):
        phi = AffineFunctional((F(1),), F(5))
        assert as_query(phi, 1) is phi

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            as_query((F(1),), 2)


class TestScenarioValidation:
    def test_fenchel_needs_sample_form_first(self):
        with pytest.raises(StructuralError):
            DualityScenario.fenchel(
                abs_everywhere(), abs_on_two(), AffineMap.identity(1), [(F(0),)]
            )

    def test_fenchel_checks_link_dimensions(self):
        link = AffineMap.from_rows([[1], [0]])
        with pytest.raises(StructuralError):
            DualityScenario.fenchel(zero_on_interval(), abs_on_two(), link, [(F(0),)])

    def test_queries_required(self):
        with pytest.raises(StructuralError):
            DualityScenario.fenchel(
                zero_on_interval(), abs_on_two(), AffineMap.identity(1), []
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(StructuralError):
            DualityScenario.fenchel(
                zero_on_interval(), abs_on_two(), AffineMap.identity(1),
                [(F(0),)], hypothesis_mode="hope",
            )

    def test_indicator_rejects_affine_coupling(self):
        g = PolyhedralFunction.v_form(2, [((0, 0), 0)])
        c_map = AffineMap(((F(1),),), (F(1),), 1)
        with pytest.raises(StructuralError):
            DualityScenario.indicator_linear(
                g, c_map, AffineMap.identity(1), [(F(0), F(0))]
            )

    def test_partial_infconv_block_bounds(self):
        f = PolyhedralFunction.v_form(2, [((0, 0), 0)])
        with pytest.raises(StructuralError):
            DualityScenario.partial_infconv(f, f, 3, [(F(0), F(0))])

    def test_bibivariate_checks_product_dims(self):
        f = PolyhedralFunction.v_form(1, [((0,), 0)])
        g = PolyhedralFunction.v_form(2, [((0, 0), 0)])
        c_map = AffineMap.from_rows([[1]])
        d_map = AffineMap.from_rows([[1]])
        with pytest.raises(StructuralError):
            DualityScenario.bibivariate(f, g, c_map, d_map, [(F(0), F(0))])


class TestFenchel:
    def test_worked_example_query_three(self):
        report = verify(abs_fenchel([(F(3),)]))[0]
        assert report.lhs == 2
        assert report.rhs == 2
        assert report.gap == 0
        assert report.witness == (F(1),)
        assert report.attained
        assert report.all_hypotheses_hold

    def test_worked_example_query_zero(self):
        report = verify(abs_fenchel([(F(0),)]))[0]
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.witness == (F(0),)
        assert report.attained

    def test_one_report_per_query(self):
        reports = verify(abs_fenchel([(F(3),), (F(0),), (F(-3),)]))
        assert [r.lhs for r in reports] == [2, 0, 2]

    def test_piece_form_upper_function(self):
        s = DualityScenario.fenchel(
            zero_on_interval(), abs_everywhere(), AffineMap.identity(1), [(F(3),)]
        )
        report = verify(s)[0]
        assert report.lhs == 2
        assert report.rhs == 2
        assert report.attained
        assert report.all_hypotheses_hold

    def test_affine_link_offset(self):
        # h(z) = |z + 1| on [-1, 1]; its conjugate at 0 is -min h = 0
        link = AffineMap(((F(1),),), (F(1),), 1)
        s = DualityScenario.fenchel(zero_on_interval(), abs_on_two(), link, [(F(0),)])
        report = verify(s)[0]
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.gap == 0

    def test_query_with_constant(self):
        q = AffineFunctional((F(3),), F(7))
        report = verify(abs_fenchel([q]))[0]
        assert report.lhs == 9
        assert report.rhs == 9

    def test_boundedness_flag_matches_the_product_sweep(self):
        # reference: the condition over the whole domain of the product
        # psi = f + g; the sweep at every sample of the product as base
        # point, with no dom g test first, implies it
        generators = [
            ("crosscheck", lambda rng: random_crosscheck_scenario(rng, "fenchel")),
            ("separated", random_violating_fenchel),
            ("touching", lambda rng: random_violating_fenchel(rng, touching=True)),
            ("free", free_pair),
        ]
        seen = set()
        for name, draw in generators:
            rng = random.Random(f"fenchel-boundedness:{name}")
            for _ in range(40):
                s = draw(rng)
                assert s.hypothesis_mode == "boundedness"
                tri = fenchel_to_trivariate(s)
                want = boundedness_over_domain(s)
                assert verify(s)[0].hypothesis_flags["boundedness"] == want, (name, s)
                assert want or not boundedness_at_some_sample(tri.psi, tri.a_map, tri.b_map)
                # whether some sample of f is skipped, C p lying outside dom g
                skips = not all(s.g.domain().contains(s.c_map(p)) for p, _ in s.f.samples)
                seen.add((want, skips))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestSublevel:
    def test_worked_example_auto_level(self):
        phi = PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])
        s = DualityScenario.sublevel(phi, AffineMap.identity(1))
        report = verify(s)[0]
        # one above the fiber infimum 0, read off the sup LP
        assert report.notes == ("interiority tested at level 1",)
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.attained
        assert report.all_hypotheses_hold

    def test_level_below_infimum_clears_flag(self):
        phi = PolyhedralFunction.v_form(1, [((-1,), 1), ((0,), 0), ((1,), 1)])
        s = DualityScenario.sublevel(phi, AffineMap.identity(1), gamma=F(0))
        report = verify(s)[0]
        assert not report.hypothesis_flags["interiority"]
        assert not report.all_hypotheses_hold
        assert report.gap >= 0


class TestTrivariate:
    def test_point_indicator_identity(self):
        psi = zero_on_interval()
        ident = AffineMap.identity(1)
        s = DualityScenario.trivariate(psi, ident, ident, [(F(5),)])
        report = verify(s)[0]
        assert report.lhs == 0
        assert report.rhs == 0
        # dual covector pairs with the kernel map through a plus sign, so
        # the minimizer of max(5 + x, -5 - x) over x is reported
        assert report.witness == (F(-5),)

    def test_empty_fiber_gives_twin_minus_infinity(self):
        report = verify(empty_left_side("trivariate"))[0]
        assert report.lhs is NEG_INF
        assert report.rhs is NEG_INF
        assert report.gap == 0
        assert not report.attained
        assert report.unbounded_direction is not None
        assert not report.hypothesis_flags["h_proper"]


def vee_on_square() -> PolyhedralFunction:
    return PolyhedralFunction.v_form(
        2, [((sx, sv), abs(sv)) for sx in (-1, 1) for sv in (-1, 0, 1)]
    )


class TestPartialInfconv:
    def test_worked_example(self):
        s = DualityScenario.partial_infconv(
            vee_on_square(), vee_on_square(), 1, [(F(0), F(2))]
        )
        report = verify(s)[0]
        assert report.lhs == 2
        assert report.rhs == 2
        assert report.witness == (F(0),)
        assert report.attained

    def test_closed_subspace_mode_certifies(self):
        s = DualityScenario.partial_infconv(
            vee_on_square(), vee_on_square(), 1, [(F(0), F(2))],
            hypothesis_mode="closed_subspace",
        )
        report = verify(s)[0]
        assert report.all_hypotheses_hold
        assert report.gap == 0


def cross_indicator_scenario(queries, **kwargs) -> DualityScenario:
    g = PolyhedralFunction.v_form(
        2, [((sx, su), abs(sx) + abs(su)) for sx in (-1, 0, 1) for su in (-1, 0, 1)]
    )
    c_map = AffineMap.from_rows([[1, 0]])
    return DualityScenario.indicator_linear(
        g, c_map, AffineMap.identity(1), queries, **kwargs
    )


class TestIndicatorLinear:
    def test_worked_example(self):
        report = verify(
            cross_indicator_scenario([(F(1), F(0), F(2))])
        )[0]
        assert report.lhs == 1
        assert report.rhs == 1
        assert report.witness == (F(1),)
        assert report.attained
        assert report.all_hypotheses_hold

    def test_query_outside_row_space_gives_twin_plus_infinity(self):
        report = verify(
            cross_indicator_scenario([(F(0), F(1), F(0))])
        )[0]
        assert report.lhs is POS_INF
        assert report.rhs is POS_INF
        assert report.gap == 0
        assert not report.attained
        assert any("range" in note for note in report.notes)

    def test_closed_subspace_mode_certifies(self):
        report = verify(
            cross_indicator_scenario(
                [(F(1), F(0), F(2))], hypothesis_mode="closed_subspace"
            )
        )[0]
        assert report.hypothesis_flags["closed_subspace"]
        assert report.all_hypotheses_hold

    def test_unreachable_domain_gives_minus_infinity(self):
        report = verify(empty_left_side("indicator_linear"))[0]
        assert report.lhs is NEG_INF
        assert report.rhs is NEG_INF
        assert not report.hypothesis_flags["h_proper"]

    def test_lhs_witness_reconstructs_the_value(self):
        s = cross_indicator_scenario([(F(1), F(0), F(2))])
        report = verify(s)[0]
        w, u = report.lhs_witness[:2], report.lhs_witness[2:]
        # witness value: <w', w> + <v', D u> - g(C w, u)
        c_w = (w[0],)
        g_val = evaluate(s.g, c_w + u)
        assert w[0] * 1 + u[0] * 2 - g_val == report.lhs


    def test_boundedness_flag_matches_the_sliding_base_point(self):
        # reference: the condition over the whole domain, some (x0, u0) in
        # dom g with x0 in range(C) and interior to its u-slice; the
        # condition at each sample q of g that C reaches, with the fiber
        # fixing the u-part at q's and B sliding the x-part around q's,
        # implies it
        seen = set()
        for i in range(60):
            s = sliding_indicator(random.Random(f"sliding:{i}"))
            g, c_map = s.g, s.c_map
            x, u = s.dims[3], s.dims[0]
            proj_u = AffineMap.from_rows(
                [[int(j == x + r) for j in range(x + u)] for r in range(u)], in_dim=x + u)
            delta = max(val for _, val in g.samples) + 1
            at_sample = any(
                boundedness_condition(
                    g, proj_u,
                    AffineMap.from_rows([[int(j == r) for j in range(x + u)] for r in range(x)],
                                        [-c for c in q[:x]], x + u),
                    q, delta)
                for q, _ in g.samples if solve_linear(c_map.linear, q[:x]) is not None
            )
            want = boundedness_over_domain(s)
            assert verify(s)[0].hypothesis_flags["boundedness"] == want, i
            assert want or not at_sample, i
            seen.add((want, at_sample))
        assert seen == {(True, True), (True, False), (False, False)}


def touching_partial_infconv(n: int) -> DualityScenario:
    """Two functions of n samples on (x, v) = (2, 1) whose x-parts meet only
    at 0: f's lie in [0, 9]^2 and g's in [-9, 0]^2, each with one sample at
    x = 0.  The boundedness flag is false: 0 is a corner of the sum of the
    x-parts' hulls."""
    rng = random.Random(3)
    queries = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)]

    def draw(sign):
        samples = [((0, 0, rng.randint(-9, 9)), rng.randint(0, 30))]
        samples += [((sign * rng.randint(0, 9), sign * rng.randint(0, 9), rng.randint(-9, 9)),
                     rng.randint(0, 30)) for _ in range(n - 1)]
        return PolyhedralFunction.v_form(3, samples)

    return DualityScenario.partial_infconv(draw(1), draw(-1), 2, queries)


def test_tall_fenchel_right_side_within_budget():
    """Dimension 3, f of 400 samples and g of 160, identity link: the
    right side has 5 variables and 560 general rows, one per piece of
    the conjugates, and is solved through its transpose.  Solved
    directly, verify took about 12 s."""
    rng = random.Random(2)

    def draw(n, reach):
        return PolyhedralFunction.v_form(3, [
            (tuple(rng.randint(-reach, reach) for _ in range(3)), rng.randint(0, 30))
            for _ in range(n)])

    f, g = draw(400, 9), draw(160, 20)
    queries = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)]
    s = DualityScenario.fenchel(f, g, AffineMap.identity(3), queries)
    start = time.perf_counter()
    reports = verify(s)
    elapsed = time.perf_counter() - start
    assert elapsed < 3, f"{elapsed:.1f}s exceeds 3s"
    assert [(r.lhs, r.gap) for r in reports] == [(F(167633, 5207), 0), (44, 0)]
    assert reports[0].hypothesis_flags == {"boundedness": True, "h_proper": True}


def product_wall(kind: str, n: int = 320) -> DualityScenario:
    """A bibivariate or partial_infconv scenario of two functions of n
    samples on a space of dimension 4, drawn from random.Random(n) in the
    order f, g, then C and D (2 x 2, bibivariate only): per sample four
    coordinates randint(-9, 9), then a value randint(0, 30); per map entry,
    row by row, randint(-2, 2), with no offset.  Testing the boundedness
    condition at the product's keys, one midpoint of an f- and a g-sample
    at a time, took 1,086 interior tests and 19 s on the bibivariate one."""
    rng = random.Random(n)

    def draw():
        return PolyhedralFunction.v_form(4, [
            (tuple(rng.randint(-9, 9) for _ in range(4)), rng.randint(0, 30))
            for _ in range(n)])

    f, g = draw(), draw()
    queries = [(1, 0, 0, 1), (0, 1, -1, 0)]
    if kind == "partial_infconv":
        return DualityScenario.partial_infconv(f, g, 2, queries)
    c_map, d_map = (AffineMap.from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                         for _ in range(2)]) for _ in range(2))
    return DualityScenario.bibivariate(f, g, c_map, d_map, queries)


@pytest.mark.parametrize("kind", ["bibivariate", "partial_infconv"])
def test_product_boundedness_within_budget(kind):
    s = product_wall(kind)
    start = time.perf_counter()
    reports = verify(s)
    elapsed = time.perf_counter() - start
    assert elapsed < 3, f"{elapsed:.1f}s exceeds 3s"
    assert reports[0].hypothesis_flags == {"boundedness": True, "h_proper": True}
    assert [r.gap for r in reports] == [0, 0]


def test_fenchel_flag_is_one_lp_whatever_the_samples_images(monkeypatch):
    """f sampled at (1, 0) and (1, 1), g at -1 and 1, C(p) = p_1: both
    samples of f have the image 1, on the boundary of dom g, so the flag is
    False, and it is one LP, not one per sample of f."""
    solved, per_flags = [], []
    lp_solve = numerics.lp_solve
    monkeypatch.setattr(numerics, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp))
    flags = duality._scenario_flags

    def counted(*args):
        before = len(solved)
        out = flags(*args)
        per_flags.append(len(solved) - before)
        return out

    monkeypatch.setattr(duality, "_scenario_flags", counted)
    f = PolyhedralFunction.v_form(2, [((1, 0), 0), ((1, 1), 0)])
    g = PolyhedralFunction.v_form(1, [((-1,), 0), ((1,), 0)])
    s = DualityScenario.fenchel(f, g, AffineMap.from_rows([[1, 0]]), [(0, 0)])
    (report,) = verify(s)
    assert report.hypothesis_flags == {"boundedness": False, "h_proper": True}
    assert per_flags == [1]
    assert len(solved) == 3


@pytest.mark.parametrize("mode", MODES)
def test_violating_generators_stay_violating(mode):
    """The generators drawn to fail every flag still fail it, whichever
    point of the domain the flag may use."""
    draws = {
        "separated fenchel": random_violating_fenchel,
        "touching fenchel": lambda rng: random_violating_fenchel(rng, touching=True),
        "trivariate": random_violating_trivariate,
    }
    for name, draw in draws.items():
        rng = random.Random(f"violating:{name}")
        for _ in range(30):
            s = dataclasses.replace(draw(rng), hypothesis_mode=mode)
            assert verify(s)[0].hypothesis_flags[mode] is False, (name, s)


class TestProductConstructions:
    def test_touching_family_scales_with_the_factors(self, monkeypatch):
        # 40 x 40 product samples: one weight per product sample made this
        # about 10 s; a boundedness test per product key, weights per factor,
        # took 562 LPs in about 1 s; the flag over the whole domain is one
        solved = []
        lp_solve = numerics.lp_solve

        def counted(lp):
            solved.append(lp)
            return lp_solve(lp)

        monkeypatch.setattr(numerics, "lp_solve", counted)
        s = touching_partial_infconv(40)
        start = time.perf_counter()
        reports = verify(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 3, f"{elapsed:.1f}s exceeds 3s"
        assert len(solved) == 5
        assert reports[0].hypothesis_flags == {"boundedness": False, "h_proper": True}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["quadrivariate", "bibivariate", "partial_infconv"])
    def test_verify_rewrites_the_scenario_once(self, monkeypatch, kind, mode):
        calls = []
        inner = duality.quad_fiber_maps

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(duality, "quad_fiber_maps", counted)
        s = random_crosscheck_scenario(random.Random(f"rewrite:{kind}"), kind, n_queries=3)
        # the quadrivariate factory stores its fiber maps; the two-function
        # kinds read their factors, never the rewrite
        assert len(calls) == (kind == "quadrivariate")
        verify(dataclasses.replace(s, hypothesis_mode=mode))
        assert len(calls) == (kind == "quadrivariate")

    @pytest.mark.parametrize("mode", MODES)
    def test_verify_builds_no_fenchel_product(self, monkeypatch, mode):
        """No kind builds a product or a rewritten scenario once it is
        constructed: neither `verify` nor the oracle, which checks the
        programs `verify` kept.  The product rewrites live in
        tests/support.py, out of the package's reach, so the one map builder
        left to refuse is the quadrivariate factory's."""
        rng = random.Random(f"no product:{mode}")
        draws = [free_pair, random_violating_fenchel, random_bibivariate_scenario,
                 lambda rng: random_bibivariate_scenario(rng, partial=True)]
        draws += [lambda rng, kind=kind: random_crosscheck_scenario(rng, kind)
                  for kind in KINDS for _ in range(2)]
        built = [dataclasses.replace(draw(rng), hypothesis_mode=mode) for draw in draws]
        assert {s.kind for s in built} == set(KINDS)
        assert all(s.g is None or s.g.form != H_FORM for s in built)

        def refuse(*args):
            raise AssertionError("verify built a product or a rewrite")

        monkeypatch.setattr(duality, "quad_fiber_maps", refuse)
        for s in built:
            reports = verify(s)
            assert s.hypothesis_mode in reports[0].hypothesis_flags or s.kind == "sublevel"
            records = crosscheck_scenario(s, reports=reports)
            assert all(r.ok for r in records), s

    @pytest.mark.parametrize("mode", MODES)
    def test_flags_build_no_span(self, monkeypatch, mode):
        """Every subspace flag is the one cone LP of `cone_is_subspace`:
        verify builds no span for any kind."""
        def refuse(*args):
            raise AssertionError("verify built a span")

        monkeypatch.setattr(geometry.Subspace, "from_spanning", refuse)
        rng = random.Random(f"no span:{mode}")
        for kind in KINDS:
            for _ in range(4):
                s = random_crosscheck_scenario(rng, kind)
                if kind != "sublevel":
                    s = dataclasses.replace(s, hypothesis_mode=mode)
                assert verify(s)[0].hypothesis_flags

    def test_product_adds_marginal_values(self):
        rng = random.Random(601)
        for _ in range(20):
            f = random_vform(rng, rng.randint(1, 2))
            g = random_vform(rng, rng.randint(1, 2))
            prod = product_function(f, g)
            for p, _ in f.samples:
                for q, _ in g.samples:
                    assert evaluate(prod, p + q) == evaluate(f, p) + evaluate(g, q)

    def test_product_requires_sample_form(self):
        with pytest.raises(StructuralError):
            product_function(zero_on_interval(), abs_everywhere())

    def test_piece_form_has_no_product_rewrite(self):
        s = DualityScenario.fenchel(
            zero_on_interval(), abs_everywhere(), AffineMap.identity(1), [(F(0),)]
        )
        with pytest.raises(PreconditionError):
            fenchel_to_trivariate(s)

    def test_indicator_has_no_trivariate_rewrite(self):
        with pytest.raises(PreconditionError):
            scenario_to_trivariate(cross_indicator_scenario([(F(0), F(0), F(0))]))

    def test_quad_fiber_maps_layout(self):
        c_map = AffineMap.from_rows([[2]])
        d_map = AffineMap(((F(3),),), (F(1),), 1)
        a_map, b_map = quad_fiber_maps(c_map, d_map, (1, 1, 1, 1))
        point = (F(1), F(10), F(100), F(1000))
        assert a_map(point) == (F(100), F(10) + F(3) + F(1))
        assert b_map(point) == (F(1000) - F(200),)


@pytest.mark.parametrize("kind", KINDS)
def test_a_repeated_query_is_solved_once(monkeypatch, kind):
    """Listing a query again adds a report equal to the first one's, its
    certificate included, and no LP."""
    solved = []
    lp_solve = numerics.lp_solve

    def counted(lp):
        solved.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(numerics, "lp_solve", counted)
    s = random_crosscheck_scenario(random.Random(f"repeat:{kind}"), kind, n_queries=2)
    once = verify(s)
    n_once = len(solved)
    solved.clear()
    k = len(once)
    twice = verify(dataclasses.replace(s, queries=s.queries * 2))
    assert len(solved) == n_once
    assert [r.query for r in twice] == list(s.queries * 2)
    assert twice[:k] == once and twice[k:] == once
    # a certificate names its scenario, which now lists each query twice
    certs = [dataclasses.replace(r.certificate, scenario=s) for r in twice]
    assert certs[:k] == certs[k:] == [r.certificate for r in once]


#: LPs `verify` solves over ten `random_crosscheck_scenario` draws of each
#: kind: (in each draw's own mode, with the mode flipped)
LP_COUNTS = {
    "sublevel": (30, 30), "trivariate": (50, 41), "fenchel": (50, 50),
    "quadrivariate": (50, 45), "bibivariate": (50, 41), "partial_infconv": (50, 41),
    "indicator_linear": (50, 50),
}


@pytest.mark.parametrize("kind", KINDS)
def test_lp_count_per_kind(monkeypatch, kind):
    """A deterministic work counter of `verify`, sides and flags together,
    in both modes; sublevel's flags read no mode.  Each flag is at most one
    LP: a boundedness flag whose rank test fails solves none."""
    solved = []
    lp_solve = numerics.lp_solve
    monkeypatch.setattr(numerics, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp))
    other = dict(zip(MODES, reversed(MODES)))
    rng = random.Random(f"lp count:{kind}")
    counts = [0, 0]
    for _ in range(10):
        s = random_crosscheck_scenario(rng, kind)
        for i, mode in enumerate((s.hypothesis_mode, other[s.hypothesis_mode])):
            solved.clear()
            verify(dataclasses.replace(s, hypothesis_mode=mode))
            counts[i] += len(solved)
    assert tuple(counts) == LP_COUNTS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_left_sides_share_one_phase_1(monkeypatch, kind):
    """verify solves a scenario's left sides as siblings: its n distinct
    queries' left sides share their rows and run phase 1 once, and the
    sides are solved in the order left q1, dual q1, left q2, dual q2, and
    so on.  A lone query's left side is a lone program (sublevel's)."""
    solved, phase1 = [], []
    lp_solve, real_phase1 = numerics.lp_solve, numerics._phase1
    monkeypatch.setattr(numerics, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp))
    monkeypatch.setattr(numerics, "_phase1",
                        lambda rows, *args: phase1.append(rows) or real_phase1(rows, *args))
    s = random_crosscheck_scenario(random.Random(f"siblings:{kind}"), kind, n_queries=3)
    n = len(set(s.queries))
    assert n == (1 if kind == "sublevel" else 3)
    verify(s)
    lefts, duals = solved[0:2 * n:2], solved[1:2 * n:2]
    rows = lefts[0]._rows
    # solved directly, not through the transpose
    assert len(rows) - len(numerics._folded(rows)[0]) <= numerics._tall(lefts[0].num_vars)
    assert all(p._rows is rows and p._siblings is lefts[0]._siblings for p in lefts)
    assert (lefts[0]._siblings is None) == (n == 1)
    assert all(p._siblings is None and p._rows is not rows for p in duals)
    assert sum(r is rows for r in phase1) == 1


class TestReductionConsistency:
    def test_fenchel_matches_trivariate_rewrite(self):
        rng = random.Random(602)
        for _ in range(12):
            s = random_fenchel_scenario(rng)
            direct = verify(s)
            rewritten = verify(scenario_to_trivariate(s))
            for a, b in zip(direct, rewritten):
                assert a.lhs == b.lhs
                assert a.rhs == b.rhs

    def test_bibivariate_matches_quadrivariate_rewrite(self):
        rng = random.Random(603)
        for _ in range(8):
            s = random_bibivariate_scenario(rng)
            direct = verify(s)
            rewritten = verify(bibivariate_to_quadrivariate(s))
            for a, b in zip(direct, rewritten):
                assert a.lhs == b.lhs
                assert a.rhs == b.rhs

    def test_partial_matches_quadrivariate_rewrite(self):
        rng = random.Random(604)
        for _ in range(8):
            s = random_bibivariate_scenario(rng, partial=True)
            direct = verify(s)
            rewritten = verify(bibivariate_to_quadrivariate(s))
            for a, b in zip(direct, rewritten):
                assert a.lhs == b.lhs
                assert a.rhs == b.rhs


class TestStrongDuality:
    def test_box_coupled_pairs_certify_and_close(self):
        rng = random.Random(605)
        for _ in range(20):
            for report in verify(random_fenchel_scenario(rng)):
                assert report.all_hypotheses_hold
                assert report.gap == 0
                assert report.attained

    def test_symmetric_trivariate_certifies_and_closes(self):
        rng = random.Random(606)
        for _ in range(20):
            for report in verify(random_trivariate_scenario(rng)):
                assert report.all_hypotheses_hold
                assert report.gap == 0
                assert report.attained

    def test_symmetric_bibivariate_certifies_and_closes(self):
        rng = random.Random(607)
        for _ in range(10):
            for report in verify(random_bibivariate_scenario(rng)):
                assert report.all_hypotheses_hold
                assert report.gap == 0
                assert report.attained

    def test_indicator_certifies_in_both_modes(self):
        rng = random.Random(608)
        for mode in ("boundedness", "closed_subspace"):
            for _ in range(8):
                s = random_indicator_scenario(rng, hypothesis_mode=mode)
                for report in verify(s):
                    assert report.all_hypotheses_hold
                    assert report.gap == 0
                    assert report.attained

    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_lhs_closes_whatever_the_flags(self, kind):
        # polyhedral data needs no qualification beyond a nonempty domain
        # (Rockafellar, Thm 20.1), so a finite lhs forces gap 0 and
        # attainment; a mis-stated side of either program would break it
        rng = random.Random(f"invariant:{kind}")
        finite = 0
        for _ in range(20):
            s = random_crosscheck_scenario(rng, kind)
            for mode in MODES:
                for report in verify(dataclasses.replace(s, hypothesis_mode=mode)):
                    if report.lhs in (POS_INF, NEG_INF):
                        continue
                    finite += 1
                    assert report.gap == 0 and report.attained, (mode, report)
        assert finite > 0


class TestDualSide:
    def test_matches_the_hand_built_dual_lp(self):
        # the right side, solved as minus the sup of QueryProgram.dual, has
        # the value of the epigraph LP built by hand; a different witness
        # must be another minimiser, a different ray a rescaling of the old
        seen = set()
        for s in dual_side_draws():
            for rep in verify(s):
                p = rep.certificate.program
                # the old LP put fenchel's conjugate group after x*
                split = 1 if s.kind == "fenchel" else len(p.groups)
                rhs, witness, ray, _ = ref_dual_lp(
                    p.groups[:split], p.groups[split:], p.constant, p.constraint)
                assert rep.rhs == rhs, s
                seen.add(rhs if rhs in (POS_INF, NEG_INF) else "finite")
                if rep.witness != witness:
                    phi, terms, fibers = p.dual
                    hulls = [(LowerHull(f) if f.form == V_FORM else f, m) for f, m in terms]
                    assert _objective_at(phi, hulls, fibers, rep.witness) == -rhs
                    assert all(dot(a, rep.witness) == r for a, r in p.constraint)
                if rep.unbounded_direction != ray:
                    new = rep.unbounded_direction
                    k = next(i for i, c in enumerate(ray) if c)
                    scale = new[k] / ray[k]
                    assert scale > 0 and new == tuple(scale * c for c in ray), s
        assert seen == {"finite", POS_INF, NEG_INF}


class TestWeakDuality:
    def test_disjoint_domains_report_twin_minus_infinity(self):
        rng = random.Random(609)
        for _ in range(15):
            for report in verify(random_violating_fenchel(rng)):
                assert not report.all_hypotheses_hold
                assert report.lhs is NEG_INF
                assert report.gap >= 0

    def test_touching_domains_fail_certification_only(self):
        rng = random.Random(610)
        for _ in range(15):
            for report in verify(random_violating_fenchel(rng, touching=True)):
                assert not report.all_hypotheses_hold
                assert report.hypothesis_flags["h_proper"]
                assert report.lhs is not NEG_INF
                assert report.gap >= 0

    def test_shifted_kernel_reports_empty_fiber(self):
        rng = random.Random(611)
        for _ in range(15):
            for report in verify(random_violating_trivariate(rng)):
                assert not report.all_hypotheses_hold
                assert report.lhs is NEG_INF
                assert report.gap >= 0


def hull_test_h_proper(s: DualityScenario) -> bool:
    """h_proper decided by its own LP, kind by kind: 0 in the hull of B's
    images of the samples (of the product, for the two-function kinds),
    0 in the hull of g's x-parts plus range(C) for indicator_linear, and
    True for a piece-form g, which is finite everywhere."""
    if s.kind == "sublevel":
        images = SublevelQuery.build(s.psi, s.b_map, s.gamma).images
        return polytope_contains(Polytope.of(images), (F(0),) * s.b_map.out_dim)
    if s.kind == "indicator_linear":
        x = s.dims[3]
        return zero_in_hull([q[:x] for q, _ in s.g.samples], x, s.c_map.columns())
    if s.kind == "fenchel" and s.g.form == H_FORM:
        return True
    tri = scenario_to_trivariate(s)
    images = [tri.b_map(p) for p, _ in tri.psi.samples]
    return polytope_contains(Polytope.of(images), (F(0),) * tri.b_map.out_dim)


class TestHProper:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_left_side_fails_every_flag(self, kind, mode):
        s = dataclasses.replace(empty_left_side(kind), hypothesis_mode=mode)
        for report in verify(s):
            assert report.lhs is report.rhs is NEG_INF
            assert report.gap == 0
            assert list(report.hypothesis_flags)[-1] == "h_proper"
            assert not any(report.hypothesis_flags.values()), report.hypothesis_flags

    @pytest.mark.parametrize("mode", MODES)
    def test_piece_form_fenchel_is_always_proper(self, mode):
        s = DualityScenario.fenchel(
            zero_on_interval(), abs_everywhere(), AffineMap.identity(1),
            [(F(0),), (F(3),)], hypothesis_mode=mode,
        )
        for report in verify(s):
            assert report.lhs is not NEG_INF
            assert report.hypothesis_flags["h_proper"]

    def test_left_side_feasibility_matches_the_hull_tests(self):
        generators = [(kind, lambda rng, kind=kind: random_crosscheck_scenario(rng, kind))
                      for kind in KINDS]
        generators += [
            ("separated", random_violating_fenchel),
            ("touching", lambda rng: random_violating_fenchel(rng, touching=True)),
            ("shifted", random_violating_trivariate),
        ]
        seen = set()
        for name, draw in generators:
            rng = random.Random(f"h_proper:{name}")
            for _ in range(40):
                s = draw(rng)
                expected = hull_test_h_proper(s)
                seen.add(expected)
                for mode in MODES:
                    reports = verify(dataclasses.replace(s, hypothesis_mode=mode))
                    for report in reports:
                        assert report.hypothesis_flags["h_proper"] == expected, (name, s)
        assert seen == {True, False}
