"""The hypothesis flags decided by structure, against longer definitions.

Each flag has a longer definition that spends more LPs:

* `cone_union_is_subspace` is 0 in conv(P) + L together with -p in
  cone(P) + L for every point p; the package asks one LP, whether -sum(P)
  lies in cone(P) + L;
* the `sublevel` flags are the subspace precondition and the margin sweep
  of a `SublevelQuery`; the package reads the sup LP's value, -m, against
  gamma;
* the boundedness condition may be tested at any level above the fiber's
  infimum, where it is 0 in int P with no level or value in it; the
  package decides that interior over every fiber at once, by a rank test
  and one LP of strictly positive weights, against the longer
  `support.reach_over_domain`, 2k blocks of convex weights on a free key;
  the delta sweep, that condition at each sample as base point, a fiber
  LP and a reach with a value row, is sufficient for it;
* for the two-function kinds the longer definition runs over the product
  psi = f + g of `support.scenario_to_trivariate`, one sample per pair; the
  package never builds it, and decides both flags over f's and g's
  samples apart: the boundedness LP with one weight block per factor,
  the subspace LP over images lifted by +-1 in one more coordinate held
  at 0.

The longer definitions are the references here.  hypothesis draws the
point sets, derandomised so every run sees the same draws; the test is
skipped where hypothesis is missing, which the package does not need.
"""
from __future__ import annotations

import dataclasses
import functools
import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sandwichkit.convexfn import H_FORM, PolyhedralFunction  # noqa: E402
from sandwichkit.duality import (  # noqa: E402
    KINDS,
    MODES,
    DualityScenario,
    verify,
)
from sandwichkit.geometry import (  # noqa: E402
    AffineMap,
    Subspace,
    cone_union_is_subspace,
    vec_neg,
)
from sandwichkit.interiority import (  # noqa: E402
    SublevelQuery,
    _basis_directions,
    _direction_reach,
    _fiber_lp,
    boundedness_condition,
    interiority_margin,
)
from sandwichkit.numerics import POS_INF, lp_solve, vec  # noqa: E402
from sandwichkit.randomgen import (  # noqa: E402
    random_affine_map,
    random_crosscheck_scenario,
    random_fraction,
    random_trivariate_scenario,
    random_vform,
)
from support import (  # noqa: E402
    boundedness_over_domain,
    cone_lp_by_builder,
    interior_point,
    random_violating_fenchel,
    random_violating_trivariate,
    scenario_to_trivariate,
    solve_linear,
)
from test_duality import free_pair, sliding_indicator  # noqa: E402
from test_geometry import zero_in_hull  # noqa: E402


def cone_union_reference(points, lineality=()) -> bool:
    """0 in conv(points) + L, and -p in cone(points) + L for every point p."""
    pts = [vec(p) for p in points]
    lin = [vec(d) for d in lineality]
    dim = len(pts[0])
    if not zero_in_hull(pts, dim, lin):
        return False
    return all(lp_solve(cone_lp_by_builder(pts, vec_neg(p), lin)).status == "optimal"
               for p in pts if any(p))


@st.composite
def point_sets(draw):
    """Points and lineality directions in dimension 0-3.  A prefix of the
    points is mirrored and the directions have small entries, often zero,
    so that both outcomes are common with and without lineality."""
    dim = draw(st.integers(0, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=5))
    pts += [tuple(-c for c in p) for p in pts[:draw(st.integers(0, len(pts)))]]
    lin = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * dim), max_size=2))
    return pts, lin


def test_subspace_test_matches_the_two_step_reference():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(point_sets())
    def check(case):
        pts, lin = case
        ok, span = cone_union_is_subspace(pts, lin)
        assert ok == cone_union_reference(pts, lin)
        if ok:
            assert span == Subspace.from_spanning(pts + lin, len(pts[0]))
        else:
            assert span is None
        seen.add((len(pts[0]), bool(lin), ok))

    check()
    # dimension 0 is always a subspace; every other case meets both outcomes
    assert seen == {(0, False, True), (0, True, True)} | {
        (dim, with_lin, ok) for dim in (1, 2, 3)
        for with_lin in (False, True) for ok in (False, True)
    }


def sublevel_reference(phi, b_map, gamma) -> dict:
    """The sublevel flags by the margin sweep of the query at gamma."""
    q = SublevelQuery.build(phi, b_map, gamma)
    return {"subspace": q.subspace_ok,
            "interiority": q.subspace_ok and interiority_margin(q).holds}


def test_sublevel_flags_match_the_margin_sweep():
    rng = random.Random("sublevel flags")
    seen = set()
    for i in range(160):
        if i % 2:
            # +-pairs through a projection: the images span a subspace
            s = random_crosscheck_scenario(rng, "sublevel")
            phi, b_map = s.psi, s.b_map
        else:
            # any samples and any affine map: often no subspace, or no fiber
            dim = rng.randint(1, 2)
            phi = random_vform(rng, dim)
            b_map = random_affine_map(rng, dim, rng.randint(0, 2))
        m = SublevelQuery.build(phi, b_map, 0).fiber_value
        base = F(0) if m is POS_INF else m
        # gamma below, at and above the fiber infimum
        gamma = base + rng.choice((F(-1), F(0), F(1, 3), F(1), random_fraction(rng, -2, 3)))
        expected = sublevel_reference(phi, b_map, gamma)
        (report,) = verify(DualityScenario.sublevel(phi, b_map, gamma))
        flags = report.hypothesis_flags
        assert {k: flags[k] for k in expected} == expected, (phi, b_map, gamma)
        below = m is POS_INF or gamma <= m
        seen.add((expected["subspace"], below, expected["interiority"]))
    # the flag holds exactly when the images span a subspace and gamma > m
    assert seen == {(True, False, True), (True, True, False),
                    (False, True, False), (False, False, False)}


@pytest.mark.parametrize("kind", ["trivariate", "quadrivariate", "bibivariate",
                                  "partial_infconv"])
def test_boundedness_is_the_same_at_two_levels(kind):
    rng = random.Random(f"two levels:{kind}")
    seen = set()
    for _ in range(12):
        s = dataclasses.replace(random_crosscheck_scenario(rng, kind),
                                hypothesis_mode="boundedness")
        tri = scenario_to_trivariate(s)
        psi, a_map, b_map = tri.psi, tri.a_map, tri.b_map
        values = [v for _, v in psi.samples]
        stacked = [b_map(p) + a_map(p) for p, _ in psi.samples]
        zero = (F(0),) * b_map.out_dim
        for z0 in dict.fromkeys(p for p, _ in psi.samples):
            m, _ = _fiber_lp(values, stacked, zero + a_map(z0))
            high = max(values) + 1  # the level the flag uses
            low = high if m is POS_INF else m + (high - m) / 64
            answers = {boundedness_condition(psi, a_map, b_map, z0, level)
                       for level in (low, high)}
            assert len(answers) == 1, (s, z0)
            seen |= answers
    assert seen == {True, False}


def delta_sweep(values, stacked, target, b_dim) -> bool:
    """The boundedness condition at level delta = max(values) + 1, as a fiber
    LP and then one reach with the value row at (delta + m) / 2, m the
    fiber's infimum; stacked and target hold B's coordinates first."""
    m, _ = _fiber_lp(values, stacked, target)
    if m is POS_INF:
        return False
    if b_dim == 0:
        return True
    delta = max(values) + 1
    units = _basis_directions(Subspace.full(b_dim))
    return _direction_reach(stacked, target, units, (values, (delta + m) / 2)) > 0


def flag_by_delta_sweep(s) -> bool:
    """The flag of the scenario's mode by the longer route: the trivariate
    rewrite (the product f + g for the two-function kinds), then the
    subspace test on its B images, or the delta sweep at each distinct
    A-image of its samples, which implies the boundedness flag;
    indicator_linear sweeps at each sample q of g that C reaches."""
    if s.kind == "indicator_linear":
        x = s.dims[3]
        if s.hypothesis_mode == "closed_subspace":
            return cone_union_is_subspace([q[:x] for q, _ in s.g.samples],
                                          lineality=s.c_map.columns())[0]
        values = [val for _, val in s.g.samples]
        points = [q for q, _ in s.g.samples]
        return any(delta_sweep(values, points, q, x) for q in dict.fromkeys(points)
                   if solve_linear(s.c_map.linear, q[:x]) is not None)
    tri = scenario_to_trivariate(s)
    psi, a_map, b_map = tri.psi, tri.a_map, tri.b_map
    if s.hypothesis_mode == "closed_subspace":
        return cone_union_is_subspace([b_map(p) for p, _ in psi.samples])[0]
    values = [v for _, v in psi.samples]
    stacked = [b_map(p) + a_map(p) for p, _ in psi.samples]
    zero = (F(0),) * b_map.out_dim
    return any(delta_sweep(values, stacked, zero + a_map(p), b_map.out_dim)
               for p in dict.fromkeys(p for p, _ in psi.samples))


PRODUCT_KINDS = ("fenchel", "bibivariate", "partial_infconv")


def asymmetric_product(rng: random.Random, kind: str) -> DualityScenario:
    """A two-function scenario whose factors are drawn apart: blocks of 1-2
    coordinates, 1-5 samples each with coordinates in [-3, 3] and values in
    [0, 5], and maps with an offset half the time.  Each factor's
    coordinate is a multiple of 1/d for a d of its own, from 1 to 3, so the
    two factors' integer images scale a shared column differently."""
    def draw_f(dim):
        dens = [rng.randint(1, 3) for _ in range(dim)]
        return PolyhedralFunction.v_form(dim, [
            (tuple(F(rng.randint(-3 * d, 3 * d), d) for d in dens), rng.randint(0, 5))
            for _ in range(rng.randint(1, 5))])

    def draw_map(in_dim, out_dim):
        return random_affine_map(rng, in_dim, out_dim, with_offset=rng.random() < 0.5)

    u, v, w, x = (rng.randint(1, 2) for _ in range(4))
    if kind == "fenchel":
        return DualityScenario.fenchel(draw_f(w), draw_f(x), draw_map(w, x), [(0,) * w])
    if kind == "partial_infconv":
        return DualityScenario.partial_infconv(draw_f(x + v), draw_f(x + v), x,
                                               [(0,) * (x + v)])
    return DualityScenario.bibivariate(draw_f(w + v), draw_f(x + u), draw_map(w, x),
                                       draw_map(u, v), [(0,) * (w + v)])


FLAG_DRAWS = {
    **{kind: functools.partial(random_crosscheck_scenario, kind=kind)
       for kind in KINDS if kind != "sublevel"},
    "violating fenchel": random_violating_fenchel,
    "touching fenchel": lambda rng: random_violating_fenchel(rng, touching=True),
    "free fenchel": free_pair,
    "sliding indicator": sliding_indicator,
    "violating trivariate": random_violating_trivariate,
}


def assert_flag_matches(s, got: bool) -> None:
    """A subspace flag equals its longer definition; a boundedness flag
    equals the condition over the whole domain and follows from the
    delta sweep at the samples."""
    if s.hypothesis_mode == "closed_subspace":
        assert got == flag_by_delta_sweep(s), s
    else:
        assert got == boundedness_over_domain(s), s
        assert got or not flag_by_delta_sweep(s), s


@pytest.mark.parametrize("mode", MODES)
def test_flags_match_the_delta_sweep(mode):
    # sublevel has neither flag; a piece-form g has both by structure
    outcomes = {}
    for name, draw in FLAG_DRAWS.items():
        rng = random.Random(f"delta sweep:{name}")
        for _ in range(16):
            s = dataclasses.replace(draw(rng), hypothesis_mode=mode)
            if s.kind == "fenchel" and s.g.form == H_FORM:
                continue
            got = verify(s)[0].hypothesis_flags[mode]
            assert_flag_matches(s, got)
            outcomes.setdefault(name, set()).add(got)
    assert set().union(*outcomes.values()) == {True, False}
    assert len(outcomes) == len(FLAG_DRAWS)


@pytest.mark.parametrize("mode", MODES)
def test_factored_flags_match_the_product(mode):
    # more draws than above, each kind's factors drawn apart with offset
    # maps, so that a wrong offset, lift or scale of the targets shows
    seen = set()
    for kind in PRODUCT_KINDS:
        rng = random.Random(f"factored:{kind}:{mode}")
        for _ in range(60):
            s = dataclasses.replace(asymmetric_product(rng, kind), hypothesis_mode=mode)
            got = verify(s)[0].hypothesis_flags[mode]
            assert_flag_matches(s, got)
            seen.add((kind, got))
    assert seen == {(kind, ok) for kind in PRODUCT_KINDS for ok in (True, False)}


def test_factors_on_their_own_scales_span_no_more_than_their_sum():
    """The third coordinate of the stacked images has the scale 1 in f's
    block and 2 in g's.  The differences of both blocks span
    {(0, 0, 1, 1), (1, 0, 1, 2)}, which lacks the moving direction
    (1, 0, 0, 0), so every slice is one point.  Rows that scaled that
    coordinate by 1 in f's rows and by 2 in g's would span it."""
    f = PolyhedralFunction.v_form(3, [((0, 0, 0), 0), ((0, 1, 1), 0)])
    g = PolyhedralFunction.v_form(3, [((0, F(1, 2), 0), 0), ((1, F(3, 2), 2), 0),
                                      ((-1, F(-1, 2), -2), 0)])
    s = DualityScenario.partial_infconv(f, g, 1, [(0, 0, 0)], "boundedness")
    assert verify(s)[0].hypothesis_flags["boundedness"] is False
    assert boundedness_over_domain(s) is False


@pytest.mark.parametrize("mode", MODES)
def test_zero_dimensional_direction_spaces_hold(mode):
    rng = random.Random(f"zero dimensional:{mode}")
    for _ in range(8):
        f = random_vform(rng, rng.randint(1, 2))
        g = PolyhedralFunction.v_form(0, [((), random_fraction(rng, 0, 3))])
        fenchel = DualityScenario.fenchel(f, g, AffineMap.zero_map(f.dim),
                                          [(0,) * f.dim], mode)
        psi = random_vform(rng, rng.randint(1, 2))
        a_map = random_affine_map(rng, psi.dim, rng.randint(0, 2))
        trivariate = DualityScenario.trivariate(
            psi, a_map, AffineMap.zero_map(psi.dim), [(0,) * a_map.out_dim], mode)
        # x = 0: C maps into a zero-dimensional space, so each lifted
        # target, a midpoint of two lifted images, is tested with no LP
        u, v, w = (rng.randint(1, 2) for _ in range(3))
        bibivariate = DualityScenario.bibivariate(
            random_vform(rng, w + v), random_vform(rng, u), random_affine_map(rng, w, 0),
            random_affine_map(rng, u, v), [(0,) * (w + v)], mode)
        for s in (fenchel, trivariate, bibivariate):
            assert verify(s)[0].hypothesis_flags[mode] is True
            assert flag_by_delta_sweep(s) is True


#: per kind, the draws of the property test below
PROPERTY_DRAWS = {
    "trivariate": (FLAG_DRAWS["trivariate"], FLAG_DRAWS["violating trivariate"],
                   random_trivariate_scenario),
    "quadrivariate": (FLAG_DRAWS["quadrivariate"],),
    "fenchel": (FLAG_DRAWS["fenchel"], free_pair, random_violating_fenchel),
    **{kind: (FLAG_DRAWS[kind], functools.partial(asymmetric_product, kind=kind))
       for kind in ("bibivariate", "partial_infconv")},
    "indicator_linear": (FLAG_DRAWS["indicator_linear"], sliding_indicator),
}


@pytest.mark.parametrize("kind", sorted(PROPERTY_DRAWS))
def test_the_flag_over_the_domain_follows_from_the_samples(kind):
    """Per kind: the boundedness flag is the exact condition, the flag at
    sample base points (the delta sweep) implies it, and for the
    one-function kinds the point sum_i lam_i p_i at the weights that decide
    a true flag passes `boundedness_condition` at a level above every
    sample value."""
    seen = set()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(PROPERTY_DRAWS[kind]), st.integers(0, 2 ** 32))
    def check(draw, seed):
        s = dataclasses.replace(draw(random.Random(seed)), hypothesis_mode="boundedness")
        got = verify(s)[0].hypothesis_flags["boundedness"]
        at_sample = flag_by_delta_sweep(s)
        assert got == boundedness_over_domain(s), s
        assert got or not at_sample, s
        if got and s.psi is not None:
            delta = max(v for _, v in s.psi.samples) + 1
            assert boundedness_condition(s.psi, s.a_map, s.b_map, interior_point(s), delta), s
        seen.add(got)

    check()
    assert seen == {True, False}
