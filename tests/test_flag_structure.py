"""The hypothesis flags decided by structure, against longer definitions.

Each flag has a longer definition that spends more LPs:

* `cone_union_is_subspace` is 0 in conv(P) + L together with -p in
  cone(P) + L for every point p; the package asks one LP, whether -sum(P)
  lies in cone(P) + L;
* the `sublevel` flags are the subspace precondition and the margin sweep
  of a `SublevelQuery`; the package reads the sup LP's value, -m, against
  gamma;
* the boundedness condition may be tested at any level above the fiber's
  infimum; the package tests one.

The longer definitions are the references here.  hypothesis draws the
point sets, derandomised so every run sees the same draws; the test is
skipped where hypothesis is missing, which the package does not need.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sandwichkit.duality import DualityScenario, scenario_to_trivariate, verify  # noqa: E402
from sandwichkit.geometry import (  # noqa: E402
    Subspace,
    _in_cone,
    cone_union_is_subspace,
    vec_neg,
)
from sandwichkit.interiority import (  # noqa: E402
    SublevelQuery,
    _fiber_lp,
    boundedness_condition,
    interiority_margin,
)
from sandwichkit.numerics import POS_INF, vec  # noqa: E402
from sandwichkit.randomgen import (  # noqa: E402
    random_affine_map,
    random_crosscheck_scenario,
    random_fraction,
    random_vform,
)
from test_geometry import zero_in_hull  # noqa: E402


def cone_union_reference(points, lineality=()) -> bool:
    """0 in conv(points) + L, and -p in cone(points) + L for every point p."""
    pts = [vec(p) for p in points]
    lin = [vec(d) for d in lineality]
    dim = len(pts[0])
    if not zero_in_hull(pts, dim, lin):
        return False
    return all(_in_cone(pts, vec_neg(p), dim, lin) for p in pts if any(p))


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

