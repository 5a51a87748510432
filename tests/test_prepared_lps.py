"""LPs made from prepared parts against the same LPs made row by row.

A sample-form function's evaluation LP is made by
`LpBuilder.weights_program` from the function's cached images and rows
shared per shape, and `sup_affine_minus_convex` hands every row and its
objective to the builder as integer images, the fiber and coupling rows
cached on each map.  Both must give the kernel exactly the program
that `LpBuilder.convex_weights`, `set_objective` and `add` assemble: the same
rows in the same order, each with the same entries in the same order over the
same scale, the same objective image, and for a prepared program a carried
fold equal to the one the kernel would find.  Every sup LP `verify` makes,
with the images its scenario caches, must do the same, every cached image
must equal one made afresh, and building a scenario makes none.  So must
the fiber LP of `interiority` and the membership LP of
`geometry.polytope_contains`, both made by `weights_program`, and the one
flag LP, `geometry.ri_meets_range`, whose rows are made from the points'
integer image: on its own, as `cone_is_subspace`, and in every flag of
both modes.  The references are in tests/support.py.  hypothesis draws the instances; the module is skipped
where hypothesis is missing, which the package does not need.
"""
import dataclasses
import functools
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sandwichkit import cli, duality, interiority, numerics  # noqa: E402
from sandwichkit.convexfn import (  # noqa: E402
    AffineFunctional,
    PolyhedralFunction,
    eval_with_subgradient,
    sup_affine_minus_convex,
    sups_affine_minus_convex,
)
from sandwichkit.duality import KINDS, MODES, DualityScenario  # noqa: E402
from sandwichkit.geometry import (  # noqa: E402
    AffineMap,
    Polytope,
    cone_is_subspace,
    polytope_contains,
    ri_meets_range,
)
from sandwichkit.interiority import _fiber  # noqa: E402
from sandwichkit.numerics import (  # noqa: E402
    NEG_INF,
    POS_INF,
    LpBuilder,
    PointColumns,
    _folded,
    _weight_parts,
    _weight_rows,
    lp_solve,
)
from sandwichkit.randomgen import (  # noqa: E402
    random_affine_map,
    random_crosscheck_scenario,
    random_fraction,
    random_vec,
)
from support import (  # noqa: E402
    cone_lp_by_builder,
    evaluation_lp_by_builder,
    flag_lp_by_builder,
    sup_lp_by_builder,
)

CORPUS = Path(cli.__file__).parent / "scenarios"

#: the (dimension, sample count) shapes of the benchmark's evaluate workload
EVALUATE_SHAPES = [(d, n) for d in (1, 2, 3, 4) for n in (3, 5, 8, 12, 16)]


def solved_lps(call) -> tuple:
    """call's return value and every program it hands to lp_solve."""
    seen = []

    def recording(lp):
        seen.append(lp)
        return lp_solve(lp)

    with mock.patch.object(numerics, "lp_solve", recording):
        out = call()
    return out, seen


def ordered(rows) -> list:
    """Integer rows with each row's entry order."""
    return [(list(a.items()), rel, b, s) for a, rel, b, s in rows]


def layout(lp) -> tuple:
    """Everything the kernel reads of lp, with each row's entry order."""
    return lp.num_vars, lp.sense, lp._n_constraints, ordered(lp._rows), lp._obj


def assert_evaluation_matches_the_builder(f: PolyhedralFunction, x) -> None:
    (value, sub), (lp,) = solved_lps(lambda: eval_with_subgradient(f, x))
    ref = evaluation_lp_by_builder(f, x)
    assert layout(lp) == layout(ref)
    assert lp._fold == _folded(lp._rows)
    # and the function's result is the reference program's
    res = lp_solve(ref)
    if res.status == "infeasible":
        assert (value, sub) == (numerics.POS_INF, None)
    else:
        assert (value, sub) == (res.value, res.dual[1:1 + f.dim])


def random_function(rng: random.Random, dim: int, n: int) -> PolyhedralFunction:
    return PolyhedralFunction.v_form(dim, [
        (tuple(F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(dim)),
         F(rng.randint(-20, 20), rng.randint(1, 20)))
        for _ in range(n)
    ])


def hull_point(rng: random.Random, f: PolyhedralFunction) -> tuple:
    weights = [rng.randint(0, 5) for _ in f.samples]
    weights[rng.randrange(len(weights))] += 1
    total = sum(weights)
    return tuple(sum((F(w, total) * p[c] for w, (p, _) in zip(weights, f.samples)), F(0))
                 for c in range(f.dim))


def off_hull_point(rng: random.Random, f: PolyhedralFunction) -> tuple:
    x = list(hull_point(rng, f))
    c = rng.randrange(f.dim)
    x[c] = max(p[c] for p, _ in f.samples) + F(rng.randint(1, 20), rng.randint(1, 20))
    return tuple(x)


def evaluate_round(seed: int, functions_per_shape: int = 2) -> list:
    """(f, x) pairs in every evaluate shape: four points on the hull and
    one off it per function."""
    rng = random.Random(seed)
    items = []
    for dim, n in EVALUATE_SHAPES:
        for _ in range(functions_per_shape):
            f = random_function(rng, dim, n)
            items.append((f, off_hull_point(rng, f)))
            items.extend((f, hull_point(rng, f)) for _ in range(4))
    return items


@st.composite
def evaluations(draw):
    """A sample-form function and a point: dimension 0 to 4, 1 to 16
    samples drawn from a small pool, so points and whole samples repeat, and
    the point on the hull, off it, or anywhere."""
    dim = draw(st.integers(0, 4))
    scalar = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    pool = draw(st.lists(st.tuples(st.tuples(*[scalar] * dim), scalar), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    f = PolyhedralFunction.v_form(dim, [pool[i] for i in picks])
    where = draw(st.sampled_from(["on", "off", "anywhere"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if where == "on" or dim == 0:
        x = hull_point(rng, f)
    elif where == "off":
        x = off_hull_point(rng, f)
    else:
        x = tuple(draw(scalar) for _ in range(dim))
    return f, x


class TestEvaluationProgram:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(evaluations())
    def test_matches_the_builders_program(self, case):
        assert_evaluation_matches_the_builder(*case)

    def test_every_evaluate_shape_matches_the_builders_program(self):
        items = evaluate_round(28)
        assert {(f.dim, len(f.data)) for f, _ in items} == set(EVALUATE_SHAPES)
        for f, x in items:
            assert_evaluation_matches_the_builder(f, x)

    def test_a_round_leaves_the_shared_parts_unchanged(self):
        items = evaluate_round(5)
        shapes = {(f.dim, len(f.data)) for f, _ in items}
        for f, x in items:
            eval_with_subgradient(f, x)
        # the shared parts: still cached, and equal, entry order included,
        # to parts made afresh
        for dim, n in shapes:
            weight, bounds, fold = _weight_parts(n, dim)
            assert _weight_parts(n, dim)[0] is weight
            fresh_weight, fresh_bounds = _weight_rows.__wrapped__(n)
            assert ordered([weight, *bounds]) == ordered([fresh_weight, *fresh_bounds])
            assert fold == _weight_parts.__wrapped__(n, dim)[2]

    def test_the_values_image_is_made_once(self):
        f = random_function(random.Random(3), 2, 5)
        (_, first), (_, second) = (solved_lps(lambda: eval_with_subgradient(f, x))
                                   for x in (hull_point(random.Random(1), f),
                                             hull_point(random.Random(2), f)))
        assert first[0]._obj is second[0]._obj is f.value_image


class TestWeightsPrograms:
    """The fiber LP and the membership LP, made by `weights_program` from
    prepared parts, are the programs `convex_weights` and `set_objective`
    assemble."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(evaluations())
    def test_fiber_matches_the_builders_program(self, case):
        f, x = case
        got, (lp,) = solved_lps(lambda: _fiber(f, x))
        ref = evaluation_lp_by_builder(f, x)
        assert layout(lp) == layout(ref)
        assert lp._fold == _folded(lp._rows)
        res = lp_solve(ref)
        if res.status == "infeasible":
            assert got == (POS_INF, None)
        else:
            assert got == (res.value, res.point)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(evaluations())
    def test_membership_matches_the_builders_program(self, case):
        f, x = case
        points = [p for p, _ in f.samples]
        got, (lp,) = solved_lps(lambda: polytope_contains(Polytope(f.dim, tuple(points)), x))
        b = LpBuilder()
        b.convex_weights(points, x)
        ref = b.build()
        assert layout(lp) == layout(ref)
        assert lp._fold == _folded(lp._rows)
        assert got == (lp_solve(ref).status == "optimal")


@st.composite
def piece_sups(draw):
    """A sup over 1 to 3 terms of either form, under identity or random maps,
    with up to one fiber."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        dim = draw(st.integers(1, 3))
        entries = [(random_vec(rng, dim), random_fraction(rng, denominators=(1, 2, 3, 5)))
                   for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            psi = PolyhedralFunction.h_form(dim, entries)
        else:
            psi = PolyhedralFunction.v_form(dim, entries)
        if dim == n and draw(st.booleans()):
            m = AffineMap.identity(n)
        else:
            m = random_affine_map(rng, n, dim)
        terms.append((psi, m))
    fibers = [random_affine_map(rng, n, 1)] if draw(st.booleans()) else []
    phi = AffineFunctional(random_vec(rng, n), random_fraction(rng))
    return phi, terms, fibers


class TestSupProgram:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(piece_sups())
    def test_matches_the_builders_program(self, case):
        phi, terms, fibers = case
        _, (lp,) = solved_lps(lambda: sup_affine_minus_convex(phi, terms, fibers))
        assert layout(lp) == layout(sup_lp_by_builder(phi, terms, fibers))
        assert lp._fold is None


def verify_sups(s) -> list:
    """(phi, terms, fibers, program) of every sup LP that verify(s) solves:
    the left sides, solved one at a time by `sups_affine_minus_convex`, and
    the right side of each infinite left side, one `sup_affine_minus_convex`
    each."""
    seen = []

    def recording(phi, terms, fibers=()):
        out, (lp,) = solved_lps(lambda: sup_affine_minus_convex(phi, terms, fibers))
        seen.append((phi, terms, fibers, lp))
        return out

    def recording_each(phis, terms, fibers=()):
        lefts = sups_affine_minus_convex(phis, terms, fibers)
        for phi in phis:
            out, (lp,) = solved_lps(lambda: next(lefts))
            seen.append((phi, terms, fibers, lp))
            yield out

    with mock.patch.object(duality, "sup_affine_minus_convex", recording), \
            mock.patch.object(duality, "sups_affine_minus_convex", recording_each):
        duality.verify(s)
    return seen


def corpus_scenarios() -> list:
    """The duality scenario of every bundled verify file."""
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            sc = cli.parse_scenario(path.read_text(), path.name)
            if sc.expect["command"] == "verify":
                out.append(cli.build_duality_scenario(sc))
        except cli.ScenarioError:
            pass  # broken.json
    return out


def drawn_scenarios(seed: int) -> list:
    """Seeded draws of all seven kinds in both modes, one fenchel draw with
    g in piece form, and each with its first query listed again."""
    rng = random.Random(seed)
    out = []
    for kind in KINDS:
        for mode in MODES:
            s = random_crosscheck_scenario(rng, kind)
            if kind != "sublevel":
                s = dataclasses.replace(s, hypothesis_mode=mode)
            out.append(s)
    f = out[KINDS.index("fenchel") * len(MODES)]
    out.append(DualityScenario.fenchel(f.f, f.g.conjugate(), f.c_map, f.queries))
    return [dataclasses.replace(s, queries=s.queries + s.queries[:1]) for s in out]


def cached(obj) -> dict:
    """The cached properties obj's class declares, by name, with their
    functions."""
    return {name: attr.func for klass in type(obj).__mro__ for name, attr in vars(klass).items()
            if isinstance(attr, functools.cached_property)}


def holders(*roots) -> list:
    """Every object reachable from roots, through fields, cached values,
    tuples, lists and dict values, whose class has a cached property."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, str, F, float, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            if cached(obj):
                found.append(obj)
            stack.extend(vars(obj).values())
    return found


def canonical(x):
    """x with dict entry order and PointColumns' contents made comparable."""
    if isinstance(x, dict):
        return ("dict", [(k, canonical(v)) for k, v in x.items()])
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, [canonical(v) for v in x])
    if isinstance(x, numerics.PointColumns):
        return ("columns", x.count, canonical(x.columns))
    return x


class TestCachedImages:
    """verify builds every sup LP from images cached on the scenario, its
    maps and its functions, made on first use."""

    def scenarios(self) -> list:
        return corpus_scenarios() + drawn_scenarios(29)

    def test_every_sup_lp_matches_the_builders_program(self):
        kinds = set()
        for s in self.scenarios():
            # twice: the second verify reads the images the first one made
            for _ in range(2):
                sups = verify_sups(s)
                lefts = {r.query: r.lhs for r in duality.verify(s)}
                infinite = sum(lhs in (POS_INF, NEG_INF) for lhs in lefts.values())
                assert len(sups) == len(lefts) + infinite
                for phi, terms, fibers, lp in sups:
                    assert layout(lp) == layout(sup_lp_by_builder(phi, terms, fibers))
            kinds.add((s.kind, s.g is not None and s.g.form))
        assert {k for k, _ in kinds} == set(KINDS)
        assert ("fenchel", "pieces") in kinds

    def test_cached_images_equal_fresh_ones(self):
        scenarios = self.scenarios()
        reports = [duality.verify(s) for s in scenarios]
        objects = holders(scenarios, reports)
        made = 0
        for obj in objects:
            for name, make in cached(obj).items():
                if name in vars(obj):
                    made += 1
                    assert canonical(vars(obj)[name]) == canonical(make(obj)), (obj, name)
        names = {name for obj in objects for name in cached(obj) if name in vars(obj)}
        assert names >= {"fiber_rows", "coupling_rows", "_identity", "columns", "value_image",
                         "_terms", "_f_parts", "_g_parts", "_g_conjugate"}, names
        assert made

    def test_building_a_scenario_makes_no_image(self):
        # the identity maps are shared per dimension, and earlier tests may
        # have made their images
        AffineMap.identity.cache_clear()
        for s in self.scenarios():
            for obj in holders(s):
                assert not set(cached(obj)) & set(vars(obj)), (s.kind, obj)


@st.composite
def cones(draw):
    """Points and lineality directions in dimension 0 to 3, with rational
    entries: the points drawn from a small pool, so that they repeat."""
    dim = draw(st.integers(0, 3))
    scalar = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[scalar] * dim), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    lineality = draw(st.lists(st.tuples(*[scalar] * dim), max_size=2))
    return [pool[i] for i in picks], lineality


def assert_cone_matches_the_builder(points, lineality, lp) -> None:
    """lp is the program of the distinct points' cone test at -sum(points),
    row for row."""
    distinct = list(dict.fromkeys(tuple(F(c) for c in p) for p in points))
    target = tuple(-sum(column, F(0)) for column in zip(*distinct))
    assert layout(lp) == layout(cone_lp_by_builder(distinct, target, lineality))


def rational_points(pc: PointColumns) -> list:
    """The points whose integer image pc is."""
    return [tuple(F(column[i], scale) for scale, column in pc.columns) for i in range(pc.count)]


@st.composite
def flag_inputs(draw):
    """ri_meets_range's inputs: one or two blocks of points in dimension
    k + n, k from 0 to 2 and n from 0 to 1, with rational entries drawn from
    a small pool so that moving parts repeat, and half the time a linear
    link of 1 to 2 columns into Q^k."""
    k, n = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    scalar = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[scalar] * k), min_size=1, max_size=4))
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
        blocks.append([pool[i] + tuple(draw(st.lists(scalar, min_size=n, max_size=n)))
                       for i in picks])
    link = None
    if draw(st.booleans()):
        w = draw(st.integers(1, 2))
        link = AffineMap.from_rows(
            [draw(st.lists(scalar, min_size=w, max_size=w)) for _ in range(k)], in_dim=w)
    return blocks, k, link


class TestConeProgram:
    """`ri_meets_range`, the one flag LP, hands the builder the integer
    images of the rows that `support.flag_lp_by_builder` adds as
    Fractions: on its own, as `cone_is_subspace`, and in every flag that
    `verify` decides."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(cones())
    def test_matches_the_builders_program(self, case):
        points, lineality = case
        ok, (lp,) = solved_lps(lambda: cone_is_subspace(points, lineality))
        assert_cone_matches_the_builder(points, lineality, lp)
        assert ok == (lp_solve(lp).status == "optimal")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(flag_inputs())
    def test_blocks_match_the_builders_program(self, case):
        blocks, k, link = case
        dim = len(blocks[0][0])
        ok, (lp,) = solved_lps(
            lambda: ri_meets_range([PointColumns(points, dim) for points in blocks], k, link))
        assert layout(lp) == layout(flag_lp_by_builder(blocks, k, link))
        assert ok == (lp_solve(lp).status == "optimal")

    def test_every_flag_lp_matches_the_builders_program(self):
        seen = []

        def recording(blocks, k, link=None):
            ok, (lp,) = solved_lps(lambda: ri_meets_range(blocks, k, link))
            seen.append(([rational_points(pc) for pc in blocks], k, link, lp))
            return ok

        scenarios = corpus_scenarios() + drawn_scenarios(29)
        with mock.patch.object(duality, "ri_meets_range", recording), \
                mock.patch.object(interiority, "ri_meets_range", recording):
            for s in scenarios:
                duality.verify(s)
        subspace = [s for s in scenarios
                    if s.kind == "sublevel" or s.hypothesis_mode == "closed_subspace"]
        assert len(seen) > len(subspace)
        assert {len(blocks) for blocks, _, _, _ in seen} == {1, 2}
        assert any(link is not None for _, _, link, _ in seen)
        for blocks, k, link, lp in seen:
            assert layout(lp) == layout(flag_lp_by_builder(blocks, k, link))
