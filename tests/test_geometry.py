"""Tests for affine maps, polytopes, subspaces, and the cone-union test."""
import random
from fractions import Fraction

import pytest

from sandwichkit.geometry import (
    AffineMap,
    Polytope,
    Subspace,
    cone_union_is_subspace,
    in_span,
    independent_rows,
    minimal_vertices,
    polytope_contains,
    rref,
)
from sandwichkit.numerics import LpBuilder, StructuralError, vec
from support import solve_linear


def zero_in_hull(points, dim, lineality=()) -> bool:
    """Whether 0 lies in conv(points) + span(lineality), by its own LP: the
    reference for the hull tests that the package now reads off other LPs."""
    b = LpBuilder()
    free = b.block(len(lineality))
    span = [{free[k]: d[c] for k, d in enumerate(lineality)} for c in range(dim)]
    b.convex_weights(points, (Fraction(0),) * dim, span)
    return b.solve().status == "optimal"


class TestAffineMap:
    def test_apply_worked_example(self):
        m = AffineMap.from_rows([[1, 2], [3, 4]], [1, 0])
        assert m((1, 1)) == (Fraction(4), Fraction(7))

    def test_identity(self):
        m = AffineMap.identity(3)
        assert m((5, -2, 7)) == (Fraction(5), Fraction(-2), Fraction(7))
        assert m.is_identity()
        assert not AffineMap.from_rows([[1, 0], [0, 2]]).is_identity()
        assert not AffineMap.from_rows([[1, 0], [0, 1]], [0, 1]).is_identity()

    def test_compose_matches_pointwise(self):
        rng = random.Random(7)
        for _ in range(25):
            n, m, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            inner = AffineMap.from_rows(
                [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)],
                [Fraction(rng.randint(-4, 4)) for _ in range(m)],
                in_dim=n,
            )
            outer = AffineMap.from_rows(
                [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(k)],
                [Fraction(rng.randint(-4, 4)) for _ in range(k)],
                in_dim=m,
            )
            z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            assert outer.compose(inner)(z) == outer(inner(z))

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            AffineMap.from_rows([[1, 2], [3]])
        with pytest.raises(StructuralError):
            AffineMap(((Fraction(1),),), (Fraction(0), Fraction(0)), 1)
        m = AffineMap.from_rows([[1, 2]])
        with pytest.raises(StructuralError):
            m((1, 2, 3))
        with pytest.raises(StructuralError):
            AffineMap.from_rows([[1]]).compose(AffineMap.from_rows([[1, 2], [3, 4]]))

    def test_zero_dimensional_target(self):
        drop = AffineMap.zero_map(2)
        assert drop((5, 6)) == ()
        assert drop.in_dim == 2 and drop.out_dim == 0
        outer = AffineMap.from_rows([], [], in_dim=0)
        assert outer.compose(drop)((1, 2)) == ()


class TestPolytope:
    def test_triangle_membership(self):
        t = Polytope.of([(0, 0), (2, 0), (0, 2)])
        assert t.contains((1, 1))
        assert t.contains(("1/2", "1/2"))
        assert t.contains((0, 0))
        assert not t.contains((2, 2))
        assert not t.contains((-1, 0))

    def test_point_polytope(self):
        p = Polytope.of([(3, 4)])
        assert p.contains((3, 4))
        assert not p.contains((3, 5))

    def test_segment_boundary_is_exact(self):
        s = Polytope.of([(0,), (1,)])
        assert s.contains((1,))
        assert not s.contains(("10000000001/10000000000",))

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            Polytope.of([(0, 0), (1,)])
        with pytest.raises(StructuralError):
            polytope_contains(Polytope.of([(0, 0)]), (1,))


class TestLinearAlgebra:
    def test_rref_and_pivots(self):
        reduced, pivots = rref([[2, 4, 6], [1, 2, 4]])
        assert pivots == [0, 2]
        assert reduced == [[Fraction(1), Fraction(2), Fraction(0)],
                           [Fraction(0), Fraction(0), Fraction(1)]]

    def test_independent_rows(self):
        basis = independent_rows([(1, 1, 0), (2, 2, 0), (0, 0, 3)])
        assert len(basis) == 2

    def test_in_span(self):
        assert in_span([(1, 0, 0), (0, 1, 0)], (3, -2, 0))
        assert not in_span([(1, 0, 0), (0, 1, 0)], (0, 0, 1))
        assert in_span([], (0, 0))
        assert not in_span([], (1, 0))

    def test_solve_linear(self):
        x = solve_linear([[1, 1], [1, -1]], [3, 1])
        assert x == (Fraction(2), Fraction(1))
        assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
        # underdetermined: any valid solution is fine
        x = solve_linear([[1, 1, 0]], [5])
        assert x is not None and x[0] + x[1] == 5

    def test_solve_random_consistency(self):
        rng = random.Random(11)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            true_x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            b = [sum(r[j] * true_x[j] for j in range(n)) for r in rows]
            x = solve_linear(rows, b)
            assert x is not None
            for r, rhs in zip(rows, b):
                assert sum(c * v for c, v in zip(r, x)) == rhs


class TestSubspace:
    def test_from_spanning_reduces(self):
        s = Subspace.from_spanning([(1, 1), (2, 2)], 2)
        assert s.dim == 1
        assert s.contains((5, 5))
        assert not s.contains((1, 0))

    def test_trivial_and_full(self):
        z = Subspace.from_spanning([], 2)
        assert not z.basis
        assert z.contains((0, 0))
        assert not z.contains((1, 0))
        f = Subspace.full(3)
        assert f.dim == 3
        assert f.contains((1, 2, 3))


class TestConeUnion:
    def test_opposite_pair_is_line(self):
        ok, s = cone_union_is_subspace([(1, 0), (-1, 0)])
        assert ok and s is not None
        assert s.dim == 1 and s.contains((7, 0)) and not s.contains((0, 1))

    def test_positive_quadrant_pair_is_not(self):
        ok, s = cone_union_is_subspace([(1, 0), (0, 1)])
        assert not ok and s is None

    def test_origin_alone_is_trivial_subspace(self):
        ok, s = cone_union_is_subspace([(0, 0)])
        assert ok and s is not None and not s.basis

    def test_shifted_simplex_spanning_plane(self):
        # triangle with 0 inside and symmetric directions: spans the plane
        pts = [(1, 0), (-1, 1), (-1, -1), (1, -1), (-1, 0), (1, 1)]
        ok, s = cone_union_is_subspace(pts)
        assert ok and s is not None and s.dim == 2

    def test_hull_missing_origin(self):
        ok, s = cone_union_is_subspace([(1, 0), (1, 1)])
        assert not ok

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
                   for _ in range(rng.randint(1, 5))]
            ok1, _ = cone_union_is_subspace(pts)
            scaled = [tuple(Fraction(3, 2) * c for c in p) for p in pts]
            ok2, _ = cone_union_is_subspace(scaled)
            assert ok1 == ok2


class TestMinimalVertices:
    def test_drops_interior_and_duplicate_points(self):
        pts = [(0, 0), (2, 0), (0, 2), (1, 1), (0, 0), ("1/2", "1/2")]
        kept = minimal_vertices(pts)
        assert sorted(kept) == sorted([vec((0, 0)), vec((2, 0)), vec((0, 2))])

    def test_single_point(self):
        assert minimal_vertices([(5,)]) == [vec((5,))]

    def test_hull_membership_preserved(self):
        rng = random.Random(19)
        for _ in range(15):
            pts = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                   for _ in range(rng.randint(1, 7))]
            kept = minimal_vertices(pts)
            big = Polytope.of(pts)
            small = Polytope.of(kept)
            for p in pts:
                assert small.contains(p)
            for q in kept:
                assert big.contains(q)


class TestConeUnionLineality:
    def test_offset_hull_with_line_is_not_subspace(self):
        ok, _ = cone_union_is_subspace([(1, 0)], lineality=[(0, 1)])
        assert not ok

    def test_segment_plus_line_fills_plane(self):
        ok, span = cone_union_is_subspace([(1, 0), (-1, 0)], lineality=[(0, 1)])
        assert ok and span.dim == 2

    def test_point_on_its_own_line(self):
        ok, span = cone_union_is_subspace([(2, 0)], lineality=[(2, 0)])
        assert ok and span.dim == 1
        assert span.contains((1, 0)) and not span.contains((0, 1))
