"""Vertex-form polytopes, affine maps, subspaces, and exact linear algebra.

Polytopes live purely in vertex form; membership questions go through LP
feasibility so no facet enumeration ever happens.  Subspace membership is a
linear solve.  All arithmetic is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Sequence

from .numerics import (
    EQ,
    LpBuilder,
    PointColumns,
    StructuralError,
    Vec,
    _coordinate_row,
    _row_image,
    dot,
    frac,
    unit_vec,
    vec,
)


@dataclass(frozen=True)
class AffineMap:
    """z -> linear @ z + offset, with linear stored as a tuple of rows.

    in_dim is explicit because maps into zero-dimensional space have no rows.
    A map read by many LPs keeps, made on first use, its rows' integer
    images (`fiber_rows`, `coupling_rows`) and whether it is the identity;
    applying it (`__call__`) reads none of them.
    """

    linear: tuple[Vec, ...]
    offset: Vec
    in_dim: int

    def __post_init__(self):
        for row in self.linear:
            if len(row) != self.in_dim:
                raise StructuralError("affine map rows do not match the stated input dimension")
        if len(self.linear) != len(self.offset):
            raise StructuralError(
                f"affine map has {len(self.linear)} rows but offset of length {len(self.offset)}"
            )

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    def __call__(self, z: Sequence) -> Vec:
        if len(z) != self.in_dim:
            raise StructuralError(
                f"affine map expects input of dimension {self.in_dim}, got {len(z)}"
            )
        # a zero offset adds nothing, and adding it would make a new Fraction
        return tuple(dot(row, z) + off if off else dot(row, z)
                     for row, off in zip(self.linear, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        if inner.out_dim != self.in_dim:
            raise StructuralError(
                f"cannot compose: inner output {inner.out_dim} != outer input {self.in_dim}"
            )
        cols = inner.columns()
        rows = tuple(tuple(dot(row, col) for col in cols) for row in self.linear)
        off = tuple(
            dot(row, inner.offset) + o for row, o in zip(self.linear, self.offset)
        )
        return AffineMap(rows, off, inner.in_dim)

    def columns(self) -> tuple[Vec, ...]:
        """The linear part's columns, one per input coordinate."""
        if not self.linear:
            return ((),) * self.in_dim
        return tuple(zip(*self.linear))

    @staticmethod
    @cache
    def identity(dim: int) -> "AffineMap":
        """The identity on Q^dim, built once per dimension."""
        rows = tuple(unit_vec(dim, i) for i in range(dim))
        return AffineMap(rows, (Fraction(0),) * dim, dim)

    @staticmethod
    def from_rows(rows: Iterable[Iterable], offset: Iterable | None = None,
                  in_dim: int | None = None) -> "AffineMap":
        lin = tuple(vec(r) for r in rows)
        if offset is None:
            offset = (Fraction(0),) * len(lin)
        if in_dim is None:
            if not lin:
                raise StructuralError(
                    "from_rows needs in_dim when no rows are given"
                )
            in_dim = len(lin[0])
        return AffineMap(lin, vec(offset), in_dim)

    @staticmethod
    def zero_map(in_dim: int) -> "AffineMap":
        """The unique map into zero-dimensional space."""
        return AffineMap((), (), in_dim)

    def is_identity(self) -> bool:
        return self._identity

    @cached_property
    def _identity(self) -> bool:
        if self.in_dim != self.out_dim or any(self.offset):
            return False
        return all(
            self.linear[i][j] == (1 if i == j else 0)
            for i in range(self.out_dim)
            for j in range(self.in_dim)
        )

    @cached_property
    def fiber_rows(self) -> tuple:
        """The fiber {z : linear @ z + offset = 0} as one integer row
        (A, EQ, B, s) per row of the map, over the lcm s of its denominators
        (`numerics._row_image`), on the variables z_0 .. z_{in_dim - 1};
        made on first use, and shared by every LP that reads it, so nothing
        may mutate it."""
        return tuple(_row_image({j: c for j, c in enumerate(row) if c}, EQ, -off)
                     for row, off in zip(self.linear, self.offset))

    @cached_property
    def coupling_rows(self) -> tuple:
        """Per row of the map, the extra terms -linear @ z with the offset
        on the right, as (A, B, s) over the same scale as `fiber_rows`, the
        form `numerics._coordinate_row` reads; made on first use, and shared
        like `fiber_rows`."""
        return tuple(({j: -x for j, x in a.items()}, -b, s) for a, _, b, s in self.fiber_rows)


def embed(n: int, *blocks) -> Vec:
    """A row of n Fractions holding each (start, coefficients) block, else 0."""
    row = [Fraction(0)] * n
    for start, coeffs in blocks:
        row[start:start + len(coeffs)] = vec(coeffs)
    return tuple(row)


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many vertices (vertex form only)."""

    dim: int
    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if not self.vertices:
            raise StructuralError("a polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise StructuralError(
                    f"vertex {v} does not have dimension {self.dim}"
                )

    @staticmethod
    def of(points: Iterable[Iterable]) -> "Polytope":
        pts = tuple(vec(p) for p in points)
        if not pts:
            raise StructuralError("a polytope needs at least one vertex")
        return Polytope(len(pts[0]), pts)

    def contains(self, point: Sequence) -> bool:
        return polytope_contains(self, point)


def polytope_contains(p: Polytope, x: Sequence) -> bool:
    """Membership in conv(vertices), decided by LP feasibility: the
    evaluation program (`LpBuilder.weights_program`) with a zero objective."""
    if len(x) != p.dim:
        raise StructuralError(
            f"point of dimension {len(x)} tested against polytope of dimension {p.dim}"
        )
    n = len(p.vertices)
    b = LpBuilder()
    b.weights_program(PointColumns(p.vertices, p.dim), vec(x), ([0] * n, 1))
    return b.solve().status == "optimal"


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    mat = [[frac(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [inv * v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def independent_rows(vectors: Sequence[Sequence]) -> list[Vec]:
    """A reduced basis of the span of the given vectors."""
    if not vectors:
        return []
    reduced, _ = rref(vectors)
    return [tuple(row) for row in reduced if any(row)]


def in_span(basis: Sequence[Sequence], v: Sequence) -> bool:
    if not basis:
        return not any(frac(x) for x in v)
    before = len(independent_rows(basis))
    after = len(independent_rows(list(basis) + [list(v)]))
    return before == after


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by a reduced spanning basis (possibly empty)."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise StructuralError("subspace basis vector has wrong dimension")

    @classmethod
    def from_spanning(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        basis = independent_rows([vec(v) for v in vectors])
        return cls(ambient_dim, tuple(basis))

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, tuple(unit_vec(dim, i) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise StructuralError("dimension mismatch in Subspace.contains")
        return in_span(self.basis, vec(v))


def ri_meets_range(blocks: Sequence[PointColumns], k: int,
                   link: AffineMap | None = None) -> bool:
    """Whether some strictly positive convex weights, one set per block,
    put the moving part of sum_j sum_i lam_ji v_ji in T: whether the
    relative interior of the sum of the blocks' hulls meets T x Q^n.

    Each block is its points' `PointColumns`; the first k coordinates move,
    and the rest, a key, are read by no row.  T is range(link) for a linear
    map link into Q^k, or {0}.  It is one LP, the cone test: with each
    point's moving part lifted by one coordinate per block after the first,
    +1 on the first block's points and -1 on that block's, the weights
    exist exactly when -sum(lifted) lies in cone(lifted) + T x {0} (proof
    at `interiority.interior_through_domain`).  The LP asks for a free w,
    then nu >= 0 over the distinct lifted points l_i, with
    sum_i nu_i l_i - link(w) = -sum_i l_i: one row per moving coordinate,
    link's terms from its cached `coupling_rows`, then one per lift.  Each
    row's integer image is made by `numerics._coordinate_row` from the
    blocks' joined column (`PointColumns.joined`), the image
    `LpBuilder.add` would make of the same rational row.  With no row at
    all there is one empty ray.
    """
    columns = list(PointColumns.joined(blocks).columns[:k])
    owner = [j for j, pc in enumerate(blocks) for _ in range(pc.count)]
    columns += [(1, tuple([1 if o == 0 else -(o == j) for o in owner]))
                for j in range(1, len(blocks))]
    rays = list(dict.fromkeys(zip(*[column for _, column in columns]))) if columns else [()]
    b = LpBuilder()
    # w first, so that link's coupling rows name its variables
    b.block(0 if link is None else link.in_dim)
    nu = b.block(len(rays), lo=0)
    couplings = [({}, 0, 1)] * k if link is None else list(link.coupling_rows)
    couplings += [({}, 0, 1)] * (len(columns) - k)
    for c, ((scale, _), (extra, rhs, t)) in enumerate(zip(columns, couplings)):
        column = tuple([ray[c] for ray in rays])
        b.add_image(*_coordinate_row(scale, column, nu, extra, rhs, t, -sum(column)))
    return b.solve().status == "optimal"


def cone_is_subspace(points: Sequence[Sequence], lineality: Sequence[Sequence] = ()) -> bool:
    """Whether the union over t > 0 of t * (conv(points) + L) is a subspace.

    L is the span of the lineality directions (empty by default).  The
    union is cone(points) + L, and it is a subspace exactly when
    -sum(points) lies in cone(points) + L:

    * if -sum p_i = sum nu_i p_i + l with every nu_i >= 0, then
      sum c_i p_i lies in L with every c_i = 1 + nu_i >= 1, so each -p_j
      is c_j^-1 (sum over i != j of c_i p_i) plus a point of L, and
      dividing by sum c_i puts 0 in conv(points) + L;
    * conversely, if every -p_j lies in cone(points) + L, so does their sum.

    That is the one-block case of `ri_meets_range`, every coordinate
    moving and L the range of w -> sum_k w_k d_k.
    """
    if not points:
        raise StructuralError("cone_is_subspace needs at least one point")
    dim = len(points[0])
    for p in (*points, *lineality):
        if len(p) != dim:
            raise StructuralError("points of mixed dimensions")
    link = None
    if lineality:
        link = AffineMap.from_rows(zip(*lineality), in_dim=len(lineality))
    return ri_meets_range([PointColumns(points, dim)], dim, link)


def cone_union_is_subspace(points: Sequence[Sequence],
                           lineality: Sequence[Sequence] = ()) -> tuple[bool, Subspace | None]:
    """(True, span(points and lineality)) when `cone_is_subspace` holds,
    else (False, None)."""
    if not cone_is_subspace(points, lineality):
        return False, None
    pts = list(dict.fromkeys(vec(p) for p in points))
    return True, Subspace.from_spanning(pts + [vec(d) for d in lineality], len(pts[0]))


def vec_neg(a: Sequence) -> Vec:
    return tuple(-frac(x) for x in a)


def minimal_vertices(points: Sequence[Sequence]) -> list[Vec]:
    """Drop duplicates and points expressible as convex combinations of the rest."""
    pts = []
    for p in points:
        q = vec(p)
        if q not in pts:
            pts.append(q)
    keep: list[Vec] = []
    for i, p in enumerate(pts):
        others = tuple(q for j, q in enumerate(pts) if j != i)
        if not others or not polytope_contains(Polytope(len(p), others), p):
            keep.append(p)
    return keep
