"""Polyhedral convex functions and exact conjugation.

Two finite encodings are used side by side:

* sample form: finitely many (point, value) pairs; the function is the lower
  convex envelope of the samples and is +inf outside the hull of the points;
* piece form: finitely many (slope, constant) pairs; the function is the
  pointwise max of the affine pieces and is finite everywhere.

Conjugation swaps the two encodings by negating the attached scalars, with no
arithmetic beyond sign flips.  Evaluation of a sample-form function is a small
LP whose dual row multipliers give a supporting affine minorant, hence a
subgradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

from . import numerics
from .geometry import AffineMap, Polytope
from .numerics import (
    EQ,
    GE,
    POS_INF,
    NEG_INF,
    Ext,
    LpBuilder,
    PointColumns,
    StructuralError,
    Vec,
    _coordinate_row,
    _int_image,
    dot,
    frac,
    vec,
    zero_vec,
)

V_FORM = "samples"
H_FORM = "pieces"


@dataclass(frozen=True)
class AffineFunctional:
    """x -> <coeffs, x> + constant."""

    coeffs: Vec
    constant: Fraction

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __call__(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise StructuralError(
                f"affine functional on dimension {self.dim} applied to point of length {len(x)}"
            )
        return dot(self.coeffs, x) + self.constant

    def compose(self, m: AffineMap) -> "AffineFunctional":
        """self after m, again affine."""
        if m.out_dim != self.dim:
            raise StructuralError(
                f"cannot compose functional on dimension {self.dim} with map into dimension {m.out_dim}"
            )
        coeffs = tuple(dot(self.coeffs, col) for col in m.columns())
        return AffineFunctional(coeffs, dot(self.coeffs, m.offset) + self.constant)

    @staticmethod
    def of(coeffs: Sequence, constant=0) -> "AffineFunctional":
        return AffineFunctional(vec(coeffs), frac(constant))


@dataclass(frozen=True)
class SublinearFunctional:
    """x -> max over generators g of <g, x>; positively homogeneous."""

    generators: tuple[Vec, ...]

    def __post_init__(self):
        if not self.generators:
            raise StructuralError("a sublinear functional needs at least one generator")
        d = len(self.generators[0])
        for g in self.generators:
            if len(g) != d:
                raise StructuralError("generators of mixed dimensions")

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    def __call__(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise StructuralError("dimension mismatch in sublinear evaluation")
        return max(dot(g, x) for g in self.generators)

    @staticmethod
    def of(generators: Sequence[Sequence]) -> "SublinearFunctional":
        return SublinearFunctional(tuple(vec(g) for g in generators))

    def as_h_form(self) -> "PolyhedralFunction":
        return PolyhedralFunction.h_form(self.dim,
                                         [(g, Fraction(0)) for g in self.generators])

    def generator_hull(self) -> Polytope:
        return Polytope(self.dim, self.generators)


@dataclass(frozen=True)
class PolyhedralFunction:
    """A polyhedral convex function in sample form or piece form.

    data holds (point, scalar) pairs; the meaning of the scalar depends on
    form.  Conjugation negates the scalars and swaps the form tag.
    """

    dim: int
    form: str
    data: tuple[tuple[Vec, Fraction], ...]

    def __post_init__(self):
        if self.form not in (V_FORM, H_FORM):
            raise StructuralError(f"unknown function form {self.form!r}")
        if not self.data:
            raise StructuralError("a polyhedral function needs at least one sample or piece")
        for p, v in self.data:
            if len(p) != self.dim:
                raise StructuralError(
                    f"entry {p} does not match function dimension {self.dim}"
                )
            if not isinstance(v, Fraction):
                raise StructuralError("attached scalars must be Fractions")

    @staticmethod
    def v_form(dim: int, samples: Sequence[tuple[Sequence, object]]) -> "PolyhedralFunction":
        return PolyhedralFunction(
            dim, V_FORM, tuple((vec(p), frac(v)) for p, v in samples)
        )

    @staticmethod
    def h_form(dim: int, pieces: Sequence[tuple[Sequence, object]]) -> "PolyhedralFunction":
        return PolyhedralFunction(
            dim, H_FORM, tuple((vec(a), frac(b)) for a, b in pieces)
        )

    @property
    def samples(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self.form != V_FORM:
            raise StructuralError("samples are only available in sample form")
        return self.data

    @property
    def pieces(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self.form != H_FORM:
            raise StructuralError("pieces are only available in piece form")
        return self.data

    @cached_property
    def columns(self) -> PointColumns:
        """The points' integer image for convex weights, made on first use."""
        return PointColumns([p for p, _ in self.data], self.dim)

    @cached_property
    def value_image(self) -> tuple[list[int], int]:
        """The attached scalars' integer image (see `numerics._int_image`),
        the objective of every evaluation LP, made on first use."""
        return _int_image([v for _, v in self.data])

    def domain(self) -> Polytope:
        """Effective domain; only sample-form functions have a bounded one."""
        if self.form != V_FORM:
            raise StructuralError("piece-form functions are finite everywhere")
        return Polytope(self.dim, tuple(p for p, _ in self.data))

    def conjugate(self) -> "PolyhedralFunction":
        other = H_FORM if self.form == V_FORM else V_FORM
        return PolyhedralFunction(self.dim, other,
                                  tuple((p, -v) for p, v in self.data))

    def __call__(self, x: Sequence) -> Ext:
        return evaluate(self, x)


def constant_function(dim: int, value) -> PolyhedralFunction:
    """The constant function in piece form (finite everywhere)."""
    return PolyhedralFunction.h_form(dim, [(zero_vec(dim), frac(value))])


def evaluate(f: PolyhedralFunction, x: Sequence) -> Ext:
    value, _ = eval_with_subgradient(f, x)
    return value


def eval_with_subgradient(f: PolyhedralFunction, x: Sequence) -> tuple[Ext, Vec | None]:
    """Value and one subgradient; (+inf, None) outside the domain."""
    if len(x) != f.dim:
        raise StructuralError(
            f"point of length {len(x)} passed to function on dimension {f.dim}"
        )
    x = vec(x)
    if f.form == H_FORM:
        best = None
        arg = None
        for a, b in f.pieces:
            v = dot(a, x) + b
            if best is None or v > best:
                best, arg = v, a
        return best, arg
    b = LpBuilder()
    b.weights_program(f.columns, x, f.value_image)
    res = b.solve()
    if res.status == "infeasible":
        return POS_INF, None
    if res.status != "optimal":
        raise StructuralError("sample-form evaluation cannot be unbounded")
    # duals in convex_weights' row order: the weight row, then one per
    # coordinate; the coordinate multipliers are the slope of a supporting
    # minorant at x
    sub = res.dual_slice(1, 1 + f.dim)
    return res.value, sub


@dataclass(frozen=True)
class SupResult:
    """Outcome of maximizing an affine functional minus a sum of convex terms."""

    status: str  # "attained" | "unbounded" | "empty"
    value: Ext
    argmax: Vec | None
    ray: Vec | None
    term_weights: tuple[tuple[Fraction, ...] | None, ...]

    def __post_init__(self):
        if self.status not in ("attained", "unbounded", "empty"):
            raise StructuralError(f"unknown sup status {self.status!r}")


def sup_affine_minus_convex(
    phi: AffineFunctional,
    terms: Sequence[tuple[PolyhedralFunction, AffineMap]],
    fibers: Sequence[AffineMap] = (),
) -> SupResult:
    """sup of phi(z) - sum_k Psi_k(M_k z) over {z : B z = 0, each B in
    fibers}, solved as one LP.

    Each fiber row is one equality row on z, ahead of the terms' rows.
    Sample-form terms contribute convex weights matched to M_k z; piece-form
    terms contribute an epigraph variable bounded below by every piece.  The
    LP's objective is phi's linear part, and phi's constant is added to an
    attained value here.  An empty feasible region means every z leaves some
    term at +inf or off a fiber, so the sup over the effective domain is
    -inf; an unbounded sup is +inf.

    Rows reach the builder as integer images: a fiber's from the map's
    `fiber_rows`, a sample-form term's coordinate rows from its function's
    `columns` and its map's `coupling_rows`, each image made once per map or
    function, and the objective as one image over phi's coefficients and the
    terms' `value_image`s.  It is the one-objective case of
    `sups_affine_minus_convex`.
    """
    (res,) = sups_affine_minus_convex((phi,), terms, fibers)
    return res


def sups_affine_minus_convex(
    phis: Sequence[AffineFunctional],
    terms: Sequence[tuple[PolyhedralFunction, AffineMap]],
    fibers: Sequence[AffineMap] = (),
) -> Iterator[SupResult]:
    """`sup_affine_minus_convex(phi, terms, fibers)` for each phi of phis in
    turn, every phi on the same space.

    The rows are the same for every phi, so the LPs are built on them at
    once, as siblings (`LpBuilder.build_siblings`), and the kernel runs
    phase 1 once for all of them.  Each LP is solved when its result is
    asked for, so a caller may solve other LPs in between.
    """
    n = phis[0].dim
    if any(phi.dim != n for phi in phis):
        raise StructuralError("the objectives act on different spaces")
    b = LpBuilder("max")
    zvars = b.block(n)
    for m in fibers:
        if m.in_dim != n:
            raise StructuralError("fiber map does not act on the outer variable space")
        for row in m.fiber_rows:
            b.add_image(*row)
    # the objective by blocks (numerators, denominator, sign): per term a
    # sample-form term's values on its weights or 1 on a piece-form term's
    # epigraph variable, each subtracted, after each phi's linear part over z
    blocks = []
    weight_vars: list[list[int] | None] = []
    for psi, m in terms:
        if m.in_dim != n:
            raise StructuralError("term map does not act on the outer variable space")
        if m.out_dim != psi.dim:
            raise StructuralError("term map lands in the wrong dimension for its function")
        if psi.form == V_FORM:
            # convex weights whose combination equals M z: sum lam_i p_i - L z = offset
            points = psi.columns
            lam = b.block(points.count, lo=0)
            weight_vars.append(lam)
            b.add_image(dict.fromkeys(lam, 1), EQ, 1, 1)
            for (scale, column), (extra, rhs, t) in zip(points.columns, m.coupling_rows):
                b.add_image(*_coordinate_row(scale, column, lam, extra, rhs, t))
            blocks.append((*psi.value_image, -1))
        else:
            s = b.var()
            weight_vars.append([s])
            # s >= <a, M z> + c for each piece (a, c); <a, M z> reads M's
            # columns, made once per term, unless M is the identity
            columns = None if m.is_identity() else m.columns()
            for a, const in psi.pieces:
                slope = a if columns is None else [dot(a, col) for col in columns]
                rhs = const if columns is None else dot(a, m.offset) + const
                # the row's integer image over the lcm of its denominators,
                # made here in the order add would make it
                t = math.lcm(rhs.denominator, *[c.denominator for c in slope if c])
                row = {s: t}
                row.update((zj, -c.numerator * (t // c.denominator))
                           for zj, c in zip(zvars, slope) if c)
                b.add_image(row, GE, rhs.numerator * (t // rhs.denominator), t)
            blocks.append(((1,), 1, -1))
    objectives = []
    for phi in phis:
        phi_blocks = [(*_int_image(phi.coeffs), 1), *blocks]
        scale = math.lcm(*[den for _, den, _ in phi_blocks])
        obj = []
        for nums, den, sign in phi_blocks:
            k = sign * (scale // den)
            obj += [x * k for x in nums]
        objectives.append((obj, scale))
    for phi, lp in zip(phis, b.build_siblings(objectives)):
        res = numerics.lp_solve(lp)
        if res.status == "infeasible":
            yield SupResult("empty", NEG_INF, None, None, tuple(None for _ in terms))
        elif res.status == "unbounded":
            ray = tuple(res.ray[zvars[j]] for j in range(n))
            yield SupResult("unbounded", POS_INF, None, ray, tuple(None for _ in terms))
        else:
            argmax = tuple(res.point[zvars[j]] for j in range(n))
            weights = []
            for (psi, _), block in zip(terms, weight_vars):
                if psi.form == V_FORM:
                    weights.append(tuple(res.point[j] for j in block))
                else:
                    weights.append(None)
            yield SupResult("attained", res.value + phi.constant, argmax, None,
                            tuple(weights))


def fenchel_young_gap(f: PolyhedralFunction, z: Sequence, x: Sequence) -> Ext:
    """f(z) + f*(x) - <x, z>; nonnegative, and 0 exactly on subgradient pairs."""
    fz = evaluate(f, z)
    fx = evaluate(f.conjugate(), x)
    if fz == POS_INF or fx == POS_INF:
        return POS_INF
    return fz + fx - dot(vec(x), vec(z))
