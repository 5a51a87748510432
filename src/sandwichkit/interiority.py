"""Exact interiority tests for affine images of sublevel sets.

The central question: given a sample-form convex function Phi, an affine map
B into a direction space, and a level gamma, does 0 lie in the relative
interior of B({Phi < gamma})?  Everything reduces to small LPs over simplex
weights, so every answer is exact.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .convexfn import PolyhedralFunction, V_FORM, evaluate
from .geometry import (
    AffineMap,
    Subspace,
    cone_union_is_subspace,
    polytope_contains,
    vec_neg,
)
from .numerics import (
    LE,
    POS_INF,
    Ext,
    LpBuilder,
    PreconditionError,
    StructuralError,
    Vec,
    frac,
    vec,
)


@dataclass(frozen=True)
class SublevelQuery:
    """A function, a map into the direction space, and a level to test at.

    images holds b_map's image of each sample of phi, in sample order.  y
    is the span of the scaled images of dom(phi) under b_map when those
    images positively span a linear subspace; subspace_ok records whether
    they do.  Most operations require subspace_ok, since the relative
    interior is taken within y.  fiber_value is the infimum of phi over the
    zero-fiber of b_map (+inf when the fiber misses the domain), and
    fiber_weights the optimal convex weights over the samples (None then).
    """

    phi: PolyhedralFunction
    b_map: AffineMap
    gamma: Fraction
    subspace_ok: bool
    y: Optional[Subspace]
    images: tuple[Vec, ...]
    fiber_value: Ext
    fiber_weights: Optional[tuple[Fraction, ...]]

    @staticmethod
    def build(phi: PolyhedralFunction, b_map: AffineMap, gamma=None) -> "SublevelQuery":
        """The query at level gamma; None picks `sublevel_level`'s automatic
        level.  Solves the zero-fiber LP once."""
        if phi.form != V_FORM:
            raise StructuralError("sublevel queries need a sample-form function")
        if b_map.in_dim != phi.dim:
            raise StructuralError("direction map does not act on the function's space")
        images = tuple(b_map(p) for p, _ in phi.samples)
        m, weights = _fiber_lp([v for _, v in phi.samples], images,
                               (Fraction(0),) * b_map.out_dim)
        ok, span = cone_union_is_subspace(images)
        return SublevelQuery(phi, b_map, frac(sublevel_level(gamma, m)), ok, span,
                             images, m, weights)


def sublevel_level(gamma, fiber_value: Ext):
    """gamma, or when it is None the automatic level: one above the fiber
    infimum fiber_value, or 1 when the fiber misses the domain (+inf)."""
    if gamma is not None:
        return gamma
    return Fraction(1) if fiber_value == POS_INF else fiber_value + 1


@dataclass(frozen=True)
class MarginResult:
    holds: bool
    margin: Fraction
    level_used: Fraction


@dataclass(frozen=True)
class Theorem20Result:
    """Three renderings of the same interiority property, computed separately.

    c24: a positive margin exists around 0 inside the image of the strict
    sublevel set.  c25: 0 is in that image.  c26: the infimum of phi over
    the zero-fiber of b_map is below gamma.
    """

    c24: bool
    c25: bool
    c26: bool
    fiber_value: Ext


@dataclass(frozen=True)
class Lemma19aResult:
    """Scaled-image covering report: per probe, the smallest scale that works."""

    ok: bool
    assignments: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Corollary21Result:
    gamma: Fraction
    margin: MarginResult


def _fiber_lp(values: Sequence[Fraction], images: Sequence[Vec], target: Vec):
    """(min of sum lam_i values_i over convex weights with sum lam_i images_i
    = target, the optimal weights), or (+inf, None) when target is not hit."""
    b = LpBuilder()
    lam = b.convex_weights(images, target)
    b.set_objective({lam[i]: values[i] for i in range(len(values))})
    res = b.solve()
    if res.status == "infeasible":
        return POS_INF, None
    if res.status != "optimal":
        raise StructuralError("sample values bound the fiber LP below")
    return res.value, tuple(res.point[j] for j in lam)


def _direction_reach(images: Sequence[Vec], target: Vec, directions: Sequence[Vec],
                     value_row=None) -> Fraction:
    """Largest r so that every target + r*d lies in conv(images), d moving
    only the first len(d) coordinates.

    The further coordinates of images and target (a fiber map's images and
    its target) stay fixed, so the hull is cut to that slice.  value_row,
    when given, is (values, level): the convex weights must also keep the
    sample values at most level.  One small LP per direction; the result is
    the minimum of the per-direction maxima, since each direction has its
    own weights.  A direction whose LP is infeasible reaches 0, and a zero
    minimum exits early.
    """
    if not directions:
        raise StructuralError("reach needs at least one direction")
    best = None
    for d in directions:
        b = LpBuilder("max")
        r = b.var(lo=0)
        # the first len(d) rows reach r*d; the rows after them stay on their fiber
        reach = [{r: -dc} for dc in d] + [{}] * (len(target) - len(d))
        lam = b.convex_weights(images, target, reach)
        if value_row is not None:
            values, level = value_row
            b.add({lam[i]: values[i] for i in range(len(values))}, LE, level)
        b.set_objective({r: 1})
        res = b.solve()
        if res.status == "unbounded":
            raise StructuralError("reach LP is bounded over a compact hull")
        value = res.value if res.status == "optimal" else Fraction(0)
        if best is None or value < best:
            best = value
        if best == 0:
            break
    return best


def _interior(points: Sequence[Vec], target: Vec, k: int) -> bool:
    """Whether target's first k coordinates are interior, within Q^k, to
    conv(points) cut to the slice where the other coordinates equal target's.

    For k >= 1 that is a positive reach along every +-e_i: target + r e_i and
    target - r e_i both in the slice put their midpoint, target, in it too,
    so no separate membership LP is needed.  For k = 0 it is membership
    alone, and the caller's target must lie in the hull, so it holds with
    no LP.  Every caller's does: a stacked sample image, a sample of g, the
    empty point, the target of a solved fiber LP, or a midpoint
    1/2 (F'_i + G'_j) of two lifted factor images, with lift 0 (see
    duality._product_flag).
    """
    if k == 0:
        return True
    return _direction_reach(points, target, _basis_directions(Subspace.full(k))) > 0


def _margin_sweep(values: Sequence[Fraction], images: Sequence[Vec], target: Vec,
                  m: Ext, gamma: Fraction, directions: Sequence[Vec]) -> MarginResult:
    """Decide relative interiority with a margin, by one reach at (gamma + m) / 2.

    values are the sample values of phi; images and target are those the
    fiber LP and every reach LP share (see _direction_reach), and m is that
    fiber LP's optimal value.  Write B for the moving coordinates and P for
    B's image of dom phi cut to the fiber.  At every level l > m the reach
    is positive exactly when 0 is interior to P within the span of the
    directions, which no value decides (see _interior).  A positive reach
    puts every r d in P.  Conversely, take z0 on the fiber
    with B z0 = 0 and phi(z0) = m, and for each direction d a point z_d of
    dom phi on the fiber with B z_d = r d.  For small t > 0 the point
    (1 - t) z0 + t z_d has phi <= (1 - t) m + t max(values) < l, and B maps
    it to t r d; the same mix works on the LP's weights.  So one level in
    (m, gamma) decides every level, and the midpoint is the one used.
    """
    if m == POS_INF or m >= gamma:
        return MarginResult(False, Fraction(0), gamma)
    if not directions:
        # zero-dimensional direction space: membership is all there is
        return MarginResult(True, Fraction(0), gamma)
    level = (gamma + m) / 2
    reach = _direction_reach(images, target, directions, (values, level))
    return MarginResult(reach > 0, reach, level)


def _basis_directions(y: Subspace) -> list:
    dirs = []
    for base in y.basis:
        dirs.append(base)
        dirs.append(vec_neg(base))
    return dirs


def interiority_margin(q: SublevelQuery) -> MarginResult:
    """Decide 0 in relint B({phi < gamma}) and report a witnessing margin.

    The margin is a radius r > 0 such that every +-r*(basis direction of y)
    is reached by b_map from the strict sublevel set; level_used is the
    sublevel height at which that radius was certified.  With trivial y the
    convention is membership only: margin 0 at level gamma.
    """
    if not q.subspace_ok:
        raise PreconditionError(
            "scaled images of the domain do not positively span a subspace; "
            "the relative interior is not defined by this query"
        )
    values = [v for _, v in q.phi.samples]
    zero = (Fraction(0),) * q.b_map.out_dim
    return _margin_sweep(values, q.images, zero, q.fiber_value, q.gamma,
                         _basis_directions(q.y))


def _check_fiber_maps(psi: PolyhedralFunction, a_map: AffineMap, b_map: AffineMap) -> None:
    if psi.form != V_FORM:
        raise StructuralError("the boundedness test needs a sample-form function")
    if a_map.in_dim != psi.dim or b_map.in_dim != psi.dim:
        raise StructuralError("fiber and direction maps must act on the function's space")


def boundedness_condition(psi: PolyhedralFunction, a_map: AffineMap,
                          b_map: AffineMap, z0: Sequence, delta) -> bool:
    """Full-space interiority of B over one fiber of A, below level delta.

    Decides 0 in int B({z : a_map z = a_map z0, psi z < delta}) with the
    interior taken in all of B's target space.  z0 must lie in dom psi.
    It holds exactly when the infimum m of psi over the fiber's part in B's
    zero fiber lies below delta and 0 is interior to P, B's image of dom psi
    cut to the fiber: above m the level does not matter (see _margin_sweep),
    so the interior test reads no values.
    """
    _check_fiber_maps(psi, a_map, b_map)
    z0 = vec(z0)
    if not polytope_contains(psi.domain(), z0):
        raise PreconditionError(f"base point {z0} lies outside the domain")
    stacked = [b_map(p) + a_map(p) for p, _ in psi.samples]
    target = (Fraction(0),) * b_map.out_dim + a_map(z0)
    m, _ = _fiber_lp([v for _, v in psi.samples], stacked, target)
    return (m != POS_INF and m < frac(delta)
            and _interior(stacked, target, b_map.out_dim))


def boundedness_over_samples(psi: PolyhedralFunction, a_map: AffineMap,
                             b_map: AffineMap) -> bool:
    """Whether boundedness_condition holds at some sample of psi as base point,
    at a level above every sample value.

    The samples lie in dom psi by definition, so no domain check is made.
    Such a level exceeds every finite fiber infimum, and a fiber that misses
    B's zero fiber fails the interior test too, so only the value-free
    interior test is left.  The tested fiber depends on z0 only through a_map(z0), so
    each distinct A-image is tested once, in sample order, against the B and
    A images of the samples stacked once.
    """
    _check_fiber_maps(psi, a_map, b_map)
    b_dim = b_map.out_dim
    stacked = [b_map(p) + a_map(p) for p, _ in psi.samples]
    zero = (Fraction(0),) * b_dim
    return any(_interior(stacked, zero + key, b_dim)
               for key in dict.fromkeys(row[b_dim:] for row in stacked))


def theorem20_equivalence(q: SublevelQuery) -> Theorem20Result:
    """Compute the margin, membership, and infimum forms independently.

    c26 reads the fiber LP's optimal value; c25 re-evaluates the fiber LP's
    attaining point through the independent evaluation LP; c24 runs the full
    margin sweep.  All three must agree on every valid query.
    """
    if not q.subspace_ok:
        raise PreconditionError(
            "scaled images of the domain do not positively span a subspace; "
            "the equivalence needs that precondition"
        )
    m = q.fiber_value
    c26 = m != POS_INF and m < q.gamma
    if q.fiber_weights is None:
        c25 = False
    else:
        argmin = tuple(
            sum((w * p[c] for w, (p, _) in zip(q.fiber_weights, q.phi.samples)),
                start=Fraction(0))
            for c in range(q.phi.dim)
        )
        value = evaluate(q.phi, argmin)
        if value != m:
            raise RuntimeError("fiber argmin re-evaluation disagrees; LP kernel is unsound")
        c25 = value < q.gamma
    c24 = interiority_margin(q).holds
    return Theorem20Result(c24, c25, c26, m)


def lemma19a_check(q: SublevelQuery, delta, probes: Sequence[Sequence],
                   i_max: int = 16) -> Lemma19aResult:
    """Cover each probe direction by an integer-scaled sublevel image.

    For probe y the check finds the smallest i <= i_max with y/i in
    B({phi < delta}); the union over i of the i-scaled images should cover
    the whole direction space, so failures carry the uncovered probe.

    One reach LP per probe decides every i.  Let t be the largest r with
    r y = B z for some z with phi(z) <= delta (`_direction_reach` along y,
    value row at delta), m < delta the zero fiber's infimum, attained at z0.
    Every s in [0, t) is covered: with z1 the point that reaches t y, the
    mix (1 - s/t) z0 + (s/t) z1 goes to s y with phi at most
    (1 - s/t) m + (s/t) delta < delta.  No s > t is covered, since s y is
    not reached even at phi <= delta.  So y/i is covered for every i > 1/t
    and for no i < 1/t, and the smallest i is ceil(1/t), except where 1/t
    is an integer n: there one fiber LP at t y decides s = t itself, giving
    n when its infimum lies below delta and n + 1 otherwise.  A zero probe
    is the zero fiber, covered at i = 1 with no LP; t = 0 covers nothing.
    """
    if not q.subspace_ok:
        raise PreconditionError("scaled domain images do not span a subspace")
    delta = frac(delta)
    if q.fiber_value == POS_INF or delta <= q.fiber_value:
        raise PreconditionError("the level must exceed the fiber infimum")
    values = [v for _, v in q.phi.samples]
    zero = (Fraction(0),) * q.b_map.out_dim
    assignments = []
    for raw in probes:
        probe = vec(raw)
        if len(probe) != q.b_map.out_dim:
            raise PreconditionError(f"probe {probe} has the wrong dimension")
        if not q.y.contains(probe):
            raise PreconditionError(f"probe {probe} lies outside the direction span")
        n = 1
        if probe != zero:
            t = _direction_reach(q.images, zero, [probe], (values, delta))
            n = math.ceil(1 / t) if t > 0 else i_max + 1
            if n * t == 1 and n <= i_max:
                value, _ = _fiber_lp(values, q.images, tuple(t * c for c in probe))
                if value >= delta:
                    n += 1
        assignments.append((probe, n if n <= i_max else None))
    return Lemma19aResult(all(i is not None for _, i in assignments), tuple(assignments))


def corollary21_auto(q: SublevelQuery) -> Corollary21Result:
    """Decide interiority at the automatic level fiber-infimum + 1, where it
    always holds; q is built with no gamma, so it is at that level.

    Requires a nonempty zero-fiber and the subspace precondition; with both
    in place the margin sweep must succeed, and a failure is a kernel bug.
    """
    if q.fiber_value == POS_INF:
        raise PreconditionError("the zero-fiber misses the domain; no level works")
    if not q.subspace_ok:
        raise PreconditionError("scaled domain images do not span a subspace")
    res = interiority_margin(q)
    if not res.holds:
        raise RuntimeError("automatic level failed the margin sweep; LP kernel is unsound")
    return Corollary21Result(q.gamma, res)
