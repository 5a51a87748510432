"""Exact interiority tests for affine images of sublevel sets.

The central question: given a sample-form convex function Phi, an affine map
B into a direction space, and a level gamma, does 0 lie in the relative
interior of B({Phi < gamma})?  Everything reduces to small LPs over simplex
weights, so every answer is exact.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import numerics
from .convexfn import PolyhedralFunction, V_FORM, evaluate
from .geometry import (
    AffineMap,
    Subspace,
    cone_union_is_subspace,
    polytope_contains,
    vec_neg,
)
from .numerics import (
    EQ,
    LE,
    POS_INF,
    Ext,
    LpBuilder,
    PointColumns,
    PreconditionError,
    StructuralError,
    Vec,
    _coordinate_row,
    frac,
    vec,
    vec_text,
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
    sample values at most level.  A direction d reaches the largest r >= 0
    with target + r*d in the hull, or 0 where there is none; the result is
    the minimum over the directions, since each has its own weights, and a
    zero minimum exits early.

    d and a -d listed right after it are decided by one row set:
    sum_i lam_i images_i - s*d = target over convex weights lam (and the
    value row), with the step s free.  Those rows hold exactly where
    target + s*d is reached, and since the hull is convex, the steps that
    hold form one segment [s_min, s_max] of the line, empty where the rows
    are infeasible.  The program of d alone, max r subject to the same rows
    with r >= 0 in place of s, is that segment cut at s >= 0, so d reaches
    max(0, s_max); likewise -d reaches max(0, -s_min), and both reach 0
    where the rows are infeasible.  s_max and -s_min are the optima of the
    objectives +s and -s, two LPs on the same rows that the kernel solves as
    siblings, sharing phase 1 (`LpBuilder.build_siblings`); the -s one is
    solved only while the minimum is still positive.  A lone direction is
    one LP, with the objective +s.  The images' integer image is made once,
    for every direction.
    """
    if not directions:
        raise StructuralError("reach needs at least one direction")
    points = PointColumns(images, len(target))
    best = None
    k = 0
    while k < len(directions):
        d = directions[k]
        paired = k + 1 < len(directions) and directions[k + 1] == vec_neg(d)
        k += 1 + paired
        b = LpBuilder("max")
        s = b.var()
        # the first len(d) rows move by s*d; the rows after them stay on their fiber
        step = [{s: -dc} for dc in d] + [{}] * (len(target) - len(d))
        lam = b.convex_weights(points, target, step)
        if value_row is not None:
            values, level = value_row
            b.add({lam[i]: values[i] for i in range(len(values))}, LE, level)
        rest = [0] * len(lam)
        signs = (1, -1) if paired else (1,)
        for lp in b.build_siblings([([sign, *rest], 1) for sign in signs]):
            res = numerics.lp_solve(lp)
            if res.status == "unbounded":
                raise StructuralError("reach LP is bounded over a compact hull")
            value = res.value if res.status == "optimal" and res.value > 0 else Fraction(0)
            if best is None or value < best:
                best = value
            if best == 0:
                return best
    return best


def _interior(points: Sequence[Vec], target: Vec, k: int) -> bool:
    """Whether target's first k coordinates are interior, within Q^k, to
    conv(points) cut to the slice where the other coordinates equal target's.

    For k >= 1 that is a positive reach along every +-e_i: target + r e_i and
    target - r e_i both in the slice put their midpoint, target, in it too,
    so no separate membership LP is needed.  For k = 0 it is membership
    alone, and the caller's target must lie in the hull, so it holds with
    no LP.  The one caller's does: `boundedness_condition` asks only at the
    target of a fiber LP it has solved.
    """
    if k == 0:
        return True
    return _direction_reach(points, target, _basis_directions(Subspace.full(k))) > 0


def interior_through_domain(blocks: Sequence[PointColumns], k: int,
                            link: Optional[AffineMap] = None) -> bool:
    """Whether, for some key a, a target t is interior within Q^k to the
    slice {b : (b, a) in D}, with t = 0, or t anywhere in range(link).

    D is the sum P_1 + ... + P_m of the blocks' hulls in Q^k x Q^n, each
    block given by its points' `PointColumns` of dimension k + n: the first
    k coordinates b move, the last n are the key a.  link, when given, is a
    linear map into Q^k.  The answer is one integer rank test and at most
    one LP, which are the two parts of this lemma, with T = range(link), or
    T = {0}:

        some (t, a) in D with t in T has t in int {b : (b, a) in D}
        if and only if
        [some (t, a) in ri D has t in T] and [Q^k x {0} lies in lin aff D].

    (<=) ri D is open in aff D, so some ball around (t, a) within aff D
    lies in D; aff D holds (t, a) + Q^k x {0}, the line set of the slice,
    so the ball's part in it is a neighbourhood of t in the slice.  (=>) The slice holds
    t +- r e_i for some r > 0, and the differences 2r e_i x {0} of those
    points of D span Q^k x {0}.  Take any (b1, a1) in ri D, and for
    0 < s < 1 the point y = (t + s (t - b1) / (1 - s), a), which lies in D
    once s is small.  The point (1 - s) y + s (b1, a1) is (t, a') for some
    a', and it lies in ri D, since a segment from a point of D to a point
    of ri D lies in ri D past its first end (Rockafellar, Convex Analysis,
    Thm 6.1).

    The first part is an LP.  ri conv{v_i} is the set of sums
    sum_i lam_i v_i with every lam_i > 0 and sum_i lam_i = 1, and
    ri (C1 + C2) = ri C1 + ri C2 (Thm 6.6 and Cor. 6.6.2).  So some (t, a)
    of ri D has t in T exactly when the LP "maximize eps over eps >= 0,
    rho >= 0 and a free w, subject to, per block j of n_j points,
    sum_i rho_ji + n_j eps = 1, and in each moving coordinate
    sum_j sum_i (eps + rho_ji) b_ji = link(w)" has an optimum above 0:
    lam_ji = eps + rho_ji are strictly positive convex weights per block,
    and conversely such weights give eps = min lam.  It is one weight row
    per block, all sharing eps, and k rows: no bigger than one reach LP.
    Its optimum is at most 1 / n_j, and it is infeasible where T misses
    the b-part of D.

    The second part is a rank count.  lin aff D is the span of every
    block's differences v_i - v_0, and Q^k x {0} lies in it exactly when
    its dimension drops by k on dropping the b-part.  Each point v of block
    j gives the integer row (e_j, a, b), e_j the block's unit vector and
    each coordinate scaled by one factor for all blocks, the lcm of the
    blocks' `PointColumns` scales there (`PointColumns.joined`).  That
    scales each column of one matrix, which changes no rank; a scale per
    block would not, and could put a direction in the rows' span that
    lin aff D lacks.  These rows span m + dim lin aff D dimensions, and
    their (e_j, a) parts m + the dimension of the key parts.  An echelon basis of the rows
    has its lead entries in the same columns as any other, and those in the
    first p columns count the rank of the rows' first p entries, so the
    condition is that each of the last k columns is a lead: the rank test
    of `_moving_columns_lead`.  It runs first, and the LP only where it
    holds.  At k = 0 both parts hold with no work.

    The LP's variables are w, then each block's rho in block order, then
    eps.  At an optimum above 0, sum_j sum_i (eps + rho_ji) v_ji is a point
    of ri D whose b-part lies in T.
    """
    if k == 0:
        return True
    joined = PointColumns.joined(blocks)
    if not _moving_columns_lead([pc.count for pc in blocks], joined, k):
        return False
    b = LpBuilder("max")
    # w first, so that link's coupling rows name its variables
    b.block(0 if link is None else link.in_dim)
    rhos = [b.block(pc.count, lo=0) for pc in blocks]
    eps = b.var(lo=0)
    for rho in rhos:
        row = dict.fromkeys(rho, 1)
        row[eps] = len(rho)
        b.add_image(row, EQ, 1, 1)
    # per moving coordinate, the joined column with eps's coefficient, the
    # column's sum, last, and link's terms -link(w) over their own scale
    lam = range(eps - joined.count, eps + 1)
    couplings = [({}, 0, 1)] * k if link is None else link.coupling_rows
    for (scale, column), (extra, rhs, t) in zip(joined.columns, couplings):
        b.add_image(*_coordinate_row(scale, column + (sum(column),), lam, extra, rhs, t))
    (lp,) = b.build_siblings([([0] * eps + [1], 1)])
    res = numerics.lp_solve(lp)
    return res.status == "optimal" and res.value > 0


def _moving_columns_lead(counts: Sequence[int], joined: PointColumns, k: int) -> bool:
    """Whether each of the last k columns is a lead column of an echelon
    basis of the rows (e_j, a, b) of `interior_through_domain`, made from
    the blocks' joined integer columns, block j the next counts[j] points.

    The basis is kept by lead column.  A row is scanned left to right: a
    nonzero entry in a column that leads a basis row is cleared by that
    row, which is zero before its lead, and at the first nonzero entry in
    a column that leads none, the row, divided by its entries' gcd, joins
    the basis with that lead.  The leads are the pivot columns of the
    rows' echelon form so far, and no basis row is ever dropped, so the
    test stops once every moving column leads.
    """
    m = len(counts)
    columns = [column for _, column in joined.columns]
    width = m + len(columns)
    first = width - k
    points = zip(*columns[k:], *columns[:k])
    basis = {}
    for j, count in enumerate(counts):
        head = [0] * m
        head[j] = 1
        for point in itertools.islice(points, count):
            row = [*head, *point]
            for c in range(width):
                x = row[c]
                if not x:
                    continue
                lead = basis.get(c)
                if lead is None:
                    g = math.gcd(*row)
                    basis[c] = [v // g for v in row] if g > 1 else row
                    if all(col in basis for col in range(first, width)):
                        return True
                    break
                y = lead[c]
                row = [y * u - x * v for u, v in zip(row, lead)]
    return False


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
    if psi.form != V_FORM:
        raise StructuralError("the boundedness test needs a sample-form function")
    if a_map.in_dim != psi.dim or b_map.in_dim != psi.dim:
        raise StructuralError("fiber and direction maps must act on the function's space")
    z0 = vec(z0)
    if not polytope_contains(psi.domain(), z0):
        raise PreconditionError(f"base point {vec_text(z0)} lies outside the domain")
    stacked = [b_map(p) + a_map(p) for p, _ in psi.samples]
    target = (Fraction(0),) * b_map.out_dim + a_map(z0)
    m, _ = _fiber_lp([v for _, v in psi.samples], stacked, target)
    return (m != POS_INF and m < frac(delta)
            and _interior(stacked, target, b_map.out_dim))


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
            raise PreconditionError(f"probe {vec_text(probe)} has the wrong dimension")
        if not q.y.contains(probe):
            raise PreconditionError(f"probe {vec_text(probe)} lies outside the direction span")
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
