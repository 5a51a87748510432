"""Grid brute force for cross-checking the LP engines.

Nothing in this module builds a linear program.  Envelope values come
from each sample-form function's lower hull, built once per search by
exact integer double description and then evaluated as a maximum over
its facet pieces; suprema and fiber infima come from barycentric probe
grids, and dual-side values from direct max-over-samples arithmetic at
the reported witness.  The point is an independent second opinion.  The
probe grids grow with the sample count, and the sample-form slope bound
still interpolates every small sample subset, so large instances stay
slow.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .convexfn import AffineFunctional, PolyhedralFunction, V_FORM
from .duality import (
    DualityScenario,
    bibivariate_to_quadrivariate,
    quad_fiber_maps,
    verify,
)
from .geometry import AffineMap, rref, solve_linear
from .numerics import (
    EXACT,
    NEG_INF,
    POS_INF,
    Ext,
    PreconditionError,
    StructuralError,
    Vec,
    comparison_slack,
    dot,
    exact_point,
    vec,
)


@dataclass(frozen=True)
class GridSpec:
    """Resolution for the barycentric probe grids.

    Resolution n admits every weight vector whose entries share a
    denominator of at most n.  The grids are therefore nested, refined
    answers can only improve, and single-vertex weights appear at every
    resolution, which is what makes vertex optima exact.
    """

    resolution: int

    def __post_init__(self):
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise StructuralError("grid resolution must be a positive integer")

    def gap_bound(self, vertices: Sequence[Vec], slope_total: Fraction) -> Fraction:
        """Worst-case gap between the grid optimum and the true one.

        Rounding barycentric weights over m vertices to the grid moves a
        point by at most 2(m-1)R/n per coordinate, and the objective
        follows at the summed Lipschitz rate.
        """
        m = len(vertices)
        if m <= 1:
            return Fraction(0)
        radius = max(
            max((abs(c) for c in p), default=Fraction(0)) for p in vertices
        )
        return 2 * (m - 1) * radius * slope_total / self.resolution


@dataclass(frozen=True)
class OracleResult:
    """One grid answer; value is None when the probes were inconclusive."""

    value: Optional[Ext]
    conclusive: bool
    resolution: int
    bound: Fraction
    residual: Optional[Fraction] = None
    argmax: Optional[Vec] = None


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(v: Sequence[int]) -> tuple:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _integer_row(coeffs: Sequence[Fraction]) -> tuple:
    """A rational row scaled by the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs)


def _clear(v: tuple, row: Sequence[int], cut: tuple, rc: int) -> tuple:
    """v plus a multiple of cut, on the row's hyperplane; rc is <row, cut>."""
    rv = _dot(row, v)
    if not rv:
        return v
    if rc < 0:
        rc, rv = -rc, -rv
    return _primitive([rc * x - rv * y for x, y in zip(v, cut)])


def double_description(rows: Sequence[Sequence[int]], n: int) -> tuple:
    """Generators of the cone {x in Q^n : <r, x> <= 0 for every row r}.

    Returns (lineality, rays), integer vectors with gcd 1: the cone is the
    span of the lineality vectors plus the conic hull of the rays, and each
    ray is extreme modulo the lineality.  Rows are added one at a time
    (Motzkin et al. 1953; Fukuda and Prodon 1996).  A row that cuts the
    current lineality pivots one cut lineality vector into a ray, after
    clearing the row from the other lineality vectors and from every ray.
    Otherwise the rays the row keeps stay, and each adjacent pair it
    separates contributes the ray on the row's hyperplane between them;
    adjacency is decided combinatorially, from the sets of processed rows
    each ray makes tight.
    """
    lineality = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # (ray, bitmask of the processed rows it makes tight)
    rays: list = []
    for k, row in enumerate(rows):
        bit = 1 << k
        cut = next((v for v in lineality if _dot(row, v)), None)
        if cut is not None:
            rc = _dot(row, cut)
            lineality = [_clear(v, row, cut, rc) for v in lineality if v is not cut]
            # the cut vector was tight on every earlier row
            rays = [(_clear(v, row, cut, rc), tight | bit) for v, tight in rays]
            rays.append((tuple(-y if rc > 0 else y for y in cut), bit - 1))
            continue
        values = [_dot(row, v) for v, _ in rays]
        kept = [
            (v, tight if rv else tight | bit)
            for (v, tight), rv in zip(rays, values)
            if rv <= 0
        ]
        plus = [i for i, rv in enumerate(values) if rv > 0]
        if plus:
            minus = [i for i, rv in enumerate(values) if rv < 0]
            tights = [tight for _, tight in rays]
            # two adjacent rays span a 2-face, tight on rank n - dim L - 2 rows
            need = n - len(lineality) - 2
            for i in plus:
                for j in minus:
                    common = tights[i] & tights[j]
                    if common.bit_count() < need:
                        continue
                    if any(
                        (tz & common) == common and h != i and h != j
                        for h, tz in enumerate(tights)
                    ):
                        continue
                    vi, vj = rays[i][0], rays[j][0]
                    ri, rj = values[i], values[j]
                    kept.append((
                        _primitive([ri * b - rj * a for a, b in zip(vi, vj)]),
                        common | bit,
                    ))
        rays = kept
    return lineality, [v for v, _ in rays]


class LowerHull:
    """The lower convex hull of a sample-form function, built once.

    The affine minorants (a, b) of the samples, <a, p_i> + b <= v_i,
    homogenise to the cone {(a, b, t) : <a, p_i> + b - t v_i <= 0, -t <= 0},
    whose generators come from `double_description`.  Rays with t > 0 are
    the facet pieces, so the envelope at y is the largest <a, y> + b over
    them, divided by t.  Rays with t = 0 are the hull's inequalities and
    lineality vectors its equalities: a point breaking one is off the hull.
    """

    def __init__(self, f: PolyhedralFunction):
        if f.form != V_FORM:
            raise PreconditionError("envelope evaluation needs the sample form")
        self.dim = f.dim
        rows = [(0,) * (f.dim + 1) + (-1,)] + [
            _integer_row(p + (Fraction(1), -v)) for p, v in f.samples
        ]
        lineality, rays = double_description(rows, f.dim + 2)
        self.pieces = [(r[:-1], r[-1]) for r in rays if r[-1] > 0]
        self.walls = [r[:-1] for r in rays if r[-1] == 0]
        self.equalities = [r[:-1] for r in lineality]

    def __call__(self, point: Sequence[Fraction]) -> Ext:
        """Envelope value at a point of Fractions or ints, +inf off the hull."""
        if len(point) != self.dim:
            raise StructuralError("point dimension does not match the function")
        den = lcm(*(c.denominator for c in point))
        y = [c.numerator * (den // c.denominator) for c in point]
        y.append(den)
        if any(_dot(w, y) > 0 for w in self.walls) or any(
            _dot(e, y) for e in self.equalities
        ):
            return POS_INF
        best, best_t = None, 1
        for ab, t in self.pieces:
            num = _dot(ab, y)
            if best is None or num * best_t > best * t:
                best, best_t = num, t
        return Fraction(best, best_t * den)


def envelope_value(f: PolyhedralFunction, point: Sequence) -> Ext:
    """Exact convex-envelope value at a point, +inf off the sample hull.

    Builds the function's `LowerHull` and evaluates it once; callers with
    many points build the hull themselves and reuse it.
    """
    return LowerHull(f)(vec(point))


def _evaluator(f: PolyhedralFunction):
    """Exact evaluation of f at points: its lower hull, or its piece maximum."""
    if f.form == V_FORM:
        return LowerHull(f)
    pieces = f.pieces
    return lambda point: max(dot(a, point) + c for a, c in pieces)


def oracle_eval(f: PolyhedralFunction, point: Sequence) -> Ext:
    """Envelope value for sample forms, exact piece maximum otherwise."""
    return _evaluator(f)(vec(point))


def _affine_trace(f: PolyhedralFunction) -> Optional[AffineFunctional]:
    """The affine function through all samples, when one exists.

    Sample values lying on a single affine graph make the envelope that
    graph restricted to the hull, so its slope is the only one there is.
    """
    if f.form != V_FORM:
        return None
    rows = [list(z) + [Fraction(1)] for z, _ in f.samples]
    sol = solve_linear(rows, [v for _, v in f.samples])
    if sol is None:
        return None
    return AffineFunctional(sol[:-1], sol[-1])


def lipschitz_bound(f: PolyhedralFunction) -> Fraction:
    """Sound slope bound for the function, in the l1 covector norm.

    Piece forms report their steepest piece.  Sample forms interpolate
    every small sample subset through the Gram system of its difference
    vectors; the largest tangential gradient dominates every facet of
    the lower hull, at the price of also counting subsets that span no
    facet.
    """
    if f.form != V_FORM:
        return max(
            (sum(abs(c) for c in a) for a, _ in f.pieces), default=Fraction(0)
        )
    trace = _affine_trace(f)
    if trace is not None:
        return sum((abs(c) for c in trace.coeffs), start=Fraction(0))
    pts = [p for p, _ in f.samples]
    vals = [v for _, v in f.samples]
    best = Fraction(0)
    for size in range(2, f.dim + 2):
        for idx in combinations(range(len(pts)), size):
            base = idx[0]
            diffs = [
                tuple(pts[i][c] - pts[base][c] for c in range(f.dim))
                for i in idx[1:]
            ]
            deltas = [vals[i] - vals[base] for i in idx[1:]]
            gram = [[dot(da, db) for db in diffs] for da in diffs]
            coeffs = solve_linear(gram, deltas)
            if coeffs is None:
                continue
            grad = tuple(
                sum(
                    (coeffs[k] * diffs[k][c] for k in range(len(diffs))),
                    start=Fraction(0),
                )
                for c in range(f.dim)
            )
            slope = sum(abs(g) for g in grad)
            if slope > best:
                best = slope
    return best


def _map_gain(m: AffineMap) -> Fraction:
    """l-inf operator bound of the linear part: largest row l1 norm."""
    return max(
        (sum(abs(v) for v in row) for row in m.linear), default=Fraction(0)
    )


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def weight_grid(count: int, resolution: int) -> list:
    """All barycentric weights over `count` vertices with denominator <= n."""
    if count < 1:
        raise StructuralError("a weight grid needs at least one vertex")
    seen = set()
    out = []
    for k in range(1, resolution + 1):
        for comp in _compositions(k, count):
            lam = tuple(Fraction(c, k) for c in comp)
            if lam not in seen:
                seen.add(lam)
                out.append(lam)
    return out


def _combine(pts: Sequence[Vec], lam: Sequence[Fraction]) -> Vec:
    # at resolution n at most n weights are nonzero
    used = [(w, q) for w, q in zip(lam, pts) if w]
    dim = len(pts[0]) if pts else 0
    return tuple(
        sum((w * q[c] for w, q in used), start=Fraction(0)) for c in range(dim)
    )


def _check_terms(terms: Sequence) -> tuple:
    if not terms:
        raise StructuralError("grid search needs at least one term")
    f0, m0 = terms[0]
    if f0.form != V_FORM:
        raise PreconditionError("grid probes need the first term in sample form")
    if not m0.is_identity():
        raise PreconditionError("the first term must carry the identity map")
    for fk, mk in terms[1:]:
        if mk.in_dim != f0.dim:
            raise StructuralError("term map acts on the wrong space")
        if mk.out_dim != fk.dim:
            raise StructuralError("term map does not land in the function's space")
    return f0, m0


def _slope_total(terms: Sequence) -> Fraction:
    return sum(
        (lipschitz_bound(fk) * _map_gain(mk) for fk, mk in terms),
        start=Fraction(0),
    )


def grid_sup(phi: AffineFunctional, terms: Sequence, spec: GridSpec) -> OracleResult:
    """Grid maximum of phi(z) - sum of f_k(A_k z).

    The first term must carry the identity map; its sample points span
    the probe polytope, so every probe lies in that term's domain by
    construction.  Probes outside another term's domain are skipped, so
    the stated bound covers the true supremum only when near-optimal
    probes survive the skipping; cross-check generators arrange that by
    keeping domain intersections fat.
    """
    f0, _ = _check_terms(terms)
    if phi.dim != f0.dim:
        raise StructuralError("objective dimension does not match the terms")
    pts = [p for p, _ in f0.samples]
    slope_total = sum(abs(c) for c in phi.coeffs) + _slope_total(terms)
    bound = spec.gap_bound(pts, slope_total)
    env0 = LowerHull(f0)
    rest = [(_evaluator(fk), mk) for fk, mk in terms[1:]]
    best: Optional[Fraction] = None
    arg: Optional[Vec] = None
    for lam in weight_grid(len(pts), spec.resolution):
        z = _combine(pts, lam)
        value: Optional[Fraction] = phi(z) - env0(z)
        for evaluate_k, mk in rest:
            term = evaluate_k(mk(z))
            if term == POS_INF:
                value = None
                break
            value -= term
        if value is None:
            continue
        if best is None or value > best:
            best, arg = value, z
    if best is None:
        return OracleResult(None, False, spec.resolution, bound)
    return OracleResult(best, True, spec.resolution, bound, argmax=arg)


def grid_fiber_inf(
    terms: Sequence,
    a_map: AffineMap,
    b_map: AffineMap,
    p: Sequence,
    spec: GridSpec,
) -> OracleResult:
    """Grid minimum of a sum of terms over probes near {A z = p, B z = 0}.

    Probes come from the first term's sample hull and qualify when the
    worst constraint violation stays within 1/resolution; the winner is
    reported together with its own residual.  No qualifying probe means
    an inconclusive answer, never an infinite one.  The stated bound
    charges the allowed slack at the Lipschitz rate, which covers fibers
    reachable by moving coordinates directly; cross-check generators use
    constraint maps of that shape.
    """
    f0, _ = _check_terms(terms)
    n = f0.dim
    if a_map.in_dim != n or b_map.in_dim != n:
        raise StructuralError("fiber maps act on the wrong space")
    p = vec(p)
    if len(p) != a_map.out_dim:
        raise StructuralError("fiber parameter has the wrong dimension")
    pts = [q for q, _ in f0.samples]
    slope_total = _slope_total(terms)
    tol = Fraction(1, spec.resolution)
    bound = spec.gap_bound(pts, slope_total) + slope_total * tol
    env0 = LowerHull(f0)
    rest = [(_evaluator(fk), mk) for fk, mk in terms[1:]]
    best: Optional[Fraction] = None
    best_res: Optional[Fraction] = None
    arg: Optional[Vec] = None
    nearest: Optional[Fraction] = None
    for lam in weight_grid(len(pts), spec.resolution):
        z = _combine(pts, lam)
        az = a_map(z)
        bz = b_map(z)
        residual = max(
            [abs(az[c] - p[c]) for c in range(len(p))]
            + [abs(v) for v in bz]
            + [Fraction(0)]
        )
        if nearest is None or residual < nearest:
            nearest = residual
        if residual > tol:
            continue
        value: Optional[Fraction] = env0(z)
        for evaluate_k, mk in rest:
            term = evaluate_k(mk(z))
            if term == POS_INF:
                value = None
                break
            value += term
        if value is None:
            continue
        if best is None or value < best or (value == best and residual < best_res):
            best, best_res, arg = value, residual, z
    if best is None:
        return OracleResult(None, False, spec.resolution, bound, residual=nearest)
    return OracleResult(
        best, True, spec.resolution, bound, residual=best_res, argmax=arg
    )


def _nullspace(rows: Sequence[Sequence], dim: int) -> list:
    """Basis of {x : rows x = 0}, read off the free columns of the rref."""
    if not rows or dim == 0:
        return [
            tuple(Fraction(1 if c == j else 0) for c in range(dim))
            for j in range(dim)
        ]
    reduced, pivots = rref(rows)
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        direction = [Fraction(0)] * dim
        direction[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            direction[pc] = -reduced[r][free]
        basis.append(tuple(direction))
    return basis


def dual_groups(s: DualityScenario, query: AffineFunctional):
    """Hand-evaluable description of a scenario's dual objective.

    Returns (groups, constant, constraint).  Each group is either
    ("max", ((beta, c), ...)), contributing max of c + <x*, beta>, or
    ("envelope", hull), contributing a sample-form function's envelope at
    x* through its `LowerHull`, built here once for all probes; the
    objective is the sum of group contributions plus the constant.  The
    constraint, when present, is (rows, rhs) with rows x* = rhs required
    for dual feasibility.  Mirrors the dual LPs row for row.
    """
    if s.kind in ("trivariate", "sublevel", "quadrivariate"):
        if s.kind == "quadrivariate":
            a_map, b_map = quad_fiber_maps(s.c_map, s.d_map, s.dims)
        else:
            a_map = (
                s.a_map
                if s.kind == "trivariate"
                else AffineMap.zero_map(s.psi.dim)
            )
            b_map = s.b_map
        pairs = tuple(
            (b_map(z), query(a_map(z)) - v) for z, v in s.psi.samples
        )
        return (("max", pairs),), Fraction(0), None
    if s.kind == "fenchel":
        f_pairs = tuple(
            (tuple(-c for c in s.c_map(pt)), query(pt) - v)
            for pt, v in s.f.samples
        )
        if s.g.form == V_FORM:
            g_group = ("max", tuple((q, -w) for q, w in s.g.samples))
        else:
            conj = PolyhedralFunction.v_form(
                s.g.dim, [(a, -c) for a, c in s.g.pieces]
            )
            g_group = ("envelope", LowerHull(conj))
        return (("max", f_pairs), g_group), Fraction(0), None
    if s.kind in ("bibivariate", "partial_infconv"):
        u, v, w, x = s.dims
        v_cov = query.coeffs[w:]
        f_pairs = tuple(
            (tuple(-c for c in s.c_map(pt[:w])), query(pt) - a)
            for pt, a in s.f.samples
        )
        g_pairs = tuple(
            (q[:x], dot(v_cov, s.d_map(q[x:])) - b) for q, b in s.g.samples
        )
        return (("max", f_pairs), ("max", g_pairs)), Fraction(0), None
    if s.kind == "indicator_linear":
        u, v, w, x = s.dims
        w_cov, v_cov = query.coeffs[:w], query.coeffs[w:]
        g_pairs = tuple(
            (q[:x], dot(v_cov, s.d_map(q[x:])) - b) for q, b in s.g.samples
        )
        rows = [
            [s.c_map.linear[c][j] for c in range(x)] for j in range(w)
        ]
        constraint = (rows, w_cov)
        return (("max", g_pairs),), query.constant, constraint
    raise PreconditionError(f"no dual description for kind {s.kind!r}")


def dual_objective_value(groups, constant: Fraction, xstar: Sequence) -> Ext:
    """Evaluate a dual objective description at a covector, by arithmetic."""
    x = vec(xstar)
    total = constant
    for tag, data in groups:
        if tag == "max":
            total += max(c + dot(x, beta) for beta, c in data)
        else:
            part = data(x)
            if part == POS_INF:
                return POS_INF
            total += part
    return total


def _constraint_holds(constraint, xstar: Vec, slack=Fraction(0)) -> bool:
    if constraint is None:
        return True
    rows, rhs = constraint
    return all(abs(dot(row, xstar) - rhs[j]) <= slack for j, row in enumerate(rows))


def _ray_drops(groups, constraint, ray: Vec, slack=Fraction(0)) -> bool:
    """Whether the dual objective falls without bound along the ray.

    A max group's asymptotic slope is its largest slope; an envelope
    group has a compact domain, so no ray escapes it downward.
    """
    if constraint is not None:
        rows, _ = constraint
        if any(abs(dot(row, ray)) > slack for row in rows):
            return False
    slope = Fraction(0)
    for tag, data in groups:
        if tag != "max":
            return False
        slope += max(dot(ray, beta) for beta, _ in data)
    return slope < 0


def _scan_points(witness: Vec, constraint, spec: GridSpec):
    """Covector probes around the witness, inside the dual-feasible slice."""
    dim = len(witness)
    if constraint is None:
        directions = [
            tuple(Fraction(1 if c == j else 0) for c in range(dim))
            for j in range(dim)
        ]
    else:
        directions = _nullspace(constraint[0], dim)
    if not directions:
        yield witness
        return
    n = spec.resolution
    if len(directions) <= 2:
        offsets = [Fraction(j, n) for j in range(-n, n + 1)]
    else:
        offsets = [Fraction(-1), Fraction(0), Fraction(1)]
    for combo in product(offsets, repeat=len(directions)):
        yield tuple(
            witness[c]
            + sum(
                (combo[d] * directions[d][c] for d in range(len(directions))),
                start=Fraction(0),
            )
            for c in range(dim)
        )


@dataclass(frozen=True)
class CrosscheckReport:
    """Grid-oracle verdict for one verified query.

    lhs_ok: the grid answer for the left side agrees within the stated
    bound (or matches an infinite value for the right reason).
    witness_ok: recomputing the dual objective at the LP witness by
    direct arithmetic reproduces the right side exactly, including the
    infinite cases via their certificates.  scan_ok: no covector in a
    local grid box beats the LP optimum.
    """

    kind: str
    query: AffineFunctional
    lhs_lp: Ext
    rhs_lp: Ext
    lhs_oracle: Optional[OracleResult]
    lhs_ok: bool
    witness_ok: bool
    scan_ok: bool
    ok: bool
    notes: tuple = ()


def _refined(run, spec: GridSpec, good):
    """Run a grid search, doubling the resolution up to twice on a miss."""
    result = run(spec)
    n = spec.resolution
    while (not result.conclusive or not good(result)) and n < spec.resolution * 4:
        n *= 2
        result = run(GridSpec(n))
    return result


def _tilted(psi: PolyhedralFunction, phi: AffineFunctional, a_map: AffineMap):
    """Fold phi(A z) into the sample values.

    Envelopes shift exactly under affine tilts, so the folded function's
    envelope is the original one minus the tilt.
    """
    samples = [(z, v - phi(a_map(z))) for z, v in psi.samples]
    return PolyhedralFunction.v_form(psi.dim, samples)


def _fiber_lhs_check(terms, b_map, lhs_lp, spec):
    """Left side of a fiber-form identity, as a negated grid minimum.

    The query tilt must already be folded into the terms, so the left
    side equals minus the constrained minimum of their sum.
    """
    zero_a = AffineMap.zero_map(b_map.in_dim)

    def run(sp):
        return grid_fiber_inf(terms, zero_a, b_map, (), sp)

    def good(result):
        if lhs_lp in (POS_INF, NEG_INF):
            return True
        return abs(lhs_lp + result.value) <= result.bound

    result = _refined(run, spec, good)
    notes = ("left side re-derived as a negated fiber minimum",)
    if lhs_lp is NEG_INF:
        # an empty fiber cannot be certified by finitely many probes;
        # near-misses within tolerance are consistent either way
        return result, True, notes + ("left side -inf; grid cannot refute",)
    if lhs_lp is POS_INF:
        return result, False, notes + ("finite-domain left side reported +inf",)
    if not result.conclusive:
        return result, False, notes + ("no probe reached the fiber tolerance",)
    if result.residual == 0 and -result.value > lhs_lp:
        return result, False, notes + ("an exact-fiber probe beats the LP value",)
    return result, abs(lhs_lp + result.value) <= result.bound, notes


def _sup_lhs_check(phi, terms, lhs_lp, spec):
    """Left side of a sup-form identity, straight from the probe grid."""

    def run(sp):
        return grid_sup(phi, terms, sp)

    def good(result):
        if lhs_lp in (POS_INF, NEG_INF):
            return True
        return lhs_lp - result.value <= result.bound

    result = _refined(run, spec, good)
    if lhs_lp is NEG_INF:
        if result.conclusive:
            return result, False, ("grid found a feasible probe; left side is not -inf",)
        return result, True, ("left side -inf and the grid found no feasible probe",)
    if lhs_lp is POS_INF:
        return result, False, ("compact left side reported +inf",)
    if not result.conclusive:
        return result, False, ("no probe met every term's domain",)
    if result.value > lhs_lp:
        return result, False, ("a grid probe beats the LP supremum",)
    return result, lhs_lp - result.value <= result.bound, ()


def _indicator_lhs_check(s: DualityScenario, query, lhs_lp, spec):
    """Left side of an indicator identity, on the reachable slice of dom g.

    With a preimage x0* of the w-covector, the sup becomes an ordinary
    tilted sup over dom g restricted to {x in range(C)}; that membership
    runs through the orthogonal projection onto the complement, so it
    fits the fiber-grid shape.  No preimage means both sides are +inf.
    """
    u, v, w, x = s.dims
    w_cov, v_cov = query.coeffs[:w], query.coeffs[w:]
    ct_rows = [[s.c_map.linear[c][j] for c in range(x)] for j in range(w)]
    x0 = (Fraction(0),) * x if w == 0 else solve_linear(ct_rows, w_cov)
    if x0 is None:
        result = OracleResult(POS_INF, True, spec.resolution, Fraction(0))
        ok = lhs_lp is POS_INF
        return result, ok, ("w-covector escapes range(C^T); left side must be +inf",)
    u_coeffs = tuple(
        sum(
            (v_cov[r] * s.d_map.linear[r][k] for r in range(v)),
            start=Fraction(0),
        )
        for k in range(u)
    )
    tilt = AffineFunctional(
        tuple(x0) + u_coeffs,
        dot(v_cov, s.d_map.offset) + query.constant,
    )
    folded = _tilted(s.g, tilt, AffineMap.identity(s.g.dim))
    cols = [
        tuple(s.c_map.linear[r][j] for r in range(x)) for j in range(w)
    ]
    proj_rows = []
    for c in range(x):
        e = tuple(Fraction(1 if r == c else 0) for r in range(x))
        gram = [[dot(ca, cb) for cb in cols] for ca in cols]
        rhs = [dot(ca, e) for ca in cols]
        coeffs = solve_linear(gram, rhs) if cols else None
        if coeffs is None:
            shadow = (Fraction(0),) * x
        else:
            shadow = tuple(
                sum(
                    (coeffs[j] * cols[j][r] for j in range(len(cols))),
                    start=Fraction(0),
                )
                for r in range(x)
            )
        proj_rows.append(
            tuple(e[r] - shadow[r] for r in range(x)) + (Fraction(0),) * u
        )
    perp_map = AffineMap(tuple(proj_rows), (Fraction(0),) * x, x + u)
    terms = [(folded, AffineMap.identity(s.g.dim))]
    result, ok, notes = _fiber_lhs_check(terms, perp_map, lhs_lp, spec)
    return result, ok, notes + ("membership in range(C) checked by projection",)


def _selector(total: int, positions: Sequence[int]) -> AffineMap:
    rows = tuple(
        tuple(Fraction(1 if j == p else 0) for j in range(total))
        for p in positions
    )
    return AffineMap(rows, (Fraction(0),) * len(positions), total)


def _lhs_crosscheck(s: DualityScenario, query, lhs_lp, spec: GridSpec):
    if s.kind == "fenchel":
        terms = [(s.f, AffineMap.identity(s.f.dim)), (s.g, s.c_map)]
        return _sup_lhs_check(query, terms, lhs_lp, spec)
    if s.kind in ("trivariate", "sublevel"):
        a_map = (
            s.a_map if s.kind == "trivariate" else AffineMap.zero_map(s.psi.dim)
        )
        terms = [(_tilted(s.psi, query, a_map), AffineMap.identity(s.psi.dim))]
        return _fiber_lhs_check(terms, s.b_map, lhs_lp, spec)
    if s.kind == "quadrivariate":
        a_map, b_map = quad_fiber_maps(s.c_map, s.d_map, s.dims)
        terms = [(_tilted(s.psi, query, a_map), AffineMap.identity(s.psi.dim))]
        return _fiber_lhs_check(terms, b_map, lhs_lp, spec)
    if s.kind in ("bibivariate", "partial_infconv"):
        # factor the product: the carrier holds the grid vertices and the
        # affine query tilt, while f and g stay small on their own blocks,
        # keeping the per-probe enumeration out of the product space
        u, v, w, x = s.dims
        quad = bibivariate_to_quadrivariate(s)
        a_map, b_map = quad_fiber_maps(quad.c_map, quad.d_map, quad.dims)
        total = u + v + w + x
        carrier = PolyhedralFunction.v_form(
            total, [(z, -query(a_map(z))) for z, _ in quad.psi.samples]
        )
        sel_f = _selector(
            total, list(range(u + v, u + v + w)) + list(range(u, u + v))
        )
        sel_g = _selector(
            total, list(range(u + v + w, total)) + list(range(0, u))
        )
        terms = [
            (carrier, AffineMap.identity(total)),
            (s.f, sel_f),
            (s.g, sel_g),
        ]
        result, ok, notes = _fiber_lhs_check(terms, b_map, lhs_lp, spec)
        return result, ok, notes + ("checked through the exact product rewrite",)
    return _indicator_lhs_check(s, query, lhs_lp, spec)


def _rhs_crosscheck(s: DualityScenario, report, spec: GridSpec, slack=Fraction(0)):
    groups, constant, constraint = dual_groups(s, report.query)
    rhs = report.rhs
    if rhs is POS_INF:
        if constraint is None:
            return False, True, ("compact dual reported +inf",)
        ok = solve_linear(*constraint) is None
        return ok, True, ("dual infeasibility checked by linear solve",)
    if rhs is NEG_INF:
        ray = report.unbounded_direction
        ok = ray is not None and _ray_drops(
            groups, constraint, exact_point(ray), slack
        )
        return ok, True, ("unbounded dual checked along the reported ray",)
    if report.witness is None:
        return False, False, ("finite dual value without a witness",)
    # float-mode reports carry binary-float data; the recompute is exact
    # on the rationalized witness and compared within the solve tolerance
    wit = exact_point(report.witness)
    value = dual_objective_value(groups, constant, wit)
    witness_ok = (
        value is not POS_INF
        and abs(value - rhs) <= slack
        and _constraint_holds(constraint, wit, slack)
    )
    scan_ok = all(
        dual_objective_value(groups, constant, pt) >= rhs - slack
        for pt in _scan_points(wit, constraint, spec)
    )
    return witness_ok, scan_ok, ()


def crosscheck_scenario(
    s: DualityScenario,
    spec: Optional[GridSpec] = None,
    mode: str = EXACT,
    tolerance=None,
    reports: Optional[Sequence] = None,
) -> list:
    """Replay each verified query of a scenario against the grid oracle.

    The left side is re-derived on a barycentric probe grid and must
    agree within the stated bound; the right side is recomputed at the
    LP witness by direct arithmetic and defended by a local covector
    scan that must not beat the LP optimum.  Grids that miss refine
    themselves twice before giving up.
    """
    spec = spec or GridSpec(3)
    slack = comparison_slack(mode, tolerance)
    if reports is None:
        reports = verify(s, mode, tolerance)
    out = []
    for rep in reports:
        lhs_oracle, lhs_ok, lhs_notes = _lhs_crosscheck(
            s, rep.query, rep.lhs, spec
        )
        witness_ok, scan_ok, rhs_notes = _rhs_crosscheck(s, rep, spec, slack)
        out.append(
            CrosscheckReport(
                kind=s.kind,
                query=rep.query,
                lhs_lp=rep.lhs,
                rhs_lp=rep.rhs,
                lhs_oracle=lhs_oracle,
                lhs_ok=lhs_ok,
                witness_ok=witness_ok,
                scan_ok=scan_ok,
                ok=lhs_ok and witness_ok and scan_ok,
                notes=tuple(lhs_notes) + tuple(rhs_notes),
            )
        )
    return out
