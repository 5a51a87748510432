"""Exact, LP-free second opinion on the duality verifier.

Nothing in this module builds a linear program.  Both sides of every
verified query are re-derived as the optimum of an explicit polyhedron,
found by exact integer double description (Motzkin et al. 1953; Fukuda
and Prodon 1996): the set {x : <a, x> <= r} homogenises to a cone whose
rays with a positive last coordinate are its vertices, and whose other
generators are its recession directions.  Sample-form functions enter
through their lower hulls (`LowerHull`), piece-form functions and the
dual's max groups through one epigraph row per piece.  The left side
runs over the primal variables plus one epigraph variable per term, the
right side over the covector plus one per dual group, and the LP answers
must match these optima exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .convexfn import AffineFunctional, H_FORM, PolyhedralFunction, V_FORM
from .duality import DualityScenario, quad_fiber_maps, verify
from .geometry import AffineMap
from .numerics import (
    NEG_INF,
    POS_INF,
    Ext,
    PreconditionError,
    StructuralError,
    Vec,
    dot,
    vec,
)

FIBER_KINDS = ("trivariate", "sublevel", "quadrivariate")


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the former probe grids, kept as a validated argument.

    `crosscheck_scenario` still accepts one, but the exact oracle has no
    resolution and ignores it.
    """

    resolution: int

    def __post_init__(self):
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise StructuralError("grid resolution must be a positive integer")


@dataclass(frozen=True)
class OracleResult:
    """One exact optimum: value with the LP's sign, argmax when finite.

    The oracle always reaches a verdict, so conclusive is always True.
    """

    value: Ext
    conclusive: bool
    argmax: Optional[Vec] = None


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(v: Sequence[int]) -> tuple:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _scaled(coeffs: Sequence[Fraction]) -> tuple:
    """(row, scale): a rational row times the lcm of its denominators."""
    scale = lcm(*[c.denominator for c in coeffs])
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs), scale


def _integer_row(coeffs: Sequence[Fraction]) -> tuple:
    """A rational row scaled by the lcm of its denominators."""
    return _scaled(coeffs)[0]


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

    def epigraph(self) -> list:
        """Triples (a, b, t): the envelope at y is at most s exactly when
        <a, y> + b <= t s for each; walls and equalities carry t = 0."""
        return (
            [(r[:-1], r[-1], t) for r, t in self.pieces]
            + [(w[:-1], w[-1], 0) for w in self.walls]
            + [(e[:-1], e[-1], 0) for e in self.equalities]
            + [(tuple(-c for c in e[:-1]), -e[-1], 0) for e in self.equalities]
        )


def envelope_value(f: PolyhedralFunction, point: Sequence) -> Ext:
    """Exact convex-envelope value at a point, +inf off the sample hull.

    Builds the function's `LowerHull` and evaluates it once; callers with
    many points build the hull themselves and reuse it.
    """
    return LowerHull(f)(vec(point))


def _polyhedron_max(objective: Sequence, constant, rows: Sequence, n: int) -> tuple:
    """(sup, argmax) of <objective, x> + constant over {x : <a, x> <= r}.

    rows are (a, r) pairs of rationals over Q^n; a may omit trailing
    zeros.  The set homogenises to the cone {(x, s) : <a, x> - r s <= 0,
    -s <= 0}, whose rays with s > 0 are its vertices x / s modulo the
    lineality.  No such ray means the set is empty (-inf); a lineality
    vector or an s = 0 ray that raises the objective means +inf; otherwise
    the best vertex attains the sup.
    """
    cone = [(0,) * n + (-1,)] + [
        _integer_row(tuple(a) + (0,) * (n - len(a)) + (-r,)) for a, r in rows
    ]
    lineality, rays = double_description(cone, n + 1)
    scale = lcm(*(q.denominator for q in objective))
    c = _integer_row(tuple(objective) + (0,))
    best, vertex = None, None
    for ray in rays:
        num = _dot(c, ray)
        if ray[-1] and (best is None or num * vertex[-1] > best * ray[-1]):
            best, vertex = num, ray
    if vertex is None:
        return NEG_INF, None
    if any(_dot(c, v) for v in lineality) or any(
        _dot(c, r) > 0 for r in rays if not r[-1]
    ):
        return POS_INF, None
    point = tuple(Fraction(x, vertex[-1]) for x in vertex[:-1])
    return Fraction(best, vertex[-1] * scale) + constant, point


def _epigraph(f) -> list:
    """Triples (a, b, t) with f(y) <= s exactly when <a, y> + b <= t s for each."""
    if isinstance(f, LowerHull):
        return f.epigraph()
    if f.form == V_FORM:
        return LowerHull(f).epigraph()
    triples = []
    for a, c in f.pieces:
        row, scale = _scaled(a + (c,))
        triples.append((row[:-1], row[-1], scale))
    return triples


def exact_sup(phi: AffineFunctional, terms: Sequence, fibers: Sequence = ()) -> OracleResult:
    """Exact sup of phi(z) - sum of f_k(M_k z) over {z : B z = 0, each B}.

    Each term is (f, M) with f a `PolyhedralFunction` or a `LowerHull`
    and M an `AffineMap` on z; each fiber is an `AffineMap` on z.  The
    polyhedron runs over z and one epigraph variable s_k per term, with
    the rows of <a, M_k z> + b <= t s_k for f_k's epigraph triples and
    two opposite rows per row of each fiber map.  The sup is -inf on an
    empty polyhedron and +inf along an improving recession direction.
    """
    d, k = phi.dim, len(terms)
    n = d + k
    rows = []
    for b_map in fibers:
        for row, off in zip(b_map.linear, b_map.offset):
            rows += [(row, -off), (tuple(-c for c in row), off)]
    for slot, (f, m) in enumerate(terms, start=d):
        if m.in_dim != d or m.out_dim != f.dim:
            raise StructuralError("term map does not fit the variables and the function")
        # m z == (L z + o) / den with integer L and o: each epigraph row,
        # times den, is integral
        flat, den = _scaled([c for row in m.linear for c in row] + list(m.offset))
        columns = [flat[j:d * f.dim:d] for j in range(d)]
        offset = flat[d * f.dim:]
        for a, b, t in _epigraph(f):
            coeffs = [_dot(a, col) for col in columns] + [0] * k
            coeffs[slot] = -t * den
            rows.append((coeffs, -(_dot(a, offset) + b * den)))
    value, x = _polyhedron_max(phi.coeffs + (-1,) * k, phi.constant, rows, n)
    return OracleResult(value, True, None if x is None else x[:d])


def _fiber_maps(s: DualityScenario) -> tuple:
    """(A, B) of a fiber kind: the query acts on A z over {B z = 0}."""
    if s.kind == "quadrivariate":
        return quad_fiber_maps(s.c_map, s.d_map, s.dims)
    a_map = s.a_map if s.kind == "trivariate" else AffineMap.zero_map(s.psi.dim)
    return a_map, s.b_map


def _embed(n: int, *blocks) -> tuple:
    """A row of length n holding each (start, coefficients) block."""
    row = [Fraction(0)] * n
    for start, coeffs in blocks:
        row[start:start + len(coeffs)] = coeffs
    return tuple(row)


def _g_map(c_map: AffineMap, n: int, u: int) -> AffineMap:
    """z -> (C w, u) for z of length n holding w first and u last: the
    argument of g in the coupled kinds."""
    rows = [_embed(n, (0, row)) for row in c_map.linear]
    rows += [_embed(n, (n - u + k, (1,))) for k in range(u)]
    return AffineMap(tuple(rows), tuple(c_map.offset) + (Fraction(0),) * u, n)


def _left_side(s: DualityScenario, query: AffineFunctional) -> tuple:
    """(phi, terms, fibers) with the left side equal to `exact_sup` of them."""
    if s.kind in FIBER_KINDS:
        a_map, b_map = _fiber_maps(s)
        return query.compose(a_map), [(s.psi, AffineMap.identity(s.psi.dim))], [b_map]
    if s.kind == "fenchel":
        return query, [(s.f, AffineMap.identity(s.f.dim)), (s.g, s.c_map)], []
    u, v, w, x = s.dims
    if s.kind == "indicator_linear":
        # z = (w, u), w free: <w', w> + <v', D u> + q0 - g(C w, u)
        v_part = AffineFunctional(query.coeffs[w:], query.constant).compose(s.d_map)
        phi = AffineFunctional(query.coeffs[:w] + v_part.coeffs, v_part.constant)
        return phi, [(s.g, _g_map(s.c_map, w + u, u))], []
    # z = (w, v, u): q(w, v) - f(w, v - D u) - g(C w, u)
    n = w + v + u
    f_rows = [_embed(n, (j, (1,))) for j in range(w)] + [
        _embed(n, (w + r, (1,)), (w + v, tuple(-c for c in row)))
        for r, row in enumerate(s.d_map.linear)
    ]
    f_map = AffineMap(
        tuple(f_rows), (Fraction(0),) * w + tuple(-o for o in s.d_map.offset), n
    )
    phi = AffineFunctional(query.coeffs + (Fraction(0),) * u, query.constant)
    return phi, [(s.f, f_map), (s.g, _g_map(s.c_map, n, u))], []


def dual_groups(s: DualityScenario, query: AffineFunctional):
    """Hand-evaluable description of a scenario's dual objective.

    Returns (groups, constant, constraint).  Each group is either
    ("max", ((beta, c), ...)), contributing max of c + <x*, beta>, or
    ("envelope", hull), contributing a sample-form function's envelope at
    x* through its `LowerHull`; the objective is the sum of group
    contributions plus the constant.  The constraint, when present, is
    (rows, rhs) with rows x* = rhs required for dual feasibility.
    """
    if s.kind in FIBER_KINDS:
        a_map, b_map = _fiber_maps(s)
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
    if s.kind in ("bibivariate", "partial_infconv", "indicator_linear"):
        u, v, w, x = s.dims
        g_pairs = tuple(
            (q[:x], dot(query.coeffs[w:], s.d_map(q[x:])) - b) for q, b in s.g.samples
        )
        if s.kind == "indicator_linear":
            rows = [[s.c_map.linear[c][j] for c in range(x)] for j in range(w)]
            return (("max", g_pairs),), query.constant, (rows, query.coeffs[:w])
        f_pairs = tuple(
            (tuple(-c for c in s.c_map(pt[:w])), query(pt) - a)
            for pt, a in s.f.samples
        )
        return (("max", f_pairs), ("max", g_pairs)), Fraction(0), None
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


def _dual_min(groups, constant: Fraction, constraint) -> Ext:
    """Exact minimum of the dual objective, as minus an `exact_sup`."""
    fns = [
        data if tag == "envelope"
        else PolyhedralFunction(len(data[0][0]), H_FORM, data)
        for tag, data in groups
    ]
    dim = fns[0].dim
    fibers = []
    if constraint is not None:
        rows, rhs = constraint
        fibers.append(AffineMap(tuple(map(tuple, rows)), tuple(-r for r in rhs), dim))
    identity = AffineMap.identity(dim)
    sup = exact_sup(AffineFunctional.zero(dim), [(f, identity) for f in fns], fibers)
    return constant - sup.value


def _constraint_holds(constraint, xstar: Vec) -> bool:
    if constraint is None:
        return True
    rows, rhs = constraint
    return all(dot(row, xstar) == rhs[j] for j, row in enumerate(rows))


def _ray_drops(groups, constraint, ray: Vec) -> bool:
    """Whether the dual objective falls without bound along the ray.

    A max group's asymptotic slope is its largest slope; an envelope
    group has a compact domain, so no ray escapes it downward.
    """
    if constraint is not None:
        rows, _ = constraint
        if any(dot(row, ray) != 0 for row in rows):
            return False
    slope = Fraction(0)
    for tag, data in groups:
        if tag != "max":
            return False
        slope += max(dot(ray, beta) for beta, _ in data)
    return slope < 0


def _witness_check(groups, constant, constraint, report) -> tuple:
    """(ok, notes): the LP's dual certificate, re-checked by arithmetic.

    A finite right side must be reproduced at the witness, and -inf must
    fall along the reported ray; +inf has no certificate to re-check.
    """
    rhs = report.rhs
    if rhs is POS_INF:
        return True, ()
    if rhs is NEG_INF:
        ray = report.unbounded_direction
        ok = ray is not None and _ray_drops(groups, constraint, ray)
        return ok, ("unbounded dual checked along the reported ray",)
    if report.witness is None:
        return False, ("finite dual value without a witness",)
    value = dual_objective_value(groups, constant, report.witness)
    ok = value == rhs and _constraint_holds(constraint, report.witness)
    return ok, ()


@dataclass(frozen=True)
class CrosscheckReport:
    """Exact-oracle verdict for one verified query.

    lhs_oracle is the oracle's left side (`exact_sup`), with the LP's
    sign.  lhs_ok and rhs_ok: the oracle's left and right sides equal the
    LP's exactly, infinities included.  witness_ok: the dual objective
    recomputed at the LP witness reproduces the right side, or falls along
    the LP's unbounded ray.
    """

    kind: str
    query: AffineFunctional
    lhs_lp: Ext
    rhs_lp: Ext
    lhs_oracle: OracleResult
    lhs_ok: bool
    witness_ok: bool
    rhs_ok: bool
    ok: bool
    notes: tuple = ()


def crosscheck_scenario(
    s: DualityScenario,
    spec: Optional[GridSpec] = None,
    reports: Optional[Sequence] = None,
) -> list:
    """Replay each verified query of a scenario against the exact oracle.

    Both sides are recomputed as polyhedral optima by double description
    and compared with the LP's; the LP's dual witness or ray is re-checked
    by direct arithmetic.  reports, when given, are verify(s)'s reports,
    which are then not computed again.  spec is accepted for compatibility
    and ignored.
    """
    if reports is None:
        reports = verify(s)
    out = []
    for rep in reports:
        lhs_oracle = exact_sup(*_left_side(s, rep.query))
        groups, constant, constraint = dual_groups(s, rep.query)
        rhs_oracle = _dual_min(groups, constant, constraint)
        witness_ok, notes = _witness_check(groups, constant, constraint, rep)
        lhs_ok = lhs_oracle.value == rep.lhs
        rhs_ok = rhs_oracle == rep.rhs
        if not lhs_ok:
            notes += (f"oracle left side is {lhs_oracle.value}",)
        if not rhs_ok:
            notes += (f"oracle right side is {rhs_oracle}",)
        out.append(
            CrosscheckReport(
                kind=s.kind,
                query=rep.query,
                lhs_lp=rep.lhs,
                rhs_lp=rep.rhs,
                lhs_oracle=lhs_oracle,
                lhs_ok=lhs_ok,
                witness_ok=witness_ok,
                rhs_ok=rhs_ok,
                ok=lhs_ok and witness_ok and rhs_ok,
                notes=notes,
            )
        )
    return out
