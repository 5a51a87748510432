"""Exact, LP-free second opinion on the duality verifier.

Nothing in this module builds a linear program.  Each query is decided in
one of two ways, and each record names which one decided it.

Both sides of a query are sups of one shape: the left side is the
`QueryProgram`'s, and the right side is minus the sup of
`QueryProgram.dual`.  So every check below is a check of a sup, written
once: `_objective_at` values a sup's objective at a point, and
`_ray_improves` checks an improving ray.  The pair check applies the first
to both sides.  The witness or ray check of the enumeration path covers
the right side only, since no ray of the left side reaches the report yet.

* By certificate.  `verify` keeps, on each report, the `QueryProgram` it
  solved and the two LPs' points: the maximizer z with each sample-form
  term's convex weights, and the dual covector x* with each sample-form
  group's weights.  Exact arithmetic checks that a point is feasible and
  evaluates its objective there, with the weights' combined values
  standing in for the envelopes.  That gives L <= sup on the left side
  and, on the dual, U >= min, and weak duality (sup <= min, from the
  Fenchel-Young inequality) holds with no hypothesis at all.  So L == U
  proves both sides exactly, and no LP code is trusted.  This is the
  certifying-algorithm pattern (McConnell, Mehlhorn, Naher and Schweitzer
  2011).
* By enumeration.  Whatever the pair does not prove (an infinite side, a
  report without a certificate, a failed check, a mismatch) is solved
  again from the same program by a different algorithm: each side is the
  optimum of an explicit polyhedron, found by exact integer double
  description (Motzkin et al. 1953; Fukuda and Prodon 1996) in
  `exact_sup`.  The set {x : <a, x> <= r} homogenises to a cone whose
  rays with a positive last coordinate are its vertices, and whose other
  generators are its recession directions.  Sample-form functions enter
  through their lower hulls (`LowerHull`), piece-form functions through
  one epigraph row per piece, and each side runs over its variables plus
  one epigraph variable per term.  The LP answers must match these
  optima exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .convexfn import AffineFunctional, PolyhedralFunction, V_FORM
from .duality import (
    Certificate,
    DualityReport,
    DualityScenario,
    QueryProgram,
    query_program,
    verify,
)
from .numerics import (
    NEG_INF,
    POS_INF,
    Ext,
    PreconditionError,
    StructuralError,
    Vec,
    dot,
    ext_neg,
    vec,
)


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


def _weighted_value(weights, samples: Sequence, target: Vec) -> Optional[Fraction]:
    """The weights' combination of the sample values, when they are convex
    weights over the sample points whose combination is target; else None."""
    if weights is None or len(weights) != len(samples) or any(w < 0 for w in weights):
        return None
    # a basic solution puts weight on few samples: check only those
    used = [(w, sample) for w, sample in zip(weights, samples) if w]
    ws = [w for w, _ in used]
    if dot(ws, [1] * len(ws)) != 1 or len(target) != len(samples[0][0]):
        return None
    if any(dot(ws, [p[c] for _, (p, _) in used]) != t for c, t in enumerate(target)):
        return None
    return dot(ws, [v for _, (_, v) in used])


def _objective_at(objective: AffineFunctional, terms, fibers, z,
                  weights=None) -> Optional[Fraction]:
    """The objective of the sup of objective(z) - sum_k f_k(M_k z) over the
    fibers, valued at the point z by arithmetic; None when z is None, off a
    fiber, or a term cannot be valued there.

    Each term is valued at M_k z: a piece-form term by its largest piece, a
    `LowerHull` by its envelope (None off its hull), and a sample-form term
    by its weights' combination of its sample values, with weights[k]
    convex weights combining to M_k z.  The envelope is at most any such
    combination, so the value is a lower bound on the sup in every case.
    """
    if weights is None:
        weights = (None,) * len(terms)
    if z is None or len(z) != objective.dim or len(weights) != len(terms):
        return None
    if any(any(b_map(z)) for b_map in fibers):
        return None
    value = objective(z)
    for (f, m), lam in zip(terms, weights):
        image = m(z)
        if isinstance(f, LowerHull):
            part = f(image)
        elif f.form == V_FORM:
            part = _weighted_value(lam, f.samples, image)
        else:
            part = max(c + dot(a, image) for a, c in f.pieces)
        if part is None or part == POS_INF:
            return None
        value -= part
    return value


def _ray_improves(objective: AffineFunctional, terms, fibers, ray: Vec) -> bool:
    """Whether the sup's objective rises without bound along the ray from
    any point of its domain; False when there is no ray (None).

    The ray must keep every fiber and leave each sample-form term's
    argument fixed, as its domain is compact.  A piece-form term's
    asymptotic slope is its largest slope, so the objective's slope minus
    those slopes must be positive.
    """
    if ray is None or any(any(dot(row, ray) for row in b.linear) for b in fibers):
        return False
    slope = dot(objective.coeffs, ray)
    for f, m in terms:
        step = [dot(row, ray) for row in m.linear]
        if isinstance(f, LowerHull) or f.form == V_FORM:
            if any(step):
                return False
        else:
            slope -= max(dot(a, step) for a, _ in f.pieces)
    return slope > 0


def _pair_closes(p: QueryProgram, cert: Certificate, rep: DualityReport) -> bool:
    """Whether the LP's primal-dual pair proves both sides: L == U == lhs == rhs.

    L is `_objective_at` of the program at the report's lhs_witness z with
    cert.term_weights, so L <= sup.  U is minus `_objective_at` of
    `p.dual` at its witness x* with cert.dual_weights, so U >= min.  Weak
    duality puts the sup at most the min, so L == U pins both to that
    value.
    """
    lower = _objective_at(p.objective, p.terms, p.fibers, rep.lhs_witness, cert.term_weights)
    dual_lower = _objective_at(*p.dual, rep.witness, cert.dual_weights)
    return None not in (lower, dual_lower) and lower == -dual_lower == rep.lhs == rep.rhs


@dataclass(frozen=True)
class CrosscheckReport:
    """Exact-oracle verdict for one verified query.

    lhs_oracle is the oracle's left side, with the LP's sign, and
    decided_by says how it was found.  "certificate": the LP's primal-dual
    pair closed (see `crosscheck_scenario`), so both sides are proved equal
    to the LP's and lhs_oracle's argmax is the LP's maximizer.
    "enumeration": both sides were solved by double description
    (`exact_sup`).  lhs_ok and rhs_ok: the oracle's left and right sides
    equal the LP's exactly, infinities included.  witness_ok: the dual
    objective recomputed at the LP witness reproduces the right side, or
    falls along the LP's unbounded ray.
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
    decided_by: str
    notes: tuple = ()


def crosscheck_scenario(
    s: DualityScenario,
    spec: Optional[GridSpec] = None,
    reports: Optional[Sequence] = None,
) -> list:
    """Replay each verified query of a scenario against the exact oracle.

    A query is decided by certificate where the report carries verify's
    `Certificate` for this scenario and query, both sides are finite, and
    the LP's primal-dual pair closes in exact arithmetic: the primal point
    lies on every fiber with each sample-form term's weights convex and
    combining to M_k z, the dual point meets the constraint with each
    sample-form group's weights convex and combining to x*, and the
    objective values L at z and U at x* satisfy L == U == lhs == rhs.
    Every other query is decided by enumeration: both sides of its
    `query_program` are recomputed by `exact_sup`, the right side as minus
    the sup of its `dual`, and compared with the LP's, and the LP's dual
    witness or ray is re-checked on that sup by `_objective_at` or
    `_ray_improves`.  Both paths give
    the same record for a correct report.  reports, when given, are
    verify(s)'s reports, which are then not computed again.  spec is
    accepted for compatibility and ignored.
    """
    if reports is None:
        reports = verify(s)
    out = []
    for rep in reports:
        cert = rep.certificate
        if cert is not None and (cert.scenario != s or cert.query != rep.query):
            cert = None
        p = query_program(s, rep.query) if cert is None else cert.program
        if cert is not None and _pair_closes(p, cert, rep):
            decided_by = "certificate"
            lhs_oracle = OracleResult(rep.lhs, True, rep.lhs_witness)
            lhs_ok = witness_ok = rhs_ok = True
            notes = ()
        else:
            decided_by = "enumeration"
            lhs_oracle = exact_sup(p.objective, p.terms, p.fibers)
            phi, terms, fibers = p.dual
            # one hull per sample-form group, shared by every check below
            dual = (phi, [(LowerHull(f) if f.form == V_FORM else f, m) for f, m in terms], fibers)
            rhs_oracle = ext_neg(exact_sup(*dual).value)
            witness_ok, notes = True, ()  # +inf has no certificate to re-check
            if rep.rhs == NEG_INF:
                witness_ok = _ray_improves(*dual, rep.unbounded_direction)
                notes = ("unbounded dual checked along the reported ray",)
            elif rep.rhs != POS_INF:
                witness_ok = _objective_at(*dual, rep.witness) == -rep.rhs
                if rep.witness is None:
                    notes = ("finite dual value without a witness",)
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
                decided_by=decided_by,
                notes=notes,
            )
        )
    return out
