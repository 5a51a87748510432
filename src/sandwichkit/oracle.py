"""Exact, LP-free second opinion on the duality verifier.

Nothing in this module builds or solves a linear program.  `verify` keeps,
on each report, the `QueryProgram` it solved and what proves each side (a
`Certificate`): the left LP's result, and the right side read off that
LP's multipliers, or solved as an LP of its own where the left side is
infinite.  Every record is decided by checking that certificate by
arithmetic on the program's data, with `convexfn._objective_at`, the one
valuation that `verify` also closes each read-off right side with.  This
is the certifying-algorithm pattern (McConnell, Mehlhorn, Naher and
Schweitzer 2011): no LP code is trusted.

Both sides of a query are sups of one shape: the left side is the
`QueryProgram`'s, and the right side is minus the sup of
`QueryProgram.dual`.  So every check below is a check of a sup, written
once, and a side's value picks its check:

* Both sides finite: the primal-dual pair (`_pair_closes`).  The left
  objective valued at the maximizer z with each sample-form term's convex
  weights is L <= sup, and minus the dual objective valued at the witness
  x* read off the left LP is U >= min.  Weak duality (sup <= min, from
  the Fenchel-Young inequality) holds with no hypothesis at all, so
  L == U proves both sides.
* A sup of +inf (a left side of +inf, a right side of -inf): a feasible
  base point with its weights, valued by `_objective_at`, and a ray along
  which the objective rises without bound (`_ray_improves`).
* A sup of -inf (a left side of -inf, a right side of +inf): a Farkas
  certificate that its feasible set is empty (`_farkas_holds`).

A record with no certificate, with another scenario's or query's, with
exactly one infinite side (LP duality rules that out), or whose check fails
is not ok, and its notes name what failed.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .convexfn import V_FORM, AffineFunctional, Farkas, SupResult, _objective_at
from .duality import Certificate, DualityReport, DualityScenario, verify
from .numerics import NEG_INF, POS_INF, Ext, StructuralError, Vec, dot, ext_neg


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


def _ray_improves(objective: AffineFunctional, terms, fibers, ray: Vec) -> bool:
    """Whether the sup's objective rises without bound along the ray from
    any point of its domain; False when there is no ray (None).

    The ray must keep every fiber and leave each sample-form term's
    argument fixed, as its domain is compact.  A piece-form term's
    asymptotic slope is its largest slope, so the objective's slope minus
    those slopes must be positive.
    """
    if ray is None or len(ray) != objective.dim:
        return False
    if any(any(dot(row, ray) for row in b.linear) for b in fibers):
        return False
    slope = dot(objective.coeffs, ray)
    for f, m in terms:
        step = ray if m.is_identity() else [dot(row, ray) for row in m.linear]
        if f.form == V_FORM:
            if any(step):
                return False
        else:
            slope -= max(dot(a, step) for a, _ in f.pieces)
    return slope > 0


def _farkas_holds(objective: AffineFunctional, terms, fibers,
                  farkas: Optional[Farkas]) -> bool:
    """Whether farkas proves the sup's feasible set empty, so the sup -inf.

    Write each fiber as B z + o_B = 0 and each term's map as
    M_k z = L_k z + o_k.  A feasible z with convex weights lam_k on a
    sample-form term's samples has sum_i lam_i p_i = L_k z + o_k, so with
    farkas' y per fiber and (mu_k, pi_k) per sample-form term,
      <pi_k, L_k z> = sum_i lam_i <pi_k, p_i> - <pi_k, o_k>
                   <= -mu_k - <pi_k, o_k>
    when mu_k + <pi_k, p> <= 0 at every sample p of term k, and
    <y, B z> = -<y, o_B>.  Then
      <sum B^T y - sum_k L_k^T pi_k, z>
          >= sum_k (mu_k + <pi_k, o_k>) - sum <y, o_B>.
    So no such z exists when the z-balance sum B^T y - sum_k L_k^T pi_k
    is zero, every sample inequality holds, and the right-hand side is
    positive.  A piece-form term constrains no z and must carry None.
    The objective is not read: it is there so a sup's parts unpack alike.
    """
    if farkas is None or len(farkas.fibers) != len(fibers) or len(farkas.terms) != len(terms):
        return False
    balance = [Fraction(0)] * objective.dim
    gain = Fraction(0)
    parts = []  # (multipliers, map) pairs, the fibers' with a minus sign
    for b_map, y in zip(fibers, farkas.fibers):
        if len(y) != b_map.out_dim:
            return False
        parts.append((tuple(-c for c in y), b_map))
    for (f, m), mult in zip(terms, farkas.terms):
        if f.form != V_FORM:
            if mult is not None:
                return False
            continue
        if mult is None:
            return False
        mu, pi = mult
        if len(pi) != f.dim or any(mu + dot(pi, p) > 0 for p, _ in f.samples):
            return False
        gain += mu
        parts.append((pi, m))
    for pi, m in parts:
        gain += dot(pi, m.offset)
        for row, c in zip(m.linear, pi):
            if c:
                balance = [x - c * r for x, r in zip(balance, row)]
    return not any(balance) and gain > 0


def _pair_closes(cert: Certificate, rep: DualityReport) -> bool:
    """Whether the primal-dual pair proves both sides: L == U == lhs == rhs.

    L is `_objective_at` of the program at the report's lhs_witness z with
    the left sup's term weights, so L <= sup.  U is minus `_objective_at`
    of `program.dual` at its witness x* with the dual sup's term weights,
    so U >= min.  Weak duality puts the sup at most the min, so L == U pins
    both to that value.
    """
    p = cert.program
    lower = _objective_at(p.objective, p.terms, p.fibers, rep.lhs_witness, cert.lhs.term_weights)
    dual_lower = _objective_at(*p.dual, rep.witness, cert.dual.term_weights)
    return None not in (lower, dual_lower) and lower == -dual_lower == rep.lhs == rep.rhs


def _infinite_sup_fails(sup: tuple, value: Ext, side: SupResult, ray) -> Optional[str]:
    """What fails in the certificate that the sup (objective, terms,
    fibers) is value, +inf or -inf; None when it holds.  +inf needs the
    side's feasible base point with its weights and an improving ray, and
    -inf the side's Farkas certificate."""
    if value == POS_INF:
        if _objective_at(*sup, side.base, side.term_weights) is None:
            return "no feasible base point"
        if not _ray_improves(*sup, ray):
            return "the ray does not improve"
        return None
    return None if _farkas_holds(*sup, side.farkas) else "the Farkas certificate fails"


@dataclass(frozen=True)
class CrosscheckReport:
    """Exact-oracle verdict for one verified query.

    lhs_oracle is the left side the certificate proves, with the LP's sign,
    and its argmax the LP's maximizer.  lhs_ok and rhs_ok: the certificate
    of the left and the right side holds (a finite pair proves both or
    neither).  witness_ok: the dual objective valued at the reported
    witness reproduces the right side, or rises along the LP's unbounded ray; a
    right side of +inf has neither, and its Farkas certificate is rhs_ok's.
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
    """Check the certificate of each verified query of a scenario.

    Each report must carry verify's `Certificate` for this scenario and
    query.  Both sides finite: the primal-dual pair, the left LP's
    maximizer and the witness read off its multipliers, must close in
    exact arithmetic (`_pair_closes`): the primal point lies on every fiber
    with each sample-form term's weights convex and combining to M_k z, the
    dual point meets the constraint with each sample-form group's weights
    convex and combining to x*, and the objective values L at z and U at
    x* satisfy L == U == lhs == rhs.  Both sides infinite: each side's sup
    is checked on its own, the left side's on the program and the right
    side's, minus the sup of its `dual`, there, by its base point and ray
    (+inf) or its Farkas certificate (-inf).  reports, when given, are
    verify(s)'s reports, which are then not computed again.  spec is
    accepted for compatibility and ignored.
    """
    if reports is None:
        reports = verify(s)
    infinities = (POS_INF, NEG_INF)
    out = []
    for rep in reports:
        cert = rep.certificate
        lhs_ok = witness_ok = rhs_ok = False
        notes = ()
        lhs_infinite, rhs_infinite = rep.lhs in infinities, rep.rhs in infinities
        if cert is None or cert.scenario != s or cert.query != rep.query:
            notes = ("no certificate for this scenario and query",)
        elif not (lhs_infinite or rhs_infinite):
            lhs_ok = witness_ok = rhs_ok = _pair_closes(cert, rep)
            if not lhs_ok:
                notes = ("the primal-dual pair does not close",)
        elif not (lhs_infinite and rhs_infinite):
            notes = ("exactly one side is infinite",)
        else:
            p = cert.program
            lhs_fails = _infinite_sup_fails(
                (p.objective, p.terms, p.fibers), rep.lhs, cert.lhs, cert.lhs.ray)
            rhs_fails = _infinite_sup_fails(
                p.dual, ext_neg(rep.rhs), cert.dual, rep.unbounded_direction)
            lhs_ok, rhs_ok = lhs_fails is None, rhs_fails is None
            witness_ok = True
            if rep.rhs == NEG_INF:
                witness_ok = _ray_improves(*p.dual, rep.unbounded_direction)
                notes = ("unbounded dual checked along the reported ray",)
            if lhs_fails:
                notes += (f"left side: {lhs_fails}",)
            if rhs_fails:
                notes += (f"right side: {rhs_fails}",)
        out.append(
            CrosscheckReport(
                kind=s.kind,
                query=rep.query,
                lhs_lp=rep.lhs,
                rhs_lp=rep.rhs,
                lhs_oracle=OracleResult(rep.lhs, True, rep.lhs_witness),
                lhs_ok=lhs_ok,
                witness_ok=witness_ok,
                rhs_ok=rhs_ok,
                ok=lhs_ok and witness_ok and rhs_ok,
                notes=notes,
            )
        )
    return out
