"""Exact two-sided verification of polyhedral conjugation identities.

Each scenario kind pairs a composite convex function h with a dual formula
for its conjugate.  `query_program` states both sides of one query as
polyhedral data, once for every kind, in a `QueryProgram`:

* the left side h*(query) is sup over the primal variables z of an affine
  objective minus a sum of terms f_k(M_k z), over the fibers {B z = 0};
* the right side is the epigraph dual (Rockafellar, Convex Analysis,
  Thm 16.4 and Cor. 31.2.1): minimize sum_k phi_k(x*) + constant over the
  covector x*, optionally subject to a linear constraint on x*.  Each group
  phi_k is a polyhedral function of x*, in piece form (a max of affine
  pieces) or in sample form (the conjugate of a piece-form g).  The min is
  minus a sup of the left side's shape, `QueryProgram.dual`: the objective
  -constant, each group a term through the identity, the constraint a
  fiber.

`verify` solves both sides as sups, one LP each, the left sides of all
queries as siblings that share their rows and phase 1.  It keeps, on each
report, a `Certificate`: the program and the two `SupResult`s it solved,
which hold the weights of a finite pair, and the base point and ray, or
the Farkas certificate, of an infinite side.  `oracle.crosscheck_scenario`
re-checks each certificate by arithmetic, with no LP code.

Weak duality (gap >= 0) holds unconditionally; hypothesis flags record
certified sufficient conditions under which the gap must be exactly zero
with the minimum attained, and a certified-but-nonzero gap is treated as a
kernel bug, never reported.  Every flag has one of two shapes, an interior
test over the whole domain or a subspace test of a cone; each kind states
its flag's inputs in one place (`DualityScenario._flag_inputs`), and
`_scenario_flags` decides them all.

Layout conventions for concatenated variable blocks:
  quadrivariate functions live on (u, v, w, x) in that order;
  bibivariate f lives on (w, v), g on (x, u), and queries on (w, v);
  partial inf-convolutions identify w = x and u = v (queries on (x, v));
  indicator scenarios take the sup over (w, u).
"""
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .convexfn import (
    AffineFunctional,
    H_FORM,
    PolyhedralFunction,
    SupResult,
    V_FORM,
    sup_affine_minus_convex,
    sups_affine_minus_convex,
)
from .geometry import (
    AffineMap,
    cone_is_subspace,
    embed,
    vec_neg,
)
from .interiority import interior_through_domain, sublevel_level
from .numerics import (
    NEG_INF,
    POS_INF,
    Ext,
    PointColumns,
    StructuralError,
    Vec,
    dot,
    ext_neg,
    ext_sub,
    frac,
    vec,
)

KINDS = (
    "sublevel",
    "trivariate",
    "fenchel",
    "quadrivariate",
    "bibivariate",
    "partial_infconv",
    "indicator_linear",
)
MODES = ("boundedness", "closed_subspace")


def as_query(q, dim: int) -> AffineFunctional:
    """Coerce a covector (plain sequence) or affine functional to a query."""
    if isinstance(q, AffineFunctional):
        query = q
    else:
        query = AffineFunctional(vec(q), Fraction(0))
    if query.dim != dim:
        raise StructuralError(
            f"query on dimension {query.dim} does not match the scenario's {dim}"
        )
    return query


@dataclass(frozen=True)
class DualityScenario:
    """One conjugation identity instance plus the queries to check it at.

    Use the per-kind constructors; they validate shapes and fill the layout
    fields.  dims is the (u, v, w, x) block-size tuple where applicable.
    The one-function kinds (sublevel, trivariate, quadrivariate) hold psi
    and the fiber maps A and B of the trivariate form in a_map and b_map:
    sublevel's A is the zero map, and quadrivariate's pair is
    `quad_fiber_maps` of its couplings.
    """

    kind: str
    queries: tuple
    hypothesis_mode: str = "boundedness"
    psi: Optional[PolyhedralFunction] = None
    f: Optional[PolyhedralFunction] = None
    g: Optional[PolyhedralFunction] = None
    a_map: Optional[AffineMap] = None
    b_map: Optional[AffineMap] = None
    c_map: Optional[AffineMap] = None
    d_map: Optional[AffineMap] = None
    gamma: Optional[Fraction] = None
    dims: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown scenario kind {self.kind!r}")
        if self.hypothesis_mode not in MODES:
            raise StructuralError(f"unknown hypothesis mode {self.hypothesis_mode!r}")
        if not self.queries:
            raise StructuralError("a scenario needs at least one query")

    # What `query_program` reads of the scenario at every query, made on first
    # use and kept, so a query computes only the values that read it.

    @functools.cached_property
    def _terms(self) -> tuple:
        """The left side's (function, map) terms."""
        if self.psi is not None:
            return ((self.psi, AffineMap.identity(self.psi.dim)),)
        if self.kind == "fenchel":
            return ((self.f, AffineMap.identity(self.f.dim)), (self.g, self.c_map))
        u, v, w, _ = self.dims
        if self.kind == "indicator_linear":
            # z = (w, u)
            return ((self.g, _g_term_map(self.c_map, w + u, u)),)
        # z = (w, v, u): f reads (w, v - D u)
        n = w + v + u
        f_rows = [embed(n, (j, (1,))) for j in range(w)]
        f_rows += [embed(n, (w + r, (1,)), (w + v, vec_neg(row)))
                   for r, row in enumerate(self.d_map.linear)]
        f_map = AffineMap(tuple(f_rows), (Fraction(0),) * w + vec_neg(self.d_map.offset), n)
        return ((self.f, f_map), (self.g, _g_term_map(self.c_map, n, u)))

    @functools.cached_property
    def _f_parts(self) -> tuple:
        """Per sample (p, c) of psi, or of f, the parts (beta, point, c) of
        the first group's piece (see `_query_group`): (B p, A p, c) for the
        one-function kinds, and (-C p_w, p, c) for the two-function kinds,
        p_w the w-block of p (all of p for fenchel)."""
        if self.psi is not None:
            return tuple((self.b_map(p), self.a_map(p), c) for p, c in self.psi.samples)
        w = self.c_map.in_dim
        return tuple((vec_neg(self.c_map(p[:w])), p, c) for p, c in self.f.samples)

    @functools.cached_property
    def _g_parts(self) -> tuple:
        """Per sample (q, c) of a sample-form g on the (x, u) product space,
        (q_x, D q_u, c), with q_x and q_u its x- and u-blocks; fenchel's g has
        no u-block."""
        x = self.c_map.out_dim
        d_map = AffineMap.identity(0) if self.d_map is None else self.d_map
        return tuple((q[:x], d_map(q[x:]), c) for q, c in self.g.samples)

    @functools.cached_property
    def _g_conjugate(self) -> PolyhedralFunction:
        """g*, fenchel's last group."""
        return self.g.conjugate()

    def _flag_inputs(self, subspace: bool) -> Optional[tuple]:
        """What decides the scenario's flag, for `_scenario_flags`: with
        subspace False, the boundedness flag's (blocks, k, link), which holds
        when `interiority.interior_through_domain(blocks, k, link)` does;
        with subspace True, a subspace flag's (rays, lineality), which holds
        when `geometry.cone_is_subspace(rays, lineality)` does.  None where
        the flag holds by structure: fenchel with g in piece form, which is
        finite everywhere.  The blocks' integer images are made here, once
        per `verify`.

        Boundedness is `interiority.boundedness_condition` at some point z0
        of the domain as base point, at a level above every sample value.
        Such a level exceeds every finite fiber infimum, and a fiber that
        misses B's zero fiber fails the interior test too, so only the
        value-free part is left: for some key a = A z0, 0 is interior to
        {b : (b, a) in D}, with D the image of dom psi under (B, A).  That
        is `interior_through_domain`'s question, decided by one rank test
        and at most one LP, whose proof is there; each kind gives its D as
        a sum of hulls of stacked (B, A) images, one block per hull.

        The one-function kinds have one block, the stacked images
        (B p, A p) of psi's samples p from `_f_parts`: the LP has a weight
        row and out_dim B rows, and the rank test asks that the affine hull
        of the images loses out_dim B dimensions on dropping the B-part.
        Their subspace flag asks whether B's images of the samples span a
        subspace.

        The two-function kinds (fenchel with g in sample form, bibivariate,
        partial_infconv) read the product psi = f + g through its factors,
        never building it; tests/support.py builds it, as the tests'
        reference.  The product sends a pair of samples to the sum
        F'_i + G'_j of their stacked (B, A) images: for the bibivariate
        kinds F'_i = (-C w_i, w_i, v_i) and G'_j = (x_j, 0, D u_j), for
        fenchel F'_i = (-C p_i, p_i) and G'_j = (q_j, 0), read off `_f_parts`
        and `_g_parts`.  So D = conv F' + conv G', two blocks: the LP has
        two weight rows sharing eps and x = out_dim C rows, and the rank
        test reads the differences of both blocks.  For fenchel this is
        C(dom f) meeting int dom g: the fiber through p fixes p, so the
        slice is dom g - C p, and the rank test holds exactly when dom g is
        full-dimensional, as F' has no difference with a zero key part.
        Under closed_subspace the product's B images span a subspace
        exactly when the B-parts lifted by one coordinate, +1 for f and -1
        for g, do: their cone cut to lift 0 is the cone of the sums, and
        the negative of a lifted image is a sum's negative plus an image of
        the other factor.

        indicator_linear slides the x-part of dom g: its condition is some
        (x0, u0) in dom g with x0 in range(C) (C w = x0, C linear) and x0
        interior to {y : (y, u0) in dom g}.  That is the lemma with the one
        block g's samples (b the x-part, a the u-part) and T = range(C), so
        the LP's x rows read sum_i lam_i q_i[:x] = C w with w free, and the
        rank test asks that the hull of g's samples loses x dimensions on
        dropping the x-part.  Its subspace flag takes range(C) as
        lineality.
        """
        if self.psi is not None:
            if subspace:
                return [bp for bp, _, _ in self._f_parts], ()
            k = self.b_map.out_dim
            points = [bp + ap for bp, ap, _ in self._f_parts]
            return [PointColumns(points, k + self.a_map.out_dim)], k, None
        if self.kind == "fenchel" and self.g.form == H_FORM:
            return None
        x = self.c_map.out_dim
        if self.kind == "indicator_linear":
            if subspace:
                return [q[:x] for q, _ in self.g.samples], self.c_map.columns()
            return [self.g.columns], x, self.c_map
        if subspace:
            return ([beta + (Fraction(1),) for beta, _, _ in self._f_parts]
                    + [qx + (Fraction(-1),) for qx, _, _ in self._g_parts], ())
        zero = (Fraction(0),) * self.c_map.in_dim
        f_points = [beta + p for beta, p, _ in self._f_parts]
        g_points = [qx + zero + dq for qx, dq, _ in self._g_parts]
        dim = len(f_points[0])
        return [PointColumns(f_points, dim), PointColumns(g_points, dim)], x, None

    @staticmethod
    def sublevel(phi: PolyhedralFunction, b_map: AffineMap, gamma=None,
                 hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """min of psi*(x* after B) against -inf of psi over the zero-fiber of B.

        The query space is zero-dimensional; gamma is the level used by the
        interiority flag.  When omitted it stays None, and `verify` picks
        `interiority.sublevel_level`'s automatic level.
        """
        if phi.form != V_FORM:
            raise StructuralError("sublevel scenarios need a sample-form function")
        if b_map.in_dim != phi.dim:
            raise StructuralError("direction map does not act on the function's space")
        return DualityScenario(
            kind="sublevel",
            queries=(AffineFunctional((), Fraction(0)),),
            hypothesis_mode=hypothesis_mode,
            psi=phi, a_map=AffineMap.zero_map(phi.dim), b_map=b_map,
            gamma=None if gamma is None else frac(gamma),
        )

    @staticmethod
    def trivariate(psi: PolyhedralFunction, a_map: AffineMap, b_map: AffineMap,
                   queries: Sequence, hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """h(p) = inf psi over A^-1{p} intersect B^-1{0}; dual over x* after B."""
        if psi.form != V_FORM:
            raise StructuralError("trivariate scenarios need a sample-form function")
        if a_map.in_dim != psi.dim or b_map.in_dim != psi.dim:
            raise StructuralError("fiber maps must act on the function's space")
        qs = tuple(as_query(q, a_map.out_dim) for q in queries)
        return DualityScenario(
            kind="trivariate", queries=qs, hypothesis_mode=hypothesis_mode,
            psi=psi, a_map=a_map, b_map=b_map,
        )

    @staticmethod
    def fenchel(f: PolyhedralFunction, g: PolyhedralFunction, link: AffineMap,
                queries: Sequence, hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """(f + g after C)*(q) against min over x* of f*(q - x*C) + g*(x*).

        g may be in piece form (finite sublinear upper functions); f must be
        in sample form so the left side stays a compact-domain sup.
        """
        if f.form != V_FORM:
            raise StructuralError("the first summand must be in sample form")
        if link.in_dim != f.dim or link.out_dim != g.dim:
            raise StructuralError("the coupling map must send f's space to g's")
        qs = tuple(as_query(q, f.dim) for q in queries)
        return DualityScenario(
            kind="fenchel", queries=qs, hypothesis_mode=hypothesis_mode,
            f=f, g=g, c_map=link,
        )

    @staticmethod
    def quadrivariate(psi: PolyhedralFunction, c_map: AffineMap, d_map: AffineMap,
                      dims: Sequence, queries: Sequence,
                      hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """h(w, v) = inf over (u, x) of psi(u, v - Du, w, ...) folded via fibers.

        dims = (u, v, w, x) block sizes of psi's space; c_map: W -> X,
        d_map: U -> V; queries live on (w, v).
        """
        u, v, w, x = (int(n) for n in dims)
        if min(u, v, w, x) < 0:
            raise StructuralError(f"dims {[u, v, w, x]} has a negative block size")
        if psi.form != V_FORM:
            raise StructuralError("quadrivariate scenarios need a sample-form function")
        if psi.dim != u + v + w + x:
            raise StructuralError("dims do not sum to the function's dimension")
        if c_map.in_dim != w or c_map.out_dim != x:
            raise StructuralError("first coupling must map the w-block to the x-block")
        if d_map.in_dim != u or d_map.out_dim != v:
            raise StructuralError("second coupling must map the u-block to the v-block")
        qs = tuple(as_query(q, w + v) for q in queries)
        a_map, b_map = quad_fiber_maps(c_map, d_map, dims)
        return DualityScenario(
            kind="quadrivariate", queries=qs, hypothesis_mode=hypothesis_mode,
            psi=psi, a_map=a_map, b_map=b_map, c_map=c_map, d_map=d_map, dims=(u, v, w, x),
        )

    @staticmethod
    def bibivariate(f: PolyhedralFunction, g: PolyhedralFunction,
                    c_map: AffineMap, d_map: AffineMap, queries: Sequence,
                    hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """h(w, v) = inf_u f(w, v - Du) + g(Cw, u); dual couples one covector."""
        w, x = c_map.in_dim, c_map.out_dim
        u, v = d_map.in_dim, d_map.out_dim
        if f.form != V_FORM or g.form != V_FORM:
            raise StructuralError("bibivariate scenarios need sample-form functions")
        if f.dim != w + v:
            raise StructuralError("f must live on the (w, v) product space")
        if g.dim != x + u:
            raise StructuralError("g must live on the (x, u) product space")
        qs = tuple(as_query(q, w + v) for q in queries)
        return DualityScenario(
            kind="bibivariate", queries=qs, hypothesis_mode=hypothesis_mode,
            f=f, g=g, c_map=c_map, d_map=d_map, dims=(u, v, w, x),
        )

    @staticmethod
    def partial_infconv(f: PolyhedralFunction, g: PolyhedralFunction, x_dim: int,
                        queries: Sequence, hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """h(x, v) = inf_y f(x, v - y) + g(x, y), both functions on (x, v)."""
        if f.form != V_FORM or g.form != V_FORM:
            raise StructuralError("partial inf-convolution needs sample-form functions")
        if f.dim != g.dim:
            raise StructuralError("both functions must share the (x, v) space")
        x_dim = int(x_dim)
        if not 0 <= x_dim <= f.dim:
            raise StructuralError("x-block size out of range")
        v_dim = f.dim - x_dim
        qs = tuple(as_query(q, f.dim) for q in queries)
        return DualityScenario(
            kind="partial_infconv", queries=qs, hypothesis_mode=hypothesis_mode,
            f=f, g=g,
            c_map=AffineMap.identity(x_dim), d_map=AffineMap.identity(v_dim),
            dims=(v_dim, v_dim, x_dim, x_dim),
        )

    @staticmethod
    def indicator_linear(g: PolyhedralFunction, c_map: AffineMap, d_map: AffineMap,
                         queries: Sequence, hypothesis_mode: str = "boundedness") -> "DualityScenario":
        """h(w, v) = inf{g(Cw, u) : Du = v} with w ranging over a full space.

        c_map must be linear (zero offset); queries live on (w, v) and the
        conjugate is finite only when the w-covector lies in range(C^T).
        """
        if g.form != V_FORM:
            raise StructuralError("indicator scenarios need a sample-form function")
        if any(c != 0 for c in c_map.offset):
            raise StructuralError("the w-coupling must be linear (zero offset)")
        u, v = d_map.in_dim, d_map.out_dim
        w, x = c_map.in_dim, c_map.out_dim
        if g.dim != x + u:
            raise StructuralError("g must live on the (x, u) product space")
        qs = tuple(as_query(q, w + v) for q in queries)
        return DualityScenario(
            kind="indicator_linear", queries=qs, hypothesis_mode=hypothesis_mode,
            g=g, c_map=c_map, d_map=d_map, dims=(u, v, w, x),
        )


@dataclass(frozen=True)
class DualityReport:
    """Two-sided result for a single query of a scenario.

    lhs_witness is a point of the left side's variable space attaining the
    sup (kind-specific layout; for indicator scenarios it is (w, u)).
    witness is the dual covector attaining the min, when attained; it pairs
    with the kernel map through a plus sign, so rewriting a scenario into
    fiber form leaves the witness unchanged.  certificate is what `verify`
    solved and what its LPs prove (a `Certificate`); it is no part of the
    report's value, so it stays out of its repr, its equality and the JSON
    document.  A hand-built report may leave it None, and the oracle then
    proves nothing of it.
    """

    kind: str
    query: AffineFunctional
    hypothesis_flags: dict
    lhs: Ext
    rhs: Ext
    gap: Ext
    witness: Optional[Vec]
    lhs_witness: Optional[Vec]
    attained: bool
    unbounded_direction: Optional[Vec] = None
    notes: tuple = ()
    certificate: Optional["Certificate"] = field(default=None, repr=False, compare=False)

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(self.hypothesis_flags.values())


def _query_group(dim: int, parts, coeffs, constant=0) -> PolyhedralFunction:
    """x* -> max over (beta, point, c) in parts of
    <beta, x*> + <coeffs, point> + constant - c: a group whose pieces read
    the query only through coeffs and constant."""
    return PolyhedralFunction(dim, H_FORM, tuple(
        (beta, dot(coeffs, point) + constant - c) for beta, point, c in parts))


def _g_term_map(c_map: AffineMap, n: int, u: int) -> AffineMap:
    """z -> (C w, u) for z of length n holding w first and u last: the
    argument of g in the coupled kinds."""
    rows = [embed(n, (0, row)) for row in c_map.linear]
    rows += [embed(n, (n - u + k, (1,))) for k in range(u)]
    return AffineMap(tuple(rows), tuple(c_map.offset) + (Fraction(0),) * u, n)


def quad_fiber_maps(c_map: AffineMap, d_map: AffineMap, dims: Sequence):
    """A(u,v,w,x) = (w, v + Du) and B(u,v,w,x) = x - Cw on the (u,v,w,x) layout."""
    u, v, w, x = (int(n) for n in dims)
    total = u + v + w + x
    a_rows = [embed(total, (u + v + r, (1,))) for r in range(w)]
    a_rows += [embed(total, (0, row), (u + r, (1,))) for r, row in enumerate(d_map.linear)]
    a_map = AffineMap(tuple(a_rows), (Fraction(0),) * w + tuple(d_map.offset), total)
    b_rows = tuple(embed(total, (u + v, vec_neg(row)), (u + v + w + r, (1,)))
                   for r, row in enumerate(c_map.linear))
    b_map = AffineMap(b_rows, tuple(-o for o in c_map.offset), total)
    return a_map, b_map


def _scenario_flags(s: DualityScenario, first_lhs: Ext):
    """(hypothesis flags, notes) of a scenario, h_proper the last flag.

    first_lhs is the value of the first query's sup LP, which the caller has
    solved.  Every other flag is decided here, from the scenario's
    `DualityScenario._flag_inputs`.  A boundedness flag is one integer rank
    test and at most one LP, over the whole domain: some key a whose slice
    {b : (b, a) in D} of the stacked (B, A) image D of dom psi holds 0 in
    its interior.  By `interiority.interior_through_domain`'s lemma that is
    a point (0, a) of ri D, found by the LP "maximize eps" over weights
    eps + rho_i, strictly positive once eps > 0, with one weight row per
    block of `_flag_inputs` and one row per coordinate of B (indicator_linear:
    B's target C w, with w free), together with Q^k x {0} in lin aff D, a
    comparison of two ranks.  A subspace flag is one cone LP.

    h_proper, that h has a nonempty domain, is the only qualification
    strong duality needs for polyhedral data (Rockafellar, Thm 20.1).  It is
    the feasibility of the left side's sup LP: the LP's feasible set
    {z : M_k z in dom f_k, B z = 0} is the same for every query.  Per kind,
    that set is nonempty exactly when
      * sublevel, trivariate, quadrivariate: B's zero fiber meets dom psi,
        that is, 0 lies in the hull of B's images of psi's samples;
      * fenchel with g in sample form: C(dom f) meets dom g;
      * bibivariate: C sends the w-part of a point of dom f to the x-part
        of a point of dom g (partial_infconv: their x-parts meet);
        these two are 0 in the hull of B's images of the samples of the
        product psi = f + g;
      * indicator_linear: 0 lies in the hull of the x-parts of g's
        samples plus range(C);
      * fenchel with g in piece form: always, as g is finite everywhere.

    The sublevel interiority flag needs no further LP.  The sole sublevel
    query is 0, so first_lhs is -m, with m the infimum of psi over B's zero
    fiber; with no gamma the level is `interiority.sublevel_level` of m.
    Under `subspace`, the cone of B's sample images is a subspace Y, so 0
    is a strictly positive combination of the images and lies in the
    relative interior of their hull within Y.  Mixing the fiber minimiser
    with a point that B sends a little way along any direction of Y keeps
    psi below gamma whenever m < gamma (see interiority._margin_sweep).
    So the interiority flag is `subspace and m < gamma`.
    """
    name = "subspace" if s.kind == "sublevel" else s.hypothesis_mode
    inputs = s._flag_inputs(subspace=name != "boundedness")
    if inputs is None:
        ok = True
    elif name == "boundedness":
        ok = interior_through_domain(*inputs)
    else:
        ok = cone_is_subspace(*inputs)
    flags = {name: ok}
    if s.kind == "sublevel":
        gamma = sublevel_level(s.gamma, ext_neg(first_lhs))
        flags["interiority"] = ok and -first_lhs < gamma
        notes = [f"interiority tested at level {gamma}"]
    elif inputs is None:
        notes = ["piece-form upper function is finite everywhere"]
    else:
        notes = ["queries are continuous in finite dimension"] if name == "closed_subspace" else []
        notes.append("the w-space is a full vector space by construction"
                     if s.kind == "indicator_linear"
                     else "sample-form functions are closed by construction")
    flags["h_proper"] = first_lhs != NEG_INF
    return flags, tuple(notes)


@dataclass(frozen=True, kw_only=True)
class QueryProgram:
    """Both sides of one query, stated as polyhedral data.

    Left side: sup over z of objective(z) - sum_k f_k(M_k z) over
    {z : B z = 0 for each B in fibers}, with terms the (f_k, M_k) pairs.
    escapes: z ranges over a full vector space, so an unbounded sup is
    +inf rather than a kernel bug.  Right side: min over the covector x*
    of the sum of the groups at x*, plus constant, subject to
    <a, x*> = r for each (a, r) in constraint.  A group is a polyhedral
    function of x* in either form.
    """

    objective: AffineFunctional
    terms: tuple
    fibers: tuple = ()
    escapes: bool = False
    groups: tuple
    constant: Fraction = Fraction(0)
    constraint: tuple = ()

    @functools.cached_property
    def dual(self) -> tuple:
        """The right side in the left side's shape: (objective, terms,
        fibers) whose sup is minus the min, built once per program.

        The objective is the constant -constant on x*, each group is a term
        through the identity, and the constraint is one fiber map,
        x* -> (<a, x*> - r for each (a, r)), or none.
        """
        dim = self.groups[0].dim
        identity = AffineMap.identity(dim)
        fibers = ()
        if self.constraint:
            rows, rhs = zip(*self.constraint)
            fibers = (AffineMap(rows, tuple(-r for r in rhs), dim),)
        return (AffineFunctional((Fraction(0),) * dim, -self.constant),
                tuple((f, identity) for f in self.groups), fibers)


@dataclass(frozen=True)
class Certificate:
    """What `verify` solved for one query, and what its two LPs prove.

    program is `query_program(scenario, query)`.  lhs is the `SupResult` of
    the program's sup, and dual that of `program.dual`'s, minus the right
    side.  With the report's lhs_witness z and witness x*, their
    term_weights complete the primal-dual pair of the two LPs: per term,
    the convex weights over a sample-form term's samples, which combine to
    M_k z, or for `program.dual`, one term per group, to x* (None in piece
    form).  An infinite side has no z or x*, and its `SupResult` carries
    the certificate of its sup instead: a sup of +inf its base point, at
    which its weights are taken, and an improving ray, and a sup of -inf
    the `Farkas` certificate of its empty feasible set.  The dual's sup is
    minus the right side, so a right side of -inf has a base point and a
    ray, and one of +inf a Farkas certificate.
    """

    scenario: DualityScenario
    query: AffineFunctional
    program: QueryProgram
    lhs: SupResult
    dual: SupResult


def query_program(s: DualityScenario, query: AffineFunctional) -> QueryProgram:
    """The one statement of both sides of a query, for every kind.

    The one-function kinds read psi and the fiber maps the scenario stores.
    The terms and the parts of the groups that no query reads are the
    scenario's own, made once (`DualityScenario._terms`, `_f_parts`,
    `_g_parts`, `_g_conjugate`); only the values that read the query are
    computed here.
    """
    if s.kind in ("trivariate", "sublevel", "quadrivariate"):
        # sup q(Az) - psi(z) over Bz = 0; min over x* of psi*(A^T q + B^T x*)
        return QueryProgram(
            objective=query.compose(s.a_map),
            terms=s._terms,
            fibers=(s.b_map,),
            groups=(_query_group(s.b_map.out_dim, s._f_parts, query.coeffs, query.constant),),
        )
    if s.kind == "fenchel":
        # min over x* of f*(q - x* after C) + g*(x*)
        return QueryProgram(
            objective=query,
            terms=s._terms,
            groups=(_query_group(s.g.dim, s._f_parts, query.coeffs, query.constant),
                    s._g_conjugate),
        )
    u, v, w, x = s.dims
    if s.kind == "indicator_linear":
        # z = (w, u), w free: <w', w> + <v', D u> + q0 - g(C w, u), so the
        # sup may escape to +inf; min over x* of g*(x*, v' after D) + q0
        # subject to x* after C = w'
        w_cov, v_cov = query.coeffs[:w], query.coeffs[w:]
        via_d = AffineFunctional(v_cov, query.constant).compose(s.d_map)
        return QueryProgram(
            objective=AffineFunctional(w_cov + via_d.coeffs, via_d.constant),
            terms=s._terms,
            escapes=True,
            groups=(_query_group(x, s._g_parts, v_cov),),
            constant=query.constant,
            constraint=tuple(zip(s.c_map.columns(), w_cov)),
        )
    # z = (w, v, u): q(w, v) - f(w, v - D u) - g(C w, u);
    # min over x* of f*(q - (x* after C, 0)) + g*(x*, v' after D)
    return QueryProgram(
        objective=AffineFunctional(query.coeffs + (Fraction(0),) * u, query.constant),
        terms=s._terms,
        groups=(_query_group(x, s._f_parts, query.coeffs, query.constant),
                _query_group(x, s._g_parts, query.coeffs[w:])),
    )


def verify(s: DualityScenario) -> list:
    """Two-sided check of the scenario's identity at each query.

    Always returns a report per query.  Weak duality (gap >= 0) is enforced
    as a kernel invariant; equality is only asserted when every hypothesis
    flag is certified, in which case a nonzero gap raises rather than being
    reported as a counterexample.  Both sides of every query are solved,
    query by query, each as one sup LP (the right side as minus the
    `sup_affine_minus_convex` of `QueryProgram.dual`), before the flags,
    which read h_proper off the first query's left side.  The left sides
    differ only in their objective, so they are solved as siblings by
    `sups_affine_minus_convex`, which runs phase 1 once for all of them.
    Each report carries the query's `Certificate`, its program and the two
    `SupResult`s, for `oracle.crosscheck_scenario`.
    No rewritten scenario and no product is built: programs and flags read
    the scenario's own fields.
    """
    # a query listed twice is solved once and reported twice
    queries = list(dict.fromkeys(s.queries))
    programs = [query_program(s, query) for query in queries]
    # every query's program has the scenario's own terms and fibers
    first = programs[0]
    lefts = sups_affine_minus_convex([p.objective for p in programs], first.terms, first.fibers)
    certs = {}
    for query, p, sup in zip(queries, programs, lefts):
        # an unbounded sup is +inf where z ranges over a full vector space
        if sup.status == "unbounded" and not p.escapes:
            raise RuntimeError("sup LP unbounded on bounded domains; kernel is unsound")
        certs[query] = Certificate(s, query, p, sup, sup_affine_minus_convex(*p.dual))
    # every query's sup LP has the same feasible set, which is dom h's
    flags, notes = _scenario_flags(s, certs[s.queries[0]].lhs.value)
    reports = []
    for cert in (certs[query] for query in s.queries):
        lhs, rhs, wit = cert.lhs.value, ext_neg(cert.dual.value), cert.dual.argmax
        gap = ext_sub(rhs, lhs)
        if gap < 0:
            raise RuntimeError("weak duality violated; LP kernel is unsound")
        extra = ()
        if cert.program.escapes and lhs == POS_INF:
            extra = ("query escapes range(C^T); both sides are +inf",)
        attained = wit is not None and gap == 0
        if all(flags.values()) and lhs not in (POS_INF, NEG_INF):
            if gap != 0 or not attained:
                raise RuntimeError(
                    "certified hypotheses with a nonzero gap; LP kernel is unsound"
                )
        reports.append(DualityReport(
            kind=s.kind, query=cert.query, hypothesis_flags=dict(flags),
            lhs=lhs, rhs=rhs, gap=gap, witness=wit, lhs_witness=cert.lhs.argmax,
            attained=attained, unbounded_direction=cert.dual.ray, notes=notes + extra,
            certificate=cert,
        ))
    return reports
