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
queries as siblings that share their rows and phase 1, and keeps, on each report, the program with both LPs' points and weights
(a `Certificate`); `oracle.crosscheck_scenario` re-checks that pair by
arithmetic and, where it does not prove both sides, solves the same two
sups again by double description (`oracle.exact_sup`), with no LP code.

Weak duality (gap >= 0) holds unconditionally; hypothesis flags record
certified sufficient conditions under which the gap must be exactly zero
with the minimum attained, and a certified-but-nonzero gap is treated as a
kernel bug, never reported.

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
    V_FORM,
    sup_affine_minus_convex,
    sups_affine_minus_convex,
)
from .geometry import (
    AffineMap,
    cone_is_subspace,
    embed,
    solve_linear,
    vec_neg,
)
from .interiority import _interior, boundedness_over_samples, sublevel_level
from .numerics import (
    NEG_INF,
    POS_INF,
    Ext,
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
    solved and the LP's weights (a `Certificate`); it is no part of the
    report's value, so it stays out of its repr, its equality and the JSON
    document, and a hand-built report may leave it None.
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


def _product_flag(s: DualityScenario) -> bool:
    """The flag of s's mode for a two-function kind (fenchel with g in
    sample form, bibivariate, partial_infconv), decided over f's and g's
    samples apart, never over the product psi = f + g, which only the
    tests build (tests/support.py), as their reference.

    The product sends a pair of samples to the sum F'_i + G'_j of their
    stacked (B, A) images: for the bibivariate kinds F'_i =
    (-C w_i, w_i, v_i) and G'_j = (x_j, 0, D u_j), for fenchel
    F'_i = (-C p_i, p_i) and G'_j = (q_j, 0).  Each image is lifted by one
    coordinate after B's, +1 for f and -1 for g.  Convex weights over the
    lifted images that keep the lift at 0 put 1/2 on each factor, so that
    slice of their hull is 1/2 (conv F' + conv G'), half the hull of the
    product's images.  The boundedness test of the product at the base
    key (w_i, v_i + D u_j), in product order, is then `_interior` of the
    lifted images at (0, 0, key / 2); each target is a midpoint of two
    lifted images, in the hull.  For fenchel the fiber through a sample p
    of f fixes p, so P = dom g - C p and the test is C p in int dom g,
    over g's samples alone.  Under closed_subspace the lifted B-parts
    (B, +-1) span a subspace exactly when the product's B images do: their
    cone cut to lift 0 is the cone of the sums, and the negative of a
    lifted image is a sum's negative plus an image of the other factor.
    """
    w, x, n = s.c_map.in_dim, s.c_map.out_dim, len(s.f.samples)
    if s.kind == "fenchel" and s.hypothesis_mode == "boundedness":
        g_points = [q for q, _ in s.g.samples]
        return any(_interior(g_points, s.c_map(p), x)
                   for p in dict.fromkeys(p for p, _ in s.f.samples))
    # the scenario's parts hold -C p_w and (q_x, D q_u)
    zero = (Fraction(0),) * w
    points = ([beta + (Fraction(1),) + p for beta, p, _ in s._f_parts]
              + [qx + (Fraction(-1),) + zero + dq for qx, dq, _ in s._g_parts])
    if s.hypothesis_mode == "closed_subspace":
        return cone_is_subspace([p[:x + 1] for p in points])
    origin = (Fraction(0),) * (x + 1)
    halves = dict.fromkeys(tuple((a + b) / 2 for a, b in zip(fp[x + 1:], gp[x + 1:]))
                           for fp in points[:n] for gp in points[n:])
    return any(_interior(points, origin + half, x) for half in halves)


def _scenario_flags(s: DualityScenario, first_lhs: Ext):
    """(hypothesis flags, notes) of a scenario, h_proper the last flag.

    first_lhs is the value of the first query's sup LP, which the caller has
    solved.  The one-function kinds (sublevel, trivariate, quadrivariate)
    read psi and the stored fiber maps A and B.

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

    The sublevel flags need no further LP.  The sole sublevel query is 0,
    so first_lhs is -m, with m the infimum of psi over B's zero fiber; with
    no gamma the level is `interiority.sublevel_level` of m.
    Under `subspace`, the cone of B's sample images is a subspace Y, so 0
    is a strictly positive combination of the images and lies in the
    relative interior of their hull within Y.  Mixing the fiber minimiser
    with a point that B sends a little way along any direction of Y keeps
    psi below gamma whenever m < gamma (see interiority._margin_sweep).
    So the interiority flag is `subspace and m < gamma`.

    The boundedness flag is the condition of
    `interiority.boundedness_condition` at some sample as base point, at a
    level above every sample value.  That level exceeds every fiber's
    infimum, where the condition is 0 in int P, P the image under B of
    dom psi cut to the fiber, which no level or value changes.  So the flag
    is the value-free `interiority._interior`, one test per base point.

    The two-function kinds read the product psi = f + g through the
    factors, never building it (see `_product_flag`); tests/support.py
    builds it, as the tests' reference.
    """
    notes: list = []
    flags: dict = {}
    if s.kind == "sublevel":
        gamma = sublevel_level(s.gamma, ext_neg(first_lhs))
        ok = cone_is_subspace([bp for bp, _, _ in s._f_parts])
        flags["subspace"] = ok
        flags["interiority"] = ok and -first_lhs < gamma
        notes.append(f"interiority tested at level {gamma}")
    elif s.kind == "indicator_linear":
        x = s.dims[3]
        if s.hypothesis_mode == "boundedness":
            points = [q for q, _ in s.g.samples]
            # the condition at each sample q of g that C reaches: the x-part
            # slides around q[:x] (B z = z[:x] - q[:x]) on the fiber that
            # fixes the u-part at q[x:].  With the convex weights summing to
            # 1, B's target 0 is the x-part's target q[:x], so the stacked
            # (B, A) images are the sample points themselves and the target
            # is q.  A repeated sample is tested once.
            flags["boundedness"] = any(
                _interior(points, q, x)
                for q in dict.fromkeys(points) if solve_linear(s.c_map.linear, q[:x]) is not None
            )
        else:
            flags["closed_subspace"] = cone_is_subspace([q[:x] for q, _ in s.g.samples],
                                                        lineality=s.c_map.columns())
            notes.append("queries are continuous in finite dimension")
        notes.append("the w-space is a full vector space by construction")
    elif s.kind == "fenchel" and s.g.form == H_FORM:
        flags[s.hypothesis_mode] = True
        notes.append("piece-form upper function is finite everywhere")
    else:
        if s.psi is None:
            flags[s.hypothesis_mode] = _product_flag(s)
        elif s.hypothesis_mode == "boundedness":
            flags["boundedness"] = boundedness_over_samples(s.psi, s.a_map, s.b_map)
        else:
            flags["closed_subspace"] = cone_is_subspace([bp for bp, _, _ in s._f_parts])
        if s.hypothesis_mode == "closed_subspace":
            notes.append("queries are continuous in finite dimension")
        notes.append("sample-form functions are closed by construction")
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
    """What `verify` solved for one query, and the LP's weights.

    program is `query_program(scenario, query)`.  With the report's
    lhs_witness z and witness x*, the weights complete the primal-dual
    pair of the two LPs.  term_weights holds, per term of the program, the
    left side's convex weights over a sample-form term's samples, which
    combine to M_k z (None for a piece-form term).  dual_weights holds the
    same for the terms of `program.dual`, one per group: the weights
    over a sample-form group's samples, which combine to x* (None in piece
    form).  Where a side is infinite its weights are all None, and only
    the program is of use.
    """

    scenario: DualityScenario
    query: AffineFunctional
    program: QueryProgram
    term_weights: tuple
    dual_weights: tuple


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
    Each report carries the query's program and both LPs' weights as its
    certificate, for `oracle.crosscheck_scenario`.
    No rewritten scenario and no product is built: programs and flags read
    the scenario's own fields.
    """
    # a query listed twice is solved once and reported twice
    queries = list(dict.fromkeys(s.queries))
    programs = [query_program(s, query) for query in queries]
    # every query's program has the scenario's own terms and fibers
    first = programs[0]
    lefts = sups_affine_minus_convex([p.objective for p in programs], first.terms, first.fibers)
    by_query = {}
    for query, p, sup in zip(queries, programs, lefts):
        # an unbounded sup is +inf where z ranges over a full vector space
        if sup.status == "unbounded" and not p.escapes:
            raise RuntimeError("sup LP unbounded on bounded domains; kernel is unsound")
        by_query[query] = (p, sup, sup_affine_minus_convex(*p.dual))
    solved = [(query, *by_query[query]) for query in s.queries]
    # every query's sup LP has the same feasible set, which is dom h's
    _, _, first_sup, _ = solved[0]
    flags, notes = _scenario_flags(s, first_sup.value)
    reports = []
    for query, p, sup, dual in solved:
        lhs, rhs, wit = sup.value, ext_neg(dual.value), dual.argmax
        gap = ext_sub(rhs, lhs)
        if gap < 0:
            raise RuntimeError("weak duality violated; LP kernel is unsound")
        extra = ()
        if p.escapes and lhs == POS_INF:
            extra = ("query escapes range(C^T); both sides are +inf",)
        attained = wit is not None and gap == 0
        if all(flags.values()) and lhs not in (POS_INF, NEG_INF):
            if gap != 0 or not attained:
                raise RuntimeError(
                    "certified hypotheses with a nonzero gap; LP kernel is unsound"
                )
        reports.append(DualityReport(
            kind=s.kind, query=query, hypothesis_flags=dict(flags),
            lhs=lhs, rhs=rhs, gap=gap, witness=wit, lhs_witness=sup.argmax,
            attained=attained, unbounded_direction=dual.ray, notes=notes + extra,
            certificate=Certificate(s, query, p, sup.term_weights, dual.term_weights),
        ))
    return reports
