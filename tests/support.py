"""Reference constructions and generators that only the tests use.

The package ships what its commands run.  What the tests need besides, to
state a reference or draw an instance no command draws, lives here:

* the product rewrites of the two-function kinds (`product_function`,
  `fenchel_to_trivariate`, `bibivariate_to_quadrivariate` and
  `scenario_to_trivariate`), which build the product psi = f + g that
  `verify` reads through the factors without building it;
* seeded generators of bibivariate, indicator and violating scenarios, and
  of the draws that reach every infinite side: empty fibers and disjoint
  domains (the violating ones), queries off range(C^T) and empty indicator
  domains (`random_escaping_indicator`), and piece-form g
  (`random_piece_form_fenchel`);
* `indicator_of_point`;
* `boundedness_at_some_sample`, `interiority.boundedness_condition` at every
  sample as base point, which implies the boundedness flag;
  `reach_over_domain` and `boundedness_over_domain`, the condition over
  the whole domain by one LP of 2k convex-weight blocks on a free key: the
  reference for the boundedness flag of every kind; `interior_point`, the
  point of the domain at the optimum of the flag's own LP;
* `solve_linear`, one exact solution of A x = b, which the tests use to
  ask whether a linear map reaches a point;
* `cone_lp_by_builder`, the cone LP assembled from Fractions: the
  reference for the integer rows of `geometry.cone_is_subspace`;
* `lemma19a_by_scales`, the covering check one fiber LP per scale, the
  reference for `interiority.lemma19a_check`;
* `direction_reach_by_halflines`, the reach one LP per direction with the
  step r >= 0, the reference for `interiority._direction_reach`;
* `evaluation_lp_by_builder` and `sup_lp_by_builder`, the LPs of
  `convexfn.eval_with_subgradient` and `convexfn.sup_affine_minus_convex`
  assembled through `LpBuilder.convex_weights`, `set_objective` and `add`,
  one Fraction row at a time: the references for the programs built from
  prepared parts and cached integer images;
* exact integer double description (`double_description`), and on it the
  lower hull of a sample-form function (`LowerHull`, `envelope_value`) and
  the exact sup of an affine functional minus convex terms (`exact_sup`):
  the reference, by another algorithm than the simplex, for every value the
  oracle's certificates prove.
"""
import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence
from unittest import mock

from sandwichkit import numerics
from sandwichkit.convexfn import V_FORM, AffineFunctional, PolyhedralFunction
from sandwichkit.duality import DualityScenario
from sandwichkit.geometry import AffineMap, embed, rref, vec_neg
from sandwichkit.interiority import (
    Lemma19aResult,
    SublevelQuery,
    _fiber_lp,
    boundedness_condition,
    interior_through_domain,
)
from sandwichkit.numerics import (
    EQ,
    GE,
    LE,
    NEG_INF,
    POS_INF,
    Ext,
    LinearProgram,
    LpBuilder,
    PointColumns,
    PreconditionError,
    StructuralError,
    dot,
    frac,
    lp_solve,
    vec,
)
from sandwichkit.oracle import OracleResult
from sandwichkit.randomgen import (
    random_affine_map,
    random_fraction,
    random_sandwich_instance,
    random_symmetric_vform,
    random_vec,
    random_vform,
)


def product_function(f: PolyhedralFunction, g: PolyhedralFunction) -> PolyhedralFunction:
    """Sample form of (p, x) -> f(p) + g(x); envelopes add across blocks."""
    if f.form != V_FORM or g.form != V_FORM:
        raise StructuralError("products need sample-form factors")
    samples = []
    for p, a in f.samples:
        for q, bval in g.samples:
            samples.append((p + q, a + bval))
    return PolyhedralFunction.v_form(f.dim + g.dim, samples)


def fenchel_to_trivariate(s: DualityScenario) -> DualityScenario:
    """Product construction: psi(p, x) = f(p) + g(x), A = p, B = x - Cp."""
    if s.kind != "fenchel":
        raise PreconditionError("expected a fenchel scenario")
    if s.g.form != V_FORM:
        raise PreconditionError("piece-form upper functions have no compact product")
    f, g, link = s.f, s.g, s.c_map
    psi = product_function(f, g)
    n, m = f.dim, g.dim
    a_map = AffineMap(tuple(embed(n + m, (c, (1,))) for c in range(n)),
                      (Fraction(0),) * n, n + m)
    b_rows = tuple(embed(n + m, (0, vec_neg(row)), (n + c, (1,)))
                   for c, row in enumerate(link.linear))
    b_map = AffineMap(b_rows, tuple(-o for o in link.offset), n + m)
    return DualityScenario.trivariate(psi, a_map, b_map, s.queries, s.hypothesis_mode)


def bibivariate_to_quadrivariate(s: DualityScenario) -> DualityScenario:
    """Product construction: psi(u, v, w, x) = f(w, v) + g(x, u)."""
    if s.kind not in ("bibivariate", "partial_infconv"):
        raise PreconditionError("expected a bibivariate-family scenario")
    u, v, w, x = s.dims
    samples = []
    for p, a in s.f.samples:
        w_i, v_i = p[:w], p[w:]
        for q, bval in s.g.samples:
            x_j, u_j = q[:x], q[x:]
            samples.append((u_j + v_i + w_i + x_j, a + bval))
    psi = PolyhedralFunction.v_form(u + v + w + x, samples)
    return DualityScenario.quadrivariate(
        psi, s.c_map, s.d_map, s.dims, s.queries, s.hypothesis_mode
    )


def scenario_to_trivariate(s: DualityScenario) -> DualityScenario:
    """Rewrite any compact-data scenario as a trivariate one, exactly: the
    one-function kinds read their stored (psi, A, B), the two-function kinds
    build the product psi = f + g first."""
    if s.kind == "indicator_linear":
        raise PreconditionError(
            "indicator scenarios quantify over a full vector space and have no "
            "compact trivariate rewrite"
        )
    if s.kind == "fenchel":
        return fenchel_to_trivariate(s)
    if s.kind in ("bibivariate", "partial_infconv"):
        s = bibivariate_to_quadrivariate(s)
    if s.kind == "trivariate":
        return s
    return DualityScenario.trivariate(s.psi, s.a_map, s.b_map, s.queries, s.hypothesis_mode)


def random_bibivariate_scenario(rng: random.Random, max_dim: int = 2,
                                n_queries: int = 2, partial: bool = False):
    """Bibivariate (or partial inf-convolution) pair with symmetric samples.

    Whole-vector +-pairs keep the folded kernel images symmetric, so the
    closed-subspace flag holds by construction.
    """

    if partial:
        x = rng.randint(1, max_dim)
        v = rng.randint(1, max_dim)
        f = random_symmetric_vform(rng, x + v)
        g = random_symmetric_vform(rng, x + v)
        queries = [random_vec(rng, x + v) for _ in range(n_queries)]
        return DualityScenario.partial_infconv(
            f, g, x, queries, hypothesis_mode="closed_subspace")
    u = rng.randint(1, max_dim)
    v = rng.randint(1, max_dim)
    w = rng.randint(1, max_dim)
    x = rng.randint(1, max_dim)
    c_map = random_affine_map(rng, w, x, with_offset=False)
    d_map = random_affine_map(rng, u, v)
    f = random_symmetric_vform(rng, w + v)
    g = random_symmetric_vform(rng, x + u)
    queries = [random_vec(rng, w + v) for _ in range(n_queries)]
    return DualityScenario.bibivariate(f, g, c_map, d_map, queries,
                                       hypothesis_mode="closed_subspace")


def random_indicator_scenario(rng: random.Random, max_dim: int = 2,
                              n_queries: int = 2,
                              hypothesis_mode: str = "boundedness"):
    """Indicator-constrained scenario with certified hypotheses.

    g's sample points include a unit cross around x = 0 at a shared u-point
    and otherwise come in +-pairs, so both hypothesis modes certify; each
    query routes a random covector through C^T so both sides stay finite.
    """

    u = rng.randint(1, max_dim)
    v = rng.randint(1, max_dim)
    w = rng.randint(1, max_dim)
    x = rng.randint(1, max_dim)
    c_map = random_affine_map(rng, w, x, with_offset=False)
    d_map = random_affine_map(rng, u, v)
    u0 = random_vec(rng, u, -2, 2)
    samples = [((Fraction(0),) * x + u0, random_fraction(rng))]
    for c in range(x):
        for sign in (1, -1):
            e = tuple(Fraction(sign if j == c else 0) for j in range(x))
            samples.append((e + u0, random_fraction(rng)))
    for _ in range(rng.randint(0, 2)):
        p = random_vec(rng, x + u, -2, 2)
        samples.append((p, random_fraction(rng)))
        samples.append((tuple(-c for c in p), random_fraction(rng)))
    g = PolyhedralFunction.v_form(x + u, samples)
    queries = []
    for _ in range(n_queries):
        xstar = random_vec(rng, x, -2, 2)
        w_cov = tuple(
            sum((xstar[c] * c_map.linear[c][j] for c in range(x)),
                start=Fraction(0))
            for j in range(w)
        )
        queries.append(w_cov + random_vec(rng, v, -2, 2))
    return DualityScenario.indicator_linear(g, c_map, d_map, queries,
                                            hypothesis_mode=hypothesis_mode)


def random_violating_fenchel(rng: random.Random, max_dim: int = 2,
                             touching: bool = False, n_queries: int = 2):
    """Fenchel pair whose certificates fail because dom g misses C(dom f).

    With touching=True the two sets meet in exactly one point, so the
    composite stays proper but every interiority-style flag is false; with
    touching=False they are strictly separated and the composite is
    identically +inf.
    """

    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    f = random_vform(rng, n, 4)
    link = random_affine_map(rng, n, m)
    if touching:
        anchor = rng.choice(f.samples)[0]
        base = link(anchor)
        kept = [
            (p, val) for p, val in f.samples
            if all(link(p)[c] <= base[c] for c in range(m))
        ]
        f = PolyhedralFunction.v_form(n, kept)
    else:
        images = [link(p) for p, _ in f.samples]
        base = tuple(max(img[c] for img in images) + 1 for c in range(m))
    rho = Fraction(rng.randint(1, 2))
    samples = []
    for corner in itertools.product((Fraction(0), 2 * rho), repeat=m):
        point = tuple(base[c] + corner[c] for c in range(m))
        samples.append((point, random_fraction(rng)))
    g = PolyhedralFunction.v_form(m, samples)
    queries = [random_vec(rng, n) for _ in range(n_queries)]
    return DualityScenario.fenchel(f, g, link, queries)


def random_violating_trivariate(rng: random.Random, max_dim: int = 2,
                                n_queries: int = 2):
    """Trivariate instance whose zero fiber misses the domain entirely.

    The kernel map is shifted so every sample image has first coordinate at
    least 1; both sides of the identity are then -inf and every flag fails.
    """

    n = rng.randint(1, max_dim)
    psi = random_vform(rng, n, 4)
    b_out = rng.randint(1, max_dim)
    linear = tuple(random_vec(rng, n, -2, 2) for _ in range(b_out))
    lowest = min(
        sum((linear[0][j] * p[j] for j in range(n)), start=Fraction(0))
        for p, _ in psi.samples
    )
    offset = (1 - lowest,) + tuple(random_fraction(rng) for _ in range(b_out - 1))
    b_map = AffineMap(linear, offset, n)
    a_map = random_affine_map(rng, n, rng.randint(1, max_dim))
    queries = [random_vec(rng, a_map.out_dim) for _ in range(n_queries)]
    return DualityScenario.trivariate(psi, a_map, b_map, queries)


def random_piece_form_fenchel(rng: random.Random) -> DualityScenario:
    """A fenchel scenario whose g is in piece form, from a sandwich instance:
    its dual has a sample-form group, g's conjugate."""
    inst, _ = random_sandwich_instance(rng, satisfy=bool(rng.getrandbits(1)))
    queries = [(0,) * inst.z_dim, random_vec(rng, inst.z_dim)]
    return DualityScenario.fenchel(inst.convex, inst.sublinear.as_h_form(), inst.link, queries)


def random_escaping_indicator(rng: random.Random, max_dim: int = 2, n_queries: int = 2,
                              empty: bool = False) -> DualityScenario:
    """Indicator scenario whose queries may leave range(C^T), and whose
    domain is empty with empty=True.

    C's last column and last row are zero, so range(C^T) misses the last
    w-coordinate and range(C) the last x-coordinate.  Each query's last
    w-entry is 0 or not, at random: a nonzero one leaves range(C^T), so the
    right side's constraint x* after C = w' has no solution (+inf).  Without
    empty, one sample of g has x-part 0 = C 0, so dom h is nonempty; a
    query in range(C^T) has two finite sides, and one off it escapes along
    the last w-coordinate (+inf on both sides).  With empty, every sample
    of g has its last x-coordinate at least 1, which no C w reaches, so the
    left side is -inf at every query, and the right side -inf or +inf.
    """
    u, v, w, x = (rng.randint(1, max_dim) for _ in range(4))
    c_map = AffineMap.from_rows(
        [[rng.randint(-2, 2) if r < x - 1 and j < w - 1 else 0 for j in range(w)]
         for r in range(x)], in_dim=w)
    d_map = random_affine_map(rng, u, v)
    samples = []
    for i in range(rng.randint(1, 4)):
        point = random_vec(rng, x + u, -2, 2)
        if empty:
            point = point[:x - 1] + (Fraction(rng.randint(1, 3)),) + point[x:]
        elif i == 0:
            point = (Fraction(0),) * x + point[x:]
        samples.append((point, random_fraction(rng)))
    g = PolyhedralFunction.v_form(x + u, samples)
    queries = []
    for _ in range(n_queries):
        xstar = random_vec(rng, x, -2, 2)
        w_cov = tuple(dot(col, xstar) for col in c_map.columns())
        w_cov = w_cov[:-1] + (w_cov[-1] + rng.choice((0, 0, 1, -2)),)
        queries.append(w_cov + random_vec(rng, v, -2, 2))
    return DualityScenario.indicator_linear(g, c_map, d_map, queries)


def indicator_of_point(point: Sequence) -> PolyhedralFunction:
    """0 at the point, +inf elsewhere."""
    p = vec(point)
    return PolyhedralFunction.v_form(len(p), [(p, 0)])


def boundedness_at_some_sample(psi: PolyhedralFunction, a_map: AffineMap,
                               b_map: AffineMap) -> bool:
    """Whether `boundedness_condition` holds at some sample of psi as base
    point, at a level above every sample value."""
    delta = max(v for _, v in psi.samples) + 1
    return any(boundedness_condition(psi, a_map, b_map, z0, delta) for z0, _ in psi.samples)


def reach_over_domain(stacked: Sequence[Sequence], k: int,
                      lineality: Sequence[Sequence] = ()) -> Fraction:
    """The largest r such that, for some key a and some t in the span T of
    the lineality directions (T = {0} without them), every t +- r e_i with
    key a lies in conv(stacked); stacked holds the moving k coordinates
    first, then the key's.  One LP with a free key a, free weights w of
    t = sum_j w_j L_j, r >= 0 and 2k blocks of convex weights over the
    stacked points, block (i, +-) matched to (t +- r e_i, a), each row
    assembled from Fractions through `LpBuilder.add`.  The boundedness
    condition over the whole domain holds exactly when r > 0: the 2k
    points put t, their mean, in the hull, with a ball of the slice around
    it.  k is at least 1."""
    if k < 1:
        raise StructuralError("the reach needs a moving coordinate")
    dim = len(stacked[0])
    b = LpBuilder("max")
    key = b.block(dim - k)
    w = b.block(len(lineality))
    r = b.var(lo=0)
    for i in range(k):
        for sign in (1, -1):
            lam = b.block(len(stacked), lo=0)
            b.add(dict.fromkeys(lam, 1), EQ, 1)
            for c in range(dim):
                row = {lam[j]: frac(p[c]) for j, p in enumerate(stacked)}
                if c < k:
                    row.update((wj, -frac(d[c])) for wj, d in zip(w, lineality))
                    if c == i:
                        row[r] = -sign
                else:
                    row[key[c - k]] = -1
                b.add(row, EQ, 0)
    b.set_objective({r: 1})
    res = b.solve()
    # infeasible where no point of the hull has its moving part in T
    return res.value if res.status == "optimal" else Fraction(0)


def interior_point(s: DualityScenario) -> tuple:
    """The point sum_i lam_i p_i of a one-function scenario's samples at the
    optimum of the LP that decides its boundedness flag, which must hold:
    lam_i = eps + rho_i, read off the program that
    `interiority.interior_through_domain` solves, whose variables are the
    one block's rho and then eps.  With no moving coordinate there is no
    LP, and every point of the domain will do: the samples' mean."""
    solved = []

    def recording(lp):
        solved.append(lp)
        return lp_solve(lp)

    with mock.patch.object(numerics, "lp_solve", recording):
        assert interior_through_domain(*s._flag_inputs(subspace=False))
    samples = [p for p, _ in s.psi.samples]
    if not solved:
        weights = [Fraction(1, len(samples))] * len(samples)
    else:
        (lp,) = solved
        *rho, eps = lp_solve(lp).point
        weights = [eps + r for r in rho]
    assert all(w > 0 for w in weights)
    return tuple(sum((w * p[c] for w, p in zip(weights, samples)), Fraction(0))
                 for c in range(s.psi.dim))


def boundedness_over_domain(s: DualityScenario) -> bool:
    """The exact boundedness condition of a scenario, by
    `reach_over_domain`: for the kinds with a trivariate rewrite, over the
    stacked (B, A) images of its psi's samples (the product f + g for the
    two-function kinds), and for indicator_linear over g's samples, whose
    x-part moves around a target in range(C) with the u-part as key.  A
    piece-form g holds by structure."""
    if s.kind == "fenchel" and s.g.form != V_FORM:
        return True
    if s.kind == "indicator_linear":
        x = s.dims[3]
        if x == 0:
            return True
        return reach_over_domain([q for q, _ in s.g.samples], x, s.c_map.columns()) > 0
    tri = scenario_to_trivariate(s)
    k = tri.b_map.out_dim
    if k == 0:
        return True
    stacked = [tri.b_map(p) + tri.a_map(p) for p, _ in tri.psi.samples]
    return reach_over_domain(stacked, k) > 0


def lemma19a_by_scales(q: SublevelQuery, delta, probes: Sequence[Sequence],
                       i_max: int = 16) -> Lemma19aResult:
    """`interiority.lemma19a_check` by its definition: for each probe y, one
    fiber LP at y/i for i = 1, 2, ... until the infimum of phi over B's
    fiber through y/i lies below delta, or i passes i_max."""
    if not q.subspace_ok:
        raise PreconditionError("scaled domain images do not span a subspace")
    delta = frac(delta)
    if q.fiber_value == POS_INF or delta <= q.fiber_value:
        raise PreconditionError("the level must exceed the fiber infimum")
    values = [v for _, v in q.phi.samples]
    assignments = []
    all_ok = True
    for raw in probes:
        probe = vec(raw)
        if len(probe) != q.b_map.out_dim:
            raise PreconditionError(f"probe {probe} has the wrong dimension")
        if not q.y.contains(probe):
            raise PreconditionError(f"probe {probe} lies outside the direction span")
        found = None
        for i in range(1, i_max + 1):
            target = tuple(c / i for c in probe)
            value, _ = _fiber_lp(values, q.images, target)
            if value != POS_INF and value < delta:
                found = i
                break
        assignments.append((probe, found))
        if found is None:
            all_ok = False
    return Lemma19aResult(all_ok, tuple(assignments))


def direction_reach_by_halflines(images: Sequence, target: Sequence, directions: Sequence,
                                 value_row=None) -> Fraction:
    """`interiority._direction_reach` one LP per direction d: max r over
    r >= 0 and convex weights with sum_i lam_i images_i - r*d = target (d
    moving the first len(d) coordinates) and the value row, 0 where that
    LP is infeasible; the minimum over the directions, with an early exit
    at 0."""
    points = PointColumns(images, len(target))
    best = None
    for d in directions:
        b = LpBuilder("max")
        r = b.var(lo=0)
        reach = [{r: -dc} for dc in d] + [{}] * (len(target) - len(d))
        lam = b.convex_weights(points, target, reach)
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


def evaluation_lp_by_builder(f: PolyhedralFunction, x: Sequence) -> LinearProgram:
    """The LP that evaluates the sample-form f at x, assembled row by row:
    convex weights on f's points matched to x, the values as objective."""
    b = LpBuilder()
    lam = b.convex_weights([p for p, _ in f.samples], vec(x))
    b.set_objective({lam[i]: f.data[i][1] for i in range(len(lam))})
    return b.build()


def sup_lp_by_builder(phi: AffineFunctional, terms, fibers=()) -> LinearProgram:
    """The LP of `sup_affine_minus_convex(phi, terms, fibers)`, every row
    given to `LpBuilder.add` or `convex_weights` as Fractions and the
    objective summed into one `set_objective`, with no image cached on a
    map or a function read."""
    n = phi.dim
    b = LpBuilder("max")
    zvars = b.block(n)
    objective = {zvars[j]: phi.coeffs[j] for j in range(n)}
    for m in fibers:
        for row, off in zip(m.linear, m.offset):
            b.add(dict(zip(zvars, row)), EQ, -off)
    for psi, m in terms:
        if psi.form == V_FORM:
            coupling = [{zvars[j]: -row[j] for j in range(n) if row[j]} for row in m.linear]
            lam = b.convex_weights([p for p, _ in psi.data], m.offset, coupling)
            objective.update((j, -v) for j, (_, v) in zip(lam, psi.data))
        else:
            s = b.var()
            for a, const in psi.pieces:
                slope = [dot(a, col) for col in m.columns()]
                row = {s: Fraction(1)}
                row.update((zj, -c) for zj, c in zip(zvars, slope) if c)
                b.add(row, GE, dot(a, m.offset) + const)
            objective[s] = Fraction(-1)
    b.set_objective(objective)
    return b.build()


def solve_linear(a_rows: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if len(a_rows) != len(b):
        raise StructuralError("solve_linear: row count does not match rhs length")
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        if c == ncols:
            return None  # row reads 0 = 1
        x[c] = row[-1]
    # rows beyond the pivot count are zero rows by construction of rref
    return tuple(x)


def cone_lp_by_builder(points: Sequence[Sequence], target: Sequence,
                       lineality: Sequence[Sequence] = ()) -> LinearProgram:
    """The LP of "target lies in cone(points) + span(lineality)": mu >= 0
    over the points and free weights over the directions, one row per
    coordinate given to `LpBuilder.add` as Fractions.  With the distinct
    points and target -sum(points) it is the LP of
    `geometry.cone_is_subspace`, whose rows are made from integer images."""
    pts = [vec(p) for p in points]
    lin = [vec(d) for d in lineality]
    b = LpBuilder()
    mu = b.block(len(pts), lo=0)
    free = b.block(len(lin))
    for c in range(len(target)):
        row = {mu[i]: p[c] for i, p in enumerate(pts)}
        row.update((free[k], d[c]) for k, d in enumerate(lin))
        b.add(row, EQ, target[c])
    return b.build()


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
