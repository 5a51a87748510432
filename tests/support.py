"""Reference constructions and generators that only the tests use.

The package ships what its commands run.  What the tests need besides, to
state a reference or draw an instance no command draws, lives here:

* the product rewrites of the two-function kinds (`product_function`,
  `fenchel_to_trivariate`, `bibivariate_to_quadrivariate` and
  `scenario_to_trivariate`), which build the product psi = f + g that
  `verify` reads through the factors without building it;
* seeded generators of bibivariate, indicator and violating scenarios;
* `indicator_of_point`;
* `lemma19a_by_scales`, the covering check one fiber LP per scale, the
  reference for `interiority.lemma19a_check`.
"""
import itertools
import random
from fractions import Fraction
from typing import Sequence

from sandwichkit.convexfn import V_FORM, PolyhedralFunction
from sandwichkit.duality import DualityScenario
from sandwichkit.geometry import AffineMap, embed, vec_neg
from sandwichkit.interiority import Lemma19aResult, SublevelQuery, _fiber_lp
from sandwichkit.numerics import POS_INF, PreconditionError, StructuralError, frac, vec
from sandwichkit.randomgen import (
    random_affine_map,
    random_fraction,
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


def indicator_of_point(point: Sequence) -> PolyhedralFunction:
    """0 at the point, +inf elsewhere."""
    p = vec(point)
    return PolyhedralFunction.v_form(len(p), [(p, 0)])


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
