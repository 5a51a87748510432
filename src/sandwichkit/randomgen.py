"""Seeded generators for the small exact instances that `selftest` and the
benchmark draw, and the tests too; generators only the tests use are in
tests/support.py.

Everything takes an explicit random.Random so test runs are reproducible.
Coefficients are small Fractions; dimensions stay tiny because downstream
checks solve several LPs per instance.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .convexfn import PolyhedralFunction, SublinearFunctional
from .geometry import AffineMap
from .numerics import Vec, unit_vec


def random_fraction(rng: random.Random, lo: int = -3, hi: int = 3,
                    denominators=(1, 1, 2)) -> Fraction:
    d = rng.choice(denominators)
    return Fraction(rng.randint(lo * d, hi * d), d)


def random_vec(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> Vec:
    return tuple(random_fraction(rng, lo, hi) for _ in range(dim))


def random_vform(rng: random.Random, dim: int, max_samples: int = 5) -> PolyhedralFunction:
    n = rng.randint(1, max_samples)
    return PolyhedralFunction.v_form(
        dim, [(random_vec(rng, dim), random_fraction(rng)) for _ in range(n)]
    )


def random_affine_map(rng: random.Random, in_dim: int, out_dim: int,
                      with_offset: bool = True) -> AffineMap:
    rows = [random_vec(rng, in_dim, -2, 2) for _ in range(out_dim)]
    offset = random_vec(rng, out_dim, -2, 2) if with_offset else (Fraction(0),) * out_dim
    return AffineMap(tuple(rows), offset, in_dim)


def random_sublinear(rng: random.Random, dim: int, max_generators: int = 4) -> SublinearFunctional:
    n = rng.randint(1, max_generators)
    return SublinearFunctional.of([random_vec(rng, dim, -2, 2) for _ in range(n)])


def random_sandwich_instance(rng: random.Random, satisfy: bool = True,
                             tight: bool = False):
    """A sandwich instance whose hypothesis status is known by construction.

    The lower bound is shifted so that the hypothesis infimum becomes a chosen
    slack: 0 when tight, a small positive value otherwise, and a strictly
    negative value when satisfy is False.
    """
    from .sandwich import SandwichInstance, hypothesis_check

    z_dim = rng.randint(1, 3)
    x_dim = rng.randint(1, 3)
    s = random_sublinear(rng, x_dim)
    k0 = random_vform(rng, z_dim)
    link = random_affine_map(rng, z_dim, x_dim)
    base = SandwichInstance(s, k0, link)
    value = hypothesis_check(base).value
    if satisfy:
        slack = Fraction(0) if tight else Fraction(rng.randint(1, 4), 2)
    else:
        slack = -Fraction(rng.randint(1, 4), 2)
    shift = slack - value
    k = PolyhedralFunction.v_form(z_dim, [(p, v + shift) for p, v in k0.samples])
    return SandwichInstance(s, k, link), slack


def random_symmetric_vform(rng: random.Random, dim: int,
                           max_pairs: int = 3) -> PolyhedralFunction:
    """Sample form whose points come in +-p pairs; values stay independent."""
    samples = []
    for _ in range(rng.randint(1, max_pairs)):
        p = random_vec(rng, dim, -2, 2)
        samples.append((p, random_fraction(rng)))
        samples.append((tuple(-c for c in p), random_fraction(rng)))
    return PolyhedralFunction.v_form(dim, samples)


def random_fenchel_scenario(rng: random.Random, max_dim: int = 2,
                            n_queries: int = 2):
    """Fenchel pair whose certified-boundedness flag holds by construction.

    dom g is a box of radius at least 1 around the image of one f-sample,
    and that image is itself a g-sample, so the sample search finds a slice
    whose kernel image surrounds the origin.
    """
    import itertools

    from .duality import DualityScenario

    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    f = random_vform(rng, n, 4)
    link = random_affine_map(rng, n, m)
    # the first sample anchors the box, so the flag search succeeds early
    center = link(f.samples[0][0])
    rho = Fraction(rng.randint(1, 2))
    samples = [(center, random_fraction(rng))]
    for corner in itertools.product((-rho, rho), repeat=m):
        point = tuple(center[c] + corner[c] for c in range(m))
        samples.append((point, random_fraction(rng)))
    g = PolyhedralFunction.v_form(m, samples)
    queries = [random_vec(rng, n) for _ in range(n_queries)]
    return DualityScenario.fenchel(f, g, link, queries)


def random_trivariate_scenario(rng: random.Random, max_dim: int = 2,
                               n_queries: int = 2):
    """Trivariate instance satisfying the closed-subspace condition.

    Sample points come in +-z pairs and the kernel map is linear, so the
    scaled union of kernel images is a subspace and the zero fiber meets
    the domain at its barycenter.
    """
    from .duality import DualityScenario

    n = rng.randint(1, max_dim)
    psi = random_symmetric_vform(rng, n)
    a_map = random_affine_map(rng, n, rng.randint(1, max_dim))
    b_map = random_affine_map(rng, n, rng.randint(1, max_dim), with_offset=False)
    queries = [random_vec(rng, a_map.out_dim) for _ in range(n_queries)]
    return DualityScenario.trivariate(psi, a_map, b_map, queries,
                                      hypothesis_mode="closed_subspace")


def random_sublevel_query(rng: random.Random, max_dim: int = 2):
    """A sublevel query whose subspace precondition holds by construction.

    Sample points come in +-p pairs and the direction map is linear, so the
    scaled images positively span their linear span.
    """
    from .interiority import SublevelQuery

    dim = rng.randint(1, max_dim)
    out_dim = rng.randint(1, max_dim)
    points = []
    for _ in range(rng.randint(1, 3)):
        p = random_vec(rng, dim, -2, 2)
        points.append(p)
        points.append(tuple(-c for c in p))
    samples = [(p, abs(random_fraction(rng, 0, 3))) for p in points]
    phi = PolyhedralFunction.v_form(dim, samples)
    b_map = random_affine_map(rng, dim, out_dim, with_offset=False)
    gamma = random_fraction(rng, -1, 4)
    return SublevelQuery.build(phi, b_map, gamma)


def random_projection_map(rng: random.Random, in_dim: int, out_dim: int) -> AffineMap:
    """Linear map whose rows each move a single distinct coordinate."""
    coords = rng.sample(range(in_dim), out_dim)
    rows = tuple(unit_vec(in_dim, c) for c in coords)
    return AffineMap(rows, (Fraction(0),) * out_dim, in_dim)


def random_crosscheck_scenario(rng: random.Random, kind: str, n_queries: int = 2):
    """Tiny instance of the given kind, for oracle cross-checks.

    Sample points come in +-pairs so the relevant fibers pass through the
    barycenter, and constraint maps move single coordinates.
    """
    from .duality import DualityScenario

    if kind == "fenchel":
        return random_fenchel_scenario(rng, max_dim=2, n_queries=n_queries)
    if kind == "sublevel":
        dim = rng.randint(1, 2)
        phi = random_symmetric_vform(rng, dim, max_pairs=2)
        b_map = random_projection_map(rng, dim, rng.randint(1, dim))
        return DualityScenario.sublevel(phi, b_map)
    if kind == "trivariate":
        dim = rng.randint(1, 2)
        psi = random_symmetric_vform(rng, dim, max_pairs=2)
        a_map = random_affine_map(rng, dim, rng.randint(1, 2))
        b_map = random_projection_map(rng, dim, rng.randint(1, dim))
        queries = [random_vec(rng, a_map.out_dim) for _ in range(n_queries)]
        return DualityScenario.trivariate(
            psi, a_map, b_map, queries, hypothesis_mode="closed_subspace")
    if kind == "quadrivariate":
        psi = random_symmetric_vform(rng, 4, max_pairs=3)
        c_map = random_affine_map(rng, 1, 1, with_offset=False)
        d_map = random_affine_map(rng, 1, 1, with_offset=False)
        queries = [random_vec(rng, 2) for _ in range(n_queries)]
        return DualityScenario.quadrivariate(
            psi, c_map, d_map, (1, 1, 1, 1), queries,
            hypothesis_mode="closed_subspace")
    if kind in ("bibivariate", "partial_infconv"):
        f = random_symmetric_vform(rng, 2, max_pairs=1)
        g = random_symmetric_vform(rng, 2, max_pairs=1)
        queries = [random_vec(rng, 2) for _ in range(n_queries)]
        if kind == "partial_infconv":
            return DualityScenario.partial_infconv(
                f, g, 1, queries, hypothesis_mode="closed_subspace")
        c_map = random_affine_map(rng, 1, 1, with_offset=False)
        d_map = random_affine_map(rng, 1, 1, with_offset=False)
        return DualityScenario.bibivariate(
            f, g, c_map, d_map, queries, hypothesis_mode="closed_subspace")
    if kind == "indicator_linear":
        u = rng.randint(1, 2)
        x = rng.randint(1, 2)
        w = rng.randint(x, 2)
        # a single-coordinate surjection keeps range(C) the whole x-space,
        # so every probe of dom g satisfies the membership constraint
        c_map = random_projection_map(rng, w, x)
        d_map = random_affine_map(rng, u, u)
        u0 = random_vec(rng, u, -1, 1)
        samples = [((Fraction(0),) * x + u0, random_fraction(rng))]
        for c in range(x):
            for sign in (1, -1):
                e = tuple(Fraction(sign if j == c else 0) for j in range(x))
                samples.append((e + u0, random_fraction(rng)))
        g = PolyhedralFunction.v_form(x + u, samples)
        queries = []
        for _ in range(n_queries):
            xstar = random_vec(rng, x, -2, 2)
            w_cov = tuple(
                sum((xstar[c] * c_map.linear[c][j] for c in range(x)),
                    start=Fraction(0))
                for j in range(w)
            )
            queries.append(w_cov + random_vec(rng, u, -2, 2))
        return DualityScenario.indicator_linear(g, c_map, d_map, queries)
    raise ValueError(f"unknown scenario kind {kind!r}")
