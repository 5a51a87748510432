"""Property test of the exact vector helpers against per-term Fraction sums.

`numerics.dot` accumulates integers over a common denominator, and the
affine maps and functionals of `geometry` and `convexfn` apply and compose
through it.  The LP side and the crosscheck oracle both use these helpers,
so their agreement cannot catch a wrong one; the naive versions below, one
Fraction operation per term, are the reference.  hypothesis draws the data,
derandomised so every run sees the same draws: ints, Fractions and zeros
mixed, empty vectors, zero-row maps and maps from a zero-dimensional space.
The test is skipped where hypothesis is missing; the package does not need
it.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sandwichkit.convexfn import AffineFunctional  # noqa: E402
from sandwichkit.geometry import AffineMap  # noqa: E402
from sandwichkit.numerics import StructuralError, dot  # noqa: E402


def naive_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), start=F(0))


def naive_apply(m: AffineMap, z):
    return tuple(naive_dot(row, z) + off for row, off in zip(m.linear, m.offset))


def naive_compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    rows = tuple(
        tuple(
            sum((row[k] * inner.linear[k][j] for k in range(outer.in_dim)), start=F(0))
            for j in range(inner.in_dim)
        )
        for row in outer.linear
    )
    off = tuple(naive_dot(row, inner.offset) + o
                for row, o in zip(outer.linear, outer.offset))
    return AffineMap(rows, off, inner.in_dim)


def naive_functional_compose(f: AffineFunctional, m: AffineMap) -> AffineFunctional:
    coeffs = tuple(
        sum((f.coeffs[i] * m.linear[i][j] for i in range(f.dim)), start=F(0))
        for j in range(m.in_dim)
    )
    return AffineFunctional(coeffs, naive_dot(f.coeffs, m.offset) + f.constant)


# plain ints, zeros of both types, and Fractions with mixed denominators, so
# the running common denominator both grows and divides the next one
scalars = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 35])),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)
dims = st.integers(0, 4)


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n).map(tuple)


@st.composite
def maps(draw, in_dim, out_dim):
    rows = tuple(draw(vectors(in_dim)) for _ in range(out_dim))
    return AffineMap(rows, draw(vectors(out_dim)), in_dim)


def same(got, want) -> bool:
    """Equal values, every entry a Fraction."""
    return got == want and all(type(v) is F for v in got)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_dot_matches_the_per_term_sum(data):
    n = data.draw(st.integers(0, 8))
    a, b = data.draw(vectors(n)), data.draw(vectors(n))
    got = dot(a, b)
    assert got == naive_dot(a, b) and type(got) is F
    short = data.draw(st.integers(0, 8).filter(lambda k: k != n))
    with pytest.raises(StructuralError):
        dot(a, data.draw(vectors(short)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_maps_apply_and_compose_like_the_per_term_sums(data):
    n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
    inner = data.draw(maps(n, k))
    outer = data.draw(maps(k, m))
    z = data.draw(vectors(n))
    assert same(inner(z), naive_apply(inner, z))
    composed, want = outer.compose(inner), naive_compose(outer, inner)
    assert composed.in_dim == n and composed.out_dim == m
    assert all(same(r, w) for r, w in zip(composed.linear, want.linear))
    assert len(composed.linear) == len(want.linear)
    assert same(composed.offset, want.offset)
    f = AffineFunctional(data.draw(vectors(k)), data.draw(scalars))
    g, want_g = f.compose(inner), naive_functional_compose(f, inner)
    assert same(g.coeffs, want_g.coeffs) and len(g.coeffs) == n
    assert g.constant == want_g.constant and type(g.constant) is F
    with pytest.raises(StructuralError):
        inner(z + (F(1),))
