"""Property test of the exact LP kernel against HiGHS (scipy's linprog).

hypothesis draws small programs, derandomised so every run sees the same
ones, with degenerate, redundant and zero rows, infeasible and unbounded
twins, zero-variable and zero-row programs, both senses and bounds; and tall
ones, with few variables and many rows, which lp_solve solves through their
transpose.  The kernel's status must be HiGHS's, its value HiGHS's within
1e-7 relative, and each result must pass the public certificate checks.
The tests are skipped where hypothesis or scipy is missing; the package
itself needs neither.
"""
from __future__ import annotations

from fractions import Fraction as F
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from test_numerics import lp  # noqa: E402

from sandwichkit import numerics  # noqa: E402
from sandwichkit.numerics import (  # noqa: E402
    EQ,
    GE,
    LE,
    LinearProgram,
    check_dual_certificate,
    check_farkas_certificate,
    check_point_feasible,
    check_ray_certificate,
    dot,
    lp_solve,
)

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

scalars = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def programs(draw) -> LinearProgram:
    n = draw(st.integers(0, 4))
    vector = st.lists(scalars, min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(vector, st.sampled_from([LE, GE, EQ]), scalars),
                         max_size=5))
    twist = draw(st.sampled_from(["none", "redundant", "degenerate", "infeasible",
                                  "unbounded"]))
    if rows and twist == "redundant":
        # a positive multiple of a row, and one more row summing two rows
        a, rel, b = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.append(([k * x for x in a], rel, k * b))
        (a1, _, b1), (a2, _, b2) = rows[0], rows[-1]
        rows.append(([x + y for x, y in zip(a1, a2)], draw(st.sampled_from([LE, GE])), b1 + b2))
    elif twist == "degenerate" and n:
        # several rows tight at the origin
        for _ in range(draw(st.integers(2, 4))):
            rows.append((draw(vector), draw(st.sampled_from([LE, GE])), F(0)))
    elif rows and twist == "infeasible":
        # the twin of a row: the same left side, pushed past its right side
        a, _, b = draw(st.sampled_from(rows))
        rows += [(a, LE, b - 1), (a, GE, b)]
    bounds = None
    if twist != "unbounded" and draw(st.booleans()):
        side = st.one_of(st.none(), scalars)
        bounds = tuple(draw(st.tuples(side, side)) for _ in range(n))
    return lp(n, draw(vector), draw(st.sampled_from(["min", "max"])), rows, bounds)


def highs(p: LinearProgram) -> tuple[str, float | None]:
    """(status, value) of p from HiGHS; for n = 0, straight from the rows."""
    if p.num_vars == 0:
        holds = {LE: lambda b: 0 <= b, GE: lambda b: 0 >= b, EQ: lambda b: b == 0}
        if all(holds[c.rel](c.rhs) for c in p.constraints):
            return "optimal", 0.0
        return "infeasible", None
    sign = 1 if p.sense == "min" else -1
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in p.constraints:
        row = [float(x) for x in c.coeffs]
        if c.rel == EQ:
            a_eq.append(row)
            b_eq.append(float(c.rhs))
        else:
            s = 1 if c.rel == LE else -1
            a_ub.append([s * x for x in row])
            b_ub.append(s * float(c.rhs))
    bounds = [
        (None if lo is None else float(lo), None if hi is None else float(hi))
        for lo, hi in (p.bounds or [(None, None)] * p.num_vars)
    ]
    res = linprog(
        [sign * float(c) for c in p.objective],
        A_ub=a_ub or None, b_ub=b_ub or None, A_eq=a_eq or None, b_eq=b_eq or None,
        bounds=bounds, method="highs",
    )
    assert res.status in HIGHS_STATUS, res.message
    status = HIGHS_STATUS[res.status]
    return status, sign * res.fun if status == "optimal" else None


def agrees_with_highs(p: LinearProgram) -> str:
    """p's status from lp_solve, after checking it, the value and the
    certificate against HiGHS and the public checks."""
    r = lp_solve(p)
    status, value = highs(p)
    assert r.status == status
    if status == "optimal":
        assert abs(float(r.value) - value) <= 1e-7 * max(1.0, abs(value))
        assert check_point_feasible(p, r.point)
        assert check_dual_certificate(p, r.dual, r.value)
    elif status == "infeasible":
        assert check_farkas_certificate(p, r.farkas)
    else:
        assert check_ray_certificate(p, r.ray)
    return status


@settings(derandomize=True, max_examples=400, deadline=None)
@given(programs())
def test_kernel_matches_highs(p):
    agrees_with_highs(p)


@st.composite
def tall_programs(draw) -> LinearProgram:
    """Up to 3 variables and 8 to 40 rows, so that lp_solve solves them
    through their transpose: rows of every relation through an anchor point,
    bounds x_j >= 0 (folded) and others, and twins.  "infeasible" adds a
    row's pushed-apart twin; "unbounded" makes every row, bound and the
    objective recede along a direction d; "both" does the two at once with
    a twin orthogonal to d, so that the program and its transpose are both
    infeasible."""
    n = draw(st.integers(0, 3))
    vector = st.lists(scalars, min_size=n, max_size=n)
    twist = draw(st.sampled_from(["none", "infeasible", "unbounded", "both"]))
    sense = draw(st.sampled_from(["min", "max"]))
    folded = [draw(st.booleans()) for _ in range(n)]
    anchor = [abs(x) if z else x for x, z in zip(draw(vector), folded)]
    d = [abs(x) if z else x for x, z in zip(draw(vector), folded)]
    receding = twist in ("unbounded", "both") and any(d)
    rows = []
    for _ in range(draw(st.integers(8, 40))):
        a = draw(vector)
        if receding and dot(a, d):
            rel = GE if dot(a, d) > 0 else LE
        else:
            rel = draw(st.sampled_from([LE, GE, EQ]))
        gap = draw(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3)]))
        b = dot(a, anchor)
        rows.append((a, rel, b - gap if rel == GE else b + gap if rel == LE else b))
    if twist in ("infeasible", "both"):
        level = [(a, b) for a, _, b in rows if not receding or not dot(a, d)]
        if level:
            a, b = draw(st.sampled_from(level))
            rows += [(a, LE, b - 1), (a, GE, b)]
    bounds = [(F(0) if z else None, None) for z in folded]
    if not receding and draw(st.booleans()):
        bounds = [(lo, draw(st.one_of(st.none(), st.just(x + 2)))) for (lo, _), x in
                  zip(bounds, anchor)]
    objective = draw(vector)
    if receding:
        # gain 1 per unit along d, in the sense's direction
        norm = dot(d, d)
        step = (-1 if sense == "min" else 1) - dot(objective, d)
        objective = [c + step * x / norm for c, x in zip(objective, d)]
    return lp(n, objective, sense, rows, bounds)


def test_tall_programs_match_highs():
    """Tall programs, solved through their transpose, agree with HiGHS as
    the small ones do.  Every status occurs, and so does a transpose that is
    infeasible, after which the program is solved directly: it is then
    unbounded, or infeasible with its transpose."""
    paths = set()
    transposed = numerics._solve_transposed
    last = []

    def recording(*args):
        out = transposed(*args)
        last.append("fallback" if out is None else out[0])
        return out

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(tall_programs())
    def check(p):
        last.clear()
        status = agrees_with_highs(p)
        paths.add((*last, status))

    with mock.patch.object(numerics, "_solve_transposed", recording):
        check()
    assert paths == {("optimal", "optimal"), ("infeasible", "infeasible"),
                     ("fallback", "unbounded"), ("fallback", "infeasible")}, paths
