"""Property test of the exact LP kernel against HiGHS (scipy's linprog).

hypothesis draws small programs, derandomised so every run sees the same
ones, with degenerate, redundant and zero rows, infeasible and unbounded
twins, zero-variable and zero-row programs, both senses and bounds.  The
kernel's status must be HiGHS's, its value HiGHS's within 1e-7 relative,
and each result must pass the public certificate checks.  The test is
skipped where hypothesis or scipy is missing; the package itself needs
neither.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from test_numerics import lp  # noqa: E402

from sandwichkit.numerics import (  # noqa: E402
    EQ,
    GE,
    LE,
    LinearProgram,
    check_dual_certificate,
    check_farkas_certificate,
    check_point_feasible,
    check_ray_certificate,
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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(programs())
def test_kernel_matches_highs(p):
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
