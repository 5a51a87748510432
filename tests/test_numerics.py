"""LP kernel: worked optima, certificates, determinism, modes."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sandwichkit.numerics import (
    EQ,
    GE,
    LE,
    NEG_INF,
    POS_INF,
    Constraint,
    LinearProgram,
    LpBuilder,
    StructuralError,
    check_dual_certificate,
    check_farkas_certificate,
    check_point_feasible,
    check_ray_certificate,
    dual_objective,
    ext_sub,
    format_scalar,
    frac,
    lp_solve,
    parse_scalar,
    vec,
)

F = Fraction


def lp(n, obj, sense, rows, bounds=None):
    return LinearProgram(
        n,
        vec(obj),
        sense,
        tuple(Constraint(vec(a), rel, frac(b)) for a, rel, b in rows),
        bounds,
    )


def test_frac_parsing():
    assert frac("2/3") == F(2, 3)
    assert frac("-1.25") == F(-5, 4)
    assert frac(7) == 7
    with pytest.raises(StructuralError):
        frac(0.5)
    with pytest.raises(StructuralError):
        frac("three")
    with pytest.raises(StructuralError):
        frac(True)


def test_scalar_round_trip():
    for s in ("2", "-7/3", "0", "inf", "-inf"):
        assert format_scalar(parse_scalar(s)) == s.lstrip("+")
    assert parse_scalar("0.5") == F(1, 2)


def test_ext_sub():
    assert ext_sub(POS_INF, POS_INF) == 0
    assert ext_sub(POS_INF, F(3)) == POS_INF
    assert ext_sub(F(3), POS_INF) == NEG_INF
    assert ext_sub(F(3), F(1)) == 2


def test_min_with_lower_bound():
    # min x subject to x >= 3
    p = lp(1, [1], "min", [([1], GE, 3)])
    r = lp_solve(p)
    assert r.status == "optimal"
    assert r.value == 3
    assert r.point == (F(3),)
    assert r.dual == (F(1),)
    assert check_dual_certificate(p, r.dual, r.value)


def test_max_over_box():
    # max x + y over [0,1]^2
    p = lp(
        2,
        [1, 1],
        "max",
        [([1, 0], LE, 1), ([0, 1], LE, 1), ([1, 0], GE, 0), ([0, 1], GE, 0)],
    )
    r = lp_solve(p)
    assert r.status == "optimal"
    assert r.value == 2
    assert r.point == (F(1), F(1))
    assert check_dual_certificate(p, r.dual, r.value)


def test_infeasible_with_farkas():
    p = lp(1, [1], "min", [([1], LE, 0), ([1], GE, 1)])
    r = lp_solve(p)
    assert r.status == "infeasible"
    assert r.value == POS_INF
    assert r.farkas is not None
    assert check_farkas_certificate(p, r.farkas)


def test_unbounded_with_ray():
    p = lp(2, [1, 0], "min", [([0, 1], EQ, 2)])
    r = lp_solve(p)
    assert r.status == "unbounded"
    assert r.value == NEG_INF
    assert check_ray_certificate(p, r.ray)


def test_equality_and_negative_rhs():
    # min x + y subject to x - y = -4, x >= -1
    p = lp(2, [1, 1], "min", [([1, -1], EQ, -4), ([1, 0], GE, -1)])
    r = lp_solve(p)
    assert r.status == "optimal"
    assert r.value == 2  # x = -1, y = 3
    assert r.point == (F(-1), F(3))


def test_bounds_field():
    p = lp(2, [-1, -2], "min", [([1, 1], LE, 4)],
           bounds=((F(0), F(3)), (F(0), None)))
    r = lp_solve(p)
    assert r.status == "optimal"
    # min -x - 2y = -(max x + 2y); best is y = 4 - x with x = 0: value -8
    assert r.value == -8
    assert r.point == (F(0), F(4))
    assert check_point_feasible(p, r.point)
    assert check_dual_certificate(p, r.dual, r.value)


def test_crossing_bounds_infeasible():
    p = lp(1, [1], "min", [], bounds=((F(2), F(1)),))
    r = lp_solve(p)
    assert r.status == "infeasible"
    assert check_farkas_certificate(p, r.farkas)


def test_zero_variable_program():
    p = lp(0, [], "min", [([], LE, 1)])
    r = lp_solve(p)
    assert r.status == "optimal"
    assert r.value == 0
    p_bad = lp(0, [], "min", [([], GE, 1)])
    assert lp_solve(p_bad).status == "infeasible"


def test_degenerate_cycling_guard():
    # A classically degenerate program; Bland's rule must terminate.
    p = lp(
        4,
        [F(-3, 4), 150, F(-1, 50), 6],
        "min",
        [
            ([F(1, 4), -60, F(-1, 25), 9], LE, 0),
            ([F(1, 2), -90, F(-1, 50), 3], LE, 0),
            ([0, 0, 1, 0], LE, 1),
            ([1, 0, 0, 0], GE, 0),
            ([0, 1, 0, 0], GE, 0),
            ([0, 0, 1, 0], GE, 0),
            ([0, 0, 0, 1], GE, 0),
        ],
    )
    r = lp_solve(p)
    assert r.status == "optimal"
    assert r.value == F(-1, 20)


def random_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    rnd = lambda: F(rng.randint(-5, 5), rng.randint(1, 3))
    rows = []
    for _ in range(m):
        rows.append(
            (
                [rnd() for _ in range(n)],
                rng.choice([LE, GE, EQ]),
                rnd(),
            )
        )
    # Half the programs get a bounding box, giving a mix of all three statuses.
    if rng.random() < 0.5:
        for j in range(n):
            e = [F(0)] * n
            e[j] = F(1)
            rows.append((e, LE, F(rng.randint(1, 6))))
            rows.append((e, GE, F(-rng.randint(1, 6))))
    return lp(n, [rnd() for _ in range(n)], rng.choice(["min", "max"]), rows)


def test_random_programs_certified():
    """Weak duality: every returned certificate bounds or refutes exactly."""
    rng = random.Random(20260816)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(100):
        p = random_program(rng)
        r = lp_solve(p)
        statuses[r.status] += 1
        if r.status == "optimal":
            assert check_point_feasible(p, r.point)
            assert check_dual_certificate(p, r.dual, r.value)
            assert dual_objective(p, r.dual) == r.value
        elif r.status == "infeasible":
            assert check_farkas_certificate(p, r.farkas)
        else:
            assert check_ray_certificate(p, r.ray)
    # the generator must actually exercise all three outcomes
    assert all(statuses.values()), statuses


def test_determinism():
    rng = random.Random(7)
    for _ in range(20):
        p = random_program(rng)
        assert lp_solve(p) == lp_solve(p)


def test_exact_mode_reports_fractions():
    """The integer tableau rows never leak: every reported number is a Fraction."""
    rng = random.Random(5)
    for _ in range(30):
        r = lp_solve(random_program(rng))
        if r.status == "optimal":
            assert type(r.value) is Fraction
        for cert in (r.point, r.dual, r.farkas, r.ray):
            if cert is not None:
                assert all(type(v) is Fraction for v in cert)


def test_float_mode():
    p = lp(1, [1], "min", [([1], GE, 3)])
    r = lp_solve(p, mode="float")
    assert r.status == "optimal"
    assert abs(r.value - 3.0) < 1e-9
    assert isinstance(r.value, float)
    with pytest.raises(StructuralError):
        lp_solve(p, mode="approx")


def test_float_mode_tracks_exact_on_random_programs():
    rng = random.Random(99)
    for _ in range(40):
        p = random_program(rng)
        re = lp_solve(p)
        rf = lp_solve(p, mode="float", tolerance=F(1, 10**9))
        assert re.status == rf.status
        if re.status == "optimal":
            assert abs(float(re.value) - rf.value) < 1e-6


def test_builder():
    b = LpBuilder("max")
    x = b.var(lo=0)
    y = b.var(lo=0, hi=2)
    b.add({x: 1, y: 1}, LE, 4)
    b.set_objective({x: 2, y: 3}, constant=F(1, 2))
    r = b.solve()
    assert r.status == "optimal"
    # max 2x + 3y + 1/2 with x + y <= 4, y <= 2: x = 2, y = 2
    assert r.value == F(21, 2)
    assert r.point == (F(2), F(2))


def test_builder_merges_repeated_indices():
    b = LpBuilder()
    x = b.var()
    b.add({x: 1}, GE, 1)
    b.set_objective({x: 1})
    lp1 = b.build()
    assert lp1.constraints[0].coeffs == (F(1),)


def test_validation_errors():
    with pytest.raises(StructuralError):
        lp_solve(lp(2, [1], "min", []))
    with pytest.raises(StructuralError):
        lp_solve(lp(1, [1], "min", [([1, 2], LE, 0)]))
    with pytest.raises(StructuralError):
        lp_solve(lp(1, [1], "best", []))


class TestConvexWeights:
    def test_row_order_weight_row_then_coordinates(self):
        b = LpBuilder()
        t = b.var()
        lam = b.convex_weights([(1, 2), (3, "1/2"), (0, 0)], (2, 1))
        assert lam == [1, 2, 3]
        built = b.build()
        assert [c.rel for c in built.constraints] == [EQ, EQ, EQ]
        assert built.constraints[0].coeffs == vec((0, 1, 1, 1))
        assert built.constraints[0].rhs == 1
        assert built.constraints[1].coeffs == vec((0, 1, 3, 0))
        assert built.constraints[1].rhs == 2
        assert built.constraints[2].coeffs == vec((0, 2, "1/2", 0))
        assert built.constraints[2].rhs == 1
        assert built.bounds[t] == (None, None)
        assert all(built.bounds[j] == (0, None) for j in lam)

    def test_extra_merges_into_coordinate_rows(self):
        b = LpBuilder()
        r = b.var()
        # weights get the next columns, 1 and 2; extra may name them too,
        # and its coefficients add to the points' own
        lam = b.convex_weights([(1, 0), (0, 1)], (0, 5),
                               [{r: -1}, {r: 2, 2: "1/2"}])
        rows = b.build().constraints
        assert lam == [1, 2] and len(rows) == 3
        assert rows[1].coeffs == vec((-1, 1, 0)) and rows[1].rhs == 0
        assert rows[2].coeffs == vec((2, 0, "3/2")) and rows[2].rhs == 5

    def test_duals_follow_the_row_order(self):
        # min over the segment [(0, 0), (2, 2)] of 0 and 2 at its ends:
        # the value at (1, 1) is 1 and the coordinate duals are a slope
        b = LpBuilder()
        lam = b.convex_weights([(0, 0), (2, 2)], (1, 1))
        b.set_objective({lam[0]: 0, lam[1]: 2})
        res = b.solve()
        assert res.value == 1
        weight_dual, slope = res.dual[0], res.dual[1:3]
        assert weight_dual + 2 * slope[0] + 2 * slope[1] == 2
        assert weight_dual == 0
        assert slope[0] + slope[1] == 1
