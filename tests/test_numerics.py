"""LP kernel: worked optima, certificates, determinism, and agreement with
the gcd kernel it replaced."""
from __future__ import annotations

import functools
import math
import pickle
import random
import re
from fractions import Fraction
from unittest import mock

import pytest

from sandwichkit import numerics
from sandwichkit.cli import encode_scalar
from sandwichkit.numerics import (
    EQ,
    GE,
    LE,
    NEG_INF,
    POS_INF,
    Constraint,
    LinearProgram,
    LpBuilder,
    LpResult,
    StructuralError,
    check_dual_certificate,
    check_farkas_certificate,
    check_point_feasible,
    check_ray_certificate,
    ext_sub,
    frac,
    lp_solve,
    parse_scalar,
    vec,
)

F = Fraction


def lp(n, obj, sense, rows, bounds=None):
    """The program of dense rational data, assembled by LpBuilder: bounds
    (or free variables), then the rows, then the objective."""
    b = LpBuilder(sense)
    for lo, hi in bounds or [(None, None)] * n:
        b.var(lo, hi)
    for a, rel, rhs in rows:
        b.add(dict(enumerate(a)), rel, rhs)
    b.set_objective(dict(enumerate(obj)))
    return b.build()


# The naive reference for the kernel's exact certificate checks: one Fraction
# per entry, on the expanded rows as rationals.  The kernel checks the same
# predicates in integer arithmetic over common denominators.

def expanded_rows(p: LinearProgram) -> list:
    """Constraint rows plus bound rows, in certificate order."""
    rows = [(list(c.coeffs), c.rel, c.rhs) for c in p.constraints]
    for j, (lo, hi) in enumerate(p.bounds or ()):
        for v, rel in ((lo, GE), (hi, LE)):
            if v is not None:
                coeffs = [F(0)] * p.num_vars
                coeffs[j] = F(1)
                rows.append((coeffs, rel, v))
    return rows


def row_dot(a, x) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, x)), start=F(0))


def combine_rows(rows, weights, n) -> list:
    out = [F(0)] * n
    for y, (a, _, _) in zip(weights, rows):
        for j, aj in enumerate(a):
            out[j] += y * aj
    return out


def dual_sign_ok(rel, y, minimize) -> bool:
    if rel == EQ:
        return True
    if minimize:
        return y <= 0 if rel == LE else y >= 0
    return y >= 0 if rel == LE else y <= 0


def naive_feasible(p, point) -> bool:
    for a, rel, b in expanded_rows(p):
        s = row_dot(a, point)
        if (rel == LE and s > b) or (rel == GE and s < b) or (rel == EQ and s != b):
            return False
    return True


def naive_dual(p, duals, value) -> bool:
    rows = expanded_rows(p)
    if combine_rows(rows, duals, p.num_vars) != list(p.objective):
        return False
    if not all(dual_sign_ok(rel, y, p.sense == "min") for y, (_, rel, _) in zip(duals, rows)):
        return False
    return row_dot(duals, [b for _, _, b in rows]) == value


def naive_farkas(p, cert) -> bool:
    rows = expanded_rows(p)
    if any(combine_rows(rows, cert, p.num_vars)):
        return False
    if not all(dual_sign_ok(rel, y, True) for y, (_, rel, _) in zip(cert, rows)):
        return False
    return row_dot(cert, [b for _, _, b in rows]) > 0


def naive_ray(p, ray) -> bool:
    for a, rel, _ in expanded_rows(p):
        s = row_dot(a, ray)
        if (rel == LE and s > 0) or (rel == GE and s < 0) or (rel == EQ and s != 0):
            return False
    gain = row_dot(p.objective, ray)
    return gain < 0 if p.sense == "min" else gain > 0


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
        assert encode_scalar(parse_scalar(s)) == s.lstrip("+")
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
    # Beale's program, the classic one on which the textbook largest-
    # coefficient rule cycles.  From the all-artificial basis it solves here
    # in 5 pivots, short of the fallback to Bland's rule;
    # test_degenerate_phase_finishes_under_blands_rule reaches the fallback.
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


def test_builder():
    b = LpBuilder("max")
    x = b.var(lo=0)
    y = b.var(lo=0, hi=2)
    b.add({x: 1, y: 1}, LE, 4)
    b.set_objective({x: 2, y: 3})
    r = b.solve()
    assert r.status == "optimal"
    # max 2x + 3y with x + y <= 4, y <= 2: x = 2, y = 2
    assert r.value == 10
    assert r.point == (F(2), F(2))


def test_builder_merges_repeated_indices():
    b = LpBuilder()
    x = b.var()
    b.add({x: 1}, GE, 1)
    b.set_objective({x: 1})
    lp1 = b.build()
    assert lp1.constraints[0].coeffs == (F(1),)


class TestBuilderIndices:
    """Every entry point refuses a variable index the builder never created."""

    def test_add(self):
        b = LpBuilder("max")
        b.var()
        y = b.var(hi=3)
        # -1 would name the last variable if it reached a list index
        for bad in (-1, 2, True):
            with pytest.raises(StructuralError):
                b.add({bad: 1}, LE, 1)
        b.set_objective({y: 1})
        assert b.solve().value == 3

    def test_convex_weights_extra(self):
        b = LpBuilder()
        with pytest.raises(StructuralError):
            b.convex_weights([(1,), (0,)], (0,), [{2: 1}])

    def test_set_objective(self):
        b = LpBuilder()
        b.var()
        with pytest.raises(StructuralError):
            b.set_objective({1: 1})

    def test_add_objective_term(self):
        b = LpBuilder()
        x = b.var()
        b.add_objective_term(x, 1)
        b.add_objective_term(x, 2)
        assert b.build().objective == (F(3),)
        with pytest.raises(StructuralError):
            b.add_objective_term(-1, 1)


def test_dot_refuses_binary_floats():
    with pytest.raises(StructuralError):
        numerics.dot((F(1, 3), 0.5), (1, 2))
    with pytest.raises(StructuralError):
        numerics.dot((1,), (2.0,))


def test_validation_errors():
    """The builder refuses an objective or a row wider than its variables,
    and an unknown sense."""
    with pytest.raises(StructuralError):
        lp(1, [1, 2], "min", [])
    with pytest.raises(StructuralError):
        lp(1, [1], "min", [([1, 2], LE, 0)])
    with pytest.raises(StructuralError):
        lp(1, [1], "best", [])


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


def kernel_rows(monkeypatch, b: LpBuilder) -> list:
    """The rows b's program hands to the simplex kernel."""
    seen = []
    solve = numerics._solve_rows

    def recording(rows, *args):
        seen.extend(rows)
        return solve(rows, *args)

    monkeypatch.setattr(numerics, "_solve_rows", recording)
    b.solve()
    return seen


def test_a_cancelled_coefficient_reaches_the_kernel_as_no_entry(monkeypatch):
    """Folding x_j >= 0 into its column needs a bound row to hold exactly one
    entry, so no row may carry an explicit zero: not where extra cancels a
    point's coefficient, nor where a coefficient is given as 0."""
    b = LpBuilder()
    # coordinate 0: lam_0 + lam_1 / 2 - lam_0; coordinate 1: 3 lam_1 - 3 lam_1 + 2 lam_0
    lam = b.convex_weights([(1, 0), ("1/2", 3)], (1, 2), [{0: -1}, {1: -3, 0: 2}])
    b.add({lam[0]: 0, lam[1]: 1}, GE, 0)
    rows = kernel_rows(monkeypatch, b)
    assert rows == [({0: 1, 1: 1}, EQ, 1, 1), ({1: 1}, EQ, 2, 2), ({0: 2}, EQ, 2, 1),
                    ({1: 1}, GE, 0, 1), ({0: 1}, GE, 0, 1), ({1: 1}, GE, 0, 1)]


def test_builder_programs_solve_like_their_rational_data():
    """Programs from every LpBuilder entry point solve, and read back the
    rational data tracked here apart from the builder as their objective,
    constraints and bounds: rows from add with each relation, convex
    weights over points or their PointColumns with and without extra terms,
    an objective set and then added to, and zero, nonzero, lower and upper
    bounds.  Each kernel row is an integer image of its rational row."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scalar = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3,
                                                     max_denominator=4))
    side = st.one_of(st.none(), st.just(F(0)), scalar)
    seen = set()

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        sense = data.draw(st.sampled_from(["min", "max"]))
        b = LpBuilder(sense)
        bounds: list = []
        rows: list = []

        def coeffs(n):
            if not n:
                return {}
            picked = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
            return {j: data.draw(scalar) for j in picked}

        for _ in range(data.draw(st.integers(1, 4))):
            step = data.draw(st.sampled_from(["var", "block", "add", "weights"]))
            if step in ("var", "block") or not bounds:
                lo, hi = data.draw(side), data.draw(side)
                count = 1 if step == "var" else data.draw(st.integers(0, 3))
                got = [b.var(lo, hi)] if count == 1 else b.block(count, lo, hi)
                assert got == list(range(len(bounds), len(bounds) + count))
                bounds += [(lo, hi)] * count
                seen.update(k for k, v in (("lo", lo), ("hi", hi)) if v)
            elif step == "add":
                rel = data.draw(st.sampled_from([LE, GE, EQ]))
                row, rhs = coeffs(len(bounds)), data.draw(scalar)
                b.add(row, rel, rhs)
                rows.append((row, rel, rhs))
                seen.add(rel)
            else:
                dim = data.draw(st.integers(0, 2))
                points = data.draw(st.lists(st.tuples(*[scalar] * dim), max_size=4))
                target = data.draw(st.tuples(*[scalar] * dim))
                extra = None
                if data.draw(st.booleans()):
                    # extra may name the new weights too
                    extra = [coeffs(len(bounds) + len(points)) for _ in range(dim)]
                    seen.add("extra")
                given = points
                if data.draw(st.booleans()):
                    given = numerics.PointColumns(points, dim)
                    seen.add("columns")
                lam = b.convex_weights(given, target, extra)
                bounds += [(F(0), None)] * len(points)
                rows.append((dict.fromkeys(lam, F(1)), EQ, F(1)))
                for c in range(dim):
                    row = {j: p[c] for j, p in zip(lam, points)}
                    for j, v in (extra[c] if extra else {}).items():
                        row[j] = row.get(j, 0) + v
                    rows.append((row, EQ, target[c]))
        n = len(bounds)
        objective = coeffs(n)
        b.set_objective(objective)
        for j, v in coeffs(n).items():
            b.add_objective_term(j, v)
            objective[j] = objective.get(j, 0) + v

        def dense(row):
            return tuple(F(row.get(j, 0)) for j in range(n))

        built = b.build()
        assert built.objective == dense(objective)
        assert built.constraints == tuple(
            Constraint(dense(row), rel, F(rhs)) for row, rel, rhs in rows)
        if all(pair == (None, None) for pair in bounds):
            assert built.bounds is None
        else:
            assert built.bounds == tuple(bounds)
        result = lp_solve(built)
        expanded = [(dense(row), rel, F(rhs)) for row, rel, rhs in rows]
        for j, (lo, hi) in enumerate(bounds):
            for v, rel in ((lo, GE), (hi, LE)):
                if v is not None:
                    expanded.append((dense({j: 1}), rel, v))
        kernel = built._rows
        assert len(kernel) == len(expanded)
        for (a, rel, rhs, s), (want, want_rel, want_rhs) in zip(kernel, expanded):
            assert s > 0 and rel == want_rel and F(rhs, s) == want_rhs
            assert all(a.values()) and dense({j: F(x, s) for j, x in a.items()}) == want
        seen.add(result.status)

    check()
    assert seen >= {LE, GE, EQ, "lo", "hi", "extra", "columns",
                    "optimal", "infeasible", "unbounded"}, seen


class TestCertificateLengths:
    """A vector of the wrong length is refused, not cut to fit by zip."""

    def test_point(self):
        p = lp(2, [-1, -2], "min", [([1, 1], LE, 4)], bounds=((F(0), F(3)), (F(0), None)))
        r = lp_solve(p)
        with pytest.raises(StructuralError):
            check_point_feasible(p, r.point + (F(99),))
        with pytest.raises(StructuralError):
            check_point_feasible(p, r.point[:1])

    def test_dual(self):
        p = lp(1, [1], "min", [([1], GE, 3)])
        r = lp_solve(p)
        with pytest.raises(StructuralError):
            check_dual_certificate(p, r.dual + (F(5),), r.value)

    def test_farkas(self):
        p = lp(1, [1], "min", [([1], LE, 0), ([1], GE, 1)])
        r = lp_solve(p)
        with pytest.raises(StructuralError):
            check_farkas_certificate(p, r.farkas + (F(-7),))

    def test_ray(self):
        p = lp(2, [1, 0], "min", [([0, 1], EQ, 2)])
        r = lp_solve(p)
        with pytest.raises(StructuralError):
            check_ray_certificate(p, r.ray + (F(3),))


def test_exact_checks_refuse_binary_floats():
    p = lp(1, [1], "min", [([1], GE, 3)])
    with pytest.raises(StructuralError):
        check_point_feasible(p, (3.0,))


def corner_program(rng: random.Random) -> LinearProgram:
    """A seeded program with zero coefficients, a redundant row (a positive
    multiple of another row), bound rows more often than not, and either
    sense."""
    n = rng.randint(1, 4)

    def rnd():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-5, 5), rng.randint(1, 3))

    rows = [
        ([rnd() for _ in range(n)], rng.choice([LE, GE, EQ]), rnd())
        for _ in range(rng.randint(1, 5))
    ]
    a, rel, b = rng.choice(rows)
    k = F(rng.randint(1, 3), rng.randint(1, 2))
    rows.append(([k * x for x in a], rel, k * b))
    bounds = None
    if rng.random() < 0.6:
        bounds = tuple(
            (rng.choice([None, F(0), F(-rng.randint(1, 4), 2)]),
             rng.choice([None, F(rng.randint(0, 5), rng.randint(1, 2))]))
            for _ in range(n)
        )
    return lp(n, [rnd() for _ in range(n)], rng.choice(["min", "max"]), rows, bounds)


def corrupted(rng: random.Random, cert: tuple) -> list:
    """cert with one entry moved, one nonzero entry's sign flipped, and all
    entries doubled (which keeps a Farkas vector or a ray valid)."""
    out = [tuple(2 * v for v in cert)]
    if cert:
        moved = list(cert)
        moved[rng.randrange(len(cert))] += F(rng.choice([-1, 1]), rng.randint(1, 3))
        out.append(tuple(moved))
    nonzero = [i for i, v in enumerate(cert) if v]
    if nonzero:
        flipped = list(cert)
        i = rng.choice(nonzero)
        flipped[i] = -flipped[i]
        out.append(tuple(flipped))
    return out


def test_certificate_checks_agree_with_the_naive_reference():
    """True and corrupted certificates of all three statuses, both senses,
    bound rows, redundant rows and zero coefficients: the integer checks
    give the naive Fraction checks' verdict every time, and both verdicts
    occur for each check."""
    rng = random.Random(20261018)
    verdicts = set()
    statuses = set()

    def agree(name, check, naive, *args):
        got = check(*args)
        assert got == naive(*args), (name, args)
        verdicts.add((name, got))

    for _ in range(300):
        p = corner_program(rng)
        r = lp_solve(p)
        statuses.add(r.status)
        if r.status == "optimal":
            for x in (r.point, *corrupted(rng, r.point)):
                agree("point", check_point_feasible, naive_feasible, p, x)
            for y in (r.dual, *corrupted(rng, r.dual)):
                for v in (r.value, r.value + F(1, 7), -r.value - 1):
                    agree("dual", check_dual_certificate, naive_dual, p, y, v)
        elif r.status == "infeasible":
            for y in (r.farkas, *corrupted(rng, r.farkas)):
                agree("farkas", check_farkas_certificate, naive_farkas, p, y)
        else:
            for d in (r.ray, *corrupted(rng, r.ray)):
                agree("ray", check_ray_certificate, naive_ray, p, d)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert verdicts == {(name, v) for name in ("point", "dual", "farkas", "ray")
                        for v in (True, False)}


def lowered(image, _rows):
    """The image (V, W) of a vector with every entry V_i / W lowered by 1."""
    nums, den = image
    return [v - den for v in nums], den


def solved_with_corruption(monkeypatch, program, slot, corrupt, kernel="_solve_rows"):
    """lp_solve(program) with the output of the named kernel (or of
    `_solve_transposed`, the images mapped back from the transpose) at slot
    passed through corrupt(image, rows)."""
    solve = getattr(numerics, kernel)

    def wrong(rows, *args):
        out = list(solve(rows, *args))
        out[slot] = corrupt(out[slot], rows)
        return tuple(out)

    monkeypatch.setattr(numerics, kernel, wrong)
    return lp_solve(program)


@pytest.mark.parametrize(
    "program, slot, message",
    [
        (lp(1, [1], "min", [([1], LE, 0), ([1], GE, 1)]), 1,
         "Farkas certificate failed verification"),
        (lp(2, [1, 0], "min", [([0, 1], EQ, 2)]), 1,
         "unbounded direction failed verification"),
        (lp(1, [1], "min", [([1], GE, 3)]), 1, "optimal point failed feasibility check"),
        (lp(1, [1], "min", [([1], GE, 3)]), 2, "dual certificate failed verification"),
    ],
)
def test_lp_solve_refuses_a_corrupted_result(monkeypatch, program, slot, message):
    """Each of lp_solve's four re-checks stops a wrong kernel result: a point,
    a ray, or multipliers (Z, E) moved off the truth."""
    with pytest.raises(RuntimeError, match=re.escape(message)):
        solved_with_corruption(monkeypatch, program, slot, lowered)


def test_lp_solve_refuses_a_folded_multiplier_of_the_wrong_sign(monkeypatch):
    """The x_0 >= 0 row folded into its column gets its multiplier from a
    reduced cost, not from a tableau row; a sign flipped there is caught."""
    # min x over 0 <= x <= 5: the folded row x >= 0 carries the dual 1
    program = lp(1, [1], "min", [([1], LE, 5)], ((F(0), None),))

    def flipped(image, rows):
        nums, den = list(image[0]), image[1]
        i = rows.index(({0: 1}, GE, 0, 1))
        assert nums[i], "the folded row's multiplier must be nonzero to be flipped"
        nums[i] = -nums[i]
        return nums, den

    assert lp_solve(program).dual == (F(0), F(1))
    with pytest.raises(RuntimeError, match="dual certificate failed verification"):
        solved_with_corruption(monkeypatch, program, 2, flipped)


def first_sign_flipped(image, _rows):
    """The image (V, W) with the sign of its first nonzero V_i flipped."""
    nums, den = list(image[0]), image[1]
    i = next(i for i, v in enumerate(nums) if v)
    nums[i] = -nums[i]
    return nums, den


# tall: more general rows than _tall(1) = 2, so solved through the transpose
TALL_OPTIMUM = lp(1, [1], "min", [([1], GE, 3), ([1], LE, 10), ([2], GE, 5), ([1], GE, 1)])
TALL_INFEASIBLE = lp(1, [0], "min", [([1], LE, 0), ([1], GE, 1), ([1], LE, 5), ([1], GE, -2)])


@pytest.mark.parametrize(
    "program, slot, message",
    [
        (TALL_OPTIMUM, 1, "optimal point failed feasibility check"),
        (TALL_OPTIMUM, 2, "dual certificate failed verification"),
        (TALL_INFEASIBLE, 1, "Farkas certificate failed verification"),
    ],
)
def test_lp_solve_refuses_a_corrupted_transposed_result(monkeypatch, program, slot, message):
    """The images mapped back from the transpose meet the same re-checks on
    the program's own rows: a point, a multiplier or a Farkas entry with its
    sign flipped is refused."""
    assert lp_solve(program).status == ("optimal" if program is TALL_OPTIMUM else "infeasible")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        solved_with_corruption(monkeypatch, program, slot, first_sign_flipped,
                               "_solve_transposed")


# The reference for the Bareiss kernel: the gcd kernel it replaced, step for
# step and with the same pivot rule, with its names prefixed and its
# comments and iteration cap left out.
# Each tableau row holds its own positive denominator last and is divided by
# its gcd after every pivot; the rational rows, and so every pivot, point and
# certificate, are the same.

def ref_reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def ref_unit_at(row: list[int], col: int) -> None:
    """Divide row, in place, by its entry at col, so that it reads 1 there."""
    p = row[col]
    out = row[:-1] + [p] if p > 0 else [-x for x in row[:-1]] + [-p]
    row[:] = ref_reduced(out)


def ref_eliminate(row: list[int], unit: list[int], col: int) -> None:
    """Subtract, in place, row's entry at col times unit, which reads 1 at col."""
    f, ud = row[col], unit[-1]
    out = [x * ud - f * y for x, y in zip(row, unit)]
    out[-1] = row[-1] * ud
    row[:] = ref_reduced(out)


def ref_split_back(vals: dict, pos: list[int], neg: list[int]) -> list[Fraction]:
    """x_j = x+_j - x-_j from {column: (numerator, denominator)}."""
    out = []
    for p, q in zip(pos, neg):
        a, b = vals.get(p, (0, 1))
        c, d = vals.get(q, (0, 1))
        out.append(Fraction(a * d - c * b, b * d))
    return out


class RefUnbounded(Exception):
    def __init__(self, col: int):
        self.col = col


def ref_solve_rows(rows, obj, minimize, n, degenerate_limit=50):
    """`numerics._solve_rows` as it was with one denominator per row.

    It prices the real columns (x+-, slacks) by Dantzig's rule, the smallest
    index on ties, and the artificials by Bland's rule only when no real
    column prices negative; after degenerate_limit pivots on a zero
    right-hand side, a phase finishes under Bland's rule alone."""
    # `_solve_rows` takes each row's nonzero entries as {column: numerator};
    # this kernel reads the dense rows it was written for
    rows = [([a.get(j, 0) for j in range(n)], rel, b, s) for a, rel, b, s in rows]
    m = len(rows)
    sign = 1 if minimize else -1

    bound_row: dict[int, int] = {}
    is_bound = [False] * m
    for i, (a, rel, b, s) in enumerate(rows):
        if rel != GE or b:
            continue
        j = -1
        simple = True
        for k, ak in enumerate(a):
            if not ak:
                continue
            if j >= 0 or ak != s:
                simple = False
                break
            j = k
        if simple and j >= 0 and j not in bound_row:
            bound_row[j] = i
            is_bound[i] = True
    gen = [i for i in range(m) if not is_bound[i]]
    mt = len(gen)

    pos = [0] * n
    neg = [-1] * n
    nv = 0
    for j in range(n):
        pos[j] = nv
        nv += 1
        if j not in bound_row:
            neg[j] = nv
            nv += 1
    n_slack = sum(1 for i in gen if rows[i][1] != EQ)
    ns = nv + n_slack
    ncol = ns + mt

    def split_row(coeffs, width):
        row = [0] * width
        for j, v in enumerate(coeffs):
            row[pos[j]] = v
            if neg[j] >= 0:
                row[neg[j]] = -v
        return row

    tab: list[list[int]] = []
    flips: list[int] = []
    slack_idx = nv
    for t, i in enumerate(gen):
        a, rel, b, s = rows[i]
        row = split_row(a, ncol + 1)
        if rel != EQ:
            row[slack_idx] = s if rel == LE else -s
            slack_idx += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
            flips.append(-1)
        else:
            flips.append(1)
        row[ns + t] = s
        row[ncol] = b
        row.append(s)
        tab.append(ref_reduced(row))
    basis = [ns + t for t in range(mt)]

    def pivot(rc, r, col):
        prow = tab[r]
        ref_unit_at(prow, col)
        for other in (*tab, rc):
            if other is not prow and other[col]:
                ref_eliminate(other, prow, col)
        basis[r] = col

    def reduced_costs(rc):
        for r, row in enumerate(tab):
            if rc[basis[r]]:
                ref_eliminate(rc, row, basis[r])
        return rc

    def leaving(enter):
        leave = -1
        best_b, best_e = 0, 1
        for r, row in enumerate(tab):
            e = row[enter]
            if e > 0:
                b = row[ncol]
                lhs, rhs = b * best_e, best_b * e
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    best_b, best_e, leave = b, e, r
        return leave

    def run(rc, enter_limit):
        degenerate = 0
        while True:
            dantzig = degenerate < degenerate_limit
            improving = [j for j in range(ns) if rc[j] < 0]
            if dantzig and improving:
                enter = min(improving, key=lambda j: (rc[j], j))
            else:
                first = ns if dantzig else 0
                enter = next((j for j in range(first, enter_limit) if rc[j] < 0), -1)
            if enter < 0:
                return
            leave = leaving(enter)
            if leave < 0:
                raise RefUnbounded(enter)
            degenerate += tab[leave][ncol] == 0
            pivot(rc, leave, enter)

    rc1 = reduced_costs([0] * ns + [1] * mt + [0, 1])
    run(rc1, ncol)

    if any(tab[r][ncol] > 0 for r in range(len(tab)) if basis[r] >= ns):
        d = rc1[-1]
        farkas = [0] * m
        for t, i in enumerate(gen):
            farkas[i] = Fraction(flips[t] * (d - rc1[ns + t]), d)
        for j, i in bound_row.items():
            farkas[i] = Fraction(rc1[pos[j]], d)
        return ("infeasible", farkas)

    dropped: list[int] = []
    for r in range(len(tab)):
        if basis[r] >= ns:
            col = next((j for j in range(ns) if tab[r][j]), -1)
            if col >= 0:
                pivot(rc1, r, col)
            else:
                dropped.append(r)
    for r in reversed(dropped):
        del tab[r]
        del basis[r]

    c, s = obj
    rc2 = reduced_costs(ref_reduced(split_row([sign * x for x in c], ncol + 1) + [s]))
    try:
        run(rc2, ns)
    except RefUnbounded as ub:
        vals = {ub.col: (1, 1)}
        for r, row in enumerate(tab):
            vals[basis[r]] = (-row[ub.col], row[-1])
        return ("unbounded", ref_split_back(vals, pos, neg))

    point = ref_split_back({basis[r]: (row[ncol], row[-1]) for r, row in enumerate(tab)},
                           pos, neg)
    d = rc2[-1]
    duals = [0] * m
    for t, i in enumerate(gen):
        duals[i] = Fraction(-sign * flips[t] * rc2[ns + t], d)
    for j, i in bound_row.items():
        duals[i] = Fraction(sign * rc2[pos[j]], d)
    return ("optimal", point, duals)


def ref_image(values) -> tuple[list[int], int]:
    """(V, W) with values == V / W and one W > 0."""
    den = math.lcm(*[F(v).denominator for v in values])
    return [(v * den).numerator for v in values], den


def ref_solve_images(rows, obj, minimize, n, fold=None, degenerate_limit=50):
    """`ref_solve_rows` in `numerics._solve_rows`' return contract: the point or
    ray as (X, D) with x = X / D, and the multipliers y as (Z, E) with
    y_i / s_i = Z_i / E.  fold, the folded rows lp_solve may hand over, is
    found again by the reference itself."""
    status, *parts = ref_solve_rows(rows, obj, minimize, n, degenerate_limit)

    def multipliers(y):
        return ref_image([F(yi) / s for yi, (_, _, _, s) in zip(y, rows)])

    if status == "optimal":
        return (status, ref_image(parts[0]), multipliers(parts[1]))
    if status == "infeasible":
        return (status, multipliers(parts[0]))
    return (status, ref_image(parts[0]))


def test_bareiss_kernel_matches_the_gcd_kernel():
    """Point, duals, Farkas vector, ray, status and value are equal to the
    gcd kernel's on small programs with equality, <= and >= rows, bound
    rows (folded x_j >= 0 ones among them), redundant rows and zeros; all
    three statuses occur."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scalar = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5,
                                                     max_denominator=4))
    side = st.one_of(st.none(), st.just(F(0)), scalar)
    seen = {"status": set(), "rel": set(), "bounds": False}

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4), "n")
        vector = st.lists(scalar, min_size=n, max_size=n)
        rows = data.draw(st.lists(st.tuples(vector, st.sampled_from([LE, GE, EQ]), scalar),
                                  min_size=1, max_size=5), "rows")
        for _ in range(data.draw(st.integers(0, 2), "redundant")):
            # a positive multiple of a row, or the sum of two equality rows
            (a, rel, b), (a2, rel2, b2) = (data.draw(st.sampled_from(rows)) for _ in "ab")
            if rel == rel2 == EQ and data.draw(st.booleans()):
                rows.append(([x + y for x, y in zip(a, a2)], EQ, b + b2))
            else:
                k = data.draw(st.fractions(min_value=F(1, 3), max_value=3), "k")
                rows.append(([k * x for x in a], rel, k * b))
        bounds = data.draw(st.one_of(st.none(), st.tuples(*[st.tuples(side, side)] * n)))
        p = lp(n, data.draw(vector, "objective"), data.draw(st.sampled_from(["min", "max"])),
               rows, bounds)

        got = lp_solve(p)
        with mock.patch.object(numerics, "_solve_rows", ref_solve_images):
            want = lp_solve(p)
        # LpResult equality compares status, value, point, duals, Farkas
        # vector and ray
        assert got == want
        seen["status"].add(got.status)
        seen["rel"].update(rel for _, rel, _ in rows)
        seen["bounds"] |= bounds is not None and any(lo == 0 for lo, _ in bounds)

    check()
    assert seen == {"status": {"optimal", "infeasible", "unbounded"},
                    "rel": {LE, GE, EQ}, "bounds": True}, seen


def test_degenerate_phase_finishes_under_blands_rule():
    """60 homogeneous rows a . x <= 0 over 6 variables: every pivot is
    degenerate, and phase 1 makes more than 50 of them, so it finishes under
    Bland's rule.  The kernel's result is exactly the reference kernel's,
    and the reference without the fallback returns another dual, so the
    fallback decides this result.  The kernel is called on the rows
    directly: lp_solve solves so tall a program through its transpose."""
    rng = random.Random(4)
    n = 6
    rows = [([rng.randint(-3, 3) for _ in range(n)], LE, 0) for _ in range(60)]
    p = lp(n, [rng.randint(-3, 3) for _ in range(n)], rng.choice(["min", "max"]), rows)

    def solved(kernel):
        out = kernel(p._rows, p._obj, p.sense == "min", n)
        r = eager_result(out[0], F(0), p._rows, out)
        assert r.status == "optimal" and numerics.dot(p.objective, r.point) == 0
        return r

    got = solved(numerics._solve_rows)
    assert got == solved(ref_solve_images)
    assert got.dual != solved(functools.partial(ref_solve_images, degenerate_limit=math.inf)).dual
    r = lp_solve(p)
    assert (r.status, r.value) == ("optimal", 0)


def eager_result(status, value, rows, out) -> LpResult:
    """The LpResult of a kernel output, with its Fraction tuples made at once."""
    def ratios(image):
        nums, den = image
        return tuple(F(x, den) for x in nums)

    def multipliers(image):
        nums, den = image
        return tuple(F(z * s, den) for z, (_, _, _, s) in zip(nums, rows))

    if status == "optimal":
        return LpResult(status, value, point=ratios(out[1]), dual=multipliers(out[2]))
    if status == "infeasible":
        return LpResult(status, value, farkas=multipliers(out[1]))
    return LpResult(status, value, ray=ratios(out[1]))


def solved_with_kernel_output(monkeypatch, programs):
    """(program, result, rows, images) for each program: the rows and the
    integer images lp_solve makes its result of (the kernel's own, or those
    read off the transpose's solve), in `_solve_rows`' return shape."""
    seen = []
    of_images = LpResult._of_images

    def recording(status, value, rows, x=None, y=None):
        seen.append((rows, (status, *[v for v in (x, y) if v is not None])))
        return of_images(status, value, rows, x=x, y=y)

    monkeypatch.setattr(LpResult, "_of_images", recording)
    out = []
    for p in programs:
        r = lp_solve(p)
        out.append((p, r, *seen.pop()))
    return out


def test_lazy_views_equal_the_eagerly_made_tuples(monkeypatch):
    """point, dual, farkas and ray, made from the integer images when first
    read, equal the tuples made from the same images at once; so do
    equality, hashing, repr and pickling, and both results are immutable."""
    rng = random.Random(20261019)
    statuses = set()
    programs = [corner_program(rng) for _ in range(150)]
    for p, r, rows, out in solved_with_kernel_output(monkeypatch, programs):
        statuses.add(r.status)
        eager = eager_result(r.status, r.value, rows, out)
        assert (r.point, r.dual, r.farkas, r.ray) == (
            eager.point, eager.dual, eager.farkas, eager.ray)
        assert all(type(v) is F for part in (r.point, r.dual, r.farkas, r.ray)
                   if part is not None for v in part)
        assert r == eager and hash(r) == hash(eager) and repr(r) == repr(eager)
        assert pickle.loads(pickle.dumps(r)) == r
        again = lp_solve(p)
        assert again == r and hash(again) == hash(r)
        for res in (r, again):
            for name in ("status", "value", "point", "dual", "farkas", "ray"):
                with pytest.raises(AttributeError):
                    setattr(res, name, None)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_dual_slice_agrees_with_dual(monkeypatch):
    """Every slice read before dual is made, and after, is that slice of dual."""
    rng = random.Random(20261020)
    programs = [corner_program(rng) for _ in range(100)]
    checked = 0
    for p, r, rows, out in solved_with_kernel_output(monkeypatch, programs):
        if r.status != "optimal":
            continue
        m = len(rows)
        for start in range(m + 1):
            for stop in range(start, m + 1):
                fresh = LpResult._of_images(r.status, r.value, rows, x=out[1], y=out[2])
                assert fresh.dual_slice(start, stop) == r.dual[start:stop]
                assert fresh.dual_slice(start, stop) == fresh.dual[start:stop]
                checked += 1
    assert checked > 100


def test_integer_images_of_the_same_rows_give_the_same_result():
    """Rows scaled by positive integers, folded x_j >= 0 rows among them (so
    that the multipliers' denominator carries the folded rows' scales), give
    the result of the rows as built."""
    rng = random.Random(20261021)
    folded = 0
    for _ in range(150):
        p = corner_program(rng)
        rows = p._rows
        scaled = []
        for a, rel, b, s in rows:
            k = rng.randint(1, 4)
            scaled.append(({j: k * x for j, x in a.items()}, rel, k * b, k * s))
            folded += rel == GE and not b and len(a) == 1 and k > 1
        q = LinearProgram(p.num_vars, p.sense, scaled, len(p.constraints), p._obj)
        assert lp_solve(q) == lp_solve(p)
    assert folded
