"""Exact rational scalars and a dense linear-programming kernel.

Every decision made by this package reduces to a linear program solved here,
so the contract is strict: finite data is `fractions.Fraction`, the extended
values +inf/-inf appear only as optimum statuses and function values (never
inside constraint data), and every certificate produced in exact mode is
re-verified in exact arithmetic before the caller sees it.  Strict
inequalities never enter a program; callers express strictness by level
shifts.

The solver is a two-phase dense simplex with Bland's rule, which keeps it
deterministic and cycle-free; in exact mode each tableau row is held as
integers over one common denominator.  Variables are free unless bounded;
bounds are folded into explicit rows so dual certificates cover them
uniformly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

POS_INF = math.inf
NEG_INF = -math.inf

#: a finite exact scalar, or +-inf (plain float infinities)
Ext = Fraction | float

Vec = tuple[Fraction, ...]

LE = "<="
EQ = "="
GE = ">="
_RELS = (LE, EQ, GE)

EXACT = "exact"
FLOAT = "float"


class StructuralError(ValueError):
    """Malformed data: bad dimensions, relations, or unparseable scalars."""


class PreconditionError(ValueError):
    """A documented mathematical precondition does not hold for the inputs."""


def frac(x: int | str | Fraction) -> Fraction:
    """Exact rational from an int, a Fraction, or a string like '7', '-1.25', '2/3'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise StructuralError(f"boolean is not a scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"cannot parse exact scalar from {x!r}") from exc
    raise StructuralError(
        f"cannot parse exact scalar from {x!r} (binary floats are not exact; "
        f"pass an int, a Fraction, or a string)"
    )


def parse_scalar(x: int | str | Fraction | float) -> Ext:
    """Like frac() but also accepts the extended values 'inf' and '-inf'."""
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise StructuralError(f"cannot parse exact scalar from float {x!r}")
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return POS_INF
        if s == "-inf":
            return NEG_INF
    return frac(x)


def format_scalar(v: Ext) -> str:
    if isinstance(v, float):
        if v == POS_INF:
            return "inf"
        if v == NEG_INF:
            return "-inf"
        return repr(v)
    return str(v)


def is_finite(v: Ext) -> bool:
    return not (isinstance(v, float) and math.isinf(v))


def ext_sub(a: Ext, b: Ext) -> Ext:
    """a - b with the convention that equal infinities cancel to 0."""
    if a == b:
        return Fraction(0)
    if not is_finite(a):
        return a
    if not is_finite(b):
        return POS_INF if b == NEG_INF else NEG_INF
    return a - b


def comparison_slack(mode: str, tolerance=None):
    """Zero in exact mode; the float-mode solve tolerance otherwise.

    Boundary decisions on solver outputs (gap zero, margin nonnegative)
    must allow exactly this much roundoff in float mode and none in exact
    mode; the default matches lp_solve's.
    """
    if mode == EXACT:
        return Fraction(0)
    return 1e-9 if tolerance is None else float(tolerance)


def exact_point(values: Sequence) -> Vec:
    """Rationalize a solver point: binary floats are exact rationals.

    Keeps constructed data exact in float mode; only solve arithmetic and
    comparisons are approximate.
    """
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def vec(values: Iterable) -> Vec:
    return tuple(frac(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, j: int) -> Vec:
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise StructuralError(f"dot product length mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), start=Fraction(0))


def vec_add(a: Sequence, b: Sequence) -> Vec:
    if len(a) != len(b):
        raise StructuralError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> Vec:
    if len(a) != len(b):
        raise StructuralError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Sequence) -> Vec:
    return tuple(c * x for x in a)


@dataclass(frozen=True)
class Constraint:
    coeffs: Vec
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """min or max of <objective, x> subject to affine rows and optional bounds.

    bounds, when given, holds one (lo, hi) pair per variable with None for
    an absent side.  Variables are otherwise free.
    """

    num_vars: int
    objective: Vec
    sense: str
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...] | None = None

    def validate(self) -> None:
        if self.num_vars < 0:
            raise StructuralError("negative variable count")
        if self.sense not in ("min", "max"):
            raise StructuralError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.objective) != self.num_vars:
            raise StructuralError(
                f"objective length {len(self.objective)} != num_vars {self.num_vars}"
            )
        for i, c in enumerate(self.constraints):
            if c.rel not in _RELS:
                raise StructuralError(f"constraint {i}: bad relation {c.rel!r}")
            if len(c.coeffs) != self.num_vars:
                raise StructuralError(
                    f"constraint {i}: width {len(c.coeffs)} != num_vars {self.num_vars}"
                )
        if self.bounds is not None and len(self.bounds) != self.num_vars:
            raise StructuralError(
                f"bounds length {len(self.bounds)} != num_vars {self.num_vars}"
            )


@dataclass(frozen=True)
class LpResult:
    """Outcome of lp_solve.

    status is one of 'optimal', 'infeasible', 'unbounded'.  Exactly one
    certificate field is set: dual (optimal), farkas (infeasible), or ray
    (unbounded).  Certificate entries are indexed by row in the order
    "constraints, then bound rows" (for each variable: its lo row if finite,
    then its hi row if finite).
    """

    status: str
    value: Ext
    point: tuple | None = None
    dual: tuple | None = None
    farkas: tuple | None = None
    ray: tuple | None = None


def _expanded_rows(lp: LinearProgram) -> list[tuple[list[Fraction], str, Fraction]]:
    """Constraint rows plus bound rows, in certificate order."""
    rows = [(list(c.coeffs), c.rel, c.rhs) for c in lp.constraints]
    if lp.bounds is not None:
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                coeffs = [Fraction(0)] * lp.num_vars
                coeffs[j] = Fraction(1)
                rows.append((coeffs, GE, lo))
            if hi is not None:
                coeffs = [Fraction(0)] * lp.num_vars
                coeffs[j] = Fraction(1)
                rows.append((coeffs, LE, hi))
    return rows


# Exact-mode tableau rows are lists of ints: the numerators of the row's
# entries over one positive common denominator, which is kept last.  Integer
# arithmetic on a whole row is several times faster than one Fraction per
# entry, and the entries are the same rationals.

def _int_row(values) -> list[int]:
    # unpack a list, not a generator: CPython sizes a generator's argument
    # tuple by resizing, and such tuples pile up in its tuple free list
    den = math.lcm(*[v.denominator for v in values])
    return _reduced([v.numerator * (den // v.denominator) for v in values] + [den])


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _unit_at(row: list[int], col: int) -> None:
    """Divide row, in place, by its entry at col, so that it reads 1 there."""
    p = row[col]
    out = row[:-1] + [p] if p > 0 else [-x for x in row[:-1]] + [-p]
    row[:] = _reduced(out)


def _eliminate(row: list[int], unit: list[int], col: int) -> None:
    """Subtract, in place, row's entry at col times unit, which reads 1 at col."""
    f, ud = row[col], unit[-1]
    out = [x * ud - f * y for x, y in zip(row, unit)]
    out[-1] = row[-1] * ud
    row[:] = _reduced(out)


class _Unbounded(Exception):
    def __init__(self, col: int):
        self.col = col


def _solve_rows(rows, cost, n, exact, tol):
    """Two-phase simplex on relation rows over n variables, minimizing cost.

    A row of the form x_j >= 0 is folded into its column as a sign condition
    (no split, no slack, no artificial); its multiplier in the returned
    certificates is the final reduced cost at that column.  Every other
    variable is split x = x+ - x-; one slack per inequality row; one
    artificial per row.  Returns one of
      ("optimal", point, duals_per_row)
      ("infeasible", farkas_per_row)
      ("unbounded", ray)
    with everything expressed over the original n variables / len(rows) rows.
    """
    m = len(rows)
    if exact:
        zero, one = Fraction(0), Fraction(1)
        tolz = 0
        conv = lambda x: x
    else:
        zero, one = 0.0, 1.0
        tolz = tol
        conv = float

    # At most one x_j >= 0 row is folded per variable; duplicates stay rows.
    bound_row: dict[int, int] = {}
    is_bound = [False] * m
    for i, (a, rel, b) in enumerate(rows):
        if rel != GE or b != 0:
            continue
        j = -1
        simple = True
        for k, ak in enumerate(a):
            if ak == 0:
                continue
            if j >= 0 or ak != 1:
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

    tab: list[list] = []
    flips: list[int] = []
    slack_idx = nv
    for t, i in enumerate(gen):
        a, rel, b = rows[i]
        row = [zero] * (ncol + 1)
        for j in range(n):
            v = conv(a[j])
            row[pos[j]] = v
            if neg[j] >= 0:
                row[neg[j]] = -v
        if rel != EQ:
            row[slack_idx] = one if rel == LE else -one
            slack_idx += 1
        bi = conv(b)
        if bi < zero:
            row = [-v for v in row]
            bi = -bi
            flips.append(-1)
        else:
            flips.append(1)
        row[ns + t] = one
        row[ncol] = bi
        tab.append(_int_row(row) if exact else row)
    basis = [ns + t for t in range(mt)]

    def at(row, j):
        return Fraction(row[j], row[-1]) if exact else row[j]

    def pivot(rc, r, col):
        prow = tab[r]
        if exact:
            _unit_at(prow, col)
            for other in (*tab, rc):
                if other is not prow and other[col]:
                    _eliminate(other, prow, col)
            basis[r] = col
            return
        inv = one / prow[col]
        for j in range(ncol + 1):
            prow[j] = prow[j] * inv
        for other in tab:
            if other is prow:
                continue
            f = other[col]
            if f != zero:
                for j in range(ncol + 1):
                    other[j] = other[j] - f * prow[j]
        f = rc[col]
        if f != zero:
            for j in range(ncol + 1):
                rc[j] = rc[j] - f * prow[j]
        basis[r] = col

    def reduced_costs(costvec):
        if exact:
            # each basic column is a unit column, so clearing the cost row
            # there subtracts exactly cost[basis[r]] times row r
            rc = _int_row(list(costvec) + [zero])
            for r, row in enumerate(tab):
                if rc[basis[r]]:
                    _eliminate(rc, row, basis[r])
            return rc
        rc = list(costvec) + [zero]
        for r, row in enumerate(tab):
            cb = costvec[basis[r]]
            if cb != zero:
                for j in range(ncol + 1):
                    rc[j] = rc[j] - cb * row[j]
        return rc

    def run(rc, enter_limit):
        # Bland's rule: smallest improving column, smallest basis index on ties.
        iterations = 0
        while True:
            iterations += 1
            if iterations > 200000:
                raise RuntimeError("simplex iteration cap exceeded (internal bug)")
            enter = -1
            for j in range(enter_limit):
                if rc[j] < -tolz:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for r in range(len(tab)):
                e = tab[r][enter]
                if e > tolz:
                    ratio = Fraction(tab[r][ncol], e) if exact else tab[r][ncol] / e
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[r] < basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                raise _Unbounded(enter)
            pivot(rc, leave, enter)

    # Phase 1: drive the artificial variables to zero.
    c1 = [zero] * ncol
    for t in range(mt):
        c1[ns + t] = one
    rc1 = reduced_costs(c1)
    try:
        run(rc1, ncol)
    except _Unbounded:  # pragma: no cover - phase 1 is bounded below by 0
        raise RuntimeError("phase-1 unbounded (internal bug)")

    infeas = sum((at(tab[r], ncol) for r in range(len(tab)) if basis[r] >= ns), start=zero)
    feas_slack = zero if exact else tol
    if infeas > feas_slack:
        farkas = [zero] * m
        for t, i in enumerate(gen):
            farkas[i] = flips[t] * (one - at(rc1, ns + t))
        for j, i in bound_row.items():
            farkas[i] = at(rc1, pos[j])
        return ("infeasible", farkas)

    # Clean-up: pivot surviving artificials out of the basis; a row with no
    # structural entry left is redundant and is dropped (its dual is zero).
    dropped: list[int] = []
    for r in range(len(tab)):
        if basis[r] >= ns:
            col = -1
            for j in range(ns):
                e = tab[r][j]
                if (e != 0) if exact else (abs(e) > tol):
                    col = j
                    break
            if col >= 0:
                pivot(rc1, r, col)
            else:
                dropped.append(r)
    for r in reversed(dropped):
        del tab[r]
        del basis[r]

    # Phase 2 over the real objective; artificial columns may not re-enter.
    c2 = [zero] * ncol
    for j in range(n):
        v = conv(cost[j])
        c2[pos[j]] = v
        if neg[j] >= 0:
            c2[neg[j]] = -v
    rc2 = reduced_costs(c2)
    try:
        run(rc2, ns)
    except _Unbounded as ub:
        d = [zero] * ncol
        d[ub.col] = one
        for r in range(len(tab)):
            d[basis[r]] = -at(tab[r], ub.col)
        ray = [d[pos[j]] - (d[neg[j]] if neg[j] >= 0 else zero) for j in range(n)]
        return ("unbounded", ray)

    vals = [zero] * ncol
    for r in range(len(tab)):
        vals[basis[r]] = at(tab[r], ncol)
    point = [vals[pos[j]] - (vals[neg[j]] if neg[j] >= 0 else zero) for j in range(n)]
    # Duals are read off the artificial columns of the final objective row;
    # a dropped (redundant) row keeps its unit column and so reads back 0.
    duals = [zero] * m
    for t, i in enumerate(gen):
        duals[i] = flips[t] * (-at(rc2, ns + t))
    for j, i in bound_row.items():
        duals[i] = at(rc2, pos[j])
    return ("optimal", point, duals)


def _row_dot(a, x, start):
    # zero coefficients are skipped: the checks only compare the sums
    return sum((ai * xi for ai, xi in zip(a, x) if ai), start=start)


def _combine_rows(rows, weights, n, start) -> list:
    """sum_i weights[i] * rows[i].coeffs, one entry per each of n columns."""
    out = [start] * n
    for y, (a, _, _) in zip(weights, rows):
        if y:
            for j, aj in enumerate(a):
                if aj:
                    out[j] = out[j] + y * aj
    return out


def _check_rows_feasible(rows, point, exact, tol) -> bool:
    slack = Fraction(0) if exact else tol
    for a, rel, b in rows:
        s = _row_dot(a, point, Fraction(0) if exact else 0.0)
        if rel == LE and not s <= b + slack:
            return False
        if rel == GE and not s >= b - slack:
            return False
        if rel == EQ and not (abs(s - b) <= slack):
            return False
    return True


def _dual_sign_ok(rel: str, y, minimize: bool, slack) -> bool:
    if rel == EQ:
        return True
    if minimize:
        return y <= slack if rel == LE else y >= -slack
    return y >= -slack if rel == LE else y <= slack


def _check_rows_dual(rows, objective, sense, duals, value, exact, tol) -> bool:
    """Adjoint equation, sign pattern, and objective match for a dual vector."""
    minimize = sense == "min"
    slack = Fraction(0) if exact else tol
    start = Fraction(0) if exact else 0.0
    sums = _combine_rows(rows, duals, len(objective), start)
    for s, c in zip(sums, objective):
        if abs(s - c) > slack:
            return False
    for i, (_, rel, _) in enumerate(rows):
        if not _dual_sign_ok(rel, duals[i], minimize, slack):
            return False
    yb = _row_dot(duals, [b for _, _, b in rows], start)
    return abs(yb - value) <= slack


def _check_rows_farkas(rows, cert, exact, tol) -> bool:
    slack = Fraction(0) if exact else tol
    start = Fraction(0) if exact else 0.0
    for s in _combine_rows(rows, cert, len(rows[0][0]) if rows else 0, start):
        if abs(s) > slack:
            return False
    for i, (_, rel, _) in enumerate(rows):
        # Infeasibility certificates use the minimization sign pattern.
        if not _dual_sign_ok(rel, cert[i], True, slack):
            return False
    yb = _row_dot(cert, [b for _, _, b in rows], start)
    return yb > slack


def _check_rows_ray(rows, objective, sense, ray, exact, tol) -> bool:
    slack = Fraction(0) if exact else tol
    start = Fraction(0) if exact else 0.0
    for a, rel, _ in rows:
        s = _row_dot(a, ray, start)
        if rel == LE and not s <= slack:
            return False
        if rel == GE and not s >= -slack:
            return False
        if rel == EQ and not abs(s) <= slack:
            return False
    cd = _row_dot(objective, ray, start)
    return cd < -slack if sense == "min" else cd > slack


def lp_solve(lp: LinearProgram, mode: str = EXACT, tolerance=None) -> LpResult:
    """Solve lp, returning an optimum with a certificate, exactly by default.

    Exact mode re-verifies the point and certificate before returning; a
    verification failure raises RuntimeError (it would mean a kernel bug, not
    a property of the input).  Float mode runs the same pivoting with a
    comparison tolerance (default 1e-9) and skips exact verification.
    """
    lp.validate()
    if mode not in (EXACT, FLOAT):
        raise StructuralError(f"mode must be 'exact' or 'float', got {mode!r}")
    exact = mode == EXACT
    tol = 1e-9 if tolerance is None else float(tolerance)

    rows = _expanded_rows(lp)
    minimize = lp.sense == "min"
    cost = list(lp.objective) if minimize else [-c for c in lp.objective]
    out = _solve_rows(rows, cost, lp.num_vars, exact, tol)

    if out[0] == "infeasible":
        cert = tuple(out[1])
        if exact and rows and not _check_rows_farkas(rows, cert, exact, tol):
            raise RuntimeError("internal: Farkas certificate failed verification")
        return LpResult("infeasible", POS_INF if minimize else NEG_INF, farkas=cert)

    if out[0] == "unbounded":
        ray = tuple(out[1])
        if exact and not _check_rows_ray(rows, lp.objective, lp.sense, ray, exact, tol):
            raise RuntimeError("internal: unbounded direction failed verification")
        return LpResult("unbounded", NEG_INF if minimize else POS_INF, ray=ray)

    _, point, duals = out
    if not minimize:
        duals = [-y for y in duals]
    value = sum((c * x for c, x in zip(lp.objective, point)),
                start=Fraction(0) if exact else 0.0)
    if exact:
        if not _check_rows_feasible(rows, point, exact, tol):
            raise RuntimeError("internal: optimal point failed feasibility check")
        if not _check_rows_dual(rows, lp.objective, lp.sense, duals, value, exact, tol):
            raise RuntimeError("internal: dual certificate failed verification")
    return LpResult("optimal", value, point=tuple(point), dual=tuple(duals))


def check_point_feasible(lp: LinearProgram, point, mode: str = EXACT, tolerance=None) -> bool:
    lp.validate()
    exact = mode == EXACT
    tol = 1e-9 if tolerance is None else float(tolerance)
    return _check_rows_feasible(_expanded_rows(lp), point, exact, tol)


def check_dual_certificate(lp: LinearProgram, duals, value) -> bool:
    """True iff duals proves the bound `value` for lp (exact arithmetic)."""
    lp.validate()
    return _check_rows_dual(_expanded_rows(lp), lp.objective, lp.sense, duals, value, True, 0)


def check_farkas_certificate(lp: LinearProgram, cert) -> bool:
    lp.validate()
    rows = _expanded_rows(lp)
    return bool(rows) and _check_rows_farkas(rows, cert, True, 0)


def check_ray_certificate(lp: LinearProgram, ray) -> bool:
    lp.validate()
    return _check_rows_ray(_expanded_rows(lp), lp.objective, lp.sense, ray, True, 0)


def dual_objective(lp: LinearProgram, duals) -> Fraction:
    """The bound sum(y_i * b_i) claimed by a dual vector."""
    rows = _expanded_rows(lp)
    if len(duals) != len(rows):
        raise StructuralError(f"dual length {len(duals)} != row count {len(rows)}")
    return sum((duals[i] * rows[i][2] for i in range(len(rows))), start=Fraction(0))


class LpBuilder:
    """Incremental assembly of a LinearProgram from sparse rows.

    Variables are created with var()/block() and referenced by index; rows
    and the objective are sparse {index: coeff} maps.  An affine objective
    constant can be attached; solve() adds it back onto the optimal value.
    """

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise StructuralError(f"sense must be 'min' or 'max', got {sense!r}")
        self._sense = sense
        self._bounds: list[tuple[Fraction | None, Fraction | None]] = []
        self._rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        self._obj: dict[int, Fraction] = {}
        self.constant = Fraction(0)

    @property
    def num_vars(self) -> int:
        return len(self._bounds)

    def var(self, lo=None, hi=None) -> int:
        j = len(self._bounds)
        self._bounds.append(
            (None if lo is None else frac(lo), None if hi is None else frac(hi))
        )
        return j

    def block(self, count: int, lo=None, hi=None) -> list[int]:
        return [self.var(lo, hi) for _ in range(count)]

    def convex_weights(self, points: Sequence[Sequence], rhs: Sequence,
                       extra: Sequence[Mapping[int, object]] | None = None) -> list[int]:
        """Convex weights over points, matched coordinatewise to rhs.

        Appends one variable lam_i >= 0 per point, then the row
        sum_i lam_i = 1, then for each coordinate c the row
        sum_i lam_i * points[i][c] + extra[c] = rhs[c], in that order: the
        block's dual multipliers read the weight row first, then one per
        coordinate, which is where a subgradient is read off.  extra, when
        given, holds one sparse {index: coeff} map per coordinate, added into
        that coordinate's row.  Each coefficient is converted once.  Returns
        the weight variables.
        """
        lam = self.block(len(points), lo=0)
        one = Fraction(1)
        self._rows.append(({j: one for j in lam}, EQ, one))
        for c, target in enumerate(rhs):
            row: dict[int, Fraction] = {}
            for j, p in zip(lam, points):
                v = frac(p[c])
                if v:
                    row[j] = v
            if extra is not None:
                for j, v in extra[c].items():
                    fv = frac(v)
                    if fv:
                        row[j] = row.get(j, Fraction(0)) + fv
            self._rows.append((row, EQ, frac(target)))
        return lam

    def add(self, coeffs: Mapping[int, object], rel: str, rhs) -> None:
        if rel not in _RELS:
            raise StructuralError(f"bad relation {rel!r}")
        row: dict[int, Fraction] = {}
        for j, v in coeffs.items():
            fv = frac(v)
            if fv:
                row[j] = row.get(j, Fraction(0)) + fv
        self._rows.append((row, rel, frac(rhs)))

    def set_objective(self, coeffs: Mapping[int, object], constant=0) -> None:
        self._obj = {j: frac(v) for j, v in coeffs.items()}
        self.constant = frac(constant)

    def add_objective_term(self, j: int, coeff) -> None:
        self._obj[j] = self._obj.get(j, Fraction(0)) + frac(coeff)

    def build(self) -> LinearProgram:
        n = self.num_vars
        obj = [Fraction(0)] * n
        for j, v in self._obj.items():
            obj[j] = v
        constraints = []
        for row, rel, rhs in self._rows:
            coeffs = [Fraction(0)] * n
            for j, v in row.items():
                coeffs[j] = v
            constraints.append(Constraint(tuple(coeffs), rel, rhs))
        bounds = tuple(self._bounds)
        if all(lo is None and hi is None for lo, hi in bounds):
            bounds_arg = None
        else:
            bounds_arg = bounds
        return LinearProgram(n, tuple(obj), self._sense, tuple(constraints), bounds_arg)

    def solve(self, mode: str = EXACT, tolerance=None) -> LpResult:
        res = lp_solve(self.build(), mode, tolerance)
        if self.constant:
            if res.status == "optimal":
                res = replace(res, value=res.value + self.constant)
            # infinite results absorb the constant
        return res
