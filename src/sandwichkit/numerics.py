"""Exact rational scalars and a dense linear-programming kernel.

Every decision made by this package reduces to a linear program solved here,
so the contract is strict: finite data is `fractions.Fraction`, the extended
values +inf/-inf appear only as optimum statuses and function values (never
inside constraint data), and every certificate the solver produces is
re-verified in exact arithmetic before the caller sees it.  Strict
inequalities never enter a program; callers express strictness by level
shifts.

The solver is a two-phase dense simplex.  It prices by Dantzig's rule (the
most negative reduced cost, smallest index on ties) and finishes a phase by
Bland's rule once it has made 50 degenerate pivots, so it is deterministic
and cannot cycle.  Each program is solved in one of two orientations, by a
rule on its shape alone: a tall program, one whose general rows (those left
after folding the x_j >= 0 rows) number more than 1.5 n + 1 for its n
variables, is solved as its transpose by the same kernel, and its point,
multipliers or Farkas vector are read off that solve; every other program,
and a tall one whose transpose is infeasible, is solved directly.  Where an
optimum is not unique, the point and multipliers returned are the ones this
rule reaches from the all-artificial basis, of the transpose for a tall
program: a function of the program and its row order, not of earlier calls.
Variables are free unless bounded; bounds are folded into explicit rows so
dual certificates cover them uniformly.  The arithmetic between building a
program and returning its result is on integers: `LpBuilder` builds each row
once, where it is assembled, as the integer numerators of its nonzero entries
over a positive scale s (a bound row holds one entry), and the row enters the
tableau times s, with its artificial variable a' = s a.  No dense Fraction row
is made on the way; a program's rational view is made from its rows only when
it is read.  A program of convex weights solved at many targets, such as a
sample-form function's evaluation LP, is made from prepared parts
(`LpBuilder.weights_program`): per call only the rows that read the target
are made, the weight row and the bound rows are shared by every program of
the shape, the objective's integer image is the caller's, and the program
carries its fold (which rows x_j >= 0 the kernel folds into their columns),
so the kernel does not rescan its rows for it.  A caller that keeps rows or
an objective as integer images already, as `convexfn.sup_affine_minus_convex`
does with the images an `AffineMap` or a sample-form function caches, hands
them over as they are (`LpBuilder.add_image`, and the objective's image to
`build_siblings`).  Programs that share their rows and differ only in the
objective, such as the left sides of one scenario's queries, are built at
once as siblings (`LpBuilder.build_siblings`), and the kernel runs set-up,
phase 1 and clean-up once for all of them.

The tableau is T = D B^-1 M' for that integer system M', its
basis B and one common denominator D = |det B| (Edmonds 1967; Bareiss 1968),
so a pivot is one pass per row ending in an exact integer division, with no
gcd.  The kernel hands back integer images over one denominator each: the
point or ray as X / D, and the multipliers as y_i / s_i = Z_i / E.  Each
certificate is re-checked on those integers, and `LpResult` makes its Fraction
tuples from them only when they are read.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from fractions import Fraction
from operator import mul
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


def ext_neg(a: Ext) -> Ext:
    """-a, each infinity mapped to the other's constant."""
    if a == POS_INF:
        return NEG_INF
    return POS_INF if a == NEG_INF else -a


def vec(values: Iterable) -> Vec:
    return tuple(frac(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, j: int) -> Vec:
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def vec_text(v: Sequence) -> str:
    """v as a message shows it, the way the text report prints a vector:
    [a, b, ...] with each entry exact, such as [1/2, -1]."""
    return "[" + ", ".join(str(c) for c in v) + "]"


def dot(a: Sequence, b: Sequence) -> Fraction:
    """Exact inner product of two equally long vectors, as a Fraction.

    The terms are accumulated as integers over a running common denominator
    (the lcm of the term denominators seen so far), zero terms are skipped,
    and one Fraction is built at the end.  Entries without an integer
    numerator, such as binary floats, are refused like frac refuses them.
    """
    if len(a) != len(b):
        raise StructuralError(f"dot product length mismatch: {len(a)} vs {len(b)}")
    num, den = 0, 1
    try:
        for x, y in zip(a, b):
            xn = x.numerator
            yn = y.numerator
            if xn and yn:
                d = x.denominator * y.denominator
                if d == 1:
                    num += xn * yn * den
                    continue
                if den % d:
                    scale = d // math.gcd(den, d)
                    num *= scale
                    den *= scale
                num += xn * yn * (den // d)
    except AttributeError as exc:
        raise StructuralError(
            "dot product entries must be ints or Fractions; binary floats are not exact"
        ) from exc
    return Fraction(num) if den == 1 else Fraction(num, den)


@dataclass(frozen=True)
class Constraint:
    coeffs: Vec
    rel: str
    rhs: Fraction


class LinearProgram:
    """min or max of <objective, x> subject to affine rows and optional bounds.

    A program is exactly what `LpBuilder.build` assembles, the only way to
    make one: its integer rows (see `_row_image`), the n_constraints
    constraints first and then one row per finite bound, the objective's
    integer image obj, and the rows' fold `_folded(rows)` where the builder
    has it prepared (None otherwise; `lp_solve` then finds it where it
    needs it).  The solver and the certificate checks read those rows.  The
    rational view (objective, constraints, bounds) is made from them when
    it is first read; bounds, when not None, holds one (lo, hi) pair per
    variable with None for an absent side.  Variables are otherwise free.
    Programs that `LpBuilder.build_siblings` makes at once are siblings:
    they share the rows, the fold and one `_Siblings`, so the kernel runs
    phase 1 once for all of them (see `_solve_rows`).
    """

    __slots__ = ("num_vars", "sense", "_view", "_rows", "_obj", "_n_constraints", "_fold",
                 "_siblings")

    def __init__(self, num_vars: int, sense: str, rows: list, n_constraints: int,
                 obj: tuple[list[int], int], fold: tuple | None = None,
                 siblings: "_Siblings | None" = None):
        self.num_vars = num_vars
        self.sense = sense
        self._view = None
        self._rows = rows
        self._obj = obj
        self._n_constraints = n_constraints
        self._fold = fold
        self._siblings = siblings

    def _rational(self) -> tuple:
        """(objective, constraints, bounds), made from the integer rows once."""
        if self._view is None:
            n = self.num_vars
            rows = self._rows
            k = self._n_constraints
            c, s = self._obj
            constraints = tuple(
                Constraint(tuple(Fraction(a.get(j, 0), t) for j in range(n)), rel, Fraction(b, t))
                for a, rel, b, t in rows[:k]
            )
            bounds = None
            if len(rows) > k:
                pairs = [[None, None] for _ in range(n)]
                for a, rel, b, t in rows[k:]:
                    (j,) = a
                    pairs[j][rel == LE] = Fraction(b, t)
                bounds = tuple(map(tuple, pairs))
            self._view = (tuple(Fraction(x, s) for x in c), constraints, bounds)
        return self._view

    @property
    def objective(self) -> Vec:
        return self._rational()[0]

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._rational()[1]

    @property
    def bounds(self) -> tuple[tuple[Fraction | None, Fraction | None], ...] | None:
        return self._rational()[2]

    def __repr__(self):
        objective, constraints, bounds = self._rational()
        return (f"LinearProgram(num_vars={self.num_vars!r}, objective={objective!r}, "
                f"sense={self.sense!r}, constraints={constraints!r}, bounds={bounds!r})")


# an LpResult field whose Fraction tuple is not made from its image yet
_UNMADE = object()


def _ratios(nums: list[int], den: int) -> tuple:
    """X / D for the image (X, D) of a point or ray."""
    return tuple([Fraction(x, den) for x in nums])


def _scaled(rows, nums: list[int], den: int) -> tuple:
    """The multipliers y_i = Z_i s_i / E of the image (Z, E) over rows."""
    return tuple([Fraction(z * row[3], den) for z, row in zip(nums, rows)])


class LpResult:
    """Outcome of lp_solve.

    status is one of 'optimal', 'infeasible', 'unbounded'.  Exactly one
    certificate field is set: dual (optimal), farkas (infeasible), or ray
    (unbounded); an optimum also has its point.  Certificate entries are
    indexed by row in the order "constraints, then bound rows" (for each
    variable: its lo row if finite, then its hi row if finite).

    status and value are made at once.  A result of lp_solve keeps the
    kernel's integer images, the point or ray as X / D and the multipliers
    as y_i / s_i = Z_i / E over the rows' scales s_i, and makes each
    Fraction tuple from them when it is first read; `dual_slice` reads some
    multipliers without making the rest.  A result is immutable, and
    compares, hashes and prints by its six fields.
    """

    __slots__ = ("status", "value", "_point", "_dual", "_farkas", "_ray", "_x", "_y", "_rows")

    def __init__(self, status: str, value: Ext, point: tuple | None = None,
                 dual: tuple | None = None, farkas: tuple | None = None,
                 ray: tuple | None = None):
        for name, v in zip(self.__slots__, (status, value, point, dual, farkas, ray,
                                            None, None, None)):
            object.__setattr__(self, name, v)

    @classmethod
    def _of_images(cls, status: str, value: Ext, rows, x=None, y=None) -> "LpResult":
        """The result whose point (optimal) or ray (unbounded) has the image
        x = (X, D), and whose dual (optimal) or Farkas vector (infeasible)
        has the image y = (Z, E) over rows."""
        res = cls(status, value)
        put = object.__setattr__
        if x is not None:
            put(res, "_point" if status == "optimal" else "_ray", _UNMADE)
        if y is not None:
            put(res, "_dual" if status == "optimal" else "_farkas", _UNMADE)
        put(res, "_x", x)
        put(res, "_y", y)
        put(res, "_rows", rows)
        return res

    @property
    def point(self) -> tuple | None:
        if self._point is _UNMADE:
            object.__setattr__(self, "_point", _ratios(*self._x))
        return self._point

    @property
    def ray(self) -> tuple | None:
        if self._ray is _UNMADE:
            object.__setattr__(self, "_ray", _ratios(*self._x))
        return self._ray

    @property
    def dual(self) -> tuple | None:
        if self._dual is _UNMADE:
            object.__setattr__(self, "_dual", _scaled(self._rows, *self._y))
        return self._dual

    @property
    def farkas(self) -> tuple | None:
        if self._farkas is _UNMADE:
            object.__setattr__(self, "_farkas", _scaled(self._rows, *self._y))
        return self._farkas

    def dual_slice(self, start: int, stop: int) -> tuple:
        """dual[start:stop], made without making the other multipliers."""
        if self._dual is _UNMADE:
            z, e = self._y
            return _scaled(self._rows[start:stop], z[start:stop], e)
        return self.dual[start:stop]

    def _fields(self) -> tuple:
        return (self.status, self.value, self.point, self.dual, self.farkas, self.ray)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        status, value, point, dual, farkas, ray = self._fields()
        return (f"LpResult(status={status!r}, value={value!r}, point={point!r}, "
                f"dual={dual!r}, farkas={farkas!r}, ray={ray!r})")

    def __reduce__(self):
        return (LpResult, self._fields())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# The kernel and the certificate checks read each row as integers:
# (A, rel, B, s) stands for the row (A / s) . x  rel  B / s with the scale
# s > 0, where A maps each variable whose coefficient is nonzero, and no
# other, to its numerator.  Each sign and each equality of the rational row
# is the same one of its integer image.  Rows are made once, where they are
# assembled, by LpBuilder: a bound lo <= x_j is ({j: s}, >=, B, s) with
# lo = B / s, and likewise for hi.

def _int_image(values) -> tuple[list[int], int]:
    """(X, D) with values == X / D, for ints or Fractions and one D > 0."""
    # unpack a list, not a generator: CPython sizes a generator's argument
    # tuple by resizing, and such tuples pile up in its tuple free list
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _row_image(coeffs: Mapping[int, Fraction], rel: str, rhs: Fraction) -> tuple:
    """The row sum_j coeffs[j] x_j rel rhs as (A, rel, B, s), over the lcm s of
    its denominators; coeffs holds nonzero ints or Fractions only."""
    s = math.lcm(rhs.denominator, *[v.denominator for v in coeffs.values()])
    return ({j: v.numerator * (s // v.denominator) for j, v in coeffs.items()},
            rel, rhs.numerator * (s // rhs.denominator), s)


# The tableau is all-integer over one positive common denominator D, kept
# apart (Edmonds 1967; Bareiss 1968).  A general row (A, rel, B, s) enters
# times s, as A x +- s slack + a' = B (negated when B < 0) with the
# artificial a' = s a, so the artificial basis is the identity and D is 1.
# Then T = D B^-1 M' for that integer system M' and its basis B, D = |det B|,
# and each basic column reads D in its own row.  A pivot on p = T[r][c] keeps
# row r, replaces every other row i, the cost row included, by
# (p T[i] - T[i][c] T[r]) / D, an exact division, and sets D to p.  Row t's
# slack enters with +-s_t, so it is the rational row's own slack, and a real
# column's reduced cost (x+-, slacks) is the rational program's times the one
# positive factor D s (D L in phase 1): Dantzig's rule picks the same column
# on both.  The artificial a' = s a is scaled apart, so artificials are
# chosen by Bland's rule, which, like the ratio test, reads signs only.  So
# the pivots are those of the rational rows themselves.

def _pivot_row(row: list[int], prow: list[int], p: int, col: int, d: int) -> list[int]:
    """row after the pivot on p = prow[col], over the denominator d before it."""
    f = row[col]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, prow)]
    if p == d:
        return row
    return [p * x // d for x in row]


def _split(nums: dict, pos: list[int], neg: list[int]) -> list[int]:
    """X_j = X+_j - X-_j from {column: numerator}."""
    get = nums.get
    return [get(p, 0) - get(q, 0) for p, q in zip(pos, neg)]


#: degenerate pivots a phase makes under Dantzig's rule before it falls back
#: to Bland's rule
_DEGENERATE_PIVOTS = 50


class _Unbounded(Exception):
    def __init__(self, col: int):
        self.col = col


def _folded(rows) -> tuple[dict[int, int], list[bool]]:
    """({j: i}, is_folded) for the rows i of the form x_j >= 0 that the
    kernel folds into their columns: at most one per variable, the first;
    duplicates stay rows."""
    bound_row: dict[int, int] = {}
    is_bound = [False] * len(rows)
    for i, (a, rel, b, s) in enumerate(rows):
        # A holds nonzero entries only, so this is "exactly one nonzero, s"
        if rel == GE and not b and len(a) == 1:
            ((j, aj),) = a.items()
            if aj == s and j not in bound_row:
                bound_row[j] = i
                is_bound[i] = True
    return bound_row, is_bound


class _Tableau:
    """The integer tableau of `_solve_rows` and the column layout it is read by.

    Set-up (see `_solve_rows`) makes it from the rows: tab holds one list
    per general row, its right-hand side last; basis names each row's basic
    column, and d is the common denominator D.  Variable j has its x+
    column pos[j] and its x- column neg[j], -1 where j's row x_j >= 0 is
    folded; the ns real columns (x+-, then one slack per inequality row)
    are followed by one artificial per general row, ncol columns in all.
    gen lists the general rows, flips the sign each one's right-hand side
    took and scales their scales; bound_row maps each folded variable to
    its row, and big_lb is the lcm of the folded rows' scales.
    """

    __slots__ = ("tab", "basis", "d", "ns", "ncol", "pos", "neg", "gen", "flips", "scales",
                 "bound_row", "big_lb")

    def __init__(self, rows, n, fold):
        bound_row, is_bound = fold or _folded(rows)
        self.bound_row = bound_row
        self.gen = gen = [i for i in range(len(rows)) if not is_bound[i]]
        mt = len(gen)
        # the multipliers' denominators carry the folded rows' scales
        self.big_lb = math.lcm(*[rows[i][3] for i in bound_row.values()])
        self.pos = pos = [0] * n
        self.neg = neg = [-1] * n
        nv = 0
        for j in range(n):
            pos[j] = nv
            nv += 1
            if j not in bound_row:
                neg[j] = nv
                nv += 1
        n_slack = sum(1 for i in gen if rows[i][1] != EQ)
        self.ns = ns = nv + n_slack
        self.ncol = ncol = ns + mt
        self.tab = tab = []
        self.flips = flips = []
        self.scales = [rows[i][3] for i in gen]
        slack_idx = nv
        for t, i in enumerate(gen):
            a, rel, b, s = rows[i]
            row = self.split_row(a.items(), ncol + 1)
            if rel != EQ:
                row[slack_idx] = s if rel == LE else -s
                slack_idx += 1
            row[ncol] = b
            flips.append(-1 if b < 0 else 1)
            if b < 0:
                row = [-v for v in row]
            row[ns + t] = 1
            tab.append(row)
        self.basis = [ns + t for t in range(mt)]
        self.d = 1

    def copy(self) -> "_Tableau":
        """A tableau that pivots apart from this one.  A pivot replaces the
        rows it changes and changes none in place, so the copy shares the
        rows themselves and the layout."""
        new = _Tableau.__new__(_Tableau)
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        new.tab = list(self.tab)
        new.basis = list(self.basis)
        return new

    def split_row(self, entries, width: int) -> list[int]:
        """(variable, coefficient) pairs, on each x+ and x- column, in zeros."""
        pos, neg = self.pos, self.neg
        row = [0] * width
        for j, v in entries:
            row[pos[j]] = v
            if neg[j] >= 0:
                row[neg[j]] = -v
        return row

    def pivot(self, r: int, col: int, rc=None) -> None:
        # a negative pivot (clean-up only) negates its row first, which
        # negates the whole tableau and so keeps D positive
        tab, d = self.tab, self.d
        prow = tab[r]
        p = prow[col]
        if p < 0:
            p = -p
            prow = tab[r] = [-x for x in prow]
        for i, row in enumerate(tab):
            if i != r:
                tab[i] = _pivot_row(row, prow, p, col, d)
        if rc is not None:
            rc[:] = _pivot_row(rc, prow, p, col, d)
        self.d = p
        self.basis[r] = col

    def reduced_costs(self, cost: list[int]) -> list[int]:
        # D (c - c_B B^-1 M'): D c less each basic column's cost times its row
        d, basis = self.d, self.basis
        rc = cost if d == 1 else [d * x for x in cost]
        for r, row in enumerate(self.tab):
            w = cost[basis[r]]
            if w:
                rc = [x - w * y for x, y in zip(rc, row)]
        return rc

    def leaving(self, enter: int) -> int:
        # Bland's ratio test on b / e, D cancelled, by cross-multiplying (e > 0)
        ncol, basis = self.ncol, self.basis
        leave = -1
        best_b, best_e = 0, 1
        for r, row in enumerate(self.tab):
            e = row[enter]
            if e > 0:
                b = row[ncol]
                lhs, rhs = b * best_e, best_b * e
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    best_b, best_e, leave = b, e, r
        return leave

    def run(self, rc: list[int], enter_limit: int) -> None:
        # Dantzig's rule over the real columns (index < ns): the most negative
        # reduced cost, the smallest index on ties.  An artificial (phase 1
        # only) enters only when no real column prices negative, by Bland's
        # rule.  After _DEGENERATE_PIVOTS pivots on a zero right-hand side
        # the phase finishes under Bland's rule alone, which cannot cycle.
        ns, ncol, tab = self.ns, self.ncol, self.tab
        iterations = degenerate = 0
        while True:
            iterations += 1
            if iterations > 200000:
                raise RuntimeError("simplex iteration cap exceeded (internal bug)")
            enter, first = -1, 0
            if degenerate < _DEGENERATE_PIVOTS:
                low = min(rc[:ns], default=0)
                enter, first = (rc.index(low) if low < 0 else -1), ns
            if enter < 0:
                for j in range(first, enter_limit):
                    if rc[j] < 0:
                        enter = j
                        break
                else:
                    return
            leave = self.leaving(enter)
            if leave < 0:
                raise _Unbounded(enter)
            if not tab[leave][ncol]:
                degenerate += 1
            self.pivot(leave, enter, rc)


def _phase1(rows, n: int, fold=None) -> tuple:
    """Set-up, phase 1 and clean-up of `_solve_rows` on the rows over n
    variables: ("infeasible", (Z, E)) as `_solve_rows` returns it, or
    ("feasible", the `_Tableau` phase 2 starts from).  No objective is read."""
    t = _Tableau(rows, n, fold)
    ns, ncol, tab, basis, scales = t.ns, t.ncol, t.tab, t.basis, t.scales

    # Phase 1: drive the artificial variables to zero, minimizing
    # sum_t (L / s_t) a'_t = L sum_t a_t with L = lcm(s_t).
    big_l = math.lcm(*scales)
    rc1 = t.reduced_costs([0] * ns + [big_l // s for s in scales] + [0])
    try:
        t.run(rc1, ncol)
    except _Unbounded:  # pragma: no cover - phase 1 is bounded below by 0
        raise RuntimeError("phase-1 unbounded (internal bug)")

    # the ratio test keeps every right-hand side nonnegative
    if any(tab[r][ncol] > 0 for r in range(len(tab)) if basis[r] >= ns):
        # y_t = 1 - (reduced cost of a_t) = 1 - rc1[a'_t] s_t / (L D), so over
        # E = L D L_b, with L_b = lcm of the folded rows' scales, a general
        # row reads flip_t ((L / s_t) D - rc1[a'_t]) L_b, and a folded one
        # rc1[x_j] (L_b / s_i)
        big_lb = t.big_lb
        z = [0] * len(rows)
        for k, i in enumerate(t.gen):
            z[i] = t.flips[k] * (big_l // scales[k] * t.d - rc1[ns + k]) * big_lb
        for j, i in t.bound_row.items():
            z[i] = rc1[t.pos[j]] * (big_lb // rows[i][3])
        return ("infeasible", (z, big_l * t.d * big_lb))

    # Clean-up, leaving rc1 (read no more): pivot surviving artificials out;
    # a row with no structural entry left is redundant and dropped (dual 0).
    dropped: list[int] = []
    for r in range(len(tab)):
        if basis[r] >= ns:
            col = next((j for j in range(ns) if tab[r][j]), -1)
            if col >= 0:
                t.pivot(r, col)
            else:
                dropped.append(r)
    for r in reversed(dropped):
        del tab[r]
        del basis[r]
    return ("feasible", t)


class _Siblings:
    """What the programs built at once on one builder's rows share besides
    the rows and their fold: `_phase1`'s outcome, made when the first of
    them is solved and kept until each has taken it (see `_solve_rows`).

    A tableau taken while others are still to take it is a copy; the last
    one taken is the tableau itself, and the set keeps nothing after it.  A
    program solved again after that makes the outcome anew.
    """

    __slots__ = ("untaken", "start")

    def __init__(self, count: int):
        self.untaken = count
        self.start = None

    def take(self, rows, n: int, fold) -> tuple:
        start = self.start or _phase1(rows, n, fold)
        self.untaken -= 1
        self.start = start if self.untaken > 0 else None
        if self.start is not None and start[0] == "feasible":
            return ("feasible", start[1].copy())
        return start


def _solve_rows(rows, obj, minimize, n, fold=None, siblings=None):
    """Two-phase simplex on integer rows (A, rel, B, s) over n variables.

    obj is the objective's integer image (C, s) from `_int_image`, minimized
    or maximized.  A row of the form x_j >= 0 is folded into its column as a
    sign condition (no split, no slack, no artificial); fold is
    `_folded(rows)`, made here unless the caller has it.  A folded row's
    multiplier in the returned certificates is the final reduced cost at
    that column.  Every other variable is split x = x+ - x-; one slack per
    inequality row; one artificial per row.  Returns one of
      ("optimal", (X, D), (Z, E))
      ("infeasible", (Z, E))
      ("unbounded", (X, D))
    over the original n variables and len(rows) rows, as integer images: the
    point or ray is X / D, and row i's multiplier y_i has y_i / s_i = Z_i / E,
    with D and E positive.

    siblings, when given, is the `_Siblings` of the programs that share
    these rows: set-up, phase 1 and clean-up (`_phase1`) then run once for
    all of them, and this solve runs phase 2 alone, on its own copy of the
    tableau that clean-up left.  No result can move by that:
      - set-up, phase 1 and clean-up never read the objective; obj is first
        read after clean-up;
      - `_Tableau.run` counts its degenerate pivots afresh in each phase;
      - so each sibling's phase 2 starts from the tableau a lone solve
        reaches, makes the same pivots, and returns the same point,
        multipliers and ray;
      - rows that are infeasible give every sibling the same phase-1 Farkas
        vector.
    A tall program is solved through `_solve_transposed` (see `lp_solve`),
    whose phase 1 reads the objective as its right-hand side, so siblings
    solved there share nothing.
    """
    status, t = _phase1(rows, n, fold) if siblings is None else siblings.take(rows, n, fold)
    if status == "infeasible":
        return status, t
    sign = 1 if minimize else -1
    ns, ncol, tab, basis, pos, neg = t.ns, t.ncol, t.tab, t.basis, t.pos, t.neg

    # Phase 2 over the real objective, times s; artificials may not re-enter.
    c, s = obj
    rc2 = t.reduced_costs(t.split_row(enumerate([sign * x for x in c]), ncol + 1))
    try:
        t.run(rc2, ns)
    except _Unbounded as ub:
        nums = {ub.col: t.d}
        for r, row in enumerate(tab):
            nums[basis[r]] = -row[ub.col]
        return ("unbounded", (_split(nums, pos, neg), t.d))

    point = _split({basis[r]: row[ncol] for r, row in enumerate(tab)}, pos, neg)
    # Duals are -sign flips_t rc2[a'_t] s_t / (s D) and, for a folded row,
    # sign rc2[x_j] / (s D); over E = s D L_b they read -sign flips_t
    # rc2[a'_t] L_b and sign rc2[x_j] (L_b / s_i).  A dropped (redundant)
    # row's artificial column stays zero, so its dual reads back 0.
    big_lb = t.big_lb
    z = [0] * len(rows)
    for k, i in enumerate(t.gen):
        z[i] = -sign * t.flips[k] * rc2[ns + k] * big_lb
    for j, i in t.bound_row.items():
        z[i] = sign * rc2[pos[j]] * (big_lb // rows[i][3])
    return ("optimal", (point, t.d), (z, s * t.d * big_lb))


# A tall program, one with many more general rows than variables, is solved
# through its transpose (LP duality: Dantzig 1963; Chvatal 1983, ch. 5).
# Take min c . x (max is alike, with the multipliers' signs reversed) over
# the general rows (A_t / s_t) . x  rel_t  B_t / s_t and the folded rows
# x_j >= 0.  Its dual asks for multipliers y_t of the signs `_signs_ok`
# requires, with sum_t y_t A_tj / s_t = c_j for a free x_j and <= c_j for a
# folded one (the folded row's multiplier is the difference), and maximizes
# sum_t y_t B_t / s_t.  With u_t = y_t s g_t / s_t, for the objective's image
# (C, s) and g_t the gcd of row t's integers, that is
# sum_t (A_tj / g_t) u_t = C_j, maximizing sum_t (B_t / g_t) u_t / s: the
# transpose's rows are the integer rows read by column, with no lcm.  Over
# g_t each column is the same for every integer image of its rational row,
# so the transpose, and its pivots, are functions of the rational program.
# Each sign-constrained u_t is written w_t = +-u_t >= 0, a row the kernel
# folds.  The transpose's optimal point w gives the multipliers,
# y_t / s_t = +-w_t / (s g_t); its multipliers are the point; and its ray,
# along which the dual objective grows without bound, is a Farkas vector of
# the program.

def _tall(n: int) -> int:
    """The most general rows a program over n variables is solved with
    directly: 1.5 n + 1, rounded down.  More are solved through the
    transpose.  The ladder of shapes in BENCH_26.json sets the line."""
    return (3 * n + 2) // 2


def _solve_transposed(rows, obj, minimize, n, fold):
    """`_solve_rows`' result for the rows, read off a solve of their
    transpose; None when the transpose is infeasible, which leaves the
    program unbounded or infeasible, to be solved directly.  fold is
    `_folded(rows)`."""
    sign = 1 if minimize else -1
    bound_row, is_bound = fold
    gen = [i for i in range(len(rows)) if not is_bound[i]]
    # flip_t u_t >= 0 for general row t, whose multiplier has a sign
    flip = [sign if rows[i][1] == GE else -sign if rows[i][1] == LE else 1 for i in gen]
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    gcds = []
    t_obj = []
    for t, i in enumerate(gen):
        a, _, b, _ = rows[i]
        f = flip[t]
        g = math.gcd(b, *a.values()) or 1
        gcds.append(g)
        for j, x in a.items():
            cols[j][t] = f * x // g
        t_obj.append(f * b // g)
    c, s = obj
    folded_rel = LE if minimize else GE
    t_rows = [(cols[j], folded_rel if j in bound_row else EQ, c[j], 1) for j in range(n)]
    t_rows += [({t: 1}, GE, 0, 1) for t, i in enumerate(gen) if rows[i][1] != EQ]
    out = _solve_rows(t_rows, (t_obj, 1), not minimize, len(gen))
    if out[0] == "infeasible":
        return None
    # Over E = s D L_b G, with L_b and G the lcms of the folded rows' scales
    # and of the gcds, y_t / s_t = flip_t W_t / (s D g_t) reads
    # flip_t W_t L_b (G / g_t), and a folded row's multiplier, the reduced
    # cost c_j - sum_t y_t A_tj / s_t, reads (C_j D - cols_j . W) L_b G / s_i.
    # A ray W solves the same system with c = 0; times sign, its multipliers
    # take the minimization's signs, as a Farkas vector's do.
    big_lb = math.lcm(*[rows[i][3] for i in bound_row.values()])
    big_g = math.lcm(*gcds)
    w, d = out[1]
    optimal = out[0] == "optimal"
    k = 1 if optimal else sign
    z = [0] * len(rows)
    for t, i in enumerate(gen):
        z[i] = k * flip[t] * w[t] * big_lb * (big_g // gcds[t])
    for j, i in bound_row.items():
        cj = c[j] * d if optimal else 0
        z[i] = k * (cj - _row_dot(cols[j], w)) * big_g * (big_lb // rows[i][3])
    e = s * d * big_lb * big_g
    if optimal:
        x, e_t = out[2]
        return ("optimal", (x[:n], e_t), (z, e))
    return ("infeasible", (z, e))


# Exact certificate checks, on the integer rows and the objective's integer
# image (C, s), and on the integer images the kernel returns.  A point or ray
# is read as X / D, so row i holds exactly when A_i . X compares with B_i D
# as the row's relation says.  A multiplier vector y is read as
# y_i / s_i == Z_i / E, so sum_i y_i a_i is sum_i Z_i A_i / E, y . b is
# sum_i Z_i B_i / E, and y_i has the sign of Z_i.  The public check_*
# functions take rationals and make these images first.

def _row_holds(dot_a: int, rel: str, rhs: int) -> bool:
    if rel == LE:
        return dot_a <= rhs
    if rel == GE:
        return dot_a >= rhs
    return dot_a == rhs


def _row_dot(a: dict, x: list[int]) -> int:
    """A . X over the nonzero entries of A."""
    return sum(map(mul, a.values(), map(x.__getitem__, a)))


def _feasible(rows, x: list[int], d: int) -> bool:
    return all(_row_holds(_row_dot(a, x), rel, b * d) for a, rel, b, _ in rows)


def _ray_ok(rows, obj, minimize: bool, r: list[int]) -> bool:
    """Every row's recession condition holds along the ray X = r, and the
    objective strictly improves."""
    if not all(_row_holds(_row_dot(a, r), rel, 0) for a, rel, _, _ in rows):
        return False
    gain = sum(map(mul, obj[0], r))
    return gain < 0 if minimize else gain > 0


def _multipliers(rows, y) -> tuple[list[int], int]:
    """(Z, E) with y_i / s_i == Z_i / E for every row i, E > 0."""
    nums, dens = [], []
    for v, (_, _, _, s) in zip(y, rows):
        g = math.gcd(v.numerator, s)
        nums.append(v.numerator // g)
        dens.append(v.denominator * (s // g))
    e = math.lcm(*dens)
    return [z * (e // d) for z, d in zip(nums, dens)], e


def _combined(rows, z: list[int], n: int) -> list[int]:
    """sum_i Z_i A_i, one entry per each of n columns."""
    out = [0] * n
    for zi, (a, _, _, _) in zip(z, rows):
        if zi:
            for j, x in a.items():
                out[j] += zi * x
    return out


def _rhs_combined(rows, z: list[int]) -> int:
    """sum_i Z_i B_i."""
    return sum(zi * b for zi, (_, _, b, _) in zip(z, rows))


def _signs_ok(rows, z: list[int], minimize: bool) -> bool:
    """Each multiplier has its row's sign: of a lower bound on a minimum, or
    of an upper bound on a maximum; equality rows take either sign."""
    return not any(
        zi and rel != EQ and (zi > 0) == ((rel == LE) == minimize)
        for zi, (_, rel, _, _) in zip(z, rows)
    )


def _dual_ok(rows, obj, minimize: bool, z: list[int], e: int, value) -> bool:
    """Adjoint equation, sign pattern, and objective match for the dual
    vector of image (Z, E)."""
    if not is_finite(value):
        return False
    c, s = obj
    if any(s * x != e * cj for x, cj in zip(_combined(rows, z, len(c)), c)):
        return False
    if not _signs_ok(rows, z, minimize):
        return False
    return _rhs_combined(rows, z) * value.denominator == value.numerator * e


def _farkas_ok(rows, n: int, z: list[int]) -> bool:
    """The multipliers of image (Z, E) combine the rows to 0 = y . b > 0,
    with the minimization sign pattern."""
    if any(_combined(rows, z, n)) or not _signs_ok(rows, z, True):
        return False
    return _rhs_combined(rows, z) > 0


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve lp exactly, returning an optimum with a certificate.

    A tall program is solved through its transpose (`_tall`,
    `_solve_transposed`).  The rows' fold is the one lp carries, or is found
    here where it is needed.  A program solved directly shares phase 1 with
    its siblings, if it has any (`_solve_rows`).  The point and the certificate are re-verified
    on lp's own rows before returning; a verification failure raises
    RuntimeError (it would mean a kernel bug, not a property of the input).
    """
    rows, obj, fold = lp._rows, lp._obj, lp._fold
    minimize = lp.sense == "min"
    n = lp.num_vars
    out = None
    tall = _tall(n)
    if len(rows) > tall:
        fold = fold or _folded(rows)
        if len(rows) - len(fold[0]) > tall:
            out = _solve_transposed(rows, obj, minimize, n, fold)
    if out is None:
        out = _solve_rows(rows, obj, minimize, n, fold, lp._siblings)

    if out[0] == "infeasible":
        cert = out[1]
        if not _farkas_ok(rows, lp.num_vars, cert[0]):
            raise RuntimeError("internal: Farkas certificate failed verification")
        return LpResult._of_images("infeasible", POS_INF if minimize else NEG_INF, rows,
                                   y=cert)

    if out[0] == "unbounded":
        ray = out[1]
        if not _ray_ok(rows, obj, minimize, ray[0]):
            raise RuntimeError("internal: unbounded direction failed verification")
        return LpResult._of_images("unbounded", NEG_INF if minimize else POS_INF, rows,
                                   x=ray)

    _, point, duals = out
    x, d = point
    value = Fraction(sum(map(mul, obj[0], x)), obj[1] * d)
    if not _feasible(rows, x, d):
        raise RuntimeError("internal: optimal point failed feasibility check")
    if not _dual_ok(rows, obj, minimize, *duals, value):
        raise RuntimeError("internal: dual certificate failed verification")
    return LpResult._of_images("optimal", value, rows, x=point, y=duals)


def _exact_vector(values, length: int, what: str) -> Vec:
    """values as Fractions, refused unless there is exactly one per slot."""
    if len(values) != length:
        raise StructuralError(f"{what} length {len(values)} != {length}")
    return vec(values)


def check_point_feasible(lp: LinearProgram, point) -> bool:
    return _feasible(lp._rows, *_int_image(_exact_vector(point, lp.num_vars, "point")))


def check_dual_certificate(lp: LinearProgram, duals, value) -> bool:
    """True iff duals proves the bound `value` for lp (exact arithmetic)."""
    rows = lp._rows
    z, e = _multipliers(rows, _exact_vector(duals, len(rows), "dual"))
    return _dual_ok(rows, lp._obj, lp.sense == "min", z, e, parse_scalar(value))


def check_farkas_certificate(lp: LinearProgram, cert) -> bool:
    rows = lp._rows
    z, _ = _multipliers(rows, _exact_vector(cert, len(rows), "Farkas vector"))
    return _farkas_ok(rows, lp.num_vars, z)


def check_ray_certificate(lp: LinearProgram, ray) -> bool:
    r, _ = _int_image(_exact_vector(ray, lp.num_vars, "ray"))
    return _ray_ok(lp._rows, lp._obj, lp.sense == "min", r)


class PointColumns:
    """A finite point set's integer image, by coordinate, for convex weights.

    For each coordinate c: a scale L > 0, the lcm of the points'
    denominators there, and the numerators p_i[c] L of the points in order.
    A point set weighted many times, such as a sample-form function's
    samples, keeps one and hands it to `LpBuilder.convex_weights` in place
    of its points.
    """

    __slots__ = ("count", "columns")

    def __init__(self, points: Sequence[Sequence], dim: int):
        self.count = len(points)
        columns = []
        for c in range(dim):
            vals = [frac(p[c]) for p in points]
            scale = math.lcm(*[v.denominator for v in vals])
            columns.append((scale, tuple([v.numerator * (scale // v.denominator)
                                          for v in vals])))
        self.columns = tuple(columns)


def _coordinate_row(scale: int, column: tuple, lam, extra: dict, b: int, t: int) -> tuple:
    """The row sum_i lam_i p_i[c] + extra . x = B / t for the points' column
    (scale, column) of `PointColumns`, where extra is the integer image of
    the extra terms over t: over the lcm of scale and t, the column's
    numerators in weight order, the extra terms added in, a sum that cancels
    dropped."""
    s = math.lcm(scale, t)
    k, m = s // scale, s // t
    a = {j: x * k for j, x in zip(lam, column) if x}
    for j, x in extra.items():
        x = a.get(j, 0) + x * m
        if x:
            a[j] = x
        else:
            del a[j]
    return (a, EQ, b * m, s)


@lru_cache(maxsize=64)
def _weight_rows(n: int) -> tuple:
    """The weight row sum_i lam_i = 1 and the n bound rows lam_i >= 0 of
    convex weights over n points that are a program's first variables."""
    return (dict.fromkeys(range(n), 1), EQ, 1, 1), tuple(({j: 1}, GE, 0, 1) for j in range(n))


@lru_cache(maxsize=64)
def _weight_parts(n: int, d: int) -> tuple:
    """The parts of convex weights over n points in dimension d that no
    target reads, when the weights are a program's only variables: the
    weight row, the n bound rows, and the fold of the program whose rows
    are the weight row, d coordinate rows and the bound rows, in that
    order.  Every program of the shape shares them, and the rows are shared
    across dimensions too, so nothing may mutate them."""
    weight, bounds = _weight_rows(n)
    fold = ({j: d + 1 + j for j in range(n)}, [False] * (d + 1) + [True] * n)
    return weight, bounds, fold


class LpBuilder:
    """Incremental assembly of a LinearProgram from sparse rows, the only
    way to make one.

    Variables are created with var()/block() and referenced by index; rows
    and the linear objective are sparse {index: coeff} maps.  A caller whose
    objective has a constant adds it to the solved value itself, as
    `convexfn.sup_affine_minus_convex` does.  Each row is stored as the
    kernel reads it (see `_row_image`) the moment it is added, so build()
    only collects rows; bound rows are kept apart, in variable order, and
    follow the constraints.  A caller that has a row's integer image
    already hands it over with add_image.  build_siblings makes one
    program per objective, given as its integer image, on the same rows.
    weights_program makes a whole program of convex weights from prepared
    parts, and the program carries its fold.
    """

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise StructuralError(f"sense must be 'min' or 'max', got {sense!r}")
        self._sense = sense
        self._n = 0
        self._rows: list[tuple[dict[int, int], str, int, int]] = []
        self._bound_rows: Sequence[tuple[dict[int, int], str, int, int]] = []
        self._obj: dict[int, Fraction] = {}
        # (objective image, fold) of a program made from prepared parts
        self._prepared: tuple | None = None

    def var(self, lo=None, hi=None) -> int:
        return self.block(1, lo, hi)[0]

    def block(self, count: int, lo=None, hi=None) -> list[int]:
        """count new variables, each with the bounds lo <= x and x <= hi
        where they are given."""
        self._open()
        # an int is its own image, with no Fraction made for it
        sides = [(rel, v if type(v) is int else frac(v))
                 for v, rel in ((lo, GE), (hi, LE)) if v is not None]
        start = self._n
        self._n += count
        if sides:
            sides = [(rel, v.numerator, v.denominator) for rel, v in sides]
            self._bound_rows.extend(({j: s}, rel, b, s)
                                    for j in range(start, self._n) for rel, b, s in sides)
        return list(range(start, self._n))

    def convex_weights(self, points: Sequence[Sequence] | PointColumns, rhs: Sequence,
                       extra: Sequence[Mapping[int, object]] | None = None) -> list[int]:
        """Convex weights over points, matched coordinatewise to rhs.

        Appends one variable lam_i >= 0 per point, then the row
        sum_i lam_i = 1, then for each coordinate c the row
        sum_i lam_i * points[i][c] + extra[c] = rhs[c], in that order: the
        block's dual multipliers read the weight row first, then one per
        coordinate, which is where a subgradient is read off.  extra, when
        given, holds one sparse {index: coeff} map per coordinate, added into
        that coordinate's row.  points may be given as their `PointColumns`.
        Returns the weight variables.
        """
        if not isinstance(points, PointColumns):
            points = PointColumns(points, len(rhs))
        elif len(points.columns) != len(rhs):
            raise StructuralError(
                f"{len(points.columns)} point coordinates matched to {len(rhs)} targets"
            )
        lam = self.block(points.count, lo=0)
        self._rows.append((dict.fromkeys(lam, 1), EQ, 1, 1))
        for c, (scale, column) in enumerate(points.columns):
            # the extra terms and rhs[c] as one row, then the points' column
            # added in over the common scale
            e, _, b, t = _row_image(
                self._coeffs(extra[c]) if extra is not None else {}, EQ, frac(rhs[c])
            )
            self._rows.append(_coordinate_row(scale, column, lam, e, b, t))
        return lam

    def weights_program(self, points: PointColumns, rhs: Vec,
                        obj: tuple[list[int], int]) -> None:
        """Make this empty builder's program min sum_i c_i lam_i over convex
        weights lam on points matched to rhs, from prepared parts.

        The program is the one `convex_weights(points, rhs)` and
        `set_objective({lam[i]: c[i]})` make, row for row, and obj is its
        objective's integer image, `_int_image(c)`, prepared by the caller.
        Only the d coordinate rows, the ones rhs is read by, are made here.
        The weight row, the bound rows and the fold come from
        `_weight_parts`, shared by every program of the shape, and the
        program carries the fold.  rhs holds Fractions.  The builder takes
        no further variables, rows or objective terms.
        """
        if self._n or self._rows:
            raise StructuralError("prepared parts make a whole program, on an empty builder")
        d = len(points.columns)
        if len(rhs) != d:
            raise StructuralError(f"{d} point coordinates matched to {len(rhs)} targets")
        weight, bounds, fold = _weight_parts(points.count, d)
        lam = range(points.count)
        self._rows = [weight]
        self._rows += [_coordinate_row(scale, column, lam, {}, v.numerator, v.denominator)
                       for (scale, column), v in zip(points.columns, rhs)]
        self._bound_rows = bounds
        self._n = points.count
        self._prepared = (obj, fold)

    def _index(self, j) -> int:
        """j itself, when it names a variable this builder created."""
        if type(j) is not int or not 0 <= j < self._n:
            raise StructuralError(
                f"variable index {j!r} is not one of the {self._n} created"
            )
        return j

    def _coeffs(self, coeffs: Mapping[int, object]) -> dict[int, Fraction]:
        """The nonzero coefficients, as Fractions, of variables this builder created."""
        out = {}
        for j, v in coeffs.items():
            self._index(j)
            fv = frac(v)
            if fv:
                out[j] = fv
        return out

    def _open(self) -> None:
        if self._prepared is not None:
            raise StructuralError("a program made from prepared parts takes nothing more")

    def add(self, coeffs: Mapping[int, object], rel: str, rhs) -> None:
        self._open()
        if rel not in _RELS:
            raise StructuralError(f"bad relation {rel!r}")
        self._rows.append(_row_image(self._coeffs(coeffs), rel, frac(rhs)))

    def add_image(self, a: dict[int, int], rel: str, b: int, s: int) -> None:
        """add for a row given as its integer image (A, rel, B, s), the one
        `_row_image` makes: A maps variables this builder created, each
        with a nonzero coefficient, to their numerators over the row's scale
        s > 0.  The image is taken as it is, unchecked."""
        self._open()
        self._rows.append((a, rel, b, s))

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self._open()
        self._obj = {self._index(j): frac(v) for j, v in coeffs.items()}

    def build(self) -> LinearProgram:
        if self._prepared is None:
            obj, fold = _int_image([self._obj.get(j, 0) for j in range(self._n)]), None
        else:
            obj, fold = self._prepared
        return LinearProgram(self._n, self._sense, [*self._rows, *self._bound_rows],
                             len(self._rows), obj, fold)

    def build_siblings(self, objectives: Sequence[tuple[list[int], int]]) -> list[LinearProgram]:
        """One program per objective, on the rows as they stand.

        Each objective is given as its integer image (C, s), the one
        `_int_image` makes of its coefficients, one per variable created,
        and is taken as it is, unchecked; the objective set_objective holds
        is not read.  Two or more programs are siblings: they share the
        rows, their fold and one `_Siblings`, so `lp_solve` runs set-up,
        phase 1 and clean-up once for all of them (see `_solve_rows`).  One
        objective makes a lone program, as build() does.  Rows added later
        make programs of their own.
        """
        self._open()
        for obj in objectives:
            if len(obj[0]) != self._n:
                raise StructuralError(f"{len(obj[0])} objective entries for {self._n} variables")
        rows = [*self._rows, *self._bound_rows]
        fold = siblings = None
        if len(objectives) > 1:
            fold, siblings = _folded(rows), _Siblings(len(objectives))
        return [LinearProgram(self._n, self._sense, rows, len(self._rows), obj, fold, siblings)
                for obj in objectives]

    def solve(self) -> LpResult:
        return lp_solve(self.build())
