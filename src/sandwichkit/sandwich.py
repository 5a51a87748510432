"""The asymmetric sandwich problem on polyhedral data.

An instance couples a sublinear upper function S on the target space, a
convex lower-bound function k in sample form on the source space, and an
affine link B between them.  The hypothesis is that S(Bz) + k(z) >= 0 on the
domain of k; the conclusion is a linear functional x' dominated by S whose
composition with B still majorizes -k.  Both sides are the `fenchel`
identity of k and S (in piece form) through B at the zero query
(Rockafellar, Convex Analysis, Thm 31.1), stated once by
`duality.query_program`: its left side is -min(S(Bz) + k(z)) and, when
that minimum is nonnegative, its dual witness is the max-margin separator,
which `check_separator` re-checks by arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .convexfn import (
    PolyhedralFunction,
    SublinearFunctional,
    V_FORM,
    sup_affine_minus_convex,
)
from .duality import DualityScenario, query_program
from .geometry import AffineMap, Polytope, polytope_contains
from .numerics import (
    GE,
    NEG_INF,
    Ext,
    LpBuilder,
    PreconditionError,
    StructuralError,
    Vec,
    dot,
    vec,
)


@dataclass(frozen=True)
class SandwichInstance:
    sublinear: SublinearFunctional
    convex: PolyhedralFunction
    link: AffineMap
    space: Polytope | None = None

    def __post_init__(self):
        if self.convex.form != V_FORM:
            raise StructuralError("the lower-bound function must be in sample form")
        if self.link.in_dim != self.convex.dim:
            raise StructuralError("link map does not act on the sample space")
        if self.link.out_dim != self.sublinear.dim:
            raise StructuralError("link map does not land in the sublinear space")
        if self.space is not None:
            if self.space.dim != self.convex.dim:
                raise StructuralError("ambient set does not match the sample space")
            for p, _ in self.convex.samples:
                if not polytope_contains(self.space, p):
                    raise StructuralError(
                        f"sample point {p} lies outside the ambient set"
                    )

    @property
    def z_dim(self) -> int:
        return self.convex.dim

    @property
    def x_dim(self) -> int:
        return self.sublinear.dim

    def linked_samples(self) -> tuple[tuple[Vec, Fraction], ...]:
        """(B z_i, v_i) for every sample (z_i, v_i)."""
        return tuple((self.link(p), v) for p, v in self.convex.samples)


class HypothesisViolated(PreconditionError):
    """The lower bound dips below -S(B z) somewhere on its domain."""

    def __init__(self, witness: Vec, value: Fraction):
        self.witness = witness
        self.value = value
        super().__init__(
            f"sandwich hypothesis fails at z = {witness}: S(Bz) + k(z) = {value} < 0"
        )


@dataclass(frozen=True)
class Separator:
    """A linear functional between -k (through B) and S, with the convex
    weights over S's generators that combine to it."""

    x_prime: Vec
    weights: tuple[Fraction, ...]
    margin: Fraction


@dataclass(frozen=True)
class HypothesisCheck:
    """min S(Bz) + k(z) over dom k, a point attaining it, and, when the
    minimum is nonnegative, the max-margin separator (else None)."""

    holds: bool
    value: Fraction
    witness: Vec
    separator: Separator | None


def hypothesis_check(inst: SandwichInstance) -> HypothesisCheck:
    """Minimize S(Bz) + k(z) as the fenchel identity at the zero query.

    The value is minus the left side and the witness the sup LP's
    maximizer.  Only a nonnegative value solves the right side: its
    witness, with its weights over the generators (the last group's, S's
    conjugate), is the max-margin separator, of margin the value.  S is
    finite everywhere, so the two sides must close with a zero gap, as
    `verify` would certify.
    """
    zero = (Fraction(0),) * inst.z_dim
    s = DualityScenario.fenchel(inst.convex, inst.sublinear.as_h_form(), inst.link, [zero])
    p = query_program(s, s.queries[0])
    sup = sup_affine_minus_convex(p.objective, p.terms, p.fibers)
    value = -sup.value
    separator = None
    if value >= 0:
        dual = sup_affine_minus_convex(*p.dual)
        if -dual.value != sup.value:
            raise RuntimeError("sandwich sides differ; LP kernel is unsound")
        separator = Separator(dual.argmax, dual.term_weights[-1], value)
    return HypothesisCheck(value >= 0, value, sup.argmax, separator)


def separator_margin(inst: SandwichInstance, x_prime: Sequence) -> Fraction:
    """min over samples of <x', B z_i> + v_i, by direct arithmetic."""
    x = vec(x_prime)
    return min(dot(x, bx) + v for bx, v in inst.linked_samples())


def check_separator(inst: SandwichInstance, x_prime: Sequence) -> bool:
    """Dominated by S (hull membership) and majorizes -k on every sample."""
    x = vec(x_prime)
    if not polytope_contains(inst.sublinear.generator_hull(), x):
        return False
    return separator_margin(inst, x) >= 0


def find_separator(inst: SandwichInstance) -> Separator:
    """The max-margin separator of `hypothesis_check`, re-checked.

    Its margin equals the hypothesis minimum, so a negative minimum is a
    disproof of the hypothesis and raises with the witness attached.
    """
    check = hypothesis_check(inst)
    if not check.holds:
        raise HypothesisViolated(check.witness, check.value)
    if not check_separator(inst, check.separator.x_prime):
        raise RuntimeError("separator failed re-verification; LP kernel is unsound")
    return check.separator


def verify_hypothesis(inst: SandwichInstance) -> bool:
    return hypothesis_check(inst).holds


def aux_T(inst: SandwichInstance, x: Sequence) -> Ext:
    """Value of the auxiliary sublinear minorant at x.

    T(x) = inf over nonnegative weights mu of S(x + sum mu_i B(z_i)) + sum
    mu_i v_i.  Taking mu = 0 shows T <= S; T is positively homogeneous and
    subadditive.  T(0) = 0 exactly when the sandwich hypothesis holds and
    T(0) = -inf exactly when it fails, and every separator lies below T
    pointwise.  Never +inf: the weights can always be zeroed out.
    """
    x = vec(x)
    if len(x) != inst.x_dim:
        raise StructuralError("point has the wrong dimension for the target space")
    linked = inst.linked_samples()
    b = LpBuilder()
    t = b.var()
    mu = b.block(len(linked), lo=0)
    for g in inst.sublinear.generators:
        row = {t: Fraction(1)}
        for i, (bx, _) in enumerate(linked):
            row[mu[i]] = -dot(g, bx)
        b.add(row, GE, dot(g, x))
    obj = {t: Fraction(1)}
    for i, (_, v) in enumerate(linked):
        obj[mu[i]] = v
    b.set_objective(obj)
    res = b.solve()
    if res.status == "unbounded":
        return NEG_INF
    if res.status != "optimal":
        raise StructuralError("the weights can be zeroed, so the LP is feasible")
    return res.value
