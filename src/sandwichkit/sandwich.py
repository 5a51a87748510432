"""The asymmetric sandwich problem on polyhedral data.

An instance couples a sublinear upper function S on the target space, a
convex lower-bound function k in sample form on the source space, and an
affine link B between them.  The hypothesis is that S(Bz) + k(z) >= 0 on the
domain of k; the conclusion is a linear functional dominated by S whose
composition with B still majorizes -k.  Both sides reduce to small LPs over
the samples and generators, and the two optimal values agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .convexfn import PolyhedralFunction, SublinearFunctional, V_FORM
from .geometry import AffineMap, Polytope, polytope_contains
from .numerics import (
    EQ,
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
class HypothesisCheck:
    holds: bool
    value: Fraction
    witness: Vec


@dataclass(frozen=True)
class Separator:
    """A linear functional between -k (through B) and S."""

    x_prime: Vec
    weights: tuple[Fraction, ...] | None
    margin: Fraction


def hypothesis_check(inst: SandwichInstance) -> HypothesisCheck:
    """Minimize S(Bz) + k(z) over the samples' hull; the witness attains it."""
    linked = inst.linked_samples()
    b = LpBuilder()
    t = b.var()
    lam = b.block(len(linked), lo=0)
    b.add({j: 1 for j in lam}, EQ, 1)
    for g in inst.sublinear.generators:
        row = {t: Fraction(1)}
        for i, (bx, _) in enumerate(linked):
            row[lam[i]] = -dot(g, bx)
        b.add(row, GE, 0)
    obj = {t: Fraction(1)}
    for i, (_, v) in enumerate(linked):
        obj[lam[i]] = v
    b.set_objective(obj)
    res = b.solve()
    if res.status != "optimal":
        raise StructuralError("hypothesis LP is feasible and bounded by construction")
    weights = tuple(res.point[j] for j in lam)
    witness = tuple(
        sum((w * p[c] for w, (p, _) in zip(weights, inst.convex.samples)),
            start=Fraction(0))
        for c in range(inst.z_dim)
    )
    return HypothesisCheck(res.value >= 0, res.value, witness)


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
    """Maximize the worst sample slack over the generator hull.

    The optimum equals the hypothesis infimum, so a negative margin is a
    disproof of the hypothesis and raises with the witness attached.
    """
    linked = inst.linked_samples()
    gens = inst.sublinear.generators
    b = LpBuilder("max")
    s = b.var()
    theta = b.block(len(gens), lo=0)
    b.add({j: 1 for j in theta}, EQ, 1)
    for bx, v in linked:
        row = {s: Fraction(-1)}
        for j, g in enumerate(gens):
            row[theta[j]] = dot(g, bx)
        b.add(row, GE, -v)
    b.set_objective({s: 1})
    res = b.solve()
    if res.status != "optimal":
        raise StructuralError("margin LP is feasible and bounded by construction")
    if res.value < 0:
        check = hypothesis_check(inst)
        raise HypothesisViolated(check.witness, check.value)
    weights = tuple(res.point[j] for j in theta)
    x_prime = tuple(
        sum((weights[j] * gens[j][c] for j in range(len(gens))), start=Fraction(0))
        for c in range(inst.x_dim)
    )
    if not check_separator(inst, x_prime):
        raise RuntimeError("separator failed re-verification; LP kernel is unsound")
    return Separator(x_prime, weights, separator_margin(inst, x_prime))


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


def separator_via_conjugates(inst: SandwichInstance):
    """Recover a separator from the conjugate-duality route.

    Builds the additive-coupling identity with the lower bound as the first
    function, the sublinear function in piece form as the second, and the
    link as the coupling map, queried at the zero functional.  The dual
    optimizer is the separator, and the shared optimal value is the negated
    hypothesis infimum.  Returns (separator, report).
    """
    # imported here: duality builds on this module's types for cross-checks
    from .duality import DualityScenario, verify

    scenario = DualityScenario.fenchel(
        f=inst.convex,
        g=inst.sublinear.as_h_form(),
        link=inst.link,
        queries=[(Fraction(0),) * inst.z_dim],
    )
    report = verify(scenario)[0]
    if report.witness is None:
        check = hypothesis_check(inst)
        raise HypothesisViolated(check.witness, check.value)
    x_prime = report.witness
    margin = separator_margin(inst, x_prime)
    if margin < 0:
        check = hypothesis_check(inst)
        raise HypothesisViolated(check.witness, check.value)
    if not check_separator(inst, x_prime):
        raise RuntimeError("conjugate-route separator failed re-verification")
    return Separator(x_prime, None, margin), report
