"""Deterministic randomized verification suites.

Each suite draws its cases from a seeded generator, checks an exact algebraic
identity case by case, and reports failures as strings; nothing here is
statistical. The suites back the `verify` CLI command and the acceptance
tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Sequence

from . import dyadic, endos, freeassoc
from . import metabelian as mb
from .lieexpr import LieExpr, combination
from .polyring import PolyMatrix, RowSpace, y_column


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# ---------------------------------------------------------------------------
# random element generators
# ---------------------------------------------------------------------------


def random_melement_expr(rng: random.Random, rank: int, degree: int) -> LieExpr:
    """Random element of M_n as an expression: a linear combination of
    generators plus bracket terms of degree <= degree."""
    terms = []
    for i in range(1, rank + 1):
        c = rng.randint(-3, 3)
        if c:
            terms.append((c, i))
    nbrackets = rng.randint(0, 2) if terms else rng.randint(1, 2)
    for _ in range(nbrackets):
        coeff = rng.choice([c for c in range(-3, 4) if c])
        word = endos._random_bracket_word(rng, list(range(1, rank + 1)), degree)
        terms.append((coeff, word))
    return combination(terms)


def random_derived_element(rng: random.Random, rank: int, degree: int) -> mb.MElement:
    """Random element of the bracket subalgebra, built as a combination of
    evaluated bracket expressions (so the Fox row annihilates Y by
    construction)."""
    expr = endos.random_derived_expr(rng, rank, degree)
    return mb.evaluate(expr, rank)


def random_endo(rng: random.Random, rank: int, degree: int) -> endos.Endo:
    """Random endomorphism whose images evaluate random expressions of
    degree <= degree."""
    exprs = [random_melement_expr(rng, rank, degree) for _ in range(rank)]
    return endos.from_exprs(rank, exprs)


def random_nc_poly(
    rng: random.Random, rank: int, degree: int, nterms: int = 4
) -> freeassoc.NCPoly:
    terms = []  # (word, coefficient); the constructor merges repeated words
    for _ in range(nterms):
        length = rng.randint(1, degree)
        word = tuple(rng.randint(1, rank) for _ in range(length))
        terms.append((word, rng.choice([c for c in range(-3, 4) if c])))
    return freeassoc.NCPoly(rank, terms)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_chainrule(seed: int, cases: int = 200, degree: int = 5) -> SuiteResult:
    """J(compose(phi, psi)) = phibar(J(psi)) * J(phi) on random endo pairs,
    ranks 2..5, exact equality. compose is built from that formula, so each
    image is also checked against the independent direct evaluation
    phi(lift(psi_i))."""
    rng = _rng(seed, "chainrule")
    result = SuiteResult("chainrule", cases)
    ranks = [2, 3, 4, 5]
    for case in range(cases):
        rank = ranks[case % len(ranks)]
        phi = random_endo(rng, rank, degree)
        psi = random_endo(rng, rank, degree)
        comp = endos.compose(phi, psi)
        lhs = endos.jacobian(comp)
        rhs = endos.apply_induced(phi, endos.jacobian(psi)) * endos.jacobian(phi)
        if lhs != rhs:
            result.failures.append(f"case {case}: chain rule failed at rank {rank}")
        if list(comp.images) != [endos.apply(phi, mb.lift(g)) for g in psi.images]:
            result.failures.append(
                f"case {case}: compose != direct evaluation at rank {rank}"
            )
    return result


def suite_lemmas(seed: int, cases: int = 100) -> SuiteResult:
    """Conjugated-elementary decomposition J = E + Phi*Psi with Psi*Phi = 0
    and Psi*Y = 0; inner-map Jacobians E - Y*dz with (E-Y*dz)(E+Y*dz) = E;
    antimorphism and unit determinant on identity-mod-bracket products."""
    rng = _rng(seed, "lemmas")
    result = SuiteResult("lemmas", cases)
    for case in range(cases):
        rank = 3 + case % 3
        ident = PolyMatrix.identity(rank, rank)
        ycol = y_column(rank)

        alpha = endos._random_invertible_matrix(rng, rank)
        f = endos.random_derived_expr(rng, rank, 3, list(range(2, rank + 1)))
        conj, phi_col, psi_row = endos.conjugate_elementary(alpha, f, rank)
        jac = endos.jacobian(conj)
        if jac != ident + phi_col * psi_row:
            result.failures.append(f"case {case}: J != E + Phi*Psi")
        if not (psi_row * phi_col)[0, 0].is_zero():
            result.failures.append(f"case {case}: Psi*Phi != 0")
        if not (psi_row * ycol)[0, 0].is_zero():
            result.failures.append(f"case {case}: Psi*Y != 0")

        z = random_derived_element(rng, rank, 4)
        exp_ad = endos.inner(rank, z)
        dz = mb.fox(z)
        if endos.jacobian(exp_ad) != ident - ycol * dz:
            result.failures.append(f"case {case}: J(exp ad z) != E - Y*dz")
        if (ident - ycol * dz) * (ident + ycol * dz) != ident:
            result.failures.append(f"case {case}: (E-Y*dz)(E+Y*dz) != E")

        if case % 4 == 0:
            one = endos.random_tame_iaut(rank, seed * 1000 + case, 2, 2)
            lhs = endos.jacobian(endos.compose(one, exp_ad))
            if lhs != endos.jacobian(exp_ad) * endos.jacobian(one):
                result.failures.append(f"case {case}: antimorphism identity failed")
            det = endos.jacobian(one).det()
            if not (det.is_constant() and det.constant_term() == 1):
                result.failures.append(f"case {case}: det J != 1 on tame product")
    return result


def suite_lift(seed: int, cases: int = 500, degree: int = 6) -> SuiteResult:
    """evaluate(lift(f)) == f on random derived elements, ranks 2..5."""
    rng = _rng(seed, "lift")
    result = SuiteResult("lift", cases)
    for case in range(cases):
        rank = 2 + case % 4
        f = random_derived_element(rng, rank, degree)
        if mb.evaluate(mb.lift(f), rank) != f:
            result.failures.append(f"case {case}: lift roundtrip failed, rank {rank}")
    return result


def suite_dyadic(seed: int, cases: int = 50) -> SuiteResult:
    """Formula expansion vs folded products, the fixed row relations, and
    random concrete instantiations against honest matrix arithmetic."""
    import functools

    rng = _rng(seed, "dyadic")
    result = SuiteResult("dyadic", cases)

    for k in range(1, 7):
        folded = functools.reduce(dyadic.dyad_mul, dyadic.factors(k))
        if folded != dyadic.expand_product(k):
            result.failures.append(f"expand_product({k}) != folded product")

    reduced = dyadic.derive_reduced_relation(3)
    expected = dyadic.RowExpr(
        {dyadic.psi_sym(1): dyadic.lam(2, 1), dyadic.psi_sym(3): dyadic.lam(2, 3)}
    )
    if reduced != expected:
        result.failures.append("reduced relation != lam21*Psi1 + lam23*Psi3")
    if dyadic.row_mul(1, dyadic.minus_y_dz()) != dyadic.RowExpr({}):
        result.failures.append("Psi * (-Y dz) != 0")

    for case in range(cases):
        rank = 3 + case % 3
        k = 2 + case % 3
        degree = 3 if rank == 3 and case % 5 == 0 else 2
        phis, psis = {}, {}
        for i in range(1, k + 1):
            alpha = endos._random_invertible_matrix(rng, rank)
            f = endos.random_derived_expr(rng, rank, degree, list(range(2, rank + 1)))
            _, phi_col, psi_row = endos.conjugate_elementary(alpha, f, rank)
            phis[i], psis[i] = phi_col, psi_row
        ident = PolyMatrix.identity(rank, rank)
        concrete = ident
        for i in range(1, k + 1):
            concrete = concrete * (ident + phis[i] * psis[i])
        grounded = dyadic.instantiate(dyadic.expand_product(k), phis, psis)
        if grounded != concrete:
            result.failures.append(
                f"case {case}: instantiation disagrees with matrix product"
            )
    return result


def commutator_row_space(rank: int, degree: int) -> RowSpace:
    """Row space of all homogeneous commutators u*v - v*u with
    |u| + |v| = degree, over the word basis."""
    space = RowSpace()
    words_by_len = {
        length: list(product(range(1, rank + 1), repeat=length))
        for length in range(1, degree)
    }
    for lu in range(1, degree):
        for u in words_by_len[lu]:
            for v in words_by_len[degree - lu]:
                if u + v != v + u:
                    space.add({u + v: 1, v + u: -1})
    return space


def suite_freeassoc(seed: int, cases: int = 60) -> SuiteResult:
    """Fox reconstruction, commutator membership versus the brute-force span
    of u*v - v*u (exact row reduction over the word basis), and dimension
    agreement between the two criteria at every small size."""
    rng = _rng(seed, "freeassoc")
    result = SuiteResult("freeassoc", cases)

    for rank in range(1, 5):
        for degree in range(1, 5):
            space = commutator_row_space(rank, degree)
            words = list(product(range(1, rank + 1), repeat=degree))
            classes = {freeassoc.cyclic_representative(w) for w in words}
            if space.rank != len(words) - len(classes):
                result.failures.append(
                    f"span dimension mismatch at rank {rank}, degree {degree}"
                )

    for case in range(cases):
        rank = 2 + case % 3
        p = random_nc_poly(rng, rank, 4)
        total = freeassoc.NCPoly.zero(rank)
        for i in range(1, rank + 1):
            total = total + freeassoc.fox_assoc(p, i) * freeassoc.NCPoly.gen(rank, i)
        if total != p:
            result.failures.append(f"case {case}: Fox reconstruction failed")

        u = random_nc_poly(rng, rank, 2, 2)
        v = random_nc_poly(rng, rank, 2, 2)
        if not freeassoc.in_commutator_subspace(u * v - v * u):
            result.failures.append(f"case {case}: commutator failed the cyclic test")

        # every other block of four cases draws the degree-d part of a
        # commutator, so that the span oracle meets nonzero members of [U, U]
        degree = 1 + case % 4
        hom = random_nc_poly(rng, rank, degree, 3)
        if case % 8 >= 4:
            other = random_nc_poly(rng, rank, degree, 3)
            hom = hom * other - other * hom
        hom = hom.homogeneous_component(degree)
        space = commutator_row_space(rank, degree)
        brute = space.contains(hom.terms)
        if brute != freeassoc.in_commutator_subspace(hom):
            result.failures.append(
                f"case {case}: cyclic criterion disagrees with span oracle"
            )
    return result


SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "chainrule": suite_chainrule,
    "lemmas": suite_lemmas,
    "lift": suite_lift,
    "dyadic": suite_dyadic,
    "freeassoc": suite_freeassoc,
}


def run_suites(names: Sequence[str], seed: int) -> List[SuiteResult]:
    return [SUITES[name](seed) for name in names]
