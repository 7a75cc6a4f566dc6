"""Endomorphisms and automorphisms of the free metabelian Lie algebra:
constructors (linear, elementary, inner, conjugates), composition, Jacobian
matrices, exact inverse construction, and the identity-modulo-degree
filtration level.

Composition convention, fixed once for the whole package:
compose(phi, psi) is the map x -> phi(psi(x)). Under this convention the
Jacobian satisfies the chain rule J(compose(phi, psi)) = phibar(J(psi)) *
J(phi), where phibar is the polynomial-ring endomorphism induced by the
linear parts of phi, and compose is computed from exactly that formula: an
image is stored as its Fox row, so no bracket expression is ever built. On
the subgroup acting as the identity modulo brackets, J is therefore an
antimorphism into GL_n of the polynomial ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import metabelian as mb
from .lieexpr import LieExpr, generators_used, left_normed, scale_expr, sum_exprs
from .metabelian import MElement
from .polyring import (
    PolyMatrix,
    Polynomial,
    Scalar,
    as_coeff,
    col_vector,
    rational_inverse,
)


@dataclass(frozen=True)
class Endo:
    """An endomorphism of M_n given by the images of the generators, each an
    element of M_n in normal form.

    `exprs` is an optional record of one source expression per image for
    callers that pass it (bench/workloads.py); the package never reads it
    and it never participates in equality.
    """

    rank: int
    images: Tuple[MElement, ...]
    exprs: Optional[Tuple[LieExpr, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")
        if self.exprs is not None and len(self.exprs) != self.rank:
            raise ValueError("need exactly one cached expression per generator")

    def linear_matrix(self) -> List[List[Scalar]]:
        """Row i = linear part of the image of x_{i+1}."""
        return [list(img.linear) for img in self.images]

    def is_identity(self) -> bool:
        return all(
            img == mb.generator(self.rank, i + 1) for i, img in enumerate(self.images)
        )


def identity(rank: int) -> Endo:
    return Endo(rank, tuple(mb.generator(rank, i) for i in range(1, rank + 1)))


def from_exprs(rank: int, exprs: Sequence[LieExpr]) -> Endo:
    """Endomorphism with image i = evaluation of exprs[i-1]."""
    return Endo(rank, tuple(mb.evaluate(e, rank) for e in exprs))


def elementary(rank: int, f: LieExpr, position: int = 1) -> Endo:
    """x_position -> x_position + f, every other generator fixed.

    f must avoid x_position and evaluate into the bracket subalgebra.
    """
    if not 1 <= position <= rank:
        raise ValueError(f"position {position} out of range 1..{rank}")
    used = generators_used(f)
    if position in used:
        raise ValueError(f"perturbation mentions x{position}")
    if used and max(used) > rank:
        raise ValueError(f"generator index {max(used)} out of range 1..{rank}")
    value = mb.evaluate(f, rank)
    if not mb.is_derived(value):
        raise ValueError("perturbation is not in the bracket subalgebra")
    images = [mb.generator(rank, i) for i in range(1, rank + 1)]
    images[position - 1] = images[position - 1] + value
    return Endo(rank, tuple(images))


def inner(rank: int, z: MElement) -> Endo:
    """exp(ad z) = id + ad z for a nonzero z in the bracket subalgebra."""
    if z.rank != rank:
        raise ValueError("rank mismatch")
    if z.is_zero():
        raise ValueError("z must be nonzero")
    if not mb.is_derived(z):
        raise ValueError("z must lie in the bracket subalgebra")
    gens = [mb.generator(rank, i) for i in range(1, rank + 1)]
    return Endo(rank, tuple(xi + mb.bracket(z, xi) for xi in gens))


def _invertible(matrix: Sequence[Sequence]):
    """The rational matrix with normalized entries, and its inverse; raises
    ValueError unless it is square and invertible."""
    a = [[as_coeff(c) for c in row] for row in matrix]
    a_inv = rational_inverse(a)
    if a_inv is None:
        raise ValueError("matrix is singular")
    return a, a_inv


def linear(matrix: Sequence[Sequence]) -> Endo:
    """x_i -> sum_j A[i][j] x_j for an invertible rational matrix A."""
    return _linear(_invertible(matrix)[0])


def _linear(a) -> Endo:
    """`linear` of a square rational matrix already known to be invertible."""
    n = len(a)
    return Endo(n, tuple(mb._linear_form(n, r) for r in a))


def apply(phi: Endo, e: LieExpr) -> MElement:
    """Evaluate an expression with every generator replaced by its image."""
    return mb.eval_with(e, phi.images)


def compose(phi: Endo, psi: Endo) -> Endo:
    """The map x -> phi(psi(x)), by the chain rule.

    Row i of phibar(J(psi)) * J(phi) is the Fox row of the image of x_i, and
    an element of M_n is stored as its Fox row, so each row is an image.
    """
    if phi.rank != psi.rank:
        raise ValueError(f"rank mismatch: {phi.rank} vs {psi.rank}")
    n = phi.rank
    rows = (apply_induced(phi, jacobian(psi)) * jacobian(phi)).rows
    return Endo(n, tuple(MElement(n, r) for r in rows))


def jacobian(phi: Endo) -> PolyMatrix:
    """Row i = Fox-derivative row of the image of x_{i+1}."""
    return PolyMatrix(phi.rank, [img.tpart for img in phi.images])


def induced_poly_images(phi: Endo) -> List[Polynomial]:
    """The degree <= 1 polynomials y_i -> linear part of image i, i.e. the
    substitution data for the induced endomorphism of K[y1..yn]."""
    return [img.linear_poly() for img in phi.images]


def apply_induced(phi: Endo, target):
    """Apply the induced polynomial-ring endomorphism to a Polynomial or to
    a PolyMatrix entrywise."""
    if isinstance(target, (Polynomial, PolyMatrix)):
        return target.substitute(induced_poly_images(phi))
    raise TypeError("expected a Polynomial or PolyMatrix")


def conjugate_elementary(alpha: Sequence[Sequence], f: LieExpr, rank: int):
    """Conjugate of the elementary map x1 -> x1 + f by the linear map alpha.

    Returns (endo, Phi, Psi) where endo = alpha o phi_f o alpha^{-1} and
    Phi (column), Psi (row) satisfy J(endo) = E + Phi*Psi with Psi*Phi = 0
    and Psi*Y = 0: Phi = A^{-1} e1 and Psi = alphabar(dfox(f)) * A.
    """
    a, a_inv = _invertible(alpha)
    alpha_endo = _linear(a)
    if alpha_endo.rank != rank:
        raise ValueError("alpha has the wrong rank")
    phi_f = elementary(rank, f)
    conj = compose(compose(alpha_endo, phi_f), _linear(a_inv))

    phi_col = col_vector(rank, [a_inv[i][0] for i in range(rank)])
    dfox = mb.fox(mb.evaluate(f, rank))
    psi_row = apply_induced(alpha_endo, dfox) * PolyMatrix(rank, a)
    return conj, phi_col, psi_row


def inverse(phi: Endo) -> Optional[Endo]:
    """Exact two-sided inverse, or None when phi is not an automorphism.

    The linear part is peeled off first; what remains acts as the identity
    modulo brackets, so its Jacobian must be invertible over the polynomial
    ring, and row j of the inverse Jacobian is the Fox row of candidate
    image j once row . Y = y_j holds. The candidate is returned only after
    both compositions are verified to be the identity, so no unproven
    invertibility criterion is ever relied on.
    """
    n = phi.rank
    abar_inv = rational_inverse(phi.linear_matrix())
    if abar_inv is None:
        return None
    lam = _linear(abar_inv)
    reduced = compose(phi, lam)

    jac_inv = jacobian(reduced).inverse_over_ring()
    if jac_inv is None:
        return None
    images = tuple(MElement(n, row) for row in jac_inv.rows)
    for j, img in enumerate(images):
        # row j . Y = y_j: the row is the Fox row of an element of M_n
        if not mb.is_derived(img - mb.generator(n, j + 1)):
            return None
    candidate = compose(lam, Endo(n, images))
    if compose(phi, candidate).is_identity() and compose(candidate, phi).is_identity():
        return candidate
    return None


def iaut_level(phi: Endo):
    """Largest i such that phi fixes everything modulo components of degree
    greater than i; the identity map gets float('inf')."""
    level = float("inf")
    for i, img in enumerate(phi.images):
        delta = img - mb.generator(phi.rank, i + 1)
        comps = mb.degree_components(delta)
        if comps:
            level = min(level, min(comps) - 1)
    return level


# ---------------------------------------------------------------------------
# deterministic pseudorandom generator corpora
# ---------------------------------------------------------------------------


def _random_invertible_matrix(rng: random.Random, n: int):
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rational_inverse(a) is not None:
            return a


def _random_unimodular_matrix(rng: random.Random, n: int):
    """Product of elementary integer row operations: det is +-1 and the
    inverse is integral, so conjugation stays in integer arithmetic."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif op == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif op == 2:
            a[i] = [-x for x in a[i]]
    return a


def _random_bracket_word(rng: random.Random, letters: Sequence[int], degree: int):
    word = [rng.choice(letters), rng.choice(letters)]
    while word[0] == word[1]:
        word[1] = rng.choice(letters)
    for _ in range(rng.randint(0, max(0, degree - 2))):
        word.append(rng.choice(letters))
    return left_normed(word)


def random_derived_expr(
    rng: random.Random, rank: int, degree: int, letters: Optional[Sequence[int]] = None
) -> LieExpr:
    """Random nonzero combination of bracket monomials of degree <= degree."""
    if letters is None:
        letters = list(range(1, rank + 1))
    terms = []
    for _ in range(rng.randint(1, 2)):
        coeff = rng.choice([c for c in range(-3, 4) if c])
        terms.append(scale_expr(coeff, _random_bracket_word(rng, letters, degree)))
    return sum_exprs(terms)


def random_tame(rank: int, seed: int, length: int, degree_bound: int = 4) -> Endo:
    """Deterministic pseudorandom product of linear and elementary maps with
    coefficients in -3..3 and bracket degree <= degree_bound."""
    rng = random.Random((seed, "tame", rank, length, degree_bound).__repr__())
    acc = identity(rank)
    for _ in range(length):
        if rank >= 3 and rng.random() < 0.5:
            position = rng.randint(1, rank)
            letters = [i for i in range(1, rank + 1) if i != position]
            factor = elementary(
                rank, random_derived_expr(rng, rank, degree_bound, letters), position
            )
        else:
            factor = _linear(_random_invertible_matrix(rng, rank))
        acc = compose(factor, acc)
    return acc


def random_tame_iaut(rank: int, seed: int, length: int, degree_bound: int = 4) -> Endo:
    """Deterministic pseudorandom product of linear conjugates of elementary
    maps; every factor acts as the identity modulo brackets."""
    if rank < 3:
        raise ValueError("nontrivial conjugated-elementary factors need rank >= 3")
    rng = random.Random((seed, "iaut", rank, length, degree_bound).__repr__())
    acc = identity(rank)
    for _ in range(length):
        alpha = _random_unimodular_matrix(rng, rank)
        f = random_derived_expr(rng, rank, degree_bound, list(range(2, rank + 1)))
        conj, _, _ = conjugate_elementary(alpha, f, rank)
        acc = compose(conj, acc)
    return acc

