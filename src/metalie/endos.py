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
from .lieexpr import LeftNormed, LieExpr, combination, generators_used
from .metabelian import MElement
from .polyring import (
    PolyMatrix,
    Polynomial,
    RowSpace,
    Scalar,
    _matmul,
    as_coeff,
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
        if self.rank < 1:
            raise ValueError(
                f"an endomorphism needs rank at least 1, got rank {self.rank}"
            )
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")
        if self.exprs is not None and len(self.exprs) != self.rank:
            raise ValueError("need exactly one cached expression per generator")

    @classmethod
    def _raw(cls, rank: int, images: tuple) -> "Endo":
        """Build from `rank` >= 1 images of rank `rank` (internal), with no
        `exprs`: the results of the package's own kernels."""
        e = object.__new__(cls)
        object.__setattr__(e, "rank", rank)
        object.__setattr__(e, "images", images)
        object.__setattr__(e, "exprs", None)
        return e

    def linear_matrix(self) -> List[List[Scalar]]:
        """Row i = linear part of the image of x_{i+1}."""
        return [list(img.linear) for img in self.images]


def identity(rank: int) -> Endo:
    return Endo(rank, mb.generators(rank))


def from_exprs(rank: int, exprs: Sequence[LieExpr]) -> Endo:
    """Endomorphism with image i = evaluation of exprs[i-1]."""
    gens = identity(rank).images
    return Endo(rank, tuple(mb.eval_with(e, gens) for e in exprs))


def elementary(rank: int, f: LieExpr, position: int = 1) -> Endo:
    """x_position -> x_position + f, every other generator fixed.

    f must avoid x_position and evaluate into the bracket subalgebra.
    """
    images = list(mb.generators(rank))
    value = _perturbation(rank, f, images, position)
    images[position - 1] += value
    return Endo._raw(rank, tuple(images))


def _perturbation(rank: int, f: LieExpr, images, position: int = 1) -> MElement:
    """f evaluated with x_i -> images[i-1], after the checks of `elementary`
    in their order: 1 <= position <= rank, f avoids x_position and x_i for
    i > rank, and the value is derived (for the images of an automorphism,
    exactly when f's value on the generators is)."""
    if not 1 <= position <= rank:
        raise ValueError(f"position {position} out of range 1..{rank}")
    used = generators_used(f)
    if position in used:
        raise ValueError(f"perturbation mentions x{position}")
    if used and max(used) > rank:
        raise ValueError(f"generator index {max(used)} out of range 1..{rank}")
    value = mb.eval_with(f, images)
    if not mb.is_derived(value):
        raise ValueError("perturbation is not in the bracket subalgebra")
    return value


def inner(rank: int, z: MElement) -> Endo:
    """exp(ad z) = id + ad z for a nonzero z in the bracket subalgebra."""
    if z.rank != rank:
        raise ValueError("rank mismatch")
    if z.is_zero():
        raise ValueError("z must be nonzero")
    if not mb.is_derived(z):
        raise ValueError("z must lie in the bracket subalgebra")
    gens = mb.generators(rank)
    return Endo._raw(rank, tuple(xi + mb.bracket(z, xi) for xi in gens))


def _invertible(matrix: Sequence[Sequence]):
    """The rational matrix with normalized entries, and its inverse; raises
    ValueError unless it is square and invertible."""
    a = [[as_coeff(c) for c in row] for row in matrix]
    a_inv = rational_inverse(a)
    if a_inv is None:
        raise ValueError("matrix is singular")
    return a, a_inv


def linear(matrix: Sequence[Sequence]) -> Endo:
    """x_i -> sum_j A[i][j] x_j for an invertible rational matrix A.

    A is invertible exactly when its n rows span a RowSpace of rank n, so
    no inverse is built; the checks and their messages are `_invertible`'s.
    """
    a = [[as_coeff(c) for c in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    space = RowSpace()
    for row in a:
        space.add(dict(enumerate(row)))
    if space.rank < n:
        raise ValueError("matrix is singular")
    return _linear(a)


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
    moved = apply_induced(phi, jacobian(psi)).rows
    rows = _matmul(moved, [img.tpart for img in phi.images], n)
    return Endo._raw(n, tuple(MElement._raw(n, r) for r in rows))


def jacobian(phi: Endo) -> PolyMatrix:
    """Row i = Fox-derivative row of the image of x_{i+1}."""
    return PolyMatrix._raw(phi.rank, tuple(img.tpart for img in phi.images))


def induced_poly_images(phi: Endo) -> List[Polynomial]:
    """The degree <= 1 polynomials y_i -> linear part of image i, i.e. the
    substitution data for the induced endomorphism of K[y1..yn]."""
    return [img.linear_poly for img in phi.images]


def apply_induced(phi: Endo, target: PolyMatrix) -> PolyMatrix:
    """Apply the induced polynomial-ring endomorphism to a PolyMatrix in
    y1..yn entrywise: phibar of the chain rule, on a Jacobian."""
    if isinstance(target, PolyMatrix):
        return target.substitute(induced_poly_images(phi))
    raise TypeError("expected a PolyMatrix")


def conjugate_elementary(alpha: Sequence[Sequence], f: LieExpr, rank: int):
    """Conjugate of the elementary map x1 -> x1 + f by the linear map alpha.

    Returns (endo, Phi, Psi) where endo = alpha o phi_f o alpha^{-1} and
    Phi (column), Psi (row) satisfy J(endo) = E + Phi*Psi with Psi*Phi = 0
    and Psi*Y = 0: Phi = A^{-1} e1 and Psi = alphabar(dfox(f)) * A. By the
    chain rule dfox(alpha(f)) = alphabar(dfox(f)) * J(alpha), and J(alpha)
    is A, so Psi is the Fox row of alpha(f), which the conjugate needs
    anyway. f is checked as `elementary` checks it, on alpha(f).

    Image i is x_i + c_i * alpha(f) with c_i = (A^{-1})[i][0], the entry i
    of Phi, so where c_i is 0 the image is the generator itself and no sum
    is formed; Phi is built from the already normalized c_i directly.
    """
    a, a_inv = _invertible(alpha)
    alpha_endo = _linear(a)
    if alpha_endo.rank != rank:
        raise ValueError("alpha has the wrong rank")
    alpha_f = _perturbation(rank, f, alpha_endo.images)
    # alpha(phi_f(alpha^-1(x_i))) = x_i + a_inv[i][0] * alpha(f)
    column = [r[0] for r in a_inv]
    gens = mb.generators(rank)
    conj = Endo._raw(
        rank, tuple(x + alpha_f.scaled(c) if c else x for x, c in zip(gens, column))
    )
    phi_col = PolyMatrix._raw(
        rank, tuple((Polynomial.constant(rank, c),) for c in column)
    )
    return conj, phi_col, mb.fox(alpha_f)


def inverse(phi: Endo) -> Optional[Endo]:
    """Exact two-sided inverse, or None when phi is not an automorphism.

    By the chain rule, phi is an automorphism only if its linear part A is
    invertible and J = J(phi) is invertible over the polynomial ring. Then
    psi, with the Fox rows X = phibar^-1(J^-1) where phibar^-1 is
    y -> A^-1 y, is its inverse; with Y the column (y1, ..., yn):
      1. The images of phi lie in M_n, so J*Y = A*Y. Applying phibar^-1 to
         J^-1*(A*Y) = Y gives X*Y = A^-1*Y = X(0)*Y, as J^-1(0) = A^-1: each
         row of X is the Fox row of a member of M_n (`metabelian.in_m`).
      2. J(phi o psi) = phibar(X)*J = J^-1*J = E.
      3. psi's linear part is X(0) = A^-1, so J(psi o phi) = phibar^-1(J)*X = E.
    An element of M_n is its Fox row, so both composites are the identity.
    """
    a_inv = rational_inverse(phi.linear_matrix())
    jac_inv = None if a_inv is None else jacobian(phi).inverse_over_ring()
    if jac_inv is None:
        return None
    n = phi.rank
    rows = jac_inv.substitute([Polynomial._linear(n, r) for r in a_inv]).rows
    return Endo._raw(n, tuple(MElement._raw(n, r) for r in rows))


def iaut_level(phi: Endo):
    """Largest i such that phi fixes everything modulo components of degree
    greater than i; the identity map gets float('inf').

    A Fox-row term of polynomial degree d is a component of degree d + 1,
    so i is the lowest degree of a term in the Fox rows of the images
    minus their generators: 0 when some linear part moves.
    """
    one = Polynomial.one(phi.rank)
    level = float("inf")
    for i, img in enumerate(phi.images):
        # x_i's Fox row is e_i, so img - x_i's row is img's with 1 taken off
        # entry i
        row = list(img.tpart)
        row[i] -= one
        for p in row:
            if not p.is_zero():
                level = min(level, p.low_degree())
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
    return LeftNormed(tuple(word))


def random_derived_expr(
    rng: random.Random, rank: int, degree: int, letters: Optional[Sequence[int]] = None
) -> LieExpr:
    """Random nonzero combination of bracket monomials of degree <= degree.
    A combination that evaluates to zero in M_n, such as
    -2*[x2, x1] - 2*[x1, x2], is drawn again as a whole."""
    if letters is None:
        letters = list(range(1, rank + 1))
    while True:
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = rng.choice([c for c in range(-3, 4) if c])
            terms.append((coeff, _random_bracket_word(rng, letters, degree)))
        expr = combination(terms)
        if not mb.evaluate(expr, rank).is_zero():
            return expr


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

