"""The free metabelian Lie algebra M_n in wreath-product normal form.

An element is stored as y + t where y lives in the abelian algebra spanned by
y1..yn and t = d1*t1 + ... + dn*tn lies in a free K[y1..yn]-module on
t1..tn. The bracket is [a+t, b+s] = a.s - b.t, generators are x_i = y_i + t_i,
and the subalgebra they generate is the free metabelian Lie algebra. The
coordinate row (d1, ..., dn) of the module part doubles as the row of Fox
derivatives, which is what makes Jacobian calculus over this normal form
exact and mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .lieexpr import (
    Bracket,
    Gen,
    LieExpr,
    Scale,
    Sum,
    ZERO_EXPR,
    left_normed,
    scale_expr,
    sum_exprs,
)
from .polyring import PolyMatrix, Polynomial, Scalar, as_coeff, row_vector, y_column


@dataclass(frozen=True)
class MElement:
    """Normal form y + t: `linear` holds the y-coordinates, `tpart` the
    module coordinates d1..dn (polynomials in y1..yn).

    The y-coordinates follow the package's coefficient convention: plain int
    until a division makes them non-integral, Fraction after (see
    `polyring.as_coeff`)."""

    rank: int
    linear: Tuple[Scalar, ...]
    tpart: Tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.linear) != self.rank or len(self.tpart) != self.rank:
            raise ValueError("component length must equal the rank")
        for p in self.tpart:
            if p.nvars != self.rank:
                raise ValueError("module coordinate in the wrong ring")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.linear) and all(p.is_zero() for p in self.tpart)

    def _check_rank(self, other: "MElement"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement(
            self.rank,
            tuple(as_coeff(a + b) for a, b in zip(self.linear, other.linear)),
            tuple(p + q for p, q in zip(self.tpart, other.tpart)),
        )

    def __sub__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement(
            self.rank,
            tuple(as_coeff(a - b) for a, b in zip(self.linear, other.linear)),
            tuple(p - q for p, q in zip(self.tpart, other.tpart)),
        )

    def __neg__(self) -> "MElement":
        return MElement(
            self.rank,
            tuple(-a for a in self.linear),
            tuple(-p for p in self.tpart),
        )

    def scaled(self, c: Scalar) -> "MElement":
        c = as_coeff(c)
        return MElement(
            self.rank,
            tuple(as_coeff(c * a) for a in self.linear),
            tuple(p * c for p in self.tpart),
        )

    def linear_poly(self) -> Polynomial:
        """The linear part as a degree <= 1 polynomial in y1..yn."""
        n = self.rank
        return Polynomial(
            n,
            {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(self.linear)
                if c
            },
        )


def zero(rank: int) -> MElement:
    return MElement(
        rank,
        (0,) * rank,
        (Polynomial.zero(rank),) * rank,
    )


def generator(rank: int, i: int) -> MElement:
    """x_i = y_i + t_i."""
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range 1..{rank}")
    lin = tuple(1 if j == i - 1 else 0 for j in range(rank))
    tp = tuple(
        Polynomial.constant(rank, 1) if j == i - 1 else Polynomial.zero(rank)
        for j in range(rank)
    )
    return MElement(rank, lin, tp)


def bracket(u: MElement, v: MElement) -> MElement:
    """[a+t, b+s] = a.s - b.t, with a, b acting through their polynomials."""
    u._check_rank(v)
    a = u.linear_poly()
    b = v.linear_poly()
    tp = tuple(a * s - b * t for t, s in zip(u.tpart, v.tpart))
    return MElement(u.rank, (0,) * u.rank, tp)


def eval_with(e: LieExpr, images) -> MElement:
    """Evaluate an expression tree with generator i mapped to images[i-1]."""
    if isinstance(e, Gen):
        if e.index > len(images):
            raise ValueError(
                f"generator index {e.index} out of range 1..{len(images)}"
            )
        return images[e.index - 1]
    if isinstance(e, Bracket):
        return bracket(eval_with(e.left, images), eval_with(e.right, images))
    if isinstance(e, Scale):
        return eval_with(e.arg, images).scaled(e.coeff)
    if isinstance(e, Sum):
        if not images:
            raise ValueError("cannot evaluate with an empty image list")
        value = zero(images[0].rank)
        for p in e.parts:
            value = value + eval_with(p, images)
        return value
    raise TypeError(f"not a LieExpr: {e!r}")


def evaluate(e: LieExpr, rank: int) -> MElement:
    """Evaluate a bracket expression on the generators x1..xn."""
    return eval_with(e, [generator(rank, i) for i in range(1, rank + 1)])


def fox(f: MElement) -> PolyMatrix:
    """The Fox-derivative row (d1, ..., dn): the module part read as a row."""
    return row_vector(f.rank, f.tpart)


def fox_dot_y(f: MElement) -> Polynomial:
    """The contraction (d1, ..., dn) . (y1, ..., yn)^t."""
    return (fox(f) * y_column(f.rank))[0, 0]


def is_derived(f: MElement) -> bool:
    """Membership test for the bracket subalgebra [M_n, M_n]: zero linear
    part and Fox row annihilating the column of variables."""
    if any(c != 0 for c in f.linear):
        return False
    return fox_dot_y(f).is_zero()


def degree_components(f: MElement) -> Dict[int, MElement]:
    """Split by the standard grading: the linear part has degree 1, a module
    coordinate of polynomial degree d contributes degree d + 1. Components
    re-sum to the input; zero components are omitted."""
    n = f.rank
    pieces: Dict[int, list] = {}
    if any(c != 0 for c in f.linear):
        pieces[1] = [list(f.linear), [dict() for _ in range(n)]]
    for slot, poly in enumerate(f.tpart):
        for d, hom in poly.homogeneous_components().items():
            entry = pieces.setdefault(
                d + 1, [[0] * n, [dict() for _ in range(n)]]
            )
            entry[1][slot] = hom.terms
    return {
        d: MElement(
            n,
            tuple(lin),
            tuple(Polynomial(n, t) for t in tparts),
        )
        for d, (lin, tparts) in sorted(pieces.items())
    }


def lift(f: MElement) -> LieExpr:
    """A bracket expression evaluating back to f.

    The linear part lifts to a combination of generators; the rest must be a
    derived element, i.e. its Fox row (d1, ..., dn) satisfies
    d1*y1 + ... + dn*yn = 0. Such a row is a syzygy of (y1, ..., yn) and is
    peeled off constructively: dividing each d_i (i < m) by the highest
    variable y_m maps the quotients onto bracket monomials [[x_i, x_m], ...]
    (a polynomial coefficient u acts as right-multiplication words, one
    left-normed word per monomial of u), after which the remainder is a
    syzygy in one fewer variable. Output order is canonical, so lifts are
    deterministic.

    Raises ValueError when the element does not lie in M_n.
    """
    n = f.rank
    terms = []
    row = list(f.tpart)
    for i, c in enumerate(f.linear):
        if c:
            terms.append(scale_expr(c, Gen(i + 1)))
            row[i] = row[i] - Polynomial.constant(n, c)
    residue = Polynomial.zero(n)
    for i, p in enumerate(row):
        residue = residue + p * Polynomial.variable(n, i + 1)
    if not residue.is_zero():
        raise ValueError("element is not in M_n: Fox row does not annihilate Y")

    for m in range(n, 1, -1):
        quotients = []
        for i in range(m - 1):
            q, r = row[i].split_by_var(m)
            quotients.append(q)
            row[i] = r
        for i, q in enumerate(quotients):
            if q.is_zero():
                continue
            for mono, coeff in q.sorted_terms():
                word = [i + 1, m]
                for var, e in enumerate(mono):
                    word.extend([var + 1] * e)
                sign = -1 if (len(word) - 2) % 2 == 0 else 1
                terms.append(scale_expr(coeff * sign, left_normed(word)))
        row[m - 1] = Polynomial.zero(n)
    # the syzygy condition forces the final single-variable remainder to zero
    if not row[0].is_zero():
        raise ValueError("element is not in M_n")
    return sum_exprs(terms) if terms else ZERO_EXPR
