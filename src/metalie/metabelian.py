"""The free metabelian Lie algebra M_n in wreath-product normal form.

Under the embedding x_i -> y_i + t_i an element is y + t, where y lies in the
abelian algebra spanned by y1..yn and t = d1*t1 + ... + dn*tn lies in a free
K[y1..yn]-module on t1..tn. The bracket is [a+t, b+s] = a.s - b.t, and the
subalgebra the x_i generate is the free metabelian Lie algebra. The
coordinate row (d1, ..., dn) is the row of Fox derivatives, and on M_n it
determines y: d1*y1 + ... + dn*yn = y, so the y-coordinates are the row's
constant terms. An element is therefore stored as its Fox row alone, which
is what makes Jacobian calculus over this normal form exact and mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .lieexpr import (
    Bracket,
    Gen,
    LeftNormed,
    LieExpr,
    Scale,
    Sum,
    scale_expr,
    sum_exprs,
)
from .polyring import (
    PolyMatrix,
    Polynomial,
    Scalar,
    _add_into,
    _mul_into,
    as_coeff,
    row_vector,
)


@dataclass(frozen=True)
class MElement:
    """Normal form y + t, stored as the Fox row `tpart` = (d1, ..., dn) of
    polynomials in y1..yn; the y-coordinates `linear` are its constant terms.

    Coefficients follow the package's convention: plain int until a division
    makes them non-integral, Fraction after (see `polyring.as_coeff`)."""

    rank: int
    tpart: Tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.tpart) != self.rank:
            raise ValueError("component length must equal the rank")
        for p in self.tpart:
            if p.nvars != self.rank:
                raise ValueError("module coordinate in the wrong ring")

    @property
    def linear(self) -> Tuple[Scalar, ...]:
        """The y-coordinates: the constant terms of the Fox row."""
        return tuple(p.constant_term() for p in self.tpart)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.tpart)

    def _check_rank(self, other: "MElement"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement(
            self.rank, tuple(p + q for p, q in zip(self.tpart, other.tpart))
        )

    def __sub__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement(
            self.rank, tuple(p - q for p, q in zip(self.tpart, other.tpart))
        )

    def __neg__(self) -> "MElement":
        return MElement(self.rank, tuple(-p for p in self.tpart))

    def scaled(self, c: Scalar) -> "MElement":
        c = as_coeff(c)
        return MElement(self.rank, tuple(p * c for p in self.tpart))

    def linear_poly(self) -> Polynomial:
        """The linear part as a degree <= 1 polynomial in y1..yn."""
        units = _units(self.rank)
        return Polynomial._raw(
            self.rank, {units[i]: c for i, c in enumerate(self.linear) if c}
        )


@lru_cache(maxsize=None)
def _units(n: int) -> tuple:
    """The exponent vectors of y1..yn."""
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _linear_form(rank: int, coeffs) -> MElement:
    """c1*x1 + ... + cn*xn, whose Fox row is the constant row (c1, ..., cn),
    for coefficients already under the `as_coeff` convention."""
    const = (0,) * rank
    return MElement(
        rank, tuple(Polynomial._raw(rank, {const: c} if c else {}) for c in coeffs)
    )


def zero(rank: int) -> MElement:
    return _linear_form(rank, (0,) * rank)


def generator(rank: int, i: int) -> MElement:
    """x_i = y_i + t_i."""
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range 1..{rank}")
    return _linear_form(rank, (1 if j == i - 1 else 0 for j in range(rank)))


def bracket(u: MElement, v: MElement) -> MElement:
    """[a+t, b+s] = a.s - b.t, with a, b acting through their polynomials."""
    u._check_rank(v)
    n = u.rank
    slots: list = [{} for _ in range(n)]
    _add_bracket(slots, u.linear_poly(), u, v.linear_poly(), v)
    return MElement(n, tuple(Polynomial._raw(n, acc) for acc in slots))


def _add_bracket(slots, a: Polynomial, u: MElement, b: Polynomial, v: MElement):
    """Add a.s - b.t to the module slots (term maps) for u = a'+t and
    v = b'+s, where a and b are given apart from u and v."""
    mul = Polynomial._key_mul
    nb = (-b).terms
    for acc, t, s in zip(slots, u.tpart, v.tpart):
        _mul_into(acc, a.terms, s.terms, mul)
        _mul_into(acc, nb, t.terms, mul)


def eval_with(e: LieExpr, images) -> MElement:
    """Evaluate an expression tree with generator i mapped to images[i-1]."""
    if not images:
        raise ValueError("cannot evaluate with an empty image list")
    n = images[0].rank
    slots: list = [{} for _ in range(n)]
    _eval_into(e, images, 1, slots)
    return MElement(n, tuple(Polynomial._raw(n, acc) for acc in slots))


def _image(images, i: int, n: int) -> MElement:
    if not 1 <= i <= len(images):
        raise ValueError(f"generator index {i} out of range 1..{len(images)}")
    g = images[i - 1]
    if g.rank != n:
        raise ValueError(f"rank mismatch: {g.rank} vs {n}")
    return g


def _eval_into(e: LieExpr, images, c: Scalar, slots: list) -> None:
    """Add c times the value of e to the Fox row slots (term maps) of a sum:
    a Sum or Scale builds no element of its own."""
    n = len(slots)
    if isinstance(e, LeftNormed):
        idx = e.indices
        u, v = _image(images, idx[0], n), _image(images, idx[1], n)
        # [u, v] is derived (zero linear part), so each further letter b + s
        # acts as [t, b + s] = -b.t: the word is [u, v] times the product f
        # of the -b, and f.[a+t, b'+s] = (f.a).s - (f.b').t
        f = Polynomial.constant(n, -c if len(idx) % 2 else c)
        for i in idx[2:]:
            f = f * _image(images, i, n).linear_poly()
        _add_bracket(slots, f * u.linear_poly(), u, f * v.linear_poly(), v)
        return
    if isinstance(e, Scale):
        _eval_into(e.arg, images, as_coeff(c * e.coeff), slots)
        return
    if isinstance(e, Sum):
        for p in e.parts:
            _eval_into(p, images, c, slots)
        return
    if isinstance(e, Bracket):
        u, v = eval_with(e.left, images), eval_with(e.right, images)
        _add_bracket(slots, u.linear_poly() * c, u, v.linear_poly() * c, v)
        return
    if not isinstance(e, Gen):
        raise TypeError(f"not a LieExpr: {e!r}")
    for acc, p in zip(slots, _image(images, e.index, n).tpart):
        _add_into(acc, p.terms.items(), c)


def evaluate(e: LieExpr, rank: int) -> MElement:
    """Evaluate a bracket expression on the generators x1..xn."""
    return eval_with(e, [generator(rank, i) for i in range(1, rank + 1)])


def fox(f: MElement) -> PolyMatrix:
    """The Fox-derivative row (d1, ..., dn) as a 1 x n matrix."""
    return row_vector(f.rank, f.tpart)


def _dot_y(row) -> dict:
    """The term map of d1*y1 + ... + dn*yn for a row (d1, ..., dn):
    multiplying by y_i shifts exponent i."""
    out: dict = {}
    for i, p in enumerate(row):
        shifted = (
            (mono[:i] + (mono[i] + 1,) + mono[i + 1 :], c)
            for mono, c in p.terms.items()
        )
        _add_into(out, shifted)
    return out


def is_derived(f: MElement) -> bool:
    """Membership test for the bracket subalgebra [M_n, M_n]: the Fox row
    annihilates the column of variables (which forces zero constant terms,
    i.e. zero linear part)."""
    return not _dot_y(f.tpart)


def degree_components(f: MElement) -> Dict[int, MElement]:
    """Split by the standard grading: a Fox-row coordinate of polynomial
    degree d contributes degree d + 1 (so the constant terms, the linear
    part, have degree 1). Components re-sum to the input; zero components
    are omitted."""
    n = f.rank
    zero_poly = Polynomial._raw(n, {})
    pieces: Dict[int, list] = {}
    for slot, poly in enumerate(f.tpart):
        for d, hom in poly.homogeneous_components().items():
            pieces.setdefault(d + 1, [zero_poly] * n)[slot] = hom
    return {d: MElement(n, tuple(row)) for d, row in sorted(pieces.items())}


def lift(f: MElement) -> LieExpr:
    """A bracket expression evaluating back to f.

    The linear part lifts to a combination of generators; the rest of the
    Fox row (d1, ..., dn) must belong to a derived element, i.e. satisfy
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
    if _dot_y(row):
        raise ValueError("element is not in M_n: Fox row does not annihilate Y")

    for m in range(n, 1, -1):
        quotients = []
        for i in range(m - 1):
            q, r = row[i].split_by_var(m)
            quotients.append(q)
            row[i] = r
        for i, q in enumerate(quotients):
            for mono, coeff in q.sorted_terms():
                word = [i + 1, m]
                for var, e in enumerate(mono, 1):
                    if e:
                        word += [var] * e
                # [[x_i, x_m], x_j, ...] carries the sign (-1)^(len - 1)
                if len(word) % 2 == 0:
                    coeff = -coeff
                terms.append(scale_expr(coeff, LeftNormed(tuple(word))))
        row[m - 1] = Polynomial.zero(n)
    # the syzygy condition forces the final single-variable remainder to zero
    if not row[0].is_zero():
        raise ValueError("element is not in M_n")
    return sum_exprs(terms)
