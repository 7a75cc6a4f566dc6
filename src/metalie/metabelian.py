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
from functools import cache, cached_property
from typing import Dict, Tuple

from .lieexpr import LeftNormed, LieExpr, Sum, combination
from .polyring import (
    PolyMatrix,
    Polynomial,
    Scalar,
    _add_into,
    _constant_key,
    _dot_y,
    _mono_ops,
    _mul_into,
    as_coeff,
    row_vector,
)


@dataclass(frozen=True)
class MElement:
    """Normal form y + t, stored as the Fox row `tpart` = (d1, ..., dn) of
    polynomials in y1..yn; the y-coordinates `linear` are its constant terms,
    read once per element and kept outside the fields `rank` and `tpart`.

    Coefficients follow the package's convention: plain int until a division
    makes them non-integral, Fraction after (see `polyring.as_coeff`).

    This constructor is the only way a Fox row from outside the kernels gets
    in, so it is where membership in M_n is checked (`in_m`): a row that is
    not the Fox row of an element raises ValueError. The kernels build
    members only, with `_raw`, unchecked."""

    rank: int
    tpart: Tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.tpart) != self.rank:
            raise ValueError("component length must equal the rank")
        for p in self.tpart:
            if p.nvars != self.rank:
                raise ValueError("module coordinate in the wrong ring")
        if not in_m(self.tpart):
            raise ValueError("element is not in M_n: Fox row . Y != linear part")

    @classmethod
    def _raw(cls, rank: int, tpart: tuple) -> "MElement":
        """Build from the Fox row of an element of M_n, known to hold `rank`
        polynomials in `rank` variables (internal): the results of the
        package's own kernels, which are members by construction."""
        e = object.__new__(cls)
        object.__setattr__(e, "rank", rank)
        object.__setattr__(e, "tpart", tpart)
        return e

    @cached_property
    def linear(self) -> Tuple[Scalar, ...]:
        """The y-coordinates: the constant terms of the Fox row."""
        return tuple(p.constant_term() for p in self.tpart)

    @cached_property
    def linear_poly(self) -> Polynomial:
        """The linear part as a degree <= 1 polynomial in y1..yn."""
        return Polynomial._linear(self.rank, self.linear)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.tpart)

    def _check_rank(self, other: "MElement"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement._raw(
            self.rank, tuple(p + q for p, q in zip(self.tpart, other.tpart))
        )

    def __sub__(self, other: "MElement") -> "MElement":
        self._check_rank(other)
        return MElement._raw(
            self.rank, tuple(p - q for p, q in zip(self.tpart, other.tpart))
        )

    def __neg__(self) -> "MElement":
        return MElement._raw(self.rank, tuple(-p for p in self.tpart))

    def scaled(self, c: Scalar) -> "MElement":
        c = as_coeff(c)
        return MElement._raw(self.rank, tuple(p * c for p in self.tpart))


def in_m(row) -> bool:
    """Membership in M_n: a row (d1, ..., dn) of polynomials in y1..yn is
    the Fox row of an element exactly when d1*y1 + ... + dn*yn is the linear
    part, the row's constant terms times y1..yn."""
    linear = Polynomial._linear(len(row), [p.constant_term() for p in row])
    return _dot_y(row) == linear.terms


def _linear_form(rank: int, coeffs) -> MElement:
    """c1*x1 + ... + cn*xn, whose Fox row is the constant row (c1, ..., cn)."""
    return MElement._raw(rank, tuple(Polynomial.constant(rank, c) for c in coeffs))


def zero(rank: int) -> MElement:
    return _linear_form(rank, (0,) * rank)


@cache
def generators(rank: int) -> Tuple[MElement, ...]:
    """x1..x_rank, built once per rank: x_i = y_i + t_i has the Fox row e_i,
    and every row shares one zero and one unit polynomial."""
    zero_poly, one_poly = Polynomial.zero(rank), Polynomial.one(rank)
    row = (zero_poly,) * rank
    return tuple(
        MElement._raw(rank, row[:i] + (one_poly,) + row[i + 1 :]) for i in range(rank)
    )


def generator(rank: int, i: int) -> MElement:
    """x_i = y_i + t_i."""
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range 1..{rank}")
    return generators(rank)[i - 1]


def bracket(u: MElement, v: MElement) -> MElement:
    """[a+t, b+s] = a.s - b.t, with a, b acting through their polynomials."""
    u._check_rank(v)
    n = u.rank
    slots: list = [{} for _ in range(n)]
    _add_bracket(slots, {_constant_key(n): 1}, u, v)
    return MElement._raw(n, tuple(Polynomial._raw(n, acc) for acc in slots))


def _add_bracket(slots, f: dict, u: MElement, v: MElement):
    """Add f.[u, v] = (f.a).s - (f.b).t to the module slots (term maps) for
    u = a+t, v = b+s and a polynomial f given as a term map."""
    mul = _mono_ops(u.rank)[0]
    a, nb = {}, {}
    _mul_into(a, f, u.linear_poly.terms, mul)
    _mul_into(nb, {k: -c for k, c in f.items()}, v.linear_poly.terms, mul)
    for acc, t, s in zip(slots, u.tpart, v.tpart):
        _mul_into(acc, a, s.terms, mul)
        _mul_into(acc, nb, t.terms, mul)


def eval_with(e: LieExpr, images) -> MElement:
    """Evaluate an expression tree with generator i mapped to images[i-1]."""
    if not images:
        raise ValueError("cannot evaluate with an empty image list")
    n = images[0].rank
    slots: list = [{} for _ in range(n)]
    _eval_into(e, images, 1, slots)
    return MElement._raw(n, tuple(Polynomial._raw(n, acc) for acc in slots))


def _value(images, a, n: int) -> MElement:
    """The value of a letter: the image of the generator index a, or the
    value of the expression a."""
    if type(a) is not int:
        return eval_with(a, images)
    if not 1 <= a <= len(images):
        raise ValueError(f"generator index {a} out of range 1..{len(images)}")
    g = images[a - 1]
    if g.rank != n:
        raise ValueError(f"rank mismatch: {g.rank} vs {n}")
    return g


def _eval_into(e: LieExpr, images, c: Scalar, slots: list) -> None:
    """Add c times the value of e to the Fox row slots (term maps) of a sum:
    a Sum builds no element of its own, and passes each term down with its
    coefficient multiplied into c."""
    n = len(slots)
    if isinstance(e, LeftNormed):
        word = e.letters
        u, v = _value(images, word[0], n), _value(images, word[1], n)
        # [u, v] is derived (zero linear part), so each further letter b + s
        # acts as [t, b + s] = -b.t: the word is f.[u, v] for the product f
        # (a term map) of the -b
        mul = _mono_ops(n)[0]
        f = {_constant_key(n): -c if len(word) % 2 else c}
        for a in word[2:]:
            f, g = {}, f
            _mul_into(f, g, _value(images, a, n).linear_poly.terms, mul)
        _add_bracket(slots, f, u, v)
        return
    if isinstance(e, Sum):
        for k, p in e.parts:
            # the product loop takes nonzero terms only: a zero multiplier
            # stops here
            k = as_coeff(c * k)
            if k:
                _eval_into(p, images, k, slots)
        return
    if type(e) is not int:
        raise TypeError(f"not a LieExpr: {e!r}")
    for acc, p in zip(slots, _value(images, e, n).tpart):
        _add_into(acc, p.terms.items(), c)


def evaluate(e: LieExpr, rank: int) -> MElement:
    """Evaluate a bracket expression on the generators x1..xn."""
    return eval_with(e, generators(rank))


def fox(f: MElement) -> PolyMatrix:
    """The Fox-derivative row (d1, ..., dn) as a 1 x n matrix."""
    return row_vector(f.rank, f.tpart)


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
    return {d: MElement._raw(n, tuple(row)) for d, row in sorted(pieces.items())}


def lift(f: MElement) -> LieExpr:
    """A bracket expression evaluating back to f.

    The linear part lifts to a combination of generators; the rest of the
    Fox row (d1, ..., dn) must belong to a derived element, i.e. satisfy
    d1*y1 + ... + dn*yn = 0. Such a row is a syzygy of (y1, ..., yn) and
    lifts in one pass over its terms. A non-constant monomial u of d_i whose
    highest variable y_m has m > i becomes the left-normed word
    [[x_i, x_m], <letters of u / y_m>]: the Fox row of [x_i, x_m] is
    y_i e_m - y_m e_i, and each further letter x_j multiplies it by -y_j.
    A monomial with m <= i needs no word of its own: by the syzygy
    condition it equals what the words of the other slots put there, and it
    is dropped before any sort. Words are emitted by descending m, then
    ascending i, then descending degree, each group in print order, so
    lifts are deterministic. A group sorts with no key: on ascending letter
    tuples of one length (y1^2*y3 -> (1, 1, 3)), tuple order is the print
    order (-sum(m), -m[0], ..., -m[n-1]) of their monomials, because at the
    first place where two differ, a_k < b_k, the smaller has one more a_k
    and the same count of every smaller letter. Coefficients are the stored,
    normalized ones.

    Membership is not checked again: the `MElement` constructor checks it,
    and the kernels build members only. (So d1 has no term y1^k, k >= 1: it
    would leave a y1^(k+1) in d1*y1 + ... + dn*yn that nothing cancels.)
    """
    letters = _mono_ops(f.rank)[2]
    linear = enumerate(f.linear, 1)
    terms = [(c, i) for i, c in linear if c]
    groups: dict = {}
    for i, p in enumerate(f.tpart, 1):
        for mono, c in p.terms.items():
            word = letters(mono)
            # the constant term lifts with the linear part, and a top letter
            # m <= i is covered by the words of the other slots
            if word and word[-1] > i:
                groups.setdefault((-word[-1], i, -len(word)), []).append((word, c))
    for key in sorted(groups):
        m, i, d = key
        head = (i, -m)
        # [[x_i, x_m], x_j, ...] has 1 - d letters and carries the sign
        # (-1)^(letters - 1) = (-1)^d
        odd = d % 2
        for word, c in sorted(groups[key]):
            terms.append((-c if odd else c, LeftNormed(head + word[:-1])))
    return combination(terms)
