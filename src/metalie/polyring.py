"""Exact arithmetic substrate: rationals, sparse multivariate polynomials,
matrices over the polynomial ring, and exact rational linear solving on
sparse rows.

Each shared concept has one implementation here, used by the whole package:
`SparseTerms` is the one sparse term type, the immutable map of keys to
coefficients behind all five sparse types (`Polynomial`, `freeassoc.NCPoly`,
`dyadic.ScalarPoly`, `dyadic.DyadExpr` and `dyadic.RowExpr`);
`_add_into` is its add-with-cancellation kernel and `_mul_into` its one
product loop, which takes the ring's product of two keys (exponent vectors,
words, lambda monomials, or the (lambda monomial, symbols) keys of dyads and
rows; for exponent vectors of length n, `_mono_ops(n)` writes the product
and the print-order key out once per n, so a key product is n additions in
one tuple display); `format_term` prints every term of a signed sum and
`format_terms` every sum but a bracket expression's (polynomials, lambda
polynomials, dyad and row expressions, free-algebra polynomials), and
`read_sum(tokens, term)` reads one back, with one signature for both text
grammars (polynomials and bracket expressions), from the one tokenizer,
`Tokens`, which cuts a text once into runs of ASCII digits and single other
characters; `_minors`, a Laplace expansion over column subsets along the
rows in order, gives the determinant, and its prefix tables the adjugate;
and `RowSpace` is the one exact rational elimination, behind
`solve_sparse` and `rational_inverse`, run fraction-free on integer rows.

Only this module knows that a monomial of `Polynomial` is a tuple of
exponents. Other modules reach monomials through the `Polynomial`
constructors, the key product and letter decoder of `_mono_ops`, the key
of the constant monomial, `_constant_key`, and `_dot_y`, the product of a
Fox row with the column of variables.

Coefficients are exact rationals under one convention shared by the whole
package: a coefficient is a plain `int` until a division makes it
non-integral, and then a `fractions.Fraction`; integral quotients are demoted
back to `int` with `as_coeff`. Every division builds a Fraction from two
ints (`Fraction(num, den)`, `_divided`), so nothing here ever rounds or
produces a float. The polynomial-matrix kernels (the matrix product, the
minors behind the determinant and the ring inverse, and substitution) run
fraction-free inside: each operand is scaled to integer numerators by the
lcm of its denominators (substitution scales all its images by one lcm),
the product loop runs on ints, and each output coefficient is divided once.
What they store follows the same convention, so this changes no stored
value.

These kernels cost only the work that is not trivial. Substitution returns
every polynomial whose monomials use only variables the images fix (an
image that is exactly y_i) as it is, so constants and every map whose
linear part is the identity pass through untouched, and it builds each
monomial's image once per call, in one table shared by every polynomial,
one product per step. The matrix product is one row kernel, `_matmul`,
shared by `PolyMatrix.__mul__` and `endos.compose`: it visits only the
nonzero entries of each row, and a constant entry scales the other operand
through `_add_into` instead of running key products. Results the kernels
build themselves are not checked again: `SparseTerms._raw` and
`PolyMatrix._raw` (like `MElement._raw` and `Endo._raw` elsewhere) take
data already known to be normalized, while the public constructors keep
every check on their input.

A polynomial is a sparse map from exponent tuples to nonzero coefficients
over a fixed number of variables y1..yn. The text form ("2*y1^2*y2 - y3") is
canonical -- terms are ordered by total degree (highest first), ties broken
by exponent vector -- and parse/print round-trips exactly.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, lcm
from operator import attrgetter
from typing import Optional, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Raised on malformed input text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


def as_coeff(c: Scalar):
    """Normalize an exact rational, demoting integral values to int.

    This is the package's coefficient convention: int until a division makes
    a value non-integral, Fraction after. int and Fraction mix exactly under
    Python arithmetic and agree on equality and hashing, so integer inputs
    stay on the all-integer fast path and rational ones stay exact. Never
    divide with `/` on ints, which gives a float. A bool is refused, like a
    float: it is an int subclass, not a coefficient.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


@cache
def _mono_ops(n: int) -> tuple:
    """The product, the print-order key and the letters of exponent vectors
    of length n, written out per n: `(a[0] + b[0], ..., a[n-1] + b[n-1],)`,
    `(-sum(m), -m[0], ..., -m[n-1])`, the canonical term order (highest total
    degree first, then higher powers of the earliest variable first), and
    `(*(1,) * m[0], ..., *(n,) * m[n-1],)`, the variable indices of the
    monomial in ascending order with repeats (y1^2*y3 -> (1, 1, 3)). The
    source depends only on the integer n and is a flat tuple display, so it
    compiles at any n."""
    mul = "".join(f"a[{i}] + b[{i}], " for i in range(n))
    key = "".join(f"-m[{i}], " for i in range(n))
    letters = "".join(f"*({i + 1},) * m[{i}], " for i in range(n))
    return (
        eval(f"lambda a, b: ({mul})"),
        eval(f"lambda m: (-sum(m), {key})"),
        eval(f"lambda m: ({letters})"),
    )


@cache
def _units(n: int) -> tuple:
    """The exponent vectors of y1..yn."""
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


@cache
def _constant_key(n: int) -> tuple:
    """The exponent vector of the constant monomial 1 in y1..yn."""
    return (0,) * n


def _mul_into(acc: dict, a: Mapping, b: Mapping, key_mul):
    """acc += a * b on raw term maps, where key_mul(k1, k2) is the key of the
    product of two terms: the one product loop. Integral Fractions are
    demoted, as in `_add_into`."""
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = key_mul(k1, k2)
            s = acc.get(k, 0) + c1 * c2
            if s:
                acc[k] = s if type(s) is int else as_coeff(s)
            else:
                del acc[k]


def _add_into(acc: dict, pairs: Iterable, f: Scalar = 1):
    """acc += f * c for each (key, c) of pairs, on a sparse term map, dropping
    cancelled keys and demoting integral Fractions: the one
    add-with-cancellation kernel."""
    for k, c in pairs:
        s = acc.get(k, 0) + f * c
        if s:
            acc[k] = s if type(s) is int else as_coeff(s)
        else:
            acc.pop(k, None)


# The polynomial-matrix kernels (`_matmul`, `_minors`, `_substitute`) run on
# integer numerators: each operand is scaled by the lcm of its coefficients'
# denominators (`_den`, `_numerators`), the product loop runs on ints, and
# each output coefficient is divided once (`_divided`).


def _den(maps: Iterable[Mapping]) -> int:
    """The lcm of the denominators of every coefficient in the term maps."""
    d = 1
    for t in maps:
        for c in t.values():
            if type(c) is not int:
                d = lcm(d, c.denominator)
    return d


def _numerators(t: Mapping, d: int) -> Mapping:
    """The term map d * t, all ints, for d a (signed) multiple of every
    denominator in t (t itself when d is 1)."""
    if d == 1:
        return t
    return {
        k: c * d if type(c) is int else c.numerator * (d // c.denominator)
        for k, c in t.items()
    }


def _divided(t: Mapping, q: int, p: int = 1) -> Mapping:
    """The term map t * p / q of an int term map t, for q > 0, under the
    coefficient convention (t itself when p and q are 1)."""
    if p == q == 1:
        return t
    out = {}
    for k, c in t.items():
        c *= p
        out[k] = c // q if c % q == 0 else Fraction(c, q)
    return out


class SparseTerms:
    """An immutable sparse map `terms` from keys to nonzero exact rationals,
    over a ring of size `_dim` (None when the ring has no size): the one term
    type behind `Polynomial`, `freeassoc.NCPoly`, `dyadic.ScalarPoly`,
    `dyadic.DyadExpr` and `dyadic.RowExpr`.

    This base owns the validating constructor, the raw builder, sums, scalar
    and ring products (through `_mul_into`), equality, hashing and the text
    form. A subclass supplies only what differs between the rings:
    `_key(k)` checks and normalizes one key of a constructor's input (None
    drops the term), `_key_mul` is the product of two keys (the dyadic sums
    have none: their products contract, in `dyadic`), `_format_key` is the
    text of a key, `_sort_key` may replace the default print order, and
    `_term_pairs` may replace the printed terms (`DyadExpr` prints its E part
    as one term). `_key_mul` and `_sort_key` are read per instance and may depend
    on the ring size (`Polynomial` reads both from `_mono_ops(_dim)`).
    Operations with another type return NotImplemented; operands of
    different sizes raise ValueError.
    """

    __slots__ = ("_dim", "terms")

    def __init__(self, dim, terms: Mapping = ()):
        _set_dim(self, dim)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for k, c in items:
            k = self._key(k)
            if k is not None:
                _add_into(clean, ((k, as_coeff(c)),))
        _set_terms(self, clean)

    @classmethod
    def _raw(cls, dim, terms: dict):
        """Build from an already-normalized term map (internal)."""
        p = object.__new__(cls)
        _set_dim(p, dim)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _raw, past the guard above
        return (self._raw, (self._dim, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._dim != other._dim:
            raise _size_mismatch(self, other)
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return self._raw(self._dim, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._dim != other._dim:
            raise _size_mismatch(self, other)
        out = dict(self.terms)
        _add_into(out, other.terms.items(), -1)
        return self._raw(self._dim, out)

    def __neg__(self):
        return self._raw(self._dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            if self._dim != other._dim:
                raise _size_mismatch(self, other)
            out: dict = {}
            _mul_into(out, self.terms, other.terms, self._key_mul)
            return self._raw(self._dim, out)
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if not c:
                return self._raw(self._dim, {})
            return self._raw(
                self._dim, {k: as_coeff(v * c) for k, v in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._dim == other._dim and self.terms == other.terms

    def __hash__(self):
        return hash((self._dim, frozenset(self.terms.items())))

    @staticmethod
    def _sort_key(k):
        # default print order: shorter keys first, then by key
        return (len(k), k)

    def sorted_terms(self):
        """Terms in the canonical (printing) order."""
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def _term_pairs(self) -> list:
        """(coefficient, text of the key) of each term, in print order."""
        fmt = self._format_key
        return [(c, fmt(k)) for k, c in self.sorted_terms()]

    def __str__(self):
        return format_terms(self._term_pairs())

    def __repr__(self):
        dim = "" if self._dim is None else f"{self._dim}, "
        return f"{type(self).__name__}({dim}{self})"


# the slot setters, past the immutability guard of __setattr__
_set_dim = SparseTerms._dim.__set__
_set_terms = SparseTerms.terms.__set__


def _size_mismatch(a: SparseTerms, b: SparseTerms) -> ValueError:
    return ValueError(f"rank mismatch: {a._dim} vs {b._dim}")


class Polynomial(SparseTerms):
    """Sparse polynomial in y1..yn with rational coefficients: a map from
    exponent vectors of length `nvars` to coefficients.

    Immutable: the term map is normalized on construction and never mutated
    afterwards, so instances can be shared freely across threads.
    """

    __slots__ = ()

    nvars = property(attrgetter("_dim"))

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] = ()):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        super().__init__(nvars, terms)

    def _key(self, mono) -> tuple:
        mono = tuple(mono)
        if len(mono) != self._dim or not all(
            type(e) is int and e >= 0 for e in mono
        ):
            raise ValueError(f"bad exponent vector {mono} for {self._dim} variables")
        return mono

    _key_mul = property(lambda self: _mono_ops(self._dim)[0])
    _sort_key = property(lambda self: _mono_ops(self._dim)[1])

    @staticmethod
    def _format_key(mono: tuple) -> str:
        return "*".join(
            f"y{i + 1}" if e == 1 else f"y{i + 1}^{e}" for i, e in enumerate(mono) if e
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Polynomial":
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        c = as_coeff(c)
        return cls._raw(nvars, {_constant_key(nvars): c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable y_index, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return cls._raw(nvars, {_units(nvars)[index - 1]: 1})

    @classmethod
    def _linear(cls, nvars: int, coeffs: Sequence[Scalar]) -> "Polynomial":
        """c1*y1 + ... + cn*yn, for coefficients already under the `as_coeff`
        convention (internal)."""
        return cls._raw(nvars, {u: c for u, c in zip(_units(nvars), coeffs) if c})

    # -- predicates and views ----------------------------------------------

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get(_constant_key(self._dim), 0)

    def low_degree(self) -> int:
        """The lowest total degree of a term; the polynomial must be nonzero."""
        return min(map(sum, self.terms))

    def homogeneous_components(self) -> dict:
        """Map total degree -> homogeneous part; zero parts omitted."""
        parts = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(sum(mono), {})[mono] = coeff
        return {d: Polynomial._raw(self._dim, t) for d, t in sorted(parts.items())}


def _dot_y(row: Sequence[Polynomial]) -> dict:
    """The term map of d1*y1 + ... + dn*yn for a row (d1, ..., dn) of
    polynomials in y1..yn: each term of d_i times the unit vector of y_i."""
    n = len(row)
    mul = _mono_ops(n)[0]
    out: dict = {}
    for p, unit in zip(row, _units(n)):
        _add_into(out, ((mul(k, unit), c) for k, c in p.terms.items()))
    return out


def _substitute(
    polys: Sequence[Polynomial], nvars: int, images: Sequence[Polynomial]
) -> list:
    """Each polynomial of `polys`, all in y1..y_nvars, with y_i sent to
    images[i-1], a polynomial in the same variables: the ring endomorphism,
    applied to every entry through one table of monomial images shared by
    all of them. Raises ValueError unless there are nvars images, each in
    nvars variables.

    An image that is exactly y_i fixes y_i, and a polynomial whose monomials
    use only fixed variables is returned as it is: constants, and every
    polynomial under a map whose linear part is the identity.

    With e the lcm of all the images' denominators, the table maps y^m to
    the int term map of prod_i N_i^m_i, N_i = e * images[i-1]. It starts with
    1 and each N_i and builds a missing monomial in a loop, from the nearest
    known one below it, one N_i per step. A polynomial of degree deg, as
    numerators c over its own lcm d, maps to the sum of c * e^(deg - |m|) *
    N^m over its terms c*y^m, divided once by d * e^deg.
    """
    if len(images) != nvars:
        raise ValueError(f"need {nvars} images, got {len(images)}")
    if any(img.nvars != nvars for img in images):
        raise ValueError(f"images must be polynomials in {nvars} variables")
    units = _units(nvars)
    moved = [i for i, img in enumerate(images) if img.terms != {units[i]: 1}]
    if not moved:
        return list(polys)
    e = _den(img.terms for img in images)
    nums = [_numerators(img.terms, e) for img in images]
    table = dict(zip(units, nums))
    one = _constant_key(nvars)
    table[one] = {one: 1}
    mul = _mono_ops(nvars)[0]
    # a walk down takes a factor of the widest image first, so single-term
    # images (fixed variables among them) are multiplied in while still small
    order = sorted(range(nvars), key=lambda i: -len(nums[i]))
    out = []
    for p in polys:
        if not any(m[i] for m in p.terms for i in moved):
            out.append(p)
            continue
        d = _den((p.terms,))
        deg = max(map(sum, p.terms), default=0)
        acc: dict = {}
        for mono, c in _numerators(p.terms, d).items():
            # down to the nearest known monomial, then up one N_i per step
            m, path = mono, []
            while m not in table:
                i = next(i for i in order if m[i])
                path.append((m, i))
                m = m[:i] + (m[i] - 1,) + m[i + 1 :]
            for up, i in reversed(path):
                _mul_into(table.setdefault(up, {}), table[m], nums[i], mul)
                m = up
            if e != 1:
                c *= e ** (deg - sum(mono))
            _add_into(acc, table[mono].items(), c)
        out.append(Polynomial._raw(nvars, _divided(acc, d * e**deg)))
    return out


def _matmul(a_rows: Sequence, b_rows: Sequence, nvars: int) -> tuple:
    """The rows, a tuple of tuples, of A * B for A and B given by their rows
    of polynomials in nvars variables (B with at least one row): the one row
    kernel behind `PolyMatrix.__mul__` and `endos.compose`. It visits only
    nonzero entries, and a product with a constant entry scales the other
    entry's terms (`_add_into`) instead of running key products."""
    one = _constant_key(nvars)
    mul = _mono_ops(nvars)[0]

    def nonzero(rows, d):
        # per row: (column, numerators, the constant or None) of each
        # nonzero entry
        out = []
        for row in rows:
            entries = []
            for j, e in enumerate(row):
                if e.terms:
                    t = _numerators(e.terms, d)
                    entries.append((j, t, t.get(one) if len(t) == 1 else None))
            out.append(entries)
        return out

    da = _den(e.terms for r in a_rows for e in r)
    db = _den(e.terms for r in b_rows for e in r)
    b_nz = nonzero(b_rows, db)
    width, scale = len(b_rows[0]), da * db
    out = []
    for a_nz in nonzero(a_rows, da):
        acc = [{} for _ in range(width)]
        for k, a, ca in a_nz:
            for j, b, cb in b_nz[k]:
                if ca is not None:
                    _add_into(acc[j], b.items(), ca)
                elif cb is not None:
                    _add_into(acc[j], a.items(), cb)
                else:
                    _mul_into(acc[j], a, b, mul)
        out.append(tuple(Polynomial._raw(nvars, _divided(t, scale)) for t in acc))
    return tuple(out)


def format_term(c: Scalar, body: str, first: bool) -> str:
    """One signed term of a sum: the coefficient goes before the body unless
    it is 1, and stands alone when the body is empty. The first term carries
    a bare '-'; later ones a spaced '+ ' or '- '."""
    neg = c < 0
    mag = -c if neg else c
    if not body:
        body = str(mag)
    elif mag != 1:
        body = f"{mag}*{body}"
    if first:
        return f"-{body}" if neg else body
    return f"- {body}" if neg else f"+ {body}"


def format_terms(pairs: Iterable) -> str:
    """The signed sum of (coefficient, body) pairs; "0" when there are none.
    `lieexpr.format_expr` joins its terms the same way in its own loop: fed
    through here, each nested bracket costs a generator."""
    chunks = [format_term(c, body, not i) for i, (c, body) in enumerate(pairs)]
    return " ".join(chunks) if chunks else "0"


# a token is a maximal run of ASCII digits or one other non-space character
_TOKEN = re.compile(r"[0-9]+|\S")


class Tokens:
    """Cursor over the tokens of a text, shared by the text parsers. It keeps
    token indices only; an error finds the offset of its token again."""

    __slots__ = ("text", "toks", "i")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]  # "" is the end of input
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.take(tok):
            raise self.error(f"expected '{tok}'")

    def integer(self) -> int:
        # parsers branch here on str.isdigit(), which also holds for digits
        # such as '²' or '٣'; only a run of ASCII digits is an integer
        tok = self.toks[self.i]
        if not (tok.isdigit() and tok.isascii()):
            raise self.error("expected an integer")
        self.i += 1
        return int(tok)

    def rational(self) -> Scalar:
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator", self.i - 1, end=True)
            return as_coeff(Fraction(num, den))
        return num

    def at_end(self) -> bool:
        return self.toks[self.i] == ""

    def error(self, message: str, i: Optional[int] = None, end: bool = False):
        """A ParseError at the start (or end) of token i, by default the next
        one; the end of input is at offset len(text)."""
        i = self.i if i is None else i
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        if m is None:
            return ParseError(message, len(self.text))
        return ParseError(message, m.end() if end else m.start())


def read_sum(tokens: Tokens, term) -> list:
    """Read ('+'|'-')? term (('+'|'-') term)*, the inverse of format_terms,
    and return the terms. `term(sign)` reads one term and applies the sign."""
    terms = []
    while True:
        tok = tokens.peek()
        if tok == "+" or tok == "-":
            tokens.i += 1
        elif terms:  # the sign is optional before the first term only
            return terms
        terms.append(term(-1 if tok == "-" else 1))


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical polynomial text form; inverse of str()."""
    tokens = Tokens(text)

    def term(sign: int):  # (exponent vector, coefficient)
        mono = [0] * nvars
        coeff = sign
        if tokens.peek().isdigit():
            coeff *= tokens.rational()
            if not tokens.take("*"):
                return tuple(mono), coeff
        while True:
            if not tokens.take("y"):
                raise tokens.error("expected 'y<index>'")
            idx = tokens.integer()
            if not 1 <= idx <= nvars:
                msg = f"variable index {idx} out of range 1..{nvars}"
                raise tokens.error(msg, tokens.i - 1, end=True)
            mono[idx - 1] += tokens.integer() if tokens.take("^") else 1
            if not tokens.take("*"):
                return tuple(mono), coeff

    terms = read_sum(tokens, term)  # the constructor merges equal monomials
    if not tokens.at_end():
        raise tokens.error("trailing input")
    return Polynomial(nvars, terms)


# ---------------------------------------------------------------------------
# Matrices over the polynomial ring
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Rectangular matrix of Polynomial entries with a fixed variable count.

    Rows and columns are plain tuples; instances are immutable. 1xn and nx1
    shapes double as row and column vectors (see `row_vector`, `col_vector`).
    """

    __slots__ = ("nvars", "rows")

    def __init__(self, nvars: int, rows: Iterable[Iterable]):
        grid = []
        width = None
        for row in rows:
            entries = []
            for entry in row:
                if isinstance(entry, Polynomial):
                    if entry.nvars != nvars:
                        raise ValueError("entry has wrong variable count")
                    entries.append(entry)
                else:
                    entries.append(Polynomial.constant(nvars, entry))
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged rows")
            grid.append(tuple(entries))
        if not grid or width == 0:
            raise ValueError("matrix must be nonempty")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rows", tuple(grid))

    @classmethod
    def _raw(cls, nvars: int, rows: tuple) -> "PolyMatrix":
        """Build from a nonempty tuple of equal-length, nonempty tuples of
        Polynomials in nvars variables (internal)."""
        m = object.__new__(cls)
        object.__setattr__(m, "nvars", nvars)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return (self._raw, (self.nvars, self.rows))

    @classmethod
    def identity(cls, nvars: int, n: int) -> "PolyMatrix":
        return cls(nvars, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key) -> Polynomial:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.nvars == other.nvars and self.rows == other.rows

    def __hash__(self):
        return hash((self.nvars, self.rows))

    def _check_same_shape(self, other: "PolyMatrix"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return PolyMatrix(
            self.nvars,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return PolyMatrix(
            self.nvars,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return PolyMatrix(self.nvars, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.nvars != other.nvars:
                raise ValueError("variable-count mismatch")
            if self.ncols != other.nrows:
                raise ValueError(
                    f"dimension mismatch: {self.shape} times {other.shape}"
                )
            rows = _matmul(self.rows, other.rows, self.nvars)
            return PolyMatrix._raw(self.nvars, rows)
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(self.nvars, [[a * other for a in r] for r in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(self.nvars, [[other * a for a in r] for r in self.rows])
        return NotImplemented

    def substitute(self, images: Sequence[Polynomial]) -> "PolyMatrix":
        """Every entry with y_i sent to images[i-1], one polynomial in the
        matrix's variables per variable, through one table of monomial images
        shared by the whole matrix (`_substitute`)."""
        flat = _substitute([e for r in self.rows for e in r], self.nvars, images)
        w = self.ncols
        return PolyMatrix._raw(
            self.nvars, tuple(tuple(flat[i : i + w]) for i in range(0, len(flat), w))
        )

    # -- determinant and inverse ---------------------------------------------

    def det(self) -> Polynomial:
        """Exact determinant, by Laplace expansion over column subsets: the
        last prefix table of `_minors`."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        table, den = _minors(self.rows, self.nvars)[-1]
        full = (1 << self.ncols) - 1
        return Polynomial._raw(self.nvars, _divided(table.get(full, {}), den))

    def inverse_over_ring(self) -> Optional["PolyMatrix"]:
        """Inverse over the polynomial ring, or None.

        A square matrix over K[y1..yn] is invertible over the ring iff its
        determinant is a nonzero constant; then the inverse is the adjugate
        divided by the determinant. Both come from the expansion of the rows
        in order (`_minors`): the minors of the rows other than j extend its
        prefix table of rows 0..j-1 by rows j+1..n-1.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n, nvars, rows = self.nrows, self.nvars, self.rows
        full = (1 << n) - 1
        one = _constant_key(nvars)
        prefixes = _minors(rows, nvars)
        table, den = prefixes[n]
        acc = table.get(full, {})
        if len(acc) != 1 or one not in acc:
            return None
        num, den = abs(acc[one]), den if acc[one] > 0 else -den
        # adj[i][j] = (-1)^(i + j) * (minor of row j and column i) / det
        adj = [[None] * n for _ in range(n)]
        for j, (table, mden) in enumerate(prefixes[:n]):
            for row in rows[j + 1 :]:
                table, mden = _expand(table, mden, row, nvars)
            for i in range(n):
                t = table.get(full ^ (1 << i), {})
                sign = den if (i + j) % 2 == 0 else -den
                adj[i][j] = Polynomial._raw(nvars, _divided(t, mden * num, sign))
        return PolyMatrix._raw(nvars, tuple(map(tuple, adj)))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)

    def __repr__(self):
        return f"PolyMatrix({self.nvars}, shape={self.shape})"


def row_vector(nvars: int, entries: Iterable) -> PolyMatrix:
    return PolyMatrix(nvars, [list(entries)])


def col_vector(nvars: int, entries: Iterable) -> PolyMatrix:
    return PolyMatrix(nvars, [[e] for e in entries])


def y_column(nvars: int) -> PolyMatrix:
    """The column (y1, ..., yn)^t."""
    return col_vector(nvars, [Polynomial.variable(nvars, i + 1) for i in range(nvars)])


# The most nonzero minors of one size an `_expand` table may hold: a dense
# n x n matrix needs C(n, n // 2), 3,432 at rank 14 and 6,435 at rank 15.
MAX_MINORS = 4096


def _minors(rows, nvars: int) -> list:
    """The prefix tables of `rows`: entry k maps each bitmask of k of the
    ncols columns (the row length) to the term map of the determinant of
    rows 0..k-1 on those columns (a zero minor may be absent). The last
    entry holds the determinant of a square matrix, and every entry can be
    extended by later rows (`_expand`) to the minors with one row left out.

    Laplace expansion along the last row, over column subsets, so every
    sub-minor shared between larger minors is computed once and no division
    is needed: O(2^ncols * ncols) products in place of ncols! terms.

    Each entry is (table, den): each row is scaled by the lcm of its
    denominators, so the table holds int term maps, and since a determinant
    is linear in each row, the minors are those maps divided by den, the
    product of the row scales.
    """
    prefixes = [({0: {_constant_key(nvars): 1}}, 1)]
    for row in rows:
        prefixes.append(_expand(*prefixes[-1], row, nvars))
    return prefixes


def _expand(table: dict, den: int, row, nvars: int) -> tuple:
    """One row of `_minors`: from the (table, den) of the minors of some
    rows, those of the minors with `row` added as the last row. The given
    table is left as it is, so one table can be extended in several ways."""
    # only the nonzero entries are scaled: entry c of the last row, with k
    # columns of the sub-minor's column mask right of c, has the sign (-1)^k;
    # c is not in mask, so those are the bits of mask & -(1 << c)
    nonzero = [(1 << c, e.terms) for c, e in enumerate(row) if e.terms]
    d = _den(t for _, t in nonzero)
    signed = [(bit, (_numerators(t, d), _numerators(t, -d))) for bit, t in nonzero]
    mul = _mono_ops(nvars)[0]
    new_table: dict = {}
    for mask, sub in table.items():
        if not sub:
            continue
        for bit, entry in signed:
            if not mask & bit:
                acc = new_table.setdefault(mask | bit, {})
                _mul_into(acc, entry[(mask & -bit).bit_count() % 2], sub, mul)
    if sum(map(bool, new_table.values())) > MAX_MINORS:
        raise ValueError(
            f"determinant expansion exceeds the limit of {MAX_MINORS} nonzero minors"
        )
    return new_table, den * d


# ---------------------------------------------------------------------------
# Exact rational linear algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b and the size of the null space of A.

    `particular` sets every free unknown to zero. `nullity` is the dimension
    of the null space of A: the unknowns minus the rank.
    """

    particular: tuple
    nullity: int


def solve_sparse(
    rows: Sequence[Mapping[int, Scalar]], b: Sequence[Scalar], ncols: int
) -> Optional[LinearSolution]:
    """Exact solution of A x = b over the rationals, A given by sparse rows.

    Row i of A maps column indices in 0..ncols-1 to coefficients (absent
    means zero). The augmented rows are eliminated in a RowSpace and reduced
    to the reduced row echelon form, which is unique, so the result does not
    depend on the order of the rows. Returns None when the system is
    inconsistent.
    """
    if len(rows) != len(b):
        raise ValueError("row count of A must match length of b")
    space = RowSpace()
    for row, rhs in zip(rows, b):
        if row and not (0 <= min(row) and max(row) < ncols):
            raise ValueError(f"column index out of range 0..{ncols - 1}")
        # the right-hand side is the last column, after every unknown; the
        # space reduces a fresh copy of each row, so `row` is left as it is
        space.add({**row, ncols: rhs} if rhs else row)
    echelon = space.reduced()
    if ncols in echelon:
        # a row of A reduced to zero against a nonzero right-hand side
        return None
    particular = [0] * ncols
    for c, row in echelon.items():
        particular[c] = row.get(ncols, 0)
    return LinearSolution(tuple(particular), ncols - len(echelon))


def rational_inverse(a: Sequence[Sequence[Scalar]]) -> Optional[list]:
    """Inverse of a square rational matrix, or None when it is singular.

    The inverse is read from the reduced row echelon form [E | A^-1] of
    [A | E] in a RowSpace; A is singular exactly when a pivot lies right of
    column n - 1. Integral entries are ints. Raises ValueError unless A is
    square.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    space = RowSpace()
    for i, row in enumerate(a):
        aug = {c: v for c, v in enumerate(row) if v}
        aug[n + i] = 1
        space.add(aug)
    echelon = space.reduced()
    if any(k >= n for k in echelon):
        return None
    return [[echelon[i].get(n + j, 0) for j in range(n)] for i in range(n)]


def _eliminate(rem: dict, row: Mapping, k) -> int:
    """Clear key k of the int term map rem with the int row `row`, positive
    at k, fraction-free: with p = row[k], c = rem[k] and g = gcd(p, c),
    rem <- (p/g)*rem - (c/g)*row. Returns p/g, the factor that scaled rem (a
    pivot of 1 scales nothing)."""
    p, c = row[k], rem[k]
    if p != 1:
        g = gcd(p, c)
        if g != 1:
            p //= g
            c //= g
        for kk in rem:
            rem[kk] *= p
    _add_into(rem, row.items(), -c)
    return p


class RowSpace:
    """Incremental exact row-echelon accumulator over sparse rational rows,
    eliminating on integer rows.

    Rows are dicts mapping totally ordered, hashable column keys to exact
    rationals (zero entries are ignored). Each stored pivot row is a
    primitive integer row (ints with gcd 1) under its minimal key, where its
    coefficient, the pivot, is positive. A row is reduced as int numerators
    over one positive denominator (`_eliminate`): each step leaves the
    rational remainder rem - (c/p)*pivot row, only scaled, so reduction
    strictly increases the minimal key of the remainder and terminates.
    Results are divided once on return, under the coefficient convention.
    """

    def __init__(self):
        self._pivots = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: Mapping) -> tuple:
        """(numerators, den): the remainder of row is numerators / den, with
        numerators an int term map and den a positive int."""
        rem = {k: c if type(c) is int else as_coeff(c) for k, c in row.items() if c}
        den = _den((rem,))
        rem = _numerators(rem, den)
        pivots = self._pivots
        while rem:
            k = min(rem)
            pivot = pivots.get(k)
            if pivot is None:
                break
            den *= _eliminate(rem, pivot, k)
        return rem, den

    def add(self, row: Mapping) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        rem = self._reduce(row)[0]
        if not rem:
            return False
        k = min(rem)
        p = rem[k]
        g = 1 if p == 1 or p == -1 else gcd(*rem.values())
        if p < 0:
            g = -g
        if g != 1:
            rem = {kk: c // g for kk, c in rem.items()}
        self._pivots[k] = rem
        return True

    def contains(self, row: Mapping) -> bool:
        return not self._reduce(row)[0]

    def reduced(self) -> dict:
        """The reduced row echelon form of the span, as pivot key -> row in
        increasing key order: each row is 1 at its own key and 0 at every
        other pivot key. The rows are fresh dicts; the stored rows are left
        as they are."""
        done = {}
        for k in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[k])
            # every pivot key in the row other than k is larger, so its row
            # is already in `done`, and that row is 0 at every other pivot
            # key; back-substitution cross-multiplies as `_reduce` does
            for kk in [kk for kk in row if kk != k and kk in done]:
                _eliminate(row, done[kk], kk)
            done[k] = row
        return {k: _divided(done[k], done[k][k]) for k in sorted(done)}
