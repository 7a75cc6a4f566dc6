"""Exact arithmetic substrate: rationals, sparse multivariate polynomials,
matrices over the polynomial ring, and exact rational linear solving on
sparse rows.

Each shared concept has one implementation here, used by the whole package:
`SparseTerms` is the one sparse term type, the immutable map of keys to
coefficients behind `Polynomial`, `freeassoc.NCPoly` and
`dyadic.ScalarPoly`; `_add_into` is its add-with-cancellation kernel and
`_mul_into` its one product loop, which takes the ring's product of two keys
(exponent vectors, words or lambda monomials); `format_terms` prints every
signed sum (polynomials, bracket expressions, lambda polynomials, dyad and
row expressions, free-algebra polynomials); `_minors`, a Laplace expansion
over column subsets, gives both the determinant and the adjugate; and
`RowSpace` is the one exact rational elimination, behind `solve_sparse`,
`solve_linear` and `rational_inverse`.

Coefficients are exact rationals under one convention shared by the whole
package: a coefficient is a plain `int` until a division makes it
non-integral, and then a `fractions.Fraction`; integral quotients are demoted
back to `int` with `as_coeff`. Every division divides an actual Fraction
(`1 / as_rat(x)`, `Fraction(num, den)`), so nothing here ever rounds or
produces a float. The polynomial-matrix kernels (the matrix product, the
minors behind the determinant and the ring inverse, and substitution) run
fraction-free inside: each operand is scaled to integer numerators by the
lcm of its denominators, the product loop runs on ints, and each output
coefficient is divided once. What they store follows the same convention,
so this changes no stored value.

A polynomial is a sparse map from exponent tuples to nonzero coefficients
over a fixed number of variables y1..yn. The text form ("2*y1^2*y2 - y3") is
canonical -- terms are ordered by total degree (highest first), ties broken
by exponent vector -- and parse/print round-trips exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import add, attrgetter
from typing import Optional, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Raised on malformed input text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def as_rat(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def as_coeff(c: Scalar):
    """Normalize an exact rational, demoting integral values to int.

    This is the package's coefficient convention: int until a division makes
    a value non-integral, Fraction after. int and Fraction mix exactly under
    Python arithmetic and agree on equality and hashing, so integer inputs
    stay on the all-integer fast path and rational ones stay exact. Divide
    only by `as_rat(x)`: `1 / x` on an int gives a float.
    """
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def _mono_key(mono: tuple) -> tuple:
    # canonical term order: highest total degree first, then higher powers of
    # the earliest variable first
    return (-sum(mono), tuple(-e for e in mono))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(add, m1, m2))


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


# The polynomial-matrix kernels (`PolyMatrix.__mul__`, `_minors`,
# `_substitute`) run on integer numerators: each operand is scaled by the lcm
# of its coefficients' denominators (`_den`, `_numerators`), the product loop
# runs on ints, and each output coefficient is divided once (`_divided`).


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
    type behind `Polynomial`, `freeassoc.NCPoly` and `dyadic.ScalarPoly`.

    This base owns the validating constructor, the raw builder, sums, scalar
    and ring products (through `_mul_into`), equality, hashing and the text
    form. A subclass supplies only what differs between the rings:
    `_key(k)` checks and normalizes one key of a constructor's input (None
    drops the term), `_key_mul` is the product of two keys, `_format_key`
    is the text of a key, and `_sort_key` may replace the default print
    order. Operations with another type return NotImplemented; operands of
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

    def __str__(self):
        fmt = self._format_key
        return format_terms((c, fmt(k)) for k, c in self.sorted_terms())

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
        if len(mono) != self._dim or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent vector {mono} for {self._dim} variables")
        return mono

    _key_mul = staticmethod(_mono_mul)
    _sort_key = staticmethod(_mono_key)

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
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable y_index, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    # -- predicates and views ----------------------------------------------

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self._dim, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(mono), 0)

    def homogeneous_components(self) -> dict:
        """Map total degree -> homogeneous part; zero parts omitted."""
        parts = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(sum(mono), {})[mono] = coeff
        return {d: Polynomial._raw(self._dim, t) for d, t in sorted(parts.items())}

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self._dim)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- substitution --------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending y_i to images[i-1]."""
        return _substitute([self], self._dim, images)[0]

    def split_by_var(self, index: int):
        """Write self = q * y_index + r with r free of y_index; returns (q, r)."""
        if not 1 <= index <= self._dim:
            raise ValueError(f"variable index {index} out of range 1..{self._dim}")
        i = index - 1
        q, r = {}, {}
        for mono, coeff in self.terms.items():
            if mono[i] > 0:
                q[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]] = coeff
            else:
                r[mono] = coeff
        return Polynomial._raw(self._dim, q), Polynomial._raw(self._dim, r)


def _substitute(
    polys: Sequence[Polynomial], nvars: int, images: Sequence[Polynomial]
) -> list:
    """Each polynomial of `polys`, all in y1..y_nvars, with y_i sent to
    images[i-1]: the ring homomorphism, applied to every entry with one power
    table of the images shared by all of them.

    Image i is taken as integer numerators over the lcm e_i of its
    denominators, and a polynomial p as integer numerators over its own lcm
    d. A monomial y^m of p then maps to prod_i N_i^m_i / prod_i e_i^m_i, so
    scaling p's image by d * prod_i e_i^top_i, where top_i is the highest
    power of y_i in p, makes the whole sum integral; each output coefficient
    is divided by that scale once.
    """
    if len(images) != nvars:
        raise ValueError(f"need {nvars} images, got {len(images)}")
    if not images:
        return list(polys)
    nv = images[0].nvars
    for img in images:
        if img.nvars != nv:
            raise ValueError("images live in different rings")
    dens = [_den((img.terms,)) for img in images]
    # powers[i][e - 1] = (e_i * images[i])^e, as an int term map
    powers = [[_numerators(img.terms, d)] for img, d in zip(images, dens)]
    scaled = [i for i, d in enumerate(dens) if d != 1]
    one = (0,) * nv

    def power(i: int, e: int) -> Mapping:
        table = powers[i]
        while len(table) < e:
            nxt: dict = {}
            _mul_into(nxt, table[-1], table[0], _mono_mul)
            table.append(nxt)
        return table[e - 1]

    out = []
    for p in polys:
        d = _den((p.terms,))
        top = {i: max((m[i] for m in p.terms), default=0) for i in scaled}
        acc: dict = {}
        for mono, c in _numerators(p.terms, d).items():
            # acc += c * prod_i e_i^(top_i - m_i) * prod_i N_i^m_i, with the
            # last factor multiplied straight into acc
            part = {one: c * prod(dens[i] ** (top[i] - mono[i]) for i in scaled)}
            last = None
            for i, e in enumerate(mono):
                if e:
                    if last is not None:
                        nxt = {}
                        _mul_into(nxt, part, last, _mono_mul)
                        part = nxt
                    last = power(i, e)
            if last is None:
                _add_into(acc, part.items())
            else:
                _mul_into(acc, part, last, _mono_mul)
        scale = d * prod(dens[i] ** top[i] for i in scaled)
        out.append(Polynomial._raw(nv, _divided(acc, scale)))
    return out


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
    This is the package's one printer of signed sums."""
    chunks = [format_term(c, body, not i) for i, (c, body) in enumerate(pairs)]
    return " ".join(chunks) if chunks else "0"


class _Scanner:
    """Tiny whitespace-insensitive tokenizer shared by the text parsers."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected '{ch}'", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def rational(self) -> Scalar:
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return as_coeff(Fraction(num, den))
        return num

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_polynomial(text: str, nvars: int, letter: str = "y") -> Polynomial:
    """Parse the canonical polynomial text form; inverse of str()."""
    sc = _Scanner(text)
    terms: list = []  # (exponent vector, coefficient); the constructor merges

    def parse_factor():
        sc.skip_ws()
        if sc.peek() != letter:
            raise ParseError(f"expected '{letter}<index>'", sc.pos)
        sc.pos += 1
        idx = sc.integer()
        if not 1 <= idx <= nvars:
            raise ParseError(f"variable index {idx} out of range 1..{nvars}", sc.pos)
        exp = 1
        if sc.take("^"):
            exp = sc.integer()
        return idx, exp

    def parse_term(sign: int):
        mono = [0] * nvars
        coeff = sign
        ch = sc.peek()
        if ch.isdigit():
            coeff *= sc.rational()
            if not sc.take("*"):
                terms.append((tuple(mono), coeff))
                return
        idx, exp = parse_factor()
        mono[idx - 1] += exp
        while sc.take("*"):
            idx, exp = parse_factor()
            mono[idx - 1] += exp
        terms.append((tuple(mono), coeff))

    sign = -1 if sc.take("-") else 1
    if sign == 1:
        sc.take("+")
    parse_term(sign)
    while True:
        if sc.take("+"):
            parse_term(1)
        elif sc.take("-"):
            parse_term(-1)
        else:
            break
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
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

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, nvars: int, n: int) -> "PolyMatrix":
        return cls(nvars, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nvars: int, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(nvars, [[0] * ncols for _ in range(nrows)])

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
            # integer numerators over one lcm denominator per operand
            da = _den(e.terms for r in self.rows for e in r)
            db = _den(e.terms for r in other.rows for e in r)
            rows = [[_numerators(e.terms, da) for e in r] for r in self.rows]
            cols = [[_numerators(e.terms, db) for e in c] for c in zip(*other.rows)]
            out = []
            for r in rows:
                line = []
                for c in cols:
                    acc: dict = {}
                    for a, b in zip(r, c):
                        if a and b:
                            _mul_into(acc, a, b, _mono_mul)
                    line.append(Polynomial._raw(self.nvars, _divided(acc, da * db)))
                out.append(line)
            return PolyMatrix(self.nvars, out)
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(self.nvars, [[a * other for a in r] for r in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(self.nvars, [[other * a for a in r] for r in self.rows])
        return NotImplemented

    def substitute(self, images: Sequence[Polynomial]) -> "PolyMatrix":
        """`Polynomial.substitute` applied to every entry, with the powers of
        the images built once for the whole matrix."""
        flat = _substitute([e for r in self.rows for e in r], self.nvars, images)
        nv = images[0].nvars if images else self.nvars
        w = self.ncols
        return PolyMatrix(nv, [flat[i : i + w] for i in range(0, len(flat), w)])

    # -- determinant and inverse ---------------------------------------------

    def det(self) -> Polynomial:
        """Exact determinant, by Laplace expansion over column subsets
        (`_minors`)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        full = (1 << self.ncols) - 1
        table, den = _minors(self.rows, self.ncols, self.nvars)
        return Polynomial._raw(self.nvars, _divided(table.get(full, {}), den))

    def inverse_over_ring(self) -> Optional["PolyMatrix"]:
        """Inverse over the polynomial ring, or None.

        A square matrix over K[y1..yn] is invertible over the ring iff its
        determinant is a nonzero constant; then the inverse is the adjugate
        divided by the determinant. The determinant is the expansion along
        row 0 of the minors the adjugate needs anyway.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n, nvars = self.nrows, self.nvars
        full = (1 << n) - 1
        one = (0,) * nvars

        def row_deleted_minors(j):
            # entry c: the numerators of the minor on the rows other than j
            # and the columns other than c, and their denominator
            table, den = _minors(self.rows[:j] + self.rows[j + 1 :], n, nvars)
            return [table.get(full ^ (1 << c), {}) for c in range(n)], den

        nums0, den0 = row_deleted_minors(0)
        # det = num / den, expanded along row 0 scaled by the lcm d0 of its
        # denominators
        d0 = _den(e.terms for e in self.rows[0])
        acc: dict = {}
        for c, (entry, minor) in enumerate(zip(self.rows[0], nums0)):
            if entry.terms and minor:
                signed = _numerators(entry.terms, -d0 if c % 2 else d0)
                _mul_into(acc, signed, minor, _mono_mul)
        if not acc or any(k != one for k in acc):
            return None
        num, den = acc[one], d0 * den0
        if num < 0:
            num, den = -num, -den
        minors = [(nums0, den0)] + [row_deleted_minors(j) for j in range(1, n)]
        # adj[i][j] = (-1)^(i + j) * (minor c = i of row j) / det
        adj = [[None] * n for _ in range(n)]
        for j, (nums, mden) in enumerate(minors):
            for i, t in enumerate(nums):
                sign = den if (i + j) % 2 == 0 else -den
                adj[i][j] = Polynomial._raw(nvars, _divided(t, mden * num, sign))
        return PolyMatrix(nvars, adj)

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


def unit_column(nvars: int, n: int, index: int) -> PolyMatrix:
    """The standard basis column e_index (1-based) of length n."""
    return col_vector(nvars, [1 if i == index - 1 else 0 for i in range(n)])


def _minors(rows, ncols: int, nvars: int) -> tuple:
    """Map each bitmask of len(rows) of the ncols columns to the term map of
    the determinant of `rows` on those columns (a zero minor may be absent).

    Laplace expansion along the last row, over column subsets, so every
    sub-minor shared between larger minors is computed once and no division
    is needed: O(2^ncols * ncols) products in place of ncols! terms.

    Returns (table, den): each row is scaled by the lcm of its denominators,
    so the table holds int term maps, and since a determinant is linear in
    each row, the minors are those maps divided by den, the product of the
    row scales.
    """
    table = {0: {(0,) * nvars: 1}}
    den = 1
    for t, row in enumerate(rows):
        d = _den(e.terms for e in row)
        den *= d
        # entry c of the last row t, with pos sub-minor columns left of c,
        # has the sign (-1)^(t + pos)
        signed = (
            [_numerators(e.terms, d) for e in row],
            [_numerators(e.terms, -d) for e in row],
        )
        new_table: dict = {}
        for mask, sub in table.items():
            if not sub:
                continue
            pos = 0
            for c in range(ncols):
                bit = 1 << c
                if mask & bit:
                    pos += 1
                    continue
                entry = signed[(t + pos) % 2][c]
                if entry:
                    acc = new_table.setdefault(mask | bit, {})
                    _mul_into(acc, entry, sub, _mono_mul)
        table = new_table
    return table, den


# ---------------------------------------------------------------------------
# Exact rational linear algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b and the null space of A.

    `particular` sets every free unknown to zero. `nullity` is the dimension
    of the null space (unknowns minus rank); `null_basis` builds its basis
    from the reduced row echelon form only when read: one vector per free
    column, in column order, 1 at that column and 0 at the other free ones.
    """

    particular: tuple
    nullity: int
    # pivot column -> its row of the reduced row echelon form of A
    echelon: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def null_basis(self) -> tuple:
        ncols = len(self.particular)
        basis = []
        for fc in range(ncols):
            if fc in self.echelon:
                continue
            vec = [0] * ncols
            vec[fc] = 1
            for c, row in self.echelon.items():
                v = row.get(fc)
                if v:
                    vec[c] = -v
            basis.append(tuple(vec))
        return tuple(basis)


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
        aug = dict(row)
        if rhs:
            # the right-hand side is the last column, after every unknown
            aug[ncols] = rhs
        space.add(aug)
    echelon = space.reduced()
    if ncols in echelon:
        # a row of A reduced to zero against a nonzero right-hand side
        return None
    particular = [0] * ncols
    for c, row in echelon.items():
        particular[c] = row.pop(ncols, 0)
    return LinearSolution(tuple(particular), ncols - len(echelon), echelon)


def solve_linear(a_rows: Sequence[Sequence[Scalar]], b: Sequence[Scalar]):
    """Exact solution of A x = b for a dense matrix A: an adapter onto
    `solve_sparse`. Returns a LinearSolution, or None when the system is
    inconsistent."""
    if len(a_rows) != len(b):
        raise ValueError("row count of A must match length of b")
    if not a_rows:
        return LinearSolution((), 0)
    ncols = len(a_rows[0])
    rows = []
    for row in a_rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        rows.append({c: v for c, v in enumerate(map(as_coeff, row)) if v})
    return solve_sparse(rows, [as_coeff(c) for c in b], ncols)


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


class RowSpace:
    """Incremental exact row-echelon accumulator over sparse rational rows.

    Rows are dicts mapping totally ordered, hashable column keys to nonzero
    exact rationals. Each stored pivot row is normalized to coefficient 1 at
    its minimal key, so reduction strictly increases the minimal key of the
    remainder and terminates. Stored pivots and returned remainders follow
    the coefficient convention: integral values are ints.
    """

    def __init__(self):
        self._pivots = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, row: Mapping) -> dict:
        rem = {k: as_coeff(c) for k, c in row.items() if c}
        while rem:
            k = min(rem)
            pivot = self._pivots.get(k)
            if pivot is None:
                return rem
            _add_into(rem, pivot.items(), -rem[k])
        return rem

    def add(self, row: Mapping) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        rem = self.reduce(row)
        if not rem:
            return False
        k = min(rem)
        inv = 1 / as_rat(rem[k])
        self._pivots[k] = {kk: as_coeff(cc * inv) for kk, cc in rem.items()}
        return True

    def contains(self, row: Mapping) -> bool:
        return not self.reduce(row)

    def reduced(self) -> dict:
        """The reduced row echelon form of the span, as pivot key -> row in
        increasing key order: each row is 1 at its own key and 0 at every
        other pivot key. The stored rows are left as they are."""
        done = {}
        for k in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[k])
            # every pivot key in the row other than k is larger, so its row
            # is already in `done`, and that row is 0 at every other pivot key
            for kk in [kk for kk in row if kk != k and kk in done]:
                _add_into(row, done[kk].items(), -row[kk])
            done[k] = row
        return {k: done[k] for k in sorted(done)}

