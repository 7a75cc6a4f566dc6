"""Symbolic calculus of rank-one updates E + Phi_i Psi_i.

Column symbols Phi_1..Phi_k (plus the special column Y) and row symbols
Psi_1..Psi_k (plus the special row dz) multiply through the contraction
Psi_i Phi_j -> lambda_ij, where the lambda_ij are independent commuting
indeterminates subject only to lambda_ii = 0, and Psi_i Y -> 0. No other
relation is assumed: proving an expression nonzero in this free calculus is
exactly the statement that no sequence of these row manipulations can cancel
it. The special row dz contracts with nothing; hitting dz * (column) raises,
since the calculus never needs it.

The lambda polynomials (`ScalarPoly`), the dyad sums (`DyadExpr`) and the row
combinations (`RowExpr`) are all `SparseTerms`: flat maps from keys to
rational coefficients, keyed by a lambda monomial alone, by (monomial,
column, row) and by (monomial, row). A monomial is a sorted tuple of (i, j)
pairs, and a product that adds one pair inserts it by bisection.

instantiate() grounds an expression with concrete polynomial columns/rows
and is the bridge used to cross-check the calculus against honest matrix
products.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cache
from typing import Dict, List, Optional, Tuple

from .polyring import (
    PolyMatrix,
    Polynomial,
    Scalar,
    SparseTerms,
    _add_into,
    _dot_y,
    _mono_ops,
    _mul_into,
    as_coeff,
    format_term,
    format_terms,
    y_column,
)

# a lambda monomial is a sorted tuple of (i, j) index pairs
Pair = Tuple[int, int]


@cache
def _format_pair(p: Pair) -> str:
    i, j = p
    if i < 10 and j < 10:
        return f"λ{i}{j}"
    return f"λ({i},{j})"


def _format_mono(mono: Tuple[Pair, ...]) -> str:
    """A lambda monomial, e.g. "λ12*λ23"."""
    return "*".join(map(_format_pair, mono))


def _insert(mono: Tuple[Pair, ...], p: Pair) -> Tuple[Pair, ...]:
    """The sorted monomial mono * p."""
    i = bisect(mono, p)
    return mono[:i] + (p,) + mono[i:]


def _mono_mul(m1: Tuple[Pair, ...], m2: Tuple[Pair, ...]) -> Tuple[Pair, ...]:
    """The sorted monomial m1 * m2: a side of one pair is inserted, and only
    two sides of several pairs each are sorted."""
    if len(m1) > len(m2):
        m1, m2 = m2, m1
    if len(m1) > 1:
        return tuple(sorted(m1 + m2))
    return _insert(m2, m1[0]) if m1 else m2


class ScalarPoly(SparseTerms):
    """Commutative polynomial with rational coefficients in the
    indeterminates lambda_ij (i != j); lambda_ii collapses to 0."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Tuple[Pair, ...], Scalar] = ()):
        super().__init__(None, terms)

    @staticmethod
    def _key(mono) -> Optional[Tuple[Pair, ...]]:
        mono = tuple(sorted(tuple(p) for p in mono))
        return None if any(i == j for i, j in mono) else mono

    _key_mul = staticmethod(_mono_mul)

    _format_key = staticmethod(_format_mono)

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "ScalarPoly":
        return cls({(): c})

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls.constant(1)

    def substituted(self, pair: Pair, value: Scalar) -> "ScalarPoly":
        """Replace one lambda indeterminate by a rational constant."""
        pair = tuple(pair)
        value = as_coeff(value)
        out: dict = {}
        _add_into(
            out,
            (
                (tuple(p for p in mono if p != pair), c * value ** mono.count(pair))
                for mono, c in self.terms.items()
            ),
        )
        return ScalarPoly._raw(None, out)


def lam(i: int, j: int) -> ScalarPoly:
    """The indeterminate lambda_ij; lambda_ii is identically zero."""
    return ScalarPoly._raw(None, {((i, j),): 1} if i != j else {})


# column symbols: ("phi", i) or ("Y",); row symbols: ("psi", j) or ("dz",)
ColSym = Tuple
RowSym = Tuple

Y_COL: ColSym = ("Y",)
DZ_ROW: RowSym = ("dz",)
# the identity E, reserved as both the column and the row of a DyadExpr key
E_SYM = ("E",)


def phi_sym(i: int) -> ColSym:
    return ("phi", i)


def psi_sym(i: int) -> RowSym:
    return ("psi", i)


def _format_sym(s: tuple) -> str:
    """The text of a column or row symbol: Φi, Ψi, Y or ∂z."""
    if len(s) == 1:
        return "∂z" if s == DZ_ROW else s[0]
    return f"{'Φ' if s[0] == 'phi' else 'Ψ'}{s[1]}"


def _key_mul(k1: tuple, k2: tuple) -> Optional[tuple]:
    """The key of the product of a dyad or row term k1 with a dyad term k2:
    (u x r)(u' x r') = (r.u') * (u x r') and r (u' x r') = (r.u') * r',
    with E neutral on either side and the contraction Psi_i Phi_j ->
    lambda_ij. None when the contraction vanishes (Psi_i Phi_i, Psi_i Y); dz
    contracts with nothing."""
    col, row = k2[1], k1[-1]
    if col == E_SYM:
        return (_mono_mul(k1[0], k2[0]), *k1[1:])
    if row == E_SYM:
        return (_mono_mul(k1[0], k2[0]), *k2[1:])
    if row == DZ_ROW:
        raise ValueError(f"contraction ∂z*{_format_sym(col)} is not defined")
    if col == Y_COL or col[1] == row[1]:
        return None
    mono = _insert(_mono_mul(k1[0], k2[0]) if k1[0] else k2[0], (row[1], col[1]))
    # k1 is a row key (mono, row) or a dyad key (mono, column, row)
    return (mono, k2[2]) if len(k1) == 2 else (mono, k1[1], k2[2])


def _product(cls, a: Mapping, b: Mapping):
    """The `cls` with the terms of the product of the term maps a and b."""
    out: dict = {}
    _mul_into(out, a, b, _key_mul)
    # every vanishing product landed on the key None
    out.pop(None, None)
    return cls._raw(None, out)


class _SymbolTerms(SparseTerms):
    """The storage shared by DyadExpr and RowExpr: keys (lambda monomial,
    symbols...), printed by monomial degree, then monomial, then symbols."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        # coeffs: (symbol tuple, ScalarPoly) pairs
        super().__init__(
            None, [((m, *syms), c) for syms, s in coeffs for m, c in s.terms.items()]
        )

    @staticmethod
    def _key(k: tuple) -> Optional[tuple]:
        # None drops a term with some lambda_ii
        mono = ScalarPoly._key(k[0])
        return None if mono is None else (mono, *k[1:])

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0]))

    def _term_pairs(self) -> list:
        """The terms in print order, each distinct symbol tuple printed once;
        the E terms of a DyadExpr go first, as one term `E` or `(scalar)*E`."""
        pairs, scalar, syms = [], [], {}
        for k, c in self.sorted_terms():
            if k[1] == E_SYM:
                scalar.append((c, _format_mono(k[0])))
                continue
            sym = syms.get(k[1:])
            if sym is None:
                sym = syms[k[1:]] = "".join(map(_format_sym, k[1:]))
            pairs.append((c, "*".join((*map(_format_pair, k[0]), sym))))
        if scalar:
            s = format_terms(scalar)
            pairs.insert(0, (1, "E" if s == "1" else f"({s})*E"))
        return pairs

    def term_list(self):
        """Flat list of (lambda monomial, coefficient, *symbols) terms in
        canonical order (by monomial degree, then monomial, then symbols),
        the E terms of a DyadExpr left out."""
        return [
            (k[0], c, *k[1:]) for k, c in self.sorted_terms() if k[1:] != (E_SYM, E_SYM)
        ]

    def __mul__(self, other):
        # two dyad sums or rows multiply by contraction: dyad_mul, row_mul
        if type(other) is type(self):
            return NotImplemented
        return super().__mul__(other)


class DyadExpr(_SymbolTerms):
    """Formal sum scalar * E + sum of coeff * (column x row) dyads: a map
    from (lambda monomial, column, row) to rational coefficients, where the
    terms of scalar * E have E_SYM as both column and row."""

    __slots__ = ()

    def __init__(
        self,
        scalar: ScalarPoly = ScalarPoly.zero(),
        dyads: Mapping[Tuple[ColSym, RowSym], ScalarPoly] = (),
    ):
        items = dyads.items() if isinstance(dyads, Mapping) else dyads
        super().__init__([((E_SYM, E_SYM), scalar), *items])

    @classmethod
    def identity(cls) -> "DyadExpr":
        return cls._raw(None, {((), E_SYM, E_SYM): 1})

    @classmethod
    def dyad(cls, col: ColSym, row: RowSym, coeff: ScalarPoly = None) -> "DyadExpr":
        return cls(ScalarPoly.zero(), {(col, row): coeff or ScalarPoly.one()})


def dyad_mul(a: DyadExpr, b: DyadExpr) -> DyadExpr:
    """Bilinear product with the contraction rule
    (u x r)(u' x r') = (r.u') * (u x r')."""
    return _product(DyadExpr, a.terms, b.terms)


def expand_product(k: int) -> DyadExpr:
    """(E + Phi_1 Psi_1) ... (E + Phi_k Psi_k), fully expanded:
    E plus, for every increasing index sequence i1 < ... < im, the dyad
    Phi_{i1} Psi_{im} with coefficient lambda_{i1 i2} ... lambda_{i_{m-1} i_m}.
    """
    if k < 1:
        raise ValueError("need at least one factor")
    return DyadExpr._raw(None, _chains(k, {((), E_SYM, E_SYM): 1}))


def _chains(k: int, terms: dict) -> dict:
    """terms with the dyads of expand_product(k) added. The sequences of one
    length, as (monomial, first, last), grow by each j > last, which appends
    (last, j): every monomial stays sorted, holds no (i, i) and has one
    sequence."""
    phis = [phi_sym(i) for i in range(k + 1)]
    psis = [psi_sym(i) for i in range(k + 1)]
    level = [((), i, i) for i in range(1, k + 1)]
    while level:
        for mono, first, last in level:
            terms[mono, phis[first], psis[last]] = 1
        level = [
            (mono + ((last, j),), first, j)
            for mono, first, last in level
            for j in range(last + 1, k + 1)
        ]
    return terms


def factors(k: int) -> List[DyadExpr]:
    """The individual factors E + Phi_i Psi_i, i = 1..k."""
    return [
        DyadExpr.identity() + DyadExpr.dyad(phi_sym(i), psi_sym(i))
        for i in range(1, k + 1)
    ]


def minus_y_dz() -> DyadExpr:
    """The right-hand side -Y dz."""
    return DyadExpr._raw(None, {((), Y_COL, DZ_ROW): -1})


class RowExpr(_SymbolTerms):
    """Formal combination of row symbols with lambda-polynomial
    coefficients: a map from (lambda monomial, row) to rational
    coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[RowSym, ScalarPoly] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        super().__init__(((r,), s) for r, s in items)

    def coefficient(self, sym: RowSym) -> ScalarPoly:
        return ScalarPoly._raw(
            None, {m: c for (m, row), c in self.terms.items() if row == sym}
        )

    def scaled(self, s: ScalarPoly) -> "RowExpr":
        out: dict = {}
        _mul_into(
            out, s.terms, self.terms, lambda m, k: (ScalarPoly._key_mul(m, k[0]), k[1])
        )
        return RowExpr._raw(None, out)


def row_mul(i: int, x: DyadExpr) -> RowExpr:
    """Left-multiply a dyad expression by the row symbol Psi_i."""
    return _product(RowExpr, {((), psi_sym(i)): 1}, x.terms)


def _relations(k: int) -> tuple:
    """X = P - E (built without E), R1 = Psi_1 * X, R2 = Psi_2 * X and
    R2 - lambda_21 * R1."""
    if k < 2:
        raise ValueError("need at least two factors")
    lhs = DyadExpr._raw(None, _chains(k, {}))
    eq1, eq2 = row_mul(1, lhs), row_mul(2, lhs)
    return lhs, eq1, eq2, eq2 - eq1.scaled(lam(2, 1))


def derive_reduced_relation(k: int = 3) -> RowExpr:
    """Row relation obtained from the expanded product by eliminating with
    Psi_2 and Psi_1: Psi_2 * (P - E) - lambda_21 * (Psi_1 * (P - E))."""
    return _relations(k)[-1]


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of the reduction replay: the derivation steps, each a
    (label, equation, terms) triple of texts, the reduced relation, and the
    surviving Psi_1 coefficient."""

    k: int
    steps: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    reduced: RowExpr
    psi1_coefficient: ScalarPoly
    residual_survives: bool
    reduced_text: str = field(compare=False, repr=False)

    def to_doc(self) -> dict:
        return {
            "factors": self.k,
            "steps": [
                {"label": label, "equation": text, "terms": list(terms)}
                for label, text, terms in self.steps
            ],
            "reduced_relation": self.reduced_text,
            "psi1_coefficient": str(self.psi1_coefficient),
            "residual_survives": self.residual_survives,
        }

    @staticmethod
    def layout(doc: dict) -> str:
        """The text form, laid out from a `to_doc()` document."""
        return "\n".join(f"[{s['label']}] {s['equation']}" for s in doc["steps"])

    def to_text(self) -> str:
        return self.layout(self.to_doc())


def residual_check(k: int = 3) -> ResidualReport:
    """Replay the row-elimination and verify that the reduced relation keeps
    the extra summand lambda_21 * Psi_1 (so no triangular cancellation of the
    Psi terms is possible in this calculus)."""
    lhs, eq1, eq2, reduced = _relations(k)
    factor_texts = tuple(f"E + Φ{i}Ψ{i}" for i in range(1, k + 1))
    prod_str = "".join(f"({f})" for f in factor_texts)
    steps = [("P", f"{prod_str} = E - Y∂z", factor_texts)]
    for label, template, x in (
        ("X", "{} = -Y∂z", lhs),
        ("R1", "Ψ1 * X:  {} = 0", eq1),
        ("R2", "Ψ2 * X:  {} = 0", eq2),
        ("R", "R2 - λ21*R1:  {} = 0", reduced),
    ):
        # each term's text is built once, for the equation and the term list
        pairs = x._term_pairs()
        text = format_terms(pairs)
        terms = tuple(format_term(c, body, True) for c, body in pairs)
        steps.append((label, template.format(text), terms))
    psi1 = reduced.coefficient(psi_sym(1))
    survives = psi1 == lam(2, 1)
    if not survives:
        raise AssertionError(
            f"expected the reduced relation to keep λ21*Ψ1, got {psi1}"
        )
    verdict = (
        "coefficient of Ψ1 in R is the nonzero indeterminate λ21; "
        "the reduced relation is not triangular in Ψ2, Ψ3, ..."
    )
    steps.append(("verdict", verdict, ()))
    # text is str(reduced), printed for the step R
    return ResidualReport(k, tuple(steps), reduced, psi1, survives, text)


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------


def instantiate(expr, phis: Mapping[int, PolyMatrix], psis: Mapping[int, PolyMatrix]):
    """Ground a DyadExpr (to an n x n PolyMatrix) or RowExpr (to a 1 x n row)
    with concrete columns Phi_i and rows Psi_i, where n is the variable
    count, the length of the column Y. The row dz is never grounded: an
    expression with a dz term raises ValueError ("assignment missing ∂z").

    The assignment is checked before any product: every Phi_i must be n x 1,
    every Psi_i 1 x n, and every Psi_i must satisfy Psi_i Phi_i = 0 and
    Psi_i Y = 0; lambda_ij is then the 1 x 1 product Psi_i Phi_j.

    One pass over the terms sums each column symbol's row combination, the
    sum of c * (grounded monomial) * row over its terms. A RowExpr grounds to
    its one combination, a DyadExpr to ground(scalar) * E + C * R, with C the
    n x k matrix of the k columns used and R the k x n matrix of their row
    combinations.
    """
    if not isinstance(expr, (DyadExpr, RowExpr)):
        raise TypeError("expected a DyadExpr or RowExpr")
    some = next(iter(psis.values()), None) or next(iter(phis.values()), None)
    if some is None:
        raise ValueError("assignment is empty")
    n = nvars = some.nvars
    ycol = y_column(nvars)
    cols = {phi_sym(i): phi for i, phi in phis.items()}
    rows = {psi_sym(i): psi for i, psi in psis.items()}
    for given, shape, kind in ((cols, (n, 1), "column"), (rows, (1, n), "row")):
        for sym, m in given.items():
            if m.shape != shape or m.nvars != nvars:
                raise ValueError(
                    f"{_format_sym(sym)} must be a {shape[0]}x{shape[1]} {kind} over "
                    f"{nvars} variables, got {m.nrows}x{m.ncols} over {m.nvars}"
                )
    for i, psi in psis.items():
        if _dot_y(psi.rows[0]):
            raise ValueError(f"inconsistent assignment: Psi{i} * Y != 0")
        phi = phis.get(i)
        if phi is not None and not (psi * phi)[0, 0].is_zero():
            raise ValueError(f"inconsistent assignment: Psi{i} * Phi{i} != 0")
    cols[Y_COL] = ycol

    def lookup(given: dict, sym) -> PolyMatrix:
        if sym not in given:
            raise ValueError(f"assignment missing {_format_sym(sym)}")
        return given[sym]

    lam_values: Dict[Pair, Polynomial] = {}

    def lam_value(pair: Pair) -> Polynomial:
        val = lam_values.get(pair)
        if val is None:
            psi = lookup(rows, psi_sym(pair[0]))
            phi = lookup(cols, phi_sym(pair[1]))
            val = lam_values[pair] = (psi * phi)[0, 0]
        return val

    mul = _mono_ops(nvars)[0]
    scalar: dict = {}
    # the column of a key (none for a RowExpr) -> the term maps of the n
    # entries of its row combination
    combos: dict = {}
    for key, c in expr.terms.items():
        value = Polynomial.constant(nvars, c)
        for pair in key[0]:
            value = value * lam_value(pair)
        if key[-1] == E_SYM:
            _add_into(scalar, value.terms.items())
            continue
        combo = combos.get(key[1:-1])
        if combo is None:
            combo = combos[key[1:-1]] = [{} for _ in range(n)]
        row = lookup(rows, key[-1]).rows[0]
        for acc, entry in zip(combo, row):
            _mul_into(acc, value.terms, entry.terms, mul)
    combined = {
        col: [Polynomial._raw(nvars, t) for t in combo] for col, combo in combos.items()
    }

    if isinstance(expr, RowExpr):
        return PolyMatrix(nvars, [combined.get((), [0] * n)])
    total = PolyMatrix.identity(nvars, n) * Polynomial._raw(nvars, scalar)
    if not combined:
        return total
    used = [lookup(cols, col) for (col,) in combined]
    c = PolyMatrix(nvars, [[col[i, 0] for col in used] for i in range(n)])
    return total + c * PolyMatrix(nvars, combined.values())
