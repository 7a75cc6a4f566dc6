"""Symbolic calculus of rank-one updates E + Phi_i Psi_i.

Column symbols Phi_1..Phi_k (plus the special column Y) and row symbols
Psi_1..Psi_k (plus the special row dz) multiply through the contraction
Psi_i Phi_j -> lambda_ij, where the lambda_ij are independent commuting
indeterminates subject only to lambda_ii = 0, and Psi_i Y -> 0. No other
relation is assumed: proving an expression nonzero in this free calculus is
exactly the statement that no sequence of these row manipulations can cancel
it. The special row dz contracts with nothing; hitting dz * (column) raises,
since the calculus never needs it.

instantiate() grounds an expression with concrete polynomial columns/rows
and is the bridge used to cross-check the calculus against honest matrix
products.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .polyring import (
    PolyMatrix,
    Polynomial,
    Scalar,
    SparseTerms,
    _add_into,
    as_coeff,
    format_term,
    format_terms,
    y_column,
)

# a lambda monomial is a sorted tuple of (i, j) index pairs
Pair = Tuple[int, int]


def _format_pair(p: Pair) -> str:
    i, j = p
    if i < 10 and j < 10:
        return f"λ{i}{j}"
    return f"λ({i},{j})"


def _format_mono(mono: Tuple[Pair, ...], symbol: str = "") -> str:
    """A lambda monomial times an optional symbol, e.g. "λ12*λ23*Φ1Ψ3"."""
    parts = [_format_pair(p) for p in mono]
    if symbol:
        parts.append(symbol)
    return "*".join(parts)


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

    @staticmethod
    def _key_mul(m1: Tuple[Pair, ...], m2: Tuple[Pair, ...]) -> Tuple[Pair, ...]:
        return tuple(sorted(m1 + m2))

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


def phi_sym(i: int) -> ColSym:
    return ("phi", i)


def psi_sym(i: int) -> RowSym:
    return ("psi", i)


def _format_col(c: ColSym) -> str:
    return "Y" if c == Y_COL else f"Φ{c[1]}"


def _format_row(r: RowSym) -> str:
    return "∂z" if r == DZ_ROW else f"Ψ{r[1]}"


def _contract(row: RowSym, col: ColSym) -> ScalarPoly:
    """Psi_i Phi_j -> lambda_ij, Psi_i Y -> 0; dz contracts with nothing."""
    if row == DZ_ROW:
        raise ValueError(f"contraction ∂z*{_format_col(col)} is not defined")
    i = row[1]
    if col == Y_COL:
        return ScalarPoly.zero()
    return lam(i, col[1])


class DyadExpr:
    """Formal sum scalar * E + sum of coeff * (column x row) dyads."""

    __slots__ = ("scalar", "dyads")

    def __init__(
        self,
        scalar: ScalarPoly = ScalarPoly.zero(),
        dyads: Mapping[Tuple[ColSym, RowSym], ScalarPoly] = (),
    ):
        clean: dict = {}
        for key, coeff in dyads.items() if isinstance(dyads, Mapping) else dyads:
            _accum(clean, key, coeff)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "dyads", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DyadExpr is immutable")

    @classmethod
    def identity(cls) -> "DyadExpr":
        return cls(ScalarPoly.one())

    @classmethod
    def dyad(cls, col: ColSym, row: RowSym, coeff: ScalarPoly = None) -> "DyadExpr":
        return cls(ScalarPoly.zero(), {(col, row): coeff or ScalarPoly.one()})

    def __add__(self, other: "DyadExpr") -> "DyadExpr":
        dy = dict(self.dyads)
        for key, coeff in other.dyads.items():
            _accum(dy, key, coeff)
        return _raw_dyad(self.scalar + other.scalar, dy)

    def __sub__(self, other: "DyadExpr") -> "DyadExpr":
        dy = dict(self.dyads)
        for key, coeff in other.dyads.items():
            _accum(dy, key, -coeff)
        return _raw_dyad(self.scalar - other.scalar, dy)

    def __eq__(self, other):
        if not isinstance(other, DyadExpr):
            return NotImplemented
        return self.scalar == other.scalar and self.dyads == other.dyads

    def __hash__(self):
        return hash((self.scalar, frozenset(self.dyads.items())))

    def term_list(self):
        """Flat list of (lambda_monomial, coefficient, col, row) terms, in
        canonical order (by monomial degree, then monomial, then dyad)."""
        out = []
        for (col, row), coeff in self.dyads.items():
            for mono, c in coeff.terms.items():
                out.append((mono, c, col, row))
        out.sort(key=lambda t: (len(t[0]), t[0], t[2], t[3]))
        return out

    def _term_pairs(self):
        """(coefficient, text) of each term of term_list(), without sign."""
        return [
            (c, _format_mono(mono, f"{_format_col(col)}{_format_row(row)}"))
            for mono, c, col, row in self.term_list()
        ]

    def _text(self, pairs) -> str:
        """The text form, given this expression's _term_pairs()."""
        if self.scalar.is_zero():
            return format_terms(pairs)
        s = str(self.scalar)
        return format_terms([(1, "E" if s == "1" else f"({s})*E")] + pairs)

    def __str__(self):
        return self._text(self._term_pairs())

    def __repr__(self):
        return f"DyadExpr({self})"


def _raw_dyad(scalar: ScalarPoly, dyads: dict) -> DyadExpr:
    """Build a DyadExpr from a map of nonzero coefficients (internal)."""
    x = object.__new__(DyadExpr)
    object.__setattr__(x, "scalar", scalar)
    object.__setattr__(x, "dyads", dyads)
    return x


def _accum(acc: dict, key, value: ScalarPoly):
    """acc[key] += value on a map of nonzero ScalarPoly coefficients,
    dropping the key when the sum is zero."""
    cur = acc.get(key)
    if cur is not None:
        value = cur + value
    if value.terms:
        acc[key] = value
    else:
        acc.pop(key, None)


def dyad_mul(a: DyadExpr, b: DyadExpr) -> DyadExpr:
    """Bilinear product with the contraction rule
    (u x r)(u' x r') = (r.u') * (u x r')."""
    dy: dict = {}
    for key, coeff in a.dyads.items():
        _accum(dy, key, coeff * b.scalar)
    for key, coeff in b.dyads.items():
        _accum(dy, key, coeff * a.scalar)
    for (u, r), c1 in a.dyads.items():
        for (u2, r2), c2 in b.dyads.items():
            _accum(dy, (u, r2), c1 * c2 * _contract(r, u2))
    return _raw_dyad(a.scalar * b.scalar, dy)


def expand_product(k: int) -> DyadExpr:
    """(E + Phi_1 Psi_1) ... (E + Phi_k Psi_k), fully expanded:
    E plus, for every increasing index sequence i1 < ... < im, the dyad
    Phi_{i1} Psi_{im} with coefficient lambda_{i1 i2} ... lambda_{i_{m-1} i_m}.
    """
    if k < 1:
        raise ValueError("need at least one factor")
    terms: dict = {}
    for m in range(1, k + 1):
        for seq in itertools.combinations(range(1, k + 1), m):
            key = (phi_sym(seq[0]), psi_sym(seq[-1]))
            # the pairs of an increasing sequence are sorted, never (i, i),
            # and differ between sequences, so no two monomials cancel
            terms.setdefault(key, {})[tuple(zip(seq, seq[1:]))] = 1
    return _raw_dyad(
        ScalarPoly.one(), {key: ScalarPoly._raw(None, t) for key, t in terms.items()}
    )


def factors(k: int) -> List[DyadExpr]:
    """The individual factors E + Phi_i Psi_i, i = 1..k."""
    return [
        DyadExpr.identity() + DyadExpr.dyad(phi_sym(i), psi_sym(i))
        for i in range(1, k + 1)
    ]


def minus_y_dz() -> DyadExpr:
    """The right-hand side -Y dz."""
    return DyadExpr(ScalarPoly.zero(), {(Y_COL, DZ_ROW): ScalarPoly.constant(-1)})


class RowExpr:
    """Formal combination of row symbols with ScalarPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[RowSym, ScalarPoly] = ()):
        clean: dict = {}
        for sym, coeff in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            _accum(clean, sym, coeff)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RowExpr is immutable")

    def coefficient(self, sym: RowSym) -> ScalarPoly:
        return self.coeffs.get(sym, ScalarPoly.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RowExpr") -> "RowExpr":
        out = dict(self.coeffs)
        for sym, coeff in other.coeffs.items():
            _accum(out, sym, coeff)
        return _raw_row(out)

    def __sub__(self, other: "RowExpr") -> "RowExpr":
        out = dict(self.coeffs)
        for sym, coeff in other.coeffs.items():
            _accum(out, sym, -coeff)
        return _raw_row(out)

    def scaled(self, s: ScalarPoly) -> "RowExpr":
        if s.is_zero():
            return _raw_row({})
        # the lambda polynomials have no zero divisors
        return _raw_row({sym: s * coeff for sym, coeff in self.coeffs.items()})

    def substituted(self, pair: Pair, value: Scalar) -> "RowExpr":
        out: dict = {}
        for sym, coeff in self.coeffs.items():
            _accum(out, sym, coeff.substituted(pair, value))
        return _raw_row(out)

    def __eq__(self, other):
        if not isinstance(other, RowExpr):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def term_list(self):
        """Flat list of (lambda_monomial, coefficient, row) terms in
        canonical order."""
        out = []
        for sym, coeff in self.coeffs.items():
            for mono, c in coeff.terms.items():
                out.append((mono, c, sym))
        out.sort(key=lambda t: (len(t[0]), t[0], t[2]))
        return out

    def _term_pairs(self):
        """(coefficient, text) of each term of term_list(), without sign."""
        return [
            (c, _format_mono(mono, _format_row(sym)))
            for mono, c, sym in self.term_list()
        ]

    def _text(self, pairs) -> str:
        """The text form, given this expression's _term_pairs()."""
        return format_terms(pairs)

    def __str__(self):
        return self._text(self._term_pairs())

    def __repr__(self):
        return f"RowExpr({self})"


def _raw_row(coeffs: dict) -> RowExpr:
    """Build a RowExpr from a map of nonzero coefficients (internal)."""
    x = object.__new__(RowExpr)
    object.__setattr__(x, "coeffs", coeffs)
    return x


def row_mul(i: int, x: DyadExpr) -> RowExpr:
    """Left-multiply a dyad expression by the row symbol Psi_i."""
    sym = psi_sym(i)
    out: dict = {}
    if not x.scalar.is_zero():
        out[sym] = x.scalar
    for (col, row), coeff in x.dyads.items():
        _accum(out, row, _contract(sym, col) * coeff)
    return _raw_row(out)


def derive_reduced_relation(k: int = 3) -> RowExpr:
    """Row relation obtained from the expanded product by eliminating with
    Psi_2 and Psi_1: Psi_2 * (P - E) - lambda_21 * (Psi_1 * (P - E))."""
    if k < 2:
        raise ValueError("need at least two factors")
    lhs = expand_product(k) - DyadExpr.identity()
    return row_mul(2, lhs) - row_mul(1, lhs).scaled(lam(2, 1))


@dataclass(frozen=True)
class TraceStep:
    label: str
    text: str
    terms: Tuple[str, ...] = ()


def _step(label: str, template: str, x) -> TraceStep:
    """The trace step showing a DyadExpr or RowExpr x in `template`, with
    each term's text built once for both the equation and the term list."""
    pairs = x._term_pairs()
    terms = tuple(format_term(c, body, True) for c, body in pairs)
    return TraceStep(label, template.format(x._text(pairs)), terms)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of the reduction replay: the derivation steps, the reduced
    relation, and the surviving Psi_1 coefficient."""

    k: int
    steps: Tuple[TraceStep, ...]
    reduced: RowExpr
    psi1_coefficient: ScalarPoly
    residual_survives: bool

    def to_text(self) -> str:
        lines = []
        for step in self.steps:
            lines.append(f"[{step.label}] {step.text}")
        return "\n".join(lines)

    def to_doc(self) -> dict:
        return {
            "factors": self.k,
            "steps": [
                {"label": s.label, "equation": s.text, "terms": list(s.terms)}
                for s in self.steps
            ],
            "reduced_relation": str(self.reduced),
            "psi1_coefficient": str(self.psi1_coefficient),
            "residual_survives": self.residual_survives,
        }


def residual_check(k: int = 3) -> ResidualReport:
    """Replay the row-elimination and verify that the reduced relation keeps
    the extra summand lambda_21 * Psi_1 (so no triangular cancellation of the
    Psi terms is possible in this calculus)."""
    if k < 2:
        raise ValueError("need at least two factors")
    product = expand_product(k)
    lhs = product - DyadExpr.identity()
    eq1 = row_mul(1, lhs)
    eq2 = row_mul(2, lhs)
    reduced = eq2 - eq1.scaled(lam(2, 1))

    prod_str = "".join(f"(E + Φ{i}Ψ{i})" for i in range(1, k + 1))
    steps = [
        TraceStep(
            "P",
            f"{prod_str} = E - Y∂z",
            tuple(f"E + Φ{i}Ψ{i}" for i in range(1, k + 1)),
        ),
        _step("X", "{} = -Y∂z", lhs),
        _step("R1", "Ψ1 * X:  {} = 0", eq1),
        _step("R2", "Ψ2 * X:  {} = 0", eq2),
        _step("R", "R2 - λ21*R1:  {} = 0", reduced),
    ]
    psi1 = reduced.coefficient(psi_sym(1))
    survives = psi1 == lam(2, 1)
    if not survives:
        raise AssertionError(
            f"expected the reduced relation to keep λ21*Ψ1, got {psi1}"
        )
    steps.append(
        TraceStep(
            "verdict",
            "coefficient of Ψ1 in R is the nonzero indeterminate λ21; "
            "the reduced relation is not triangular in Ψ2, Ψ3, ...",
        )
    )
    return ResidualReport(k, tuple(steps), reduced, psi1, survives)


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------


def instantiate(
    expr,
    phis: Mapping[int, PolyMatrix],
    psis: Mapping[int, PolyMatrix],
    dz_row: Optional[PolyMatrix] = None,
):
    """Ground a DyadExpr (to an n x n PolyMatrix) or RowExpr (to a 1 x n row)
    with concrete columns Phi_i, rows Psi_i and optionally the row dz.

    Consistency is enforced before evaluation: every provided pair must
    satisfy Psi_i Phi_i = 0 and every Psi_i Y = 0; lambda_ij is then the
    1 x 1 product Psi_i Phi_j.
    """
    some = next(iter(psis.values()), None) or next(iter(phis.values()), None) or dz_row
    if some is None:
        raise ValueError("assignment is empty")
    nvars = some.nvars
    n = max(some.shape)
    ycol = y_column(nvars)

    for i, psi in psis.items():
        if psi.shape != (1, n):
            raise ValueError(f"Psi{i} must be a 1x{n} row")
        if not (psi * ycol)[0, 0].is_zero():
            raise ValueError(f"inconsistent assignment: Psi{i} * Y != 0")
        phi = phis.get(i)
        if phi is not None and not (psi * phi)[0, 0].is_zero():
            raise ValueError(f"inconsistent assignment: Psi{i} * Phi{i} != 0")
    for i, phi in phis.items():
        if phi.shape != (n, 1):
            raise ValueError(f"Phi{i} must be a {n}x1 column")

    lam_values: Dict[Pair, Polynomial] = {}

    def lam_value(pair: Pair) -> Polynomial:
        val = lam_values.get(pair)
        if val is None:
            i, j = pair
            if i not in psis or j not in phis:
                raise ValueError(f"assignment missing Psi{i} or Phi{j}")
            val = (psis[i] * phis[j])[0, 0]
            lam_values[pair] = val
        return val

    def ground_scalar(s: ScalarPoly) -> Polynomial:
        total = Polynomial.zero(nvars)
        for mono, coeff in s.terms.items():
            prod = Polynomial.constant(nvars, coeff)
            for pair in mono:
                prod = prod * lam_value(pair)
            total = total + prod
        return total

    def col_of(sym: ColSym) -> PolyMatrix:
        if sym == Y_COL:
            return ycol
        if sym[1] not in phis:
            raise ValueError(f"assignment missing Phi{sym[1]}")
        return phis[sym[1]]

    def row_of(sym: RowSym) -> PolyMatrix:
        if sym == DZ_ROW:
            if dz_row is None:
                raise ValueError("assignment missing the dz row")
            return dz_row
        if sym[1] not in psis:
            raise ValueError(f"assignment missing Psi{sym[1]}")
        return psis[sym[1]]

    if isinstance(expr, DyadExpr):
        total = PolyMatrix.identity(nvars, n) * ground_scalar(expr.scalar)
        for (col, row), coeff in expr.dyads.items():
            total = total + (col_of(col) * row_of(row)) * ground_scalar(coeff)
        return total
    if isinstance(expr, RowExpr):
        total = PolyMatrix.zero(nvars, 1, n)
        for sym, coeff in expr.coeffs.items():
            total = total + row_of(sym) * ground_scalar(coeff)
        return total
    raise TypeError("expected a DyadExpr or RowExpr")
