"""Rank-one update calculus: contraction, expansion, row relations,
residual verdict, grounding."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.dyadic as dy
import metalie.endos as en
from metalie.polyring import (
    PolyMatrix,
    Polynomial,
    SparseTerms,
    col_vector,
    parse_polynomial,
    row_vector,
    y_column,
)


def lam(i, j):
    return dy.lam(i, j)


def psi(i):
    return dy.psi_sym(i)


def phi(i):
    return dy.phi_sym(i)


class TestScalarPoly:
    def test_diagonal_lambda_vanishes(self):
        assert lam(1, 1).is_zero()

    def test_commutative(self):
        assert lam(1, 2) * lam(2, 3) == lam(2, 3) * lam(1, 2)

    def test_substitution(self):
        p = lam(2, 1) + lam(2, 3) * lam(2, 1)
        assert p.substituted((2, 1), 0).is_zero()
        assert p.substituted((2, 1), 1) == dy.ScalarPoly.one() + lam(2, 3)


class TestDyadMul:
    def test_two_factor_product(self):
        a = dy.DyadExpr.identity() + dy.DyadExpr.dyad(phi(1), psi(1))
        b = dy.DyadExpr.identity() + dy.DyadExpr.dyad(phi(2), psi(2))
        product = dy.dyad_mul(a, b)
        expected = (
            dy.DyadExpr.identity()
            + dy.DyadExpr.dyad(phi(1), psi(1))
            + dy.DyadExpr.dyad(phi(2), psi(2))
            + dy.DyadExpr.dyad(phi(1), psi(2), lam(1, 2))
        )
        assert product == expected

    def test_identity_is_neutral(self):
        x = dy.expand_product(3)
        assert dy.dyad_mul(x, dy.DyadExpr.identity()) == x
        assert dy.dyad_mul(dy.DyadExpr.identity(), x) == x

    def test_self_contraction_vanishes(self):
        d = dy.DyadExpr.dyad(phi(1), psi(1))
        assert dy.dyad_mul(d, d) == dy.DyadExpr()

    def test_dz_contraction_rejected(self):
        # dz * Phi never appears in the calculus
        with pytest.raises(ValueError):
            dy.dyad_mul(
                dy.DyadExpr.dyad(dy.Y_COL, dy.DZ_ROW),
                dy.DyadExpr.dyad(phi(1), psi(1)),
            )

    def test_psi_y_contracts_to_zero(self):
        out = dy.dyad_mul(
            dy.DyadExpr.dyad(phi(1), psi(1)), dy.DyadExpr.dyad(dy.Y_COL, dy.DZ_ROW)
        )
        assert out == dy.DyadExpr()


class TestExpandProduct:
    def test_single_factor(self):
        assert dy.expand_product(1) == dy.DyadExpr.identity() + dy.DyadExpr.dyad(
            phi(1), psi(1)
        )

    def test_three_factors_term_for_term(self):
        terms = dy.expand_product(3).term_list()
        expected = [
            ((), 1, phi(1), psi(1)),
            ((), 1, phi(2), psi(2)),
            ((), 1, phi(3), psi(3)),
            (((1, 2),), 1, phi(1), psi(2)),
            (((1, 3),), 1, phi(1), psi(3)),
            (((2, 3),), 1, phi(2), psi(3)),
            (((1, 2), (2, 3)), 1, phi(1), psi(3)),
        ]
        assert terms == expected

    def test_matches_folded_products(self):
        for k in range(1, 7):
            folded = functools.reduce(dy.dyad_mul, dy.factors(k))
            assert folded == dy.expand_product(k)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            dy.expand_product(0)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_matches_combinations(self, k):
        # the dyad of each increasing sequence, built from the sequence alone
        terms = {((), dy.E_SYM, dy.E_SYM): 1}
        for m in range(1, k + 1):
            for seq in itertools.combinations(range(1, k + 1), m):
                terms[tuple(zip(seq, seq[1:])), phi(seq[0]), psi(seq[-1])] = 1
        assert dy.expand_product(k).terms == terms
        assert dy.expand_product(k) == dy.DyadExpr._raw(None, terms)


def key_mul_by_sorting(k1, k2):
    """The key product of `dyadic._key_mul` with every monomial sorted
    whole."""
    col, row = k2[1], k1[-1]
    if col == dy.E_SYM:
        return (tuple(sorted(k1[0] + k2[0])), *k1[1:])
    if row == dy.E_SYM:
        return (tuple(sorted(k1[0] + k2[0])), *k2[1:])
    if row == dy.DZ_ROW:
        raise ValueError("∂z contracts with nothing")
    if col == dy.Y_COL or col[1] == row[1]:
        return None
    mono = tuple(sorted(k1[0] + k2[0] + ((row[1], col[1]),)))
    return (mono, k2[2]) if len(k1) == 2 else (mono, k1[1], k2[2])


# sorted monomials of 0-4 pairs, repeats allowed
_monos = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4
).map(lambda ps: tuple(sorted(ps)))
_key_cols = st.sampled_from([dy.E_SYM, dy.Y_COL, phi(1), phi(2), phi(3)])
_key_rows = st.sampled_from([dy.E_SYM, dy.DZ_ROW, psi(1), psi(2), psi(3)])
_dyad_keys = st.tuples(_monos, _key_cols, _key_rows)
_row_keys = st.tuples(_monos, _key_rows)


class TestKeyProducts:
    """The merged key products against sorting the whole monomial."""

    @settings(max_examples=400)
    @given(st.one_of(_dyad_keys, _row_keys), _dyad_keys)
    def test_key_mul(self, k1, k2):
        try:
            want = key_mul_by_sorting(k1, k2)
        except ValueError:
            with pytest.raises(ValueError, match="∂z"):
                dy._key_mul(k1, k2)
            return
        assert dy._key_mul(k1, k2) == want

    @settings(max_examples=300)
    @given(_monos, _monos)
    def test_scalar_key_mul(self, m1, m2):
        assert dy.ScalarPoly._key_mul(m1, m2) == tuple(sorted(m1 + m2))

    def test_each_case(self):
        a, b = ((1, 2),), ((1, 3), (2, 1))
        row = dy._key_mul(((), psi(2)), (a, phi(1), psi(3)))
        assert row == (((1, 2), (2, 1)), psi(3))
        assert dy._key_mul((b, phi(1), psi(2)), (a, phi(3), psi(1))) == (
            ((1, 2), (1, 3), (2, 1), (2, 3)),
            phi(1),
            psi(1),
        )
        assert dy._key_mul(((), psi(2)), ((), phi(2), psi(1))) is None
        assert dy._key_mul(((), psi(2)), ((), dy.Y_COL, dy.DZ_ROW)) is None
        with pytest.raises(ValueError):
            dy._key_mul(((), dy.DZ_ROW), ((), phi(1), psi(1)))


class TestRowMul:
    def lhs(self, k=3):
        return dy.expand_product(k) - dy.DyadExpr.identity()

    def test_psi1_elimination(self):
        row = dy.row_mul(1, self.lhs())
        expected = dy.RowExpr(
            {psi(2): lam(1, 2), psi(3): lam(1, 3) + lam(1, 2) * lam(2, 3)}
        )
        assert row == expected

    def test_psi2_elimination(self):
        row = dy.row_mul(2, self.lhs())
        expected = dy.RowExpr(
            {
                psi(1): lam(2, 1),
                psi(2): lam(2, 1) * lam(1, 2),
                psi(3): lam(2, 3)
                + lam(2, 1) * lam(1, 3)
                + lam(2, 1) * lam(1, 2) * lam(2, 3),
            }
        )
        assert row == expected

    def test_identity_row(self):
        assert dy.row_mul(1, dy.DyadExpr.identity()) == dy.RowExpr(
            {psi(1): dy.ScalarPoly.one()}
        )

    def test_rhs_side_vanishes(self):
        for i in (1, 2, 3):
            assert dy.row_mul(i, dy.minus_y_dz()).is_zero()


class TestReducedRelation:
    def test_value(self):
        reduced = dy.derive_reduced_relation()
        assert reduced == dy.RowExpr({psi(1): lam(2, 1), psi(3): lam(2, 3)})

    def test_no_psi2_term(self):
        assert dy.derive_reduced_relation().coefficient(psi(2)).is_zero()

    def test_substituting_away_the_residual(self):
        reduced = dy.derive_reduced_relation()
        assert reduced.coefficient(psi(1)).substituted((2, 1), 0).is_zero()
        assert reduced.coefficient(psi(3)).substituted((2, 1), 0) == lam(2, 3)

    def test_two_factors_degenerate(self):
        assert dy.derive_reduced_relation(2) == dy.RowExpr({psi(1): lam(2, 1)})


class TestResidualCheck:
    def test_coefficients(self):
        report = dy.residual_check()
        assert report.psi1_coefficient == lam(2, 1)
        assert not report.psi1_coefficient.is_zero()
        assert report.reduced.coefficient(psi(3)) == lam(2, 3)
        assert report.residual_survives

    def test_trace_contains_first_elimination(self):
        report = dy.residual_check()
        text = report.to_text()
        assert "λ12*Ψ2 + λ13*Ψ3 + λ12*λ23*Ψ3" in text
        doc = report.to_doc()
        assert doc["factors"] == 3
        assert doc["psi1_coefficient"] == "λ21"

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            dy.residual_check(1)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_reduced_relation_text(self, k):
        report = dy.residual_check(k)
        assert report.to_doc()["reduced_relation"] == str(report.reduced)
        assert report.reduced == dy.derive_reduced_relation(k)


class TestPrintedForms:
    """The text forms and term order the traces and the CLI print."""

    def test_scalar_parts_of_e(self):
        S = dy.ScalarPoly
        assert str(dy.DyadExpr.identity()) == "E"
        assert str(dy.DyadExpr()) == "0"
        minus = dy.DyadExpr(S.constant(-1), {(phi(1), psi(2)): lam(1, 2) * 2})
        assert str(minus) == "(-1)*E + 2*λ12*Φ1Ψ2"
        shifted = dy.DyadExpr(lam(1, 2) + S.constant(2))
        assert str(shifted) == "(2 + λ12)*E"
        assert repr(shifted) == "DyadExpr((2 + λ12)*E)"

    def test_y_column_and_mixed_term_order(self):
        x = dy.DyadExpr(
            lam(1, 2) + dy.ScalarPoly.constant(2),
            {
                (phi(2), psi(1)): lam(2, 3) - lam(1, 3) * lam(3, 1) * Fraction(1, 2),
                (dy.Y_COL, dy.DZ_ROW): dy.ScalarPoly.constant(-1),
                (phi(1), psi(3)): lam(2, 1),
            },
        )
        assert str(dy.minus_y_dz()) == "-Y∂z"
        assert str(x) == (
            "(2 + λ12)*E - Y∂z + λ21*Φ1Ψ3 + λ23*Φ2Ψ1 - 1/2*λ13*λ31*Φ2Ψ1"
        )
        assert x.term_list() == [
            ((), -1, dy.Y_COL, dy.DZ_ROW),
            (((2, 1),), 1, phi(1), psi(3)),
            (((2, 3),), 1, phi(2), psi(1)),
            (((1, 3), (3, 1)), Fraction(-1, 2), phi(2), psi(1)),
        ]

    def test_row_with_dz(self):
        r = dy.RowExpr(
            {
                psi(3): -lam(2, 3) * lam(1, 2),
                dy.DZ_ROW: dy.ScalarPoly.constant(3),
                psi(1): lam(2, 1),
            }
        )
        assert str(r) == "3*∂z + λ21*Ψ1 - λ12*λ23*Ψ3"
        assert repr(r) == "RowExpr(3*∂z + λ21*Ψ1 - λ12*λ23*Ψ3)"
        assert r.term_list() == [
            ((), 3, dy.DZ_ROW),
            (((2, 1),), 1, psi(1)),
            (((1, 2), (2, 3)), -1, psi(3)),
        ]
        assert str(dy.RowExpr()) == "0"


def lemma_pair(rng, rank, i):
    alpha = en._random_invertible_matrix(rng, rank)
    f = en.random_derived_expr(rng, rank, 2, list(range(2, rank + 1)))
    _, phi_col, psi_row = en.conjugate_elementary(alpha, f, rank)
    return phi_col, psi_row


class TestInstantiate:
    def test_identity(self):
        phi_col = col_vector(3, [1, 0, 0])
        psi_row = row_vector(3, [parse_polynomial(s, 3) for s in ("0", "-y3", "y2")])
        out = dy.instantiate(dy.DyadExpr.identity(), {1: phi_col}, {1: psi_row})
        assert out == PolyMatrix.identity(3, 3)

    def test_expansion_matches_concrete_product(self):
        rng = random.Random(30)
        for case in range(6):
            rank = 3 + case % 2
            k = 2 + case % 2
            phis, psis = {}, {}
            for i in range(1, k + 1):
                phis[i], psis[i] = lemma_pair(rng, rank, i)
            ident = PolyMatrix.identity(rank, rank)
            concrete = ident
            for i in range(1, k + 1):
                concrete = concrete * (ident + phis[i] * psis[i])
            assert dy.instantiate(dy.expand_product(k), phis, psis) == concrete

    def test_row_mul_commutes_with_grounding(self):
        # instantiate(Psi_i * X) must equal Psi_i * instantiate(X)
        rng = random.Random(32)
        for case in range(4):
            rank, k = 3 + case % 2, 3
            phis, psis = {}, {}
            for i in range(1, k + 1):
                phis[i], psis[i] = lemma_pair(rng, rank, i)
            x = dy.expand_product(k)
            for i in (1, 2):
                symbolic = dy.instantiate(dy.row_mul(i, x), phis, psis)
                concrete = psis[i] * dy.instantiate(x, phis, psis)
                assert symbolic == concrete

    def test_row_expr_instantiation_of_reduced_relation(self):
        # grounding the reduced relation must equal Psi2*(P-E) - lam21*Psi1*(P-E)
        rng = random.Random(31)
        rank, k = 3, 3
        phis, psis = {}, {}
        for i in range(1, k + 1):
            phis[i], psis[i] = lemma_pair(rng, rank, i)
        lhs = dy.expand_product(k) - dy.DyadExpr.identity()
        reduced = dy.derive_reduced_relation(k)
        lam21 = (psis[2] * phis[1])[0, 0]
        direct = dy.instantiate(dy.row_mul(2, lhs), phis, psis) - dy.instantiate(
            dy.row_mul(1, lhs), phis, psis
        ) * lam21
        assert dy.instantiate(reduced, phis, psis) == direct

    def test_inconsistent_assignment_rejected(self):
        phi_col = col_vector(3, [1, 0, 0])
        bad_psi = row_vector(3, [parse_polynomial(s, 3) for s in ("y1", "0", "0")])
        with pytest.raises(ValueError):
            dy.instantiate(dy.expand_product(1), {1: phi_col}, {1: bad_psi})

    def pairs(self, rank=3):
        rng = random.Random(33)
        phis, psis = {}, {}
        for i in (1, 2):
            phis[i], psis[i] = lemma_pair(rng, rank, i)
        return phis, psis

    def test_row_given_as_a_column_rejected(self):
        phis, psis = self.pairs()
        phis[1] = row_vector(3, [1, 0, 0])
        with pytest.raises(ValueError, match="Φ1 must be a 3x1 column"):
            dy.instantiate(dy.expand_product(2), phis, psis)

    def test_row_longer_than_the_variable_count_rejected(self):
        phis, psis = self.pairs()
        psis[1] = row_vector(3, [0, 0, 0, 1])
        with pytest.raises(ValueError, match="Ψ1 must be a 1x3 row"):
            dy.instantiate(dy.expand_product(2), phis, psis)


def assert_normalized(x):
    """x is what the validating constructor builds from the same pairs: the
    same map, no zero coefficient, and every lambda monomial sorted with no
    lambda_ii."""
    rebuilt = object.__new__(type(x))
    SparseTerms.__init__(rebuilt, x._dim, x.terms.items())
    assert rebuilt.terms == x.terms
    for key, c in x.terms.items():
        assert c != 0
        mono = key if isinstance(x, dy.ScalarPoly) else key[0]
        assert list(mono) == sorted(mono)
        assert all(i != j for i, j in mono)


_rats = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
_pairs = st.tuples(st.integers(1, 3), st.integers(1, 3))
scalar_polys = st.dictionaries(
    st.lists(_pairs, max_size=3).map(tuple), _rats, max_size=4
).map(dy.ScalarPoly)
_cols = st.sampled_from([dy.Y_COL, phi(1), phi(2), phi(3)])
_rows = st.sampled_from([psi(1), psi(2), psi(3)])
dyad_exprs = st.builds(
    dy.DyadExpr,
    scalar_polys,
    st.dictionaries(st.tuples(_cols, _rows), scalar_polys, max_size=4),
)
row_exprs = st.dictionaries(
    st.sampled_from([psi(1), psi(2), psi(3), dy.DZ_ROW]), scalar_polys, max_size=3
).map(dy.RowExpr)
# the rows `instantiate` grounds: no dz
grounded_row_exprs = st.dictionaries(_rows, scalar_polys, max_size=3).map(dy.RowExpr)


@functools.cache
def assignment(seed):
    """Lemma pairs Phi_i, Psi_i (i = 1, 2, 3) over 3 or 4 variables, and a
    dz row."""
    rng = random.Random(seed)
    rank = 3 + seed % 2
    phis, psis = {}, {}
    for i in (1, 2, 3):
        phis[i], psis[i] = lemma_pair(rng, rank, i)
    dz = row_vector(rank, [rng.randint(-2, 2) for _ in range(rank)])
    return rank, phis, psis, dz


def ground_term_by_term(x, rank, phis, psis, dz):
    """The oracle for `instantiate`: s*E plus, for each term,
    c * prod(Psi_i Phi_j) * (col * row), from plain matrix products."""
    ycol = y_column(rank)

    def scalar(mono, c):
        value = Polynomial.constant(rank, c)
        for i, j in mono:
            value = value * (psis[i] * phis[j])[0, 0]
        return value

    def row(r):
        return dz if r == dy.DZ_ROW else psis[r[1]]

    if isinstance(x, dy.RowExpr):
        total = PolyMatrix(rank, [[0] * rank])
        for mono, c, r in x.term_list():
            total = total + row(r) * scalar(mono, c)
        return total
    total = PolyMatrix(rank, [[0] * rank] * rank)
    for (mono, col, _), c in x.terms.items():
        if col == dy.E_SYM:
            total = total + PolyMatrix.identity(rank, rank) * scalar(mono, c)
    for mono, c, u, r in x.term_list():
        col = ycol if u == dy.Y_COL else phis[u[1]]
        total = total + (col * row(r)) * scalar(mono, c)
    return total


class TestGroundingOracle:
    @settings(max_examples=40)
    @given(dyad_exprs, grounded_row_exprs, st.integers(0, 3))
    def test_instantiate_matches_term_by_term_products(self, x, r, seed):
        rank, phis, psis, dz = assignment(seed)
        for e in (x, r):
            expected = ground_term_by_term(e, rank, phis, psis, dz)
            assert dy.instantiate(e, phis, psis) == expected

    @settings(max_examples=40)
    @given(dyad_exprs, dyad_exprs, row_exprs, scalar_polys, st.integers(0, 3))
    def test_products_ground_to_matrix_products(self, a, b, r, s, seed):
        # on an assignment with Psi_i Phi_i = 0 and Psi_i Y = 0, grounding
        # turns the contraction calculus into matrix products
        rank, phis, psis, dz = assignment(seed)

        def ground(e):
            return ground_term_by_term(e, rank, phis, psis, dz)

        assert ground(dy.dyad_mul(a, b)) == ground(a) * ground(b)
        for i in (1, 2, 3):
            assert ground(dy.row_mul(i, a)) == psis[i] * ground(a)
        scalar = ground(dy.DyadExpr(s))[0, 0]
        assert ground(r.scaled(s)) == ground(r) * scalar


class TestNormalizedResults:
    """Internal arithmetic builds its results without re-validating them;
    each must still be what the validating constructor would build."""

    @settings(max_examples=80)
    @given(scalar_polys, scalar_polys, _rats, _pairs)
    def test_scalar_poly_operations(self, s, u, c, pair):
        for x in (s + u, s - u, s - s, -s, s * u, s * c, c * s, s.substituted(pair, c)):
            assert_normalized(x)

    @pytest.mark.parametrize("i", range(1, 4))
    def test_lam(self, i):
        for j in range(1, 4):
            assert_normalized(lam(i, j))

    @settings(max_examples=60)
    @given(dyad_exprs, dyad_exprs)
    def test_dyad_expr_operations(self, a, b):
        for x in (a + b, a - b, a - a, dy.dyad_mul(a, b), dy.dyad_mul(b, a)):
            assert_normalized(x)
        for i in range(1, 4):
            assert_normalized(dy.row_mul(i, a))

    @settings(max_examples=60)
    @given(row_exprs, row_exprs, scalar_polys)
    def test_row_expr_operations(self, r, q, s):
        for x in (r + q, r - q, r - r, r.scaled(s)):
            assert_normalized(x)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_expand_product(self, k):
        assert_normalized(dy.expand_product(k))
        assert_normalized(dy.derive_reduced_relation(max(k, 2)))


# Psi1 * Y = 0 but Psi1 * Phi1 = y2
PHI1 = col_vector(2, [1, 0])
PSI1 = row_vector(2, [parse_polynomial("y2", 2), parse_polynomial("-y1", 2)])
# calls of instantiate no other test makes: each case is the value the call
# returns, or the (type, message) of the exception it raises
EDGE_CASES = {
    "not an expression": (
        lambda: dy.instantiate("Φ1Ψ1", {1: PHI1}, {1: PSI1}),
        (TypeError, "expected a DyadExpr or RowExpr"),
    ),
    "empty assignment": (
        lambda: dy.instantiate(dy.DyadExpr.identity(), {}, {}),
        (ValueError, "assignment is empty"),
    ),
    "Psi1 * Phi1 is not zero": (
        lambda: dy.instantiate(dy.DyadExpr.identity(), {1: PHI1}, {1: PSI1}),
        (ValueError, "inconsistent assignment: Psi1 * Phi1 != 0"),
    ),
    "a column missing": (
        lambda: dy.instantiate(dy.DyadExpr.dyad(phi(2), psi(1)), {}, {1: PSI1}),
        (ValueError, "assignment missing Φ2"),
    ),
    "the row ∂z, never grounded": (
        lambda: dy.instantiate(dy.minus_y_dz(), {}, {1: PSI1}),
        (ValueError, "assignment missing ∂z"),
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_instantiate_edge_cases(call, expected, outcome):
    assert outcome(call) == expected
