"""Exact substrate tests: polynomials, matrices, determinants, solving."""

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metalie import endos, polyring
from metalie.dyadic import DyadExpr, RowExpr, ScalarPoly, dyad_mul, phi_sym, psi_sym
from metalie.freeassoc import NCPoly, replay
from metalie.lieexpr import parse_expr
from metalie.metabelian import MElement, evaluate
from metalie.polyring import (
    MAX_MINORS,
    ParseError,
    PolyMatrix,
    Polynomial,
    LinearSolution,
    RowSpace,
    SparseTerms,
    _divided,
    _dot_y,
    _matmul,
    _minors,
    _mono_ops,
    _substitute,
    as_coeff,
    col_vector,
    parse_polynomial,
    rational_inverse,
    row_vector,
    solve_sparse,
    y_column,
)


def P(text, n):
    return parse_polynomial(text, n)


def substituted(p, images):
    """p with y_i sent to images[i-1], through `_substitute`."""
    return _substitute([p], p.nvars, images)[0]


def rand_poly(rng, n, degree=3, terms=4):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(mono) > degree:
            mono = tuple(0 for _ in mono)
        t[mono] = t.get(mono, 0) + rng.randint(-4, 4)
    return Polynomial(n, t)


def stored_coeffs(*objs):
    """Every coefficient stored in SparseTerms (Polynomials, NCPolys and the
    dyadic types), PolyMatrix entries, LinearSolutions and plain sequences of
    scalars."""
    for obj in objs:
        if isinstance(obj, PolyMatrix):
            yield from stored_coeffs(*(e for row in obj.rows for e in row))
        elif isinstance(obj, SparseTerms):
            yield from obj.terms.values()
        elif isinstance(obj, LinearSolution):
            yield from stored_coeffs(obj.particular)
        elif isinstance(obj, (list, tuple)):
            yield from stored_coeffs(*obj)
        else:
            yield obj


def assert_all_int(*objs):
    for c in stored_coeffs(*objs):
        assert type(c) is int, f"{c!r} is a {type(c).__name__}"


def assert_demoted(*objs):
    """The coefficient convention on results that may need a division: ints,
    and Fractions only where the value is not integral; never a float."""
    for c in stored_coeffs(*objs):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


int_coeffs = st.integers(-6, 6)
rat_coeffs = st.one_of(int_coeffs, st.fractions(-6, 6, max_denominator=5))
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
words3 = st.lists(st.integers(1, 3), max_size=3).map(tuple)


def polys2(coeffs):
    return st.dictionaries(monos2, coeffs, max_size=5).map(lambda t: Polynomial(2, t))


def unimodular(rng, n, nvars=None, degree=2):
    """Product of a lower and an upper unitriangular matrix with integer
    polynomial entries of degree <= `degree` in `nvars` (default n)
    variables: determinant 1, so the ring inverse is integral."""
    nvars = nvars or n

    def tri(upper):
        return PolyMatrix(
            nvars,
            [
                [
                    Polynomial.one(nvars)
                    if i == j
                    else (rand_poly(rng, nvars, degree, 2) if (i < j) == upper else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )

    return tri(False) * tri(True)


def perm_det(mat):
    """Independent determinant oracle: signed permutation expansion."""
    n = mat.nrows
    total = Polynomial.zero(mat.nvars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.constant(mat.nvars, sign)
        for i in range(n):
            term = term * mat[i, perm[i]]
        total = total + term
    return total


class TestPolynomialBasics:
    def test_add_inverse(self):
        y1 = Polynomial.variable(2, 1)
        assert (y1 + (-y1)).is_zero()

    def test_add_doubles(self):
        p = P("y1*y2", 2)
        assert p + p == P("2*y1*y2", 2)

    def test_add_mixed(self):
        assert P("y1 + y2", 2) + P("y2", 2) == P("y1 + 2*y2", 2)

    def test_mul_variables(self):
        assert P("y1", 2) * P("y2", 2) == P("y1*y2", 2)

    def test_mul_difference_of_squares(self):
        assert P("y1 + y2", 2) * P("y1 - y2", 2) == P("y1^2 - y2^2", 2)

    def test_mul_zero(self):
        p = P("3*y1^2 - y2", 2)
        assert (Polynomial.zero(2) * p).is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            P("y1", 2) + P("y1", 3)

    def test_constant_term(self):
        assert P("2*y1^2*y2 - y3", 3).constant_term() == 0
        assert P("5", 3).constant_term() == 5
        assert P("5", 3).is_constant()

    def test_constant_and_variable(self):
        assert Polynomial.constant(2, Fraction(4, 2)).terms == {(0, 0): 2}
        assert type(Polynomial.constant(2, Fraction(4, 2)).terms[(0, 0)]) is int
        assert Polynomial.constant(2, 0).is_zero()
        assert Polynomial.constant(0, 3) == Polynomial(0, {(): 3})
        assert Polynomial.variable(3, 2) == P("y2", 3)
        with pytest.raises(ValueError):
            Polynomial.constant(-1, 1)
        with pytest.raises(TypeError):
            Polynomial.constant(2, 0.5)
        with pytest.raises(ValueError):
            Polynomial.variable(3, 4)

    def test_linear_form(self):
        assert Polynomial._linear(3, (2, 0, Fraction(1, 3))) == P("2*y1 + 1/3*y3", 3)
        assert Polynomial._linear(2, (0, 0)).is_zero()

    def test_dot_y(self):
        # the row of [x1, x2] annihilates Y; a generator's row gives its y
        assert _dot_y([P("-y2", 2), P("y1", 2)]) == {}
        assert _dot_y([P("1", 2), P("0", 2)]) == P("y1", 2).terms
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            row = [rand_poly(rng, n) for _ in range(n)]
            expected = (row_vector(n, row) * y_column(n))[0, 0]
            assert _dot_y(row) == expected.terms

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            a, b, c = (rand_poly(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestSparseTerms:
    """The checks every SparseTerms type shares."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Polynomial(2, {(1,): 1}),
            lambda: Polynomial(2, {(-1, 0): 1}),
            lambda: Polynomial(-1),
            lambda: NCPoly(2, {(3,): 1}),
            lambda: NCPoly(2, {(0, 1): 1}),
        ],
    )
    def test_malformed_keys_raise_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "e", [1.5, 2.0, Fraction(1, 2), Fraction(2, 1), "1", True, False, None]
    )
    def test_non_int_exponents_raise_value_error(self, e):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(2, {(e, 0): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(2, [((0, e), 1)])

    @pytest.mark.parametrize("c", [0.5, 0.0, "1", None])
    def test_non_rational_coefficients_raise_type_error(self, c):
        with pytest.raises(TypeError):
            Polynomial(2, {(1, 0): c})
        with pytest.raises(TypeError):
            NCPoly(2, {(1,): c})
        with pytest.raises(TypeError):
            ScalarPoly({((1, 2),): c})

    def test_lambda_ii_terms_are_dropped(self):
        assert ScalarPoly({((1, 1),): 5, ((2, 1),): 1}) == ScalarPoly({((2, 1),): 1})

    def test_mixed_types_return_not_implemented(self):
        values = (
            Polynomial.one(2),
            NCPoly.one(2),
            ScalarPoly.one(),
            DyadExpr.identity(),
            RowExpr({psi_sym(1): ScalarPoly.one()}),
        )
        for a, b in itertools.permutations(values, 2):
            for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__eq__"):
                assert getattr(a, op)(b) is NotImplemented
            with pytest.raises(TypeError):
                a + b
        for a in values:
            assert a.__mul__(0.5) is NotImplemented
        # dyad sums and rows multiply only through dyad_mul and row_mul
        for a in values[3:]:
            with pytest.raises(TypeError):
                a * a

    def test_immutable_with_public_views(self):
        p, w, s = Polynomial.one(2), NCPoly.one(3), ScalarPoly.one()
        assert (p.nvars, w.rank) == (2, 3)
        assert type(p.terms) is dict and p.terms == {(0, 0): 1}
        for x in (p, w, s, DyadExpr.identity(), RowExpr({psi_sym(2): s})):
            with pytest.raises(AttributeError):
                x.terms = {}
            assert hash(x) == hash(x * 1)


def _element_read_once() -> MElement:
    # the linear part, kept outside the fields after the first read, is
    # copied along
    m = evaluate(parse_expr("1/2*x1 - [x1,x2] + 2/3*[[x1,x2],x2]", "x", 2), 2)
    m.linear_poly
    return m


# one value of each kernel type, rational where the type holds coefficients
COPYABLE = {
    "Polynomial": lambda: Polynomial(2, {(1, 0): Fraction(1, 2), (0, 2): -3}),
    "NCPoly": lambda: NCPoly(3, {(1, 2): 2, (): Fraction(-1, 3)}),
    "ScalarPoly": lambda: ScalarPoly({((1, 2), (2, 3)): Fraction(3, 4), (): 1}),
    "DyadExpr": lambda: DyadExpr.identity() + DyadExpr.dyad(phi_sym(1), psi_sym(2)),
    "RowExpr": lambda: RowExpr({psi_sym(1): ScalarPoly({((2, 1),): Fraction(1, 2)})}),
    "PolyMatrix": lambda: PolyMatrix(2, [[Polynomial(2, {(1, 0): Fraction(1, 2)}), 1]]),
    "MElement": _element_read_once,
    "Endo": lambda: endos.random_tame(3, 1, 2, 2),
    "TraceReplay": lambda: replay(4),
}


@pytest.mark.parametrize("make", COPYABLE.values(), ids=COPYABLE)
def test_values_copy_and_pickle(make):
    """pickle, copy.copy and copy.deepcopy rebuild an equal value with the
    same hash that is still immutable; dataclasses.astuple runs on the
    dataclass values, and an MElement rebuilds from its tuple."""
    x = make()
    copies = [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]
    if dataclasses.is_dataclass(x):
        fields = dataclasses.astuple(x)
        assert fields == dataclasses.astuple(copies[0])
        assert hash(fields) == hash(dataclasses.astuple(copies[2]))
    if type(x) is MElement:
        copies.append(MElement(*dataclasses.astuple(x)))
    for y in copies:
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        with pytest.raises(AttributeError):
            y.terms = {}


class TestSubstitute:
    def test_swap(self):
        images = [Polynomial.variable(2, 2), Polynomial.variable(2, 1)]
        assert substituted(P("y1", 2), images) == P("y2", 2)

    def test_identity(self):
        images = [Polynomial.variable(2, i) for i in (1, 2)]
        p = P("y1*y2", 2)
        assert substituted(p, images) == p

    def test_binomial_expansion(self):
        images = [P("y1 + y2", 2), Polynomial.variable(2, 2)]
        assert substituted(P("y1^2", 2), images) == P("y1^2 + 2*y1*y2 + y2^2", 2)

    def test_zero_and_a_rational_image(self):
        images = [P("y1 + y2", 2), P("1/2*y2", 2)]
        out = _substitute([Polynomial.zero(2), P("2*y2", 2)], 2, images)
        assert out == [Polynomial.zero(2), P("y2", 2)]

    def test_is_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            images = [rand_poly(rng, n, 2, 2) for _ in range(n)]
            p, q = rand_poly(rng, n), rand_poly(rng, n)
            sp, sq = substituted(p, images), substituted(q, images)
            assert substituted(p + q, images) == sp + sq
            assert substituted(p * q, images) == sp * sq


def polys(n, coeffs, top=3):
    monos = st.tuples(*[st.integers(0, top)] * n)
    return st.dictionaries(monos, coeffs, max_size=4).map(lambda t: Polynomial(n, t))


@st.composite
def images_for(draw, n):
    """One image per variable of y1..yn: the variable itself (fixed), a
    constant, or an integer or rational polynomial."""
    images = []
    for i in range(n):
        kind = draw(st.sampled_from(["fixed", "constant", "integer", "rational"]))
        if kind == "fixed":
            images.append(Polynomial.variable(n, i + 1))
        elif kind == "constant":
            images.append(Polynomial.constant(n, draw(rat_coeffs)))
        else:
            coeffs = int_coeffs if kind == "integer" else rat_coeffs
            images.append(draw(polys(n, coeffs, 2)))
    return images


points3 = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3)
# (polynomials in y1..yn, one image per variable), n = 1..3
substitutions = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.lists(polys(n, rat_coeffs), min_size=1, max_size=3), images_for(n))
)


class TestSubstituteOracle:
    """`_substitute` against evaluation at rational points: the image of p
    at v is p at the images at v."""

    @settings(max_examples=150)
    @given(substitutions, points3)
    def test_matches_evaluation(self, case, point):
        ps, images = case
        n = len(images)
        out = _substitute(ps, n, images)
        moved_at = [value(img, point) for img in images]
        for p, q in zip(ps, out):
            assert value(q, point) == value(p, moved_at)
            assert q.nvars == n
        assert_demoted(out)

    @settings(max_examples=100)
    @given(substitutions)
    def test_polynomial_in_fixed_variables_is_returned_as_it_is(self, case):
        ps, images = case
        n = len(images)
        fixed = [img == Polynomial.variable(n, i + 1) for i, img in enumerate(images)]
        for p, q in zip(ps, _substitute(ps, n, images)):
            if all(fixed[i] for m in p.terms for i in range(n) if m[i]):
                assert q is p

    def test_all_fixed_constant_and_rational(self):
        n = 3
        fixed = [Polynomial.variable(n, i) for i in (1, 2, 3)]
        ps = [P("2*y1^2*y3 - 1/3*y2", n), P("5", n), Polynomial.zero(n)]
        assert all(q is p for p, q in zip(ps, _substitute(ps, n, fixed)))
        # y2 moves to the constant 1/2: y1 and y3 stay in every key
        half = [fixed[0], Polynomial.constant(n, Fraction(1, 2)), fixed[2]]
        assert _substitute(ps, n, half) == [
            P("2*y1^2*y3 - 1/6", n), P("5", n), Polynomial.zero(n),
        ]


def naive_product(a_rows, b_rows):
    """Independent matrix-product oracle on dicts of exponent tuples, in
    Fractions, every (i, k, j) triple and term pair visited."""
    out = []
    for row in a_rows:
        line = []
        for j in range(len(b_rows[0])):
            acc = {}
            for k, x in enumerate(row):
                for m1, c1 in x.terms.items():
                    for m2, c2 in b_rows[k][j].terms.items():
                        m = tuple(u + v for u, v in zip(m1, m2))
                        acc[m] = acc.get(m, 0) + Fraction(c1) * c2
            line.append({m: c for m, c in acc.items() if c})
        out.append(line)
    return out


@st.composite
def entries2(draw):
    """A matrix entry in y1, y2: zero, an integer or rational constant, a
    polynomial with a denominator shared by all such entries, or any
    rational polynomial."""
    kind = draw(st.sampled_from(["zero", "constant", "shared", "rational"]))
    if kind == "zero":
        return Polynomial.zero(2)
    if kind == "constant":
        return Polynomial.constant(2, draw(rat_coeffs))
    if kind == "shared":
        return draw(polys2(int_coeffs)) * Fraction(1, 3)
    return draw(polys2(rat_coeffs))


def matrices2(nrows, ncols):
    return st.lists(
        st.lists(entries2(), min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


class TestMatmulOracle:
    @settings(max_examples=150)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(matrices2(s[0], s[1]), matrices2(s[1], s[2]))
    ))
    def test_matches_naive_product(self, ab):
        a, b = ab
        got = _matmul(a, b, 2)
        assert [[e.terms for e in row] for row in got] == naive_product(a, b)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert_demoted(got)
        assert PolyMatrix(2, a) * PolyMatrix(2, b) == PolyMatrix(2, got)

    def test_constant_entries_scale(self):
        a = [[Polynomial.constant(2, Fraction(2, 3)), Polynomial.zero(2)]]
        b = [[P("3*y1 + 1/2", 2)], [P("y2", 2)]]
        assert _matmul(a, b, 2) == ((P("2*y1 + 1/3", 2),),)
        assert _matmul(b, [[Polynomial.constant(2, -3)]], 2) == (
            (P("-9*y1 - 3/2", 2),), (P("-3*y2", 2),),
        )


class TestRawBuilders:
    """Results built by `PolyMatrix._raw` equal the validating constructor's."""

    @settings(max_examples=60)
    @given(matrices2(2, 2), matrices2(2, 2))
    def test_matrix_results(self, a, b):
        a, b = PolyMatrix(2, a), PolyMatrix(2, b)
        images = [P("y1 + 1/2*y2", 2), P("y2", 2)]
        inv = unimodular(random.Random(len(str(a))), 2).inverse_over_ring()
        for m in (a * b, a.substitute(images), inv):
            assert m == PolyMatrix(m.nvars, m.rows)
            assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)


class TestMatrix:
    def test_identity_is_neutral(self):
        rng = random.Random(4)
        a = PolyMatrix(2, [[rand_poly(rng, 2) for _ in range(3)] for _ in range(3)])
        e3 = PolyMatrix.identity(2, 3)
        # E here is 3x3 over 2 variables; mat_mul only needs inner dims
        assert e3 * a == a
        assert a * e3 == a

    def test_nilpotent_rank_one_square(self):
        # row (0, -y3, y2) annihilates e1, so (e1 * row)^2 = 0
        row = row_vector(3, [P("0", 3), P("-y3", 3), P("y2", 3)])
        e1 = col_vector(3, [1, 0, 0])
        m = e1 * row
        assert m * m == PolyMatrix(3, [[0] * 3] * 3)

    def test_one_by_one(self):
        p, q = P("y1 + 1", 1), P("y1 - 1", 1)
        assert PolyMatrix(1, [[p]]) * PolyMatrix(1, [[q]]) == PolyMatrix(1, [[p * q]])

    def test_dimension_mismatch(self):
        a = PolyMatrix.identity(2, 2)
        b = PolyMatrix.identity(2, 3)
        with pytest.raises(ValueError):
            a * b


class TestDeterminant:
    def test_identity(self):
        assert PolyMatrix.identity(3, 3).det() == Polynomial.one(3)

    def test_diagonal(self):
        d = PolyMatrix(2, [[P("y1", 2), P("0", 2)], [P("0", 2), P("y2", 2)]])
        assert d.det() == P("y1*y2", 2)

    def test_rank_one_update_with_orthogonal_pair(self):
        # Psi * Phi = 0 forces det(E + Phi*Psi) = 1; checked against the
        # independent permutation-expansion oracle.
        phi = col_vector(3, [0, 1, 0])
        psi = row_vector(3, [P("-y3", 3), P("0", 3), P("y1", 3)])
        assert (psi * phi)[0, 0].is_zero()
        m = PolyMatrix.identity(3, 3) + phi * psi
        assert m.det() == Polynomial.one(3)
        assert perm_det(m) == Polynomial.one(3)

    def test_multiplicative_randomized(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = PolyMatrix(2, [[rand_poly(rng, 2, 2, 2) for _ in range(n)] for _ in range(n)])
            b = PolyMatrix(2, [[rand_poly(rng, 2, 2, 2) for _ in range(n)] for _ in range(n)])
            assert (a * b).det() == a.det() * b.det()

    @settings(max_examples=80)
    @given(
        st.integers(1, 6),
        st.sampled_from(["polynomial", "constant", "unimodular"]),
        st.sampled_from([None, "zero row", "repeated row"]),
        st.integers(0, 2**32),
    )
    def test_det_and_ring_inverse_match_permutation_oracle(self, n, kind, defect, seed):
        rng = random.Random(seed)
        if kind == "polynomial":
            rows = [[rand_poly(rng, 2, 1, 2) for _ in range(n)] for _ in range(n)]
        elif kind == "constant":
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        else:
            # a nonzero constant determinant: scale**n
            scale = rng.choice([1, -1, 2, Fraction(-2, 3)])
            rows = [list(r) for r in (unimodular(rng, n, 2, 1) * scale).rows]
        if defect == "zero row":
            rows[rng.randrange(n)] = [0] * n
        elif defect == "repeated row" and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] = rows[j]
        m = PolyMatrix(2, rows)
        d = perm_det(m)
        assert m.det() == d
        inv = m.inverse_over_ring()
        if d.is_zero() or not d.is_constant():
            assert inv is None
        else:
            e = PolyMatrix.identity(2, n)
            assert m * inv == e
            assert inv * m == e

    def test_non_square(self):
        with pytest.raises(ValueError):
            PolyMatrix(2, [[0] * 3] * 2).det()

    def test_minor_limit(self):
        # the symmetric Pascal matrix has determinant 1 and no zero minor, so
        # rank n needs C(n, n // 2) minors of one size: 3,432 at rank 14 and
        # 6,435 at rank 15
        def pascal(n):
            return PolyMatrix(1, [[comb(i + j, i) for j in range(n)] for i in range(n)])

        assert pascal(14).det() == Polynomial.one(1)
        with pytest.raises(ValueError, match=f"limit of {MAX_MINORS} nonzero minors"):
            pascal(15).det()


class TestInverseOverRing:
    def test_identity(self):
        e = PolyMatrix.identity(3, 3)
        assert e.inverse_over_ring() == e

    def test_unipotent_jacobian_pair(self):
        # dz = Fox row of [x1, x2]; dz * Y = 0 gives (E - Y dz)(E + Y dz) = E
        dz = row_vector(3, [P("-y2", 3), P("y1", 3), P("0", 3)])
        ycol = y_column(3)
        e = PolyMatrix.identity(3, 3)
        m = e - ycol * dz
        assert (dz * ycol)[0, 0].is_zero()
        assert m.inverse_over_ring() == e + ycol * dz

    def test_nonconstant_det_not_invertible(self):
        d = PolyMatrix(2, [[P("y1", 2), P("0", 2)], [P("0", 2), P("1", 2)]])
        assert d.inverse_over_ring() is None

    def test_inverse_times_matrix_randomized(self):
        rng = random.Random(21)
        for _ in range(15):
            n = rng.randint(2, 4)
            rows = [
                [
                    Polynomial.constant(n, 1)
                    if i == j
                    else (rand_poly(rng, n, 1, 1) if i < j else Polynomial.zero(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            m = PolyMatrix(n, rows)
            inv = m.inverse_over_ring()
            assert inv is not None
            assert inv * m == PolyMatrix.identity(n, n)
            assert m * inv == PolyMatrix.identity(n, n)


class TestSolveLinear:
    def test_identity_system(self):
        sol = solve_sparse([{0: 1}, {1: 1}], [1, 0], 2)
        assert sol.particular == (Fraction(1), Fraction(0))
        assert sol.nullity == 0

    def test_inconsistent(self):
        assert solve_sparse([{}], [1], 2) is None

    def test_underdetermined(self):
        sol = solve_sparse([{0: 1, 1: 1}], [2], 2)
        assert sol.particular == (Fraction(2), Fraction(0))
        assert sol.nullity == 1

    def test_solution_and_null_space_randomized(self):
        rng = random.Random(8)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
            x = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
            b = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
            sol = solve_sparse(sparse_rows(a), b, nc)
            assert sol is not None  # consistent by construction
            for i in range(nr):
                assert sum(a[i][j] * sol.particular[j] for j in range(nc)) == b[i]
            assert sol.nullity == nc - len(gauss_jordan(a, nc))

    def test_rows_and_b_are_left_as_they_are(self):
        # rows with a zero right-hand side reach the RowSpace uncopied
        rows = [{0: 2, 1: Fraction(1, 2)}, {1: 3}, {0: 4, 2: -6}]
        b = [0, Fraction(5, 2), 0]
        saved = [dict(r) for r in rows], list(b)
        solve_sparse(rows, b, 3)
        space = RowSpace()
        for row in rows:
            space.add(row)
        assert ([dict(r) for r in rows], b) == saved


def gauss_jordan(rows, ncols):
    """The reduced row echelon form of dense rational rows by textbook
    Gauss-Jordan elimination on Fractions, as {pivot column: row}."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return {c: m[r] for r, c in enumerate(pivots)}


# sparse rational rows whose pivots are +-1, +-2 and 1/2
oracle_rows = st.dictionaries(
    st.integers(0, 5), st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]),
    max_size=4,
)


class TestRowSpace:
    def test_rank_and_membership(self):
        space = RowSpace()
        assert space.add({"a": Fraction(1), "b": Fraction(-1)})
        assert space.add({"b": Fraction(1), "c": Fraction(-1)})
        assert not space.add({"a": Fraction(2), "c": Fraction(-2)})
        assert space.rank == 2
        assert space.contains({"a": Fraction(1), "c": Fraction(-1)})
        assert not space.contains({"a": Fraction(1), "c": Fraction(1)})

    @settings(max_examples=100)
    @given(st.lists(
        st.dictionaries(st.integers(0, 4), st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])),
        max_size=5,
    ))
    def test_pivot_rows_are_normalized(self, rows):
        # stored pivot rows are primitive integer rows, positive at their
        # minimal key; reduced() divides each row by its own pivot
        space = RowSpace()
        for row in rows:
            space.add(row)
        for k, row in space._pivots.items():
            assert k == min(row) and row[k] > 0
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1
        echelon = space.reduced()
        assert list(echelon) == sorted(space._pivots)
        for k, row in echelon.items():
            assert row[k] == 1
            assert_demoted(list(row.values()))
        for row in rows:
            assert space.contains(row)

    @settings(max_examples=150)
    @given(st.lists(oracle_rows, max_size=6), oracle_rows)
    def test_against_dense_gauss_jordan(self, rows, probe):
        def dense(row):
            return [row.get(c, 0) for c in range(6)]

        space = RowSpace()
        for row in rows:
            space.add(row)
        oracle = gauss_jordan([dense(row) for row in rows], 6)
        echelon = space.reduced()
        assert list(echelon) == list(oracle)
        assert all(dense(echelon[k]) == oracle[k] for k in oracle)
        assert space.rank == len(oracle)
        in_span = len(gauss_jordan([*map(dense, rows), dense(probe)], 6)) == len(oracle)
        assert space.contains(probe) == in_span
        rem = _divided(*space._reduce(probe))
        if rem:
            assert min(rem) not in oracle
        moved = [a - b for a, b in zip(dense(probe), dense(rem))]
        assert len(gauss_jordan([*map(dense, rows), moved], 6)) == len(oracle)


class TestTextForm:
    def test_canonical_example(self):
        p = P("2*y1^2*y2 - y3", 3)
        assert str(p) == "2*y1^2*y2 - y3"

    def test_zero(self):
        assert str(Polynomial.zero(2)) == "0"
        assert parse_polynomial("0", 2).is_zero()

    def test_round_trip_randomized(self):
        rng = random.Random(33)
        for _ in range(80):
            n = rng.randint(1, 4)
            p = rand_poly(rng, n)
            assert parse_polynomial(str(p), n) == p

    def test_fractional_coefficients(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)})
        assert parse_polynomial(str(p), 2) == p

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_polynomial("y1 +", 2)
        with pytest.raises(ParseError):
            parse_polynomial("y9", 2)
        with pytest.raises(ParseError) as err:
            parse_polynomial("y1 & y2", 2)
        assert err.value.position == 3

    # (text, message, offset) over y1, y2: one row per raise site. An
    # out-of-range variable and a zero denominator point where the integer
    # ends; the other errors at the offending token, or at the end of text.
    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("y1 +", "expected 'y<index>'", 4),
            ("2*", "expected 'y<index>'", 2),
            ("z1", "expected 'y<index>'", 0),
            ("", "expected 'y<index>'", 0),
            ("y", "expected an integer", 1),
            ("y1^", "expected an integer", 3),
            ("y1^ *y2", "expected an integer", 4),
            ("1/ y1", "expected an integer", 3),
            ("1/0", "zero denominator", 3),
            ("3/ 00*y1", "zero denominator", 5),
            ("y3", "variable index 3 out of range 1..2", 2),
            ("y 12 ", "variable index 12 out of range 1..2", 4),
            ("y0", "variable index 0 out of range 1..2", 2),
            ("y1 & y2", "trailing input", 3),
            ("2 y1", "trailing input", 2),
        ],
    )
    def test_parse_error_table(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 2)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.position == offset

    @pytest.mark.parametrize(
        "text, offset", [("y1^²", 3), ("٣*y1", 0), ("²", 0), ("y\u0663", 1)]
    )
    def test_non_ascii_digits_are_not_integers(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 2)
        assert str(err.value) == f"expected an integer (at offset {offset})"

    @settings(max_examples=400)
    @given(
        st.lists(
            st.sampled_from(list("yx0123^*/+-( ") + ["12", "²", "٣", "\u00a0", "\u2003"]),
            max_size=24,
        ).map("".join)
    )
    def test_parse_gives_a_polynomial_or_a_parse_error(self, text):
        try:
            p = parse_polynomial(text, 2)
        except ParseError:
            return
        assert parse_polynomial(str(p), 2) == p


def sparse_rows(a):
    """Dense rows as the {column: value} rows of `solve_sparse`."""
    return [{c: v for c, v in enumerate(row) if v} for row in a]


def _random_system(rng, nr, nc, rational):
    def pick():
        if rational:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randint(-4, 4)

    a = [[pick() for _ in range(nc)] for _ in range(nr)]
    # a few rows repeat combinations of others, so ranks below min(nr, nc) occur
    for i in range(1, nr):
        if rng.random() < 0.3:
            j = rng.randrange(i)
            k = pick()
            a[i] = [x * k for x in a[j]]
    x = [pick() for _ in range(nc)]
    b = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
    return a, b


class TestCoefficientConvention:
    """Coefficients stay int until a division makes them non-integral."""

    @settings(max_examples=60)
    @given(polys2(int_coeffs), polys2(int_coeffs), polys2(int_coeffs))
    def test_integer_ring_operations_store_int(self, p, q, r):
        assert_all_int(p, q, p + q, p - q, -p, p * q, p * p * p, p * 3, 2 * q)
        assert_all_int(substituted(p, [q, r]), p.constant_term(), p.terms.get((1, 1), 0))
        assert_all_int(parse_polynomial(str(p), 2))

    @settings(max_examples=60)
    @given(polys2(rat_coeffs), polys2(rat_coeffs), polys2(rat_coeffs))
    def test_rational_ring_operations_stay_exact(self, p, q, r):
        assert_demoted(p, q, p + q, p - q, p * Fraction(2, 3), parse_polynomial(str(p), 2))
        assert_demoted(substituted(p, [q, r]))
        assert_demoted(p * q, p * p)

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_matrices_store_int(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 3
        m = unimodular(rng, n)
        a = PolyMatrix(n, [[rand_poly(rng, n, 2, 2) for _ in range(n)] for _ in range(n)])
        inv = m.inverse_over_ring()
        assert m.det() == Polynomial.one(n)
        assert inv * m == PolyMatrix.identity(n, n)
        assert_all_int(m, a * m, m.det(), a.det(), inv)

    @pytest.mark.parametrize("seed", range(4))
    def test_rational_matrices_stay_exact(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 3
        m = unimodular(rng, n) * Fraction(2, 3)
        inv = m.inverse_over_ring()
        assert inv * m == PolyMatrix.identity(n, n)
        assert_demoted(m, m * m, m.det(), inv)

    @settings(max_examples=40)
    @given(
        st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple), int_coeffs, max_size=5),
        st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple), int_coeffs, max_size=5),
    )
    def test_integer_nc_and_scalar_polys_store_int(self, t1, t2):
        p, q = NCPoly(3, t1), NCPoly(3, t2)
        assert_all_int(p + q, p - q, p * q, p * 5, p.constant_term())

        def lam_terms(t):
            # each word a1 a2 a3 becomes the lambda monomial l_a1a2 * l_a2a3
            return {tuple(zip(w, w[1:])): c for w, c in t.items()}

        s, u = ScalarPoly(lam_terms(t1)), ScalarPoly(lam_terms(t2))
        assert_all_int(s + u, s - u, s * u, s * -2, s.substituted((1, 2), 3))
        assert_demoted((s * Fraction(1, 2)) * 2, s.substituted((1, 2), Fraction(1, 2)))

    @settings(max_examples=60)
    @given(
        st.dictionaries(words3, int_coeffs, max_size=5),
        st.dictionaries(words3, int_coeffs, max_size=5),
        st.integers(2, 6),
    )
    @example({(1,): 1}, {(2,): 1}, 2)
    def test_integral_products_store_int(self, t, u, d):
        # the left operands have coefficients c / d and the right ones c * d,
        # so every product below is integral although its operands are not
        def rings(terms, f):
            scaled = [(w, f(c)) for w, c in terms.items()]
            return (
                Polynomial(3, [((w.count(1), w.count(2), w.count(3)), c) for w, c in scaled]),
                NCPoly(3, scaled),
                ScalarPoly([(tuple(zip(w, w[1:])), c) for w, c in scaled]),
            )

        left, right = rings(t, lambda c: Fraction(c, d)), rings(u, lambda c: c * d)
        assert_all_int(*(a * b for a, b in zip(left, right)))
        p, q = left[0], right[0]
        m = PolyMatrix(3, [[p, p * 2], [-p, Fraction(1, d)]])
        n = PolyMatrix(3, [[q, q * 3], [q, d]])
        assert_all_int(m * n)
        s, r = left[2], right[2]
        a = DyadExpr(s, {(phi_sym(1), psi_sym(2)): s, (phi_sym(2), psi_sym(1)): -s})
        b = DyadExpr(r, {(phi_sym(1), psi_sym(2)): r, (phi_sym(2), psi_sym(3)): r})
        assert_all_int(dyad_mul(a, b))

    def test_sum_of_halves_stores_int(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert (p + p).terms == {(1, 0): 1}
        assert_all_int(p + p, p - (-p))

    @settings(max_examples=60)
    @given(
        st.dictionaries(st.lists(st.integers(1, 2), max_size=3).map(tuple), rat_coeffs, max_size=5),
        st.dictionaries(st.lists(st.integers(1, 2), max_size=3).map(tuple), int_coeffs, max_size=5),
    )
    def test_sums_that_cancel_to_integers_store_int(self, t, u):
        # t + comp == both - t == u: rational operands, integral results
        keys = set(t) | set(u)
        comp = {w: u.get(w, 0) - t.get(w, 0) for w in keys}
        both = {w: u.get(w, 0) + t.get(w, 0) for w in keys}

        def polys(make, key=lambda w: w):
            # the constructors add up the coefficients of keys that collide
            return [make([(key(w), c) for w, c in d.items()]) for d in (t, comp, both)]

        for p, q, r in (
            polys(lambda d: Polynomial(2, d), lambda w: (w.count(1), w.count(2))),
            polys(lambda d: NCPoly(2, d)),
            polys(ScalarPoly, lambda w: tuple(zip(w, w[1:]))),
        ):
            assert_all_int(p + q, r - p)
        # elements whose linear parts (constant Fox-row terms) are rational
        lin = [tuple(d.get((i,), 0) for i in (1, 2)) for d in (t, comp, both)]
        a, b, c = (
            MElement(2, tuple(Polynomial.constant(2, x) for x in v)) for v in lin
        )
        for s in ((a + b).linear, (c - a).linear):
            assert_all_int(s)

    @settings(max_examples=40)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32), st.booleans())
    def test_solve_sparse_results_are_demoted(self, nr, nc, seed, rational):
        a, b = _random_system(random.Random(seed), nr, nc, rational)
        assert_demoted(solve_sparse(sparse_rows(a), b, nc))

    def test_integral_eliminations_store_int(self):
        assert_all_int(solve_sparse([{0: 2}, {1: 3}], [4, 9], 2))
        assert_all_int(solve_sparse([{0: 2, 1: 4}, {0: 1, 1: 2}], [6, 3], 2))
        space = RowSpace()
        space.add({"a": 2, "b": 4, "c": 3})
        space.add({"a": Fraction(1, 3), "b": 1, "d": 1})
        space.add({"b": 2, "c": 2, "d": 2})
        assert space.rank == 3
        assert_demoted(*(list(p.values()) for p in space._pivots.values()))

    def test_row_space_remainder_is_demoted(self):
        space = RowSpace()
        space.add({0: 2, 1: 3})
        rem = _divided(*space._reduce({0: 1, 1: Fraction(-1, 2)}))
        assert rem == {1: -2}
        assert_all_int(list(rem.values()))

    @settings(max_examples=80)
    @given(
        st.lists(st.dictionaries(st.integers(0, 5), rat_coeffs, max_size=4), max_size=6),
        st.dictionaries(st.integers(0, 5), rat_coeffs, max_size=4),
    )
    def test_row_space_stores_no_integral_fraction(self, rows, probe):
        space = RowSpace()
        for row in rows:
            space.add(row)
        rem = _divided(*space._reduce(probe))
        stored = [rem, *space._pivots.values(), *space.reduced().values()]
        assert_demoted(*(list(r.values()) for r in stored))


KINDS = ["integer", "mixed", "shared"]


def kind_poly(rng, n, kind, degree=2, terms=3):
    """A random polynomial whose coefficients are ints ("integer"), ints and
    Fractions of assorted denominators ("mixed"), or multiples of 1/6
    ("shared": one denominator for all, some reducing to ints)."""
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, degree) for _ in range(n))
        if kind == "integer":
            c = rng.randint(-4, 4)
        elif kind == "mixed":
            c = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))])
        else:
            c = Fraction(rng.randint(-9, 9), 6)
        t[mono] = t.get(mono, 0) + c
    return Polynomial(n, t)


def value(p, point):
    """p at a point of rationals, term by term."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(point, mono):
            term *= x**e
        total += term
    return total


def values(m, point):
    return [[value(e, point) for e in row] for row in m.rows]


def num_matmul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def num_perm_det(a):
    """Signed permutation expansion of a matrix of numbers."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def points(rng, n, count=3):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(count)
    ]


class TestFractionFreeKernels:
    """The matrix product, minors and substitution, which run on integer
    numerators, against evaluation at random rational points."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_product_at_points(self, kind, seed):
        rng = random.Random(seed)
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = PolyMatrix(2, [[kind_poly(rng, 2, kind) for _ in range(m)] for _ in range(n)])
        b = PolyMatrix(2, [[kind_poly(rng, 2, kind) for _ in range(k)] for _ in range(m)])
        ab = a * b
        for pt in points(rng, 2):
            assert values(ab, pt) == num_matmul(values(a, pt), values(b, pt))
        (assert_all_int if kind == "integer" else assert_demoted)(ab)

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_cancelling_to_zero(self, kind):
        rng = random.Random(7)
        p, q = kind_poly(rng, 2, kind), kind_poly(rng, 2, kind)
        row = row_vector(2, [p * Fraction(2, 3), q])
        col = col_vector(2, [q, p * Fraction(-2, 3)])
        assert (row * col)[0, 0].is_zero()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_det_at_points(self, kind, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 4)
        a = PolyMatrix(2, [[kind_poly(rng, 2, kind, 1, 2) for _ in range(n)] for _ in range(n)])
        d = a.det()
        for pt in points(rng, 2):
            assert value(d, pt) == num_perm_det(values(a, pt))
        (assert_all_int if kind == "integer" else assert_demoted)(d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_det_of_dependent_rows_is_zero(self, kind):
        rng = random.Random(8)
        r = [kind_poly(rng, 2, kind, 1, 2) for _ in range(3)]
        other = [kind_poly(rng, 2, kind, 1, 2) for _ in range(3)]
        m = PolyMatrix(2, [r, other, [e * Fraction(-5, 7) for e in r]])
        assert m.det().is_zero()
        assert m.inverse_over_ring() is None

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_ring_inverse_of_unimodular_times_rational(self, kind, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 4)
        while True:
            c = [[kind_poly(rng, 2, kind, 0, 1) for _ in range(n)] for _ in range(n)]
            if num_perm_det([[value(e, (0, 0)) for e in row] for row in c]):
                break
        j = unimodular(rng, n, 2, 1) * PolyMatrix(2, c)
        inv = j.inverse_over_ring()
        e = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
        for pt in points(rng, 2):
            assert num_matmul(values(j, pt), values(inv, pt)) == e
            assert num_matmul(values(inv, pt), values(j, pt)) == e
        assert j * inv == PolyMatrix.identity(2, n)
        assert_demoted(inv)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_substitute_at_points(self, kind, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(1, 3)
        q = kind_poly(rng, n, kind, 3, 4)
        images = [kind_poly(rng, n, kind, 1, 3) for _ in range(n)]
        moved = substituted(q, images)
        for pt in points(rng, n):
            assert value(moved, pt) == value(q, [value(img, pt) for img in images])
        (assert_all_int if kind == "integer" else assert_demoted)(moved)

    @pytest.mark.parametrize("kind", KINDS)
    def test_substitute_cancelling_to_zero(self, kind):
        lin = kind_poly(random.Random(9), 2, kind, 1, 3)
        # (y1 - 3/2 y2)^2 with y1 -> -3/4 lin and y2 -> -1/2 lin
        q = P("y1^2 - 3*y1*y2 + 9/4*y2^2", 2)
        assert substituted(q, [lin * Fraction(-3, 4), lin * Fraction(-1, 2)]).is_zero()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_induced_matrix_is_entrywise(self, kind, seed):
        rng = random.Random(400 + seed)
        n = rng.randint(2, 4)
        while True:
            a = [[kind_poly(rng, 1, kind, 0, 1).constant_term() for _ in range(n)] for _ in range(n)]
            if rational_inverse(a) is not None:
                break
        phi = endos.linear(a)
        m = PolyMatrix(n, [[kind_poly(rng, n, kind) for _ in range(n)] for _ in range(2)])
        images = endos.induced_poly_images(phi)
        moved = endos.apply_induced(phi, m)
        assert moved == PolyMatrix(n, [[substituted(e, images) for e in r] for r in m.rows])
        for pt in points(rng, n):
            at = [value(img, pt) for img in images]
            assert values(moved, pt) == values(m, at)
        (assert_all_int if kind == "integer" else assert_demoted)(moved)


class TestRationalInverse:
    """rational_inverse against the definition and against sympy."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_inverse_or_none_matches_sympy(self, rational):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(51 + rational)
        singular = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            a, _ = _random_system(rng, n, n, rational)
            inv = rational_inverse(a)
            expected = sympy.Matrix(a)
            if expected.det() == 0:
                singular += 1
                assert inv is None
                with pytest.raises(ValueError, match="matrix is singular"):
                    endos.linear(a)
                continue
            assert [[sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
            assert_demoted(inv)
            assert inv == [[Fraction(int(x.p), int(x.q)) for x in row]
                           for row in expected.inv().tolist()]
        assert singular  # repeated and zero rows occur

    def test_small_cases(self):
        assert rational_inverse([[2]]) == [[Fraction(1, 2)]]
        assert rational_inverse([[0]]) is None
        assert rational_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
        assert_all_int(rational_inverse([[2, 1], [1, 1]]))
        assert rational_inverse([[1, 2], [2, 4]]) is None

    @pytest.mark.parametrize(
        "a", [[[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 0], [0]], [[1], [0, 1]], [[]]]
    )
    def test_non_square_raises(self, a):
        # column 2 of [[1, 2, 3], [4, 5, 6]] would collide with the identity
        # block of [A | E]
        with pytest.raises(ValueError, match="matrix must be square"):
            rational_inverse(a)
        with pytest.raises(ValueError, match="matrix must be square"):
            endos.linear(a)


class TestSolveLinearOracle:
    """solve_sparse against an independent check: substitution back into the
    system, and the rank computed by sympy."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_solution_null_space_and_rank(self, rational):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41 + rational)
        for _ in range(60):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            a, b = _random_system(rng, nr, nc, rational)
            sol = solve_sparse(sparse_rows(a), b, nc)
            assert sol is not None
            for i in range(nr):
                assert sum(a[i][j] * sol.particular[j] for j in range(nc)) == b[i]
            assert sol.nullity == nc - sympy.Matrix(a).rank()

    def test_sparse_rows_are_checked(self):
        with pytest.raises(ValueError):
            solve_sparse([{0: 1, 2: 1}], [1], 2)
        with pytest.raises(ValueError):
            solve_sparse([{0: 1}], [1, 2], 1)
        sol = solve_sparse([{1: 2}, {}], [4, 0], 3)
        assert sol.particular == (0, 2, 0)
        assert sol.nullity == 2

    @pytest.mark.parametrize("rational", [False, True])
    def test_inconsistent_system_returns_none(self, rational):
        rng = random.Random(43 + rational)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a, b = _random_system(rng, nr, nc, rational)
            # the sum of all rows with a shifted right-hand side has no solution
            a.append([sum(col) for col in zip(*a)])
            b.append(sum(b) + 1)
            assert solve_sparse(sparse_rows(a), b, nc) is None


class TestMonoOps:
    """The generated exponent-vector product, print key and letter decoder
    against elementwise oracles."""

    @staticmethod
    def oracle_mul(a, b):
        out = []
        for x, y in zip(a, b):
            out.append(x + y)
        return tuple(out)

    @staticmethod
    def oracle_key(m):
        return (-sum(m), tuple(-e for e in m))

    @staticmethod
    def oracle_letters(m):
        out = []
        for var, e in enumerate(m, 1):
            out += [var] * e
        return tuple(out)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 2000])
    def test_product_key_and_letters_match_oracles(self, n):
        rng = random.Random(n)
        mul, key, letters = _mono_ops(n)
        count = 5 if n == 2000 else 60
        monos = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count)]
        monos += monos[: count // 3]  # repeated keys
        for a, b in zip(monos, reversed(monos)):
            prod_ab = mul(a, b)
            assert prod_ab == self.oracle_mul(a, b)
            assert type(prod_ab) is tuple
            assert all(type(e) is int for e in prod_ab)
        assert sorted(monos, key=key) == sorted(monos, key=self.oracle_key)
        for m in monos:
            word = letters(m)
            assert word == self.oracle_letters(m)
            assert type(word) is tuple
        assert _mono_ops(n) is _mono_ops(n)

    def test_zero_variables(self):
        mul, key, letters = _mono_ops(0)
        assert mul((), ()) == ()
        assert letters(()) == ()
        p = Polynomial(0, {(): 3})
        assert p * p == Polynomial(0, {(): 9})
        assert str(p * Polynomial(0, {(): Fraction(1, 2)})) == "3/2"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_polynomials_round_trip_and_multiply(self, n):
        rng = random.Random(100 + n)
        for _ in range(25):
            p = kind_poly(rng, n, "mixed", degree=3, terms=5)
            q = kind_poly(rng, n, "mixed", degree=3, terms=5)
            assert parse_polynomial(str(p), n) == p
            expected = {}
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    expected[m] = expected.get(m, 0) + c1 * c2
            expected = {m: c for m, c in expected.items() if c}
            assert (p * q).terms == expected
            assert parse_polynomial(str(p * q), n) == p * q


def cofactor_inverse(a):
    """Independent oracle: the inverse of a square matrix of Fractions as
    its cofactors, each a permutation-expansion minor, over the
    permutation-expansion determinant; None when that determinant is 0."""
    n = len(a)
    d = num_perm_det(a)
    if not d:
        return None
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            inv[i][j] = (-1) ** (i + j) * num_perm_det(minor) / d
    return inv


class TestRowDeletedMinors:
    """`inverse_over_ring` builds every row-deleted minor table from shared
    prefix tables; its adjugate must match the cofactor oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rational_rows_match_cofactor_oracle(self, n, seed):
        rng = random.Random(10 * n + seed)
        a = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        a[0][0] += 7  # make a singular draw unlikely; checked below anyway
        expected = cofactor_inverse(a)
        inv = PolyMatrix(2, a).inverse_over_ring()
        if expected is None:
            assert inv is None
        else:
            assert values(inv, [0, 0]) == expected
            assert all(e.is_constant() for row in inv.rows for e in row)
            assert_demoted(inv)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_polynomial_rows_match_cofactor_oracle_at_points(self, n, kind):
        rng = random.Random(50 * n + KINDS.index(kind))
        # a constant determinant: scale**n, with rational rows when the
        # scale is a Fraction or the rows are mixed
        scales = {"integer": -1, "mixed": Fraction(3, 2), "shared": Fraction(-2, 3)}
        scale = scales[kind]
        m = unimodular(rng, n, 2, 1) * scale
        if kind == "mixed":
            m = PolyMatrix(
                2, [[e * Fraction(1, i + 1) for e in r] for i, r in enumerate(m.rows)]
            )
        inv = m.inverse_over_ring()
        assert inv is not None
        for point in points(rng, 2):
            assert values(inv, point) == cofactor_inverse(values(m, point))
        assert_demoted(inv)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_singular_returns_none(self, n):
        rng = random.Random(n)
        a = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        a[-1] = [x * 2 for x in a[0]]
        assert cofactor_inverse(a) is None
        assert PolyMatrix(2, a).inverse_over_ring() is None
        # polynomial rows with a nonconstant determinant
        m = unimodular(rng, n, 2, 1)
        rows = [list(r) for r in m.rows]
        rows[0] = [e * P("y1", 2) for e in rows[0]]
        assert PolyMatrix(2, rows).inverse_over_ring() is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_expand_calls(self, n, monkeypatch):
        # the shared prefix tables and the early exit: n(n+1)/2 row
        # expansions for an invertible matrix, n for a nonconstant determinant
        calls = []

        def counted(*args):
            calls.append(args)
            return expand(*args)

        expand = polyring._expand
        monkeypatch.setattr(polyring, "_expand", counted)
        m = unimodular(random.Random(n), n, 2, 1)
        assert m.inverse_over_ring() is not None
        assert len(calls) == n * (n + 1) // 2
        calls.clear()
        rows = [[e * P("y1", 2) for e in m.rows[0]], *m.rows[1:]]
        assert PolyMatrix(2, rows).inverse_over_ring() is None
        assert len(calls) == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_minor_tables_match_permutation_minors(self, n):
        rng = random.Random(7 * n)
        m = PolyMatrix(
            2, [[kind_poly(rng, 2, "mixed", 1, 2) for _ in range(n)] for _ in range(n)]
        )
        for k, (table, den) in enumerate(_minors(m.rows, 2)):
            for point in points(rng, 2, 2):
                a = values(m, point)
                for cols in itertools.combinations(range(n), k):
                    mask = sum(1 << c for c in cols)
                    got = value(Polynomial._raw(2, table.get(mask, {})), point) / den
                    minor = [[a[r][c] for c in cols] for r in range(k)]
                    assert got == num_perm_det(minor)


M23 = PolyMatrix(2, [[P("y1 + 1", 2), 0, Fraction(1, 2)], [3, P("-y2^2", 2), 1]])
# calls no other test makes: each case is the value the call returns, or the
# (type, message) of the exception it raises
EDGE_CASES = {
    "sub of different sizes": (
        lambda: P("y1", 2) - P("y1", 3),
        (ValueError, "rank mismatch: 2 vs 3"),
    ),
    "substitute too few images": (
        lambda: substituted(P("y1", 2), [P("y1", 2)]),
        (ValueError, "need 2 images, got 1"),
    ),
    "substitute no images": (
        lambda: substituted(Polynomial.constant(0, 3), []),
        Polynomial.constant(0, 3),
    ),
    "substitute images in two rings": (
        lambda: substituted(P("y1", 2), [P("y1", 2), P("y1", 3)]),
        (ValueError, "images must be polynomials in 2 variables"),
    ),
    "substitute into a larger ring": (
        lambda: M23.substitute([Polynomial.variable(3, 1), Polynomial.variable(3, 2)]),
        (ValueError, "images must be polynomials in 2 variables"),
    ),
    "matrix entry in another ring": (
        lambda: PolyMatrix(2, [[P("y1", 3)]]),
        (ValueError, "entry has wrong variable count"),
    ),
    "ragged matrix": (
        lambda: PolyMatrix(2, [[1, 2], [3]]),
        (ValueError, "ragged rows"),
    ),
    "matrix of no rows": (
        lambda: PolyMatrix(2, []),
        (ValueError, "matrix must be nonempty"),
    ),
    "matrix of empty rows": (
        lambda: PolyMatrix(2, [[]]),
        (ValueError, "matrix must be nonempty"),
    ),
    "matrix is immutable": (
        lambda: setattr(M23, "rows", ()),
        (AttributeError, "PolyMatrix is immutable"),
    ),
    "matrix sum over two rings": (
        lambda: M23 + PolyMatrix(3, [[0, 0, 0], [0, 0, 0]]),
        (ValueError, "variable-count mismatch"),
    ),
    "matrix sum of two shapes": (
        lambda: M23 - PolyMatrix(2, [[0, 0, 0]]),
        (ValueError, "shape mismatch: (2, 3) vs (1, 3)"),
    ),
    "matrix product over two rings": (
        lambda: M23 * PolyMatrix(3, [[0], [0], [0]]),
        (ValueError, "variable-count mismatch"),
    ),
    "ring inverse of a non-square matrix": (
        M23.inverse_over_ring,
        (ValueError, "inverse of a non-square matrix"),
    ),
    "negated matrix": (
        lambda: -M23,
        PolyMatrix(2, [[-e for e in row] for row in M23.rows]),
    ),
    "scalar times matrix": (
        lambda: Fraction(-2, 3) * M23,
        PolyMatrix(2, [[e * Fraction(-2, 3) for e in row] for row in M23.rows]),
    ),
    "matrix hash": (
        lambda: hash(M23) == hash(PolyMatrix(2, [list(row) for row in M23.rows])),
        True,
    ),
    "matrix repr": (lambda: repr(M23), "PolyMatrix(2, shape=(2, 3))"),
    "integral fraction demoted": (lambda: type(as_coeff(Fraction(4, 2))), int),
    "float coefficient": (
        lambda: as_coeff(0.5),
        (TypeError, "expected an exact rational, got float"),
    ),
    "bool coefficient": (
        lambda: as_coeff(True),
        (TypeError, "expected an exact rational, got bool"),
    ),
    "false coefficient": (
        lambda: as_coeff(False),
        (TypeError, "expected an exact rational, got bool"),
    ),
    "bool constant": (
        lambda: Polynomial.constant(1, True),
        (TypeError, "expected an exact rational, got bool"),
    ),
    "matrix of bools": (
        lambda: PolyMatrix(1, [[True, False]]),
        (TypeError, "expected an exact rational, got bool"),
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected, outcome):
    assert outcome(call) == expected
