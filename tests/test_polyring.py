"""Exact substrate tests: polynomials, matrices, determinants, solving."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metalie import endos
from metalie.dyadic import DyadExpr, ScalarPoly, dyad_mul, phi_sym, psi_sym
from metalie.freeassoc import NCPoly
from metalie.metabelian import MElement
from metalie.polyring import (
    ParseError,
    PolyMatrix,
    Polynomial,
    LinearSolution,
    RowSpace,
    col_vector,
    parse_polynomial,
    rational_inverse,
    row_vector,
    solve_linear,
    solve_sparse,
    unit_column,
    y_column,
)


def P(text, n):
    return parse_polynomial(text, n)


def rand_poly(rng, n, degree=3, terms=4):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(mono) > degree:
            mono = tuple(0 for _ in mono)
        t[mono] = t.get(mono, 0) + rng.randint(-4, 4)
    return Polynomial(n, t)


def stored_coeffs(*objs):
    """Every coefficient stored in Polynomials, PolyMatrix entries, NCPolys,
    ScalarPolys, DyadExprs, LinearSolutions and plain sequences of scalars."""
    for obj in objs:
        if isinstance(obj, PolyMatrix):
            yield from stored_coeffs(*(e for row in obj.rows for e in row))
        elif isinstance(obj, DyadExpr):
            yield from stored_coeffs(obj.scalar, *obj.dyads.values())
        elif isinstance(obj, (Polynomial, NCPoly, ScalarPoly)):
            yield from obj.terms.values()
        elif isinstance(obj, LinearSolution):
            yield from stored_coeffs(obj.particular, *obj.null_basis)
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

    def test_degree_and_constant(self):
        p = P("2*y1^2*y2 - y3", 3)
        assert p.degree() == 3
        assert Polynomial.zero(3).degree() == -1
        assert P("5", 3).constant_term() == 5
        assert P("5", 3).is_constant()

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
    """The checks Polynomial, NCPoly and ScalarPoly share."""

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
        values = (Polynomial.one(2), NCPoly.one(2), ScalarPoly.one())
        for a, b in itertools.permutations(values, 2):
            for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__eq__"):
                assert getattr(a, op)(b) is NotImplemented
            with pytest.raises(TypeError):
                a + b
        for a in values:
            assert a.__mul__(0.5) is NotImplemented

    def test_immutable_with_public_views(self):
        p, w, s = Polynomial.one(2), NCPoly.one(3), ScalarPoly.one()
        assert (p.nvars, w.rank) == (2, 3)
        assert type(p.terms) is dict and p.terms == {(0, 0): 1}
        for x in (p, w, s):
            with pytest.raises(AttributeError):
                x.terms = {}
            assert hash(x) == hash(x * 1)


class TestSubstitute:
    def test_swap(self):
        images = [Polynomial.variable(2, 2), Polynomial.variable(2, 1)]
        assert P("y1", 2).substitute(images) == P("y2", 2)

    def test_identity(self):
        images = [Polynomial.variable(2, i) for i in (1, 2)]
        p = P("y1*y2", 2)
        assert p.substitute(images) == p

    def test_binomial_expansion(self):
        images = [P("y1 + y2", 2), Polynomial.variable(2, 2)]
        assert P("y1^2", 2).substitute(images) == P("y1^2 + 2*y1*y2 + y2^2", 2)

    def test_is_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            images = [rand_poly(rng, n, 2, 2) for _ in range(n)]
            p, q = rand_poly(rng, n), rand_poly(rng, n)
            assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
            assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


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
        e1 = unit_column(3, 3, 1)
        m = e1 * row
        assert m * m == PolyMatrix.zero(3, 3, 3)

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
        phi = unit_column(3, 3, 2)
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

    @settings(max_examples=80, deadline=None, derandomize=True)
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
            PolyMatrix.zero(2, 2, 3).det()


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
        sol = solve_linear([[1, 0], [0, 1]], [1, 0])
        assert sol.particular == (Fraction(1), Fraction(0))
        assert sol.null_basis == ()

    def test_inconsistent(self):
        assert solve_linear([[0, 0]], [1]) is None

    def test_underdetermined(self):
        sol = solve_linear([[1, 1]], [2])
        assert sol.particular == (Fraction(2), Fraction(0))
        assert len(sol.null_basis) == 1
        v = sol.null_basis[0]
        assert v in ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))

    def test_solution_and_null_space_randomized(self):
        rng = random.Random(8)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
            x = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
            b = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
            sol = solve_linear(a, b)
            assert sol is not None  # consistent by construction
            for i in range(nr):
                assert sum(a[i][j] * sol.particular[j] for j in range(nc)) == b[i]
            for v in sol.null_basis:
                for i in range(nr):
                    assert sum(a[i][j] * v[j] for j in range(nc)) == 0


class TestRowSpace:
    def test_rank_and_membership(self):
        space = RowSpace()
        assert space.add({"a": Fraction(1), "b": Fraction(-1)})
        assert space.add({"b": Fraction(1), "c": Fraction(-1)})
        assert not space.add({"a": Fraction(2), "c": Fraction(-2)})
        assert space.rank == 2
        assert space.contains({"a": Fraction(1), "c": Fraction(-1)})
        assert not space.contains({"a": Fraction(1), "c": Fraction(1)})


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys2(int_coeffs), polys2(int_coeffs), polys2(int_coeffs))
    def test_integer_ring_operations_store_int(self, p, q, r):
        assert_all_int(p, q, p + q, p - q, -p, p * q, p**3, p * 3, 2 * q)
        assert_all_int(p.substitute([q, r]), p.constant_term(), p.coefficient((1, 1)))
        assert_all_int(parse_polynomial(str(p), 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys2(rat_coeffs), polys2(rat_coeffs), polys2(rat_coeffs))
    def test_rational_ring_operations_stay_exact(self, p, q, r):
        assert_demoted(p, q, p + q, p - q, p * Fraction(2, 3), parse_polynomial(str(p), 2))
        assert_demoted(p.substitute([q, r]))
        assert_demoted(p * q, p**2)

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

    @settings(max_examples=40, deadline=None, derandomize=True)
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

    @settings(max_examples=60, deadline=None, derandomize=True)
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

    @settings(max_examples=60, deadline=None, derandomize=True)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32), st.booleans())
    def test_solve_linear_results_are_demoted(self, nr, nc, seed, rational):
        a, b = _random_system(random.Random(seed), nr, nc, rational)
        assert_demoted(solve_linear(a, b))

    def test_integral_eliminations_store_int(self):
        assert_all_int(solve_linear([[2, 0], [0, 3]], [4, 9]))
        assert_all_int(solve_linear([[2, 4], [1, 2]], [6, 3]))
        space = RowSpace()
        space.add({"a": 2, "b": 4, "c": 3})
        space.add({"a": Fraction(1, 3), "b": 1, "d": 1})
        space.add({"b": 2, "c": 2, "d": 2})
        assert space.rank == 3
        assert_demoted(*(list(p.values()) for p in space._pivots.values()))

    def test_row_space_remainder_is_demoted(self):
        space = RowSpace()
        space.add({0: 2, 1: 3})
        rem = space.reduce({0: 1, 1: Fraction(-1, 2)})
        assert rem == {1: -2}
        assert_all_int(list(rem.values()))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(st.dictionaries(st.integers(0, 5), rat_coeffs, max_size=4), max_size=6),
        st.dictionaries(st.integers(0, 5), rat_coeffs, max_size=4),
    )
    def test_row_space_stores_no_integral_fraction(self, rows, probe):
        space = RowSpace()
        for row in rows:
            space.add(row)
        stored = [space.reduce(probe), *space._pivots.values(), *space.reduced().values()]
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
        n, nv = rng.randint(1, 3), rng.randint(1, 3)
        q = kind_poly(rng, n, kind, 3, 4)
        images = [kind_poly(rng, nv, kind, 1, 3) for _ in range(n)]
        moved = q.substitute(images)
        for pt in points(rng, nv):
            assert value(moved, pt) == value(q, [value(img, pt) for img in images])
        (assert_all_int if kind == "integer" else assert_demoted)(moved)

    @pytest.mark.parametrize("kind", KINDS)
    def test_substitute_cancelling_to_zero(self, kind):
        lin = kind_poly(random.Random(9), 2, kind, 1, 3)
        # (y1 - 3/2 y2)^2 with y1 -> -3/4 lin and y2 -> -1/2 lin
        q = P("y1^2 - 3*y1*y2 + 9/4*y2^2", 2)
        assert q.substitute([lin * Fraction(-3, 4), lin * Fraction(-1, 2)]).is_zero()

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
        assert moved == PolyMatrix(n, [[e.substitute(images) for e in r] for r in m.rows])
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
    """solve_linear against an independent check: substitution back into the
    system, and the rank computed by sympy."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_solution_null_space_and_rank(self, rational):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41 + rational)
        for _ in range(60):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            a, b = _random_system(rng, nr, nc, rational)
            sol = solve_linear(a, b)
            assert sol is not None
            for i in range(nr):
                assert sum(a[i][j] * sol.particular[j] for j in range(nc)) == b[i]
            for v in sol.null_basis:
                assert len(v) == nc
                for i in range(nr):
                    assert sum(a[i][j] * v[j] for j in range(nc)) == 0
            rank = sympy.Matrix(a).rank()
            assert len(sol.null_basis) == nc - rank
            assert sol.nullity == nc - rank
            if sol.null_basis:
                assert sympy.Matrix([list(v) for v in sol.null_basis]).rank() == nc - rank

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32), st.booleans())
    def test_nullity_counts_the_null_basis(self, nr, nc, seed, rational):
        a, b = _random_system(random.Random(seed), nr, nc, rational)
        sol = solve_linear(a, b)
        assert sol.nullity == len(sol.null_basis)

    def test_sparse_rows_are_checked(self):
        with pytest.raises(ValueError):
            solve_sparse([{0: 1, 2: 1}], [1], 2)
        with pytest.raises(ValueError):
            solve_sparse([{0: 1}], [1, 2], 1)
        sol = solve_sparse([{1: 2}, {}], [4, 0], 3)
        assert sol.particular == (0, 2, 0)
        assert sol.nullity == 2
        assert sol.null_basis == ((1, 0, 0), (0, 0, 1))

    @pytest.mark.parametrize("rational", [False, True])
    def test_inconsistent_system_returns_none(self, rational):
        rng = random.Random(43 + rational)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a, b = _random_system(rng, nr, nc, rational)
            # the sum of all rows with a shifted right-hand side has no solution
            a.append([sum(col) for col in zip(*a)])
            b.append(sum(b) + 1)
            assert solve_linear(a, b) is None
