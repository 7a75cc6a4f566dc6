"""Endomorphism constructors, composition, Jacobians, inverse, filtration."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.endos as en
import metalie.metabelian as mb
from metalie.lieexpr import LeftNormed, Sum, combination, parse_expr
from metalie.polyring import (
    PolyMatrix,
    Polynomial,
    col_vector,
    parse_polynomial,
    row_vector,
    y_column,
)


def ex(text):
    return parse_expr(text)


def ev(text, rank):
    return mb.evaluate(parse_expr(text), rank)


def jac_strings(phi):
    return [[str(p) for p in row] for row in en.jacobian(phi).rows]


class TestElementary:
    def test_images(self):
        phi = en.elementary(3, ex("[x2,x3]"))
        assert phi.images[0] == ev("x1 + [x2,x3]", 3)
        assert phi.images[1] == mb.generator(3, 2)
        assert phi.images[2] == mb.generator(3, 3)

    def test_jacobian_is_unit_row_update(self):
        phi = en.elementary(3, ex("[x2,x3]"))
        expected = PolyMatrix.identity(3, 3) + col_vector(3, [1, 0, 0]) * mb.fox(
            ev("[x2,x3]", 3)
        )
        assert en.jacobian(phi) == expected
        assert jac_strings(phi)[0] == ["1", "-y3", "y2"]

    def test_rejects_perturbation_mentioning_x1(self):
        with pytest.raises(ValueError):
            en.elementary(3, ex("[x1,x2]"))

    def test_rejects_non_derived(self):
        with pytest.raises(ValueError):
            en.elementary(3, ex("x2"))

    def test_rejects_generator_index_below_one(self):
        with pytest.raises(ValueError):
            en.elementary(3, LeftNormed((0, 2)))

    def test_other_position(self):
        phi = en.elementary(3, ex("[x1,x3]"), position=2)
        assert phi.images[1] == ev("x2 + [x1,x3]", 3)
        assert phi.images[0] == mb.generator(3, 1)


class TestInner:
    def test_images(self):
        z = ev("[x1,x2]", 3)
        phi = en.inner(3, z)
        for i in range(3):
            xi = mb.generator(3, i + 1)
            assert phi.images[i] == xi + mb.bracket(z, xi)

    def test_jacobian_formula(self):
        z = ev("[x1,x2]", 3)
        phi = en.inner(3, z)
        assert en.jacobian(phi) == PolyMatrix.identity(3, 3) - y_column(3) * mb.fox(z)

    def test_rejects_non_derived(self):
        with pytest.raises(ValueError):
            en.inner(3, mb.generator(3, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            en.inner(3, mb.zero(3))

    def test_unit_determinant(self):
        rng = random.Random(27)
        for _ in range(10):
            rank = rng.randint(2, 4)
            z = mb.evaluate(en.random_derived_expr(rng, rank, 4), rank)
            d = en.jacobian(en.inner(rank, z)).det()
            assert d == Polynomial.one(rank)

    def test_accepts_every_random_derived_expr(self):
        # without the redraw, 10 of the degree-3 draws and 181 of the
        # degree-2 draws (the regime of random_tame_iaut's factors) are zero
        rng = random.Random(1818)
        draws = []
        for i in range(1200):
            draws.append((2 + i % 4, en.random_derived_expr(rng, 2 + i % 4, 3)))
        for i in range(4000):
            rank = 3 + i % 3
            letters = list(range(2, rank + 1))
            draws.append((rank, en.random_derived_expr(rng, rank, 2, letters)))
        zs = [(rank, mb.evaluate(f, rank)) for rank, f in draws]
        assert sum(z.is_zero() for _, z in zs) == 0
        for rank, z in zs:
            en.inner(rank, z)


class TestLinear:
    def test_identity_matrix(self):
        assert en.linear([[1, 0], [0, 1]]) == en.identity(2)

    def test_swap(self):
        phi = en.linear([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert phi.images[0] == mb.generator(3, 2)
        assert phi.images[1] == mb.generator(3, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            en.linear([[1, 1], [1, 1]])

    def test_singular_exactly_when_det_is_zero(self):
        # entries in -1..1 make about a third of these matrices singular;
        # the determinant is the Leibniz sum, with no elimination
        rng = random.Random(31)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            det = sum(
                sign * prod(a[i][p[i]] for i in range(n))
                for sign, p in signed_permutations(n)
            )
            if det == 0:
                singular += 1
                with pytest.raises(ValueError, match="^matrix is singular$"):
                    en.linear(a)
            else:
                assert en.linear(a).linear_matrix() == a
        assert 50 < singular < 250


def signed_permutations(n):
    """(sign, permutation) for every permutation of range(n)."""
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        yield (-1) ** inversions, p


# each input matrix of `linear`, and the (type, message) it raises
LINEAR_ERRORS = {
    "non-square": ([[1, 0, 0], [0, 1, 0]], (ValueError, "matrix must be square")),
    "ragged": ([[1, 0], [0]], (ValueError, "matrix must be square")),
    "singular": ([[1, 2], [2, 4]], (ValueError, "matrix is singular")),
    "singular of rank n - 2": (
        [[1, 2, 3], [2, 4, 6], [-1, -2, -3]],
        (ValueError, "matrix is singular"),
    ),
    "bool entry": ([[True, 0], [0, 1]], (TypeError, "expected an exact rational, got bool")),
    "float entry": ([[0.5, 0], [0, 1]], (TypeError, "expected an exact rational, got float")),
    # entries are checked before the shape
    "bool entry of a non-square": (
        [[True, 0, 0]],
        (TypeError, "expected an exact rational, got bool"),
    ),
    "empty": ([], (ValueError, "an endomorphism needs rank at least 1, got rank 0")),
}


@pytest.mark.parametrize("matrix, expected", LINEAR_ERRORS.values(), ids=LINEAR_ERRORS)
def test_linear_errors(matrix, expected, outcome):
    assert outcome(lambda: en.linear(matrix)) == expected


class TestApplyCompose:
    def test_identity_apply(self):
        e = ex("[x1,x2] + 2*x3")
        assert en.apply(en.identity(3), e) == ev("[x1,x2] + 2*x3", 3)

    def test_elementary_apply(self):
        phi = en.elementary(3, ex("[x2,x3]"))
        assert en.apply(phi, ex("x1")) == ev("x1 + [x2,x3]", 3)

    def test_swap_flips_bracket_sign(self):
        swap = en.linear([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert en.apply(swap, ex("[x1,x2]")) == ev("[x1,x2]", 3).scaled(-1)

    def test_compose_with_identity(self):
        rng = random.Random(1)
        from metalie.verify import random_endo

        phi = random_endo(rng, 3, 4)
        assert en.compose(phi, en.identity(3)) == phi
        assert en.compose(en.identity(3), phi) == phi

    def test_inner_inverse_pair(self):
        z = ev("[x1,x2]", 3)
        assert en.compose(en.inner(3, z), en.inner(3, -z)) == en.identity(3)

    def test_compose_rank_mismatch(self):
        with pytest.raises(ValueError):
            en.compose(en.identity(2), en.identity(3))

    def test_compose_of_hand_entered_normal_forms(self):
        # an Endo built from bare normal forms composes to the direct
        # evaluation of the map on the lift of each of its images
        bare = en.Endo(3, en.elementary(3, ex("[x2,x3]")).images)
        comp = en.compose(bare, bare)
        assert comp.images == tuple(en.apply(bare, mb.lift(g)) for g in bare.images)
        assert comp.images[0] == ev("x1 + 2*[x2,x3]", 3)

    def test_chain_rule_concrete_pair(self):
        # compose() multiplies Jacobians, so the Jacobian identity alone
        # restates its definition; the independent check is direct
        # evaluation of phi on a bracket expression of each image of psi
        phi = en.elementary(3, ex("[x2,x3]"))
        psi = en.inner(3, ev("[x1,x2]", 3))
        comp = en.compose(phi, psi)
        lhs = en.jacobian(comp)
        rhs = en.apply_induced(phi, en.jacobian(psi)) * en.jacobian(phi)
        assert lhs == rhs
        for i in range(3):
            assert comp.images[i] == en.apply(phi, mb.lift(psi.images[i]))

    def test_chain_rule_randomized(self):
        rng = random.Random(14)
        from metalie.verify import random_endo

        for _ in range(40):
            rank = rng.randint(2, 5)
            phi, psi = random_endo(rng, rank, 4), random_endo(rng, rank, 4)
            comp = en.compose(phi, psi)
            lhs = en.jacobian(comp)
            rhs = en.apply_induced(phi, en.jacobian(psi)) * en.jacobian(phi)
            assert lhs == rhs
            for i in range(rank):
                assert comp.images[i] == en.apply(phi, mb.lift(psi.images[i]))

    def test_long_tame_product_composes_by_direct_evaluation(self):
        # a long product, where composition must stay bound by the size of
        # its output: replay random_tame_iaut(4, 1, 9, 3) factor by factor
        # and check the last factor against direct evaluation on the lifted
        # images of the length-8 product (inverting it would take minutes)
        rng = random.Random((1, "iaut", 4, 9, 3).__repr__())
        acc = en.identity(4)
        for _ in range(9):
            alpha = en._random_unimodular_matrix(rng, 4)
            f = en.random_derived_expr(rng, 4, 3, [2, 3, 4])
            factor, _, _ = en.conjugate_elementary(alpha, f, 4)
            prev, acc = acc, en.compose(factor, acc)
        assert acc == en.random_tame_iaut(4, 1, 9, 3)
        for i in range(4):
            assert acc.images[i] == en.apply(factor, mb.lift(prev.images[i]))

    def test_compose_with_a_long_word_matches_direct_evaluation(self):
        # x1 -> x1 + x2 moves y1 in the Fox row of a 1,501-letter word, whose
        # monomials have degree 1,500: each one is built from its nearest
        # known divisor one factor at a time, in a loop (a recursive build
        # would exceed the interpreter's recursion limit)
        phi = en.linear([[1, 1], [0, 1]])
        word = mb.evaluate(LeftNormed((2,) + (1,) * 200 + (2,) * 1300), 2)
        psi = en.Endo(2, (mb.generator(2, 1) + word, mb.generator(2, 2)))
        comp = en.compose(phi, psi)
        for i in range(2):
            assert comp.images[i] == en.apply(phi, mb.lift(psi.images[i]))

    def test_jacobian_alone_determines_endo(self):
        # injectivity in normal form: an image is stored as its Fox row, so
        # the Jacobian rows alone rebuild the images
        rng = random.Random(19)
        from metalie.verify import random_endo

        for _ in range(20):
            rank = rng.randint(2, 4)
            phi = random_endo(rng, rank, 4)
            rebuilt = en.Endo(
                rank, tuple(mb.MElement(rank, row) for row in en.jacobian(phi).rows)
            )
            assert rebuilt == phi

    def test_linear_parts_compose_as_matrices(self):
        # independent oracle: the linear part of x -> phi(psi(x)) is
        # L(psi) * L(phi), multiplied here in plain Fractions
        rng = random.Random(23)
        from metalie.verify import random_endo

        for _ in range(30):
            rank = rng.randint(2, 4)
            phi, psi = random_endo(rng, rank, 3), random_endo(rng, rank, 3)
            a = [[Fraction(c) for c in row] for row in psi.linear_matrix()]
            b = [[Fraction(c) for c in row] for row in phi.linear_matrix()]
            expected = [
                [sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank)]
                for i in range(rank)
            ]
            assert en.compose(phi, psi).linear_matrix() == expected


def tame_factor(kind, rank, rng):
    """A linear (integer or rational), elementary or IA factor (a linear
    conjugate of an elementary map) of rank `rank`."""
    if kind == "linear":
        return en.linear(en._random_invertible_matrix(rng, rank))
    if kind == "rational":
        while True:
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                 for _ in range(rank)]
            if en.rational_inverse(a) is not None:
                return en.linear(a)
    if kind == "elementary":
        position = rng.randint(1, rank)
        letters = [i for i in range(1, rank + 1) if i != position]
        return en.elementary(rank, en.random_derived_expr(rng, rank, 3, letters), position)
    alpha = en._random_unimodular_matrix(rng, rank)
    f = en.random_derived_expr(rng, rank, 3, list(range(2, rank + 1)))
    return en.conjugate_elementary(alpha, f, rank)[0]


factor_kinds = st.sampled_from(["linear", "rational", "elementary", "ia"])


class TestComposeFactorsOracle:
    """compose of tame factors against direct evaluation of phi on the lift
    of each image of psi."""

    @settings(max_examples=40)
    @given(factor_kinds, factor_kinds, st.integers(3, 5), st.integers(0, 2**32))
    def test_matches_direct_evaluation(self, kind_phi, kind_psi, rank, seed):
        rng = random.Random(seed)
        phi, psi = tame_factor(kind_phi, rank, rng), tame_factor(kind_psi, rank, rng)
        comp = en.compose(phi, psi)
        assert comp.images == tuple(en.apply(phi, mb.lift(g)) for g in psi.images)
        assert comp == en.Endo(rank, tuple(mb.MElement(rank, g.tpart) for g in comp.images))
        assert comp.exprs is None


class TestRawBuilders:
    """Objects built by the raw builders equal the validating constructors'
    results."""

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_generators(self, rank):
        gens = mb.generators(rank)
        assert gens is mb.generators(rank)
        for i, g in enumerate(gens, 1):
            row = tuple(Polynomial.constant(rank, int(j == i)) for j in range(1, rank + 1))
            assert g == mb.MElement(rank, row) == mb.generator(rank, i)
            assert g == mb.evaluate(ex(f"x{i}"), rank)
        assert en.identity(rank) == en.Endo(rank, gens)

    def test_kernel_results(self):
        rng = random.Random(8)
        from metalie.verify import random_endo

        for _ in range(10):
            rank = rng.randint(2, 4)
            phi, psi = random_endo(rng, rank, 3), random_endo(rng, rank, 3)
            u, v = phi.images[0], psi.images[-1]
            for f in (u + v, u - v, -u, u.scaled(Fraction(2, 3)), mb.bracket(u, v),
                      en.apply(phi, ex("[x1,x2] + x2")),
                      *mb.degree_components(u).values()):
                assert f == mb.MElement(rank, f.tpart)
            for endo in (en.compose(phi, psi), en.inverse(en.random_tame(rank, 3, 2, 2))):
                if endo is not None:
                    assert endo == en.Endo(rank, endo.images)
            j = en.jacobian(phi)
            assert j == PolyMatrix(rank, j.rows)


class TestKernelResultsAreMembers:
    """The kernels build their results with `MElement._raw`, unchecked. Each
    result passes the membership predicate `in_m`, which is why `lift` does
    not check membership again. `inverse` does not call `in_m` either: its
    docstring proves its rows are members (step 1), and this test checks it."""

    @settings(max_examples=30)
    @given(
        st.integers(2, 5), st.integers(0, 2**32), st.fractions(-3, 3, max_denominator=4)
    )
    def test_results_pass_the_predicate(self, rank, seed, c):
        from metalie.verify import random_endo, random_melement_expr

        rng = random.Random(seed)
        phi, psi = random_endo(rng, rank, 3), random_endo(rng, rank, 3)
        u, v = phi.images[0], psi.images[-1]
        inv = en.inverse(en.random_tame(rank, seed % 1000, 2, 2))
        assert inv is not None
        results = [
            mb.evaluate(random_melement_expr(rng, rank, 4), rank),
            mb.bracket(u, v), u + v, u - v, u.scaled(c),
            *mb.degree_components(u).values(),
            *en.compose(phi, psi).images,
            *inv.images,
        ]
        for f in results:
            assert mb.in_m(f.tpart)


class TestInduced:
    def test_identity(self):
        imgs = en.induced_poly_images(en.identity(3))
        assert imgs == [Polynomial.variable(3, i) for i in (1, 2, 3)]

    def test_inner_is_identity_downstairs(self):
        phi = en.inner(3, ev("[x1,x2]", 3))
        assert en.induced_poly_images(phi) == [
            Polynomial.variable(3, i) for i in (1, 2, 3)
        ]

    def test_linear_rows(self):
        phi = en.linear([[1, 2], [0, 1]])
        assert en.induced_poly_images(phi) == [
            parse_polynomial("y1 + 2*y2", 2),
            parse_polynomial("y2", 2),
        ]


class TestConjugateElementary:
    def test_identity_conjugator(self):
        e = PolyMatrix.identity(3, 3)
        conj, phi_col, psi_row = en.conjugate_elementary(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ex("[x2,x3]"), 3
        )
        assert conj == en.elementary(3, ex("[x2,x3]"))
        assert phi_col == col_vector(3, [1, 0, 0])
        assert psi_row == mb.fox(ev("[x2,x3]", 3))

    def test_swap_conjugator(self):
        # alpha sends x1 <-> x2, so alphabar swaps y1, y2 inside the Fox row
        # (0, -y3, y2) before the column mix by A: Psi = (-y3, 0, y1).
        conj, phi_col, psi_row = en.conjugate_elementary(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]], ex("[x2,x3]"), 3
        )
        assert phi_col == col_vector(3, [0, 1, 0])
        assert psi_row == row_vector(
            3, [parse_polynomial(s, 3) for s in ("-y3", "0", "y1")]
        )
        assert (psi_row * phi_col)[0, 0].is_zero()
        assert (psi_row * y_column(3))[0, 0].is_zero()
        ident = PolyMatrix.identity(3, 3)
        assert en.jacobian(conj) == ident + phi_col * psi_row

    def test_randomized_invariants(self):
        rng = random.Random(15)
        for _ in range(25):
            rank = rng.randint(3, 5)
            alpha = en._random_invertible_matrix(rng, rank)
            f = en.random_derived_expr(rng, rank, 3, list(range(2, rank + 1)))
            conj, phi_col, psi_row = en.conjugate_elementary(alpha, f, rank)
            ident = PolyMatrix.identity(rank, rank)
            assert en.jacobian(conj) == ident + phi_col * psi_row
            assert (psi_row * phi_col)[0, 0].is_zero()
            assert (psi_row * y_column(rank))[0, 0].is_zero()

    def test_inverts_alpha_once(self, monkeypatch):
        calls = []
        real = en.rational_inverse
        monkeypatch.setattr(
            en, "rational_inverse", lambda a: calls.append(a) or real(a)
        )
        rng = random.Random(16)
        for _ in range(8):
            alpha = en._random_invertible_matrix(rng, 3)
            calls.clear()
            en.conjugate_elementary(alpha, en.random_derived_expr(rng, 3, 3, [2, 3]), 3)
            assert len(calls) == 1

    def test_evaluates_f_once(self, monkeypatch):
        # f is walked once, for alpha(f); Psi is read off its Fox row
        walks = []
        real_eval_with, real_evaluate = mb.eval_with, mb.evaluate
        monkeypatch.setattr(
            mb, "eval_with", lambda e, im: walks.append("eval_with") or real_eval_with(e, im)
        )
        monkeypatch.setattr(
            mb, "evaluate", lambda e, n: walks.append("evaluate") or real_evaluate(e, n)
        )
        alpha = [[1, 2, 0], [0, 1, 0], [1, 0, 1]]
        en.conjugate_elementary(alpha, ex("[x2,x3] - [[x2,x3],x3]"), 3)
        assert walks == ["eval_with"]

    @pytest.mark.parametrize(
        "alpha, f, message",
        [
            ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], "[x1,x2]", "perturbation mentions x1"),
            (
                [[1, 2, 0], [0, 1, 0], [1, 0, 1]],
                "[x2,x4]",
                r"generator index 4 out of range 1\.\.3",
            ),
            (
                [[1, 2, 0], [0, 1, 0], [1, 0, 1]],
                "x2 + [x2,x3]",
                "perturbation is not in the bracket subalgebra",
            ),
            # the checks run in this order: alpha, then x1, then the indices
            ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], "[x1,x4]", "matrix is singular"),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "x1 + [x2,x4]", "mentions x1"),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "x2 + [x2,x4]", "index 4 out"),
        ],
    )
    def test_rejects_what_elementary_rejects(self, alpha, f, message):
        with pytest.raises(ValueError, match=message):
            en.conjugate_elementary(alpha, ex(f), 3)

    def test_singular_alpha_rejected(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            en.conjugate_elementary([[1, 1, 0], [1, 1, 0], [0, 0, 1]], ex("[x2,x3]"), 3)

    @pytest.mark.parametrize("kind", ["permutation", "unimodular"])
    def test_against_direct_evaluation(self, kind):
        # image i is alpha(phi_f(alpha^-1(x_i))), each map applied by
        # evaluation on the lift; alphas whose A^-1 has zeros in column 0
        rng = random.Random(32)
        zeros = 0
        for _ in range(12):
            rank = rng.randint(3, 5)
            if kind == "permutation":
                perm = rng.sample(range(rank), rank)
                a = [[int(j == perm[i]) for j in range(rank)] for i in range(rank)]
            else:
                a = en._random_unimodular_matrix(rng, rank)
            a_inv = en.rational_inverse(a)
            assert [
                [sum(a[i][k] * a_inv[k][j] for k in range(rank)) for j in range(rank)]
                for i in range(rank)
            ] == [[int(i == j) for j in range(rank)] for i in range(rank)]
            f = en.random_derived_expr(rng, rank, 3, list(range(2, rank + 1)))
            conj, phi_col, psi_row = en.conjugate_elementary(a, f, rank)

            gens = mb.generators(rank)
            alpha = [mb.eval_with(linear_expr(row), gens) for row in a]
            phi_f = (gens[0] + mb.evaluate(f, rank),) + gens[1:]
            for i, row in enumerate(a_inv):
                moved = mb.eval_with(linear_expr(row), phi_f)
                assert conj.images[i] == mb.eval_with(mb.lift(moved), alpha)
                if row[0] == 0:
                    zeros += 1
                    assert conj.images[i] is gens[i]
            assert phi_col == col_vector(rank, [row[0] for row in a_inv])
            assert psi_row == mb.fox(mb.eval_with(f, alpha))
            ident = PolyMatrix.identity(rank, rank)
            assert en.jacobian(conj) == ident + phi_col * psi_row
        assert zeros >= 12


def linear_expr(row):
    """sum_j row[j] * x_{j+1} as an expression."""
    return combination([(c, j + 1) for j, c in enumerate(row) if c])


class TestFromExprs:
    @pytest.mark.parametrize("rank", [1, 4, 30])
    def test_builds_each_generator_once(self, rank, monkeypatch):
        # every MElement built, by the raw builder or the validating
        # constructor; no image below equals a generator
        built = []
        raw, post_init = mb.MElement._raw.__func__, mb.MElement.__post_init__

        def counting_raw(cls, n, tpart):
            built.append(raw(cls, n, tpart))
            return built[-1]

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(mb.MElement, "_raw", classmethod(counting_raw))
        monkeypatch.setattr(mb.MElement, "__post_init__", counting_post_init)
        mb.generators.cache_clear()
        exprs = [ex(f"2*x{i} + [x1,x{i}]") for i in range(1, rank + 1)]
        phi = en.from_exprs(rank, exprs)
        gens = mb.generators(rank)
        assert sum(e in gens for e in built) == rank
        assert phi.images == tuple(mb.evaluate(e, rank) for e in exprs)


class TestInverse:
    def test_inner(self):
        z = ev("[x1,x2]", 3)
        assert en.inverse(en.inner(3, z)) == en.inner(3, -z)

    def test_elementary(self):
        phi = en.elementary(3, ex("[x2,x3]"))
        assert en.inverse(phi) == en.elementary(3, ex("-[x2,x3]"))

    def test_non_injective(self):
        phi = en.from_exprs(3, [ex("x1"), ex("x1"), ex("x3")])
        assert en.inverse(phi) is None

    def test_round_trips_randomized(self):
        for case in range(12):
            rank = 3 + case % 3
            length = 1 + case % 2
            phi = en.random_tame(rank, case, length, 2)
            inv = en.inverse(phi)
            assert inv is not None
            assert en.compose(phi, inv) == en.identity(rank)
            assert en.compose(inv, phi) == en.identity(rank)
            again = en.inverse(inv)
            assert again == phi

    def test_det_of_tame_jacobian_is_constant(self):
        for case in range(6):
            rank = 2 + case % 4
            phi = en.random_tame(rank, case + 100, 2, 3)
            d = en.jacobian(phi).det()
            assert d.is_constant() and d.constant_term() != 0


def assert_inverse_by_evaluation(phi, inv):
    """Each map sends the lifted images of the other back to the generators,
    by direct evaluation: no chain rule, so independent of `compose`."""
    gens = mb.generators(phi.rank)
    assert tuple(en.apply(phi, mb.lift(g)) for g in inv.images) == gens
    assert tuple(en.apply(inv, mb.lift(g)) for g in phi.images) == gens


def det_is_unit(phi):
    d = en.jacobian(phi).det()
    return d.is_constant() and d.constant_term() != 0


class TestInverseOracle:
    """inverse reads its result off the Jacobian criterion, which is the
    chain rule; here both products are checked by direct evaluation
    instead."""

    def test_rational_tame_products(self):
        rational = 0
        for rank in (3, 4, 5):
            for length in (2, 3, 4):
                for seed in range(3):
                    phi = en.random_tame(rank, seed, length, 2)
                    inv = en.inverse(phi)
                    assert inv is not None
                    assert_inverse_by_evaluation(phi, inv)
                    a_inv = en.rational_inverse(phi.linear_matrix())
                    rational += any(type(c) is Fraction for r in a_inv for c in r)
        # most linear parts have a non-integral inverse
        assert rational >= 20

    @pytest.mark.parametrize("rank, length", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_iaut_products(self, rank, length):
        for seed in range(2):
            phi = en.random_tame_iaut(rank, seed, length, 3)
            inv = en.inverse(phi)
            assert inv is not None
            assert_inverse_by_evaluation(phi, inv)

    def test_invertible_linear_part_but_not_automorphism(self):
        phi = en.from_exprs(2, [ex("x1 + [x1,x2]"), ex("x2")])
        assert en.jacobian(phi).det() == parse_polynomial("1 - y2", 2)
        assert en.inverse(phi) is None
        # image 1 plus c*[tame(x1), tame(x2)]: tame o (x1 -> x1 + c*[x1,x2])
        for case in range(6):
            rank = 3 + case % 3
            tame = en.random_tame(rank, case, 2, 2)
            w = mb.bracket(tame.images[0], tame.images[1]).scaled(case - 3 or 2)
            images = (tame.images[0] + w,) + tame.images[1:]
            phi = en.Endo(rank, images)
            assert en.rational_inverse(phi.linear_matrix()) is not None
            assert not det_is_unit(phi)
            assert en.inverse(phi) is None

    def test_inner_times_tame(self):
        rng = random.Random(20)
        for case in range(6):
            rank = 3 + case % 3
            z = mb.evaluate(en.random_derived_expr(rng, rank, 3), rank)
            phi = en.compose(en.inner(rank, z), en.random_tame(rank, case, 2, 2))
            inv = en.inverse(phi)
            assert inv is not None
            assert_inverse_by_evaluation(phi, inv)

    def test_none_exactly_when_det_is_not_a_unit(self):
        from metalie.verify import random_endo

        rng = random.Random(21)
        automorphisms = 0
        for case in range(150):
            phi = random_endo(rng, 2 + case % 3, 3)
            inv = en.inverse(phi)
            assert (inv is None) == (not det_is_unit(phi))
            if inv is not None:
                assert_inverse_by_evaluation(phi, inv)
                automorphisms += 1
        # about one random endomorphism in twenty is an automorphism
        assert automorphisms >= 3

    def test_one_ring_inverse_and_no_composition(self, monkeypatch):
        phi = en.random_tame(4, 2, 3, 2)
        ring_inverses, compositions = [], []
        ring_inverse = PolyMatrix.inverse_over_ring
        compose = en.compose

        def counted_ring_inverse(m):
            ring_inverses.append(m)
            return ring_inverse(m)

        def counted_compose(a, b):
            compositions.append((a, b))
            return compose(a, b)

        monkeypatch.setattr(PolyMatrix, "inverse_over_ring", counted_ring_inverse)
        monkeypatch.setattr(en, "compose", counted_compose)
        inv = en.inverse(phi)
        assert inv is not None
        assert ring_inverses == [en.jacobian(phi)]
        assert compositions == []


class TestIautLevel:
    def test_degree4_perturbation_of_x1(self):
        psi = en.from_exprs(
            4, [ex("x1 + [[x1,[x2,x3]],x4]"), ex("x2"), ex("x3"), ex("x4")]
        )
        assert en.iaut_level(psi) == 3

    def test_inner_of_degree2(self):
        phi = en.inner(3, ev("[x1,x2]", 3))
        assert en.iaut_level(phi) == 2

    def test_identity(self):
        assert en.iaut_level(en.identity(3)) == float("inf")

    def test_linear_nonidentity_is_level_zero(self):
        assert en.iaut_level(en.linear([[1, 1], [0, 1]])) == 0

    def test_filtration_under_composition(self):
        rng = random.Random(18)
        for case in range(12):
            rank = 3 + case % 3
            a = en.random_tame_iaut(rank, case, 1, 2)
            b = en.random_tame_iaut(rank, case + 50, 1, 3)
            level = en.iaut_level(en.compose(a, b))
            assert level >= min(en.iaut_level(a), en.iaut_level(b))


def level_by_components(phi):
    """The lowest degree of a component of some image minus its generator,
    less 1, split by `degree_components`."""
    lowest = [
        min(mb.degree_components(img - g))
        for img, g in zip(phi.images, mb.generators(phi.rank))
        if not (img - g).is_zero()
    ]
    return min(lowest) - 1 if lowest else float("inf")


def level_by_exponents(phi):
    """The lowest exponent sum of a Fox-row term of some image minus its
    generator, read off the exponent tuples."""
    return min(
        (
            sum(mono)
            for img, g in zip(phi.images, mb.generators(phi.rank))
            for p in (img - g).tpart
            for mono in p.terms
        ),
        default=float("inf"),
    )


class TestIautLevelOracle:
    def cases(self):
        rng = random.Random(33)
        for rank in (3, 4, 5):
            yield None, en.identity(rank)
            for seed in range(4):
                yield None, en.random_tame(rank, seed, 1 + seed % 3, 3)
                yield None, en.random_tame_iaut(rank, seed, 1 + seed % 3, 3)
                yield 0, en.linear(en._random_invertible_matrix(rng, rank))
            for degree in range(2, 6):
                position = rng.randint(1, rank)
                letters = [i for i in range(1, rank + 1) if i != position]
                word = [rng.choice(letters) for _ in range(degree)]
                while word[0] == word[1]:
                    word[1] = rng.choice(letters)
                f = Sum(((rng.choice([-2, 1, 3]), LeftNormed(tuple(word))),))
                yield degree - 1, en.elementary(rank, f, position)

    def test_matches_both_routes(self):
        levels = []
        for expected, phi in self.cases():
            level = en.iaut_level(phi)
            assert level == level_by_components(phi) == level_by_exponents(phi)
            if expected is not None:
                assert level == expected
            levels.append(level)
        assert {0, 1, 2, 3, 4, float("inf")} <= set(levels)

    def test_an_entry_of_mixed_degrees_gives_its_lowest(self):
        # x1 -> x1 + [x2,x3] + [[x2,x3],x3]: Fox entries with terms of
        # degrees 1 and 2
        phi = en.from_exprs(3, [ex("x1 + [x2,x3] + [[x2,x3],x3]"), ex("x2"), ex("x3")])
        assert en.iaut_level(phi) == 1
        phi = en.from_exprs(3, [ex("x1"), ex("x2 + [[x1,x3],x3]"), ex("x3 - [x1,x3]")])
        assert en.iaut_level(phi) == 1


class TestRandomTame:
    def test_length_zero_is_identity(self):
        assert en.random_tame(3, 5, 0) == en.identity(3)

    def test_deterministic(self):
        a = en.random_tame(4, 42, 3, 3)
        b = en.random_tame(4, 42, 3, 3)
        assert a == b
        assert en.random_tame_iaut(4, 42, 2, 2) == en.random_tame_iaut(4, 42, 2, 2)

    def test_distinct_seeds_differ(self):
        assert en.random_tame(4, 1, 3, 3) != en.random_tame(4, 2, 3, 3)


def melement_coeffs(*elems):
    for f in elems:
        yield from f.linear
        for p in f.tpart:
            yield from p.terms.values()


def endo_coeffs(*phis):
    for phi in phis:
        yield from melement_coeffs(*phi.images)


def expr_coeffs(e):
    if isinstance(e, LeftNormed):
        for a in e.letters:
            if type(a) is not int:
                yield from expr_coeffs(a)
    elif isinstance(e, Sum):
        for c, part in e.parts:
            yield c
            yield from expr_coeffs(part)


def assert_int(coeffs):
    for c in coeffs:
        assert type(c) is int, f"{c!r} is a {type(c).__name__}"


def assert_exact(coeffs):
    for c in coeffs:
        assert type(c) in (int, Fraction), f"{c!r} is a {type(c).__name__}"


class TestCoefficientConvention:
    """Integer inputs keep every stored coefficient an int; rational inputs
    never produce a float."""

    @settings(max_examples=12)
    @given(st.integers(0, 10**6))
    def test_integer_iaut_products_store_int(self, seed):
        phi = en.random_tame_iaut(4, seed, 3, 3)
        psi = en.random_tame_iaut(4, seed + 1, 3, 3)
        inv = en.inverse(phi)
        assert inv is not None
        gens = [mb.generator(4, i) for i in range(1, 5)]
        value = mb.evaluate(ex("2*[[x1,x2],x3] - [x4,x1] + 3*x2"), 4)
        assert_int(endo_coeffs(phi, psi, en.compose(phi, psi), inv))
        assert_int(melement_coeffs(value, mb.bracket(value, gens[0]), *gens))
        assert_int(melement_coeffs(value.scaled(-3), -value, value - gens[1]))
        for img in phi.images + inv.images:
            assert_int(expr_coeffs(mb.lift(img)))
        assert_int(expr_coeffs(ex("-2*[x1,x2] + 4/2*x3 - x1")))
        assert_int(c for row in en.jacobian(phi).rows for p in row for c in p.terms.values())

    @settings(max_examples=12)
    @given(st.integers(0, 10**6))
    def test_rational_inputs_stay_exact(self, seed):
        phi = en.random_tame(3, seed, 3, 3)
        inv = en.inverse(phi)
        assert inv is not None and en.compose(inv, phi) == en.identity(3)
        value = mb.evaluate(ex("1/2*[[x1,x2],x3] - 2/3*x2"), 3)
        assert_exact(endo_coeffs(phi, inv, en.compose(inv, phi)))
        assert_exact(melement_coeffs(value, value.scaled(Fraction(3, 4)), mb.bracket(value, value)))
        for img in inv.images:
            assert_exact(expr_coeffs(mb.lift(img)))
        assert_int(mb.evaluate(ex("2*(1/2*x1)"), 1).linear)


# calls no other test makes: each case is the value the call returns, or the
# (type, message) of the exception it raises
EDGE_CASES = {
    "image of another rank": (
        lambda: en.Endo(2, (mb.generator(2, 1), mb.generator(3, 2))),
        (ValueError, "image rank mismatch"),
    ),
    "too few cached expressions": (
        lambda: en.Endo(2, mb.generators(2), (parse_expr("x1"),)),
        (ValueError, "need exactly one cached expression per generator"),
    ),
    "elementary position out of range": (
        lambda: en.elementary(3, parse_expr("[x1, x2]"), 4),
        (ValueError, "position 4 out of range 1..3"),
    ),
    "inner of another rank": (
        lambda: en.inner(3, mb.evaluate(parse_expr("[x1, x2]"), 2)),
        (ValueError, "rank mismatch"),
    ),
    "induced map on a non-polynomial": (
        lambda: en.apply_induced(en.identity(2), "y1"),
        (TypeError, "expected a PolyMatrix"),
    ),
    "induced map on a polynomial": (
        lambda: en.apply_induced(en.identity(2), Polynomial.variable(2, 1)),
        (TypeError, "expected a PolyMatrix"),
    ),
    "conjugate by alpha of another rank": (
        lambda: en.conjugate_elementary([[1, 0], [0, 1]], parse_expr("[x2, x3]"), 3),
        (ValueError, "alpha has the wrong rank"),
    ),
    "tame IA product at rank 2": (
        lambda: en.random_tame_iaut(2, 0, 1),
        (ValueError, "nontrivial conjugated-elementary factors need rank >= 3"),
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected, outcome):
    assert outcome(call) == expected
