"""Endomorphism constructors, composition, Jacobians, inverse, filtration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.endos as en
import metalie.metabelian as mb
from metalie.lieexpr import Bracket, Scale, Sum, left_normed, parse_expr
from metalie.polyring import (
    PolyMatrix,
    Polynomial,
    parse_polynomial,
    row_vector,
    unit_column,
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
        expected = PolyMatrix.identity(3, 3) + unit_column(3, 3, 1) * mb.fox(
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
            en.elementary(3, left_normed([0, 2]))

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
            if z.is_zero():
                continue
            d = en.jacobian(en.inner(rank, z)).det()
            assert d == Polynomial.one(rank)


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
        assert en.compose(en.inner(3, z), en.inner(3, -z)).is_identity()

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
        assert phi_col == unit_column(3, 3, 1)
        assert psi_row == mb.fox(ev("[x2,x3]", 3))

    def test_swap_conjugator(self):
        # alpha sends x1 <-> x2, so alphabar swaps y1, y2 inside the Fox row
        # (0, -y3, y2) before the column mix by A: Psi = (-y3, 0, y1).
        conj, phi_col, psi_row = en.conjugate_elementary(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]], ex("[x2,x3]"), 3
        )
        assert phi_col == unit_column(3, 3, 2)
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

    def test_singular_alpha_rejected(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            en.conjugate_elementary([[1, 1, 0], [1, 1, 0], [0, 0, 1]], ex("[x2,x3]"), 3)


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
            assert en.compose(phi, inv).is_identity()
            assert en.compose(inv, phi).is_identity()
            again = en.inverse(inv)
            assert again == phi

    def test_det_of_tame_jacobian_is_constant(self):
        for case in range(6):
            rank = 2 + case % 4
            phi = en.random_tame(rank, case + 100, 2, 3)
            d = en.jacobian(phi).det()
            assert d.is_constant() and d.constant_term() != 0


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


class TestRandomTame:
    def test_length_zero_is_identity(self):
        assert en.random_tame(3, 5, 0).is_identity()

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


def scale_coeffs(e):
    if isinstance(e, Scale):
        yield e.coeff
        yield from scale_coeffs(e.arg)
    elif isinstance(e, Bracket):
        yield from scale_coeffs(e.left)
        yield from scale_coeffs(e.right)
    elif isinstance(e, Sum):
        for part in e.parts:
            yield from scale_coeffs(part)


def assert_int(coeffs):
    for c in coeffs:
        assert type(c) is int, f"{c!r} is a {type(c).__name__}"


def assert_exact(coeffs):
    for c in coeffs:
        assert type(c) in (int, Fraction), f"{c!r} is a {type(c).__name__}"


class TestCoefficientConvention:
    """Integer inputs keep every stored coefficient an int; rational inputs
    never produce a float."""

    @settings(max_examples=12, deadline=None, derandomize=True)
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
            assert_int(scale_coeffs(mb.lift(img)))
        assert_int(scale_coeffs(ex("-2*[x1,x2] + 4/2*x3 - x1")))
        assert_int(c for row in en.jacobian(phi).rows for p in row for c in p.terms.values())

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_rational_inputs_stay_exact(self, seed):
        phi = en.random_tame(3, seed, 3, 3)
        inv = en.inverse(phi)
        assert inv is not None and en.compose(inv, phi).is_identity()
        value = mb.evaluate(ex("1/2*[[x1,x2],x3] - 2/3*x2"), 3)
        assert_exact(endo_coeffs(phi, inv, en.compose(inv, phi)))
        assert_exact(melement_coeffs(value, value.scaled(Fraction(3, 4)), mb.bracket(value, value)))
        for img in inv.images:
            assert_exact(scale_coeffs(mb.lift(img)))
        assert_int(mb.evaluate(ex("2*(1/2*x1)"), 1).linear)
