"""Normal forms, bracket rule, Fox derivatives, lift, grading."""

import random
from fractions import Fraction

import pytest

import metalie.metabelian as mb
from metalie.lieexpr import (
    Bracket,
    Gen,
    LeftNormed,
    Scale,
    Sum,
    ZERO_EXPR,
    parse_expr,
)
from metalie.polyring import Polynomial, y_column


def tp(f):
    return [str(p) for p in f.tpart]


def ev(text, rank):
    return mb.evaluate(parse_expr(text), rank)


def rand_derived(rng, rank, degree=4):
    from metalie.endos import random_derived_expr

    return mb.evaluate(random_derived_expr(rng, rank, degree), rank)


def rand_element(rng, rank, degree=4):
    from metalie.verify import random_melement_expr

    return mb.evaluate(random_melement_expr(rng, rank, degree), rank)


class TestGenerator:
    def test_first_of_two(self):
        x1 = mb.generator(2, 1)
        assert x1.linear == (1, 0)
        assert tp(x1) == ["1", "0"]

    def test_second_of_three(self):
        x2 = mb.generator(3, 2)
        assert x2.linear == (0, 1, 0)
        assert tp(x2) == ["0", "1", "0"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mb.generator(3, 4)


class TestBracket:
    def test_basic(self):
        v = ev("[x1,x2]", 3)
        assert v.linear == (0, 0, 0)
        assert tp(v) == ["-y2", "y1", "0"]

    def test_self_bracket_vanishes(self):
        u = ev("x1 + 2*[x2,x3]", 3)
        assert mb.bracket(u, u).is_zero()

    def test_metabelian_identity(self):
        a = ev("[x1,x2]", 3)
        b = ev("[x1,x3]", 3)
        assert mb.bracket(a, b).is_zero()

    def test_antisymmetry_and_bilinearity_randomized(self):
        rng = random.Random(2)
        for _ in range(50):
            rank = rng.randint(2, 4)
            u, v, w = (rand_element(rng, rank) for _ in range(3))
            assert mb.bracket(u, v) == -mb.bracket(v, u)
            assert mb.bracket(u + v, w) == mb.bracket(u, w) + mb.bracket(v, w)
            assert mb.bracket(u.scaled(3), v) == mb.bracket(u, v).scaled(3)

    def test_jacobi_randomized(self):
        rng = random.Random(5)
        for _ in range(40):
            rank = rng.randint(2, 4)
            u, v, w = (rand_element(rng, rank, 3) for _ in range(3))
            total = (
                mb.bracket(mb.bracket(u, v), w)
                + mb.bracket(mb.bracket(v, w), u)
                + mb.bracket(mb.bracket(w, u), v)
            )
            assert total.is_zero()

    def test_ad_square_zero(self):
        rng = random.Random(6)
        for _ in range(30):
            rank = rng.randint(2, 4)
            z = rand_derived(rng, rank)
            u = rand_element(rng, rank)
            assert mb.bracket(z, mb.bracket(z, u)).is_zero()


class TestEvaluate:
    def test_left_normed_word(self):
        v = ev("[[x1,x2],x3]", 3)
        assert tp(v) == ["y2*y3", "-y1*y3", "0"]

    def test_sum_of_generators(self):
        v = ev("x1 + x2", 3)
        assert v.linear == (1, 1, 0)
        assert tp(v) == ["1", "1", "0"]

    def test_scalar(self):
        v = ev("2*[x1,x2]", 3)
        assert tp(v) == ["-2*y2", "2*y1", "0"]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            ev("x4", 3)

    def test_linear_part_is_the_abelianization(self):
        # independent oracle: the abelianization read off the tree, where a
        # generator contributes its coefficient and a bracket contributes 0
        from metalie.verify import random_melement_expr

        def abelian(e, rank, c=Fraction(1)):
            out = [Fraction(0)] * rank
            if isinstance(e, Gen):
                out[e.index - 1] = c
            elif isinstance(e, Scale):
                out = abelian(e.arg, rank, c * e.coeff)
            elif isinstance(e, Sum):
                for p in e.parts:
                    out = [a + b for a, b in zip(out, abelian(p, rank, c))]
            return out

        rng = random.Random(33)
        for case in range(200):
            rank = rng.randint(2, 5)
            e = random_melement_expr(rng, rank, 4)
            if case % 4 == 0:
                e = Sum((e, Bracket(e, random_melement_expr(rng, rank, 2))))
            assert list(mb.evaluate(e, rank).linear) == abelian(e, rank)


def nested(word):
    """The left-normed word as a tree of binary Brackets, built by hand."""
    e = Gen(word[0])
    for i in word[1:]:
        e = Bracket(e, Gen(i))
    return e


class TestLeftNormedWord:
    def test_matches_nested_brackets_on_random_images(self):
        rng = random.Random(31)
        for case in range(150):
            rank = rng.randint(2, 4)
            images = [rand_element(rng, rank, 3) for _ in range(rank)]
            if case % 3 == 0:
                # rational images, and one image with no linear part
                images = [g.scaled(Fraction(rng.choice([-3, 1, 5]), 2)) for g in images]
                images[rng.randrange(rank)] = rand_derived(rng, rank, 3)
            word = [rng.randint(1, rank) for _ in range(rng.randint(2, 7))]
            assert mb.eval_with(LeftNormed(tuple(word)), images) == mb.eval_with(
                nested(word), images
            )

    def test_matches_nested_brackets_on_generators(self):
        rng = random.Random(32)
        for _ in range(100):
            rank = rng.randint(2, 5)
            word = [rng.randint(1, rank) for _ in range(rng.randint(2, 12))]
            assert mb.evaluate(LeftNormed(tuple(word)), rank) == mb.evaluate(
                nested(word), rank
            )

    def test_every_letter_is_range_checked(self):
        words = [(3, 1), (1, 3), (1, 2, 3), (1, 2, 2, 3), (0, 1), (1, 0)]
        for e in [LeftNormed(w) for w in words] + [Gen(0), Gen(-1)]:
            with pytest.raises(ValueError):
                mb.evaluate(e, 2)


class TestFox:
    def test_generator_rows(self):
        for i in range(1, 4):
            row = mb.fox(mb.generator(3, i))
            assert [str(p) for p in row.rows[0]] == [
                "1" if j == i - 1 else "0" for j in range(3)
            ]

    def test_bracket_row(self):
        row = mb.fox(ev("[x1,x2]", 3))
        assert [str(p) for p in row.rows[0]] == ["-y2", "y1", "0"]

    def test_bracket_with_x1_scales_by_minus_y1(self):
        rng = random.Random(7)
        for _ in range(20):
            rank = rng.randint(2, 4)
            z = rand_derived(rng, rank)
            lhs = mb.fox(mb.bracket(z, mb.generator(rank, 1)))
            rhs = mb.fox(z) * Polynomial.variable(rank, 1) * Fraction(-1)
            assert lhs == rhs

    def test_bracket_rule_randomized(self):
        # fox([u,v]) = ubar * fox(v) - vbar * fox(u)
        rng = random.Random(8)
        for _ in range(30):
            rank = rng.randint(2, 4)
            u, v = rand_element(rng, rank), rand_element(rng, rank)
            lhs = mb.fox(mb.bracket(u, v))
            rhs = mb.fox(v) * u.linear_poly() - mb.fox(u) * v.linear_poly()
            assert lhs == rhs


class TestIsDerived:
    def test_bracket_is_derived(self):
        v = ev("[x1,x2]", 3)
        assert mb.is_derived(v)
        # the defining contraction: (-y2)*y1 + y1*y2 = 0
        assert (mb.fox(v) * y_column(3))[0, 0].is_zero()

    def test_generator_is_not(self):
        assert not mb.is_derived(mb.generator(3, 1))

    def test_zero_is_derived(self):
        assert mb.is_derived(mb.zero(3))

    def test_both_directions_randomized(self):
        rng = random.Random(9)
        for _ in range(40):
            rank = rng.randint(2, 4)
            assert mb.is_derived(rand_derived(rng, rank))
            g = rand_element(rng, rank)
            if any(c != 0 for c in g.linear):
                assert not mb.is_derived(g)


class TestLift:
    def test_single_bracket(self):
        f = ev("[x1,x2]", 3)
        assert mb.lift(f) == parse_expr("[x1,x2]")

    def test_left_normed_roundtrip(self):
        f = ev("[[x1,x2],x3]", 3)
        assert mb.evaluate(mb.lift(f), 3) == f

    def test_zero(self):
        assert mb.lift(mb.zero(3)) == ZERO_EXPR

    def test_linear_head(self):
        f = ev("x1 - 2*x3 + [x2,x3]", 3)
        assert mb.evaluate(mb.lift(f), 3) == f

    def test_rejects_elements_outside_m(self):
        # the Fox row (y2, 0) gives y1*y2 != 0 against the column of variables
        bad = mb.MElement(2, (Polynomial.variable(2, 2), Polynomial.zero(2)))
        with pytest.raises(ValueError):
            mb.lift(bad)

    def test_rejects_random_elements_outside_m(self):
        # adding p to Fox coordinate i adds p*y_i to d1*y1 + ... + dn*yn; a
        # constant p would only add p*x_i, so the monomial is nonconstant
        rng = random.Random(14)
        for _ in range(60):
            rank = rng.randint(2, 5)
            f = rand_element(rng, rank)
            slot = rng.randrange(rank)
            mono = (0,) * rank
            while not any(mono):
                mono = tuple(rng.randint(0, 2) for _ in range(rank))
            p = Polynomial(rank, {mono: rng.choice([-2, -1, 1, Fraction(1, 3)])})
            tpart = list(f.tpart)
            tpart[slot] = tpart[slot] + p
            with pytest.raises(ValueError):
                mb.lift(mb.MElement(rank, tuple(tpart)))

    def test_lifts_are_sums_of_flat_words(self):
        rng = random.Random(15)
        for _ in range(40):
            rank = rng.randint(2, 5)
            e = mb.lift(rand_element(rng, rank, 6))
            for t in e.parts if isinstance(e, Sum) else (e,):
                arg = t.arg if isinstance(t, Scale) else t
                assert isinstance(arg, (Gen, LeftNormed))

    def test_deterministic(self):
        rng = random.Random(10)
        f = rand_derived(rng, 4, 5)
        assert mb.lift(f) == mb.lift(f)

    def test_roundtrip_randomized(self):
        rng = random.Random(11)
        for _ in range(120):
            rank = rng.randint(2, 5)
            f = rand_derived(rng, rank, 5)
            assert mb.evaluate(mb.lift(f), rank) == f

    def test_roundtrip_with_linear_part(self):
        rng = random.Random(12)
        for _ in range(60):
            rank = rng.randint(2, 4)
            f = rand_element(rng, rank)
            assert mb.evaluate(mb.lift(f), rank) == f


class TestDegreeComponents:
    def test_mixed(self):
        f = ev("x1 + [x1,x2]", 3)
        comps = mb.degree_components(f)
        assert sorted(comps) == [1, 2]
        assert comps[1] == mb.generator(3, 1)
        assert comps[2] == ev("[x1,x2]", 3)

    def test_homogeneous(self):
        f = ev("[[x1,x2],x3]", 3)
        comps = mb.degree_components(f)
        assert list(comps) == [3]
        assert comps[3] == f

    def test_zero(self):
        assert mb.degree_components(mb.zero(3)) == {}

    def test_components_resum_randomized(self):
        rng = random.Random(13)
        for _ in range(40):
            rank = rng.randint(2, 4)
            f = rand_element(rng, rank, 5)
            comps = mb.degree_components(f)
            total = mb.zero(rank)
            for d, part in comps.items():
                total = total + part
                # homogeneity: the only degree present is d
                assert list(mb.degree_components(part)) in ([d], [])
            assert total == f
