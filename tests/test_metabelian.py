"""Normal forms, bracket rule, Fox derivatives, lift, grading."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.metabelian as mb
from metalie import polyring
from metalie.lieexpr import (
    LeftNormed,
    Sum,
    ZERO_EXPR,
    combination,
    format_expr,
    left_normed,
    parse_expr,
)
from metalie.polyring import Polynomial, _mono_ops, y_column


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

    # a zero coefficient reaches the word and bracket branches as a zero
    # multiplier; on generators and on non-generator images it gives zero
    @pytest.mark.parametrize(
        "text",
        [
            "0*[x1,x2]",
            "0*[[x1,x2],x3]",
            "0*[[x1,x2],[x3,x1]]",
            "0*[x1,[x2,x3]]",
            "0*x1 + 0*(x2 + [x1,x3])",
        ],
    )
    def test_zero_coefficient(self, text):
        assert ev(text, 3) == mb.zero(3)
        images = rational_images(random.Random(7), 3)
        assert mb.eval_with(parse_expr(text), images) == mb.zero(3)
        assert ev(f"[x2,x1] + {text}", 3) == ev("[x2,x1]", 3)

    def test_linear_part_is_the_abelianization(self):
        # independent oracle: the abelianization read off the tree, where a
        # generator contributes its coefficient and a bracket contributes 0
        from metalie.verify import random_melement_expr

        def abelian(e, rank, c=Fraction(1)):
            out = [Fraction(0)] * rank
            if type(e) is int:
                out[e - 1] = c
            elif isinstance(e, Sum):
                for k, p in e.parts:
                    out = [a + b for a, b in zip(out, abelian(p, rank, c * k))]
            return out

        rng = random.Random(33)
        for case in range(200):
            rank = rng.randint(2, 5)
            e = random_melement_expr(rng, rank, 4)
            if case % 4 == 0:
                bracket = LeftNormed((e, random_melement_expr(rng, rank, 2)))
                e = Sum(((1, e), (1, bracket)))
            assert list(mb.evaluate(e, rank).linear) == abelian(e, rank)


def folded(values):
    """The left-normed bracket of the letter values, as a left fold of the
    binary `mb.bracket`: the oracle of the word evaluator."""
    return reduce(mb.bracket, values)


def letter_values(letters, images):
    return [
        images[a - 1] if type(a) is int else mb.eval_with(a, images) for a in letters
    ]


def random_letter(rng, rank):
    """An index, or an expression letter: a Sum with Fraction coefficients
    over generators and words, a word, or zero."""
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(1, rank)
    if roll < 0.55:
        return left_normed(rng.randint(1, rank) for _ in range(rng.randint(2, 4)))
    if roll < 0.6:
        return ZERO_EXPR
    terms = [
        (Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])), i)
        for i in rng.sample(range(1, rank + 1), rng.randint(1, rank))
    ]
    if rng.random() < 0.5:
        word = left_normed(rng.randint(1, rank) for _ in range(rng.randint(2, 3)))
        terms.append((Fraction(rng.choice([-5, 1, 3]), 2), word))
    return Sum(tuple(terms))


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
            assert mb.eval_with(LeftNormed(tuple(word)), images) == folded(
                letter_values(word, images)
            )

    def test_matches_nested_brackets_on_generators(self):
        rng = random.Random(32)
        for _ in range(100):
            rank = rng.randint(2, 5)
            word = [rng.randint(1, rank) for _ in range(rng.randint(2, 12))]
            assert mb.evaluate(LeftNormed(tuple(word)), rank) == folded(
                letter_values(word, mb.generators(rank))
            )

    def test_expression_letters_match_a_fold_of_brackets(self):
        rng = random.Random(34)
        shapes = set()
        for case in range(200):
            rank = 2 + case % 4
            letters = tuple(
                random_letter(rng, rank) for _ in range(rng.randint(2, 5))
            )
            shapes.update(type(a).__name__ for a in letters)
            images = mb.generators(rank)
            if case % 2:
                images = rational_images(rng, rank)
            want = folded(letter_values(letters, images))
            assert mb.eval_with(LeftNormed(letters), images) == want
        assert shapes == {"int", "LeftNormed", "Sum"}

    def test_every_letter_is_range_checked(self):
        words = [(3, 1), (1, 3), (1, 2, 3), (1, 2, 2, 3), (0, 1), (1, 0)]
        for e in [LeftNormed(w) for w in words] + [0, -1]:
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
            rhs = mb.fox(v) * u.linear_poly - mb.fox(u) * v.linear_poly
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

    def test_generator_lifts_to_its_index(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                e = mb.lift(mb.generator(n, i))
                assert type(e) is int and e == i
                assert mb.evaluate(e, n) == mb.generator(n, i)

    def test_linear_head(self):
        f = ev("x1 - 2*x3 + [x2,x3]", 3)
        assert mb.evaluate(mb.lift(f), 3) == f

    def test_rejects_elements_outside_m(self):
        # the Fox row (y2, 0) gives y1*y2 != 0 against the column of variables;
        # the constructor is where membership is checked, so lift never sees it
        with pytest.raises(ValueError, match="not in M_n"):
            mb.MElement(2, (Polynomial.variable(2, 2), Polynomial.zero(2)))

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
            with pytest.raises(ValueError, match="not in M_n"):
                mb.MElement(rank, tuple(tpart))

    def test_lifts_are_sums_of_flat_words(self):
        rng = random.Random(15)
        for _ in range(40):
            rank = rng.randint(2, 5)
            e = mb.lift(rand_element(rng, rank, 6))
            for _, t in e.parts if isinstance(e, Sum) else ((1, e),):
                assert type(t) is int or isinstance(t, LeftNormed)

    def test_parts_count_the_printed_terms(self):
        # the lift's term count is read as len(e.parts), 1 for a bare term,
        # and a lift is never a one-term Sum with coefficient 1
        elements = oracle_lift_elements() + pinned_lift_elements()
        assert {f.rank for f in elements} == {2, 3, 4, 5, 6}
        for f in elements:
            e = mb.lift(f)
            assert len(getattr(e, "parts", (e,))) == printed_terms(format_expr(e))
            assert not (isinstance(e, Sum) and len(e.parts) == 1 and e.parts[0][0] == 1)

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

    def test_printed_lifts_are_pinned(self):
        texts = [format_expr(mb.lift(f)) for f in pinned_lift_elements()]
        digests = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]
        assert digests == PINNED_LIFT_DIGESTS

    def test_matches_sorting_lift(self):
        for f in oracle_lift_elements():
            assert mb.lift(f) == sorting_lift(f)

    def test_sorts_no_term_map(self, monkeypatch):
        # every term is read once from the Fox row, in stored order; the
        # oracle shows the counter sees a sort when there is one
        calls = []
        real = polyring.SparseTerms.sorted_terms
        monkeypatch.setattr(
            polyring.SparseTerms,
            "sorted_terms",
            lambda self: calls.append(self) or real(self),
        )
        elements = oracle_lift_elements()
        for f in elements:
            mb.lift(f)
        assert calls == []
        sorting_lift(elements[1])
        assert calls


def printed_terms(text):
    """The number of terms of a printed sum, read off the text: one more than
    its ' + ' and ' - ' separators outside brackets, and none for "0"."""
    depth = separators = 0
    for i, ch in enumerate(text):
        depth += (ch in "[(") - (ch in ")]")
        separators += depth == 0 and text[i : i + 3] in (" + ", " - ")
    return 0 if text == "0" else separators + 1


def sorting_lift(f):
    """The lift as it was before groups were sorted without a key (the
    oracle of `mb.lift`): every Fox-row term in print order through
    `sorted_terms`, letters spelled out here, grouped by (-m, i), each
    coefficient paired with its word and the whole through `combination`."""
    terms = [(c, i) for i, c in enumerate(f.linear, 1) if c]
    groups = {}
    for i, p in enumerate(f.tpart, 1):
        for mono, c in p.sorted_terms():
            word = tuple(j for j, e in enumerate(mono, 1) for _ in range(e))
            if not word or word[-1] <= i:
                continue
            word = (i, word[-1], *word[:-1])
            if len(word) % 2 == 0:
                c = -c
            groups.setdefault((-word[1], i), []).append((c, LeftNormed(word)))
    for key in sorted(groups):
        terms += groups[key]
    return combination(terms)


def oracle_lift_elements():
    """Seeded elements of M_n at ranks 2-6: sums of left-normed words and
    brackets of words of degree up to 8 with Fraction coefficients, some
    with a rational linear part, plus zero and purely linear elements."""
    rng = random.Random(2525)
    out = []
    for k in range(60):
        rank = 2 + k % 5
        if k % 10 == 0:
            out.append(mb.zero(rank))
            continue
        terms = []
        if k % 3 == 0 or k % 10 == 5:
            for i in range(1, rank + 1):
                c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                terms.append((c, i))
        if k % 10 != 5:  # k % 10 == 5: purely linear
            for _ in range(rng.randint(1, 5)):
                word = left_normed(
                    rng.randint(1, rank) for _ in range(rng.randint(2, 8))
                )
                if rng.random() < 0.25:
                    right = left_normed((rng.randint(1, rank), 1))
                    word = LeftNormed(word.letters + (right,))
                c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 3, 4]))
                terms.append((c, word))
        out.append(mb.evaluate(Sum(tuple(terms)), rank))
    assert any(mb.is_derived(f) and not f.is_zero() for f in out)
    return out


@settings(max_examples=300)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 8).flatmap(
                lambda d: st.lists(
                    st.lists(st.integers(1, n), min_size=d, max_size=d).map(
                        lambda w: tuple(sorted(w))
                    ),
                    min_size=2,
                    max_size=12,
                    unique=True,
                )
            ),
        )
    )
)
def test_letter_order_is_print_order(case):
    # for ascending letter tuples of one length, plain tuple order is the
    # print order of their monomials, which is what lets `lift` sort its
    # groups with no key
    n, words = case
    key = _mono_ops(n)[1]

    def mono(word):
        return tuple(word.count(j) for j in range(1, n + 1))

    assert [mono(w) for w in sorted(words)] == sorted(map(mono, words), key=key)


def rational_images(rng, rank):
    """Images that are not generators: each a linear form with rational
    coefficients (some zero) plus a combination of short words."""
    out = []
    for _ in range(rank):
        terms = [
            (Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])), i)
            for i in range(1, rank + 1)
        ]
        for _ in range(rng.randint(0, 2)):
            word = left_normed(rng.randint(1, rank) for _ in range(rng.randint(2, 3)))
            terms.append((rng.choice([-2, 1, Fraction(1, 2)]), word))
        out.append(mb.evaluate(Sum(tuple(terms)), rank))
    return out


def product_bracket(u, v):
    """[a+t, b+s] = a.s - b.t with Polynomial arithmetic, built through the
    checking constructor (test-local oracle of the kernels' bracket)."""
    n = u.rank

    def lin(f):
        a = Polynomial.zero(n)
        for j, c in enumerate(f.linear, 1):
            a = a + Polynomial.variable(n, j) * c
        return a

    a, b = lin(u), lin(v)
    return mb.MElement(n, tuple(a * s - b * t for t, s in zip(u.tpart, v.tpart)))


class TestEvalWithWords:
    def test_word_is_a_fold_of_brackets(self):
        rng = random.Random(2626)
        for case in range(80):
            rank = 2 + case % 4
            images = rational_images(rng, rank)
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(2, 8)))
            want = reduce(product_bracket, [images[i - 1] for i in word])
            assert mb.eval_with(LeftNormed(word), images) == want
            c = Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 2, 7]))
            scaled = Sum(((c, LeftNormed(word)),))
            assert mb.eval_with(scaled, images) == want.scaled(c)

    def test_images_have_rational_linear_parts(self):
        rng = random.Random(2626)
        images = rational_images(rng, 3)
        assert any(type(c) is Fraction for f in images for c in f.linear)
        assert all(f not in mb.generators(3) for f in images)


class TestMElementContract:
    """The linear part is computed once per element and kept outside the
    dataclass fields."""

    def test_read_element_equals_fresh_one(self):
        rng = random.Random(2727)
        for _ in range(20):
            read = rand_element(rng, rng.randint(2, 5))
            read.linear, read.linear_poly, mb.lift(read)
            fresh = mb.MElement(read.rank, read.tpart)
            assert read == fresh and fresh == read
            assert hash(read) == hash(fresh)
            assert repr(read) == repr(fresh)
            assert {read: 1}[fresh] == 1

    def test_linear_part_is_kept(self):
        f = ev("2*x1 - x3 + [x1,x2]", 3)
        assert f.linear is f.linear
        assert f.linear_poly is f.linear_poly
        assert f.linear == (2, 0, -1)
        assert str(f.linear_poly) == "2*y1 - y3"

    def test_fields_are_rank_and_tpart(self):
        f = ev("x1 + [x1,x2]", 2)
        f.linear
        assert [fl.name for fl in dataclasses.fields(mb.MElement)] == ["rank", "tpart"]
        assert [fl.name for fl in dataclasses.fields(f)] == ["rank", "tpart"]

    def test_attributes_are_read_only(self):
        f = ev("x1 + [x1,x2]", 2)
        f.linear
        for name, value in [("rank", 3), ("tpart", ()), ("linear", (0, 0))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.linear
        assert f.linear == (1, 0)


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


def pinned_lift_elements():
    """40 seeded elements of M_n: ranks 2-6, bracket words of degree <= 6
    with rational coefficients, every third element with a rational linear
    part."""
    rng = random.Random(1312)
    out = []
    for k in range(40):
        rank = 2 + k % 5
        terms = []
        if k % 3 == 0:
            for i in range(1, rank + 1):
                c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7]))
                if c:
                    terms.append((c, i))
        for _ in range(rng.randint(1, 6)):
            word = [rng.randint(1, rank) for _ in range(rng.randint(2, 6))]
            if word[0] == word[1]:
                word[1] = word[0] % rank + 1
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3, 5]))
            terms.append((c, left_normed(word)))
        out.append(mb.evaluate(Sum(tuple(terms)), rank))
    return out


# the first 16 hex digits of the SHA-256 of each printed lift, in order
PINNED_LIFT_DIGESTS = [
    "e4cb600750085b09",
    "3443b486f9dc4ac2",
    "4f11e941ee17b6f6",
    "b71ead6b2d9e60d4",
    "c4b4000b4245d178",
    "384c1ad2838447ee",
    "eed792a5b2b09228",
    "9ddcdd11acd620e2",
    "dadd1a461caa5d02",
    "0a11b8ef16e0a405",
    "ed0cb1df763c71a4",
    "3c457133b9153a5e",
    "16a59e8f8e7192ef",
    "7e7b280e782469d4",
    "01fb6e205cb5ba8a",
    "91f29ae2dd33ecd2",
    "534f809880cbc658",
    "1f13233f7d5866e2",
    "a0635fc54263b145",
    "00c59e0805d18128",
    "7870150bd7b31d63",
    "fb0a747b978ba040",
    "8ad85d2684160a63",
    "456b7de1dbe86f2c",
    "429667fdaa2b3124",
    "21f98fe50470b425",
    "8c34045f0a4d401a",
    "0979166b2ee31778",
    "756a6f0ab8279e0d",
    "bc8ab2659ed20044",
    "3ce5fc57a714f6b8",
    "7ca07318545ed75b",
    "a1a5b19efb1a59b7",
    "251f7fd9bba9aac2",
    "f768af204453202b",
    "c5606575c59a8cbd",
    "078818db425096c0",
    "2b0556b5ae234e81",
    "4e6e4119eced23e0",
    "53ce9687d35ae3f2",
]


# calls no other test makes: each case is the value the call returns, or the
# (type, message) of the exception it raises
EDGE_CASES = {
    "Fox row of the wrong length": (
        lambda: mb.MElement(2, (Polynomial.zero(2),)),
        (ValueError, "component length must equal the rank"),
    ),
    "Fox row in the wrong ring": (
        lambda: mb.MElement(2, (Polynomial.zero(3), Polynomial.zero(3))),
        (ValueError, "module coordinate in the wrong ring"),
    ),
    "sum of two ranks": (
        lambda: mb.generator(2, 1) + mb.generator(3, 1),
        (ValueError, "rank mismatch: 2 vs 3"),
    ),
    "no images": (
        lambda: mb.eval_with(1, []),
        (ValueError, "cannot evaluate with an empty image list"),
    ),
    "images of two ranks": (
        lambda: mb.eval_with(2, [mb.generator(2, 1), mb.generator(3, 1)]),
        (ValueError, "rank mismatch: 3 vs 2"),
    ),
    "not an expression": (
        lambda: mb.eval_with("x1", mb.generators(2)),
        (TypeError, "not a LieExpr: 'x1'"),
    ),
    "scaled by a bool": (
        lambda: mb.generator(2, 1).scaled(True),
        (TypeError, "expected an exact rational, got bool"),
    ),
    "scaled by an integral fraction": (
        lambda: repr(mb.generator(2, 1).scaled(Fraction(-4, 2)).linear),
        "(-2, 0)",
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected, outcome):
    assert outcome(call) == expected
