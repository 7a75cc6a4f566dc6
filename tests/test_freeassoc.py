"""Free associative algebra: words, bracket expansion, Fox derivatives,
cyclic-word commutator test, degree-4 trace replay."""

import itertools
import json
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.freeassoc as fa
from metalie.cli import MAX_OE_RANK
from metalie.lieexpr import LeftNormed, Sum, left_normed, parse_expr
from metalie.verify import commutator_row_space, random_nc_poly


def NC(rank, *terms):
    return fa.NCPoly(rank, {tuple(w): c for w, c in terms})


def commutator_fold(values):
    """[[u1, u2], ..., um] in the free associative algebra, folded from
    [u, v] = uv - vu: the oracle of the word expansion."""
    return reduce(lambda u, v: u * v - v * u, values)


def rotations(word):
    return {word[k:] + word[:k] for k in range(len(word))} or {word}


class TestNCPoly:
    def test_product_of_generators(self):
        z1, z2 = fa.NCPoly.gen(2, 1), fa.NCPoly.gen(2, 2)
        assert z1 * z2 == NC(2, ((1, 2), 1))

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(25):
            p, q, r = (random_nc_poly(rng, 3, 3, 3) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_unit(self):
        p = NC(2, ((1, 2), 3), ((2,), -1))
        assert fa.NCPoly.one(2) * p == p
        assert p * fa.NCPoly.one(2) == p

    def test_noncommutative(self):
        z1, z2 = fa.NCPoly.gen(2, 1), fa.NCPoly.gen(2, 2)
        assert z1 * z2 != z2 * z1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            fa.NCPoly.gen(2, 1) * fa.NCPoly.gen(3, 1)

    def test_str(self):
        p = NC(4, ((4, 2, 3), 1), ((4, 3, 2), -1))
        assert str(p) == "z4*z2*z3 - z4*z3*z2"

    @pytest.mark.parametrize("letter", [1.5, 2.0, Fraction(2, 1), True, "1"])
    def test_rejects_non_integer_letters(self, letter):
        # each would print as a text that does not parse back (z1.5, zTrue)
        with pytest.raises(ValueError, match="out of range"):
            fa.NCPoly(3, {(1, letter): 1})
        with pytest.raises(ValueError, match="out of range"):
            fa.NCPoly.gen(3, letter)


_rats = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
nc_polys = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=3).map(tuple), _rats, max_size=5
).map(lambda t: fa.NCPoly(3, t))


def assert_normalized(p):
    """p equals its terms passed back through the validating constructor: the
    same dict and no zero coefficient."""
    assert fa.NCPoly(p.rank, p.terms).terms == p.terms
    assert all(c != 0 for c in p.terms.values())


class TestNormalizedResults:
    """NCPoly arithmetic builds its results without re-validating them."""

    @settings(max_examples=80)
    @given(nc_polys, nc_polys, _rats)
    def test_operations(self, p, q, c):
        for x in (p + q, p - q, p - p, -p, p * q, q * p, p * c, c * p):
            assert_normalized(x)
        p0 = p - fa.NCPoly(3, {(): p.constant_term()})
        for i in range(1, 4):
            assert_normalized(fa.fox_assoc(p0, i))
            assert_normalized(fa.NCPoly.gen(3, i))


class TestLieToAssoc:
    def test_basic_bracket(self):
        out = fa.lie_to_assoc(parse_expr("[z1,z2]", "z"), 2)
        assert out == NC(2, ((1, 2), 1), ((2, 1), -1))

    def test_left_normed_hand_expansion(self):
        out = fa.lie_to_assoc(parse_expr("[[z1,z2],z3]", "z"), 3)
        assert out == NC(
            3, ((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 1, 2), -1), ((3, 2, 1), 1)
        )

    def test_word_matches_nested_brackets(self):
        rng = random.Random(3)
        for _ in range(80):
            rank = rng.randint(2, 4)
            word = [rng.randint(1, rank) for _ in range(rng.randint(2, 7))]
            want = commutator_fold([fa.NCPoly.gen(rank, i) for i in word])
            assert fa.lie_to_assoc(LeftNormed(tuple(word)), rank) == want

    def test_expression_letters_match_a_fold_of_commutators(self):
        rng = random.Random(4)
        shapes = set()
        for case in range(120):
            rank = 2 + case % 3
            letters = []
            for _ in range(rng.randint(2, 4)):
                roll = rng.random()
                if roll < 0.4:
                    letters.append(rng.randint(1, rank))
                elif roll < 0.6:
                    word = (rng.randint(1, rank) for _ in range(rng.randint(2, 3)))
                    letters.append(left_normed(word))
                else:
                    terms = [
                        (Fraction(rng.choice([-3, 1, 2]), rng.choice([1, 2])), i)
                        for i in range(1, rank + 1)
                    ]
                    letters.append(Sum(tuple(terms)))
            shapes.update(type(a).__name__ for a in letters)
            values = [
                fa.NCPoly.gen(rank, a) if type(a) is int else fa.lie_to_assoc(a, rank)
                for a in letters
            ]
            want = commutator_fold(values)
            assert fa.lie_to_assoc(LeftNormed(tuple(letters)), rank) == want
        assert shapes == {"int", "LeftNormed", "Sum"}

    def test_self_bracket(self):
        assert fa.lie_to_assoc(parse_expr("[z1,z1]", "z"), 2).is_zero()

    def test_images_are_commutators(self):
        rng = random.Random(2)
        for _ in range(20):
            e = parse_expr("[z1, [z2, z3]]", "z")
            out = fa.lie_to_assoc(e, 3)
            assert fa.in_commutator_subspace(out)


class TestFoxAssoc:
    def test_two_letter_word(self):
        f = NC(2, ((1, 2), 1))
        assert fa.fox_assoc(f, 2) == fa.NCPoly.gen(2, 1)
        assert fa.fox_assoc(f, 1).is_zero()

    def test_bracket(self):
        f = fa.lie_to_assoc(parse_expr("[z1,z2]", "z"), 2)
        assert fa.fox_assoc(f, 1) == -fa.NCPoly.gen(2, 2)
        assert fa.fox_assoc(f, 2) == fa.NCPoly.gen(2, 1)

    def test_degree4_source(self):
        f = fa.lie_to_assoc(fa.source_monomial(), 4)
        d1 = fa.fox_assoc(f, 1)
        assert d1 == NC(4, ((4, 2, 3), 1), ((4, 3, 2), -1))
        # equals z4 * [z2, z3]
        z4 = fa.NCPoly.gen(4, 4)
        assert d1 == z4 * fa.lie_to_assoc(parse_expr("[z2,z3]", "z"), 4)

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            fa.fox_assoc(fa.NCPoly.one(2), 1)

    def test_reconstruction_randomized(self):
        rng = random.Random(3)
        for _ in range(40):
            rank = rng.randint(2, 4)
            f = random_nc_poly(rng, rank, 4)
            total = fa.NCPoly.zero(rank)
            for i in range(1, rank + 1):
                total = total + fa.fox_assoc(f, i) * fa.NCPoly.gen(rank, i)
            assert total == f

    def test_degree_drop_on_homogeneous(self):
        rng = random.Random(4)
        for _ in range(20):
            rank = rng.randint(2, 4)
            d = rng.randint(2, 4)
            f = random_nc_poly(rng, rank, d, 4).homogeneous_component(d)
            for i in range(1, rank + 1):
                dfi = fa.fox_assoc(f, i)
                assert all(len(w) == d - 1 for w in dfi.terms)


class TestCyclicSignature:
    def test_commutator_cancels(self):
        p = NC(2, ((1, 2), 1), ((2, 1), -1))
        assert fa.cyclic_signature(p) == {}

    def test_inequivalent_classes(self):
        # oracle: enumerate rotations to confirm the two words are in
        # different classes before asserting the signature
        assert (2, 4, 3) not in rotations((4, 2, 3))
        p = NC(4, ((4, 2, 3), 1), ((4, 3, 2), -1))
        assert fa.cyclic_signature(p) == {(2, 3, 4): 1, (2, 4, 3): -1}

    def test_unit(self):
        assert fa.cyclic_signature(fa.NCPoly.one(2)) == {(): 1}

    def test_representative_is_least_rotation(self):
        rng = random.Random(5)
        for _ in range(40):
            word = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            rep = fa.cyclic_representative(word)
            assert rep in rotations(word)
            assert all(rep <= r for r in rotations(word))


class TestCommutatorSubspace:
    def test_commutators_pass(self):
        rng = random.Random(6)
        for _ in range(30):
            rank = rng.randint(2, 4)
            u = random_nc_poly(rng, rank, 3, 2)
            v = random_nc_poly(rng, rank, 3, 2)
            assert fa.in_commutator_subspace(u * v - v * u)

    def test_trace_term_fails(self):
        z4 = fa.NCPoly.gen(4, 4)
        s = z4 * fa.lie_to_assoc(parse_expr("[z2,z3]", "z"), 4)
        assert not fa.in_commutator_subspace(s)

    def test_zero_passes(self):
        assert fa.in_commutator_subspace(fa.NCPoly.zero(3))

    def test_agrees_with_span_oracle(self):
        rng = random.Random(7)
        for rank in (2, 3, 4):
            for degree in (1, 2, 3, 4):
                space = commutator_row_space(rank, degree)
                for _ in range(6):
                    p = random_nc_poly(rng, rank, degree, 3).homogeneous_component(
                        degree
                    )
                    assert space.contains(p.terms) == fa.in_commutator_subspace(p)


class TestDegree4Basis:
    def test_rank2_collapses(self):
        assert fa.derived_degree4_basis(2) == []

    def test_rank3_count(self):
        assert len(fa.derived_degree4_basis(3)) == 3

    def test_rank4_count(self):
        assert len(fa.derived_degree4_basis(4)) == 15

    def test_members_are_second_derived(self):
        for e in fa.derived_degree4_basis(4):
            p = fa.lie_to_assoc(e, 4)
            assert {len(w) for w in p.terms} == {4}
            assert fa.in_commutator_subspace(p)


def old_witness_system(rank, s):
    """The witness system built per unknown (i, k), as the replay built it
    before: the cyclic signature of fox_assoc(expansion k, i) is column
    (i - 1) * len(basis) + k, transposed into rows."""
    basis = fa.derived_degree4_basis(rank)
    expansions = [fa.lie_to_assoc(e, rank) for e in basis]
    unknowns = [(i, k) for i in range(1, rank + 1) for k in range(len(basis))]
    columns = [fa.cyclic_signature(fa.fox_assoc(expansions[k], i)) for i, k in unknowns]
    words = itertools.product(range(1, rank + 1), repeat=3)
    class_list = sorted({fa.cyclic_representative(w) for w in words})
    row_of = {cls: r for r, cls in enumerate(class_list)}
    rows = [{} for _ in class_list]
    for u, col in enumerate(columns):
        for cls, c in col.items():
            rows[row_of[cls]][u] = c
    rhs = fa.cyclic_signature(s)
    return tuple(basis), class_list, rows, [-rhs.get(cls, 0) for cls in class_list]


class TestWitnessSystem:
    """The one-pass build of the witness system against the generic route:
    `lie_to_assoc` for the written-out expansions, and per-unknown
    `fox_assoc` and `cyclic_signature` for the rows."""

    @pytest.mark.parametrize("rank", range(2, MAX_OE_RANK + 1))
    def test_expansions_match_lie_to_assoc(self, rank):
        # the quads are the candidates whose expansion does not vanish, and
        # each expansion is eight words with coefficients +-1, as the
        # one-pass build writes them out
        pairs = [(i, j) for i in range(2, rank + 1) for j in range(1, i)]
        want = []
        for a in range(len(pairs)):
            for b in range(a):
                expr = LeftNormed(pairs[a] + (LeftNormed(pairs[b]),))
                expansion = fa.lie_to_assoc(expr, rank)
                if not expansion.is_zero():
                    assert sorted(expansion.terms.values()) == [-1] * 4 + [1] * 4
                    want.append(pairs[a] + pairs[b])
        assert fa._degree4_quads(rank) == want

    @pytest.mark.parametrize("rank", range(4, MAX_OE_RANK + 1))
    def test_rows_match_per_unknown_build(self, rank):
        rng = random.Random(rank)
        source = fa.fox_assoc(fa.lie_to_assoc(fa.source_monomial(), rank), 1)
        other = random_nc_poly(rng, rank, 3, 12).homogeneous_component(3)
        for s in (source, other * Fraction(1, 3)):
            quads, *system = fa._witness_system(rank, s)
            basis, *want = old_witness_system(rank, s)
            exprs = [LeftNormed((*q[:2], LeftNormed(q[2:]))) for q in quads]
            assert tuple(exprs) == basis
            assert system == want

    def test_fox_assoc_not_called_per_unknown(self, monkeypatch):
        calls = []
        fox_assoc = fa.fox_assoc

        def counted(f, i):
            calls.append(i)
            return fox_assoc(f, i)

        monkeypatch.setattr(fa, "fox_assoc", counted)
        rep = fa.replay(6)
        assert rep.witness.verified
        # once for the derivative, then once per witness generator
        assert len(calls) <= 6 + 1 < rep.witness.unknowns


class TestReplay:
    def test_rank_bound(self):
        with pytest.raises(ValueError):
            fa.replay(3)

    def test_parts_a_and_b(self):
        rep = fa.replay(4, include_witness=False)
        assert str(rep.derivative) == "z4*z2*z3 - z4*z3*z2"
        assert rep.in_commutators is False
        assert rep.witness is None

    def test_witness_search(self):
        rep = fa.replay(4)
        w = rep.witness
        assert w is not None
        assert w.solvable
        assert w.verified
        assert w.unknowns == 4 * 15
        assert w.null_space_dimension >= 1

    def test_witness_actually_corrects(self):
        rep = fa.replay(4)
        corrected = rep.derivative
        for i, expr in rep.witness.witness_exprs:
            corrected = corrected + fa.fox_assoc(fa.lie_to_assoc(expr, 4), i)
        assert fa.in_commutator_subspace(corrected)

    def test_deterministic_reports(self):
        a = fa.replay(4)
        b = fa.replay(4)
        assert a.to_text() == b.to_text()
        assert json.dumps(a.to_doc(), sort_keys=True) == json.dumps(
            b.to_doc(), sort_keys=True
        )

    def test_higher_rank_runs(self):
        rep = fa.replay(5)
        assert rep.witness.solvable

    @pytest.mark.parametrize("rank", range(4, MAX_OE_RANK + 1))
    def test_witness_terms_are_basis_elements(self, rank):
        basis = fa.derived_degree4_basis(rank)
        for _, expr in fa.replay(rank).witness.witness_exprs:
            parts = expr.parts if isinstance(expr, Sum) else ((1, expr),)
            terms = [t for _, t in parts]
            assert len(set(terms)) == len(terms)
            assert all(t in basis for t in terms)


class TestWitnessOracle:
    """The witness solve against checks that do not use the cyclic-word
    criterion that builds its equations: membership in the brute-force span of
    all u*v - v*u, and the rank of the system computed by sympy as the
    dimension the corrections add to that span."""

    @pytest.mark.parametrize("rank", [4, 5, 6])
    def test_corrected_sum_in_commutator_span(self, rank):
        rep = fa.replay(rank)
        corrected = rep.derivative
        for i, expr in rep.witness.witness_exprs:
            corrected = corrected + fa.fox_assoc(fa.lie_to_assoc(expr, rank), i)
        space = commutator_row_space(rank, 3)
        assert not space.contains(rep.derivative.terms)
        assert space.contains(corrected.terms)

    @pytest.mark.parametrize("rank", [4, 5, 6])
    def test_null_space_dimension_against_sympy_rank(self, rank):
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.matrices import DomainMatrix

        words = list(itertools.product(range(1, rank + 1), repeat=3))
        column = {w: j for j, w in enumerate(words)}

        def dense(p):
            row = [QQ(0)] * len(words)
            for w, c in p.terms.items():
                row[column[w]] = QQ(c)
            return row

        def sympy_rank(rows):
            return DomainMatrix(rows, (len(rows), len(words)), QQ).rank()

        basis = fa.derived_degree4_basis(rank)
        corrections = [
            dense(fa.fox_assoc(fa.lie_to_assoc(e, rank), i))
            for i in range(1, rank + 1)
            for e in basis
        ]
        commutators = [
            dense(fa.NCPoly(rank, {u + v: 1, v + u: -1}))
            for lu in (1, 2)
            for u in itertools.product(range(1, rank + 1), repeat=lu)
            for v in itertools.product(range(1, rank + 1), repeat=3 - lu)
            if u + v != v + u
        ]
        # the rank of the system is the dimension of the corrections' image in
        # the degree-3 words modulo the commutator span
        system_rank = sympy_rank(corrections + commutators) - sympy_rank(commutators)
        w = fa.replay(rank).witness
        assert w.unknowns == len(corrections)
        assert w.null_space_dimension == w.unknowns - system_rank


# s is already in [U, U], so its witness is the zero correction
ZERO_WITNESS = fa._witness_search(4, fa.NCPoly(4, {(1, 2, 3): 1, (2, 3, 1): -1}))
# calls no other test makes: each case is the value the call returns, or the
# (type, message) of the exception it raises
EDGE_CASES = {
    "expansion of a sum": (
        lambda: fa.lie_to_assoc(parse_expr("[z1,z2] + 2*[z2,z3]", "z"), 3),
        fa.NCPoly(3, {(1, 2): 1, (2, 1): -1, (2, 3): 2, (3, 2): -2}),
    ),
    "expansion of a non-expression": (
        lambda: fa.lie_to_assoc("z1", 3),
        (TypeError, "not a LieExpr: 'z1'"),
    ),
    "Fox derivative by a letter out of range": (
        lambda: fa.fox_assoc(fa.NCPoly.gen(3, 1), 4),
        (ValueError, "letter 4 out of range 1..3"),
    ),
    "degree-4 quads at rank 1": (
        lambda: fa._degree4_quads(1),
        (ValueError, "need rank >= 2"),
    ),
    "unsolvable witness": (
        lambda: fa._witness_search(4, fa.NCPoly(4, {(1, 1, 1): 1})).solvable,
        False,
    ),
    "all-zero witness": (
        lambda: fa.TraceReplay(
            4, 1, fa.NCPoly.zero(4), (), True, ZERO_WITNESS
        ).to_text().splitlines()[-3:-1],
        ["  all v_i = 0", "  corrected sum in [U,U]: verified"],
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected, outcome):
    assert outcome(call) == expected
