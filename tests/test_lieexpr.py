"""The grammar of bracket expressions: parsing, printing, round trips."""

import copy
import pickle
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metalie.metabelian as mb
from metalie.freeassoc import lie_to_assoc
from metalie.lieexpr import (
    MAX_NESTING,
    LeftNormed,
    Sum,
    ZERO_EXPR,
    combination,
    format_expr,
    generators_used,
    left_normed,
    parse_expr,
)
from metalie.polyring import ParseError, as_coeff, format_terms


def test_parse_generator():
    # a generator is its index, a plain int
    assert type(parse_expr("x3")) is int
    assert parse_expr("x3") == 3
    assert parse_expr("z3", letter="z") == 3
    assert parse_expr("(+x3)") == 3


def test_parse_bracket():
    # left-normed nests fold into one flat word node
    assert parse_expr("[x1,x2]") == LeftNormed((1, 2))
    assert parse_expr("[ [x1, x2 ] , x3 ]") == LeftNormed((1, 2, 3))
    # whatever its operands: an operand that is not a generator is a letter
    assert parse_expr("[x1, [x2, x3]]") == LeftNormed((1, LeftNormed((2, 3))))
    assert parse_expr("[[x1, [x2, x3]], x4]") == LeftNormed(
        (1, LeftNormed((2, 3)), 4)
    )
    assert parse_expr("[[x1, x2] + x3, x4]") == LeftNormed(
        (Sum(((1, LeftNormed((1, 2))), (1, 3))), 4)
    )


def test_parse_sum_and_scalars():
    e = parse_expr("x1 + 2*[x1,x2] - 1/2*x3")
    assert e == Sum(
        (
            (1, 1),
            (2, LeftNormed((1, 2))),
            (Fraction(-1, 2), 3),
        )
    )


def test_parse_leading_minus():
    assert parse_expr("-x1") == Sum(((-1, 1),))


def test_parse_zero():
    assert parse_expr("0") == ZERO_EXPR
    assert parse_expr("[0, x1]") == LeftNormed((ZERO_EXPR, 1))


def test_parse_parenthesized_scale():
    e = parse_expr("2*(x1 + x2)")
    assert e == Sum(((2, Sum(((1, 1), (1, 2)))),))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("[x1")
    assert err.value.position == 3


def test_rank_bound():
    with pytest.raises(ParseError):
        parse_expr("x4", rank=3)


# (text, letter, rank, message, offset): one row per raise site of the
# grammar. Offsets point at the offending token, or at the end of the text
# when input runs out; "zero denominator" points where the denominator ends,
# and an out-of-range generator at its letter.
PARSE_ERRORS = [
    ("[x1 x2]", "x", 0, "expected ','", 4),
    ("[x1, x2", "x", 0, "expected ']'", 7),
    ("(x1", "x", 0, "expected ')'", 3),
    ("(x1 + x2 ]", "x", 0, "expected ')'", 9),
    ("2 x1", "x", 0, "expected '*'", 2),
    ("3/4 [x1, x2]", "x", 0, "expected '*'", 4),
    ("0 x1", "x", 0, "expected '*'", 2),
    ("x", "x", 0, "expected an integer", 1),
    ("[x1, x ]", "x", 0, "expected an integer", 7),
    ("1/ x1", "x", 0, "expected an integer", 3),
    ("1/0*x1", "x", 0, "zero denominator", 3),
    ("1/ 00 *x1", "x", 0, "zero denominator", 5),
    ("x0", "x", 0, "generator index 0 out of range 1..n", 0),
    (" [x1, x4]", "x", 3, "generator index 4 out of range 1..3", 6),
    ("x12", "x", 3, "generator index 12 out of range 1..3", 0),
    ("+", "x", 0, "expected 'x<index>', '[' or '('", 1),
    ("1*+x1", "x", 0, "expected 'x<index>', '[' or '('", 2),
    ("y1", "x", 0, "expected 'x<index>', '[' or '('", 0),
    ("x1", "z", 0, "expected 'z<index>', '[' or '('", 0),
    ("", "x", 0, "expected 'x<index>', '[' or '('", 0),
    ("x1 x2", "x", 0, "trailing input", 3),
    ("[x1, x2] ]", "x", 0, "trailing input", 9),
    ("(" * 101 + "x1" + ")" * 101, "x", 0, "nesting deeper than 100 levels", 100),
    ("( " * 101 + "x1", "x", 0, "nesting deeper than 100 levels", 200),
    ("[x1, " * 101 + "x2" + "]" * 101, "x", 0, "nesting deeper than 100 levels", 500),
    # each '+' or '-' that continues a word makes the word read so far one
    # level deeper: the 101st does so past the limit, and its sign is refused
    ("[" * 102 + "x1, x2]" + " + x1, x2]" * 101, "x", 0,
     "nesting deeper than 100 levels", 1110),
    ("[z1, " * 50 + "[" * 52 + "z1, z2]" + "- z1, z2]" * 51, "z", 0,
     "nesting deeper than 100 levels", 759),
    ("[" * 10000 + "x1", "x", 0, "left-normed word longer than 10000 letters", 9999),
    ("[ " * 10000, "x", 0, "left-normed word longer than 10000 letters", 19998),
]


@pytest.mark.parametrize("text, letter, rank, message, offset", PARSE_ERRORS)
def test_parse_error_table(text, letter, rank, message, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text, letter, rank)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.position == offset


# (text, letter, letters): left chains of operands that are not generators
# are one word read in a loop, so the nesting limit does not count their
# brackets; a chain one continuation short of the error rows above is taken
LONG_LEFT_CHAINS = [
    ("[" * 201 + "x1 + x2" + ", x3]" * 201, "x", 202),
    ("[ " * 201 + "z1 - z2" + ", z3 ]" * 201, "z", 202),
    ("[" * 1000 + "x1" + ", x1 + x2]" * 1000, "x", 1001),
    ("[" * 101 + "x1, x2]" + " + x1, x2]" * 100, "x", 2),
    ("[z1, " * 50 + "[" * 51 + "z1, z2]" + "- z1, z2]" * 50 + "]" * 50, "z", 2),
]


@pytest.mark.parametrize("text, letter, letters", LONG_LEFT_CHAINS)
def test_long_left_chains_are_words(text, letter, letters):
    e = parse_expr(text, letter)
    assert isinstance(e, LeftNormed)
    assert len(e.letters) == letters
    assert _shape_faults(e) == []
    assert parse_expr(format_expr(e, letter), letter) == e


def _nested(shape, levels):
    """(text, value) of a tree `levels` deep in one of the shapes that really
    nest, its value in M_3 folded here with `mb.bracket` as the oracle."""
    x1, x2, x3 = mb.generators(3)
    if shape == "continued words":
        text = "[" * (levels + 1) + "x1, x2]" + " + x1, x2]" * levels
        value = mb.bracket(x1, x2)
        for _ in range(levels):
            value = mb.bracket(value + x1, x2)
        return text, value
    text, value = "x2", x2
    for _ in range(levels):
        if shape == "sums as right operands":
            text, value = f"[x1, {text}] + x3", mb.bracket(x1, value) + x3
        elif shape == "parenthesized sums":
            text, value = f"x1 + ({text})", x1 + value
        else:
            text, value = f"[x1, {text}]", mb.bracket(x1, value)
    return text, value


@pytest.mark.parametrize(
    "shape",
    ["continued words", "sums as right operands", "parenthesized sums", "words"],
)
def test_python_walks_hold_at_the_nesting_limit(shape):
    # ==, hash, repr and pickle recurse through the tree in Python's own
    # code; deepcopy returns the immutable node itself
    text, value = _nested(shape, MAX_NESTING)
    e, other = parse_expr(text), parse_expr(text)
    assert e == other and hash(e) == hash(other)
    assert repr(e) == repr(other)
    assert pickle.loads(pickle.dumps(e)) == other
    assert copy.deepcopy(e) is e
    assert mb.evaluate(e, 3) == value
    assert parse_expr(format_expr(e)) == other
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse_expr(_nested(shape, MAX_NESTING + 1)[0])


# (text, rank, message, offset) for malformed right operands of a word
# level, recorded as literal data
WORD_OPERAND_ERRORS = [
    ("[[x1,x2],x]", 0, "expected an integer", 10),
    ("[[x1,x2],x9]", 2, "generator index 9 out of range 1..2", 9),
    ("[[x1,x2],x1", 0, "expected ']'", 11),
    ("[[x1,x2],x1 x2]", 0, "expected ']'", 12),
    ("[[x1,x2],x ]]", 0, "expected an integer", 11),
    ("[[x1,x2],x\u0663]]", 0, "expected an integer", 10),
    ("[[x1,x2],x1]]", 0, "trailing input", 12),
    ("[[x1,x2], x0]", 0, "generator index 0 out of range 1..n", 10),
    ("[[x1,x2],x", 0, "expected an integer", 10),
]


@pytest.mark.parametrize("text, rank, message, offset", WORD_OPERAND_ERRORS)
def test_word_operand_errors(text, rank, message, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text, "x", rank)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.position == offset


@pytest.mark.parametrize(
    "text, offset", [("x²", 1), ("٣*x1", 0), ("[x1, x\u0663]", 6), ("x1 + ²*x2", 5)]
)
def test_non_ascii_digits_are_not_integers(text, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"expected an integer (at offset {offset})"


def test_hypothesis_profile_is_loaded():
    # conftest.py loads one profile, and a per-test @settings inherits it
    for s in (settings.default, settings(max_examples=7)):
        assert s.derandomize is True
        assert s.deadline is None
    assert settings(max_examples=7).max_examples == 7


# grammar tokens of both letters, plus non-ASCII digits and Unicode spaces
FUZZ_PIECES = list("xzy0123[](),+-*/^ ") + ["12", "²", "٣", "\u00a0", "\u2003"]


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from(FUZZ_PIECES), max_size=24).map("".join),
    st.sampled_from("xz"),
    st.sampled_from([0, 3]),
)
def test_parse_expr_gives_a_tree_or_a_parse_error(text, letter, rank):
    try:
        e = parse_expr(text, letter, rank)
    except ParseError:
        return
    assert _shape_faults(e) == []
    assert parse_expr(format_expr(e, letter), letter, rank) == e


def test_format_round_trip_examples():
    for text in [
        "x1",
        "[x1, x2]",
        "x1 + 2*[x1, x2]",
        "-x1",
        "-[x1, x2] + 1/3*x2",
        "[[x1, x2], x3]",
        "[x1 + x2, x3]",
        "2*(x1 + x2)",
        "0",
    ]:
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


def _bracket(left, right):
    """The parser's shape of [left, right]: a word on the left is extended
    by one letter."""
    first = left.letters if isinstance(left, LeftNormed) else (left,)
    return LeftNormed(first + (right,))


def _shape_faults(e):
    """Where a tree breaks the parser's word shape: a word as a first
    letter, or a word of fewer than two letters."""
    if isinstance(e, Sum):
        return [f for _, t in e.parts for f in _shape_faults(t)]
    if not isinstance(e, LeftNormed):
        return []
    faults = []
    if len(e.letters) < 2:
        faults.append(("short word", e))
    if isinstance(e.letters[0], LeftNormed):
        faults.append(("word as first letter", e))
    for a in e.letters:
        faults += _shape_faults(a)
    return faults


def _random_expr(rng, rank, depth):
    """A random parser-shaped tree."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.randint(1, rank)
    if roll < 0.45:
        return left_normed(rng.randint(1, rank) for _ in range(rng.randint(2, 6)))
    if roll < 0.6:
        return _bracket(
            _random_expr(rng, rank, depth - 1), _random_expr(rng, rank, depth - 1)
        )
    if roll < 0.8:
        c = as_coeff(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        return combination([(c, _random_expr(rng, rank, depth - 1))])
    return combination(
        [(1, _random_expr(rng, rank, depth - 1)) for _ in range(rng.randint(2, 3))]
    )


def test_format_round_trip_randomized():
    rng = random.Random(17)
    shapes = set()
    for _ in range(120):
        e = _random_expr(rng, 4, 3)
        for letter in "xz":
            assert parse_expr(format_expr(e, letter), letter) == e
        if isinstance(e, Sum):
            shapes.add(f"{len(e.parts)}-term Sum")
        elif isinstance(e, LeftNormed) and not all(type(a) is int for a in e.letters):
            shapes.add("expression letter")
        else:
            shapes.add(type(e))
    assert shapes == {
        int, LeftNormed, "expression letter", "1-term Sum", "2-term Sum", "3-term Sum"
    }


def _format_nested(letters, letter):
    """Test-local recursive printer of [[a1, a2], ..., am], one binary
    bracket per letter after the first."""
    last = letters[-1]
    text = f"{letter}{last}" if type(last) is int else _seed_format(last, letter)
    if len(letters) == 1:
        return text
    return f"[{_format_nested(letters[:-1], letter)}, {text}]"


def test_flat_word_printer_matches_recursive_printer():
    rng = random.Random(19)
    for _ in range(300):
        word = tuple(rng.randint(1, 12) for _ in range(rng.randint(2, 40)))
        letter = rng.choice("xz")
        text = format_expr(LeftNormed(word), letter)
        assert text == _format_nested(word, letter)
        assert parse_expr(text, letter) == LeftNormed(word)
        scaled = format_expr(Sum(((Fraction(-3, 2), LeftNormed(word)),)), letter)
        assert scaled == f"-3/2*{_format_nested(word, letter)}"


def _seed_format(e, letter="x"):
    """The printer as it was before word bodies were written inline (the
    oracle of `format_expr`): one factor-printing call per term, its pairs
    through `format_terms`."""
    if not isinstance(e, Sum):
        return _seed_factor(e, letter)
    return format_terms((c, _seed_factor(t, letter)) for c, t in e.parts)


def _seed_factor(e, letter):
    if isinstance(e, LeftNormed):
        return _format_nested(e.letters, letter)
    if type(e) is int:
        return f"{letter}{e}"
    return f"({_seed_format(e, letter)})"


COEFFS = st.builds(
    Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 6)
).map(as_coeff).filter(lambda c: c != 1)
LEAVES = st.one_of(
    st.integers(1, 12),
    st.lists(st.integers(1, 12), min_size=2, max_size=7).map(
        lambda w: LeftNormed(tuple(w))
    ),
)
# parser-shaped trees: brackets of two or more operands in the parser's word
# shape, so with expression letters, one-term sums
# whose coefficient is not 1 (a Sum factor prints parenthesised) and sums of
# two or more terms with any nonzero coefficients
TERM_COEFFS = st.one_of(st.just(1), COEFFS)
PARSER_TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda ops: reduce(_bracket, ops)),
        st.tuples(COEFFS, kids).map(lambda term: Sum((term,))),
        st.lists(st.tuples(TERM_COEFFS, kids), min_size=2, max_size=4).map(
            lambda terms: Sum(tuple(terms))
        ),
    ),
    max_leaves=10,
)


@settings(max_examples=400)
@given(PARSER_TREES, st.sampled_from("xz"))
def test_printer_round_trip_and_seed_printer(e, letter):
    text = format_expr(e, letter)
    parsed = parse_expr(text, letter)
    assert _shape_faults(parsed) == []
    assert parsed == e
    assert text == _seed_format(e, letter)


def test_parser_trees_cover_the_shapes():
    seen = set()

    @settings(max_examples=300)
    @given(PARSER_TREES)
    def collect(e):
        seen.add(type(e))
        if isinstance(e, LeftNormed) and not all(type(a) is int for a in e.letters):
            seen.add("expression letter")
        if isinstance(e, Sum):
            kind = "scaled " if len(e.parts) == 1 else "sum of "
            for c, p in e.parts:
                seen.add(kind + type(p).__name__)
                if c != 1:
                    seen.add(kind + "coefficient")
                if type(c) is Fraction:
                    seen.add("fraction")

    collect()
    assert {
        "expression letter",
        Sum,
        "sum of Sum",
        "sum of coefficient",
        "scaled Sum",
        "fraction",
    } <= seen


def _unit_sums(e):
    """The one-term Sums with coefficient 1 anywhere in a tree."""
    if isinstance(e, LeftNormed):
        return [s for a in e.letters if type(a) is not int for s in _unit_sums(a)]
    if not isinstance(e, Sum):
        return []
    found = [e] if len(e.parts) == 1 and e.parts[0][0] == 1 else []
    return found + [s for _, t in e.parts for s in _unit_sums(t)]


@pytest.mark.parametrize(
    "text",
    [
        "x1",
        "+x1",
        "1*x1",
        "1/1*[x1, x2]",
        "(x1)",
        "((x1 + x2))",
        "[(x1), 1*x2]",
        "1*(1*(x1))",
        "[[x1, x2] + x3, (+x4)]",
        "2*(1*x1) - (1*[x1, x2])",
    ],
)
def test_parser_builds_no_unit_sum(text):
    assert _unit_sums(parse_expr(text)) == []


@pytest.mark.parametrize(
    "text",
    [
        "[(x1), (x2)]",
        "[([x1, x2]), x3]",
        "[1*[x1, x2], 1*x3]",
        "[(([x1, x2])), [x3, x4]]",
        "[+x1, (+x2)]",
        "[(x1 + x2), [[x3, x1], x2]]",
        "[[x1, x2] + x3, [x4, x1]]",
        "[x1, 0] - [0, x2]",
    ],
)
def test_parser_keeps_the_word_shape(text):
    assert _shape_faults(parse_expr(text)) == []


def test_shape_faults_are_seen():
    for bad in (
        LeftNormed((LeftNormed((1, 2)), 3)),
        LeftNormed((1,)),
        Sum(((2, LeftNormed((1, LeftNormed((LeftNormed((2, 3)), 4))))),)),
        LeftNormed((1, Sum(((1, LeftNormed((2,))),)))),
    ):
        assert _shape_faults(bad)


def test_helpers():
    e = parse_expr("[x1, x3] + 2*x2")
    assert generators_used(e) == frozenset({1, 2, 3})
    assert max(generators_used(e), default=0) == 3
    assert max(generators_used(parse_expr("0")), default=0) == 0
    assert generators_used(parse_expr("[[x4, x1], x4]")) == frozenset({1, 4})
    # expression letters, first and later
    e = parse_expr("[[x1 + x5, [x2, x6]], x3 - x1]")
    assert generators_used(e) == frozenset({1, 2, 3, 5, 6})
    assert left_normed([1, 2, 3]) == LeftNormed((1, 2, 3))
    assert left_normed([1, 2, 3]) == parse_expr("[[x1, x2], x3]")
    with pytest.raises(ValueError):
        left_normed([1])


# calls no other test makes: each case is the value the call returns, or the
# (type, message) of the exception it raises
EDGE_CASES = {
    "combination of no terms": (lambda: combination([]), ZERO_EXPR),
    "combination of one unit term": (
        lambda: combination([(1, LeftNormed((1, 2)))]),
        LeftNormed((1, 2)),
    ),
    "combination of one scaled term": (
        lambda: combination([(-1, 2)]),
        Sum(((-1, 2),)),
    ),
    "generators of a sum": (
        lambda: generators_used(parse_expr("2*x3 - ([x1, x4])")),
        frozenset({1, 3, 4}),
    ),
    "parenthesized word extended": (
        lambda: parse_expr("[([x1, x2]), x3]"),
        LeftNormed((1, 2, 3)),
    ),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected, outcome):
    assert outcome(call) == expected


# (input, the node each walk reports): inputs that are not expressions; a
# bool is no generator index, as a whole expression or as a letter, and
# neither is a letter equal to an index met earlier in the same word
NON_EXPRESSIONS = [
    ("x1", "x1"),
    (1.5, 1.5),
    (True, True),
    (None, None),
    (Fraction(1, 2), Fraction(1, 2)),
    (LeftNormed((1, "x")), "x"),
    (LeftNormed((True, 2)), True),
    (LeftNormed((2, 1, True)), True),
    (LeftNormed((2, 1, 1.0)), 1.0),
    (Sum(((1, "x"),)), "x"),
]
WALKS = {
    "format_expr": format_expr,
    "generators_used": generators_used,
    "evaluate": lambda e: mb.evaluate(e, 2),
    "lie_to_assoc": lambda e: lie_to_assoc(e, 2),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS)
@pytest.mark.parametrize("e, bad", NON_EXPRESSIONS)
def test_walks_refuse_a_non_expression(walk, e, bad):
    with pytest.raises(TypeError) as err:
        walk(e)
    assert str(err.value) == f"not a LieExpr: {bad!r}"
