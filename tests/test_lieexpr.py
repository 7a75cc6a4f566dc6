"""Bracket-expression grammar: parsing, printing, round trips."""

import random
from fractions import Fraction

import pytest

from metalie.lieexpr import (
    Bracket,
    Gen,
    Scale,
    Sum,
    ZERO_EXPR,
    format_expr,
    generators_used,
    left_normed,
    parse_expr,
    scale_expr,
    sum_exprs,
)
from metalie.polyring import ParseError


def test_parse_generator():
    assert parse_expr("x3") == Gen(3)
    assert parse_expr("z3", letter="z") == Gen(3)


def test_parse_bracket():
    assert parse_expr("[x1,x2]") == Bracket(Gen(1), Gen(2))
    assert parse_expr("[ [x1, x2 ] , x3 ]") == Bracket(Bracket(Gen(1), Gen(2)), Gen(3))


def test_parse_sum_and_scalars():
    e = parse_expr("x1 + 2*[x1,x2] - 1/2*x3")
    assert e == Sum(
        (
            Gen(1),
            Scale(Fraction(2), Bracket(Gen(1), Gen(2))),
            Scale(Fraction(-1, 2), Gen(3)),
        )
    )


def test_parse_leading_minus():
    assert parse_expr("-x1") == Scale(Fraction(-1), Gen(1))


def test_parse_zero():
    assert parse_expr("0") == ZERO_EXPR
    assert parse_expr("[0, x1]") == Bracket(ZERO_EXPR, Gen(1))


def test_parse_parenthesized_scale():
    e = parse_expr("2*(x1 + x2)")
    assert e == Scale(Fraction(2), Sum((Gen(1), Gen(2))))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("[x1")
    assert err.value.position == 3


def test_rank_bound():
    with pytest.raises(ParseError):
        parse_expr("x4", rank=3)


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


def _random_expr(rng, rank, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Gen(rng.randint(1, rank))
    if roll < 0.6:
        return Bracket(_random_expr(rng, rank, depth - 1), _random_expr(rng, rank, depth - 1))
    if roll < 0.8:
        c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        return scale_expr(c, _random_expr(rng, rank, depth - 1))
    return sum_exprs(
        [_random_expr(rng, rank, depth - 1) for _ in range(rng.randint(2, 3))]
    )


def test_format_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(120):
        e = _random_expr(rng, 4, 3)
        assert parse_expr(format_expr(e)) == e


def test_helpers():
    e = parse_expr("[x1, x3] + 2*x2")
    assert generators_used(e) == frozenset({1, 2, 3})
    assert max(generators_used(e), default=0) == 3
    assert max(generators_used(parse_expr("0")), default=0) == 0
    assert left_normed([1, 2, 3]) == Bracket(Bracket(Gen(1), Gen(2)), Gen(3))
