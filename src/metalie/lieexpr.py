"""Bracket expression trees shared by the metabelian and free-associative
sides, plus the text grammar used everywhere an expression crosses the CLI
boundary.

Grammar (whitespace-insensitive; LETTER is 'x' or 'z' depending on context):

    element := ('+'|'-')? term (('+'|'-') term)*
    term    := (rational '*')? factor
    factor  := LETTER INT | '[' element ',' element ']' | '(' element ')'
    rational:= INT ('/' INT)?

"0" denotes the empty sum. Parsing produces trees in a fixed shape (signs
folded into scalar coefficients, one Sum node per '+/-' chain), and the
printer emits exactly that shape, so parse(print(e)) == e.

The parser, the evaluator and the printer recurse once per nesting level, so
input may nest '[' and '(' at most MAX_NESTING levels deep; deeper input is a
ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .polyring import ParseError, Scalar, _Scanner, as_coeff, format_terms


@dataclass(frozen=True)
class Gen:
    """Generator with 1-based index."""

    index: int


@dataclass(frozen=True)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"


@dataclass(frozen=True)
class Scale:
    coeff: Scalar
    arg: "LieExpr"


@dataclass(frozen=True)
class Sum:
    parts: Tuple["LieExpr", ...]


LieExpr = Union[Gen, Bracket, Scale, Sum]

ZERO_EXPR = Sum(())

# deepest '[' / '(' nesting parse_expr accepts; keeps every recursive walk of
# a parsed tree well inside Python's default recursion limit
MAX_NESTING = 200


def scale_expr(c: Scalar, e: LieExpr) -> LieExpr:
    c = as_coeff(c)
    if c == 0:
        return ZERO_EXPR
    if c == 1:
        return e
    if isinstance(e, Scale):
        return scale_expr(c * e.coeff, e.arg)
    return Scale(c, e)


def sum_exprs(parts) -> LieExpr:
    flat = []
    for p in parts:
        if isinstance(p, Sum):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def left_normed(indices) -> LieExpr:
    """[[x_{i1}, x_{i2}], x_{i3}, ..., x_{im}] as nested brackets."""
    idx = list(indices)
    if len(idx) < 2:
        raise ValueError("need at least two generators")
    e: LieExpr = Bracket(Gen(idx[0]), Gen(idx[1]))
    for i in idx[2:]:
        e = Bracket(e, Gen(i))
    return e


def generators_used(e: LieExpr) -> frozenset:
    if isinstance(e, Gen):
        return frozenset((e.index,))
    if isinstance(e, Bracket):
        return generators_used(e.left) | generators_used(e.right)
    if isinstance(e, Scale):
        return generators_used(e.arg)
    if isinstance(e, Sum):
        out = frozenset()
        for p in e.parts:
            out |= generators_used(p)
        return out
    raise TypeError(f"not a LieExpr: {e!r}")


# -- printing ---------------------------------------------------------------


def _format_factor(e: LieExpr, letter: str) -> str:
    if isinstance(e, Gen):
        return f"{letter}{e.index}"
    if isinstance(e, Bracket):
        return f"[{format_expr(e.left, letter)}, {format_expr(e.right, letter)}]"
    return f"({format_expr(e, letter)})"


def format_expr(e: LieExpr, letter: str = "x") -> str:
    """Canonical text form; inverse of parse_expr on parser-shaped trees."""
    if isinstance(e, (Gen, Bracket)):
        # every nesting level of a lifted word lands here: skip the sum printer
        return _format_factor(e, letter)
    terms = e.parts if isinstance(e, Sum) else (e,)
    return format_terms(
        (t.coeff, _format_factor(t.arg, letter))
        if isinstance(t, Scale)
        else (1, _format_factor(t, letter))
        for t in terms
    )


# -- parsing ----------------------------------------------------------------


def parse_expr(text: str, letter: str = "x", rank: int = 0) -> LieExpr:
    """Parse the bracket-expression grammar; rank > 0 bounds generator indices."""
    sc = _Scanner(text)
    e = _parse_element(sc, letter, rank, 0)
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    return e


def _parse_element(sc: _Scanner, letter: str, rank: int, depth: int) -> LieExpr:
    if sc.peek() == "0":
        # lone zero is the empty sum
        mark = sc.pos
        sc.pos += 1
        nxt = sc.peek()
        if nxt in ("", ",", ")", "]"):
            return ZERO_EXPR
        sc.pos = mark
    terms = []
    sign = -1 if sc.take("-") else 1
    if sign == 1:
        sc.take("+")
    terms.append(_parse_term(sc, letter, rank, depth, sign))
    while True:
        if sc.take("+"):
            terms.append(_parse_term(sc, letter, rank, depth, 1))
        elif sc.take("-"):
            terms.append(_parse_term(sc, letter, rank, depth, -1))
        else:
            break
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _parse_term(
    sc: _Scanner, letter: str, rank: int, depth: int, sign: int
) -> LieExpr:
    coeff = sign
    if sc.peek().isdigit():
        coeff *= sc.rational()
        sc.expect("*")
    factor = _parse_factor(sc, letter, rank, depth)
    if coeff == 1:
        return factor
    return Scale(coeff, factor)


def _parse_factor(sc: _Scanner, letter: str, rank: int, depth: int) -> LieExpr:
    ch = sc.peek()
    if ch in ("[", "(") and depth == MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", sc.pos)
    if ch == letter:
        pos = sc.pos
        sc.pos += 1
        idx = sc.integer()
        if idx < 1 or (rank and idx > rank):
            bound = rank if rank else "n"
            raise ParseError(f"generator index {idx} out of range 1..{bound}", pos)
        return Gen(idx)
    if ch == "[":
        sc.pos += 1
        left = _parse_element(sc, letter, rank, depth + 1)
        sc.expect(",")
        right = _parse_element(sc, letter, rank, depth + 1)
        sc.expect("]")
        return Bracket(left, right)
    if ch == "(":
        sc.pos += 1
        inner = _parse_element(sc, letter, rank, depth + 1)
        sc.expect(")")
        return inner
    raise ParseError(f"expected '{letter}<index>', '[' or '('", sc.pos)
