"""Bracket expression trees shared by the metabelian and free-associative
sides, plus the text grammar used everywhere an expression crosses the CLI
boundary.

Grammar (LETTER is 'x' or 'z' depending on context):

    element := ('+'|'-')? term (('+'|'-') term)*
    term    := (rational '*')? factor
    factor  := LETTER INT | '[' element ',' element ']' | '(' element ')'
    rational:= INT ('/' INT)?

The text is read as the tokens of `polyring.Tokens`: an INT is a run of
ASCII digits, and whitespace only separates tokens. Each element is a signed
sum read by `polyring.read_sum`, with `_parse_term` as its term reader.
"0" denotes the empty sum. Parsing produces trees in a fixed shape: a
linear combination is one Sum node of (coefficient, expression) pairs, signs
folded into the coefficients, one pair per term of a '+/-' chain, and a
single term with coefficient 1 is that term alone (`combination`); every
left-normed word [[x_i1, x_i2], ..., x_im] is one flat LeftNormed node. The
printer emits exactly that shape, so parse(print(e)) == e.

Left-normed words cost no recursion: the parser reads a run of '[' in a loop,
and the printer, the evaluator and the free-associative expansion walk a
word's letters in a loop, so a word may have up to MAX_WORD_LENGTH letters.
Every other nest (a '(' or a '[' that does not extend a left-normed word) is
walked recursively, so such nests may be at most MAX_NESTING levels deep.
Longer or deeper input is a ParseError naming the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple, Union

from .polyring import ParseError, Scalar, Tokens, format_term, read_sum


@dataclass(frozen=True)
class Gen:
    """Generator with 1-based index."""

    index: int


@dataclass(frozen=True)
class LeftNormed:
    """The left-normed word [[x_i1, x_i2], x_i3, ..., x_im], stored flat as
    its generator indices (i1, ..., im), m >= 2; build it with
    `left_normed`, which checks the length."""

    indices: Tuple[int, ...]


@dataclass(frozen=True)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"


@dataclass(frozen=True)
class Sum:
    """The linear combination c1*e1 + ... + ck*ek, stored as its
    (coefficient, expression) pairs; the empty sum is zero."""

    parts: Tuple[Tuple[Scalar, "LieExpr"], ...]


LieExpr = Union[Gen, LeftNormed, Bracket, Sum]

ZERO_EXPR = Sum(())

# deepest nesting of '(' and of '[' that does not extend a left-normed word;
# keeps every recursive walk of a parsed tree well inside Python's default
# recursion limit
MAX_NESTING = 200

# most letters in one left-normed word (a run of MAX_WORD_LENGTH - 1 '[');
# bounds the input, not the recursion, which words do not use
MAX_WORD_LENGTH = 10_000


def combination(terms) -> LieExpr:
    """The sum of the (coefficient, expression) pairs `terms`, in the
    parser's shape: a single term with coefficient 1 is that expression, and
    anything else is a Sum. Coefficients are kept as given."""
    terms = tuple(terms)
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return Sum(terms)


def left_normed(indices) -> LeftNormed:
    """[[x_{i1}, x_{i2}], x_{i3}, ..., x_{im}] as one flat node."""
    idx = tuple(indices)
    if len(idx) < 2:
        raise ValueError("need at least two generators")
    return LeftNormed(idx)


def generators_used(e: LieExpr) -> frozenset:
    if isinstance(e, Gen):
        return frozenset((e.index,))
    if isinstance(e, LeftNormed):
        return frozenset(e.indices)
    if isinstance(e, Bracket):
        return generators_used(e.left) | generators_used(e.right)
    if isinstance(e, Sum):
        out = frozenset()
        for _, p in e.parts:
            out |= generators_used(p)
        return out
    raise TypeError(f"not a LieExpr: {e!r}")


# -- printing ---------------------------------------------------------------


def format_expr(e: LieExpr, letter: str = "x") -> str:
    """Canonical text form; inverse of parse_expr on parser-shaped trees.
    Printed as a sum of terms in one loop, one `format_term` per term."""
    sep = f"], {letter}"
    chunks: list = []
    for c, t in e.parts if isinstance(e, Sum) else ((1, e),):
        if isinstance(t, LeftNormed):
            # one '[' per bracket, the first letter, then ", x<i>]" per letter
            idx = t.indices
            rest = sep.join(map(str, idx[1:]))
            body = f"{'[' * (len(idx) - 1)}{letter}{idx[0]}, {letter}{rest}]"
        elif isinstance(t, Gen):
            body = f"{letter}{t.index}"
        elif isinstance(t, Bracket):
            body = f"[{format_expr(t.left, letter)}, {format_expr(t.right, letter)}]"
        else:
            body = f"({format_expr(t, letter)})"
        chunks.append(format_term(c, body, not chunks))
    return " ".join(chunks) if chunks else "0"


# -- parsing ----------------------------------------------------------------


def parse_expr(text: str, letter: str = "x", rank: int = 0) -> LieExpr:
    """Parse the bracket-expression grammar; rank > 0 bounds generator indices."""
    tokens = Tokens(text)
    e = _parse_element(tokens, letter, rank, 0)
    if not tokens.at_end():
        raise tokens.error("trailing input")
    return e


def _parse_element(
    tokens: Tokens, letter: str, rank: int, depth: int, first=None
) -> LieExpr:
    """An element; `first` is its first (coefficient, factor) term when that
    has been read."""
    toks, i = tokens.toks, tokens.i
    if first is None and toks[i] == "0" and toks[i + 1] in ("", ",", ")", "]"):
        # lone zero is the empty sum; one token of lookahead tells
        tokens.i += 1
        return ZERO_EXPR
    # a partial, unlike a lambda, adds no Python frame to each nesting level
    terms = read_sum(tokens, partial(_parse_term, tokens, letter, rank, depth), first)
    return combination(terms)


def _parse_term(
    tokens: Tokens, letter: str, rank: int, depth: int, sign: int
) -> Tuple[Scalar, LieExpr]:
    coeff = sign
    if tokens.peek().isdigit():
        coeff *= tokens.rational()
        tokens.expect("*")
    return coeff, _parse_factor(tokens, letter, rank, depth)


def _parse_factor(tokens: Tokens, letter: str, rank: int, depth: int) -> LieExpr:
    tok = tokens.peek()
    if tok == letter:
        at = tokens.i
        tokens.i += 1
        idx = tokens.integer()
        if idx < 1 or (rank and idx > rank):
            bound = rank if rank else "n"
            raise tokens.error(f"generator index {idx} out of range 1..{bound}", at)
        return Gen(idx)
    if tok in ("[", "(") and depth >= MAX_NESTING:
        raise tokens.error(f"nesting deeper than {MAX_NESTING} levels")
    if tok == "(":
        tokens.i += 1
        inner = _parse_element(tokens, letter, rank, depth + 1)
        tokens.expect(")")
        return inner
    if tok != "[":
        raise tokens.error(f"expected '{letter}<index>', '[' or '('")
    # A run of k '[' opens k brackets, each the first factor of the next
    # one's left operand. They are closed in a loop from the innermost out;
    # a bracket whose left side is a generator or word and whose right side
    # is a generator extends the word and costs no nesting level. Level j
    # (1 = outermost) reads the rest of its left operand and its right
    # operand at depth + j: their depth unless the level extends a word, and
    # then they are plain generators.
    opens = []
    while tokens.peek() == "[":
        if len(opens) == MAX_WORD_LENGTH - 1:
            raise tokens.error(
                f"left-normed word longer than {MAX_WORD_LENGTH} letters"
            )
        opens.append(tokens.i)
        tokens.i += 1
    k = len(opens)
    left = _parse_element(tokens, letter, rank, depth + k)
    if isinstance(left, Gen):
        word = [left.index]
    elif isinstance(left, LeftNormed):
        word = list(left.indices)
    else:
        word = None
    for level in range(k, 0, -1):
        inner = depth + level
        if tokens.peek() in ("+", "-"):
            if word is not None:
                left = _word_node(word)
                word = None
            left = _parse_element(tokens, letter, rank, inner, (1, left))
        tokens.expect(",")
        right = _parse_element(tokens, letter, rank, inner)
        tokens.expect("]")
        if word is not None and isinstance(right, Gen):
            word.append(right.index)
            continue
        if inner > MAX_NESTING:
            raise tokens.error(
                f"nesting deeper than {MAX_NESTING} levels", opens[MAX_NESTING - depth]
            )
        left = Bracket(_word_node(word) if word is not None else left, right)
        word = None
    return _word_node(word) if word is not None else left


def _word_node(word: list) -> LieExpr:
    return Gen(word[0]) if len(word) == 1 else LeftNormed(tuple(word))
