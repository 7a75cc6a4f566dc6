"""Trees of bracket expressions shared by the metabelian and
free-associative sides, plus the text grammar used everywhere an expression
crosses the CLI boundary.

Grammar (LETTER is 'x' or 'z' depending on context):

    element := ('+'|'-')? term (('+'|'-') term)*
    term    := (rational '*')? factor
    factor  := LETTER INT | '[' element ',' element ']' | '(' element ')'
    rational:= INT ('/' INT)?

The text is read as the tokens of `polyring.Tokens`: an INT is a run of
ASCII digits, and whitespace only separates tokens. Each element is a signed
sum read by `polyring.read_sum`, with `_parse_term` as its term reader.
"0" denotes the empty sum. A generator is its index, a plain int (never a
bool), wherever an expression may stand: a whole expression, a Sum term or
a word letter. Parsing produces trees in a fixed shape: a linear
combination is one Sum node of (coefficient, expression) pairs, signs
folded into the coefficients, one pair per term of a '+/-' chain, and a
single term with coefficient 1 is that term alone (`combination`); every
left-normed bracket [[a1, a2], a3, ..., am] is one flat LeftNormed node of
its m >= 2 letters, whatever its operands, and its first letter is never
itself a LeftNormed: its letters begin the word. The printer emits exactly
that shape, so parse(print(e)) == e.

Left-normed brackets cost no recursion: the parser reads a run of '[' in a
loop, and the printer, the evaluator and the free-associative expansion walk
a word's letters in a loop, so a word may have up to MAX_WORD_LENGTH letters
whatever its operands are. What really nests is walked recursively, so it
may be at most MAX_NESTING levels deep: right operands, parentheses, and a
word that a '+' or '-' continues into a sum, the first letter of the next
word. Longer or deeper input is a ParseError naming the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple, Union

from .polyring import ParseError, Scalar, Tokens, format_term, read_sum


@dataclass(frozen=True)
class LeftNormed:
    """The left-normed bracket [[a1, a2], a3, ..., am], stored flat as its
    letters (a1, ..., am), m >= 2. A letter is any expression, so a
    generator letter is its index; build a word of indices with
    `left_normed`, which checks the length."""

    letters: Tuple["LieExpr", ...]

    def __deepcopy__(self, memo):
        return self  # immutable, and a deep tree would exhaust the recursion


@dataclass(frozen=True)
class Sum:
    """The linear combination c1*e1 + ... + ck*ek, stored as its
    (coefficient, expression) pairs; the empty sum is zero."""

    parts: Tuple[Tuple[Scalar, "LieExpr"], ...]

    def __deepcopy__(self, memo):
        return self  # immutable, and a deep tree would exhaust the recursion


LieExpr = Union[int, LeftNormed, Sum]

ZERO_EXPR = Sum(())

# deepest nesting of right operands, of '(' and of words continued into sums;
# keeps every recursive walk of a parsed tree, the package's and Python's own
# ==, hash, repr and pickle, inside Python's default recursion limit
MAX_NESTING = 100

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
    if type(e) is int:
        return frozenset((e,))
    if isinstance(e, LeftNormed):
        kids = e.letters
    elif isinstance(e, Sum):
        kids = [t for _, t in e.parts]
    else:
        raise TypeError(f"not a LieExpr: {e!r}")
    return frozenset().union(*map(generators_used, kids))


# -- printing ---------------------------------------------------------------


class _LetterText(dict):
    """The text of each letter that one `format_expr` call prints: an index
    is named once, and an expression letter is printed each time."""

    __slots__ = ("letter",)

    def __init__(self, letter: str):
        self.letter = letter

    def __missing__(self, a) -> str:
        if type(a) is not int:
            return format_expr(a, self.letter)
        text = self[a] = f"{self.letter}{a}"
        return text


# whether an iterable of letter types holds only the types of expressions
_expression_types = frozenset((int, LeftNormed, Sum)).issuperset


def format_expr(e: LieExpr, letter: str = "x") -> str:
    """Canonical text form; inverse of parse_expr on parser-shaped trees.
    Printed as a sum of terms in one loop, one `format_term` per term."""
    names = _LetterText(letter)
    chunks: list = []
    for c, t in e.parts if isinstance(e, Sum) else ((1, e),):
        if isinstance(t, LeftNormed):
            # one '[' per bracket, the first letter, then ", <letter>]" each
            word = t.letters
            # a letter equal to a named index but no int (True, 1.0) would
            # find that index's text, so such a word skips the names, and
            # `__missing__` refuses the letter as `format_expr` does
            text = names.__getitem__
            if not _expression_types(map(type, word)):
                text = names.__missing__
            rest = "], ".join(map(text, word[1:]))
            body = f"{'[' * (len(word) - 1)}{text(word[0])}, {rest}]"
        elif type(t) is int:
            body = names[t]
        elif isinstance(t, Sum):
            body = f"({format_expr(t, letter)})"
        else:
            raise TypeError(f"not a LieExpr: {t!r}")
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
        return idx
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
    # one's left operand: together they are one word, read in a loop, and
    # every operand of the run is read at depth + 1.
    k = 0
    while tokens.peek() == "[":
        if k == MAX_WORD_LENGTH - 1:
            raise tokens.error(
                f"left-normed word longer than {MAX_WORD_LENGTH} letters"
            )
        k += 1
        tokens.i += 1
    first = _parse_element(tokens, letter, rank, depth + 1)
    word = list(first.letters) if isinstance(first, LeftNormed) else [first]
    for _ in range(k):
        if tokens.peek() in ("+", "-"):
            # the word so far becomes the first term of a sum, the new first
            # letter: a real nest, one level deeper than the word itself
            inner = LeftNormed(tuple(word))
            if depth + _levels(inner) > MAX_NESTING:
                raise tokens.error(f"nesting deeper than {MAX_NESTING} levels")
            word = [_parse_element(tokens, letter, rank, depth + 1, (1, inner))]
        tokens.expect(",")
        word.append(_parse_element(tokens, letter, rank, depth + 1))
        tokens.expect("]")
    return LeftNormed(tuple(word))


def _levels(e) -> int:
    """How deep words nest in e, one level per word, as the parser counts."""
    if isinstance(e, Sum):
        return max(map(_levels, [t for _, t in e.parts]), default=0)
    if isinstance(e, LeftNormed):
        return 1 + max(map(_levels, e.letters))
    return 0
