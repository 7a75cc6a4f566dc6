"""The free associative algebra on z1..zn: noncommutative polynomials,
expansion of free-Lie bracket expressions, left Fox derivatives, and the
cyclic-word test for membership in the commutator subspace [U, U].

Over a field of characteristic zero an element lies in the span of all
commutators uv - vu exactly when, for every cyclic-rotation class of words,
its coefficients over that class sum to zero. The replay() entry point walks
the degree-4 trace computation: the z1-derivative of [[z1,[z2,z3]],z4] equals
z4*[z2,z3], which fails the cyclic test on its own, and an exact linear
solve over the degree-4 second-derived spanning set finds correction terms
whose diagonal Fox derivatives push the sum into [U, U].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, attrgetter
from typing import Dict, List, Optional, Tuple

from .lieexpr import (
    Bracket,
    Gen,
    LeftNormed,
    LieExpr,
    Scale,
    Sum,
    format_expr,
    scale_expr,
    sum_exprs,
)
from .polyring import Scalar, SparseTerms, _add_into, solve_sparse

Word = Tuple[int, ...]


class NCPoly(SparseTerms):
    """Noncommutative polynomial: a sparse map word -> coefficient, where a
    word is a tuple of 1-based letter indices and () is the unit."""

    __slots__ = ()

    rank = property(attrgetter("_dim"))

    def _key(self, word) -> Word:
        word = tuple(word)
        if any(not 1 <= a <= self._dim for a in word):
            raise ValueError(f"letter out of range 1..{self._dim} in {word}")
        return word

    # the product of two words is their concatenation
    _key_mul = staticmethod(add)

    @staticmethod
    def _format_key(word: Word) -> str:
        return "*".join(f"z{a}" for a in word)

    @classmethod
    def zero(cls, rank: int) -> "NCPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "NCPoly":
        return cls(rank, {(): 1})

    @classmethod
    def gen(cls, rank: int, i: int) -> "NCPoly":
        if not 1 <= i <= rank:
            raise ValueError(f"letter {i} out of range 1..{rank}")
        return cls._raw(rank, {(i,): 1})

    def constant_term(self) -> Scalar:
        return self.terms.get((), 0)

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def homogeneous_component(self, d: int) -> "NCPoly":
        return NCPoly._raw(
            self._dim, {w: c for w, c in self.terms.items() if len(w) == d}
        )


def lie_to_assoc(e: LieExpr, rank: int) -> NCPoly:
    """Expand a bracket expression in the free associative algebra via
    [u, v] = uv - vu."""
    if isinstance(e, LeftNormed):
        # the letters of a left-normed word, one commutator each
        u = NCPoly.gen(rank, e.indices[0])
        for i in e.indices[1:]:
            v = NCPoly.gen(rank, i)
            u = u * v - v * u
        return u
    if isinstance(e, Gen):
        return NCPoly.gen(rank, e.index)
    if isinstance(e, Bracket):
        u = lie_to_assoc(e.left, rank)
        v = lie_to_assoc(e.right, rank)
        return u * v - v * u
    if isinstance(e, Scale):
        return lie_to_assoc(e.arg, rank) * e.coeff
    if isinstance(e, Sum):
        acc = NCPoly.zero(rank)
        for p in e.parts:
            acc = acc + lie_to_assoc(p, rank)
        return acc
    raise TypeError(f"not a LieExpr: {e!r}")


def fox_assoc(f: NCPoly, i: int) -> NCPoly:
    """Left Fox derivative with respect to z_i: collect the words ending in
    z_i and strip that last letter, so that f = sum_i fox_assoc(f, i) * z_i.

    Requires a zero constant term.
    """
    if f.constant_term():
        raise ValueError("Fox derivative needs a zero constant term")
    if not 1 <= i <= f.rank:
        raise ValueError(f"letter {i} out of range 1..{f.rank}")
    # distinct words ending in z_i have distinct prefixes: nothing collides
    return NCPoly._raw(
        f.rank, {w[:-1]: c for w, c in f.terms.items() if w and w[-1] == i}
    )


def cyclic_representative(word: Word) -> Word:
    """Canonical representative of the rotation class: the least rotation."""
    if len(word) <= 1:
        return word
    return min(word[k:] + word[:k] for k in range(len(word)))


def cyclic_signature(p: NCPoly) -> Dict[Word, Scalar]:
    """Sum of coefficients over each cyclic-rotation class of words, keyed by
    the canonical representative; classes summing to zero are omitted."""
    sums: dict = {}
    _add_into(sums, zip(map(cyclic_representative, p.terms), p.terms.values()))
    return sums


def in_commutator_subspace(p: NCPoly) -> bool:
    """True iff p lies in the span of all commutators uv - vu (characteristic
    zero criterion: every cyclic-class coefficient sum vanishes)."""
    return not cyclic_signature(p)


def derived_degree4_basis(n: int) -> List[LieExpr]:
    """Spanning set of the degree-4 part of the second derived subalgebra:
    all [[z_i, z_j], [z_k, z_l]] with i > j, k > l and (i, j) > (k, l);
    candidates whose associative expansion vanishes are dropped."""
    return [expr for expr, _ in _derived_degree4(n)]


def _derived_degree4(n: int) -> List[Tuple[LieExpr, NCPoly]]:
    """The elements of derived_degree4_basis(n), each with its associative
    expansion."""
    if n < 2:
        raise ValueError("need rank >= 2")
    pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    out = []
    for a in range(len(pairs)):
        for b in range(a):
            (i, j), (k, l) = pairs[a], pairs[b]
            expr = Bracket(LeftNormed((i, j)), LeftNormed((k, l)))
            expansion = lie_to_assoc(expr, n)
            if not expansion.is_zero():
                out.append((expr, expansion))
    return out


# ---------------------------------------------------------------------------
# the degree-4 trace replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSearch:
    """Exact linear solve for corrections v_1..v_n (degree-4 second-derived
    elements) making S + sum_i fox_assoc(v_i, i) land in [U, U]."""

    solvable: bool
    unknowns: int
    equations: int
    null_space_dimension: int
    witness_exprs: Tuple[Tuple[int, LieExpr], ...]
    verified: bool


@dataclass(frozen=True)
class TraceReplay:
    rank: int
    source_expr: LieExpr
    derivative: NCPoly
    signature: Tuple[Tuple[Word, Scalar], ...]
    in_commutators: bool
    witness: Optional[WitnessSearch]

    def to_text(self) -> str:
        lines = [
            f"rank n = {self.rank}",
            f"source Lie monomial: {format_expr(self.source_expr, 'z')}",
            f"d/dz1 of its expansion: {self.derivative}",
            "cyclic-class sums:",
        ]
        for word, coeff in self.signature:
            lines.append(f"  class({NCPoly._format_key(word) or '1'}): {coeff}")
        lines.append(
            f"in commutator subspace [U,U]: {'yes' if self.in_commutators else 'no'}"
        )
        w = self.witness
        if w is not None:
            lines.append(
                "witness search over degree-4 second-derived corrections "
                f"({w.unknowns} unknowns, {w.equations} cyclic-class equations):"
            )
            lines.append(f"  solvable: {'yes' if w.solvable else 'no'}")
            if w.solvable:
                for i, expr in w.witness_exprs:
                    lines.append(f"  v{i} = {format_expr(expr, 'z')}")
                if not w.witness_exprs:
                    lines.append("  all v_i = 0")
                lines.append(f"  corrected sum in [U,U]: "
                             f"{'verified' if w.verified else 'FAILED'}")
            lines.append(f"  null space dimension: {w.null_space_dimension}")
        return "\n".join(lines)

    def to_doc(self) -> dict:
        doc = {
            "rank": self.rank,
            "source": format_expr(self.source_expr, "z"),
            "derivative": str(self.derivative),
            "cyclic_signature": [
                {"class": NCPoly._format_key(word) or "1", "sum": str(coeff)}
                for word, coeff in self.signature
            ],
            "in_commutator_subspace": self.in_commutators,
        }
        if self.witness is not None:
            w = self.witness
            doc["witness_search"] = {
                "solvable": w.solvable,
                "unknowns": w.unknowns,
                "equations": w.equations,
                "null_space_dimension": w.null_space_dimension,
                "witness": {
                    f"v{i}": format_expr(expr, "z") for i, expr in w.witness_exprs
                },
                "verified": w.verified,
            }
        return doc


def source_monomial() -> LieExpr:
    """[[z1, [z2, z3]], z4]."""
    return Bracket(Bracket(Gen(1), LeftNormed((2, 3))), Gen(4))


def replay(rank: int, include_witness: bool = True) -> TraceReplay:
    """Run the degree-4 trace computation at the given rank (>= 4)."""
    if rank < 4:
        raise ValueError("the replay needs rank >= 4")
    expr = source_monomial()
    s = fox_assoc(lie_to_assoc(expr, rank), 1)
    sig = tuple(sorted(cyclic_signature(s).items()))
    member = in_commutator_subspace(s)
    witness = _witness_search(rank, s) if include_witness else None
    return TraceReplay(rank, expr, s, sig, member, witness)


def _witness_search(rank: int, s: NCPoly) -> WitnessSearch:
    basis, expansions = zip(*_derived_degree4(rank))
    unknowns = [(i, k) for i in range(1, rank + 1) for k in range(len(basis))]

    # one equation per cyclic class of degree-3 words
    columns = [
        cyclic_signature(fox_assoc(expansions[k], i)) for i, k in unknowns
    ]
    rhs_sig = cyclic_signature(s)
    class_list = sorted(
        {
            cyclic_representative(w)
            for w in itertools.product(range(1, rank + 1), repeat=3)
        }
    )
    # the sparse rows of the system are the transpose of its columns
    row_of = {cls: r for r, cls in enumerate(class_list)}
    a_rows: List[dict] = [{} for _ in class_list]
    for u, col in enumerate(columns):
        for cls, c in col.items():
            a_rows[row_of[cls]][u] = c
    b = [-rhs_sig.get(cls, 0) for cls in class_list]

    solution = solve_sparse(a_rows, b, len(unknowns))
    if solution is None:
        return WitnessSearch(False, len(unknowns), len(class_list), 0, (), False)

    per_gen: Dict[int, list] = {}
    for (i, k), coeff in zip(unknowns, solution.particular):
        if coeff:
            per_gen.setdefault(i, []).append(scale_expr(coeff, basis[k]))
    witness_exprs = tuple(
        (i, sum_exprs(terms)) for i, terms in sorted(per_gen.items())
    )

    corrected = s
    for i, expr in witness_exprs:
        corrected = corrected + fox_assoc(lie_to_assoc(expr, rank), i)
    verified = in_commutator_subspace(corrected)
    return WitnessSearch(
        True,
        len(unknowns),
        len(class_list),
        solution.nullity,
        witness_exprs,
        verified,
    )
