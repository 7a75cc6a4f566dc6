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

from dataclasses import dataclass
from operator import add, attrgetter
from typing import Dict, List, Optional, Tuple

from .lieexpr import LeftNormed, LieExpr, Sum, combination, format_expr
from .polyring import Scalar, SparseTerms, _add_into, solve_sparse

Word = Tuple[int, ...]
Quad = Tuple[int, int, int, int]


class NCPoly(SparseTerms):
    """Noncommutative polynomial: a sparse map word -> coefficient, where a
    word is a tuple of 1-based letter indices and () is the unit."""

    __slots__ = ()

    rank = property(attrgetter("_dim"))

    def _key(self, word) -> Word:
        word = tuple(word)
        if not all(type(a) is int and 1 <= a <= self._dim for a in word):
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
        if type(i) is not int or not 1 <= i <= rank:
            raise ValueError(f"letter {i!r} out of range 1..{rank}")
        return cls._raw(rank, {(i,): 1})

    def constant_term(self) -> Scalar:
        return self.terms.get((), 0)

    def homogeneous_component(self, d: int) -> "NCPoly":
        return NCPoly._raw(
            self._dim, {w: c for w, c in self.terms.items() if len(w) == d}
        )


def lie_to_assoc(e: LieExpr, rank: int) -> NCPoly:
    """Expand a bracket expression in the free associative algebra via
    [u, v] = uv - vu."""
    if type(e) is int:
        return NCPoly.gen(rank, e)
    if isinstance(e, LeftNormed):
        # the letters of a left-normed word, one commutator each
        u, *rest = (lie_to_assoc(a, rank) for a in e.letters)
        for v in rest:
            u = u * v - v * u
        return u
    if isinstance(e, Sum):
        acc = NCPoly.zero(rank)
        for c, p in e.parts:
            acc = acc + lie_to_assoc(p, rank) * c
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
    all [[z_i, z_j], [z_k, z_l]] with i > j, k > l and (i, j) > (k, l).
    None of them expands to zero (see `_degree4_quads`), so none is dropped."""
    return [_bracket(quad) for quad in _degree4_quads(n)]


def _degree4_quads(n: int) -> List[Quad]:
    """The index quads (i, j, k, l) of derived_degree4_basis(n), in its order.
    The expansion of [[z_i, z_j], [z_k, z_l]] has eight distinct words, since
    {i, j} != {k, l}, so no candidate's expansion vanishes."""
    if n < 2:
        raise ValueError("need rank >= 2")
    pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    return [p + q for a, p in enumerate(pairs) for q in pairs[:a]]


def _bracket(quad: Quad) -> LieExpr:
    i, j, k, l = quad
    return LeftNormed((i, j, LeftNormed((k, l))))


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

    @staticmethod
    def layout(doc: dict) -> str:
        """The text form, laid out from a `to_doc()` document."""
        yes = {True: "yes", False: "no"}
        lines = [
            f"rank n = {doc['rank']}",
            f"source Lie monomial: {doc['source']}",
            f"d/dz1 of its expansion: {doc['derivative']}",
            "cyclic-class sums:",
            *(f"  class({c['class']}): {c['sum']}" for c in doc["cyclic_signature"]),
            f"in commutator subspace [U,U]: {yes[doc['in_commutator_subspace']]}",
        ]
        w = doc.get("witness_search")
        if w is not None:
            lines += [
                "witness search over degree-4 second-derived corrections "
                f"({w['unknowns']} unknowns, {w['equations']} cyclic-class equations):",
                f"  solvable: {yes[w['solvable']]}",
            ]
            if w["solvable"]:
                witness = [f"  {v} = {expr}" for v, expr in w["witness"].items()]
                lines += witness or ["  all v_i = 0"]
                verified = "verified" if w["verified"] else "FAILED"
                lines.append(f"  corrected sum in [U,U]: {verified}")
            lines.append(f"  null space dimension: {w['null_space_dimension']}")
        return "\n".join(lines)

    def to_text(self) -> str:
        return self.layout(self.to_doc())


def source_monomial() -> LieExpr:
    """[[z1, [z2, z3]], z4]."""
    return LeftNormed((1, LeftNormed((2, 3)), 4))


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


def _witness_system(rank: int, s: NCPoly) -> tuple:
    """(quads, class_list, rows of A, b) of the witness system A x = b, built
    by index arithmetic in one pass over the classes and one over the quads.

    Unknown (x - 1) * len(quads) + q is the coefficient in v_x of the basis
    element of quads[q]. There is one row per cyclic class of degree-3 words,
    in the order of the classes' least rotations (class_list), which are
    enumerated directly: (a, b, c) with a its least letter, and c > a unless
    b = a. Each class's row is assigned to its three rotations, a word
    (a, b, c) of 0-based letters sitting at the flat index (a*n + b)*n + c.
    The quad (i, j, k, l) then adds the eight signed words w*z_x of
    [u, v] = uv - vu, u = z_i z_j - z_j z_i and v = z_k z_l - z_l z_k,
    straight into the row of w at column (x - 1) * len(quads) + q. Two words
    of one quad can share a row and a column (when i = k, say), so they are
    summed and a zero sum is dropped. b is minus the class sums of s."""
    n = rank
    quads = _degree4_quads(n)
    class_list = []
    row_of = [0] * n**3
    for a in range(n):
        for b in range(a, n):
            for c in range(a + (b > a), n):
                r = len(class_list)
                row_of[(a * n + b) * n + c] = row_of[(b * n + c) * n + a] = r
                row_of[(c * n + a) * n + b] = r
                class_list.append((a + 1, b + 1, c + 1))
    a_rows: List[dict] = [{} for _ in class_list]
    row_at = [a_rows[r] for r in row_of]
    size = len(quads)
    for q, (i, j, k, l) in enumerate(quads):
        i, j, k, l = i - 1, j - 1, k - 1, l - 1
        ij, ji = (i * n + j) * n, (j * n + i) * n
        kl, lk = (k * n + l) * n, (l * n + k) * n
        xi, xj, xk, xl = i * size + q, j * size + q, k * size + q, l * size + q
        for w, x, c in (
            (ij + k, xl, 1), (ij + l, xk, -1), (ji + k, xl, -1), (ji + l, xk, 1),
            (kl + i, xj, -1), (kl + j, xi, 1), (lk + i, xj, 1), (lk + j, xi, -1),
        ):
            row = row_at[w]
            c += row.get(x, 0)
            if c:
                row[x] = c
            else:
                del row[x]
    b = [0] * len(class_list)
    for (x, y, z), c in s.terms.items():
        b[row_of[((x - 1) * n + y - 1) * n + z - 1]] -= c
    return quads, class_list, a_rows, b


def _witness_search(rank: int, s: NCPoly) -> WitnessSearch:
    quads, class_list, a_rows, b = _witness_system(rank, s)
    unknowns = rank * len(quads)
    solution = solve_sparse(a_rows, b, unknowns)
    if solution is None:
        return WitnessSearch(False, unknowns, len(class_list), 0, (), False)

    per_gen: Dict[int, list] = {}
    for u, coeff in enumerate(solution.particular):
        if coeff:
            i, q = divmod(u, len(quads))
            per_gen.setdefault(i + 1, []).append((coeff, _bracket(quads[q])))
    witness_exprs = tuple(
        (i, combination(terms)) for i, terms in sorted(per_gen.items())
    )

    corrected = s
    for i, expr in witness_exprs:
        corrected = corrected + fox_assoc(lie_to_assoc(expr, rank), i)
    verified = in_commutator_subspace(corrected)
    return WitnessSearch(
        True, unknowns, len(class_list), solution.nullity, witness_exprs, verified
    )
