"""The three benchmark workloads: `chain`, `tame` and `replay`.

Each workload has four parts:

* `generate(seed)` builds the input pool as plain text (endomorphism
  documents, factor specs, `k` and `n` values) from the seed alone, with its
  own random generator, so the inputs do not change when the package does;
* `prepare(inp)` turns an input into what the operation receives (set-up);
* `op(prepared, tracer, art)` is one timed operation: it drives the
  package's public functions as a user would, each call in its own span,
  returns the printed output, and appends the objects the per-layer
  counters are computed from to the lists in `art` (a defaultdict(list));
* `check(prepared, output)` is the oracle, run outside the timed interval. It
  recomputes the answer by an independent route and returns a list of
  mismatches (empty when the output is right).

The pool is an interleaving of fixed cells (rank, length, size) so that any
prefix of it has the same operation mix; the seed changes only the random
content inside each cell.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from metalie import dyadic, endos, freeassoc
from metalie import metabelian as mb
from metalie import verify
from metalie.lieexpr import format_expr, parse_expr
from metalie.polyring import PolyMatrix, Polynomial, parse_polynomial

COEFFS = (-3, -2, -1, 1, 2, 3)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"bench:{seed}:{tag}")


# ---------------------------------------------------------------------------
# text generation (no package code involved)
# ---------------------------------------------------------------------------


def _word(rng: random.Random, letters, degree: int) -> str:
    """Left-normed bracket word of the given degree, e.g. [[x2, x3], x2]."""
    a = rng.choice(letters)
    b = rng.choice(letters)
    while b == a:
        b = rng.choice(letters)
    text = f"[x{a}, x{b}]"
    for _ in range(degree - 2):
        text = f"[{text}, x{rng.choice(letters)}]"
    return text


def _join(terms) -> str:
    """Signed sum of (coefficient, body) pairs in the parser's grammar."""
    out = []
    for c, body in terms:
        mag = abs(c)
        piece = body if mag == 1 else f"{mag}*{body}"
        if not out:
            out.append(f"-{piece}" if c < 0 else piece)
        else:
            out.append(f"- {piece}" if c < 0 else f"+ {piece}")
    return " ".join(out)


def _doc(rank: int, images) -> str:
    return json.dumps({"rank": rank, "images": list(images)})


def _random_endo(rng: random.Random, rank: int, degree: int) -> str:
    """Endomorphism document: each image a linear combination of the
    generators, coefficients -3..3, plus `rank` bracket words in all, of
    degrees 2, 3, ..., degree, 2, 3, ..., each added to a random image.
    Fixing the number and degrees of the words per endomorphism (only their
    placement, letters and coefficients are random) keeps the cost of a pair
    from swinging with the seed."""
    images = [[] for _ in range(rank)]
    for i, terms in enumerate(images):
        for j in range(1, rank + 1):
            c = rng.randint(-3, 3)
            if c:
                terms.append((c, f"x{j}"))
    letters = list(range(1, rank + 1))
    for w in range(rank):
        d = 2 + w % (degree - 1)
        images[rng.randrange(rank)].append((rng.choice(COEFFS), _word(rng, letters, d)))
    return _doc(rank, [_join(t) if t else f"x{i + 1}" for i, t in enumerate(images)])


def _unimodular(rng: random.Random, n: int):
    """Integer matrix with det +-1: one row addition with +-1 and an optional
    sign flip, so the inverse is integral. More mixing than this makes the
    cost of a product depend mostly on chance overlaps between factors."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    a[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(a[i], a[j])]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        a[i] = [-x for x in a[i]]
    return a


def _wide_matrix(rng: random.Random, n: int):
    """Integer matrix, entries -3..3, with |det| > 1."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if abs(det_leibniz(a)) > 1:
            return a


def det_leibniz(a) -> Fraction:
    """Determinant by the permutation expansion (oracle for small n)."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = Fraction(1)
        for i, p in enumerate(perm):
            prod *= a[i][p]
        total += -prod if inversions % 2 else prod
    return total


def mat_inverse(a):
    """Inverse of a rational matrix by Gauss-Jordan elimination (oracle)."""
    n = len(a)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [v * inv for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# shared operation steps (each call into the package sits in its own span)
# ---------------------------------------------------------------------------


def _load(text: str, t) -> endos.Endo:
    doc = json.loads(text)
    rank = doc["rank"]
    exprs = []
    images = []
    for s in doc["images"]:
        with t.span("lieexpr.parse_expr"):
            e = parse_expr(s, "x", rank)
        with t.span("metabelian.evaluate"):
            images.append(mb.evaluate(e, rank))
        exprs.append(e)
    return endos.Endo(rank, tuple(images), tuple(exprs))


def _render(phi: endos.Endo, t, art) -> list:
    """The CLI's canonical image strings: lift, then print."""
    out = []
    for img in phi.images:
        with t.span("metabelian.lift"):
            e = mb.lift(img)
        with t.span("lieexpr.format_expr"):
            s = format_expr(e, "x")
        art["lift"].append(e)
        art["text"].append(s)
        out.append(s)
    return out


def _compose(phi, psi, t, art) -> endos.Endo:
    with t.span("endos.compose"):
        out = endos.compose(phi, psi)
    art["compose"].append(out)
    art["polys"].extend(img.tpart for img in out.images)
    return out


def _evaluated(text: str, rank: int, letter: str = "x") -> mb.MElement:
    return mb.evaluate(parse_expr(text, letter, rank), rank)


def _generators(rank: int):
    return [mb.generator(rank, i) for i in range(1, rank + 1)]


def _linear_images(matrix, rank: int):
    """Images x_i -> sum_j A[i][j] x_j as normal forms."""
    gens = _generators(rank)
    out = []
    for row in matrix:
        img = mb.zero(rank)
        for c, g in zip(row, gens):
            if c:
                img = img + g.scaled(Fraction(c))
        out.append(img)
    return out


# ---------------------------------------------------------------------------
# chain: many small compose + chain-rule operations
# ---------------------------------------------------------------------------


class Chain:
    """Pairs of random endomorphisms at ranks 2-5, bracket degree <= 5,
    integer coefficients -3..3: the traffic of `verify --suite chainrule`."""

    name = "chain"
    pool_size = 312
    degree = 5
    # Rank 4 holds the middle half of the operations and rank 5 the top
    # quarter, so the median and the p90 each fall inside one rank's
    # distribution instead of on the jump between two ranks.
    rank_mix = (2, 3, 4, 4, 4, 4, 5, 5)
    spans = (
        "lieexpr.parse_expr",
        "metabelian.evaluate",
        "endos.compose",
        "polyring.substitute",
        "polyring.matmul",
        "metabelian.lift",
        "lieexpr.format_expr",
    )

    def generate(self, seed: int) -> list:
        rng = _rng(seed, self.name)
        pool = []
        for i in range(self.pool_size):
            rank = self.rank_mix[i % len(self.rank_mix)]
            pool.append({
                "cell": f"r{rank}",
                "phi": _random_endo(rng, rank, self.degree),
                "psi": _random_endo(rng, rank, self.degree),
            })
        return pool

    def prepare(self, inp):
        return inp

    def op(self, inp, t, art) -> str:
        phi = _load(inp["phi"], t)
        psi = _load(inp["psi"], t)
        comp = _compose(phi, psi, t, art)
        with t.span("polyring.substitute"):
            moved = endos.apply_induced(phi, endos.jacobian(psi))
        with t.span("polyring.matmul"):
            rhs = moved * endos.jacobian(phi)
        art["polys"].extend(moved.rows + rhs.rows)
        holds = endos.jacobian(comp) == rhs
        doc = {"rank": comp.rank, "images": _render(comp, t, art)}
        return json.dumps({"chain_rule": holds, "composite": doc}, sort_keys=True)

    def check(self, inp, output: str) -> list:
        out = json.loads(output)
        errors = []
        if out["chain_rule"] is not True:
            errors.append("chain rule reported false")
        phi_doc = json.loads(inp["phi"])
        psi_doc = json.loads(inp["psi"])
        rank = phi_doc["rank"]
        phi_images = [_evaluated(s, rank) for s in phi_doc["images"]]
        comp = out["composite"]
        if comp["rank"] != rank or len(comp["images"]) != rank:
            return errors + ["composite has the wrong rank"]
        for i, (psi_text, got_text) in enumerate(zip(psi_doc["images"], comp["images"])):
            psi_i = _evaluated(psi_text, rank)
            want = mb.eval_with(mb.lift(psi_i), phi_images)
            # read back with the parser, so a printer fault shows too
            if parse_expr(got_text, "x", rank) != mb.lift(want):
                errors.append(f"image {i + 1} differs from phi(lift(psi_{i + 1}))")
        return errors


# ---------------------------------------------------------------------------
# tame: few large build + inverse operations
# ---------------------------------------------------------------------------


class Tame:
    """Tame products built by repeated compose, then Jacobian determinant,
    adjugate inverse, verified inverse, filtration level, and printing."""

    name = "tame"
    rounds = 50
    # (kind, rank, length); every factor's bracket part has degree 2. The
    # costliest cell of each kind runs twice a round, so the top fifth of
    # the operations is one dense block and the p90 falls inside it rather
    # than on the gap below `rational.r4.len3` (about twice the cost of any
    # other cell's median), where it moved by 6-10% from seed to seed.
    cells = (
        ("iaut", 3, 4),
        ("iaut", 4, 4),
        ("iaut", 5, 3),
        ("iaut", 5, 4),
        ("rational", 3, 3),
        ("rational", 3, 4),
        ("rational", 4, 2),
        ("rational", 4, 3),
        ("iaut", 5, 4),
        ("rational", 4, 3),
    )
    degree = 2
    spans = (
        "endos.compose",
        "polyring.det",
        "polyring.inverse_over_ring",
        "endos.inverse",
        "endos.iaut_level",
        "metabelian.lift",
        "lieexpr.format_expr",
    )

    def _factor(self, rng, kind: str, rank: int, step: int) -> dict:
        if kind == "iaut":
            f = _word(rng, list(range(2, rank + 1)), self.degree)
            return {"conj": _unimodular(rng, rank), "f": _join([(rng.choice(COEFFS), f)])}
        if step % 2 == 0:
            return {"linear": _wide_matrix(rng, rank)}
        position = rng.randint(1, rank)
        letters = [i for i in range(1, rank + 1) if i != position]
        f = _word(rng, letters, self.degree)
        return {"elementary": position, "f": _join([(rng.choice(COEFFS), f)])}

    def _squash(self, rng, rank: int) -> str:
        """Endomorphism whose linear part repeats row 1 in row 2 (singular)."""
        images = [f"x{i}" for i in range(1, rank + 1)]
        images[1] = _join([(1, "x1"), (rng.choice(COEFFS), _word(rng, list(range(1, rank + 1)), 2))])
        return _doc(rank, images)

    def generate(self, seed: int) -> list:
        rng = _rng(seed, self.name)
        pool = []
        for rnd in range(self.rounds):
            for c, (kind, rank, length) in enumerate(self.cells):
                spec = {
                    "kind": kind,
                    "rank": rank,
                    "factors": [self._factor(rng, kind, rank, s) for s in range(length)],
                    "squash": self._squash(rng, rank) if c == rnd % len(self.cells) else None,
                }
                pool.append({"cell": f"{kind}.r{rank}.len{length}", "spec": json.dumps(spec)})
        return pool

    def prepare(self, inp):
        return inp

    @staticmethod
    def _build_factor(fac: dict, rank: int) -> endos.Endo:
        if "conj" in fac:
            conj, _, _ = endos.conjugate_elementary(
                fac["conj"], parse_expr(fac["f"], "x", rank), rank
            )
            return conj
        if "linear" in fac:
            return endos.linear(fac["linear"])
        return endos.elementary(rank, parse_expr(fac["f"], "x", rank), fac["elementary"])

    def op(self, inp, t, art) -> str:
        spec = json.loads(inp["spec"])
        rank = spec["rank"]
        acc = endos.identity(rank)
        for fac in spec["factors"]:
            acc = _compose(self._build_factor(fac, rank), acc, t, art)
        if spec["squash"] is not None:
            acc = _compose(_load(spec["squash"], t), acc, t, art)
        jac = endos.jacobian(acc)
        with t.span("polyring.det"):
            det = jac.det()
        with t.span("polyring.inverse_over_ring"):
            jinv = jac.inverse_over_ring()
        with t.span("endos.inverse"):
            inv = endos.inverse(acc)
        with t.span("endos.iaut_level"):
            level = endos.iaut_level(acc)
        art["polys"].append((det,))
        if jinv is not None:
            art["polys"].extend(jinv.rows)
        art["inverse"].append((spec["squash"] is None, inv is not None))
        out = {
            "product": _render(acc, t, art),
            "det": str(det),
            "jacobian_inverse": None if jinv is None else [[str(p) for p in row] for row in jinv.rows],
            "inverse": None if inv is None else _render(inv, t, art),
            "iaut_level": "infinity" if level == float("inf") else int(level),
        }
        return json.dumps(out, sort_keys=True)

    @staticmethod
    def _oracle_factor(fac: dict, rank: int) -> list:
        """Factor images by direct evaluation, without endos constructors."""
        gens = _generators(rank)
        if "linear" in fac:
            return _linear_images(fac["linear"], rank)
        f = _evaluated(fac["f"], rank)
        if "elementary" in fac:
            p = fac["elementary"] - 1
            return [g + f if i == p else g for i, g in enumerate(gens)]
        # alpha o (x1 -> x1 + f) o alpha^-1, image by image
        alpha = _linear_images(fac["conj"], rank)
        elem = [g + f if i == 0 else g for i, g in enumerate(gens)]
        moved = [mb.eval_with(mb.lift(e), alpha) for e in elem]
        out = []
        for row in mat_inverse(fac["conj"]):
            img = mb.zero(rank)
            for c, m in zip(row, moved):
                if c:
                    img = img + m.scaled(c)
            out.append(img)
        return out

    def check(self, inp, output: str) -> list:
        spec = json.loads(inp["spec"])
        rank = spec["rank"]
        out = json.loads(output)
        errors = []
        product = _generators(rank)
        expected_det = Fraction(1)
        for fac in spec["factors"]:
            images = self._oracle_factor(fac, rank)
            product = [mb.eval_with(mb.lift(p), images) for p in product]
            if "linear" in fac:
                expected_det *= det_leibniz(fac["linear"])
        if spec["squash"] is not None:
            squash = [_evaluated(s, rank) for s in json.loads(spec["squash"])["images"]]
            product = [mb.eval_with(mb.lift(p), squash) for p in product]
        printed = [_evaluated(s, rank) for s in out["product"]]
        if printed != product:
            errors.append("printed product differs from direct evaluation")
        det = parse_polynomial(out["det"], rank)
        jac = PolyMatrix(rank, [p.tpart for p in product])
        ident = PolyMatrix.identity(rank, rank)
        gens = _generators(rank)
        if spec["squash"] is None:
            if det != Polynomial.constant(rank, expected_det):
                errors.append(f"det J = {out['det']}, expected {expected_det}")
            if out["jacobian_inverse"] is None:
                errors.append("J has no inverse over the ring")
            else:
                jinv = PolyMatrix(
                    rank,
                    [[parse_polynomial(s, rank) for s in row] for row in out["jacobian_inverse"]],
                )
                if jac * jinv != ident:
                    errors.append("J * J^-1 != E")
            if out["inverse"] is None:
                errors.append("automorphism reported as NotAutomorphism")
            else:
                inv = [parse_expr(s, "x", rank) for s in out["inverse"]]
                if [mb.eval_with(e, printed) for e in inv] != gens:
                    errors.append("phi(inverse(x_i)) != x_i")
        else:
            if det.constant_term() != 0:
                errors.append("singular linear part but det J(0) != 0")
            if out["inverse"] is not None or out["jacobian_inverse"] is not None:
                errors.append("singular input was inverted")
        if out["iaut_level"] != _level(product, gens):
            errors.append(f"iaut level {out['iaut_level']} is wrong")
        return errors


def _level(images, gens):
    """Filtration level from the normal form: 0 when some image moves the
    linear part, else the lowest polynomial degree in the module parts of
    image - generator (a module term of degree d has bracket degree d + 1)."""
    lowest = None
    for img, g in zip(images, gens):
        delta = img - g
        if any(delta.linear):
            return 0
        for p in delta.tpart:
            for mono in p.terms:
                d = sum(mono)
                lowest = d if lowest is None else min(lowest, d)
    return "infinity" if lowest is None else lowest


# ---------------------------------------------------------------------------
# replay: the paper's two replays plus grounding of the rank-one product
# ---------------------------------------------------------------------------


class Replay:
    """`dyadic.residual_check(k)`, `freeassoc.replay(n)` with the witness
    solve, and `dyadic.instantiate(expand_product(k), Phi, Psi)` on concrete
    conjugated-elementary pairs built during set-up."""

    name = "replay"
    rounds = 10
    # (kind, k or n, rank), one operation each per round. Ranked by cost the
    # four `inst` cells come first, then `oe` n=5 three times, `bn` k=10 and
    # `oe` n=6 twice, so the median falls inside the `oe` n=5 block and the
    # p90 inside the `oe` n=6 block rather than between two cells.
    cells = (
        ("inst", 3, 4),
        ("oe", 5, 0),
        ("inst", 4, 4),
        ("oe", 6, 0),
        ("bn", 10, 0),
        ("oe", 5, 0),
        ("inst", 3, 5),
        ("oe", 6, 0),
        ("inst", 4, 5),
        ("oe", 5, 0),
    )

    spans = (
        "dyadic.residual_check",
        "dyadic.expand_product",
        "dyadic.instantiate",
        "freeassoc.replay",
        "cli.render",
    )

    def __init__(self):
        self._spaces = {}  # oracle cache: rank -> commutator row space

    def generate(self, seed: int) -> list:
        rng = _rng(seed, self.name)
        pool = []
        for _ in range(self.rounds):
            for kind, size, rank in self.cells:
                if kind == "bn":
                    pool.append({"cell": f"bn.k{size}", "kind": kind, "k": size})
                elif kind == "oe":
                    pool.append({"cell": f"oe.n{size}", "kind": kind, "n": size})
                else:
                    letters = list(range(2, rank + 1))
                    pairs = [
                        {"alpha": _unimodular(rng, rank),
                         "f": _join([(rng.choice(COEFFS), _word(rng, letters, 2))])}
                        for _ in range(size)
                    ]
                    pool.append({"cell": f"inst.r{rank}.k{size}", "kind": kind,
                                 "rank": rank, "k": size, "pairs": pairs})
        return pool

    def prepare(self, inp):
        if inp["kind"] != "inst":
            return inp
        rank = inp["rank"]
        phis, psis = {}, {}
        for i, pair in enumerate(inp["pairs"], 1):
            f = parse_expr(pair["f"], "x", rank)
            _, phis[i], psis[i] = endos.conjugate_elementary(pair["alpha"], f, rank)
        return dict(inp, phis=phis, psis=psis)

    def op(self, inp, t, art) -> str:
        kind = inp["kind"]
        if kind == "inst":
            with t.span("dyadic.expand_product"):
                expr = dyadic.expand_product(inp["k"])
            with t.span("dyadic.instantiate"):
                grounded = dyadic.instantiate(expr, inp["phis"], inp["psis"])
            art["expand"].append(expr)
            art["polys"].extend(grounded.rows)
            return str(grounded)
        if kind == "bn":
            with t.span("dyadic.residual_check"):
                report = dyadic.residual_check(inp["k"])
        else:
            with t.span("freeassoc.replay"):
                report = freeassoc.replay(inp["n"], include_witness=True)
            art["replay"].append(report)
        with t.span("cli.render"):
            structured = json.dumps(report.to_doc(), indent=2, sort_keys=True)
            text = report.to_text()
        return structured + "\n\n" + text

    def check(self, inp, output: str) -> list:
        kind = inp["kind"]
        if kind == "inst":
            rank = inp["rank"]
            ident = PolyMatrix.identity(rank, rank)
            want = ident
            for i in range(1, inp["k"] + 1):
                want = want * (ident + inp["phis"][i] * inp["psis"][i])
            return [] if output == str(want) else ["instantiation differs from the plain product"]
        doc = json.loads(output.split("\n\n", 1)[0])
        if kind == "bn":
            errors = []
            if doc["factors"] != inp["k"]:
                errors.append("wrong factor count")
            if doc["psi1_coefficient"] != "λ21" or doc["residual_survives"] is not True:
                errors.append("the λ21*Ψ1 coefficient did not survive")
            reduced = next(s for s in doc["steps"] if s["label"] == "R")
            if "λ21*Ψ1" not in reduced["terms"]:
                errors.append("reduced relation lacks λ21*Ψ1")
            return errors
        return self._check_witness(inp["n"], doc)

    def _check_witness(self, n: int, doc: dict) -> list:
        w = doc.get("witness_search")
        if not w or not w["solvable"] or not w["verified"]:
            return ["witness search did not return a verified witness"]
        errors = []
        if w["equations"] != (n**3 + 2 * n) // 3:
            errors.append("equation count differs from the number of cyclic classes")
        corrected = freeassoc.fox_assoc(
            freeassoc.lie_to_assoc(parse_expr(doc["source"], "z", n), n), 1
        )
        for name, text in w["witness"].items():
            e = parse_expr(text, "z", n)
            corrected = corrected + freeassoc.fox_assoc(freeassoc.lie_to_assoc(e, n), int(name[1:]))
        space = self._spaces.get(n)
        if space is None:
            space = self._spaces[n] = verify.commutator_row_space(n, 3)
        if not space.contains(corrected.terms):
            errors.append("corrected sum is not in the span of commutators")
        return errors


WORKLOADS = {w.name: w for w in (Chain(), Tame(), Replay())}
