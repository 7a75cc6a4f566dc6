"""Command-line front end.

Exit codes: 0 = success (including "NotAutomorphism" verdicts), 1 = usage or
input error, 2 = verification failure, 141 = standard output closed before
the output was written (a broken pipe, as in `metalie ... | head -1`; the
status a shell reports for a process ended by SIGPIPE), with nothing
written to stderr.

The replays grow exponentially with their size argument, so the CLI caps
them: `replay-bn --factors` at MAX_FACTORS (the expansion has 2^k - 1 dyads)
and `replay-oe --rank` at MAX_OE_RANK (at n = 9 the witness solve has 249
equations in 5670 unknowns). At the caps the two take about 0.2 s and 0.01 s
of process time in `main`, output discarded, on a 2-core virtual machine
(interpreter start adds about 0.2 s). The rank of an element or endomorphism is
capped at MAX_RANK, however it enters (`--rank`, the rank `nf` infers, a
JSON document's "rank", the image count of a semicolon list, the size of a
"linear:" matrix), and is checked before anything is evaluated: at the cap,
`inverse` of "x1 + [x2,x3]; x2; ...; x100" takes about 0.4 s, and
`nf x10000` stops at once. Determinants and ring inverses hold at most
`polyring.MAX_MINORS` nonzero minors of one size: `inverse` of a dense
"linear:" map takes about 3 s at rank 14 and exits 1 at rank 15. Parsed
expressions keep the limits of `lieexpr`: a left-normed bracket (no
recursion, whatever its operands) has at most `MAX_WORD_LENGTH` letters,
and right operands, parentheses and words continued into sums nest at most
`MAX_NESTING` (100) levels. Lifts print as sums of left-normed words, so
`endo_doc` output parses back at any degree up to the word cap. No cap
bounds the output: `compose` of 'linear:[[1,1],[0,1]]' and "x1 + W; x2", W
a left-normed word of n letters, prints about 6.2 n^2 bytes.

Each command builds one result document, the dict that `--format
structured` prints as JSON, and lays its text form out from that document,
so every printed value is formatted once.

Endomorphisms are given either as a JSON document {"rank": n, "images":
[...]} (inline or as a file path), as a semicolon-separated list of bracket
expressions ("x1 + [x2,x3]; x2; x3"), or through the constructor shorthands
"inner:EXPR", "elementary:EXPR" (rank taken from --rank) and
"linear:[[...]]". A parse error in a semicolon list is reported at its
offset in the whole list, one in a shorthand at its offset in the whole
argument, and an empty image before the last one is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate

from . import __version__, dyadic, endos, freeassoc
from . import metabelian as mb
from . import verify as verify_mod
from .lieexpr import format_expr, generators_used, parse_expr
from .polyring import ParseError


MAX_FACTORS = 14
MAX_OE_RANK = 9
MAX_RANK = 100
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # a signed expression ('-x1', '-[x1,x2]') is an argument, not an option
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-", "h"):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


class _UsageError(ValueError):
    """A command line the parser rejects, or an option value out of range."""


def _emit(args, doc: dict, layout):
    """Print a command's result document: as JSON, or as the text that
    `layout` lays out from it."""
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(layout(doc))


# -- endomorphism input/output ------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _json(text: str):
    """json.loads that reports input nested too deeply as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _parse_at(text: str, start: int, rank: int):
    """parse_expr of text that begins at offset start of an argument, with a
    parse error reported at its offset in the argument."""
    try:
        return parse_expr(text, "x", rank)
    except ParseError as e:
        raise ParseError(e.message, start + e.position) from None


def load_endo(spec: str, rank: int = 0) -> endos.Endo:
    _check_limit("--rank", rank, MAX_RANK)
    for prefix in ("inner:", "elementary:"):
        if spec.startswith(prefix):
            if not rank:
                raise _UsageError(f"{prefix[:-1]} shorthand needs --rank")
            expr = _parse_at(spec[len(prefix) :], len(prefix), rank)
            if prefix == "inner:":
                return endos.inner(rank, mb.evaluate(expr, rank))
            return endos.elementary(rank, expr)
    if spec.startswith("linear:"):
        matrix = _json(spec[len("linear:") :])
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ValueError("linear: matrix must be a JSON list of rows")
        n = len(matrix)
        _check_limit("linear: matrix size", n, MAX_RANK)
        if rank and rank != n:
            raise ValueError(f"--rank {rank} does not match endomorphism rank {n}")
        for i, row in enumerate(matrix):
            for j, c in enumerate(row):
                if not _is_int(c):
                    raise ValueError(
                        f"linear: entry [{i}][{j}] must be an integer,"
                        f" got {json.dumps(c)}"
                    )
        return endos.linear(matrix)

    text = spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif spec.endswith(".json"):
        raise ValueError(f"no such file: {spec}")
    if text.lstrip().startswith("{"):
        doc = _json(text.strip())
        for key in ("rank", "images"):
            if key not in doc:
                raise ValueError(f"endomorphism document has no '{key}' field")
        doc_rank, images = doc["rank"], doc["images"]
        if not _is_int(doc_rank) or doc_rank < 1:
            raise ValueError(
                f"'rank' must be a positive integer, got {json.dumps(doc_rank)}"
            )
        _check_limit("'rank'", doc_rank, MAX_RANK)
        if not isinstance(images, list) or not all(isinstance(s, str) for s in images):
            raise ValueError("'images' must be a JSON list of expression strings")
        starts = [0] * len(images)
    else:
        # empty parts after the last image are dropped, and no others
        images = text.split(";")
        while images and not images[-1].strip():
            images.pop()
        doc_rank = len(images)
        _check_limit("image count", doc_rank, MAX_RANK)
        for k, part in enumerate(images, 1):
            if not part.strip():
                raise ValueError(f"image {k} is empty")
        # a parse offset is reported into the text the list was read from
        starts = accumulate((len(part) + 1 for part in images), initial=0)
    if rank and rank != doc_rank:
        raise ValueError(f"--rank {rank} does not match endomorphism rank {doc_rank}")
    exprs = [_parse_at(part, start, doc_rank) for part, start in zip(images, starts)]
    return endos.from_exprs(doc_rank, exprs)


def endo_doc(phi: endos.Endo) -> dict:
    # canonical image expressions: linear part plus deterministic lift
    return {
        "rank": phi.rank,
        "images": [format_expr(mb.lift(img), "x") for img in phi.images],
    }


def _endo_layout(doc: dict) -> str:
    images = (f"x{i} -> {img}" for i, img in enumerate(doc["images"], 1))
    return "\n".join((f"rank {doc['rank']}", *images))


# -- subcommands --------------------------------------------------------------


def _nf_layout(doc: dict) -> str:
    lin, tp = ", ".join(doc["linear"]), ", ".join(doc["tpart"])
    return f"linear: ({lin})\ntpart:  ({tp})"


def cmd_nf(args) -> int:
    expr = parse_expr(args.expr, "x")
    top = max(generators_used(expr), default=0)
    rank = args.rank or max(top, 1)
    _check_limit("--rank" if args.rank else "inferred rank", rank, MAX_RANK)
    if top > rank:
        raise ValueError(f"expression uses x{top} but rank is {rank}")
    value = mb.evaluate(expr, rank)
    doc = {
        "rank": rank,
        "linear": [str(c) for c in value.linear],
        "tpart": [str(p) for p in value.tpart],
    }
    _emit(args, doc, _nf_layout)
    return 0


def cmd_jac(args) -> int:
    phi = load_endo(args.endo, args.rank)
    rows = [[str(p) for p in row] for row in endos.jacobian(phi).rows]
    doc = {"rank": phi.rank, "jacobian": rows}
    _emit(args, doc, lambda d: "\n".join(f"[{', '.join(r)}]" for r in d["jacobian"]))
    return 0


def cmd_compose(args) -> int:
    phi = load_endo(args.endo, args.rank)
    psi = load_endo(args.other, args.rank)
    _emit(args, endo_doc(endos.compose(phi, psi)), _endo_layout)
    return 0


def cmd_inverse(args) -> int:
    phi = load_endo(args.endo, args.rank)
    inv = endos.inverse(phi)
    if inv is None:
        doc = {"rank": phi.rank, "verdict": "NotAutomorphism"}
        _emit(args, doc, lambda d: d["verdict"])
    else:
        _emit(args, endo_doc(inv), _endo_layout)
    return 0


def cmd_iaut_level(args) -> int:
    phi = load_endo(args.endo, args.rank)
    level = endos.iaut_level(phi)
    rendered = "infinity" if level == float("inf") else int(level)
    doc = {"rank": phi.rank, "iaut_level": rendered}
    _emit(args, doc, lambda d: f"iaut level: {d['iaut_level']}")
    return 0


def _check_limit(option: str, value: int, limit: int):
    if value > limit:
        # an option (--rank, --factors) over its limit is a usage error
        error = _UsageError if option.startswith("--") else ValueError
        raise error(f"{option} {value} exceeds the limit of {limit}")


def cmd_replay_bn(args) -> int:
    _check_limit("--factors", args.factors, MAX_FACTORS)
    report = dyadic.residual_check(args.factors)
    _emit(args, report.to_doc(), report.layout)
    return 0


def cmd_replay_oe(args) -> int:
    _check_limit("--rank", args.rank, MAX_OE_RANK)
    report = freeassoc.replay(args.rank, include_witness=args.witness)
    _emit(args, report.to_doc(), report.layout)
    return 0


def _verify_layout(doc: dict) -> str:
    lines = []
    for s in doc["suites"]:
        status = "pass" if s["passed"] else "FAIL"
        lines.append(f"{s['name']}: {status} ({s['cases']} cases)")
        lines += [f"  {line}" for line in s["failures"]]
    total = doc["total"]
    status = "pass" if total["passed"] else "FAIL"
    lines.append(f"total: {total['cases']} cases, {status}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    results = verify_mod.run_suites(names, args.seed)
    suites = [
        {"name": r.name, "passed": r.passed, "cases": r.cases, "failures": r.failures}
        for r in results
    ]
    passed = all(r.passed for r in results)
    total = {"cases": sum(r.cases for r in results), "passed": passed}
    _emit(args, {"suites": suites, "total": total}, _verify_layout)
    return 0 if passed else 2


# -- parser -------------------------------------------------------------------


def _rank_option(text: str) -> int:
    """--rank of the commands that can infer it: 0 infers the rank from the
    input."""
    try:
        rank = int(text)
    except ValueError:
        rank = -1
    if rank < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer (0 infers the rank), got {text!r}"
        )
    return rank


_RANK_HELP = f"rank n <= {MAX_RANK} (default: inferred)"


def _add_format(p):
    p.add_argument(
        "--format",
        choices=["text", "structured"],
        default="text",
        help="output format (structured = JSON)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="metalie",
        description="Exact computations in the free metabelian Lie algebra: "
        "normal forms, Jacobians, automorphism tests, and the two "
        "matrix-calculus replays.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a bracket expression")
    p.add_argument("expr", help="bracket expression, e.g. '[x1,x2]'")
    p.add_argument("--rank", type=_rank_option, default=0, help=_RANK_HELP)
    _add_format(p)
    p.set_defaults(func=cmd_nf)

    for name, fn, helptext in [
        ("jac", cmd_jac, "Jacobian matrix of an endomorphism"),
        ("inverse", cmd_inverse, "inverse automorphism or NotAutomorphism"),
        ("iaut-level", cmd_iaut_level, "identity-modulo-degree filtration level"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("endo", help="endomorphism (file, JSON, images, shorthand)")
        p.add_argument("--rank", type=_rank_option, default=0, help=_RANK_HELP)
        _add_format(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("compose", help="compose two endomorphisms")
    p.add_argument("endo", help="phi (applied last)")
    p.add_argument("other", help="psi (applied first)")
    p.add_argument("--rank", type=_rank_option, default=0, help=_RANK_HELP)
    _add_format(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "replay-bn", help="rank-one update product trace and residual verdict"
    )
    p.add_argument(
        "--factors",
        type=int,
        default=3,
        help=f"number of factors, 2 <= k <= {MAX_FACTORS}",
    )
    _add_format(p)
    p.set_defaults(func=cmd_replay_bn)

    p = sub.add_parser(
        "replay-oe", help="free-associative degree-4 trace computation"
    )
    p.add_argument(
        "--rank", type=int, required=True, help=f"rank, 4 <= n <= {MAX_OE_RANK}"
    )
    p.add_argument(
        "--witness",
        action="store_true",
        help="run the exact linear solve for correction terms",
    )
    _add_format(p)
    p.set_defaults(func=cmd_replay_oe)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument(
        "--suite",
        choices=sorted(verify_mod.SUITES) + ["all"],
        required=True,
    )
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # a reader that has gone away shows up here, not at interpreter
            # exit, also after --help and --version
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; pointing it at
        # os.devnull keeps that flush from failing with a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, KeyError) as e:
        # ParseError and json.JSONDecodeError are ValueErrors
        parse = isinstance(e, ParseError)
        message = f"metalie: {'parse error' if parse else 'error'}: {e}"
        if args is None:  # the parser's own error, after its usage line
            message = str(e)
        elif args.format == "structured":
            kind = "usage" if isinstance(e, _UsageError) else "input"
            kind, offset = ("parse", e.position) if parse else (kind, None)
            message = json.dumps({"error": str(e), "kind": kind, "offset": offset})
        print(message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
