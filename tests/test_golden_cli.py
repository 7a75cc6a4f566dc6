"""Byte-for-byte CLI output goldens: the one gate for CLI output.

Each case runs `main` in process, in text and structured form:
- every README example and the replays up to `--factors 10` and
  `--rank 9 --witness`;
- `compose`, `inverse`, `jac` and `iaut-level` on `linear:`, `inner:`,
  rational, singular and NotAutomorphism inputs of ranks 3..5
  (`_endo_commands`);
- `inverse` of five dense tame products (`PRODUCTS`), of the rank-12
  Pascal matrix, of a dense integer and a rational rank-6 map, and
  `compose` with a 400-letter word and with a degree-6 map;
- `verify --suite all --seed 7`.
The recorded stdout and exit code live in `golden/cli.json`; a refactor
must reproduce them exactly. Outputs longer than `HASH_OVER` characters
are recorded by the SHA-256 of their UTF-8 bytes, which keeps the file
small. The inputs are literal data, so that no change to the package's
random generators can move them.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints the argv of each record it adds, changes or drops before it
rewrites the file.
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import shlex

import pytest

from metalie.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli.json"
HASH_OVER = 20_000

_DOC = json.dumps({"rank": 3, "images": ["x1 + [x2,x3]", "x2", "x3"]})

_FORMATTED = [
    # README examples
    ["nf", "--rank", "3", "[x1,x2]"],
    ["jac", "inner:[x1,x2]", "--rank", "3"],
    ["compose", "x1 + [x2,x3]; x2; x3", "x1; x2 + 2*[x1,x3]; x3"],
    ["inverse", "x1 + [x2,x3]; x2; x3"],
    ["iaut-level", "x1 + [[x2,x3],x2]; x2; x3"],
    ["replay-bn", "--factors", "3"],
    ["replay-oe", "--rank", "4", "--witness"],
    ["jac", _DOC],
    ["jac", "elementary:[x2,x3]", "--rank", "3"],
    # normal forms with rational and repeated coefficients
    ["nf", "1/2*[x1,x2] - 3*[[x1,x2],x1] + 2/4*x3 - x3"],
    ["nf", "--rank", "4", "[[x1,x2],[x3,x4]] - 2/3*[[x1,x3],[x2,x4]]"],
    # linear: inputs
    ["inverse", "linear:[[2,1],[1,1]]"],
    ["inverse", "linear:[[1,2],[3,4]]"],
    ["compose", "linear:[[1,2],[3,4]]", "x1 + [x1,x2]; x2"],
    ["compose", "x1 + 2*[[x1,x2],x2]; x2", "linear:[[0,1],[1,0]]"],
    # inner: inputs
    ["inverse", "inner:[x1,x2]", "--rank", "3"],
    ["inverse", "inner:[[x1,x2],x3] - 2*[x2,x3]", "--rank", "3"],
    ["compose", "inner:[x1,x2]", "inner:[x2,x3]", "--rank", "3"],
    # rational inputs
    ["inverse", "1/2*x1 + 3/4*[x2,x3]; x2; x3"],
    ["inverse", "x1 - 1/3*[x2,[x2,x3]]; 2*x2 + x3; x3"],
    ["compose", "2/3*x1; x2 - 1/2*[x1,x2]", "x1 + 5/7*[x1,x2]; 3*x2"],
    # NotAutomorphism inputs
    ["inverse", "x1; x1; x3"],
    ["inverse", "x1 + x2; x1 + x2"],
    ["inverse", "x1 + [x1,x2]; x2"],
    ["iaut-level", "linear:[[1,2],[3,4]]"],
    # the replays at other sizes
    ["replay-bn", "--factors", "2"],
    ["replay-bn", "--factors", "5"],
    ["replay-oe", "--rank", "5"],
    ["replay-oe", "--rank", "5", "--witness"],
    # the replays at the benchmark's sizes and at the caps
    ["replay-oe", "--rank", "6", "--witness"],
    ["replay-oe", "--rank", "9", "--witness"],
    ["replay-bn", "--factors", "10"],
    # rank-5 inverses (the largest determinants), rational and negative
    # leading coefficients, constant terms, and a linear factor at rank 5
    ["inverse", "inner:[[x1,x2],x5] - 2*[x3,x4]", "--rank", "5"],
    ["inverse", "x1 + [[x2,x3],x4]; x2 - 1/2*[x3,x5]; x3; x4 + [x1,x5]; x5"],
    ["inverse", "x1; x2; x3; x4 + [x1,x2]; x4 + [x2,x3]"],
    ["jac", "-1/2*x1 + 3/4*[x2,x3]; x2 - x3 + [[x1,x2],x2]; x3"],
    [
        "compose",
        "linear:[[1,1,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]]",
        "x1; x2 + [x1,x3]; x3; x4; x5 - 2/3*[[x1,x2],x4]",
    ],
]


def _linear(matrix) -> str:
    return "linear:" + json.dumps(matrix).replace(" ", "")


def _rational(n: int) -> str:
    """A rank-n triangular automorphism with rational coefficients and a
    rational linear part."""
    rest = [f"x{i}" for i in range(4, n + 1)]
    return "; ".join(
        ["1/2*x1 + 2/3*[x2,x3] + [[x2,x3],x3]", "-x2 + 1/3*x3", "3/2*x3", *rest]
    )


def _endo_commands(n: int) -> list:
    """compose, inverse, jac and iaut-level of rank-n endomorphisms: an inner
    automorphism (an IA map: linear part the identity), the rational
    automorphism of `_rational`, a "linear:" matrix, a map with a singular
    linear part and a map whose linear part is the identity but whose
    Jacobian determinant 1 - y2 is not constant."""
    rest = [f"x{i}" for i in range(4, n + 1)]
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    matrix[0][1], matrix[n - 1][0] = 2, -1
    maps = [
        "inner:[x1,x2] - 2*[[x1,x3],x2]",
        _rational(n),
        _linear(matrix),
        "; ".join(["x1", "x1 + [x1,x2]", "x3", *rest]),
        "; ".join(["x1 + [x1,x2]", "x2", "x3", *rest]),
    ]
    ia, rat, lin, sing, nonaut = maps
    pairs = [(ia, rat), (rat, lin), (lin, sing), (sing, ia), (nonaut, ia)]
    out = [["compose", a, b] for a, b in pairs]
    out += [[cmd, e] for cmd in ("inverse", "jac", "iaut-level") for e in maps]
    return [argv + ["--rank", str(n)] for argv in out]


# Dense products of linear and elementary maps, as printed by
# `endo_doc(random_tame(...))`: integer linear parts whose inverses are not
# integral, so `inverse` has rational work to do
PRODUCTS = [
    # random_tame(4, 1, 3, 2)
    {"rank": 4, "images": [
        "9*x2 - 7*x3 - 14*x4",
        (
            "-3*x1 + 3*x2 + x3 - 12*x4 + 28*[x1, x4] - 24*[x2, x4] + 14*[x3, x4]"
            " + 14*[x1, x3] - 3*[x2, x3] - 18*[x1, x2]"
        ),
        "-2*x1 + 3*x2 - 2*x3 - 2*x4",
        "x1 + 3*x2 + 6*x3 - 6*x4",
    ]},
    # random_tame(4, 2, 3, 2)
    {"rank": 4, "images": [
        "-3*x1 + 11*x2 + 10*x3 - 16*x4",
        (
            "-3*x1 + 12*x2 + x3 - 14*x4 + 30*[x1, x4] - 87*[x2, x4] + 21*[x3, x4]"
            " - 6*[x1, x3] + 30*[x2, x3] - 18*[x1, x2]"
        ),
        "-3*x2 - x3 + 5*x4",
        "-2*x1 + 10*x2 - 7*x4",
    ]},
    # random_tame(4, 4, 3, 2)
    {"rank": 4, "images": [
        "-3*x1 + 3*x3 - 3*x4",
        (
            "3*x1 + 2*x2 + x3 + 2*x4 - 24*[x1, x4] + 12*[x2, x4] + 24*[x3, x4]"
            " - 12*[x2, x3] - 12*[x1, x2]"
        ),
        "x1 - 2*x2 - x3 - 3*x4",
        (
            "-3*x1 + 2*x2 - x4 + 48*[[x1, x4], x1] - 168*[[x1, x4], x2]"
            " - 48*[[x1, x4], x3] - 144*[[x1, x4], x4] + 22*[x1, x4]"
            " + 48*[[x2, x4], x1] + 48*[[x2, x4], x2] - 48*[[x2, x4], x3]"
            " + 72*[[x2, x4], x4] + 4*[x2, x4] - 48*[[x3, x4], x1]"
            " + 168*[[x3, x4], x2] + 48*[[x3, x4], x3] + 144*[[x3, x4], x4]"
            " + 2*[x3, x4] - 24*[[x1, x3], x2] + 8*[x1, x3] + 48*[[x2, x3], x1]"
            " - 48*[[x2, x3], x2] - 24*[[x2, x3], x3] + 24*[[x1, x2], x1]"
            " - 48*[[x1, x2], x2] + 16*[x1, x2]"
        ),
    ]},
    # random_tame(5, 1, 3, 2)
    {"rank": 5, "images": [
        "-x1 + 2*x2 - 3*x3 - x4",
        "2*x1 - x2 - 3*x3 + 2*x4 + 3*x5 - 3*[x3, x4] - 6*[x1, x3]",
        "-3*x1 - 2*x2 + 2*x3 + 2*x4",
        "-2*x2 + x3 - x5 + [x3, x4] + 2*[x1, x3]",
        (
            "-2*x1 + x2 + x4 + 9*[x1, x5] - 2*[x2, x5] + 5*[x3, x5] - [x4, x5]"
            " - 2*[[x1, x4], x3] + 5*[x2, x4] + 11*[[x3, x4], x1]"
            " - 2*[[x3, x4], x2] + 5*[[x3, x4], x3] - [[x3, x4], x4] + 5*[x3, x4]"
            " + 18*[[x1, x3], x1] - 4*[[x1, x3], x2] + 10*[[x1, x3], x3]"
            " - 15*[x1, x3] + 13*[x2, x3] + 15*[x1, x2]"
        ),
    ]},
    # random_tame(3, 2, 4, 3)
    {"rank": 3, "images": [
        (
            "-10*x1 - 8*x2 - 6*x3 - 120*[[x1, x3], x1] + 16*[[x1, x3], x2]"
            " - 280*[[x1, x3], x3] + 40*[x1, x3] - 152*[[x2, x3], x1]"
            " - 32*[[x2, x3], x2] - 224*[[x2, x3], x3] + 32*[x2, x3]"
            " + 24*[[x1, x2], x1] + 8*[[x1, x2], x2] - 8*[x1, x2]"
        ),
        (
            "9*x1 + 6*x2 + 12*x3 + 120*[[x1, x3], x1] - 16*[[x1, x3], x2]"
            " + 280*[[x1, x3], x3] - 40*[x1, x3] + 152*[[x2, x3], x1]"
            " + 32*[[x2, x3], x2] + 224*[[x2, x3], x3] - 32*[x2, x3]"
            " - 24*[[x1, x2], x1] - 8*[[x1, x2], x2] + 8*[x1, x2]"
        ),
        (
            "-10*x1 - 9*x2 + 2*x3 - 60*[[x1, x3], x1] + 8*[[x1, x3], x2]"
            " - 140*[[x1, x3], x3] + 20*[x1, x3] - 76*[[x2, x3], x1]"
            " - 16*[[x2, x3], x2] - 112*[[x2, x3], x3] + 16*[x2, x3]"
            " + 12*[[x1, x2], x1] + 4*[[x1, x2], x2] - 4*[x1, x2]"
        ),
    ]},
]


# a dense rational product, linear(A) o elementary(4, [x2,x3]) for a dense
# rational A, and a map with images of degree 6
RATIONAL_PRODUCT = (
    "1/2*x1 + x2 - x3 + 2*x4 + [x1, x4] - 2/3*[x2, x4] - 5/2*[x3, x4]"
    " + 9/2*[x1, x3] - 13/6*[x2, x3] + 1/3*[x1, x2]; x1 - 1/3*x2 + 2*x3 + x4;"
    " -2*x1 + x2 + 1/2*x3 - x4; x1 + 2*x2 - x3 + 3/4*x4"
)
DEGREE_SIX = (
    "x1 + [[[[[x1,x2],x3],x4],x1],x2]; x2 - 2*[[[[[x3,x1],x4],x2],x3],x1]; x3; x4"
)
# the left-normed word [[... [x2, x1], ... x1], x2] ..., x2] of 400 letters
LONG_WORD = "[" * 399 + "x2" + ",x1]" * 40 + ",x2]" * 359
# the symmetric Pascal matrix of rank 12: unimodular, and no minor is zero
PASCAL = [[math.comb(i + j, i) for j in range(12)] for i in range(12)]
# a dense integer matrix of rank 6 and determinant -10
DENSE6 = [
    [-3, 3, -2, -1, -1, -3],
    [-3, 3, -2, 3, 1, -1],
    [-3, -2, 3, 3, -3, 1],
    [2, -2, 1, 3, 1, 3],
    [-3, -2, -3, -1, 2, -3],
    [-2, 2, 3, -2, -2, -1],
]

_FORMATTED += (
    [["replay-oe", "--rank", str(n), "--witness"] for n in (7, 8)]
    + [argv for n in (3, 4, 5) for argv in _endo_commands(n)]
    + [["inverse", json.dumps(doc)] for doc in PRODUCTS]
    + [
        ["compose", "linear:[[1,1],[0,1]]", f"x1 + {LONG_WORD}; x2"],
        ["compose", RATIONAL_PRODUCT, DEGREE_SIX],
        ["inverse", _linear(PASCAL)],
        ["inverse", _linear(DENSE6)],
        ["jac", _linear(DENSE6)],
        ["inverse", _rational(6), "--rank", "6"],
    ]
)

CASES = (
    list(_FORMATTED)
    + [argv + ["--format", "structured"] for argv in _FORMATTED]
    + [["verify", "--suite", "all", "--seed", "7"]]
    + [["verify", "--suite", "all", "--seed", "7", "--format", "structured"]]
)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    stdout = out.getvalue()
    if len(stdout) > HASH_OVER:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return {"argv": list(argv), "exit": code, "stdout_sha256": digest}
    return {"argv": list(argv), "exit": code, "stdout": stdout}


def case_id(argv) -> str:
    """The pytest id of a case: its command line, cut in the middle when it
    is longer than 70 characters, so that the rank and the format at its end
    still show."""
    line = " ".join(argv)
    return line if len(line) <= 70 else f"{line[:35]}...{line[-32:]}"


def _load():
    return {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text("utf-8"))}


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(tuple(a) for a in CASES)


def test_case_ids_are_unique():
    assert len({case_id(argv) for argv in CASES}) == len(CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_output_matches_golden(argv):
    expected = _load()[tuple(argv)]
    assert run_cli(argv) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    before = _load() if GOLDEN.exists() else {}
    records = [run_cli(argv) for argv in CASES]
    after = {tuple(r["argv"]): r for r in records}
    for key in [*after, *(k for k in before if k not in after)]:
        old, new = before.get(key), after.get(key)
        if old != new:
            change = "added" if old is None else "dropped" if new is None else "changed"
            print(f"{change:8} {shlex.join(key)}")
    GOLDEN.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(records)} cases to {GOLDEN}")
