"""Compare `metalie` CLI output byte for byte against another git revision.

    python tools/cli_diff.py REV [COMMAND ...]

REV is any git revision of this repository (for example HEAD~1 or main).
Its `src/` is exported with `git archive` into a temporary directory, and
each command runs once from that tree and once from this checkout's `src/`,
each in a fresh interpreter. A COMMAND is one argument string, split into
shell words, such as "replay-oe --rank 5 --witness"; every command runs in
both output formats. Without commands it checks `replay-oe --rank N
--witness` for N = 4..9, `compose`, `inverse`, `jac` and `iaut-level` on
IA, rational, "linear:" and singular endomorphisms and on a
non-automorphism whose linear part is the identity, of ranks 3..5 (see
`_endo_commands`), and `inverse` on the JSON documents of five dense tame
products (`PRODUCTS`), `compose` of a "linear:" map with a 400-letter word,
`compose` of a dense rational product with a degree-6 map, `inverse` of
the rank-12 Pascal matrix, and `inverse` and `jac` of a dense rank-6 integer
matrix and `inverse` of the rational map of `_rational` at rank 6, whose
eliminations meet pivots other than +-1. Prints one line per run and exits 1 if any stdout
or exit code differs.
"""

import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    automorphism of `_rational`, a "linear:"
    matrix, a map with a singular linear part and a map whose linear part is
    the identity but whose Jacobian determinant 1 - y2 is not constant."""
    rest = [f"x{i}" for i in range(4, n + 1)]
    ia = "inner:[x1,x2] - 2*[[x1,x3],x2]"
    rat = _rational(n)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    matrix[0][1], matrix[n - 1][0] = 2, -1
    lin = "linear:" + json.dumps(matrix).replace(" ", "")
    sing = "; ".join(["x1", "x1 + [x1,x2]", "x3", *rest])
    nonaut = "; ".join(["x1 + [x1,x2]", "x2", "x3", *rest])
    quoted = [shlex.quote(e) for e in (ia, rat, lin, sing)]
    out = [f"compose {a} {b}" for a, b in zip(quoted, quoted[1:] + quoted[:1])]
    quoted.append(shlex.quote(nonaut))
    out.append(f"compose {quoted[-1]} {quoted[0]}")
    for cmd in ("inverse", "jac", "iaut-level"):
        out += [f"{cmd} {e}" for e in quoted]
    return [f"{c} --rank {n}" for c in out]


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

DEFAULT = (
    [f"replay-oe --rank {n} --witness" for n in range(4, 10)]
    + [c for n in range(3, 6) for c in _endo_commands(n)]
    + [f"inverse {shlex.quote(json.dumps(doc))}" for doc in PRODUCTS]
    + [
        f"compose linear:[[1,1],[0,1]] {shlex.quote(f'x1 + {LONG_WORD}; x2')}",
        f"compose {shlex.quote(RATIONAL_PRODUCT)} {shlex.quote(DEGREE_SIX)}",
        "inverse linear:" + json.dumps(PASCAL).replace(" ", ""),
        "inverse linear:" + json.dumps(DENSE6).replace(" ", ""),
        "jac linear:" + json.dumps(DENSE6).replace(" ", ""),
        f"inverse {shlex.quote(_rational(6))} --rank 6",
    ]
)


def run(src: pathlib.Path, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "metalie.cli", *argv],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout


def main(args: list) -> int:
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev, commands = args[0], args[1:] or DEFAULT
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        base = pathlib.Path(tmp) / "src"
        for command in commands:
            for fmt in ("text", "structured"):
                argv = [*shlex.split(command), "--format", fmt]
                same = run(base, argv) == run(ROOT / "src", argv)
                differ += not same
                print(f"{'same' if same else 'DIFFERS'}  metalie {shlex.join(argv)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
