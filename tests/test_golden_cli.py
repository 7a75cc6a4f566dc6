"""Byte-for-byte CLI output goldens.

Every README example, `compose` and `inverse` on `linear:`, `inner:`,
rational and NotAutomorphism inputs, and `verify --suite all --seed 7`, each
in text and structured form. The recorded stdout
and exit code live in `golden/cli.json`; a refactor must reproduce them
exactly. Outputs longer than `HASH_OVER` characters are recorded by the
SHA-256 of their UTF-8 bytes, which keeps the file small.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

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


def _load():
    return {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text("utf-8"))}


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(tuple(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a)[:70])
def test_cli_output_matches_golden(argv):
    expected = _load()[tuple(argv)]
    assert run_cli(argv) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run_cli(argv) for argv in CASES]
    GOLDEN.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(records)} cases to {GOLDEN}")
