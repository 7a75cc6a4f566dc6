"""Compare `metalie` CLI output byte for byte against another git revision.

    python tools/cli_diff.py REV [COMMAND ...]

REV is any git revision of this repository (for example HEAD~1 or main).
Its `src/` is exported with `git archive` into a temporary directory, and
each command runs once from that tree and once from this checkout's `src/`,
each in a fresh interpreter. A COMMAND is one argument string, split into
shell words, such as "replay-oe --rank 5 --witness"; every command runs in
both output formats. Without commands it checks `replay-oe --rank N
--witness` for N = 4..9, and `compose`, `inverse`, `jac` and `iaut-level` on
IA, rational, "linear:" and singular endomorphisms of ranks 3..5 (see
`_endo_commands`). Prints one line per run and exits 1 if any stdout or exit
code differs.
"""

import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _endo_commands(n: int) -> list:
    """compose, inverse, jac and iaut-level of rank-n endomorphisms: an inner
    automorphism (an IA map: linear part the identity), a triangular
    automorphism with rational coefficients and linear part, a "linear:"
    matrix and a map with a singular linear part."""
    rest = [f"x{i}" for i in range(4, n + 1)]
    ia = "inner:[x1,x2] - 2*[[x1,x3],x2]"
    rat = "; ".join(
        ["1/2*x1 + 2/3*[x2,x3] + [[x2,x3],x3]", "-x2 + 1/3*x3", "3/2*x3", *rest]
    )
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    matrix[0][1], matrix[n - 1][0] = 2, -1
    lin = "linear:" + json.dumps(matrix).replace(" ", "")
    sing = "; ".join(["x1", "x1 + [x1,x2]", "x3", *rest])
    quoted = [shlex.quote(e) for e in (ia, rat, lin, sing)]
    out = [f"compose {a} {b}" for a, b in zip(quoted, quoted[1:] + quoted[:1])]
    for cmd in ("inverse", "jac", "iaut-level"):
        out += [f"{cmd} {e}" for e in quoted]
    return [f"{c} --rank {n}" for c in out]


DEFAULT = [f"replay-oe --rank {n} --witness" for n in range(4, 10)] + [
    c for n in range(3, 6) for c in _endo_commands(n)
]


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
