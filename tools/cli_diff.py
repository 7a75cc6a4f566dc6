"""Compare `metalie` CLI output byte for byte against another git revision.

    python tools/cli_diff.py REV [COMMAND ...]

REV is any git revision of this repository (for example HEAD~1 or main).
Its `src/` is exported with `git archive` into a temporary directory, and
each command runs once from that tree and once from this checkout's `src/`,
each in a fresh interpreter. A COMMAND is one argument string, split into
shell words, such as "replay-oe --rank 5 --witness"; every command runs in
both output formats. Without commands it checks `replay-oe --rank N
--witness` for N = 4..9. Prints one line per run and exits 1 if any stdout
or exit code differs.
"""

import io
import os
import pathlib
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT = [f"replay-oe --rank {n} --witness" for n in range(4, 10)]


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
