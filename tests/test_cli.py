"""Command-line behavior: outputs, formats, exit codes, file handling."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalie import endos
from metalie import metabelian as mb
from metalie import verify as verify_mod
from metalie.cli import (
    EXIT_BROKEN_PIPE,
    MAX_FACTORS,
    MAX_OE_RANK,
    MAX_RANK,
    build_parser,
    endo_doc,
    load_endo,
    main,
)
from metalie.lieexpr import MAX_NESTING, MAX_WORD_LENGTH
from metalie.polyring import MAX_MINORS, Polynomial


REPO = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


def endo_json(rank, images):
    return json.dumps({"rank": rank, "images": images})


BRACKET_TEXT = st.lists(
    st.sampled_from(list("xz0123[](),+-*/ ") + ["²", "٣", "\u00a0", "\u2003"]),
    max_size=20,
).map("".join)
# well-formed expressions in x1..x3, so that some specs reach the algebra
LIE_TEXT = st.recursive(
    st.sampled_from(["x1", "x2", "x3"]),
    lambda e: st.builds("[{},{}]".format, e, e)
    | st.builds("{} + {}".format, e, e)
    | st.builds("{}*{}".format, st.integers(-3, 3), e),
    max_leaves=6,
)
IMAGE_TEXT = BRACKET_TEXT | LIE_TEXT
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
SMALL_MATRIX = st.lists(st.lists(st.integers(-3, 3), max_size=5), max_size=5)
# JSON documents, "linear:", "inner:" and "elementary:" shorthands, and
# semicolon lists of images
ENDO_SPEC = st.one_of(
    st.builds(endo_json, ANY_JSON, ANY_JSON),
    st.builds(endo_json, st.integers(-2, 5), st.lists(IMAGE_TEXT, max_size=5)),
    (ANY_JSON | SMALL_MATRIX).map(lambda m: "linear:" + json.dumps(m)),
    st.tuples(st.sampled_from(["inner:", "elementary:"]), IMAGE_TEXT).map("".join),
    st.lists(IMAGE_TEXT, max_size=5).map("; ".join),
    st.lists(LIE_TEXT, min_size=3, max_size=3).map("; ".join),
)


class TestNf:
    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "nf", "--rank", "3", "[x1,x2]")
        assert code == 0
        assert "linear: (0, 0, 0)" in out
        assert "tpart:  (-y2, y1, 0)" in out

    def test_zero_coefficient(self, capsys):
        assert run(capsys, "nf", "0*[x1,x2]") == (0, "linear: (0, 0)\ntpart:  (0, 0)\n", "")

    def test_generator_inferred_rank(self, capsys):
        code, out, _ = run(capsys, "nf", "x1")
        assert code == 0
        assert "linear: (1)" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "nf", "[x1")
        assert code == 1
        assert "offset 3" in err

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "nf", "x²")
        assert (code, out) == (1, "")
        assert err == "metalie: parse error: expected an integer (at offset 1)\n"

    # "--rank 3" keeps a long index like x1212 from asking for a huge rank
    @settings(max_examples=200)
    @given(BRACKET_TEXT)
    def test_any_text_exits_zero_or_one_without_a_traceback(self, text):
        assert_clean_exit(["nf", "--rank", "3", "--", text])

    def test_rank_violation(self, capsys):
        code, _, err = run(capsys, "nf", "--rank", "2", "x3")
        assert code == 1
        assert "rank" in err

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "nf", "--rank", "3", "--format", "structured", "[x1,x2]")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"rank": 3, "linear": ["0", "0", "0"], "tpart": ["-y2", "y1", "0"]}


class TestJac:
    def test_inner_shorthand(self, capsys):
        code, out, _ = run(capsys, "jac", "inner:[x1,x2]", "--rank", "3")
        assert code == 0
        assert out.splitlines()[0] == "[y1*y2 + 1, -y1^2, 0]"

    def test_structured_nested_arrays(self, capsys):
        code, out, _ = run(
            capsys, "jac", "inner:[x1,x2]", "--rank", "3", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["jacobian"][0] == ["y1*y2 + 1", "-y1^2", "0"]

    def test_identity_from_images(self, capsys):
        code, out, _ = run(capsys, "jac", "x1; x2")
        assert code == 0
        assert out.splitlines() == ["[1, 0]", "[0, 1]"]


class TestEndoInput:
    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "endo.json"
        path.write_text(json.dumps({"rank": 3, "images": ["x1 + [x2,x3]", "x2", "x3"]}))
        code, out, _ = run(capsys, "jac", str(path))
        assert code == 0
        assert out.splitlines()[0] == "[1, -y3, y2]"

    def test_rank_mismatch(self, capsys):
        code, _, err = run(capsys, "jac", "x1; x2", "--rank", "3")
        assert code == 1
        assert "does not match" in err

    def test_shorthand_requires_rank(self, capsys):
        code, _, err = run(capsys, "jac", "inner:[x1,x2]")
        assert code == 1

    def test_linear_shorthand(self, capsys):
        code, out, _ = run(capsys, "jac", "linear:[[0,1],[1,0]]")
        assert code == 0
        assert out.splitlines() == ["[0, 1]", "[1, 0]"]


class TestMalformedEndoInput:
    @pytest.mark.parametrize(
        "spec, field",
        [
            ("linear:[[1.5,0],[0,1]]", "entry [0][0]"),
            ('linear:{"a":1}', "list of rows"),
            ("linear:[[1,0],[0,true]]", "entry [1][1]"),
            ('{"rank":2}', "'images'"),
            ('{"images":["x1"]}', "'rank'"),
            ('{"rank":2.5,"images":["x1","x2"]}', "'rank'"),
            ('{"rank":2,"images":[1,2]}', "'images'"),
            ("no-such-endo.json", "no such file: no-such-endo.json"),
            pytest.param("linear:" + "[" * 3000, "too deeply", id="deep-linear"),
            pytest.param(
                '{"rank":2,"images":' + "[" * 3000, "too deeply", id="deep-document"
            ),
        ],
    )
    def test_exits_one_naming_the_field(self, capsys, spec, field):
        code, out, err = run(capsys, "jac", spec)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert field in err

    # every command that reads an endomorphism, on each kind of input spec;
    # the ranks stay at most 5, so that inverse and compose stay fast
    @settings(max_examples=200)
    @given(ENDO_SPEC, ENDO_SPEC, st.sampled_from(["0", "2", "3"]))
    def test_any_spec_exits_zero_or_one_without_a_traceback(self, spec, other, rank):
        for cmd, *specs in (
            ["jac", spec],
            ["inverse", spec],
            ["iaut-level", spec],
            ["compose", spec, other],
        ):
            assert_clean_exit([cmd, "--rank", rank, "--", *specs])


class TestComposeInverse:
    def test_compose_endo_with_inverse_is_identity(self, capsys):
        spec = "x1 + [x2,x3]; x2; x3"
        code, out, _ = run(capsys, "inverse", spec)
        assert code == 0
        assert "x1 - [x2, x3]" in out
        code, out, _ = run(capsys, "compose", spec, "x1 - [x2, x3]; x2; x3")
        assert code == 0
        assert out.splitlines()[1:] == ["x1 -> x1", "x2 -> x2", "x3 -> x3"]

    def test_not_automorphism_verdict_exits_zero(self, capsys):
        code, out, _ = run(capsys, "inverse", "x1; x1; x3")
        assert code == 0
        assert out.strip() == "NotAutomorphism"

    def test_compose_structured_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "inner:[x1,x2]",
            "inner:-[x1,x2]",
            "--rank",
            "3",
            "--format",
            "structured",
        )
        assert code == 0
        assert json.loads(out) == {"rank": 3, "images": ["x1", "x2", "x3"]}


class TestIautLevel:
    def test_degree4_perturbation(self, capsys):
        code, out, _ = run(
            capsys,
            "iaut-level",
            json.dumps(
                {"rank": 4, "images": ["x1 + [[x1,[x2,x3]],x4]", "x2", "x3", "x4"]}
            ),
        )
        assert code == 0
        assert out.strip() == "iaut level: 3"

    def test_identity_is_infinite(self, capsys):
        code, out, _ = run(capsys, "iaut-level", "x1; x2")
        assert code == 0
        assert out.strip() == "iaut level: infinity"


class TestReplayBn:
    def test_default_three_factors(self, capsys):
        code, out, _ = run(capsys, "replay-bn")
        assert code == 0
        assert "λ12*Ψ2 + λ13*Ψ3 + λ12*λ23*Ψ3" in out
        assert "λ21*Ψ1 + λ23*Ψ3" in out
        assert "coefficient of Ψ1" in out

    def test_two_factors_degenerate(self, capsys):
        code, out, _ = run(capsys, "replay-bn", "--factors", "2")
        assert code == 0
        assert "λ21*Ψ1 = 0" in out

    def test_one_factor_rejected(self, capsys):
        code, _, err = run(capsys, "replay-bn", "--factors", "1")
        assert code == 1

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "replay-bn", "--format", "structured")
        doc = json.loads(out)
        assert doc["psi1_coefficient"] == "λ21"
        assert doc["residual_survives"] is True
        labels = [s["label"] for s in doc["steps"]]
        assert labels == ["P", "X", "R1", "R2", "R", "verdict"]


class TestReplayOe:
    def test_basic_report(self, capsys):
        code, out, _ = run(capsys, "replay-oe", "--rank", "4")
        assert code == 0
        assert "z4*z2*z3 - z4*z3*z2" in out
        assert "in commutator subspace [U,U]: no" in out
        assert "witness" not in out

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "replay-oe", "--rank", "4", "--witness")
        assert code == 0
        assert "solvable: yes" in out
        assert "corrected sum in [U,U]: verified" in out

    def test_small_rank_rejected(self, capsys):
        code, _, err = run(capsys, "replay-oe", "--rank", "3")
        assert code == 1
        assert "rank >= 4" in err

    def test_structured_deterministic(self, capsys):
        code, first, _ = run(
            capsys, "replay-oe", "--rank", "4", "--witness", "--format", "structured"
        )
        assert code == 0
        code, second, _ = run(
            capsys, "replay-oe", "--rank", "4", "--witness", "--format", "structured"
        )
        assert first == second
        doc = json.loads(first)
        assert doc["in_commutator_subspace"] is False
        assert doc["witness_search"]["solvable"] is True


class TestVerify:
    def test_lift_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lift", "--seed", "7")
        assert code == 0
        assert "lift: pass (500 cases)" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 1

    def test_failure_exit_code(self, capsys, monkeypatch):
        def failing(seed):
            return verify_mod.SuiteResult("stub", 1, ["case 0: boom"])

        monkeypatch.setitem(verify_mod.SUITES, "lift", failing)
        code, out, _ = run(capsys, "verify", "--suite", "lift")
        assert code == 2
        assert "FAIL" in out

    def test_structured_failure(self, capsys, monkeypatch):
        def failing(seed):
            return verify_mod.SuiteResult("stub", 3, ["case 0: boom"])

        monkeypatch.setitem(verify_mod.SUITES, "lift", failing)
        code, out, _ = run(
            capsys, "verify", "--suite", "lift", "--format", "structured"
        )
        assert code == 2
        stub = {"name": "stub", "passed": False, "cases": 3, "failures": ["case 0: boom"]}
        assert json.loads(out) == {
            "suites": [stub],
            "total": {"cases": 3, "passed": False},
        }


class TestRoundTrips:
    def test_endo_document_round_trip(self):
        import random

        from metalie import endos
        from metalie.cli import endo_doc, load_endo
        from metalie.verify import random_endo

        rng = random.Random(23)
        for _ in range(10):
            rank = rng.randint(2, 4)
            phi = random_endo(rng, rank, 4)
            assert load_endo(json.dumps(endo_doc(phi))) == phi
        tame = endos.random_tame(3, 7, 2, 3)
        assert load_endo(json.dumps(endo_doc(tame))) == tame

    def test_golden_results_round_trip(self):
        # the endomorphisms printed by the golden compose and inverse cases
        from test_golden_cli import _FORMATTED

        results = []
        for argv in _FORMATTED:
            if argv[0] in ("compose", "inverse"):
                args = build_parser().parse_args(argv)
                phi = load_endo(args.endo, args.rank)
                if argv[0] == "compose":
                    results.append(endos.compose(phi, load_endo(args.other, args.rank)))
                elif (inverse := endos.inverse(phi)) is not None:
                    results.append(inverse)
        assert len(results) == 49
        for phi in results:
            assert load_endo(json.dumps(endo_doc(phi))) == phi

    def test_deep_composite_round_trips(self, capsys, tmp_path):
        # x1 + [[...[x1, x2]..., x2], x2]; x2 (150 levels) composed with itself
        # once and twice lifts to words nested 300 and 450 levels deep
        c = load_endo("x1 + " + "[" * 150 + "x1" + ",x2]" * 150 + "; x2")
        twice = endos.compose(c, c)
        for phi, depth in ((twice, 300), (endos.compose(twice, c), 450)):
            doc = endo_doc(phi)
            assert "[" * depth + "x1" in doc["images"][0]
            assert "[" * (depth + 1) not in doc["images"][0]
            assert depth > MAX_NESTING
            text = json.dumps(doc)
            assert load_endo(text) == phi
            path = tmp_path / f"composite{depth}.json"
            path.write_text(text, encoding="utf-8")
            for spec in (text, str(path)):
                code, out, err = run(capsys, "jac", spec)
                assert (code, err) == (0, "")
                assert f"y2^{depth}" in out


def assert_error(capsys, argv, doc, text):
    """argv exits 1 with the one-line JSON object doc on stderr under
    --format structured, and with the line text otherwise."""
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == doc
    assert run(capsys, *argv) == (1, "", text)


class TestStructuredErrors:
    """With --format structured, an error after parsing is one JSON object
    on stderr; text mode keeps its one line."""

    @pytest.mark.parametrize(
        "argv, doc, text",
        [
            (
                ["nf", "--rank", "2", "[x1"],
                {"error": "expected ',' (at offset 3)", "kind": "parse", "offset": 3},
                "metalie: parse error: expected ',' (at offset 3)\n",
            ),
            (
                ["replay-bn", "--factors", "99"],
                {
                    "error": "--factors 99 exceeds the limit of 14",
                    "kind": "usage",
                    "offset": None,
                },
                "metalie: error: --factors 99 exceeds the limit of 14\n",
            ),
            (
                ["jac", "x1; x2", "--rank", "3"],
                {
                    "error": "--rank 3 does not match endomorphism rank 2",
                    "kind": "input",
                    "offset": None,
                },
                "metalie: error: --rank 3 does not match endomorphism rank 2\n",
            ),
            (
                ["jac", "linear:[[1,0],[0,1]]", "--rank", "3"],
                {
                    "error": "--rank 3 does not match endomorphism rank 2",
                    "kind": "input",
                    "offset": None,
                },
                "metalie: error: --rank 3 does not match endomorphism rank 2\n",
            ),
            (
                ["compose", "linear:[[0,1],[1,0]]", "linear:[[1,1],[0,1]]", "--rank", "3"],
                {
                    "error": "--rank 3 does not match endomorphism rank 2",
                    "kind": "input",
                    "offset": None,
                },
                "metalie: error: --rank 3 does not match endomorphism rank 2\n",
            ),
        ],
    )
    def test_error_object(self, capsys, argv, doc, text):
        assert_error(capsys, argv, doc, text)

    # a semicolon list reports parse offsets into the whole text it was read
    # from; a JSON document, into the image string; a constructor shorthand
    # (given inline, with --rank), into the argument with its prefix
    @pytest.mark.parametrize(
        "spec, message, offset",
        [
            ("x1; x3", "generator index 3 out of range 1..2", 4),
            ("x1;x2;  [x1,", "expected 'x<index>', '[' or '('", 12),
            ("  x1;x9", "generator index 9 out of range 1..2", 5),
            ("x1;\n[x1 x2];", "expected ','", 8),
            (endo_json(2, ["x1", " x3"]), "generator index 3 out of range 1..2", 1),
            ("inner:[x1", "expected ','", 9),
            ("elementary:[x2,", "expected 'x<index>', '[' or '('", 15),
        ],
    )
    def test_parse_offsets_point_into_the_argument(
        self, capsys, tmp_path, spec, message, offset
    ):
        error = f"{message} (at offset {offset})"
        doc = {"error": error, "kind": "parse", "offset": offset}
        path = tmp_path / "endo.txt"
        path.write_text(spec, encoding="utf-8")
        if spec.startswith(("inner:", "elementary:")):
            argvs = [("jac", spec, "--rank", "2")]
        else:
            argvs = [("jac", spec), ("jac", str(path))]
        for argv in argvs:
            assert_error(capsys, argv, doc, f"metalie: parse error: {error}\n")

    @pytest.mark.parametrize(
        "spec, k", [("x1;;x2", 2), (";x1", 1), ("x1; ;x2;", 2), ("x1;x2;\n;x3", 3)]
    )
    def test_empty_image_in_a_list_is_an_error(self, capsys, spec, k):
        doc = {"error": f"image {k} is empty", "kind": "input", "offset": None}
        text = f"metalie: error: image {k} is empty\n"
        assert_error(capsys, ("jac", spec), doc, text)

    def test_empty_parts_after_the_last_image_are_dropped(self, capsys):
        want = run(capsys, "jac", "x2; x1")
        assert want[0] == 0
        for spec in ("x2; x1;", "x2; x1; ;\n", " x2;x1;;"):
            assert run(capsys, "jac", spec) == want


    def test_parser_errors_stay_text(self, capsys):
        code, out, err = run(capsys, "nf", "--format", "structured", "--bogus", "x1")
        assert (code, out) == (1, "")
        assert err.startswith("usage: metalie")
        assert "metalie: error: unrecognized arguments: --bogus" in err


class TestUsage:
    def test_module_entry_points_print_what_main_prints(self, capsys):
        argv = ["nf", "--rank", "2", "[x1,x2]"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH="src")
        for module in ("metalie", "metalie.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO,
            )
            assert (proc.returncode, proc.stdout) == (0, expected)

    @pytest.mark.parametrize(
        "argv, lines",
        [
            # about 2 MB, far more than a pipe holds: one write meets the
            # closed pipe
            (("replay-bn", "--factors", "14"), 1),
            # a few bytes, still buffered when main flushes stdout
            (("nf", "--rank", "2", "[x1,x2]"), 0),
            (("--help",), 0),
        ],
    )
    def test_reader_closing_early_is_quiet(self, argv, lines):
        # stdout block-buffered, as it is for a pipe unless PYTHONUNBUFFERED
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "metalie", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO,
        )
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (EXIT_BROKEN_PIPE, b"")

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "nf", "--bogus", "x1")
        assert code == 1

    # an argument with a leading sign and no space is an expression, not an
    # option: (argv, text output, structured document)
    @pytest.mark.parametrize(
        "argv, text, doc",
        [
            (
                ("nf", "-x1"),
                "linear: (-1)\ntpart:  (-1)\n",
                {"rank": 1, "linear": ["-1"], "tpart": ["-1"]},
            ),
            (
                ("nf", "-[x1,x2]"),
                "linear: (0, 0)\ntpart:  (y2, -y1)\n",
                {"rank": 2, "linear": ["0", "0"], "tpart": ["y2", "-y1"]},
            ),
            (
                ("inverse", "-x1;x2"),
                "rank 2\nx1 -> -x1\nx2 -> x2\n",
                {"rank": 2, "images": ["-x1", "x2"]},
            ),
            (
                ("compose", "-x1;x2", "x2;x1"),
                "rank 2\nx1 -> x2\nx2 -> -x1\n",
                {"rank": 2, "images": ["x2", "-x1"]},
            ),
        ],
        ids=["nf-generator", "nf-bracket", "inverse", "compose"],
    )
    def test_signed_argument_is_positional(self, capsys, argv, text, doc):
        assert run(capsys, *argv) == (0, text, "")
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert (code, json.loads(out), err) == (0, doc, "")

    def test_short_help_and_negative_option_values_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nf", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: metalie nf [-h]")
        code, out, err = run(capsys, "replay-bn", "--factors", "-3")
        assert (code, out) == (1, "")
        assert err == "metalie: error: need at least two factors\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "--rank", "-1", "x1"),
            ("jac", "--rank", "-2", "linear:[[1,0],[0,1]]"),
            ("inverse", "--rank", "-3", "inner:[x1,x2]"),
            ("iaut-level", "--rank", "-1", "x1; x2"),
            ("compose", "--rank", "-2", "x1; x2", "x1; x2"),
            ("nf", "--rank", "abc", "x1"),
        ],
    )
    def test_negative_rank_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "argument --rank: must be a nonnegative integer" in err
        assert "Traceback" not in err and "out of range" not in err

    def test_zero_rank_is_inferred(self, capsys):
        inferred = run(capsys, "nf", "[x1,x2]")
        assert run(capsys, "nf", "--rank", "0", "[x1,x2]") == inferred
        code, out, _ = run(capsys, "jac", "--rank", "0", "linear:[[0,1],[1,0]]")
        assert code == 0
        assert out.splitlines() == ["[0, 1]", "[1, 0]"]

    @pytest.mark.parametrize("spec", ["linear:[]", ";"])
    @pytest.mark.parametrize("command", ["jac", "inverse", "compose", "iaut-level"])
    def test_rank_zero_endomorphism_rejected(self, capsys, command, spec):
        argv = (command, spec, spec) if command == "compose" else (command, spec)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "an endomorphism needs rank at least 1, got rank 0" in err
        assert "Traceback" not in err

    def test_non_square_linear_matrix_rejected(self, capsys):
        code, out, err = run(capsys, "jac", "linear:[[1,2,3],[4,5,6]]")
        assert code == 1
        assert out == ""
        assert "matrix must be square" in err


def right_nested(depth):
    """[x2, [x2, ... [x2, x1]]]: every level is a nest that recurses."""
    return "[x2," * depth + "x1" + "]" * depth


def left_spine(depth):
    """[[... [x1, x1 + x2], ...], x1 + x2]: one left-normed word of
    depth + 1 letters, all but the first a sum."""
    return "[" * depth + "x1" + ", x1 + x2]" * depth


def continued(depth):
    """[[... [[x1, x2] + x1, x2] ... + x1, x2]: each level after the first
    continues the word read so far into a sum, which nests it one level."""
    return "[" * depth + "x1, x2]" + " + x1, x2]" * (depth - 1)


def word(letters):
    """The left-normed word [[... [x1, x2], x2] ..., x2] of that many letters."""
    return "[" * (letters - 1) + "x1" + ",x2]" * (letters - 1)


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestSizeLimits:
    def test_deep_nesting_is_a_parse_error(self, capsys):
        for text in (
            right_nested(1200),
            right_nested(MAX_NESTING + 1),
            continued(MAX_NESTING + 2),
            "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
        ):
            code, out, err = run(capsys, "nf", "--rank", "2", text)
            assert code == 1
            assert out == ""
            assert "Traceback" not in err
            assert f"nesting deeper than {MAX_NESTING} levels" in err

    def test_nesting_at_the_limit_is_accepted(self, capsys):
        depth = MAX_NESTING
        code, out, _ = run(capsys, "nf", "--rank", "2", right_nested(depth))
        assert code == 0
        assert f"y2^{depth}" in out
        code, out, _ = run(capsys, "nf", "--rank", "2", left_spine(depth))
        assert code == 0
        code, out, _ = run(capsys, "nf", "--rank", "2", continued(depth + 1))
        assert code == 0
        code, _, err = run(capsys, "nf", "(" * (depth + 1) + "x1" + ")" * (depth + 1))
        assert code == 1
        assert str(MAX_NESTING) in err

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
    def test_left_spine_is_one_word_at_any_depth(self, capsys, depth):
        # [x1, x1 + x2] = [x1, x2] has the Fox row (-y2, y1), and each further
        # letter x1 + x2 multiplies a derived element by -(y1 + y2)
        y1, y2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        f = Polynomial.one(2)
        for _ in range(depth - 1):
            f = f * -(y1 + y2)
        want = f"linear: (0, 0)\ntpart:  ({-f * y2}, {f * y1})\n"
        assert run(capsys, "nf", "--rank", "2", left_spine(depth)) == (0, want, "")

    def test_word_at_the_length_limit_is_accepted(self, capsys):
        # left-normed words are read in a loop: no nesting limit applies
        code, out, _ = run(capsys, "nf", "--rank", "2", word(MAX_WORD_LENGTH))
        assert code == 0
        assert f"y2^{MAX_WORD_LENGTH - 1}" in out

    def test_word_beyond_the_length_limit_is_a_parse_error(self, capsys):
        for letters in (MAX_WORD_LENGTH + 1, 3 * MAX_WORD_LENGTH):
            code, out, err = run(capsys, "nf", "--rank", "2", word(letters))
            assert code == 1
            assert out == ""
            assert "Traceback" not in err
            assert f"left-normed word longer than {MAX_WORD_LENGTH} letters" in err

    def test_replay_bn_factor_limit(self, capsys):
        code, out, err = run(capsys, "replay-bn", "--factors", str(MAX_FACTORS + 1))
        assert code == 1
        assert out == ""
        assert f"--factors {MAX_FACTORS + 1} exceeds the limit of {MAX_FACTORS}" in err

    def test_replay_oe_rank_limit(self, capsys):
        code, out, err = run(capsys, "replay-oe", "--rank", str(MAX_OE_RANK + 1), "--witness")
        assert code == 1
        assert out == ""
        assert f"--rank {MAX_OE_RANK + 1} exceeds the limit of {MAX_OE_RANK}" in err
        code, out, _ = run(capsys, "replay-oe", "--rank", str(MAX_OE_RANK))
        assert code == 0
        assert f"rank n = {MAX_OE_RANK}" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("nf", "--rank", str(MAX_RANK + 1), "x1"), f"--rank {MAX_RANK + 1}"),
            (("nf", f"x{MAX_RANK + 1}"), f"inferred rank {MAX_RANK + 1}"),
            (("nf", "x10000"), "inferred rank 10000"),
            (
                ("jac", "--rank", str(MAX_RANK + 1), "elementary:[x2,x3]"),
                f"--rank {MAX_RANK + 1}",
            ),
            (
                ("inverse", "--rank", str(MAX_RANK + 1), "inner:[x1,x2]"),
                f"--rank {MAX_RANK + 1}",
            ),
            (
                ("jac", json.dumps({"rank": MAX_RANK + 1, "images": ["x1"]})),
                f"'rank' {MAX_RANK + 1}",
            ),
            (
                ("iaut-level", ";".join(f"x{i}" for i in range(1, MAX_RANK + 2))),
                f"image count {MAX_RANK + 1}",
            ),
            (
                ("compose", f"linear:{identity_matrix(MAX_RANK + 1)}", "x1"),
                f"linear: matrix size {MAX_RANK + 1}",
            ),
        ],
    )
    def test_rank_limit(self, capsys, monkeypatch, argv, message):
        evaluated = []
        monkeypatch.setattr(mb, "eval_with", lambda e, images: evaluated.append(e))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert f"{message} exceeds the limit of {MAX_RANK}" in err
        assert evaluated == []

    def test_ring_inverse_minor_limit(self, capsys):
        # the symmetric Pascal matrix is unimodular and no minor of it is
        # zero: the ring inverse of rank 15 needs 6,435 minors of one size
        pascal = [[comb(i + j, i) for j in range(15)] for i in range(15)]
        code, out, err = run(capsys, "inverse", f"linear:{pascal}")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert f"exceeds the limit of {MAX_MINORS} nonzero minors" in err

    def test_rank_at_the_limit_is_accepted(self, capsys):
        ident = ";".join(f"x{i}" for i in range(1, MAX_RANK + 1))
        code, out, _ = run(capsys, "jac", ident)
        assert code == 0
        assert len(out.splitlines()) == MAX_RANK
        code, out, _ = run(capsys, "nf", f"[x1,x{MAX_RANK}]")
        assert code == 0
        assert out.count(",") == MAX_RANK - 1 + MAX_RANK - 1

    @pytest.mark.parametrize(
        "command, text",
        [
            ("replay-bn", f"k <= {MAX_FACTORS}"),
            ("replay-oe", f"n <= {MAX_OE_RANK}"),
            ("nf", f"n <= {MAX_RANK}"),
            ("compose", f"n <= {MAX_RANK}"),
        ],
    )
    def test_limits_are_stated_in_help(self, capsys, command, text):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert text in capsys.readouterr().out
