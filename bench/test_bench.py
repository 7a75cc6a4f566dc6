"""Tests of the benchmark itself: seeded inputs, self-time arithmetic,
repeatable counters, live oracles, and agreement with BENCHMARK.json.

    python3 -m pytest bench -q
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = json.dumps(wl.generate(3), sort_keys=True).encode()
    again = json.dumps(wl.generate(3), sort_keys=True).encode()
    other = json.dumps(wl.generate(4), sort_keys=True).encode()
    assert first == again
    assert first != other


def test_self_time_subtracts_children_and_grandchildren_once():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    summary = tracing.summarize(spans, ["a", "b", "c", "unused"])
    assert summary["b.calls"] == (1, "count")
    assert summary["b.self_s"] == (3.0, "s")
    assert summary["c.self_share"] == (0.1, "ratio")
    assert summary["unused.calls"] == (0, "count")


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["a", 3.0, 7.0, 0, 0],
        ["a", 8.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 2.0


def test_tracer_records_parent_and_op_id():
    t = tracing.Tracer()
    t.op_id = 7
    with t.span("op"):
        with t.span("inner"):
            pass
    (outer, inner) = t.spans
    assert outer[0] == "op" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _counters(name, n):
    wl = workloads.WORKLOADS[name]
    pool = wl.generate(5)[:n]
    counters = run.Counters()
    for inp in pool:
        art = defaultdict(list)
        wl.op(wl.prepare(inp), tracing.Tracer(), art)
        counters.add(art, inp["cell"].split(".")[0])
    return counters.metrics()


@pytest.mark.parametrize("name,n", [("chain", 8), ("tame", 8), ("replay", 8)])
def test_exact_counters_repeat_for_one_seed(name, n):
    first = _counters(name, n)
    assert first == _counters(name, n)
    assert any(first.values())


def _tamper(inp, out):
    """A small wrong change to the part of an output the oracle checks."""
    kind = inp.get("kind")
    if kind == "inst":
        return out + " + y1"
    if kind in ("bn", "oe"):
        structured, text = out.split("\n\n", 1)
        doc = json.loads(structured)
        if kind == "bn":
            reduced = next(s for s in doc["steps"] if s["label"] == "R")
            reduced["terms"].remove("λ21*Ψ1")
        else:
            doc["witness_search"]["witness"] = {}
        return json.dumps(doc) + "\n\n" + text
    doc = json.loads(out)
    images = doc["composite"]["images"] if "composite" in doc else doc["product"]
    images[0] += " + [x1, x2]"
    return json.dumps(doc)


@pytest.mark.parametrize("name", NAMES)
def test_oracle_accepts_the_output_and_rejects_a_tampered_one(name):
    wl = workloads.WORKLOADS[name]
    for inp in wl.generate(9)[:8]:
        prepared = wl.prepare(inp)
        out = wl.op(prepared, tracing.NullTracer(), defaultdict(list))
        assert wl.check(prepared, out) == []
        assert wl.check(prepared, _tamper(inp, out)), inp["cell"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    want = run.per_layer_names(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == want


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 95) == 95
    assert run.percentile(values, 50) == 50
    assert run.percentile([4.0], 90) == 4.0
