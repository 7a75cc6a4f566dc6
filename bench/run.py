"""Benchmark for the metalie package: one client in a closed loop.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
Workloads, sizes and metrics are described in `bench/README.md`.

With `--trace 0` the run sets up (import, then input generation from the
seed and one warm-up operation, repeated with the median kept), runs the
input pool pass after pass for `--seconds`, and reports the end-to-end
metrics from each input's median pass. Every time in them is corrected for
the machine's speed, measured by a fixed reference computation run between
operations (see `reference_s`). With `--trace 1` it makes one pass
over the pool, running each input untraced and traced, and reports the
per-layer metrics; the spans are written to `bench/out/`.

After the timed part every distinct output is checked by the workload's
oracle; repeated inputs must reproduce their first output byte for byte.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every operation was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import OP_SPAN, NullTracer, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
NULL = NullTracer()
# Reported times are in seconds of a machine on which `reference_work`
# takes REF_NOMINAL_S; REF_WINDOW reference readings on each side of an
# operation give the machine's speed while it ran.
REF_NOMINAL_S = 0.002
REF_WINDOW = 3

# percentile of op_tail_ms; bench/README.md says why it is not higher
TAIL_PCT = 90

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib")
COUNTERS = (
    ("endos.compose.terms_out", "count"),
    ("endos.compose.dag_nodes", "count"),
    ("endos.compose.tree_nodes", "count"),
    ("polyring.boxed_int_share", "ratio"),
    ("tame.iaut.boxed_int_share", "ratio"),
    ("tame.rational.boxed_int_share", "ratio"),
    ("metabelian.lift.words_out", "count"),
    ("lieexpr.format_expr.chars_out", "count"),
    ("dyadic.expand_product.dyads", "count"),
    ("freeassoc.replay.unknowns", "count"),
    ("freeassoc.replay.equations", "count"),
    ("endos.inverse.ok_ratio", "ratio"),
    ("trace_overhead", "ratio"),
)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def reference_work() -> int:
    """A fixed piece of pure-Python work (dict updates, Fraction and big
    integer arithmetic, a sort) like the package's own. It calls no package
    code, so no change to the package changes its cost; only the machine's
    speed does."""
    counts = {}
    acc = Fraction(0)
    for i in range(1, 400):
        k = i * 7919 % 251
        counts[k] = counts.get(k, 0) + i
        acc += Fraction(i, k + 1)
    return len(sorted(counts.items())) + acc.denominator % 7


def reference_s() -> float:
    """Seconds `reference_work` takes now, with the garbage collector off so
    that the heap the package leaves behind does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    reference_work()
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def corrected(seconds: float, ref: float) -> float:
    """`seconds` measured while the reference took `ref`, as seconds on the
    nominal machine. A shared 2-core host can change speed by 20-50% for
    seconds to minutes at a time; an operation and the reference slow down
    alike, so their ratio holds within a few percent."""
    return seconds * REF_NOMINAL_S / ref


def span_names(workloads) -> list:
    names = []
    for wl in workloads.values():
        names += [s for s in wl.spans if s not in names]
    return names


def cell_metric(cell: str) -> str:
    return f"tame.{cell}.op_p50_ms"


def per_layer_names(workloads) -> list:
    """Every per-layer metric as (name, unit), in report order. Every run
    reports all of them; a layer a workload does not reach reads 0."""
    out = []
    for name in span_names(workloads):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.self_share", "ratio")]
    out += list(COUNTERS)
    out += [(cell_metric(f"{k}.r{r}.len{n}"), "ms")
            for k, r, n in dict.fromkeys(workloads["tame"].cells)]
    return out


# ---------------------------------------------------------------------------
# counters computed from operation outputs
# ---------------------------------------------------------------------------


def dag_counts(roots) -> tuple:
    """(distinct nodes, tree-expanded nodes) of an expression graph."""
    from metalie.lieexpr import Bracket, Scale, Sum

    def children(e):
        if isinstance(e, Bracket):
            return (e.left, e.right)
        if isinstance(e, Scale):
            return (e.arg,)
        if isinstance(e, Sum):
            return e.parts
        return ()

    tree = {}
    stack = [(r, False) for r in roots]
    while stack:
        e, done = stack.pop()
        if id(e) in tree:
            continue
        if done:
            tree[id(e)] = 1 + sum(tree[id(c)] for c in children(e))
        else:
            stack.append((e, True))
            stack.extend((c, False) for c in children(e) if id(c) not in tree)
    return len(tree), sum(tree[id(r)] for r in roots)


def boxed_counts(poly_groups) -> tuple:
    """(integral coefficients stored as Fraction, all stored coefficients)
    over the distinct polynomials in the groups."""
    seen = set()
    boxed = total = 0
    for group in poly_groups:
        for p in group:
            if id(p) in seen:
                continue
            seen.add(id(p))
            for c in p.terms.values():
                total += 1
                boxed += type(c) is Fraction and c.denominator == 1
    return boxed, total


class Counters:
    """Exact size counters summed over the operations of one traced pass."""

    def __init__(self):
        self.n = defaultdict(int)
        self.boxed = {"polyring": [0, 0], "iaut": [0, 0], "rational": [0, 0]}

    def add(self, art, kind: str) -> None:
        n = self.n
        for endo in art["compose"]:
            n["endos.compose.terms_out"] += sum(
                len(p.terms) for img in endo.images for p in img.tpart
            )
            if endo.exprs is not None:
                dag, tree = dag_counts(endo.exprs)
                n["endos.compose.dag_nodes"] += dag
                n["endos.compose.tree_nodes"] += tree
        for e in art["lift"]:
            n["metabelian.lift.words_out"] += len(getattr(e, "parts", (e,)))
        n["lieexpr.format_expr.chars_out"] += sum(len(s) for s in art["text"])
        n["dyadic.expand_product.dyads"] += sum(len(x.term_list()) for x in art["expand"])
        for rep in art["replay"]:
            n["freeassoc.replay.unknowns"] += rep.witness.unknowns
            n["freeassoc.replay.equations"] += rep.witness.equations
        for is_automorphism, returned in art["inverse"]:
            n["automorphisms"] += is_automorphism
            n["inverted"] += is_automorphism and returned
        boxed, total = boxed_counts(art["polys"])
        for key in ("polyring", kind):
            if key in self.boxed:
                self.boxed[key][0] += boxed
                self.boxed[key][1] += total

    def metrics(self) -> dict:
        out = {name: self.n[name] for name, unit in COUNTERS if unit == "count"}
        for key, (boxed, total) in self.boxed.items():
            name = "polyring.boxed_int_share" if key == "polyring" else f"tame.{key}.boxed_int_share"
            out[name] = boxed / total if total else 0.0
        autos = self.n["automorphisms"]
        out["endos.inverse.ok_ratio"] = self.n["inverted"] / autos if autos else 0.0
        return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """Outputs and failures of one benchmark run, keyed by pool index."""

    def __init__(self, wl, pool, prepared):
        self.wl = wl
        self.pool = pool
        self.prepared = prepared
        self.outputs = {}
        self.bad = {}  # pool index -> first error
        self.counts = defaultdict(int)  # pool index -> times run

    def one(self, k: int, tracer=NULL, art=None) -> float:
        """Run pool[k] once; return its latency in seconds."""
        tracer.op_id = k
        start = perf_counter()
        try:
            with tracer.span(OP_SPAN):
                out = self.wl.op(self.prepared[k], tracer,
                                 defaultdict(list) if art is None else art)
        except Exception as e:  # an operation that raises is a failed operation
            out = None
            self.bad.setdefault(k, f"{type(e).__name__}: {e}")
        latency = perf_counter() - start
        self.counts[k] += 1
        if out is not None and self.outputs.setdefault(k, out) != out:
            self.bad.setdefault(k, "output differs from an earlier run of the same input")
        return latency

    def check(self) -> None:
        """Oracle pass over every distinct output (outside timed intervals)."""
        for k, out in sorted(self.outputs.items()):
            if k in self.bad:
                continue
            try:
                errors = self.wl.check(self.prepared[k], out)
            except Exception as e:  # a malformed output is a wrong output
                errors = [f"oracle raised {type(e).__name__}: {e}"]
            if errors:
                self.bad[k] = "; ".join(errors)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return sum(self.counts[k] for k in self.bad)


def fresh_import():
    """Import the package and the workloads module, dropping any earlier
    import first, so that every set-up pays for the import again."""
    for name in [m for m in sys.modules if m.partition(".")[0] in ("metalie", "workloads")]:
        del sys.modules[name]
    return importlib.import_module("workloads")


def setup(wl, seed: int):
    """Input generation, preparation, and a warm-up operation on the first
    input only, so set-up time does not hinge on a large random input."""
    pool = wl.generate(seed)
    prepared = [wl.prepare(inp) for inp in pool]
    try:
        wl.op(prepared[0], NULL, defaultdict(list))
    except Exception:  # the timed loop runs the same input and reports it
        pass
    return pool, prepared


def reference_median(n: int = 2 * REF_WINDOW + 1) -> float:
    """Median of `n` reference readings taken now."""
    return statistics.median(reference_s() for _ in range(n))


def timed_latencies(run: Run, seconds: float) -> dict:
    """Run the pool pass after pass for `seconds`, a reference reading
    before each operation and after the last; return {pool index: median
    corrected latency over its passes}. An operation is corrected by the
    median of the REF_WINDOW readings on each side of it."""
    ops = []
    refs = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        k = i % len(run.pool)
        refs.append(reference_s())
        ops.append((k, run.one(k)))
        i += 1
    refs.append(reference_s())
    per_input = defaultdict(list)
    for i, (k, latency) in enumerate(ops):
        window = refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]
        per_input[k].append(corrected(latency, statistics.median(window)))
    return {k: statistics.median(v) for k, v in per_input.items()}


def end_to_end(run: Run, wl, seconds: float, setup_s: float) -> dict:
    by_input = timed_latencies(run, seconds)
    lat = list(by_input.values())
    by_cell = defaultdict(list)
    for k, latency in by_input.items():
        by_cell[run.pool[k]["cell"]].append(latency)
    # each input at its cell's median latency: the throughput of the cell
    # mix, which a few outlying random inputs do not swing
    typical = sum(statistics.median(v) * len(v) for v in by_cell.values())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {wl.name}: {run.attempted} ops over {len(lat)} inputs "
          f"({run.attempted / len(run.pool):.1f} passes), tail = p{TAIL_PCT}")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / typical, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (percentile(lat, TAIL_PCT) * 1000, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }


def per_layer(run: Run, wl, workloads) -> dict:
    """One pass over the pool. Each input runs untraced and traced back to
    back, alternating which goes first, so the overhead compares equal work
    at the same machine speed."""
    tracer = Tracer()
    counters = Counters()
    untraced = {}
    traced_s = 0.0
    for k in range(len(run.pool)):
        art = defaultdict(list)
        if k % 2:
            traced_s += run.one(k, tracer, art)
            untraced[k] = run.one(k)
        else:
            untraced[k] = run.one(k)
            traced_s += run.one(k, tracer, art)
        counters.add(art, run.pool[k]["cell"].split(".")[0])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.jsonl")

    values = summarize(tracer.spans, span_names(workloads))
    units = dict(COUNTERS)
    values.update({k: (v, units[k]) for k, v in counters.metrics().items()})
    values["trace_overhead"] = (traced_s / sum(untraced.values()), "ratio")
    by_cell = defaultdict(list)
    for k, s in untraced.items():
        by_cell[cell_metric(run.pool[k]["cell"])].append(s)
    names = per_layer_names(workloads)
    for name, unit in names:
        if name not in values:
            cell = by_cell.get(name) if wl.name == "tame" else None
            values[name] = (statistics.median(cell) * 1000 if cell else 0.0, unit)
    return {name: values[name] for name, _ in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import metalie
    except ImportError as e:
        print(f"bench: cannot import metalie from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(metalie.__file__).resolve().parent.parent != SRC:
        print(f"bench: metalie was imported from {metalie.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workloads = fresh_import()
        wl = workloads.WORKLOADS.get(args.workload)
        if wl is None:
            print(f"bench: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        pool, prepared = setup(wl, args.seed)
        setup_times.append(corrected(perf_counter() - start, reference_median()))
    run = Run(wl, pool, prepared)

    if args.trace:
        metrics = per_layer(run, wl, workloads.WORKLOADS)
    else:
        metrics = end_to_end(run, wl, args.seconds, statistics.median(setup_times))

    run.check()
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for k, err in sorted(run.bad.items()):
        print(f"FAILED input {k} ({pool[k]['cell']}): {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.bad,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if run.bad else 0


if __name__ == "__main__":
    sys.exit(main())
