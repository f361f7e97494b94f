#!/usr/bin/env python3
"""Benchmark of the twistknots library: one workload in one process.

Run from the root of a checkout that holds ``src/twistknots``:

    python3 perfbench/run.py --workload bounds_sweep --seed 1 --seconds 40 --trace 0

The run builds the workload's items from ``--seed``, then makes a fixed
number of passes over them, single-threaded; ``--seconds`` only caps the
run, which stops early (and says so) if another pass would not end in
time.  Each item's latency is its median over the passes; ``sweep_s`` is
the sum of those, and ``setup_s`` is the median of the set-up samples
taken before the first pass and after each pass.  Every end-to-end
timing is then scaled to the reference speed of ``reference.py``, whose
task the run times between items, so that other tenants of a shared
machine slowing the whole process do not read as a change of the code.
Each item's outputs are checked; an item that raises or fails a check
counts as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` makes untraced and traced passes in turn.  A traced pass
records a span (name, start, end, parent, item id, count) around every
call the benchmark makes into the library, keeps the spans in memory,
and writes them to ``.perfbench_out/`` at exit.  It reports the
per-layer metrics: per traced pass, the calls, self time and work count
of each layer, plus the tracing overhead against the untraced passes.

``--write-manifest`` rewrites ``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 40
# set-up samples before the first pass; one more follows every pass
SETUP_REPEATS = 4
SETUP_PER_PASS = 1
# Passes of an untraced run of each workload, the same on every commit
# so that every commit's medians are taken over as many samples: as many
# as end in about 30 s on a 2-core x86-64 host whose other tenants slow
# it by a half, so that the 40 s cap is not reached.  A traced run makes
# its passes in turn untraced and traced.
PASSES = {"bounds_sweep": 6, "wide_certificates": 5, "move_walk": 4}
TRACED_PASSES = 4
# one reference sample (about 10 ms) before every REF_EVERY-th item; one
# every 8 items left the scale factor noisy enough to widen the spread
# of move_walk's timings across runs by half
REF_EVERY = 4

WORKLOADS = {
    "bounds_sweep": (
        "coherent torus and chain families at n=+-1..+-N: long narrow diagrams"
        " where signature and simplification carry the load; the control for scan work"
    ),
    "wide_certificates": (
        "coherent reduction and Jones of non-coherent families up to scan width 7:"
        " the frontier scan does most of the work"
    ),
    "move_walk": (
        "seeded Reidemeister walks with PD round trips: the diagram layer builds"
        " and validates hundreds of candidate diagrams per step"
    ),
}

# name, unit, bound (share of the parent's median it may worsen by).  The
# timing bounds are the widest allowed: on a shared 2-core machine the
# unscaled timings of ten runs per workload (seeds 21-30, 25 minutes)
# spread by 0.09-0.16 (IQR over median), and sets of runs an hour apart
# drifted by 20-40%; scaled to the reference speed the same runs spread
# by 0.04-0.07.  Contention that slows the library more than the
# reference task still moves the scaled timings.
# peak_rss_mb is about 20 MB, of which the interpreter and its imports
# are all but 1-1.5 MB; its spreads stayed below 0.02, and 0.06 lets
# that working set show when it grows by about its own size.
END_TO_END = [
    ("sweep_s", "s", 0.25),
    ("item_p50_ms", "ms", 0.25),
    ("item_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.06),
    ("setup_s", "s", 0.25),
]

# layer span name -> (name of the work count it reports, how the count is
# read off the call's arguments and result); layers without a count
# report calls and time only
LAYERS = {
    "invariants.kauffman_bracket_jones": ("crossings_in", lambda args, out: args[0].n_crossings),
    "invariants.signature": ("crossings_in", lambda args, out: args[0].n_crossings),
    "moves.reidemeister_moves": ("moves_out", lambda args, out: len(out)),
    "moves.greedy_simplify": ("steps", lambda args, out: len(out[1])),
    "families.coherent_reduction": ("changes", lambda args, out: len(out.changes)),
    "families.twist": ("crossings_out", lambda args, out: out.n_crossings),
    "families.untwist_schedule": ("sites", lambda args, out: len(out)),
    "diagram.change_crossings": (None, None),
    "diagram.parse_pd": (None, None),
    "diagram.serialize": (None, None),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer, (count, _) in LAYERS.items():
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s")]
        if count:
            out.append((f"{layer}.{count}", "count"))
    return out + [("corpus.load_corpus.s", "s"), ("trace.overhead_frac", "frac")]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in per_layer_metrics()
        ],
    }


# -- tracing ------------------------------------------------------------------


def direct(name, fn, *args, **kwargs):
    """The untraced call path."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, item, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = None

    @contextmanager
    def span(self, name: str, item=None):
        if item is not None:
            self._item = item
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._item, None])
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name) as record:
            out = fn(*args, **kwargs)
        _, counter = LAYERS.get(name, (None, None))
        if counter:
            record[5] = counter(args, out)
        return out

    def layer_totals(self, first: int, last: int) -> dict:
        """Per span name: calls, summed self time and summed count."""
        child_time = [0.0] * (last - first)
        for name, start, end, parent, _, _ in self.spans[first:last]:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        totals: dict = {}
        for k, (name, start, end, _, _, count) in enumerate(self.spans[first:last]):
            t = totals.setdefault(name, [0, 0.0, 0])
            t[0] += 1
            t[1] += end - start - child_time[k]
            t[2] += count or 0
        return totals

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "item", "count")
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# -- measurement --------------------------------------------------------------

# the reference task runs after the timed set-up, so that its imports do
# not count toward it; the first run of the task warms it up
_SETUP_CHILD = """\
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import workloads
workloads.load_families(lambda name, fn, *args: fn(*args))
setup = time.perf_counter() - t0
import reference
ref = [reference.sample() for _ in range(4)][1:]
print(setup, statistics.median(ref))
"""


def measure_setup() -> float:
    """Seconds from before ``import twistknots`` to the families built,
    in a fresh interpreter, scaled to the reference speed by the
    reference task timed in that interpreter right after."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, ref = map(float, done.stdout.split()[-2:])
    return setup * reference.REF_S / ref


def run_pass(items, call, tracer, refs):
    """One pass over the items: (seconds, latencies, failure messages).
    Reference samples taken between items are appended to ``refs``."""
    latencies, failures = [], []
    t0 = time.perf_counter()
    for k, (item_id, run) in enumerate(items):
        if k % REF_EVERY == 0:
            refs.append(reference.sample())
        s = time.perf_counter()
        try:
            if tracer is None:
                run(call)
            else:
                with tracer.span("item", item_id):
                    run(call)
        except Exception as exc:  # any raise fails the item; the pass goes on
            failures.append(f"{item_id}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - s)
    return time.perf_counter() - t0, latencies, failures


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None, sizes=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args(argv)
    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "twistknots" / "__init__.py").is_file():
        print(f"no twistknots sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    setup = [measure_setup() for _ in range(SETUP_REPEATS)]
    tracer = Tracer() if args.trace else None
    call = tracer.call if tracer else direct
    fams = workloads.load_families(call)
    items = workloads.build(
        args.workload, fams, args.seed, workloads.Pins.load(), sizes or workloads.FULL
    )

    # traced runs alternate untraced (even) and traced (odd) passes
    planned = PASSES[args.workload] if tracer is None else TRACED_PASSES
    passes = []  # (traced, seconds, latencies, first span, last span)
    failures, refs = [], []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < planned:
        traced = tracer is not None and len(passes) % 2 == 1
        first = len(tracer.spans) if tracer else 0
        secs, lat, fails = run_pass(
            items, tracer.call if traced else direct, tracer if traced else None, refs
        )
        passes.append((traced, secs, lat, first, len(tracer.spans) if tracer else 0))
        failures += fails
        setup += [measure_setup() for _ in range(SETUP_PER_PASS)]
        # the cap: after two passes (one traced), start another one only
        # if it should end before the deadline
        if len(passes) >= 2 and time.perf_counter() + max(p[1] for p in passes) > deadline:
            break

    attempted = len(items) * len(passes)
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"passes {len(passes)} of {planned}: " + " ".join(f"{p[1]:.3f}" for p in passes) + " s")
    if len(passes) < planned:
        print(f"stopped after {len(passes)} of {planned} passes at the {args.seconds:g} s cap")
    if tracer is None:
        typical = typical_latencies(passes)
        scale = reference.REF_S / statistics.median(refs)
        p90 = percentile(typical, 90)
        print(f"unscaled: sweep_s {sum(typical):.6g} s, item_p50_ms"
              f" {1e3 * percentile(typical, 50):.6g} ms, item_p90_ms {1e3 * p90:.6g} ms")
        print(f"reference task median {1e3 * statistics.median(refs):.4g} ms over"
              f" {len(refs)} samples: timings scaled by {scale:.4g}")
        metrics = {
            "sweep_s": scale * sum(typical),
            "item_p50_ms": scale * 1e3 * percentile(typical, 50),
            "item_p90_ms": scale * 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = {n: u for n, u, _ in END_TO_END}
        print(f"item samples {len(typical)} (each item at its median of {len(passes)}"
              f" passes), beyond p90 {sum(x > p90 for x in typical)}")
        print(f"set-up samples {len(setup)}")
        print(f"failed_frac {len(failures) / attempted:.6g} frac")
    else:
        metrics = traced_metrics(tracer, passes)
        units = dict(per_layer_metrics())
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.json")
        print(f"traced passes {sum(p[0] for p in passes)}, spans {len(tracer.spans)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def typical_latencies(passes) -> list[float]:
    """Each item's median latency over the given passes."""
    return [statistics.median(col) for col in zip(*(p[2] for p in passes))]


def traced_metrics(tracer: Tracer, passes) -> dict:
    """Median over traced passes of each layer's per-pass totals."""
    per_pass = [tracer.layer_totals(a, b) for traced, _, _, a, b in passes if traced]
    metrics = {}
    for layer, (count, _) in LAYERS.items():
        rows = [t.get(layer, [0, 0.0, 0]) for t in per_pass]
        metrics[f"{layer}.calls"] = statistics.median(r[0] for r in rows)
        metrics[f"{layer}.s"] = statistics.median(r[1] for r in rows)
        if count:
            metrics[f"{layer}.{count}"] = statistics.median(r[2] for r in rows)
    load = [s for s in tracer.spans if s[0] == "corpus.load_corpus"]
    metrics["corpus.load_corpus.s"] = sum(s[2] - s[1] for s in load)
    traced = sum(typical_latencies([p for p in passes if p[0]]))
    untraced = sum(typical_latencies([p for p in passes if not p[0]]))
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics


if __name__ == "__main__":
    sys.exit(main())
