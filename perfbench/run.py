"""Exact-mode benchmark for sandwichkit.

    python3 perfbench/run.py --workload evaluate|corpus|crosscheck \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the package is imported from ./src.  One
process and one thread drive a closed loop: the next operation starts when
the previous one returns.  The run repeats whole rounds of the workload's
operations until --seconds have been spent in them (and at least the
workload's minimum number of rounds, which keeps ten latency samples beyond
the reported tail percentile).  Between operations it times host-speed
probes (hostspeed.py) and rescales every latency and set-up time to the
reference host speed.  Outputs are checked after the timed phase.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1.  A fuller record
(round count, tail percentile, sample count, span self times) goes to
perfbench/out/, and the traced run's spans to perfbench/out/*.npz.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
BATCH_REPEATS = 2


def _purge_package():
    for name in [n for n in sys.modules if n == "sandwichkit" or n.startswith("sandwichkit.")]:
        del sys.modules[name]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Failure:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and other.text == self.text


def timed_rounds(wl, seconds, min_rounds, op_wrapper=None, on_first_round=None, speed=None):
    """Run whole rounds of wl.ops until `seconds` of operation time.

    Returns (start times, latencies, rounds, failed, first-round outputs,
    problems from comparing later rounds with the first).  With a HostSpeed
    `speed`, a probe runs between two operations whenever one is due; its
    time is in no latency.
    """
    ops = wl.ops
    starts = []
    lat = []
    busy = 0.0
    rounds = 0
    failed = 0
    first = None
    problems = []
    clock = time.perf_counter
    while rounds < min_rounds or busy < seconds:
        outs = []
        for op in ops:
            if speed is not None and speed.due():
                speed.probe()
            t0 = clock()
            try:
                out = op() if op_wrapper is None else op_wrapper(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = Failure(exc)
                failed += 1
            t1 = clock()
            starts.append(t0)
            lat.append(t1 - t0)
            busy += t1 - t0
            outs.append(out)
        rounds += 1
        if first is None:
            first = outs
            if on_first_round is not None:
                on_first_round()
        elif outs != first:
            bad = sum(a != b for a, b in zip(outs, first))
            problems.append(f"round {rounds}: {bad} outputs differ from round 1")
    if speed is not None:
        speed.probe()
    return starts, lat, rounds, failed, first, problems


def min_rounds(wl, args):
    return 1 if args.smoke else wl.min_rounds


def run_plain(wl, args):
    from hostspeed import HostSpeed

    speed = HostSpeed()
    setup_starts, setups = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        _purge_package()
        speed.probe()
        t0 = time.perf_counter()
        wl.setup(args.seed, args.smoke)
        setup_starts.append(t0)
        setups.append(time.perf_counter() - t0)
    speed.probe()
    starts, raw, rounds, failed, first, problems = timed_rounds(
        wl, args.seconds, min_rounds(wl, args), speed=speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = speed.rescale(starts, raw)
    setup = statistics.median(speed.rescale(setup_starts, setups))
    by_label = {}
    for i, v in enumerate(lat):
        by_label.setdefault(wl.labels[i % len(wl.ops)], []).append(v)
    lat.sort()
    tail = percentile(lat, wl.tail_percentile)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    beyond = sum(1 for v in lat if v > tail)
    extra = {"rounds": rounds, "samples": len(lat), "tail_percentile": wl.tail_percentile,
             "samples_beyond_tail": beyond,
             "probes": len(speed.took), "mean_slowdown": speed.mean_slowdown(),
             "unscaled": {
                 "setup_s": statistics.median(setups),
                 "ops_per_s": len(raw) / math.fsum(raw),
                 "latency_p50_ms": statistics.median(raw) * 1e3,
                 "latency_tail_ms": percentile(sorted(raw), wl.tail_percentile) * 1e3,
             },
             "setup_runs_s": setups,
             "median_ms_by_label": {k: statistics.median(v) * 1e3
                                    for k, v in sorted(by_label.items())}}
    return lat, failed, first, problems, metrics, extra


def batch_over_serial(repeats):
    """Batch `verify` over the corpus directory, over a serial loop of it."""
    from workloads import package_module, run_cli, scenario_dir

    cli = package_module("cli")
    corpus = scenario_dir(cli)
    files = sorted(corpus.glob("*.json"))
    batch, serial = [], []
    for i in range(repeats):
        for kind in (("batch", "serial") if i % 2 else ("serial", "batch")):
            t0 = time.perf_counter()
            if kind == "batch":
                run_cli(cli, ["verify", str(corpus), "--report", "json"])
                batch.append(time.perf_counter() - t0)
            else:
                for f in files:
                    run_cli(cli, ["verify", str(f), "--report", "json"])
                serial.append(time.perf_counter() - t0)
    return statistics.median(batch) / statistics.median(serial), batch, serial


def run_traced(wl, args):
    from hostspeed import HostSpeed
    from tracing import SpanTable, Tracer, capture_hooks, lp_stats, replay_certificates

    _purge_package()
    wl.setup(args.seed, args.smoke)
    ratio, batch, serial = batch_over_serial(1 if args.smoke else BATCH_REPEATS)

    tracer = Tracer()
    tracer.install(hooks=capture_hooks())
    tracer.capture = {}
    marks = {}

    def end_first_round():
        tracer.capture, marks["capture"] = None, tracer.capture
        marks["spans"] = len(tracer.span_start)

    pauses = []
    gc_start = []

    def on_gc(phase, info):
        if phase == "start":
            gc_start.append(time.perf_counter())
        elif gc_start:
            pauses.append(time.perf_counter() - gc_start.pop())

    speed = HostSpeed()
    gc.callbacks.append(on_gc)
    try:
        starts, lat, rounds, failed, first, problems = timed_rounds(
            wl, args.seconds, min_rounds(wl, args), op_wrapper=tracer.op,
            on_first_round=end_first_round, speed=speed)
    finally:
        gc.callbacks.remove(on_gc)
        tracer.uninstall()

    cap = marks["capture"]
    n_ops = len(lat)
    n_first = len(wl.ops)
    every = SpanTable(tracer)
    once = SpanTable(tracer, stop=marks["spans"])

    def named(*names):
        return lambda n: n in names

    def layer(*layers):
        return lambda n: n.split(".")[0] in layers

    op_time = every.outer_time(named("op"))
    lp = named("numerics.lp_solve")
    verify = named("duality.verify")
    lps = cap.get("lps", [])
    stats = [lp_stats(p, r) for p, r in lps]
    cert_ms, cert_ok = replay_certificates(lps)
    if not cert_ok:
        problems.append("a captured LP certificate failed the public checks")
    verify_s = every.outer_time(verify) / n_ops
    flags_s = every.outer_time(layer("interiority", "geometry"), within=verify) / n_ops
    m = {
        "numerics.lp_solves": (once.count(lp) / n_first, "count/op"),
        "numerics.lp_s": (every.outer_time(lp) / n_ops, "s/op"),
        "numerics.lp_share": (every.outer_time(lp) / op_time, "ratio"),
        "numerics.lp_rows": (statistics.fmean(s[0] for s in stats) if stats else 0.0, "rows"),
        "numerics.lp_cols": (statistics.fmean(s[1] for s in stats) if stats else 0.0, "cols"),
        "numerics.denominator_bits_max": (max((s[2] for s in stats), default=0), "bits"),
        "numerics.status_infeasible": (
            sum(r.status == "infeasible" for _, r in lps) / n_first, "count/op"),
        "numerics.status_unbounded": (
            sum(r.status == "unbounded" for _, r in lps) / n_first, "count/op"),
        "numerics.build_s": (every.outer_time(named("numerics.LpBuilder.build")) / n_ops, "s/op"),
        "numerics.cert_check_ms": (cert_ms, "ms"),
        "convexfn.evaluate_s": (every.outer_time(
            named("convexfn.evaluate", "convexfn.eval_with_subgradient")) / n_ops, "s/op"),
        "convexfn.sup_s": (every.outer_time(
            named("convexfn.sup_affine_minus_convex")) / n_ops, "s/op"),
        "duality.verify_s": (verify_s, "s/op"),
        "duality.lp_solves_per_query": (
            once.count(lp, within=verify) / cap["queries"] if cap.get("queries") else 0.0,
            "count/query"),
        "duality.flags_s": (flags_s, "s/op"),
        "duality.sides_s": (verify_s - flags_s, "s/op"),
        "interiority.s": (every.outer_time(layer("interiority")) / n_ops, "s/op"),
        "interiority.lp_solves": (once.count(lp, within=layer("interiority")) / n_first,
                                  "count/op"),
        "sandwich.s": (every.outer_time(layer("sandwich")) / n_ops, "s/op"),
        "oracle.envelope_calls": (once.count(named("oracle.envelope_value")) / n_first,
                                  "count/op"),
        "oracle.envelope_subsets": (cap.get("subsets", 0) / n_first, "count/op"),
        "oracle.envelope_s": (every.outer_time(named("oracle.envelope_value")) / n_ops, "s/op"),
        "oracle.grid_s": (every.outer_time(
            named("oracle.grid_sup", "oracle.grid_fiber_inf")) / n_ops, "s/op"),
        "geometry.solve_linear_calls": (once.count(named("geometry.solve_linear")) / n_first,
                                        "count/op"),
        "geometry.solve_linear_s": (every.outer_time(named("geometry.solve_linear")) / n_ops,
                                    "s/op"),
        "cli.parse_s": (every.outer_time(named("cli.parse_scenario")) / n_ops, "s/op"),
        "cli.render_s": (every.outer_time(named("cli.render")) / n_ops, "s/op"),
        "cli.batch_over_serial": (ratio, "ratio"),
        "gc.pause_s": (sum(pauses) / n_ops, "s/op"),
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.npz"
    every.save(spans_path)
    extra = {
        "rounds": rounds, "samples": n_ops, "spans": len(every.dur),
        # comparable with an untraced run's ops_per_s, for the tracing overhead
        "traced_ops_per_s": n_ops / math.fsum(speed.rescale(starts, lat)),
        "traced_ops_per_s_unscaled": n_ops / math.fsum(lat),
        "batch_s": batch, "serial_s": serial,
        "self_time_s_per_op": {k: v / n_ops for k, v in sorted(every.self_times().items())},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return lat, failed, first, problems, m, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs of each workload, for the benchmark's own test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sandwichkit" / "__init__.py").is_file():
        print(f"no package source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import sandwichkit
    from workloads import WORKLOADS

    if Path(sandwichkit.__file__).resolve().parent != src / "sandwichkit":
        print(f"imported sandwichkit from {sandwichkit.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_plain
    lat, failed, first, problems, metrics, extra = runner(wl, args)
    problems = problems + wl.check([None if isinstance(o, Failure) else o for o in first])
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, smoke=args.smoke, problems=problems[:50], **extra)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
