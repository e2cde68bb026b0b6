"""Benchmark of the rbmaf package: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload uniform --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  Load is
a closed loop: one thread runs one operation on one instance at a time,
the next starting when the previous one is done.  A run generates the
workload's seeded instances several times (``setup_s`` is the median),
then makes passes over them until the measured time reaches
``--seconds`` and reports medians over passes.  Outputs are checked
after the timed passes; on a seed recorded in ``fingerprints.json`` the
generated text and the value and D totals are checked against it as
well (see ``record_fingerprints.py``).  Times are wall seconds
corrected for the machine's speed during the run (see
``calibrate.py``); the raw wall seconds are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a
separate traced run: it alternates untraced and traced passes, prints
the per-layer metrics and the tracing overhead, and writes the spans of
the last traced pass under ``perfbench/out/``.  Either way the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, holding the metrics BENCHMARK.json declares
for that mode.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import calibrate  # noqa: E402  (after the bytecode switch)
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("uniform", "near", "verify")


def import_rbmaf():
    """Import the package from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rbmaf
    except ImportError as error:
        raise SystemExit("perfbench: cannot import rbmaf from %s: %s" % (SRC, error))
    if Path(rbmaf.__file__).resolve().parent.parent != SRC:
        raise SystemExit("perfbench: rbmaf was imported from %s, not from %s"
                         % (rbmaf.__file__, SRC))
    from rbmaf import (cli_runner, dual_certificate, forest_partition,
                       lp_toolkit, redblue_core, tree_model)
    return {
        "cli_runner": cli_runner, "dual_certificate": dual_certificate,
        "forest_partition": forest_partition, "lp_toolkit": lp_toolkit,
        "redblue_core": redblue_core, "tree_model": tree_model,
    }


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rbmaf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured wall seconds to accumulate over passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def is_time(name):
    return name.endswith((".s", "_s"))


def scaled(metrics, factor):
    """Time metrics multiplied by ``factor``; counts unchanged."""
    return {name: value * factor if is_time(name) else value
            for name, value in metrics.items()}


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def tail_summary(samples):
    """Median, highest percentile with ten samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for p in (90, 95, 99, 99.9):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            tail = (p, xs[rank - 1])
    return statistics.median(xs), tail, n


def setup(work, workload, seed, reps, probe, tracer=None):
    """Generate the instances ``reps`` times.

    Returns the instances, the scaled and the raw seconds of each
    repetition, and the fingerprints seen.
    """
    times, raw_times, prints = [], [], set()
    instances = None
    for _ in range(reps):
        gc.collect()
        instances, seconds, raw = work.make_instances(workload, seed, probe, tracer)
        times.append(seconds)
        raw_times.append(raw)
        prints.add(work.fingerprint(instances))
    return instances, times, raw_times, prints


def pinned_problems(entry, prints, totals):
    """Messages for generated text or answers that differ from the
    seed's entry in fingerprints.json (``None`` when it has none)."""
    out = []
    if len(prints) != 1:
        out.append("setup repetitions generated different Newick text")
    if entry is None:
        return out
    if entry["text_sha256"] not in prints:
        out.append("generated Newick text does not match the recorded fingerprint")
    value_total, dual_total = totals
    if value_total > entry["value_total"]:
        out.append("value_total %d is above the recorded %d"
                   % (value_total, entry["value_total"]))
    if dual_total < entry["dual_total"]:
        out.append("dual_total %d is below the recorded %d"
                   % (dual_total, entry["dual_total"]))
    return out


def measure(one_pass, seconds):
    """Call ``one_pass()`` until its raw wall seconds reach ``seconds``."""
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        gc.collect()
        row = one_pass()
        passes.append(row)
        spent += row["raw"]
    return passes


def describe(args, workload, instances, prints, entry, probe):
    return [
        "rbmaf benchmark: workload %s, seed %d, seconds %g, trace %d"
        % (workload.name, args.seed, args.seconds, args.trace),
        "instances %d (%s ... %s), paths %s"
        % (len(instances), instances[0].name, instances[-1].name,
           ", ".join(workload.paths)),
        "fingerprint %s (%s)" % (
            "/".join(sorted(prints)),
            "checked with value_total and dual_total against fingerprints.json"
            if entry is not None else
            "seed not in fingerprints.json: text and totals are not pinned"),
        "speed correction x%.4f over the run: kernel mean %.3f ms over %d timings, "
        "reference %.3f ms" % (probe.factor(), statistics.fmean(probe.samples) * 1e3,
                               len(probe.samples), calibrate.REFERENCE_S * 1e3),
    ]


def timed_run(args, work, workload, entry, probe):
    instances, setup_times, setup_raw, prints = setup(
        work, workload, args.seed, workload.setup_reps, probe)
    runner = work.Runner(workload, instances, probe)

    def one_pass():
        row, raw = runner.one_pass()
        row["measured"] = sum(row.values())
        row["raw"] = raw
        return row

    passes = measure(one_pass, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check()
    value_total, dual_total = runner.totals()
    problems = pinned_problems(entry, prints, (value_total, dual_total))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s": median_of(passes, "solve"),
        "all_paths_s": median_of(passes, "measured"),
        "peak_rss_mb": peak_rss_mb,
        "value_total": value_total,
        "dual_total": dual_total,
    }
    for path in work.PATHS[1:]:
        if path in workload.paths:
            metrics[path + "_s"] = median_of(passes, path)
    header = describe(args, workload, instances, prints, entry, probe)
    header.append("passes %d, setup repetitions %d" % (len(passes), len(setup_times)))
    header.append("raw wall seconds: setup_s %.4f, all_paths_s %.4f; per pass %s" % (
        statistics.median(setup_raw), median_of(passes, "raw"),
        " ".join("%.3f" % row["raw"] for row in passes)))
    header.append("all_paths_s per pass: " + " ".join(
        "%.3f" % row["measured"] for row in passes))
    return runner, metrics, problems, header


def traced_run(args, work, modules, workload, entry, probe):
    tracer = tracing.Tracer(modules, probe.clock)
    origin = probe.clock()
    tracer.install()
    try:
        instances, setup_times, setup_raw, prints = setup(
            work, workload, args.seed, 1, probe, tracer)
    finally:
        tracer.uninstall()
    setup_spans = list(tracer.spans)
    setup_metrics = scaled(tracer.metrics(), setup_times[0] / setup_raw[0])
    setup_metrics = {name: value for name, value in setup_metrics.items()
                     if name.startswith("cli_runner.random_pair.")}
    runner = work.Runner(workload, instances, probe)
    layer_rows = []

    def one_pass():
        plain, plain_raw = runner.one_pass()
        tracer.reset()
        gc.collect()
        tracer.install()
        runner.tracer = tracer
        try:
            traced, traced_raw = runner.one_pass()
        finally:
            tracer.uninstall()
            runner.tracer = None
        row = scaled(tracer.metrics(), sum(traced.values()) / traced_raw)
        row.update(setup_metrics)
        layer_rows.append(row)
        return {
            "raw": plain_raw + traced_raw,
            "plain_solve": plain["solve"], "traced_solve": traced["solve"],
            "plain_all": sum(plain.values()), "traced_all": sum(traced.values()),
        }

    passes = measure(one_pass, args.seconds)
    problems = []
    counts = [{k: v for k, v in row.items() if not is_time(k)} for row in layer_rows]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")

    # An untimed solve after tracing must leave no span or count behind.
    leftover = tracer.leftover_wrappers()
    if leftover:
        problems.append("wrappers left installed: " + ", ".join(leftover))
    before = (len(tracer.spans), dict(tracer.counts))
    work.solve(instances[0], workload.add_rho)
    if (len(tracer.spans), dict(tracer.counts)) != before:
        problems.append("an untraced solve still reached the tracer")
    runner.check()

    metrics = {name: statistics.median(row[name] for row in layer_rows)
               if is_time(name) else layer_rows[-1][name]
               for name in layer_rows[0]}
    metrics["value_total"], metrics["dual_total"] = totals = runner.totals()
    problems += pinned_problems(entry, prints, totals)
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / ("spans-%s-seed%d.jsonl" % (workload.name, args.seed))
    tracing.write_spans([setup_spans, tracer.spans], origin, span_path)
    plain = median_of(passes, "plain_solve")
    traced = median_of(passes, "traced_solve")
    header = describe(args, workload, instances, prints, entry, probe)
    header.append("traced passes %d, each after an untraced pass" % len(passes))
    header.append("tracing overhead: solve_s traced %.4f - untraced %.4f = %+.4f s (%+.1f%%)"
                  % (traced, plain, traced - plain, 100.0 * (traced - plain) / plain))
    header.append("tracing overhead, all paths: %+.4f s" % (
        median_of(passes, "traced_all") - median_of(passes, "plain_all")))
    header.append("spans of the last traced pass, in raw wall seconds less the kernel's: %s"
                  % span_path.relative_to(ROOT))
    return runner, metrics, problems, header


def print_report(header, runner, metrics, declared, layer_map, trace):
    for line in header:
        print(line)
    width = max(len(name) for name in metrics) + 2
    for name, value in sorted(metrics.items()) if trace else metrics.items():
        unit = declared.get(name, "s" if is_time(name) else
                            "ratio" if name.endswith("ratio") else "count")
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        note = ""
        if trace:
            prefix = max((p for p in layer_map if name == p or name.startswith(p + ".")),
                         key=len, default=None)
            if prefix is not None:
                target = layer_map[prefix]
                note = "-> %s on %s" % (target["moves"], ", ".join(target["on"]))
            if name not in declared:
                note += " (printed only)"
        print("  %-*s %14s %-6s %s" % (width, name, shown, unit, note))
    failed = len(runner.failures)
    print("  %-*s %14.6g %-6s (%d of %d operations)"
          % (width, "failed_frac", failed / runner.attempted, "", failed, runner.attempted))
    if 0 in runner.solved:
        print("instance %s: %d iterations" % (runner.instances[0].name, runner.solved[0][2]))
    if not trace and len(runner.workload.paths) > 1:
        print("latency per instance, not gated: median, highest percentile "
              "with ten samples beyond it, samples")
        for path in runner.workload.paths:
            median, tail, n = tail_summary(runner.latencies[path])
            shown = "p%g %.3f ms" % (tail[0], tail[1] * 1e3) if tail else "no tail"
            print("  %-12s %.3f ms  %s  n=%d" % (path, median * 1e3, shown, n))


def main(argv=None):
    args = parse_args(argv)
    modules = import_rbmaf()
    import workloads as work

    spec = load_json(ROOT / "BENCHMARK.json")
    meta = load_json(BENCH_DIR / "meta.json")
    workload = work.WORKLOADS[args.workload]
    entry = load_json(BENCH_DIR / "fingerprints.json")[workload.name].get(str(args.seed))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    with calibrate.SpeedProbe() as probe:
        if args.trace:
            result = traced_run(args, work, modules, workload, entry, probe)
        else:
            result = timed_run(args, work, workload, entry, probe)
    runner, metrics, problems, header = result

    missing = [name for name in declared if name not in metrics]
    if missing:
        raise SystemExit("perfbench: no value for declared metrics %s" % ", ".join(missing))
    print_report(header, runner, metrics, declared, meta["layer_map"], args.trace)
    for message in problems + runner.failures[:20]:
        print("FAIL " + message, file=sys.stderr)
    failed = len(runner.failures) + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted + (1 if args.trace else workload.setup_reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
