"""tmfusion benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload seq_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src``.  After set-up (repeated, median reported) the workload's
rounds run until ``--seconds`` have passed.  With ``--trace 0`` the last
line of standard output is the JSON result with the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` untraced and traced rounds
alternate and the result carries the per-layer metrics instead.  The
line before it carries the detail: the per-mode and per-command
figures, the quality numbers and the parameter digests.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SRC = os.path.join(ROOT, "src")


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "tmfusion", "__init__.py")):
        sys.exit("perfbench: no tmfusion sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import tmfusion
    if os.path.dirname(os.path.dirname(os.path.abspath(tmfusion.__file__))) != SRC:
        sys.exit("perfbench: tmfusion imported from outside %s" % SRC)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# Units of the detail figures; a name not listed is a rate per second.
UNITS = {"setup_s": "s", "wall_s": "s", "raw_wall_s": "s", "host_speed": "x",
         "peak_rss_mb": "MB", "fail_frac": "ratio",
         "gen_data_s": "s", "cli_train_s": "s", "cli_eval_s": "s",
         "unseen_ter": "%", "unseen_frame_acc": "%"}


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(summaries, counts, overhead):
    """Per-round layer figures: times are medians over the traced
    rounds, counts come from one round (they must repeat exactly)."""
    def stat(name, which):
        return _median([s.get(name, (0, 0.0, 0.0))[which] for s in summaries])
    values = dict(counts)
    for name in set().union(*summaries):
        values[name + ".s"] = stat(name, 1)
        values[name + ".self_s"] = stat(name, 2)
    cells = counts.get("losses.center_gate_cells", 0)
    values["losses.center_gate_pass_frac"] = (
        counts.get("losses.center_gate_passed", 0) / cells if cells else 0.0)
    values["trace.overhead_s"] = overhead
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    spec = _spec()
    _import_library()
    import calibrate
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    try:
        return measure(args, spec, size, workdir, calibrate, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, size, workdir, calibrate, spans, workloads):
    wl = workloads.WORKLOADS[args.workload](size, args.seed, workdir)
    clock = calibrate.Calibrator()
    setup_times = []
    with clock:
        for _ in range(size.setups):
            mark = clock.mark()
            start = time.perf_counter()
            inputs = wl.setup()
            setup_times.append(clock.block(mark, time.perf_counter() - start)[1])

    rounds, traced, summaries, counts = [], [], [], []
    failures = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # with --trace 1, odd rounds are traced and run without the sampler
        tracer = spans.Tracer() if args.trace and (len(rounds) + len(traced)) % 2 else None
        try:
            if tracer:
                tracer.install()
                try:
                    r = wl.run_round(inputs, clock)
                finally:
                    tracer.uninstall()
            else:
                with clock:
                    r = wl.run_round(inputs, clock)
        except Exception:       # a raised library error fails the round
            traceback.print_exc()
            failures.append("round %d raised" % (len(rounds) + len(traced)))
            break
        (traced if tracer else rounds).append(r)
        failures.extend(r.failures)
        if r.outcome != (rounds or traced)[0].outcome:
            failures.append("round outcome differs from the first round's")
        if tracer:
            summaries.append(tracer.summary())
            counts.append(dict(tracer.counts, **{
                name + ".calls": stat[0] for name, stat in summaries[-1].items()}))
            if len(summaries) == 1:
                tracer.write(os.path.join(OUT, "%s-seed%d.spans.jsonl"
                                          % (args.workload, args.seed)))
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    all_rounds = rounds + traced
    attempted = sum(r.attempted for r in all_rounds) or 1
    detail = {
        "setup_s": _median(setup_times),
        "wall_s": _median([r.wall for r in rounds]),
        "ops_per_s": _median([r.ops / r.ops_seconds for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": _median([r.raw_wall for r in rounds]),
        "host_speed": clock.host_speed(),
    }
    for key in sorted({k for r in rounds for k in r.rates}):
        detail[key] = _median([r.rates[key] for r in rounds if key in r.rates])
    outcome = rounds[0].outcome if rounds else {}
    for key in ("unseen_ter", "unseen_frame_acc"):
        if key in outcome:
            detail[key] = outcome[key]

    if args.trace:
        if any(c != counts[0] for c in counts):
            failures.append("traced rounds counted different work")
        layer = per_layer(summaries, counts[0] if counts else {},
                          _median([r.raw_wall for r in traced]) - detail["raw_wall_s"])
        for key, value in layer.items():
            if key.endswith(".calls") and value and key.startswith(
                    workloads.BYPASSED[args.workload]):
                failures.append("%s is %d on a workload that bypasses it" % (key, value))
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {m["name"]: {"value": detail[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    detail["fail_frac"] = len(failures) / attempted
    for message in failures:
        print("perfbench: FAILED %s" % message, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "traced_rounds": len(traced),
                      "detail": {k: {"value": v, "unit": UNITS.get(k, "1/s")}
                                 for k, v in detail.items()},
                      "outcome": outcome}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(len(failures), attempted),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
