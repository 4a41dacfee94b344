"""Alternating benchmark pairs of two checkouts, judged by the gain rule.

    python3 tools/pairs.py DIR_PARENT DIR_CHANGE --workload W --pairs N

Pair i (seed i, from 1) runs ``perfbench/run.py --workload W --seed i
--seconds S --trace 0`` once in each checkout, the parent first on odd
pairs and the change first on even ones; S is the parent's
``BENCHMARK.json`` ``run_seconds``.  A run whose output is not correct
stops the tool.  Each pair's end-to-end metrics are printed as they
come, then each side's share of failed operations (failed over
attempted, summed over its runs) and, per metric, each side's median
and quartiles, the change's wins, losses and ties, and two verdicts:

* gain: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), its median beats the parent's by more
  than the distance between the parent's quartiles, and its share of
  failed operations is no larger than the parent's;
* regression: "unresolved" when the parent's quartiles lie further
  apart than the metric's ``bound`` in ``BENCHMARK.json``, as a
  fraction of the parent's median, unless every change run beats every
  parent run; otherwise "yes" when the change's median is worse than
  the parent's by more than that fraction of the parent's median, and
  "no" when it is not.

Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10          # fewer pairs never show a gain


def quartiles(values):
    """(lower quartile, median, upper quartile) of a nonempty list."""
    if len(values) == 1:
        return (values[0],) * 3
    lower, median, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower, median, upper


def summarize(parent, change, better, bound, shares=(0.0, 0.0)):
    """The verdicts on one metric from its paired values: parent[i] and
    change[i] come from pair i; better is "higher" or "lower"; shares
    are the parent's and the change's failed shares of operations."""
    if len(parent) != len(change) or not parent:
        raise ValueError("expected equal, nonempty lists of paired values")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (p_lo, p_med, p_hi), (c_lo, c_med, c_hi) = quartiles(parent), quartiles(change)
    gain = sign * (c_med - p_med)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_hi - p_lo > bound * abs(p_med) and not beats_all:
        regression = "unresolved"
    else:
        regression = "yes" if -gain > bound * abs(p_med) else "no"
    return {"parent": (p_lo, p_med, p_hi), "change": (c_lo, c_med, c_hi),
            "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
            "relative": (c_med - p_med) / p_med if p_med else float("nan"),
            "gain": (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
                     and gain > p_hi - p_lo and shares[1] <= shares[0]),
            "regression": regression}


def read_result(stdout, where):
    """(metric values by name, failed ops, attempted ops) from the last
    line of a run's output; exits when the run reports incorrect output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: incorrect output" % where)
    return ({k: v["value"] for k, v in result["metrics"].items()},
            result["failed"], result["attempted"])


def run_once(checkout, workload, seed, seconds):
    """One untraced run in checkout, by ``read_result``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return read_result(proc.stdout, "%s %s seed %d\n%s" % (checkout, workload, seed,
                                                             proc.stderr))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]
    values = {"parent": [], "change": []}
    ops = {"parent": [0, 0], "change": [0, 0]}       # failed, attempted
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            got, failed, attempted = run_once(getattr(args, side), args.workload, i, seconds)
            values[side].append(got)
            ops[side][0] += failed
            ops[side][1] += attempted
        print("pair %d (seed %d, %s first): %s" % (i, i, order[0], "  ".join(
            "%s %.6g/%.6g" % (m["name"], values["parent"][-1][m["name"]],
                              values["change"][-1][m["name"]]) for m in metrics)),
              flush=True)
    shares = tuple(f / a if a else 0.0 for f, a in (ops["parent"], ops["change"]))
    print("%s, %d pairs of %g s; failed operations: parent %d of %d, change %d of %d"
          % ((args.workload, args.pairs, seconds) + tuple(ops["parent"] + ops["change"])))
    for m in metrics:
        s = summarize([v[m["name"]] for v in values["parent"]],
                      [v[m["name"]] for v in values["change"]], m["better"], m["bound"],
                      shares)
        print("%-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.2f%%  "
              "wins %d losses %d ties %d  gain %s  regression %s"
              % ((m["name"], s["parent"][1], s["parent"][0], s["parent"][2],
                  s["change"][1], s["change"][0], s["change"][2], 100 * s["relative"],
                  s["wins"], s["losses"], s["ties"], "yes" if s["gain"] else "no",
                  s["regression"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
