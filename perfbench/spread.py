"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads seq_train,...]
                                [--json perfbench/out/spread.json]

The JSON file also keeps every run's detail figures by seed, quality
numbers included, for seed-by-seed comparison.
Runs one process at a time, from the root of the checkout, with the
run_seconds of BENCHMARK.json.  The spread is (Q3 - Q1) / median, with
quartiles from ``statistics.quantiles(values, n=4)``; a metric is
steady when its spread is within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--json", help="also write the figures here")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    report, details = {}, {}
    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        details[workload] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            detail, res = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            details[workload][seed] = {k: v["value"] for k, v in detail["detail"].items()}
            if not res["correct"]:
                sys.exit("%s seed %d: incorrect output\n%s"
                         % (workload, seed, proc.stderr))
            for name, metric in res["metrics"].items():
                values[name].append(metric["value"])
        report[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"] or m["name"] == "setup_s"
            steady = steady and ok
            report[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "unit": m["unit"], "values": vals}
            print("%-13s %-12s median %12.5g %-4s spread %.3f (bound %.2f)%s"
                  % (workload, m["name"], med, m["unit"], spread, m["bound"],
                     "" if ok else "  WIDER THAN BOUND"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seeds": args.seeds, "workloads": report,
                       "detail_by_seed": details}, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
