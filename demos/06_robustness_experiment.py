"""Run the robustness experiment: does fusing a center loss into
sequence training help under noise the model never saw?

Four models train per seed on Gaussian-corrupted sequences, then score
on clean data, the seen noise, and an unseen noise family.  The claim
under test is directional: the fused temporal objective should beat its
sequence-only baseline on unseen-noise token error rate for most seeds,
and the fused features should be tighter around their class centers.

The twenty models train on worker processes, as many as the CPUs this
process may use; the progress lines and every number are those of a
one-process run, in its order.  The full five-seed sweep takes about
two minutes on two CPUs and about three on one.  Pass --quick for a
single-seed pass with a reduced batch budget.
"""

import argparse
import dataclasses
import time

from tmfusion import experiment


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="one seed, smaller budget")
    args = parser.parse_args()

    spec = experiment.ExperimentSpec()
    if args.quick:
        spec = dataclasses.replace(spec, seeds=(0,), max_batches=2000)
        print("quick mode is a smoke test: one seed and a third of the")
        print("training budget.  The directional claims are about the")
        print("full five-seed sweep.")
        print()

    t0 = time.monotonic()
    def progress(mode, seed, rep):
        print("  [%5.0fs] %-4s seed %d  unseen TER %.2f"
              % (time.monotonic() - t0, mode, seed, rep.token_error_rate))
    results = experiment.run_experiment(spec, progress=progress)
    h = experiment.headline(results, spec.seeds)
    n = len(spec.seeds)

    print()
    print("token error rate on unseen noise (lower is better):")
    print("  tmf %s  mean %.2f" % (h["ter_tmf"].round(2), h["ter_tmf"].mean()))
    print("  ctc %s  mean %.2f" % (h["ter_ctc"].round(2), h["ter_ctc"].mean()))
    print("  tmf wins %d of %d seeds, mean gap %.2f points"
          % (h["ter_wins"], n, h["ter_mean_gap"]))
    print()
    print("frame accuracy on unseen noise (higher is better):")
    print("  fmf %s  mean %.2f" % (h["acc_fmf"].round(2), h["acc_fmf"].mean()))
    print("  ce  %s  mean %.2f" % (h["acc_ce"].round(2), h["acc_ce"].mean()))
    print("  fmf wins %d of %d seeds, mean gap %.2f points"
          % (h["acc_wins"], n, h["acc_mean_gap"]))
    print()
    print("feature scatter ratio on clean data (lower is tighter):")
    print("  tmf %s  mean %.3f" % (h["scatter_tmf"].round(3),
                                   h["scatter_tmf"].mean()))
    print("  ctc %s  mean %.3f" % (h["scatter_ctc"].round(3),
                                   h["scatter_ctc"].mean()))
    print("  tmf tighter on %d of %d seeds" % (h["scatter_wins"], n))


if __name__ == "__main__":
    main()
