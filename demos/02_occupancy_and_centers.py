"""Show how alignment occupancy turns a center loss into something a
sequence model can use without framewise labels.

A center loss needs to know which class each frame belongs to.  Without
framewise labels the best available substitute is the posterior weight
the alignment lattice puts on each label position at each frame.  This
script prints those occupancy weights for a small sequence, evaluates
the expected center loss under both normalization conventions, and runs
the occupancy-weighted center update to show its fixed point and its
threshold gate.
"""

import numpy as np

from tmfusion import ctc, losses


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def center_step(bank, u, gamma, zp):
    """One occupancy-weighted center update from one sequence: its
    center statistics over the label positions, then one bank step."""
    labels = zp[1::2]
    _, sums = losses.center_stats(bank, u, gamma[:, 1::2], labels,
                                  bank.gather(labels))
    return bank.step(sums)


def main():
    rng = np.random.default_rng(3)
    T, K, dim = 6, 3, 2
    y = rng.dirichlet(np.ones(K), size=T)
    labels = [1, 2]
    features = rng.normal(size=(T, dim))

    tables = ctc.forward_backward(y, labels)

    banner("occupancy, literal convention (rows are frames)")
    gamma = ctc.occupancy(tables, "paper_literal")
    print("columns follow z' =", list(tables.zp))
    print(np.round(gamma, 4))
    ident = (gamma / y[:, tables.zp]).sum(axis=1)
    print("dividing each frame's emission back out re-sums to p(z|x):")
    print("  %s vs %.6f" % (np.round(ident, 6), np.exp(tables.log_seq_prob)))

    banner("occupancy, frame normalized")
    gamma_n = ctc.occupancy(tables, "frame_normalized")
    print(np.round(gamma_n, 4))
    print("row sums:", np.round(gamma_n.sum(axis=1), 12))

    banner("expected center loss")
    bank = losses.CenterBank(K - 1, dim)
    bank.centers = rng.normal(size=bank.centers.shape)
    centers = bank.gather(tables.zp[1::2])
    for mode, g in (("paper_literal", gamma), ("frame_normalized", gamma_n)):
        val = losses.ecl(features, g[:, 1::2], centers)
        print("  %-16s ECL = %.6f" % (mode, val))
    print("blank positions carry no center and contribute nothing.")

    banner("center update fixed point")
    on_center = np.tile(bank.centers[0], (T, 1))
    stepped = center_step(bank, on_center, gamma_n, tables.zp)
    print("features placed exactly on center 1:")
    print("  center 1 movement = %.3e (a fixed point)"
          % np.abs(stepped.centers[0] - bank.centers[0]).max())
    print("  center 2 movement = %.3e (drawn toward the features)"
          % np.abs(stepped.centers[1] - bank.centers[1]).max())

    banner("threshold gate")
    hi = float(gamma_n.max())
    above = np.nextafter(hi, 2.0)
    gated = losses.CenterBank(K - 1, dim, occupancy_threshold=above)
    moved = center_step(gated, features, gamma_n, tables.zp)
    print("largest weight is %.4f; a threshold just above it gates every"
          % hi)
    print("term, so max movement = %.3e"
          % np.abs(moved.centers - gated.centers).max())
    open_bank = losses.CenterBank(K - 1, dim, occupancy_threshold=0.0)
    moved = center_step(open_bank, features, gamma_n, tables.zp)
    print("threshold 0.0 admits them all;   max movement = %.3e"
          % np.abs(moved.centers - open_bank.centers).max())


if __name__ == "__main__":
    main()
