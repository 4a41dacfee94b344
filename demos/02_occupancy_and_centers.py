"""Show how alignment occupancy turns a center loss into something a
sequence model can use without framewise labels.

A center loss needs to know which class each frame belongs to.  Without
framewise labels the best available substitute is the posterior weight
the alignment lattice puts on each label position at each frame.  This
script prints those occupancy weights for a small sequence, next to the
raw lattice product they are normalized from, evaluates the expected
center loss, and runs the occupancy-weighted center update to show its
fixed point and its threshold gate.
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
    return bank.step(losses.center_stats(bank, u, gamma[:, 1::2], labels,
                                         bank.gather(labels)))


def main():
    rng = np.random.default_rng(3)
    T, K, dim = 6, 3, 2
    y = rng.dirichlet(np.ones(K), size=T)
    labels = [1, 2]
    features = rng.normal(size=(T, dim))

    tables = ctc.forward_backward(np.log(y), labels)

    banner("the raw product alpha * beta (rows are frames)")
    raw = np.exp(tables.log_alpha + tables.log_beta)
    print("columns follow z' =", tables.zp.tolist())
    print(np.round(raw, 4))
    ident = (raw / y[:, tables.zp]).sum(axis=1)
    print("dividing each frame's emission back out re-sums to p(z|x):")
    print("  %s vs %.6f" % (np.round(ident, 6), np.exp(tables.log_seq_prob)))
    long_y = np.random.default_rng(4).dirichlet(np.ones(K), size=60)
    long_tables = ctc.forward_backward(np.log(long_y), [1, 2] * 5)
    long_raw = np.exp(long_tables.log_alpha + long_tables.log_beta)
    print("so it vanishes with p(z|x): over 60 frames its largest cell is %.1e,"
          % long_raw.max())
    print("far below the center update's 0.01 gate")

    banner("occupancy: each frame's row divided by its sum")
    gamma = ctc.occupancy(tables)
    print(np.round(gamma, 4))
    print("row sums:", np.round(gamma.sum(axis=1), 12))

    banner("expected center loss")
    bank = losses.CenterBank(K - 1, dim)
    bank.centers = rng.normal(size=bank.centers.shape)
    centers = bank.gather(tables.zp[1::2])
    print("  ECL = %.6f" % losses.ecl(features, gamma[:, 1::2], centers))
    print("blank positions carry no center and contribute nothing.")

    banner("center update fixed point")
    on_center = np.tile(bank.centers[0], (T, 1))
    stepped = center_step(bank, on_center, gamma, tables.zp)
    print("features placed exactly on center 1:")
    print("  center 1 movement = %.3e (a fixed point)"
          % np.abs(stepped.centers[0] - bank.centers[0]).max())
    print("  center 2 movement = %.3e (drawn toward the features)"
          % np.abs(stepped.centers[1] - bank.centers[1]).max())

    banner("threshold gate")
    hi = float(gamma.max())
    above = np.nextafter(hi, 2.0)
    gated = losses.CenterBank(K - 1, dim, occupancy_threshold=above)
    moved = center_step(gated, features, gamma, tables.zp)
    print("largest weight is %.4f; a threshold just above it gates every"
          % hi)
    print("term, so max movement = %.3e"
          % np.abs(moved.centers - gated.centers).max())
    open_bank = losses.CenterBank(K - 1, dim, occupancy_threshold=0.0)
    moved = center_step(open_bank, features, gamma, tables.zp)
    print("threshold 0.0 admits them all;   max movement = %.3e"
          % np.abs(moved.centers - open_bank.centers).max())


if __name__ == "__main__":
    main()
