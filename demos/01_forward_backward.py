"""Walk the forward-backward machinery on a sequence small enough to
check by hand.

The dynamic program scores every monotone alignment between a frame
posterior matrix and a label sequence at once.  This script builds a
three-frame, two-label problem, prints the lattice tables, and confirms
the result against explicit enumeration of every alignment path.
"""

import itertools

import numpy as np

from tmfusion import ctc, oracle


def enumerate_paths(y, labels):
    """Sum path probabilities the slow way: try every frame labeling and
    keep the ones that collapse to the target."""
    T, K = y.shape
    total = 0.0
    kept = []
    for path in itertools.product(range(K), repeat=T):
        if oracle.collapse(path) == tuple(labels):
            p = float(np.prod([y[t, path[t]] for t in range(T)]))
            total += p
            kept.append((path, p))
    return total, kept


def main():
    rng = np.random.default_rng(7)
    y = rng.dirichlet(np.ones(3), size=3)
    labels = [1, 2]

    print("frame posteriors (rows are frames, column 0 is blank):")
    print(np.round(y, 4))
    print()

    # the lattice takes log-probabilities
    log_y = np.log(y)
    tables = ctc.forward_backward(log_y, labels)
    print("augmented label sequence z' =", list(tables.zp))
    print("log alpha:")
    print(np.round(tables.log_alpha, 4))
    print("log beta:")
    print(np.round(tables.log_beta, 4))
    print()

    p_dp = np.exp(tables.log_seq_prob)
    p_slow, kept = enumerate_paths(y, labels)
    print("paths that collapse to %s:" % (tuple(labels),))
    for path, p in kept:
        print("  %s  p = %.6f" % (path, p))
    print("dynamic program:  p(z|x) = %.12f" % p_dp)
    print("enumeration:      p(z|x) = %.12f" % p_slow)
    print("difference:       %.3e" % abs(p_dp - p_slow))
    print()

    # Both tables include frame t's emission, so their product carries
    # it twice; dividing one emission back out must recover p(z|x) at
    # every frame.
    print("per-frame consistency of the tables:")
    for t in range(y.shape[0]):
        col = tables.log_alpha[t] + tables.log_beta[t]
        col = col - log_y[t, tables.zp]
        finite = col[np.isfinite(col)]
        print("  frame %d: sum = %.12f" % (t, np.exp(finite).sum()))


if __name__ == "__main__":
    main()
