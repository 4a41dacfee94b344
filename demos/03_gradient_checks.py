"""Check every analytic gradient in the library against finite
differences.

The training losses back-propagate through an alignment lattice, a
softmax, and a small network.  Each closed-form gradient here is checked
numerically: perturb one input coordinate, difference the loss, compare.
The same suites run behind `tmfusion check`; this script runs smaller
versions and narrates one coordinate by hand first.
"""

import numpy as np

from tmfusion import ctc, model, oracle, verify


def hand_example():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3))
    labels = [1, 2]

    # the lattice takes the log-probabilities, the gradient the probabilities
    log_y, y = model.log_softmax(a)
    tables = ctc.forward_backward(log_y, labels)
    delta = ctc.ctc_grad_logits(tables, y)

    t, k = 2, 1
    def loss_at(points):
        values = []
        for (v,) in points:
            a2 = a.copy()
            a2[t, k] = v
            values.append(-ctc.forward_backward(model.log_softmax(a2)[0], labels).log_seq_prob)
        return values

    num = oracle.finite_diff(loss_at, a[t, k])
    print("one pre-softmax coordinate of the alignment loss gradient:")
    print("  analytic   d/da[%d,%d] = %.10f" % (t, k, delta[t, k]))
    print("  numerical  d/da[%d,%d] = %.10f" % (t, k, num))
    print("  |difference| = %.3e" % abs(delta[t, k] - num))
    print()


def main():
    hand_example()

    print("suite results (max error over all instances and coordinates):")
    err, n = verify.grad_ml_suite(n=20)
    print("  softmax-layer gradient   %3d instances  max err %.3e" % (n, err))
    err, n = verify.grad_ecl_suite(n=20)
    print("  feature-layer gradient   %3d instances  max err %.3e" % (n, err))
    err, n = verify.grad_full_suite(n=10)
    print("  full-network gradient    %3d instances  max err %.3e" % (n, err))
    print()
    print("the full-network check takes a training step's summed gradient")
    print("over a batch of two sequences in each mode (ctc, tmf, ce, fmf) and")
    print("differences the batch loss over every network parameter, so it")
    print("exercises every backward rule and both fused objectives at once.")


if __name__ == "__main__":
    main()
