"""Loss functions, their error signals, and the class-center bank.

One center-loss path serves both fusion modes.  The expected center
loss (ECL) weights the squared distance from each frame's feature u_t
to the center of each label position i by a weight w(t, i):

* sequence mode (``tmf``) uses the alignment occupancy of the non-blank
  positions of the blank-extended labeling, so no frame labels are
  needed;
* framewise mode (``fmf``) uses the hard alignment of its frame labels
  onto their own runs (``frame_runs``): w(t, i) = 1 when frame t lies in
  run i of equal labels, which makes the ECL the classic center loss
  (Wen et al., ECCV 2016).

``ecl_terms``, ``ecl``, ``ecl_grad_features`` and ``center_stats`` take
the weights w (..., T, r), the centers (..., r, D) of the r positions and
(``center_stats``) their class labels, for one sequence or a batch's
padded (B, T_max, .) stacks, with zero weight and label 0 on the
padding.  The terms keep each sequence's bits; the ECL total, summed over
a padded (T_max, r_max) block, and tmf's w @ c can move the last bit.
Both modes take one momentum step on the gated sums (``CenterBank.step``).
That departs from Wen et al., who divide each class's sum by 1 + its
frame count: over five seeds the division moved fmf's unseen frame
accuracy by 0.02 points and doubled its clean scatter ratio (README).

The feature-space error signal (``ecl_grad_features``) deliberately
omits the factor 2 that differentiating a squared norm produces; the
balancing factor lambda absorbs it.  Tests pin the relationship: twice
the returned signal equals the true gradient.
"""

import math

import numpy as np


class UnknownClass(Exception):
    """A label refers to a class the center bank does not track."""


class CenterBank:
    """One feature-space center per non-blank class (classes 1..C).

    Centers start at zero and move only through the explicit update
    rules below, never through loss-gradient descent.
    """

    def __init__(self, num_classes, dim, momentum=1e-3, occupancy_threshold=0.01):
        # occupancy and run weights lie in [0, 1]: above 1 nothing updates
        if not 0.0 <= occupancy_threshold <= 1.0:
            raise ValueError("occupancy_threshold: must lie in [0, 1], got %r"
                             % (occupancy_threshold,))
        if momentum < 0:
            raise ValueError("momentum: must be nonnegative, got %r" % (momentum,))
        self.num_classes = num_classes
        self.dim = dim
        self.momentum = momentum
        self.occupancy_threshold = occupancy_threshold
        self.centers = np.zeros((num_classes, dim))

    def gather(self, labels):
        """Stack the centers for a sequence of non-blank labels."""
        labels = np.asarray(labels, dtype=np.intp)
        if len(labels) and (labels.min() < 1 or labels.max() > self.num_classes):
            raise UnknownClass("label outside 1..%d" % self.num_classes)
        return self.centers[labels - 1]

    def step(self, sums):
        """Return a bank moved by -momentum * sums, the (C, D) center-update
        sums of ``center_stats``, the one rule of both fusion modes:

            c_j <- c_j - momentum * (sum over gated (t, i) with label j
                                     of w(t, i) * (c_j - u_t))
        """
        out = CenterBank(self.num_classes, self.dim, self.momentum, self.occupancy_threshold)
        out.centers = self.centers - self.momentum * sums
        return out


def cross_entropy(log_y, cols, Ts):
    """Negative log probability of the labeled column, summed over each
    sequence's frames, for a padded (B, T_max, K) stack of
    log-probabilities log_y, the 0-based columns cols of its sequences
    back to back (an UnknownClass outside the K classes) and their
    lengths Ts.  Returns the B sums, each over its own contiguous slice
    of one gathered NLL, so each keeps the bits of its sequence alone."""
    log_y, cols = np.asarray(log_y, dtype=float), np.asarray(cols, dtype=np.intp)
    if len(cols) and (cols.min() < 0 or cols.max() >= log_y.shape[-1]):
        raise UnknownClass("frame label outside 1..%d" % log_y.shape[-1])
    b, t = np.nonzero(np.arange(log_y.shape[1]) < np.asarray(Ts)[:, None])
    nll = -log_y[b, t, cols]
    ends = np.cumsum(Ts, dtype=int)
    return [float(nll[e - Tb:e].sum()) for Tb, e in zip(Ts, ends)]


def frame_runs(frames, Ts):
    """fmf's ECL weights and labels for the 1-based frame labels of B
    sequences back to back, of lengths Ts: the (B, T_max, r_max) hard
    alignment onto their runs of equal labels, w(t, i) = 1 when frame t
    lies in run i, and the (B, r_max) class of each run, 0 past the last.
    Run it after ``cross_entropy`` has rejected labels outside 1..C."""
    frames, Ts = np.asarray(frames, dtype=np.intp), np.asarray(Ts, dtype=np.intp)
    seq = np.repeat(np.arange(len(Ts)), Ts)
    start = (np.cumsum(Ts) - Ts)[seq]       # where each frame's sequence starts
    t = np.arange(len(frames)) - start
    new = t == 0                            # the frames that open a run
    new[1:] |= frames[1:] != frames[:-1]
    runs = np.cumsum(new)
    i = runs - runs[start]                  # each frame's run in its sequence
    w = np.zeros((len(Ts), Ts.max(initial=0), i.max(initial=-1) + 1))
    w[seq, t, i] = 1.0
    labels = np.zeros((len(Ts), w.shape[2]), dtype=np.intp)
    labels[seq[new], i[new]] = frames[new]
    return w, labels


def ecl_terms(u, w, centers):
    """The terms w(t, i) * |u_t - c_i|^2 of the expected center loss as a
    (..., T, r) table, for features u (..., T, D), weights w (..., T, r)
    and position centers c (..., r, D)."""
    d = u[..., :, None, :] - centers[..., None, :, :]
    return w * (d * d).sum(axis=-1)


def ecl(u, w, centers):
    """Expected center loss of each sequence, the sum of its
    ``ecl_terms``: sum_t sum_i w(t, i) * |u_t - c_i|^2, a number for one
    sequence, or one per sequence of a padded stack (zero weights on its
    padding)."""
    return ecl_terms(np.asarray(u, dtype=float), w, centers).sum(axis=(-2, -1))


def ecl_grad_features(u, w, centers):
    """Per-frame feature error signal of the ECL (without the factor 2),
    delta(t) = sum_i w(t, i) * (u_t - c_i), with arguments shaped as for
    ``ecl_terms``."""
    u = np.asarray(u, dtype=float)
    if centers.shape[-2] == 0:
        return np.zeros_like(u)
    return w.sum(axis=-1)[..., None] * u - w @ centers


def _over_frames(g, u):
    """g^T u and g summed over the frames, per sequence."""
    return g.swapaxes(-1, -2) @ u, g.sum(axis=-2)


def center_stats(bank, u, w, labels, centers, over_frames=_over_frames):
    """Center-update statistics, threshold-gated per term, summed over
    the sequences of the leading batch axes, if any.

    For class j, over the positions i with labels[i] = j and the frames t
    with w(t, i) >= the bank's threshold:

        sums[j - 1] = sum of w(t, i) * (c_j - u_t)

    u, w and centers are shaped as for ``ecl_terms``, labels (..., r);
    label 0 pads a shorter labeling and adds nothing.  Each (sequence,
    position) takes its gated w^T u and weight sum over the frames from
    ``over_frames(gated w, u)`` (a padded batch may pass one that keeps
    each sequence's bits), and adds into its class in position order,
    the sequences in sequence order.

    Returns the (C, D) sums for one ``CenterBank.step``.
    """
    u = np.asarray(u, dtype=float)
    gated = np.where(w >= bank.occupancy_threshold, w, 0.0)
    prod, n = over_frames(gated, u)
    s = n[..., None] * centers - prod
    N, r, D = math.prod(n.shape[:-1]), n.shape[-1], bank.dim
    sums = np.zeros((N, bank.num_classes + 1, D))
    np.add.at(sums, (np.arange(N)[:, None], np.reshape(labels, (N, r))), s.reshape(N, r, D))
    return np.add.accumulate(sums[:, 1:], axis=0)[-1]
