"""Loss functions, their error signals, and the class-center bank.

One center-loss path serves both fusion modes.  The expected center
loss (ECL) weights the squared distance from each frame's feature u_t
to the center of each label position i by a weight w(t, i):

* sequence mode (``tmf``) uses the alignment occupancy of the non-blank
  positions of the blank-extended labeling, so no frame labels are
  needed;
* framewise mode (``fmf``) uses the one-hot target of the frame labels
  over the classes 1..C, which makes the ECL the classic center loss
  (Wen et al., ECCV 2016).

``ecl_terms``, ``ecl``, ``ecl_grad_features`` and ``center_stats`` take
the weights w (..., T, r), the centers (..., r, D) of their r positions
and (``center_stats``) the positions' class labels, for one sequence or
with leading batch axes: a batch's padded (B, T_max, .) stacks, with
zero weight on the padding.  The terms keep each sequence's bits; the
ECL total, summed over a padded (T_max, r_max) block, and w @ c over
padded positions can move the last bit.  The center update differs
between the modes only in its normalization:
the framewise rule divides each class's sum by 1 + its weight, the
occupancy rule does not (``CenterBank.step``).

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
        # occupancy and one-hot weights lie in [0, 1]: a threshold above 1
        # would gate off every center update
        if not 0.0 <= occupancy_threshold <= 1.0:
            raise ValueError("occupancy_threshold: must lie in [0, 1], got %r"
                             % (occupancy_threshold,))
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

    def copy(self):
        out = CenterBank(self.num_classes, self.dim, self.momentum,
                         self.occupancy_threshold)
        out.centers = self.centers.copy()
        return out

    def step(self, sums, weights=None):
        """Return a bank moved by -momentum * sums, the (C, D) center-update
        sums of ``center_stats``.  With the (C,) weights given, each
        class's sum is first divided by 1 + its weight, the framewise
        rule:

            c_j <- c_j - momentum * (sum over frames labeled j of c_j - u_t)
                                    / (1 + number of frames labeled j)
        """
        if weights is not None:
            sums = sums / (1.0 + weights)[:, None]
        out = self.copy()
        out.centers = self.centers - self.momentum * sums
        return out


def cross_entropy(y, cols, Ts):
    """Negative log probability of the labeled column, summed over each
    sequence's frames, for a padded (B, T_max, K) stack of posteriors y,
    the 0-based columns cols of its sequences back to back (an
    UnknownClass outside the K classes) and their lengths Ts.  Returns
    the B sums, each over its own contiguous slice of one gathered NLL,
    so each keeps the bits of its sequence alone."""
    y, cols = np.asarray(y, dtype=float), np.asarray(cols, dtype=np.intp)
    if len(cols) and (cols.min() < 0 or cols.max() >= y.shape[-1]):
        raise UnknownClass("frame label outside 1..%d" % y.shape[-1])
    b, t = np.nonzero(np.arange(y.shape[1]) < np.asarray(Ts)[:, None])
    nll = -np.log(y[b, t, cols])
    ends = np.cumsum(Ts, dtype=int)
    return [float(nll[e - Tb:e].sum()) for Tb, e in zip(Ts, ends)]


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


def ecl_grad_features(u, w, centers, product=np.matmul):
    """Per-frame feature error signal of the ECL (without the factor 2),
    delta(t) = sum_i w(t, i) * (u_t - c_i), with arguments shaped as for
    ``ecl_terms``.  ``product(w, centers)`` is w @ centers; a padded
    batch may pass one that keeps each sequence's bits."""
    u = np.asarray(u, dtype=float)
    if centers.shape[-2] == 0:
        return np.zeros_like(u)
    return w.sum(axis=-1)[..., None] * u - product(w, centers)


def fuse_feature_grad(delta_ml, W, delta_ecl, lam, product=np.matmul):
    """Fused error signal entering the second-last layer,
    delta = product(delta_ml, W) + lam * delta_ecl: per frame,
    W^T delta_ml(t) plus the weighted center signal."""
    base = product(np.asarray(delta_ml, dtype=float), np.asarray(W, dtype=float))
    if lam == 0.0:
        return base
    return base + lam * np.asarray(delta_ecl, dtype=float)


def _over_frames(g, u):
    """g^T u and g summed over the frames, per sequence."""
    return g.swapaxes(-1, -2) @ u, g.sum(axis=-2)


def center_stats(bank, u, w, labels, centers, over_frames=_over_frames):
    """Center-update statistics, threshold-gated per term, summed over
    the sequences of the leading batch axes, if any.

    For class j, over the positions i with labels[i] = j and the frames t
    with w(t, i) >= the bank's threshold:

        weights[j - 1] = sum of w(t, i)
        sums[j - 1]    = sum of w(t, i) * (c_j - u_t)

    u, w and centers are shaped as for ``ecl_terms``, labels (..., r);
    label 0 pads a shorter labeling and adds nothing.  Each (sequence,
    position) takes one gated w^T u product and weight sum over the
    frames, ``over_frames(gated w, u)`` (a padded batch may pass one
    that keeps each sequence's bits); then each sequence's positions add
    into its classes in position order, and the sequences into the
    totals in sequence order.

    Returns the (C,) weights and (C, D) sums for one ``CenterBank.step``.
    """
    u = np.asarray(u, dtype=float)
    gated = np.where(w >= bank.occupancy_threshold, w, 0.0)
    prod, n = over_frames(gated, u)
    s = n[..., None] * centers - prod
    labels = np.broadcast_to(labels, n.shape)
    N, r, C, D = math.prod(n.shape[:-1]), n.shape[-1], bank.num_classes, bank.dim
    weights, sums = np.zeros((N, C + 1)), np.zeros((N, C + 1, D))
    at = (np.arange(N)[:, None], labels.reshape(N, r))
    np.add.at(weights, at, n.reshape(N, r))
    np.add.at(sums, at, s.reshape(N, r, D))
    return (np.add.accumulate(weights[:, 1:], axis=0)[-1],
            np.add.accumulate(sums[:, 1:], axis=0)[-1])
