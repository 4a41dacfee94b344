"""Log-space CTC dynamic programming.

Conventions used throughout:

* Class 0 is the blank; real labels are 1..K-1.
* A label sequence ``z`` of length r is expanded to the modified sequence
  ``z' = (blank, z[0], blank, z[1], ..., blank)`` of length 2r+1.  Even
  positions are blanks, odd position 2i+1 holds z[i].
* ``log_alpha[t, s]`` / ``log_beta[t, s]`` follow the classic inclusive
  convention: both include the emission at frame t, so
  ``alpha_t(s) * beta_t(s) = (mass of paths through (s, t)) * y_t[z'_s]``
  and for every frame ``sum_s alpha_t(s) beta_t(s) / y_t[z'_s] = p(z|x)``.
  The extra emission factor is divided out wherever a true path mass is
  needed (gradients); the raw product is what the occupancy matrix exposes
  in its literal mode.

Batched layout.  ``forward_backward_batch`` runs both recursions for B
sequences at once, four numpy calls per frame for the whole batch, and
``forward_backward`` is its B=1 case:

* One (T_max, 2B, S_max + 2) log-space table.  Rows 0..B-1 hold each
  sequence's emissions log(y_t[z'_s]) and become alpha.  Rows B..2B-1
  hold the same emissions reversed in time and in position.  Read
  backwards, beta's recursion has exactly alpha's form (position s
  takes from s, s+1 and s+2 at the next frame), so the same calls turn
  those rows into beta, reversed.  Frames are left-aligned in every
  row, and position s sits at column s + 2.
* Every cell that belongs to no sequence holds -inf: frames past T_b,
  positions past S_b, and the two pad columns for positions -2 and -1.
  The skip rule is an additive 0/-inf mask per row; a reversed row
  takes the mask of the reversed labels, which is the forward mask of
  labels[1:] != labels[:-1] read backwards.  Since ``logaddexp(x, -inf)``
  is exactly x, padding never changes a real cell, and each sequence's
  tables come out bit for bit as a recursion over that sequence alone
  computes them.
* Each AlignmentTables holds (T_b, S_b) views into the shared table
  (``log_beta`` a view with negative strides) and the emission
  log-probs it was built from, which ``ctc_grad_logits`` divides back
  out instead of taking the log of y again.
* Everything after the lattice (occupancy, the gradient, the expected
  center loss) stays per-sequence.  Those reduce over positions, and a
  row sum over a padded (B, S_max) block regroups numpy's pairwise sum,
  which can change the last bit.
"""

import numpy as np

BLANK = 0


class InfeasibleLabeling(Exception):
    """The label sequence cannot be aligned to the given number of frames."""


class DegenerateFrame(Exception):
    """Every alignment weight at some frame underflowed to zero."""


class NonPositivePosterior(ValueError):
    """A posterior entry is zero or negative, so its log is not finite."""


def _interleave(labels):
    """Blanks around and between the labels: ``[a, b]`` becomes
    ``[0, a, 0, b, 0]`` and the empty sequence ``[0]``."""
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    zp = np.full(2 * len(labels) + 1, BLANK, dtype=np.intp)
    zp[1::2] = labels
    return zp


def min_frames(labels):
    """Minimum number of frames an alignment for ``labels`` needs.

    Each label takes one frame, plus one mandatory blank frame between
    every adjacent repeated pair.
    """
    labels = np.asarray(labels)
    return _min_frames(labels, labels[1:] != labels[:-1])


def _min_frames(labels, changes):
    """min_frames, given ``changes = labels[1:] != labels[:-1]``: of the
    r - 1 adjacent pairs, each one that repeats needs a blank frame."""
    if len(labels) == 0:
        return 1
    return 2 * len(labels) - 1 - np.count_nonzero(changes)


class AlignmentTables:
    """Forward/backward tables for one (posterior, label-sequence) pair,
    with the (T, S) emission log-probs ``log(y)[:, zp]`` they were built
    from."""

    def __init__(self, log_alpha, log_beta, log_seq_prob, zp, log_emissions):
        self.log_alpha = log_alpha
        self.log_beta = log_beta
        self.log_seq_prob = log_seq_prob
        self.zp = zp
        self.log_emissions = log_emissions


def _emissions(y, labels):
    """Validate one pair; return its (T, S) emission log-probs, z', and
    ``labels[1:] != labels[:-1]``.

    That one comparison gives both the frames the labels need and the
    skip rule: the s-2 -> s transition into odd s = 2i+1 >= 3 is legal
    exactly when z[i] differs from z[i-1].  Blanks and repeated labels
    must pass through the intermediate position.
    """
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    if (y <= 0.0).any():
        raise NonPositivePosterior("posterior entries must be strictly positive")
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) and (labels.min() < 1 or labels.max() >= K):
        raise ValueError("labels out of range for %d classes" % K)
    changes = labels[1:] != labels[:-1]
    need = _min_frames(labels, changes)
    if need > T:
        raise InfeasibleLabeling(
            "need at least %d frames for %d labels, got %d" % (need, len(labels), T))
    zp = _interleave(labels)
    return np.log(y)[:, zp], zp, changes


def forward_backward(y, labels):
    """Run the CTC forward and backward recursions in log space.

    y : (T, K) array of per-frame class probabilities, all entries > 0.
    labels : label sequence without blanks.

    Returns AlignmentTables; raises InfeasibleLabeling when the labels
    cannot fit into T frames and NonPositivePosterior (a ValueError) when
    an entry of y is not positive.  The B=1 case of forward_backward_batch.
    """
    return forward_backward_batch([y], [labels])[0]


def forward_backward_batch(ys, labels_list):
    """forward_backward over B (posterior, labels) pairs at once.

    ys : B arrays of shape (T_b, K), all entries > 0.
    labels_list : B label sequences without blanks.

    Returns a list of B AlignmentTables, in order, equal bit for bit to
    forward_backward on each pair; B = 0 gives [].  The pairs are
    validated in order before any recursion runs, so a bad pair raises
    what forward_backward raises for it alone: NonPositivePosterior,
    ValueError for out-of-range labels, or InfeasibleLabeling.
    """
    pairs = [_emissions(y, labels) for y, labels in zip(ys, labels_list, strict=True)]
    if not pairs:
        return []
    B = len(pairs)
    T = max(len(lyz) for lyz, _, _ in pairs)
    S = max(len(zp) for _, zp, _ in pairs)
    neg = -np.inf
    # Row b holds sequence b's emissions, row B + b the same emissions
    # reversed in time and position; the recursion turns them into alpha
    # and into beta read backwards, in place (emission + acc is acc +
    # emission bit for bit: addition commutes).  Position s sits at
    # column s + 2 behind two -inf columns for positions -2 and -1.
    table = np.full((T, 2 * B, S + 2), neg)
    skip = np.full((2 * B, S), neg)
    for b, (lyz, _, changes) in enumerate(pairs):
        Tb, Sb = lyz.shape
        table[:Tb, b, 2:Sb + 2] = lyz
        table[:Tb, B + b, 2:Sb + 2] = lyz[::-1, ::-1]
        # the skip into odd s >= 3 is legal where the label changes
        skip[b, 3:Sb:2][changes] = 0.0
        skip[B + b, 3:Sb:2][changes[::-1]] = 0.0
    acc = np.empty((2 * B, S))
    tmp = np.empty((2 * B, S))

    # frame 0 can only be at the first blank or the first label (read
    # backwards: frame T_b - 1 at the last label or the last blank)
    table[0, :, 4:] = neg
    cur, back1, back2 = table[:, :, 2:], table[:, :, 1:-1], table[:, :, :-2]
    for c, p, p1, p2 in zip(cur[1:], cur[:-1], back1[:-1], back2[:-1]):
        np.logaddexp(p, p1, out=acc)
        np.logaddexp(acc, np.add(p2, skip, out=tmp), out=acc)
        c += acc

    out = []
    for b, (lyz, zp, _) in enumerate(pairs):
        Tb, Sb = lyz.shape
        # storage column Sb + 1 holds position S_b - 1; for S_b = 1,
        # column Sb is a pad column and logaddexp(x, -inf) is exactly x
        last = table[Tb - 1, b]
        log_seq_prob = float(np.logaddexp(last[Sb + 1], last[Sb]))
        out.append(AlignmentTables(table[:Tb, b, 2:Sb + 2],
                                   table[Tb - 1::-1, B + b, Sb + 1:1:-1],
                                   log_seq_prob, zp, lyz))
    return out


OCCUPANCY_MODES = ("paper_literal", "frame_normalized")


def occupancy(tables, mode="paper_literal"):
    """Per-(frame, position) alignment weights from the DP tables, by
    one of OCCUPANCY_MODES.

    mode="paper_literal" returns the raw product alpha_t(s) * beta_t(s);
    mode="frame_normalized" divides each frame's row by its sum so rows
    sum to one.  Cells outside the feasible band are zero either way.
    """
    la, lb = tables.log_alpha, tables.log_beta
    prod = la + lb
    if mode == "paper_literal":
        return np.exp(prod)
    if mode == "frame_normalized":
        m = prod.max(axis=1, keepdims=True)
        scaled = np.exp(prod - m)
        return scaled / scaled.sum(axis=1, keepdims=True)
    raise ValueError("unknown occupancy mode %r" % (mode,))


def ctc_grad_logits(tables, y):
    """Error signal at the pre-softmax layer: y_t^k minus the posterior
    occupancy of class k at frame t.

    The occupancy ratio divides the emission factor back out of the
    stored alpha*beta products, so each frame's ratio row is the exact
    distribution over classes of paths through that frame and the result
    is the exact gradient of the negative log likelihood w.r.t. logits.
    """
    y = np.asarray(y, dtype=float)
    log_mass = tables.log_alpha + tables.log_beta - tables.log_emissions
    peak = log_mass.max(axis=1)
    if np.any(~np.isfinite(peak)):
        t_bad = int(np.flatnonzero(~np.isfinite(peak))[0])
        raise DegenerateFrame("alignment mass vanished at frame %d" % t_bad)
    mass = np.exp(log_mass - peak[:, None])
    denom = mass.sum(axis=1)
    ratio = np.zeros(y.shape)
    # adds each position's column into its class in position order, as
    # a loop over positions would
    np.add.at(ratio.T, tables.zp, mass.T)
    ratio /= denom[:, None]
    return y - ratio
