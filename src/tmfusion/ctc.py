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

Batched layout.  ``forward_backward_batch`` runs the recursions for B
sequences at once, one numpy step per frame for the whole batch, and
``forward_backward`` is its B=1 case:

* The tables are (T_max, B, S_max + 2) arrays in log space.  Every cell
  that belongs to no sequence holds -inf: frames past T_b, positions past
  S_b, and two pad columns per row standing in for positions -2 and -1
  (alpha) or S and S+1 (beta).  The skip rule is an additive 0/-inf mask.
  Since ``logaddexp(x, -inf)`` is exactly x, padding never changes a real
  cell, and each sequence's tables come out bit for bit as a recursion
  over that sequence alone computes them.
* alpha keeps the frames left-aligned.  beta keeps them right-aligned, so
  that each sequence's beta is seeded at its own last frame T_b - 1,
  which is row T_max - 1 of the table for every sequence.
* Each AlignmentTables holds (T_b, S_b) views into the shared tables.
  Everything after the lattice (occupancy, gradients, the expected
  center loss) and the network before it stay per-sequence: a reduction
  over a padded axis can regroup numpy's pairwise sums, and a batched
  tanh recurrence turns matrix-vector products into matrix-matrix ones;
  either can change the last bit of the result.
"""

import numpy as np

BLANK = 0


class InfeasibleLabeling(Exception):
    """The label sequence cannot be aligned to the given number of frames."""


class DegenerateFrame(Exception):
    """Every alignment weight at some frame underflowed to zero."""


class NonPositivePosterior(ValueError):
    """A posterior entry is zero or negative, so its log is not finite."""


def extend_with_blanks(labels):
    """Interleave blanks around and between the labels.

    ``[a, b]`` becomes ``[0, a, 0, b, 0]``; the empty sequence becomes
    ``[0]``.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if (labels == BLANK).any():
        raise ValueError("labels must not contain the blank index 0")
    zp = np.full(2 * len(labels) + 1, BLANK, dtype=np.intp)
    zp[1::2] = labels
    return zp


def min_frames(labels):
    """Minimum number of frames an alignment for ``labels`` needs.

    Each label takes one frame, plus one mandatory blank frame between
    every adjacent repeated pair.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 1
    repeats = np.count_nonzero(labels[1:] == labels[:-1])
    return len(labels) + repeats


class AlignmentTables:
    """Forward/backward tables for one (posterior, label-sequence) pair."""

    def __init__(self, log_alpha, log_beta, log_seq_prob, zp):
        self.log_alpha = log_alpha
        self.log_beta = log_beta
        self.log_seq_prob = log_seq_prob
        self.zp = zp


def _emissions(y, labels):
    """Validate one pair; return its (T, S) emission log-probs, z', and
    its additive skip mask.

    The mask covers positions 0..S+1 (two trailing pad columns): 0 where
    the s-2 -> s transition is legal, -inf elsewhere.  Legal when z'_s is
    a label that differs from z'_{s-2}; blanks and repeated labels must
    pass through the intermediate position.
    """
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    if (y <= 0.0).any():
        raise NonPositivePosterior("posterior entries must be strictly positive")
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) and (labels.min() < 1 or labels.max() >= K):
        raise ValueError("labels out of range for %d classes" % K)
    if min_frames(labels) > T:
        raise InfeasibleLabeling(
            "need at least %d frames for %d labels, got %d"
            % (min_frames(labels), len(labels), T)
        )
    zp = extend_with_blanks(labels)
    skip = np.full(len(zp) + 2, -np.inf)
    # odd s >= 3 holds z[(s-1)/2] and z'_{s-2} the label before it
    skip[3:len(zp):2][labels[1:] != labels[:-1]] = 0.0
    return np.log(y)[:, zp], zp, skip


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
    Ts = [len(lyz) for lyz, _, _ in pairs]
    Ss = [len(zp) for _, zp, _ in pairs]
    T, S = max(Ts), max(Ss)
    neg = -np.inf
    # Each table starts out holding the emission log-probs and is turned
    # into alpha (beta) in place, one frame at a time (emission + acc is
    # acc + emission bit for bit: addition commutes).  alpha has two
    # leading -inf columns (position s sits at column s+2) and its frames
    # left-aligned; beta has two trailing -inf columns and its frames
    # right-aligned, so that every sequence's beta starts at frame T-1.
    alpha = np.full((T, B, S + 2), neg)
    beta = np.full((T, B, S + 2), neg)
    skip = np.full((B, S + 2), neg)
    for b, (lyz, _, mask) in enumerate(pairs):
        Tb, Sb = lyz.shape
        alpha[:Tb, b, 2:Sb + 2] = lyz
        beta[T - Tb:, b, :Sb] = lyz
        skip[b, :Sb + 2] = mask
    acc = np.empty((B, S))
    tmp = np.empty((B, S))

    # frame 0 can only be at the first blank or the first label
    alpha[0, :, 4:] = neg
    cur, back1, back2 = alpha[:, :, 2:], alpha[:, :, 1:-1], alpha[:, :, :-2]
    skip_a = skip[:, :S]
    for c, p, p1, p2 in zip(cur[1:], cur[:-1], back1[:-1], back2[:-1]):
        np.logaddexp(p, p1, out=acc)
        np.logaddexp(acc, np.add(p2, skip_a, out=tmp), out=acc)
        c += acc

    # frame T-1 can only be at the last label or the last blank
    for b, Sb in enumerate(Ss):
        beta[T - 1, b, :max(Sb - 2, 0)] = neg
    cur, ahead1, ahead2 = beta[:, :, :-2], beta[:, :, 1:-1], beta[:, :, 2:]
    skip_b = skip[:, 2:]
    for c, n, n1, n2 in zip(cur[-2::-1], cur[:0:-1], ahead1[:0:-1], ahead2[:0:-1]):
        np.logaddexp(n, n1, out=acc)
        np.logaddexp(acc, np.add(n2, skip_b, out=tmp), out=acc)
        c += acc

    out = []
    for b, ((_, zp, _), Tb, Sb) in enumerate(zip(pairs, Ts, Ss)):
        # storage column Sb + 1 holds position S_b - 1; for S_b = 1,
        # column Sb is a pad column and logaddexp(x, -inf) is exactly x
        last = alpha[Tb - 1, b]
        log_seq_prob = float(np.logaddexp(last[Sb + 1], last[Sb]))
        out.append(AlignmentTables(alpha[:Tb, b, 2:Sb + 2], beta[T - Tb:, b, :Sb],
                                   log_seq_prob, zp))
    return out


def occupancy(tables, y, mode="paper_literal"):
    """Per-(frame, position) alignment weights from the DP tables.

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


def ml_loss(pairs):
    """Negative log likelihood summed over (posterior, labels) pairs."""
    total = 0.0
    for y, labels in pairs:
        total -= forward_backward(y, labels).log_seq_prob
    return total


def ctc_grad_logits(tables, y):
    """Error signal at the pre-softmax layer: y_t^k minus the posterior
    occupancy of class k at frame t.

    The occupancy ratio divides the emission factor back out of the
    stored alpha*beta products, so each frame's ratio row is the exact
    distribution over classes of paths through that frame and the result
    is the exact gradient of the negative log likelihood w.r.t. logits.
    """
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    zp = tables.zp
    log_mass = tables.log_alpha + tables.log_beta - np.log(y)[:, zp]
    peak = log_mass.max(axis=1)
    if np.any(~np.isfinite(peak)):
        t_bad = int(np.flatnonzero(~np.isfinite(peak))[0])
        raise DegenerateFrame("alignment mass vanished at frame %d" % t_bad)
    mass = np.exp(log_mass - peak[:, None])
    denom = mass.sum(axis=1)
    ratio = np.zeros((T, K))
    for s, sym in enumerate(zp):
        ratio[:, sym] += mass[:, s]
    ratio /= denom[:, None]
    return y - ratio
