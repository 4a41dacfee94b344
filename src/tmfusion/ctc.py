"""Log-space CTC dynamic programming.

Conventions used throughout:

* Class 0 is the blank; real labels are 1..K-1.
* A label sequence ``z`` of length r is expanded to the modified sequence
  ``z' = (blank, z[0], blank, z[1], ..., blank)`` of length 2r+1.  Even
  positions are blanks, odd position 2i+1 holds z[i].
* The lattice takes log-probabilities log y (the network's
  ``log_softmax``); a caller that holds probabilities passes np.log(y).
  A zero probability is -inf, a legal input: its cells carry no path.
* ``log_alpha[t, s]`` / ``log_beta[t, s]`` follow the classic inclusive
  convention: both include the emission at frame t, so
  ``alpha_t(s) * beta_t(s) = (mass of paths through (s, t)) * y_t[z'_s]``
  and for every frame ``sum_s alpha_t(s) beta_t(s) / y_t[z'_s] = p(z|x)``.
  The extra emission factor is divided out (its log subtracted) wherever
  a true path mass is needed (gradients).  ``occupancy`` divides each
  frame's row of products by its sum instead: the raw product carries
  the factor p(z|x), and vanishes with it.

Batched layout.  ``forward_backward_batch`` runs both recursions for B
sequences at once, on their padded (B, T_max, K) log-probability stack,
with four numpy calls per frame for the whole batch; ``forward_backward``
is its B=1 case with the batch axis dropped (``AlignmentTables.sequence``),
and ``log_seq_probs`` runs the forward rows alone:

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
  tables and log p(z|x) come out bit for bit as a recursion over that
  sequence alone computes them.  The emissions are copied into the
  table's cells only; the padding frames of log y reach neither the
  table nor the above-0 check: they may hold anything.
* Each frame's contiguous (2B, S_max + 2) block is swept as one flat
  vector, so position s reads s, s - 1 and s - 2 at the frame before
  as the same vector shifted by 0, 1 and 2.  A row's pad columns then
  read the previous row's last two cells; with their -inf emission
  and a -inf skip mask they stay -inf.  A NaN emission would carry
  on through them into the next row, so a table holding a NaN has
  its pad columns reset after every frame: a NaN stays in its own
  sequence, and every other sequence keeps its bits then too.
* ``occupancy`` and ``ctc_grad_logits`` take such stacks too, with the
  tables' mask of live frames.  Elementwise they keep each sequence's
  bits; their row sums over S_max positions (of the occupancy and of
  the CTC posterior) add zeros for the padding, which
  keeps the bits below 8 positions, where numpy sums in order, and can
  move the last bit above, where its pairwise sum regroups.
"""

import numpy as np

BLANK = 0


class InfeasibleLabeling(Exception):
    """The label sequence cannot be aligned to the given number of frames."""


class DegenerateFrame(Exception):
    """Every alignment weight at some frame underflowed to zero."""


def min_frames(labels):
    """Minimum number of frames an alignment for ``labels`` needs.

    Each label takes one frame, plus one mandatory blank frame between
    every adjacent repeated pair.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 1
    return 2 * len(labels) - 1 - np.count_nonzero(labels[1:] != labels[:-1])


class AlignmentTables:
    """Forward/backward tables of one (posterior, label-sequence) pair, or
    of a batch of them stacked on a leading axis: the (..., T, S) log
    alpha and log beta, log p(z|x), z', the emission log-probs
    ``log_y[..., zp]`` they were built from, and the (..., T) mask of
    the frames that belong to a sequence."""

    def __init__(self, log_alpha, log_beta, log_seq_prob, zp, log_emissions, live):
        self.log_alpha = log_alpha
        self.log_beta = log_beta
        self.log_seq_prob = log_seq_prob
        self.zp = zp
        self.log_emissions = log_emissions
        self.live = live

    def sequence(self, b):
        """Sequence b of a batch's tables, cut to its own T_b frames and
        S_b positions: bit for bit what forward_backward gives for its
        pair alone.  Labels are nonzero, so z' pads with blanks only."""
        T, S = np.count_nonzero(self.live[b]), 2 * np.count_nonzero(self.zp[b, 1::2]) + 1
        return AlignmentTables(self.log_alpha[b, :T, :S], self.log_beta[b, :T, :S],
                               float(self.log_seq_prob[b]), self.zp[b, :S],
                               self.log_emissions[b, :T, :S], self.live[b, :T])


def _lattice_inputs(log_y, Ts, labels_list):
    """Validate a batch; return its (B, T_max, S_max) emission log-probs
    (0 on padding frames), the cells of each sequence's lattice, z', the
    skip masks, the lengths T_b and S_b, and the live frames.

    The s-2 -> s transition into odd s = 2i+1 >= 3 is legal exactly
    when z[i] differs from z[i-1]: blanks and repeated labels must pass
    through the intermediate position.  The first bad pair raises what
    forward_backward raises for it alone.
    """
    log_y = np.asarray(log_y, dtype=float)
    B, T, K = log_y.shape
    Ts = np.asarray(Ts, dtype=np.intp)
    labels_list = [np.asarray(z, dtype=np.intp) for z in labels_list]
    if (Ts.shape != (B,) or len(labels_list) != B or np.any(Ts > T)
            or any(z.ndim != 1 for z in labels_list)):
        raise ValueError("expected %d lengths up to %d and %d one-dimensional labelings"
                         % (B, T, B))
    rs = np.array([len(z) for z in labels_list], dtype=np.intp)
    zp = np.full((B, 2 * int(rs.max(initial=0)) + 1), BLANK, dtype=np.intp)
    labels, has = zp[:, 1::2], np.arange(zp.shape[1] // 2) < rs[:, None]
    if B:
        labels[has] = np.concatenate(labels_list)
    changes = labels[:, 1:] != labels[:, :-1]
    need = np.maximum(2 * rs - 1 - (changes & has[:, 1:]).sum(axis=1), 1)
    live = np.arange(T) < Ts[:, None]
    bad = (need > Ts) | (labels >= K).any(axis=1) | (labels < has).any(axis=1)
    # probabilities passed by mistake: a live log-probability above 0
    if (log_y > 0.0).any():
        bad |= ((log_y > 0.0) & live[..., None]).any(axis=(1, 2))
    if bad.any():
        b = int(np.argmax(bad))
        if (log_y[b, :Ts[b]] > 0.0).any():
            raise ValueError("log-probabilities must not exceed 0")
        if (labels[b] >= K).any() or (labels[b] < has[b]).any():
            raise ValueError("labels out of range for %d classes" % K)
        raise InfeasibleLabeling("need at least %d frames for %d labels, got %d"
                                 % (need[b], rs[b], Ts[b]))
    # past a labeling the skip mask may hold anything: those cells are -inf
    skip = np.full(zp.shape, -np.inf)
    skip[:, 3::2][changes] = 0.0
    Ss = 2 * rs + 1
    cells = live[:, :, None] & (np.arange(zp.shape[1]) < Ss[:, None])[:, None, :]
    lyz = log_y[np.arange(B)[:, None, None], np.arange(T)[:, None], zp[:, None, :]]
    lyz[~live] = 0.0
    return lyz, cells, zp, skip, Ts, Ss, live


def _recursion(blocks, cells, skip):
    """The forward recursion over R rows of emission log-probs, given as
    (B, T, S) blocks read on the (B, T, S) cells of their lattices, with
    their (R, S) additive skip masks.  Returns the (T, R, S + 2) table
    of log alpha, position s at column s + 2 behind two pad columns,
    -inf off each lattice.

    Each frame's (R, S + 2) block is swept as one flat vector of
    R * (S + 2) cells: cell i takes from cells i, i - 1 and i - 2 one
    frame earlier, which for a real cell are positions s, s - 1 and
    s - 2 of its own row, so every real cell goes through the same
    operations as in a sweep row by row.  The flat skip mask is -inf
    on the pad columns, so a pad cell adds its -inf emission to what
    it reads of the row before and stays -inf; -inf + NaN is NaN, so
    when the filled table holds a NaN the pad columns are set back to
    -inf after every frame, and the NaN stays in its row."""
    (B, T, S), R = cells.shape, len(skip)
    table = np.full((T, R, S + 2), -np.inf)
    for k, block in enumerate(blocks):
        np.copyto(table[:, k * B:(k + 1) * B, 2:].swapaxes(0, 1), block, where=cells)
    # frame 0 can only be at the first blank or the first label (read
    # backwards: frame T_b - 1 at the last label or the last blank)
    table[:1, :, 4:] = -np.inf
    nan = np.isnan(table).any()
    mask = np.concatenate([np.full((R, 2), -np.inf), skip], axis=1).reshape(-1)[2:]
    acc, tmp = np.empty(mask.shape), np.empty(mask.shape)
    flat = table.reshape(T, R * (S + 2))
    cur, back1, back2 = flat[:, 2:], flat[:, 1:-1], flat[:, :-2]
    for c, p, p1, p2, pad in zip(cur[1:], cur[:-1], back1[:-1], back2[:-1], table[1:, :, :2]):
        np.logaddexp(p, p1, out=acc)
        np.logaddexp(acc, np.add(p2, mask, out=tmp), out=acc)
        c += acc
        if nan:
            pad[...] = -np.inf
    return table


def _last_cells(table, Ts, Ss):
    """log p(z|x) of each sequence from its alpha row: the sum of its
    last two positions at its last frame.  Storage column S_b + 1 holds
    position S_b - 1; for S_b = 1, column S_b is a pad column and
    logaddexp(x, -inf) is exactly x."""
    b = np.arange(len(Ts))
    last = table[Ts - 1, b]
    return np.logaddexp(last[b, Ss + 1], last[b, Ss])


def forward_backward(log_y, labels):
    """Run the CTC forward and backward recursions in log space.

    log_y : (T, K) array of per-frame class log-probabilities, -inf for
        a zero probability.
    labels : label sequence without blanks.

    Returns AlignmentTables of (T, S) arrays; raises InfeasibleLabeling
    when the labels cannot fit into T frames and ValueError when an
    entry of log_y is above 0.  The B=1 case of forward_backward_batch.
    """
    log_y = np.asarray(log_y, dtype=float)
    return forward_backward_batch(log_y[None], [len(log_y)], [labels]).sequence(0)


def forward_backward_batch(log_y, Ts, labels_list):
    """forward_backward over B sequences at once.

    log_y : (B, T_max, K) stack of log-probabilities, sequence b on its
        first T_b frames, none of which is above 0; the padding frames
        are not read.
    Ts : the B lengths T_b.
    labels_list : B label sequences without blanks.

    Returns one AlignmentTables of (B, T_max, S_max) stacks, -inf off
    each sequence, whose sequence b is bit for bit what forward_backward
    gives for its pair alone.  A bad pair raises what forward_backward
    raises for it alone: ValueError for a log-probability above 0 or
    out-of-range labels, or InfeasibleLabeling.
    """
    lyz, cells, zp, skip, Ts, Ss, live = _lattice_inputs(log_y, Ts, labels_list)
    B, T, S = lyz.shape
    # each sequence reversed in time and position; index -k reads a
    # padding cell, which the mask leaves at -inf
    b, back_t, back_s = (np.arange(B)[:, None, None], (Ts[:, None] - 1 - np.arange(T))[..., None],
                         (Ss[:, None] - 1 - np.arange(S))[:, None, :])
    # the reversed mask reads the forward one backwards: position s' of
    # a reversed row takes column S_b + 1 - s' of the forward row
    ahead = np.concatenate([skip, np.full((B, 2), -np.inf)], axis=1)
    skip_back = ahead[np.arange(B)[:, None], Ss[:, None] + 1 - np.arange(S)]
    table = _recursion((lyz, lyz[b, back_t, back_s]), cells, np.concatenate([skip, skip_back]))
    log_alpha = table[:, :B, 2:].swapaxes(0, 1)
    # storage column S_b + 1 - s of a reversed row holds position s
    log_beta = np.where(cells, table[back_t, B + b, back_s + 2], -np.inf)
    return AlignmentTables(log_alpha, log_beta, _last_cells(table, Ts, Ss), zp,
                           lyz, live)


def log_seq_probs(log_y, Ts, labels_list):
    """The (B,) log p(z_b|x_b) of forward_backward_batch, bit for bit,
    from the forward rows alone: the beta rows are never filled."""
    lyz, cells, zp, skip, Ts, Ss, _ = _lattice_inputs(log_y, Ts, labels_list)
    return _last_cells(_recursion((lyz,), cells, skip), Ts, Ss)


def _live_peaks(log_weights, live):
    """The (..., T, 1) row maxima of (..., T, S) log weights on the live
    frames, 0 on padding; a live frame whose row is -inf throughout (no
    path crosses it) raises DegenerateFrame naming it."""
    peak = log_weights.max(axis=-1)
    dead = live & ~np.isfinite(peak)
    if dead.any():
        raise DegenerateFrame("alignment mass vanished at frame %d" % np.argwhere(dead)[0][-1])
    return np.where(live, peak, 0.0)[..., None]


def occupancy(tables):
    """Per-(frame, position) alignment weights from the DP tables, with
    the tables' leading batch axes: each frame's row of alpha_t(s) *
    beta_t(s), divided by its sum so that rows sum to one.  A live frame
    whose row carries no path raises DegenerateFrame, as ctc_grad_logits
    does.  Cells outside the feasible band, and padding, are zero.
    """
    prod = tables.log_alpha + tables.log_beta
    # a padding frame is -inf throughout: its peak 0 and sum 1 keep it 0
    scaled = np.exp(prod - _live_peaks(prod, tables.live))
    return scaled / np.where(tables.live[..., None], scaled.sum(axis=-1, keepdims=True), 1.0)


def ctc_grad_logits(tables, y):
    """Error signal at the pre-softmax layer: y_t^k minus the posterior
    occupancy of class k at frame t, for (..., T, K) probabilities y and
    the tables of their log-probabilities; on padding frames it is y
    itself.

    The occupancy ratio divides the emission factor back out of the
    stored alpha*beta products, so each frame's ratio row is the exact
    distribution over classes of paths through that frame and the result
    is the exact gradient of the negative log likelihood w.r.t. logits.
    """
    y = np.asarray(y, dtype=float)
    live, emitted = tables.live, tables.log_emissions != -np.inf
    # a zero emission's cell (alpha = beta = -inf) carries no mass, and
    # its -inf - -inf is never evaluated
    log_mass = np.subtract(tables.log_alpha + tables.log_beta, tables.log_emissions,
                           out=np.full(emitted.shape, -np.inf), where=emitted)
    mass = np.exp(log_mass - _live_peaks(log_mass, live))
    denom = np.where(live, mass.sum(axis=-1), 1.0)
    ratio = np.zeros(y.shape)
    # adds each position's column into its class in position order, as
    # a loop over positions would
    lead = tuple(i[..., None] for i in np.indices(tables.zp.shape[:-1], sparse=True))
    np.add.at(ratio.swapaxes(-1, -2), lead + (tables.zp,), mass.swapaxes(-1, -2))
    ratio /= denom[..., None]
    return y - ratio
