"""A small trainable network with hand-written backpropagation.

The stack is a few tanh layers (the last one optionally a simple tanh
recurrence), a feature layer u_t of width D, and a linear output
a_t = W u_t + B, which ``log_softmax`` turns into the log-probabilities
log y_t that the lattice and the cross entropy take (no posterior is
logged again) and the probabilities y_t of the error signals and of
decoding.  Training fuses the sequence- or frame-level error signal
through the last layer with the center-loss signal at the feature layer,
steps the weights with Adam, and moves the class centers with their own
momentum rule.  Centers are never differentiated through.

Batched layout.  ``forward_stacks`` runs B sequences at once on padded
(B, T_max, .) stacks, each sequence left-aligned in its slice, and
returns its activation stacks with its outputs; ``backward_batch`` takes
those and the error signals as stacks of that layout, zeroes their
padding frames, and returns (B, ...) gradient stacks; one sequence is
the batch B = 1.  The signal step between them runs on the stacks too,
one call per step for the whole batch: one lattice, the CTC gradient,
the occupancy, the ECL and its signal, and one center_stats
(``_batch_signals``).  Training sums each gradient stack once
(``_batch_step``, the gradient that ``verify.grad_full_suite`` checks).
Only the tanh recurrence and its reverse step frame by frame.  Each
sequence's outputs and gradients are bit for bit those of a network
that sees it alone, by these facts, measured with numpy 2.4 and
OpenBLAS 0.3.31 on x86-64 and kept as canary tests in
tests/test_model.py:

* Rows.  numpy runs a stacked (B, T_max, K) @ (K, D) product as one
  gemm per slice, and the first T_b rows of a slice equal the (T_b, K)
  product for every T_b >= 2 and D >= 2, whatever the padding rows
  hold, with the matrix transposed (the layers) or as stored
  (``delta_ml @ W``, fmf's ``w @ centers``).  A 1-row product, or one
  with D = 1, runs as a gemv whose bits depend on the row count, so
  ``_rows_product`` gives such an input a product of its own.  Rows of
  different sequences never share one 2-D product: OpenBLAS picks its
  kernel by the row count (200 of 200 trials changed bits).
* Weight gradients.  dz is zero on the padding frames, so dz^T @ h and
  dz.sum over T_max frames add only +-0 terms to the T_b-frame ones
  (8400 of 8400 trials).  Where dz or h has width 1, numpy sums over the
  frames as a gemv or pairwise instead, so ``_weight_grads`` then sums
  each input on its own; the batch's sum runs in sequence order too
  (``np.add.accumulate``), since a (B, 1) ``sum(axis=0)`` is pairwise.
* The recurrence runs on time-major (T_max, B, 1, H) buffers, so that a
  frame of the batch is one contiguous (B, 1, H) block.  ``prev @ R.T``
  and ``d @ R`` are stacked vector-matrix products, which numpy runs as
  one gemv per sequence, equal to the 1-D product; a (B, H) @ R.T gemm
  changed the last bits in 200 of 200 trials.  Frame 0 adds 0.0 for
  R h_{-1} = R 0, exactly +0 for the finite R that training keeps
  (adam_step rejects non-finite gradients).  The reverse step keeps
  each sequence right-aligned, so its carry starts at exact zero, and
  the tanh slope is 0 on padding frames, where forward left finite
  values that no output reads.
* Per-input parameters.  A parameter array with a leading axis of B
  gives input b the parameters [b] (``ModelState.unflatten`` makes such
  views of a (B, n) array of flat vectors): weights enter as
  ``W.swapaxes(-1, -2)``, biases get an axis for the frames, and the
  recurrence multiplies by a stack of R[b].T, each the product that the
  network runs with the parameters [b] alone.  backward_batch takes
  shared parameters only.

The signals keep each sequence's bits wherever they are elementwise,
gathered, or a product over frames (``center_stats`` takes its w^T u
products and weight sums from ``_weight_grads``), and the center
statistics add up sequence by sequence.  What regroups are the sums
over positions and classes of a padded stack: the ECL total, the row
sums of the CTC posterior and the normalized occupancy above 8
positions, and tmf's w @ c over the padded positions.  They move the
last bit.  In tests/test_model.py's training runs, each batch's
signals were within 2.2e-16 relative of the sequences taken one at a
time; ce and ctc equal them bit for bit, and so do the fmf runs' end
points.
"""

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ctc, losses


MODES = ("ctc", "tmf", "ce", "fmf")
TEMPORAL_MODES = ("ctc", "tmf")         # the lattice loss, a blank output
FUSION_MODES = ("tmf", "fmf")           # plus the center-loss term


def output_units(mode, num_classes):
    """Output columns of a mode's network over num_classes data classes:
    the temporal modes add the blank."""
    return num_classes + (1 if mode in TEMPORAL_MODES else 0)


class NonFiniteGradient(Exception):
    """A gradient or loss stopped being finite."""


@dataclass
class NetworkSpec:
    input_dim: int
    hidden: list
    num_classes: int            # output columns, blank included in temporal mode
    recurrent: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or not self.hidden:
            raise ValueError("all dimensions must be at least 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("all dimensions must be at least 1")

    @property
    def feature_dim(self):
        return self.hidden[-1]


class ModelState:
    """Network parameters plus Adam moments and learning rate."""

    def __init__(self, spec, seed=0, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.spec = spec
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        rng = np.random.default_rng(seed)
        self.params = {}
        fan_in = spec.input_dim
        for i, h in enumerate(spec.hidden):
            self.params["W%d" % i] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (h, fan_in))
            self.params["b%d" % i] = np.zeros(h)
            fan_in = h
        if spec.recurrent:
            h = spec.hidden[-1]
            self.params["R"] = rng.normal(0.0, 1.0 / np.sqrt(h), (h, h))
        d = spec.feature_dim
        self.params["W"] = rng.normal(0.0, 1.0 / np.sqrt(d), (spec.num_classes, d))
        self.params["B"] = np.zeros(spec.num_classes)
        self.adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def param_names(self):
        return sorted(self.params)

    def flat_params(self):
        return np.concatenate([self.params[k].ravel() for k in self.param_names()])

    def unflatten(self, flat):
        """Parameter views of a (..., n) array of flat parameter vectors:
        each array keeps the leading axes, so the rows of a (P, n) array
        become per-input parameters for forward_stacks, without copies."""
        views, pos = {}, 0
        for k in self.param_names():
            p = self.params[k]
            views[k] = flat[..., pos:pos + p.size].reshape(flat.shape[:-1] + p.shape)
            pos += p.size
        return views


def log_softmax(a):
    """Row log-softmax over the last axis of a (..., K) array, and the
    softmax, from one exp: (log_y, y).  log_y stays finite where y
    underflows to 0."""
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return shifted - np.log(total), e / total


def forward_stacks(state, xs):
    """The network on B inputs of shapes (T_b, F): (Ts, stacks, log_y, y),
    the input lengths, the padded (B, T_max, .) stacks of the inputs
    (zero on padding) and of each layer's activations, the features u
    last, which backward_batch takes, and the stacks of the output
    log-probabilities and probabilities.  A parameter array with a
    leading axis of B gives input b the parameters [b]."""
    spec, params = state.spec, state.params
    top = len(spec.hidden) - 1          # the recurrent layer, if any
    n_plain = top if spec.recurrent else top + 1
    Ts = [len(x) for x in xs]
    # the weight matrices enter transposed: W.T, or a stack of W[b].T;
    # a per-input bias gets an axis for the frames
    operands = {k: p.swapaxes(-1, -2) if k[0] not in "bB"
                else p[:, None] if p.ndim == 2 else p
                for k, p in params.items()}
    h = _padded(xs, Ts, spec.input_dim)
    stacks = [h]
    for i in range(n_plain):
        h = np.tanh(_rows_product(h, operands["W%d" % i], Ts) + operands["b%d" % i])
        stacks.append(h)
    if spec.recurrent:
        # W h + b of the recurrent layer, written time-major; _recurrence
        # makes it h_t, which goes back to the batch-major stack once
        frames = np.empty((h.shape[1], len(Ts), 1, spec.hidden[-1]))
        np.add(_rows_product(h, operands["W%d" % top], Ts), operands["b%d" % top],
               out=frames[:, :, 0].swapaxes(0, 1))
        _recurrence(frames, params["R"])
        h = np.ascontiguousarray(frames[:, :, 0].swapaxes(0, 1))
        stacks.append(h)
    return (Ts, stacks) + log_softmax(_rows_product(h, operands["W"], Ts) + operands["B"])


def _padded(arrays, Ts, width):
    """The (T_b, width) arrays as one left-aligned (B, T_max, width)
    stack, zero on the padding frames.  Any other shape is a ValueError,
    where a copy would broadcast it."""
    out = np.zeros((len(Ts), max(Ts, default=0), width))
    for o, a, Tb in zip(out, arrays, Ts):
        if np.shape(a) != (Tb, width):
            raise ValueError("expected a (%d, %d) array, got shape %s"
                             % (Tb, width, np.shape(a)))
        o[:Tb] = a
    return out


def _rows_product(h, W, Ts):
    """h @ W over a padded (B, T_max, K) stack, W shared or one per
    input.  numpy runs a 1-row product, or one with a single output
    column, as a gemv whose bits depend on the row count, so a length-1
    input, or every input when W has one column, gets its own product."""
    out = h @ W
    for b, Tb in enumerate(Ts):
        if Tb == 1 or W.shape[-1] == 1:
            out[b, :Tb] = h[b, :Tb] @ (W[b] if W.ndim == 3 else W)
    return out


def _weight_grads(dz, h, Ts, bias=True):
    """dz^T @ h and, with bias, dz summed over the frames (else None) of
    padded stacks, one per input.  When dz or h has width 1, numpy sums
    over the frames as a gemv, or pairwise, whose bits depend on the
    frame count, so then each input gets its own product and sum."""
    prod, total = dz.swapaxes(1, 2) @ h, dz.sum(axis=1) if bias else None
    if 1 in (dz.shape[-1], h.shape[-1]):
        for b, Tb in enumerate(Ts):
            prod[b] = dz[b, :Tb].T @ h[b, :Tb]
            if bias:
                total[b] = dz[b, :Tb].sum(axis=0)
    return prod, total


def _recurrence(frames, R):
    """h_t = tanh(z_t + R h_{t-1}) from h_{-1} = 0, in place on the
    time-major (T_max, B, 1, H) frames that hold z_t.  Frame 0 adds the
    scalar 0.0 for R h_{-1}, which like the product turns a z_0 of -0
    into +0."""
    RT = R.swapaxes(-1, -2)
    prev = None
    for ht in frames:
        ht += 0.0 if prev is None else prev @ RT
        prev = np.tanh(ht, out=ht)


def _recurrence_backward(R, hs, gs, Ts):
    """Reverse of the recurrence: dz_t = (g_t + dz_{t+1} R) * (1 - h_t^2)
    from dz_T = 0, for the padded (B, T_max, H) stacks of outputs h and
    signals g of sequences of lengths Ts; returns dz as the same stack,
    zero on padding.  The step runs on time-major (T_max, B, 1, H)
    buffers with each sequence right-aligned."""
    B, T, H = gs.shape
    dz, slope = np.zeros((2, T, B, 1, H))   # slope 0 on padding: the carry dies there
    for b, Tb in enumerate(Ts):
        dz[T - Tb:, b, 0], slope[T - Tb:, b, 0] = gs[b, :Tb], 1.0 - hs[b, :Tb] ** 2
    carry = np.zeros((B, 1, H))
    # frame t of every sequence holds g_t and becomes dz_t in place
    for dt, st in zip(dz[::-1], slope[::-1]):
        dt += carry
        dt *= st
        carry = dt @ R
    out = np.zeros((B, T, H))
    for b, Tb in enumerate(Ts):
        out[b, :Tb] = dz[T - Tb:, b, 0]
    return out


def backward_batch(state, Ts, stacks, delta_ml, delta_fused):
    """Parameter gradients of B sequences from the lengths Ts and the
    activation stacks that forward_stacks returned for them, the
    (B, T_max, K) stack delta_ml, the signal at the logits, and the
    (B, T_max, D) stack delta_fused, the full signal at the feature
    layer, laid out as the forward stacks; what their padding frames
    hold is ignored.  Returns a dict of (B, ...) gradient stacks, slice
    b bit for bit that of sequence b run alone."""
    spec, params = state.spec, state.params
    B, T = stacks[0].shape[:2]
    for delta, width in ((delta_ml, spec.num_classes), (delta_fused, spec.feature_dim)):
        if delta.shape != (B, T, width):
            raise ValueError("expected a (%d, %d, %d) stack, got shape %s"
                             % (B, T, width, delta.shape))
    # zero signal rows on the padding frames make their terms +-0
    live = (np.arange(T) < np.asarray(Ts)[:, None])[..., None]
    delta_ml, delta_fused = np.where(live, delta_ml, 0.0), np.where(live, delta_fused, 0.0)
    top = len(spec.hidden) - 1
    grads, g = dict(zip("WB", _weight_grads(delta_ml, stacks[-1], Ts))), delta_fused
    for i in range(top, -1, -1):
        h = stacks[i + 1]
        if spec.recurrent and i == top:
            dz = _recurrence_backward(params["R"], h, g, Ts)
            grads["R"] = _weight_grads(dz[:, 1:], h[:, :-1], [Tb - 1 for Tb in Ts],
                                       bias=False)[0]
        else:
            dz = g * (1.0 - h ** 2)
        grads["W%d" % i], grads["b%d" % i] = _weight_grads(dz, stacks[i], Ts)
        if i:
            g = _rows_product(dz, params["W%d" % i], Ts)
    return grads


def adam_step(state, grads):
    """Standard bias-corrected Adam update, in place."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for k, g in grads.items():
        m = state.adam_m[k] = state.beta1 * state.adam_m[k] + (1 - state.beta1) * g
        v = state.adam_v[k] = state.beta2 * state.adam_v[k] + (1 - state.beta2) * g * g
        state.params[k] = state.params[k] - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return state


@dataclass
class ScheduleState:
    """Plateau tracking: halve the learning rate after halve_after
    consecutive non-improving evaluations, stop after stop_after."""
    halve_after: int = 3
    stop_after: int = 8
    best: float = -np.inf
    since_improvement: int = 0


def schedule_tick(sched, validation_score):
    """Advance the plateau counters; returns 'continue', 'halve_lr', or
    'early_stop'."""
    if validation_score > sched.best:
        sched.best = validation_score
        sched.since_improvement = 0
        return "continue"
    sched.since_improvement += 1
    if sched.since_improvement >= sched.stop_after:
        return "early_stop"
    if sched.since_improvement % sched.halve_after == 0:
        return "halve_lr"
    return "continue"


def _batch_signals(state, batch, Ts, u, log_y, y, settings, bank):
    """Each sequence's loss, the signal stacks delta_ml and delta_fused,
    and the batch's summed center statistics (fusion modes, else None),
    from the stacks of the features and of the output log-probabilities
    and probabilities, with one call per step for the whole batch.  tmf
    weighs the label positions of each lattice by their occupancy, fmf
    the classes 1..C by the one-hot frame targets."""
    mode, lam = settings.mode, settings.lam
    W, rows = state.params["W"], partial(_rows_product, Ts=Ts)
    if mode in TEMPORAL_MODES:
        tables = ctc.forward_backward_batch(log_y, Ts, [s.collapsed for s in batch])
        seq_losses = -tables.log_seq_prob
        delta_ml = ctc.ctc_grad_logits(tables, y)
        if mode == "tmf":
            w = ctc.occupancy(tables, settings.occupancy_mode)[..., 1::2]
            # label 0 pads the shorter labelings: weight 0, any center
            labels = tables.zp[:, 1::2]
            centers, product = bank.centers[labels - 1], np.matmul
    else:
        cols = np.concatenate([s.framewise for s in batch]).astype(np.intp) - 1
        seq_losses = np.array(losses.cross_entropy(log_y, cols, Ts))
        w = np.zeros(y.shape)
        w[(*np.nonzero(np.arange(y.shape[1]) < np.asarray(Ts)[:, None]), cols)] = 1.0
        delta_ml = y - w
        # the one-hot columns are the classes 1..C, in the bank's order
        labels, centers, product = np.arange(1, bank.num_classes + 1), bank.centers, rows
    if mode not in FUSION_MODES:
        return seq_losses.tolist(), delta_ml, rows(delta_ml, W), None
    seq_losses = seq_losses + lam * losses.ecl(u, w, centers)
    delta_ecl = losses.ecl_grad_features(u, w, centers, product)
    stats = losses.center_stats(bank, u, w, labels, centers,
                                partial(_weight_grads, Ts=Ts))
    return (seq_losses.tolist(), delta_ml,
            losses.fuse_feature_grad(delta_ml, W, delta_ecl, lam, rows), stats)


def _batch_step(state, batch, settings, bank):
    """Each sequence's loss, the gradients summed over the batch, and
    the batch's center statistics (fusion modes), from one
    forward_stacks, one signal step and one backward_batch.  Parameters
    and centers stay fixed within a batch."""
    Ts, stacks, log_y, y = forward_stacks(state, [sample.x for sample in batch])
    seq_losses, delta_ml, delta_fused, stats = _batch_signals(
        state, batch, Ts, stacks[-1], log_y, y, settings, bank)
    grads = backward_batch(state, Ts, stacks, delta_ml, delta_fused)
    # in sequence order: a sum(axis=0) of (B, 1) stacks runs pairwise
    grads = {k: np.add.accumulate(g, axis=0)[-1] for k, g in grads.items()}
    return seq_losses, grads, stats


SCORE_GROUP = 32        # sequences per forward_stacks call when scoring


def score_groups(samples):
    """Indices of samples sorted by length (ties in order), cut into
    consecutive groups of SCORE_GROUP: scoring one group at a time keeps
    both the padding and the memory of the batched calls small."""
    order = sorted(range(len(samples)), key=lambda i: len(samples[i].x))
    return [order[k:k + SCORE_GROUP] for k in range(0, len(order), SCORE_GROUP)]


def validation_score(state, samples, mode):
    """Mean per-sequence log likelihood (sequence modes) or mean frame
    log probability (framewise modes); higher is better.  The terms are
    summed in sample order, whatever order the groups score them in."""
    temporal = mode in TEMPORAL_MODES
    terms = [0.0] * len(samples)
    for group in score_groups(samples):
        members = [samples[i] for i in group]
        Ts, _, log_y, _ = forward_stacks(state, [s.x for s in members])
        if temporal:
            group_terms = ctc.log_seq_probs(log_y, Ts, [s.collapsed for s in members]).tolist()
        else:
            cols = np.concatenate([s.framewise for s in members]).astype(np.intp) - 1
            group_terms = [-nll for nll in losses.cross_entropy(log_y, cols, Ts)]
        for i, term in zip(group, group_terms):
            terms[i] = term
    total = 0.0
    for term in terms:
        total += term
    return total / (len(samples) if temporal
                    else sum(len(sample.framewise) for sample in samples))


@dataclass
class TrainSettings:
    mode: str = "tmf"                     # one of MODES
    batch_size: int = 8
    max_batches: int = 2000
    eval_interval: int = 200
    halve_after: int = 3
    stop_after: int = 8
    seed: int = 0
    lam: float = 1e-3                       # weight of the center-loss term
    occupancy_mode: str = "paper_literal"   # one of ctc.OCCUPANCY_MODES

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode: expected one of %s, got %r" % (MODES, self.mode))
        if self.lam < 0:
            raise ValueError("lam: must be nonnegative")
        if self.occupancy_mode not in ctc.OCCUPANCY_MODES:
            raise ValueError("occupancy_mode: expected one of %s, got %r"
                             % (ctc.OCCUPANCY_MODES, self.occupancy_mode))
        for name in ("batch_size", "max_batches", "eval_interval",
                     "halve_after", "stop_after"):
            if getattr(self, name) < 1:
                raise ValueError("%s: must be at least 1" % name)


def train(state, bank, train_samples, val_samples, settings, eval_hook=None):
    """Run fused training until early stop or the batch budget.

    Per batch: gradients are summed over the sequences, Adam steps the
    weights once, and the center bank takes one momentum step from the
    batch's center statistics (fusion modes only).  Every
    eval_interval batches the validation score ticks the plateau
    schedule; an evaluation is the best so far when its tick leaves
    since_improvement at 0, and eval_hook(state, bank, row, sched) runs
    after the tick.  Returns (state, bank, rows): rows hold one metrics
    dict per evaluation, state and bank the whole training state (Adam
    included) at the best one, or the final state if none beat -inf.
    """
    mode = settings.mode
    sched = ScheduleState(halve_after=settings.halve_after,
                          stop_after=settings.stop_after)
    rng = np.random.default_rng(settings.seed)
    rows = []
    batches_seen = 0
    running_loss, running_n = 0.0, 0
    stop = False
    selected = None
    while not stop:
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            seq_losses, grads, stats = _batch_step(state, batch, settings, bank)
            for loss in seq_losses:
                running_loss += loss
            if not np.isfinite(running_loss):
                raise NonFiniteGradient("training loss is not finite")
            adam_step(state, grads)
            if mode in FUSION_MODES:
                # the framewise rule divides each class's sum by 1 + its weight
                weights, sums = stats
                bank = bank.step(sums, weights if mode == "fmf" else None)
            running_n += len(batch)
            batches_seen += 1
            if batches_seen % settings.eval_interval == 0 or batches_seen >= settings.max_batches:
                score = validation_score(state, val_samples, mode)
                # lr is the rate the batches before this evaluation used
                row = {
                    "eval_index": len(rows),
                    "batches": batches_seen,
                    "lr": state.lr,
                    "train_loss": running_loss / running_n,
                    "val_score": score,
                }
                action = schedule_tick(sched, score)
                if action == "halve_lr":
                    state.lr = state.lr / 2.0
                if sched.since_improvement == 0:
                    # bank.step returns a new bank: this one is never changed
                    selected = copy.deepcopy(state), bank
                if eval_hook is not None:
                    eval_hook(state, bank, row, sched)
                rows.append(row)
                running_loss, running_n = 0.0, 0
                stop = action == "early_stop" or batches_seen >= settings.max_batches
                if stop:
                    break
        if not len(order):
            break
    return (selected or (state, bank)) + (rows,)
