"""A small trainable network with hand-written backpropagation.

The stack is a few tanh layers (the last one optionally a simple tanh
recurrence), a feature layer u_t of width D, and a linear+softmax output
a_t = W u_t + B.  Training fuses the sequence- or frame-level error
signal through the last layer with the center-loss signal at the feature
layer, steps the weights with Adam, and moves the class centers with
their own momentum rule.  Centers are never differentiated through.

Batched layout.  ``forward_batch`` and ``backward_batch`` run B
sequences at once, and ``forward``/``backward`` are their B=1 cases.
Both work on padded (B, T_max, .) stacks, each sequence left-aligned in
its slice: the inputs and backward's signals are zero on the padding
frames, and each layer's activations are what the layer makes of them.
Each plain layer, the recurrent layer's W h + b, the output layer and
the softmax are one stacked product or call per batch, and so are
backward's weight and bias gradients and the dz @ W it passes down
between layers.  Only the tanh recurrence and its reverse step frame by
frame, over the whole batch.  Each sequence's outputs and gradients are
bit for bit those of a network that sees it alone, by these facts,
measured with numpy 2.4 and OpenBLAS 0.3.31 on x86-64 and kept as canary
tests in tests/test_model.py:

* Forward rows.  numpy runs a stacked (B, T_max, F) @ (F, H) product as
  one gemm per (T_max, F) slice, and the first T_b rows of a slice equal
  the (T_b, F) product bit for bit for every T_b >= 2, whatever the
  padding rows hold: T_b 2-40, T_max up to 40, 20 trials each at
  8->16, 16->11, 16->16 and 32->16, with 0 failures.  The elementwise
  steps and the softmax, which reduces over the last axis, act row by
  row.
* One-frame inputs.  numpy runs a 1-row product as a gemv, whose bits
  differ from the same row inside a gemm, so a length-1 input keeps its
  own 1-row product (``_rows_product``).  It is the one per-input branch.
* Weight gradients.  The signals are zero on the padding frames, so is
  every layer's dz there, and dz^T @ h and dz.sum over T_max frames add
  only +-0 terms to the T_b-frame ones: with zero rows appended the
  product equalled the unpadded one in 8400 of 8400 trials, 2-D and
  stacked.
* Rows of different sequences never share one 2-D product, because
  OpenBLAS picks its kernel by the row count: stacking the rows of 8
  sequences into one ``h @ W.T`` changed the bits in 200 of 200 trials
  at inner dimension 32 (the second layer of a [32, 16] network).  The
  stacked product keeps each sequence in a slice of its own.
* The recurrence works on batch-major (B, T_max, 1, H) buffers, three
  numpy calls per frame for the whole batch, so that a frame of the
  batch is a (B, 1, H) view.  ``prev @ R.T`` and ``d @ R`` are then
  stacked vector-matrix products, which numpy runs as one gemv per
  sequence, each equal bit for bit to the 1-D product.  A (B, H) @ R.T
  runs as one gemm instead, and changed the last bits in 200 of 200
  random trials (H=16, B=8).
* Frame 0 skips the product with h_{-1} = 0, which is exactly +0 for
  a finite R, so the equality holds for finite parameters (training
  never steps to non-finite ones: adam_step rejects such gradients).
* Forward runs the padding frames through every layer; they hold finite
  values that no output reads.  The reverse recurrence keeps the frames
  right-aligned, so that every sequence's carry starts at exact zero at
  frame T_max - 1; the tanh slope is 0 on padding frames, so the carry
  dies out there instead of growing.  Its dz goes back to the
  left-aligned stack, zero on padding.  The outputs (u, a, y) of
  sequence b are (T_b, .) views into the stacks.
* Per-input parameters.  A parameter array with a leading axis of B
  gives input b the parameters [b]: ``ModelState.unflatten`` makes such
  views of a (B, n) array of flat vectors.  Weights enter as
  ``W.swapaxes(-1, -2)``, so slice b of a stacked product runs against
  W[b].T; biases get an axis for the frames, and the recurrence
  multiplies by a stack of R[b].T.  Each W[b] is a contiguous row slice,
  strided like the copy that ``set_flat_params`` makes, so every product
  is the one the network runs after loading point b.  backward_batch
  takes shared parameters only.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ctc, losses


MODES = ("ctc", "tmf", "ce", "fmf")
TEMPORAL_MODES = ("ctc", "tmf")         # the lattice loss, a blank output
FUSION_MODES = ("tmf", "fmf")           # plus the center-loss term


def output_units(mode, num_classes):
    """Output columns of a mode's network over num_classes data classes:
    the temporal modes add the blank."""
    return num_classes + (1 if mode in TEMPORAL_MODES else 0)


class MissingForwardCache(Exception):
    """backward() called without a preceding forward()."""


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
    """Network parameters plus Adam moments, learning rate, and the
    forward cache used by backward().

    ``cache`` is (Ts, stacks) from the last forward_batch call: the B
    input lengths, and the padded (B, T_max, .) stacks of the inputs
    (zero on padding) and of each layer's activations, the features u
    last.
    """

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
        self.cache = None

    def param_names(self):
        return sorted(self.params)

    def flat_params(self):
        return np.concatenate([self.params[k].ravel() for k in self.param_names()])

    def set_flat_params(self, flat):
        self.params.update({k: v.copy() for k, v in self.unflatten(flat).items()})

    def unflatten(self, flat):
        """Parameter views of a (..., n) array of flat parameter vectors:
        each array keeps the leading axes, so the rows of a (P, n) array
        become per-input parameters for forward_batch, without copies."""
        views, pos = {}, 0
        for k in self.param_names():
            p = self.params[k]
            views[k] = flat[..., pos:pos + p.size].reshape(flat.shape[:-1] + p.shape)
            pos += p.size
        return views


def softmax(a):
    """Row softmax over the last axis of a (..., K) array."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(state, x):
    """Run the network on a (T, F) input.

    Returns (u, a, y): the feature sequence, the logits, and the softmax
    posteriors.  Activations are cached on the state for backward().
    The B=1 case of forward_batch.
    """
    return forward_batch(state, [x])[0]


def forward_batch(state, xs):
    """forward over B inputs of shapes (T_b, F) at once.

    Returns a list of B (u, a, y) triples, in order, equal bit for bit
    to forward on each input; B = 0 gives [].  A parameter array with a
    leading axis of B gives input b the parameters [b] (backward_batch
    takes shared parameters only).  The activations of all B inputs are
    cached on the state for backward_batch().
    """
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
        # W h + b of the recurrent layer; _recurrence makes it h_t
        frames = np.zeros((len(Ts), h.shape[1], 1, spec.hidden[-1]))
        h = np.add(_rows_product(h, operands["W%d" % top], Ts),
                   operands["b%d" % top], out=frames[:, :, 0])
        _recurrence(frames, params["R"])
        stacks.append(h)
    a = _rows_product(h, operands["W"], Ts) + operands["B"]
    y = softmax(a)
    state.cache = (Ts, stacks)
    return [(h[b, :Tb], a[b, :Tb], y[b, :Tb]) for b, Tb in enumerate(Ts)]


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
    """h @ W over a padded (B, T_max, F) stack, W shared or one per
    input.  A length-1 input gets its own 1-row product, which numpy runs
    as a gemv instead of the stack's gemm."""
    out = h @ W
    for b, Tb in enumerate(Ts):
        if Tb == 1:
            out[b, :1] = h[b, :1] @ (W[b] if W.ndim == 3 else W)
    return out


def _recurrence(frames, R):
    """h_t = tanh(z_t + R h_{t-1}) from h_{-1} = 0, in place on the
    (B, T_max, 1, H) frames that hold z_t, every sequence from frame 0.

    With h_{-1} = 0 the product R h_{-1} is exactly +0 for a finite R,
    so frame 0 adds the scalar 0.0 instead of running it (the addition
    still turns a z_0 of -0 into +0, as the product would).
    """
    RT = R.swapaxes(-1, -2)
    prev = None
    for ht in frames.swapaxes(0, 1):
        ht += 0.0 if prev is None else prev @ RT
        prev = np.tanh(ht, out=ht)


def _recurrence_backward(R, hs, gs, Ts):
    """Reverse of the recurrence: dz_t = (g_t + dz_{t+1} R) * (1 - h_t^2)
    from dz_T = 0, for the padded (B, T_max, H) stacks of outputs h and
    signals g of sequences of lengths Ts; returns dz as the same stack,
    zero on padding."""
    B, T, H = gs.shape
    dz = np.zeros((B, T, 1, H))
    slope = np.zeros((B, T, 1, H))         # 0 on padding: the carry dies there
    for db, sb, g, h, Tb in zip(dz, slope, gs, hs, Ts):
        db[T - Tb:, 0] = g[:Tb]
        sb[T - Tb:, 0] = 1.0 - h[:Tb] ** 2
    carry = np.zeros((B, 1, H))
    # frame t of every sequence holds g_t and becomes dz_t in place
    for dt, st in zip(dz[:, ::-1].swapaxes(0, 1), slope[:, ::-1].swapaxes(0, 1)):
        dt += carry
        dt *= st
        carry = dt @ R
    return _padded([db[T - Tb:, 0] for db, Tb in zip(dz, Ts)], Ts, H)


def backward(state, delta_ml, delta_fused):
    """Chain the two error signals into parameter gradients.

    delta_ml (T, K) is the gradient at the logits and produces the
    last-layer gradients directly; delta_fused (T, D) is the full signal
    at the feature layer and is propagated through the hidden stack.
    The B=1 case of backward_batch.
    """
    return backward_batch(state, [delta_ml], [delta_fused])[0]


def backward_batch(state, deltas_ml, deltas_fused):
    """backward for the B sequences of the last forward_batch call.

    deltas_ml[b] (T_b, K) and deltas_fused[b] (T_b, D) are the signals
    of sequence b.  Returns a list of B gradient dicts, in order, equal
    bit for bit to backward on each sequence.
    """
    if state.cache is None:
        raise MissingForwardCache("run forward() before backward()")
    spec, params = state.spec, state.params
    Ts, stacks = state.cache
    if not len(Ts) == len(deltas_ml) == len(deltas_fused):
        raise ValueError("%d cached sequences, %d and %d error signals"
                         % (len(Ts), len(deltas_ml), len(deltas_fused)))
    top = len(spec.hidden) - 1
    # zero signal rows on the padding frames make their terms +-0
    d = _padded(deltas_ml, Ts, spec.num_classes)
    g = _padded(deltas_fused, Ts, spec.feature_dim)
    grads = {"W": d.swapaxes(1, 2) @ stacks[-1], "B": d.sum(axis=1)}
    for i in range(top, -1, -1):
        h = stacks[i + 1]
        if spec.recurrent and i == top:
            dz = _recurrence_backward(params["R"], h, g, Ts)
            grads["R"] = dz[:, 1:].swapaxes(1, 2) @ h[:, :-1]
        else:
            dz = g * (1.0 - h ** 2)
        grads["W%d" % i] = dz.swapaxes(1, 2) @ stacks[i]
        grads["b%d" % i] = dz.sum(axis=1)
        if i:
            g = _rows_product(dz, params["W%d" % i], Ts)
    return [{k: v[b] for k, v in grads.items()} for b in range(len(Ts))]


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


def _onehot(cols, K):
    out = np.zeros((len(cols), K))
    out[np.arange(len(cols)), cols] = 1.0
    return out


def _sequence_signals(state, sample, u, y, tables, mode, cfg, bank):
    """Loss, error signals (delta_ml, delta_fused) and center statistics
    for one sequence, from its features u, posteriors y and (sequence
    modes) lattice tables.

    Both fusion modes take the one center-loss path: tmf weighs the
    label positions of the lattice by their occupancy, fmf weighs the
    classes 1..C by the one-hot frame target.
    """
    if mode in TEMPORAL_MODES:
        delta_ml = ctc.ctc_grad_logits(tables, y)
        loss = -tables.log_seq_prob
        if mode == "tmf":
            w = ctc.occupancy(tables, y, cfg.occupancy_mode)[:, 1::2]
            labels = tables.zp[1::2]
            centers = bank.gather(labels)
    else:
        cols = np.asarray(sample.framewise, dtype=np.intp) - 1
        if len(cols) and (cols.min() < 0 or cols.max() >= y.shape[1]):
            raise losses.UnknownClass("frame label outside 1..%d" % y.shape[1])
        w = _onehot(cols, y.shape[1])
        delta_ml = y - w
        loss = losses.cross_entropy(y, cols)
        # the one-hot columns are the classes 1..C, in the bank's order
        labels, centers = range(1, bank.num_classes + 1), bank.centers
    W = state.params["W"]
    if mode not in FUSION_MODES:
        return loss, delta_ml, delta_ml @ W, None
    loss = loss + cfg.lam * losses.ecl(u, w, centers)
    delta_ecl = losses.ecl_grad_features(u, w, centers)
    delta_fused = losses.fuse_feature_grad(delta_ml, W, delta_ecl, cfg)
    return loss, delta_ml, delta_fused, losses.center_stats(bank, u, w, labels, centers)


def _batch_signals(state, batch, mode, cfg, bank):
    """(loss, gradients, center statistics) of each sequence of a batch, in
    order.

    One forward_batch, one forward_backward_batch (sequence modes) and
    one backward_batch call cover the whole batch.  Parameters and
    centers do not change within a batch, so the result is the same as
    handling the sequences one at a time.
    """
    outputs = forward_batch(state, [sample.x for sample in batch])
    if mode in TEMPORAL_MODES:
        lattices = ctc.forward_backward_batch([y for _, _, y in outputs],
                                              [s.collapsed for s in batch])
    else:
        lattices = [None] * len(batch)
    signals = [_sequence_signals(state, sample, u, y, tables, mode, cfg, bank)
               for sample, (u, _, y), tables in zip(batch, outputs, lattices)]
    grads = backward_batch(state, [s[1] for s in signals], [s[2] for s in signals])
    return [(loss, g, stats) for (loss, _, _, stats), g in zip(signals, grads)]


def _apply_center_updates(bank, stats, mode):
    """One momentum step from the summed per-sequence center statistics;
    the framewise rule divides each class's sum by 1 + its weight."""
    weights = sum(w for w, _ in stats)
    sums = sum(s for _, s in stats)
    return bank.step(sums, weights if mode == "fmf" else None)


SCORE_GROUP = 32        # sequences per forward_batch call when scoring


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
        ys = [y for _, _, y in forward_batch(state, [s.x for s in members])]
        if temporal:
            lattices = ctc.forward_backward_batch(ys, [s.collapsed for s in members])
            for i, tables in zip(group, lattices):
                terms[i] = tables.log_seq_prob
        else:
            for i, sample, y in zip(group, members, ys):
                terms[i] = -losses.cross_entropy(y, np.asarray(sample.framewise) - 1)
    total = 0.0
    for term in terms:
        total += term
    if temporal:
        return total / len(samples)
    return total / sum(len(sample.framewise) for sample in samples)


@dataclass
class TrainSettings:
    mode: str = "tmf"                     # one of MODES
    batch_size: int = 8
    max_batches: int = 2000
    eval_interval: int = 200
    halve_after: int = 3
    stop_after: int = 8
    seed: int = 0
    fusion: losses.FusionConfig = field(default_factory=losses.FusionConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode: expected one of %s, got %r" % (MODES, self.mode))


def train(state, bank, train_samples, val_samples, settings, eval_hook=None):
    """Run fused training until early stop or the batch budget.

    Per batch: gradients are summed over the sequences, Adam steps the
    weights once, and the center bank takes one momentum step from the
    accumulated per-sequence sums (fusion modes only).  Every
    eval_interval batches the validation score drives the plateau
    schedule.  Returns (state, bank, rows) where rows hold one metrics
    dict per evaluation; the returned state and bank are rolled back to
    the evaluation with the best validation score.
    """
    mode = settings.mode
    cfg = settings.fusion
    sched = ScheduleState(halve_after=settings.halve_after,
                          stop_after=settings.stop_after)
    rng = np.random.default_rng(settings.seed)
    rows = []
    fused_mode = mode in FUSION_MODES
    batches_seen = 0
    running_loss, running_n = 0.0, 0
    stop = False
    best_snapshot = None
    while not stop:
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            grad_total = None
            batch_stats = []
            for loss, grads, stats in _batch_signals(state, batch, mode, cfg, bank):
                running_loss += loss
                if grad_total is None:
                    grad_total = grads
                else:
                    for k in grad_total:
                        grad_total[k] += grads[k]
                if stats is not None:
                    batch_stats.append(stats)
            if not np.isfinite(running_loss):
                raise NonFiniteGradient("training loss is not finite")
            adam_step(state, grad_total)
            if fused_mode:
                bank = _apply_center_updates(bank, batch_stats, mode)
            running_n += len(batch)
            batches_seen += 1
            if batches_seen % settings.eval_interval == 0 or batches_seen >= settings.max_batches:
                score = validation_score(state, val_samples, mode)
                row = {
                    "eval_index": len(rows),
                    "batches": batches_seen,
                    "lr": state.lr,
                    "train_loss": running_loss / running_n,
                    "val_score": score,
                }
                if eval_hook is not None:
                    eval_hook(state, bank, row, sched)
                rows.append(row)
                running_loss, running_n = 0.0, 0
                if score > sched.best:
                    best_snapshot = ({k: v.copy() for k, v in state.params.items()},
                                     bank.copy())
                action = schedule_tick(sched, score)
                if action == "halve_lr":
                    state.lr = state.lr / 2.0
                elif action == "early_stop":
                    stop = True
                if batches_seen >= settings.max_batches:
                    stop = True
                if stop:
                    break
        if not len(order):
            break
    if best_snapshot is not None:
        # rollback covers parameters and centers; optimizer moments stay
        # at their final values (resume goes through saved checkpoints)
        state.params, bank = best_snapshot
        state.cache = None
    return state, bank, rows
