"""A small trainable network with hand-written backpropagation.

The stack is a few tanh layers (the last one optionally a simple tanh
recurrence), a feature layer u_t of width D, and a linear+softmax output
a_t = W u_t + B.  Training fuses the sequence- or frame-level error
signal through the last layer with the center-loss signal at the feature
layer, steps the weights with Adam, and moves the class centers with
their own momentum rule.  Centers are never differentiated through.

Batched layout.  ``forward_batch`` and ``backward_batch`` run B
sequences at once, and ``forward``/``backward`` are their B=1 cases.
The per-frame tanh recurrence and its reverse run over the whole batch;
forward's other steps run once per run of consecutive equal-length
inputs, backward's once per sequence.  Every product is the one a
single-sequence network runs, on operands with the same strides, so
each sequence's outputs and gradients are bit for bit those of a
network that sees it alone.

* The recurrence works on batch-major (B, T_max, 1, H) buffers, three
  numpy calls per frame for the whole batch, so that a frame of the
  batch is a (B, 1, H) view.  ``prev @ R.T`` and ``d @ R`` are then
  stacked vector-matrix products, which numpy runs as one gemv per
  sequence, each equal bit for bit to the 1-D product.  A (B, H) @ R.T
  runs as one gemm instead, and changed the last bits in 200 of 200
  random trials (H=16, B=8; numpy 2.4 with OpenBLAS 0.3.31 on x86-64).
* Frame 0 skips the product with h_{-1} = 0, which is exactly +0 for
  a finite R, so the equality holds for finite parameters (training
  never steps to non-finite ones: adam_step rejects such gradients).
* Forward keeps the frames left-aligned.  Backward keeps them
  right-aligned, so that every sequence's carry starts at exact zero at
  frame T_max - 1; the tanh slope is 0 on padding frames, so the carry
  dies out there instead of growing.  Each sequence's activations and
  gradients are (T_b, H) views into the buffers, laid out as a
  per-sequence array would be.
* Rows of different sequences never share one 2-D product, because
  OpenBLAS picks its kernel by the row count: stacking the rows of 8
  sequences into one ``h @ W.T`` changed the bits in 200 of 200 trials
  at inner dimension 32 (the second layer of a [32, 16] network), and
  in none at inner dimension 8.
* Equal-length runs.  G consecutive inputs of length T run as one
  (G, T, F) array, each layer as one stacked (G, T, F) @ (F, H)
  product.  numpy runs a stacked product as one gemm per (T, F) slice,
  with T rows and the slice's strides, so each input keeps its bits
  (300 of 300 random trials, G 2-8, T 1-29, F and H up to 32); the
  elementwise steps and the softmax, which reduces over the last axis,
  act row by row.  A run of one runs the 2-D code.  Length-sorted
  scoring groups and a gradient check's copies of one input form long
  runs; training batches are ragged and rarely do.
* Per-input parameters.  A parameter array with a leading axis of B
  gives input b the parameters [b]: ``ModelState.unflatten`` makes such
  views of a (B, n) array of flat vectors.  Weights enter as
  ``W.swapaxes(-1, -2)``, a stack of W[b].T, biases with an axis for
  the frames, and the recurrence multiplies by a stack of R[b].T.
  Each W[b] is a contiguous row slice, strided like the copy that
  ``set_flat_params`` makes, so every product is the one the network
  runs after loading point b.  backward_batch takes shared parameters
  only.
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
    forward cache used by backward()."""

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
    xs = [np.asarray(x, dtype=float) for x in xs]
    per_input = {k for k, p in params.items() if p.ndim > _shared_ndim(k)}
    # the weight matrices enter transposed: W.T, or a stack of W[b].T
    operands = {k: p.swapaxes(-1, -2) if _shared_ndim(k) == 2 else p
                for k, p in params.items()}
    frames = None
    if spec.recurrent:
        frames = np.zeros((len(xs), max(map(len, xs), default=0), 1,
                           spec.hidden[-1]))
    runs = []
    for lo, hi in _equal_length_runs(xs):
        p = _run_params(operands, per_input, lo, hi) if per_input else operands
        rows = lo if hi - lo == 1 else slice(lo, hi)
        h = xs[lo] if hi - lo == 1 else np.stack(xs[lo:hi])
        layers = []
        for i in range(n_plain):
            h = np.tanh(h @ p["W%d" % i] + p["b%d" % i])
            layers.append(h)
        if frames is not None:
            # W h + b of the recurrent layer; _recurrence makes it h_t
            layers.append(np.add(h @ p["W%d" % top], p["b%d" % top],
                                 out=frames[rows, :len(xs[lo]), 0]))
        runs.append((lo, hi, p, layers))
    if frames is not None:
        _recurrence(frames, params["R"])
    out, caches = [], []
    for lo, hi, p, layers in runs:
        u = layers[-1]
        a = u @ p["W"] + p["B"]
        y = softmax(a)
        if hi - lo == 1:
            out.append((u, a, y))
            caches.append([xs[lo]] + layers)
            continue
        for g in range(hi - lo):
            out.append((u[g], a[g], y[g]))
            caches.append([xs[lo + g]] + [h[g] for h in layers])
    state.cache = caches
    return out


def _shared_ndim(name):
    """Dimensions of a parameter that all inputs share: 1 for the biases
    (b0, b1, ..., B), 2 for the weight matrices."""
    return 1 if name[0] in "bB" else 2


def _equal_length_runs(xs):
    """(lo, hi) bounds of the maximal runs of consecutive inputs of equal
    length, in order."""
    runs, lo = [], 0
    for hi in range(1, len(xs) + 1):
        if hi == len(xs) or len(xs[hi]) != len(xs[lo]):
            runs.append((lo, hi))
            lo = hi
    return runs


def _run_params(params, per_input, lo, hi):
    """The parameters of inputs lo..hi-1: a shared array as it is; a
    per-input one as input lo's own (a run of one) or as the run's slice,
    a bias with an axis inserted for the frames."""
    if hi - lo == 1:
        return {k: p[lo] if k in per_input else p for k, p in params.items()}
    run = dict(params)
    for k in per_input:
        p = params[k][lo:hi]
        run[k] = p if p.ndim == 3 else p[:, None]
    return run


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


def _recurrence_backward(R, hs, gs):
    """Reverse of the recurrence: dz_t = (g_t + dz_{t+1} R) * (1 - h_t^2)
    from dz_T = 0, for B output sequences h and signals g (T_b, H);
    returns the B dz as (T_b, H) views."""
    B, H = len(hs), R.shape[0]
    Ts = [len(h) for h in hs]
    T = max(Ts, default=0)
    dz = np.zeros((B, T, 1, H))
    slope = np.zeros((B, T, 1, H))         # 0 on padding: the carry dies there
    for db, sb, g, h, Tb in zip(dz, slope, gs, hs, Ts):
        db[T - Tb:, 0] = g
        sb[T - Tb:, 0] = 1.0 - h ** 2
    carry = np.zeros((B, 1, H))
    # frame t of every sequence holds g_t and becomes dz_t in place
    for dt, st in zip(dz[:, ::-1].swapaxes(0, 1), slope[:, ::-1].swapaxes(0, 1)):
        dt += carry
        dt *= st
        carry = dt @ R
    return [db[T - Tb:, 0] for db, Tb in zip(dz, Ts)]


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
    caches = state.cache
    if not len(caches) == len(deltas_ml) == len(deltas_fused):
        raise ValueError("%d cached sequences, %d and %d error signals"
                         % (len(caches), len(deltas_ml), len(deltas_fused)))
    top = len(spec.hidden) - 1
    gs = [np.asarray(g, dtype=float) for g in deltas_fused]
    if spec.recurrent:
        R = params["R"]
        dzs = _recurrence_backward(R, [hs[-1] for hs in caches], gs)
    grads = []
    for b, (d, hs) in enumerate(zip(deltas_ml, caches)):
        grad = {"W": d.T @ hs[-1], "B": d.sum(axis=0)}
        g = gs[b]
        for i in range(top, -1, -1):
            h = hs[i + 1]
            if spec.recurrent and i == top:
                dz = dzs[b]
                grad["R"] = dz[1:].T @ h[:-1] if len(h) > 1 else np.zeros_like(R)
            else:
                dz = g * (1.0 - h ** 2)
            grad["W%d" % i] = dz.T @ hs[i]
            grad["b%d" % i] = dz.sum(axis=0)
            if i:
                g = dz @ params["W%d" % i]
        grads.append(grad)
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
