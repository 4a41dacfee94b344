"""A small trainable network with hand-written backpropagation.

The stack is a few tanh layers (the last one optionally a simple tanh
recurrence), a feature layer u_t of width D, and a linear+softmax output
a_t = W u_t + B.  Training fuses the sequence- or frame-level error
signal through the last layer with the center-loss signal at the feature
layer, steps the weights with Adam, and moves the class centers with
their own momentum rule.  Centers are never differentiated through.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ctc, losses


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
        pos = 0
        for k in self.param_names():
            n = self.params[k].size
            self.params[k] = flat[pos:pos + n].reshape(self.params[k].shape).copy()
            pos += n


def softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(state, x):
    """Run the network on a (T, F) input.

    Returns (u, a, y): the feature sequence, the logits, and the softmax
    posteriors.  Activations are cached on the state for backward().
    """
    spec = state.spec
    x = np.asarray(x, dtype=float)
    hs = [x]
    h = x
    n_layers = len(spec.hidden)
    for i in range(n_layers):
        z = h @ state.params["W%d" % i].T + state.params["b%d" % i]
        if spec.recurrent and i == n_layers - 1:
            R = state.params["R"]
            h = np.empty_like(z)
            prev = np.zeros(spec.hidden[-1])
            for t in range(len(z)):
                prev = np.tanh(z[t] + prev @ R.T)
                h[t] = prev
        else:
            h = np.tanh(z)
        hs.append(h)
    u = hs[-1]
    a = u @ state.params["W"].T + state.params["B"]
    y = softmax(a)
    state.cache = hs
    return u, a, y


def backward(state, delta_ml, delta_fused):
    """Chain the two error signals into parameter gradients.

    delta_ml (T, K) is the gradient at the logits and produces the
    last-layer gradients directly; delta_fused (T, D) is the full signal
    at the feature layer and is propagated through the hidden stack.
    """
    if state.cache is None:
        raise MissingForwardCache("run forward() before backward()")
    spec = state.spec
    hs = state.cache
    u = hs[-1]
    grads = {
        "W": delta_ml.T @ u,
        "B": delta_ml.sum(axis=0),
    }
    g = np.asarray(delta_fused, dtype=float)
    n_layers = len(spec.hidden)
    for i in range(n_layers - 1, -1, -1):
        h = hs[i + 1]
        below = hs[i]
        if spec.recurrent and i == n_layers - 1:
            R = state.params["R"]
            dz = np.empty_like(h)
            carry = np.zeros(h.shape[1])
            for t in range(len(h) - 1, -1, -1):
                dz[t] = (g[t] + carry) * (1.0 - h[t] ** 2)
                carry = dz[t] @ R
            grads["R"] = dz[1:].T @ h[:-1] if len(h) > 1 else np.zeros_like(R)
        else:
            dz = g * (1.0 - h ** 2)
        grads["W%d" % i] = dz.T @ below
        grads["b%d" % i] = dz.sum(axis=0)
        g = dz @ state.params["W%d" % i]
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
    eval_interval: int = 200
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
    """Loss, gradients, and center-update pieces for one sequence, from
    its features u, posteriors y and (sequence modes) lattice tables;
    state.cache must hold the sequence's own forward activations."""
    if mode in ("ctc", "tmf"):
        delta_ml = ctc.ctc_grad_logits(tables, y)
        loss = -tables.log_seq_prob
        if mode == "tmf":
            gamma = ctc.occupancy(tables, y, cfg.occupancy_mode)
            zp = tables.zp
            loss = loss + cfg.lam * losses.ecl(u, gamma, zp, bank)
            delta_ecl = losses.ecl_grad_features(u, gamma, zp, bank)
            delta_fused = losses.fuse_feature_grad(delta_ml, state.params["W"], delta_ecl, cfg)
            center_piece = losses.center_delta_tmf(bank, u, gamma, zp)
        else:
            delta_fused = delta_ml @ state.params["W"]
            center_piece = None
    else:
        cols = np.asarray(sample.framewise, dtype=np.intp) - 1
        delta_ml = y - _onehot(cols, y.shape[1])
        loss = losses.cross_entropy(y, cols)
        if mode == "fmf":
            loss = loss + cfg.lam * losses.center_loss(u, sample.framewise, bank)
            delta_cl = losses.cl_grad_features(u, sample.framewise, bank)
            delta_fused = losses.fuse_feature_grad(delta_ml, state.params["W"], delta_cl, cfg)
            center_piece = losses.center_delta_framewise(bank, u, sample.framewise)
        else:
            delta_fused = delta_ml @ state.params["W"]
            center_piece = None
    grads = backward(state, delta_ml, delta_fused)
    return loss, grads, center_piece


def _batch_signals(state, batch, mode, cfg, bank):
    """Yield _sequence_signals for each sequence of a batch, in order.

    The network runs on every sequence first, so that in sequence modes
    one forward_backward_batch call covers the whole batch.  Parameters
    and centers do not change within a batch, so the result is the same
    as handling the sequences one at a time.
    """
    outputs = []
    for sample in batch:
        u, _, y = forward(state, sample.x)
        outputs.append((u, y, state.cache))
    if mode in ("ctc", "tmf"):
        lattices = ctc.forward_backward_batch([y for _, y, _ in outputs],
                                              [s.collapsed for s in batch])
    else:
        lattices = [None] * len(batch)
    for sample, (u, y, cache), tables in zip(batch, outputs, lattices):
        state.cache = cache
        yield _sequence_signals(state, sample, u, y, tables, mode, cfg, bank)


def _apply_center_updates(bank, pieces, mode):
    if mode == "tmf":
        total = {}
        for piece in pieces:
            for j, d in piece.items():
                total[j] = total.get(j, 0.0) + d
        return bank.step(total)
    sums, counts = {}, {}
    for piece_sums, piece_counts in pieces:
        for j in piece_sums:
            sums[j] = sums.get(j, 0.0) + piece_sums[j]
            counts[j] = counts.get(j, 0) + piece_counts[j]
    deltas = {j: sums[j] / (1.0 + counts[j]) for j in sums}
    return bank.step(deltas)


def validation_score(state, samples, mode):
    """Mean per-sequence log likelihood (sequence modes) or mean frame
    log probability (framewise modes); higher is better."""
    ys = [forward(state, sample.x)[2] for sample in samples]
    total = 0.0
    if mode in ("ctc", "tmf"):
        for tables in ctc.forward_backward_batch(ys, [s.collapsed for s in samples]):
            total += tables.log_seq_prob
        return total / len(samples)
    frames = 0
    for sample, y in zip(samples, ys):
        cols = np.asarray(sample.framewise, dtype=np.intp) - 1
        total += float(np.log(y[np.arange(len(cols)), cols]).sum())
        frames += len(cols)
    return total / frames


@dataclass
class TrainSettings:
    mode: str = "tmf"                     # ce | fmf | ctc | tmf
    batch_size: int = 8
    max_batches: int = 2000
    eval_interval: int = 200
    halve_after: int = 3
    stop_after: int = 8
    seed: int = 0
    select_best: bool = True              # return the best-validation snapshot
    fusion: losses.FusionConfig = field(default_factory=losses.FusionConfig)


def train(state, bank, train_samples, val_samples, settings, eval_hook=None):
    """Run fused training until early stop or the batch budget.

    Per batch: gradients are summed over the sequences, Adam steps the
    weights once, and the center bank takes one momentum step from the
    accumulated per-sequence sums (fusion modes only).  Every
    eval_interval batches the validation score drives the plateau
    schedule.  Returns (state, bank, rows) where rows hold one metrics
    dict per evaluation; with select_best the returned state and bank
    are rolled back to the evaluation with the best validation score.
    """
    mode = settings.mode
    cfg = settings.fusion
    sched = ScheduleState(halve_after=settings.halve_after,
                          stop_after=settings.stop_after,
                          eval_interval=settings.eval_interval)
    rng = np.random.default_rng(settings.seed)
    rows = []
    fused_mode = mode in ("tmf", "fmf")
    batches_seen = 0
    running_loss, running_n = 0.0, 0
    stop = False
    best_snapshot = None
    while not stop:
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            grad_total = None
            center_pieces = []
            for loss, grads, piece in _batch_signals(state, batch, mode, cfg, bank):
                running_loss += loss
                if grad_total is None:
                    grad_total = grads
                else:
                    for k in grad_total:
                        grad_total[k] += grads[k]
                if piece is not None:
                    center_pieces.append(piece)
            if not np.isfinite(running_loss):
                raise NonFiniteGradient("training loss is not finite")
            adam_step(state, grad_total)
            if fused_mode:
                bank = _apply_center_updates(bank, center_pieces, mode)
            running_n += len(batch)
            batches_seen += 1
            if batches_seen % sched.eval_interval == 0 or batches_seen >= settings.max_batches:
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
                if settings.select_best and score > sched.best:
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
