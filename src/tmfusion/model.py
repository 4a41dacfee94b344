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
one call per step for the whole batch (``_batch_signals``).  Each mode's
objective is written once, in ``_alignment``: training, validation
(``sequence_losses``) and ``verify.grad_full_suite``, which checks the
gradient that ``_batch_step`` sums, all score a batch through it.
Only the tanh recurrence and its reverse step frame by frame.  Each
sequence's outputs and gradients are bit for bit those of a network
that sees it alone, by these facts, measured with numpy 2.4 and
OpenBLAS 0.3.31 on x86-64 and kept as canary tests in
tests/test_model.py:

* Rows.  numpy runs a stacked (B, T_max, K) @ (K, D) product as one
  gemm per slice, and the first T_b rows of a slice equal the (T_b, K)
  product for every T_b >= 2 and D >= 2, whatever the padding rows
  hold, with the matrix transposed (the layers) or as stored
  (``delta_ml @ W``).  A 1-row product, or one with D = 1, runs as a
  gemv whose bits depend on the row count, so ``_rows_product`` gives
  such an input a product of its own.  Rows of different sequences
  never share one 2-D product: OpenBLAS picks its kernel by the row
  count (200 of 200 trials changed bits).
* Weight gradients.  dz is zero on the padding frames, so dz^T @ h and
  dz.sum over T_max frames add only +-0 terms to the T_b-frame ones
  (8400 of 8400 trials).  Where dz or h has width 1, numpy sums over the
  frames as a gemv or pairwise instead, so ``_weight_grads`` then sums
  each input on its own; the batch's sum runs in sequence order too
  (row by row over the (B, n) stack of flat gradients), since a (B, 1)
  ``sum(axis=0)`` is pairwise.
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
  (a (B, n) stack assigned to ``ModelState.flat``) gives input b the
  parameters [b]: each stacked product (W[b].T, the biases, R[b].T) is
  the one the network runs with the parameters [b] alone.
  backward_batch takes shared parameters only.

The signals keep each sequence's bits wherever they are elementwise,
gathered, or a product over frames (``center_stats`` takes its w^T u
products and weight sums from ``_weight_grads``; fmf's 0/1 w @ c is
exact), and the center statistics add up sequence by sequence.  What
regroups are the sums over the positions of a padded stack: the ECL
total, the row sums of the CTC posterior and of the occupancy
above 8 positions, and tmf's w @ c.  In tests/test_model.py's training
runs each batch's signals stayed within 2.2e-16 relative of the
sequences taken one at a time: ce and ctc bit for bit, as did fmf's end
points.
"""

import copy
import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from types import MappingProxyType

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
    hidden: list[int]
    num_classes: int            # output columns, blank included in temporal mode
    recurrent: bool = False

    def __post_init__(self):
        for name, widths in (("input_dim", [self.input_dim]), ("hidden", self.hidden),
                             ("num_classes", [self.num_classes])):
            if min(widths, default=0) < 1:      # an empty hidden too
                raise ValueError("%s: must be at least 1" % name)

    @property
    def feature_dim(self):
        return self.hidden[-1]


class ModelState:
    """Network parameters plus Adam moments and learning rate.

    The parameters and the two Adam moments are three flat vectors of
    n entries, each array at its offset in ``param_names()`` order;
    ``params``, ``adam_m`` and ``adam_v`` map each name to a view of its
    vector, read-only as mappings: write into a view
    (``state.params["W"][...] = W``) or load all parameters by assigning
    ``flat`` (the state keeps a copy of a vector).  A deep copy or a
    pickle round trip gets vectors of its own (a shallow copy shares
    them), and its views view those."""

    def __init__(self, spec, seed=0, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        # a decay of 1 leaves Adam's bias correction 1 - beta**t at 0, an
        # eps of inf every parameter where it is
        for name, value, ok, rule in (("seed", seed, seed >= 0, "be nonnegative"),
                                      ("lr", lr, math.isfinite(lr), "be finite"),
                                      ("lr", lr, lr >= 0, "be nonnegative"),
                                      ("beta1", beta1, 0 <= beta1 < 1, "lie in [0, 1)"),
                                      ("beta2", beta2, 0 <= beta2 < 1, "lie in [0, 1)"),
                                      ("eps", eps, math.isfinite(eps), "be finite"),
                                      ("eps", eps, eps > 0, "be positive")):
            if not ok:
                raise ValueError("%s: must %s, got %r" % (name, rule, value))
        self.spec = spec
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        rng = np.random.default_rng(seed)
        params = {}
        fan_in = spec.input_dim
        for i, h in enumerate(spec.hidden):
            params["W%d" % i] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (h, fan_in))
            params["b%d" % i] = np.zeros(h)
            fan_in = h
        if spec.recurrent:
            h = spec.hidden[-1]
            params["R"] = rng.normal(0.0, 1.0 / np.sqrt(h), (h, h))
        d = spec.feature_dim
        params["W"] = rng.normal(0.0, 1.0 / np.sqrt(d), (spec.num_classes, d))
        params["B"] = np.zeros(spec.num_classes)
        # (offset, shape) by name: the offsets in sorted-name order, the
        # names in the order built above, the mappings' and the checkpoint's
        names = sorted(params)
        ends = list(accumulate(params[k].size for k in names))
        start = dict(zip(names, [0] + ends))
        self._layout = {k: (start[k], p.shape) for k, p in params.items()}
        self.size = ends[-1]
        self.flat = np.concatenate([params[k].ravel() for k in names])
        self._m, self._v = np.zeros(self.size), np.zeros(self.size)
        self._bind_moments()

    @property
    def flat(self):
        """The parameter vector, or the (P, n) stack of per-input vectors
        last assigned.  Assigning it loads the parameters: the state keeps
        a copy of a vector, which training writes into, and the array of a
        stack unless it is not a C-contiguous float array; ``params``
        views what it keeps."""
        return self._flat

    @flat.setter
    def flat(self, value):
        value = np.asarray(value, dtype=float)
        if value.ndim not in (1, 2) or value.shape[-1] != self.size:
            raise ValueError("flat: expected %d parameters or a (P, %d) stack, got shape %s"
                             % (self.size, self.size, value.shape))
        self._flat = value.copy() if value.ndim == 1 else np.ascontiguousarray(value)
        self._bind_params()

    params = property(lambda self: self._params, doc="The parameters by name.")
    adam_m = property(lambda self: self._adam_m, doc="Adam's first moment by name.")
    adam_v = property(lambda self: self._adam_v, doc="Adam's second moment by name.")

    def _bind_params(self):
        self._params = MappingProxyType(self.unflatten(self._flat))

    def _bind_moments(self):
        self._adam_m, self._adam_v = (MappingProxyType(self.unflatten(v))
                                      for v in (self._m, self._v))

    def __copy__(self):
        # shares the vectors and their views.  Rebuilding the views through
        # __setstate__ costs 17 µs against 1 µs, and verify.network_loss
        # copies once per grad_full instance: 2% of the check_suites benchmark
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        return other

    def __getstate__(self):
        # the views are rebuilt over the copied vectors, not copied apart
        # from them
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_params", "_adam_m", "_adam_v")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_params()
        self._bind_moments()

    def param_names(self):
        return sorted(self._layout)

    def unflatten(self, flat):
        """Parameter views of a (..., n) array of flat parameter vectors:
        each array keeps the leading axes, so the rows of a (P, n) array
        become per-input parameters for forward_stacks, without copies."""
        if np.shape(flat)[-1:] != (self.size,):
            raise ValueError("expected %d parameters, got shape %s" % (self.size, np.shape(flat)))
        lead = flat.shape[:-1]
        return {k: flat[..., pos:pos + math.prod(shape)].reshape(lead + shape)
                for k, (pos, shape) in self._layout.items()}


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


def adam_step(state, grad):
    """Standard bias-corrected Adam update, in place on the state's three
    flat vectors, from the flat gradient grad in ``param_names()`` order
    (as ``_batch_step`` returns it).  A non-finite gradient raises
    NonFiniteGradient and leaves the state as it was."""
    if np.shape(grad) != state.flat.shape:
        raise ValueError("expected a gradient of shape %s, got %s"
                         % (state.flat.shape, np.shape(grad)))
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    # each array's formulas, written into the vectors: the same bits
    m, v, p = state._m, state._v, state.flat
    m[...] = state.beta1 * m + (1 - state.beta1) * grad
    v[...] = state.beta2 * v + (1 - state.beta2) * grad * grad
    p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
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


def sequence_losses(mode, batch, Ts, log_y):
    """The (B,) CTC (ctc, tmf) or CE (ce, fmf) losses of ``_alignment``
    bit for bit, from the log-probabilities by the forward rows alone."""
    if mode in TEMPORAL_MODES:
        return -ctc.log_seq_probs(log_y, Ts, [s.collapsed for s in batch])
    frames = np.concatenate([s.framewise for s in batch]).astype(np.intp)
    return np.array(losses.cross_entropy(log_y, frames - 1, Ts))


def _alignment(batch, Ts, log_y, y, settings):
    """The one place the modes part: each sequence's CTC or CE loss, the
    signal stack delta_ml at the logits, and the ECL's (w, labels), None
    outside the fusion modes: tmf weighs the label positions of each
    lattice by occupancy, fmf the runs of its frame labels by 0/1."""
    mode, w, labels = settings.mode, None, None
    if mode in TEMPORAL_MODES:
        tables = ctc.forward_backward_batch(log_y, Ts, [s.collapsed for s in batch])
        seq_losses, delta_ml = -tables.log_seq_prob, ctc.ctc_grad_logits(tables, y)
        if mode == "tmf":
            w, labels = ctc.occupancy(tables)[..., 1::2], tables.zp[:, 1::2]
    else:
        frames = np.concatenate([s.framewise for s in batch]).astype(np.intp)
        seq_losses = np.array(losses.cross_entropy(log_y, frames - 1, Ts))
        b, t = np.nonzero(np.arange(y.shape[1]) < np.asarray(Ts)[:, None])
        delta_ml = y.copy()             # y - onehot: 1 off each live target column
        delta_ml[b, t, frames - 1] -= 1.0
        if mode == "fmf":
            w, labels = losses.frame_runs(frames, Ts)
    return seq_losses, delta_ml, w, labels


def _batch_signals(state, batch, Ts, u, log_y, y, settings, bank):
    """Each sequence's loss, CTC or CE plus (lam/2) * ECL in the fusion
    modes (the ECL signal omits its factor 2), the signal stacks delta_ml
    and delta_fused (W^T delta_ml, plus lam times the ECL signal unless
    lam is 0), and the batch's summed center statistics (fusion modes,
    else None), from the stacks of the features and of the output
    log-probabilities and probabilities, one call per step for the whole
    batch."""
    seq_losses, delta_ml, w, labels = _alignment(batch, Ts, log_y, y, settings)
    delta_fused = _rows_product(delta_ml, state.params["W"], Ts)
    if w is None:
        return seq_losses.tolist(), delta_ml, delta_fused, None
    # label 0 pads the shorter labelings: weight 0, any center
    lam, centers = settings.lam, bank.centers[labels - 1]
    seq_losses = seq_losses + 0.5 * lam * losses.ecl(u, w, centers)
    if lam:
        delta_fused = delta_fused + lam * losses.ecl_grad_features(u, w, centers)
    stats = losses.center_stats(bank, u, w, labels, centers, partial(_weight_grads, Ts=Ts))
    return seq_losses.tolist(), delta_ml, delta_fused, stats


def _batch_step(state, batch, settings, bank):
    """Each sequence's loss, the flat gradient summed over the batch (in
    ``param_names()`` order, which ``adam_step`` takes), and
    the batch's center statistics (fusion modes), from one
    forward_stacks, one signal step and one backward_batch.  Parameters
    and centers stay fixed within a batch."""
    Ts, stacks, log_y, y = forward_stacks(state, [sample.x for sample in batch])
    seq_losses, delta_ml, delta_fused, stats = _batch_signals(
        state, batch, Ts, stacks[-1], log_y, y, settings, bank)
    grads = backward_batch(state, Ts, stacks, delta_ml, delta_fused)
    rows = np.concatenate([grads[k].reshape(len(batch), -1) for k in state.param_names()],
                          axis=1)
    # in sequence order, entry by entry, as adding the sequences one at a time
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return seq_losses, total, stats


SCORE_GROUP = 32        # sequences per forward_stacks call when scoring


def score_groups(samples):
    """Indices of samples sorted by length (ties in order), cut into
    consecutive groups of SCORE_GROUP: scoring one group at a time keeps
    both the padding and the memory of the batched calls small."""
    order = sorted(range(len(samples)), key=lambda i: len(samples[i].x))
    return [order[k:k + SCORE_GROUP] for k in range(0, len(order), SCORE_GROUP)]


def validation_score(state, samples, mode):
    """Mean per-sequence log likelihood (sequence modes) or mean frame
    log probability (framewise modes) by ``sequence_losses``; higher is
    better.  The terms add in sample order, whatever order they score in."""
    terms = [0.0] * len(samples)
    for group in score_groups(samples):
        members = [samples[i] for i in group]
        Ts, _, log_y, _ = forward_stacks(state, [s.x for s in members])
        for i, term in zip(group, (-sequence_losses(mode, members, Ts, log_y)).tolist()):
            terms[i] = term
    total = 0.0
    for term in terms:
        total += term
    return total / (len(samples) if mode in TEMPORAL_MODES
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
    lam: float = 1e-3                     # weight of the center-loss term

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode: expected one of %s, got %r" % (MODES, self.mode))
        if self.lam < 0:
            raise ValueError("lam: must be nonnegative")
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
    rows, batches_seen, stop, selected = [], 0, False, None
    running_loss, running_n = 0.0, 0
    while not stop:
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start:start + settings.batch_size]]
            seq_losses, grad, stats = _batch_step(state, batch, settings, bank)
            for loss in seq_losses:
                running_loss += loss
            if not np.isfinite(running_loss):
                raise NonFiniteGradient("training loss is not finite")
            adam_step(state, grad)
            if mode in FUSION_MODES:
                # the framewise rule divides each class's sum by 1 + its weight
                weights, sums = stats
                bank = bank.step(sums, weights if mode == "fmf" else None)
            running_n += len(batch)
            batches_seen += 1
            if batches_seen % settings.eval_interval == 0 or batches_seen >= settings.max_batches:
                score = validation_score(state, val_samples, mode)
                # lr is the rate the batches before this evaluation used
                row = {"eval_index": len(rows), "batches": batches_seen, "lr": state.lr,
                       "train_loss": running_loss / running_n, "val_score": score}
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
