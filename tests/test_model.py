"""Unit tests for the network, optimizer, schedule, and training loop."""

import copy
import dataclasses
import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmfusion import config, ctc, experiment, losses, model, oracle, synth


TOY_GEN = synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                segment_length=(2, 4),
                                labels_per_sequence=(1, 3), seed=42)


def toy_data(condition="clean", n=60, seed=42, labels=(1, 3)):
    cfg = synth.GeneratorConfig(
        num_classes=2, feature_dim=4, segment_length=(2, 4),
        labels_per_sequence=labels, noise_condition=condition, seed=seed)
    return synth.generate(cfg, n)


# ----------------------------------------------------------------- spec/state

def test_network_spec_validation():
    with pytest.raises(ValueError):
        model.NetworkSpec(0, [4], 3)
    with pytest.raises(ValueError):
        model.NetworkSpec(4, [], 3)
    with pytest.raises(ValueError):
        model.NetworkSpec(4, [4, 0], 3)


def test_feature_dim_is_last_hidden_size():
    spec = model.NetworkSpec(8, [32, 16], 6)
    assert spec.feature_dim == 16


def test_flat_params_round_trip():
    state = model.ModelState(model.NetworkSpec(3, [4], 3, recurrent=True))
    flat = state.flat_params()
    other = model.ModelState(model.NetworkSpec(3, [4], 3, recurrent=True),
                             seed=99)
    other.flat = flat
    for k in state.param_names():
        np.testing.assert_array_equal(state.params[k], other.params[k])
    # the state keeps a copy of a vector: its Adam step leaves the caller's alone
    model.adam_step(other, np.ones(flat.size))
    assert not np.shares_memory(other.flat, flat)
    np.testing.assert_array_equal(flat, state.flat)
    other.flat = flat
    # a vector of another length is refused, naming n and the length given
    n = flat.size
    for bad in (np.zeros(n + 5), np.zeros(n - 1), np.zeros((2, n + 5))):
        message = r"expected %d parameters.*got shape %s" % (n, re.escape(str(bad.shape)))
        with pytest.raises(ValueError, match=message):
            state.unflatten(bad)
        with pytest.raises(ValueError, match="^flat: " + message):
            other.flat = bad
    np.testing.assert_array_equal(other.flat, flat)
    # the mappings are read-only: a write that bypasses the vector raises
    with pytest.raises(TypeError):
        other.params["W"] = np.zeros((3, 4))
    with pytest.raises(AttributeError):
        other.params = dict(other.params)


# -------------------------------------------------------------------- forward

def test_forward_identity_last_layer():
    spec = model.NetworkSpec(3, [3], 3)
    state = model.ModelState(spec)
    state.params["W"][...] = np.eye(3)
    state.params["B"][...] = np.zeros(3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    _, stacks, (log_y,), _ = model.forward_stacks(state, [x])
    np.testing.assert_array_equal(log_y, model.log_softmax(stacks[-1][0])[0])


def test_forward_softmax_rows_sum_to_one():
    state = model.ModelState(model.NetworkSpec(4, [6, 5], 3, recurrent=True))
    x = np.random.default_rng(1).normal(size=(7, 4))
    *_, (y,) = model.forward_stacks(state, [x])
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert (y > 0).all()


def test_forward_uniform_bias_gives_uniform_posteriors():
    spec = model.NetworkSpec(2, [3], 4)
    state = model.ModelState(spec)
    state.params["W"][...] = np.zeros((4, 3))
    state.params["B"][...] = np.full(4, 0.7)
    *_, (y,) = model.forward_stacks(state, [np.zeros((2, 2))])
    np.testing.assert_allclose(y, 0.25, atol=1e-15)
    state.params["B"][...] = np.array([0.0, 1.0, 0.0, 0.0])
    *_, (y,) = model.forward_stacks(state, [np.zeros((2, 2))])
    assert y[0, 1] > y[0, 0]


# ------------------------------------------------------- batched vs one-by-one

def reference_forward(state, x):
    """The per-sequence network, one numpy step per frame."""
    spec = state.spec
    hs = [np.asarray(x, dtype=float)]
    h = hs[0]
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
    return hs, (u, *model.log_softmax(a))


def reference_backward(state, hs, delta_ml, delta_fused):
    spec = state.spec
    grads = {"W": delta_ml.T @ hs[-1], "B": delta_ml.sum(axis=0)}
    g = np.asarray(delta_fused, dtype=float)
    n_layers = len(spec.hidden)
    for i in range(n_layers - 1, -1, -1):
        h, below = hs[i + 1], hs[i]
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


@st.composite
def lengths(draw, max_count, max_T, pool_size):
    """0..max_count input lengths from a pool of at most pool_size values
    in 1..max_T, so that equal lengths (a stack without padding) and a
    length beside a longer one (padding) are both common."""
    count = draw(st.integers(0, max_count))
    pool = draw(st.lists(st.integers(1, max_T), min_size=1, max_size=pool_size))
    return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))


WIDTHS = st.sampled_from([[5], [16], [32, 16], [1]])
SEEDS = st.integers(0, 2 ** 16)


def padded(arrays, Ts, width):
    """The (T_b, width) arrays as a left-aligned (B, T_max, width)
    stack, zero on the padding frames."""
    out = np.zeros((len(Ts), max(Ts, default=0), width))
    for o, a in zip(out, arrays):
        o[:len(a)] = a
    return out


@pytest.mark.parametrize("hidden, recurrent", [([16], True), ([16, 1], True), ([5], False)])
def test_backward_batch_ignores_what_the_padding_frames_hold(hidden, recurrent):
    # signal stacks whose padding frames hold noise, inf or nan give the
    # gradients of zero padding, bit for bit, and are left as they were
    rng = np.random.default_rng(5)
    spec = model.NetworkSpec(4, hidden, 3, recurrent=recurrent)
    state = model.ModelState(spec, seed=5)
    Ts, D = [9, 1, 5], spec.feature_dim
    _, stacks, _, _ = model.forward_stacks(state, [rng.normal(size=(T, 4)) for T in Ts])
    dml = padded([rng.normal(size=(T, 3)) for T in Ts], Ts, 3)
    dfused = padded([rng.normal(size=(T, D)) for T in Ts], Ts, D)
    want = model.backward_batch(state, Ts, stacks, dml, dfused)
    padding = np.arange(max(Ts)) >= np.asarray(Ts)[:, None]
    dml[padding] = rng.normal(0.0, 1e3, (padding.sum(), 3))
    dfused[padding] = np.inf
    b, t = np.nonzero(padding)
    dfused[b[0], t[0]] = np.nan
    before = dml.copy(), dfused.copy()
    got = model.backward_batch(state, Ts, stacks, dml, dfused)
    assert got.keys() == want.keys()
    for k in want:
        assert np.array_equal(got[k], want[k]), k
    assert np.array_equal(dml, before[0])
    assert np.array_equal(dfused, before[1], equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(hidden=WIDTHS, recurrent=st.booleans(), K=st.integers(1, 11),
       Ts=lengths(7, 25, 3), seed=SEEDS)
@example(hidden=[16], recurrent=True, K=3, Ts=[25, 1, 25], seed=1)
@example(hidden=[32, 16], recurrent=False, K=6, Ts=[1, 25], seed=2)
@example(hidden=[16, 1], recurrent=True, K=3, Ts=[20, 7, 13], seed=4)
def test_batch_matches_per_sequence_bitwise(hidden, recurrent, K, Ts, seed):
    # ragged batches, T = 1 and B in {0, 1, ...}, recurrent or not, at
    # the widths in use ([5] in the suites, [16] in the experiment,
    # [32, 16] in the CLI default); every output and gradient must equal
    # the per-sequence network's bit for bit.  A length-1 input beside a
    # longer one is the case the padded stack cannot run as it is, and
    # so is a layer of width 1 over a wider one ([16, 1])
    rng = np.random.default_rng(seed)
    spec = model.NetworkSpec(4, hidden, K, recurrent=recurrent)
    state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
    for k in state.params:      # nonzero biases, as after training
        state.params[k][...] = state.params[k] + rng.normal(0.0, 0.5, state.params[k].shape)
    xs = [rng.normal(size=(T, 4)) for T in Ts]
    dml = [rng.normal(size=(T, K)) for T in Ts]
    dfused = [rng.normal(size=(T, spec.feature_dim)) for T in Ts]

    Ts, activations, log_y, y = model.forward_stacks(state, xs)
    u = activations[-1]
    outputs = [(u[b, :T], log_y[b, :T], y[b, :T]) for b, T in enumerate(Ts)]
    stacks = model.backward_batch(state, Ts, activations, padded(dml, Ts, K),
                                  padded(dfused, Ts, spec.feature_dim))
    grads = [{k: g[b] for k, g in stacks.items()} for b in range(len(Ts))]
    assert len(outputs) == len(grads) == len(Ts)
    assert all(len(g) == len(Ts) for g in stacks.values())
    for x, out, d1, d2, got in zip(xs, outputs, dml, dfused, grads):
        hs, expected = reference_forward(state, x)
        for a, b in zip(out, expected):
            assert a.shape == b.shape and np.array_equal(a, b)
        want = reference_backward(state, hs, d1, d2)
        assert list(got) == list(want)
        for k in want:
            assert got[k].shape == want[k].shape and np.array_equal(got[k], want[k])


@settings(max_examples=60, deadline=None)
@given(hidden=WIDTHS, recurrent=st.booleans(), K=st.integers(2, 6),
       Ts=lengths(16, 12, 2), seed=SEEDS)
@example(hidden=[32, 16], recurrent=True, K=4, Ts=[12, 1, 12, 5], seed=3)
def test_forward_batch_per_input_parameters_match_each_loaded_point_bitwise(
        hidden, recurrent, K, Ts, seed):
    # P parameter vectors as the rows of one (P, n) array, each input run
    # with its own row; equal to loading a copy of each row as the
    # parameters and running that input alone, bit for bit
    P = len(Ts)
    rng = np.random.default_rng(seed)
    spec = model.NetworkSpec(4, hidden, K, recurrent=recurrent)
    state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
    base = state.flat_params()
    points = base + rng.normal(0.0, 0.5, (P, base.size))
    xs = [rng.normal(size=(T, 4)) for T in Ts]

    per_point = model.ModelState(spec)
    per_point.flat = points
    for k, p in per_point.params.items():
        assert p.shape == (P,) + state.params[k].shape
        assert np.shares_memory(p, points) or P == 0
    _, stacks, *outputs = model.forward_stacks(per_point, xs)
    outputs = [stacks[-1]] + outputs
    assert all(len(out) == P for out in outputs)
    reference = model.ModelState(spec)
    for p, (flat, x) in enumerate(zip(points, xs)):
        reference.flat = flat
        _, stacks, *alone = model.forward_stacks(reference, [x])
        alone = [stacks[-1]] + alone
        for out, want in zip(outputs, alone):
            got = out[p, :len(x)]
            assert got.shape == want[0].shape and np.array_equal(got, want[0])


# (F, H) of every row product the network runs at the widths in use:
# the input projections (F = 4 in the tests and suites, 8 from the
# generator), the second layer of [32, 16] and its backward dz @ W1, and
# the output layer and its K = 2..11 columns
ROW_PRODUCTS = ([(F, H) for F in (4, 8) for H in (5, 16, 32)]
                + [(32, 16), (16, 32)]
                + [(D, K) for D in (5, 16) for K in range(2, 12)])


def test_blas_rows_inside_a_padded_stack_match_the_unpadded_product():
    # forward_stacks runs each input's (T_b, F) @ (F, H) as the first T_b
    # rows of one (T_max, F) slice of a padded stack; this holds for
    # T_b >= 2 with the padding zero or not, shared weights or a stack
    # of them.  A 1-row product runs as a gemv and is not covered: the
    # network runs it on its own
    rng = np.random.default_rng(0)
    T_max = 40
    for F, H in ROW_PRODUCTS:
        W = rng.normal(size=(H, F))
        Ws = np.stack([W, W])
        for Tb in range(2, T_max + 1):
            x = rng.normal(size=(Tb, F))
            stack = rng.normal(size=(2, T_max, F))
            stack[0, Tb:] = 0.0
            stack[:, :Tb] = x
            want = x @ W.T
            for got in (stack @ W.T, stack @ Ws.swapaxes(-1, -2)):
                for rows in got[:, :Tb]:
                    assert rows.tobytes() == want.tobytes(), (F, H, Tb)


def test_blas_weight_gradient_over_padded_frames_matches_the_unpadded_product():
    # backward_batch's dz^T @ h and dz.sum over a padded stack, whose
    # signal rows are zero on the padding and whose activation rows are
    # not, equal the per-sequence products and sums bit for bit; the
    # recurrent layer adds R's (H, H)
    rng = np.random.default_rng(1)
    T_max = 40
    for F, H in ROW_PRODUCTS + [(5, 5), (16, 16)]:
        for Tb in range(1, T_max + 1):
            dz, h = rng.normal(size=(Tb, H)), rng.normal(size=(Tb, F))
            dz_stack = np.zeros((2, T_max, H))
            dz_stack[:, :Tb] = dz
            h_stack = rng.normal(size=(2, T_max, F))
            h_stack[:, :Tb] = h
            want = (dz.T @ h).tobytes(), dz.sum(axis=0).tobytes()
            products = dz_stack.swapaxes(1, 2) @ h_stack
            sums = dz_stack.sum(axis=1)
            for b in range(2):
                assert (products[b].tobytes(), sums[b].tobytes()) == want, (F, H, Tb)
            assert (dz_stack[0].T @ h_stack[0]).tobytes() == want[0]


def test_blas_contiguous_frame_products_match_the_one_dimensional_product():
    # the recurrence runs frame t of the whole batch as one contiguous
    # (B, 1, H) block f: f @ R.T forward, f @ R backward, and f @ R[b].T
    # with per-input parameters.  numpy runs each as one gemv per
    # sequence, equal bit for bit to the row's 1-D product
    rng = np.random.default_rng(4)
    for H in (1, 5, 16, 32):
        for B in range(1, 9):
            for _ in range(5):
                R, Rs = rng.normal(size=(H, H)), rng.normal(size=(B, H, H))
                f = rng.normal(size=(B, 1, H))
                for got, mats in ((f @ R.T, [R.T] * B), (f @ R, [R] * B),
                                  (f @ Rs.swapaxes(-1, -2), [r.T for r in Rs])):
                    for row, fb, m in zip(got, f, mats):
                        assert row.tobytes() == (fb[0] @ m).tobytes(), (H, B)


def test_blas_rows_of_a_padded_stack_times_a_stored_matrix_match_the_unpadded_product():
    # the signal step runs delta_ml @ W on padded stacks, with the
    # (K, D) matrix as it is stored.  The rows of an
    # input of T_b >= 2 frames equal its unpadded product, for two or
    # more columns D.  One column runs as a gemv and is not covered:
    # _rows_product runs each input on its own there
    rng = np.random.default_rng(5)
    T_max = 40
    for K in range(1, 12):
        for D in (2, 5, 8, 16, 32):
            W = rng.normal(size=(K, D))
            for Tb in range(2, T_max + 1):
                x = rng.normal(size=(Tb, K))
                stack = rng.normal(size=(2, T_max, K))
                stack[0, Tb:] = 0.0
                stack[:, :Tb] = x
                want = (x @ W).tobytes()
                for rows in (stack @ W)[:, :Tb]:
                    assert rows.tobytes() == want, (K, D, Tb)


def test_recurrence_first_frame_matches_the_zero_product_bitwise():
    # frame 0 adds 0.0 in place of R h_{-1} = R 0; like the product,
    # that turns a pre-activation of -0 into +0
    rng = np.random.default_rng(3)
    R = rng.normal(size=(4, 4))
    z = rng.normal(size=(3, 4))
    z[0, :2] = -0.0
    frames = z.copy()[:, None, None, :]          # time-major (T, B, 1, H)
    model._recurrence(frames, R)
    h, prev = np.empty_like(z), np.zeros(4)
    for t in range(3):
        prev = np.tanh(z[t] + prev @ R.T)
        h[t] = prev
    assert frames[:, 0, 0].tobytes() == h.tobytes()


def test_backward_batch_needs_one_signal_per_cached_sequence():
    state = model.ModelState(model.NetworkSpec(3, [4], 2, recurrent=True))
    Ts, stacks, _, _ = model.forward_stacks(state, [np.ones((2, 3)), np.ones((3, 3))])
    with pytest.raises(ValueError):
        model.backward_batch(state, Ts, stacks, np.zeros((1, 3, 2)), np.zeros((1, 3, 4)))


def test_batch_rejects_a_wrong_shape_instead_of_broadcasting():
    # copying into the padded stack would broadcast a (T, 1) input or a
    # one-row signal over every frame
    state = model.ModelState(model.NetworkSpec(3, [4], 2, recurrent=True))
    with pytest.raises(ValueError, match="expected a"):
        model.forward_stacks(state, [np.ones((5, 1))])
    Ts, stacks, _, _ = model.forward_stacks(state, [np.ones((3, 3))])
    with pytest.raises(ValueError, match="expected a"):
        model.backward_batch(state, Ts, stacks, np.ones((1, 1, 2)), np.ones((1, 3, 4)))
    with pytest.raises(ValueError, match="expected a"):
        model.backward_batch(state, Ts, stacks, np.ones((1, 3, 3)), np.ones((1, 3, 4)))


# ------------------------------------------------------------------- backward

def test_backward_zero_signals_zero_gradients():
    state = model.ModelState(model.NetworkSpec(2, [3], 2, recurrent=True))
    x = np.random.default_rng(2).normal(size=(4, 2))
    Ts, stacks, _, _ = model.forward_stacks(state, [x])
    grads = model.backward_batch(state, Ts, stacks, np.zeros((1, 4, 2)), np.zeros((1, 4, 3)))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_last_layer_is_outer_product():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    x = np.random.default_rng(3).normal(size=(4, 2))
    Ts, stacks, _, _ = model.forward_stacks(state, [x])
    u = stacks[-1][0]
    delta = np.random.default_rng(4).normal(size=(4, 2))
    grads = model.backward_batch(state, Ts, stacks, delta[None], np.zeros((1, 4, 3)))
    np.testing.assert_allclose(grads["W"][0], delta.T @ u, atol=1e-12)
    np.testing.assert_allclose(grads["B"][0], delta.sum(axis=0), atol=1e-12)


# ----------------------------------------------------------------------- adam

def test_adam_zero_gradient_from_rest_leaves_parameters():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    before = state.flat_params()
    model.adam_step(state, np.zeros(state.size))
    np.testing.assert_array_equal(state.flat_params(), before)


def test_adam_zero_gradient_decays_existing_moments():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    state.adam_m["W"][...] += 1.0
    state.adam_v["W"][...] += 1.0
    model.adam_step(state, np.zeros(state.size))
    np.testing.assert_allclose(state.adam_m["W"], 0.9, atol=1e-15)
    np.testing.assert_allclose(state.adam_v["W"], 0.999, atol=1e-15)


def test_adam_first_step_closed_form():
    state = model.ModelState(model.NetworkSpec(2, [3], 2), lr=0.01)
    g = np.random.default_rng(5).normal(size=state.params["W"].shape)
    grad = np.zeros(state.size)
    state.unflatten(grad)["W"][...] = g
    before = state.params["W"].copy()
    model.adam_step(state, grad)
    expected = before - 0.01 * g / (np.abs(g) + state.eps)
    np.testing.assert_allclose(state.params["W"], expected, atol=1e-12)


def test_adam_zero_learning_rate():
    state = model.ModelState(model.NetworkSpec(2, [3], 2), lr=0.0)
    before = state.flat_params()
    model.adam_step(state, np.ones(state.size))
    np.testing.assert_array_equal(state.flat_params(), before)


def test_adam_rejects_non_finite_gradients():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    grad = np.zeros(state.size)
    state.unflatten(grad)["W"][...] = np.nan
    before = state.flat_params()
    with pytest.raises(model.NonFiniteGradient):
        model.adam_step(state, grad)
    assert state.step_count == 0 and np.array_equal(state.flat, before)
    # a gradient that does not fit the vector would broadcast: refused
    with pytest.raises(ValueError, match=r"expected a gradient of shape \(%d,\)" % state.size):
        model.adam_step(state, np.zeros(1))


GROUPS = ("params", "adam_m", "adam_v")


def train_batches(state, bank, batches, settings):
    """model.train's step on each batch in turn: one Adam step and, in
    the fusion modes, one center step.  Returns the last bank."""
    for batch in batches:
        _, grad, stats = model._batch_step(state, batch, settings, bank)
        model.adam_step(state, grad)
        if stats is not None:
            weights, sums = stats
            bank = bank.step(sums, weights if settings.mode == "fmf" else None)
    return bank


def assert_same_training_state(got, want):
    assert (got.step_count, got.lr) == (want.step_count, want.lr)
    for group in GROUPS:
        for k, v in getattr(want, group).items():
            assert getattr(got, group)[k].tobytes() == v.tobytes(), (group, k)


@pytest.mark.parametrize("mode", model.MODES)
def test_flat_step_matches_the_per_key_reference_bitwise(mode, monkeypatch):
    # one accumulate over the (B, n) gradient stack and one Adam update of
    # the three vectors, against the per-key sums and per-key updates they
    # replaced, over 24 batches and a halved learning rate
    data = toy_data(n=96)
    settings = settings_for(mode, lam=1e-2)
    spec = model.NetworkSpec(4, [6, 5], model.output_units(mode, 2), recurrent=True)
    state = model.ModelState(spec, seed=3, lr=1e-2)
    bank = losses.CenterBank(2, 5)
    ref = {group: {k: v.copy() for k, v in getattr(state, group).items()} for group in GROUPS}
    real, stacks = model.backward_batch, []

    def kept(*args):
        stacks.append(real(*args))
        return stacks[-1]

    monkeypatch.setattr(model, "backward_batch", kept)
    for n in range(24):
        if n == 12:
            state.lr /= 2.0
        bank = train_batches(state, bank, [data[4 * n:4 * n + 4]], settings)
        grads = {k: np.add.accumulate(g, axis=0)[-1] for k, g in stacks.pop().items()}
        t = n + 1
        c1, c2 = 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t
        for k, g in grads.items():
            m = ref["adam_m"][k] = state.beta1 * ref["adam_m"][k] + (1 - state.beta1) * g
            v = ref["adam_v"][k] = state.beta2 * ref["adam_v"][k] + (1 - state.beta2) * g * g
            ref["params"][k] = (ref["params"][k]
                                - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps))
        assert state.step_count == t
        for group, arrays in ref.items():
            for k, want in arrays.items():
                assert getattr(state, group)[k].tobytes() == want.tobytes(), (n, group, k)
    if mode in model.FUSION_MODES:
        assert np.any(bank.centers != 0.0)


def test_copies_and_pickles_own_their_vectors():
    # a deep copy and a pickle round trip share no memory with the state,
    # training them leaves it alone, and on the same batches they reach
    # its bits: their views view their own vectors
    data = toy_data(n=96)
    settings = settings_for("tmf", lam=1e-2)
    state = model.ModelState(model.NetworkSpec(4, [8], 3, recurrent=True), seed=7, lr=1e-2)
    batches = [data[4 * n:4 * n + 4] for n in range(24)]
    bank = train_batches(state, losses.CenterBank(2, 8), batches[:12], settings)
    copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]

    def arrays(s):
        return [s.flat] + [a for group in GROUPS for a in getattr(s, group).values()]

    # a shallow copy shares the vectors, and views them
    shallow = copy.copy(state)
    assert shallow.flat is state.flat
    assert all(np.shares_memory(a, b) for a, b in zip(arrays(shallow), arrays(state)))
    before = copy.deepcopy(state)
    for other in copies:
        assert not any(np.shares_memory(a, b) for a in arrays(other) for b in arrays(state))
        assert_same_training_state(other, state)
        train_batches(other, bank, batches[12:], settings)
    assert_same_training_state(state, before)
    train_batches(state, bank, batches[12:], settings)
    assert state.step_count == 24
    for other in copies:
        assert_same_training_state(other, state)


@pytest.mark.parametrize("mode", model.MODES)
def test_checkpoint_resume_trains_on_to_the_same_bits(mode, tmp_path):
    # save after 12 batches, load and train 12 more: the training state
    # and the centers equal those of training straight through
    data = toy_data(n=96)
    settings = settings_for(mode, lam=1e-2)
    spec = model.NetworkSpec(4, [8], model.output_units(mode, 2), recurrent=True)
    batches = [data[4 * n:4 * n + 4] for n in range(24)]
    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = train_batches(state, losses.CenterBank(2, 8), batches[:12], settings)
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, model.ScheduleState(), mode, 7)
    straight = train_batches(state, bank, batches[12:], settings)
    resumed, bank, _, _ = config.load_checkpoint(path)
    bank = train_batches(resumed, bank, batches[12:], settings)
    assert state.step_count == 24
    assert_same_training_state(resumed, state)
    assert bank.centers.tobytes() == straight.centers.tobytes()
    assert (mode in model.FUSION_MODES) == bool(np.any(bank.centers != 0.0))


# ------------------------------------------------------------------- schedule

def test_schedule_improvements_continue():
    sched = model.ScheduleState()
    for score in (1.0, 2.0, 3.0):
        assert model.schedule_tick(sched, score) == "continue"
    assert sched.since_improvement == 0


def test_schedule_halves_after_exactly_three():
    sched = model.ScheduleState()
    assert model.schedule_tick(sched, 3.0) == "continue"
    assert model.schedule_tick(sched, 3.0) == "continue"
    assert model.schedule_tick(sched, 3.0) == "continue"
    assert model.schedule_tick(sched, 3.0) == "halve_lr"


def test_schedule_stops_after_exactly_eight():
    sched = model.ScheduleState()
    model.schedule_tick(sched, 1.0)
    actions = [model.schedule_tick(sched, 0.5) for _ in range(8)]
    assert actions[:7] == ["continue", "continue", "halve_lr",
                           "continue", "continue", "halve_lr",
                           "continue"]
    assert actions[7] == "early_stop"


def test_schedule_improvement_resets_counter():
    sched = model.ScheduleState()
    model.schedule_tick(sched, 1.0)
    model.schedule_tick(sched, 0.5)
    model.schedule_tick(sched, 0.5)
    assert model.schedule_tick(sched, 2.0) == "continue"
    assert sched.since_improvement == 0
    assert sched.best == 2.0


def test_schedule_equal_score_is_not_improvement():
    sched = model.ScheduleState()
    model.schedule_tick(sched, 1.0)
    model.schedule_tick(sched, 1.0)
    assert sched.since_improvement == 1


# ------------------------------------------------------------------- training

def settings_for(mode, lam=0.0, **kw):
    defaults = dict(mode=mode, batch_size=4, max_batches=60, eval_interval=20,
                    seed=0, lam=lam)
    defaults.update(kw)
    return model.TrainSettings(**defaults)


def fresh_run(mode, lam=0.0, seed=42, hidden=(8,), labels=(1, 3), **kw):
    data = toy_data(seed=seed, labels=labels)
    train_set, val_set = data[:48], data[48:]
    K = 3 if mode in ("ctc", "tmf") else 2
    spec = model.NetworkSpec(4, list(hidden), K, recurrent=True)
    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = losses.CenterBank(2, hidden[-1])
    return model.train(state, bank, train_set, val_set,
                       settings_for(mode, lam, **kw))


def test_train_ce_reaches_high_frame_accuracy():
    data = toy_data(n=80)
    train_set, val_set = data[:64], data[64:]
    spec = model.NetworkSpec(4, [8], 2)
    state = model.ModelState(spec, seed=1, lr=5e-2)
    bank = losses.CenterBank(2, 8)
    state, bank, rows = model.train(
        state, bank, train_set, val_set,
        settings_for("ce", max_batches=300, eval_interval=50))
    correct = total = 0
    for s in val_set:
        *_, (y,) = model.forward_stacks(state, [s.x])
        correct += int((y.argmax(axis=1) + 1 == s.framewise).sum())
        total += len(s.framewise)
    assert correct / total >= 0.99


def test_train_tmf_loss_decreases_over_first_evals():
    _, _, rows = fresh_run("tmf", lam=1e-3, max_batches=80, eval_interval=20)
    first = [row["train_loss"] for row in rows[:3]]
    assert len(first) == 3
    assert first[0] > first[1] > first[2]


def test_train_is_deterministic():
    s1, b1, r1 = fresh_run("tmf", lam=1e-3)
    s2, b2, r2 = fresh_run("tmf", lam=1e-3)
    assert r1 == r2
    for k in s1.param_names():
        np.testing.assert_array_equal(s1.params[k], s2.params[k])
    np.testing.assert_array_equal(b1.centers, b2.centers)


def test_tmf_on_the_run_config_defaults_moves_its_centers():
    # the default generator's sequences are long enough that the raw
    # alpha * beta, which carries p(z|x), passed no cell through the
    # 0.01 gate: the centers stayed at 0 and tmf trained as ctc
    cfg = config.RunConfig(mode="tmf", max_batches=10, eval_interval=10)
    gen = dataclasses.replace(cfg.generator, seed=cfg.seed)
    pool = [sample for condition in cfg.train_conditions
            for sample in experiment.corpus_part(gen, condition, "train", 40)]
    train_set, val_set = experiment.split_pool(pool, cfg.validation_fraction, cfg.seed)
    _, bank, _ = model.train(cfg.new_state(), cfg.new_bank(), train_set, val_set,
                             cfg.settings())
    assert np.linalg.norm(bank.centers) > 0.0


@pytest.mark.parametrize("mode", ["ctc", "tmf"])
def test_train_batched_lattice_matches_per_sequence_bitwise(mode, monkeypatch):
    # training makes one lattice call per batch and one forward-only
    # call per validation group; answering each with separate
    # per-sequence (B=1) calls, stacked as the batch lays them out, must
    # give the same parameters, centers and rows, bit for bit
    from tmfusion import ctc

    def run():
        return fresh_run(mode, lam=1e-2, batch_size=6, max_batches=40)

    batched = run()
    one_at_a_time = ctc.forward_backward_batch
    calls = []

    def alone(y, Ts, zs):
        return [one_at_a_time(y[b:b + 1, :Tb], [Tb], [z]) for b, (Tb, z) in enumerate(zip(Ts, zs))]

    def per_sequence(y, Ts, zs):
        calls.append(len(Ts))
        pairs = alone(y, Ts, zs)
        S = max(t.zp.shape[1] for t in pairs)
        alpha, beta = np.full((2, len(Ts), y.shape[1], S), -np.inf)
        zp, emissions = np.zeros((len(Ts), S), dtype=np.intp), np.zeros(alpha.shape)
        for b, (Tb, t) in enumerate(zip(Ts, pairs)):
            Sb = t.zp.shape[1]
            alpha[b, :Tb, :Sb], beta[b, :Tb, :Sb] = t.log_alpha[0], t.log_beta[0]
            zp[b, :Sb], emissions[b, :Tb, :Sb] = t.zp[0], t.log_emissions[0]
        return ctc.AlignmentTables(alpha, beta, np.array([t.log_seq_prob[0] for t in pairs]),
                                   zp, emissions, np.arange(y.shape[1]) < np.array(Ts)[:, None])

    def scores(y, Ts, zs):
        calls.append(len(Ts))
        return np.array([t.log_seq_prob[0] for t in alone(y, Ts, zs)])

    monkeypatch.setattr(ctc, "forward_backward_batch", per_sequence)
    monkeypatch.setattr(ctc, "log_seq_probs", scores)
    looped = run()
    assert calls[0] == 6 and 12 in calls      # a training batch, the validation set
    (s1, b1, r1), (s2, b2, r2) = batched, looped
    assert r1 == r2
    for k in s1.param_names():
        assert np.array_equal(s1.params[k], s2.params[k])
    assert np.array_equal(b1.centers, b2.centers)
    if mode == "tmf":
        assert np.any(b1.centers != 0.0)


def parent_sequence_signals(state, sample, u, log_y, y, tables, settings, bank):
    """The per-sequence signal step that the batch's stacks replaced, as
    it was: the loss, delta_ml, delta_fused and center statistics of one
    sequence from its features u, log-probabilities log_y, probabilities
    y and lattice tables."""
    mode, lam = settings.mode, settings.lam
    if mode in model.TEMPORAL_MODES:
        delta_ml = ctc.ctc_grad_logits(tables, y)
        loss = -tables.log_seq_prob
        if mode == "tmf":
            w = ctc.occupancy(tables)[:, 1::2]
            labels = tables.zp[1::2]
            centers = bank.gather(labels)
    else:
        cols = np.asarray(sample.framewise, dtype=np.intp) - 1
        onehot = np.zeros((len(cols), y.shape[1]))
        onehot[np.arange(len(cols)), cols] = 1.0
        delta_ml = y - onehot
        loss = losses.cross_entropy(log_y[None], cols, [len(cols)])[0]
        # fmf weighs the runs of its frame labels
        (w,), (labels,) = losses.frame_runs(sample.framewise, [len(cols)])
        centers = bank.gather(labels)
    W = state.params["W"]
    if mode not in model.FUSION_MODES:
        return loss, delta_ml, delta_ml @ W, None
    # the loss is reported as the objective of the gradient: (lam/2) * ECL
    loss = loss + 0.5 * lam * losses.ecl(u, w, centers)
    delta_fused = delta_ml @ W
    if lam:
        delta_fused = delta_fused + lam * losses.ecl_grad_features(u, w, centers)
    return loss, delta_ml, delta_fused, losses.center_stats(bank, u, w, labels, centers)


def train_one_at_a_time(run, monkeypatch):
    """run() with each training sequence and each validation input run
    through the network alone: a training step is one forward, the
    parent signal step and one backward per sequence, its gradients
    added one sequence at a time.  Returns run's result and the batch
    sizes that the steps and the validation groups were handed."""
    forward_stacks, sizes = model.forward_stacks, []

    def step(state, batch, settings, bank):
        sizes.append(len(batch))
        seq_losses, total, pieces = [], None, []
        for sample in batch:
            Ts, stacks, log_y, y = forward_stacks(state, [sample.x])
            u, log_y, y = stacks[-1][0], log_y[0], y[0]
            tables = (ctc.forward_backward(log_y, sample.collapsed)
                      if settings.mode in model.TEMPORAL_MODES else None)
            loss, d1, d2, st = parent_sequence_signals(state, sample, u, log_y, y, tables,
                                                       settings, bank)
            grads = {k: g[0] for k, g in
                     model.backward_batch(state, Ts, stacks, d1[None], d2[None]).items()}
            if total is None:
                total = grads
            else:
                for k in total:
                    total[k] += grads[k]
            seq_losses.append(loss)
            if st is not None:
                pieces.append(st)
        stats = (sum(w for w, _ in pieces), sum(s for _, s in pieces)) if pieces else None
        return seq_losses, np.concatenate([total[k].ravel() for k in state.param_names()]), stats

    def forward_each(state, xs):
        # each input alone, its outputs copied into the padded stacks
        sizes.append(len(xs))
        Ts = [len(x) for x in xs]
        alone = [forward_stacks(state, [x]) for x in xs]

        def stack(arrays):
            return padded([a[0] for a in arrays], Ts, arrays[0].shape[-1])

        return (Ts, [stack(layer) for layer in zip(*(out[1] for out in alone))],
                stack([out[2] for out in alone]), stack([out[3] for out in alone]))

    monkeypatch.setattr(model, "_batch_step", step)
    monkeypatch.setattr(model, "forward_stacks", forward_each)
    return run(), sizes


def relative_difference(got, want):
    """max |got - want| over the largest |want|; got must be exactly 0
    where want is all zeros."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0),
                                                     np.finfo(float).tiny)


def signals_against_parent(run, monkeypatch):
    """run() with each training batch's signal step compared with
    parent_sequence_signals of its sequences alone, each with its own
    lattice: the losses, both signal stacks on each sequence's frames,
    and the center statistics summed over the batch.  Returns run's
    result and the largest relative difference of each batch."""
    real, worst = model._batch_signals, []

    def checked(state, batch, Ts, u, log_y, y, settings, bank):
        out = real(state, batch, Ts, u, log_y, y, settings, bank)
        temporal = settings.mode in model.TEMPORAL_MODES
        parts = [parent_sequence_signals(
            state, s, u[b, :Tb], log_y[b, :Tb], y[b, :Tb],
            ctc.forward_backward(log_y[b, :Tb], s.collapsed) if temporal else None,
            settings, bank) for b, (s, Tb) in enumerate(zip(batch, Ts))]
        pairs = [(out[0], [p[0] for p in parts])]
        pairs += [(np.concatenate([out[j][b, :Tb] for b, Tb in enumerate(Ts)]),
                   np.concatenate([p[j] for p in parts])) for j in (1, 2)]
        if out[3] is not None:
            pairs += [(out[3][j], sum(p[3][j] for p in parts)) for j in (0, 1)]
        worst.append(max(relative_difference(got, want) for got, want in pairs))
        return out

    monkeypatch.setattr(model, "_batch_signals", checked)
    return run(), worst


@pytest.mark.parametrize("mode", ["ce", "fmf", "ctc", "tmf"])
def test_train_batched_network_matches_per_sequence_bitwise(mode, monkeypatch):
    # training makes one forward_stacks and one backward_batch call per
    # batch, computes the signals on the padded stacks and scores
    # validation in length-sorted groups; one sequence at a time through
    # the per-sequence signal step must give the same parameters,
    # centers and rows, bit for bit
    lam = 1e-2 if mode in ("fmf", "tmf") else 0.0

    def run():
        return fresh_run(mode, lam=lam, batch_size=6, max_batches=40)

    monkeypatch.setattr(model, "SCORE_GROUP", 5)     # 12 validation sequences
    if mode == "tmf":
        # tmf's sums over positions and frames (the ECL total, w @ c over
        # the padded positions) regroup on the padded stacks: each batch's
        # signals against the per-sequence step, to 1e-12 relative
        (_, bank, _), worst = signals_against_parent(run, monkeypatch)
        assert len(worst) == 40 and max(worst) <= 1e-12
        assert np.any(bank.centers != 0.0)
        return
    batched = run()
    looped, sizes = train_one_at_a_time(run, monkeypatch)
    assert sizes[0] == 6 and sizes.count(5) >= 2    # a batch, validation groups
    (s1, b1, r1), (s2, b2, r2) = batched, looped
    assert r1 == r2
    for k in s1.param_names():
        assert np.array_equal(s1.params[k], s2.params[k])
        assert np.array_equal(s1.adam_m[k], s2.adam_m[k])
        assert np.array_equal(s1.adam_v[k], s2.adam_v[k])
    assert np.array_equal(b1.centers, b2.centers)
    if lam:
        assert np.any(b1.centers != 0.0)


@pytest.mark.parametrize("mode", ["ctc", "tmf"])
def test_train_with_long_labelings_matches_per_sequence_signals(mode, monkeypatch):
    # 4 or 5 labels give lattices of 9 to 11 positions, where the padded
    # row sums over positions (the CTC posterior's, the normalized
    # occupancy's) can regroup numpy's pairwise sum: each batch's signals
    # against the per-sequence step, to 1e-12 relative
    lam = 1e-2 if mode == "tmf" else 0.0
    assert min(len(s.collapsed) for s in toy_data(labels=(4, 5))) == 4

    def run():
        return fresh_run(mode, lam=lam, labels=(4, 5), batch_size=6, max_batches=20)

    (_, bank, _), worst = signals_against_parent(run, monkeypatch)
    assert len(worst) == 20 and max(worst) <= 1e-12
    assert (mode == "tmf") == bool(np.any(bank.centers != 0.0))


def onehot_batch_signals(state, batch, Ts, u, log_y, y, settings, bank):
    """fmf's signal step as it was before it weighed the runs of its frame
    labels: one-hot (B, T_max, C) weights over all C classes, the labels
    1..C shared by every sequence, and w @ centers per sequence."""
    rows = partial(model._rows_product, Ts=Ts)
    cols = np.concatenate([s.framewise for s in batch]).astype(np.intp) - 1
    seq_losses = np.array(losses.cross_entropy(log_y, cols, Ts))
    w = np.zeros(y.shape)
    w[(*np.nonzero(np.arange(y.shape[1]) < np.asarray(Ts)[:, None]), cols)] = 1.0
    delta_ml = y - w
    labels = np.broadcast_to(np.arange(1, bank.num_classes + 1), (len(Ts), bank.num_classes))
    seq_losses = seq_losses + 0.5 * settings.lam * losses.ecl(u, w, bank.centers)
    delta_ecl = w.sum(axis=-1)[..., None] * u - rows(w, bank.centers)
    stats = losses.center_stats(bank, u, w, labels, bank.centers,
                                partial(model._weight_grads, Ts=Ts))
    return (seq_losses.tolist(), delta_ml,
            rows(delta_ml, state.params["W"]) + settings.lam * delta_ecl, stats)


@pytest.mark.parametrize("hidden", [(8,), (3, 1)])
def test_fmf_run_weights_match_the_onehot_layout(hidden, monkeypatch):
    # weighing the runs of the frame labels instead of every class gives
    # each batch's gradients bit for bit, equal center weights, and center
    # sums that add run by run instead of class by class, to 1e-12
    cfg = synth.GeneratorConfig(num_classes=5, feature_dim=5, segment_length=(1, 4),
                                labels_per_sequence=(1, 5), seed=3)
    data = synth.generate(cfg, 160)
    rng = np.random.default_rng(3)
    settings = settings_for("fmf", lam=0.1)
    spec = model.NetworkSpec(5, list(hidden), 5, recurrent=True)
    recurs = 0
    for n in range(20):
        batch = data[8 * n:8 * n + 8]
        recurs += any(len(set(s.collapsed)) < len(s.collapsed) for s in batch)
        state = model.ModelState(spec, seed=n)
        bank = losses.CenterBank(5, hidden[-1], occupancy_threshold=0.5)
        bank.centers = rng.normal(size=bank.centers.shape)
        runs = model._batch_step(state, batch, settings, bank)
        with monkeypatch.context() as m:
            m.setattr(model, "_batch_signals", onehot_batch_signals)
            onehot = model._batch_step(state, batch, settings, bank)
        np.testing.assert_allclose(runs[0], onehot[0], rtol=1e-12)
        assert runs[1].tobytes() == onehot[1].tobytes(), n
        assert np.array_equal(runs[2][0], onehot[2][0])
        np.testing.assert_allclose(runs[2][1], onehot[2][1], rtol=1e-12, atol=1e-12)
    assert recurs          # some labelings revisit a class in a later run


@pytest.mark.parametrize("mode", ["ce", "fmf", "ctc", "tmf"])
def test_train_at_width_one_matches_one_at_a_time_bitwise(mode, monkeypatch):
    # at hidden [1] the gradients of b0 and R, and the features, have
    # width 1: a sum over the batch of (8, 1) gradients that ran pairwise
    # differed from adding the sequences one at a time in about half of
    # random trials, and so do the padded stack's sums over frames
    lam = 1e-2 if mode in ("fmf", "tmf") else 0.0

    def run():
        return fresh_run(mode, lam=lam, hidden=(1,), batch_size=8, max_batches=30,
                         eval_interval=15)

    batched = run()
    (s2, b2, r2), sizes = train_one_at_a_time(run, monkeypatch)
    s1, b1, r1 = batched
    assert sizes[0] == 8
    assert r1 == r2
    for k in s1.param_names():
        # a last-bit change in a gradient rarely survives the parameter
        # step's rounding, but it stays in the Adam moments
        for got, want in zip((s1.params, s1.adam_m, s1.adam_v),
                             (s2.params, s2.adam_m, s2.adam_v)):
            assert np.array_equal(got[k], want[k])
    assert np.array_equal(b1.centers, b2.centers)


@pytest.mark.parametrize("mode", ["ce", "ctc"])
def test_evaluate_model_groups_match_per_sequence_bitwise(mode, monkeypatch):
    # length-sorted groups of 4 against one sequence at a time, in order
    data = toy_data("unseen", n=23)
    spec = model.NetworkSpec(4, [8], 3 if mode == "ctc" else 2, recurrent=True)
    state = model.ModelState(spec, seed=5)
    bank = losses.CenterBank(2, 8)
    bank.centers = np.random.default_rng(2).normal(size=bank.centers.shape)
    monkeypatch.setattr(model, "SCORE_GROUP", 4)
    grouped = experiment.evaluate_model(state, bank, data, mode, "unseen")
    monkeypatch.setattr(model, "score_groups",
                        lambda samples: [[i] for i in range(len(samples))])
    assert experiment.evaluate_model(state, bank, data, mode, "unseen") == grouped


def test_score_groups_sort_by_length(monkeypatch):
    monkeypatch.setattr(model, "SCORE_GROUP", 2)
    data = toy_data(n=7)
    groups = model.score_groups(data)
    assert [len(g) for g in groups] == [2, 2, 2, 1]
    order = [i for g in groups for i in g]
    assert sorted(order) == list(range(7))
    lengths = [len(data[i].x) for i in order]
    assert lengths == sorted(lengths)


def test_train_lambda_zero_tmf_matches_ctc_bitwise():
    s_tmf, _, r_tmf = fresh_run("tmf", lam=0.0)
    s_ctc, _, r_ctc = fresh_run("ctc", lam=0.0)
    assert r_tmf == r_ctc
    for k in s_tmf.param_names():
        np.testing.assert_array_equal(s_tmf.params[k], s_ctc.params[k])


def test_train_lambda_zero_fmf_matches_ce_bitwise():
    s_fmf, _, r_fmf = fresh_run("fmf", lam=0.0)
    s_ce, _, r_ce = fresh_run("ce", lam=0.0)
    assert r_fmf == r_ce
    for k in s_fmf.param_names():
        np.testing.assert_array_equal(s_fmf.params[k], s_ce.params[k])


def test_train_emits_metrics_rows():
    _, _, rows = fresh_run("ctc")
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert row["eval_index"] == i
        assert row["batches"] == (i + 1) * 20
        assert np.isfinite(row["train_loss"])
        assert np.isfinite(row["val_score"])


@pytest.mark.parametrize("mode", ["ctc", "tmf"])
def test_train_goes_on_where_the_softmax_underflows(mode):
    # output weights scaled until some live softmax entries are exactly
    # 0.0: the lattice takes the log-softmax, which stays finite there,
    # so training goes on with finite losses and scores
    data = toy_data()
    spec = model.NetworkSpec(4, [8], 3, recurrent=True)
    state = model.ModelState(spec, seed=7, lr=1e-2)
    state.params["W"][...] = 1e3 * state.params["W"]
    Ts, _, log_y, y = model.forward_stacks(state, [s.x for s in data])
    live = np.arange(y.shape[1]) < np.array(Ts)[:, None]
    assert (y[live] == 0.0).any() and np.isfinite(log_y[live]).all()
    state, bank, rows = model.train(state, losses.CenterBank(2, 8), data[:48], data[48:],
                                    settings_for(mode, lam=1e-2, max_batches=6,
                                                 eval_interval=3))
    assert len(rows) == 2
    assert all(np.isfinite(row[k]) for row in rows for k in ("train_loss", "val_score"))
    assert np.isfinite(state.flat_params()).all() and np.isfinite(bank.centers).all()


def test_train_parameters_stay_finite():
    state, bank, _ = fresh_run("tmf", lam=1e-3)
    assert np.isfinite(state.flat_params()).all()
    assert np.isfinite(bank.centers).all()


def test_train_select_best_returns_best_validation_state():
    # at this step size the validation score peaks before the last
    # evaluation: train returns that evaluation's whole training state
    data = toy_data()
    train_set, val_set = data[:48], data[48:]
    spec = model.NetworkSpec(4, [8], 3, recurrent=True)

    snapshots = []

    def hook(hstate, hbank, row, sched):
        snapshots.append((row["val_score"], copy.deepcopy(hstate)))

    state = model.ModelState(spec, seed=7, lr=1.0)
    bank = losses.CenterBank(2, 8)
    state, bank, rows = model.train(state, bank, train_set, val_set,
                                    settings_for("ctc", max_batches=100,
                                                 eval_interval=20),
                                    eval_hook=hook)
    best = max(range(len(snapshots)), key=lambda i: snapshots[i][0])
    assert best < len(snapshots) - 1
    kept = snapshots[best][1]
    assert (state.step_count, state.lr) == (kept.step_count, kept.lr)
    assert state.step_count == rows[best]["batches"]
    for k in kept.params:
        for group in ("params", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(state, group)[k],
                                          getattr(kept, group)[k])


def test_train_settings_reject_an_unknown_mode():
    # a misspelt mode must not train a blank-output network as framewise ce
    with pytest.raises(ValueError, match="mode: expected one of"):
        settings_for("CTC")


def test_train_eval_hook_sees_schedule_state():
    seen, scores = [], []

    def hook(hstate, hbank, row, sched):
        seen.append((row["batches"], sched.best, sched.since_improvement))
        scores.append(row["val_score"])

    data = toy_data()
    spec = model.NetworkSpec(4, [8], 3, recurrent=True)
    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = losses.CenterBank(2, 8)
    model.train(state, bank, data[:48], data[48:],
                settings_for("ctc", max_batches=40, eval_interval=20),
                eval_hook=hook)
    assert [b for b, _, _ in seen] == [20, 40]
    # the hook runs after the tick: the first evaluation is the best so
    # far, with its own score
    assert seen[0][1:] == (scores[0], 0)


# ---------------------------------------------------------------- validation

def test_validation_score_temporal_is_mean_sequence_likelihood():
    data = toy_data(n=4)
    spec = model.NetworkSpec(4, [8], 3)
    state = model.ModelState(spec, seed=3)
    from tmfusion import ctc
    expected = np.mean([ctc.forward_backward(model.forward_stacks(state, [s.x])[2][0],
                                             s.collapsed).log_seq_prob
                        for s in data])
    got = model.validation_score(state, data, "ctc")
    assert got == pytest.approx(expected, rel=1e-12)


def test_validation_score_framewise_is_mean_frame_log_probability():
    data = toy_data(n=4)
    spec = model.NetworkSpec(4, [8], 2)
    state = model.ModelState(spec, seed=3)
    num, den = 0.0, 0
    for s in data:
        _, _, (log_y,), _ = model.forward_stacks(state, [s.x])
        cols = s.framewise - 1
        num += float(log_y[np.arange(len(cols)), cols].sum())
        den += len(cols)
    got = model.validation_score(state, data, "ce")
    assert got == pytest.approx(num / den, rel=1e-12)



@pytest.mark.parametrize("mode", ["ce", "ctc"])
def test_validation_score_sums_in_sample_order(mode, monkeypatch):
    # groups are scored in length order, but the terms must be added in
    # sample order to give the one-at-a-time sum bit for bit
    from tmfusion import ctc
    data = toy_data(n=150)
    spec = model.NetworkSpec(4, [8], 3 if mode == "ctc" else 2, recurrent=True)
    state = model.ModelState(spec, seed=3)
    total, frames = 0.0, 0
    for s in data:
        _, _, (log_y,), _ = model.forward_stacks(state, [s.x])
        if mode == "ctc":
            total += ctc.forward_backward(log_y, s.collapsed).log_seq_prob
        else:
            cols = s.framewise - 1
            total += float(log_y[np.arange(len(cols)), cols].sum())
            frames += len(cols)
    monkeypatch.setattr(model, "SCORE_GROUP", 8)
    # the sequence score needs log p alone: no beta rows are filled
    monkeypatch.setattr(ctc, "forward_backward_batch",
                        lambda *args: pytest.fail("validation ran the backward rows"))
    assert model.validation_score(state, data, mode) == total / (frames or len(data))


@pytest.mark.parametrize("mode", model.MODES)
def test_sequence_losses_equal_the_alignments_bitwise(mode):
    # validation and the gradient check score by the forward rows alone:
    # training's losses, on a padded batch of unequal lengths
    data = toy_data(n=6)
    assert len({len(s.x) for s in data}) > 1
    spec = model.NetworkSpec(4, [8], model.output_units(mode, 2), recurrent=True)
    state = model.ModelState(spec, seed=3)
    Ts, _, log_y, y = model.forward_stacks(state, [s.x for s in data])
    want, *_ = model._alignment(data, Ts, log_y, y, settings_for(mode, lam=0.1))
    assert model.sequence_losses(mode, data, Ts, log_y).tobytes() == want.tobytes()


# ------------------------------------------------------- full gradient check

def test_full_network_gradient_small_case():
    # one spot check of the whole chain here; the verification suites
    # sweep many more
    from tmfusion import verify
    err, n = verify.grad_full_suite(n=4, seed=123)
    assert n == 4
    assert err <= 1e-4


@pytest.mark.parametrize("mode", model.MODES)
def test_reported_loss_is_the_objective_of_the_gradient(mode):
    # a step's summed losses are CTC or CE + (lam/2) * ECL, the loss whose
    # gradient it returns and grad_full differentiates, not + lam * ECL
    from tmfusion import verify
    rng = np.random.default_rng(17)
    settings = model.TrainSettings(mode=mode, lam=0.1)
    spec = model.NetworkSpec(3, [4], model.output_units(mode, 2), recurrent=True)
    state = model.ModelState(spec, seed=5)
    bank = losses.CenterBank(2, spec.feature_dim)
    bank.centers = rng.normal(size=bank.centers.shape)
    batch = verify._random_batch(rng, mode, 2, 3)
    seq_losses, _, _ = model._batch_step(state, batch, settings, bank)
    want = verify.network_loss(state, state.flat_params()[None], batch, settings, bank)
    assert len(seq_losses) == 2
    assert sum(seq_losses) == pytest.approx(want[0], rel=1e-12, abs=0)
