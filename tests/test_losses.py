"""Unit tests for the loss functions, error signals, and center updates."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmfusion import ctc, losses, model, oracle, synth


def make_bank(num_classes, dim, rng=None, **kw):
    bank = losses.CenterBank(num_classes, dim, **kw)
    if rng is not None:
        bank.centers = rng.normal(size=bank.centers.shape)
    return bank


def single_frame_case():
    """The one-path alignment used across the worked examples: one frame,
    one label, and the weights alpha * beta, 0.25 at the label position."""
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
    return tables, np.exp(tables.log_alpha + tables.log_beta)


def lattice_weights(gamma, zp, bank):
    """Weights, labels and centers of the label positions of a
    blank-extended labeling: the sequence-mode arguments of the path."""
    labels = zp[1::2]
    return gamma[:, 1::2], labels, bank.gather(labels)


def onehot_weights(k, bank):
    """Weights one-hot over the runs of the frame labels k, the runs'
    labels and centers: the framewise-mode arguments of the path, as
    model.train builds them."""
    (w,), (labels,) = losses.frame_runs(k, [len(k)])
    return w, labels, bank.gather(labels)


def lattice_ecl(u, gamma, zp, bank):
    w, _, centers = lattice_weights(gamma, zp, bank)
    return losses.ecl(u, w, centers)


def lattice_ecl_grad(u, gamma, zp, bank):
    w, _, centers = lattice_weights(gamma, zp, bank)
    return losses.ecl_grad_features(u, w, centers)


def center_loss(u, k, bank):
    w, _, centers = onehot_weights(k, bank)
    return losses.ecl(u, w, centers)


def center_loss_grad(u, k, bank):
    w, _, centers = onehot_weights(k, bank)
    return losses.ecl_grad_features(u, w, centers)


def update_centers_framewise(bank, u, k):
    """The fmf center step: one-hot statistics, divided by 1 + count."""
    w, labels, centers = onehot_weights(k, bank)
    weights, sums = losses.center_stats(bank, u, w, labels, centers)
    return bank.step(sums, weights)


def update_centers_lattice(bank, u, gamma, zp):
    """The tmf center step of one sequence: the statistics of the label
    positions of its occupancy gamma over zp, not normalized."""
    _, sums = losses.center_stats(bank, u, *lattice_weights(gamma, zp, bank))
    return bank.step(sums)


# ------------------------------------------------ fusion settings (lam, mode)

def test_fusion_config_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lam:"):
        model.TrainSettings(lam=-0.1)


# --------------------------------------------------------------- center bank

def test_bank_has_no_blank_center():
    bank = losses.CenterBank(3, 2)
    with pytest.raises(losses.UnknownClass):
        bank.gather([0])
    with pytest.raises(losses.UnknownClass):
        bank.gather([4])


@pytest.mark.parametrize("threshold", [-0.5, 2.0])
def test_bank_rejects_threshold_outside_unit_interval(threshold):
    # weights lie in [0, 1]: above 1 the gate would drop every update
    with pytest.raises(ValueError, match="occupancy_threshold"):
        losses.CenterBank(2, 2, occupancy_threshold=threshold)


def test_bank_starts_at_zero():
    bank = losses.CenterBank(3, 4)
    np.testing.assert_array_equal(bank.centers, np.zeros((3, 4)))


def test_bank_copy_is_independent():
    bank = losses.CenterBank(2, 2)
    other = copy.deepcopy(bank)
    other.centers[0, 0] = 5.0
    assert bank.centers[0, 0] == 0.0


def test_bank_gather_orders_by_label():
    rng = np.random.default_rng(0)
    bank = make_bank(3, 2, rng)
    got = bank.gather([2, 1, 2])
    np.testing.assert_array_equal(got[0], bank.centers[1])
    np.testing.assert_array_equal(got[1], bank.centers[0])
    np.testing.assert_array_equal(got[2], bank.centers[1])


def test_bank_gather_rejects_blank():
    bank = losses.CenterBank(3, 2)
    with pytest.raises(losses.UnknownClass):
        bank.gather([1, 0])


# --------------------------------------------------------------- center loss

def test_center_loss_zero_at_centers():
    rng = np.random.default_rng(1)
    bank = make_bank(3, 4, rng)
    u = bank.gather([2, 3, 1])
    assert center_loss(u, [2, 3, 1], bank) == 0.0


def test_center_loss_unit_distance():
    bank = losses.CenterBank(1, 2)
    assert center_loss(np.array([[1.0, 0.0]]), [1], bank) == 1.0


def test_center_loss_sums_squared_distances():
    bank = losses.CenterBank(1, 2)
    u = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert center_loss(u, [1, 1], bank) == 5.0


def test_center_loss_gradient_factor_two():
    rng = np.random.default_rng(2)
    bank = make_bank(3, 3, rng)
    k = np.array([1, 3, 2, 2])
    u = rng.normal(size=(4, 3))

    def f(points):
        return [center_loss(flat.reshape(4, 3), k, bank) for flat in points]

    analytic = 2.0 * center_loss_grad(u, k, bank).ravel()
    fd = oracle.finite_diff(f, u.ravel())
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)


# ------------------------------------------------------------- cross entropy

def test_cross_entropy_perfect_prediction():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    # guard against log(0) on the unused entries
    y = np.clip(y, 1e-300, 1.0)
    assert losses.cross_entropy(np.log(y)[None], [0, 1], [2]) == [pytest.approx(0.0, abs=1e-12)]


def test_cross_entropy_uniform():
    y = np.full((7, 4), 0.25)
    assert losses.cross_entropy(np.log(y)[None], [0, 1, 2, 3, 0, 1, 2], [7]) == [pytest.approx(
        7 * math.log(4), rel=1e-12)]


def test_cross_entropy_quarter():
    y = np.array([[0.25, 0.75]])
    assert losses.cross_entropy(np.log(y)[None], [0], [1]) == [pytest.approx(math.log(4), rel=1e-12)]


def test_cross_entropy_of_a_padded_stack_matches_each_sequence_bitwise():
    # each sequence sums its own slice of one gathered NLL, whatever the
    # padding frames hold, and keeps the bits of the per-sequence sum
    rng = np.random.default_rng(14)
    Ts = [1, 9, 40, 17, 8, 130]
    ys = [model.log_softmax(rng.normal(size=(T, 5)))[0] for T in Ts]
    cols = [rng.integers(0, 5, T) for T in Ts]
    stack = np.log(rng.uniform(0.1, 1.0, (len(Ts), max(Ts), 5)))
    for b, y in enumerate(ys):
        stack[b, :len(y)] = y
    got = losses.cross_entropy(stack, np.concatenate(cols), Ts)
    assert got == [float((-y[np.arange(len(c)), c]).sum()) for y, c in zip(ys, cols)]
    for bad in (-1, 5):
        with pytest.raises(losses.UnknownClass):
            losses.cross_entropy(ys[1][None], [0] * 8 + [bad], [9])


# ---------------------------------------------------------------- fmf fusion

def sequence_loss(mode, lam, u, y, bank, framewise=None, tables=None):
    """The training loss of one sequence, as model.train sums it: the
    signal step of a batch of one, whose lattice (sequence modes) labels
    the sequence with the labels of ``tables``."""
    state = SimpleNamespace(params={"W": np.zeros((y.shape[1], u.shape[1]))})
    sample = SimpleNamespace(framewise=np.asarray(framewise),
                             collapsed=None if tables is None else tables.zp[1::2])
    return model._batch_signals(state, [sample], [len(y)], u[None], np.log(y)[None], y[None],
                                model.TrainSettings(mode=mode, lam=lam), bank)[0][0]


def test_fmf_equals_cross_entropy_at_lambda_zero():
    rng = np.random.default_rng(3)
    bank = make_bank(2, 3, rng)
    y = np.array([[0.7, 0.3], [0.4, 0.6]])
    u = rng.normal(size=(2, 3))
    assert [sequence_loss("fmf", 0.0, u, y, bank, framewise=[1, 2])] == \
        losses.cross_entropy(np.log(y)[None], [0, 1], [2])


def test_fmf_arithmetic():
    bank = losses.CenterBank(2, 2)
    y = np.array([[math.exp(-1.0), 1.0]])          # CE term contributes 1.0
    u = np.array([[1.0, 2.0]])                     # CL term contributes 5.0
    # the reported loss is the objective of the gradient, CE + (lam/2) * ECL
    got = sequence_loss("fmf", 0.5, u, y, bank, framewise=[1])
    assert got == pytest.approx(1.0 + 0.25 * 5.0, rel=1e-12)


def brute_force_frame_runs(ks):
    """frame_runs by a loop over each sequence's frames: a run opens at
    frame 0 and wherever the label changes."""
    runs = []
    for k in ks:
        opens = [t for t in range(len(k)) if t == 0 or k[t] != k[t - 1]]
        runs.append(list(zip(opens, opens[1:] + [len(k)])))
    B, T, r = len(ks), max(map(len, ks)), max(map(len, runs))
    w, labels = np.zeros((B, T, r)), np.zeros((B, r), dtype=np.intp)
    for b, (k, spans) in enumerate(zip(ks, runs)):
        for i, (start, end) in enumerate(spans):
            labels[b, i] = k[start]
            for t in range(start, end):
                w[b, t, i] = 1.0
    return w, labels


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=9), min_size=1, max_size=4))
@example([[2]])                          # T = 1
@example([[3, 3, 3, 3]])                 # one run
@example([[1, 2, 1, 1, 2]])              # classes that recur in non-adjacent runs
@example([[1, 1, 2], [3], [2, 1, 2, 3, 3, 1]])      # unequal lengths, padded
def test_frame_runs_matches_a_brute_force_loop(ks):
    w, labels = losses.frame_runs(np.concatenate(ks), [len(k) for k in ks])
    want_w, want_labels = brute_force_frame_runs(ks)
    assert w.dtype == want_w.dtype and labels.dtype == want_labels.dtype
    # bytes: the padding is exactly +0 weight and label 0
    assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()
    assert labels.shape == want_labels.shape and labels.tobytes() == want_labels.tobytes()
    for b, k in enumerate(ks):
        r = np.count_nonzero(labels[b])
        assert np.array_equal(w[b, :len(k)].sum(axis=1), np.ones(len(k)))
        assert not w[b, len(k):].any() and not w[b, :, r:].any() and not labels[b, r:].any()


# ----------------------------------------------------------------------- ecl

def test_ecl_zero_when_features_match_centers():
    rng = np.random.default_rng(4)
    tables, gamma = single_frame_case()
    bank = make_bank(2, 2, rng)
    u = bank.centers[0][None, :]
    assert lattice_ecl(u, gamma, tables.zp, bank) == pytest.approx(0.0)


def test_ecl_single_frame_hand_value():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2)
    u = np.array([[1.0, 0.0]])
    assert lattice_ecl(u, gamma, tables.zp, bank) == pytest.approx(0.25)


def test_ecl_linear_in_occupancy():
    rng = np.random.default_rng(5)
    y = rng.uniform(0.1, 1.0, (4, 3))
    y /= y.sum(axis=1, keepdims=True)
    tables = ctc.forward_backward(np.log(y), [1, 2])
    gamma = np.exp(tables.log_alpha + tables.log_beta)
    bank = make_bank(2, 3, rng)
    u = rng.normal(size=(4, 3))
    one = lattice_ecl(u, gamma, tables.zp, bank)
    two = lattice_ecl(u, 2.0 * gamma, tables.zp, bank)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_ecl_ignores_blank_occupancy():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2)
    u = np.array([[1.0, 0.0]])
    base = lattice_ecl(u, gamma, tables.zp, bank)
    spiked = gamma.copy()
    spiked[:, 0::2] += 7.0                         # blank positions only
    assert lattice_ecl(u, spiked, tables.zp, bank) == pytest.approx(base)


def test_ecl_empty_labeling_is_zero():
    y = np.array([[0.9, 0.1]])
    tables = ctc.forward_backward(np.log(y), [])
    gamma = np.exp(tables.log_alpha + tables.log_beta)
    bank = losses.CenterBank(1, 2)
    assert lattice_ecl(np.ones((1, 2)), gamma, tables.zp, bank) == 0.0


# ---------------------------------------------------------------- tmf fusion

def test_tmf_equals_ml_at_lambda_zero():
    tables, _ = single_frame_case()
    y = np.array([[0.2, 0.5, 0.3]])
    u = np.array([[1.0, 0.0]])
    bank = losses.CenterBank(2, 2)
    assert sequence_loss("tmf", 0.0, u, y, bank, tables=tables) == \
        -tables.log_seq_prob


def test_tmf_arithmetic():
    # ML term -log 0.5, ECL term 1 (the single-frame worked example, whose
    # one occupancy row is all on the label), weighed lam/2 as in the
    # objective of the gradient
    tables, _ = single_frame_case()
    y = np.array([[0.2, 0.5, 0.3]])
    u = np.array([[1.0, 0.0]])
    bank = losses.CenterBank(2, 2)
    got = sequence_loss("tmf", 1e-3, u, y, bank, tables=tables)
    assert got == pytest.approx(math.log(2.0) + 0.5e-3 * 1.0, rel=1e-12)


# --------------------------------------------------------- feature gradients

def test_ecl_grad_zero_at_centers():
    rng = np.random.default_rng(6)
    tables, gamma = single_frame_case()
    bank = make_bank(2, 2, rng)
    u = bank.centers[0][None, :]
    np.testing.assert_allclose(
        lattice_ecl_grad(u, gamma, tables.zp, bank),
        np.zeros((1, 2)), atol=1e-15)


def test_ecl_grad_single_frame_hand_value():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2)
    u = np.array([[1.0, 0.0]])
    delta = lattice_ecl_grad(u, gamma, tables.zp, bank)
    np.testing.assert_allclose(delta, [[0.25, 0.0]], atol=1e-15)


def test_ecl_grad_factor_two_versus_finite_differences():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.1, 1.0, (5, 4))
    y /= y.sum(axis=1, keepdims=True)
    tables = ctc.forward_backward(np.log(y), [2, 1, 3])
    gamma = np.exp(tables.log_alpha + tables.log_beta)
    bank = make_bank(3, 3, rng)
    u = rng.normal(size=(5, 3))

    def f(points):
        return [lattice_ecl(flat.reshape(5, 3), gamma, tables.zp, bank)
                for flat in points]

    analytic = 2.0 * lattice_ecl_grad(u, gamma, tables.zp, bank).ravel()
    fd = oracle.finite_diff(f, u.ravel())
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)


def fused_signal(mode, lam, W=None):
    """delta_fused of ``model._batch_signals`` for a padded batch of three
    sequences of unequal lengths, with W as the output weights if given,
    and what it is built from: the (B, T_max, D) stack W^T delta_ml, the
    features u, the ECL weights w and the centers of their positions."""
    rng = np.random.default_rng(8)
    batch = synth.generate(synth.GeneratorConfig(num_classes=2, feature_dim=3,
                                                 segment_length=(1, 3),
                                                 labels_per_sequence=(1, 3), seed=8), 3)
    assert len({len(s.x) for s in batch}) == 3
    state = model.ModelState(model.NetworkSpec(3, [4], model.output_units(mode, 2)), seed=8)
    if W is not None:
        state.params["W"][...] = W
    bank = make_bank(2, 4, rng)
    settings = model.TrainSettings(mode=mode, lam=lam)
    Ts, stacks, log_y, y = model.forward_stacks(state, [s.x for s in batch])
    _, delta_ml, delta_fused, _ = model._batch_signals(state, batch, Ts, stacks[-1], log_y, y,
                                                       settings, bank)
    _, _, w, labels = model._alignment(batch, Ts, log_y, y, settings)
    base = model._rows_product(delta_ml, state.params["W"], Ts)
    return delta_fused, base, stacks[-1], w, bank.centers[labels - 1]


def test_fuse_lambda_zero_is_pure_backprop():
    # the ECL signal is not added at all, so not even a -0 turns into +0
    for mode in model.FUSION_MODES:
        delta_fused, base, *_ = fused_signal(mode, 0.0)
        assert delta_fused.tobytes() == base.tobytes()


def test_fuse_passes_center_signal_through():
    for mode in model.FUSION_MODES:
        W = np.zeros((model.output_units(mode, 2), 4))
        delta_fused, base, u, w, centers = fused_signal(mode, 1.0, W)
        assert not base.any()
        np.testing.assert_array_equal(delta_fused, losses.ecl_grad_features(u, w, centers))


def test_fuse_linear_in_lambda():
    for mode in model.FUSION_MODES:
        one, base, u, w, centers = fused_signal(mode, 0.3)
        two, *_ = fused_signal(mode, 0.6)
        delta_ecl = losses.ecl_grad_features(u, w, centers)
        assert one.tobytes() == (base + 0.3 * delta_ecl).tobytes()
        np.testing.assert_allclose(two - base, 2.0 * (one - base), rtol=1e-12)


# ------------------------------------------------------- temporal center rule

def test_center_update_fixed_point():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2)
    bank.centers[0] = [3.0, -1.0]
    u = np.tile(bank.centers[0], (1, 1))
    updated = update_centers_lattice(bank, u, gamma, tables.zp)
    np.testing.assert_array_equal(updated.centers, bank.centers)


def test_center_update_gated_off_below_threshold():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2, occupancy_threshold=0.5)
    u = np.array([[1.0, 0.0]])
    # the only weight is 0.25 < 0.5, so nothing moves
    updated = update_centers_lattice(bank, u, gamma, tables.zp)
    np.testing.assert_array_equal(updated.centers, bank.centers)


def test_center_update_single_frame_hand_value():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2, momentum=1e-3)
    u = np.array([[1.0, 0.0]])
    updated = update_centers_lattice(bank, u, gamma, tables.zp)
    # step = momentum * gamma * (c - u) = 1e-3 * 0.25 * (-1, 0)
    np.testing.assert_allclose(updated.centers[0], [0.00025, 0.0], atol=1e-18)
    np.testing.assert_array_equal(updated.centers[1], [0.0, 0.0])


def test_center_update_gates_each_term_separately():
    # two frames hold occupancy for the same label, one above and one
    # below the threshold; only the strong frame contributes
    zp = np.array([0, 1, 0], dtype=np.intp)
    gamma = np.array([[0.0, 0.5, 0.0],
                      [0.0, 0.001, 0.0]])
    bank = losses.CenterBank(1, 1, momentum=1.0, occupancy_threshold=0.01)
    u = np.array([[2.0], [100.0]])
    updated = update_centers_lattice(bank, u, gamma, zp)
    np.testing.assert_allclose(updated.centers[0], [0.5 * 2.0], atol=1e-15)


def test_center_update_never_touches_blank():
    tables, gamma = single_frame_case()
    bank = losses.CenterBank(2, 2)
    updated = update_centers_lattice(bank, np.ones((1, 2)), gamma, tables.zp)
    assert updated.centers.shape == (2, 2)
    with pytest.raises(losses.UnknownClass):
        updated.gather([0])


def test_center_step_descends_on_ecl():
    # with frozen features and occupancy a center step must not increase
    # the expected center loss
    rng = np.random.default_rng(10)
    for _ in range(10):
        y = rng.uniform(0.1, 1.0, (5, 4))
        y /= y.sum(axis=1, keepdims=True)
        tables = ctc.forward_backward(np.log(y), [1, 3])
        gamma = np.exp(tables.log_alpha + tables.log_beta)
        bank = make_bank(3, 3, rng, momentum=0.05, occupancy_threshold=0.0)
        u = rng.normal(size=(5, 3))
        before = lattice_ecl(u, gamma, tables.zp, bank)
        updated = update_centers_lattice(bank, u, gamma, tables.zp)
        after = lattice_ecl(u, gamma, tables.zp, updated)
        assert after <= before + 1e-12


# ------------------------------------------------------ framewise center rule

def test_framewise_update_skips_absent_classes():
    rng = np.random.default_rng(11)
    bank = make_bank(3, 2, rng)
    u = rng.normal(size=(4, 2))
    updated = update_centers_framewise(bank, u, [1, 1, 2, 1])
    np.testing.assert_array_equal(updated.centers[2], bank.centers[2])
    assert not np.array_equal(updated.centers[0], bank.centers[0])


def test_framewise_update_fixed_point():
    rng = np.random.default_rng(12)
    bank = make_bank(2, 3, rng)
    u = bank.gather([2, 2, 1])
    updated = update_centers_framewise(bank, u, [2, 2, 1])
    np.testing.assert_array_equal(updated.centers, bank.centers)


def test_framewise_update_single_frame_hand_value():
    bank = losses.CenterBank(1, 2, momentum=0.5)
    updated = update_centers_framewise(bank, np.array([[2.0, 0.0]]), [1])
    # (c - u) summed is (-2, 0); divided by 1 + count = 2; scaled by 0.5
    np.testing.assert_allclose(updated.centers[0], [0.5, 0.0], atol=1e-15)


def test_framewise_update_count_normalization():
    bank = losses.CenterBank(1, 1, momentum=1.0)
    u = np.array([[3.0], [3.0], [3.0]])
    updated = update_centers_framewise(bank, u, [1, 1, 1])
    # sum of (c - u) is -9, divided by 1 + 3
    np.testing.assert_allclose(updated.centers[0], [2.25], atol=1e-15)


def test_framewise_update_rejects_unknown_class():
    # a frame label outside 1..C must not wrap around to another class
    bank = losses.CenterBank(2, 2)
    y = np.array([[0.5, 0.5]])
    for mode in ("fmf", "ce"):
        for label in (3, 0):
            with pytest.raises(losses.UnknownClass):
                sequence_loss(mode, 0.5, np.zeros((1, 2)), y, bank,
                              framewise=[label])


# ----------------------------------------------------------- collapse hazard

def test_center_loss_alone_collapses_without_separating_pressure():
    # with nothing but the center attraction, features and centers drift
    # to a common point: the loss heads to zero while the centers stay
    # coincident, which is exactly why the losses are fused
    rng = np.random.default_rng(13)
    bank = losses.CenterBank(3, 2, momentum=0.01)
    u = rng.normal(size=(30, 2))
    k = rng.integers(1, 4, 30)
    initial = center_loss(u, k, bank)
    initial_spread = np.abs(u - u.mean(axis=0)).max()
    for _ in range(300):
        u = u - 0.1 * 2.0 * center_loss_grad(u, k, bank)
        bank = update_centers_framewise(bank, u, k)
    final = center_loss(u, k, bank)
    assert final < 1e-3 * initial
    spread = np.abs(bank.centers - bank.centers.mean(axis=0)).max()
    assert spread < 0.05 * initial_spread


# ------------------------------------- one path equals the two it replaced
#
# The framewise center loss and the ECL used to be two stacks of code.
# Below is a copy of both, as they were, and the unified path must give
# the same numbers: bit for bit on the sequence side, and on the
# framewise side wherever no sum changed its order.

class parent:
    """The two center-loss stacks before they became one path."""

    @staticmethod
    def ecl(u, gamma, zp, bank):
        labels = zp[1::2]
        if len(labels) == 0:
            return 0.0
        d = u[:, None, :] - bank.gather(labels)[None, :, :]
        return float((gamma[:, 1::2] * (d * d).sum(axis=2)).sum())

    @staticmethod
    def ecl_grad_features(u, gamma, zp, bank):
        labels = zp[1::2]
        if len(labels) == 0:
            return np.zeros_like(u)
        w = gamma[:, 1::2]
        return w.sum(axis=1)[:, None] * u - w @ bank.gather(labels)

    @staticmethod
    def center_delta_tmf(bank, u, gamma, zp):
        deltas = {}
        for i, label in enumerate(zp[1::2]):
            label = int(label)
            w = gamma[:, 2 * i + 1]
            live = w >= bank.occupancy_threshold
            if not live.any():
                continue
            wl = w[live]
            d = wl.sum() * bank.centers[label - 1] - wl @ u[live]
            deltas[label] = deltas.get(label, 0.0) + d
        return deltas

    @staticmethod
    def center_loss(u, k, bank):
        d = u - bank.gather(k)
        return float((d * d).sum())

    @staticmethod
    def cl_grad_features(u, k, bank):
        return u - bank.gather(k)

    @staticmethod
    def center_delta_framewise(bank, u, k):
        sums, counts = {}, {}
        for label in np.unique(k):
            label = int(label)
            mask = k == label
            n = int(mask.sum())
            sums[label] = n * bank.centers[label - 1] - u[mask].sum(axis=0)
            counts[label] = n
        return sums, counts

    @staticmethod
    def step(bank, deltas):
        out = copy.deepcopy(bank)
        for label, delta in deltas.items():
            out.centers[label - 1] = bank.centers[label - 1] - bank.momentum * delta
        return out

    @staticmethod
    def apply_center_updates(bank, pieces, mode):
        if mode == "tmf":
            total = {}
            for piece in pieces:
                for j, d in piece.items():
                    total[j] = total.get(j, 0.0) + d
            return parent.step(bank, total)
        sums, counts = {}, {}
        for piece_sums, piece_counts in pieces:
            for j in piece_sums:
                sums[j] = sums.get(j, 0.0) + piece_sums[j]
                counts[j] = counts.get(j, 0) + piece_counts[j]
        return parent.step(bank, {j: sums[j] / (1.0 + counts[j]) for j in sums})


def as_arrays(deltas, bank):
    out = np.zeros((bank.num_classes, bank.dim))
    for label, d in deltas.items():
        out[label - 1] = d
    return out


def padded_batch(pieces, fill=7.0):
    """Per-sequence (u, w, labels, centers) as one padded batch: frames
    past T_b hold fill in u and weight 0, positions past r_b label 0."""
    Ts = [len(u) for u, *_ in pieces]
    rs = [w.shape[1] for _, w, *_ in pieces]
    B, T, r, D = len(pieces), max(Ts), max(rs), pieces[0][0].shape[1]
    u, w = np.full((B, T, D), fill), np.zeros((B, T, r))
    labels, centers = np.zeros((B, r), dtype=np.intp), np.zeros((B, r, D))
    for b, (ub, wb, lb, cb) in enumerate(pieces):
        u[b, :len(ub)], w[b, :len(ub), :wb.shape[1]] = ub, wb
        labels[b, :len(lb)], centers[b, :len(cb)] = lb, cb
    return u, w, labels, centers


def draw_bank(data, rng, C, D):
    threshold = data.draw(st.sampled_from([0.0, 0.01, 0.25, 0.5, 1.0]))
    bank = losses.CenterBank(C, D, momentum=data.draw(st.sampled_from([1e-3, 0.5])),
                             occupancy_threshold=threshold)
    bank.centers = rng.normal(size=(C, D))
    return bank


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_path_matches_the_ecl_stack_bitwise(data):
    C = data.draw(st.integers(1, 4))
    D = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    bank = draw_bank(data, rng, C, D)
    pieces, inputs = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        # ragged T and r, repeated labels, empty labelings, and weights
        # at the threshold, at zero and above one
        T = data.draw(st.integers(1, 7))
        z = np.array(data.draw(st.lists(st.integers(1, C), max_size=4)),
                     dtype=np.intp)
        zp = np.zeros(2 * len(z) + 1, dtype=np.intp)   # z' = (0, z1, 0, ..., 0)
        zp[1::2] = z
        gamma = rng.uniform(0.0, 1.0, (T, len(zp)))
        kind = rng.integers(0, 4, gamma.shape)
        gamma[kind == 0] = bank.occupancy_threshold
        gamma[kind == 1] = 0.0
        gamma[kind == 2] *= data.draw(st.sampled_from([1.0, 3.0]))
        u = rng.normal(size=(T, D))
        w, labels, centers = lattice_weights(gamma, zp, bank)

        assert losses.ecl(u, w, centers) == parent.ecl(u, gamma, zp, bank)
        assert np.array_equal(losses.ecl_grad_features(u, w, centers),
                              parent.ecl_grad_features(u, gamma, zp, bank))
        # one gated product over all frames replaced a product over the
        # gated frames, which moves the last bits of the sums
        weights, sums = losses.center_stats(bank, u, w, labels, centers)
        piece = parent.center_delta_tmf(bank, u, gamma, zp)
        np.testing.assert_allclose(sums, as_arrays(piece, bank), rtol=1e-12, atol=1e-12)
        mass = np.zeros(C)                 # the gated occupancy per class
        for i, label in enumerate(labels):
            col = gamma[:, 2 * i + 1]
            mass[label - 1] += col[col >= bank.occupancy_threshold].sum()
        assert np.array_equal(weights, mass)
        np.testing.assert_allclose(bank.step(sums).centers,
                                   parent.step(bank, piece).centers, rtol=1e-12, atol=1e-12)
        pieces.append(piece)
        inputs.append((u, w, labels, centers))
    _, sums = losses.center_stats(bank, *padded_batch(inputs))
    np.testing.assert_allclose(bank.step(sums).centers,
                               parent.apply_center_updates(bank, pieces, "tmf").centers,
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_onehot_path_matches_the_framewise_stack(data):
    C = data.draw(st.integers(1, 4))
    D = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    bank = draw_bank(data, rng, C, D)
    pieces, inputs = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        T = data.draw(st.integers(1, 9))
        k = np.array(data.draw(st.lists(st.integers(1, C), min_size=T, max_size=T)),
                     dtype=np.intp)
        u = rng.normal(size=(T, D))
        w, labels, centers = onehot_weights(k, bank)

        assert losses.ecl(u, w, centers) == pytest.approx(
            parent.center_loss(u, k, bank), rel=1e-12)
        assert np.array_equal(losses.ecl_grad_features(u, w, centers),
                              parent.cl_grad_features(u, k, bank))
        weights, sums = losses.center_stats(bank, u, w, labels, centers)
        piece = parent.center_delta_framewise(bank, u, k)
        assert np.array_equal(weights, as_arrays(
            {j: np.full(D, n) for j, n in piece[1].items()}, bank)[:, 0])
        np.testing.assert_allclose(sums, as_arrays(piece[0], bank),
                                   rtol=1e-12, atol=1e-12)
        single = parent.apply_center_updates(bank, [piece], "fmf")
        np.testing.assert_allclose(bank.step(sums, weights).centers, single.centers,
                                   rtol=1e-12, atol=1e-12)
        pieces.append(piece)
        inputs.append((u, w, labels, centers))
    weights, sums = losses.center_stats(bank, *padded_batch(inputs))
    np.testing.assert_allclose(
        bank.step(sums, weights).centers,
        parent.apply_center_updates(bank, pieces, "fmf").centers,
        rtol=1e-12, atol=1e-12)


# ------------------------------------------ center statistics, brute force

def brute_force_center_stats(bank, pieces):
    """The statistics of center_stats, term by term: a loop over each
    sequence's classes, positions and frames."""
    weights, sums = np.zeros(bank.num_classes), np.zeros((bank.num_classes, bank.dim))
    for u, w, labels in pieces:
        for j in range(1, bank.num_classes + 1):
            for i, label in enumerate(labels):
                for t in range(len(u)):
                    if label == j and w[t, i] >= bank.occupancy_threshold:
                        weights[j - 1] += w[t, i]
                        sums[j - 1] += w[t, i] * (bank.centers[j - 1] - u[t])
    return weights, sums


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_center_stats_matches_a_brute_force_loop(data):
    # both modes, one sequence alone and a padded batch, thresholds at
    # both ends of [0, 1], repeated labels, classes that get no weight
    mode = data.draw(st.sampled_from(["tmf", "fmf"]))
    C, D = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    bank = make_bank(C, D, rng, occupancy_threshold=data.draw(st.sampled_from([0.0, 0.01, 1.0])))
    pieces = []
    for _ in range(data.draw(st.integers(1, 4))):
        T = data.draw(st.integers(1, 7))
        u = rng.normal(size=(T, D))
        if mode == "tmf":
            labels = np.array(data.draw(st.lists(st.integers(1, C), max_size=5)), dtype=np.intp)
            w = rng.uniform(0.0, 1.0, (T, len(labels)))
            kind = rng.integers(0, 4, w.shape)
            w[kind == 0], w[kind == 1], w[kind == 2] = bank.occupancy_threshold, 0.0, 1.0
        else:
            w, labels, _ = onehot_weights(rng.integers(1, C + 1, T), bank)
        pieces.append((u, w, labels))
    tol = dict(rtol=1e-12, atol=1e-12)
    for u, w, labels in pieces:
        got = losses.center_stats(bank, u, w, labels, bank.centers[labels - 1])
        for g, want in zip(got, brute_force_center_stats(bank, [(u, w, labels)])):
            np.testing.assert_allclose(g, want, **tol)
    u, w, labels, centers = padded_batch([(u, w, labels, bank.centers[labels - 1])
                                          for u, w, labels in pieces])
    got = losses.center_stats(bank, u, w, labels, centers)
    want = brute_force_center_stats(bank, pieces)
    for g, expected in zip(got, want):
        np.testing.assert_allclose(g, expected, **tol)
    absent = want[0] == 0.0
    assert not got[0][absent].any() and not got[1][absent].any()
