"""Unit tests for the log-space CTC dynamic programming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import ctc, oracle


def rand_posteriors(rng, T, K):
    y = rng.uniform(0.1, 1.0, (T, K))
    return y / y.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- expansion

def test_extend_with_blanks_two_labels():
    np.testing.assert_array_equal(ctc.extend_with_blanks([1, 2]),
                                  [0, 1, 0, 2, 0])


def test_extend_with_blanks_empty():
    np.testing.assert_array_equal(ctc.extend_with_blanks([]), [0])


def test_extend_with_blanks_repeat():
    np.testing.assert_array_equal(ctc.extend_with_blanks([1, 1]),
                                  [0, 1, 0, 1, 0])


def test_extend_with_blanks_rejects_blank_label():
    with pytest.raises(ValueError):
        ctc.extend_with_blanks([1, 0, 2])


def test_min_frames_counts_repeat_separators():
    assert ctc.min_frames(np.array([])) == 1
    assert ctc.min_frames(np.array([1, 2, 3])) == 3
    assert ctc.min_frames(np.array([1, 1])) == 3
    assert ctc.min_frames(np.array([2, 2, 2])) == 5


# ---------------------------------------------------------- forward-backward

def test_single_frame_single_label_likelihood():
    # only one path exists: emit the label at the only frame
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(y, [1])
    assert tables.log_seq_prob == pytest.approx(math.log(0.5), abs=1e-15)


def test_two_frame_uniform_likelihood():
    # three paths each carry 1/9: (1,1), (1,blank), (blank,1)
    y = np.full((2, 3), 1.0 / 3.0)
    tables = ctc.forward_backward(y, [1])
    assert np.exp(tables.log_seq_prob) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_empty_labeling_is_the_all_blank_path():
    rng = np.random.default_rng(7)
    y = rand_posteriors(rng, 2, 3)
    tables = ctc.forward_backward(y, [])
    assert np.exp(tables.log_seq_prob) == pytest.approx(y[0, 0] * y[1, 0],
                                                        rel=1e-12)


def test_infeasible_labeling_raises():
    y = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ctc.InfeasibleLabeling):
        ctc.forward_backward(y, [1, 2, 1])
    with pytest.raises(ctc.InfeasibleLabeling):
        # the repeat needs a separating blank frame
        ctc.forward_backward(y, [1, 1])


def test_nonpositive_posteriors_rejected():
    y = np.array([[0.0, 0.5, 0.5]])
    with pytest.raises(ctc.NonPositivePosterior):
        ctc.forward_backward(y, [1])
    assert issubclass(ctc.NonPositivePosterior, ValueError)


def test_out_of_range_labels_rejected():
    y = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        ctc.forward_backward(y, [3])


def test_forward_backward_consistency_identity():
    # summing alpha*beta with the emission divided out reproduces the
    # sequence probability at every frame
    rng = np.random.default_rng(11)
    for _ in range(25):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 8))
        z = rng.integers(1, K, int(rng.integers(0, 3)))
        if ctc.min_frames(z) > T:
            continue
        y = rand_posteriors(rng, T, K)
        tables = ctc.forward_backward(y, z)
        stack = tables.log_alpha + tables.log_beta - np.log(y)[:, tables.zp]
        for t in range(T):
            row = stack[t]
            lse = np.logaddexp.reduce(row[np.isfinite(row)])
            assert lse == pytest.approx(tables.log_seq_prob, abs=1e-8)


def test_alpha_band_is_minus_infinity():
    # at frame t the forward pass can have reached at most position 2t+1
    y = np.full((3, 3), 1.0 / 3.0)
    tables = ctc.forward_backward(y, [1, 2])
    assert tables.log_alpha[0, 2] == -np.inf
    assert tables.log_alpha[0, 3] == -np.inf
    assert np.isfinite(tables.log_alpha[0, 0])
    assert np.isfinite(tables.log_alpha[0, 1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dp_matches_path_enumeration(data):
    K = data.draw(st.integers(2, 4))
    T = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(0, min(3, T)))
    labels = np.array(data.draw(st.lists(st.integers(1, K - 1),
                                         min_size=r, max_size=r)),
                      dtype=np.intp)
    seed = data.draw(st.integers(0, 2 ** 16))
    y = rand_posteriors(np.random.default_rng(seed), T, K)
    bf = oracle.brute_force_seq_prob(y, labels)
    if ctc.min_frames(labels) > T:
        assert bf == 0.0
        return
    dp = np.exp(ctc.forward_backward(y, labels).log_seq_prob)
    assert dp == pytest.approx(bf, abs=1e-12)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ctc.InfeasibleLabeling) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_matches_per_sequence_bitwise(data):
    # ragged T (T=1 included), empty labels (S=1), repeated labels and
    # B=1 all occur; padding must leave every real cell bit for bit alone
    K = data.draw(st.integers(2, 4))
    B = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    ys, zs = [], []
    for _ in range(B):
        z = np.array(data.draw(st.lists(st.integers(1, K - 1), max_size=4)),
                     dtype=np.intp)
        T = data.draw(st.integers(ctc.min_frames(z), 9))
        ys.append(rand_posteriors(rng, T, K))
        zs.append(z)
    batch = ctc.forward_backward_batch(ys, zs)
    assert len(batch) == B
    for y, z, got in zip(ys, zs, batch):
        ref = ctc.forward_backward(y, z)
        assert got.log_alpha.shape == ref.log_alpha.shape == (len(y), 2 * len(z) + 1)
        assert np.array_equal(got.log_alpha, ref.log_alpha)
        assert np.array_equal(got.log_beta, ref.log_beta)
        assert got.log_seq_prob == ref.log_seq_prob
        np.testing.assert_array_equal(got.zp, ref.zp)

    assert ctc.forward_backward_batch([], []) == []

    # a bad pair at position b raises what the per-sequence call raises
    b = data.draw(st.integers(0, B - 1))
    fault = data.draw(st.sampled_from(["infeasible", "out_of_range", "nonpositive"]))
    if fault == "infeasible":
        zs[b] = np.ones(len(ys[b]) + 1, dtype=np.intp)
    elif fault == "out_of_range":
        zs[b] = np.array([K], dtype=np.intp)
    else:
        ys[b] = ys[b].copy()
        ys[b][0, 0] = 0.0
    expected = _outcome(ctc.forward_backward, ys[b], zs[b])
    assert isinstance(expected, tuple)
    assert _outcome(ctc.forward_backward_batch, ys, zs) == expected


# ----------------------------------------------------------------- occupancy

def test_occupancy_single_path_literal_value():
    # alpha and beta both carry the emission at the single frame, so the
    # literal product at the label position is 0.5 * 0.5
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(y, [1])
    gamma = ctc.occupancy(tables, y, "paper_literal")
    assert gamma[0, 1] == pytest.approx(0.25, abs=1e-15)
    assert gamma[0, 0] == 0.0
    assert gamma[0, 2] == 0.0


def test_occupancy_frame_normalized_rows_sum_to_one():
    rng = np.random.default_rng(3)
    y = rand_posteriors(rng, 6, 4)
    tables = ctc.forward_backward(y, [1, 3, 2])
    gamma = ctc.occupancy(tables, y, "frame_normalized")
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_occupancy_infeasible_cells_are_zero():
    rng = np.random.default_rng(4)
    y = rand_posteriors(rng, 3, 3)
    tables = ctc.forward_backward(y, [1, 2])
    gamma = ctc.occupancy(tables, y, "paper_literal")
    # frame 0 cannot be past position 1, frame T-1 must be near the end
    assert gamma[0, 2] == 0.0
    assert gamma[0, 3] == 0.0
    assert gamma[0, 4] == 0.0
    assert gamma[2, 0] == 0.0
    assert (gamma >= 0.0).all()


def test_occupancy_rejects_unknown_mode():
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(y, [1])
    with pytest.raises(ValueError):
        ctc.occupancy(tables, y, "normalised")


# ------------------------------------------------------------------- ml loss

def test_ml_loss_single_pair():
    y = np.array([[0.2, 0.5, 0.3]])
    assert ctc.ml_loss([(y, [1])]) == pytest.approx(-math.log(0.5), abs=1e-15)


def test_ml_loss_sums_over_pairs():
    y = np.array([[0.2, 0.5, 0.3]])
    single = ctc.ml_loss([(y, [1])])
    double = ctc.ml_loss([(y, [1]), (y, [1])])
    assert double == pytest.approx(2.0 * single, abs=1e-15)


def test_ml_loss_uniform_two_frames():
    y = np.full((2, 3), 1.0 / 3.0)
    assert ctc.ml_loss([(y, [1])]) == pytest.approx(math.log(3.0), abs=1e-12)


# ----------------------------------------------------------------- gradients

def test_grad_logits_single_frame_values():
    # the one existing path puts all occupancy on the label class
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(y, [1])
    delta = ctc.ctc_grad_logits(tables, y)
    np.testing.assert_allclose(delta, [[0.2, -0.5, 0.3]], atol=1e-15)


def test_grad_logits_rows_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 7))
        z = rng.integers(1, K, int(rng.integers(1, 3)))
        if ctc.min_frames(z) > T:
            continue
        y = rand_posteriors(rng, T, K)
        tables = ctc.forward_backward(y, z)
        delta = ctc.ctc_grad_logits(tables, y)
        np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-9)


def test_grad_logits_matches_finite_differences():
    from tmfusion import model

    rng = np.random.default_rng(6)
    for _ in range(5):
        K, T = 3, 4
        z = np.array([1, 2])
        logits = rng.normal(size=(T, K))

        def loss_of(flat):
            y = model.softmax(flat.reshape(T, K))
            return -ctc.forward_backward(y, z).log_seq_prob

        y = model.softmax(logits)
        tables = ctc.forward_backward(y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = oracle.finite_diff(loss_of, logits.ravel())
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(analytic - fd).max() / scale < 1e-6


def test_degenerate_frame_guard():
    # assemble tables whose mass vanished at one frame; the gradient
    # routine must flag it instead of dividing by zero
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(y, [1])
    tables.log_alpha = np.full_like(tables.log_alpha, -np.inf)
    with pytest.raises(ctc.DegenerateFrame):
        ctc.ctc_grad_logits(tables, y)
