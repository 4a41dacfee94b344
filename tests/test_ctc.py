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

def blank_extended(labels, T=5, K=4):
    """The z' of the lattice over labels, from a (T, K) posterior."""
    return ctc.forward_backward(np.log(np.full((T, K), 1.0 / K)), labels).zp


def test_extend_with_blanks_two_labels():
    np.testing.assert_array_equal(blank_extended([1, 2]), [0, 1, 0, 2, 0])


def test_extend_with_blanks_empty():
    np.testing.assert_array_equal(blank_extended([]), [0])


def test_extend_with_blanks_repeat():
    np.testing.assert_array_equal(blank_extended([1, 1]), [0, 1, 0, 1, 0])


def test_extend_with_blanks_rejects_blank_label():
    # the lattice's label range check rejects the blank index
    with pytest.raises(ValueError, match="out of range"):
        blank_extended([1, 0, 2])


def test_min_frames_counts_repeat_separators():
    assert ctc.min_frames(np.array([])) == 1
    assert ctc.min_frames(np.array([1, 2, 3])) == 3
    assert ctc.min_frames(np.array([1, 1])) == 3
    assert ctc.min_frames(np.array([2, 2, 2])) == 5


# ---------------------------------------------------------- forward-backward

def test_single_frame_single_label_likelihood():
    # only one path exists: emit the label at the only frame
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
    assert tables.log_seq_prob == pytest.approx(math.log(0.5), abs=1e-15)


def test_two_frame_uniform_likelihood():
    # three paths each carry 1/9: (1,1), (1,blank), (blank,1)
    y = np.full((2, 3), 1.0 / 3.0)
    tables = ctc.forward_backward(np.log(y), [1])
    assert np.exp(tables.log_seq_prob) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_empty_labeling_is_the_all_blank_path():
    rng = np.random.default_rng(7)
    y = rand_posteriors(rng, 2, 3)
    tables = ctc.forward_backward(np.log(y), [])
    assert np.exp(tables.log_seq_prob) == pytest.approx(y[0, 0] * y[1, 0],
                                                        rel=1e-12)


def test_infeasible_labeling_raises():
    y = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ctc.InfeasibleLabeling):
        ctc.forward_backward(np.log(y), [1, 2, 1])
    with pytest.raises(ctc.InfeasibleLabeling):
        # the repeat needs a separating blank frame
        ctc.forward_backward(np.log(y), [1, 1])


def test_log_probabilities_above_zero_rejected():
    # probabilities passed where log-probabilities belong are above 0;
    # 0.0 itself is a probability of one
    y = np.array([[0.2, 0.5, 0.3]])
    with pytest.raises(ValueError, match="must not exceed 0"):
        ctc.forward_backward(y, [1])
    log_y = np.log(y)
    log_y[0, 2] = 5e-324
    with pytest.raises(ValueError, match="must not exceed 0"):
        ctc.log_seq_probs(log_y[None], [1], [[1]])
    assert ctc.forward_backward([[-np.inf, 0.0]], [1]).log_seq_prob == 0.0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zero_probabilities_run_as_minus_infinity(data):
    # exact zeros in y are -inf log-probabilities: the lattice, the
    # occupancy and the gradient raise no floating-point error, and match
    # the path oracles, which multiply the zeros in
    K = data.draw(st.integers(2, 4))
    T = data.draw(st.integers(1, 5))
    labels = np.array(data.draw(st.lists(st.integers(1, K - 1), max_size=3)), dtype=np.intp)
    if ctc.min_frames(labels) > T:
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    y = rand_posteriors(rng, T, K)
    y[rng.random((T, K)) < data.draw(st.sampled_from([0.2, 0.5]))] = 0.0
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    p = oracle.brute_force_seq_prob(y, labels)
    with np.errstate(all="raise"):
        tables = ctc.forward_backward(log_y, labels)
        assert np.exp(tables.log_seq_prob) == pytest.approx(p, abs=1e-12)
        occ = oracle.brute_force_occupancy(y, labels)
        np.testing.assert_allclose(np.exp(tables.log_alpha + tables.log_beta), occ,
                                   rtol=0, atol=1e-12)
        if p > 0.0:
            np.testing.assert_allclose(ctc.occupancy(tables), occ / occ.sum(axis=1, keepdims=True),
                                       rtol=0, atol=1e-12)
            delta = ctc.ctc_grad_logits(tables, y)
            assert np.isfinite(delta).all()
            # the occupancy ratio of each frame sums to one
            np.testing.assert_allclose(delta.sum(axis=1), y.sum(axis=1) - 1.0, rtol=0, atol=1e-12)
        else:
            with pytest.raises(ctc.DegenerateFrame):
                ctc.ctc_grad_logits(tables, y)
            with pytest.raises(ctc.DegenerateFrame):
                ctc.occupancy(tables)


def test_zero_probability_on_every_feasible_cell_of_a_frame_is_degenerate():
    # frame 1 can only sit at the blank or the label, both of probability 0
    y = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    with np.errstate(all="raise"):
        tables = ctc.forward_backward(log_y, [1])
        assert tables.log_seq_prob == -np.inf
        with pytest.raises(ctc.DegenerateFrame, match="at frame"):
            ctc.ctc_grad_logits(tables, y)


def test_out_of_range_labels_rejected():
    y = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        ctc.forward_backward(np.log(y), [3])


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
        tables = ctc.forward_backward(np.log(y), z)
        stack = tables.log_alpha + tables.log_beta - np.log(y)[:, tables.zp]
        for t in range(T):
            row = stack[t]
            lse = np.logaddexp.reduce(row[np.isfinite(row)])
            assert lse == pytest.approx(tables.log_seq_prob, abs=1e-8)


def test_alpha_band_is_minus_infinity():
    # at frame t the forward pass can have reached at most position 2t+1
    y = np.full((3, 3), 1.0 / 3.0)
    tables = ctc.forward_backward(np.log(y), [1, 2])
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
    dp = np.exp(ctc.forward_backward(np.log(y), labels).log_seq_prob)
    assert dp == pytest.approx(bf, abs=1e-12)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ctc.InfeasibleLabeling) as exc:
        return type(exc), str(exc)


def stacked(ys, fill=np.nan):
    """The (T_b, K) arrays as one left-aligned (B, T_max, K) stack whose
    padding frames hold fill, and their lengths."""
    Ts = [len(y) for y in ys]
    out = np.full((len(ys), max(Ts), ys[0].shape[1]), fill)
    for o, y in zip(out, ys):
        o[:len(y)] = y
    return out, Ts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_matches_per_sequence_bitwise(data):
    # ragged T (T=1 included), empty labels (S=1), repeated labels and
    # B=1 all occur; padding frames of the log-probabilities that hold
    # -inf, a value above 0 or NaN raise nothing and leave every real
    # cell bit for bit alone
    K = data.draw(st.integers(2, 4))
    B = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    ys, zs = [], []
    for _ in range(B):
        z = np.array(data.draw(st.lists(st.integers(1, K - 1), max_size=4)),
                     dtype=np.intp)
        T = data.draw(st.integers(ctc.min_frames(z), 9))
        ys.append(np.log(rand_posteriors(rng, T, K)))
        zs.append(z)
    y, Ts = stacked(ys, data.draw(st.sampled_from([-np.inf, 0.5, np.nan, -1.0])))
    with np.errstate(all="raise"):
        batch = ctc.forward_backward_batch(y, Ts, zs)
        log_probs = ctc.log_seq_probs(y, Ts, zs)
    S = 2 * max(len(z) for z in zs) + 1
    for table in (batch.log_alpha, batch.log_beta, batch.log_emissions):
        assert table.shape == (B, max(Ts), S)
    assert batch.zp.shape == (B, S) and batch.log_seq_prob.shape == (B,)
    for b, (yb, z) in enumerate(zip(ys, zs)):
        ref = ctc.forward_backward(yb, z)
        Tb, Sb = ref.log_alpha.shape
        assert (Tb, Sb) == (len(yb), 2 * len(z) + 1)
        for got, want in ((batch.log_alpha[b], ref.log_alpha),
                          (batch.log_beta[b], ref.log_beta)):
            assert np.array_equal(got[:Tb, :Sb], want)
            assert np.all(got[Tb:] == -np.inf) and np.all(got[:, Sb:] == -np.inf)
        assert batch.log_seq_prob[b] == ref.log_seq_prob == log_probs[b]
        assert np.array_equal(batch.zp[b, :Sb], ref.zp) and not batch.zp[b, Sb:].any()
        assert np.array_equal(batch.live[b], np.arange(max(Ts)) < Tb)
    empty = ctc.forward_backward_batch(np.zeros((0, 0, K)), [], [])
    assert empty.log_alpha.shape == (0, 0, 1) and empty.log_seq_prob.shape == (0,)

    # a bad pair at position b raises what the per-sequence call raises
    b = data.draw(st.integers(0, B - 1))
    fault = data.draw(st.sampled_from(["infeasible", "out_of_range", "above_0"]))
    if fault == "infeasible":
        zs[b] = np.ones(len(ys[b]) + 1, dtype=np.intp)
    elif fault == "out_of_range":
        zs[b] = np.array([K], dtype=np.intp)
    else:
        ys[b] = ys[b].copy()
        ys[b][data.draw(st.integers(0, len(ys[b]) - 1)), 0] = data.draw(
            st.sampled_from([5e-324, 0.5]))
    expected = _outcome(ctc.forward_backward, ys[b], zs[b])
    assert isinstance(expected, tuple)
    y, Ts = stacked(ys)
    assert _outcome(ctc.forward_backward_batch, y, Ts, zs) == expected
    assert _outcome(ctc.log_seq_probs, y, Ts, zs) == expected


def test_degenerate_frame_fires_only_on_a_live_frame():
    # the padding frames of a batch carry no alignment mass and raise
    # nothing; a live frame without mass names its frame
    y, Ts = stacked([np.full((4, 3), 1.0 / 3.0), np.full((2, 3), 1.0 / 3.0)])
    tables = ctc.forward_backward_batch(np.log(y), Ts, [[1, 2], [1]])
    assert np.array_equal(ctc.ctc_grad_logits(tables, y)[1, 2:], y[1, 2:], equal_nan=True)
    tables.log_alpha = tables.log_alpha.copy()
    tables.log_alpha[1, 1] = -np.inf
    with pytest.raises(ctc.DegenerateFrame, match="at frame 1"):
        ctc.ctc_grad_logits(tables, y)


def _two_table_lattice(ys, labels_list):
    """Reference: alpha and beta from two separate recursions, beta on
    right-aligned frames with its own pad columns, as the lattice ran
    before it shared one table.  Returns (alpha, beta, log p, z') per pair."""
    pairs = []
    for y, z in zip(ys, labels_list):
        z = np.asarray(z, dtype=np.intp)
        zp = np.zeros(2 * len(z) + 1, dtype=np.intp)
        zp[1::2] = z
        mask = np.full(len(zp) + 2, -np.inf)
        mask[3:len(zp):2][z[1:] != z[:-1]] = 0.0
        pairs.append((np.log(y)[:, zp], zp, mask))
    B = len(pairs)
    Ts = [len(lyz) for lyz, _, _ in pairs]
    Ss = [len(zp) for _, zp, _ in pairs]
    T, S = max(Ts), max(Ss)
    alpha = np.full((T, B, S + 2), -np.inf)
    beta = np.full((T, B, S + 2), -np.inf)
    skip = np.full((B, S + 2), -np.inf)
    for b, (lyz, _, mask) in enumerate(pairs):
        Tb, Sb = lyz.shape
        alpha[:Tb, b, 2:Sb + 2] = lyz
        beta[T - Tb:, b, :Sb] = lyz
        skip[b, :Sb + 2] = mask
    acc, tmp = np.empty((B, S)), np.empty((B, S))
    alpha[0, :, 4:] = -np.inf
    cur, back1, back2 = alpha[:, :, 2:], alpha[:, :, 1:-1], alpha[:, :, :-2]
    for c, p, p1, p2 in zip(cur[1:], cur[:-1], back1[:-1], back2[:-1]):
        np.logaddexp(p, p1, out=acc)
        np.logaddexp(acc, np.add(p2, skip[:, :S], out=tmp), out=acc)
        c += acc
    for b, Sb in enumerate(Ss):
        beta[T - 1, b, :max(Sb - 2, 0)] = -np.inf
    cur, ahead1, ahead2 = beta[:, :, :-2], beta[:, :, 1:-1], beta[:, :, 2:]
    for c, n, n1, n2 in zip(cur[-2::-1], cur[:0:-1], ahead1[:0:-1], ahead2[:0:-1]):
        np.logaddexp(n, n1, out=acc)
        np.logaddexp(acc, np.add(n2, skip[:, 2:], out=tmp), out=acc)
        c += acc
    out = []
    for b, ((_, zp, _), Tb, Sb) in enumerate(zip(pairs, Ts, Ss)):
        last = alpha[Tb - 1, b]
        out.append((alpha[:Tb, b, 2:Sb + 2], beta[T - Tb:, b, :Sb],
                    float(np.logaddexp(last[Sb + 1], last[Sb])), zp))
    return out


def _loop_grad_logits(alpha, beta, zp, y):
    """Reference: ctc_grad_logits with its per-position scatter loop."""
    log_mass = alpha + beta - np.log(y)[:, zp]
    peak = log_mass.max(axis=1)
    mass = np.exp(log_mass - peak[:, None])
    denom = mass.sum(axis=1)
    ratio = np.zeros(y.shape)
    for s, sym in enumerate(zp):
        ratio[:, sym] += mass[:, s]
    ratio /= denom[:, None]
    return y - ratio


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_matches_two_table_reference_bitwise(data):
    # up to 9 labels gives S up to 19, past the 8-way unrolled sums of
    # numpy's reductions; T = 1 and empty labelings (S = 1) occur too
    K = data.draw(st.integers(2, 6))
    B = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    ys, zs = [], []
    for _ in range(B):
        z = np.array(data.draw(st.lists(st.integers(1, K - 1), max_size=9)),
                     dtype=np.intp)
        T = data.draw(st.integers(ctc.min_frames(z), 22))
        ys.append(rand_posteriors(rng, T, K))
        zs.append(z)
    stack, Ts = stacked(ys)
    batch = ctc.forward_backward_batch(np.log(stack), Ts, zs)
    batch_grad = ctc.ctc_grad_logits(batch, stack)
    batch_occupancy = ctc.occupancy(batch)
    for b, (y, z, (alpha, beta, log_p, zp)) in enumerate(
            zip(ys, zs, _two_table_lattice(ys, zs))):
        Tb, Sb = alpha.shape
        assert np.array_equal(batch.log_alpha[b, :Tb, :Sb], alpha)
        assert np.array_equal(batch.log_beta[b, :Tb, :Sb], beta)
        assert batch.log_seq_prob[b] == log_p
        assert np.array_equal(batch.zp[b, :Sb], zp)
        # one pair alone keeps every bit of the reference; in the batch
        # the sums over positions run over S_max and may regroup
        got = ctc.forward_backward(np.log(y), z)
        grad = _loop_grad_logits(alpha, beta, zp, y)
        assert np.array_equal(ctc.ctc_grad_logits(got, y), grad)
        np.testing.assert_allclose(batch_grad[b, :Tb], grad, rtol=0, atol=1e-15)
        prod = alpha + beta
        scaled = np.exp(prod - prod.max(axis=1, keepdims=True))
        want = scaled / scaled.sum(axis=1, keepdims=True)
        assert np.array_equal(ctc.occupancy(got), want)
        np.testing.assert_allclose(batch_occupancy[b, :Tb, :Sb], want, rtol=1e-15, atol=0)
        assert not batch_occupancy[b, Tb:].any()
        assert not batch_occupancy[b, :, Sb:].any()


# ----------------------------------------------------------------- occupancy

def test_occupancy_single_path_literal_value():
    # alpha and beta both carry the emission at the single frame, so the
    # literal product at the label position is 0.5 * 0.5; the occupancy
    # divides it by its row's sum, the product alone
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
    literal = np.exp(tables.log_alpha + tables.log_beta)
    assert literal[0, 1] == pytest.approx(0.25, abs=1e-15)
    assert ctc.occupancy(tables).tolist() == [[0.0, 1.0, 0.0]]
    assert literal[0, 0] == 0.0
    assert literal[0, 2] == 0.0


def test_occupancy_frame_normalized_rows_sum_to_one():
    rng = np.random.default_rng(3)
    y = rand_posteriors(rng, 6, 4)
    tables = ctc.forward_backward(np.log(y), [1, 3, 2])
    gamma = ctc.occupancy(tables)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_occupancy_infeasible_cells_are_zero():
    rng = np.random.default_rng(4)
    y = rand_posteriors(rng, 3, 3)
    tables = ctc.forward_backward(np.log(y), [1, 2])
    gamma = ctc.occupancy(tables)
    # frame 0 cannot be past position 1, frame T-1 must be near the end
    assert gamma[0, 2] == 0.0
    assert gamma[0, 3] == 0.0
    assert gamma[0, 4] == 0.0
    assert gamma[2, 0] == 0.0
    assert (gamma >= 0.0).all()


def test_occupancy_frame_normalized_raises_on_a_dead_frame():
    # frame 1 of the second sequence can only sit at the blank or the
    # label, both of probability 0: no path survives, so every row of
    # that sequence is -inf with no peak to scale by.  Alone or next to a
    # live sequence in a padded batch, its first frame is named and no
    # -inf - -inf is evaluated
    dead = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    y, Ts = stacked([np.full((5, 3), 1.0 / 3.0), dead], fill=1.0 / 3.0)
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    with np.errstate(all="raise"):
        for tables in (ctc.forward_backward(log_y[1, :3], [1]),
                       ctc.forward_backward_batch(log_y, Ts, [[1, 2], [1]])):
            with pytest.raises(ctc.DegenerateFrame, match="at frame 0"):
                ctc.occupancy(tables)


# ------------------------------------------------------------------- ml loss
# the maximum-likelihood loss of one sequence is -log_seq_prob

def test_ml_loss_single_pair():
    y = np.array([[0.2, 0.5, 0.3]])
    loss = -ctc.forward_backward(np.log(y), [1]).log_seq_prob
    assert loss == pytest.approx(-math.log(0.5), abs=1e-15)


def test_ml_loss_uniform_two_frames():
    y = np.full((2, 3), 1.0 / 3.0)
    loss = -ctc.forward_backward(np.log(y), [1]).log_seq_prob
    assert loss == pytest.approx(math.log(3.0), abs=1e-12)


# ----------------------------------------------------------------- gradients

def test_grad_logits_single_frame_values():
    # the one existing path puts all occupancy on the label class
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
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
        tables = ctc.forward_backward(np.log(y), z)
        delta = ctc.ctc_grad_logits(tables, y)
        np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-9)


def test_grad_logits_matches_finite_differences():
    from tmfusion import model

    rng = np.random.default_rng(6)
    for _ in range(5):
        K, T = 3, 4
        z = np.array([1, 2])
        logits = rng.normal(size=(T, K))

        def loss_of(points):
            log_ys = [model.log_softmax(flat.reshape(T, K))[0] for flat in points]
            return [-ctc.forward_backward(log_y, z).log_seq_prob for log_y in log_ys]

        log_y, y = model.log_softmax(logits)
        tables = ctc.forward_backward(log_y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = oracle.finite_diff(loss_of, logits.ravel())
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(analytic - fd).max() / scale < 1e-6


def test_degenerate_frame_guard():
    # assemble tables whose mass vanished at one frame; the gradient
    # routine must flag it instead of dividing by zero
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
    tables.log_alpha = np.full_like(tables.log_alpha, -np.inf)
    with pytest.raises(ctc.DegenerateFrame):
        ctc.ctc_grad_logits(tables, y)
