"""The brute-force references are themselves checked here, on cases small
enough to verify by hand, before anything else trusts them."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmfusion import ctc, losses, metrics, model, oracle, verify


def rand_posteriors(rng, T, K):
    y = rng.uniform(0.1, 1.0, (T, K))
    return y / y.sum(axis=1, keepdims=True)


# ------------------------------------------------------------------ collapse

def collapse(path):
    return tuple(metrics.collapse(np.array(path, dtype=int)))


def test_collapse_merges_then_drops_blanks():
    assert collapse((0, 1, 1, 0, 2)) == (1, 2)
    assert collapse((0, 0, 0)) == ()
    assert collapse((1, 0, 1)) == (1, 1)
    assert collapse((1, 1, 1)) == (1,)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_collapse_matches_two_step_reference(path):
    merged = [c for i, c in enumerate(path) if i == 0 or c != path[i - 1]]
    expected = tuple(c for c in merged if c != 0)
    assert collapse(path) == expected
    assert 0 not in expected


# ---------------------------------------------------------------- seq prob

def test_seq_prob_single_frame():
    y = np.array([[0.2, 0.5, 0.3]])
    assert oracle.brute_force_seq_prob(y, (1,)) == pytest.approx(0.5)


def test_seq_prob_uniform_two_frames_by_hand():
    # of the 9 equally likely paths exactly (1,1), (1,0), (0,1) collapse
    # to the single label, so the total is 3/9
    y = np.full((2, 3), 1.0 / 3.0)
    assert oracle.brute_force_seq_prob(y, (1,)) == pytest.approx(1.0 / 3.0)


def test_seq_prob_unrepresentable_labeling_is_zero():
    y = np.full((2, 3), 1.0 / 3.0)
    assert oracle.brute_force_seq_prob(y, (1, 2, 1)) == 0.0


def test_path_probabilities_partition():
    # summing over every labeling includes every path exactly once
    rng = np.random.default_rng(0)
    y = rand_posteriors(rng, 4, 3)
    total = sum(oracle.brute_force_seq_prob(y, z)
                for z in oracle.all_label_sequences(2, 4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_size_guard():
    y = np.full((30, 4), 0.25)
    with pytest.raises(oracle.TooLarge):
        oracle.brute_force_seq_prob(y, (1,))


# ------------------------------------------------ array oracles vs path loops

def loop_seq_prob(y, z):
    """The one-path-at-a-time enumeration the array oracle replaced."""
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    z = tuple(int(c) for c in z)
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        if collapse(path) == z:
            p = 1.0
            for t, c in enumerate(path):
                p *= y[t, c]
            total += p
    return total


def loop_walk_positions(path, target):
    positions = []
    cur = 0 if path[0] == 0 else 1
    positions.append(cur)
    for t in range(1, len(path)):
        a, b = path[t - 1], path[t]
        if b == a:
            pass
        elif b == 0:
            cur += 1
        elif a == 0:
            cur += 1
        else:
            cur += 2
        positions.append(cur)
    ext_len = 2 * len(target) + 1
    assert cur in (ext_len - 1, max(ext_len - 2, 0))
    return positions


def loop_occupancy(y, z):
    """The one-path-at-a-time occupancy the array oracle replaced."""
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    z = tuple(int(c) for c in z)
    ext = [0]
    for c in z:
        ext.extend((c, 0))
    occ = np.zeros((T, 2 * len(z) + 1))
    for path in itertools.product(range(K), repeat=T):
        if collapse(path) != z:
            continue
        p = 1.0
        for t, c in enumerate(path):
            p *= y[t, c]
        for t, s in enumerate(loop_walk_positions(path, z)):
            occ[t, s] += p * y[t, ext[s]]
    return occ


def loop_ecl(y, z, u, centers):
    """brute_force_ecl on loop_occupancy."""
    occ = loop_occupancy(y, z)
    occ = occ / occ.sum(axis=1, keepdims=True)
    total = 0.0
    for i, c in enumerate(z):
        d = u - np.asarray(centers[int(c)], dtype=float)
        total += float(occ[:, 2 * i + 1] @ (d * d).sum(axis=1))
    return total


def assert_oracles_match_loops(y, z):
    got = oracle.brute_force_seq_prob(y, z)
    assert type(got) is float and got == loop_seq_prob(y, z)
    got = oracle.brute_force_occupancy(y, z)
    want = loop_occupancy(y, z)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("block", [1, 5, 64, oracle.BLOCK_PATHS])
def test_array_oracles_equal_the_path_loop_bitwise(block, monkeypatch):
    # a block smaller than K**T splits the enumeration; the running sum
    # and each cell's sum carry across blocks in path order
    monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
    rng = np.random.default_rng(block)
    cases = [(1, 3, ()), (1, 3, (2,)), (1, 2, (1, 1)), (3, 2, ()), (3, 3, (1, 1)),
             (5, 3, (2, 2, 1)), (4, 3, (3,)), (2, 4, (1, 2, 3))]
    for _ in range(40):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(1, 7 if K < 4 else 6))
        z = rng.integers(1, K, int(rng.integers(0, 4)))
        if len(z) > 1 and rng.random() < 0.5:
            z[1] = z[0]
        cases.append((T, K, tuple(z)))
    for T, K, z in cases:
        assert_oracles_match_loops(rand_posteriors(rng, T, K), z)


def test_array_seq_prob_of_no_frames_is_the_empty_path():
    y = np.ones((0, 3))
    assert oracle.brute_force_seq_prob(y, ()) == loop_seq_prob(y, ()) == 1.0
    assert oracle.brute_force_seq_prob(y, (1,)) == loop_seq_prob(y, (1,)) == 0.0


def test_array_oracles_span_blocks_at_the_default_size():
    assert 2 ** 13 > oracle.BLOCK_PATHS
    rng = np.random.default_rng(5)
    y = rand_posteriors(rng, 13, 2)
    for z in [(1,), (1, 1, 1), (1, 1, 1, 1, 1, 1, 1)]:
        assert_oracles_match_loops(y, z)


# ---------------------------------------------------------------- occupancy

def test_occupancy_single_path_carries_double_emission():
    # the convention includes the frame's emission once in the path mass
    # and once more explicitly, matching the DP's stored product
    y = np.array([[0.2, 0.5, 0.3]])
    occ = oracle.brute_force_occupancy(y, (1,))
    assert occ.shape == (1, 3)
    assert occ[0, 1] == pytest.approx(0.5 * 0.5)
    assert occ[0, 0] == 0.0
    assert occ[0, 2] == 0.0


def test_occupancy_infeasible_cells_zero():
    rng = np.random.default_rng(1)
    y = rand_posteriors(rng, 3, 3)
    occ = oracle.brute_force_occupancy(y, (1, 2))
    assert occ[0, 3] == 0.0
    assert occ[0, 4] == 0.0
    assert occ[2, 0] == 0.0


def test_occupancy_all_blank_labeling():
    y = np.array([[0.6, 0.4], [0.7, 0.3]])
    occ = oracle.brute_force_occupancy(y, ())
    # the single all-blank path occupies position 0 at both frames
    assert occ[0, 0] == pytest.approx(0.6 * 0.7 * 0.6)
    assert occ[1, 0] == pytest.approx(0.6 * 0.7 * 0.7)


# --------------------------------------------------------------------- ecl

def test_ecl_zero_when_features_sit_on_centers():
    y = np.full((2, 3), 1.0 / 3.0)
    centers = {1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}
    u = np.tile(centers[1], (2, 1))
    assert oracle.brute_force_ecl(y, (1,), u, centers) == pytest.approx(0.0)


def test_ecl_single_path_hand_value():
    y = np.array([[0.2, 0.5, 0.3]])
    centers = {1: np.zeros(2), 2: np.ones(2)}
    u = np.array([[1.0, 0.0]])
    got = oracle.brute_force_ecl(y, (1,), u, centers)
    # the one frame's normalized row puts all its weight on the label
    assert got == pytest.approx(1.0)


def test_ecl_scales_with_distance_squared():
    y = np.array([[0.2, 0.5, 0.3]])
    centers = {1: np.zeros(2), 2: np.ones(2)}
    one = oracle.brute_force_ecl(y, (1,), np.array([[1.0, 0.0]]), centers)
    two = oracle.brute_force_ecl(y, (1,), np.array([[2.0, 0.0]]), centers)
    assert two == pytest.approx(4.0 * one)


# -------------------------------------------------------------- finite diff

def test_finite_diff_quadratic():
    grad = oracle.finite_diff(lambda points: (points * points).sum(axis=1),
                              np.array([1.0, 2.0]))
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant():
    grad = oracle.finite_diff(lambda points: np.full(len(points), 3.5),
                              np.array([1.0, -2.0, 0.3]))
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_finite_diff_product():
    grad = oracle.finite_diff(lambda points: points[:, 0] * points[:, 1],
                              np.array([3.0, 5.0]))
    np.testing.assert_allclose(grad, [5.0, 3.0], atol=1e-6)


def per_coordinate_finite_diff(f, x, epsilon=1e-6):
    """The one-point-at-a-time loop finite_diff's stacked points replace."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = epsilon
        grad.flat[i] = (f(x + step) - f(x - step)) / (2.0 * epsilon)
    return grad


def signed_wave(v):
    """A scalar that also reads the sign of each zero."""
    return sum((i + 1.5) * math.sin(a) + math.copysign(1e-3 * (i + 1), a)
               for i, a in enumerate(np.ravel(v).tolist()))


entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                    st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(st.one_of(entries.map(np.array),
                 st.lists(entries, min_size=1, max_size=7).map(np.array)),
       st.sampled_from([1e-6, 1e-4, 0.25, -1e-5]))
@example(np.array(-0.0), 1e-6)
@example(np.array([-0.0, 1.0]), -1e-5)
@example(np.array([0.0, -0.0, 3.0]), 1e-4)
def test_finite_diff_equals_per_coordinate_loop_bitwise(x, epsilon):
    def stacked(points):
        return [signed_wave(point.reshape(x.shape)) for point in points]

    got = oracle.finite_diff(stacked, x, epsilon)
    want = per_coordinate_finite_diff(signed_wave, x, epsilon)
    assert got.shape == want.shape == x.shape
    assert np.array_equal(got, want)


# ------------------------------------------------------------- enumeration

def test_all_label_sequences_counts():
    seqs = list(oracle.all_label_sequences(2, 3))
    # 1 empty + 2 + 4 + 8
    assert len(seqs) == 15
    assert len(set(seqs)) == 15
    assert all(all(1 <= c <= 2 for c in z) for z in seqs)


# ------------------------------------------ batched suites vs per-point loops

def per_point_partition_suite(n=20, K=3, T=5, seed=2):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        y = verify._random_posteriors(rng, T, K)
        total = 0.0
        for z in oracle.all_label_sequences(K - 1, T):
            if ctc.min_frames(np.array(z)) > T:
                continue
            total += np.exp(ctc.forward_backward(np.log(y), np.array(z)).log_seq_prob)
        worst = max(worst, abs(total - 1.0))
    return worst, n


def per_point_seq_prob_suite(n=200, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 7))
        y = verify._random_posteriors(rng, T, K)
        z = verify._random_labels(rng, K, T, 3)
        dp = np.exp(ctc.forward_backward(np.log(y), z).log_seq_prob)
        bf = loop_seq_prob(y, z)
        worst = max(worst, abs(dp - bf))
    return worst, n


def per_point_occupancy_suite(n=100, seed=1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 4))
        T = int(rng.integers(2, 6))
        y = verify._random_posteriors(rng, T, K)
        z = verify._random_labels(rng, K, T, 2)
        tables = ctc.forward_backward(np.log(y), z)
        gamma = ctc.occupancy(tables)
        occ = loop_occupancy(y, z)
        worst = max(worst, float(np.abs(np.exp(tables.log_alpha + tables.log_beta) - occ).max()))
        worst = max(worst, float(np.abs(gamma - occ / occ.sum(axis=1, keepdims=True)).max()))

        D = 3
        u = rng.normal(size=(T, D))
        bank = losses.CenterBank(K - 1, D)
        bank.centers = rng.normal(size=bank.centers.shape)
        dp_ecl = losses.ecl(u, gamma[:, 1::2], bank.gather(tables.zp[1::2]))
        bf_ecl = loop_ecl(y, z, u, dict(enumerate(bank.centers, start=1)))
        worst = max(worst, abs(dp_ecl - bf_ecl))
    return worst, n


def per_point_consistency_suite(n=100, seed=3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 6))
        T = int(rng.integers(2, 10))
        y = verify._random_posteriors(rng, T, K)
        z = verify._random_labels(rng, K, T, 4)
        tables = ctc.forward_backward(np.log(y), z)
        stack = tables.log_alpha + tables.log_beta - np.log(y)[:, tables.zp]
        peak = stack.max(axis=1, keepdims=True)
        lse = (peak[:, 0] + np.log(np.exp(stack - peak).sum(axis=1)))
        worst = max(worst, float(np.abs(lse - tables.log_seq_prob).max()))
    return worst, n


def per_point_grad_ml_suite(n=50, seed=4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        z = verify._random_labels(rng, K, T, 2)
        logits = rng.normal(size=(T, K))

        def loss_of(flat):
            log_y, _ = model.log_softmax(flat.reshape(T, K))
            return -ctc.forward_backward(log_y, z).log_seq_prob

        log_y, y = model.log_softmax(logits)
        tables = ctc.forward_backward(log_y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = per_coordinate_finite_diff(loss_of, logits.ravel())
        worst = max(worst, verify._rel_err(analytic, fd))
    return worst, n


def per_point_grad_full_suite(n=50, seed=6, lam=0.1):
    rng = np.random.default_rng(seed)
    worst, C, F = 0.0, 2, 2
    for i in range(n):
        mode = model.MODES[i % 4]
        settings = model.TrainSettings(mode=mode, lam=lam)
        hidden = [int(h) for h in rng.integers(1, 4, int(rng.integers(1, 3)))]
        spec = model.NetworkSpec(F, hidden, model.output_units(mode, C),
                                 recurrent=bool(i // 4 % 2))
        state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
        bank = losses.CenterBank(C, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)
        batch = verify._random_batch(rng, mode, C, F)
        _, analytic, _ = model._batch_step(state, batch, settings, bank)

        def alone(sample):
            # one sequence through the network at the loaded parameters:
            # its loss, features and lattice (temporal modes)
            _, stacks, (log_y,), _ = model.forward_stacks(state, [sample.x])
            u = stacks[-1][0]
            if mode in model.TEMPORAL_MODES:
                tables = ctc.forward_backward(log_y, sample.collapsed)
                return -tables.log_seq_prob, u, tables
            return (losses.cross_entropy(log_y[None], sample.framewise - 1, [len(log_y)])[0],
                    u, None)

        frozen = []
        for sample in batch:
            tables = alone(sample)[2]
            if mode == "tmf":
                frozen.append((ctc.occupancy(tables)[:, 1::2],
                               bank.gather(tables.zp[1::2])))
            elif mode == "fmf":
                frozen.append((np.eye(C)[sample.framewise - 1], bank.centers))
        base = state.flat_params()

        def loss_of(flat):
            state.flat = flat
            try:
                total = []
                for b, sample in enumerate(batch):
                    loss, u, _ = alone(sample)
                    if frozen:
                        loss += 0.5 * lam * losses.ecl(u, *frozen[b])
                    total.append(loss)
                return total[0] + total[1]
            finally:
                state.flat = base

        fd = per_coordinate_finite_diff(loss_of, base)
        worst = max(worst, verify._rel_err(analytic, fd))
    return worst, n


def test_tmf_network_loss_leaves_the_state_alone():
    # the points run on a shallow copy; the caller's parameter dict, its
    # arrays and their values stay as they were
    rng = np.random.default_rng(11)
    for mode in model.MODES:
        spec = model.NetworkSpec(2, [3], model.output_units(mode, 2), recurrent=True)
        state = model.ModelState(spec, seed=3)
        bank = losses.CenterBank(2, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)
        batch = verify._random_batch(rng, mode, 2, 2)
        params = state.params
        arrays = dict(params)
        values = {k: v.copy() for k, v in params.items()}
        base = state.flat_params()
        points = base + rng.normal(0.0, 0.1, (6, base.size))
        losses_at = verify.network_loss(state, points, batch,
                                        model.TrainSettings(mode=mode, lam=0.1), bank)
        assert len(losses_at) == 6 and np.all(np.isfinite(losses_at))
        assert state.params is params
        assert state.params.keys() == values.keys()
        for k, v in values.items():
            assert state.params[k] is arrays[k] and np.array_equal(state.params[k], v)


@pytest.mark.parametrize("mode", model.TEMPORAL_MODES)
def test_network_loss_runs_the_backward_rows_at_the_base_point_only(mode, monkeypatch):
    # the points need their losses alone: the lattice's forward rows
    rng = np.random.default_rng(12)
    spec = model.NetworkSpec(2, [3], model.output_units(mode, 2))
    state = model.ModelState(spec, seed=3)
    batch = verify._random_batch(rng, mode, 2, 2)
    real, sizes = ctc.forward_backward_batch, []

    def counted(log_y, Ts, labels_list):
        sizes.append(len(Ts))
        return real(log_y, Ts, labels_list)

    monkeypatch.setattr(ctc, "forward_backward_batch", counted)
    points = state.flat_params() + rng.normal(0.0, 0.1, (5, state.flat_params().size))
    verify.network_loss(state, points, batch, model.TrainSettings(mode=mode),
                        losses.CenterBank(2, spec.feature_dim))
    assert sizes == [len(batch)]


@pytest.mark.parametrize("batched, per_point, n", [
    (verify.seq_prob_suite, per_point_seq_prob_suite, 40),
    (verify.occupancy_suite, per_point_occupancy_suite, 30),
    (verify.partition_suite, per_point_partition_suite, 20),
    (verify.consistency_suite, per_point_consistency_suite, 40),
    (verify.grad_ml_suite, per_point_grad_ml_suite, 30),
    (verify.grad_full_suite, per_point_grad_full_suite, 16),
], ids=["seq_prob", "occupancy_ecl", "partition", "consistency", "grad_ml", "grad_full"])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_batched_suite_equals_per_point_loop(batched, per_point, n, seed):
    assert batched(n=n, seed=seed) == per_point(n=n, seed=seed)


def shift_one_instance(monkeypatch, field, which):
    """Patch forward_backward_batch to move one value of instance
    ``which`` by 1e-6: its log p(z|x), or the log beta of its live cell
    of largest alpha*beta."""
    real = ctc.forward_backward_batch

    def shifted(y, Ts, labels_list):
        tables = real(y, Ts, labels_list)
        b = which % len(Ts)
        if field == "log_seq_prob":
            tables.log_seq_prob[b] += 1e-6
        else:
            prod = tables.log_alpha[b] + tables.log_beta[b]
            tables.log_beta[b][np.unravel_index(np.argmax(prod), prod.shape)] += 1e-6
        return tables

    monkeypatch.setattr(ctc, "forward_backward_batch", shifted)


@pytest.mark.parametrize("suite, field", [
    ("seq_prob", "log_seq_prob"), ("consistency", "log_seq_prob"),
    ("consistency", "log_beta"), ("occupancy_ecl", "log_beta")])
@pytest.mark.parametrize("which", [0, 57, -1])
def test_batched_suites_fail_a_fault_in_any_one_instance(suite, field, which, monkeypatch):
    # each instance reads its own slice of the one lattice call: a fault
    # planted in the first, a middle or the last instance must fail
    fn, tol, _ = verify.SUITES[suite]
    assert fn()[0] <= tol
    shift_one_instance(monkeypatch, field, which)
    err, _ = fn()
    assert err > tol
