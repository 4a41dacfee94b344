"""The brute-force references are themselves checked here, on cases small
enough to verify by hand, before anything else trusts them."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmfusion import ctc, losses, model, oracle, verify


def rand_posteriors(rng, T, K):
    y = rng.uniform(0.1, 1.0, (T, K))
    return y / y.sum(axis=1, keepdims=True)


# ------------------------------------------------------------------ collapse

def test_collapse_merges_then_drops_blanks():
    assert oracle.collapse((0, 1, 1, 0, 2)) == (1, 2)
    assert oracle.collapse((0, 0, 0)) == ()
    assert oracle.collapse((1, 0, 1)) == (1, 1)
    assert oracle.collapse((1, 1, 1)) == (1,)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_collapse_matches_two_step_reference(path):
    merged = [c for i, c in enumerate(path) if i == 0 or c != path[i - 1]]
    expected = tuple(c for c in merged if c != 0)
    assert oracle.collapse(tuple(path)) == expected
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
    assert got == pytest.approx(0.25)


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
            total += np.exp(ctc.forward_backward(y, np.array(z)).log_seq_prob)
        worst = max(worst, abs(total - 1.0))
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
            y = model.softmax(flat.reshape(T, K))
            return -ctc.forward_backward(y, z).log_seq_prob

        y = model.softmax(logits)
        tables = ctc.forward_backward(y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = per_coordinate_finite_diff(loss_of, logits.ravel())
        worst = max(worst, verify._rel_err(analytic, fd))
    return worst, n


def per_point_grad_full_suite(n=50, seed=6, lam=0.1):
    rng = np.random.default_rng(seed)
    worst, C, F = 0.0, 2, 2
    for i in range(n):
        mode = model.MODES[i % 4]
        settings = model.TrainSettings(mode=mode, lam=lam,
                                       occupancy_mode=ctc.OCCUPANCY_MODES[i // 8 % 2])
        hidden = [int(h) for h in rng.integers(1, 4, int(rng.integers(1, 3)))]
        spec = model.NetworkSpec(F, hidden, model.output_units(mode, C),
                                 recurrent=bool(i // 4 % 2))
        state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
        bank = losses.CenterBank(C, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)
        batch = verify._random_batch(rng, mode, C, F)
        _, grads, _ = model._batch_step(state, batch, settings, bank)
        analytic = np.concatenate([grads[k].ravel() for k in state.param_names()])

        def alone(sample):
            # one sequence through the network at the loaded parameters:
            # its loss, features and lattice (temporal modes)
            _, (u,), _, (y,) = model.forward_stacks(state, [sample.x])
            if mode in model.TEMPORAL_MODES:
                tables = ctc.forward_backward(y, sample.collapsed)
                return -tables.log_seq_prob, u, tables
            return losses.cross_entropy(y[None], sample.framewise - 1, [len(y)])[0], u, None

        frozen = []
        for sample in batch:
            tables = alone(sample)[2]
            if mode == "tmf":
                frozen.append((ctc.occupancy(tables, settings.occupancy_mode)[:, 1::2],
                               bank.gather(tables.zp[1::2])))
            elif mode == "fmf":
                frozen.append((np.eye(C)[sample.framewise - 1], bank.centers))
        base = state.flat_params()

        def loss_of(flat):
            state.params = {k: v.copy() for k, v in state.unflatten(flat).items()}
            try:
                total = []
                for b, sample in enumerate(batch):
                    loss, u, _ = alone(sample)
                    if frozen:
                        loss += 0.5 * lam * losses.ecl(u, *frozen[b])
                    total.append(loss)
                return total[0] + total[1]
            finally:
                state.params = {k: v.copy() for k, v in state.unflatten(base).items()}

        fd = per_coordinate_finite_diff(loss_of, base)
        worst = max(worst, verify._rel_err(analytic, fd))
    return worst, n


def test_tmf_network_loss_leaves_the_state_alone():
    # the points run on a shallow copy; the caller's parameter dict, its
    # arrays, their values and the forward cache stay as they were
    rng = np.random.default_rng(11)
    for mode in model.MODES:
        spec = model.NetworkSpec(2, [3], model.output_units(mode, 2), recurrent=True)
        state = model.ModelState(spec, seed=3)
        bank = losses.CenterBank(2, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)
        batch = verify._random_batch(rng, mode, 2, 2)
        model.forward_stacks(state, [s.x for s in batch])
        params, cache = state.params, state.cache
        arrays = dict(params)
        values = {k: v.copy() for k, v in params.items()}
        base = state.flat_params()
        points = base + rng.normal(0.0, 0.1, (6, base.size))
        losses_at = verify.network_loss(state, points, batch,
                                        model.TrainSettings(mode=mode, lam=0.1), bank)
        assert len(losses_at) == 6 and np.all(np.isfinite(losses_at))
        assert state.params is params and state.cache is cache
        assert state.params.keys() == values.keys()
        for k, v in values.items():
            assert state.params[k] is arrays[k] and np.array_equal(state.params[k], v)


@pytest.mark.parametrize("batched, per_point, n", [
    (verify.partition_suite, per_point_partition_suite, 20),
    (verify.grad_ml_suite, per_point_grad_ml_suite, 30),
    (verify.grad_full_suite, per_point_grad_full_suite, 16),
], ids=["partition", "grad_ml", "grad_full"])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_batched_suite_equals_per_point_loop(batched, per_point, n, seed):
    assert batched(n=n, seed=seed) == per_point(n=n, seed=seed)
