"""Unit tests for the network, optimizer, schedule, and training loop."""

import numpy as np
import pytest

from tmfusion import losses, model, oracle, synth


TOY_GEN = synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                segment_length=(2, 4),
                                labels_per_sequence=(1, 3), seed=42)


def toy_data(condition="clean", n=60, seed=42):
    cfg = synth.GeneratorConfig(
        num_classes=2, feature_dim=4, segment_length=(2, 4),
        labels_per_sequence=(1, 3), noise_condition=condition, seed=seed)
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
    other.set_flat_params(flat)
    for k in state.param_names():
        np.testing.assert_array_equal(state.params[k], other.params[k])


# -------------------------------------------------------------------- forward

def test_forward_identity_last_layer():
    spec = model.NetworkSpec(3, [3], 3)
    state = model.ModelState(spec)
    state.params["W"] = np.eye(3)
    state.params["B"] = np.zeros(3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    u, a, _ = model.forward(state, x)
    np.testing.assert_array_equal(a, u)


def test_forward_softmax_rows_sum_to_one():
    state = model.ModelState(model.NetworkSpec(4, [6, 5], 3, recurrent=True))
    x = np.random.default_rng(1).normal(size=(7, 4))
    _, _, y = model.forward(state, x)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert (y > 0).all()


def test_forward_uniform_bias_gives_uniform_posteriors():
    spec = model.NetworkSpec(2, [3], 4)
    state = model.ModelState(spec)
    state.params["W"] = np.zeros((4, 3))
    state.params["B"] = np.full(4, 0.7)
    _, _, y = model.forward(state, np.zeros((2, 2)))
    np.testing.assert_allclose(y, 0.25, atol=1e-15)
    state.params["B"] = np.array([0.0, 1.0, 0.0, 0.0])
    _, _, y = model.forward(state, np.zeros((2, 2)))
    assert y[0, 1] > y[0, 0]


# ------------------------------------------------------------------- backward

def test_backward_requires_forward_cache():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    with pytest.raises(model.MissingForwardCache):
        model.backward(state, np.zeros((1, 2)), np.zeros((1, 3)))


def test_backward_zero_signals_zero_gradients():
    state = model.ModelState(model.NetworkSpec(2, [3], 2, recurrent=True))
    x = np.random.default_rng(2).normal(size=(4, 2))
    model.forward(state, x)
    grads = model.backward(state, np.zeros((4, 2)), np.zeros((4, 3)))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_last_layer_is_outer_product():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    x = np.random.default_rng(3).normal(size=(4, 2))
    u, _, _ = model.forward(state, x)
    delta = np.random.default_rng(4).normal(size=(4, 2))
    grads = model.backward(state, delta, np.zeros((4, 3)))
    np.testing.assert_allclose(grads["W"], delta.T @ u, atol=1e-12)
    np.testing.assert_allclose(grads["B"], delta.sum(axis=0), atol=1e-12)


# ----------------------------------------------------------------------- adam

def test_adam_zero_gradient_from_rest_leaves_parameters():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    before = state.flat_params()
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    model.adam_step(state, grads)
    np.testing.assert_array_equal(state.flat_params(), before)


def test_adam_zero_gradient_decays_existing_moments():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    state.adam_m["W"] += 1.0
    state.adam_v["W"] += 1.0
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    model.adam_step(state, grads)
    np.testing.assert_allclose(state.adam_m["W"], 0.9, atol=1e-15)
    np.testing.assert_allclose(state.adam_v["W"], 0.999, atol=1e-15)


def test_adam_first_step_closed_form():
    state = model.ModelState(model.NetworkSpec(2, [3], 2), lr=0.01)
    g = np.random.default_rng(5).normal(size=state.params["W"].shape)
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    grads["W"] = g
    before = state.params["W"].copy()
    model.adam_step(state, grads)
    expected = before - 0.01 * g / (np.abs(g) + state.eps)
    np.testing.assert_allclose(state.params["W"], expected, atol=1e-12)


def test_adam_zero_learning_rate():
    state = model.ModelState(model.NetworkSpec(2, [3], 2), lr=0.0)
    before = state.flat_params()
    grads = {k: np.ones_like(v) for k, v in state.params.items()}
    model.adam_step(state, grads)
    np.testing.assert_array_equal(state.flat_params(), before)


def test_adam_rejects_non_finite_gradients():
    state = model.ModelState(model.NetworkSpec(2, [3], 2))
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    grads["W"] = grads["W"] + np.nan
    with pytest.raises(model.NonFiniteGradient):
        model.adam_step(state, grads)


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
    fusion = losses.FusionConfig(
        lam=lam, mode="temporal" if mode in ("ctc", "tmf") else "framewise")
    defaults = dict(mode=mode, batch_size=4, max_batches=60, eval_interval=20,
                    seed=0, fusion=fusion)
    defaults.update(kw)
    return model.TrainSettings(**defaults)


def fresh_run(mode, lam=0.0, seed=42, **kw):
    data = toy_data(seed=seed)
    train_set, val_set = data[:48], data[48:]
    K = 3 if mode in ("ctc", "tmf") else 2
    spec = model.NetworkSpec(4, [8], K, recurrent=True)
    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = losses.CenterBank(2, 8)
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
        _, _, y = model.forward(state, s.x)
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


@pytest.mark.parametrize("mode", ["ctc", "tmf"])
def test_train_batched_lattice_matches_per_sequence_bitwise(mode, monkeypatch):
    # training makes one lattice call per batch and one per validation;
    # answering each with a separate per-sequence (B=1) call must give
    # the same parameters, centers and rows, bit for bit
    from tmfusion import ctc

    def run():
        return fresh_run(mode, lam=1e-2, batch_size=6, max_batches=40,
                         fusion=losses.FusionConfig(
                             lam=1e-2, occupancy_mode="frame_normalized"))

    batched = run()
    one_at_a_time = ctc.forward_backward_batch
    calls = []

    def per_sequence(ys, zs):
        calls.append(len(ys))
        return [one_at_a_time([y], [z])[0] for y, z in zip(ys, zs)]

    monkeypatch.setattr(ctc, "forward_backward_batch", per_sequence)
    looped = run()
    assert calls[0] == 6 and 12 in calls      # a training batch, the validation set
    (s1, b1, r1), (s2, b2, r2) = batched, looped
    assert r1 == r2
    for k in s1.param_names():
        assert np.array_equal(s1.params[k], s2.params[k])
    assert np.array_equal(b1.centers, b2.centers)
    if mode == "tmf":
        assert np.any(b1.centers != 0.0)


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


def test_train_parameters_stay_finite():
    state, bank, _ = fresh_run("tmf", lam=1e-3)
    assert np.isfinite(state.flat_params()).all()
    assert np.isfinite(bank.centers).all()


def test_train_select_best_returns_best_validation_state():
    data = toy_data()
    train_set, val_set = data[:48], data[48:]
    spec = model.NetworkSpec(4, [8], 3, recurrent=True)

    snapshots = []

    def hook(hstate, hbank, row, sched):
        snapshots.append((row["val_score"],
                          {k: v.copy() for k, v in hstate.params.items()}))

    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = losses.CenterBank(2, 8)
    state, bank, rows = model.train(state, bank, train_set, val_set,
                                    settings_for("ctc", max_batches=100,
                                                 eval_interval=20),
                                    eval_hook=hook)
    best_score, best_params = max(snapshots, key=lambda p: p[0])
    for k in best_params:
        np.testing.assert_array_equal(state.params[k], best_params[k])


def test_train_eval_hook_sees_schedule_state():
    seen = []

    def hook(hstate, hbank, row, sched):
        seen.append((row["batches"], sched.best))

    data = toy_data()
    spec = model.NetworkSpec(4, [8], 3, recurrent=True)
    state = model.ModelState(spec, seed=7, lr=1e-2)
    bank = losses.CenterBank(2, 8)
    model.train(state, bank, data[:48], data[48:],
                settings_for("ctc", max_batches=40, eval_interval=20),
                eval_hook=hook)
    assert [b for b, _ in seen] == [20, 40]
    # the hook runs before the tick, so the first call still sees the
    # untouched best score
    assert seen[0][1] == -np.inf


# ---------------------------------------------------------------- validation

def test_validation_score_temporal_is_mean_sequence_likelihood():
    data = toy_data(n=4)
    spec = model.NetworkSpec(4, [8], 3)
    state = model.ModelState(spec, seed=3)
    from tmfusion import ctc
    expected = np.mean([ctc.forward_backward(model.forward(state, s.x)[2],
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
        _, _, y = model.forward(state, s.x)
        cols = s.framewise - 1
        num += float(np.log(y[np.arange(len(cols)), cols]).sum())
        den += len(cols)
    got = model.validation_score(state, data, "ce")
    assert got == pytest.approx(num / den, rel=1e-12)


# ------------------------------------------------------- full gradient check

def test_full_network_gradient_small_case():
    # one spot check of the whole chain here; the verification suites
    # sweep many more
    from tmfusion import verify
    err, n = verify.grad_full_suite(n=4, seed=123)
    assert n == 4
    assert err <= 1e-4
