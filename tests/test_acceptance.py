"""Acceptance gate for the library.

Each test covers one acceptance criterion at its stated tolerance and
budget and prints a single PASS/FAIL summary line (visible with -rA or
on failure).  The robustness experiment behind criteria 7 and 8 runs
once per session and takes a few minutes; everything else is fast.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from tmfusion import (cli, config, ctc, experiment, losses, model, synth,
                      verify)


def report(criterion, ok, detail):
    print("%s criterion %s: %s" % ("PASS" if ok else "FAIL", criterion,
                                   detail))
    assert ok, detail


# -------------------------------------------------------------- 1..4 oracles

def test_criterion_01_sequence_probability_oracle():
    t0 = time.monotonic()
    err, n = verify.seq_prob_suite(n=200)
    elapsed = time.monotonic() - t0
    ok = err <= 1e-10 and n == 200 and elapsed <= 30.0
    report("1 (sequence probability vs enumeration)", ok,
           "max err %.3e over %d instances, tol 1e-10, %.1fs" % (err, n,
                                                                 elapsed))


def test_criterion_02_occupancy_and_ecl_oracle():
    t0 = time.monotonic()
    err, n = verify.occupancy_suite(n=100)
    elapsed = time.monotonic() - t0
    ok = err <= 1e-9 and n == 100 and elapsed <= 30.0
    report("2 (occupancy and expected center loss vs enumeration)", ok,
           "max err %.3e over %d instances, tol 1e-9, %.1fs" % (err, n,
                                                                elapsed))


def test_criterion_03_partition_property():
    t0 = time.monotonic()
    err, n = verify.partition_suite(n=20, K=3, T=5)
    elapsed = time.monotonic() - t0
    ok = err <= 1e-9 and n == 20 and elapsed <= 60.0
    report("3 (total probability over all labelings is one)", ok,
           "max deviation %.3e over %d matrices, tol 1e-9, %.1fs"
           % (err, n, elapsed))


def test_criterion_04_gradient_exactness():
    t0 = time.monotonic()
    err_ml, n_ml = verify.grad_ml_suite(n=50)
    err_ecl, n_ecl = verify.grad_ecl_suite(n=50)
    err_full, n_full = verify.grad_full_suite(n=50)
    elapsed = time.monotonic() - t0
    ok = (err_ml <= 1e-5 and err_ecl <= 1e-5 and err_full <= 1e-4
          and (n_ml, n_ecl, n_full) == (50, 50, 50) and elapsed <= 120.0)
    report("4 (analytic gradients vs finite differences)", ok,
           "softmax-layer %.3e (tol 1e-5), feature-layer %.3e (tol 1e-5), "
           "full network %.3e (tol 1e-4), 50 instances each, %.1fs"
           % (err_ml, err_ecl, err_full, elapsed))


# ------------------------------------------------------- 5 center-rule exact

def _tmf_center_step(bank, u, gamma, zp):
    """The occupancy-weighted center update of one sequence: the center
    statistics of its label positions, then one bank step."""
    labels = zp[1::2]
    return bank.step(losses.center_stats(bank, u, gamma[:, 1::2], labels,
                                         bank.gather(labels)))


def test_criterion_05_center_fixed_points_gating_and_blank():
    y = np.array([[0.2, 0.5, 0.3]])
    tables = ctc.forward_backward(np.log(y), [1])
    # the raw product alpha * beta: 0.25 at the label, below the 0.5 gate
    gamma = np.exp(tables.log_alpha + tables.log_beta)

    bank = losses.CenterBank(2, 2)
    bank.centers[0] = [1.5, -2.0]
    at_center = np.tile(bank.centers[0], (1, 1))
    fixed = _tmf_center_step(bank, at_center, gamma, tables.zp)
    fixed_ok = np.array_equal(fixed.centers, bank.centers)

    gated = losses.CenterBank(2, 2, occupancy_threshold=0.5)
    moved = _tmf_center_step(gated, np.ones((1, 2)), gamma, tables.zp)
    gated_ok = np.array_equal(moved.centers, gated.centers)

    try:
        bank.gather([0])
        blank_ok = False
    except losses.UnknownClass:
        blank_ok = True
    blank_heavy = np.array([[0.9, 0.0, 0.9]])
    after = _tmf_center_step(bank, np.ones((1, 2)), blank_heavy, tables.zp)
    blank_ok = blank_ok and np.array_equal(after.centers, bank.centers)

    ok = fixed_ok and gated_ok and blank_ok
    report("5 (center update fixed point, threshold gate, no blank center)",
           ok, "fixed point %s, sub-threshold gate %s, blank excluded %s"
           % (fixed_ok, gated_ok, blank_ok))


# ------------------------------------------------------ 6 lambda degeneracy

def _toy_run(mode, lam):
    gen = synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                segment_length=(2, 4),
                                labels_per_sequence=(1, 3), seed=17)
    data = synth.generate(gen, 60)
    K = 3 if mode in ("ctc", "tmf") else 2
    state = model.ModelState(model.NetworkSpec(4, [8], K, recurrent=True),
                             seed=5, lr=1e-2)
    bank = losses.CenterBank(2, 8)
    settings = model.TrainSettings(mode=mode, batch_size=8, max_batches=40,
                                   eval_interval=10, seed=5, lam=lam)
    return model.train(state, bank, data[:48], data[48:], settings)


def test_criterion_06_lambda_zero_bitwise_degeneracy():
    s_tmf, _, r_tmf = _toy_run("tmf", 0.0)
    s_ctc, _, r_ctc = _toy_run("ctc", 0.0)
    temporal_ok = r_tmf == r_ctc and all(
        np.array_equal(s_tmf.params[k], s_ctc.params[k])
        for k in s_tmf.param_names())

    s_fmf, _, r_fmf = _toy_run("fmf", 0.0)
    s_ce, _, r_ce = _toy_run("ce", 0.0)
    framewise_ok = r_fmf == r_ce and all(
        np.array_equal(s_fmf.params[k], s_ce.params[k])
        for k in s_fmf.param_names())

    report("6 (fusion with zero balance reproduces the baselines bitwise)",
           temporal_ok and framewise_ok,
           "temporal pair identical %s, framewise pair identical %s"
           % (temporal_ok, framewise_ok))


# -------------------------------------------------- 7/8 robustness experiment

@pytest.fixture(scope="module")
def robustness():
    spec = experiment.ExperimentSpec()
    t0 = time.monotonic()
    results = experiment.run_experiment(spec)
    elapsed = time.monotonic() - t0
    return spec, experiment.headline(results, spec.seeds), elapsed


@pytest.mark.slow
def test_criterion_07_directional_robustness(robustness):
    spec, h, elapsed = robustness

    # the advertised task shape
    gen = spec.generator
    assert gen.num_classes == 5
    assert gen.feature_dim == 8
    assert spec.hidden[-1] == 16
    assert gen.segment_length[1] * gen.labels_per_sequence[1] <= 40
    assert 2 * spec.num_train_per_condition == 2000
    assert len(spec.seeds) == 5

    ter_ok = (h["ter_tmf"].mean() <= h["ter_ctc"].mean()
              and h["ter_wins"] >= 4)
    acc_ok = (h["acc_fmf"].mean() >= h["acc_ce"].mean()
              and h["acc_wins"] >= 4)
    time_ok = elapsed <= 1200.0
    report("7 (unseen-noise robustness, direction and consistency)",
           ter_ok and acc_ok and time_ok,
           "unseen TER tmf %.2f vs ctc %.2f (wins %d/5); unseen frame "
           "accuracy fmf %.2f vs ce %.2f (wins %d/5); %.0fs of 1200s"
           % (h["ter_tmf"].mean(), h["ter_ctc"].mean(), h["ter_wins"],
              h["acc_fmf"].mean(), h["acc_ce"].mean(), h["acc_wins"],
              elapsed))


@pytest.mark.slow
def test_criterion_08_feature_discriminability(robustness):
    _, h, _ = robustness
    ok = h["scatter_wins"] >= 4
    report("8 (fused features are tighter per class on clean data)", ok,
           "scatter ratio tmf %.3f vs ctc %.3f, lower on %d/5 seeds"
           % (h["scatter_tmf"].mean(), h["scatter_ctc"].mean(),
              h["scatter_wins"]))


# --------------------------------------------------------- 9 schedule timing

def test_criterion_09_plateau_schedule_semantics():
    sched = model.ScheduleState()
    model.schedule_tick(sched, 10.0)
    actions = [model.schedule_tick(sched, 9.0) for _ in range(8)]
    halve_ok = (actions[0] == "continue" and actions[1] == "continue"
                and actions[2] == "halve_lr")
    stop_ok = (actions[3:7] == ["continue", "continue", "halve_lr",
                                "continue"]
               and actions[7] == "early_stop")
    reset = model.ScheduleState()
    model.schedule_tick(reset, 1.0)
    model.schedule_tick(reset, 0.0)
    model.schedule_tick(reset, 0.0)
    reset_ok = (model.schedule_tick(reset, 2.0) == "continue"
                and reset.since_improvement == 0)
    ok = halve_ok and stop_ok and reset_ok
    report("9 (halve after exactly 3, stop after exactly 8)", ok,
           "tick sequence %s, improvement resets %s" % (actions, reset_ok))


# ---------------------------------------------------------- 10 serialization

def test_criterion_10_serialization_round_trips(tmp_path):
    run_cfg = config.RunConfig(
        mode="tmf", seed=11, lam=1e-3,
        hidden=(6,), recurrent=True,
        generator=synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                        segment_length=(2, 4),
                                        labels_per_sequence=(1, 3), seed=11),
        num_train_sequences=30, num_test_sequences=6,
        max_batches=10, eval_interval=5, learning_rate=1e-2,
        data_dir=str(tmp_path / "data"),
        checkpoint_path=str(tmp_path / "ckpt.json"),
        metrics_path=str(tmp_path / "metrics.csv"))

    cfg_path = tmp_path / "run.json"
    config.save_config(run_cfg, cfg_path)
    loaded = config.load_config(cfg_path)
    again = tmp_path / "run2.json"
    config.save_config(loaded, again)
    config_ok = loaded == run_cfg and filecmp.cmp(cfg_path, again,
                                                  shallow=False)

    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    data_file = cli.dataset_path(tmp_path / "data", "unseen", "test")
    copied = tmp_path / "copy.npz"
    synth.save_dataset(synth.load_dataset(data_file), copied)
    dataset_ok = filecmp.cmp(data_file, copied, shallow=False)

    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    state, bank, sched, meta = config.load_checkpoint(run_cfg.checkpoint_path)
    ckpt2 = tmp_path / "ckpt2.json"
    config.save_checkpoint(ckpt2, state, bank, sched, meta["mode"], meta["seed"])
    checkpoint_ok = filecmp.cmp(run_cfg.checkpoint_path, ckpt2, shallow=False)

    rerun_csv = tmp_path / "metrics2.csv"
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(rerun_csv),
                     "--checkpoint", str(tmp_path / "ckpt3.json")]) == 0
    metrics_ok = filecmp.cmp(run_cfg.metrics_path, rerun_csv, shallow=False)

    ok = config_ok and dataset_ok and checkpoint_ok and metrics_ok
    report("10 (bit-exact config, checkpoint, dataset, metrics files)", ok,
           "config %s, dataset %s, checkpoint %s, metrics rerun %s"
           % (config_ok, dataset_ok, checkpoint_ok, metrics_ok))
