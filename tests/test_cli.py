"""End-to-end tests for the command line: data generation, training,
evaluation, checkpoint resume, and the verification suites."""

import filecmp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tmfusion import cli, config, ctc, losses, model, synth


def write_config(tmp_path, name="run.json", **kw):
    defaults = dict(
        mode="tmf", seed=3, lam=1e-3,
        network=model.NetworkSpec(4, [6], 3, recurrent=True),
        generator=synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                        segment_length=(2, 4),
                                        labels_per_sequence=(1, 3), seed=3),
        num_train_sequences=40, num_test_sequences=10,
        batch_size=8, max_batches=20, eval_interval=10,
        learning_rate=1e-2,
        data_dir=str(tmp_path / "data"),
        checkpoint_path=str(tmp_path / "ckpt.json"),
        metrics_path=str(tmp_path / "metrics.csv"))
    defaults.update(kw)
    cfg = config.RunConfig(**defaults)
    path = tmp_path / name
    config.save_config(cfg, path)
    return path, cfg


def gen_data(tmp_path, cfg_path):
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0


ALL_FILES = ["%s_%s.jsonl" % (c, p)
             for c in ("clean", "seen", "unseen") for p in ("train", "test")]


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_six_files_and_counts(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    for name in ALL_FILES:
        path = os.path.join(cfg.data_dir, name)
        assert os.path.exists(path)
        count = 40 if name.endswith("train.jsonl") else 10
        assert len(synth.load_jsonl(path)) == count
        assert "%s: %d records" % (path, count) in out


def test_gen_data_is_byte_identical_per_seed(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(a)]) == 0
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(b)]) == 0
    for name in ALL_FILES:
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_gen_data_seed_override_changes_content(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["gen-data", "--config", str(cfg_path), "--out", str(a)])
    cli.main(["gen-data", "--config", str(cfg_path), "--out", str(b),
              "--seed", "99"])
    assert not filecmp.cmp(a / "clean_train.jsonl", b / "clean_train.jsonl",
                           shallow=False)


def test_gen_data_invalid_config_exits_2_naming_field(tmp_path, capsys):
    import json

    cfg_path, _ = write_config(tmp_path)
    data = json.loads(cfg_path.read_text())
    data["generator"]["segment_length"] = [4, 2]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert cli.main(["gen-data", "--config", str(broken)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "segment_length" in err


def test_gen_data_unknown_field_exits_2_naming_field(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"mode": "tmf", "learning_rte": 0.1}')
    assert cli.main(["gen-data", "--config", str(broken)]) == cli.EXIT_CONFIG
    assert "learning_rte" in capsys.readouterr().err


# --------------------------------------------------------------------- train

def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    lines = open(cfg.metrics_path).read().splitlines()
    assert lines[0] == ",".join(config.METRIC_COLUMNS)
    assert len(lines) == 3                      # header + two evaluations
    for line in lines[1:]:
        cells = dict(zip(config.METRIC_COLUMNS, line.split(",")))
        for col in ("ter_clean", "ter_seen", "ter_unseen",
                    "acc_clean", "acc_seen", "acc_unseen"):
            assert cells[col] != ""
            assert np.isfinite(float(cells[col]))
    state, bank, sched, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["mode"] == "tmf"
    assert meta["step_count"] == 20
    assert np.isfinite(state.flat_params()).all()


def test_train_reruns_byte_identical(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(out_b)]) == 0
    assert filecmp.cmp(out_a, out_b, shallow=False)


def test_train_lambda_zero_tmf_reproduces_ctc(tmp_path):
    data_dir = str(tmp_path / "data")
    tmf_path, tmf_cfg = write_config(
        tmp_path, "tmf.json", mode="tmf", lam=0.0, data_dir=data_dir,
        checkpoint_path=str(tmp_path / "tmf.ckpt"),
        metrics_path=str(tmp_path / "tmf.csv"))
    ctc_path, ctc_cfg = write_config(
        tmp_path, "ctc.json", mode="ctc", lam=0.0, data_dir=data_dir,
        checkpoint_path=str(tmp_path / "ctc.ckpt"),
        metrics_path=str(tmp_path / "ctc.csv"))
    gen_data(tmp_path, tmf_path)
    assert cli.main(["train", "--config", str(tmf_path)]) == 0
    assert cli.main(["train", "--config", str(ctc_path)]) == 0
    assert filecmp.cmp(tmf_cfg.metrics_path, ctc_cfg.metrics_path,
                       shallow=False)
    s_tmf, _, _, _ = config.load_checkpoint(tmf_cfg.checkpoint_path)
    s_ctc, _, _, _ = config.load_checkpoint(ctc_cfg.checkpoint_path)
    for k in s_tmf.param_names():
        np.testing.assert_array_equal(s_tmf.params[k], s_ctc.params[k])


def test_train_missing_data_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "missing dataset file" in capsys.readouterr().err


def test_train_shape_mismatch_exits_4(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    wide_path, _ = write_config(
        tmp_path, "wide.json",
        network=model.NetworkSpec(5, [6], 3, recurrent=True),
        data_dir=cfg.data_dir)
    assert cli.main(["train", "--config", str(wide_path)]) == cli.EXIT_SHAPE
    assert "features" in capsys.readouterr().err


def test_train_divergence_exits_3_keeping_checkpoint(tmp_path, capsys,
                                                     monkeypatch):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)

    def explode(*args, **kw):
        raise model.NonFiniteGradient("loss went to infinity")

    monkeypatch.setattr(cli.model, "train", explode)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "diverged" in err
    assert cfg.checkpoint_path in err
    # the pre-training checkpoint is still valid
    state, _, _, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] == 0


def test_train_empty_validation_split_exits_2(tmp_path, capsys):
    # 3 sequences per condition split 3/0 at validation_fraction 0.1
    cfg_path, cfg = write_config(tmp_path, num_train_sequences=3)
    gen_data(tmp_path, cfg_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "validation split empty" in capsys.readouterr().err
    assert not os.path.exists(cfg.checkpoint_path)
    assert not os.path.exists(cfg.metrics_path)


def _assert_diverged_at_start(cfg, err, reason):
    assert "diverged" in err and reason in err
    assert cfg.checkpoint_path in err
    _, _, _, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] == 0


def test_train_zero_posterior_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    softmax = model.softmax

    def underflow(a):
        y = softmax(a)
        y[0, 0] = 0.0
        return y

    monkeypatch.setattr(model, "softmax", underflow)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DIVERGED
    _assert_diverged_at_start(cfg, capsys.readouterr().err, "strictly positive")


def test_train_degenerate_frame_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)

    def vanish(tables, y):
        raise ctc.DegenerateFrame("alignment mass vanished at frame 0")

    monkeypatch.setattr(ctc, "ctc_grad_logits", vanish)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DIVERGED
    _assert_diverged_at_start(cfg, capsys.readouterr().err, "mass vanished")


def test_train_kill_and_resume(tmp_path):
    cfg_path, cfg = write_config(tmp_path, max_batches=100000,
                                 eval_interval=2, num_test_sequences=2)
    gen_data(tmp_path, cfg_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tmfusion.cli", "train",
         "--config", str(cfg_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        batches = 0
        while time.monotonic() < deadline:
            if os.path.exists(cfg.checkpoint_path):
                try:
                    _, _, _, meta = config.load_checkpoint(cfg.checkpoint_path)
                except Exception:
                    meta = {"step_count": 0}
                if meta["step_count"] > 0:
                    batches = meta["step_count"]
                    break
            time.sleep(0.05)
        assert batches > 0, "no mid-run checkpoint appeared in time"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # the interrupted run's checkpoint loads and evaluates
    state, bank, sched, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] >= batches
    report = tmp_path / "resumed.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir, "--out", str(report)]) == 0
    assert report.read_text().count("\n") == 4      # header + 3 conditions


# ---------------------------------------------------------------------- eval

def trained_checkpoint(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return cfg


def test_eval_reports_one_row_per_condition(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("condition,")
    assert [l.split(",")[0] for l in lines[1:]] == ["clean", "seen", "unseen"]
    for line in lines[1:]:
        cells = line.split(",")
        assert 0.0 <= float(cells[1]) <= 100.0
        assert cells[-1] == "10"


def test_eval_is_repeatable(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    capsys.readouterr()
    cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
              "--data", cfg.data_dir])
    first = capsys.readouterr().out
    cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
              "--data", cfg.data_dir])
    assert capsys.readouterr().out == first


def test_eval_single_file_and_out_path(tmp_path):
    cfg = trained_checkpoint(tmp_path)
    report = tmp_path / "report.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", os.path.join(cfg.data_dir, "unseen_test.jsonl"),
                     "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("unseen,")


def test_eval_shape_mismatch_exits_4(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    narrow = synth.GeneratorConfig(num_classes=2, feature_dim=3,
                                   segment_length=(2, 4),
                                   labels_per_sequence=(1, 3), seed=0)
    path = tmp_path / "narrow.jsonl"
    synth.save_jsonl(synth.generate(narrow, 5), path)
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", str(path)]) == cli.EXIT_SHAPE
    assert "features" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path)]) == cli.EXIT_CONFIG


# --------------------------------------------------------------------- check

def test_check_all_suites_pass(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert all("PASS" in line for line in out)
    assert all("max_err=" in line for line in out)


def test_check_scope_restricts_suites(capsys):
    assert cli.main(["check", "--scope", "ctc"]) == 0
    out = capsys.readouterr().out
    assert "seq_prob" in out
    assert "grad_ecl" not in out


def test_check_catches_a_planted_sign_error(monkeypatch, capsys):
    # flip the sign of the center error signal; the gradient suite must
    # fail and drive a nonzero exit
    real = losses.ecl_grad_features

    def flipped(u, gamma, zp, bank):
        return -real(u, gamma, zp, bank)

    monkeypatch.setattr("tmfusion.losses.ecl_grad_features", flipped)
    assert cli.main(["check", "--scope", "losses"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "grad_ecl" in out


def test_check_catches_a_planted_table_error(monkeypatch, capsys):
    from tmfusion import ctc as ctc_mod
    real = ctc_mod.occupancy

    def biased(tables, y, mode="paper_literal"):
        return real(tables, y, mode) * 1.01

    monkeypatch.setattr("tmfusion.ctc.occupancy", biased)
    assert cli.main(["check", "--scope", "ctc"]) == cli.EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out
