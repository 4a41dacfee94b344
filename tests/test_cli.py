"""End-to-end tests for the command line: data generation, training,
evaluation, the checkpoint of the selected evaluation, and the
verification suites."""

import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tmfusion import cli, config, ctc, experiment, losses, model, synth, verify


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


@pytest.mark.parametrize("keys,value,named", [
    (("generator", "segment_length"), [4, 2], "config: generator: segment_length"),
    (("generator", "unseen", "family"), "gauss", "config: generator.unseen: "),
    (("num_train_sequences",), 0, "config: num_train_sequences"),
    (("num_test_sequences",), 0, "config: num_test_sequences"),
], ids=["segment_length", "unseen_family", "num_train_sequences",
        "num_test_sequences"])
def test_gen_data_invalid_config_exits_2_naming_field(tmp_path, capsys,
                                                      keys, value, named):
    cfg_path, cfg = write_config(tmp_path)
    data = json.loads(cfg_path.read_text())
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert cli.main(["gen-data", "--config", str(broken)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not any(os.path.exists(os.path.join(cfg.data_dir, name))
                   for name in ALL_FILES)


def test_gen_data_unknown_field_exits_2_naming_field(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"mode": "tmf", "learning_rte": 0.1}')
    assert cli.main(["gen-data", "--config", str(broken)]) == cli.EXIT_CONFIG
    assert "learning_rte" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("occupancy_threshold", -0.5),
    ("occupancy_threshold", 2.0),       # would gate off every center update
    ("occupancy_mode", "literal"),
    ("batch_size", 0),
    ("max_batches", 0),
    ("eval_interval", 0),
    ("halve_after", 0),
    ("stop_after", 0),
], ids=["threshold_below_0", "threshold_above_1", "unknown_mode",
        "batch_size_0", "max_batches_0", "eval_interval_0", "halve_after_0",
        "stop_after_0"])
def test_train_invalid_occupancy_setting_exits_2_naming_field(tmp_path, capsys,
                                                             field, value):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    data = json.loads(cfg_path.read_text())
    data[field] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(broken)]) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not os.path.exists(cfg.checkpoint_path)


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


def test_train_frame_label_outside_the_classes_exits_4(tmp_path, capsys):
    # a framewise label of 0 would index the last one-hot column
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    path = cli.dataset_path(cfg.data_dir, "clean", "train")
    samples = synth.load_jsonl(path)
    samples[3].framewise[0] = 0
    synth.save_jsonl(samples, path)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_SHAPE
    assert "class 0" in capsys.readouterr().err


def _edit_dataset(cfg, condition, part, edit):
    """Rewrite one dataset file with ``edit`` applied to its samples;
    returns the file's path."""
    path = cli.dataset_path(cfg.data_dir, condition, part)
    samples = synth.load_jsonl(path)
    edit(samples)
    synth.save_jsonl(samples, path)
    return path


def _framewise_network():
    return model.NetworkSpec(4, [6], 2, recurrent=True)    # no blank output


def _assert_exit_4_before_writing(cfg_path, cfg, capsys, path, sample, words):
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_SHAPE
    err = capsys.readouterr().err
    assert "%s: sample %d " % (path, sample) in err
    for word in words:
        assert word in err
    assert not os.path.exists(cfg.checkpoint_path)
    assert not os.path.exists(cfg.metrics_path)


def test_train_test_set_with_wide_features_exits_4_before_writing(tmp_path, capsys):
    # the test sets are scored at every evaluation; a wide one used to
    # pass load and escape from the first evaluation as a matmul error
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)

    def widen(samples):
        samples[2].x = np.hstack([samples[2].x, np.zeros((len(samples[2].x), 1))])

    path = _edit_dataset(cfg, "seen", "test", widen)
    _assert_exit_4_before_writing(cfg_path, cfg, capsys, path, 2,
                                  ["5 features", "network expects 4"])


def test_train_test_set_frame_label_outside_the_classes_exits_4(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path, mode="fmf", network=_framewise_network())
    gen_data(tmp_path, cfg_path)

    def relabel(samples):
        samples[4].framewise[-1] = 7

    path = _edit_dataset(cfg, "unseen", "test", relabel)
    _assert_exit_4_before_writing(cfg_path, cfg, capsys, path, 4,
                                  ["class 7", "1..2"])


@pytest.mark.parametrize("mode", ["ctc", "ce"])
def test_train_collapsed_label_outside_the_classes_exits_4(tmp_path, capsys, mode):
    kw = {"network": _framewise_network()} if mode == "ce" else {}
    cfg_path, cfg = write_config(tmp_path, mode=mode, **kw)
    gen_data(tmp_path, cfg_path)

    def relabel(samples):
        samples[5].collapsed = np.array([1, 99])

    path = _edit_dataset(cfg, "clean", "train", relabel)
    _assert_exit_4_before_writing(cfg_path, cfg, capsys, path, 5,
                                  ["collapsed label 99"])


def test_train_labeling_longer_than_its_frames_exits_4(tmp_path, capsys):
    # the lattice cannot align more labels than frames; only the
    # temporal modes read the labeling
    cfg_path, cfg = write_config(tmp_path, mode="ctc")
    gen_data(tmp_path, cfg_path)
    too_long = {}

    def lengthen(samples):
        T = len(samples[1].x)
        samples[1].collapsed = np.tile([1, 2], T)
        too_long["T"] = T

    path = _edit_dataset(cfg, "clean", "train", lengthen)
    T = too_long["T"]
    _assert_exit_4_before_writing(
        cfg_path, cfg, capsys, path, 1,
        ["%d collapsed labels" % (2 * T), "need %d frames" % (2 * T),
         "it has %d" % T])
    framewise_path, _ = write_config(tmp_path, "ce.json", mode="ce",
                                     network=_framewise_network())
    assert cli.main(["train", "--config", str(framewise_path)]) == 0


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


def test_train_empty_training_split_exits_2(tmp_path, capsys):
    # 1 sequence per condition splits 0/1 at validation_fraction 0.9
    cfg_path, cfg = write_config(tmp_path, num_train_sequences=1,
                                 validation_fraction=0.9)
    gen_data(tmp_path, cfg_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "training split empty" in capsys.readouterr().err
    assert not os.path.exists(cfg.checkpoint_path)
    assert not os.path.exists(cfg.metrics_path)


def test_train_output_path_in_a_missing_directory_exits_2(tmp_path, capsys,
                                                          monkeypatch):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    monkeypatch.setattr(cli.model, "train",
                        lambda *args, **kw: pytest.fail("training started"))
    for flag in ("--out", "--checkpoint"):
        missing = str(tmp_path / "nodir" / "file")
        assert cli.main(["train", "--config", str(cfg_path),
                         flag, missing]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write %s" % missing in err and "Traceback" not in err


def _assert_diverged_at_start(cfg, err, reason):
    assert "diverged" in err and reason in err
    assert cfg.checkpoint_path in err
    _, _, _, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] == 0


def test_train_degenerate_frame_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)

    def vanish(tables, y):
        raise ctc.DegenerateFrame("alignment mass vanished at frame 0")

    monkeypatch.setattr(ctc, "ctc_grad_logits", vanish)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DIVERGED
    _assert_diverged_at_start(cfg, capsys.readouterr().err, "mass vanished")


def test_train_killed_run_keeps_its_best_checkpoint(tmp_path):
    cfg_path, cfg = write_config(tmp_path, max_batches=100000,
                                 eval_interval=2, num_test_sequences=2)
    gen_data(tmp_path, cfg_path)
    # the child imports the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tmfusion.cli", "train",
         "--config", str(cfg_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
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
    # the interrupted run's checkpoint is its best evaluation so far,
    # with that evaluation's whole training state, and it evaluates
    state, bank, sched, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] >= batches
    assert state.step_count == meta["step_count"]
    assert sched.since_improvement == 0
    scores = []
    # rows up to the checkpointed one were flushed before it was written
    for line in open(cfg.metrics_path).read().splitlines()[1:]:
        cells = line.split(",")
        scores.append(float(cells[4]))
        if int(cells[1]) == meta["step_count"]:
            break
    assert sched.best == scores[-1] == max(scores)
    report = tmp_path / "killed.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir, "--out", str(report)]) == 0
    assert report.read_text().count("\n") == 4      # header + 3 conditions


def test_train_checkpoint_is_the_model_training_selected(tmp_path, monkeypatch):
    # at this step size the validation score peaks before the last
    # evaluation, so training rolls back; the checkpoint must hold the
    # rolled-back model as the evaluation that selected it wrote it, and
    # eval must score exactly that model
    cfg_path, cfg = write_config(tmp_path, learning_rate=1.0, max_batches=60)
    gen_data(tmp_path, cfg_path)
    writes = {}

    def save_and_keep(path, state, *args):
        config.save_checkpoint(path, state, *args)
        writes[state.step_count] = open(path, "rb").read()

    monkeypatch.setattr(cli, "save_checkpoint", save_and_keep)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    pool = []
    for condition in cfg.train_conditions:
        pool += synth.load_jsonl(cli.dataset_path(cfg.data_dir, condition, "train"))
    train_set, val_set = synth.split(pool, cfg.validation_fraction, seed=cfg.seed)
    state, bank, rows = model.train(cfg.new_state(), cfg.new_bank(), train_set,
                                    val_set, cfg.settings())
    best = max(range(len(rows)), key=lambda i: rows[i]["val_score"])
    assert best < len(rows) - 1
    assert open(cfg.checkpoint_path, "rb").read() == writes[rows[best]["batches"]]
    loaded, _, sched, meta = config.load_checkpoint(cfg.checkpoint_path)
    assert meta["step_count"] == loaded.step_count == rows[best]["batches"]
    assert loaded.lr == rows[best]["lr"]
    assert (sched.best, sched.since_improvement) == (rows[best]["val_score"], 0)
    assert (state.step_count, state.lr) == (loaded.step_count, loaded.lr)
    for k in state.param_names():
        for group in ("params", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(loaded, group)[k],
                                          getattr(state, group)[k])
    report = tmp_path / "eval.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir, "--out", str(report)]) == 0
    expected = []
    for condition in synth.CONDITIONS:
        samples = synth.load_jsonl(cli.dataset_path(cfg.data_dir, condition, "test"))
        rep = experiment.evaluate_model(state, bank, samples, cfg.mode, condition)
        expected.append(",".join(config._fmt(v) for v in rep.csv_row()))
    assert report.read_text().splitlines()[1:] == expected


MALFORMED = {
    "truncated": (lambda good: good[:len(good) // 2], "Expecting"),
    "empty_record": (lambda good: "{}", "missing field 'features'"),
    "unknown_condition": (lambda good: re.sub(r'"condition": "\w+"',
                                              '"condition": "noisy"', good),
                          "unknown condition 'noisy'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_train_malformed_dataset_exits_2_naming_file_and_line(tmp_path, capsys, case):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    path = cli.dataset_path(cfg.data_dir, "seen", "train")
    lines = open(path).read().splitlines()
    make, reason = MALFORMED[case]
    lines[6] = make(lines[6])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "%s line 7" % path in err and reason in err
    assert not os.path.exists(cfg.checkpoint_path)


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


def test_eval_out_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    missing = str(tmp_path / "nodir" / "e.csv")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir, "--out", missing]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write %s" % missing in err and "Traceback" not in err


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


def _rewrite_checkpoint(cfg, tmp_path, change):
    data = json.loads(open(cfg.checkpoint_path).read())
    change(data)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)


def test_eval_unknown_mode_in_checkpoint_exits_2(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    path = _rewrite_checkpoint(cfg, tmp_path, lambda d: d.update(mode="CTC"))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", path,
                     "--data", cfg.data_dir]) == cli.EXIT_CONFIG
    assert "mode" in capsys.readouterr().err


def test_eval_old_checkpoint_with_eval_interval_gives_the_same_report(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    path = _rewrite_checkpoint(
        cfg, tmp_path, lambda d: d["schedule"].update(eval_interval=cfg.eval_interval))
    capsys.readouterr()
    reports = []
    for checkpoint in (cfg.checkpoint_path, path):
        assert cli.main(["eval", "--checkpoint", checkpoint,
                         "--data", cfg.data_dir]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path)]) == cli.EXIT_CONFIG


def test_eval_truncated_checkpoint_exits_2_naming_file(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    path = tmp_path / "truncated.json"
    path.write_bytes(open(cfg.checkpoint_path, "rb").read(500))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(path),
                     "--data", cfg.data_dir]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "invalid JSON" in err


def test_eval_checkpoint_without_adam_exits_2_naming_file(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    path = _rewrite_checkpoint(cfg, tmp_path, lambda d: d.pop("adam"))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", path,
                     "--data", cfg.data_dir]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and "'adam'" in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_eval_malformed_dataset_exits_2_naming_file_and_line(tmp_path, capsys, case):
    cfg = trained_checkpoint(tmp_path)
    good = open(cli.dataset_path(cfg.data_dir, "unseen", "test")).readline()
    make, reason = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text(good + make(good.rstrip("\n")) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "%s line 2" % path in err and reason in err


def test_eval_directory_without_test_files_exits_2_naming_it(tmp_path, capsys):
    cfg = trained_checkpoint(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", str(elsewhere)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert str(elsewhere) in captured.err and captured.out == ""


def _drop_references(samples):
    for sample in samples:
        sample.collapsed = sample.collapsed[:0]


def test_eval_test_set_without_reference_tokens_exits_2_naming_file(tmp_path, capsys):
    # the token error rate of a condition divides by its reference tokens
    cfg = trained_checkpoint(tmp_path)
    path = _edit_dataset(cfg, "unseen", "test", _drop_references)
    capsys.readouterr()
    for data in (path, cfg.data_dir):
        assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                         "--data", data]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert path in captured.err and "no reference token" in captured.err
        assert captured.out == ""


def test_train_test_set_without_reference_tokens_exits_2_before_writing(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    gen_data(tmp_path, cfg_path)
    path = _edit_dataset(cfg, "seen", "test", _drop_references)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and "no reference token" in err
    assert not os.path.exists(cfg.checkpoint_path)
    assert not os.path.exists(cfg.metrics_path)


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

    def flipped(u, w, centers):
        return -real(u, w, centers)

    monkeypatch.setattr("tmfusion.losses.ecl_grad_features", flipped)
    assert cli.main(["check", "--scope", "losses"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "grad_ecl" in out


def test_check_catches_a_planted_table_error(monkeypatch, capsys):
    from tmfusion import ctc as ctc_mod
    real = ctc_mod.occupancy

    def biased(tables, mode="paper_literal"):
        return real(tables, mode) * 1.01

    monkeypatch.setattr("tmfusion.ctc.occupancy", biased)
    assert cli.main(["check", "--scope", "ctc"]) == cli.EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


def test_check_catches_a_planted_fault_in_the_training_signals(monkeypatch, capsys):
    # drop fmf's center part from the fused signal that a training step
    # back-propagates; the full-network suite runs that step
    real = model._batch_signals

    def without_centers(state, batch, Ts, u, log_y, y, settings, bank):
        seq_losses, delta_ml, delta_fused, stats = real(state, batch, Ts, u, log_y, y,
                                                        settings, bank)
        if settings.mode == "fmf":
            delta_fused = model._rows_product(delta_ml, state.params["W"], Ts)
        return seq_losses, delta_ml, delta_fused, stats

    monkeypatch.setattr(model, "_batch_signals", without_centers)
    assert cli.main(["check", "--scope", "model"]) == cli.EXIT_CHECK
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err      # failed on its error, did not raise
    out = captured.out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("grad_full ") and out[0].endswith(" FAIL")


def test_check_reports_a_suite_that_raises_and_runs_the_rest(monkeypatch, capsys):
    def vanished(tables, mode="paper_literal"):
        raise ctc.DegenerateFrame("alignment mass vanished at frame 0")

    monkeypatch.setattr("tmfusion.ctc.occupancy", vanished)
    assert cli.main(["check", "--scope", "ctc"]) == cli.EXIT_CHECK
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "seq_prob", "occupancy_ecl", "partition", "consistency"]
    failed = lines[1]
    assert failed.endswith("FAIL")
    assert "DegenerateFrame: alignment mass vanished at frame 0" in failed
    assert all(line.endswith("PASS") for i, line in enumerate(lines) if i != 1)


def test_check_fails_a_suite_whose_error_is_nan(monkeypatch, capsys):
    # one NaN lattice value: max(0.0, nan) is 0.0, so a running max over
    # the instances would pass it; the suite's max_err must be NaN
    real = ctc.forward_backward_batch

    def one_nan(y, Ts, labels_list):
        tables = real(y, Ts, labels_list)
        tables.log_seq_prob[len(Ts) // 2] = np.nan
        return tables

    monkeypatch.setattr(ctc, "forward_backward_batch", one_nan)
    assert np.isnan(verify.seq_prob_suite(n=20)[0])
    assert cli.main(["check", "--scope", "ctc"]) == cli.EXIT_CHECK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["seq_prob", "max_err=nan"]
    assert lines[0].endswith("FAIL")
