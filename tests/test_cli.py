"""End-to-end tests for the command line: data generation, training,
evaluation, the checkpoint of the selected evaluation, the verification
suites, and one matrix of every documented nonzero exit."""

import csv
import dataclasses
import filecmp
import json
import os
import shutil
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
        hidden=(6,), recurrent=True,
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


ALL_FILES = [cli.dataset_path("", c, p) for c in synth.CONDITIONS for p in ("train", "test")]


def child_environment():
    """os.environ for a child process that imports the package this
    test imported, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_six_files_and_counts(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    for name in ALL_FILES:
        path = os.path.join(cfg.data_dir, name)
        assert os.path.exists(path)
        count = 40 if "_train" in name else 10
        assert len(synth.load_dataset(path)) == count
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
    assert not filecmp.cmp(cli.dataset_path(a, "clean", "train"),
                           cli.dataset_path(b, "clean", "train"), shallow=False)


def test_gen_data_write_failure_raises_the_first_files_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    # a directory where a file goes: writing it fails, and the error
    # reaches main with the file's name; the files before it are written
    seen_train, unseen_test = (cli.dataset_path("", c, p)
                               for c, p in (("seen", "train"), ("unseen", "test")))
    for name in (seen_train, unseen_test):
        (tmp_path / "data" / name).mkdir(parents=True)
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write %s: Is a directory" % (tmp_path / "data" / seen_train) in err
    assert unseen_test not in err
    for name in ALL_FILES[:2]:
        assert os.path.isfile(tmp_path / "data" / name)


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
    assert np.isfinite(state.flat).all()


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


def test_a_whole_number_in_a_float_field_trains_as_its_float(tmp_path):
    # json reads 1 as an int: a float field reads it as 1.0, so the file
    # saves and trains byte for byte as the one that writes 1.0
    float_path, _ = write_config(tmp_path, "float.json", learning_rate=1.0)
    text = float_path.read_text()
    assert text.count('"learning_rate": 1.0,') == 1
    int_path = tmp_path / "int.json"
    int_path.write_text(text.replace('"learning_rate": 1.0,', '"learning_rate": 1,'))
    gen_data(tmp_path, float_path)
    for path in (float_path, int_path):
        config.save_config(config.load_config(path), path.with_suffix(".saved"))
        assert cli.main(["train", "--config", str(path),
                         "--out", str(path.with_suffix(".csv"))]) == 0
    for suffix in (".saved", ".csv"):
        assert filecmp.cmp(float_path.with_suffix(suffix), int_path.with_suffix(suffix),
                           shallow=False)


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


def test_train_killed_run_keeps_its_best_checkpoint(tmp_path):
    cfg_path, cfg = write_config(tmp_path, max_batches=100000,
                                 eval_interval=2, num_test_sequences=2)
    gen_data(tmp_path, cfg_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tmfusion.cli", "train",
         "--config", str(cfg_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=child_environment())
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
        pool += synth.load_dataset(cli.dataset_path(cfg.data_dir, condition, "train"))
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
        samples = synth.load_dataset(cli.dataset_path(cfg.data_dir, condition, "test"))
        rep = experiment.evaluate_model(state, bank, samples, cfg.mode, condition)
        expected.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                 for v in rep.csv_row()))
    assert report.read_text().splitlines()[1:] == expected


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


def test_train_and_eval_score_a_sample_under_its_own_condition(tmp_path):
    # the seen test file relabeled "unseen": both commands pool its
    # samples with the unseen test file's, whatever file they come from
    cfg_path, cfg = write_config(tmp_path, mode="ctc", seed=1)
    gen_data(tmp_path, cfg_path)
    seen = cli.dataset_path(cfg.data_dir, "seen", "test")
    samples = synth.load_dataset(seen)
    synth.save_dataset([dataclasses.replace(s, condition="unseen") for s in samples], seen)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    # the metrics row of the evaluation whose model the checkpoint holds
    _, _, _, meta = config.load_checkpoint(cfg.checkpoint_path)
    with open(cfg.metrics_path) as fh:
        row = next(r for r in csv.DictReader(fh) if int(r["batches"]) == meta["step_count"])
    report = tmp_path / "eval.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cfg.data_dir, "--out", str(report)]) == 0
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["condition"] for r in rows] == ["clean", "unseen"]
    assert rows[1]["sample_count"] == str(2 * cfg.num_test_sequences)
    assert row["ter_seen"] == row["acc_seen"] == ""
    for r in rows:
        assert row["ter_" + r["condition"]] == r["token_error_rate"]
        assert row["acc_" + r["condition"]] == r["frame_accuracy"]


def test_eval_single_file_and_out_path(tmp_path):
    cfg = trained_checkpoint(tmp_path)
    report = tmp_path / "report.csv"
    assert cli.main(["eval", "--checkpoint", cfg.checkpoint_path,
                     "--data", cli.dataset_path(cfg.data_dir, "unseen", "test"),
                     "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("unseen,")


def _rewrite_checkpoint(cfg, tmp_path, change):
    data = json.loads(open(cfg.checkpoint_path).read())
    change(data)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)

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


# --------------------------------------------------------------------- check

def per_sample_check(samples, spec, temporal):
    """The message of the first sample that does not fit, one sample at a
    time, as _load_checked did before it screened whole files; None
    when every sample fits."""
    limit = spec.num_classes - 1 if temporal else spec.num_classes
    for i, s in enumerate(samples):
        if s.x.shape[1] != spec.input_dim:
            return "sample %d has %d features" % (i, s.x.shape[1])
        for kind, labels in (("class", s.framewise), ("collapsed label", s.collapsed)):
            bad = [c for c in labels.tolist() if c < 1 or c > limit]
            if bad:
                low, top = int(labels.min()), int(labels.max())
                return "sample %d uses %s %d" % (i, kind, top if top > limit else low)
        if temporal and ctc.min_frames(s.collapsed) > len(s.x):
            return "sample %d has %d collapsed labels" % (i, len(s.collapsed))
    return None


@pytest.mark.parametrize("temporal", [True, False])
def test_file_screen_reports_the_first_sample_that_does_not_fit(temporal, monkeypatch):
    # random labelings with repeats, labels out of range, short inputs
    # and a wrong width, against the one-sample-at-a-time checks
    rng = np.random.default_rng(4)
    spec = model.NetworkSpec(3, [4], 4 if temporal else 3)
    for trial in range(300):
        samples = []
        for _ in range(rng.integers(0, 6)):
            T = int(rng.integers(1, 6))
            x = np.zeros((T, 3 if rng.random() > 0.05 else 2))
            framewise = rng.integers(1 if rng.random() > 0.1 else 0, 4, T)
            collapsed = rng.integers(1, 4 if rng.random() > 0.1 else 5, rng.integers(0, 4))
            samples.append(synth.SequenceSample(x, framewise, collapsed, "clean"))
        monkeypatch.setattr(synth, "load_dataset", lambda path: samples)
        want = per_sample_check(samples, spec, temporal)
        if want is None:
            assert cli._load_checked("f", spec, temporal) is samples
        else:
            with pytest.raises(cli.ShapeMismatch, match="^f: " + want):
                cli._load_checked("f", spec, temporal)


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


# ---------------------------------------------------------------- exit codes
#
# One row per documented cause of exit 1, 2, 3 and 4 (README "Exit
# codes").  A row builds a run directory from its base, makes its one
# change, and runs one command.  It asserts the exit code, the names its
# message holds, and no traceback on stderr unless the row expects one.
# check's message is the FAIL lines of its table on stdout; every other
# command reports on stderr, and eval prints nothing on stdout.  A train
# row also asserts which of the config's checkpoint and metrics files
# exist afterwards.  A row's id is its test's name: rows whose ids share
# the part before "[" are the cases of one parametrized test, and a case
# that used to be a test function of its own keeps that test's id.


class Env:
    """One row's run directory: from base None nothing, "config" a
    config file, "data" its dataset files too, "trained" its checkpoint
    too.  A row's change records the paths and numbers its message names
    as attributes, which the row's named strings format."""

    def __init__(self, tmp_path, monkeypatch, base, config_kw):
        self.tmp, self.monkeypatch = tmp_path, monkeypatch
        if base is None:
            return
        cfg_path, self.cfg = write_config(tmp_path, **config_kw)
        self.cfg_path = str(cfg_path)
        if base != "config":
            gen_data(tmp_path, cfg_path)
        if base == "trained":
            assert cli.main(self.train()) == 0

    def gen_data(self, *extra):
        return ["gen-data", "--config", self.cfg_path, *extra]

    def train(self, *extra):
        return ["train", "--config", self.cfg_path, *extra]

    def eval(self, *extra, data=None, checkpoint=None):
        return ["eval", "--checkpoint", checkpoint or self.cfg.checkpoint_path,
                "--data", data or self.cfg.data_dir, *extra]


@dataclasses.dataclass(frozen=True)
class Row:
    id: str
    base: str
    code: int
    change: object              # env -> None, or None
    argv: object                # env -> the command line
    named: tuple
    files: tuple = None         # train: which of "checkpoint", "metrics" exist
    after: object = None        # (env, captured) -> the row's own assertions
    traceback: bool = False
    config: dict = dataclasses.field(default_factory=dict)


def run_row(row, tmp_path, capsys, monkeypatch):
    env = Env(tmp_path, monkeypatch, row.base, row.config)
    if row.change:
        row.change(env)
    argv = row.argv(env)
    capsys.readouterr()
    assert cli.main(argv) == row.code
    captured = capsys.readouterr()
    if argv[0] == "check":
        message = "\n".join(line for line in captured.out.splitlines()
                            if line.endswith(" FAIL"))
    else:
        message = captured.err
    for name in row.named:
        assert name.format_map(vars(env)) in message
    assert ("Traceback" in captured.err) == row.traceback
    if argv[0] == "eval":
        assert captured.out == ""
    if argv[0] == "train":
        written = {kind for kind in ("checkpoint", "metrics")
                   if os.path.exists(getattr(env.cfg, kind + "_path"))}
        assert written == set(row.files)
    if row.after:
        row.after(env, captured)


# ---- the changes

def config_file(content):
    """The command reads a config file holding content (bytes)."""
    def change(env):
        env.cfg_path = str(env.tmp / "broken.json")
        with open(env.cfg_path, "wb") as fh:
            fh.write(content)
    return change


def config_at(name):
    """The command reads the config at name below the run directory."""
    def change(env):
        env.cfg_path = str(env.tmp / name)
    return change


def config_setting(keys, value):
    """The command reads a copy of the config with value at keys."""
    def change(env):
        data = json.loads(open(env.cfg_path).read())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        config_file(json.dumps(data).encode())(env)
    return change


def config_literal(keys, text):
    """The command reads a copy of the config with the JSON text at keys
    as written, such as NaN or 1e400, which json.dumps does not write."""
    def change(env):
        config_setting(keys, "@literal@")(env)
        with open(env.cfg_path) as fh:
            content = fh.read().replace('"@literal@"', text)
        config_file(content.encode())(env)
    return change


def dataset_edit(condition, part, edit):
    """edit rewrites a dataset file's samples, and returns the numbers
    the message names."""
    def change(env):
        env.path = cli.dataset_path(env.cfg.data_dir, condition, part)
        samples = synth.load_dataset(env.path)
        vars(env).update(edit(samples) or {})
        synth.save_dataset(samples, env.path)
    return change


def planted(target, replacement):
    def change(env):
        env.monkeypatch.setattr(target, replacement)
    return change


def checkpoint_edit(edit):
    def change(env):
        env.path = _rewrite_checkpoint(env.cfg, env.tmp, edit)
    return change


def set_label(index, field, position, value):
    def edit(samples):
        getattr(samples[index], field)[position] = value
    return edit


def set_collapsed(index, labels):
    def edit(samples):
        samples[index].collapsed = np.array(labels)
    return edit


def widen(samples):
    # a file holds one feature width, so every sample is widened
    for sample in samples:
        sample.x = np.hstack([sample.x, np.zeros((len(sample.x), 1))])


def lengthen(samples):
    # the lattice cannot align more labels than frames
    T = len(samples[1].x)
    samples[1].collapsed = np.tile([1, 2], T)
    return {"T": T, "twice_T": 2 * T}


def drop_references(samples):
    # the token error rate of a condition divides by its reference tokens
    for sample in samples:
        sample.collapsed = sample.collapsed[:0]


def wide_network(env):
    # the network's input width is the generator's feature width
    wide = dataclasses.replace(env.cfg.generator, feature_dim=5)
    cfg_path, _ = write_config(env.tmp, "wide.json", generator=wide,
                               data_dir=env.cfg.data_dir)
    env.cfg_path = str(cfg_path)


def training_refused(env):
    env.missing = str(env.tmp / "nodir" / "file")
    env.monkeypatch.setattr(cli.model, "train",
                            lambda *args, **kw: pytest.fail("training started"))


def earlier_run_refused(env):
    training_refused(env)
    env.earlier = {path: open(path, "rb").read()
                   for path in (env.cfg.checkpoint_path, env.cfg.metrics_path)}


def missing_directory(env):
    env.missing = str(env.tmp / "nodir" / "e.csv")


def narrow_test_file(env):
    narrow = synth.GeneratorConfig(num_classes=2, feature_dim=3,
                                   segment_length=(2, 4),
                                   labels_per_sequence=(1, 3), seed=0)
    env.path = str(env.tmp / "narrow.npz")
    synth.save_dataset(synth.generate(narrow, 5), env.path)


def truncated_checkpoint(env):
    env.path = str(env.tmp / "truncated.json")
    with open(env.path, "wb") as fh:
        fh.write(open(env.cfg.checkpoint_path, "rb").read(500))


def empty_directory(env):
    env.path = str(env.tmp / "elsewhere")
    os.mkdir(env.path)


def directory_for_train_file(env):
    env.path = cli.dataset_path(env.cfg.data_dir, "clean", "train")
    os.remove(env.path)
    os.mkdir(env.path)


def gen_data_out(name):
    def change(env):
        env.out = os.path.join(env.cfg_path, name) if name else env.cfg_path
    return change


def non_finite(field, value):
    # json reads "nan" and turns "1e400" into inf
    def edit(data):
        *groups, name = field.split(".")
        target = data[groups[0]] if groups else data
        if isinstance(target[name], list):
            target[name][0][0] = value
        else:
            target[name] = value
    return edit


def rewritten(edit):
    """The file's arrays, changed by edit in place, written back."""
    def fault(path):
        with np.load(path) as npz:
            arrays = dict(npz)
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return fault


def truncate(path):
    with open(path, "rb") as fh:
        content = fh.read()
    with open(path, "wb") as fh:
        fh.write(content[:len(content) // 2])


def replace_with_text(path):
    # a dataset in the JSON lines format this one replaced
    with open(path, "w") as fh:
        fh.write('{"features": [[0.5]], "framewise": [1], "collapsed": [1], '
                 '"condition": "clean"}\n')


MALFORMED = {
    "truncated": (truncate, "not an .npz file"),
    "empty_record": (rewritten(dict.clear), "missing array 'features'"),
    "unknown_condition": (rewritten(lambda a: a["condition"].put(-1, len(synth.CONDITIONS))),
                          "condition: expected indices into ('clean', 'seen', 'unseen'), "
                          "one per sequence"),
    "nan_feature": (rewritten(lambda a: a["features"].put(0, np.nan)),
                    "features: expected finite values, got a NaN or an infinity"),
    "inf_feature": (rewritten(lambda a: a["features"].put(0, np.inf)),
                    "features: expected finite values, got a NaN or an infinity"),
    "not_a_zip": (replace_with_text, "not an .npz file"),
    # integer labels would read 1.7 as 1, and True as 1
    "fractional_framewise": (rewritten(lambda a: a.update(framewise=a["framewise"] + 0.7)),
                             "framewise: expected a 1-D integer array, got 1-D float64"),
    "boolean_collapsed": (rewritten(lambda a: a.update(collapsed=a["collapsed"] > 0)),
                          "collapsed: expected a 1-D integer array, got 1-D bool"),
    # np.savez pickles an object array, which the loader does not unpickle
    "object_array": (rewritten(lambda a: a.update(features=a["features"].astype(object))),
                     "features: Object arrays cannot be loaded when allow_pickle=False"),
}


def malformed_train_file(case):
    """A training file gets the case's fault."""
    def change(env):
        env.path = cli.dataset_path(env.cfg.data_dir, "seen", "train")
        MALFORMED[case][0](env.path)
    return change


def malformed_test_file(case):
    """A copy of a test file with the case's fault."""
    def change(env):
        env.path = str(env.tmp / "bad.npz")
        shutil.copyfile(cli.dataset_path(env.cfg.data_dir, "unseen", "test"), env.path)
        MALFORMED[case][0](env.path)
    return change


real_ecl_grad_features = losses.ecl_grad_features
real_occupancy = ctc.occupancy
real_batch_signals = model._batch_signals
real_forward_backward_batch = ctc.forward_backward_batch


def explode(*args, **kw):
    raise model.NonFiniteGradient("loss went to infinity")


def vanish(tables, y):
    raise ctc.DegenerateFrame("alignment mass vanished at frame 0")


def flipped_center_signal(u, w, centers):
    return -real_ecl_grad_features(u, w, centers)


def biased_occupancy(tables):
    return real_occupancy(tables) * 1.01


def vanished_occupancy(tables):
    raise ctc.DegenerateFrame("alignment mass vanished at frame 0")


def signals_without_centers(state, batch, Ts, u, log_y, y, settings, bank):
    # fmf's fused signal without its center part
    seq_losses, delta_ml, delta_fused, stats = real_batch_signals(
        state, batch, Ts, u, log_y, y, settings, bank)
    if settings.mode == "fmf":
        delta_fused = model._rows_product(delta_ml, state.params["W"], Ts)
    return seq_losses, delta_ml, delta_fused, stats


def one_nan_lattice_value(y, Ts, labels_list):
    # max(0.0, nan) is 0.0, so a running max over the instances would
    # pass it
    tables = real_forward_backward_batch(y, Ts, labels_list)
    tables.log_seq_prob[len(Ts) // 2] = np.nan
    return tables


# ---- the assertions a row adds

def no_dataset_files(env, captured):
    assert not any(os.path.exists(os.path.join(env.cfg.data_dir, name))
                   for name in ALL_FILES)


def step_0_checkpoint_kept(env, captured):
    _, _, _, meta = config.load_checkpoint(env.cfg.checkpoint_path)
    assert meta["step_count"] == 0


def earlier_outputs_unchanged(env, captured):
    assert {path: open(path, "rb").read() for path in env.earlier} == env.earlier


def framewise_modes_train(env, captured):
    # only the temporal modes read the labeling
    framewise_path, _ = write_config(env.tmp, "ce.json", mode="ce")
    assert cli.main(["train", "--config", str(framewise_path)]) == 0


def only_grad_full_failed(env, captured):
    out = captured.out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("grad_full ") and out[0].endswith(" FAIL")


def the_other_suites_ran(env, captured):
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "seq_prob", "occupancy_ecl", "partition", "consistency"]
    assert lines[1].endswith("FAIL")
    assert "DegenerateFrame: alignment mass vanished at frame 0" in lines[1]
    assert all(line.endswith("PASS") for i, line in enumerate(lines) if i != 1)


def seq_prob_error_is_nan(env, captured):
    assert np.isnan(verify.seq_prob_suite(n=20)[0])
    first = captured.out.splitlines()[0]
    assert first.split()[:2] == ["seq_prob", "max_err=nan"] and first.endswith("FAIL")


EXIT_2, EXIT_3, EXIT_4 = cli.EXIT_CONFIG, cli.EXIT_DIVERGED, cli.EXIT_SHAPE
GEN_DATA, TRAIN, EVAL = Env.gen_data, Env.train, Env.eval


def check(scope):
    return lambda env: ["check", "--scope", scope]


ROWS = [
    # ---- 2: a config that cannot be read, or is invalid
    *[Row("test_config_that_cannot_be_read_exits_2_naming_it[%s-%s]"
          % (command.__name__, kind), "config", EXIT_2, change, command,
          ["config: {cfg_path}: ", reason],
          files=() if command is TRAIN else None)
      for command in (GEN_DATA, TRAIN)
      for kind, change, reason in (
          ("missing", config_at("missing.json"), "cannot read: No such file"),
          ("directory", config_at(""), "cannot read: Is a directory"),
          ("not_utf8", config_file(b'{"mode": "\xff"}'), "can't decode byte 0xff"))],
    *[Row("test_gen_data_invalid_config_exits_2_naming_field[%s]" % case, "config",
          EXIT_2, config_setting(keys, value), GEN_DATA, [named],
          after=no_dataset_files)
      for case, keys, value, named in (
          ("segment_length", ("generator", "segment_length"), [4, 2],
           "config: generator: segment_length"),
          ("unseen_family", ("generator", "unseen", "family"), "gauss",
           "config: generator.unseen: "),
          ("num_train_sequences", ("num_train_sequences",), 0,
           "config: num_train_sequences"),
          ("num_test_sequences", ("num_test_sequences",), 0,
           "config: num_test_sequences"),
          ("mean_seed", ("generator", "mean_seed"), -1,
           "config: generator: mean_seed: must be nonnegative, got -1"))],
    Row("test_gen_data_unknown_field_exits_2_naming_field", "config", EXIT_2,
        config_file(b'{"mode": "tmf", "learning_rte": 0.1}'), GEN_DATA,
        ["learning_rte"]),
    # a value of another JSON type than its field's: before, "recurrent":
    # "no" trained a recurrent network and "lam": true a lambda of 1
    *[Row("test_config_mistyped_field_exits_2_naming_it[%s-%s]" % (command.__name__, field),
          "config", EXIT_2, config_setting((field,), value), command,
          ["config: %s: expected %s, got " % (field, expected)],
          files=() if command is TRAIN else None,
          after=no_dataset_files if command is GEN_DATA else None)
      for command in (GEN_DATA, TRAIN)
      for field, value, expected in (
          ("seed", "3", "an integer"), ("batch_size", 2.5, "an integer"),
          ("recurrent", "no", "true or false"), ("lam", True, "a number"),
          ("hidden", 16, "an array"), ("train_conditions", "clean", "an array"))],
    # a beta of 1 diverged, and the other values trained
    *[Row("test_train_optimizer_setting_out_of_range_exits_2_naming_it[%s-%s]"
          % (field, value), "data", EXIT_2, config_setting((field,), value), TRAIN,
          ["config: %s: must %s, got %r" % (field, rule, value)], files=())
      for field, value, rule in (("beta1", 1.0, "lie in [0, 1)"),
                                 ("beta1", -0.5, "lie in [0, 1)"),
                                 ("beta2", 1.5, "lie in [0, 1)"),
                                 ("epsilon", -1.0, "be positive"))],
    # the network's widths follow from the generator and the mode
    Row("test_config_with_a_network_field_exits_2_naming_it", "config", EXIT_2,
        config_setting(("network",), {"input_dim": 4, "hidden": [6], "num_classes": 3}),
        TRAIN, ["config: top level: unknown field 'network'"], files=()),
    # json reads NaN, and an overflowing literal as inf: a number that
    # is not finite is refused before any file is written, not trained on
    *[Row("test_config_non_finite_number_exits_2_naming_field[%s-%s-%s]"
          % (command.__name__, ".".join(keys), text), "config", EXIT_2,
          config_literal(keys, literal or text), command,
          ["config: %s: not a finite number" % named],
          files=() if command is TRAIN else None,
          after=no_dataset_files if command is GEN_DATA else None)
      for command, keys, text, literal, named in (
          (TRAIN, ("learning_rate",), "NaN", None, "learning_rate"),
          (TRAIN, ("learning_rate",), "1e400", None, "learning_rate"),
          (TRAIN, ("lam",), "NaN", None, "lam"),
          (TRAIN, ("center_momentum",), "1e400", None, "center_momentum"),
          (TRAIN, ("beta1",), "NaN", None, "beta1"),
          (TRAIN, ("epsilon",), "1e400", None, "epsilon"),
          (GEN_DATA, ("generator", "unseen", "offset_scale"), "NaN", None,
           "generator.unseen: offset_scale"),
          (GEN_DATA, ("generator", "segment_length"), "1e400", "[2, 1e400]",
           "generator: segment_length"))],
    # the split would put copies of the repeated file's sequences on both sides
    Row("test_train_repeated_condition_exits_2_naming_it", "data", EXIT_2,
        config_setting(("train_conditions",), ["clean", "clean"]), TRAIN,
        ["config: train_conditions: repeated condition 'clean'"], files=()),
    *[Row("test_train_invalid_occupancy_setting_exits_2_naming_field[%s]" % case,
          "data", EXIT_2, config_setting((field,), value), TRAIN, [field], files=())
      for case, field, value in (
          ("threshold_below_0", "occupancy_threshold", -0.5),
          # would gate off every center update
          ("threshold_above_1", "occupancy_threshold", 2.0),
          ("batch_size_0", "batch_size", 0),
          ("max_batches_0", "max_batches", 0),
          ("eval_interval_0", "eval_interval", 0),
          ("halve_after_0", "halve_after", 0),
          ("stop_after_0", "stop_after", 0))],
    # a file from when tmf had two occupancies to pick from: to port it,
    # delete the key
    Row("test_train_invalid_occupancy_setting_exits_2_naming_field[unknown_mode]",
        "data", EXIT_2, config_setting(("occupancy_mode",), "paper_literal"), TRAIN,
        ["config: top level: unknown field 'occupancy_mode'"], files=()),
    # 3 sequences per condition split 3/0 at validation_fraction 0.1, and
    # 1 splits 0/1 at 0.9
    Row("test_train_empty_validation_split_exits_2", "data", EXIT_2, None, TRAIN,
        ["validation split empty"], files=(), config={"num_train_sequences": 3}),
    Row("test_train_empty_training_split_exits_2", "data", EXIT_2, None, TRAIN,
        ["training split empty"], files=(),
        config={"num_train_sequences": 1, "validation_fraction": 0.9}),
    # ---- 2: a dataset file or checkpoint that cannot be read, or is malformed
    Row("test_train_missing_data_exits_2", "config", EXIT_2, None, TRAIN,
        ["missing dataset file", cli.dataset_path("", "clean", "train")], files=()),
    Row("test_train_dataset_file_that_is_a_directory_exits_2_naming_it", "data",
        EXIT_2, directory_for_train_file, TRAIN,
        ["dataset: {path}: cannot read: Is a directory"], files=()),
    # the message names the file and, where the file is an .npz, the
    # array; the ids keep the names of the tests from before the format
    *[Row("test_train_malformed_dataset_exits_2_naming_file_and_line[%s]" % case,
          "data", EXIT_2, malformed_train_file(case), TRAIN,
          ["dataset: {path}: " + reason], files=())
      for case, (_, reason) in sorted(MALFORMED.items())],
    *[Row("test_eval_malformed_dataset_exits_2_naming_file_and_line[%s]" % case,
          "trained", EXIT_2, malformed_test_file(case),
          lambda env: env.eval(data=env.path), ["dataset: {path}: " + reason])
      for case, (_, reason) in sorted(MALFORMED.items())],
    Row("test_train_test_set_without_reference_tokens_exits_2_before_writing", "data",
        EXIT_2, dataset_edit("seen", "test", drop_references), TRAIN,
        ["{path}", "no reference token"], files=()),
    Row("test_eval_test_set_without_reference_tokens_exits_2_naming_file", "trained",
        EXIT_2, dataset_edit("unseen", "test", drop_references),
        lambda env: env.eval(data=env.path), ["{path}", "no reference token"]),
    Row("test_eval_directory_with_a_test_set_without_reference_tokens_exits_2_naming_file",
        "trained", EXIT_2, dataset_edit("unseen", "test", drop_references), EVAL,
        ["{path}", "no reference token"]),
    Row("test_eval_directory_without_test_files_exits_2_naming_it", "trained", EXIT_2,
        empty_directory, lambda env: env.eval(data=env.path), ["{path}"]),
    Row("test_eval_missing_checkpoint_exits_2", None, EXIT_2, None,
        lambda env: ["eval", "--checkpoint", str(env.tmp / "nope.json"),
                     "--data", str(env.tmp)],
        ["{tmp}/nope.json: cannot read"]),
    Row("test_eval_truncated_checkpoint_exits_2_naming_file", "trained", EXIT_2,
        truncated_checkpoint, lambda env: env.eval(checkpoint=env.path),
        ["{path}", "invalid JSON"]),
    Row("test_eval_checkpoint_without_adam_exits_2_naming_file", "trained", EXIT_2,
        checkpoint_edit(lambda d: d.pop("adam")), lambda env: env.eval(checkpoint=env.path),
        ["{path}", "'adam'"]),
    Row("test_eval_unknown_mode_in_checkpoint_exits_2", "trained", EXIT_2,
        checkpoint_edit(lambda d: d.update(mode="CTC")),
        lambda env: env.eval(checkpoint=env.path), ["{path}", "mode"]),
    # a checkpoint holding a NaN or an infinity is a config error, not a
    # model to score
    *[Row("test_eval_non_finite_checkpoint_value_exits_2_naming_field[%s-%s]"
          % (field, value), "trained", EXIT_2, checkpoint_edit(non_finite(field, value)),
          lambda env: env.eval(checkpoint=env.path),
          ["{path}: %s: not a finite number" % field])
      for field, value in (("params.W", "nan"), ("params.W", "1e400"),
                           ("adam_m.b0", "nan"), ("adam_v.W0", "-1e400"),
                           ("centers.values", "nan"), ("lr", "nan"))],
    # every value is read by its type and checked where its object is built
    *[Row("test_eval_checkpoint_field_that_is_mistyped_or_out_of_range_exits_2_naming_it[%s]"
          % field, "trained", EXIT_2, checkpoint_edit(edit),
          lambda env: env.eval(checkpoint=env.path), ["{path}: %s: %s" % (field, named)])
      for field, edit, named in (
          ("adam.steps", lambda d: d["adam"].update(steps="20"), 'expected an integer, got "20"'),
          ("schedule.halve_after", lambda d: d["schedule"].update(halve_after=3.0),
           "expected an integer, got 3.0"),
          ("network", lambda d: d["network"].update(recurrent="yes"),
           'recurrent: expected true or false, got "yes"'),
          ("centers.momentum", lambda d: d["centers"].update(momentum="-0.5"),
           "must be nonnegative, got -0.5"))],
    # the arrays' shapes and the bank's size follow from the network and
    # the mode: before, eval scored a ce checkpoint of a tmf network (TER
    # 200%), and a transposed weight reached a matmul
    *[Row("test_eval_checkpoint_array_that_does_not_fit_exits_2_naming_it[%s]" % case,
          "trained", EXIT_2, checkpoint_edit(edit), lambda env: env.eval(checkpoint=env.path),
          ["{path}: %s: expected a %s array, to fit the network and mode" % named])
      for case, edit, named in (
          ("mode_of_another_network", lambda d: d.update(mode="ce"), ("centers.values", "3 x 6")),
          ("transposed_weight",
           lambda d: d["params"].update(W0=[list(c) for c in zip(*d["params"]["W0"])]),
           ("params.W0", "6 x 4")))],
    # ---- 2: an output that cannot be written
    *[Row("test_gen_data_out_that_cannot_be_written_exits_2_naming_it[%s]" % case,
          "config", EXIT_2, gen_data_out(name), lambda env: env.gen_data("--out", env.out),
          ["cannot write {out}: ", reason], after=no_dataset_files)
      for case, name, reason in (("below_a_file", "data", "Not a directory"),
                                 ("an_existing_file", "", "File exists"))],
    # train checks both paths before training starts
    Row("test_train_output_path_in_a_missing_directory_exits_2", "data", EXIT_2,
        training_refused, lambda env: env.train("--out", env.missing),
        ["cannot write {missing}:"], files=()),
    Row("test_train_checkpoint_path_in_a_missing_directory_exits_2", "data", EXIT_2,
        training_refused, lambda env: env.train("--checkpoint", env.missing),
        ["cannot write {missing}:"], files=()),
    # an earlier run's files at the other path keep their bytes
    *[Row("test_train_%s_path_in_a_missing_directory_keeps_the_earlier_%s"
          % (path, kept), "trained", EXIT_2, earlier_run_refused,
          lambda env, flag=flag: env.train(flag, env.missing),
          ["cannot write {missing}:"], files=("checkpoint", "metrics"),
          after=earlier_outputs_unchanged)
      for path, flag, kept in (("output", "--out", "checkpoint"),
                               ("checkpoint", "--checkpoint", "metrics"))],
    Row("test_eval_out_path_in_a_missing_directory_exits_2", "trained", EXIT_2,
        missing_directory, lambda env: env.eval("--out", env.missing),
        ["cannot write {missing}"]),
    # ---- 3: training divergence, which keeps the step-0 checkpoint
    Row("test_train_divergence_exits_3_keeping_checkpoint", "data", EXIT_3,
        planted("tmfusion.model.train", explode), TRAIN,
        ["diverged", "loss went to infinity", "{cfg.checkpoint_path}"],
        files=("checkpoint", "metrics"), after=step_0_checkpoint_kept),
    Row("test_train_degenerate_frame_exits_3", "data", EXIT_3,
        planted("tmfusion.ctc.ctc_grad_logits", vanish), TRAIN,
        ["diverged", "mass vanished", "{cfg.checkpoint_path}"],
        files=("checkpoint", "metrics"), after=step_0_checkpoint_kept),
    # ---- 4: a dataset that does not fit the network, named by file and sample
    Row("test_train_shape_mismatch_exits_4", "data", EXIT_4, wide_network, TRAIN,
        [cli.dataset_path("", "clean", "train") + ": sample 0 ",
         "4 features, network expects 5"], files=()),
    # a framewise label of 0 would index the last one-hot column
    Row("test_train_frame_label_outside_the_classes_exits_4", "data", EXIT_4,
        dataset_edit("clean", "train", set_label(3, "framewise", 0, 0)), TRAIN,
        ["{path}: sample 3 ", "class 0"], files=()),
    # the test sets are scored at every evaluation, so train checks them
    # before it writes
    Row("test_train_test_set_with_wide_features_exits_4_before_writing", "data", EXIT_4,
        dataset_edit("seen", "test", widen), TRAIN,
        ["{path}: sample 0 ", "5 features", "network expects 4"], files=()),
    Row("test_train_test_set_frame_label_outside_the_classes_exits_4", "data", EXIT_4,
        dataset_edit("unseen", "test", set_label(4, "framewise", -1, 7)), TRAIN,
        ["{path}: sample 4 ", "class 7", "1..2"], files=(),
        config={"mode": "fmf"}),
    *[Row("test_train_collapsed_label_outside_the_classes_exits_4[%s]" % mode, "data",
          EXIT_4, dataset_edit("clean", "train", set_collapsed(5, [1, 99])), TRAIN,
          ["{path}: sample 5 ", "collapsed label 99"], files=(), config=kw)
      for mode, kw in (("ctc", {"mode": "ctc"}),
                       ("ce", {"mode": "ce"}))],
    Row("test_train_labeling_longer_than_its_frames_exits_4", "data", EXIT_4,
        dataset_edit("clean", "train", lengthen), TRAIN,
        ["{path}: sample 1 ", "{twice_T} collapsed labels", "need {twice_T} frames",
         "it has {T}"], files=(), config={"mode": "ctc"}, after=framewise_modes_train),
    Row("test_eval_shape_mismatch_exits_4", "trained", EXIT_4, narrow_test_file,
        lambda env: env.eval(data=env.path), ["{path}: sample 0 ", "features"]),
    # ---- 1: a check suite that fails on its error, or raises
    Row("test_check_catches_a_planted_sign_error", None, cli.EXIT_CHECK,
        planted("tmfusion.losses.ecl_grad_features", flipped_center_signal),
        check("losses"), ["grad_ecl"]),
    Row("test_check_catches_a_planted_table_error", None, cli.EXIT_CHECK,
        planted("tmfusion.ctc.occupancy", biased_occupancy), check("ctc"),
        ["occupancy_ecl"]),
    Row("test_check_catches_a_planted_fault_in_the_training_signals", None,
        cli.EXIT_CHECK, planted("tmfusion.model._batch_signals", signals_without_centers),
        check("model"), ["grad_full"], after=only_grad_full_failed),
    Row("test_check_reports_a_suite_that_raises_and_runs_the_rest", None,
        cli.EXIT_CHECK, planted("tmfusion.ctc.occupancy", vanished_occupancy),
        check("ctc"), ["occupancy_ecl", "DegenerateFrame: alignment mass vanished"],
        after=the_other_suites_ran, traceback=True),
    Row("test_check_fails_a_suite_whose_error_is_nan", None, cli.EXIT_CHECK,
        planted("tmfusion.ctc.forward_backward_batch", one_nan_lattice_value),
        check("ctc"), ["seq_prob", "max_err=nan"], after=seq_prob_error_is_nan),
]
ROW = {row.id: row for row in ROWS}


def _define_tests(rows):
    """A test for each row id.  Rows whose ids share the name before "["
    are the cases of one parametrized test."""
    cases = {}
    for row in rows:
        name, _, case = row.id.partition("[")
        cases.setdefault(name, []).append((case.rstrip("]"), row))
    for name, group in cases.items():
        if group[0][0]:
            @pytest.mark.parametrize("row", [row for _, row in group],
                                     ids=[case for case, _ in group])
            def test(row, tmp_path, capsys, monkeypatch):
                run_row(row, tmp_path, capsys, monkeypatch)
        else:
            (_, only), = group

            def test(tmp_path, capsys, monkeypatch, row=only):
                run_row(row, tmp_path, capsys, monkeypatch)
        test.__name__ = test.__qualname__ = name
        globals()[name] = test


_define_tests(ROWS)


@pytest.mark.parametrize("row", [
    ROW["test_config_that_cannot_be_read_exits_2_naming_it[train-missing]"],
    ROW["test_gen_data_out_that_cannot_be_written_exits_2_naming_it[below_a_file]"],
], ids=["missing_config", "out_below_a_file"])
def test_entry_point_exits_with_the_rows_code(tmp_path, monkeypatch, row):
    # main returns the code; only the process shows what sys.exit makes of it
    env = Env(tmp_path, monkeypatch, row.base, row.config)
    row.change(env)
    proc = subprocess.run([sys.executable, "-m", "tmfusion.cli", *row.argv(env)],
                          capture_output=True, text=True, env=child_environment(),
                          timeout=120)
    assert proc.returncode == row.code
    assert "Traceback" not in proc.stderr
    for name in row.named:
        assert name.format_map(vars(env)) in proc.stderr
