"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
fixed unit of work per ``run_round``.  A round times its phases itself
and checks its outputs after the timers stop.  ``outcome`` holds what a
round computed (quality numbers, parameter digests, file digests,
suite errors); it depends only on the seed, so every round of a run
must reproduce it bit for bit.
"""

import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import os
import time

import numpy as np

from tmfusion import cli, config, experiment, model, synth, verify

CONDITIONS = synth.CONDITIONS


@dataclasses.dataclass(frozen=True)
class Size:
    batches: int = 200              # per-mode training budget
    eval_interval: int = 100
    train_per_condition: int = 1000
    num_test: int = 600
    suite_factor: float = 2.0       # suite n as a multiple of its default
    cli_batches: int = 200
    cli_eval_interval: int = 50
    cli_train: int = 1000
    cli_test: int = 300
    setups: int = 5


FULL = Size()
TINY = Size(batches=4, eval_interval=2, train_per_condition=20, num_test=6,
            suite_factor=0.05, cli_batches=4, cli_eval_interval=2,
            cli_train=10, cli_test=4, setups=2)


class Round:
    """Timings, work count, outcome and failures of one round.

    Each timed phase is kept both in raw seconds and in seconds
    calibrated by ``clock`` (a ``calibrate.Calibrator``)."""

    def __init__(self, clock):
        self.clock = clock
        self.phases = {}        # timed phase -> calibrated seconds
        self.raw = {}           # timed phase -> raw seconds
        self.ops = 0            # unit operations of the workload
        self.ops_seconds = 0.0  # the phases the operations ran in
        self.rates = {}         # per-round detail metrics, name -> value
        self.outcome = {}
        self.attempted = 0
        self.failures = []

    @property
    def wall(self):
        return sum(self.phases.values())

    @property
    def raw_wall(self):
        return sum(self.raw.values())

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def timed(self, phase, fn, *args, **kwargs):
        mark = self.clock.mark()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw, calibrated = self.clock.block(mark, time.perf_counter() - start)
        self.raw[phase] = self.raw.get(phase, 0.0) + raw
        self.phases[phase] = self.phases.get(phase, 0.0) + calibrated
        return result


def model_digest(state, bank):
    h = hashlib.sha256()
    for name in state.param_names():
        h.update(np.ascontiguousarray(state.params[name]).tobytes())
    h.update(np.ascontiguousarray(bank.centers).tobytes())
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(*values):
    return all(np.isfinite(v) for v in values)


class TrainWorkload:
    """Two training modes on the robustness task, then scoring of every
    test condition, through ``experiment`` and ``model``."""

    def __init__(self, modes, size, seed, workdir):
        self.modes, self.size, self.seed = modes, size, seed

    def setup(self):
        s = self.size
        spec = dataclasses.replace(
            experiment.ExperimentSpec(), max_batches=s.batches,
            eval_interval=s.eval_interval,
            num_train_per_condition=s.train_per_condition, num_test=s.num_test)
        data = experiment.make_datasets(spec, self.seed)
        runs = {}
        for mode in self.modes:
            cfg = experiment.run_config_for(spec, mode, self.seed)
            runs[mode] = (cfg.settings(), cfg.new_state(), cfg.new_bank())
        return data, runs

    def run_round(self, inputs, clock):
        (train_set, val_set, tests), runs = inputs
        r = Round(clock)
        scored = 0
        for mode in self.modes:
            settings, state, bank = copy.deepcopy(runs[mode])
            state, bank, rows = r.timed(mode, model.train, state, bank,
                                        train_set, val_set, settings)
            reports = r.timed("eval", lambda: {
                c: experiment.evaluate_model(state, bank, tests[c], mode, c)
                for c in CONDITIONS})
            batches = rows[-1]["batches"]
            r.ops += batches
            r.ops_seconds += r.phases[mode]
            r.rates["%s_batches_per_s" % mode] = batches / r.phases[mode]
            r.check(batches == settings.max_batches and all(
                _finite(row["train_loss"], row["val_score"]) for row in rows),
                "%s: %d of %d batches or a non-finite loss"
                % (mode, batches, settings.max_batches))
            for c, rep in reports.items():
                scored += rep.sample_count
                r.check(rep.sample_count == len(tests[c]) and _finite(
                    rep.token_error_rate, rep.frame_accuracy),
                    "%s: bad %s report" % (mode, c))
            r.outcome[mode] = {
                "unseen_ter": reports["unseen"].token_error_rate,
                "unseen_frame_acc": reports["unseen"].frame_accuracy,
                "digest": model_digest(state, bank)}
        r.rates["eval_seqs_per_s"] = scored / r.phases["eval"]
        _quality(r, [r.outcome[m] for m in self.modes])
        return r


def _quality(r, per_model):
    r.outcome["unseen_ter"] = float(np.mean([q["unseen_ter"] for q in per_model]))
    r.outcome["unseen_frame_acc"] = float(
        np.mean([q["unseen_frame_acc"] for q in per_model]))


class SuiteWorkload:
    """Every ``verify.SUITES`` entry, n scaled, each judged against its
    own tolerance."""

    def __init__(self, size, seed, workdir):
        self.size, self.seed = size, seed

    def setup(self):
        plan = []
        for index, (name, (fn, _, _)) in enumerate(verify.SUITES.items()):
            default_n = inspect.signature(fn).parameters["n"].default
            n = max(1, round(default_n * self.size.suite_factor))
            fn(n=2)             # warm-up: first-call costs stay out of rounds
            plan.append((name, n, self.seed * len(verify.SUITES) + index))
        return plan

    def run_round(self, plan, clock):
        r = Round(clock)
        for name, n, suite_seed in plan:
            fn, tol, _ = verify.SUITES[name]
            err, count = r.timed(name, fn, n=n, seed=suite_seed)
            r.ops += count
            r.check(count == n and err <= tol,
                    "%s: max_err %.3e over tolerance %.0e" % (name, err, tol))
            r.outcome[name] = err
        r.ops_seconds = r.wall
        r.rates["check_instances_per_s"] = r.ops / r.wall
        return r


class CliWorkload:
    """``tmfusion gen-data`` -> ``train`` (tmf) -> ``eval`` in one process,
    files in a directory of the checkout."""

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.dir = size, seed, workdir
        self.checked = False

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        s = self.size
        cfg = config.RunConfig(
            mode="tmf", seed=self.seed, max_batches=s.cli_batches,
            eval_interval=s.cli_eval_interval,
            num_train_sequences=s.cli_train, num_test_sequences=s.cli_test,
            data_dir=self.path("data"), checkpoint_path=self.path("ckpt.json"),
            metrics_path=self.path("metrics.csv"))
        config.save_config(cfg, self.path("run.json"))
        cfg = config.load_config(self.path("run.json"))
        gen = dataclasses.replace(cfg.generator, seed=cfg.seed)
        expected = {c: synth.generate(
            dataclasses.replace(gen, noise_condition=c), cfg.num_test_sequences,
            start_index=experiment.TEST_START_INDEX) for c in CONDITIONS}
        return cfg, expected

    def _command(self, r, phase, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = r.timed(phase, cli.main, argv)
        r.check(code == 0, "%s exited %d" % (phase, code))

    def run_round(self, inputs, clock):
        cfg, expected = inputs
        r = Round(clock)
        conf, ckpt, out = self.path("run.json"), cfg.checkpoint_path, self.path("eval.csv")
        self._command(r, "gen_data", ["gen-data", "--config", conf])
        self._command(r, "cli_train", ["train", "--config", conf])
        self._command(r, "cli_eval", ["eval", "--checkpoint", ckpt,
                                      "--data", cfg.data_dir, "--out", out])
        r.ops, r.ops_seconds = cfg.max_batches, r.phases["cli_train"]
        r.rates.update((phase + "_s", t) for phase, t in r.phases.items())
        with open(out, newline="") as fh:
            rows = {row["condition"]: row for row in csv.DictReader(fh)}
        if not self.checked:
            self._check_against_library(r, cfg, expected, rows)
            self.checked = True
        names = sorted(os.listdir(cfg.data_dir))
        r.outcome = {name: file_digest(os.path.join(cfg.data_dir, name)) for name in names}
        for name in (ckpt, cfg.metrics_path, out):
            r.outcome[os.path.basename(name)] = file_digest(name)
        per_model = [{"unseen_ter": float(rows["unseen"]["token_error_rate"]),
                      "unseen_frame_acc": float(rows["unseen"]["frame_accuracy"])}]
        _quality(r, per_model)
        return r

    def _check_against_library(self, r, cfg, expected, rows):
        """The data files hold the generator's samples, and the eval CSV
        equals ``experiment.evaluate_model`` on the final checkpoint."""
        state, bank, _, meta = config.load_checkpoint(cfg.checkpoint_path)
        for c in CONDITIONS:
            samples = synth.load_jsonl(cli.dataset_path(cfg.data_dir, c, "test"))
            r.check(len(samples) == len(expected[c]) and all(
                np.array_equal(a.x, b.x) and np.array_equal(a.collapsed, b.collapsed)
                for a, b in zip(samples, expected[c])),
                "gen-data %s test file differs from synth.generate" % c)
            report = experiment.evaluate_model(state, bank, samples, meta["mode"], c)
            written = rows.get(c, {})
            r.check(all(written.get(col) == (repr(float(v)) if isinstance(v, float)
                                             else str(v))
                        for col, v in zip(report.CSV_COLUMNS, report.csv_row())),
                    "eval CSV row %s differs from evaluate_model" % c)


WORKLOADS = {
    "seq_train": functools.partial(TrainWorkload, ("ctc", "tmf")),
    "frame_train": functools.partial(TrainWorkload, ("ce", "fmf")),
    "check_suites": SuiteWorkload,
    "cli_pipeline": CliWorkload,
}

# Layers a workload must not reach while traced: the span names with
# these prefixes must record zero calls.
BYPASSED = {
    "seq_train": ("config.", "synth.save_jsonl", "synth.load_jsonl", "oracle."),
    "frame_train": ("ctc.", "config.", "synth.save_jsonl", "synth.load_jsonl", "oracle."),
    "check_suites": ("config.", "synth.", "experiment.", "metrics."),
    "cli_pipeline": ("oracle.",),
}
