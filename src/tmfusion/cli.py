"""Command line entry point: data generation, training, evaluation, and
the self-check suites.

The commands raise, and main maps each error to its exit code and a
one-line message, by the table under "Exit codes" in the README: 2 an
input that cannot be read or is invalid, or an output that cannot be
written, 3 training divergence, 4 a dataset that does not fit the
network; check exits 1 when a suite fails.
"""

import argparse
import csv
import dataclasses
import os
import sys
import traceback
from contextlib import closing, nullcontext

import numpy as np

from . import ctc, metrics, model, synth, verify, workers
from .config import (ConfigError, append_metrics, load_checkpoint, load_config,
                     open_metrics, save_checkpoint)
from .experiment import corpus_part, evaluate_model, split_pool
from .model import TEMPORAL_MODES
from .synth import CONDITIONS, MalformedDataset

EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SHAPE = 4
DIVERGED = (model.NonFiniteGradient, ctc.DegenerateFrame)


class ShapeMismatch(Exception):
    """A dataset sample that does not fit the network: exit 4."""


def _config_for(args):
    """The config file, with the command's --seed, --data, --checkpoint
    and --out in place of its settings where they are given."""
    given = {"seed": args.seed, "data_dir": getattr(args, "data", None),
             "checkpoint_path": getattr(args, "checkpoint", None),
             "metrics_path": getattr(args, "out", None)}
    return dataclasses.replace(load_config(args.config),
                               **{k: v for k, v in given.items() if v not in (None, "")})


def dataset_path(data_dir, condition, part):
    return os.path.join(data_dir, "%s_%s.npz" % (condition, part))


def _write_part(gen, condition, part, count, path):
    """Write one dataset file; returns its record count."""
    samples = corpus_part(gen, condition, part, count)
    synth.save_dataset(samples, path)
    return len(samples)


def cmd_gen_data(args):
    cfg = _config_for(args)
    out_dir = args.out or cfg.data_dir
    os.makedirs(out_dir, exist_ok=True)
    gen = dataclasses.replace(cfg.generator, seed=cfg.seed)
    jobs = [(gen, condition, part, count, dataset_path(out_dir, condition, part))
            for condition in CONDITIONS
            for part, count in (("train", cfg.num_train_sequences),
                                ("test", cfg.num_test_sequences))]
    # the files are independent: written on worker processes, reported
    # in this order
    with closing(workers.in_order(_write_part, jobs)) as counts:
        for job, count in zip(jobs, counts):
            print("%s: %d records" % (job[-1], count))
    return 0


def _load_checked(path, spec, temporal):
    """The samples of a dataset file.  Each must match the network's
    input width and label space, and in the temporal modes its labeling
    must fit its frames; the first that does not raises ShapeMismatch
    naming the file and the sample.  The whole file is screened with
    array operations, and the message is read off the screen's arrays."""
    samples = synth.load_dataset(path)
    n, limit = len(samples), spec.num_classes - 1 if temporal else spec.num_classes
    width = np.array([sample.x.shape[1] for sample in samples], dtype=np.intp)
    frames = np.array([len(sample.x) for sample in samples], dtype=np.intp)
    bad, ranges = width != spec.input_dim, []
    for kind, labels in (("class", [sample.framewise for sample in samples]),
                         ("collapsed label", [sample.collapsed for sample in samples])):
        # each sample's lowest and highest label, 1 and limit when it has none
        owner, flat = _flat(labels)
        low, top = np.ones(n, dtype=np.intp), np.full(n, limit, dtype=np.intp)
        np.minimum.at(low, owner, flat)
        np.maximum.at(top, owner, flat)
        bad |= (low < 1) | (top > limit)
        ranges.append((kind, low, top))
    if temporal:
        # ctc.min_frames of the collapsed labels (the loop's last owner
        # and flat): one frame per label, and a blank between repeats (an
        # empty labeling needs one frame, and every sample has one)
        need = np.bincount(owner, minlength=n) + np.bincount(
            owner[1:][(flat[1:] == flat[:-1]) & (owner[1:] == owner[:-1])], minlength=n)
        bad |= need > frames
    if bad.any():
        i = int(np.argmax(bad))
        where = "%s: sample %d" % (path, i)
        if width[i] != spec.input_dim:
            raise ShapeMismatch("%s has %d features, network expects %d"
                                % (where, width[i], spec.input_dim))
        for kind, low, top in ranges:
            if low[i] < 1 or top[i] > limit:
                raise ShapeMismatch("%s uses %s %d, network only covers 1..%d" % (
                    where, kind, top[i] if top[i] > limit else low[i], limit))
        raise ShapeMismatch("%s has %d collapsed labels, which need %d frames; it has %d"
                            % (where, len(samples[i].collapsed), need[i], frames[i]))
    return samples


def _flat(arrays):
    """(owner, flat): the arrays concatenated, and each element's index
    in the list."""
    return (np.repeat(np.arange(len(arrays)), [len(a) for a in arrays]),
            np.concatenate([np.zeros(0, dtype=np.intp)] + arrays))


def _load_train_pool(cfg):
    pool = []
    for condition in cfg.train_conditions:
        path = dataset_path(cfg.data_dir, condition, "train")
        if not os.path.exists(path):
            raise ConfigError("data_dir: missing dataset file %s" % path)
        pool.extend(_load_checked(path, cfg.network, cfg.temporal))
    return pool


def _test_files(data_dir):
    """The <condition>_test.npz files of a dataset directory."""
    return [path for path in (dataset_path(data_dir, condition, "test")
                              for condition in CONDITIONS) if os.path.exists(path)]


def _load_test_sets(paths, spec, temporal):
    """The samples of the test files to score, each checked as
    _load_checked checks it, grouped by their own condition in
    CONDITIONS order.  The token error rate divides by the reference
    tokens of each condition, so a file without samples, or with a
    condition whose samples hold no token, raises MalformedDataset
    naming the file."""
    tests = {condition: [] for condition in CONDITIONS}
    for path in paths:
        samples = _load_checked(path, spec, temporal)
        if not samples:
            raise MalformedDataset("%s: no sample to score" % path)
        tokens = {}
        for sample in samples:
            tokens[sample.condition] = tokens.get(sample.condition, 0) + len(sample.collapsed)
            tests[sample.condition].append(sample)
        for condition, count in tokens.items():
            if not count:
                raise MalformedDataset("%s: the %s samples hold no reference token to "
                                       "score" % (path, condition))
    return {condition: samples for condition, samples in tests.items() if samples}


def _check_writable(path):
    """Raise the OSError that writing path would raise; path stays as it was."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def cmd_train(args):
    cfg = _config_for(args)
    pool = _load_train_pool(cfg)
    tests = _load_test_sets(_test_files(cfg.data_dir), cfg.network, cfg.temporal)
    train_set, val_set = split_pool(pool, cfg.validation_fraction, cfg.seed)
    state = cfg.new_state()
    bank = cfg.new_bank()
    # a failed checkpoint write keeps the earlier file, so no output is
    # written unless both can be
    _check_writable(cfg.metrics_path)
    # the step-0 checkpoint, which a run that diverges keeps
    sched = model.ScheduleState(halve_after=cfg.halve_after, stop_after=cfg.stop_after)
    save_checkpoint(cfg.checkpoint_path, state, bank, sched, cfg.mode, cfg.seed)
    fh, writer = open_metrics(cfg.metrics_path)

    def hook(hstate, hbank, row, sched):
        for condition, samples in tests.items():
            report = evaluate_model(hstate, hbank, samples, cfg.mode, condition)
            row["ter_%s" % condition] = report.token_error_rate
            row["acc_%s" % condition] = report.frame_accuracy
        append_metrics(writer, fh, row)
        if sched.since_improvement == 0:
            # the model train returns if it stops here
            save_checkpoint(cfg.checkpoint_path, hstate, hbank, sched,
                            cfg.mode, cfg.seed)

    with fh:
        try:
            _, _, rows = model.train(state, bank, train_set, val_set,
                                     cfg.settings(), eval_hook=hook)
        except DIVERGED as exc:
            raise type(exc)("%s; best checkpoint so far kept at %s"
                            % (exc, cfg.checkpoint_path)) from exc
    print("trained %s for %d evals; checkpoint %s, metrics %s"
          % (cfg.mode, len(rows), cfg.checkpoint_path, cfg.metrics_path))
    return 0


def cmd_eval(args):
    state, bank, _, meta = load_checkpoint(args.checkpoint)
    if os.path.isdir(args.data):
        paths = _test_files(args.data)
        if not paths:
            raise ConfigError("data: %s holds no <condition>_test.npz file" % args.data)
    else:
        paths = [args.data]
    tests = _load_test_sets(paths, state.spec, meta["mode"] in TEMPORAL_MODES)
    # every condition is scored before the report is written
    rows = [evaluate_model(state, bank, samples, meta["mode"], condition).csv_row()
            for condition, samples in tests.items()]
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(metrics.EvalReport.CSV_COLUMNS)
        writer.writerows(rows)
    return 0


def cmd_check(args):
    failed = False
    for name, err, tol, ok in verify.run_suites(args.scope):
        if isinstance(err, Exception):
            traceback.print_exception(err, file=sys.stderr)
            result = "raised %s: %s" % (type(err).__name__, err)
        else:
            result = "max_err=%.3e" % err
        print("%-16s %s tol=%.0e %s" % (name, result, tol, "PASS" if ok else "FAIL"))
        failed = failed or not ok
    return EXIT_CHECK if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tmfusion",
        description="Sequence training with fused center losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the six dataset files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: config data_dir)")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one mode from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="dataset directory override")
    p.add_argument("--checkpoint", help="checkpoint path override")
    p.add_argument("--out", help="metrics CSV path override")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="a .npz file or a dataset directory")
    p.add_argument("--out", help="write the report CSV here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("--scope", default="all",
                   choices=("all", "ctc", "losses", "model"))
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    """Run one command and return its exit code.  The errors below are
    reported in one line on stderr; any other is a bug, and keeps its
    traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, "config: %s" % exc
    except MalformedDataset as exc:
        code, message = EXIT_CONFIG, "dataset: %s" % exc
    except OSError as exc:
        # the loaders report a file they cannot read, so this is an output
        code, message = EXIT_CONFIG, "cannot write %s: %s" % (
            exc.filename or "an output", exc.strerror or exc)
    except ShapeMismatch as exc:
        code, message = EXIT_SHAPE, str(exc)
    except DIVERGED as exc:
        code, message = EXIT_DIVERGED, "training diverged: %s" % exc
    print("error: %s" % message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
