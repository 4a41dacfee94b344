"""Command line entry point: data generation, training, evaluation, and
the self-check suites.

Exit codes: 2 config error (a malformed dataset file, an empty training
or validation split and an output path that cannot be written included), 3
training divergence (including a numeric failure of the alignment
lattice), 4 checkpoint/data shape mismatch (a dataset sample whose
features, labels or labeling do not fit the network), 1 check-suite
failure.
"""

import argparse
import dataclasses
import os
import sys
import traceback
from contextlib import closing

from . import ctc, metrics, model, synth, verify, workers
from .config import (ConfigError, _fmt, append_metrics, load_checkpoint,
                     load_config, open_metrics, save_checkpoint)
from .experiment import corpus_part, evaluate_model
from .model import TEMPORAL_MODES
from .synth import CONDITIONS, MalformedDataset

EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SHAPE = 4


class ShapeMismatch(Exception):
    pass


def _fail(code, message):
    print("error: %s" % message, file=sys.stderr)
    return code


def _config_for(args):
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "data", None):
        overrides["data_dir"] = args.data
    if getattr(args, "checkpoint", None):
        overrides["checkpoint_path"] = args.checkpoint
    if getattr(args, "out", None):
        overrides["metrics_path"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def dataset_path(data_dir, condition, part):
    return os.path.join(data_dir, "%s_%s.jsonl" % (condition, part))


def _write_part(gen, condition, part, count, path):
    """Write one dataset file; returns its record count."""
    samples = corpus_part(gen, condition, part, count)
    synth.save_jsonl(samples, path)
    return len(samples)


def cmd_gen_data(args):
    try:
        cfg = _config_for(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config: %s" % exc)
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
    naming the file and the sample."""
    samples = synth.load_jsonl(path)
    limit = spec.num_classes - 1 if temporal else spec.num_classes
    for i, sample in enumerate(samples):
        where = "%s: sample %d" % (path, i)
        if sample.x.shape[1] != spec.input_dim:
            raise ShapeMismatch(
                "%s has %d features, network expects %d"
                % (where, sample.x.shape[1], spec.input_dim))
        for kind, labels in (("class", sample.framewise),
                             ("collapsed label", sample.collapsed)):
            if not len(labels):
                continue
            low, top = int(labels.min()), int(labels.max())
            if low < 1 or top > limit:
                raise ShapeMismatch(
                    "%s uses %s %d, network only covers 1..%d"
                    % (where, kind, top if top > limit else low, limit))
        need = ctc.min_frames(sample.collapsed) if temporal else 0
        if need > len(sample.x):
            raise ShapeMismatch(
                "%s has %d collapsed labels, which need %d frames; it has %d"
                % (where, len(sample.collapsed), need, len(sample.x)))
    return samples


def _load_test_file(path, spec, temporal):
    """_load_checked for a file to score: the token error rate divides by
    the reference tokens of each condition, so a file without samples,
    or with a condition whose samples hold no token, raises
    MalformedDataset naming the file."""
    samples = _load_checked(path, spec, temporal)
    if not samples:
        raise MalformedDataset("%s: no sample to score" % path)
    tokens = {}
    for sample in samples:
        tokens[sample.condition] = tokens.get(sample.condition, 0) + len(sample.collapsed)
    for condition, count in tokens.items():
        if not count:
            raise MalformedDataset("%s: the %s samples hold no reference token to "
                                   "score" % (path, condition))
    return samples


def _load_train_pool(cfg):
    pool = []
    for condition in cfg.train_conditions:
        path = dataset_path(cfg.data_dir, condition, "train")
        if not os.path.exists(path):
            raise ConfigError("data_dir: missing dataset file %s" % path)
        pool.extend(_load_checked(path, cfg.network, cfg.temporal))
    return pool


def _load_test_sets(data_dir, spec, temporal):
    tests = {}
    for condition in CONDITIONS:
        path = dataset_path(data_dir, condition, "test")
        if os.path.exists(path):
            tests[condition] = _load_test_file(path, spec, temporal)
    return tests


def cmd_train(args):
    try:
        cfg = _config_for(args)
        pool = _load_train_pool(cfg)
        tests = _load_test_sets(cfg.data_dir, cfg.network, cfg.temporal)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config: %s" % exc)
    except MalformedDataset as exc:
        return _fail(EXIT_CONFIG, "dataset: %s" % exc)
    except ShapeMismatch as exc:
        return _fail(EXIT_SHAPE, str(exc))
    train_set, val_set = synth.split(pool, cfg.validation_fraction, seed=cfg.seed)
    for name, part in (("training", train_set), ("validation", val_set)):
        if not part:
            return _fail(EXIT_CONFIG,
                         "validation_fraction: %r of %d training sequences leaves "
                         "the %s split empty" % (cfg.validation_fraction, len(pool), name))
    state = cfg.new_state()
    bank = cfg.new_bank()

    path = cfg.checkpoint_path
    try:
        # the step-0 checkpoint, which a run that diverges keeps
        save_checkpoint(path, state, bank,
                        model.ScheduleState(halve_after=cfg.halve_after,
                                            stop_after=cfg.stop_after),
                        cfg.mode, cfg.seed)
        path = cfg.metrics_path
        fh, writer = open_metrics(path)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "cannot write %s: %s" % (path, exc.strerror or exc))

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

    try:
        _, _, rows = model.train(state, bank, train_set, val_set,
                                 cfg.settings(), eval_hook=hook)
    except (model.NonFiniteGradient, ctc.DegenerateFrame) as exc:
        return _fail(EXIT_DIVERGED,
                     "training diverged (%s); best checkpoint so far kept at %s"
                     % (exc, cfg.checkpoint_path))
    finally:
        fh.close()
    print("trained %s for %d evals; checkpoint %s, metrics %s"
          % (cfg.mode, len(rows), cfg.checkpoint_path, cfg.metrics_path))
    return 0


def cmd_eval(args):
    try:
        state, bank, _, meta = load_checkpoint(args.checkpoint)
        temporal = meta["mode"] in TEMPORAL_MODES
        if os.path.isdir(args.data):
            samples = [sample for part in
                       _load_test_sets(args.data, state.spec, temporal).values()
                       for sample in part]
            if not samples:
                raise ConfigError("data: %s holds no <condition>_test.jsonl file"
                                  % args.data)
        else:
            samples = _load_test_file(args.data, state.spec, temporal)
    except (OSError, ConfigError, MalformedDataset) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except ShapeMismatch as exc:
        return _fail(EXIT_SHAPE, str(exc))
    by_condition = {}
    for sample in samples:
        by_condition.setdefault(sample.condition, []).append(sample)
    lines = [",".join(metrics.EvalReport.CSV_COLUMNS)]
    for condition in CONDITIONS:
        if condition not in by_condition:
            continue
        report = evaluate_model(state, bank, by_condition[condition],
                                meta["mode"], condition)
        lines.append(",".join(_fmt(v) for v in report.csv_row()))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as out_fh:
                out_fh.write(text)
        except OSError as exc:
            return _fail(EXIT_CONFIG, "cannot write %s: %s" % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)
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
                   help="a .jsonl file or a dataset directory")
    p.add_argument("--out", help="write the report CSV here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("--scope", default="all",
                   choices=("all", "ctc", "losses", "model"))
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
