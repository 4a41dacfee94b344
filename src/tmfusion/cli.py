"""Command line entry point: data generation, training, evaluation, and
the self-check suites.

Exit codes: 2 config error, 3 training divergence (including a numeric
failure of the alignment lattice), 4 checkpoint/data shape mismatch,
1 check-suite failure.
"""

import argparse
import dataclasses
import os
import sys

from . import ctc, metrics, model, synth, verify
from .config import (ConfigError, append_metrics, load_checkpoint,
                     load_config, open_metrics, save_checkpoint)
from .experiment import TEST_START_INDEX, evaluate_model
from .synth import CONDITIONS, ConfigInvalid

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


def cmd_gen_data(args):
    try:
        cfg = _config_for(args)
    except ConfigInvalid as exc:
        return _fail(EXIT_CONFIG, "generator config: %s" % exc)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config: %s" % exc)
    out_dir = args.out or cfg.data_dir
    os.makedirs(out_dir, exist_ok=True)
    gen = dataclasses.replace(cfg.generator, seed=cfg.seed)
    for condition in CONDITIONS:
        ccfg = dataclasses.replace(gen, noise_condition=condition)
        for part, count, start in (
                ("train", cfg.num_train_sequences, 0),
                ("test", cfg.num_test_sequences, TEST_START_INDEX)):
            samples = synth.generate(ccfg, count, start_index=start)
            path = dataset_path(out_dir, condition, part)
            synth.save_jsonl(samples, path)
            print("%s: %d records" % (path, len(samples)))
    return 0


def _load_train_pool(cfg):
    pool = []
    for condition in cfg.train_conditions:
        path = dataset_path(cfg.data_dir, condition, "train")
        if not os.path.exists(path):
            raise ConfigError("data_dir: missing dataset file %s" % path)
        pool.extend(synth.load_jsonl(path))
    return pool


def _load_test_sets(data_dir):
    tests = {}
    for condition in CONDITIONS:
        path = dataset_path(data_dir, condition, "test")
        if os.path.exists(path):
            tests[condition] = synth.load_jsonl(path)
    return tests


def _check_shapes(samples, spec, temporal):
    """Samples must match the network's input width and label space."""
    limit = spec.num_classes - 1 if temporal else spec.num_classes
    for i, sample in enumerate(samples):
        if sample.x.shape[1] != spec.input_dim:
            raise ShapeMismatch(
                "sample %d has %d features, network expects %d"
                % (i, sample.x.shape[1], spec.input_dim))
        top = int(sample.framewise.max())
        if top > limit:
            raise ShapeMismatch(
                "sample %d uses class %d, network only covers %d"
                % (i, top, limit))


def _atomic_checkpoint(path, state, bank, sched, mode, seed, steps):
    tmp = path + ".tmp"
    save_checkpoint(tmp, state, bank, sched, mode, seed, steps)
    os.replace(tmp, path)


def cmd_train(args):
    try:
        cfg = _config_for(args)
        pool = _load_train_pool(cfg)
    except ConfigInvalid as exc:
        return _fail(EXIT_CONFIG, "generator config: %s" % exc)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config: %s" % exc)
    train_set, val_set, _ = synth.split(
        pool, (1.0 - cfg.validation_fraction, cfg.validation_fraction, 0.0),
        seed=cfg.seed)
    if not val_set:
        return _fail(EXIT_CONFIG,
                     "validation_fraction: %r of %d training sequences leaves "
                     "the validation split empty"
                     % (cfg.validation_fraction, len(pool)))
    tests = _load_test_sets(cfg.data_dir)
    state = cfg.new_state()
    bank = cfg.new_bank()
    try:
        _check_shapes(pool, cfg.network, cfg.temporal)
    except ShapeMismatch as exc:
        return _fail(EXIT_SHAPE, str(exc))

    fh, writer = open_metrics(cfg.metrics_path)
    _atomic_checkpoint(cfg.checkpoint_path, state, bank,
                       model.ScheduleState(halve_after=cfg.halve_after,
                                           stop_after=cfg.stop_after,
                                           eval_interval=cfg.eval_interval),
                       cfg.mode, cfg.seed, 0)

    def hook(hstate, hbank, row, sched):
        for condition, samples in tests.items():
            report = evaluate_model(hstate, hbank, samples, cfg.mode, condition)
            row["ter_%s" % condition] = report.token_error_rate
            row["acc_%s" % condition] = report.frame_accuracy
        append_metrics(writer, fh, row)
        _atomic_checkpoint(cfg.checkpoint_path, hstate, hbank, sched,
                           cfg.mode, cfg.seed, row["batches"])

    try:
        state, bank, rows = model.train(state, bank, train_set, val_set,
                                        cfg.settings(), eval_hook=hook)
    except (model.NonFiniteGradient, ctc.NonPositivePosterior,
            ctc.DegenerateFrame) as exc:
        fh.close()
        return _fail(EXIT_DIVERGED,
                     "training diverged (%s); last good checkpoint kept at %s"
                     % (exc, cfg.checkpoint_path))
    finally:
        fh.close()
    print("trained %s for %d evals; checkpoint %s, metrics %s"
          % (cfg.mode, len(rows), cfg.checkpoint_path, cfg.metrics_path))
    return 0


def _format_cell(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def cmd_eval(args):
    try:
        state, bank, _, meta = load_checkpoint(args.checkpoint)
        if os.path.isdir(args.data):
            samples = []
            for condition in CONDITIONS:
                path = dataset_path(args.data, condition, "test")
                if os.path.exists(path):
                    samples.extend(synth.load_jsonl(path))
        else:
            samples = synth.load_jsonl(args.data)
    except (OSError, ConfigError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    temporal = meta["mode"] in ("ctc", "tmf")
    try:
        _check_shapes(samples, state.spec, temporal)
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
        lines.append(",".join(_format_cell(v) for v in report.csv_row()))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as out_fh:
            out_fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args):
    failed = False
    for name, err, tol, ok in verify.run_suites(args.scope):
        print("%-16s max_err=%.3e tol=%.0e %s"
              % (name, err, tol, "PASS" if ok else "FAIL"))
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
