"""The seen/unseen robustness experiment and shared model evaluation.

One experiment: generate the synthetic task, train all four modes from
matched initializations across several seeds, and score each trained
model per noise condition.  The headline comparisons are TMF vs CTC on
unseen-noise token error rate and FMF vs CE on unseen-noise frame
accuracy, with feature discriminability (scatter ratio) on held-out
clean data as the secondary axis.

This module also owns the corpus recipe: ``corpus_part`` says which
sequence indices a condition's train or test part draws, for the
experiment's per-seed corpus and for the files ``tmfusion gen-data``
writes alike.  The modes and the blank-output rule come from the mode
table in ``model`` (MODES, TEMPORAL_MODES, FUSION_MODES, output_units).
"""

from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, model, synth, workers
from .config import RunConfig
from .model import NetworkSpec


def evaluate_model(state, bank, samples, mode, condition):
    """Score one trained model on one condition's samples.

    The network runs on length-sorted groups (model.score_groups), and
    each group's outputs are reduced before the next group runs; the
    per-sample results are gathered in sample order.
    """
    temporal = mode in model.TEMPORAL_MODES
    hyps = [None] * len(samples)
    feats = [None] * len(samples)
    assigns = [None] * len(samples)
    correct = 0
    for group in model.score_groups(samples):
        Ts, stacks, _, ys = model.forward_stacks(state, [samples[i].x for i in group])
        for i, Tb, u, y in zip(group, Ts, stacks[-1], ys):
            u, y, sample = u[:Tb], y[:Tb], samples[i]
            if temporal:
                hyps[i] = metrics.greedy_decode(y)
                steps, keep = metrics.temporal_assignments(y)
                feats[i] = u[keep]
                assigns[i] = steps
                correct += int((y.argmax(axis=1) == sample.framewise).sum())
            else:
                pred = y.argmax(axis=1) + 1
                hyps[i] = metrics.collapse(pred)
                feats[i] = u
                assigns[i] = pred
                correct += int((pred == sample.framewise).sum())
        del stacks, ys
    frames = sum(len(sample.framewise) for sample in samples)
    ter = metrics.token_error_rate(
        [(hyp, sample.collapsed) for hyp, sample in zip(hyps, samples)])
    acc = 100.0 * correct / frames
    try:
        intra, inter, ratio = metrics.embedding_report(
            np.concatenate(feats), np.concatenate(assigns), bank)
    except metrics.DegenerateBank:
        intra = inter = ratio = float("nan")
    return metrics.EvalReport(condition, ter, acc, intra, inter, ratio,
                              len(samples))


@dataclass
class ExperimentSpec:
    """Frozen settings for the robustness experiment.

    The task geometry (class means) is pinned by task_seed, so the five
    seeds are replicate runs of one task: fresh data draws, a fresh
    network initialization, and a fresh batch order each.
    """

    seeds: tuple = (0, 1, 2, 3, 4)
    modes: tuple = ("ce", "fmf", "ctc", "tmf")
    task_seed: int = 0
    num_train_per_condition: int = 1000
    num_test: int = 600
    val_fraction: float = 0.1
    hidden: tuple = (16,)
    recurrent: bool = True
    learning_rate: float = 1e-3
    lam_tmf: float = 0.02
    lam_fmf: float = 0.05
    occupancy_mode: str = "frame_normalized"
    center_momentum: float = 1e-3
    batch_size: int = 8
    max_batches: int = 6000
    eval_interval: int = 100
    generator: synth.GeneratorConfig = field(
        default_factory=synth.GeneratorConfig)


def _generator(spec, seed):
    """The seed's draws from the task that spec.task_seed pins."""
    return replace(spec.generator, seed=seed, mean_seed=spec.task_seed)


def run_config_for(spec, mode, seed):
    gen = _generator(spec, seed)
    return RunConfig(
        mode=mode, seed=seed,
        network=NetworkSpec(gen.feature_dim, list(spec.hidden),
                            model.output_units(mode, gen.num_classes),
                            recurrent=spec.recurrent),
        generator=gen,
        lam={"tmf": spec.lam_tmf, "fmf": spec.lam_fmf}.get(mode, 0.0),
        occupancy_mode=spec.occupancy_mode,
        learning_rate=spec.learning_rate,
        center_momentum=spec.center_momentum,
        batch_size=spec.batch_size, max_batches=spec.max_batches,
        eval_interval=spec.eval_interval,
        validation_fraction=spec.val_fraction,
        num_train_sequences=spec.num_train_per_condition,
        num_test_sequences=spec.num_test)


TEST_START_INDEX = 1_000_000


def corpus_part(gen, condition, part, count):
    """The count sequences of one condition's "train" or "test" part
    under generator gen: train draws indices 0..count-1, test draws from
    TEST_START_INDEX on, a disjoint range of the same task, never a
    reseeded one."""
    start = {"train": 0, "test": TEST_START_INDEX}[part]
    return synth.generate(replace(gen, noise_condition=condition), count,
                          start_index=start)


def make_datasets(spec, seed):
    """Generate the per-seed corpus: pooled clean+seen training data,
    split into train and validation, and one held-out test set per
    condition."""
    gen = _generator(spec, seed)
    pool = []
    for cond in ("clean", "seen"):
        pool.extend(corpus_part(gen, cond, "train", spec.num_train_per_condition))
    train, val = synth.split(pool, spec.val_fraction, seed=seed)
    tests = {cond: corpus_part(gen, cond, "test", spec.num_test)
             for cond in synth.CONDITIONS}
    return train, val, tests


def run_single(spec, mode, seed):
    """Train one mode on its own copy of the seed's corpus
    (make_datasets(spec, seed)); returns {condition: EvalReport}."""
    train_set, val_set, tests = make_datasets(spec, seed)
    cfg = run_config_for(spec, mode, seed)
    state = cfg.new_state()
    bank = cfg.new_bank()
    state, bank, _ = model.train(state, bank, train_set, val_set,
                                 cfg.settings())
    return {cond: evaluate_model(state, bank, tests[cond], mode, cond)
            for cond in tests}


def run_experiment(spec=None, progress=None):
    """Full sweep; returns results[mode][seed] = {condition: EvalReport}.

    Every (mode, seed) RunConfig is built first, so a bad spec raises
    its ConfigError before any data or model.  The models then train on
    worker processes (workers.in_order), each from its own copy of its
    seed's corpus; results and progress(mode, seed, unseen report)
    calls come in the serial order, seed by seed, bit for bit as one
    process would compute them.
    """
    if spec is None:
        spec = ExperimentSpec()
    jobs = [(spec, mode, seed) for seed in spec.seeds for mode in spec.modes]
    for _, mode, seed in jobs:
        run_config_for(spec, mode, seed)
    results = {mode: {} for mode in spec.modes}
    with closing(workers.in_order(run_single, jobs)) as reports:
        for (_, mode, seed), report in zip(jobs, reports):
            results[mode][seed] = report
            if progress is not None:
                progress(mode, seed, report["unseen"])
    return results


def headline(results, seeds):
    """Reduce a results tree to the four directional comparisons."""
    def series(mode, cond, attr):
        return np.array([getattr(results[mode][s][cond], attr) for s in seeds])

    ter_tmf = series("tmf", "unseen", "token_error_rate")
    ter_ctc = series("ctc", "unseen", "token_error_rate")
    acc_fmf = series("fmf", "unseen", "frame_accuracy")
    acc_ce = series("ce", "unseen", "frame_accuracy")
    sc_tmf = series("tmf", "clean", "scatter_ratio")
    sc_ctc = series("ctc", "clean", "scatter_ratio")
    return {
        "ter_tmf": ter_tmf, "ter_ctc": ter_ctc,
        "acc_fmf": acc_fmf, "acc_ce": acc_ce,
        "scatter_tmf": sc_tmf, "scatter_ctc": sc_ctc,
        "ter_mean_gap": float(ter_ctc.mean() - ter_tmf.mean()),
        "ter_wins": int((ter_tmf < ter_ctc).sum()),
        "acc_mean_gap": float(acc_fmf.mean() - acc_ce.mean()),
        "acc_wins": int((acc_fmf > acc_ce).sum()),
        "scatter_wins": int((sc_tmf < sc_ctc).sum()),
    }
