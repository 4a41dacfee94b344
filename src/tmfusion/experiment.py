"""The seen/unseen robustness experiment and shared model evaluation.

One experiment: generate the synthetic task, train all four modes from
matched initializations across several seeds, and score each trained
model per noise condition.  The headline comparisons are TMF vs CTC on
unseen-noise token error rate and FMF vs CE on unseen-noise frame
accuracy, with feature discriminability (scatter ratio) on held-out
clean data as the secondary axis.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, model, synth
from .config import RunConfig
from .model import NetworkSpec


def evaluate_model(state, bank, samples, mode, condition):
    """Score one trained model on one condition's samples.

    The network runs on length-sorted groups (model.score_groups), and
    each group's outputs are reduced before the next group runs; the
    per-sample results are gathered in sample order.
    """
    temporal = mode in ("ctc", "tmf")
    hyps = [None] * len(samples)
    feats = [None] * len(samples)
    assigns = [None] * len(samples)
    correct = 0
    for group in model.score_groups(samples):
        outputs = model.forward_batch(state, [samples[i].x for i in group])
        for i, (u, _, y) in zip(group, outputs):
            sample = samples[i]
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
        del outputs
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


def run_config_for(spec, mode, seed):
    gen = replace(spec.generator, seed=seed, mean_seed=spec.task_seed)
    num_out = gen.num_classes + (1 if mode in ("ctc", "tmf") else 0)
    lam = spec.lam_tmf if mode == "tmf" else spec.lam_fmf
    if mode in ("ctc", "ce"):
        lam = 0.0
    return RunConfig(
        mode=mode, seed=seed,
        network=NetworkSpec(gen.feature_dim, list(spec.hidden), num_out,
                            recurrent=spec.recurrent),
        generator=gen, lam=lam, occupancy_mode=spec.occupancy_mode,
        learning_rate=spec.learning_rate,
        center_momentum=spec.center_momentum,
        batch_size=spec.batch_size, max_batches=spec.max_batches,
        eval_interval=spec.eval_interval,
        validation_fraction=spec.val_fraction,
        num_train_sequences=spec.num_train_per_condition,
        num_test_sequences=spec.num_test)


TEST_START_INDEX = 1_000_000


def make_datasets(spec, seed):
    """Generate the per-seed corpus: pooled clean+seen training data and
    one held-out test set per condition.  Test sequences come from a
    disjoint index range of the same task, never from a reseeded one."""
    gen = replace(spec.generator, seed=seed, mean_seed=spec.task_seed)
    pool = []
    for cond in ("clean", "seen"):
        cfg = replace(gen, noise_condition=cond)
        pool.extend(synth.generate(cfg, spec.num_train_per_condition))
    train, val, _ = synth.split(
        pool, (1.0 - spec.val_fraction, spec.val_fraction, 0.0), seed=seed)
    tests = {}
    for cond in synth.CONDITIONS:
        cfg = replace(gen, noise_condition=cond)
        tests[cond] = synth.generate(cfg, spec.num_test,
                                     start_index=TEST_START_INDEX)
    return train, val, tests


def run_single(spec, mode, seed, data=None):
    """Train one mode on one seed; returns {condition: EvalReport}."""
    if data is None:
        data = make_datasets(spec, seed)
    train_set, val_set, tests = data
    cfg = run_config_for(spec, mode, seed)
    state = cfg.new_state()
    bank = cfg.new_bank()
    state, bank, _ = model.train(state, bank, train_set, val_set,
                                 cfg.settings())
    return {cond: evaluate_model(state, bank, tests[cond], mode, cond)
            for cond in tests}


def run_experiment(spec=None, progress=None):
    """Full sweep; returns results[mode][seed] = {condition: EvalReport}."""
    if spec is None:
        spec = ExperimentSpec()
    results = {mode: {} for mode in spec.modes}
    for seed in spec.seeds:
        data = make_datasets(spec, seed)
        for mode in spec.modes:
            results[mode][seed] = run_single(spec, mode, seed, data)
            if progress is not None:
                rep = results[mode][seed]["unseen"]
                progress(mode, seed, rep)
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
