"""Deterministic synthetic sequence data with three noise conditions.

Each class emits frames from an isotropic Gaussian around a fixed mean;
a sequence is a run of label segments.  The "clean" condition adds
nothing, "seen" adds Gaussian noise, and "unseen" adds noise from a
different family (uniform, larger variance) plus a constant per-sequence
offset, the desk-scale stand-in for noise types absent from training.
Everything derives from (seed, sequence index), so datasets are
reproducible sequence by sequence.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

CONDITIONS = ("clean", "seen", "unseen")


class MalformedDataset(ValueError):
    """A dataset file that cannot be read, a line of it that is not a
    sample record of finite features and integer labels, or a test file
    with nothing to score."""


@dataclass
class UnseenNoise:
    family: str = "uniform"
    variance_multiplier: float = 2.5    # vs. the seen-noise variance
    offset_scale: float = 0.25          # half-width of the per-sequence shift

    def __post_init__(self):
        if self.family != "uniform":
            raise ValueError("unsupported unseen noise family %r" % (self.family,))
        if self.variance_multiplier < 0 or self.offset_scale < 0:
            raise ValueError("unseen noise parameters must be nonnegative")


@dataclass
class GeneratorConfig:
    num_classes: int = 5
    feature_dim: int = 8
    class_mean_scale: float = 2.0
    emission_stddev: float = 0.25
    segment_length: tuple[int, int] = (3, 8)    # frames per label, inclusive
    labels_per_sequence: tuple[int, int] = (2, 5)
    noise_condition: str = "clean"
    seen_noise_stddev: float = 0.5
    unseen: UnseenNoise = field(default_factory=UnseenNoise)
    allow_repeats: bool = False
    seed: int = 0
    mean_seed: int = None       # class-mean geometry; None ties it to seed

    def __post_init__(self):
        for name in ("seed", "mean_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s: must be nonnegative, got %r" % (name, value))
        if self.num_classes < 1:
            raise ValueError("num_classes: need at least one class")
        if self.num_classes > self.feature_dim:
            raise ValueError("num_classes: class means need "
                                "num_classes <= feature_dim")
        for name in ("emission_stddev", "seen_noise_stddev"):
            if getattr(self, name) < 0:
                raise ValueError("%s: must be nonnegative" % name)
        for name in ("segment_length", "labels_per_sequence"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 1:
                raise ValueError("%s: must satisfy 1 <= min <= max" % name)
        if self.allow_repeats and self.segment_length[0] < 2:
            raise ValueError("allow_repeats: needs segment length >= 2 so "
                                "the alignment can cross a blank")
        if (not self.allow_repeats and self.num_classes == 1
                and self.labels_per_sequence[1] > 1):
            raise ValueError("labels_per_sequence: one class cannot avoid "
                                "consecutive repeats")
        if self.noise_condition not in CONDITIONS:
            raise ValueError("noise_condition: unknown condition %r"
                                % (self.noise_condition,))
        # one-hot directions scaled by class_mean_scale sit sqrt(2)*scale
        # apart; demand the configured emission spread leaves that usable
        if np.sqrt(2.0) * self.class_mean_scale < \
                4.0 * self.emission_stddev * self.class_mean_scale:
            raise ValueError("emission_stddev: too large for separable "
                                "class means (needs < sqrt(2)/4)")


@dataclass
class SequenceSample:
    x: np.ndarray               # (T, F) frame features
    framewise: np.ndarray       # (T,) class per frame, 1-based
    collapsed: np.ndarray       # per-segment labels
    condition: str


def class_means(cfg):
    """Deterministic class means: a seeded random rotation of scaled
    one-hot directions.  Pairwise distance is sqrt(2)*class_mean_scale.
    mean_seed decouples the geometry from the sampling seed, so replicate
    datasets can share one task."""
    base = cfg.seed if cfg.mean_seed is None else cfg.mean_seed
    rng = np.random.default_rng([base, 7919])
    q, _ = np.linalg.qr(rng.normal(size=(cfg.feature_dim, cfg.feature_dim)))
    return cfg.class_mean_scale * q[:, : cfg.num_classes].T


def _noise(cfg, condition, rng, T):
    """The additive noise block for one sequence under a condition."""
    F = cfg.feature_dim
    if condition == "clean":
        return np.zeros((T, F))
    if condition == "seen":
        return rng.normal(0.0, cfg.seen_noise_stddev, (T, F))
    var = cfg.unseen.variance_multiplier * cfg.seen_noise_stddev ** 2
    half = np.sqrt(3.0 * var)
    offset = rng.uniform(-cfg.unseen.offset_scale, cfg.unseen.offset_scale, F)
    return rng.uniform(-half, half, (T, F)) + offset


def _one_sequence(cfg, means, index):
    rng = np.random.default_rng([cfg.seed, int(index), CONDITIONS.index(cfg.noise_condition)])
    lo, hi = cfg.labels_per_sequence
    r = int(rng.integers(lo, hi + 1))
    labels = np.empty(r, dtype=np.intp)
    for i in range(r):
        c = int(rng.integers(1, cfg.num_classes + 1))
        if not cfg.allow_repeats:
            while r > 1 and i > 0 and c == labels[i - 1]:
                c = int(rng.integers(1, cfg.num_classes + 1))
        labels[i] = c
    slo, shi = cfg.segment_length
    seg_lens = rng.integers(slo, shi + 1, r)
    framewise = np.repeat(labels, seg_lens)
    T = len(framewise)
    x = means[framewise - 1] + rng.normal(0.0, cfg.emission_stddev, (T, cfg.feature_dim))
    x = x + _noise(cfg, cfg.noise_condition, rng, T)
    return SequenceSample(x=x, framewise=framewise, collapsed=labels,
                          condition=cfg.noise_condition)


def generate(cfg, n, start_index=0):
    """Produce n sequences; deterministic in (cfg, n, start_index) and
    parallel-safe because every sequence reseeds from (seed, index,
    condition).  Disjoint start_index ranges give independent draws from
    the same task (same class means), which is how train and test files
    stay leak-free under one seed."""
    if n < 1:
        raise ValueError("n: must be at least 1")
    means = class_means(cfg)
    return [_one_sequence(cfg, means, start_index + i) for i in range(n)]


def split(dataset, validation_fraction, seed=0):
    """Disjoint (train, validation) split, stratified by condition: each
    condition's n samples give round((1 - validation_fraction) * n) to
    train and the rest to validation, so nothing is dropped."""
    if not 0.0 <= validation_fraction <= 1.0:
        raise ValueError("validation_fraction: must lie in [0, 1]")
    by_condition = {}
    for i, sample in enumerate(dataset):
        by_condition.setdefault(sample.condition, []).append(i)
    rng = np.random.default_rng([seed, 104729])
    parts = ([], [])
    for condition in sorted(by_condition):
        idx = np.array(by_condition[condition])
        idx = idx[rng.permutation(len(idx))]
        cut = int(round((1.0 - validation_fraction) * len(idx)))
        for part, sel in zip(parts, (idx[:cut], idx[cut:])):
            part.extend(int(i) for i in sel)
    return tuple([dataset[i] for i in sorted(part)] for part in parts)


def save_jsonl(samples, path):
    """One JSON object per sample; float lists round-trip bit-exactly."""
    with open(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps({
                "features": s.x.tolist(),
                "framewise": [int(k) for k in s.framewise],
                "collapsed": [int(c) for c in s.collapsed],
                "condition": s.condition,
            }) + "\n")


def _labels(rec, field):
    values = rec[field]
    # json reads 1.7 as a float and true as a bool, which intp would
    # truncate to a label
    if not isinstance(values, list) or set(map(type, values)) - {int}:
        raise ValueError("%s must be a list of integer labels" % field)
    return np.array(values, dtype=np.intp)


def _sample_from_record(rec):
    x = np.array(rec["features"], dtype=float)
    framewise = _labels(rec, "framewise")
    collapsed = _labels(rec, "collapsed")
    if x.ndim != 2 or framewise.shape != (len(x),):
        raise ValueError("features must be T rows with one framewise label each")
    if not np.isfinite(x).all():
        raise ValueError("features hold a non-finite value")
    if rec["condition"] not in CONDITIONS:
        raise ValueError("unknown condition %r" % (rec["condition"],))
    return SequenceSample(x=x, framewise=framewise, collapsed=collapsed,
                          condition=rec["condition"])


def load_jsonl(path):
    """Read the samples save_jsonl wrote.  A file that cannot be read
    raises MalformedDataset naming it, and a line that is not UTF-8 or
    not a sample record of finite features and integer labels one
    naming its line."""
    out = []
    try:
        # as bytes, so that json.loads raises a line's decode error
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    out.append(_sample_from_record(json.loads(line)))
                except KeyError as exc:
                    raise MalformedDataset("%s line %d: missing field %s"
                                           % (path, lineno, exc)) from exc
                except (TypeError, ValueError, OverflowError) as exc:
                    raise MalformedDataset("%s line %d: %s"
                                           % (path, lineno, exc)) from exc
    except OSError as exc:
        raise MalformedDataset("%s: cannot read: %s" % (path, exc.strerror)) from exc
    return out
