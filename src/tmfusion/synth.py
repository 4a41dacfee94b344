"""Deterministic synthetic sequence data with three noise conditions.

Each class emits frames from an isotropic Gaussian around a fixed mean;
a sequence is a run of label segments.  The "clean" condition adds
nothing, "seen" adds Gaussian noise, and "unseen" adds noise from a
different family (uniform, larger variance) plus a constant per-sequence
offset, the desk-scale stand-in for noise types absent from training.
Everything derives from (seed, sequence index), so datasets are
reproducible sequence by sequence.
"""

import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

CONDITIONS = ("clean", "seen", "unseen")


class MalformedDataset(ValueError):
    """A dataset file that cannot be read, an array of it that is
    missing, of another dtype or shape, non-finite or out of range, or a
    test file with nothing to score."""


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


# the arrays of a dataset file
ARRAYS = ("features", "frame_counts", "framewise", "collapsed", "label_counts", "condition")


def save_dataset(samples, path):
    """One .npz of concatenated arrays: the features (N_frames, F), each
    sequence's frame count, the framewise labels, the collapsed
    labelings and each one's length, and each sequence's condition as
    its index in CONDITIONS.  samples is a nonempty list.  zipfile dates
    every entry 1980-01-01, so the same samples give the same bytes."""
    with open(path, "wb") as fh:
        np.savez(fh, features=np.concatenate([s.x for s in samples]),
                 frame_counts=[len(s.x) for s in samples],
                 framewise=np.concatenate([s.framewise for s in samples]),
                 collapsed=np.concatenate([s.collapsed for s in samples]),
                 label_counts=[len(s.collapsed) for s in samples],
                 condition=[CONDITIONS.index(s.condition) for s in samples])


def _screens(a):
    """(array, ok, expected) for each check of a dataset's arrays, in
    order: each check assumes that the ones before it passed."""
    x = a["features"]
    yield "features", x.ndim == 2 and x.dtype == np.float64, \
        "a 2-D float64 array, got %d-D %s" % (x.ndim, x.dtype)
    yield "features", np.isfinite(x).all(), "finite values, got a NaN or an infinity"
    for name in ARRAYS[1:]:
        # bool is not an integer kind, and a float label would truncate
        yield name, a[name].ndim == 1 and a[name].dtype.kind in "iu", \
            "a 1-D integer array, got %d-D %s" % (a[name].ndim, a[name].dtype)
    n = len(a["frame_counts"])
    for name, least, total in (("frame_counts", 1, len(x)),
                               ("label_counts", 0, len(a["collapsed"]))):
        v = a[name]
        yield name, len(v) == n and (v >= least).all() and v.sum() == total, \
            "counts of at least %d, one per sequence (%d), summing to %d" % (least, n, total)
    yield "framewise", len(a["framewise"]) == len(x), "one label per frame (%d)" % len(x)
    codes = a["condition"]
    yield "condition", len(codes) == n and ((codes >= 0) & (codes < len(CONDITIONS))).all(), \
        "indices into %s, one per sequence (%d)" % (CONDITIONS, n)


def load_dataset(path):
    """Read the samples save_dataset wrote, as views into the file's
    arrays.  A file that cannot be read, or is not an .npz, raises
    MalformedDataset naming it; an array that is missing, of another
    dtype or shape, or that does not fit the others, one naming the
    file and the array.  Each array is screened whole."""
    name, a = None, {}
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("one array, not an archive")
        with npz:
            for name in ARRAYS:
                a[name] = npz[name]
    except OSError as exc:
        raise MalformedDataset("%s: cannot read: %s" % (path, exc.strerror)) from exc
    except KeyError:
        raise MalformedDataset("%s: missing array '%s'" % (path, name)) from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # np.load reads what is not a zip archive as a pickle, and says so;
        # allow_pickle=False refuses an object array
        raise MalformedDataset("%s: %s" % (path, "%s: %s" % (name, exc) if name
                                           else "not an .npz file")) from exc
    for name, ok, expected in _screens(a):
        if not ok:
            raise MalformedDataset("%s: %s: expected %s" % (path, name, expected))
    frame_ends, label_ends = (np.cumsum(a[k])[:-1] for k in ("frame_counts", "label_counts"))
    framewise, collapsed = (a[k].astype(np.intp, copy=False) for k in ("framewise", "collapsed"))
    return [SequenceSample(*arrays, condition=CONDITIONS[code]) for *arrays, code in zip(
        np.split(a["features"], frame_ends), np.split(framewise, frame_ends),
        np.split(collapsed, label_ends), a["condition"])]


# the benchmark reads test files by this name; it is the only caller
# until it moves to load_dataset (ROADMAP item 1)
load_jsonl = load_dataset
