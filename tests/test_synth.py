"""Unit tests for the synthetic data generator and its serialization."""

import filecmp
import os
import re
import subprocess
import sys
import types
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import cli, config, experiment, synth


def dedup(seq):
    out = [seq[0]]
    for v in seq[1:]:
        if v != out[-1]:
            out.append(v)
    return np.array(out)


# ------------------------------------------------------------- config checks

def test_config_rejects_zero_classes():
    with pytest.raises(ValueError, match="num_classes"):
        synth.GeneratorConfig(num_classes=0)


def test_config_rejects_more_classes_than_dimensions():
    with pytest.raises(ValueError, match="num_classes"):
        synth.GeneratorConfig(num_classes=9, feature_dim=8)


def test_config_rejects_negative_stddev():
    with pytest.raises(ValueError, match="emission_stddev"):
        synth.GeneratorConfig(emission_stddev=-0.1)
    with pytest.raises(ValueError, match="seen_noise_stddev"):
        synth.GeneratorConfig(seen_noise_stddev=-1.0)


def test_config_rejects_negative_seeds():
    # numpy refuses a negative seed only when the first sequence is drawn,
    # in a gen-data worker
    for name in ("seed", "mean_seed"):
        with pytest.raises(ValueError, match="^%s: must be nonnegative, got -1$" % name):
            synth.GeneratorConfig(**{name: -1})
    assert synth.GeneratorConfig(seed=0, mean_seed=0).mean_seed == 0


def test_config_rejects_bad_ranges():
    with pytest.raises(ValueError, match="segment_length"):
        synth.GeneratorConfig(segment_length=(5, 3))
    with pytest.raises(ValueError, match="labels_per_sequence"):
        synth.GeneratorConfig(labels_per_sequence=(0, 2))


def test_config_rejects_repeats_with_single_frame_segments():
    with pytest.raises(ValueError, match="allow_repeats"):
        synth.GeneratorConfig(allow_repeats=True, segment_length=(1, 4))


def test_config_rejects_impossible_no_repeat_task():
    with pytest.raises(ValueError, match="labels_per_sequence"):
        synth.GeneratorConfig(num_classes=1, labels_per_sequence=(2, 3))


def test_config_rejects_unknown_condition():
    with pytest.raises(ValueError, match="noise_condition"):
        synth.GeneratorConfig(noise_condition="quiet")


def test_config_rejects_overlapping_emissions():
    with pytest.raises(ValueError, match="emission_stddev"):
        synth.GeneratorConfig(emission_stddev=0.9)


def test_unseen_noise_validation():
    with pytest.raises(ValueError):
        synth.UnseenNoise(family="laplace")
    with pytest.raises(ValueError):
        synth.UnseenNoise(variance_multiplier=-1.0)


def test_generate_rejects_empty_request():
    with pytest.raises(ValueError, match="n"):
        synth.generate(synth.GeneratorConfig(), 0)


# ---------------------------------------------------------------- generation

def test_zero_emission_clean_frames_sit_on_means():
    cfg = synth.GeneratorConfig(emission_stddev=0.0, seed=5)
    means = synth.class_means(cfg)
    for sample in synth.generate(cfg, 20):
        np.testing.assert_allclose(sample.x, means[sample.framewise - 1],
                                   atol=1e-12)


def test_generation_is_deterministic():
    cfg = synth.GeneratorConfig(seed=9)
    a = synth.generate(cfg, 10)
    b = synth.generate(cfg, 10)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.x, t.x)
        np.testing.assert_array_equal(s.framewise, t.framewise)
        np.testing.assert_array_equal(s.collapsed, t.collapsed)


def test_start_index_continues_the_same_stream():
    cfg = synth.GeneratorConfig(seed=9)
    full = synth.generate(cfg, 10)
    tail = synth.generate(cfg, 4, start_index=6)
    for s, t in zip(full[6:], tail):
        np.testing.assert_array_equal(s.x, t.x)
        np.testing.assert_array_equal(s.collapsed, t.collapsed)


def test_disjoint_index_ranges_differ():
    cfg = synth.GeneratorConfig(seed=9)
    a = synth.generate(cfg, 3)
    b = synth.generate(cfg, 3, start_index=1000)
    assert not any(np.array_equal(s.x, t.x) for s, t in zip(a, b))


def test_mean_seed_pins_geometry_across_seeds():
    a = synth.GeneratorConfig(seed=1, mean_seed=7)
    b = synth.GeneratorConfig(seed=2, mean_seed=7)
    np.testing.assert_array_equal(synth.class_means(a), synth.class_means(b))
    sa, sb = synth.generate(a, 3), synth.generate(b, 3)
    assert not all(np.array_equal(s.x, t.x) for s, t in zip(sa, sb))


def test_class_means_are_well_separated():
    cfg = synth.GeneratorConfig(seed=3)
    means = synth.class_means(cfg)
    assert means.shape == (5, 8)
    for i in range(5):
        for j in range(i + 1, 5):
            gap = np.linalg.norm(means[i] - means[j])
            assert gap >= 4.0 * cfg.emission_stddev


def test_collapsed_framewise_consistency_over_many_samples():
    cfg = synth.GeneratorConfig(seed=11)
    for sample in synth.generate(cfg, 1000):
        np.testing.assert_array_equal(dedup(sample.framewise),
                                      sample.collapsed)
        assert len(sample.x) == len(sample.framewise)
        assert not np.any(sample.collapsed == 0)


def test_segment_lengths_and_label_counts_within_ranges():
    cfg = synth.GeneratorConfig(seed=12)
    lo, hi = cfg.segment_length
    rlo, rhi = cfg.labels_per_sequence
    for sample in synth.generate(cfg, 300):
        assert rlo <= len(sample.collapsed) <= rhi
        # without repeats the run lengths are exactly the segment lengths
        boundaries = np.flatnonzero(np.diff(sample.framewise) != 0)
        runs = np.diff(np.concatenate(([0], boundaries + 1,
                                       [len(sample.framewise)])))
        assert runs.min() >= lo and runs.max() <= hi


def test_allow_repeats_emits_adjacent_duplicates():
    cfg = synth.GeneratorConfig(allow_repeats=True, segment_length=(2, 4),
                                labels_per_sequence=(4, 6), seed=13)
    samples = synth.generate(cfg, 200)
    has_repeat = any(np.any(s.collapsed[1:] == s.collapsed[:-1])
                     for s in samples)
    assert has_repeat
    for s in samples:
        # framewise merging cannot rebuild the repeat, only the merged view
        np.testing.assert_array_equal(dedup(s.framewise), dedup(s.collapsed))


def test_nearest_mean_classifier_on_clean_data():
    cfg = synth.GeneratorConfig(seed=14)
    means = synth.class_means(cfg)
    correct = total = 0
    for sample in synth.generate(cfg, 200):
        d = ((sample.x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        pred = d.argmin(axis=1) + 1
        correct += int((pred == sample.framewise).sum())
        total += len(sample.framewise)
    assert correct / total >= 0.99


def test_seen_and_unseen_noise_differ_in_variance():
    frames = {}
    for condition in ("clean", "seen", "unseen"):
        cfg = synth.GeneratorConfig(emission_stddev=0.0, seed=15,
                                    noise_condition=condition)
        means = synth.class_means(cfg)
        rows = []
        for sample in synth.generate(cfg, 400):
            rows.append(sample.x - means[sample.framewise - 1])
        frames[condition] = np.concatenate(rows)
    assert frames["seen"].size >= 10000
    assert np.abs(frames["clean"]).max() == 0.0
    var_seen = frames["seen"].var()
    var_unseen = frames["unseen"].var()
    assert var_unseen / var_seen >= 2.0


def test_unseen_noise_is_bounded_seen_is_not():
    # the two families differ in shape, not just scale: uniform noise has
    # hard support while the Gaussian exceeds it on this many draws
    cfg = synth.GeneratorConfig(emission_stddev=0.0, seed=16,
                                noise_condition="unseen")
    means = synth.class_means(cfg)
    bound = np.sqrt(3.0 * cfg.unseen.variance_multiplier
                    * cfg.seen_noise_stddev ** 2) + cfg.unseen.offset_scale
    worst = 0.0
    for sample in synth.generate(cfg, 400):
        worst = max(worst, np.abs(sample.x - means[sample.framewise - 1]).max())
    assert worst <= bound + 1e-12
    gauss = synth.GeneratorConfig(emission_stddev=0.0, seed=16,
                                  noise_condition="seen")
    tail = 0.0
    for sample in synth.generate(gauss, 400):
        tail = max(tail, np.abs(sample.x - means[sample.framewise - 1]).max())
    assert tail > bound


# --------------------------------------------------------------------- split

def test_split_everything_to_train():
    data = synth.generate(synth.GeneratorConfig(seed=17), 30)
    train, val = synth.split(data, 0.0)
    assert len(train) == 30 and not val


def test_split_90_10():
    data = synth.generate(synth.GeneratorConfig(seed=18), 100)
    train, val = synth.split(data, 0.1)
    assert (len(train), len(val)) == (90, 10)
    assert len({id(s) for s in train + val}) == 100


def test_split_is_deterministic():
    data = synth.generate(synth.GeneratorConfig(seed=19), 40)
    a = synth.split(data, 0.25, seed=3)
    b = synth.split(data, 0.25, seed=3)
    for part_a, part_b in zip(a, b):
        assert [id(s) for s in part_a] == [id(s) for s in part_b]


def test_split_stratifies_by_condition():
    clean = synth.generate(synth.GeneratorConfig(seed=20), 40)
    seen = synth.generate(synth.GeneratorConfig(seed=20,
                                                noise_condition="seen"), 40)
    train, val = synth.split(clean + seen, 0.25)
    for part, count in ((train, 30), (val, 10)):
        conditions = [s.condition for s in part]
        assert conditions.count("clean") == count
        assert conditions.count("seen") == count


def test_split_keeps_every_sequence():
    # 25 per condition at 0.1: round(22.5) is 22 and round(2.5) is 2, so
    # a three-way split with an empty third part dropped one per condition
    clean = synth.generate(synth.GeneratorConfig(seed=24), 25)
    seen = synth.generate(synth.GeneratorConfig(seed=24,
                                                noise_condition="seen"), 25)
    train, val = synth.split(clean + seen, 0.1, seed=1)
    assert (len(train), len(val)) == (44, 6)


def test_split_rejects_bad_fractions():
    data = synth.generate(synth.GeneratorConfig(seed=21), 4)
    with pytest.raises(ValueError, match="validation_fraction"):
        synth.split(data, 1.5)
    with pytest.raises(ValueError, match="validation_fraction"):
        synth.split(data, -0.5)


def _three_way_split(dataset, fractions, seed):
    """The earlier (train, validation, test) split, kept as a reference."""
    by_condition = {}
    for i, sample in enumerate(dataset):
        by_condition.setdefault(sample.condition, []).append(i)
    rng = np.random.default_rng([seed, 104729])
    parts = ([], [], [])
    for condition in sorted(by_condition):
        idx = np.array(by_condition[condition])
        idx = idx[rng.permutation(len(idx))]
        n = len(idx)
        n_train = int(round(fractions[0] * n))
        n_val = min(int(round(fractions[1] * n)), n - n_train)
        cut1, cut2 = n_train, n_train + n_val
        for part, sel in zip(parts, (idx[:cut1], idx[cut1:cut2], idx[cut2:])):
            part.extend(int(i) for i in sel)
    return tuple([dataset[i] for i in sorted(part)] for part in parts)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), min_size=3, max_size=3),
       fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**16))
def test_split_partitions_the_pool(sizes, fraction, seed):
    pool = [types.SimpleNamespace(condition=condition, index=k)
            for condition, n in zip(synth.CONDITIONS, sizes) for k in range(n)]
    train, val = synth.split(pool, fraction, seed=seed)
    # nothing lost or repeated, each part in pool order
    assert sorted(map(id, train + val)) == sorted(map(id, pool))
    for part in (train, val):
        positions = [pool.index(s) for s in part]
        assert positions == sorted(positions)
    # stratified: each condition's own share goes to train
    for condition, n in zip(synth.CONDITIONS, sizes):
        n_train = sum(s.condition == condition for s in train)
        assert n_train == int(round((1.0 - fraction) * n))
    # deterministic
    again = synth.split(pool, fraction, seed=seed)
    assert [list(map(id, p)) for p in again] == [list(map(id, p)) for p in (train, val)]
    # the earlier split wherever it dropped nothing
    old_train, old_val, dropped = _three_way_split(
        pool, (1.0 - fraction, fraction, 0.0), seed)
    if not dropped:
        assert list(map(id, old_train)) == list(map(id, train))
        assert list(map(id, old_val)) == list(map(id, val))


# ------------------------------------------------------------- serialization

def gen_data_config(tmp_path):
    cfg = config.RunConfig(seed=5, num_train_sequences=12, num_test_sequences=4,
                           data_dir=str(tmp_path / "data"))
    path = tmp_path / "run.json"
    config.save_config(cfg, path)
    return str(path), cfg


DATA_FILES = [(condition, part) for condition in synth.CONDITIONS for part in ("train", "test")]


def test_gen_data_files_decode_to_the_generated_samples(tmp_path, capsys):
    path, cfg = gen_data_config(tmp_path)
    assert cli.main(["gen-data", "--config", path]) == 0
    for condition, part in DATA_FILES:
        gen = synth.GeneratorConfig(seed=cfg.seed, noise_condition=condition)
        count, start = {"train": (cfg.num_train_sequences, 0),
                        "test": (cfg.num_test_sequences, experiment.TEST_START_INDEX)}[part]
        want = synth.generate(gen, count, start_index=start)
        loaded = synth.load_dataset(cli.dataset_path(cfg.data_dir, condition, part))
        assert len(loaded) == len(want)
        for s, t in zip(want, loaded):
            for field in ("x", "framewise", "collapsed"):
                a, b = getattr(s, field), getattr(t, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert s.condition == t.condition


def test_gen_data_files_are_byte_identical_across_processes(tmp_path):
    path, cfg = gen_data_config(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for out in ("a", "b"):
        proc = subprocess.run([sys.executable, "-m", "tmfusion.cli", "gen-data",
                               "--config", path, "--out", str(tmp_path / out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for condition, part in DATA_FILES:
        a, b = (cli.dataset_path(tmp_path / out, condition, part) for out in ("a", "b"))
        assert filecmp.cmp(a, b, shallow=False)
        # no entry carries the day it was written
        with zipfile.ZipFile(a) as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}


@pytest.mark.parametrize("edit, reason", [
    (lambda a: a.update(features=a["features"].ravel()),
     "features: expected a 2-D float64 array, got 1-D float64"),
    (lambda a: a["frame_counts"].put(0, a["frame_counts"][0] - 1),
     r"frame_counts: expected counts of at least 1, one per sequence \(2\), summing to"),
    (lambda a: a.update(frame_counts=np.array([0, a["frame_counts"].sum()])),
     "frame_counts: expected counts of at least 1"),
    (lambda a: a.update(framewise=a["framewise"][1:]), "framewise: expected one label per frame"),
    (lambda a: a.update(label_counts=a["label_counts"] + 1),
     "label_counts: expected counts of at least 0"),
    (lambda a: a.update(condition=np.zeros(3, dtype=np.intp)),
     r"condition: expected indices into \('clean', 'seen', 'unseen'\), one per sequence \(2\)"),
    (lambda a: a["condition"].put(0, -1), "condition: expected indices into"),
    (lambda a: a.update(collapsed=a["collapsed"][:, None]),
     "collapsed: expected a 1-D integer array, got 2-D int64"),
    (None, "not an .npz file"),
], ids=["features_not_2d", "frame_counts_not_summing", "sequence_without_frames",
        "framewise_per_frame", "label_counts_not_summing", "condition_per_sequence",
        "condition_out_of_range", "collapsed_not_1d", "npy_file"])
def test_load_dataset_names_the_array_that_is_not_a_sample(tmp_path, edit, reason):
    path = tmp_path / "data.npz"
    synth.save_dataset(synth.generate(synth.GeneratorConfig(seed=1), 2), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    with open(path, "wb") as fh:
        if edit is None:
            # one array, not an archive of them
            np.save(fh, arrays["features"])
        else:
            edit(arrays)
            np.savez(fh, **arrays)
    with pytest.raises(synth.MalformedDataset, match="^%s: %s" % (re.escape(str(path)), reason)):
        synth.load_dataset(path)
