"""Unit tests for the synthetic data generator and its serialization."""

import filecmp
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import synth


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

def test_jsonl_round_trip_is_exact(tmp_path):
    cfg = synth.GeneratorConfig(seed=22, noise_condition="unseen")
    samples = synth.generate(cfg, 25)
    path = tmp_path / "data.jsonl"
    synth.save_jsonl(samples, path)
    loaded = synth.load_jsonl(path)
    assert len(loaded) == len(samples)
    for s, t in zip(samples, loaded):
        np.testing.assert_array_equal(s.x, t.x)
        np.testing.assert_array_equal(s.framewise, t.framewise)
        np.testing.assert_array_equal(s.collapsed, t.collapsed)
        assert s.condition == t.condition
    again = tmp_path / "again.jsonl"
    synth.save_jsonl(loaded, again)
    assert filecmp.cmp(path, again, shallow=False)


@pytest.mark.parametrize("record, reason", [
    ('[1, 2]', "list indices"),
    ('{"features": [1.0, 2.0], "framewise": [1, 1], "collapsed": [1], '
     '"condition": "clean"}', "one framewise label"),
    ('{"features": [[1.0], [2.0, 3.0]], "framewise": [1, 1], "collapsed": [1], '
     '"condition": "clean"}', "array element"),
    ('{"features": [[1.0]], "framewise": [1], "collapsed": [1], '
     '"condition": "noisy"}', "unknown condition 'noisy'"),
])
def test_load_jsonl_names_the_line_that_is_not_a_sample(tmp_path, record, reason):
    path = tmp_path / "data.jsonl"
    synth.save_jsonl(synth.generate(synth.GeneratorConfig(seed=1), 2), path)
    with open(path, "a") as fh:
        fh.write(record + "\n")
    with pytest.raises(synth.MalformedDataset, match="line 3: .*%s" % reason) as info:
        synth.load_jsonl(path)
    assert str(path) in str(info.value)


def test_jsonl_files_are_byte_identical_per_seed(tmp_path):
    cfg = synth.GeneratorConfig(seed=23)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    synth.save_jsonl(synth.generate(cfg, 15), a)
    synth.save_jsonl(synth.generate(cfg, 15), b)
    assert filecmp.cmp(a, b, shallow=False)
