"""Unit tests for config, checkpoint, and metrics-file formats."""

import dataclasses
import filecmp
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import config, ctc, losses, model, synth


def small_config(**kw):
    defaults = dict(mode="tmf", seed=3,
                    network=model.NetworkSpec(4, [6], 3, recurrent=True),
                    generator=synth.GeneratorConfig(num_classes=2,
                                                    feature_dim=4, seed=3))
    defaults.update(kw)
    return config.RunConfig(**defaults)


# ------------------------------------------------------------------ validity

def test_defaults_are_valid():
    cfg = config.RunConfig()
    assert cfg.temporal
    assert cfg.network.num_classes == cfg.generator.num_classes + 1


def test_mode_validation():
    with pytest.raises(config.ConfigError, match="mode"):
        config.RunConfig(mode="mmi")
    with pytest.raises(config.ConfigError, match="mode: expected one of"):
        config.config_from_dict({"mode": "CTC"})


def test_temporal_modes_need_a_blank_output():
    with pytest.raises(config.ConfigError, match="num_classes"):
        small_config(network=model.NetworkSpec(4, [6], 2))
    framewise = small_config(mode="ce",
                             network=model.NetworkSpec(4, [6], 2))
    assert not framewise.temporal


def test_condition_validation():
    with pytest.raises(config.ConfigError, match="train_conditions"):
        small_config(train_conditions=("clean", "noisy"))


def test_fraction_validation():
    with pytest.raises(config.ConfigError, match="validation_fraction"):
        small_config(validation_fraction=0.0)
    with pytest.raises(config.ConfigError, match="validation_fraction"):
        small_config(validation_fraction=1.0)


def test_negative_rates_rejected():
    with pytest.raises(config.ConfigError, match="lam"):
        small_config(lam=-1e-3)
    with pytest.raises(config.ConfigError, match="learning_rate"):
        small_config(learning_rate=-1.0)


def test_occupancy_modes_are_the_ones_ctc_implements():
    for mode in ctc.OCCUPANCY_MODES:
        assert small_config(occupancy_mode=mode).settings().occupancy_mode == mode
    with pytest.raises(config.ConfigError,
                       match="occupancy_mode: expected one of .*'normalised'"):
        small_config(occupancy_mode="normalised")


SCHEDULE_COUNTS = ("batch_size", "max_batches", "eval_interval",
                   "halve_after", "stop_after")


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", SCHEDULE_COUNTS + ("num_train_sequences",
                                                     "num_test_sequences"))
def test_counts_below_one_are_rejected_naming_field(field, value):
    # training divides by these counts, and a negative batch size would
    # loop forever over empty epochs
    with pytest.raises(config.ConfigError, match=f"^{field}: must be at least 1"):
        small_config(**{field: value})
    if field in SCHEDULE_COUNTS:
        with pytest.raises(ValueError, match=f"^{field}: must be at least 1"):
            model.TrainSettings(**{field: value})


def test_unknown_top_level_field_is_named():
    with pytest.raises(config.ConfigError, match="learning_rte"):
        config.config_from_dict({"learning_rte": 1e-3})


def test_unknown_nested_field_is_named():
    with pytest.raises(config.ConfigError, match="hiden"):
        config.config_from_dict({"network": {"hiden": [4]}})
    with pytest.raises(config.ConfigError,
                       match="generator.unseen: unknown field 'famly'"):
        config.config_from_dict({"generator": {"unseen": {"famly": "uniform"}}})


def test_nested_field_that_is_not_an_object_is_named():
    with pytest.raises(config.ConfigError, match="network: expected a JSON object"):
        config.config_from_dict({"network": [8, [4], 6]})


def test_factories_are_consistent():
    cfg = small_config(batch_size=3, max_batches=17, eval_interval=5,
                       halve_after=2, stop_after=4, lam=0.02,
                       occupancy_mode="frame_normalized")
    assert cfg.temporal
    settings = cfg.settings()
    assert type(settings) is model.TrainSettings
    for field in dataclasses.fields(model.TrainSettings):
        assert getattr(settings, field.name) == getattr(cfg, field.name)
    assert settings != model.TrainSettings()
    state = cfg.new_state()
    assert state.spec.num_classes == 3
    bank = cfg.new_bank()
    assert bank.num_classes == 2
    assert bank.dim == cfg.network.feature_dim


# ----------------------------------------------------------------- config io

def test_config_round_trip(tmp_path):
    cfg = small_config(lam=0.02, occupancy_mode="frame_normalized")
    path = tmp_path / "run.json"
    config.save_config(cfg, path)
    loaded = config.load_config(path)
    assert loaded == cfg
    again = tmp_path / "run2.json"
    config.save_config(loaded, again)
    assert filecmp.cmp(path, again, shallow=False)


def _ranges():
    return st.tuples(st.integers(1, 6), st.integers(0, 4)).map(
        lambda p: (p[0], p[0] + p[1]))


@settings(max_examples=60, deadline=None)
@given(conditions=st.lists(st.sampled_from(synth.CONDITIONS), min_size=1,
                           max_size=3, unique=True).map(tuple),
       hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       segment_length=_ranges(), labels_per_sequence=_ranges(),
       mean_seed=st.none() | st.integers(0, 2**31),
       variance=st.floats(0.0, 10.0), offset=st.floats(0.0, 3.0))
def test_config_round_trip_over_nested_fields(tmp_path_factory, conditions, hidden,
                                              segment_length, labels_per_sequence,
                                              mean_seed, variance, offset):
    gen = synth.GeneratorConfig(
        num_classes=2, feature_dim=4, segment_length=segment_length,
        labels_per_sequence=labels_per_sequence, mean_seed=mean_seed,
        unseen=synth.UnseenNoise(variance_multiplier=variance,
                                 offset_scale=offset))
    cfg = small_config(network=model.NetworkSpec(4, hidden, 3, recurrent=True),
                       generator=gen, train_conditions=conditions)
    folder = tmp_path_factory.mktemp("cfg")
    path, again = folder / "run.json", folder / "run2.json"
    config.save_config(cfg, path)
    loaded = config.load_config(path)
    assert loaded == cfg        # tuples stay tuples and lists lists
    config.save_config(loaded, again)
    assert filecmp.cmp(path, again, shallow=False)


def test_config_json_is_complete(tmp_path):
    path = tmp_path / "run.json"
    config.save_config(small_config(), path)
    data = json.loads(path.read_text())
    assert list(data) == [f.name for f in dataclasses.fields(config.RunConfig)]
    inherited = [f.name for f in dataclasses.fields(model.TrainSettings)]
    assert list(data)[:len(inherited)] == inherited     # written first


# the key order of run.json files written before RunConfig extended TrainSettings
EARLIER_KEY_ORDER = (
    "mode", "seed", "network", "generator", "lam", "occupancy_mode",
    "learning_rate", "beta1", "beta2", "epsilon", "center_momentum",
    "occupancy_threshold", "batch_size", "max_batches", "eval_interval",
    "halve_after", "stop_after", "train_conditions", "validation_fraction",
    "num_train_sequences", "num_test_sequences", "data_dir",
    "checkpoint_path", "metrics_path")


def test_config_in_the_earlier_key_order_loads_equal(tmp_path):
    cfg = small_config(lam=0.02, batch_size=4, stop_after=5)
    data = dataclasses.asdict(cfg)
    assert sorted(data) == sorted(EARLIER_KEY_ORDER)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({k: data[k] for k in EARLIER_KEY_ORDER}, indent=2))
    assert config.load_config(path) == cfg


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(config.ConfigError, match="JSON"):
        config.load_config(path)


def test_config_from_dict_accepts_partial_overrides():
    cfg = config.config_from_dict({"mode": "ce", "seed": 5,
                                   "network": {"input_dim": 8,
                                               "hidden": [32, 16],
                                               "num_classes": 5}})
    assert cfg.mode == "ce"
    assert cfg.seed == 5
    assert cfg.network.hidden == [32, 16]


# ------------------------------------------------------------- checkpoint io

def trained_state():
    spec = model.NetworkSpec(4, [6], 3, recurrent=True)
    state = model.ModelState(spec, seed=8, lr=3e-4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in state.params.items()}
        model.adam_step(state, grads)
    bank = losses.CenterBank(2, 6, momentum=2e-3, occupancy_threshold=0.02)
    bank.centers = rng.normal(size=bank.centers.shape)
    sched = model.ScheduleState(best=-1.25, since_improvement=2)
    return state, bank, sched


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    loaded_state, loaded_bank, loaded_sched, meta = config.load_checkpoint(path)
    assert meta == {"mode": "tmf", "seed": 8, "step_count": 3}
    assert loaded_state.lr == state.lr
    assert loaded_state.step_count == state.step_count
    assert (loaded_state.beta1, loaded_state.beta2, loaded_state.eps) == \
        (state.beta1, state.beta2, state.eps)
    for k in state.param_names():
        np.testing.assert_array_equal(loaded_state.params[k], state.params[k])
        np.testing.assert_array_equal(loaded_state.adam_m[k], state.adam_m[k])
        np.testing.assert_array_equal(loaded_state.adam_v[k], state.adam_v[k])
    np.testing.assert_array_equal(loaded_bank.centers, bank.centers)
    assert loaded_bank.momentum == bank.momentum
    assert loaded_bank.occupancy_threshold == bank.occupancy_threshold
    assert loaded_sched == sched


def test_checkpoint_reserialization_is_byte_identical(tmp_path):
    state, bank, sched = trained_state()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    config.save_checkpoint(first, state, bank, sched, "tmf", 8)
    config.save_checkpoint(second, *config.load_checkpoint(first)[:3], "tmf", 8)
    assert filecmp.cmp(first, second, shallow=False)


def test_checkpoint_fresh_schedule_best_survives(tmp_path):
    state, bank, _ = trained_state()
    sched = model.ScheduleState()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "ctc", 0)
    _, _, loaded_sched, _ = config.load_checkpoint(path)
    assert loaded_sched.best == -np.inf
    assert loaded_sched.since_improvement == 0


def test_checkpoint_rejects_threshold_above_one(tmp_path):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    data["centers"]["occupancy_threshold"] = "2.0"
    path.write_text(json.dumps(data))
    with pytest.raises(config.ConfigError, match="occupancy_threshold"):
        config.load_checkpoint(path)


def test_checkpoint_rejects_unknown_mode(tmp_path):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "CTC", 8)
    with pytest.raises(config.ConfigError, match="mode"):
        config.load_checkpoint(path)


def test_checkpoint_ignores_an_old_eval_interval(tmp_path):
    # earlier v1 files carried schedule.eval_interval, a copy of the
    # training setting; it loads and is dropped
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    assert "eval_interval" not in data["schedule"]
    data["schedule"]["eval_interval"] = 200
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data, indent=1) + "\n")
    assert config.load_checkpoint(old)[2] == sched


def test_checkpoint_write_that_fails_keeps_the_previous_file(tmp_path,
                                                             monkeypatch):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    before = path.read_bytes()

    def dump_then_fail(data, fh, **kwargs):
        fh.write('{"format": "tmfusion-checkpoint-v1",')
        raise OSError("no space left on device")

    monkeypatch.setattr(config.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="no space left"):
        config.save_checkpoint(path, state, bank, model.ScheduleState(), "tmf", 8)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.json"]     # no ckpt.json.tmp left
    monkeypatch.undo()
    assert config.load_checkpoint(path)[2] == sched


def test_checkpoint_rejects_foreign_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(config.ConfigError, match="format"):
        config.load_checkpoint(path)


# ---------------------------------------------------------------- metrics io

def test_metrics_rows_use_exact_decimal_floats(tmp_path):
    path = tmp_path / "metrics.csv"
    fh, writer = config.open_metrics(path)
    row = {"eval_index": 0, "batches": 200, "lr": 1e-4,
           "train_loss": 1.0 / 3.0, "val_score": -2.5,
           "ter_clean": 0.1, "ter_seen": 12.25, "ter_unseen": 30.0,
           "acc_clean": 99.9, "acc_seen": 95.0, "acc_unseen": 80.5}
    config.append_metrics(writer, fh, row)
    fh.close()
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(config.METRIC_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[3]) == 1.0 / 3.0
    assert cells[3] == repr(1.0 / 3.0)


def test_metrics_missing_columns_are_blank(tmp_path):
    path = tmp_path / "metrics.csv"
    fh, writer = config.open_metrics(path)
    config.append_metrics(writer, fh, {"eval_index": 0, "batches": 10,
                                       "lr": 1e-4, "train_loss": 2.0,
                                       "val_score": -1.0})
    fh.close()
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[5:] == [""] * 6
