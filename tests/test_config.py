"""Unit tests for config, checkpoint, and metrics-file formats."""

import dataclasses
import filecmp
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import config, experiment, losses, model, synth


def small_config(**kw):
    defaults = dict(mode="tmf", seed=3, hidden=(6,), recurrent=True,
                    generator=synth.GeneratorConfig(num_classes=2,
                                                    feature_dim=4, seed=3))
    defaults.update(kw)
    return config.RunConfig(**defaults)


# ------------------------------------------------------------------ validity

def test_defaults_are_valid():
    # in every mode: the output columns follow from it
    for mode in model.MODES:
        cfg = config.RunConfig(mode=mode)
        assert cfg.temporal == (mode in model.TEMPORAL_MODES)
        assert cfg.network == model.NetworkSpec(
            cfg.generator.feature_dim, list(cfg.hidden),
            model.output_units(mode, cfg.generator.num_classes), cfg.recurrent)


def test_mode_validation():
    with pytest.raises(config.ConfigError, match="mode"):
        config.RunConfig(mode="mmi")
    with pytest.raises(config.ConfigError, match="mode: expected one of"):
        config.config_from_dict({"mode": "CTC"})


@pytest.mark.parametrize("mode", model.MODES)
def test_network_widths_follow_the_generator_and_the_mode(mode):
    # the temporal modes add the blank output column
    gen = synth.GeneratorConfig(num_classes=3, feature_dim=7, seed=3)
    cfg = small_config(mode=mode, generator=gen, hidden=(5, 2), recurrent=False)
    blank = mode in model.TEMPORAL_MODES
    assert cfg.network == model.NetworkSpec(7, [5, 2], 3 + blank, recurrent=False)
    assert cfg.new_state().params["W0"].shape == (5, 7)
    assert cfg.new_state().params["W"].shape == (3 + blank, 2)
    assert cfg.new_bank().dim == 2


def test_network_is_not_a_setting():
    assert "network" not in {f.name for f in dataclasses.fields(config.RunConfig)}
    # a file written before the widths were derived
    with pytest.raises(config.ConfigError,
                       match=re.escape("top level: unknown field 'network'")):
        config.config_from_dict({"network": {"input_dim": 8, "hidden": [32, 16],
                                             "num_classes": 6}})


@pytest.mark.parametrize("hidden", [(), (4, 0), (-1,)])
def test_hidden_widths_below_one_are_rejected_naming_field(hidden):
    with pytest.raises(config.ConfigError, match="^hidden: must be at least 1"):
        small_config(hidden=hidden)
    with pytest.raises(config.ConfigError, match="^hidden: must be at least 1"):
        config.config_from_dict({"hidden": list(hidden)})


def test_condition_validation():
    with pytest.raises(config.ConfigError, match="train_conditions: unknown"):
        small_config(train_conditions=("clean", "noisy"))
    # a repeated file would put copies of its sequences on both sides of
    # the validation split
    with pytest.raises(config.ConfigError,
                       match="train_conditions: repeated condition 'seen'"):
        small_config(train_conditions=("seen", "clean", "seen"))


@pytest.mark.parametrize("data, named", [
    ({"learning_rate": float("nan")}, "^learning_rate: not a finite number"),
    ({"lam": float("inf")}, "^lam: not a finite number"),
    ({"batch_size": float("nan")}, "^batch_size: not a finite number"),
    ({"generator": {"unseen": {"variance_multiplier": float("-inf")}}},
     "^generator.unseen: variance_multiplier: not a finite number"),
    ({"generator": {"labels_per_sequence": [1, float("inf")]}},
     "^generator: labels_per_sequence: not a finite number"),
    # an integer too large for a float
    ({"learning_rate": 10 ** 400}, "^learning_rate: not a finite number"),
], ids=["top_nan", "top_inf", "count_nan", "nested_object", "nested_array", "top_huge_int"])
def test_non_finite_numbers_are_rejected_naming_field(data, named):
    with pytest.raises(config.ConfigError, match=named):
        config.config_from_dict(data)


@pytest.mark.parametrize("data, named", [
    ({"seed": "3"}, 'seed: expected an integer, got "3"'),
    ({"seed": True}, "seed: expected an integer, got true"),
    ({"batch_size": 2.5}, "batch_size: expected an integer, got 2.5"),
    ({"recurrent": "no"}, 'recurrent: expected true or false, got "no"'),
    ({"recurrent": 0}, "recurrent: expected true or false, got 0"),
    ({"lam": True}, "lam: expected a number, got true"),
    ({"mode": 1}, "mode: expected a string, got 1"),
    ({"hidden": 16}, "hidden: expected an array, got 16"),
    ({"hidden": [16, 2.5]}, "hidden: expected an integer, got 2.5"),
    ({"train_conditions": "clean"}, 'train_conditions: expected an array, got "clean"'),
    ({"train_conditions": ["clean", 1]}, "train_conditions: expected a string, got 1"),
    ({"generator": {"segment_length": [2, 3, 4]}},
     "generator: segment_length: expected 2 elements, got 3"),
    ({"generator": {"labels_per_sequence": [1, True]}},
     "generator: labels_per_sequence: expected an integer, got true"),
    ({"generator": {"mean_seed": "1"}}, 'generator: mean_seed: expected an integer, got "1"'),
    ({"generator": {"unseen": {"family": None}}},
     "generator.unseen: family: expected a string, got null"),
], ids=["seed_string", "seed_bool", "count_float", "bool_string", "bool_int", "float_bool",
        "str_int", "array_int", "element_float", "array_string", "element_int",
        "tuple_length", "element_bool", "nullable_string", "nested_null"])
def test_mistyped_field_is_rejected_naming_field(data, named):
    with pytest.raises(config.ConfigError, match="^" + re.escape(named)):
        config.config_from_dict(data)


def test_typed_fields_keep_their_legal_values():
    # an integer is a number, read as a float, and a field whose default
    # is None takes null
    cfg = config.config_from_dict({"learning_rate": 1, "hidden": [3, 2],
                                   "generator": {"mean_seed": None, "segment_length": [2, 4]}})
    assert cfg.learning_rate == 1 and type(cfg.learning_rate) is float
    assert cfg.hidden == (3, 2)
    assert (cfg.generator.mean_seed, cfg.generator.segment_length) == (None, (2, 4))
    assert config.config_from_dict({"generator": {"mean_seed": 7}}).generator.mean_seed == 7


@pytest.mark.parametrize("field, value, rule", [
    ("beta1", 1.0, "lie in [0, 1), got 1.0"),
    ("beta1", -0.5, "lie in [0, 1), got -0.5"),
    ("beta2", 1.5, "lie in [0, 1), got 1.5"),
    ("epsilon", -1.0, "be positive, got -1.0"),
    ("epsilon", 0.0, "be positive, got 0.0"),
    ("learning_rate", -1.0, "be nonnegative, got -1.0"),
    ("center_momentum", -1e-3, "be nonnegative, got -0.001"),
    ("seed", -1, "be nonnegative, got -1"),
])
def test_optimizer_and_bank_settings_out_of_range_are_named(field, value, rule):
    # a beta of 1 leaves Adam's bias correction at 0: before, training
    # diverged, and the other values trained
    with pytest.raises(config.ConfigError, match="^" + re.escape(f"{field}: must {rule}")):
        config.config_from_dict({field: value})
    with pytest.raises(config.ConfigError, match="^" + re.escape(f"{field}: must {rule}")):
        small_config(**{field: value})


def test_state_and_bank_own_their_ranges():
    spec = model.NetworkSpec(2, [3], 2)
    # an eps of inf left every parameter unchanged, and an lr of inf
    # failed a batch later with NonFiniteGradient
    for kw, named in (({"beta1": 1.0}, "beta1"), ({"beta2": -0.1}, "beta2"),
                      ({"eps": 0.0}, "eps"), ({"lr": -1.0}, "lr"), ({"seed": -2}, "seed")):
        with pytest.raises(ValueError, match=f"^{named}: must "):
            model.ModelState(spec, **kw)
    for name in ("lr", "eps"):
        with pytest.raises(ValueError, match=f"^{name}: must be finite, got inf$"):
            model.ModelState(spec, **{name: float("inf")})
    with pytest.raises(ValueError, match="^momentum: must be nonnegative"):
        losses.CenterBank(2, 2, momentum=-1e-3)
    model.ModelState(spec, lr=0.0, beta1=0.0, beta2=0.0)
    losses.CenterBank(2, 2, momentum=0.0)


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


def test_occupancy_mode_is_not_a_setting():
    # tmf has one occupancy, ctc.occupancy: nothing selects it
    for kind in (config.RunConfig, model.TrainSettings, experiment.ExperimentSpec):
        assert "occupancy_mode" not in {f.name for f in dataclasses.fields(kind)}
    # a file written while it was one
    with pytest.raises(config.ConfigError,
                       match=re.escape("top level: unknown field 'occupancy_mode'")):
        config.config_from_dict({"occupancy_mode": "frame_normalized"})


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
    with pytest.raises(config.ConfigError,
                       match="generator: unknown field 'num_clases'"):
        config.config_from_dict({"generator": {"num_clases": 3}})
    with pytest.raises(config.ConfigError,
                       match="generator.unseen: unknown field 'famly'"):
        config.config_from_dict({"generator": {"unseen": {"famly": "uniform"}}})


def test_nested_field_that_is_not_an_object_is_named():
    with pytest.raises(config.ConfigError, match="generator: expected a JSON object"):
        config.config_from_dict({"generator": [5, 8]})
    with pytest.raises(config.ConfigError,
                       match="generator.unseen: expected a JSON object"):
        config.config_from_dict({"generator": {"unseen": "uniform"}})


def test_factories_are_consistent():
    cfg = small_config(batch_size=3, max_batches=17, eval_interval=5,
                       halve_after=2, stop_after=4, lam=0.02)
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
    cfg = small_config(lam=0.02)
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
    cfg = small_config(hidden=tuple(hidden), generator=gen, train_conditions=conditions)
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


# the key order of run.json files written before RunConfig extended
# TrainSettings, with the network's hidden and recurrent in its place
# (and less the occupancy_mode that has gone since)
EARLIER_KEY_ORDER = (
    "mode", "seed", "hidden", "recurrent", "generator", "lam", "learning_rate",
    "beta1", "beta2", "epsilon", "center_momentum",
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
    cfg = config.config_from_dict({"mode": "ce", "seed": 5, "hidden": [24]})
    assert cfg.mode == "ce"
    assert cfg.seed == 5
    assert cfg.hidden == (24,)
    assert cfg.network == model.NetworkSpec(8, [24], 5)


# ------------------------------------------------------------- checkpoint io

def trained_state():
    spec = model.NetworkSpec(4, [6], 3, recurrent=True)
    state = model.ModelState(spec, seed=8, lr=3e-4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        model.adam_step(state, rng.normal(size=state.size))
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


@pytest.mark.parametrize("field, value", [("hiden", [4]), ("input_dim", "8")],
                         ids=["unknown", "mistyped"])
def test_checkpoint_network_field_that_is_unknown_or_mistyped_is_named(tmp_path, field,
                                                                      value):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    data["network"][field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(config.ConfigError,
                       match=re.escape("checkpoint %s: network: " % path)):
        config.load_checkpoint(path)


def test_checkpoint_ignores_an_old_eval_interval(tmp_path):
    # earlier v1 files carried schedule.eval_interval, a copy of the
    # training setting, and shapes, centers.num_classes, centers.dim and
    # step_count, which follow from the network, the mode and adam.steps;
    # they load and are dropped
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    assert "eval_interval" not in data["schedule"]
    data["schedule"]["eval_interval"] = 200
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data, indent=1) + "\n")
    assert config.load_checkpoint(old)[2] == sched
    data["step_count"] = state.step_count
    data["shapes"] = {k: list(v.shape) for k, v in state.params.items()}
    data["centers"].update(num_classes=bank.num_classes, dim=bank.dim)
    old.write_text(json.dumps(data, indent=1) + "\n")
    now, then = config.load_checkpoint(path), config.load_checkpoint(old)
    assert then[2:] == now[2:] == (sched, {"mode": "tmf", "seed": 8, "step_count": 3})
    for loaded in (now[0], then[0]):
        assert (loaded.spec, loaded.lr, loaded.beta1, loaded.beta2, loaded.eps,
                loaded.step_count) == (state.spec, state.lr, state.beta1, state.beta2,
                                       state.eps, state.step_count)
        for group in ("params", "adam_m", "adam_v"):
            for k, v in getattr(state, group).items():
                assert getattr(loaded, group)[k].tobytes() == v.tobytes()
    for loaded in (now[1], then[1]):
        assert (loaded.num_classes, loaded.dim, loaded.momentum,
                loaded.occupancy_threshold) == (bank.num_classes, bank.dim, bank.momentum,
                                                bank.occupancy_threshold)
        assert loaded.centers.tobytes() == bank.centers.tobytes()


def test_checkpoint_states_its_model_once(tmp_path):
    # the shapes and the bank's size follow from the network and the mode,
    # and the step count is adam.steps
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    assert "shapes" not in data and "step_count" not in data
    assert list(data["centers"]) == ["momentum", "occupancy_threshold", "values"]
    assert data["adam"]["steps"] == 3
    assert data["format"] == "tmfusion-checkpoint-v1"


def _transposed(rows):
    return [list(column) for column in zip(*rows)]


@pytest.mark.parametrize("edit, named", [
    (lambda d: d["adam"].update(steps="3"), 'adam.steps: expected an integer, got "3"'),
    (lambda d: d["schedule"].update(halve_after=2.5),
     "schedule.halve_after: expected an integer, got 2.5"),
    (lambda d: d["schedule"].update(since_improvement=True),
     "schedule.since_improvement: expected an integer, got true"),
    (lambda d: d.update(seed="8"), 'seed: expected an integer, got "8"'),
    (lambda d: d.update(mode=3), "mode: expected a string, got 3"),
    (lambda d: d["network"].update(recurrent="yes"),
     'network: recurrent: expected true or false, got "yes"'),
    (lambda d: d["adam"].update(beta1=0.9), "adam.beta1: expected a string, got 0.9"),
    (lambda d: d["adam"].update(beta2=None), "adam.beta2: expected a string, got null"),
    (lambda d: d["adam"].update(eps="abc"), "adam.eps: could not convert string to float"),
    (lambda d: d["schedule"].update(best="nan"), "schedule.best: not a finite number"),
    (lambda d: d["centers"]["values"][1].__setitem__(0, 1.0),
     "centers.values: expected a string, got 1.0"),
    (lambda d: d["adam"].update(beta1="1.0"), "adam.beta1: must lie in [0, 1), got 1.0"),
    (lambda d: d["adam"].update(eps="0.0"), "adam.eps: must be positive, got 0.0"),
    (lambda d: d.update(lr="-1.0"), "lr: must be nonnegative, got -1.0"),
    (lambda d: d["centers"].update(momentum="-0.5"),
     "centers.momentum: must be nonnegative, got -0.5"),
    (lambda d: d["adam"].pop("steps"), "adam: missing field 'steps'"),
    (lambda d: d["params"].pop("R"), "params: missing field 'R'"),
    (lambda d: d.pop("schedule"), "top level: missing field 'schedule'"),
    (lambda d: d["network"].pop("hidden"), "network: missing field 'hidden'"),
    (lambda d: d.update(adam=[]), "adam: expected a JSON object, got []"),
    # a (6, 4) weight written as (4, 6) reshaped without complaint before
    (lambda d: d["params"].update(W0=_transposed(d["params"]["W0"])),
     "params.W0: expected a 6 x 4 array, to fit the network and mode"),
    (lambda d: d["adam_v"]["b0"][0].pop(), "adam_v.b0: expected a 1 x 6 array"),
    # a framewise mode has no blank column: a center per output column
    (lambda d: d.update(mode="ce"), "centers.values: expected a 3 x 6 array"),
], ids=["steps_string", "halve_after_float", "since_improvement_bool", "seed_string",
        "mode_number", "network_recurrent_string", "float_as_number", "float_null",
        "float_text", "best_nan", "array_number", "beta1_1", "eps_0", "lr_negative",
        "momentum_negative", "missing_steps", "missing_param", "missing_section",
        "missing_network_field",
        "section_array", "transposed_weight", "short_bias", "mode_of_another_network"])
def test_checkpoint_field_that_is_mistyped_missing_or_unfit_is_named(tmp_path, edit, named):
    state, bank, sched = trained_state()
    path = tmp_path / "ckpt.json"
    config.save_checkpoint(path, state, bank, sched, "tmf", 8)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(config.ConfigError, match=re.escape(f"checkpoint {path}: {named}")):
        config.load_checkpoint(path)


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
           "train_loss": 1.0 / 3.0, "val_score": float("nan"),
           "ter_clean": np.float64(0.1) / 3, "ter_seen": 12.25, "ter_unseen": 30.0,
           "acc_clean": 99.9, "acc_seen": 95.0, "acc_unseen": 80.5}
    config.append_metrics(writer, fh, row)
    fh.close()
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(config.METRIC_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[3]) == 1.0 / 3.0
    assert cells[3] == repr(1.0 / 3.0)
    assert cells[4] == "nan"
    assert cells[5] == repr(0.1 / 3) and float(cells[5]) == np.float64(0.1) / 3


def test_metrics_missing_columns_are_blank(tmp_path):
    path = tmp_path / "metrics.csv"
    fh, writer = config.open_metrics(path)
    config.append_metrics(writer, fh, {"eval_index": 0, "batches": 10,
                                       "lr": 1e-4, "train_loss": 2.0,
                                       "val_score": -1.0})
    fh.close()
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[5:] == [""] * 6


def test_readme_minimal_config_loads(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.json"
    path.write_text(text)
    cfg = config.load_config(path)
    assert (cfg.mode, cfg.hidden, cfg.recurrent) == ("ctc", (16,), True)
    # the widths the README derives: 4 -> 16 (recurrent) -> 3 classes + blank
    assert cfg.network == model.NetworkSpec(4, [16], 4, recurrent=True)
