"""Run configuration, checkpoint files, and the metrics CSV.

All three formats are JSON or CSV with floats rendered by repr(), so a
parse -> serialize -> parse cycle is bit-exact and two runs with the
same seed produce byte-identical files.

RunConfig is model.TrainSettings plus the run's own settings (hidden
widths, generator, optimizer, center bank, data and files), read by the
dataclasses' own field types: a field typed by a dataclass is read from
a nested object, a list or tuple field from an array.  Each dataclass
checks its own fields (the mode against model.MODES, lam, hidden,
occupancy_mode, the batch and schedule counts, the generator's ranges,
occupancy_threshold), _build rejects a NaN or infinity at any depth,
and every error arrives as a ConfigError that names the field by its
dotted path ("generator: segment_length: ...").
"""

import contextlib
import csv
import dataclasses
import json
import math
import os

import numpy as np

from .losses import CenterBank
from .model import (MODES, TEMPORAL_MODES, ModelState, NetworkSpec, ScheduleState,
                    TrainSettings, output_units)
from .synth import CONDITIONS, GeneratorConfig

METRIC_COLUMNS = (
    "eval_index", "batches", "lr", "train_loss", "val_score",
    "ter_clean", "ter_seen", "ter_unseen",
    "acc_clean", "acc_seen", "acc_unseen",
)


class ConfigError(ValueError):
    """A config file field is missing, mistyped, or inconsistent."""


@dataclasses.dataclass
class RunConfig(TrainSettings):
    """Everything one training run needs, with defaults materialized."""

    hidden: tuple = (32, 16)            # the network's hidden widths
    recurrent: bool = False             # the last hidden layer recurs
    generator: GeneratorConfig = dataclasses.field(default_factory=GeneratorConfig)
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    center_momentum: float = 1e-3
    occupancy_threshold: float = 0.01
    train_conditions: tuple = ("clean", "seen")
    validation_fraction: float = 0.1
    num_train_sequences: int = 1000     # per condition, train files
    num_test_sequences: int = 300       # per condition, test files
    data_dir: str = "data"
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.csv"

    def __post_init__(self):
        try:
            super().__post_init__()
            self.new_bank()             # builds the network, which checks hidden
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for i, cond in enumerate(self.train_conditions):
            # a repeated condition would load its file twice, and the
            # split would put copies of its sequences on both sides
            if cond not in CONDITIONS or cond in self.train_conditions[:i]:
                raise ConfigError("train_conditions: %s condition %r" % (
                    "repeated" if cond in CONDITIONS else "unknown", cond))
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction: must lie strictly in (0, 1)")
        for field in ("learning_rate", "center_momentum"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field}: must be nonnegative")
        for field in ("num_train_sequences", "num_test_sequences"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field}: must be at least 1")

    @property
    def network(self):
        """Not a setting: the generator's features in, the hidden widths,
        and output_units(mode, generator.num_classes) columns out."""
        return NetworkSpec(self.generator.feature_dim, list(self.hidden),
                           output_units(self.mode, self.generator.num_classes),
                           self.recurrent)

    @property
    def temporal(self):
        return self.mode in TEMPORAL_MODES

    def settings(self):
        """The inherited training settings, as a plain TrainSettings."""
        return TrainSettings(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(TrainSettings)})

    def new_state(self):
        return ModelState(self.network, seed=self.seed, lr=self.learning_rate,
                          beta1=self.beta1, beta2=self.beta2, eps=self.epsilon)

    def new_bank(self):
        return CenterBank(self.generator.num_classes, self.network.feature_dim,
                          momentum=self.center_momentum,
                          occupancy_threshold=self.occupancy_threshold)


def _build(cls, data, where=""):
    """cls from its JSON object, by the field types: a dataclass-typed
    field is built from its nested object, and an array becomes the list
    or tuple its field names.  where is the object's dotted path, empty
    at the top level; errors name it."""
    label = where or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    extra = sorted(set(data) - set(types))
    if extra:
        raise ConfigError(f"{label}: unknown field {extra[0]!r}")
    kwargs = {}
    for name, value in data.items():
        if _non_finite(value):      # json reads NaN, Infinity and 1e400
            raise ConfigError(f"{where + ': ' if where else ''}{name}: not a finite number")
        kind = types[name]
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, f"{where}.{name}" if where else name)
        elif kind in (list, tuple) and isinstance(value, list):
            value = kind(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _non_finite(value):
    """Whether a JSON value is, or an array holds, a NaN or an infinity."""
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def config_from_dict(data):
    return _build(RunConfig, data)


def _read_json(path, label):
    """The JSON document in a file.  A file that cannot be read, is not
    UTF-8 or is not JSON raises ConfigError, its message led by label."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:       # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"{label}: invalid JSON: {exc}") from exc


def load_config(path):
    return config_from_dict(_read_json(path, path))


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2)
        fh.write("\n")


def _array_out(arr):
    return [[repr(float(v)) for v in row] for row in np.atleast_2d(arr)]


def _array_in(rows, shape, field):
    arr = np.array([float(v) for row in rows for v in row]).reshape(shape)
    if not np.isfinite(arr).all():      # json reads NaN, Infinity and 1e400
        raise ConfigError(f"{field}: not a finite number")
    return arr


def save_checkpoint(path, state, bank, sched, mode, seed):
    """Write model, centers, optimizer, and schedule state as JSON,
    atomically: through path + ".tmp", then os.replace.  A write that
    fails removes the ".tmp" file and re-raises; an OSError names path,
    not the ".tmp" file."""
    shapes = {k: list(v.shape) for k, v in state.params.items()}
    data = {
        "format": "tmfusion-checkpoint-v1",
        "mode": mode,
        "seed": seed,
        "step_count": state.step_count,
        "lr": repr(float(state.lr)),
        "network": dataclasses.asdict(state.spec),
        "shapes": shapes,
        "params": {k: _array_out(v) for k, v in state.params.items()},
        "adam_m": {k: _array_out(v) for k, v in state.adam_m.items()},
        "adam_v": {k: _array_out(v) for k, v in state.adam_v.items()},
        "adam": {"beta1": repr(float(state.beta1)),
                 "beta2": repr(float(state.beta2)),
                 "eps": repr(float(state.eps)),
                 "steps": state.step_count},
        "centers": {
            "num_classes": bank.num_classes,
            "dim": bank.dim,
            "momentum": repr(float(bank.momentum)),
            "occupancy_threshold": repr(float(bank.occupancy_threshold)),
            "values": _array_out(bank.centers),
        },
        "schedule": {
            "best": None if math.isinf(sched.best) else repr(float(sched.best)),
            "since_improvement": sched.since_improvement,
            "halve_after": sched.halve_after,
            "stop_after": sched.stop_after,
        },
    }
    tmp = os.fspath(path) + ".tmp"      # a killed write leaves path as it was
    try:
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        # a failed write leaves no partial file behind either
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if getattr(exc, "filename", None) == tmp:
            # the error names the file the caller asked for
            exc.filename, exc.filename2 = os.fspath(path), None
        raise


def load_checkpoint(path):
    """Read a checkpoint back; returns (state, bank, sched, meta).

    A file that cannot be read, is not JSON, or lacks or mistypes a
    field, raises ConfigError naming the file, and a non-finite
    parameter, Adam moment, center or learning rate one naming the field
    too.
    """
    data = _read_json(path, f"checkpoint {path}")
    try:
        return _checkpoint_from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:      # ConfigError is a ValueError
        raise ConfigError(f"checkpoint {path}: {exc}") from exc


def _checkpoint_from_dict(data):
    if not isinstance(data, dict) or data.get("format") != "tmfusion-checkpoint-v1":
        raise ConfigError("unrecognized format marker")
    if data["mode"] not in MODES:
        raise ConfigError("mode: expected one of %s, got %r" % (MODES, data["mode"]))
    spec = _build(NetworkSpec, data["network"], "network")
    adam = data["adam"]
    state = ModelState(spec, seed=data["seed"], lr=float(_array_in([[data["lr"]]], (), "lr")),
                       beta1=float(adam["beta1"]), beta2=float(adam["beta2"]),
                       eps=float(adam["eps"]))
    for group, target in (("params", state.params), ("adam_m", state.adam_m),
                          ("adam_v", state.adam_v)):
        for name in state.param_names():
            target[name] = _array_in(data[group][name], tuple(data["shapes"][name]),
                                     f"{group}.{name}")
    state.step_count = adam["steps"]
    cen = data["centers"]
    try:
        bank = CenterBank(cen["num_classes"], cen["dim"],
                          momentum=float(cen["momentum"]),
                          occupancy_threshold=float(cen["occupancy_threshold"]))
    except ValueError as exc:
        raise ConfigError(f"centers.{exc}") from exc
    bank.centers = _array_in(cen["values"], (cen["num_classes"], cen["dim"]),
                             "centers.values")
    sch = data["schedule"]         # an eval_interval key of older files is ignored
    sched = ScheduleState(
        halve_after=sch["halve_after"], stop_after=sch["stop_after"],
        best=float("-inf") if sch["best"] is None else float(sch["best"]),
        since_improvement=sch["since_improvement"])
    meta = {"mode": data["mode"], "seed": data["seed"],
            "step_count": data["step_count"]}
    return state, bank, sched, meta


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def open_metrics(path):
    """Create the metrics CSV with its fixed header; append-only handle."""
    fh = open(path, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(METRIC_COLUMNS)
    fh.flush()
    return fh, writer


def append_metrics(writer, fh, row):
    writer.writerow([_fmt(row.get(col)) for col in METRIC_COLUMNS])
    fh.flush()
