"""Run configuration, checkpoint files, and the metrics CSV.

All three formats are JSON or CSV with floats rendered by repr(), so a
parse -> serialize -> parse cycle is bit-exact and two runs with the
same seed produce byte-identical files.

One typed reader reads both JSON files: _typed checks each value
against its field's declared type (a bool takes only true or false, an
int an integer that is not a bool, a float any finite number, a str a
string, an array its elements one by one), and every error is a
ConfigError that names the field by its dotted path ("generator:
segment_length: ...", "adam.steps: ...").  RunConfig is
model.TrainSettings plus the run's own settings (hidden widths,
generator, optimizer, center bank, data and files), which _build reads
by the annotations of its fields.  Ranges are checked where the objects
are built: each dataclass checks its own fields, ModelState the seed,
the learning rate and Adam's betas and epsilon, CenterBank the center
momentum and occupancy threshold.  The config and the checkpoint build
the same objects, so they share those rules.  A checkpoint states its
model once: every array's shape comes from ModelState(network), and
the center bank's size from the network and the mode.
"""

import contextlib
import csv
import dataclasses
import json
import math
import os
import types
import typing

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

    hidden: tuple[int, ...] = (32, 16)  # the network's hidden widths
    recurrent: bool = False             # the last hidden layer recurs
    generator: GeneratorConfig = dataclasses.field(default_factory=GeneratorConfig)
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    center_momentum: float = 1e-3
    occupancy_threshold: float = 0.01
    train_conditions: tuple[str, ...] = ("clean", "seen")
    validation_fraction: float = 0.1
    num_train_sequences: int = 1000     # per condition, train files
    num_test_sequences: int = 300       # per condition, test files
    data_dir: str = "data"
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.csv"

    def __post_init__(self):
        # the network checks hidden, the state the optimizer settings and
        # the bank its own, each under its own parameter name
        with _renamed({"lr": "learning_rate", "eps": "epsilon", "momentum": "center_momentum"}):
            super().__post_init__()
            self.new_state(), self.new_bank()
        for i, cond in enumerate(self.train_conditions):
            # a repeated condition would load its file twice, and the
            # split would put copies of its sequences on both sides
            if cond not in CONDITIONS or cond in self.train_conditions[:i]:
                raise ConfigError("train_conditions: %s condition %r" % (
                    "repeated" if cond in CONDITIONS else "unknown", cond))
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction: must lie strictly in (0, 1)")
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
    """cls from its JSON object, each value checked by _typed against its
    field's annotation, and a dataclass-typed field built from its nested
    object.  where is the object's dotted path, empty at the top level;
    errors name it."""
    label = where or "top level"
    fields = {f.name: f for f in dataclasses.fields(cls)}
    extra = sorted(set(_typed(dict, data, label)) - set(fields))
    if extra:
        raise ConfigError(f"{label}: unknown field {extra[0]!r}")
    missing = [name for name, f in fields.items() if name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{label}: missing field {missing[0]!r}")
    kwargs = {}
    for name, value in data.items():
        kind = fields[name].type
        if dataclasses.is_dataclass(kind):
            kwargs[name] = _build(kind, value, f"{where}.{name}" if where else name)
        else:
            kwargs[name] = _typed(kind, value, f"{where}: {name}" if where else name,
                                  nullable=fields[name].default is None)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:      # RunConfig names its fields itself
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


# each annotation's JSON type, and its name in an error
_EXPECTED = {bool: (bool, "true or false"), int: (int, "an integer"),
             float: ((int, float), "a number"), str: (str, "a string"),
             dict: (dict, "a JSON object"), list: (list, "an array"), tuple: (list, "an array")}


def _typed(kind, value, field, nullable=False):
    """value, read from JSON for field, checked against the field's
    annotation kind: a bool takes only true or false, an int an integer
    that is not a bool, a float any finite number, read as a float, a str
    a string, a dict an object, and list[t], tuple[t, ...] or tuple[t1,
    t2] an array whose elements are checked against t, and that the list
    or tuple becomes.  A function kind reads the value itself.  null
    passes where nullable; errors name field."""
    if kind is float and type(value) is int:    # so 1 and 1.0 write the same file
        try:
            value = float(value)
        except OverflowError:                   # an integer past the float range
            raise ConfigError(f"{field}: not a finite number") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{field}: not a finite number")     # json reads NaN and 1e400
    if type(value) is kind or (value is None and nullable):
        return value
    if isinstance(kind, types.FunctionType):
        return kind(value, field)
    origin, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    json_type, expected = _EXPECTED[origin]
    if not isinstance(value, json_type) or (isinstance(value, bool) and origin is not bool):
        raise ConfigError(f"{field}: expected {expected}, got {json.dumps(value)}")
    if origin in (list, tuple):
        if origin is list or args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        if len(args) != len(value):
            raise ConfigError(f"{field}: expected {len(args)} elements, got {len(value)}")
        return origin(_typed(t, v, field) for t, v in zip(args, value))
    return value


@contextlib.contextmanager
def _renamed(fields):
    """Raise a ValueError of the block as a ConfigError, the parameter
    name that leads its message replaced by fields[name], the field the
    value was read from."""
    try:
        yield
    except ValueError as exc:
        name, sep, rest = str(exc).partition(": ")
        raise ConfigError(fields.get(name, name) + sep + rest) from exc


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


# the checkpoint's per-parameter arrays, and its schedule's counts
ARRAY_GROUPS = ("params", "adam_m", "adam_v")
SCHEDULE_COUNTS = ("since_improvement", "halve_after", "stop_after")


def _array_out(arr):
    return [[repr(float(v)) for v in row] for row in np.atleast_2d(arr)]


def save_checkpoint(path, state, bank, sched, mode, seed):
    """Write model, centers, optimizer, and schedule state as JSON,
    atomically: through path + ".tmp", then os.replace.  A write that
    fails removes the ".tmp" file and re-raises; an OSError names path,
    not the ".tmp" file.  The arrays' shapes and the center bank's size
    are not written: they follow from the network and the mode."""
    data = {
        "format": "tmfusion-checkpoint-v1",
        "mode": mode,
        "seed": seed,
        "lr": repr(float(state.lr)),
        "network": dataclasses.asdict(state.spec),
        **{group: {k: _array_out(v) for k, v in getattr(state, group).items()}
           for group in ARRAY_GROUPS},
        "adam": {"beta1": repr(float(state.beta1)),
                 "beta2": repr(float(state.beta2)),
                 "eps": repr(float(state.eps)),
                 "steps": state.step_count},
        "centers": {"momentum": repr(float(bank.momentum)),
                    "occupancy_threshold": repr(float(bank.occupancy_threshold)),
                    "values": _array_out(bank.centers)},
        "schedule": {"best": None if math.isinf(sched.best) else repr(float(sched.best)),
                     **{k: getattr(sched, k) for k in SCHEDULE_COUNTS}},
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

    A file that cannot be read or is not JSON, a field that is missing,
    mistyped or out of range, a non-finite float, or an array that does
    not fit the network and mode, raises ConfigError naming the file and
    the field.
    """
    data = _read_json(path, f"checkpoint {path}")
    try:
        return _checkpoint_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc


def _read(data, path, kind, nullable=False):
    """The value at a dotted path of a checkpoint, checked by _typed; a
    missing key names the section that lacks it."""
    keys = path.split(".")
    for i, key in enumerate(keys):
        where = ".".join(keys[:i]) or "top level"
        if key not in _typed(dict, data, where):
            raise ConfigError(f"{where}: missing field {key!r}")
        data = data[key]
    return _typed(kind, data, path, nullable)


def _real(text, field):
    """A checkpoint float: the repr string save_checkpoint wrote, read
    back as a finite float."""
    text = _typed(str, text, field)
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    return _typed(float, value, field)      # float() reads "nan" and "1e400"


def _array_in(data, path, like):
    """The array at path, in the rows of repr strings _array_out wrote,
    with the shape of like, the array it replaces."""
    rows = _read(data, path, list[list[_real]])
    n, m = np.atleast_2d(like).shape
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ConfigError(f"{path}: expected a {n} x {m} array, to fit the network and mode")
    return np.array(rows).reshape(like.shape)


def _checkpoint_from_dict(data):
    if not isinstance(data, dict) or data.get("format") != "tmfusion-checkpoint-v1":
        raise ConfigError("unrecognized format marker")
    # older v1 files also hold shapes, centers.num_classes, centers.dim,
    # step_count and schedule.eval_interval; they follow from the rest
    mode = _read(data, "mode", str)
    if mode not in MODES:
        raise ConfigError("mode: expected one of %s, got %r" % (MODES, mode))
    spec = _build(NetworkSpec, _read(data, "network", dict), "network")
    seed = _read(data, "seed", int)
    # the objects' float arguments by the paths they are read from: each
    # object checks its ranges, and a range error names the path
    paths = {"lr": "lr", "beta1": "adam.beta1", "beta2": "adam.beta2", "eps": "adam.eps",
             "momentum": "centers.momentum", "occupancy_threshold": "centers.occupancy_threshold"}
    lr, beta1, beta2, eps, momentum, threshold = (_read(data, p, _real) for p in paths.values())
    with _renamed(paths):
        state = ModelState(spec, seed, lr, beta1, beta2, eps)
        # one center per output column but the blank
        bank = CenterBank(spec.num_classes - output_units(mode, 0), spec.feature_dim, momentum,
                          threshold)
    for group in ARRAY_GROUPS:
        arrays = getattr(state, group)
        for name in state.param_names():
            arrays[name][...] = _array_in(data, f"{group}.{name}", arrays[name])
    state.step_count = _read(data, "adam.steps", int)
    bank.centers = _array_in(data, "centers.values", bank.centers)
    best = _read(data, "schedule.best", _real, nullable=True)
    sched = ScheduleState(best=-np.inf if best is None else best,
                          **{k: _read(data, f"schedule.{k}", int) for k in SCHEDULE_COUNTS})
    return state, bank, sched, {"mode": mode, "seed": seed, "step_count": state.step_count}


def open_metrics(path):
    """Create the metrics CSV with its fixed header; append-only handle."""
    fh = open(path, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(METRIC_COLUMNS)
    fh.flush()
    return fh, writer


def append_metrics(writer, fh, row):
    writer.writerow([row.get(col) for col in METRIC_COLUMNS])
    fh.flush()
