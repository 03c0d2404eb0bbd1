"""Experiment configuration: a flat key=value file with sections.

The format is INI as read by configparser; every knob of an experiment
lives here so a run is reproducible from the file plus nothing else.
Example:

    [experiment]
    cell_kind = lstm
    hidden_size = 32
    seed = 7
    output_dir = runs/parity

    [data]
    source = synth
    synth_kind = running-parity
    n_samples = 4000
    k = 16
    input_size = 4

    [train]
    learning_rate = 0.003
    train_epochs = 20
    batch_size = 25

    [prune]
    rounds = 20
    final_fraction = 0.01
    finetune_epochs = 2

    [monitor]
    policy =

Optional sections: [noise] (p, sigma, seed, apply_to) and, under [data],
either idx paths (images_path, labels_path), a csv_path, or the synth
fields.  A ';' after whitespace starts an inline comment.

Every key is a field of the dataclass that owns its section, converted
by the field's annotated type; an absent key keeps the dataclass default,
an unknown section or key is an error, and '%' is literal.  [experiment]
seed is TrainConfig.seed; the synthetic data and an unset [noise] seed
derive from it, after any override passed to parse_config/load_config.
Validation collects every violated field before failing.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

from .data import NoiseSpec, SYNTH_KINDS
from .errors import ConfigError
from .nets import CELL_KINDS, TrainConfig
from .pruning import GAP_KINDS, LAYERS, PruneSchedule

_DATA_SOURCES = ("synth", "idx", "csv")


@dataclass
class DataConfig:
    source: str = "synth"
    synth_kind: str = "running-parity"
    n_samples: int = 4000
    k: int = 16
    input_size: int = 4
    images_path: str = ""
    labels_path: str = ""
    csv_path: str = ""
    limit: int = 0  # optional cap on dataset size; 0 = no cap


@dataclass
class ExperimentConfig:
    cell_kind: str = "rnn"
    hidden_size: int = 128
    output_dir: str = ""
    data: DataConfig = field(default_factory=DataConfig)
    noise: NoiseSpec | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    schedule: PruneSchedule = field(default_factory=PruneSchedule)
    policy: tuple[tuple[str, str], ...] = ()


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Converters by annotated type name (every module here postpones annotations).
_CONVERTERS = {"int": int, "float": float, "str": str, "bool": _boolean}


def _parse_policy(text: str):
    """Comma list of layer:gap_kind pairs, e.g. 'w_hh:weighted_delta_s'."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"policy entry {chunk!r} is not layer:gap_kind")
        layer, kind = (part.strip() for part in chunk.split(":", 1))
        pairs.append((layer, kind))
    return tuple(pairs)


def parse_config(text: str, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation.

    ``seed``, when given, replaces [experiment] seed.
    """
    # No section can be named "", so [DEFAULT] is an ordinary (unknown) section.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc).replace("\n", " ")) from None

    def scalars(cls) -> dict:
        return {f.name: _CONVERTERS[f.type] for f in fields(cls) if f.type in _CONVERTERS}

    # Every key a section may hold, with its converter; TrainConfig.seed
    # is [experiment] seed, so [train] has no seed key.
    train = scalars(TrainConfig)
    known = {"experiment": {**scalars(ExperimentConfig), "seed": train.pop("seed")},
             "data": scalars(DataConfig), "noise": scalars(NoiseSpec), "train": train,
             "prune": scalars(PruneSchedule), "monitor": {"policy": _parse_policy}}
    errors: list[str] = []
    values = {section: {} for section in known}
    for section in parser.sections():
        if section not in known:
            errors.append(f"{section}: unknown section")
            continue
        for key, raw in parser.items(section):
            if key not in known[section]:
                errors.append(f"{section}.{key}: unknown key")
                continue
            try:
                values[section][key] = known[section][key](raw)
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")

    def build(section, cls, **defaults):
        """``cls`` from the section's values over ``defaults``; None once a refusal is logged."""
        try:
            return cls(**{**defaults, **values[section]})
        except ValueError as exc:
            errors.append(f"{section}: {exc}")

    experiment = values["experiment"]
    file_seed = experiment.pop("seed", TrainConfig.seed)
    seed = file_seed if seed is None else seed
    cfg = ExperimentConfig(**experiment, data=DataConfig(**values["data"]))
    if parser.has_section("noise"):
        cfg.noise = build("noise", NoiseSpec, seed=seed)
    cfg.train = build("train", TrainConfig, seed=seed)
    cfg.schedule = build("prune", PruneSchedule)
    cfg.policy = values["monitor"].get("policy", ())

    # structural validation, collecting every problem
    data = cfg.data
    if cfg.cell_kind not in CELL_KINDS:
        errors.append(f"experiment.cell_kind: {cfg.cell_kind!r} not in {CELL_KINDS}")
    if cfg.hidden_size < 1:
        errors.append("experiment.hidden_size: must be >= 1")
    if data.source not in _DATA_SOURCES:
        errors.append(f"data.source: {data.source!r} not in {_DATA_SOURCES}")
    if data.source == "synth":
        if data.synth_kind not in SYNTH_KINDS:
            errors.append(f"data.synth_kind: {data.synth_kind!r} not in {SYNTH_KINDS}")
        for name in ("n_samples", "k", "input_size"):
            if getattr(data, name) < 1:
                errors.append(f"data.{name}: must be >= 1")
    if data.source == "idx":
        for name in ("images_path", "labels_path"):
            if not getattr(data, name):
                errors.append(f"data.{name}: required for source=idx")
            elif not os.path.exists(getattr(data, name)):
                errors.append(f"data.{name}: no such file: {getattr(data, name)}")
    if data.source == "csv":
        if not data.csv_path:
            errors.append("data.csv_path: required for source=csv")
        elif not os.path.exists(data.csv_path):
            errors.append(f"data.csv_path: no such file: {data.csv_path}")
    if data.limit < 0:
        errors.append("data.limit: must be >= 0")
    for layer, kind in cfg.policy:
        if layer not in LAYERS:
            errors.append(f"monitor.policy: unknown layer {layer!r}")
        if kind not in GAP_KINDS:
            errors.append(f"monitor.policy: unknown gap kind {kind!r}")

    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return parse_config(raw.decode("utf-8"), seed)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
