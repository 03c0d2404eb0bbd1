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
ExperimentConfig, DataConfig, NoiseSpec, TrainConfig and PruneSchedule
own [experiment], [data], [noise], [train] and [prune], and each lists
every violated field of its own in __post_init__; pruning.check_policy
owns [monitor] policy.  parse_config keeps only the INI mechanics, and
reports each violation once as ``section.key: reason``; a refused seed
derived from [experiment] seed is ``experiment.seed``.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace

from .data import NoiseSpec, SYNTH_KINDS
from .errors import ConfigError, DomainError, check_fields
from .nets import CELL_KINDS, TrainConfig
from .pruning import PruneSchedule, check_policy

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

    def __post_init__(self):
        synth = self.source == "synth"
        checks = [("source", self.source in _DATA_SOURCES,
                   f"{self.source!r} not in {_DATA_SOURCES}"),
                  ("synth_kind", not synth or self.synth_kind in SYNTH_KINDS,
                   f"{self.synth_kind!r} not in {SYNTH_KINDS}")]
        checks += [(name, not synth or getattr(self, name) >= 1, "must be >= 1")
                   for name in ("n_samples", "k", "input_size")]
        paths = {"idx": ("images_path", "labels_path"), "csv": ("csv_path",)}
        for name in paths.get(self.source, ()):
            path = getattr(self, name)
            reason = f"no such file: {path}" if path else f"required for source={self.source}"
            checks.append((name, os.path.exists(path), reason))
        checks.append(("limit", self.limit >= 0, "must be >= 0"))
        check_fields(checks)


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

    def __post_init__(self):
        check_fields([
            ("cell_kind", self.cell_kind in CELL_KINDS, f"{self.cell_kind!r} not in {CELL_KINDS}"),
            ("hidden_size", self.hidden_size >= 1, "must be >= 1"),
        ])


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


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

    def build(section, cls, **derived):
        """``cls`` from the section's values over ``derived`` ones; None once refused."""
        given = values[section]
        try:
            return cls(**{**derived, **given})
        except DomainError as exc:
            for name, reason in exc.fields:
                owner = "experiment" if name in derived.keys() - given.keys() else section
                errors.append(f"{owner}.{name}: {reason}")

    file_seed = values["experiment"].pop("seed", TrainConfig.seed)
    seed = file_seed if seed is None else seed
    cfg = build("experiment", ExperimentConfig)
    parts = {"data": build("data", DataConfig),
             "noise": build("noise", NoiseSpec, seed=seed) if "noise" in parser else None,
             "train": build("train", TrainConfig, seed=seed),
             "schedule": build("prune", PruneSchedule),
             "policy": build("monitor", check_policy)}

    if errors:  # a refused seed is logged by [noise] and [train] alike; list it once
        raise ConfigError("; ".join(dict.fromkeys(errors)))
    return replace(cfg, **parts)


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return parse_config(raw.decode("utf-8"), seed)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
