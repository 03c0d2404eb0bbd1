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
fields.  Validation collects every violated field before failing.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .data import NoiseSpec, SYNTH_KINDS
from .errors import ConfigError
from .nets import CELL_KINDS, TrainConfig
from .pruning import GAP_KINDS, LAYERS, PruneSchedule

_DATA_SOURCES = ("synth", "idx", "csv")
_NOISE_TARGETS = ("both", "train", "test")


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
    seed: int = 0
    output_dir: str = ""
    data: DataConfig = field(default_factory=DataConfig)
    noise: NoiseSpec | None = None
    noise_apply_to: str = "both"
    train: TrainConfig = field(default_factory=TrainConfig)
    schedule: PruneSchedule = field(default_factory=PruneSchedule)
    policy: tuple[tuple[str, str], ...] = ()


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc).replace("\n", " ")) from None

    errors: list[str] = []

    def get(section, option, default, convert):
        if not parser.has_option(section, option):
            return default
        raw = parser.get(section, option)
        try:
            return convert(raw)
        except ValueError as exc:
            errors.append(f"{section}.{option}: {exc}")
            return default

    def boolean(raw: str) -> bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")

    cfg = ExperimentConfig()
    cfg.cell_kind = get("experiment", "cell_kind", cfg.cell_kind, str).strip()
    cfg.hidden_size = get("experiment", "hidden_size", cfg.hidden_size, int)
    cfg.seed = get("experiment", "seed", cfg.seed, int)
    cfg.output_dir = get("experiment", "output_dir", cfg.output_dir, str).strip()

    data = cfg.data
    data.source = get("data", "source", data.source, str).strip()
    data.synth_kind = get("data", "synth_kind", data.synth_kind, str).strip()
    data.n_samples = get("data", "n_samples", data.n_samples, int)
    data.k = get("data", "k", data.k, int)
    data.input_size = get("data", "input_size", data.input_size, int)
    data.images_path = get("data", "images_path", data.images_path, str).strip()
    data.labels_path = get("data", "labels_path", data.labels_path, str).strip()
    data.csv_path = get("data", "csv_path", data.csv_path, str).strip()
    data.limit = get("data", "limit", data.limit, int)

    if parser.has_section("noise"):
        p = get("noise", "p", 0.20, float)
        sigma = get("noise", "sigma", 0.30, float)
        noise_seed = get("noise", "seed", cfg.seed, int)
        cfg.noise_apply_to = get("noise", "apply_to", cfg.noise_apply_to, str).strip()
        try:
            cfg.noise = NoiseSpec(p=p, sigma=sigma, seed=noise_seed)
        except ValueError as exc:
            errors.append(f"noise: {exc}")

    train_kwargs = dict(
        learning_rate=get("train", "learning_rate", 0.001, float),
        train_epochs=get("train", "train_epochs", 20, int),
        batch_size=get("train", "batch_size", 100, int),
        beta1=get("train", "beta1", 0.9, float),
        beta2=get("train", "beta2", 0.999, float),
        adam_eps=get("train", "adam_eps", 1e-8, float),
        clip_norm=get("train", "clip_norm", 5.0, float),
        seed=cfg.seed,
    )
    schedule_kwargs = dict(
        rounds=get("prune", "rounds", 20, int),
        start_fraction=get("prune", "start_fraction", 1.0, float),
        final_fraction=get("prune", "final_fraction", 0.01, float),
        finetune_epochs=get("prune", "finetune_epochs", 2, int),
        rewind_to_init=get("prune", "rewind_to_init", False, boolean),
    )
    policy_text = get("monitor", "policy", "", str)

    # structural validation, collecting every problem
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
    if cfg.noise is not None and cfg.noise_apply_to not in _NOISE_TARGETS:
        errors.append(f"noise.apply_to: {cfg.noise_apply_to!r} not in {_NOISE_TARGETS}")
    try:
        cfg.train = TrainConfig(**train_kwargs)
    except ValueError as exc:
        errors.append(f"train: {exc}")
    try:
        cfg.schedule = PruneSchedule(**schedule_kwargs)
    except ValueError as exc:
        errors.append(f"prune: {exc}")
    try:
        cfg.policy = _parse_policy(policy_text)
        for layer, kind in cfg.policy:
            if layer not in LAYERS:
                errors.append(f"monitor.policy: unknown layer {layer!r}")
            if kind not in GAP_KINDS:
                errors.append(f"monitor.policy: unknown gap kind {kind!r}")
    except ValueError as exc:
        errors.append(f"monitor.policy: {exc}")

    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())
