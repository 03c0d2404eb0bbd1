import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expanderprune.config import load_config, parse_config
from expanderprune.errors import ConfigError

MINIMAL = """
[experiment]
cell_kind = lstm
hidden_size = 32
seed = 7
output_dir = runs/demo

[data]
source = synth
synth_kind = running-parity
n_samples = 4000
k = 16
input_size = 4

[train]
learning_rate = 0.003
train_epochs = 60
batch_size = 25

[prune]
rounds = 20
final_fraction = 0.01
finetune_epochs = 2

[monitor]
policy = w_hh:weighted_delta_s
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.cell_kind == "lstm"
    assert cfg.hidden_size == 32
    assert cfg.train.learning_rate == 0.003
    assert cfg.train.batch_size == 25
    assert cfg.train.seed == 7
    assert cfg.schedule.rounds == 20
    assert cfg.schedule.final_fraction == 0.01
    assert cfg.policy == (("w_hh", "weighted_delta_s"),)
    assert cfg.noise is None


def test_defaults_fill_in():
    cfg = parse_config("[experiment]\ncell_kind = rnn\n\n[data]\nsource = synth\n")
    assert cfg.hidden_size == 128
    assert cfg.train.learning_rate == 0.001
    assert cfg.train.batch_size == 100
    assert cfg.schedule.rounds == 20
    assert cfg.schedule.finetune_epochs == 2
    assert cfg.policy == ()


def test_noise_section_optional():
    cfg = parse_config(MINIMAL + "\n[noise]\np = 0.2\nsigma = 0.45\napply_to = train\n")
    assert cfg.noise is not None
    assert cfg.noise.p == 0.2
    assert cfg.noise.sigma == 0.45
    assert cfg.noise.apply_to == "train"


def test_validation_lists_every_violation():
    bad = """
[experiment]
cell_kind = gru
hidden_size = 0

[data]
source = nowhere

[train]
learning_rate = -1

[prune]
rounds = 0

[monitor]
policy = w_hy:weighted_delta_s
"""
    with pytest.raises(ConfigError) as exc_info:
        parse_config(bad)
    message = str(exc_info.value)
    for fragment in (
        "experiment.cell_kind",
        "experiment.hidden_size",
        "data.source",
        "train.learning_rate",
        "prune.rounds",
        "monitor.policy",
    ):
        assert fragment in message


def test_idx_source_requires_existing_paths(tmp_path):
    text = f"""
[experiment]
cell_kind = rnn

[data]
source = idx
images_path = {tmp_path}/missing-images
labels_path = {tmp_path}/missing-labels
"""
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert "images_path" in str(exc_info.value)
    assert "labels_path" in str(exc_info.value)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL)
    cfg = load_config(path)
    assert cfg.cell_kind == "lstm"


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = parse_config(block)
    assert (cfg.cell_kind, cfg.hidden_size, cfg.train.seed) == ("lstm", 32, 7)
    assert cfg.data.source == "synth"
    noise = cfg.noise
    assert (noise.p, noise.sigma, noise.seed, noise.apply_to) == (0.2, 0.3, 7, "both")
    assert cfg.schedule.rewind_to_init is False
    assert cfg.policy == ()


def test_seed_override_moves_every_derived_seed():
    cfg = parse_config(MINIMAL + "\n[noise]\np = 0.2\n", seed=99)
    assert (cfg.train.seed, cfg.noise.seed) == (99, 99)
    cfg = parse_config(MINIMAL + "\n[noise]\nseed = 5\n", seed=99)
    assert (cfg.train.seed, cfg.noise.seed) == (99, 5)


def test_conversion_and_noise_target_errors_name_their_field():
    text = (MINIMAL.replace("batch_size = 25", "batch_size = 25\nbeta1 = fast")
            .replace("finetune_epochs = 2", "finetune_epochs = 2\nrewind_to_init = maybe")
            + "\n[noise]\napply_to = sideways\n")
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    message = str(exc_info.value)
    assert "train.beta1: could not convert string to float: 'fast'" in message
    assert "prune.rewind_to_init: not a boolean: 'maybe'" in message
    assert "noise.apply_to: 'sideways' not in ('both', 'train', 'test')" in message


# An invalid value for each key that a section's dataclass (or the INI
# conversion) checks.  An unknown source leaves the synth fields unread, so
# they are not drawn with it; final_fraction is checked against
# start_fraction, so its values are invalid against any start_fraction here.
INVALID = {
    "experiment.cell_kind": ["gru", ""],
    "experiment.hidden_size": ["0", "-3", "x"],
    "experiment.seed": ["-1", "1.5"],
    "data.source": ["nowhere"],
    "data.synth_kind": ["spiral"],
    "data.n_samples": ["0"],
    "data.k": ["-1"],
    "data.input_size": ["0"],
    "data.limit": ["-1"],
    "noise.p": ["1.5", "-0.1", "nan"],
    "noise.sigma": ["-1", "nan", "inf"],
    "noise.seed": ["-2"],
    "noise.apply_to": ["sideways"],
    "train.learning_rate": ["0", "nan", "inf"],
    "train.train_epochs": ["0"],
    "train.batch_size": ["-1"],
    "train.beta1": ["1", "-0.5"],
    "train.beta2": ["nan"],
    "train.adam_eps": ["0"],
    "train.clip_norm": ["nan"],
    "prune.rounds": ["0"],
    "prune.start_fraction": ["1.5", "inf"],
    "prune.final_fraction": ["0", "-0.5", "nan"],
    "prune.finetune_epochs": ["-1"],
    "prune.rewind_to_init": ["maybe"],
}
SYNTH_KEYS = {"data.synth_kind", "data.n_samples", "data.k", "data.input_size"}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data(), st.sets(st.sampled_from(sorted(INVALID)), min_size=1), st.booleans())
def test_every_violation_is_listed_once_under_its_own_key(data, keys, with_noise):
    if "data.source" in keys:
        keys -= SYNTH_KEYS
    sections = {"noise": ""} if with_noise else {}
    for key in sorted(keys):
        section, name = key.split(".")
        value = data.draw(st.sampled_from(INVALID[key]))
        sections[section] = sections.get(section, "") + f"{name} = {value}\n"
    text = "".join(f"[{section}]\n{body}" for section, body in sections.items())
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    listed = [violation.split(": ", 1)[0] for violation in str(exc_info.value).split("; ")]
    assert sorted(listed) == sorted(keys)
