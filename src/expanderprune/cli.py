"""Command-line front end.

Subcommands: analyze | prune | unroll | report | train.  Input matrices
come either as matx text files or RPRM checkpoints (detected by magic).
Relative output paths resolve under $EXP_HOME when it is set.  Every
error exits nonzero with a single machine-parsable line on stderr:

    error: <CODE>: <message>
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .data import load_csv_sequences, load_idx_images, synth_task
from .errors import ConfigError, DegenerateGraphError, DomainError
from .formats import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix_text,
    sanitize_json,
    save_checkpoint,
)
from .graphs import MODES, build_bipartite, spectral_gaps
from .nets import GATES, LSTM, evaluate, init_params
from .pruning import (
    GAP_KINDS,
    LAYERS,
    detect_zero_crossing,
    load_run_trajectory,
    run_imp,
    split_dataset,
    train_dense,
)
from .svgplot import render_trajectory
from .unrolled import UnrolledSpec, closed_form_spectrum, unrolled_gap_report, unrolled_spectrum

# No command calls these any more, but benchmarks/tracing.py patches both
# names in this module, so they stay importable from it.
from .linalg import sym_eigenvalues  # noqa: F401
from .unrolled import build_unrolled  # noqa: F401

_LAYER_FLAGS = {"wxh": ("w_xh",), "whh": ("w_hh",), "all": LAYERS}
_MODE_FLAGS = {"weighted": ("weighted",), "unweighted": ("unweighted",), "both": MODES}


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    root = os.environ.get("EXP_HOME", "")
    return os.path.join(root, path) if root else path


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return path


def _is_checkpoint(path: str) -> bool:
    with open(path, "rb") as f:
        return f.read(4) == CHECKPOINT_MAGIC


def _print_json(obj) -> None:
    print(json.dumps(sanitize_json(obj), indent=2, sort_keys=True))


def _block_reports(weights, mask, modes, label):
    """Each mode's report of one block, or an EDEGENERATE entry in place of
    each report of a block that has no edges.  One mode's graph is built
    at a time, so one copy of the block is alive beside the weights."""
    reports = []
    for mode in modes:
        g = build_bipartite(weights, mask, mode)
        reports.append({"layer": label, "mode": mode, "error": DegenerateGraphError.code}
                       if g.degenerate else {"layer": label, **asdict(spectral_gaps(g))})
    return reports


def _naming_input(command):
    """``command`` with ``args.path`` in front of each refusal that does not name it yet."""
    def run(args) -> int:
        try:
            return command(args)
        except ValueError as exc:
            if str(exc).startswith(f"{args.path}: "):
                raise
            raise type(exc)(f"{args.path}: {exc}") from None
    return run


@_naming_input
def cmd_analyze(args) -> int:
    path = _require_file(args.path)
    modes = _MODE_FLAGS[args.mode]
    reports = []
    if _is_checkpoint(path):
        params, mask = load_checkpoint(path)
        for layer in _LAYER_FLAGS[args.layer]:
            weights, keep = getattr(params, layer), getattr(mask, layer)
            reports += _block_reports(weights, keep, modes, layer)
            if args.per_gate and params.cell_kind == LSTM:
                H = params.hidden_size
                for g_index, gate in enumerate(GATES):
                    rows = slice(g_index * H, (g_index + 1) * H)
                    reports += _block_reports(weights[rows], keep[rows], modes, f"{layer}[{gate}]")
    else:
        reports += _block_reports(load_matrix_text(path), None, modes, "matrix")
    if all("error" in report for report in reports):
        raise DegenerateGraphError("graph has no edges")
    _print_json({"source": path, "reports": reports})
    return 0


def _build_dataset(cfg: ExperimentConfig):
    data = cfg.data
    if data.source == "synth":
        ds = synth_task(data.synth_kind, data.n_samples, data.k, data.input_size,
                        seed=cfg.train.seed)
    elif data.source == "idx":
        ds = load_idx_images(_require_file(data.images_path), _require_file(data.labels_path))
    else:
        ds = load_csv_sequences(_require_file(data.csv_path))
    if data.limit and ds.n > data.limit:
        ds = ds.subset(np.arange(data.limit))
    return ds


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(_require_file(args.config), args.seed)
    if args.out:
        cfg.output_dir = args.out
    if not cfg.output_dir:
        raise ConfigError("experiment.output_dir missing (set it or pass --out)")
    cfg.output_dir = _resolve_out(cfg.output_dir)
    return cfg


def cmd_prune(args) -> int:
    cfg = _load_experiment(args)
    dataset = _build_dataset(cfg)
    trajectory = run_imp(
        cfg.train,
        cfg.schedule,
        dataset,
        cell_kind=cfg.cell_kind,
        hidden_size=cfg.hidden_size,
        out_dir=cfg.output_dir,
        policy=cfg.policy,
        noise=cfg.noise,
    )
    summary = {
        "output_dir": cfg.output_dir,
        "rounds_recorded": len(trajectory.records),
        "dense_accuracy": trajectory.records[0].test_accuracy,
        "final_accuracy": trajectory.records[-1].test_accuracy,
        "final_q": trajectory.records[-1].q,
        "zero_crossings": {
            layer: {
                kind: detect_zero_crossing(trajectory, layer, kind) for kind in GAP_KINDS
            }
            for layer in LAYERS
        },
    }
    _print_json(summary)
    return 0


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    dataset = _build_dataset(cfg)
    train_ds, test_ds = split_dataset(dataset, cfg.train.seed, cfg.noise)
    initial = init_params(dataset.input_size, cfg.hidden_size, dataset.class_count,
                          cfg.cell_kind, seed=cfg.train.seed)
    os.makedirs(cfg.output_dir, exist_ok=True)
    params, mask = train_dense(cfg.train, initial, train_ds)
    ckpt_path = os.path.join(cfg.output_dir, "dense.ckpt")
    save_checkpoint(ckpt_path, params, mask)
    _print_json({
        "checkpoint": ckpt_path,
        "train_accuracy": evaluate(params, mask, train_ds.sequences, train_ds.labels),
        "test_accuracy": evaluate(params, mask, test_ds.sequences, test_ds.labels),
    })
    return 0


@_naming_input
def cmd_unroll(args) -> int:
    path = _require_file(args.path)
    spec = UnrolledSpec(load_matrix_text(path), args.k)
    spectrum = unrolled_spectrum(spec)
    out = {
        "source": path,
        "k": args.k,
        "dimension": spec.dim,
        "spectrum": [float(v) for v in spectrum],
        "reports": [asdict(unrolled_gap_report(spec, mode)) for mode in _MODE_FLAGS[args.mode]],
    }
    if args.closed_form:
        closed = closed_form_spectrum(spec)
        out["closed_form"] = [float(v) for v in closed]
        out["max_deviation"] = float(np.max(np.abs(closed - spectrum)))
    _print_json(out)
    return 0


def cmd_report(args) -> int:
    path = _require_file(args.path)
    trajectory = load_run_trajectory(path)
    if not trajectory.records:
        raise DomainError(f"{path}: trajectory is empty")
    out_svg = _resolve_out(args.out) if args.out else os.path.splitext(path)[0] + ".svg"
    out_csv = render_trajectory(trajectory, out_svg)
    _print_json({"svg": out_svg, "csv": out_csv, "records": len(trajectory.records)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderprune",
        description="Expander-graph diagnostics and iterative magnitude pruning "
                    "for recurrent networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral reports for a matrix or checkpoint")
    p.add_argument("path")
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="both")
    p.add_argument("--layer", choices=sorted(_LAYER_FLAGS), default="all")
    p.add_argument("--per-gate", action="store_true",
                   help="also report each LSTM gate block separately")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prune", help="run (or resume) an iterative magnitude pruning experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default="", help="override the config output directory")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("unroll", help="spectrum and gap report of the time-unrolled layer chain")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True, help="number of unrolling steps")
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="both")
    p.add_argument("--closed-form", action="store_true",
                   help="also compute the symmetric-block closed form")
    p.set_defaults(func=cmd_unroll)

    p = sub.add_parser("report", help="render a trajectory as an SVG figure plus CSV table")
    p.add_argument("path")
    p.add_argument("--out", default="", help="output SVG path (CSV lands alongside)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("train", help="train the dense model and save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: ENOENT: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except OSError as exc:
        code = errno.errorcode.get(exc.errno, "EIO")
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {code}: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        code = getattr(type(exc), "code", "EINVAL")
        message = str(exc).replace("\n", " ")
        print(f"error: {code}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
