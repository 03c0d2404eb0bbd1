"""Command-line front end.

Subcommands: analyze | prune | unroll | report | train.  Input matrices
come either as matx text files or RPRM checkpoints (detected by magic),
and analyze and unroll read both through one block walker, which checks
each matrix it reads.  analyze reports each LSTM gate block on a copy,
then builds the layer's graph in the weights it read, which its report
uses up; with both modes it keeps the layer's support aside for the
unweighted graph.  unroll takes a checkpoint's time-step blocks:
the RNN's W_hh, or each LSTM gate block of W_hh, with its mask applied in
place, and refuses a block before its first SVD.  Neither writes to the
file it read.  Relative output paths resolve under $EXP_HOME when it is
set.  Every error, a usage error, out-of-memory and an interrupt
included, exits nonzero with a single machine-parsable line on stderr:

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
from .errors import ConfigError, DegenerateGraphError, DomainError, UsageError
from .formats import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix_text,
    sanitize_json,
    save_checkpoint,
)
from .graphs import MODES, UNWEIGHTED, build_bipartite, build_bipartite_in_place, spectral_gaps
from .linalg import as_dense_matrix
from .nets import GATES, LSTM, evaluate
from .pruning import (
    GAP_KINDS,
    LAYERS,
    detect_zero_crossing,
    load_run_trajectory,
    run_imp,
    start_run,
    train_dense,
)
from .svgplot import render_trajectory, table_path
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


def _print_json(obj) -> None:
    print(json.dumps(sanitize_json(obj), indent=2, sort_keys=True))


def _entry(fields, report) -> dict:
    """A block's ``fields`` with the dict ``report()`` returns, or with an
    EDEGENERATE error in its place when the block has no edges."""
    try:
        return {**fields, **report()}
    except DegenerateGraphError as exc:
        return {**fields, "error": exc.code}


def _naming_input(command):
    """``command`` with ``args.path`` in front of each refusal that does not name it yet."""
    def run(args) -> int:
        try:
            return command(args)
        except (ValueError, ArithmeticError) as exc:
            if str(exc).startswith(f"{args.path}: "):
                raise
            raise type(exc)(f"{args.path}: {exc}") from None
    return run


def _blocks(path, layers, per_gate):
    """Each (label, weights, keep, gates) layer at ``path``: a matx file's one matrix (keep
    None), or each of ``layers`` of an RPRM checkpoint, where ``gates`` lists the (label,
    weights, keep) views of its LSTM gates if ``per_gate``.
    A file whose first bytes are ``RPRM`` or a prefix of it (a checkpoint torn inside its
    magic, the empty file too) is a checkpoint; any other is matx text.
    Each matrix passes as_dense_matrix as it is read, so a bad layer refuses before any SVD."""
    with open(path, "rb") as f:
        if not CHECKPOINT_MAGIC.startswith(f.read(len(CHECKPOINT_MAGIC))):
            return [("matrix", as_dense_matrix(load_matrix_text(path)), None, [])]
    params, mask = load_checkpoint(path)
    H = params.hidden_size
    gates = enumerate(GATES) if per_gate and params.cell_kind == LSTM else ()
    rows = [(f"[{gate}]", slice(g * H, (g + 1) * H)) for g, gate in gates]
    weights = {layer: as_dense_matrix(getattr(params, layer)) for layer in layers}
    return [(layer, weights[layer], getattr(mask, layer),
             [(layer + suffix, weights[layer][r], getattr(mask, layer)[r]) for suffix, r in rows])
            for layer in layers]


def _print_reported(out, entries) -> int:
    """Print ``out``, or refuse it when each of its ``entries`` is an EDEGENERATE one."""
    if all("error" in entry for entry in entries):
        raise DegenerateGraphError("graph has no edges")
    _print_json(out)
    return 0


@_naming_input
def cmd_analyze(args) -> int:
    # A report uses its graph up, so no copy of a layer sits beside the weights _blocks
    # read: each gate block, a view of its layer, is reported on a copy first, and the
    # layer last, in its weights.  The weighted report (MODES puts it first) leaves them
    # divided by their degrees, where an entry can underflow to 0, so with both modes
    # the layer's support is kept aside, one byte an entry, for the unweighted graph.
    modes = _MODE_FLAGS[args.mode]
    reports = []
    for label, weights, keep, gates in _blocks(args.path, _LAYER_FLAGS[args.layer],
                                               args.per_gate):
        by_gate = [_entry({"layer": gate, "mode": mode},
                          lambda: asdict(spectral_gaps(build_bipartite(view, kept, mode))))
                   for gate, view, kept in gates for mode in modes]
        support = weights != 0 if len(modes) > 1 else None
        for mode in modes:
            if mode == UNWEIGHTED and support is not None:
                np.copyto(weights, support)
            reports.append(_entry({"layer": label, "mode": mode}, lambda: asdict(
                spectral_gaps(build_bipartite_in_place(weights, keep, mode)))))
        reports += by_gate  # printed block by block
    return _print_reported({"source": args.path, "reports": reports}, reports)


def _build_dataset(cfg: ExperimentConfig):
    """The config's dataset.  Callers pass it on without keeping a name
    for it, so once run_imp or start_run has split it, the split is the
    only copy left (on CPython >= 3.11; see run_imp)."""
    data = cfg.data
    if data.source == "synth":
        ds = synth_task(data.synth_kind, data.n_samples, data.k, data.input_size,
                        seed=cfg.train.seed)
    elif data.source == "idx":
        ds = load_idx_images(data.images_path, data.labels_path)
    else:
        ds = load_csv_sequences(data.csv_path)
    if data.limit and ds.n > data.limit:
        ds = ds.subset(np.arange(data.limit))
    return ds


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.seed)
    if args.out:
        cfg.output_dir = args.out
    if not cfg.output_dir:
        raise ConfigError("experiment.output_dir: missing (set it or pass --out)")
    cfg.output_dir = _resolve_out(cfg.output_dir)
    return cfg


def cmd_prune(args) -> int:
    cfg = _load_experiment(args)
    records = run_imp(
        cfg.train,
        cfg.schedule,
        _build_dataset(cfg),  # not kept here, so run_imp can release it once split
        cell_kind=cfg.cell_kind,
        hidden_size=cfg.hidden_size,
        out_dir=cfg.output_dir,
        policy=cfg.policy,
        noise=cfg.noise,
    )
    summary = {
        "output_dir": cfg.output_dir,
        "rounds_recorded": len(records),
        "dense_accuracy": records[0].test_accuracy,
        "final_accuracy": records[-1].test_accuracy,
        "final_q": records[-1].q,
        "zero_crossings": {
            layer: {
                kind: detect_zero_crossing(records, layer, kind) for kind in GAP_KINDS
            }
            for layer in LAYERS
        },
    }
    _print_json(summary)
    return 0


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    train_ds, test_ds, initial = start_run(cfg.train, _build_dataset(cfg), cfg.cell_kind,
                                           cfg.hidden_size, cfg.noise)
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


def _unrolled(B, args) -> dict:
    """Block B's unrolled chain; its closed form and reports refuse B before any SVD does."""
    spec = UnrolledSpec(B, args.k)
    closed = closed_form_spectrum(spec) if args.closed_form else None
    reports = [asdict(unrolled_gap_report(spec, mode)) for mode in _MODE_FLAGS[args.mode]]
    spectrum = unrolled_spectrum(spec)
    out = {"dimension": spec.dim, "spectrum": [float(v) for v in spectrum], "reports": reports}
    if args.closed_form:
        out["closed_form"] = [float(v) for v in closed]
        out["max_deviation"] = float(np.max(np.abs(closed - spectrum)))
    return out


@_naming_input
def cmd_unroll(args) -> int:
    """A matx block's unrolled chain, or one entry for each time-step block
    of a checkpoint's masked W_hh: the RNN's W_hh or each LSTM gate block."""
    ((_, B, keep, gates),) = _blocks(args.path, ("w_hh",), per_gate=True)
    if keep is None:
        _print_json({"source": args.path, "k": args.k, **_unrolled(B, args)})
        return 0
    entries = [_entry({"layer": label},
                      lambda: _unrolled(np.multiply(weights, kept, out=weights), args))
               for label, weights, kept in gates or [("w_hh", B, keep)]]
    return _print_reported({"source": args.path, "k": args.k, "blocks": entries}, entries)


def cmd_report(args) -> int:
    records = load_run_trajectory(args.path)
    if not records:
        raise DomainError(f"{args.path}: trajectory is empty")
    out_svg = _resolve_out(args.out) if args.out else os.path.splitext(args.path)[0] + ".svg"
    for out in (out_svg, table_path(out_svg)):
        if os.path.exists(out) and os.path.samefile(out, args.path):
            raise DomainError(f"{out}: the report would overwrite the trajectory it reads")
    out_csv = render_trajectory(records, out_svg)
    _print_json({"svg": out_svg, "csv": out_csv, "records": len(records)})
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as one EUSAGE line, for this parser and its subparsers."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: ENOENT: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except OSError as exc:
        code = errno.errorcode.get(exc.errno, "EIO")
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {code}: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: ENOMEM: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: EINTR: interrupted", file=sys.stderr)
        return 130
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: ENUMERIC: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        code = getattr(type(exc), "code", "EINVAL")
        message = str(exc).replace("\n", " ")
        print(f"error: {code}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
