"""Span tracing installed from outside the package.

A traced unit runs with wrappers patched over the package's public
functions.  Modules import each other by name, so every name is patched
in the module whose globals the caller looks it up in (``pruning.train``
rather than ``nets.train``).  Each call records one span: name, start,
end, parent span index, and an optional exact count derived from the
call's arguments.  Spans stay in memory and are written out when the
benchmark ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from expanderprune import cli, graphs, nets, pruning, unrolled

def top_two_path(shape) -> str:
    """linalg's shape rule: power iteration iff min(m, n) > 64, else dense SVD."""
    return "power" if min(shape) > 64 else "dense"


def laplacian_bytes(shape) -> int:
    """Bytes of the dense (m+n)^2 normalized Laplacian alpha2 builds for an m x n layer."""
    return 8 * (shape[0] + shape[1]) ** 2


def _report_key(args):
    g = args[0]
    m, n = g.biadjacency.shape
    return f"{m}x{n}/{g.mode}/{top_two_path((m, n))}"


def _top_two_path(args):
    return top_two_path(args[0].shape)


def _laplacian_bytes(args):
    return laplacian_bytes(args[0].biadjacency.shape)


def _file_bytes(args):
    return os.path.getsize(args[0])


def _rows(args):
    return len(args[2])


def _subsets(args):
    return 2 ** len(args[0])


def _unrolled_dim(args):
    return args[0].dim


# (module, attribute, span name, count function or None)
TARGETS = (
    (cli, "cmd_prune", "cli.prune", None),
    (cli, "cmd_analyze", "cli.analyze", None),
    (cli, "cmd_unroll", "cli.unroll", None),
    (cli, "load_config", "config.load_config", None),
    (cli, "synth_task", "data.synth_task", None),
    (cli, "run_imp", "pruning.run_imp", None),
    (cli, "load_checkpoint", "formats.load_checkpoint", _file_bytes),
    (cli, "load_matrix_text", "formats.load_matrix_text", None),
    (cli, "spectral_gaps", "graphs.spectral_gaps", _report_key),
    (cli, "build_unrolled", "unrolled.build_unrolled", None),
    (cli, "sym_eigenvalues", "linalg.sym_eigenvalues", None),
    (cli, "unrolled_gap_report", "unrolled.gap_report", _unrolled_dim),
    (pruning, "train_test_split", "data.train_test_split", None),
    (pruning, "train", "nets.train", None),
    (pruning, "evaluate", "nets.evaluate", _rows),
    (pruning, "magnitude_prune", "pruning.magnitude_prune", None),
    (pruning, "layer_reports", "pruning.layer_reports", None),
    (pruning, "spectral_gaps", "graphs.spectral_gaps", _report_key),
    (pruning, "save_checkpoint", "formats.save_checkpoint", _file_bytes),
    (nets, "loss_and_grads", "nets.loss_and_grads", None),
    (nets, "adam_step", "nets.adam_step", None),
    (nets, "clip_gradients", "nets.clip_gradients", None),
    (graphs, "top_two_singular_values", "linalg.top_two", _top_two_path),
    (graphs, "normalized_laplacian_alpha2", "graphs.alpha2", _laplacian_bytes),
    (graphs, "edge_conductance_bruteforce", "graphs.bruteforce", _subsets),
    (graphs, "vertex_cheeger_bruteforce", "graphs.bruteforce", _subsets),
    (graphs, "edge_cheeger_bruteforce", "graphs.bruteforce", _subsets),
    (unrolled, "sym_eigenvalues", "linalg.sym_eigenvalues", None),
)

RUN = "run"


class Tracer:
    """In-memory spans: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrapper(self, original, name, count):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[4] = count(args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        originals = []
        try:
            for module, attr, name, count in TARGETS:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, count sum, keyed counts."""
    selfs = tracer.self_times()
    table: dict[str, dict] = {}
    for (name, start, end, _, count), self_s in zip(tracer.spans, selfs):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "keys": {}})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
        if isinstance(count, int):
            row["count"] += count
        elif count is not None:
            row["keys"][count] = row["keys"].get(count, 0) + 1
    return table


def layer_coverage(tracer: Tracer) -> float:
    """Share of the run span spent below the CLI glue, in measured layers."""
    selfs = tracer.self_times()
    run = next(i for i, s in enumerate(tracer.spans) if s[0] == RUN)
    duration = tracer.spans[run][2] - tracer.spans[run][1]
    glue = sum(selfs[i] for i, s in enumerate(tracer.spans)
               if i == run or s[0].startswith("cli."))
    return 1.0 - glue / duration


def per_layer_metrics(table: dict, coverage: float, overhead_s: float) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "keys": {}})

    train, adam = row("nets.train"), row("nets.adam_step")
    top_two = row("linalg.top_two")["keys"]
    return {
        "nets.train.s": train["s"],
        "nets.train.calls": train["calls"],
        "nets.adam_steps": adam["calls"],
        "nets.step_ms": 1000.0 * train["s"] / adam["calls"] if adam["calls"] else 0.0,
        "nets.loss_and_grads.s": row("nets.loss_and_grads")["s"],
        "nets.adam_step.s": adam["s"],
        "nets.clip_gradients.s": row("nets.clip_gradients")["s"],
        "nets.evaluate.s": row("nets.evaluate")["s"],
        "nets.evaluate.rows": row("nets.evaluate")["count"],
        "pruning.magnitude_prune.s": row("pruning.magnitude_prune")["s"],
        "pruning.layer_reports.s": row("pruning.layer_reports")["s"],
        "pruning.layer_reports.calls": row("pruning.layer_reports")["calls"],
        "graphs.spectral_gaps.s": row("graphs.spectral_gaps")["s"],
        "graphs.spectral_gaps.calls": row("graphs.spectral_gaps")["calls"],
        "graphs.alpha2.s": row("graphs.alpha2")["s"],
        "graphs.alpha2.laplacian_mb": row("graphs.alpha2")["count"] / 1e6,
        "graphs.bruteforce.s": row("graphs.bruteforce")["s"],
        "graphs.bruteforce.subsets": row("graphs.bruteforce")["count"],
        "linalg.top_two.s": row("linalg.top_two")["s"],
        "linalg.top_two.power_calls": top_two.get("power", 0),
        "linalg.top_two.dense_calls": top_two.get("dense", 0),
        "linalg.sym_eigenvalues.s": row("linalg.sym_eigenvalues")["s"],
        "unrolled.gap_report.s": row("unrolled.gap_report")["s"],
        "unrolled.dim_sum": row("unrolled.gap_report")["count"],
        "formats.save_checkpoint.s": row("formats.save_checkpoint")["s"],
        "formats.save_checkpoint.bytes": row("formats.save_checkpoint")["count"],
        "formats.load_checkpoint.s": row("formats.load_checkpoint")["s"],
        "formats.load_checkpoint.bytes": row("formats.load_checkpoint")["count"],
        "data.synth_task.s": row("data.synth_task")["s"],
        "data.train_test_split.s": row("data.train_test_split")["s"],
        "cli.prune.s": row("cli.prune")["self_s"],
        "cli.analyze.s": row("cli.analyze")["self_s"],
        "cli.analyze.calls": row("cli.analyze")["calls"],
        "cli.unroll.s": row("cli.unroll")["self_s"],
        "config.load_config.s": row("config.load_config")["s"],
        "trace.overhead_s": overhead_s,
        "trace.layer_coverage": coverage,
    }
