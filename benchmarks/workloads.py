"""The benchmark's workloads: inputs from the seed, one timed unit, checks.

Every workload drives the program from outside, through
``expanderprune.cli.main`` (and, for the brute-force audit, the public
``graphs`` functions), on inputs it generates from the seed.  A unit is
one full IMP trajectory or one full audit.  ``check`` compares the
unit's outputs against the dense reference in ``oracle``;
``expected_counts`` derives, independently of the trace, the exact
per-layer counts a traced unit must report.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from expanderprune import cli, data, formats, graphs, nets, pruning

import oracle
from tracing import laplacian_bytes, top_two_path

MODES = ("weighted", "unweighted")
LAYERS = ("w_xh", "w_hh")
GATES = ("i", "f", "g", "o")
TEST_FRACTION = 0.20  # run_imp's default split


def call_cli(argv: list[str]) -> dict:
    """Run one CLI command in-process and return its JSON stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"expanderprune {' '.join(argv)} exited with {code}")
    return json.loads(buffer.getvalue())


def derive_seed(seed: int, *keys: int) -> int:
    """An independent integer seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0])


@dataclass(frozen=True)
class ImpWorkload:
    """`expanderprune prune` on a synthetic task, persisted to a fresh directory."""

    name: str
    hidden_size: int
    synth_kind: str
    n_samples: int
    learning_rate: float
    batch_size: int
    train_epochs: int
    finetune_epochs: int
    min_units: int
    k: int = 16
    input_size: int = 4
    rounds: int = 20
    final_fraction: float = 0.01

    def setup(self, seed: int, directory: Path) -> dict:
        directory.mkdir(parents=True)
        config = directory / "experiment.ini"
        config.write_text(
            "[experiment]\n"
            f"cell_kind = lstm\nhidden_size = {self.hidden_size}\nseed = {seed}\n"
            "[data]\n"
            f"source = synth\nsynth_kind = {self.synth_kind}\nn_samples = {self.n_samples}\n"
            f"k = {self.k}\ninput_size = {self.input_size}\n"
            "[train]\n"
            f"learning_rate = {self.learning_rate}\ntrain_epochs = {self.train_epochs}\n"
            f"batch_size = {self.batch_size}\n"
            "[prune]\n"
            f"rounds = {self.rounds}\nfinal_fraction = {self.final_fraction}\n"
            f"finetune_epochs = {self.finetune_epochs}\n"
        )
        dataset = data.synth_task(self.synth_kind, self.n_samples, self.k, self.input_size,
                                  seed=seed)
        train_ds, test_ds = data.train_test_split(dataset, TEST_FRACTION, seed=seed)
        return {"config": config, "n_train": train_ds.n, "test": test_ds}

    def run_unit(self, inputs: dict, directory: Path) -> dict:
        out = directory / "run"
        started = time.time()
        t0 = time.perf_counter()
        summary = call_cli(["prune", "--config", str(inputs["config"]), "--out", str(out)])
        wall_s = time.perf_counter() - t0
        # Per-round times come from the checkpoints' modification times.
        stamps = [os.stat(out / f"round_{r:03d}.ckpt").st_mtime_ns / 1e9
                  for r in range(self.rounds + 1)]
        trajectory = (out / "trajectory.jsonl").read_bytes()
        return {
            "wall_s": wall_s,
            "time_to_dense_s": stamps[0] - started,
            "round_s": [b - a for a, b in zip(stamps, stamps[1:])],
            "dense_accuracy": summary["dense_accuracy"],
            "digest": hashlib.sha256(trajectory).hexdigest(),
            "trajectory_bytes": len(trajectory),
            "out": out,
        }

    def _rounds(self, unit: dict):
        """Trajectory records paired with their reloaded checkpoints."""
        out = unit["out"]
        records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
        for record in records:
            path = out / f"round_{record['round']:03d}.ckpt"
            yield record, path, *formats.load_checkpoint(path)

    def check(self, inputs: dict, unit: dict, checks: oracle.Checks) -> None:
        test = inputs["test"]
        rounds = list(self._rounds(unit))
        checks.check([r["round"] for r, *_ in rounds] == list(range(self.rounds + 1)),
                     f"{self.name}/trajectory/rounds")
        for record, _, params, mask in rounds:
            where = f"{self.name}/round_{record['round']:03d}"
            for layer in LAYERS:
                kept = getattr(mask, layer)
                checks.check(record["q"][layer] == int(kept.sum()) / kept.size,
                             f"{where}/{layer}/q")
                for mode in MODES:
                    want = oracle.reference_report(getattr(params, layer), kept, mode)
                    checks.check(oracle.report_matches(record["reports"][layer][mode], want),
                                 f"{where}/{layer}/{mode}")
            accuracy = nets.evaluate(params, mask, test.sequences, test.labels)
            checks.check(accuracy == record["test_accuracy"], f"{where}/test_accuracy")

    def expected_counts(self, inputs: dict, unit: dict) -> dict:
        rounds = list(self._rounds(unit))
        batches = math.ceil(inputs["n_train"] / self.batch_size)
        # run_imp fine-tunes only in rounds whose masks changed
        changed = sum(any((getattr(before, layer) != getattr(after, layer)).any()
                          for layer in LAYERS)
                      for (*_, before), (*_, after) in zip(rounds, rounds[1:]))
        finetuned = changed if self.finetune_epochs else 0
        shapes = [getattr(rounds[0][2], layer).shape for layer in LAYERS]
        n = len(rounds)
        return {
            "nets.train.calls": 1 + finetuned,
            "nets.adam_steps": (self.train_epochs + finetuned * self.finetune_epochs) * batches,
            "nets.evaluate.rows": n * inputs["test"].n,
            "pruning.layer_reports.calls": n,
            "graphs.spectral_gaps.calls": n * len(LAYERS) * len(MODES),
            "graphs.alpha2.laplacian_mb": n * len(MODES) * sum(map(laplacian_bytes, shapes)) / 1e6,
            "linalg.top_two.power_calls":
                n * len(MODES) * sum(top_two_path(s) == "power" for s in shapes),
            "linalg.top_two.dense_calls":
                n * len(MODES) * sum(top_two_path(s) == "dense" for s in shapes),
            "formats.save_checkpoint.bytes": sum(os.path.getsize(path) for _, path, *_ in rounds),
            "formats.trajectory.bytes": unit["trajectory_bytes"],
            "graphs.bruteforce.subsets": 0,
            "unrolled.dim_sum": 0,
            "cli.analyze.calls": 0,
        }


@dataclass(frozen=True)
class AuditWorkload:
    """Offline diagnostics on generated checkpoints, matrices and graphs; no training."""

    name: str = "layer-audit"
    hidden_sizes: tuple = (32, 64, 128, 256)
    keep_fractions: tuple = (1.0, 0.3, 0.05)
    dense_hidden: int = 512
    unroll_hidden: tuple = (32, 64)
    unroll_keep: float = 0.3
    unroll_k: int = 16
    graph_sizes: tuple = (16, 17, 18, 19, 20)
    edge_probability: float = 0.3
    min_units: int = 1
    input_size: int = 4
    class_count: int = 2

    def _checkpoint(self, seed, hidden, keep, directory):
        params = nets.init_params(self.input_size, hidden, self.class_count, nets.LSTM,
                                  seed=derive_seed(seed, hidden))
        full = nets.PruneMask.full(params)
        mask = nets.PruneMask(pruning.magnitude_prune(params.w_xh, full.w_xh, keep),
                              pruning.magnitude_prune(params.w_hh, full.w_hh, keep))
        params = nets.apply_mask(params, mask)
        path = directory / f"lstm_h{hidden}_keep{keep}.ckpt"
        formats.save_checkpoint(path, params, mask)
        return path, params, mask

    def _graph(self, seed, n):
        """Connected random graph: a random spanning tree plus G(n, p) edges."""
        rng = np.random.default_rng(derive_seed(seed, 0xC4EE, n))
        adj = np.triu(rng.random((n, n)) < self.edge_probability, 1)
        for v in range(1, n):
            adj[int(rng.integers(v)), v] = True
        return (adj | adj.T).astype(np.float64)

    def setup(self, seed: int, directory: Path) -> dict:
        directory.mkdir(parents=True)
        analyses = []  # (path, params, mask, analyze flags, layers, per-gate)
        blocks = []  # (matx path, block)
        for hidden in self.hidden_sizes:
            for keep in self.keep_fractions:
                path, params, mask = self._checkpoint(seed, hidden, keep, directory)
                analyses.append((path, params, mask, ["--per-gate"], LAYERS, True))
                if hidden in self.unroll_hidden and keep == self.unroll_keep:
                    for g, gate in enumerate(GATES):
                        block = params.w_hh[g * hidden:(g + 1) * hidden]
                        matx = directory / f"whh_h{hidden}_{gate}.matx"
                        formats.save_matrix_text(block, matx)
                        blocks.append((matx, block))
        path, params, mask = self._checkpoint(seed, self.dense_hidden, 1.0, directory)
        analyses.append((path, params, mask, ["--layer", "whh"], ("w_hh",), False))
        return {
            "analyses": analyses,
            "blocks": blocks,
            "graphs": [self._graph(seed, n) for n in self.graph_sizes],
        }

    def run_unit(self, inputs: dict, directory: Path) -> dict:
        t0 = time.perf_counter()
        analyze_s = 0.0
        analyzed = []
        for path, _, _, flags, _, _ in inputs["analyses"]:
            t = time.perf_counter()
            analyzed.append(call_cli(["analyze", str(path), *flags]))
            analyze_s += time.perf_counter() - t
        unrolls = [call_cli(["unroll", str(path), "--k", str(self.unroll_k)])
                   for path, _ in inputs["blocks"]]
        brute = [(graphs.edge_conductance_bruteforce(adj),
                  graphs.vertex_cheeger_bruteforce(adj),
                  graphs.edge_cheeger_bruteforce(adj)) for adj in inputs["graphs"]]
        wall_s = time.perf_counter() - t0
        reports = sum(len(a["reports"]) for a in analyzed)
        outputs = json.dumps([analyzed, unrolls, brute], sort_keys=True).encode()
        return {
            "wall_s": wall_s,
            "reports": reports,
            "reports_per_s": reports / analyze_s,
            "digest": hashlib.sha256(outputs).hexdigest(),
            "analyzed": analyzed,
            "unrolls": unrolls,
            "brute": brute,
        }

    @staticmethod
    def _expected_reports(params, mask, layers, per_gate):
        """(label, mode, weights, kept) in the order `analyze` emits them."""
        H = params.hidden_size
        for layer in layers:
            W, kept = getattr(params, layer), getattr(mask, layer)
            parts = [(layer, slice(None))]
            if per_gate:
                parts += [(f"{layer}[{gate}]", slice(g * H, (g + 1) * H))
                          for g, gate in enumerate(GATES)]
            for label, rows in parts:
                for mode in MODES:
                    yield label, mode, W[rows], kept[rows]

    def check(self, inputs: dict, unit: dict, checks: oracle.Checks) -> None:
        for (path, params, mask, _, layers, per_gate), out in zip(inputs["analyses"],
                                                                   unit["analyzed"]):
            expected = self._expected_reports(params, mask, layers, per_gate)
            for want, got in zip_longest(expected, out["reports"]):
                if want is None:
                    checks.check(False, f"{self.name}/{path.name}/unexpected-report")
                    continue
                label, mode, W, kept = want
                checks.check(got is not None and got["layer"] == label
                             and oracle.report_matches(got, oracle.reference_report(W, kept, mode)),
                             f"{self.name}/{path.name}/{label}/{mode}")
        for (path, block), out in zip(inputs["blocks"], unit["unrolls"]):
            ok = (out["dimension"] == (self.unroll_k + 1) * block.shape[0]
                  and oracle.spectra_match(out["spectrum"],
                                           oracle.unrolled_spectrum(block, self.unroll_k)))
            checks.check(ok, f"{self.name}/{path.name}/unroll-spectrum")
        for adj, (conductance, h_vertex, h_edge) in zip(inputs["graphs"], unit["brute"]):
            n = adj.shape[0]
            checks.check(oracle.cheeger_sandwich_holds(adj, conductance),
                         f"{self.name}/graph{n}/cheeger-buser")
            checks.check(oracle.vertex_edge_order_holds(adj, h_vertex, h_edge),
                         f"{self.name}/graph{n}/vertex-edge-order")

    def expected_counts(self, inputs: dict, unit: dict) -> dict:
        shapes = [W.shape for _, params, mask, _, layers, per_gate in inputs["analyses"]
                  for _, _, W, _ in self._expected_reports(params, mask, layers, per_gate)]
        return {
            "nets.train.calls": 0,
            "nets.adam_steps": 0,
            "nets.evaluate.rows": 0,
            "pruning.layer_reports.calls": 0,
            "graphs.spectral_gaps.calls": len(shapes),
            "graphs.alpha2.laplacian_mb": sum(map(laplacian_bytes, shapes)) / 1e6,
            "linalg.top_two.power_calls": sum(top_two_path(s) == "power" for s in shapes),
            "linalg.top_two.dense_calls": sum(top_two_path(s) == "dense" for s in shapes),
            "formats.load_checkpoint.bytes":
                sum(os.path.getsize(path) for path, *_ in inputs["analyses"]),
            "graphs.bruteforce.subsets": 3 * sum(2 ** n for n in self.graph_sizes),
            "unrolled.dim_sum":
                len(MODES) * sum((self.unroll_k + 1) * b.shape[0] for _, b in inputs["blocks"]),
            "cli.analyze.calls": len(inputs["analyses"]),
            "formats.trajectory.bytes": 0,
        }


WORKLOADS = {
    w.name: w for w in (
        ImpWorkload("desk-imp", hidden_size=32, synth_kind="running-parity", n_samples=4000,
                    learning_rate=0.003, batch_size=25, train_epochs=60, finetune_epochs=2,
                    min_units=1),
        ImpWorkload("wide-imp", hidden_size=128, synth_kind="mean-threshold", n_samples=1000,
                    learning_rate=0.003, batch_size=100, train_epochs=10, finetune_epochs=1,
                    min_units=2),
        AuditWorkload(),
    )
}
