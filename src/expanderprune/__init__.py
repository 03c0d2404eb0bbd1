"""Expander-graph diagnostics and iterative magnitude pruning for RNN/LSTM layers."""

from . import data, errors, graphs, linalg, nets, pruning, unrolled  # noqa: F401

__version__ = "0.1.0"
