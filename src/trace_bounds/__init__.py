"""Trace-inequality constants for Sobolev and integrable-strain fields,
computed on concrete domains via harmonic extensions of boundary data.

Each public name has one import path, its module's: ``trace_bounds.geometry``,
``trace_bounds.sobolev_trace``, ``trace_bounds.ld_trace`` and so on."""

__version__ = "0.1.0"

# perfbench/child.py reads tb.load_config and tb.cli.run_config off the package
from . import cli
from .config import load_config

__all__ = ["load_config"]
