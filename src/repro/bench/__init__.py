"""Benchmark harness regenerating every figure of the paper's evaluation."""

from .experiments import ALL_EXPERIMENTS, FIGURES, FigureSpec
from .orchestrator import Cell, ResultCache, SweepOutcome, make_cell, run_cells

__all__ = [
    "ALL_EXPERIMENTS",
    "FIGURES",
    "FigureSpec",
    "Cell",
    "ResultCache",
    "SweepOutcome",
    "make_cell",
    "run_cells",
]
