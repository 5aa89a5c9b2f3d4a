"""``repro.experiments`` — one entry per table and figure of Chapter 5,
plus the §5.2 configuration studies and extra ablations."""

from . import ablations, figures, paper_data, tables
from .harness import SCALES, Point, Scale, run_point, run_range_series

__all__ = ["ablations", "figures", "paper_data", "tables", "SCALES",
           "Point", "Scale", "run_point",
           "run_range_series"]
