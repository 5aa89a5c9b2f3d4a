"""Figures 5.1–5.4: throughput and speedup curves.

Each ``figure_5_x`` returns one figure's panels; :func:`render` prints
them as the rows the plots encode.  ``repro figure`` prints that text
and ``benchmarks/`` commits it as ``benchmarks/results/fig_5_x.txt``.
The claim scorecard (``benchmarks/bench_claims.py``) judges the claims
of :mod:`repro.experiments.paper_data` on the same :func:`series`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..analysis.report import render_series
from ..workloads import (CONTAINS_ONLY, DELETE_ONLY, INSERT_ONLY,
                         MIX_10_10_80, PAPER_MIXTURES, Mixture)
from .harness import PAPER, Point, Scale, run_range_series

SINGLE_OP_MIXTURES = (("contains-only", CONTAINS_ONLY),
                      ("insert-only", INSERT_ONLY),
                      ("delete-only", DELETE_ONLY))


def series(structure_kind: str, mixture: Mixture, scale: Scale = PAPER,
           team_size: int = 32) -> tuple[Point, ...]:
    """One figure line: a Point per key range of ``scale``.

    Runs once per process and argument set — Figures 5.1–5.3 plot
    shared runs, and the scorecard judges them again."""
    return _series(structure_kind, mixture, scale, team_size)


@functools.cache
def _series(structure_kind, mixture, scale, team_size):
    return tuple(run_range_series(structure_kind, mixture, scale=scale,
                                  team_size=team_size))


def mops(points) -> list[float]:
    return [p.mean_mops for p in points]


def ratios(gfsl, mc) -> list[float]:
    """GFSL/M&C throughput per range; NaN where M&C is out of memory."""
    return [float("nan") if m.oom else g.mean_mops / m.mean_mops
            for g, m in zip(gfsl, mc)]


@dataclass
class FigureData:
    """One panel of a figure: the key ranges and the columns it plots."""

    title: str
    ranges: tuple[int, ...]
    series: dict[str, list[float]]

    def render(self) -> str:
        return render_series(self.title, "range", list(self.ranges),
                             self.series)


def figure_5_1(scale: Scale = PAPER) -> list[FigureData]:
    """GFSL-16 vs GFSL-32 vs M&C, [10,10,80] (Figure 5.1)."""
    return [FigureData(
        f"Figure 5.1 — [10,10,80] throughput, MOPS (scale={scale.name})",
        scale.ranges,
        {"GFSL-16": mops(series("gfsl", MIX_10_10_80, scale, 16)),
         "GFSL-32": mops(series("gfsl", MIX_10_10_80, scale)),
         "M&C": mops(series("mc", MIX_10_10_80, scale))})]


def figure_5_2(scale: Scale = PAPER) -> list[FigureData]:
    """GFSL-32 / M&C throughput ratio per mixture (Figure 5.2)."""
    return [FigureData(
        f"Figure 5.2 — GFSL-32 / M&C ratio (scale={scale.name})",
        scale.ranges,
        {mix.name: ratios(series("gfsl", mix, scale),
                          series("mc", mix, scale))
         for mix in PAPER_MIXTURES})]


def figure_5_3(scale: Scale = PAPER) -> list[FigureData]:
    """Throughput vs range for the four mixed workloads (Figure 5.3a–d)."""
    return [FigureData(
        f"Figure 5.3 {mix.name} — throughput, MOPS (scale={scale.name})",
        scale.ranges,
        {"GFSL-32": mops(series("gfsl", mix, scale)),
         "M&C": mops(series("mc", mix, scale))})
        for mix in PAPER_MIXTURES]


def figure_5_4(scale: Scale = PAPER) -> list[FigureData]:
    """Single-op-type tests (Figure 5.4a–c): contains-, insert- and
    delete-only, with the GFSL/M&C ratio."""
    panels = []
    for label, mix in SINGLE_OP_MIXTURES:
        g, m = series("gfsl", mix, scale), series("mc", mix, scale)
        panels.append(FigureData(
            f"Figure 5.4 {label} — throughput, MOPS (scale={scale.name})",
            scale.ranges,
            {"GFSL-32": mops(g), "M&C": mops(m), "ratio": ratios(g, m)}))
    return panels


FIGURES = {"5.1": figure_5_1, "5.2": figure_5_2, "5.3": figure_5_3,
           "5.4": figure_5_4}


def render(name: str, scale: Scale = PAPER) -> str:
    """Figure ``name`` ("5.1"–"5.4") as ``repro figure`` prints it and
    ``benchmarks/results/fig_5_x.txt`` records it."""
    return "\n\n".join(panel.render() for panel in FIGURES[name](scale))
