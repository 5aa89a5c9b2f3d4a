"""Shared machinery for the benchmark suite.

Every bench regenerates one table/figure of Chapter 5 at the paper's
scale (every key range up to 10M; ``pytest benchmarks/
--benchmark-only`` took 4 min 8 s to 4 min 43 s over three runs on a
2-core x86 host), prints the paper-style rows, and writes them to
``benchmarks/results/`` so the run leaves a durable reproduction record.  Series shared between figures
and the claim scorecard run once per session
(:func:`repro.experiments.figures.series`).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import SCALES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def scale():
    return SCALES["paper"]
