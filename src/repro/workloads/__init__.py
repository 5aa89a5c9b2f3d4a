"""``repro.workloads`` — benchmark workload generation and execution
(Section 5.1's test kernels)."""

from .generator import (CONTAINS_ONLY, DELETE_ONLY, DISTRIBUTIONS,
                        INSERT_ONLY, MIX_1_1_98, MIX_5_5_90, MIX_10_10_80,
                        MIX_20_20_60, PAPER_MIXTURES, SINGLE_OP_MIXTURES,
                        Mixture, Op, Workload, draw_keys, front_keys,
                        generate, hotspot_keys, prefill_for, zipf_keys)
from .runner import RunResult, mc_paper_scale_feasible, run_workload

__all__ = [
    "Mixture", "Op", "Workload", "generate", "prefill_for", "zipf_keys",
    "DISTRIBUTIONS", "draw_keys", "front_keys", "hotspot_keys",
    "MIX_1_1_98", "MIX_5_5_90", "MIX_10_10_80", "MIX_20_20_60",
    "CONTAINS_ONLY", "INSERT_ONLY", "DELETE_ONLY",
    "PAPER_MIXTURES", "SINGLE_OP_MIXTURES",
    "RunResult", "mc_paper_scale_feasible", "run_workload",
]
