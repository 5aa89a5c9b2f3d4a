"""Tests for the workload runner and its analytic models."""

import math

import pytest

from repro.core import GFSL_KERNEL
from repro.engine import make_structure
from repro.gpu import DeviceConfig, LaunchConfig
from repro.gpu.occupancy import compute_occupancy
from repro.workloads import (CONTAINS_ONLY, DELETE_ONLY, INSERT_ONLY,
    MIX_10_10_80, MIX_20_20_60, generate, mc_paper_scale_feasible,
    run_workload)
from repro.workloads.runner import contention_serial_cycles

DEV = DeviceConfig.gtx970()


def small_workload(mix=MIX_10_10_80, key_range=5_000, n_ops=200, seed=1):
    return generate(mix, key_range=key_range, n_ops=n_ops, seed=seed)


class TestBuilders:
    def test_build_gfsl_prefilled(self):
        w = small_workload()
        sl = make_structure("gfsl", w)
        assert len(sl) == len(w.prefill)
        assert sl.contains(int(w.prefill[0]))

    def test_build_mc_prefilled(self):
        w = small_workload()
        mc = make_structure("mc", w)
        assert len(mc) == len(w.prefill)

    def test_build_insert_only_midpoint(self):
        w = small_workload(INSERT_ONLY, n_ops=50)
        sl = make_structure("gfsl", w)
        assert len(sl) == len(w.prefill) > 0


class TestRunWorkload:
    def test_gfsl_point(self):
        r = run_workload("gfsl", small_workload())
        assert r.structure == "GFSL-32"
        assert r.mops > 0 and not r.oom
        assert r.transactions_per_op > 0
        assert 0 < r.l2_hit_rate <= 1.0

    def test_mc_point(self):
        r = run_workload("mc", small_workload())
        assert r.structure == "M&C"
        assert r.mops > 0
        # M&C's scattered hops cost far more transactions per op.
        g = run_workload("gfsl", small_workload())
        assert r.transactions_per_op > 3 * g.transactions_per_op

    def test_team_size_16(self):
        r = run_workload("gfsl", small_workload(), team_size=16)
        assert r.structure == "GFSL-16"

    def test_unknown_structure(self):
        with pytest.raises(ValueError):
            run_workload("btree", small_workload())

    def test_deterministic(self):
        a = run_workload("gfsl", small_workload())
        b = run_workload("gfsl", small_workload())
        assert a.mops == pytest.approx(b.mops)

    def test_single_op_workloads_run(self):
        for mix in (CONTAINS_ONLY, INSERT_ONLY, DELETE_ONLY):
            w = small_workload(mix, key_range=2000, n_ops=150)
            r = run_workload("gfsl", w)
            assert r.mops > 0, mix.name


class TestPaperScaleOOM:
    def test_mixed_feasible_to_10m(self):
        assert mc_paper_scale_feasible(10_000_000, MIX_10_10_80)

    def test_mixed_infeasible_at_30m(self):
        assert not mc_paper_scale_feasible(30_000_000, MIX_10_10_80)

    def test_single_op_feasible_at_3m(self):
        assert mc_paper_scale_feasible(3_000_000, DELETE_ONLY)
        assert mc_paper_scale_feasible(3_000_000, INSERT_ONLY)

    def test_single_op_infeasible_at_10m(self):
        assert not mc_paper_scale_feasible(10_000_000, DELETE_ONLY)
        assert not mc_paper_scale_feasible(10_000_000, CONTAINS_ONLY)

    def test_oom_point_returned(self):
        w = generate(DELETE_ONLY, key_range=10_000_000, n_ops=10, seed=1)
        # Don't actually build a 10M structure: feasibility is checked
        # before any allocation.
        r = run_workload("mc", w)
        assert r.oom
        assert math.isnan(r.mops)

    def test_oom_can_be_disabled(self):
        w = small_workload()
        r = run_workload("mc", w, enforce_paper_oom=False)
        assert not r.oom


class TestContentionModel:
    def _occ(self, kernel):
        return compute_occupancy(DEV, LaunchConfig(warps_per_block=16),
                                 kernel)

    def test_zero_without_updates(self):
        w = small_workload(CONTAINS_ONLY, n_ops=100)
        assert contention_serial_cycles(
            DEV, self._occ(GFSL_KERNEL), GFSL_KERNEL, w, slots=100,
            coeff=(30.0, 0.2)) == 0.0

    def test_grows_with_update_fraction(self):
        w_lo = small_workload(MIX_10_10_80)
        w_hi = small_workload(MIX_20_20_60)
        occ = self._occ(GFSL_KERNEL)
        lo = contention_serial_cycles(DEV, occ, GFSL_KERNEL, w_lo, 100,
                                      (30.0, 0.2))
        hi = contention_serial_cycles(DEV, occ, GFSL_KERNEL, w_hi, 100,
                                      (30.0, 0.2))
        assert hi > lo > 0

    def test_vanishes_with_many_slots(self):
        w = small_workload(MIX_20_20_60)
        occ = self._occ(GFSL_KERNEL)
        tight = contention_serial_cycles(DEV, occ, GFSL_KERNEL, w, 100,
                                         (30.0, 0.2))
        loose = contention_serial_cycles(DEV, occ, GFSL_KERNEL, w, 100_000,
                                         (30.0, 0.2))
        assert loose < tight / 10

    def test_small_range_dip_materializes(self):
        """The paper's contention dip: [20,20,60] at a tiny range is
        slower per op than at a mid range for GFSL."""
        tiny = run_workload("gfsl", small_workload(MIX_20_20_60, 3_000, 300))
        mid = run_workload("gfsl", small_workload(MIX_20_20_60, 100_000, 300))
        assert tiny.mops < mid.mops
