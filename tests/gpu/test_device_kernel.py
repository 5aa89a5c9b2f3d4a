"""Tests for DeviceConfig/LaunchConfig and the GPUContext execution modes."""

import pytest

from repro.gpu import events as ev
from repro.gpu.device import DeviceConfig, LaunchConfig
from repro.gpu.kernel import GPUContext


class TestDeviceConfig:
    def test_gtx970_preset(self):
        d = DeviceConfig.gtx970()
        assert d.num_sms == 13
        assert d.warp_size == 32
        assert d.l2_bytes == int(1.75 * 1024 * 1024)

    def test_with_l2(self):
        d = DeviceConfig.gtx970().with_l2(1024 * 1024)
        assert d.l2_bytes == 1024 * 1024
        assert d.num_sms == 13  # other fields preserved

    def test_lines_for(self):
        d = DeviceConfig.gtx970()
        assert d.lines_for(128) == 1
        assert d.lines_for(129) == 2
        assert d.lines_for(256) == 2

    def test_max_threads(self):
        d = DeviceConfig.gtx970()
        assert d.max_threads_per_sm == 64 * 32

    def test_frozen(self):
        d = DeviceConfig.gtx970()
        with pytest.raises(Exception):
            d.num_sms = 5


class TestLaunchConfig:
    def test_defaults(self):
        lc = LaunchConfig()
        assert lc.threads_per_block == lc.warps_per_block * 32
        assert lc.total_warps == lc.blocks * lc.warps_per_block
        assert lc.teams_per_warp == 1
        assert lc.total_teams == lc.total_warps


def op(value, n_events=3):
    def make():
        def gen():
            for i in range(n_events):
                yield ev.Compute(1)
            return value
        return gen()
    return make


class TestGPUContext:
    def test_run(self):
        ctx = GPUContext(64)
        def gen():
            yield ev.WordWrite(0, 5)
            return (yield ev.WordRead(0))
        assert ctx.run(gen()) == 5

    def test_run_untraced_no_stats(self):
        ctx = GPUContext(64)
        def gen():
            yield ev.WordWrite(0, 5)
        ctx.run_untraced(gen())
        assert ctx.tracer.stats.transactions == 0

    def test_run_concurrent(self):
        ctx = GPUContext(64)
        gens = [op(i)() for i in range(4)]
        results = ctx.run_concurrent(gens, seed=1)
        assert [r.value for r in results] == [0, 1, 2, 3]
