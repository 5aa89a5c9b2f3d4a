"""OutOfChunks diagnostics: the exhaustion report is actionable."""

import pytest

from repro.core import GFSL, suggest_capacity
from repro.core.pool import OutOfChunks


def test_message_and_fields_on_device_exhaustion():
    sl = GFSL(capacity_chunks=20, team_size=16, seed=1)
    with pytest.raises(OutOfChunks) as exc:
        for k in range(1, 2000):
            sl.insert(k)
    err = exc.value
    # Structured fields for programmatic handling.
    assert err.capacity == 20
    assert err.allocated == 20
    assert err.live_chunks is not None and 0 < err.live_chunks <= 20
    assert err.occupancy is not None and 0.0 <= err.occupancy <= 1.0
    assert err.live_keys is not None and err.live_keys > 0
    assert err.suggested_capacity == suggest_capacity(err.live_keys,
                                                      team_size=16)
    assert err.suggested_capacity > err.capacity
    # Message carries the same diagnostics for humans and logs.
    msg = str(err)
    assert "chunk pool exhausted" in msg
    for field in ("capacity=20", "allocated=20", "live_chunks=",
                  "occupancy=", "live_keys=", "suggested_capacity="):
        assert field in msg, f"{field!r} missing from {msg!r}"


def test_bulk_build_failure_reports_sizing():
    from repro.core.bulk import bulk_build_into
    sl = GFSL(capacity_chunks=20, team_size=16, seed=1)
    keys = range(1, 2000)
    with pytest.raises(OutOfChunks) as exc:
        bulk_build_into(sl, keys)
    err = exc.value
    assert err.capacity == 20
    assert err.live_keys == len(keys)
    assert err.suggested_capacity == suggest_capacity(len(keys),
                                                      team_size=16)
    assert "suggested_capacity=" in str(err)


def test_fields_default_to_none_and_stay_out_of_message():
    err = OutOfChunks("boom", capacity=7)
    assert str(err) == "boom [capacity=7]"
    assert err.allocated is None and err.live_keys is None
    bare = OutOfChunks("plain")
    assert str(bare) == "plain"
