"""One serve config: its default table and its validator.

``ServeCampaignConfig`` is the only description of a serve run, so a
bare ``serve-bench`` must parse to the config's own defaults, and every
setting the config can judge alone is refused there with a typed error
naming the flag -- never dropped or clamped on the way to the frontend.
"""

import pytest

import repro.cli as cli
from repro import serve
from repro.chaos import ServeChaosConfig
from repro.serve import LoadConfig, ServeCampaignConfig
from repro.serve.config import NEEDS


def parse(*argv):
    return cli.build_parser().parse_args(["serve-bench", *argv])


def test_bare_serve_bench_is_the_default_config():
    assert cli.serve_campaign_config(parse()) \
        == ServeCampaignConfig(load=LoadConfig(**cli.SERVE_LOAD))


def test_bare_serve_bench_chaos_flags_are_the_chaos_defaults():
    """The chaos flags default to ``ServeChaosConfig``'s fields, so a
    lone ``--freeze-shard`` runs the config's own default window."""
    defaults = ServeChaosConfig()
    parsed = vars(parse())
    flagged = [name for name in vars(defaults) if name in parsed]
    assert set(vars(defaults)) - set(flagged) == {"frozen_windows"}
    for name in flagged:
        assert parsed[name] == getattr(defaults, name), name
    assert cli.serve_campaign_config(parse("--freeze-shard", "1")).chaos \
        == ServeChaosConfig(freeze_shard=1)


def test_every_policy_flag_defaults_to_its_field():
    defaults = ServeCampaignConfig()
    parsed = vars(parse())
    policy = [name for name in vars(defaults) if name in parsed]
    assert set(vars(defaults)) - set(policy) == {
        "load", "chaos", "range_depth", "shed_occupancy",
        "backpressure_steps", "reshard_hot_ticks", "reshard_cooldown",
        "reshard_min_keys", "retry_base_steps", "max_steps"}
    for name in policy:
        assert parsed[name] == getattr(defaults, name), name


@pytest.mark.parametrize("argv,flag", [
    (["--freeze-shard", "9"], "--freeze-shard"),
    (["--abort-migrations", "1"], "--abort-migrations"),
    (["--max-migrations", "9"], "--max-migrations"),
    (["--min-window", "500", "--max-window", "10"], "--min-window"),
    (["--coalesce-size", "0"], "--coalesce-size"),
    (["--coalesce-steps", "0"], "--coalesce-steps"),
    (["--structure", "gfsl", "--headroom", "2"], "--headroom"),
    (["--structure", "gfsl", "--partitioner", "hash"], "--partitioner"),
    (["--admit-rate", "-5"], "--admit-rate"),
    (["--freeze-shard", "1", "--freeze-steps", "0"], "--freeze-steps"),
    (["--adaptive", "--admit-rate", "0.5"], "--admit-rate"),
    (["--adaptive", "--min-window", "700"], "--min-window"),
    (["--adaptive", "--max-window", "5"], "--max-window"),
    (["--adaptive", "--target-p99", "0"], "--target-p99"),
    (["--structure", "mc"], "--structure"),
    (["--structure", "mc@2"], "--structure"),
    (["--requests", "0"], "--requests"),
    (["--deadline-steps", "0"], "--deadline-steps"),
])
def test_silent_downgrades_are_usage_errors(capsys, monkeypatch, argv, flag):
    """Each of these used to run to completion with the setting
    dropped, clamped or never hit, or failed only once the campaign had
    built its plan and structure.  Now the config refuses it first."""
    def build_nothing(*args, **kwargs):
        raise AssertionError("a bad setting reached the campaign")

    monkeypatch.setattr(serve, "run_serve_campaign", build_nothing)
    with pytest.raises(ValueError, match=flag):
        cli.serve_campaign_config(parse("--requests", "200", *argv))
    assert cli.main(["serve-bench", "--requests", "200", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("serve-bench: ")
    assert flag in err


@pytest.mark.parametrize("name,value", [
    ("target_p99", 90.0), ("control_interval", 100), ("min_window", 10),
    ("max_window", 900), ("reshard_hot_ticks", 3), ("reshard_cooldown", 2),
    ("reshard_max_migrations", 9), ("reshard_min_keys", 8),
    ("partitioner", "range"), ("headroom", 2.0)])
def test_mode_only_fields_need_their_mode(name, value):
    """A non-default value of a field that only acts under a condition
    (a mode, or a sharded structure) while the condition does not hold."""
    with pytest.raises(ValueError, match=f"needs {NEEDS[name]}"):
        ServeCampaignConfig(structure="gfsl", **{name: value})


def test_frozen_windows_must_name_a_shard():
    chaos = ServeChaosConfig(frozen_windows=((4, 0, 100),))
    with pytest.raises(ValueError, match="not a shard of gfsl@4"):
        ServeCampaignConfig(chaos=chaos)
    ServeCampaignConfig(structure="gfsl@8", chaos=chaos)


@pytest.mark.parametrize("kw", [
    {"freeze_shard": 1, "freeze_steps": 0},
    {"freeze_shard": 1, "freeze_steps": -3},
    {"frozen_windows": ((0, 100, 50), (1, 100, 0))},
])
def test_zero_step_freeze_is_refused(kw):
    """A freeze of no steps used to vanish from ``windows()``, leaving
    ``any_faults`` false."""
    with pytest.raises(ValueError, match="--freeze-steps"):
        ServeChaosConfig(**kw)
    assert ServeChaosConfig(freeze_shard=1, freeze_steps=1).windows() \
        == [(1, 400, 1)]

