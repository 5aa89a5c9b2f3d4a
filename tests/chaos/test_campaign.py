"""Campaign-level tests (repro.chaos.campaign): the tentpole acceptance
criteria live here.

* Property: seeded adversarial campaigns leave the structure passing
  every ``validate_structure`` invariant and the recorded history
  linearizable.
* Acceptance: a 10k-op campaign injects faults at every injection
  point and still checks out.
* Checker validation: a deliberately planted bug is caught fast, and
  the shrinker reduces the failing configuration to a smaller one that
  still reproduces, printable as a one-line repro command.
* Typed failures (LockTimeout, LivelockDetected) land in the report
  instead of escaping.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.chaos import (CampaignConfig, repro_command, run_campaign,
                         shrink_campaign)
from repro.chaos.faults import FAULT_KINDS, ChaosConfig


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_adversarial_campaign_clean(seed):
    """Property satellite: post-campaign structure passes every
    core/validate.py invariant and the history is linearizable."""
    report = run_campaign(CampaignConfig(n_ops=800, seed=seed))
    assert report.error is None, report.summary()
    assert report.ok, report.summary()
    assert report.lin is not None and report.lin.ok
    assert report.invariant_error is None
    assert report.invariants is not None      # validate_structure ran
    assert report.faults_injected > 0
    assert "ok" in report.summary()


def test_acceptance_10k_ops_all_fault_kinds():
    """ISSUE acceptance: >= 10k ops, >= 200 injected faults covering
    every injection-point kind, campaign linearizable + invariant-clean."""
    report = run_campaign(CampaignConfig(n_ops=10_000, seed=42))
    assert report.ok, report.summary()
    assert report.faults_injected >= 200
    injected = {k for k, v in report.fault_counts.items() if v > 0}
    assert injected == set(FAULT_KINDS)


def test_planted_bug_caught_and_shrunk():
    """ISSUE acceptance: the planted skip-zombie-recheck bug is caught
    by the linearizability checker in well under 30s, and the shrinker
    hands back a smaller configuration that still fails."""
    t0 = time.monotonic()
    cfg = CampaignConfig(
        n_ops=2_000, seed=0,
        faults=ChaosConfig.adversarial(bug="skip-zombie-recheck"))
    report = run_campaign(cfg)
    assert not report.ok
    assert report.error is None               # caught by the checker,
    assert report.lin is not None             # not by a crash
    assert report.lin.violations
    assert "FAIL" in report.summary()

    small = shrink_campaign(cfg, max_runs=10)
    assert small.n_ops <= cfg.n_ops
    assert not run_campaign(small).ok         # still reproduces
    cmd = repro_command(small)
    assert cmd.startswith("PYTHONPATH=src python -m repro chaos")
    assert "--bug skip-zombie-recheck" in cmd
    assert time.monotonic() - t0 < 30.0


def test_lock_timeout_lands_in_report():
    cfg = CampaignConfig(n_ops=200, seed=1,
                         faults=ChaosConfig(fail_lock_cas=0.9),
                         lock_retry_limit=2)
    report = run_campaign(cfg)
    assert not report.ok
    assert report.error is not None and "LockTimeout" in report.error
    assert "FAIL" in report.summary()


def test_livelock_lands_in_report():
    cfg = CampaignConfig(n_ops=60, seed=2, task_step_budget=30)
    report = run_campaign(cfg)
    assert not report.ok
    assert report.error is not None and "LivelockDetected" in report.error


def test_repro_command_reflects_config():
    base = CampaignConfig()
    cmd = repro_command(base)
    assert "--seed 0" in cmd and "--ops 2000" in cmd
    assert "--mix 20 20 60" in cmd
    assert "--no-faults" not in cmd

    dropped = replace(base, faults=base.faults.without("stall_split"))
    assert "--disable stall_split" in repro_command(dropped)

    quiet = replace(base, faults=ChaosConfig())
    assert "--no-faults" in repro_command(quiet)


@pytest.mark.parametrize("structure", ["mc", "mc@4"])
def test_non_gfsl_structure_rejected_before_running(monkeypatch, structure):
    """The quiesced audit checks GFSL invariants, so an M&C campaign is
    refused up front with the cause — not after the whole run."""
    import repro.chaos.campaign as campaign

    def never(*args, **kwargs):
        raise AssertionError("workload generated for a rejected campaign")

    monkeypatch.setattr(campaign, "generate", never)
    with pytest.raises(ValueError, match="GFSL"):
        run_campaign(CampaignConfig(n_ops=50, structure=structure))


def test_cli_reports_rejected_structure_on_one_line(capsys):
    from repro import cli

    code = cli.main(["chaos", "--structure", "mc@4", "--ops", "50"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("chaos: ") and err.count("\n") == 1
    assert "'mc@4'" in err


def test_cli_refuses_zero_concurrency(capsys):
    """The interleaved backend would run a zero-concurrency campaign at
    concurrency 1 while the summary printed ``conc=0``."""
    from repro import cli

    with pytest.raises(ValueError, match="--concurrency"):
        CampaignConfig(concurrency=0)
    code = cli.main(["chaos", "--concurrency", "0", "--ops", "50"])
    assert code == 2
    assert capsys.readouterr().err \
        == "chaos: --concurrency must be at least 1 (got 0)\n"


def test_cli_refuses_zero_ops(capsys):
    """A 0-op campaign used to print ``chaos OK`` having checked nothing."""
    from repro import cli

    assert cli.main(["chaos", "--ops", "0"]) == 2
    assert capsys.readouterr().err \
        == "chaos: --ops must be at least 1 (got 0)\n"


@pytest.mark.parametrize("n_ops", [1, 3, 2_000])
def test_shrink_never_proposes_fewer_than_one_op(monkeypatch, n_ops):
    import repro.chaos.campaign as campaign

    proposed = []
    monkeypatch.setattr(campaign, "_fails",
                        lambda cfg: proposed.append(cfg.n_ops) or True)
    small = shrink_campaign(CampaignConfig(n_ops=n_ops), max_runs=40)
    assert min(proposed, default=n_ops) >= 1 and small.n_ops >= 1
