"""The conservation gates' checks and ``run_gate`` (:mod:`repro.gates`).

Every ``check`` is exercised on a healthy input and on doctored ones,
built with ``dataclasses.replace`` on the shared tiny run's frozen
stats. No gate's own run executes here: the small-preset runs, the
frontier sweep and the chaos subprocesses are what CI's gate job is for
(``tests/test_serve_chaos.py`` drives ``run_chaos`` at a trimmed size).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro import gates
from repro.analysis.frontier import CLEAN, FrontierCell, FrontierResult
from repro.analysis.verdicts import CheckResult, ScenarioVerdict
from repro.core.recovery import CheckpointStats
from repro.experiments.sharded import ShardStats
from repro.gates import (
    GATES,
    CrashRun,
    ScenarioOutcome,
    ScenarioRun,
    ServeRun,
    ShardRun,
    run_gate,
)
from repro.serve.chaos import ChaosError


def test_gate_names():
    assert list(GATES) == [
        "fault", "audit", "crash", "shard", "scenario", "frontier", "serve",
    ]


def _check(name, result):
    return GATES[name].check(result)


def _has(failures, fragment):
    return any(fragment in failure for failure in failures)


@pytest.fixture(scope="module")
def audited(tiny_result):
    """The tiny run's ledger, as an audited run reports it."""
    return replace(tiny_result.ledger_stats, audit=True)


# -- fault -----------------------------------------------------------------


@pytest.fixture(scope="module")
def stormy(tiny_result):
    stats = tiny_result.fault_stats
    return replace(
        tiny_result,
        fault_stats=replace(stats, enabled=True, greylist_deferrals=12),
    )


def test_fault_healthy(stormy):
    assert _check("fault", stormy) == []


@pytest.mark.parametrize(
    "doctor, fragment",
    [
        (dict(greylist_deferrals=0), "no greylist deferrals"),
        (dict(retries_scheduled=0), "no retries scheduled"),
        (dict(enabled=False), "fault plan was not installed"),
        (dict(delivered=0), "delivery conservation violated"),
    ],
)
def test_fault_doctored(stormy, doctor, fragment):
    result = replace(stormy, fault_stats=replace(stormy.fault_stats, **doctor))
    assert _has(_check("fault", result), fragment)


def test_fault_no_expiries(stormy):
    stats = stormy.fault_stats
    calm = replace(
        stats, expired=0, messages_sent=stats.messages_sent - stats.expired
    )
    failures = _check("fault", replace(stormy, fault_stats=calm))
    assert failures == ["no expiries — storms/outages had no visible effect"]


# -- audit -----------------------------------------------------------------


def test_audit_healthy(tiny_result, audited):
    assert _check("audit", replace(tiny_result, ledger_stats=audited)) == []


@pytest.mark.parametrize(
    "doctor, fragment",
    [
        (dict(quarantined_total=0), "no quarantined messages"),
        (dict(released=0, deleted=0), "no releases or deletes"),
        (dict(audit=False), "auditor was not enabled"),
        (dict(violations=("c00: 3 accepted != 2 terminal",)), "conservation"),
        (dict(delivered=0), "accepted !="),
    ],
)
def test_audit_doctored(tiny_result, audited, doctor, fragment):
    result = replace(tiny_result, ledger_stats=replace(audited, **doctor))
    assert _has(_check("audit", result), fragment)


def test_audit_empty_run(tiny_result, audited):
    empty = replace(
        audited,
        accepted=0, delivered=0, black_dropped=0, filter_dropped=0,
        released=0, deleted=0, expired=0, pending_at_horizon=0,
    )
    failures = _check("audit", replace(tiny_result, ledger_stats=empty))
    assert _has(failures, "no accepted messages")


# -- crash -----------------------------------------------------------------


@pytest.fixture(scope="module")
def crash_run(tiny_result):
    crashed = replace(
        tiny_result,
        crash_stats=replace(
            tiny_result.crash_stats, enabled=True, crashes=4,
            by_component=(("dispatcher", 4),),
        ),
        checkpoint_stats=CheckpointStats(written=2),
    )
    resumed = replace(
        tiny_result,
        checkpoint_stats=CheckpointStats(
            restored_from="/ckpt/checkpoint-000000432000.pkl"
        ),
    )
    return CrashRun(crashed, "d" * 64, resumed, "d" * 64)


def test_crash_healthy(crash_run):
    assert _check("crash", crash_run) == []


@pytest.mark.parametrize(
    "doctor, fragment",
    [
        (dict(lost=1), "1 messages lost in crashes"),
        (dict(journal_mismatches=2), "2 journal rebuild mismatches"),
        (dict(crashes=0), "no crashes injected"),
        (dict(enabled=False), "crash plan was not installed"),
    ],
)
def test_crash_doctored_stats(crash_run, doctor, fragment):
    result = crash_run.result
    doctored = replace(
        result, crash_stats=replace(result.crash_stats, **doctor)
    )
    assert _has(_check("crash", crash_run._replace(result=doctored)), fragment)


def test_crash_resume_not_identical(crash_run):
    failures = _check("crash", crash_run._replace(resumed_digest="e" * 64))
    assert failures == [
        "resume is not byte-identical: eeeeeeeeeeeeeeee != dddddddddddddddd"
    ]


def test_crash_nothing_to_resume(crash_run):
    no_snapshot = crash_run._replace(
        result=replace(crash_run.result, checkpoint_stats=CheckpointStats()),
        resumed=None,
        resumed_digest=None,
    )
    failures = _check("crash", no_snapshot)
    assert _has(failures, "no checkpoints written")
    assert _has(failures, "no snapshot found to resume from")


def test_crash_delivery_not_conserved(crash_run):
    result = crash_run.result
    leaky = replace(
        result, fault_stats=replace(result.fault_stats, delivered=0)
    )
    failures = _check("crash", crash_run._replace(result=leaky))
    assert failures == ["outbound delivery conservation violated"]


def test_crash_artifact_records_the_resume(crash_run):
    name, payload = GATES["crash"].artifact(crash_run)
    assert name == "crash_smoke_timing.json"
    assert payload["resume_identical"] is True
    assert payload["crashes_by_component"] == {"dispatcher": 4}
    assert (payload["preset"], payload["seed"]) == ("small", 11)
    json.dumps(payload)  # serialisable as written


# -- shard -----------------------------------------------------------------


def _sharded(result, ledger, exchange_rows):
    stats = ShardStats(
        n_shards=2, jobs=1, owners={},
        manifests={(0, 0): (exchange_rows, "x")}, per_shard=(),
    )
    return replace(result, shard_stats=stats, ledger_stats=ledger)


@pytest.fixture(scope="module")
def shard_run(tiny_result, audited):
    rows = len(tiny_result.store.mta)
    return ShardRun("d" * 64, "d" * 64, _sharded(tiny_result, audited, rows))


def test_shard_healthy(shard_run):
    assert _check("shard", shard_run) == []


def test_shard_digest_mismatch(shard_run):
    failures = _check("shard", shard_run._replace(sharded_digest="e" * 64))
    assert failures == [
        "sharded store digest diverged from the single-process run"
    ]


def test_shard_exchange_unreconciled(shard_run, tiny_result, audited):
    rows = len(tiny_result.store.mta)
    short = shard_run._replace(
        sharded=_sharded(tiny_result, audited, rows - 1)
    )
    assert _has(_check("shard", short), "exchange rows reconciled")


def test_shard_ledger_unaudited(shard_run, tiny_result):
    unaudited = shard_run._replace(
        sharded=replace(shard_run.sharded, ledger_stats=tiny_result.ledger_stats)
    )
    assert _has(_check("shard", unaudited), "auditor was not enabled")


# -- scenario --------------------------------------------------------------


def _verdict(error=None):
    check = CheckResult(
        name="released", metric="released", op=">=", value=1.0,
        observed=0.0 if error else 3.0, passed=error is None, error=error,
    )
    return ScenarioVerdict(scenario="trap-bombing", checks=(check,))


@pytest.fixture(scope="module")
def scenario_run(shard_run, audited):
    outcome = ScenarioOutcome("trap-bombing", 40, _verdict(), audited)
    return ScenarioRun((outcome,), shard_run)


def test_scenario_healthy(scenario_run):
    assert _check("scenario", scenario_run) == []


def test_scenario_failed_verdict_still_passes_the_gate(scenario_run):
    """A verdict that evaluates to FAIL is a finding, not a gate failure;
    only a check that could not evaluate is."""
    outcome = scenario_run.outcomes[0]
    failed = replace(outcome.verdict, checks=(
        replace(outcome.verdict.checks[0], observed=0.0, passed=False),
    ))
    run = scenario_run._replace(outcomes=(outcome._replace(verdict=failed),))
    assert _check("scenario", run) == []


def test_scenario_errored_check(scenario_run):
    outcome = scenario_run.outcomes[0]._replace(verdict=_verdict("KeyError"))
    failures = _check("scenario", scenario_run._replace(outcomes=(outcome,)))
    assert failures == [
        "trap-bombing: check 'released' errored instead of evaluating: KeyError"
    ]


def test_scenario_attack_never_fired(scenario_run):
    outcome = scenario_run.outcomes[0]._replace(attack_rows=0)
    failures = _check("scenario", scenario_run._replace(outcomes=(outcome,)))
    assert failures == ["trap-bombing: attack never fired (0 dispatch rows)"]


def test_scenario_ledger_not_conserved(scenario_run):
    outcome = scenario_run.outcomes[0]
    broken = outcome._replace(
        ledger=replace(outcome.ledger, violations=("c00: stranded",))
    )
    failures = _check("scenario", scenario_run._replace(outcomes=(broken,)))
    assert failures == ["trap-bombing: conservation: c00: stranded"]


def test_scenario_empty_pack(scenario_run):
    assert _check("scenario", scenario_run._replace(outcomes=())) == [
        "scenario pack is empty"
    ]


def test_scenario_sharded_digest_mismatch(scenario_run):
    shard = scenario_run.shard._replace(sharded_digest="e" * 64)
    failures = _check("scenario", scenario_run._replace(shard=shard))
    assert failures == [
        "sharded captcha-farm digest diverged from the single-process run"
    ]


# -- frontier --------------------------------------------------------------


def _frontier(cr_spam=100):
    cells = (
        FrontierCell(CLEAN, "cr-only", (3,), cr_spam, 0, 100, 1),
        FrontierCell(CLEAN, "naive-bayes", (3,), 100, 5, 100, 8),
    )
    return FrontierResult(
        "tiny", (3,), (CLEAN,), ("cr-only", "naive-bayes"), cells
    )


def test_frontier_healthy():
    assert _check("frontier", _frontier()) == []


def test_frontier_gate_never_reads_the_cache():
    """run_frontier's defaults (tiny, FRONTIER_SEEDS, the whole pack) and
    no runner, so it builds one without a result cache."""
    assert GATES["frontier"].run.keywords == {"jobs": gates.JOBS}


def test_frontier_degenerate_cell():
    failures = _check("frontier", _frontier(cr_spam=0))
    assert _has(failures, "degenerate cell (clean) x cr-only")


# -- serve -----------------------------------------------------------------


REPORT = {
    "kills": 20,
    "cumulative_acked": 2900,
    "final_reconciliation": {"accepted": 2904, "reconciled": True},
    "torn_tails_seen": 3,
    "zero_loss": True,
    "clean_burst": {
        "sustained_msgs_per_sec": 299.1,
        "accept_latency_ms": {"p99": 8.2},
    },
}


def test_serve_healthy():
    assert _check("serve", ServeRun(report=REPORT)) == []


def test_serve_chaos_error():
    failures = _check("serve", ServeRun(error="LOST MESSAGES — 3 missing"))
    assert failures == ["chaos: LOST MESSAGES — 3 missing"]


@pytest.mark.parametrize("outcome", ["pass", "fail"])
def test_serve_leaves_no_workdir(monkeypatch, outcome):
    """The chaos WAL directory is removed whether the gate passes or not."""
    seen = []

    async def fake_chaos(workdir, **knobs):
        assert knobs == gates.CHAOS
        with open(os.path.join(workdir, "chaos.wal"), "wb") as handle:
            handle.write(b"record")
        seen.append(workdir)
        if outcome == "fail":
            raise ChaosError("LOST MESSAGES")
        return REPORT

    monkeypatch.setattr(gates, "run_chaos", fake_chaos)
    result = gates.run_serve()
    assert (result.error is None) == (outcome == "pass")
    assert seen and not os.path.exists(seen[0])


# -- run_gate --------------------------------------------------------------


def test_run_gate_healthy_writes_artifact(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(
        GATES, "serve", GATES["serve"]._replace(run=lambda: ServeRun(REPORT))
    )
    assert run_gate("serve") == 0
    out = capsys.readouterr()
    assert "20 kill -9 injections" in out.out
    assert "gate serve OK" in out.out
    assert out.err == ""
    written = json.loads((tmp_path / "serve_smoke_report.json").read_text())
    assert written == REPORT


def test_run_gate_failure_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(
        GATES, "serve",
        GATES["serve"]._replace(run=lambda: ServeRun(error="LOST MESSAGES")),
    )
    assert run_gate("serve") == 1
    out = capsys.readouterr()
    assert "FAIL: chaos: LOST MESSAGES" in out.err
    assert "gate serve FAILED" in out.out
    assert not (tmp_path / "serve_smoke_report.json").exists()


def test_run_gate_renders_registry_report(monkeypatch, tiny_result, capsys):
    doctored = replace(
        tiny_result,
        ledger_stats=replace(tiny_result.ledger_stats, quarantined_total=0),
    )
    monkeypatch.setitem(
        GATES, "audit", GATES["audit"]._replace(run=lambda: doctored)
    )
    assert run_gate("audit") == 1
    out = capsys.readouterr()
    assert "Terminal-state mix of accepted messages" in out.out
    assert "FAIL: no quarantined messages" in out.err
