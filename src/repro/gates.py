"""Conservation gates: ``python -m repro gate NAME``.

A gate is one fixed run (preset, seed and weather are constants) and a
``check(result) -> list[str]`` returning failure strings, empty when
healthy. Each check also fails a run too calm to prove anything (no
deferrals, no crashes, no attack rows), so a feature that silently
switched off cannot pass vacuously.

* ``fault`` — small/11, stormy weather: delivery conservation;
* ``audit`` — small/11, audited: lifecycle-ledger conservation;
* ``crash`` — small/11, flaky components: zero loss, resume ≡ uninterrupted;
* ``shard`` — small/11, audited: shards=2 ≡ shards=1;
* ``scenario`` — every pack scenario at tiny/7, audited, plus a sharded run;
* ``frontier`` — the FP/FN frontier at ``run_frontier``'s defaults (tiny,
  ``FRONTIER_SEEDS``, the whole pack), never from the result cache;
* ``serve`` — 20 kill -9s of a real server (:mod:`repro.serve.chaos`).

:func:`run_gate` runs any gate: it prints the gate's summary (the
registry report, for the single-run gates), writes its JSON artifact if
it has one, prints each failure as ``FAIL: ...`` to stderr and returns
the exit code.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.analysis import verdicts
from repro.analysis.frontier import check_frontier, render, run_frontier
from repro.core.recovery import latest_checkpoint
from repro.experiments.parallel import store_digest
from repro.experiments.registry import run_experiment
from repro.experiments.runner import (
    LedgerStats,
    RunSpec,
    SimulationResult,
    _unique_mtas,
    run,
)
from repro.scenarios import scenario_names
from repro.serve.chaos import ChaosError, run_chaos
from repro.util.simtime import DAY

FAULT_SPEC = RunSpec("small", seed=11, faults="stormy")
AUDIT_SPEC = RunSpec("small", seed=11, audit=True)
CRASH_SPEC = replace(AUDIT_SPEC, crashes="flaky", checkpoint_every=5 * DAY)
#: Every pack scenario runs as this spec with ``scenario`` filled in.
SCENARIO_SPEC = RunSpec("tiny", seed=7, audit=True)
SHARDED_SCENARIO_SPEC = RunSpec("tiny", seed=11, scenario="captcha-farm")
#: Frontier worker processes (the full pack is 135 tiny runs).
JOBS = min(4, os.cpu_count() or 1)
#: ``run_chaos`` keywords of the serve gate.
CHAOS = dict(kills=20, rate=300.0, messages_per_burst=150, rng_seed=1234)


def _ledger_failures(ledger: LedgerStats, where: str = "") -> list:
    """An audited ledger that conserves: every accepted message reached
    exactly one terminal disposition."""
    failures = []
    if not ledger.audit:
        failures.append(f"{where}auditor was not enabled (ledger.audit is False)")
    failures.extend(f"{where}conservation: {v}" for v in ledger.violations)
    if ledger.accepted != ledger.terminal_total:
        failures.append(
            f"{where}{ledger.accepted} accepted != "
            f"{ledger.terminal_total} terminal"
        )
    return failures


def check_fault(result: SimulationResult) -> list:
    stats = result.fault_stats
    failures = []
    if not stats.conserved:
        failures.append(
            "delivery conservation violated: "
            f"{stats.messages_sent} != "
            f"{stats.delivered} + {stats.bounced} + {stats.expired}"
        )
    in_flight = sum(m.in_flight for m in _unique_mtas(result.installations))
    if in_flight:
        failures.append(f"{in_flight} messages still in flight after drain")
    if not stats.enabled:
        failures.append("fault plan was not installed (stats.enabled is False)")
    if stats.greylist_deferrals == 0:
        failures.append("no greylist deferrals — weather did not happen")
    if stats.retries_scheduled == 0:
        failures.append("no retries scheduled — weather did not happen")
    if stats.expired == 0:
        failures.append("no expiries — storms/outages had no visible effect")
    return failures


def check_audit(result: SimulationResult) -> list:
    stats = result.ledger_stats
    failures = _ledger_failures(stats)
    if stats.accepted == 0:
        failures.append("no accepted messages — workload produced no traffic")
    if stats.quarantined_total == 0:
        failures.append("no quarantined messages — gray path never exercised")
    if stats.released + stats.deleted == 0:
        failures.append(
            "no releases or deletes — digest/challenge paths never exercised"
        )
    return failures


class CrashRun(NamedTuple):
    """The checkpointed crash run and its resume from the newest snapshot
    (``resumed`` is ``None`` when no snapshot was found)."""

    result: SimulationResult
    digest: str
    resumed: Optional[SimulationResult] = None
    resumed_digest: Optional[str] = None


def run_crash() -> CrashRun:
    with tempfile.TemporaryDirectory(prefix="crash-gate-") as checkpoint_dir:
        result = run(CRASH_SPEC, checkpoint_dir=checkpoint_dir)
        digest = store_digest(result.store)
        snapshot = latest_checkpoint(checkpoint_dir)
        if snapshot is None:
            return CrashRun(result, digest)
        resumed = run(CRASH_SPEC, resume_from=str(snapshot))
        return CrashRun(result, digest, resumed, store_digest(resumed.store))


def check_crash(crash_run: CrashRun) -> list:
    result = crash_run.result
    crash = result.crash_stats
    failures = []
    if not crash.enabled:
        failures.append("crash plan was not installed (crash_stats.enabled is False)")
    if crash.crashes == 0:
        failures.append("no crashes injected — the weather was too calm")
    if crash.lost:
        failures.append(f"{crash.lost} messages lost in crashes")
    if crash.journal_mismatches:
        failures.append(f"{crash.journal_mismatches} journal rebuild mismatches")
    if not result.fault_stats.conserved:
        failures.append("outbound delivery conservation violated")
    if result.checkpoint_stats.written == 0:
        failures.append("no checkpoints written — nothing to restore")
    if crash_run.resumed is None:
        failures.append("no snapshot found to resume from")
    elif crash_run.resumed_digest != crash_run.digest:
        failures.append(
            "resume is not byte-identical: "
            f"{crash_run.resumed_digest[:16]} != {crash_run.digest[:16]}"
        )
    return failures


def describe_crash(crash_run: CrashRun) -> str:
    ckpt = crash_run.result.checkpoint_stats
    line = f"{ckpt.written} checkpoints in {ckpt.write_seconds:.3f}s"
    if crash_run.resumed is not None:
        restored = crash_run.resumed.checkpoint_stats
        line += (
            f"; resumed from {os.path.basename(restored.restored_from)} "
            f"(restore {restored.restore_seconds:.3f}s, "
            f"re-run {crash_run.resumed.wall_seconds:.1f}s wall)"
        )
    return line + "\n\n" + run_experiment("recovery", crash_run.result)


def crash_artifact(crash_run: CrashRun):
    result, resumed = crash_run.result, crash_run.resumed
    crash, ckpt = result.crash_stats, result.checkpoint_stats
    return "crash_smoke_timing.json", {
        "preset": CRASH_SPEC.preset,
        "seed": CRASH_SPEC.seed,
        "crashes": CRASH_SPEC.crashes,
        "crash_count": crash.crashes,
        "crashes_by_component": dict(crash.by_component),
        "messages_lost": crash.lost,
        "journal_mismatches": crash.journal_mismatches,
        "wall_seconds": result.wall_seconds,
        "resumed_wall_seconds": resumed and resumed.wall_seconds,
        "checkpoints_written": ckpt.written,
        "checkpoint_write_seconds": ckpt.write_seconds,
        "checkpoint_mean_write_seconds": ckpt.mean_write_seconds,
        "restore_seconds": resumed and resumed.checkpoint_stats.restore_seconds,
        "store_digest": crash_run.digest,
        "resumed_store_digest": crash_run.resumed_digest,
        "resume_identical": crash_run.resumed_digest == crash_run.digest,
    }


class ShardRun(NamedTuple):
    """A 2-shard run and the shards=1 store digest it must match."""

    base_digest: str
    sharded_digest: str
    sharded: SimulationResult


def run_shard(spec: RunSpec = AUDIT_SPEC) -> ShardRun:
    base = run(spec)
    sharded = run(replace(spec, shards=2), shard_jobs=2)
    return ShardRun(store_digest(base.store), store_digest(sharded.store), sharded)


def _digest_failures(shard_run: ShardRun, what: str) -> list:
    if shard_run.sharded_digest == shard_run.base_digest:
        return []
    return [f"sharded {what} digest diverged from the single-process run"]


def check_shard(shard_run: ShardRun) -> list:
    failures = _digest_failures(shard_run, "store")
    stats = shard_run.sharded.shard_stats
    mta_rows = len(shard_run.sharded.store.mta)
    if stats.exchange_rows != mta_rows:
        failures.append(
            f"{stats.exchange_rows} exchange rows reconciled != {mta_rows} mta rows"
        )
    return failures + _ledger_failures(shard_run.sharded.ledger_stats)


def describe_shard(shard_run: ShardRun) -> str:
    return (
        f"{shard_run.sharded.shard_stats.exchange_rows} exchange rows; digest "
        f"{shard_run.sharded_digest[:16]}, {shard_run.base_digest[:16]} at shards=1"
    )


class ScenarioOutcome(NamedTuple):
    """One pack scenario's audited run, reduced to what the gate checks."""

    name: str
    attack_rows: int
    verdict: verdicts.ScenarioVerdict
    ledger: LedgerStats


class ScenarioRun(NamedTuple):
    outcomes: tuple
    #: The sharded ``captcha-farm`` cross-check.
    shard: ShardRun


def run_scenario() -> ScenarioRun:
    outcomes = []
    for name in scenario_names():
        result = run(replace(SCENARIO_SPEC, scenario=name))
        attack_rows = sum(
            1
            for r in result.store.dispatch
            if (r.campaign_id or "").startswith("attack-")
        )
        outcomes.append(
            ScenarioOutcome(
                name,
                attack_rows,
                verdicts.evaluate(result, result.scenario),
                result.ledger_stats,
            )
        )
    return ScenarioRun(tuple(outcomes), run_shard(SHARDED_SCENARIO_SPEC))


def check_scenario(scenario_run: ScenarioRun) -> list:
    failures = [] if scenario_run.outcomes else ["scenario pack is empty"]
    for name, attack_rows, verdict, ledger in scenario_run.outcomes:
        if attack_rows == 0:
            failures.append(f"{name}: attack never fired (0 dispatch rows)")
        failures.extend(
            f"{name}: check {check.name!r} errored instead of "
            f"evaluating: {check.error}"
            for check in verdict.checks
            if check.error is not None
        )
        failures.extend(_ledger_failures(ledger, f"{name}: "))
    return failures + _digest_failures(scenario_run.shard, "captcha-farm")


def describe_scenario(scenario_run: ScenarioRun) -> str:
    parts = [
        f"{outcome.name}: {outcome.attack_rows} attack rows, "
        f"ledger {outcome.ledger.accepted} accepted\n"
        + verdicts.render(outcome.verdict)
        for outcome in scenario_run.outcomes
    ]
    parts.append("sharded captcha-farm: " + describe_shard(scenario_run.shard))
    return "\n\n".join(parts)


class ServeRun(NamedTuple):
    """The chaos report, or the :class:`ChaosError` that ended the run."""

    report: Optional[dict] = None
    error: Optional[str] = None


def run_serve() -> ServeRun:
    with tempfile.TemporaryDirectory(prefix="serve-gate-") as workdir:
        try:
            return ServeRun(report=asyncio.run(run_chaos(workdir, **CHAOS)))
        except ChaosError as exc:
            return ServeRun(error=str(exc))


def check_serve(serve_run: ServeRun) -> list:
    return [] if serve_run.error is None else [f"chaos: {serve_run.error}"]


def describe_serve(serve_run: ServeRun) -> str:
    report = serve_run.report
    if report is None:
        return "chaos harness aborted"
    burst = report["clean_burst"]
    return (
        f"{report['kills']} kill -9 injections, "
        f"{report['cumulative_acked']} acked / "
        f"{report['final_reconciliation']['accepted']} accepted, "
        f"{report['torn_tails_seen']} torn WAL tails repaired; "
        f"clean burst {burst['sustained_msgs_per_sec']} msgs/s, "
        f"p99 accept {burst['accept_latency_ms']['p99']} ms"
    )


def serve_artifact(serve_run: ServeRun):
    if serve_run.report is not None:
        return "serve_smoke_report.json", serve_run.report
    return None


class Gate(NamedTuple):
    """How to run one gate, check its result and report it."""

    run: Callable[[], object]
    check: Callable[[object], list]
    describe: Callable[[object], str]
    #: ``result -> (file name, JSON payload)``, or ``None`` for no file.
    artifact: Optional[Callable[[object], Optional[tuple]]] = None


GATES = {
    "fault": Gate(
        partial(run, FAULT_SPEC), check_fault, partial(run_experiment, "faults")
    ),
    "audit": Gate(
        partial(run, AUDIT_SPEC), check_audit, partial(run_experiment, "audit")
    ),
    "crash": Gate(run_crash, check_crash, describe_crash, crash_artifact),
    "shard": Gate(run_shard, check_shard, describe_shard),
    "scenario": Gate(run_scenario, check_scenario, describe_scenario),
    "frontier": Gate(partial(run_frontier, jobs=JOBS), check_frontier, render),
    "serve": Gate(run_serve, check_serve, describe_serve, serve_artifact),
}


def run_gate(name: str) -> int:
    """Run gate *name*, report it, and return 0 if healthy, else 1."""
    gate = GATES[name]
    started = time.perf_counter()
    result = gate.run()
    print(gate.describe(result))
    artifact = gate.artifact(result) if gate.artifact else None
    if artifact is not None:
        path, payload = artifact
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"artifact written to {path}")
    failures = gate.check(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    elapsed = time.perf_counter() - started
    print(f"gate {name} {'FAILED' if failures else 'OK'} ({elapsed:.1f}s)")
    return 1 if failures else 0


__all__ = ["GATES", "Gate", "run_gate"]
