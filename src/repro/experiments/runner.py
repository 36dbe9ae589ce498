"""Describe one simulated deployment, build it, run it, collect its logs.

A :class:`RunSpec` is the one description of a run. :func:`run` executes
it: :func:`build_deployment` builds the world and installs and seeds one
:class:`~repro.core.engine.CompanyInstallation` per company, then the
runner arms the blacklist probe monitor and the trace generator, runs
the clock over the observation window (plus a drain period for in-flight
challenge retries), and returns everything the analysis pipeline needs.
:func:`run_simulation` is the one-line form used by tests, benchmarks
and examples; the live server builds its deployment through
:func:`build_deployment` too.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Union

from repro._version import __version__
from repro.analysis.context import DeploymentInfo
from repro.analysis.store import (
    SPILL_CHUNK_ROWS,
    TABLES,
    LogStore,
    SpillConfig,
)
from repro.blacklistd.monitor import BlacklistMonitor
from repro.core.config import FilterChainSpec, FilterSettings
from repro.core.engine import CompanyInstallation
from repro.core.ledger import LedgerError, LedgerSnapshot
from repro.core.message import reset_msg_ids
from repro.core.recovery import (
    CheckpointError,
    Checkpointer,
    CheckpointStats,
    RunState,
    latest_checkpoint,
    load_checkpoint,
)
from repro.net.crashes import CrashPlan, CrashSettings, get_crash_preset
from repro.net.exchange import ShardContext, ShardExchange, ShardMap
from repro.net.faults import FaultPlan, FaultSettings, get_fault_preset
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams
from repro.util.simtime import DAY
from repro.workload.behavior import BehaviorModel
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.entities import World, build_world
from repro.workload.generator import TraceGenerator
from repro.workload.scale import ScaleConfig, get_preset


@dataclass(frozen=True)
class SubstrateCacheStats:
    """Hit/miss counters of the simulated-substrate caches after one run."""

    dns_hits: int
    dns_misses: int
    dnsbl_hits: int
    dnsbl_misses: int
    route_hits: int
    route_misses: int

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def dns_hit_rate(self) -> float:
        return self._rate(self.dns_hits, self.dns_misses)

    @property
    def dnsbl_hit_rate(self) -> float:
        return self._rate(self.dnsbl_hits, self.dnsbl_misses)

    @property
    def route_hit_rate(self) -> float:
        return self._rate(self.route_hits, self.route_misses)

    @classmethod
    def collect(cls, world: World) -> "SubstrateCacheStats":
        services = list(world.services.values())
        return cls(
            dns_hits=world.resolver.cache_hits,
            dns_misses=world.resolver.cache_misses,
            dnsbl_hits=sum(s.cache_hits for s in services),
            dnsbl_misses=sum(s.cache_misses for s in services),
            route_hits=world.internet.route_hits,
            route_misses=world.internet.route_misses,
        )


@dataclass(frozen=True)
class FaultStats:
    """Fault-injection counters plus the delivery-conservation ledger.

    Collected after every run (faults enabled or not): the conservation
    invariant — every message handed to an outbound MTA reached exactly
    one terminal status — is checked unconditionally.
    """

    enabled: bool
    greylist_deferrals: int
    storm_rejections: int
    outage_failures: int
    dns_failures: int
    retries_scheduled: int
    messages_sent: int
    delivered: int
    bounced: int
    expired: int
    #: Messages force-expired by the end-of-run drain (0 when the event
    #: queue emptied on its own, which it does for full-horizon runs).
    drained: int

    @property
    def conserved(self) -> bool:
        """Every sent message reached exactly one terminal status."""
        return self.messages_sent == self.delivered + self.bounced + self.expired

    @classmethod
    def collect(
        cls,
        plan: Optional[FaultPlan],
        installations: dict[str, CompanyInstallation],
    ) -> "FaultStats":
        counters = plan.counters if plan is not None else None
        mtas = _unique_mtas(installations)
        return cls(
            enabled=plan is not None,
            greylist_deferrals=counters.greylist_deferrals if counters else 0,
            storm_rejections=counters.storm_rejections if counters else 0,
            outage_failures=counters.outage_failures if counters else 0,
            dns_failures=counters.dns_failures if counters else 0,
            retries_scheduled=sum(m.retries_scheduled for m in mtas),
            messages_sent=sum(m.sent_messages for m in mtas),
            delivered=sum(m.delivered for m in mtas),
            bounced=sum(m.bounced for m in mtas),
            expired=sum(m.expired for m in mtas),
            drained=sum(m.drained for m in mtas),
        )


@dataclass(frozen=True)
class LedgerStats:
    """End-of-run verdict of the message-lifecycle ledger.

    The inbound mirror of :class:`FaultStats`' delivery conservation:
    every message MTA-IN accepted must sit in exactly one terminal bucket
    (``accepted == delivered + black_dropped + filter_dropped + released
    + deleted + expired + pending_at_horizon``) with nothing left in
    quarantine and no pending-challenge slot outliving its messages.
    Collected — and enforced — after every run; ``audit`` records whether
    the run also validated each transition as it happened.
    """

    audit: bool
    accepted: int
    delivered: int
    black_dropped: int
    filter_dropped: int
    quarantined_total: int
    released: int
    deleted: int
    expired: int
    pending_at_horizon: int
    #: Messages without a terminal status at end-of-run (must be 0).
    stranded: int
    #: Pending-challenge slots still live after the horizon drain — each
    #: one means a sender's next message would skip its challenge.
    leaked_challenge_slots: int
    per_company: tuple[LedgerSnapshot, ...]
    violations: tuple[str, ...]

    @property
    def terminal_total(self) -> int:
        return (
            self.delivered
            + self.black_dropped
            + self.filter_dropped
            + self.released
            + self.deleted
            + self.expired
            + self.pending_at_horizon
        )

    @property
    def conserved(self) -> bool:
        return not self.violations

    @classmethod
    def collect(
        cls, installations: dict[str, CompanyInstallation]
    ) -> "LedgerStats":
        """Snapshot every company's ledger and cross-check it against the
        gray spool's and challenge manager's own counters. Call after
        ``shutdown()`` has drained the spools."""
        snapshots = []
        violations = []
        leaked_slots = 0
        audit = False
        for company_id in sorted(installations):
            inst = installations[company_id]
            snap = inst.ledger.snapshot()
            snapshots.append(snap)
            audit = audit or snap.audit
            if not snap.conserved:
                violations.append(
                    f"{company_id}: {snap.accepted} accepted != "
                    f"{snap.terminal_total} terminal "
                    f"(in quarantine: {snap.in_quarantine}, "
                    f"stranded: {len(snap.stranded)})"
                )
            spool = inst.gray_spool
            spool_view = (
                spool.total_entered,
                spool.total_released,
                spool.total_expired,
                spool.total_deleted,
                spool.total_pending_at_horizon,
                spool.pending_count,
            )
            ledger_view = (
                snap.quarantined_total,
                snap.released,
                snap.expired,
                snap.deleted,
                snap.pending_at_horizon,
                snap.in_quarantine,
            )
            if spool_view != ledger_view:
                violations.append(
                    f"{company_id}: gray spool disagrees with ledger: "
                    f"spool {spool_view} != ledger {ledger_view} "
                    f"(entered/released/expired/deleted/at-horizon/pending)"
                )
            leaked = inst.challenge_manager.pending_count
            if leaked:
                leaked_slots += leaked
                slots = inst.challenge_manager.pending_items()[:5]
                violations.append(
                    f"{company_id}: {leaked} pending-challenge slot(s) "
                    f"outlived their quarantined messages: {slots}"
                )
        totals = {
            field: sum(getattr(s, field) for s in snapshots)
            for field in (
                "accepted",
                "delivered",
                "black_dropped",
                "filter_dropped",
                "quarantined_total",
                "released",
                "deleted",
                "expired",
                "pending_at_horizon",
            )
        }
        return cls(
            audit=audit,
            stranded=sum(len(s.stranded) for s in snapshots),
            leaked_challenge_slots=leaked_slots,
            per_company=tuple(snapshots),
            violations=tuple(violations),
            **totals,
        )


@dataclass(frozen=True)
class CrashStats:
    """Crash-injection counters plus the recovery verdict.

    ``journal_mismatches`` must stay 0 under the ``journaled`` durability
    model — a rebuilt index that disagrees with pre-crash state is a
    recovery bug, not bad weather. ``lost`` is nonzero only under the
    deliberately broken ``lossy`` model (where the lifecycle ledger is
    expected to blow up)."""

    enabled: bool
    crashes: int
    by_component: tuple
    inbound_deferred: int
    inbound_refused: int
    digests_skipped: int
    expiries_skipped: int
    outbound_deferred: int
    redriven: int
    lost: int
    journals_rebuilt: int
    journal_mismatches: int

    @property
    def clean_recovery(self) -> bool:
        """No message lost, every journal rebuilt consistently."""
        return self.lost == 0 and self.journal_mismatches == 0

    @classmethod
    def collect(cls, plan: Optional[CrashPlan]) -> "CrashStats":
        if plan is None:
            return cls(
                enabled=False, crashes=0, by_component=(),
                inbound_deferred=0, inbound_refused=0, digests_skipped=0,
                expiries_skipped=0, outbound_deferred=0, redriven=0,
                lost=0, journals_rebuilt=0, journal_mismatches=0,
            )
        c = plan.counters
        return cls(
            enabled=True,
            crashes=c.crashes,
            by_component=tuple(sorted(c.by_component.items())),
            inbound_deferred=c.inbound_deferred,
            inbound_refused=c.inbound_refused,
            digests_skipped=c.digests_skipped,
            expiries_skipped=c.expiries_skipped,
            outbound_deferred=c.outbound_deferred,
            redriven=c.redriven,
            lost=c.lost,
            journals_rebuilt=c.journals_rebuilt,
            journal_mismatches=c.journal_mismatches,
        )


@dataclass(frozen=True)
class MemoryStats:
    """Peak-memory accounting for one run (or one shard of a run).

    ``max_rss_bytes`` is the process high-water mark — with spill enabled
    it should stay roughly flat as the horizon grows, which is the whole
    point of the streaming store. The ``store_*`` fields split the
    measurement database between its bounded in-memory tails and what
    already went to disk.
    """

    max_rss_bytes: int
    store_live_rows: int
    store_live_bytes: int
    store_spilled_bytes: int

    @classmethod
    def collect(cls, store: LogStore) -> "MemoryStats":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        if sys.platform != "darwin":
            rss *= 1024
        return cls(
            max_rss_bytes=rss,
            store_live_rows=store.live_rows(),
            store_live_bytes=store.live_bytes_estimate(),
            store_spilled_bytes=store.spilled_bytes(),
        )


@dataclass(frozen=True)
class ShardRunInfo:
    """One shard's exchange-side residue, for the driver's reconciler."""

    index: int
    n_shards: int
    #: ``(owner shard, epoch day) -> (row count, stream digest)``.
    manifests: dict
    local_rows: int
    remote_rows: int


def _unique_mtas(installations: dict[str, CompanyInstallation]) -> list:
    """Each installation's outbound MTAs, deduplicated — non-dual
    installations share one object between user and challenge mail."""
    mtas: dict[int, object] = {}
    for installation in installations.values():
        for mta in (installation.user_mta, installation.challenge_mta):
            mtas[id(mta)] = mta
    return list(mtas.values())


@dataclass
class SimulationResult:
    """Everything one run produced."""

    store: LogStore
    world: World
    simulator: Simulator
    installations: dict[str, CompanyInstallation]
    monitor: BlacklistMonitor
    info: DeploymentInfo
    seed: int
    wall_seconds: float
    cache_stats: SubstrateCacheStats
    fault_stats: Optional[FaultStats] = None
    ledger_stats: Optional[LedgerStats] = None
    crash_stats: Optional[CrashStats] = None
    checkpoint_stats: Optional[CheckpointStats] = None
    memory_stats: Optional[MemoryStats] = None
    #: Engine event count (mirrors ``simulator.events_processed``; summed
    #: across workers for sharded runs, where ``simulator`` is ``None``).
    events_processed: int = 0
    #: Per-shard :class:`ShardRunInfo` for a shard worker, an aggregate
    #: :class:`repro.experiments.sharded.ShardStats` for a merged sharded
    #: result, ``None`` for plain runs.
    shard_stats: object = None
    #: The resolved :class:`repro.scenarios.ScenarioSpec` this run
    #: executed, ``None`` for scenario-free runs. The ``verdicts``
    #: experiment evaluates its checks against the store.
    scenario: object = None


@dataclass(frozen=True)
class RunSpec:
    """The one description of a simulation run.

    Every field shapes the measurement store. How a run executes — where
    it spills or checkpoints, what it resumes from, how many shard
    workers run at once — is left to :func:`run`'s keywords and so stays
    out of :meth:`cache_key`. Audit, checkpointing, shards and spill do
    not change the store either, but they are in the key: a request to
    actually audit, snapshot, shard or spill must not be answered from a
    cached run that did not.
    """

    #: Scale preset name or an explicit :class:`ScaleConfig`.
    preset: Union[str, ScaleConfig] = "tiny"
    seed: int = 7
    #: ``None`` = the paper-calibrated default.
    calibration: Optional[Calibration] = None
    #: Fleet-wide :class:`~repro.core.config.FilterSettings` replacing
    #: every company's own. It also resets the calibrated RBL provider
    #: and detection rate, which the ablation studies rely on.
    filters_template: Optional[FilterSettings] = None
    #: ``CompanyConfig`` field overrides applied to every company.
    config_overrides: Optional[dict] = None
    #: Network weather: a preset name (``"mild"``, ``"stormy"``), a
    #: :class:`~repro.net.faults.FaultSettings`, or ``None`` (reliable).
    faults: Union[str, FaultSettings, None] = None
    #: Continuous lifecycle auditor (``REPRO_AUDIT=1`` does the same);
    #: the end-of-run conservation verdict is enforced regardless.
    audit: bool = False
    #: Crash faults inside the product: a preset name (``"rare"``,
    #: ``"flaky"``), a :class:`~repro.net.crashes.CrashSettings`, or
    #: ``None``.
    crashes: Union[str, CrashSettings, None] = None
    #: Snapshot interval in sim-seconds, into ``run(checkpoint_dir=)``.
    checkpoint_every: Optional[float] = None
    #: Company shards (DESIGN.md §12); ``None`` or 1 = one process.
    shards: Optional[int] = None
    #: Streaming spill store; without a ``run(spill_dir=)`` the run
    #: spills to a private temporary directory and loads the tables back
    #: before returning.
    spill: bool = False
    #: Declarative attack scenario: a pack name or a resolved
    #: :class:`~repro.scenarios.ScenarioSpec`. Its attacks are installed,
    #: and its weather and filters fill the fields above left at ``None``.
    #: Keyed as the *resolved* spec, so editing its YAML invalidates it.
    scenario: object = None
    #: Filter chain: a preset name (``"hybrid"``), a comma list of
    #: members, a :class:`~repro.core.config.FilterChainSpec`, or ``None``
    #: for the product chain the ``FilterSettings`` toggles select.
    chain: object = None
    #: Free-form display name (not part of the cache key).
    label: str = ""

    def resolved_scale(self) -> ScaleConfig:
        return (
            get_preset(self.preset)
            if isinstance(self.preset, str)
            else self.preset
        )

    def cache_key(self) -> str:
        """Content hash of the spec, tied to the package version.

        Built from dataclass ``repr``s, which are deterministic for the
        frozen config types involved; overrides are sorted so dict
        insertion order never changes the key.
        """
        overrides = sorted((self.config_overrides or {}).items())
        canonical_fields: tuple = (
            __version__,
            self.resolved_scale(),
            self.seed,
            self.calibration or DEFAULT_CALIBRATION,
            self.filters_template,
            overrides,
            self.faults,
            self.audit,
            self.crashes,
            self.checkpoint_every,
        )
        # Default-folding for fields added after entries were cached: a
        # spec that leaves them at their defaults hashes exactly as it
        # did before the fields existed, so old cache entries stay valid.
        if self.shards is not None:
            canonical_fields += (("shards", self.shards),)
        if self.spill:
            canonical_fields += (("spill", True),)
        if self.scenario is not None:
            from repro.scenarios import resolve_scenario

            canonical_fields += (
                ("scenario", resolve_scenario(self.scenario)),
            )
        if self.chain is not None:
            canonical_fields += (
                ("chain", FilterChainSpec.parse(self.chain)),
            )
        canonical = repr(canonical_fields)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_scenario_folded(self) -> "RunSpec":
        """This spec with its scenario resolved and the scenario's
        weather and filters filled into the fields left at ``None``
        (explicit fields win)."""
        if self.scenario is None:
            return self
        from repro.scenarios import resolve_scenario

        scenario = resolve_scenario(self.scenario)
        return replace(
            self,
            scenario=scenario,
            faults=scenario.faults if self.faults is None else self.faults,
            crashes=(
                scenario.crashes if self.crashes is None else self.crashes
            ),
            filters_template=(
                scenario.filters_template()
                if self.filters_template is None
                else self.filters_template
            ),
            chain=scenario.chain_spec() if self.chain is None else self.chain,
        )


def run(
    spec: RunSpec,
    *,
    spill_dir: Optional[str] = None,
    spill_chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    shard_jobs: Optional[int] = None,
    batch_delivery: bool = True,
) -> SimulationResult:
    """Simulate the deployment *spec* describes.

    The keywords say how the run executes; none of them changes the
    measurement store:

    * *spill_dir* bounds the store's resident memory by spilling full
      chunks of *spill_chunk_rows* records to columnar files there.
    * *checkpoint_dir* receives the snapshots ``spec.checkpoint_every``
      asks for.
    * *resume_from* continues from a snapshot instead of building a
      fresh run: a snapshot file, or a checkpoint directory whose newest
      snapshot is taken (for a sharded spec, the root holding each
      shard's ``shard-<k>/``). Every build-time field is then taken from
      the snapshot; the result is byte-identical to the uninterrupted
      run's.
    * *shard_jobs* bounds the concurrent shard worker processes (default
      one per shard; ``1`` runs the shards in turn in this process).
    * *batch_delivery=False* schedules each generated message as its own
      heap entry instead of one EventBatch per day — same draws, same
      sort, same ids, so the store must be bit-identical; the
      engine-batching property tests pin exactly that.
    """
    execution = dict(
        spill_dir=spill_dir,
        spill_chunk_rows=spill_chunk_rows,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
        batch_delivery=batch_delivery,
    )
    private_spill = spec.spill and spill_dir is None
    if private_spill:
        execution["spill_dir"] = tempfile.mkdtemp(prefix="repro-spill-")
    try:
        if spec.shards is not None and spec.shards > 1:
            from repro.experiments.sharded import _run_sharded

            result = _run_sharded(spec, execution, jobs=shard_jobs)
        else:
            result = _run_local(spec, None, **execution)
        if private_spill:
            # The spill directory dies with this call, so pull every
            # table back into memory before the chunk files disappear.
            store = result.store
            for table in TABLES:
                rows = getattr(store, table)
                if not isinstance(rows, list):
                    setattr(store, table, list(rows))
    finally:
        if private_spill:
            shutil.rmtree(execution["spill_dir"], ignore_errors=True)
    return result


_SPEC_FIELDS = frozenset(f.name for f in fields(RunSpec))


def run_simulation(
    preset: Union[str, ScaleConfig] = "tiny", seed: int = 7, **kwargs
) -> SimulationResult:
    """One-line convenience over :func:`run`: the keywords that name a
    :class:`RunSpec` field build the spec, the rest go to :func:`run`.

        run_simulation("small", seed=3, chain="hybrid", spill_dir=d)
        # == run(RunSpec("small", seed=3, chain="hybrid"), spill_dir=d)
    """
    spec = RunSpec(
        preset, seed, **{k: v for k, v in kwargs.items() if k in _SPEC_FIELDS}
    )
    return run(
        spec, **{k: v for k, v in kwargs.items() if k not in _SPEC_FIELDS}
    )


class Deployment(NamedTuple):
    """What :func:`build_deployment` built, before the clock starts."""

    world: World
    installations: dict
    #: The simulated users (``None`` when built with ``behavior=False``).
    behavior: Optional[BehaviorModel]
    fault_plan: Optional[FaultPlan]
    #: This process's slice of a sharded run (``None`` = whole world).
    shard: Optional[ShardContext]


def build_deployment(
    spec: RunSpec,
    simulator: Simulator,
    store: LogStore,
    streams: RngStreams,
    *,
    shard: Optional[tuple] = None,
    behavior: bool = True,
    outbound_factory=None,
) -> Deployment:
    """Build the deployment *spec* describes, ready for the clock.

    Builds the world, arms the spec's network weather, installs the
    product at every company and seeds the steady-state whitelists and
    blacklists the paper observed in its mature installations. The
    simulator and the live server both build through here, so they run
    the same deployment. The spec's fields are taken as they stand: a
    scenario's own weather and filters are folded in by
    :meth:`RunSpec.with_scenario_folded`.

    *shard* ``(index, n_shards)`` installs only the companies that shard
    owns; remote companies' draws all come from per-company or
    replicated streams, so skipping their setup consumes nothing shared.
    *behavior* simulates the users' own actions (digest review,
    challenge solving); the live server takes those from web requests
    instead. *outbound_factory* replaces each installation's outbound
    MTA class.
    """
    scale = spec.resolved_scale()
    calibration = spec.calibration or DEFAULT_CALIBRATION
    chain = FilterChainSpec.parse(spec.chain)
    faults = spec.faults
    if isinstance(faults, str):
        faults = get_fault_preset(faults)
    horizon = scale.n_days * DAY

    world = build_world(
        scale, calibration, streams, spec.filters_template,
        spec.config_overrides,
    )
    model = BehaviorModel(world, calibration, streams) if behavior else None
    hooks = model.hooks() if model is not None else None
    shard_ctx = None
    if shard is not None:
        index, n_shards = shard
        shard_ctx = ShardContext(
            shard_map=ShardMap.from_world(world, n_shards),
            index=index,
            exchange=ShardExchange(n_shards=n_shards, shard_index=index),
        )
    fault_plan = None
    if faults is not None and faults.enabled:
        fault_plan = FaultPlan(
            faults, seed=spec.seed, horizon=horizon, clock=simulator
        )
        world.install_fault_plan(fault_plan)

    installations: dict[str, CompanyInstallation] = {}
    for company in world.companies:
        if shard_ctx is not None and (
            shard_ctx.shard_map.owner_of(company.company_id) != shard_ctx.index
        ):
            continue
        installation = CompanyInstallation(
            config=company.config,
            simulator=simulator,
            internet=world.internet,
            resolver=world.resolver,
            store=store,
            dnsbl_services=world.services,
            rng=streams.stream(f"antivirus/{company.company_id}"),
            hooks=hooks,
            challenge_size=calibration.challenge_size,
            audit=spec.audit,
            chain=chain,
            outbound_factory=outbound_factory,
        )
        # Most contacts are already whitelisted and nuisance senders
        # blacklisted.
        for user in company.users:
            n_seed = int(len(user.contacts) * calibration.seed_whitelist_share)
            installation.seed_whitelist(user.address, user.contacts[:n_seed])
            installation.seed_blacklist(user.address, user.nuisance_senders)
        installation.start(until=horizon)
        installations[company.company_id] = installation

    # Most subscriptions predate the monitoring window, so most
    # subscribers already whitelisted their newsletters' senders. The draw
    # happens for every subscriber, installed here or not, so every shard
    # consumes the identical stream.
    rng = streams.stream("newsletter-seed")
    for source in world.newsletter_sources:
        for company_id, subscriber in source.subscribers:
            if rng.random() < calibration.newsletter_seed_prob:
                installation = installations.get(company_id)
                if installation is not None:
                    installation.seed_whitelist(
                        subscriber, list(source.senders)
                    )
    return Deployment(world, installations, model, fault_plan, shard_ctx)


def _run_local(
    spec: RunSpec,
    shard: Optional[tuple],
    *,
    spill_dir: Optional[str] = None,
    spill_chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    batch_delivery: bool = True,
) -> SimulationResult:
    """One process's run: the whole world, or shard *shard*
    ``(index, n_shards)`` of it."""
    started = time.perf_counter()
    if resume_from is not None:
        snapshot = resume_from
        if os.path.isdir(resume_from):
            snapshot = latest_checkpoint(resume_from)
            if snapshot is None:
                raise CheckpointError(f"no checkpoint under {resume_from}")
        restore_started = time.perf_counter()
        state = load_checkpoint(snapshot)
        restore_seconds = time.perf_counter() - restore_started
        if spec.checkpoint_every is not None and state.checkpointer is None:
            directory = checkpoint_dir or os.path.dirname(snapshot)
            Checkpointer(state, directory, spec.checkpoint_every).arm()
        return _finish_run(
            state, started,
            restored_from=snapshot, restore_seconds=restore_seconds,
        )
    if spec.checkpoint_every is not None and checkpoint_dir is None:
        raise ValueError(
            "checkpoint_every requires checkpoint_dir (where to put the "
            "snapshots)"
        )

    spec = spec.with_scenario_folded()
    if os.environ.get("REPRO_AUDIT", "") not in ("", "0"):
        spec = replace(spec, audit=True)
    crashes = spec.crashes
    if isinstance(crashes, str):
        crashes = get_crash_preset(crashes)
    reset_msg_ids()

    scale = spec.resolved_scale()
    horizon = scale.n_days * DAY
    streams = RngStreams(spec.seed)
    simulator = Simulator()
    spill = None
    if spill_dir is not None:
        spill = SpillConfig(
            directory=spill_dir,
            chunk_rows=spill_chunk_rows or SPILL_CHUNK_ROWS,
        )
    store = LogStore(spill=spill)
    deployment = build_deployment(spec, simulator, store, streams, shard=shard)
    world, installations = deployment.world, deployment.installations

    server_ips = sorted(
        {inst.challenge_mta.ip for inst in installations.values()}
        | {inst.user_mta.ip for inst in installations.values()}
    )
    monitor = BlacklistMonitor(
        simulator,
        list(world.services.values()),
        server_ips,
        sink=store.add_probe,
    )
    monitor.start(until=horizon)

    generator = TraceGenerator(
        world, simulator, installations, streams,
        batch_delivery=batch_delivery, shard=deployment.shard,
    )
    generator.start(scale.n_days)
    if spec.scenario is not None:
        for attack in spec.scenario.build_attacks():
            attack.install(
                world, simulator, installations, streams,
                shard=deployment.shard, behavior=deployment.behavior,
            )

    crash_plan = None
    if crashes is not None and crashes.enabled:
        crash_plan = CrashPlan(crashes, seed=spec.seed, horizon=horizon)
        crash_plan.arm(simulator, installations, store)

    state = RunState(
        scale=scale,
        seed=spec.seed,
        audit=spec.audit,
        horizon=horizon,
        simulator=simulator,
        store=store,
        world=world,
        installations=installations,
        monitor=monitor,
        generator=generator,
        behavior=deployment.behavior,
        fault_plan=deployment.fault_plan,
        crash_plan=crash_plan,
        scenario=spec.scenario,
    )
    if spec.checkpoint_every is not None:
        Checkpointer(state, checkpoint_dir, spec.checkpoint_every).arm()
    return _finish_run(state, started)


def _finish_run(
    state: RunState,
    started: float,
    restored_from: Optional[str] = None,
    restore_seconds: float = 0.0,
) -> SimulationResult:
    """Run (or keep running) the clock over the observation window, drain,
    enforce conservation, and package the result. Shared by fresh and
    resumed runs so both finish byte-identically."""
    simulator = state.simulator
    installations = state.installations
    world = state.world
    scale = state.scale

    # Run the observation window, then drain in-flight work (challenge
    # retries, scheduled solves, digest actions) — recurring jobs stop at
    # the horizon, so the queue empties on its own.
    simulator.run(until=state.horizon)
    simulator.run()
    # Safety net for the end-of-horizon leak: force any message still
    # lacking a terminal status to EXPIRED. After the full drain above
    # this finalizes nothing — it exists so the conservation invariant
    # holds even for truncated runs.
    for mta in _unique_mtas(installations):
        mta.drain()
    # Inbound teardown: entries still quarantined at the horizon get their
    # PENDING_AT_HORIZON terminal status and their challenge slots are
    # retired; then the lifecycle verdict is enforced unconditionally.
    for installation in installations.values():
        installation.shutdown()
    ledger_stats = LedgerStats.collect(installations)
    if not ledger_stats.conserved:
        raise LedgerError(
            "message-lifecycle conservation violated:\n  "
            + "\n  ".join(ledger_stats.violations)
        )

    info = DeploymentInfo(
        n_companies=scale.n_companies,
        n_open_relays=scale.open_relays,
        users_per_company={
            company.company_id: company.n_users for company in world.companies
        },
        horizon_days=float(scale.n_days),
        min_cluster_size=scale.min_cluster_size,
        volume_scale=scale.volume_scale,
    )
    if state.checkpointer is not None:
        # Join any in-flight background snapshot writer: every snapshot
        # is complete on disk before the run's results are visible.
        state.checkpointer.finalize()
        checkpoint_stats = state.checkpointer.stats(
            restored_from=restored_from, restore_seconds=restore_seconds
        )
    else:
        checkpoint_stats = CheckpointStats(
            restored_from=restored_from, restore_seconds=restore_seconds
        )
    shard_ctx = getattr(state.generator, "shard", None)
    shard_stats = None
    if shard_ctx is not None:
        exchange = shard_ctx.exchange
        shard_stats = ShardRunInfo(
            index=shard_ctx.index,
            n_shards=shard_ctx.n_shards,
            manifests=dict(exchange.manifests),
            local_rows=exchange.local_rows,
            remote_rows=exchange.remote_rows,
        )
    return SimulationResult(
        store=state.store,
        world=world,
        simulator=simulator,
        installations=installations,
        monitor=state.monitor,
        info=info,
        seed=state.seed,
        wall_seconds=time.perf_counter() - started,
        cache_stats=SubstrateCacheStats.collect(world),
        fault_stats=FaultStats.collect(state.fault_plan, installations),
        ledger_stats=ledger_stats,
        crash_stats=CrashStats.collect(state.crash_plan),
        checkpoint_stats=checkpoint_stats,
        memory_stats=MemoryStats.collect(state.store),
        events_processed=simulator.events_processed,
        shard_stats=shard_stats,
        # getattr: snapshots written before the field existed restore
        # without it.
        scenario=getattr(state, "scenario", None),
    )

