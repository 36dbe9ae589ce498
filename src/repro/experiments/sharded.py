"""Intra-run company sharding: N workers, one deployment, one answer.

One simulated deployment is embarrassingly parallel *between* runs (see
:mod:`repro.experiments.parallel`) but was serial *within* a run. This
module splits a single run's 47 companies across N worker processes —
each worker replays the identical replicated world and trace draws but
materialises and simulates only the companies it owns (DESIGN.md §12) —
then deterministically merges the per-shard measurement stores back into
the exact record order the whole-world run would have logged.

The correctness gates are mechanical, not statistical:

* the cross-shard SMTP exchange (:mod:`repro.net.exchange`) hashes every
  shard's view of the full ``(time, msg_id)`` mail stream per epoch; the
  driver refuses to merge unless all N views agree;
* each worker enforces its own message-lifecycle conservation ledger,
  and the driver additionally sums the snapshots into one aggregate
  verdict;
* the merged store must reproduce ``shards=1`` byte-for-byte —
  ``store_digest(shards=N) == store_digest(shards=1)`` is pinned by
  tests across seeds and fault weather.

Merging relies on every table being time-nondecreasing within a shard
(records are appended at event execution time) and on company-keyed sort
keys reproducing the single-run interleaving: recurring per-company
events (digests, expiry sweeps) fire in ``world.companies`` order in an
unsharded run, which is exactly the ``company_index`` tiebreak; message
arrival times are draws from continuous distributions, so cross-company
ties at equal float times have measure zero.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from typing import Optional

from repro.analysis.store import LogStore, MergedTable, TABLES
from repro.core.config import CompanyConfig
from repro.core.ledger import LedgerError
from repro.experiments.parallel import _pool_context
from repro.experiments.runner import RunSpec, SimulationResult, _run_local
from repro.net.exchange import reconcile


@dataclass(frozen=True)
class ShardedInstallationView:
    """Config-only stand-in for a live :class:`CompanyInstallation`.

    The live installations die with their workers; merged results keep
    the static per-company configuration so config-level consumers
    (``summarize_result``, the ablation reports) work unchanged.
    """

    config: CompanyConfig


@dataclass(frozen=True)
class ShardPerf:
    """One shard's cost accounting."""

    index: int
    companies: int
    wall_seconds: float
    events_processed: int
    local_rows: int
    remote_rows: int
    max_rss_bytes: int


@dataclass(frozen=True)
class ShardStats:
    """Aggregate verdict of one sharded run."""

    n_shards: int
    jobs: int
    #: company_id -> owning shard index.
    owners: dict
    #: Reconciled exchange manifest: ``(owner, epoch day) -> (count, digest)``.
    manifests: dict
    per_shard: tuple

    @property
    def exchange_rows(self) -> int:
        return sum(count for count, _digest in self.manifests.values())

    @property
    def max_shard_wall_seconds(self) -> float:
        return max(p.wall_seconds for p in self.per_shard)


#: The execution keywords that name a directory; each shard gets its own
#: subdirectory of it.
_PER_SHARD_DIRS = ("spill_dir", "checkpoint_dir", "resume_from")


def shard_directory(root: str, index: int) -> str:
    """Shard *index*'s own subdirectory of a run's directory."""
    return os.path.join(root, f"shard-{index}")


def _run_shard(
    index: int, n_shards: int, spec: RunSpec, execution: dict
) -> SimulationResult:
    """Worker entry point: one shard's full simulation. Module-level so
    the process pool can pickle it. *execution* holds
    :func:`~repro.experiments.runner.run`'s keywords for the whole run;
    only its directories are rewritten to this shard's own.

    The live objects die with the worker: the result it ships back keeps
    every company's configuration, in world order (the merge keys'
    tiebreak), as a :class:`ShardedInstallationView`, and its
    ``shard_stats`` is the shard's
    :class:`~repro.experiments.runner.ShardRunInfo`.
    """
    execution = dict(execution)
    for key in _PER_SHARD_DIRS:
        if execution.get(key) is not None:
            execution[key] = shard_directory(execution[key], index)
    result = _run_local(spec, (index, n_shards), **execution)
    result.store.drop_indices()
    return replace(
        result,
        world=None,
        simulator=None,
        monitor=None,
        installations={
            company.company_id: ShardedInstallationView(company.config)
            for company in result.world.companies
        },
    )


# -- deterministic store merge ---------------------------------------------

#: Time field per table, for the per-shard nondecreasing order and the
#: merge key. Digests and probes have bespoke keys (below).
_TIME_FIELDS = {
    "mta": "t",
    "dispatch": "t",
    "challenges": "t",
    "challenge_outcomes": "t_final",
    "web_access": "t",
    "releases": "t_release",
    "whitelist_changes": "t",
    "expiries": "t",
    "outbound": "t",
    "crashes": "t",
}


def _merge_keys(installations: dict) -> dict:
    """Per-table sort keys reconstructing the single-run record order,
    from a shard's configuration views in world order."""
    company_index = {
        company_id: index for index, company_id in enumerate(installations)
    }
    digest_hour = {
        company_id: view.config.digest_hour
        for company_id, view in installations.items()
    }

    def time_key(t_field: str):
        def key(record, _field=t_field):
            return (getattr(record, _field), company_index[record.company_id])

        return key

    keys = {table: time_key(field) for table, field in _TIME_FIELDS.items()}
    # Digest records carry no timestamp; they fire at
    # day*DAY + digest_hour*HOUR, in company order for equal hours.
    keys["digests"] = lambda r: (
        r.day,
        digest_hour[r.company_id],
        company_index[r.company_id],
    )
    # Probes: within one probe tick the monitor walks server IPs in
    # sorted order, and each IP belongs to exactly one shard.
    keys["probes"] = lambda r: (r.t, r.ip)
    return keys


def _merge_stores(outcomes: list, spilled: bool) -> LogStore:
    """Interleave the per-shard stores into one whole-world store.

    In-memory tables materialise as plain merged lists (cheap — they fit
    by definition); spilled tables stay on disk behind lazy
    :class:`MergedTable` views, so the merged store's resident footprint
    is still bounded by one chunk per shard.
    """
    keys = _merge_keys(outcomes[0].installations)
    merged = LogStore()
    for table in TABLES:
        parts = [getattr(outcome.store, table) for outcome in outcomes]
        key = keys[table]
        if spilled:
            rows: object = MergedTable(parts, key)
        else:
            rows = list(heapq.merge(*parts, key=key))
        setattr(merged, table, rows)
        merged._versions[table] = sum(
            outcome.store._versions[table] for outcome in outcomes
        )
    return merged


# -- stat aggregation -------------------------------------------------------


def _combine(stats: list, **special):
    """Field-wise sum of one stats dataclass across shards. Flags are
    OR-ed; *special* maps a field to its own combiner over the column."""
    values = {}
    for f in fields(stats[0]):
        column = [getattr(s, f.name) for s in stats]
        if f.name in special:
            values[f.name] = special[f.name](column)
        elif isinstance(column[0], bool):
            values[f.name] = any(column)
        else:
            values[f.name] = sum(column)
    return type(stats[0])(**values)


def _merge_components(column: list) -> tuple:
    by_component: dict = {}
    for pairs in column:
        for component, count in pairs:
            by_component[component] = by_component.get(component, 0) + count
    return tuple(sorted(by_component.items()))


def _combine_outcome_stats(outcomes: list) -> dict:
    """The merged result's stats fields, one per shard-summed stats type."""

    def column(name: str) -> list:
        return [getattr(outcome, name) for outcome in outcomes]

    return dict(
        ledger_stats=_combine(
            column("ledger_stats"),
            audit=all,
            per_company=lambda c: tuple(
                sorted((s for p in c for s in p), key=lambda s: s.company_id)
            ),
            violations=lambda c: tuple(v for vs in c for v in vs),
        ),
        cache_stats=_combine(column("cache_stats")),
        fault_stats=_combine(column("fault_stats")),
        crash_stats=_combine(
            column("crash_stats"), by_component=_merge_components
        ),
        checkpoint_stats=_combine(
            column("checkpoint_stats"),
            every=max, last_path=itemgetter(0), restored_from=itemgetter(0),
        ),
        memory_stats=_combine(column("memory_stats"), max_rss_bytes=max),
    )


# -- the driver -------------------------------------------------------------


def _run_sharded(
    spec: RunSpec, execution: dict, jobs: Optional[int] = None
) -> SimulationResult:
    """One deployment simulated across ``spec.shards`` workers, merged
    back.

    *jobs* bounds concurrent worker processes (default one per shard);
    ``jobs=1`` runs the shards sequentially in this process — same
    result, and the honest way to measure per-shard cost on a small box.
    Spill, checkpoint and resume directories in *execution* get
    per-shard ``shard-<k>`` subdirectories, so a resume from the
    checkpoint *root* has each worker resume from the newest snapshot in
    its own subdirectory.

    A scenario's attacks ship to every worker: each replica replays the
    identical attack planning draws — the replicated-trace invariant —
    while only the victim company's owner shard materialises and
    delivers the forged mail, so the merged store still matches
    ``shards=1`` byte-for-byte.
    """
    shards = spec.shards
    started = time.perf_counter()
    jobs = jobs or shards

    if jobs == 1:
        outcomes = [
            _run_shard(index, shards, spec, execution)
            for index in range(shards)
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, shards), mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(_run_shard, index, shards, spec, execution)
                for index in range(shards)
            ]
            outcomes = [future.result() for future in futures]

    # Replica-consistency gate: every shard's view of the full exchange
    # stream must agree before any merging happens.
    manifests = reconcile([o.shard_stats.manifests for o in outcomes])

    stats = _combine_outcome_stats(outcomes)
    ledger_stats = stats["ledger_stats"]
    if not ledger_stats.conserved:
        raise LedgerError(
            "message-lifecycle conservation violated across shards:\n  "
            + "\n  ".join(ledger_stats.violations)
        )

    spilled = execution.get("spill_dir") is not None
    merged = _merge_stores(outcomes, spilled=spilled)
    # Ownership straight from the workers: local companies are the ones
    # whose installations produced ledger snapshots.
    owners: dict = {}
    for outcome in outcomes:
        for snapshot in outcome.ledger_stats.per_company:
            owners[snapshot.company_id] = outcome.shard_stats.index

    shard_stats = ShardStats(
        n_shards=shards,
        jobs=jobs,
        owners=owners,
        manifests=manifests,
        per_shard=tuple(
            ShardPerf(
                index=outcome.shard_stats.index,
                companies=len(outcome.ledger_stats.per_company),
                wall_seconds=outcome.wall_seconds,
                events_processed=outcome.events_processed,
                local_rows=outcome.shard_stats.local_rows,
                remote_rows=outcome.shard_stats.remote_rows,
                max_rss_bytes=outcome.memory_stats.max_rss_bytes,
            )
            for outcome in outcomes
        ),
    )
    return SimulationResult(
        store=merged,
        world=None,
        simulator=None,
        installations=dict(sorted(outcomes[0].installations.items())),
        monitor=None,
        info=outcomes[0].info,
        seed=spec.seed,
        wall_seconds=time.perf_counter() - started,
        **stats,
        events_processed=sum(o.events_processed for o in outcomes),
        shard_stats=shard_stats,
        scenario=spec.with_scenario_folded().scenario,
    )
