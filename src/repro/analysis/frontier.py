"""FP/FN frontiers: CR vs. the competing-filter baselines, per scenario.

The original paper could argue only from its own deployment that CR
beats content filtering on false positives (§1, citing Erickson et
al.). With the baselines now living *inside* the dispatcher's chain
(:mod:`repro.core.filters.content` / ``reputation``), this experiment
produces the table the paper could not: the same simulated deployment
re-run under each chain composition — pure CR, the shipped product
chain, each baseline alone, and the full hybrid — across every scenario
in the declarative pack, with end-to-end false-positive and
false-negative rates per cell, averaged over seeds.

"End-to-end" means inbox truth, uniformly for every chain: a false
negative is spam that reached an inbox (whitelist hit or spurious
release); a false positive is a legitimate person-to-person message
that never made it, whether a filter dropped it or its challenge went
unsolved. That keeps the columns comparable — a content filter's false
drops and CR's lost-challenge losses land in the same bucket.

Registered as experiment id ``frontier``. :func:`check_frontier` is the
machine-checked non-degeneracy gate CI runs: every cell must evaluate
(both classes observed, no failed runs), and pure CR must beat the
naive-Bayes chain on false positives in clean weather — the paper's
headline claim, now measured instead of cited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.store import LogStore
from repro.core.message import MessageKind
from repro.core.spools import Category
from repro.util.render import TextTable
from repro.util.stats import safe_ratio

#: Row label for the scenario-free (clean weather, no attacks) row.
CLEAN = "(clean)"

#: Frontier columns: (label, ``RunSpec.chain``).
#: ``None`` is the product chain — deliberately, so its runs
#: share cache entries with every other default-chain sweep.
FRONTIER_CHAINS: Tuple[Tuple[str, object], ...] = (
    ("cr-only", "cr-only"),
    ("product", None),
    ("naive-bayes", "naive-bayes"),
    ("reputation", "reputation"),
    ("hybrid", "hybrid"),
)

#: Default seeds (the acceptance gate wants >= 3).
FRONTIER_SEEDS = (3, 5, 7)


@dataclass(frozen=True)
class FrontierCell:
    """One (scenario, chain) cell, accumulated over the seed set."""

    scenario: str
    chain: str
    seeds: Tuple[int, ...]
    spam_total: int
    spam_delivered: int
    legit_total: int
    legit_lost: int
    #: Runs that errored even after retry; a healthy frontier has none.
    failed_runs: int = 0

    @property
    def false_negative_rate(self) -> float:
        """Spam that reached an inbox."""
        return safe_ratio(self.spam_delivered, self.spam_total)

    @property
    def false_positive_rate(self) -> float:
        """Legitimate person-to-person mail that never made it."""
        return safe_ratio(self.legit_lost, self.legit_total)

    @property
    def evaluated(self) -> bool:
        """Both classes observed and every seed's run completed."""
        return (
            self.failed_runs == 0
            and self.spam_total > 0
            and self.legit_total > 0
        )


@dataclass(frozen=True)
class FrontierResult:
    """The full frontier: one cell per (scenario row, chain column)."""

    preset: str
    seeds: Tuple[int, ...]
    scenarios: Tuple[str, ...]
    chains: Tuple[str, ...]
    cells: Tuple[FrontierCell, ...]

    def cell(self, scenario: str, chain: str) -> Optional[FrontierCell]:
        for candidate in self.cells:
            if candidate.scenario == scenario and candidate.chain == chain:
                return candidate
        return None


class InboxTally:
    """Streaming inbox-truth FP/FN tally over dispatch records.

    Delivered means whitelisted, or quarantined (gray, no filter drop)
    and then released. Spam counts when delivered; legitimate mail when
    not, unless it has a null envelope sender: newsletters and bounce
    notifications are not the real correspondents the paper's FP
    discussion is about. Only the release-id set is kept in memory.
    """

    def __init__(self, store: LogStore) -> None:
        self.released = {r.msg_id for r in store.releases}
        self.spam_total = self.spam_delivered = 0
        self.legit_total = self.legit_lost = 0

    def add(self, record) -> None:
        quarantined = (
            record.category is Category.GRAY and record.filter_drop is None
        )
        delivered = record.category is Category.WHITE or (
            quarantined and record.msg_id in self.released
        )
        if record.kind is MessageKind.SPAM:
            self.spam_total += 1
            self.spam_delivered += delivered
        elif record.kind is MessageKind.LEGIT and record.env_from:
            self.legit_total += 1
            self.legit_lost += not delivered


def delivery_counts(store: LogStore) -> Tuple[int, int, int, int]:
    """End-to-end (spam_total, spam_delivered, legit_total, legit_lost).

    The :class:`InboxTally` accounting
    :func:`repro.baselines.comparison.compare_defences` applies to the
    CR side, over the *whole* run (in-chain filters train online, so
    there is no offline train/test split to respect). Single streaming
    pass — safe on spilled and merged stores.
    """
    inbox = InboxTally(store)
    for record in store.dispatch:
        inbox.add(record)
    return (
        inbox.spam_total,
        inbox.spam_delivered,
        inbox.legit_total,
        inbox.legit_lost,
    )


def run_frontier(
    preset: str = "tiny",
    seeds: Sequence[int] = FRONTIER_SEEDS,
    scenarios: Optional[Sequence[Optional[str]]] = None,
    chains: Sequence[Tuple[str, object]] = FRONTIER_CHAINS,
    jobs: int = 1,
    runner=None,
) -> FrontierResult:
    """Sweep every (scenario, chain, seed) and aggregate the frontier.

    *scenarios* is a sequence of pack names, with ``None`` meaning the
    scenario-free clean row; the default is the clean row plus the whole
    pack. Pass an existing
    :class:`~repro.experiments.parallel.ParallelRunner` as *runner* to
    share its result cache and counters.
    """
    from repro.experiments.parallel import ParallelRunner, RunSpec
    from repro.scenarios import scenario_names

    if scenarios is None:
        scenarios = (None, *scenario_names())
    seeds = tuple(seeds)
    chains = tuple(chains)
    if runner is None:
        runner = ParallelRunner(jobs=jobs)

    # One flat spec list -> one runner call, so the process pool sees
    # every run at once; chain strings stay unresolved in the spec (the
    # cache key folds the resolved FilterChainSpec either way).
    specs = []
    index = []
    for scenario in scenarios:
        for chain_label, chain in chains:
            for seed in seeds:
                specs.append(
                    RunSpec(
                        preset=preset,
                        seed=seed,
                        scenario=scenario,
                        chain=chain,
                        label=f"{scenario or CLEAN}/{chain_label}/{seed}",
                    )
                )
                index.append((scenario or CLEAN, chain_label))
    summaries = runner.run(specs)

    totals: dict = {}
    for (row, column), summary in zip(index, summaries):
        cell = totals.setdefault((row, column), [0, 0, 0, 0, 0])
        if summary.failed:
            cell[4] += 1
            continue
        counts = delivery_counts(summary.store)
        for position, count in enumerate(counts):
            cell[position] += count

    cells = tuple(
        FrontierCell(
            scenario=row,
            chain=column,
            seeds=seeds,
            spam_total=counts[0],
            spam_delivered=counts[1],
            legit_total=counts[2],
            legit_lost=counts[3],
            failed_runs=counts[4],
        )
        for (row, column), counts in totals.items()
    )
    return FrontierResult(
        preset=preset,
        seeds=seeds,
        scenarios=tuple(s or CLEAN for s in scenarios),
        chains=tuple(label for label, _ in chains),
        cells=cells,
    )


def check_frontier(result: FrontierResult) -> list:
    """Non-degeneracy gate: failure strings, empty when healthy.

    * every (scenario, chain) cell exists and evaluated — both mail
      classes observed, no failed runs;
    * on the clean row, pure CR's false-positive rate is strictly below
      the naive-Bayes chain's (the paper's §1 claim).
    """
    failures = []
    for scenario in result.scenarios:
        for chain in result.chains:
            cell = result.cell(scenario, chain)
            if cell is None:
                failures.append(f"missing cell: {scenario} x {chain}")
            elif not cell.evaluated:
                failures.append(
                    f"degenerate cell {scenario} x {chain}: "
                    f"spam={cell.spam_total} legit={cell.legit_total} "
                    f"failed_runs={cell.failed_runs}"
                )
    cr = result.cell(CLEAN, "cr-only")
    bayes = result.cell(CLEAN, "naive-bayes")
    if cr is not None and bayes is not None and cr.evaluated and bayes.evaluated:
        if not cr.false_positive_rate < bayes.false_positive_rate:
            failures.append(
                "clean-row FP ordering violated: CR "
                f"{cr.false_positive_rate:.4f} !< naive-Bayes "
                f"{bayes.false_positive_rate:.4f}"
            )
    return failures


def build_table(result: FrontierResult) -> TextTable:
    table = TextTable(
        headers=[
            "scenario",
            "chain",
            "FP (legit lost)",
            "FN (spam in)",
            "legit",
            "spam",
        ],
        title=(
            f"FP/FN frontier — preset {result.preset}, "
            f"seeds {', '.join(str(s) for s in result.seeds)}"
        ),
    )
    for scenario in result.scenarios:
        for chain in result.chains:
            cell = result.cell(scenario, chain)
            if cell is None:
                table.add_row(scenario, chain, "—", "—", 0, 0)
                continue
            table.add_row(
                scenario,
                chain,
                f"{100.0 * cell.false_positive_rate:.2f}%",
                f"{100.0 * cell.false_negative_rate:.4f}%",
                cell.legit_total,
                cell.spam_total,
            )
    return table


def render(result: FrontierResult) -> str:
    lines = [build_table(result).render()]
    failures = check_frontier(result)
    if failures:
        lines.append("DEGENERATE:")
        lines.extend(f"  FAIL {failure}" for failure in failures)
    else:
        lines.append(
            "checks: all cells evaluated; clean-row CR FP < naive-Bayes FP"
        )
    return "\n".join(lines)


def render_result(result) -> str:
    """Experiment-registry adapter.

    The frontier is a cross-run sweep, so unlike the single-run
    experiments it re-simulates (tiny preset, the full scenario pack,
    :data:`FRONTIER_SEEDS`) rather than analysing *result*, which is
    ignored. Runs go through the shared on-disk result cache, so
    repeated renders are free.
    """
    import os

    from repro.experiments.parallel import ParallelRunner, RunCache

    runner = ParallelRunner(jobs=min(4, os.cpu_count() or 1), cache=RunCache())
    frontier = run_frontier(runner=runner)
    note = (
        "note: frontier re-simulates across chain compositions "
        f"({runner.cache_hits} cached, {runner.runs_executed} executed)"
    )
    return "\n".join([render(frontier), note])


__all__ = [
    "CLEAN",
    "FRONTIER_CHAINS",
    "FRONTIER_SEEDS",
    "FrontierCell",
    "FrontierResult",
    "InboxTally",
    "delivery_counts",
    "run_frontier",
    "check_frontier",
    "build_table",
    "render",
    "render_result",
]
