"""CR vs content-filter comparison (the Erickson et al. claim, quantified).

The paper's §1 cites Erickson et al.: CR solutions "outperform traditional
systems like SpamAssassin, generating on average 1 % of false positives
with zero false negatives". This module reruns that comparison on our
simulated traffic:

* **content filter** — the naive-Bayes baseline, trained on an early slice
  of the deployment's labelled mail and evaluated on the rest;
* **CR system** — judged by what actually reached the inbox: a false
  negative is spam delivered (whitelist hits + spurious releases); a false
  positive is a legitimate message that never made it (its challenge
  unsolved, never rescued from the digest, eventually expired or still
  quarantined at window end).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.analysis.frontier import InboxTally
from repro.analysis.store import LogStore
from repro.baselines.naive_bayes import ClassifierScore
from repro.core.filters.content import NaiveBayesFilter
from repro.core.message import MessageKind
from repro.util.render import TextTable
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class DefenceComparison:
    """FP/FN rates of the two defences over the same deployment."""

    bayes: ClassifierScore
    cr_spam_total: int
    cr_spam_delivered: int
    cr_legit_total: int
    cr_legit_lost: int
    train_fraction: float

    @property
    def cr_false_negative_rate(self) -> float:
        """Spam that reached an inbox despite the CR system."""
        return safe_ratio(self.cr_spam_delivered, self.cr_spam_total)

    @property
    def cr_false_positive_rate(self) -> float:
        """Legitimate mail the CR system never delivered."""
        return safe_ratio(self.cr_legit_lost, self.cr_legit_total)


def compare_defences(
    store: LogStore, train_fraction: float = 0.3
) -> DefenceComparison:
    """Train the Bayes baseline on the first *train_fraction* of accepted
    mail, evaluate both defences on the remainder.

    Single streaming pass: the dispatch table is consumed through one
    iterator (``islice`` for the training prefix, the remainder for the
    evaluation), never sliced — on a spilled or sharded store a slice
    would materialise every chunk back into memory, defeating the
    bounded-memory store.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    dispatch = store.dispatch
    split = int(len(dispatch) * train_fraction)
    records = iter(dispatch)

    bayes = NaiveBayesFilter()
    bayes.train_from_records(islice(records, split))

    inbox = InboxTally(store)
    tp = fp = tn = fn = 0
    for record in records:
        is_spam = record.kind is MessageKind.SPAM
        # Bayes confusion counts (what score_classifier would tally).
        flagged = bayes.classify(record.subject)
        if is_spam and flagged:
            tp += 1
        elif is_spam:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
        inbox.add(record)
    return DefenceComparison(
        bayes=ClassifierScore(tp, fp, tn, fn),
        cr_spam_total=inbox.spam_total,
        cr_spam_delivered=inbox.spam_delivered,
        cr_legit_total=inbox.legit_total,
        cr_legit_lost=inbox.legit_lost,
        train_fraction=train_fraction,
    )


def build_table(comparison: DefenceComparison) -> TextTable:
    table = TextTable(
        headers=["defence", "false positives (legit lost)", "false negatives (spam in)"],
        title=(
            "CR system vs naive-Bayes content filter "
            "(Erickson et al.: CR ~1% FP, 0% FN)"
        ),
    )
    table.add_row(
        "naive Bayes (content)",
        f"{100.0 * comparison.bayes.false_positive_rate:.2f}%",
        f"{100.0 * comparison.bayes.false_negative_rate:.2f}%",
    )
    table.add_row(
        "challenge-response",
        f"{100.0 * comparison.cr_false_positive_rate:.2f}%",
        f"{100.0 * comparison.cr_false_negative_rate:.4f}%",
    )
    return table


def render(store: LogStore) -> str:
    return build_table(compare_defences(store)).render()


# ----------------------------------------------------------------------
# Multi-seed sweep: the Erickson comparison over independent deployments.
# One simulated deployment gives one FP/FN point per defence; sweeping
# seeds (fanned out over worker processes) shows the spread behind the
# paper's "1 % FP, zero FN" headline numbers.
# ----------------------------------------------------------------------


def sweep_defences(
    preset="tiny",
    seeds=(3, 5, 7),
    jobs: int = 1,
    runner=None,
    train_fraction: float = 0.3,
) -> list[tuple[int, DefenceComparison]]:
    """Run the CR-vs-Bayes comparison at every seed, in parallel.

    Returns ``(seed, comparison)`` pairs in seed order. Pass an existing
    :class:`~repro.experiments.parallel.ParallelRunner` as *runner* to
    share its result cache and counters.
    """
    from repro.experiments.parallel import ParallelRunner, RunSpec

    if runner is None:
        runner = ParallelRunner(jobs=jobs)
    summaries = runner.run([RunSpec(preset=preset, seed=s) for s in seeds])
    return defences_from_summaries(summaries, train_fraction)


def defences_from_summaries(
    summaries, train_fraction: float = 0.3
) -> list[tuple[int, DefenceComparison]]:
    """The comparison over already-executed runs (shared fan-outs)."""
    return [
        (summary.seed, compare_defences(summary.store, train_fraction))
        for summary in summaries
    ]


def build_sweep_table(results) -> TextTable:
    table = TextTable(
        headers=["seed", "bayes FP", "bayes FN", "CR FP", "CR FN"],
        title=(
            "CR vs naive Bayes across "
            f"{len(results)} independent deployments"
        ),
    )
    for seed, comparison in results:
        table.add_row(
            seed,
            f"{100.0 * comparison.bayes.false_positive_rate:.2f}%",
            f"{100.0 * comparison.bayes.false_negative_rate:.2f}%",
            f"{100.0 * comparison.cr_false_positive_rate:.2f}%",
            f"{100.0 * comparison.cr_false_negative_rate:.4f}%",
        )
    if results:
        n = len(results)
        table.add_row(
            "mean",
            f"{100.0 * sum(c.bayes.false_positive_rate for _, c in results) / n:.2f}%",
            f"{100.0 * sum(c.bayes.false_negative_rate for _, c in results) / n:.2f}%",
            f"{100.0 * sum(c.cr_false_positive_rate for _, c in results) / n:.2f}%",
            f"{100.0 * sum(c.cr_false_negative_rate for _, c in results) / n:.4f}%",
        )
    return table


def render_sweep(results) -> str:
    return build_sweep_table(results).render()
