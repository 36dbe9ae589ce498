#!/usr/bin/env python3
"""CR vs content filtering: the comparison behind the paper's motivation.

The paper motivates CR systems with Erickson et al.'s finding that they
"outperform traditional systems like SpamAssassin, generating on average
1% of false positives with zero false negatives". This study reruns that
comparison on one simulated deployment:

* a naive-Bayes content filter is trained on the first 30 % of the
  deployment's labelled mail and evaluated on the rest;
* the CR system is judged by what actually reached inboxes over the same
  evaluation slice.

It also sweeps the Bayes decision threshold to show the FP/FN trade-off
content filters are stuck with — the curve CR systems side-step by
shifting the work to senders.

The per-seed deployments are independent, so they fan out over the
parallel runner (``--jobs``) and share the on-disk result cache.

Usage::

    python examples/baseline_comparison.py [--preset tiny|small|bench]
                                           [--runs N] [--jobs N] [--no-cache]
"""

import argparse

from repro.baselines.comparison import (
    build_table,
    compare_defences,
    defences_from_summaries,
    render_sweep,
)
from repro.baselines.naive_bayes import score_classifier
from repro.core.filters.content import NaiveBayesFilter
from repro.experiments import RunSpec, run_specs
from repro.util.render import TextTable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="small")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--runs", type=int, default=3, help="independent seeds (default: 3)"
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="worker processes (default: 2)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the .cache/runs/ cache"
    )
    args = parser.parse_args()

    seeds = [args.seed + offset for offset in range(args.runs)]
    print(f"Simulating preset={args.preset!r} at seeds {seeds} ...")
    summaries = run_specs(
        [RunSpec(args.preset, seed=seed) for seed in seeds],
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    result = summaries[0]
    comparison = compare_defences(result.store)
    print()
    print(build_table(comparison).render())
    if len(summaries) > 1:
        print()
        print(render_sweep(defences_from_summaries(summaries)))

    # Threshold sweep: the content filter's FP/FN trade-off curve.
    records = result.store.dispatch
    split = int(len(records) * 0.3)
    train, test = records[:split], records[split:]
    table = TextTable(
        headers=["bayes threshold", "false positives", "false negatives"],
        title="Content-filter trade-off curve (Fig.-style sweep)",
    )
    for threshold in (-5.0, -2.0, 0.0, 2.0, 5.0, 10.0):
        bayes = NaiveBayesFilter(threshold=threshold)
        bayes.train_from_records(train)
        score = score_classifier(test, bayes.classify_record)
        table.add_row(
            f"{threshold:+.0f}",
            f"{100.0 * score.false_positive_rate:.2f}%",
            f"{100.0 * score.false_negative_rate:.2f}%",
        )
    print()
    print(table.render())
    print(
        "\nReading: tightening the content filter's threshold trades false"
        "\nnegatives for false positives; the CR system sits off that curve"
        "\n(near-zero FN) because senders authenticate themselves — at the"
        "\ncost of the backscatter externalities measured in Sec. 3."
    )


if __name__ == "__main__":
    main()
