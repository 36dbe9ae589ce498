"""Baseline anti-spam classifiers the CR approach is compared against.

The paper's motivation (§1, §7) anchors on prior findings that CR systems
outperform traditional content filters — Erickson et al. measured "on
average 1 % of false positives with zero false negatives" for CR against a
SpamAssassin-style baseline. This package implements that baseline: a
naive-Bayes content classifier over subject tokens plus header-derived
features, trained and evaluated on the same simulated traffic the CR
product handles, so the two defences can be compared on identical input.
"""

from repro.baselines.comparison import compare_defences, DefenceComparison

__all__ = [
    "compare_defences",
    "DefenceComparison",
]
