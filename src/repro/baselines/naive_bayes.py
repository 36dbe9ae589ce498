"""Offline scoring helpers around the naive-Bayes content filter.

The classifier itself (multinomial NB with Laplace smoothing over
subject tokens) lives in :mod:`repro.core.filters.content` since PR 9,
where it doubles as a live chain member; this module keeps the offline
evaluation machinery (confusion counting over logged dispatch records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.records import DispatchRecord
from repro.core.message import MessageKind

__all__ = [
    "ClassifierScore",
    "score_classifier",
]


@dataclass(frozen=True)
class ClassifierScore:
    """Confusion counts of a binary spam classifier."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def false_positive_rate(self) -> float:
        """Legit messages wrongly flagged (the cost CR systems avoid)."""
        legit = self.false_positives + self.true_negatives
        return self.false_positives / legit if legit else 0.0

    @property
    def false_negative_rate(self) -> float:
        """Spam wrongly admitted."""
        spam = self.true_positives + self.false_negatives
        return self.false_negatives / spam if spam else 0.0

    @property
    def accuracy(self) -> float:
        total = (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )
        correct = self.true_positives + self.true_negatives
        return correct / total if total else 0.0


def score_classifier(
    records: Iterable[DispatchRecord],
    predict,
    limit: Optional[int] = None,
) -> ClassifierScore:
    """Score ``predict(record) -> bool`` against ground-truth labels."""
    tp = fp = tn = fn = 0
    for i, record in enumerate(records):
        if limit is not None and i >= limit:
            break
        is_spam = record.kind is MessageKind.SPAM
        flagged = predict(record)
        if is_spam and flagged:
            tp += 1
        elif is_spam:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    return ClassifierScore(tp, fp, tn, fn)
