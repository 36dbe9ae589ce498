"""Tests for the naive-Bayes baseline and the CR-vs-content comparison."""

import pytest
from hypothesis import given, strategies as st

from repro.baselines.comparison import build_table, compare_defences
from repro.baselines.naive_bayes import ClassifierScore, score_classifier
from repro.core.filters.content import NaiveBayesFilter
from repro.core.message import MessageKind
from repro.core.spools import Category

from tests import recordfactory as rf
from repro.analysis.store import LogStore


class TestNaiveBayes:
    def _trained(self):
        nb = NaiveBayesFilter()
        nb.train(
            [
                ("cheap meds online pharmacy", True),
                ("exclusive offer limited time", True),
                ("replica watches discount", True),
                ("meeting notes tomorrow agenda", False),
                ("project status report attached", False),
                ("lunch plans this weekend", False),
            ]
        )
        return nb

    def test_classifies_obvious_spam(self):
        assert self._trained().classify("cheap pharmacy meds")

    def test_classifies_obvious_ham(self):
        assert not self._trained().classify("meeting agenda attached")

    def test_log_odds_sign_matches_classification(self):
        nb = self._trained()
        for subject in ("cheap meds", "status report"):
            assert nb.classify(subject) == (nb.spam_log_odds(subject) > 0)

    def test_unknown_tokens_fall_back_to_prior(self):
        nb = NaiveBayesFilter()
        # Balanced token totals so unknown tokens are class-neutral and
        # the document prior (2 ham docs vs 1 spam doc) decides.
        nb.train(
            [
                ("spam spam spam spam", True),
                ("ham ham", False),
                ("ham two", False),
            ]
        )
        assert not nb.classify("completely novel words")

    def test_untrained_raises(self):
        nb = NaiveBayesFilter()
        with pytest.raises(RuntimeError):
            nb.classify("anything")
        nb.train([("only spam", True)])
        with pytest.raises(RuntimeError):
            nb.classify("still missing ham examples")

    def test_incremental_training(self):
        nb = NaiveBayesFilter()
        first = nb.train([("cheap meds", True)])
        second = nb.train([("meeting notes", False)])
        assert first.spam_messages == 1
        assert second.ham_messages == 1
        assert nb.trained

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            NaiveBayesFilter(smoothing=0.0)

    def test_threshold_shifts_decisions(self):
        strict = self._trained()
        lenient = self._trained()
        lenient.threshold = 50.0
        assert strict.classify("cheap meds")
        assert not lenient.classify("cheap meds")

    def test_train_from_records(self):
        store = LogStore()
        rf.dispatch(store, subject="cheap meds pharmacy", kind=MessageKind.SPAM)
        rf.dispatch(store, subject="meeting notes agenda", kind=MessageKind.LEGIT)
        nb = NaiveBayesFilter()
        summary = nb.train_from_records(store.dispatch)
        assert summary.spam_messages == 1
        assert summary.ham_messages == 1

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet="abcdefg ", min_size=1, max_size=30
                ).filter(str.strip),
                st.booleans(),
            ),
            min_size=2,
            max_size=40,
        ).filter(
            lambda pairs: any(s for _, s in pairs)
            and any(not s for _, s in pairs)
        )
    )
    def test_never_crashes_and_returns_bool(self, pairs):
        nb = NaiveBayesFilter()
        nb.train(pairs)
        for subject, _ in pairs:
            assert isinstance(nb.classify(subject), bool)


class TestScoring:
    def test_confusion_counts(self):
        store = LogStore()
        rf.dispatch(store, kind=MessageKind.SPAM, subject="s1")  # TP
        rf.dispatch(store, kind=MessageKind.SPAM, subject="s2")  # FN
        rf.dispatch(store, kind=MessageKind.LEGIT, subject="h1")  # FP
        rf.dispatch(store, kind=MessageKind.LEGIT, subject="h2")  # TN
        verdicts = {"s1": True, "s2": False, "h1": True, "h2": False}
        score = score_classifier(
            store.dispatch, lambda r: verdicts[r.subject]
        )
        assert score == ClassifierScore(1, 1, 1, 1)
        assert score.false_positive_rate == 0.5
        assert score.false_negative_rate == 0.5
        assert score.accuracy == 0.5

    def test_empty_score(self):
        score = score_classifier([], lambda r: True)
        assert score.accuracy == 0.0
        assert score.false_positive_rate == 0.0


class TestComparison:
    def test_cr_accounting_on_synthetic_store(self):
        store = LogStore()
        # Train slice (first 30%): ensure both classes present.
        for _ in range(2):
            rf.dispatch(
                store, kind=MessageKind.SPAM, subject="cheap meds now buy"
            )
            rf.dispatch(
                store,
                kind=MessageKind.LEGIT,
                category=Category.WHITE,
                subject="meeting notes agenda today",
            )
        # Test slice: one whitelisted spam (CR FN), one quarantined legit
        # that is released (not an FP), one quarantined legit lost (FP).
        rf.dispatch(
            store,
            kind=MessageKind.SPAM,
            category=Category.WHITE,
            subject="cheap meds now buy",
        )
        released_id = rf.dispatch(
            store,
            kind=MessageKind.LEGIT,
            subject="project report attached",
            challenge_id=1,
        )
        rf.release(store, msg_id=released_id)
        rf.dispatch(
            store,
            kind=MessageKind.LEGIT,
            subject="lunch plans weekend",
            challenge_id=2,
        )
        for _ in range(3):
            rf.dispatch(
                store, kind=MessageKind.SPAM, subject="replica watches offer"
            )
        comparison = compare_defences(store, train_fraction=0.3)
        assert comparison.cr_spam_delivered == 1
        assert comparison.cr_legit_lost == 1
        assert 0 < comparison.cr_false_negative_rate < 1
        assert 0 < comparison.cr_false_positive_rate < 1

    def test_invalid_train_fraction(self):
        with pytest.raises(ValueError):
            compare_defences(LogStore(), train_fraction=1.5)

    def test_on_real_run_cr_beats_bayes_on_fn(self, small_store):
        comparison = compare_defences(small_store)
        # The paper's (cited) finding: CR has essentially zero false
        # negatives, content filtering does not.
        assert comparison.cr_false_negative_rate < 0.005
        assert comparison.bayes.false_negative_rate > (
            comparison.cr_false_negative_rate
        )
        # And both keep false positives low-single-digit.
        assert comparison.cr_false_positive_rate < 0.05
        assert comparison.bayes.false_positive_rate < 0.20
        # The content filter is still a competent classifier.
        assert comparison.bayes.accuracy > 0.9

    def test_render(self, small_store):
        out = build_table(compare_defences(small_store)).render()
        assert "challenge-response" in out
        assert "naive Bayes" in out


class TestComparisonStreaming:
    """compare_defences on spilled and sharded stores: same answer as the
    in-memory path, without materialising the dispatch table."""

    def _fill(self, store, rows):
        """Synthetic mixed traffic; returns the records for mirroring."""
        for i in range(rows):
            if i % 3 == 0:
                rf.dispatch(
                    store,
                    kind=MessageKind.LEGIT,
                    category=Category.WHITE,
                    subject="meeting notes agenda today",
                )
            elif i % 3 == 1:
                rf.dispatch(store, kind=MessageKind.SPAM,
                            subject="cheap meds now buy today")
            else:
                msg_id = rf.dispatch(
                    store, kind=MessageKind.LEGIT,
                    subject="project report attached", challenge_id=i,
                )
                if i % 6 == 2:
                    rf.release(store, msg_id=msg_id)

    def test_spilled_store_comparison_matches_in_memory(self, tmp_path):
        from repro.analysis.store import SpillConfig

        plain = LogStore()
        self._fill(plain, rows=90)
        spilled = LogStore(
            spill=SpillConfig(directory=str(tmp_path), chunk_rows=16)
        )
        # Mirror the exact record objects (the factory's msg-id counter is
        # global, so generating twice would not produce equal stores).
        for record in plain.dispatch:
            spilled.add_dispatch(record)
        for record in plain.releases:
            spilled.add_release(record)
        assert spilled.dispatch.bytes_spilled > 0  # really on disk

        assert compare_defences(spilled) == compare_defences(plain)

    def test_sharded_store_comparison_matches_plain(self, tiny_result):
        from repro.experiments import run_simulation

        sharded = run_simulation("tiny", seed=7, shards=2, shard_jobs=1)
        assert compare_defences(sharded.store) == compare_defences(
            tiny_result.store
        )

    def test_spilled_comparison_peak_memory_is_bounded(self, tmp_path):
        """Regression for the slicing bug: the streaming pass must hold
        roughly one spill chunk, not the whole table."""
        import tracemalloc

        from repro.analysis.store import SpillConfig

        store = LogStore(
            spill=SpillConfig(directory=str(tmp_path), chunk_rows=128)
        )
        self._fill(store, rows=4_000)
        assert store.dispatch.bytes_spilled > 0

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            compare_defences(store)
            _, streaming_peak = tracemalloc.get_traced_memory()

            tracemalloc.reset_peak()
            materialised = list(store.dispatch)
            _, materialise_peak = tracemalloc.get_traced_memory()
            del materialised
        finally:
            tracemalloc.stop()

        assert streaming_peak < materialise_peak / 2
