"""Ranking metrics against brute-force oracles, and the CV harness."""

import random

import pytest

from liftedrbm.data import ExampleSet, split_folds
from liftedrbm.metrics import (
    MetricsReport,
    ScoredExample,
    auc_pr,
    auc_roc,
    cross_validate,
)
from liftedrbm.model import TrainConfig, train

from helpers import COLLAB, C, atom, recording_pool


def _scored(pos_scores, neg_scores):
    return [ScoredExample(1, s) for s in pos_scores] + [
        ScoredExample(0, s) for s in neg_scores
    ]


def pairwise_auc_oracle(scored):
    """Brute-force pairwise win rate with half credit for ties."""
    pos = [s.score for s in scored if s.label == 1]
    neg = [s.score for s in scored if s.label != 1]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc(_scored([0.8, 0.9], [0.1, 0.2])) == pytest.approx(1.0)

    def test_all_ties_give_half(self):
        assert auc_roc(_scored([0.5, 0.5], [0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_hand_computed_case(self):
        assert auc_roc(_scored([0.9, 0.4], [0.6, 0.2])) == pytest.approx(0.75, abs=1e-12)

    def test_empty_class_is_an_error(self):
        with pytest.raises(ValueError):
            auc_roc(_scored([0.5], []))
        with pytest.raises(ValueError):
            auc_roc(_scored([], [0.5]))

    def test_matches_pairwise_oracle_on_random_inputs(self):
        rng = random.Random(99)
        for _ in range(300):
            n_pos = rng.randint(1, 40)
            n_neg = rng.randint(1, 40)
            # quantized scores create plenty of ties
            pos = [round(rng.random(), 1) for _ in range(n_pos)]
            neg = [round(rng.random(), 1) for _ in range(n_neg)]
            scored = _scored(pos, neg)
            assert auc_roc(scored) == pytest.approx(
                pairwise_auc_oracle(scored), abs=1e-9
            )

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(4)
        scored = _scored(
            [rng.random() for _ in range(25)], [rng.random() for _ in range(30)]
        )
        base = auc_roc(scored)
        squashed = [
            ScoredExample(s.label, 1.0 / (1.0 + 2.718 ** (-7 * s.score)))
            for s in scored
        ]
        assert auc_roc(squashed) == pytest.approx(base, abs=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(8)
        scored = _scored(
            [rng.random() for _ in range(20)], [rng.random() for _ in range(20)]
        )
        shuffled = list(scored)
        rng.shuffle(shuffled)
        assert auc_roc(shuffled) == pytest.approx(auc_roc(scored), abs=1e-12)
        assert auc_pr(shuffled) == pytest.approx(auc_pr(scored), abs=1e-12)


class TestAucPr:
    def test_perfect_ranking_gives_one(self):
        assert auc_pr(_scored([0.9, 0.8], [0.2, 0.1])) == pytest.approx(1.0)

    def test_single_positive_ranked_last(self):
        assert auc_pr(_scored([0.1], [0.9, 0.8, 0.7])) == pytest.approx(0.25)

    def test_hand_computed_case(self):
        # ranking: 0.9(+), 0.6(-), 0.4(+), 0.2(-) -> (1 + 2/3) / 2
        assert auc_pr(_scored([0.9, 0.4], [0.6, 0.2])) == pytest.approx(
            0.8333333333333333, abs=1e-12
        )

    def test_no_positives_is_an_error(self):
        with pytest.raises(ValueError):
            auc_pr(_scored([], [0.5]))

    def test_matches_running_precision_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            scored = _scored(
                [rng.random() for _ in range(rng.randint(1, 15))],
                [rng.random() for _ in range(rng.randint(0, 15))],
            )
            order = sorted(range(len(scored)), key=lambda i: -scored[i].score)
            hits, total = 0, 0.0
            for rank, i in enumerate(order, start=1):
                if scored[i].label == 1:
                    hits += 1
                    total += hits / rank
            n_pos = sum(1 for s in scored if s.label == 1)
            assert auc_pr(scored) == pytest.approx(total / n_pos, abs=1e-12)


class TestCrossValidate:
    def test_report_shape_and_determinism(self, movie_domain):
        kb, examples, _ = movie_domain
        config = TrainConfig(n_trees=2)
        folds = split_folds(examples, 5, seed=0)
        first = cross_validate(kb, examples, folds, config)
        second = cross_validate(kb, examples, folds, config)
        assert isinstance(first, MetricsReport)
        assert len(first.folds) == 5
        assert [m.auc_roc for m in first.folds] == [m.auc_roc for m in second.folds]
        assert [m.auc_pr for m in first.folds] == [m.auc_pr for m in second.folds]
        assert first.config["n_trees"] == 2

    def test_two_fold_metrics_match_manual_runs(self, movie_domain):
        from liftedrbm.metrics import ScoredExample as SE

        kb, examples, _ = movie_domain
        config = TrainConfig(n_trees=2)
        folds = split_folds(examples, 2, seed=5)
        report = cross_validate(kb, examples, folds, config)
        for fold in range(2):
            train_set, test_set = folds.split(examples, fold)
            model = train(kb, train_set, config)
            scored = [
                SE(y, model.predict(q, kb).probability) for q, y in test_set.labeled()
            ]
            assert report.folds[fold].auc_roc == pytest.approx(auc_roc(scored), abs=1e-12)
            assert report.folds[fold].auc_pr == pytest.approx(auc_pr(scored), abs=1e-12)

    def test_parallel_folds_match_serial(self, movie_domain):
        kb, examples, _ = movie_domain
        config = TrainConfig(n_trees=1)
        folds = split_folds(examples, 2, seed=1)
        serial = cross_validate(kb, examples, folds, config, jobs=1)
        parallel = cross_validate(kb, examples, folds, config, jobs=2)
        assert [m.auc_roc for m in serial.folds] == [m.auc_roc for m in parallel.folds]
        assert [m.auc_pr for m in serial.folds] == [m.auc_pr for m in parallel.folds]

    def test_workers_are_capped_at_the_fold_count(self, movie_domain, monkeypatch):
        # A pool under a non-fork start method starts all its workers at
        # once, so it must ask for no more than there are folds.
        import concurrent.futures

        kb, examples, _ = movie_domain
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
        config = TrainConfig(n_trees=1)
        serial = cross_validate(kb, examples, split_folds(examples, 2, seed=1), config)
        for jobs, k, want in ((8, 2, [2]), (2, 3, [2]), (3, 3, [3]), (1, 3, [])):
            sizes.clear()
            report = cross_validate(kb, examples, split_folds(examples, k, seed=1), config, jobs=jobs)
            assert sizes == want, (jobs, k)
            assert len(report.folds) == k
            if k == 2:
                assert [m.auc_roc for m in report.folds] == [m.auc_roc for m in serial.folds]

    def test_serial_and_parallel_report_the_same_fold_failure(self):
        from liftedrbm.logic import KnowledgeBase

        kb = KnowledgeBase()  # no mode declarations: training must fail
        pos = [atom(COLLAB, C(f"p{i}", "person"), C(f"q{i}", "person")) for i in range(2)]
        neg = [atom(COLLAB, C(f"q{i}", "person"), C(f"p{i}", "person")) for i in range(2)]
        examples = ExampleSet(COLLAB, pos, neg)
        folds = split_folds(examples, 2, seed=0)
        messages = []
        for jobs in (1, 2):
            with pytest.raises(RuntimeError) as info:
                cross_validate(kb, examples, folds, TrainConfig(n_trees=1), jobs=jobs)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("fold 0 failed: ")

    def test_population_stdev_formula(self):
        values = [0.9, 0.8, 1.0]
        from liftedrbm.metrics import _mean_std

        mean, std = _mean_std(values)
        assert mean == pytest.approx(0.9)
        assert std == pytest.approx((0.02 / 3) ** 0.5, abs=1e-12)

    def test_text_and_json_renderings(self, movie_domain):
        kb, examples, _ = movie_domain
        folds = split_folds(examples, 2, seed=0)
        report = cross_validate(kb, examples, folds, TrainConfig(n_trees=1))
        text = report.to_text()
        assert "auc-roc" in text and "population stdev" in text
        payload = report.to_dict()
        assert len(payload["folds"]) == 2
        assert payload["config"]["max_leaves"] == 4
