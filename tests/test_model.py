"""Potentials, probabilities, gradients, training, and model serialization."""

import math
import random

import pytest

from liftedrbm.data import ExampleSet
from liftedrbm.logic import UnknownConstantError
from liftedrbm.model import (
    BoostedModel,
    TrainConfig,
    compute_gradients,
    dumps_model,
    loads_model,
    probability,
    train,
)
from liftedrbm.tree import LeafNode, LeafParams, RelationalRegressionTree, make_head

from helpers import BOOST_FIXTURE, COLLAB, MOVIE_MODES, C, atom, example1_kb

# log((1 + e^2) / (1 + e^1)), frozen from a direct high-precision evaluation
POTENTIAL_0_0_1_0_1 = 0.813666323524749662
# sigmoid of the value above
SIGMOID_OF_POTENTIAL = 0.692890224857158565


class TestTrainConfig:
    def test_defaults_match_the_reference_hyperparameters(self):
        config = TrainConfig()
        assert config.n_trees == 20
        assert config.max_leaves == 4
        assert config.learning_rate == 0.05

    def test_invalid_values_are_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=-1)
        with pytest.raises(ValueError):
            TrainConfig(max_leaves=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=float("nan"))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=float("inf"))
        with pytest.raises(ValueError):
            TrainConfig(psi_clamp=float("nan"))
        with pytest.raises(ValueError):
            TrainConfig(max_new_vars=-1)


class TestLeafPotential:
    def test_zero_parameters_give_zero(self):
        assert LeafParams().value() == pytest.approx(0.0, abs=1e-15)

    def test_pure_output_bias_passes_through(self):
        assert LeafParams(output_bias=0.5).value() == pytest.approx(0.5, abs=1e-15)

    def test_frozen_reference_value(self):
        params = LeafParams(0.0, 0.0, 1.0, 0.0, 1.0)
        assert params.value() == pytest.approx(POTENTIAL_0_0_1_0_1, abs=1e-12)

    def test_monotone_in_each_weight(self):
        rng = random.Random(3)
        eps = 1e-6
        for _ in range(200):
            base = [rng.uniform(-2, 2) for _ in range(5)]
            v = LeafParams(*base).value()
            up_d = list(base)
            up_d[0] += eps
            assert LeafParams(*up_d).value() > v  # increasing in output bias
            up_pos = list(base)
            up_pos[4] += eps
            assert LeafParams(*up_pos).value() > v  # increasing in pos weight
            up_neg = list(base)
            up_neg[3] += eps
            assert LeafParams(*up_neg).value() < v  # decreasing in neg weight


class TestProbability:
    def test_zero_potential_is_even_odds(self):
        assert probability(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        # the potential is clamped at +/-20 first; sigmoid(20) is within
        # 2.1e-9 of one
        assert abs(probability(30.0) - 1.0) < 2.5e-9
        assert probability(-30.0) < 2.5e-9

    def test_frozen_reference_value(self):
        assert probability(POTENTIAL_0_0_1_0_1) == pytest.approx(
            SIGMOID_OF_POTENTIAL, abs=1e-12
        )

    def test_always_strictly_inside_unit_interval(self):
        rng = random.Random(5)
        for _ in range(1000):
            p = probability(rng.uniform(-100, 100))
            assert 0.0 < p < 1.0


def _single_leaf_model(params: LeafParams, modes=MOVIE_MODES) -> BoostedModel:
    head = make_head(COLLAB)
    tree = RelationalRegressionTree(head, LeafNode(params))
    return BoostedModel(COLLAB, head, 0.0, [tree], TrainConfig(), dict(modes))


def _empty_model() -> BoostedModel:
    head = make_head(COLLAB)
    return BoostedModel(COLLAB, head, 0.0, [], TrainConfig(), dict(MOVIE_MODES))


class TestComputeGradients:
    def test_signs_at_even_odds(self):
        kb = example1_kb()
        model = _empty_model()
        pos = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        neg = atom(COLLAB, C("p2", "person"), C("p1", "person"))
        gradients = compute_gradients(model, [(pos, 1), (neg, 0)], kb)
        assert gradients == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_chained_reference_value(self):
        kb = example1_kb()
        model = _single_leaf_model(LeafParams(0.0, 0.0, 1.0, 0.0, 1.0))
        pos = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        (gradient,) = compute_gradients(model, [(pos, 1)], kb)
        assert gradient == pytest.approx(1.0 - SIGMOID_OF_POTENTIAL, abs=1e-12)

    def test_matches_finite_difference_of_log_likelihood(self):
        rng = random.Random(17)
        step = 1e-5
        for _ in range(300):
            psi = rng.uniform(-15.0, 15.0)
            label = rng.randint(0, 1)

            def log_likelihood(value):
                # P(y=0) = 1 - sigmoid(v) = sigmoid(-v), stable near saturation
                return math.log(probability(value if label == 1 else -value))

            numeric = (log_likelihood(psi + step) - log_likelihood(psi - step)) / (2 * step)
            analytic = label - probability(psi)
            assert abs(numeric - analytic) < 1e-6

    def test_gradients_stay_in_open_interval(self):
        kb = example1_kb()
        model = _single_leaf_model(LeafParams(5.0, 0.0, 0.0, 0.0, 5.0))
        pos = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        for label in (0, 1):
            (gradient,) = compute_gradients(model, [(pos, label)], kb)
            assert -1.0 < gradient < 1.0


class TestPredict:
    def test_empty_model_predicts_even_odds(self):
        kb = example1_kb()
        model = _empty_model()
        result = model.predict(atom(COLLAB, C("p1", "person"), C("p2", "person")), kb)
        assert result.probability == pytest.approx(0.5, abs=1e-15)
        assert result.per_tree == ()

    def test_single_leaf_reference_probability(self):
        kb = example1_kb()
        model = _single_leaf_model(LeafParams(0.0, 0.0, 1.0, 0.0, 1.0))
        result = model.predict(atom(COLLAB, C("p1", "person"), C("p2", "person")), kb)
        assert result.probability == pytest.approx(SIGMOID_OF_POTENTIAL, abs=1e-12)

    def test_psi_is_exactly_prior_plus_tree_sum(self, movie_model):
        from liftedrbm.tree import evaluate_tree

        model, train_set, test_set, kb = movie_model
        for query, _ in test_set.labeled()[:25]:
            result = model.predict(query, kb)
            independent = [evaluate_tree(tree, query, kb) for tree in model.trees]
            assert result.per_tree == tuple(independent)
            assert result.psi == model.psi0 + sum(independent)
            assert 0.0 < result.probability < 1.0

    def test_unknown_constant_is_an_error(self):
        kb = example1_kb()
        model = _empty_model()
        stranger = atom(COLLAB, C("p1", "person"), C("p99", "person"))
        with pytest.raises(UnknownConstantError):
            model.predict(stranger, kb)

    def test_wrong_predicate_is_an_error(self):
        kb = example1_kb()
        model = _empty_model()
        from helpers import ACTEDIN

        with pytest.raises(ValueError):
            model.predict(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), kb)


class TestTrain:
    def test_zero_trees_predicts_even_odds_everywhere(self):
        kb = example1_kb()
        pos = [atom(COLLAB, C("p1", "person"), C("p2", "person"))]
        neg = [atom(COLLAB, C("p2", "person"), C("p1", "person"))]
        examples = ExampleSet(COLLAB, pos, neg)
        model = train(kb, examples, TrainConfig(n_trees=0))
        assert model.trees == []
        assert model.predict(pos[0], kb).probability == pytest.approx(0.5)

    def test_requested_number_of_trees_is_fit(self, movie_domain):
        kb, examples, _ = movie_domain
        model = train(kb, examples, TrainConfig(n_trees=3))
        assert len(model.trees) == 3
        assert all(tree.leaf_count <= 4 for tree in model.trees)

    def test_progress_hook_sees_every_iteration(self, movie_domain):
        kb, examples, _ = movie_domain
        seen = []
        train(kb, examples, TrainConfig(n_trees=2), progress=lambda *a: seen.append(a))
        assert [s[0] for s in seen] == [1, 2]
        assert all(s[1] >= 0 and 0 <= s[2] <= 1 for s in seen)

    def test_progress_reports_the_routed_error_of_every_tree(self, movie_domain):
        import dataclasses

        from liftedrbm.tree import evaluate_tree

        kb, examples, _ = movie_domain
        seen = []
        model = train(kb, examples, TrainConfig(n_trees=3), progress=lambda *a: seen.append(a))
        labeled = examples.labeled()
        assert [s[0] for s in seen] == [1, 2, 3]
        for (index, sse, _), tree in zip(seen, model.trees):
            before = dataclasses.replace(model, trees=model.trees[: index - 1])
            gradients = compute_gradients(before, labeled, kb)
            routed = sum(
                (evaluate_tree(tree, query, kb) - gradient) ** 2
                for (query, _), gradient in zip(labeled, gradients)
            )
            assert sse == routed

    def test_learns_the_generating_rules(self, movie_model, movie_domain):
        from liftedrbm.metrics import ScoredExample, auc_roc

        model, _, test_set, kb = movie_model
        scored = [
            ScoredExample(label, model.predict(query, kb).probability, query)
            for query, label in test_set.labeled()
        ]
        assert auc_roc(scored) >= 0.9

    def test_prior_potential_shifts_the_model(self):
        kb = example1_kb()
        pos = [atom(COLLAB, C("p1", "person"), C("p2", "person"))]
        neg = [atom(COLLAB, C("p2", "person"), C("p1", "person"))]
        examples = ExampleSet(COLLAB, pos, neg)
        model = train(kb, examples, TrainConfig(n_trees=0), psi0=math.log(3.0))
        assert model.psi0 == pytest.approx(math.log(3.0))
        assert model.predict(pos[0], kb).probability == pytest.approx(0.75, abs=1e-12)

    def test_missing_modes_are_an_error(self):
        from liftedrbm.logic import KnowledgeBase

        kb = KnowledgeBase()
        pos = [atom(COLLAB, C("p1", "person"), C("p2", "person"))]
        with pytest.raises(ValueError):
            train(kb, ExampleSet(COLLAB, pos, pos[:0]), TrainConfig(n_trees=1))


class TestSerialization:
    def test_training_reproduces_the_benchmark_fixture_byte_for_byte(self, movie_model):
        model, _, _, _ = movie_model
        assert dumps_model(model) == BOOST_FIXTURE.read_text(encoding="utf-8")

    def test_round_trip_is_bit_exact(self, movie_model):
        model, _, _, _ = movie_model
        first = dumps_model(model)
        second = dumps_model(loads_model(first))
        assert first == second

    def test_reloaded_model_predicts_identically(self, movie_model):
        model, _, test_set, kb = movie_model
        reloaded = loads_model(dumps_model(model))
        for query, _ in test_set.labeled()[:25]:
            a = model.predict(query, kb)
            b = reloaded.predict(query, kb)
            assert a.psi == b.psi
            assert a.probability == b.probability
            assert a.per_tree == b.per_tree

    def test_config_and_modes_survive_the_round_trip(self, movie_model):
        model, _, _, _ = movie_model
        reloaded = loads_model(dumps_model(model))
        assert reloaded.config == model.config
        assert reloaded.modes == model.modes
        assert reloaded.target == model.target

    def test_unsupported_version_is_an_error(self):
        from liftedrbm.data import ParseError

        with pytest.raises(ParseError):
            loads_model('{"format_version": 99}')
