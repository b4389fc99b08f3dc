"""Potentials, probabilities, gradients, training, and model serialization."""

import copy
import functools
import json
import math
import operator
import random

import pytest

from liftedrbm.data import ExampleSet
from liftedrbm.logic import UnknownConstantError
from liftedrbm.model import (
    BoostedModel,
    TrainConfig,
    dumps_model,
    loads_model,
    model_from_dict,
    probability,
    train,
)
from liftedrbm.tree import LeafNode, LeafParams, RelationalRegressionTree, make_head

from helpers import (
    ACTEDIN,
    BOOST_FIXTURE,
    COLLAB,
    MOVIE_MODES,
    SCORE_FIXTURE,
    C,
    V,
    atom,
    example1_kb,
    left_sum,
    oracle_per_tree,
    reference_train_loop,
)
from synthetic_domain import generate_movie_domain

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
        with pytest.raises(ValueError):
            TrainConfig(cd_max_iters=-1)

    @pytest.mark.parametrize("field", ["n_trees", "max_leaves", "cd_max_iters", "max_new_vars", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "5", True, None])
    def test_integer_fields_must_be_int(self, field, value):
        with pytest.raises(TypeError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", ["x", None, False, -1e-8, float("nan"), float("inf")])
    def test_cd_tolerance_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError):
            TrainConfig(cd_tolerance=value)

    @pytest.mark.parametrize("field", ["learning_rate", "psi_clamp"])
    @pytest.mark.parametrize("value", [True, False, "1", None])
    def test_real_fields_must_be_real_numbers(self, field, value):
        with pytest.raises(TypeError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "psi_clamp", "cd_tolerance"])
    def test_real_fields_must_convert_to_a_float(self, field):
        with pytest.raises(ValueError, match="beyond float range"):
            TrainConfig(**{field: 10**400})

    def test_integral_rate_and_clamp_are_allowed(self):
        config = TrainConfig(learning_rate=1, psi_clamp=20)
        assert (config.learning_rate, config.psi_clamp) == (1, 20)

    def test_zero_leaf_fitting_settings_are_allowed(self):
        config = TrainConfig(cd_max_iters=0, cd_tolerance=0)
        assert (config.cd_max_iters, config.cd_tolerance) == (0, 0)


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
        gradients = [
            label - probability(model.psi(q, kb), model.config.psi_clamp)
            for q, label in ((pos, 1), (neg, 0))
        ]
        assert gradients == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_chained_reference_value(self):
        kb = example1_kb()
        model = _single_leaf_model(LeafParams(0.0, 0.0, 1.0, 0.0, 1.0))
        pos = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        gradient = 1 - probability(model.psi(pos, kb), model.config.psi_clamp)
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
            gradient = label - probability(model.psi(pos, kb), model.config.psi_clamp)
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
        model, train_set, test_set, kb = movie_model
        for query, _ in test_set.labeled()[:25]:
            result = model.predict(query, kb)
            independent = oracle_per_tree(model.trees, query, kb)
            assert result.per_tree == independent
            assert result.psi == model.psi0 + left_sum(independent)
            assert 0.0 < result.probability < 1.0

    def test_changed_trees_are_never_routed_through_a_stale_trie(self):
        kb, examples, _ = generate_movie_domain(seed=5, n_person=5, n_movie=5, n_pairs=20)
        model = train(kb, examples, TrainConfig(n_trees=2))
        others = train(kb, examples, TrainConfig(n_trees=4, max_leaves=3)).trees
        queries = [query for query, _ in examples.labeled()]
        for change in (
            lambda: model.trees.append(others[3]),
            lambda: model.trees.__setitem__(0, others[2]),
            lambda: model.trees.pop(1),
        ):
            for query in queries:
                model.predict(query, kb)  # routes, and builds a trie, before the change
            change()
            for query in queries:
                result = model.predict(query, kb)
                assert result.per_tree == oracle_per_tree(model.trees, query, kb)
                assert result.psi == model.psi0 + left_sum(result.per_tree)

    def test_unknown_constant_is_an_error(self):
        kb = example1_kb()
        model = _empty_model()
        stranger = atom(COLLAB, C("p1", "person"), C("p99", "person"))
        with pytest.raises(UnknownConstantError):
            model.predict(stranger, kb)

    def test_unknown_or_wrong_typed_constant_is_an_error(self, movie_model):
        # every test of a trained model fails for constants the knowledge
        # base never saw, so only the query check can refuse them
        model, _, _, kb = movie_model
        person, movie = kb.universe("person")[0], kb.universe("movie")[0]
        for query in (
            atom(COLLAB, C("nobody", "person"), C("ghost", "person")),
            atom(COLLAB, person, C(movie.name, "person")),
        ):
            for scored in (model, _empty_model()):
                for score in (scored.predict, scored.psi, scored.per_tree):
                    with pytest.raises(UnknownConstantError):
                        score(query, kb)

    def test_wrong_predicate_is_an_error(self, movie_model):
        # a model without trees has no head to refuse the query, so it must
        # check the predicate itself
        model, _, _, kb = movie_model
        query = next(fact for fact in kb.facts if fact.predicate == ACTEDIN)
        for scored in (model, _empty_model()):
            for score in (scored.predict, scored.psi, scored.per_tree):
                with pytest.raises(ValueError):
                    score(query, kb)

    def test_non_ground_query_is_an_error(self, movie_model):
        # a head matches ground queries only, so no tree routes this one
        model, _, _, kb = movie_model
        query = atom(COLLAB, kb.universe("person")[0], V("P2", "person"))
        for scored in (model, _empty_model()):
            for score in (scored.predict, scored.psi, scored.per_tree):
                with pytest.raises(ValueError):
                    score(query, kb)


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

        kb, examples, _ = movie_domain
        seen = []
        model = train(kb, examples, TrainConfig(n_trees=3), progress=lambda *a: seen.append(a))
        labeled = examples.labeled()
        assert [s[0] for s in seen] == [1, 2, 3]
        for (index, sse, _), tree in zip(seen, model.trees):
            before = dataclasses.replace(model, trees=model.trees[: index - 1])
            alone = dataclasses.replace(model, trees=[tree])
            routed = 0.0
            for query, label in labeled:
                gradient = label - probability(before.psi(query, kb), before.config.psi_clamp)
                routed += (alone.per_tree(query, kb)[0] - gradient) ** 2
            assert sse == routed

    def test_learns_the_generating_rules(self, movie_model, movie_domain):
        from liftedrbm.metrics import ScoredExample, auc_roc

        model, _, test_set, kb = movie_model
        scored = [
            ScoredExample(label, model.predict(query, kb).probability)
            for query, label in test_set.labeled()
        ]
        assert auc_roc(scored) >= 0.9

    def test_each_tree_fits_the_gradients_of_the_earlier_trees(self, movie_domain, monkeypatch):
        # At a nonzero prior, each tree's gradients are label - probability
        # of the potentials of the model made of the trees before it, bit for
        # bit: psi0 plus the sum of their leaf values, as the model adds them.
        import dataclasses

        import liftedrbm.model as model_module

        kb, examples, _ = movie_domain
        seen = []
        grow = model_module._grow

        def spied(root, targets, ids, *args, **kwargs):
            seen.append([targets[i] for i in ids])  # each example's gradient
            return grow(root, targets, ids, *args, **kwargs)

        monkeypatch.setattr(model_module, "_grow", spied)
        model = train(kb, examples, TrainConfig(n_trees=8), psi0=math.log(3.0))
        labeled = examples.labeled()
        assert len(seen) == len(model.trees) == 8
        for index, gradients in enumerate(seen):
            before = dataclasses.replace(model, trees=model.trees[:index])
            psis = before.psi_many([query for query, _ in labeled], kb)
            want = [
                label - probability(psi, model.config.psi_clamp)
                for (_, label), psi in zip(labeled, psis)
            ]
            assert [g.hex() for g in gradients] == [w.hex() for w in want], index

    @pytest.mark.parametrize("psi0", [0.0, math.log(3.0)])
    def test_progress_and_sums_are_the_per_example_loop(self, movie_domain, monkeypatch, psi0):
        # train sums each example's leaf values and each tree's error and
        # mean |gradient| by builtins over whole lists; they must be the
        # floats a loop over the examples adds, bit for bit.  Its sums are
        # read where train reads them: as psi0 + sum, one probability call
        # per distinct (label, sum) pair, in first-seen order.
        import liftedrbm.model as model_module

        kb, examples, _ = movie_domain
        psis = []

        def spied(psi, clamp):
            psis.append(psi)
            return probability(psi, clamp)

        monkeypatch.setattr(model_module, "probability", spied)
        reports = []
        model = train(
            kb, examples, TrainConfig(n_trees=6), progress=lambda *r: reports.append(r), psi0=psi0
        )
        monkeypatch.undo()
        labeled = examples.labeled()
        want, sums = reference_train_loop(model, labeled, kb)

        def bits(rows):
            return [(index, sse.hex(), mean_abs.hex()) for index, sse, mean_abs in rows]

        assert bits(reports) == bits(want)
        labels = [label for _, label in labeled]
        read = [psi0 + total for before in sums[:-1] for _, total in dict.fromkeys(zip(labels, before))]
        assert [psi.hex() for psi in psis] == [psi.hex() for psi in read]
        for (query, _), total in zip(labeled, sums[-1]):
            assert model.psi(query, kb).hex() == (psi0 + total).hex()

    def test_prior_potential_shifts_the_model(self):
        kb = example1_kb()
        pos = [atom(COLLAB, C("p1", "person"), C("p2", "person"))]
        neg = [atom(COLLAB, C("p2", "person"), C("p1", "person"))]
        examples = ExampleSet(COLLAB, pos, neg)
        model = train(kb, examples, TrainConfig(n_trees=0), psi0=math.log(3.0))
        assert model.psi0 == pytest.approx(math.log(3.0))
        assert model.predict(pos[0], kb).probability == pytest.approx(0.75, abs=1e-12)

    def test_a_refused_leaf_is_named_by_its_path(self):
        # The first leaf with non-finite parameters, in path order, true
        # branch first, is named by its signed path literals.
        from liftedrbm.logic import Literal
        from liftedrbm.model import _check_finite_leaves
        from liftedrbm.tree import InternalNode

        head = make_head(COLLAB)
        movie = V("M", "movie")
        acted = Literal(atom(ACTEDIN, head.args[0], movie))
        both = Literal(atom(ACTEDIN, head.args[1], movie))
        nan, inf = LeafParams(output_bias=math.nan), LeafParams(hidden_bias=math.inf)
        fine = LeafNode(LeafParams(output_bias=0.5))
        tree = RelationalRegressionTree(
            head, InternalNode(acted, InternalNode(both, fine, LeafNode(nan)), LeafNode(inf))
        )
        with pytest.raises(ValueError) as refused:
            _check_finite_leaves(tree, 2)
        assert str(refused.value) == (
            f"tree 3 leaf {acted} ∧ ¬{both.atom} has non-finite parameters or value "
            f"{tuple(nan)}; lower the learning rate"
        )
        _check_finite_leaves(RelationalRegressionTree(head, InternalNode(acted, fine, fine)), 0)
        with pytest.raises(ValueError, match=r"^tree 1 leaf true has"):
            _check_finite_leaves(RelationalRegressionTree(head, LeafNode(inf)), 0)

    def test_missing_modes_are_an_error(self):
        from liftedrbm.logic import KnowledgeBase

        kb = KnowledgeBase()
        pos = [atom(COLLAB, C("p1", "person"), C("p2", "person"))]
        with pytest.raises(ValueError):
            train(kb, ExampleSet(COLLAB, pos, pos[:0]), TrainConfig(n_trees=1))


# What a mutation puts in place of a value of a model document.
_JSON_VALUES = (
    None, True, False, 0, 1, -1, 0.5, 1e300, float("inf"), "", "x", "person", "collab(P1, P2)",
    [], {}, [1.0, 0.0, 0.0, 0.0, 0.0],
)
_DELETE = object()


def _value_paths(value, path=()):
    """The path of ``value`` and of every value inside it, as keys and indices."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _value_paths(item, path + (key,))


def _edited(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` set to ``new``, or
    deleted if ``new`` is ``_DELETE``."""
    if not path:
        return new
    doc = copy.deepcopy(doc)
    *steps, last = path
    parent = functools.reduce(operator.getitem, steps, doc)
    if new is _DELETE:
        del parent[last]
    else:
        parent[last] = new
    return doc


def _mutations(doc):
    """Every document one edit away from ``doc``: a value (the document
    included) replaced by one of ``_JSON_VALUES`` or deleted, or an unknown
    key added to an object."""
    for path in list(_value_paths(doc)):
        for new in _JSON_VALUES + ((_DELETE,) if path else ()):
            yield _edited(doc, path, new)
        if isinstance(functools.reduce(operator.getitem, path, doc), dict):
            yield _edited(doc, path + ("unknown",), 0)


def _as_floats(value) -> str:
    """``value`` as canonical JSON text with each integer read as a float, as
    the loader reads numbers, and booleans kept apart from numbers."""

    def floats(v):
        if isinstance(v, dict):
            return {key: floats(item) for key, item in v.items()}
        if isinstance(v, list):
            return [floats(item) for item in v]
        return float(v) if type(v) is int else v

    return json.dumps(floats(value), sort_keys=True)


class TestSerialization:
    def test_training_reproduces_the_benchmark_fixture_byte_for_byte(self, movie_model):
        model, _, _, _ = movie_model
        assert dumps_model(model) == BOOST_FIXTURE.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fixture", [BOOST_FIXTURE, SCORE_FIXTURE])
    def test_the_benchmark_fixtures_load_and_write_back_byte_for_byte(self, fixture):
        # The loader refuses keys it does not read and needs every config
        # field; every document dumps_model writes has exactly those.
        text = fixture.read_text(encoding="utf-8")
        assert dumps_model(loads_model(text)) == text

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

    def test_every_single_mutation_is_refused_or_written_back(self):
        # Each value of the benchmark model cut to its first tree is replaced
        # by each of _JSON_VALUES or deleted, and an unknown key is added to
        # each object: the loader raises ParseError (exit 2), or the model it
        # loads is written back as the mutated document.
        from liftedrbm.data import ParseError

        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        doc["trees"] = doc["trees"][:1]
        refused = written_back = 0
        for mutated in _mutations(doc):
            text = json.dumps(mutated)
            try:
                model = loads_model(text)
            except ParseError:
                refused += 1
                continue
            assert _as_floats(json.loads(dumps_model(model))) == _as_floats(mutated), text
            written_back += 1
        assert refused > 1000 and written_back > 100

    def test_unsupported_version_is_an_error(self):
        from liftedrbm.data import ParseError

        with pytest.raises(ParseError):
            loads_model('{"format_version": 99}')

    def test_a_variable_at_two_types_on_one_path_is_a_parse_error(self):
        from liftedrbm.data import ParseError

        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        leaf = {"leaf": [0.0] * 5}
        # X is a movie at the root and a person one test below, on its false branch
        doc["trees"] = [{"test": "actedin(P2, X)", "true": leaf,
                         "false": {"test": "person(X)", "true": leaf, "false": leaf}}]
        with pytest.raises(ParseError, match="variable X is used as movie and as person"):
            model_from_dict(doc)

    def test_sibling_subtrees_may_give_a_name_other_types(self):
        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        leaf = {"leaf": [0.0] * 5}
        doc["trees"] = [{"test": "actedin(P2, M1)",
                         "true": {"test": "person(X)", "true": leaf, "false": leaf},
                         "false": {"test": "ingenre(X, G1)", "true": leaf, "false": leaf}}]
        tree = model_from_dict(doc).trees[0]
        x_types = {
            var.type_tag
            for literals, _ in tree.paths() for lit in literals for var in lit.atom.variables()
            if var.name == "X"
        }
        assert x_types == {"person", "movie"}

    def test_document_nested_past_the_recursion_limit_is_a_parse_error(self):
        from liftedrbm.data import ParseError

        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        node = {"leaf": [0.0] * 5}
        for _ in range(5000):
            node = {"test": "actedin(P2, M1)", "true": node, "false": {"leaf": [0.0] * 5}}
        doc["trees"] = [node]
        with pytest.raises(ParseError, match="recursion"):
            model_from_dict(doc)
