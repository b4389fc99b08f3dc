"""Path mapping, clause-level inference, distillation, and exports."""

import dataclasses
import hashlib
import json

import pytest

from liftedrbm.logic import Literal, SearchStats, UnknownConstantError
from liftedrbm.model import BoostedModel, TrainConfig
from liftedrbm.network import (
    LiftedRBMNetwork,
    distill_single_tree,
    dumps_network,
    export,
    lrbm_inference,
    paths_to_lrbm,
)
from liftedrbm.tree import (
    InternalNode,
    LeafNode,
    LeafParams,
    RegressionExample,
    RelationalRegressionTree,
    fit_regression_tree,
    make_head,
)

from helpers import (
    ACTEDIN,
    COLLAB,
    COLLAB_HEAD,
    MOVIE_MODES,
    C,
    V,
    atom,
    example1_kb,
    example2_kb,
    rule_clauses,
)


# sha256 of the depth-10 distillation of the benchmark's boost model on its
# training fold, the tree text the benchmark's distill workload prints
DISTILLED_TREE_SHA256 = "8350d06053f0c51940650cc20f441ec12649c9e45577a20053d8e426a11b58e5"


def _hand_network(psi0=0.0):
    clauses = [(clause, LeafParams(output_bias=0.1 * (i + 1))) for i, clause in enumerate(rule_clauses())]
    return LiftedRBMNetwork.from_clauses(COLLAB_HEAD, clauses, psi0=psi0)


def _single_leaf_model(params=LeafParams(0.25)):
    head = make_head(COLLAB)
    tree = RelationalRegressionTree(head, LeafNode(params))
    return BoostedModel(COLLAB, head, 0.0, [tree], TrainConfig(), dict(MOVIE_MODES))


def _two_tree_model():
    """Two full binary trees of depth 2 (four leaves each), hand-built."""
    head = make_head(COLLAB)
    p1, p2 = head.args
    m1, m2 = V("M1", "movie"), V("M2", "movie")

    def leaf(v):
        return LeafNode(LeafParams(output_bias=v))

    def tree(root_atom, child_atom, base):
        return RelationalRegressionTree(
            head,
            InternalNode(
                Literal(root_atom),
                InternalNode(Literal(child_atom), leaf(base), leaf(base + 0.01)),
                InternalNode(Literal(child_atom), leaf(base + 0.02), leaf(base + 0.03)),
            ),
        )

    t1 = tree(atom(ACTEDIN, p1, m1), atom(ACTEDIN, p2, m1), 0.1)
    t2 = tree(atom(ACTEDIN, p2, m2), atom(ACTEDIN, p1, m2), 0.2)
    return BoostedModel(COLLAB, head, 0.0, [t1, t2], TrainConfig(), dict(MOVIE_MODES))


class TestPathsToLrbm:
    def test_one_hidden_node_per_leaf(self, movie_model):
        model, _, _, _ = movie_model
        net = paths_to_lrbm(model)
        assert len(net.hidden) == sum(tree.leaf_count for tree in model.trees)
        source_trees = {n.source[0] for n in net.hidden}
        assert source_trees == set(range(len(model.trees)))

    def test_two_four_leaf_trees_give_eight_hidden_nodes(self):
        net = paths_to_lrbm(_two_tree_model())
        assert len(net.hidden) == 8

    def test_single_leaf_tree_gives_one_hidden_node(self):
        net = paths_to_lrbm(_single_leaf_model())
        assert len(net.hidden) == 1
        assert net.hidden[0].clause.body == ()

    def test_network_potential_equals_ensemble_potential(self, movie_model):
        model, train_set, test_set, kb = movie_model
        net = paths_to_lrbm(model)
        for query, _ in (train_set.labeled() + test_set.labeled())[:120]:
            ensemble_psi = model.psi(query, kb)
            network_psi = lrbm_inference(net, query, kb).psi
            assert abs(ensemble_psi - network_psi) < 1e-9

    def test_network_probability_uses_the_model_clamp(self, movie_model):
        model, train_set, _, kb = movie_model
        clamped = dataclasses.replace(model, config=TrainConfig(psi_clamp=1.0))
        net = paths_to_lrbm(clamped)
        assert json.loads(dumps_network(net))["psi_clamp"] == 1.0
        saturated = 0
        for query, _ in train_set.labeled()[:120]:
            ensemble = clamped.predict(query, kb)
            network = lrbm_inference(net, query, kb)
            assert network.probability == ensemble.probability
            saturated += abs(ensemble.psi) > 1.0
        assert saturated > 0  # the clamp decides some of these probabilities

    def test_exactly_one_activation_per_source_tree(self, movie_model):
        model, train_set, _, kb = movie_model
        net = paths_to_lrbm(model)
        by_tree = {}
        for node in net.hidden:
            by_tree.setdefault(node.source[0], set()).add(node.index)
        for query, _ in train_set.labeled()[:60]:
            activated = set(lrbm_inference(net, query, kb).activated)
            for tree_index, members in by_tree.items():
                assert len(activated & members) == 1, f"tree {tree_index}"

    def test_sparsity_edges_match_clause_bodies_exactly(self, movie_model):
        model, _, _, _ = movie_model
        net = paths_to_lrbm(model)
        edges = set(net.visible_hidden_edges)
        expected = {
            (pred, node.index)
            for node in net.hidden
            for pred in node.clause.body_predicates()
        }
        assert edges == expected
        assert {pred for pred, _ in edges} <= set(net.visible)


class TestInference:
    def test_walkthrough_example_one(self):
        kb = example1_kb()
        net = _hand_network()
        stats = SearchStats()
        query = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        result = lrbm_inference(net, query, kb, stats)
        # only the shared-movie clause (index 2) activates, with M -> m1
        assert result.activated == (2,)
        witness = result.witnesses[2]
        assert witness.get(V("M", "movie")) == C("m1", "movie")
        assert witness.get(V("P1", "person")) == C("p1", "person")
        assert witness.get(V("P2", "person")) == C("p2", "person")
        assert stats.groundings_visited == 2  # the search stops at the first witness

    def test_walkthrough_example_two(self):
        kb = example2_kb()
        net = _hand_network()
        stats = SearchStats()
        query = atom(COLLAB, C("p01", "person"), C("p02", "person"))
        result = lrbm_inference(net, query, kb, stats)
        # only the worked-under clause (index 1) activates
        assert result.activated == (1,)
        witness = result.witnesses[1]
        assert witness.get(V("M1", "movie")) == C("m01", "movie")
        assert witness.get(V("P3", "person")) == C("p03", "person")
        assert stats.groundings_visited == 5

    def test_potential_sums_active_nodes_only(self):
        kb = example1_kb()
        net = _hand_network(psi0=0.5)
        query = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        result = lrbm_inference(net, query, kb)
        assert result.psi == pytest.approx(0.5 + net.hidden[2].params.value(), abs=1e-12)

    def test_unknown_constant_is_an_error(self):
        kb = example1_kb()
        net = _hand_network()
        with pytest.raises(UnknownConstantError):
            lrbm_inference(net, atom(COLLAB, C("p1", "person"), C("zz", "person")), kb)


class TestDistill:
    def test_self_distillation_reproduces_a_single_tree(self, movie_domain):
        kb, examples, _ = movie_domain
        labeled = examples.labeled()
        regression = [RegressionExample(q, y, 0.9 if y else -0.7) for q, y in labeled]
        tree = fit_regression_tree(regression, 4, MOVIE_MODES, kb)
        model = BoostedModel(COLLAB, tree.head, 0.0, [tree], TrainConfig(), dict(MOVIE_MODES))
        distilled = distill_single_tree(model, examples, kb, max_depth=6)
        assert distilled.trees[0].depth <= 6
        for query, _ in labeled[:150]:
            want = model.psi(query, kb)
            got = distilled.psi(query, kb)
            assert abs(want - got) < 2e-3  # coordinate-descent tolerance

    def test_depth_cap_is_respected(self, movie_model):
        model, train_set, _, kb = movie_model
        distilled = distill_single_tree(model, train_set, kb, max_depth=3)
        assert distilled.trees[0].depth <= 3

    def test_distillation_approximates_the_ensemble(self, movie_model):
        model, train_set, _, kb = movie_model
        single = distill_single_tree(model, train_set, kb, max_depth=10)
        assert len(single.trees) == 1 and single.trees[0].depth <= 10
        assert single.psi0 == 0.0
        assert single.config == model.config and single.modes == model.modes
        labeled = train_set.labeled()
        close = sum(
            1
            for query, _ in labeled
            if abs(single.psi(query, kb) - model.psi(query, kb)) < 0.1
        )
        assert close / len(labeled) >= 0.9

    def test_depth_ten_distillation_reproduces_the_benchmark_tree(self, movie_model):
        model, train_set, _, kb = movie_model
        text = distill_single_tree(model, train_set, kb, max_depth=10).trees[0].to_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DISTILLED_TREE_SHA256

    def test_distillation_requires_examples(self, movie_model):
        from liftedrbm.data import ExampleSet

        model, _, _, kb = movie_model
        empty = ExampleSet(COLLAB, [], [])
        with pytest.raises(ValueError):
            distill_single_tree(model, empty, kb)


class TestExport:
    def test_single_hidden_node_dot_lists_body_and_output_edges(self):
        _, _, same_movie = rule_clauses()
        net = LiftedRBMNetwork.from_clauses(COLLAB_HEAD, [(same_movie, LeafParams(0.3))])
        dot = export(net, "dot")
        assert dot.count('"h_0"') >= 3
        assert '"v_actedin" -> "h_0";' in dot
        assert '"h_0" -> "y_1"' in dot and '"h_0" -> "y_0"' in dot

    def test_eight_hidden_nodes_in_dot_output(self):
        net = paths_to_lrbm(_two_tree_model())
        dot = export(net, "dot")
        assert sum(1 for line in dot.splitlines() if "[shape=box," in line) == 8

    def test_text_output_ranks_by_output_weight_gap(self):
        clauses = list(rule_clauses())
        params = [
            LeafParams(pos_weight=0.1, neg_weight=0.0),
            LeafParams(pos_weight=0.9, neg_weight=-0.4),
            LeafParams(pos_weight=0.2, neg_weight=-0.1),
        ]
        net = LiftedRBMNetwork.from_clauses(COLLAB_HEAD, list(zip(clauses, params)))
        text = export(net, "text")
        lines = [line for line in text.splitlines() if line.startswith("  h")]
        assert lines[0].lstrip().startswith("h1")  # gap 1.3
        assert lines[1].lstrip().startswith("h2")  # gap 0.3
        assert lines[2].lstrip().startswith("h0")  # gap 0.1

    def test_exports_are_deterministic(self, movie_model):
        model, _, _, _ = movie_model
        net = paths_to_lrbm(model)
        assert export(net, "dot") == export(net, "dot")
        assert export(net, "text") == export(net, "text")
        assert dumps_network(net) == dumps_network(net)

    def test_unknown_format_is_an_error(self):
        with pytest.raises(ValueError):
            export(_hand_network(), "svg")

    def test_network_json_mirrors_the_model_schema(self, movie_model):
        model, _, _, _ = movie_model
        net = paths_to_lrbm(model)
        data = json.loads(dumps_network(net))
        assert data["format_version"] == 1
        assert len(data["hidden"]) == len(net.hidden)
        for entry in data["hidden"]:
            assert len(entry["params"]) == 5
            assert "⇒" in entry["clause"]
