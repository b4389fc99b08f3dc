"""Path mapping, clause-level inference, distillation, and exports."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from liftedrbm.logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    RoutingTrie,
    SearchStats,
    UnknownConstantError,
)
from liftedrbm.model import BoostedModel, TrainConfig, load_model, train
from liftedrbm.network import (
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
    RelationalRegressionTree,
    fit_regression_tree,
    make_head,
)

from helpers import (
    ACTEDIN,
    BOOST_FIXTURE,
    COLLAB,
    COLLAB_HEAD,
    MOVIE_MODES,
    C,
    V,
    atom,
    example1_kb,
    example2_kb,
    left_sum,
    network_from_clauses,
    oracle_tree_paths,
    rule_clauses,
    scan_partition,
    SCORE_FIXTURE,
)
from synthetic_domain import generate_movie_domain


# sha256 of the depth-10 distillation of the benchmark's boost model on its
# training fold, the tree text the benchmark's distill workload prints
DISTILLED_TREE_SHA256 = "8350d06053f0c51940650cc20f441ec12649c9e45577a20053d8e426a11b58e5"


def _hand_network(psi0=0.0):
    clauses = [(clause, LeafParams(output_bias=0.1 * (i + 1))) for i, clause in enumerate(rule_clauses())]
    return network_from_clauses(COLLAB_HEAD, clauses, psi0=psi0)


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


# (n_trees, max_leaves, max_new_vars, domain seed): small domains, so that
# the exhaustive oracle can enumerate every grounding of every path clause
ORACLE_MODELS = [
    (1, 2, 1, 1),
    (3, 4, 1, 2),
    (4, 3, 2, 3),
    (2, 8, 1, 4),
    (3, 2, 0, 5),
    (8, 4, 1, 6),
]


class TestRoutingTrieOracle:
    """One walk of the merged trie routes like the exhaustive oracle."""

    @pytest.mark.parametrize("n_trees, max_leaves, max_new_vars, seed", ORACLE_MODELS)
    def test_trie_walk_matches_the_oracle(self, n_trees, max_leaves, max_new_vars, seed):
        kb, examples, _ = generate_movie_domain(
            seed=seed, n_person=6, n_movie=5, n_genre=2, max_roles=3, n_pairs=30
        )
        config = TrainConfig(n_trees=n_trees, max_leaves=max_leaves, max_new_vars=max_new_vars)
        model = train(kb, examples, config)
        net = paths_to_lrbm(model)
        leaves = [[leaf for _, leaf in tree.paths()] for tree in model.trees]
        for a, b in itertools.permutations(kb.universe("person"), 2):
            query = atom(examples.target, a, b)
            fired = [oracle_tree_paths(tree, query, kb) for tree in model.trees]
            assert all(len(paths) == 1 for paths in fired)
            expected = tuple(leaves[t][paths[0]].params.value() for t, paths in enumerate(fired))
            result = model.predict(query, kb)
            assert result.per_tree == expected
            assert result.psi == model.psi0 + left_sum(expected)
            holds = {
                node.index for node in net.hidden
                if node.source[1] == fired[node.source[0]][0]
            }
            inferred = lrbm_inference(net, query, kb)
            assert inferred.activated == tuple(sorted(holds))  # in hidden order
            psi = net.psi0
            for index in inferred.activated:
                psi += net.hidden[index].params.value()
            assert inferred.psi == psi
            # every witness binds variables to constants only, and spoiling
            # the returned ones changes no later walk
            witnesses = list(inferred.witnesses.values())
            assert all(
                var.is_variable and not value.is_variable
                for w in witnesses for var, value in w.items()
            )
            snapshot = {index: dict(w) for index, w in inferred.witnesses.items()}
            for w in witnesses:
                w.clear()
                w[V("SPOILT", "person")] = C("spoilt", "person")
            again = lrbm_inference(net, query, kb)
            assert again.activated == inferred.activated and again.witnesses == snapshot
            assert model.predict(query, kb).per_tree == expected


def _random_batch_case(rng: random.Random):
    """A random knowledge base over two types, a model of random trees over
    ``tgt(a, a)``, random signed clauses under heads that repeat a variable
    or hold a constant, and random queries.  Tests hold constants and
    variables of a small pool, so some repeat a fresh variable and some meet
    a variable that an earlier test held only under a negation."""
    types = ("a", "b")
    constants = {t: [C(f"{t}{j}", t) for j in range(rng.randint(2, 4))] for t in types}
    predicates = [
        Predicate(f"q{i}", tuple(rng.choice(types) for _ in range(rng.randint(1, 3))))
        for i in range(3)
    ]
    target = Predicate("tgt", ("a", "a"))
    kb = KnowledgeBase()
    for term in constants["a"] + constants["b"]:
        kb.register_constant(term.name, term.type_tag)
    for pred in predicates:
        kb.register_predicate(pred)
        for combo in itertools.product(*(constants[t] for t in pred.arg_types)):
            if rng.random() < 0.35:
                kb.add(Atom(pred, combo))
    pool = {t: [V(f"{t.upper()}{j}", t) for j in range(1, 4)] for t in types}

    def test_atom():
        pred = rng.choice(predicates)
        options = {t: pool[t] + [rng.choice(constants[t])] * (rng.random() < 0.25) for t in types}
        return Atom(pred, tuple(rng.choice(options[t]) for t in pred.arg_types))

    def node(depth):
        if depth == 0 or rng.random() < 0.25:
            return LeafNode(LeafParams(*(rng.uniform(-1, 1) for _ in range(5))))
        return InternalNode(Literal(test_atom()), node(depth - 1), node(depth - 1))

    head = make_head(target)
    trees = [RelationalRegressionTree(head, node(rng.randint(0, 4))) for _ in range(rng.randint(1, 4))]
    model = BoostedModel(target, head, rng.uniform(-1, 1), trees, TrainConfig())
    a1 = head.args[0]
    heads = [head, Atom(target, (a1, a1)), Atom(target, (a1, rng.choice(constants["a"])))]
    clauses = [
        Clause(
            rng.choice(heads),
            tuple(Literal(test_atom(), rng.random() < 0.4) for _ in range(rng.randint(0, 4))),
        )
        for _ in range(rng.randint(1, 8))
    ]
    queries = [
        Atom(target, (rng.choice(constants["a"]), rng.choice(constants["a"])))
        for _ in range(rng.randint(1, 10))
    ]
    return kb, model, clauses, queries


def _features(clause: Clause) -> tuple[int, int, int]:
    """How many of a clause's literals hold a constant, repeat a variable
    not bound before them, and meet a variable that only an earlier negated
    literal held."""
    bound = set(clause.head.variables())
    negated: set = set()
    constant = repeat = after_negation = 0
    for lit in clause.body:
        args = lit.atom.args
        fresh = [t for t in args if t.is_variable and t not in bound]
        constant += not all(t.is_variable for t in args)
        repeat += len(set(fresh)) < len(fresh)
        after_negation += any(t in negated for t in fresh)
        if lit.negated:
            negated.update(fresh)
        else:
            bound.update(fresh)
    return constant, repeat, after_negation


def _hex(values):
    return [value.hex() for value in values]


class TestBatchWalk:
    """``walk_many`` and ``psi_many`` are ``walk`` and ``psi``, query by query."""

    def test_random_models_and_clauses_match_the_per_query_walk(self, monkeypatch):
        import liftedrbm.logic as logic_module

        rng = random.Random(2718)
        decided = [0, 0, 0]  # literals with each feature on clauses that held
        held = from_later_row = 0
        heads = dict.fromkeys(("distinct", "repeat", "constant"), 0)  # clauses held, by head
        scan = logic_module.partition

        def counted(columns, values, items, head):
            # the items a row other than their first selects, where a
            # first-row lookup would decide wrongly
            nonlocal from_later_row
            split = scan(columns, values, items, head)
            assert split == scan_partition(columns, values, items)
            firsts = scan(columns, values, [(item, rows[:1]) for item, rows in items], head)
            from_later_row += sum(chosen > first for chosen, first in zip(split, firsts))
            return split

        monkeypatch.setattr(logic_module, "partition", counted)
        for _ in range(600):
            kb, model, clauses, queries = _random_batch_case(rng)
            _, model_trie, _ = model._network()._routed()
            model_clauses = [clause for tree in model.trees for clause, _ in tree.path_clauses()]
            # a query of another predicate or not ground fires nothing, and
            # one of an equal predicate object fires what the target's does
            target, (first, second) = queries[0].predicate, queries[0].args
            odd = [
                Atom(Predicate("other", target.arg_types), (first, second)),
                Atom(target, (V("A1", "a"), second)),
                Atom(Predicate(target.name, target.arg_types), (first, second)),
            ]
            for trie, listed in ((RoutingTrie(clauses), clauses), (model_trie, model_clauses)):
                batch = trie.walk_many(queries + odd, kb)
                assert len(batch) == len(queries) + len(odd)
                assert batch[-3:-1] == [[], []] and batch[-1] == batch[0]
                for query, ids in zip(queries + odd, batch):
                    assert ids == [i for i, _ in trie.walk(query, kb)]
                    held += len(ids)
                    for i in ids:
                        decided = [n + f for n, f in zip(decided, _features(listed[i]))]
                        args = listed[i].head.args
                        kind = "distinct" if len(set(args)) == len(args) else "repeat"
                        heads["constant" if not all(t.is_variable for t in args) else kind] += 1
            assert _hex(model.psi_many(queries, kb)) == _hex(model.psi(q, kb) for q in queries)
        assert held > 8000 and from_later_row > 100
        assert min(heads.values()) > 500  # each way a head meets its queries
        constant, repeat, after_negation = decided
        assert constant > 1000 and repeat > 900 and after_negation > 200

    def test_duplicates_an_empty_batch_and_a_zero_tree_model(self, movie_model):
        model, train_set, _, kb = movie_model
        queries = [q for q, _ in train_set.labeled()[:40]]
        doubled = queries + queries[::-1] + queries[:5]
        assert _hex(model.psi_many(doubled, kb)) == _hex(model.psi(q, kb) for q in doubled)
        assert model.psi_many([], kb) == []
        assert model._network()._routed()[1].walk_many([], kb) == []
        bare = dataclasses.replace(model, trees=[], psi0=0.25)
        assert bare.psi_many(doubled, kb) == [0.25] * len(doubled)
        assert bare._network()._routed()[1].walk_many(doubled, kb) == [[]] * len(doubled)

    def test_the_first_refused_query_raises_what_psi_raises(self, movie_model):
        model, train_set, _, kb = movie_model
        good = [q for q, _ in train_set.labeled()[:5]]
        p0 = kb.constant("p0")
        refused = [
            atom(COLLAB, p0, C("zz", "person")),  # unknown constant
            atom(COLLAB, p0, C("m0", "person")),  # a constant at another type
            atom(ACTEDIN, p0, kb.constant("m0")),  # another predicate
            atom(COLLAB, p0, V("P2", "person")),  # not ground
        ]
        for i, bad in enumerate(refused):
            with pytest.raises(ValueError) as want:
                model.psi(bad, kb)
            batch = good + [bad] + refused[:i] + refused[i + 1:]
            with pytest.raises(ValueError) as got:
                model.psi_many(batch, kb)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_the_benchmark_fixtures_score_alike(self, movie_model):
        _, train_set, _, kb = movie_model
        boost = load_model(BOOST_FIXTURE)
        queries = [q for q, _ in train_set.labeled()]
        assert _hex(boost.psi_many(queries, kb)) == _hex(boost.psi(q, kb) for q in queries)
        score = load_model(SCORE_FIXTURE)
        kb, _, _ = generate_movie_domain(seed=11, n_person=100, n_movie=100, n_pairs=1000)
        rng = random.Random(1000)
        people = kb.universe("person")
        queries = [atom(COLLAB, *rng.sample(people, 2)) for _ in range(1000)]
        _, trie, _ = score._network()._routed()
        for query, ids in zip(queries, trie.walk_many(queries, kb)):
            assert ids == [i for i, _ in trie.walk(query, kb)]
        assert _hex(score.psi_many(queries, kb)) == _hex(score.psi(q, kb) for q in queries)

    def test_a_true_child_without_branches_takes_its_items_unjoined(self, movie_model, monkeypatch):
        # A trie node with no branches only reports the clauses ending at it,
        # so its items' rows are never read: on the distillation's training
        # fold, the walk joins 3 times where joining every true child takes 11.
        import liftedrbm.logic as logic_module

        _, train_set, _, kb = movie_model
        boost = load_model(BOOST_FIXTURE)
        trie = RoutingTrie([clause for tree in boost.trees for clause, _ in tree.path_clauses()])
        queries = [q for q, _ in train_set.labeled()]
        want = [[i for i, _ in trie.walk(query, kb)] for query in queries]
        joins, join = [], logic_module.join

        def counted(test, bound_vars, items, kb):
            joins.append(test)
            return join(test, bound_vars, items, kb)

        monkeypatch.setattr(logic_module, "join", counted)
        assert len(queries) == 559
        assert trie.walk_many(queries, kb) == want
        assert len(joins) == 3


class TestOneScorer:
    """A model scores through its path network: ``predict`` gives, bit for
    bit, what ``lrbm_inference`` of ``paths_to_lrbm`` gives."""

    @staticmethod
    def _agree(model, queries, kb):
        net = paths_to_lrbm(model)
        for query in queries:
            ours, theirs = model.predict(query, kb), lrbm_inference(net, query, kb)
            fired = [net.hidden[index].params.value() for index in theirs.activated]
            assert _hex(ours.per_tree) == _hex(fired)
            assert ours.psi.hex() == theirs.psi.hex()
            assert ours.probability.hex() == theirs.probability.hex()
        assert _hex(model.psi_many(queries, kb)) == _hex(model.psi(q, kb) for q in queries)

    def test_random_models(self):
        rng = random.Random(1618)
        for _ in range(300):
            kb, model, _, queries = _random_batch_case(rng)
            self._agree(model, queries, kb)

    def test_the_benchmark_fixtures(self, movie_model):
        _, train_set, _, kb = movie_model
        self._agree(load_model(BOOST_FIXTURE), [q for q, _ in train_set.labeled()], kb)
        kb, _, _ = generate_movie_domain(seed=11, n_person=100, n_movie=100, n_pairs=1000)
        rng = random.Random(1000)
        people = kb.universe("person")
        queries = [atom(COLLAB, *rng.sample(people, 2)) for _ in range(1000)]
        self._agree(load_model(SCORE_FIXTURE), queries, kb)

    def test_editing_a_converted_network_leaves_the_model_alone(self, movie_model):
        model, _, test_set, kb = movie_model
        queries = [q for q, _ in test_set.labeled()[:30]]
        before = [model.predict(query, kb) for query in queries]
        net = paths_to_lrbm(model)
        assert net is not model._network() and net.hidden is not model._network().hidden
        assert [lrbm_inference(net, query, kb).psi for query in queries] == [
            result.psi for result in before
        ]
        net.hidden[0] = dataclasses.replace(net.hidden[0], params=LeafParams(output_bias=9.0))
        net.hidden.pop()
        net.psi0 += 1.0
        assert [model.predict(query, kb) for query in queries] == before
        # edited in place after its first use, the network routes its new nodes
        edited = [lrbm_inference(net, query, kb) for query in queries]
        fresh = dataclasses.replace(net, hidden=list(net.hidden))
        assert edited == [lrbm_inference(fresh, query, kb) for query in queries]
        assert [result.psi for result in edited] != [result.psi for result in before]


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

    @pytest.mark.parametrize("psi0", [0.1, 0.3, -0.7, 1 / 3])
    def test_network_equals_the_ensemble_bit_for_bit_for_any_psi0(self, movie_model, psi0):
        model, train_set, test_set, kb = movie_model
        shifted = dataclasses.replace(model, psi0=psi0)
        net = paths_to_lrbm(shifted)
        for query, _ in train_set.labeled() + test_set.labeled():
            ensemble = shifted.predict(query, kb)
            network = lrbm_inference(net, query, kb)
            assert network.psi == ensemble.psi
            assert network.probability == ensemble.probability

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
        # the first two clauses decide their shared directedby(M1, P1) once
        assert stats.groundings_visited == 4

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
        tree = fit_regression_tree(
            [q for q, _ in labeled], [0.9 if y else -0.7 for _, y in labeled], 4, MOVIE_MODES, kb
        )
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

    def test_train_and_distillation_make_the_benchmarks_fit_counts(self, movie_model, monkeypatch):
        # The counts the traced benchmark runs pin, on the boost fold: a
        # lost compile or plan reuse generates more candidates, a weakened
        # prune or a lost leaf memo fits more, and a lost restated skip or
        # inherited selector partitions more.  Every plan a fit pops is
        # expanded once and, in train, grouped once.
        import liftedrbm.tree as tree_module

        _, train_set, _, kb = movie_model
        counts = {}

        def counted(name, measure):
            original = getattr(tree_module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] = counts.get(name, 0) + measure(result)
                return result

            monkeypatch.setattr(tree_module, name, wrapper)

        counted("generate_candidates", len)
        for name in ("coordinate_descent", "partition", "_classes"):
            counted(name, lambda _: 1)
        expand = tree_module._Plan.expand

        def expanded(plan, *args):
            counts["expand"] = counts.get("expand", 0) + 1
            return expand(plan, *args)

        monkeypatch.setattr(tree_module._Plan, "expand", expanded)
        train(kb, train_set, TrainConfig())
        assert counts == {
            "generate_candidates": 21, "coordinate_descent": 120, "partition": 22,
            "expand": 8, "_classes": 8,
        }
        counts.clear()
        distill_single_tree(load_model(BOOST_FIXTURE), train_set, kb, max_depth=10)
        assert counts == {
            "generate_candidates": 336, "coordinate_descent": 65, "partition": 330, "expand": 106,
        }

    def test_distillation_names_each_committed_test_once(self, movie_model, monkeypatch):
        # A candidate stays a predicate and its slots until it wins: the fit
        # names one atom per internal node of the tree, and no other.
        import liftedrbm.tree as tree_module

        model, train_set, _, kb = movie_model
        name_atom, namings = tree_module._atom, []

        def counted(*args):
            namings.append(args)
            return name_atom(*args)

        monkeypatch.setattr(tree_module, "_atom", counted)
        tree = distill_single_tree(model, train_set, kb, max_depth=10).trees[0]
        assert len(namings) == tree.leaf_count - 1 == 56

    def test_distillation_relabels_without_a_search(self, movie_model, monkeypatch):
        # The relabelling routes the examples as one batch, on rows: with
        # the per-query search refusing every call, distillation still
        # gives the benchmark's tree.
        import liftedrbm.logic as logic_module

        model, train_set, _, kb = movie_model

        def refused(*args, **kwargs):
            raise AssertionError("a per-query search ran")

        for name in ("route_decision", "witnesses", "iter_matches"):
            monkeypatch.setattr(logic_module, name, refused)
        with pytest.raises(AssertionError):
            model.psi(train_set.labeled()[0][0], kb)
        text = distill_single_tree(model, train_set, kb, max_depth=10).trees[0].to_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DISTILLED_TREE_SHA256

    def test_a_larger_distillation_grows_the_plain_scans_tree(self, monkeypatch):
        # At 60 persons an item carries up to 100 rows.  Deciding a key on
        # head columns from the first row, and one that also reads others
        # through the grouped view, grows the tree the per-row scan grows.
        import liftedrbm.logic as logic_module
        import liftedrbm.tree as tree_module

        kb, examples, _ = generate_movie_domain(seed=11, n_person=60, n_movie=60, n_pairs=1500)
        model = train(kb, examples, TrainConfig())
        tree = distill_single_tree(model, examples, kb, max_depth=10).trees[0]
        assert tree.depth == 10 and tree.leaf_count > 40
        for module in (logic_module, tree_module):
            monkeypatch.setattr(module, "partition", scan_partition)
        scanned = distill_single_tree(model, examples, kb, max_depth=10).trees[0]
        assert scanned.to_text() == tree.to_text()

    def test_distillation_requires_examples(self, movie_model):
        from liftedrbm.data import ExampleSet

        model, _, _, kb = movie_model
        empty = ExampleSet(COLLAB, [], [])
        with pytest.raises(ValueError):
            distill_single_tree(model, empty, kb)


class TestExport:
    def test_single_hidden_node_dot_lists_body_and_output_edges(self):
        _, _, same_movie = rule_clauses()
        net = network_from_clauses(COLLAB_HEAD, [(same_movie, LeafParams(0.3))])
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
        net = network_from_clauses(COLLAB_HEAD, list(zip(clauses, params)))
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
