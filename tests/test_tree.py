"""Candidate generation, splitting, leaf fitting, and tree routing."""

import itertools
import random

import pytest

from liftedrbm.data import parse_facts, parse_modes
from liftedrbm.logic import Atom, Literal, satisfy_route, unify
from liftedrbm.tree import (
    CoverageTable,
    InternalNode,
    LeafNode,
    LeafParams,
    RegressionExample,
    coordinate_descent,
    evaluate_tree,
    fit_regression_tree,
    generate_candidates,
    make_head,
    partition,
)

from helpers import ACTEDIN, COLLAB, MOVIE_MODES, C, V, atom, example1_kb


SPORTS_MODES = parse_modes(
    """
mode: plays(+sports, -team).
mode: teamplaysagainstteam(-team, -team).
mode: athleteplaysforteam(-athlete, +team).
mode: teamplayssport(-team, -sports).
"""
)


class TestGenerateCandidates:
    def test_root_candidates_chain_through_the_head(self):
        head = make_head(SPORTS_MODES["teamplayssport"].predicate)
        candidates = generate_candidates(
            head.args,
            SPORTS_MODES,
            max_new_vars=1,
            used_names=[t.name for t in head.args],
            exclude_predicates=("teamplayssport",),
        )
        rendered = {str(c) for c in candidates}
        assert "plays(S1, T1)" in rendered  # reuses both head variables
        assert "plays(S1, T2)" in rendered  # introduces a fresh team
        assert "athleteplaysforteam(A1, T1)" in rendered
        assert all(not c.negated for c in candidates)
        assert not any(str(c).startswith("teamplayssport") for c in candidates)

    def test_unbindable_plus_argument_excludes_the_predicate(self):
        # a node binding no genre variable cannot use samegenre(+genre, +genre)
        modes = parse_modes("mode: samegenre(+genre, +genre).\nmode: collab(-person, -person).")
        head = make_head(modes["collab"].predicate)
        candidates = generate_candidates(
            head.args, modes, used_names=[t.name for t in head.args],
            exclude_predicates=("collab",),
        )
        assert candidates == []

    def test_max_new_vars_matches_enumeration_oracle(self):
        # oracle: enumerate all typed argument assignments on a 3-type schema
        modes = parse_modes(
            "mode: r(-a, -b).\nmode: s(+a, -c).\nmode: t(-a, -b, -c).\nmode: tgt(-a, -b)."
        )
        head = make_head(modes["tgt"].predicate)
        bound = list(head.args)  # A1:a, B1:b
        for max_new in (0, 1, 2, 3):
            candidates = generate_candidates(
                bound, modes, max_new_vars=max_new,
                used_names=[t.name for t in bound], exclude_predicates=("tgt",),
            )
            by_type = {"a": ["A1"], "b": ["B1"], "c": []}
            expected = set()
            for name, mode in modes.items():
                if name == "tgt":
                    continue
                slots = []
                for type_tag, flag in zip(mode.predicate.arg_types, mode.chaining):
                    options = list(by_type[type_tag])
                    if flag == "-":
                        options.append("*")
                    slots.append(options)
                for combo in itertools.product(*slots):
                    if sum(1 for s in combo if s == "*") <= max_new:
                        numbered = []
                        fresh = 0
                        for s in combo:
                            if s == "*":
                                numbered.append(f"*{fresh}")
                                fresh += 1
                            else:
                                numbered.append(s)
                        expected.add((name, tuple(numbered)))
            got = set()
            for lit in candidates:
                key = []
                fresh = 0
                for term in lit.atom.args:
                    if term.name in ("A1", "B1"):
                        key.append(term.name)
                    else:
                        key.append(f"*{fresh}")
                        fresh += 1
                got.add((lit.atom.predicate.name, tuple(key)))
            assert got == expected, f"max_new_vars={max_new}"
            assert len(got) == len(candidates), f"duplicates at max_new_vars={max_new}"

    def test_no_two_fresh_vars_when_budget_is_one(self):
        modes = parse_modes("mode: r(-a, -a).\nmode: tgt(-b).")
        head = make_head(modes["tgt"].predicate)
        candidates = generate_candidates(
            head.args, modes, max_new_vars=1,
            used_names=[t.name for t in head.args], exclude_predicates=("tgt",),
        )
        assert candidates == []  # no bound a-vars, so r would need two fresh

    def test_deduplication_up_to_renaming(self):
        modes = parse_modes("mode: r(-a).\nmode: tgt(-a).")
        head = make_head(modes["tgt"].predicate)
        candidates = generate_candidates(
            head.args, modes, max_new_vars=1,
            used_names=[t.name for t in head.args], exclude_predicates=("tgt",),
        )
        # r(A1) reusing the head variable plus one fresh-variable version
        assert [str(c) for c in candidates] == ["r(A1)", "r(A2)"]

    def test_fresh_names_avoid_used_names(self):
        modes = parse_modes("mode: r(-a).\nmode: tgt(-a).")
        head = make_head(modes["tgt"].predicate)
        candidates = generate_candidates(
            head.args, modes, max_new_vars=1,
            used_names=["A1", "A2", "A3"], exclude_predicates=("tgt",),
        )
        assert [str(c) for c in candidates] == ["r(A1)", "r(A4)"]


def _collab_item(kb, left, right, gradient=0.5, label=1):
    head = make_head(COLLAB)
    query = atom(COLLAB, C(left, "person"), C(right, "person"))
    sub = unify(head, query)
    return RegressionExample(query, label, gradient), sub, sub


class TestPartition:
    def test_satisfied_example_goes_left_with_chained_bindings(self):
        kb = example1_kb()
        item = _collab_item(kb, "p1", "p2")
        candidate = Literal(atom(ACTEDIN, V("P1", "person"), V("M", "movie")))
        left, right = partition((), candidate, [item], kb)
        assert len(left) == 1 and right == []
        _, _, witness = left[0]
        assert witness.get(V("M", "movie")) == C("m1", "movie")

    def test_factless_predicate_sends_everything_right(self):
        kb = example1_kb()
        items = [_collab_item(kb, "p1", "p2"), _collab_item(kb, "p2", "p1")]
        from helpers import DIRECTEDBY

        candidate = Literal(atom(DIRECTEDBY, V("M", "movie"), V("P1", "person")))
        left, right = partition((), candidate, items, kb)
        assert left == [] and len(right) == 2

    def test_matches_brute_force_grounding_oracle(self):
        rng = random.Random(5)
        modes = parse_modes("mode: r(-a, -a).\nmode: s(-a).\nmode: tgt(-a, -a).")
        consts = [f"a{i}" for i in range(6)]
        fact_lines = []
        for x, y in itertools.product(consts, repeat=2):
            if rng.random() < 0.2:
                fact_lines.append(f"r({x}, {y}).")
        for x in consts:
            if rng.random() < 0.4:
                fact_lines.append(f"s({x}).")
        kb = parse_facts("\n".join(fact_lines), modes)
        target = modes["tgt"].predicate
        head = make_head(target)
        items = []
        for _ in range(20):
            q = atom(target, C(rng.choice(consts), "a"), C(rng.choice(consts), "a"))
            sub = unify(head, q)
            items.append((RegressionExample(q, 1, 0.1), sub, sub))
        a1, a2 = head.args
        fresh = V("A3", "a")
        for candidate in (
            Literal(atom(modes["s"].predicate, a1)),
            Literal(atom(modes["r"].predicate, a1, a2)),
            Literal(atom(modes["r"].predicate, a1, fresh)),
            Literal(atom(modes["r"].predicate, fresh, a2)),
        ):
            left, right = partition((), candidate, items, kb)
            assert len(left) + len(right) == 20
            for example, _, _ in items:
                x, y = (t.name for t in example.query.args)
                grounded = {"A1": x, "A2": y}
                pred = candidate.atom.predicate
                names = [grounded.get(t.name, None) for t in candidate.atom.args]
                expected = any(
                    all(n is None or n == fn for n, fn in zip(names, (f.name for f in fact.args)))
                    for fact in kb.facts
                    if fact.predicate == pred
                )
                went_left = any(e is example for e, _, _ in left)
                assert went_left == expected


class TestCoordinateDescent:
    def test_reaches_the_mean_for_constant_targets(self):
        params = coordinate_descent([0.5] * 8)
        assert abs(params.value() - 0.5) < 1e-3

    def test_reaches_the_mean_for_mixed_targets(self):
        params = coordinate_descent([0.2, 0.4])
        assert abs(params.value() - 0.3) < 1e-3

    def test_empty_targets_leave_theta_unchanged(self):
        theta0 = LeafParams(0.1, 0.2, 0.3, 0.4, 0.5)
        assert coordinate_descent([], theta0) == theta0

    def test_converges_from_nonzero_start(self):
        theta0 = LeafParams(1.0, -0.5, 0.25, 0.75, -0.25)
        params = coordinate_descent([-0.4, -0.2], theta0)
        assert abs(params.value() - (-0.3)) < 1e-3

    def test_bad_learning_rate_is_an_error(self):
        with pytest.raises(ValueError):
            coordinate_descent([0.1], learning_rate=0.0)


def _separable_domain():
    """good(x) facts perfectly separate positive from negative gradients."""
    modes = parse_modes("mode: good(+thing).\nmode: noise(-thing, -thing).\nmode: label(-thing).")
    lines = []
    rng = random.Random(9)
    goods = {f"x{i}" for i in range(10) if i % 2 == 0}
    for i in range(10):
        if f"x{i}" in goods:
            lines.append(f"good(x{i}).")
        partner = rng.randrange(10)
        lines.append(f"noise(x{i}, x{partner}).")
    kb = parse_facts("\n".join(lines), modes)
    target = modes["label"].predicate
    examples = [
        RegressionExample(
            atom(target, C(f"x{i}", "thing")), 1 if f"x{i}" in goods else 0,
            0.5 if f"x{i}" in goods else -0.5,
        )
        for i in range(10)
    ]
    return modes, kb, examples


class TestFitRegressionTree:
    def test_single_leaf_fits_the_mean(self):
        modes, kb, examples = _separable_domain()
        tree = fit_regression_tree(examples, 1, modes, kb)
        assert tree.leaf_count == 1
        mean = sum(e.gradient for e in examples) / len(examples)
        assert abs(evaluate_tree(tree, examples[0].query, kb) - mean) < 1e-3

    def test_perfect_separator_becomes_the_root(self):
        modes, kb, examples = _separable_domain()
        tree = fit_regression_tree(examples, 2, modes, kb)
        assert isinstance(tree.root, InternalNode)
        assert str(tree.root.test) == "good(T1)"
        for example in examples:
            value = evaluate_tree(tree, example.query, kb)
            assert abs(value - example.gradient) < 1e-3

    def test_leaf_cap_is_respected(self):
        modes, kb, examples = _separable_domain()
        rng = random.Random(1)
        noisy = [
            RegressionExample(e.query, e.label, e.gradient + rng.uniform(-0.2, 0.2))
            for e in examples
        ]
        for cap in (1, 2, 3, 4):
            tree = fit_regression_tree(noisy, cap, modes, kb)
            assert 1 <= tree.leaf_count <= cap

    def test_committed_split_never_hurts_sse(self):
        modes, kb, examples = _separable_domain()
        rng = random.Random(3)
        noisy = [
            RegressionExample(e.query, e.label, rng.uniform(-0.9, 0.9)) for e in examples
        ]
        single = fit_regression_tree(noisy, 1, modes, kb)
        split = fit_regression_tree(noisy, 2, modes, kb)
        sse_single = sum(
            (evaluate_tree(single, e.query, kb) - e.gradient) ** 2 for e in noisy
        )
        sse_split = sum(
            (evaluate_tree(split, e.query, kb) - e.gradient) ** 2 for e in noisy
        )
        assert sse_split <= sse_single + 1e-5

    def test_deterministic_given_identical_inputs(self):
        modes, kb, examples = _separable_domain()
        rng = random.Random(12)
        noisy = [
            RegressionExample(e.query, e.label, rng.uniform(-0.9, 0.9)) for e in examples
        ]
        t1 = fit_regression_tree(noisy, 4, modes, kb)
        t2 = fit_regression_tree(noisy, 4, modes, kb)
        assert t1.to_text() == t2.to_text()

    def test_max_depth_limits_growth(self):
        modes, kb, examples = _separable_domain()
        rng = random.Random(4)
        noisy = [
            RegressionExample(e.query, e.label, rng.uniform(-0.9, 0.9)) for e in examples
        ]
        tree = fit_regression_tree(noisy, 64, modes, kb, max_depth=2)
        assert tree.depth <= 2

    def test_empty_examples_are_an_error(self):
        modes, kb, _ = _separable_domain()
        with pytest.raises(ValueError):
            fit_regression_tree([], 4, modes, kb)


class TestCoverageTable:
    def test_shared_table_is_keyed_on_queries_not_positions(self, movie_domain, monkeypatch):
        import liftedrbm.tree as tree_module

        kb, examples, _ = movie_domain
        labeled = examples.labeled()
        first = [RegressionExample(q, y, 0.9 if y else -0.7) for q, y in labeled]
        rng = random.Random(7)
        # a reordered subset, as equal but distinct query objects, new targets
        second = [
            RegressionExample(Atom(q.predicate, q.args), y, rng.uniform(-0.9, 0.9))
            for q, y in rng.sample(labeled, len(labeled) // 2)
        ]
        decisions = []
        route_decision = tree_module.route_decision

        def counted(*args):
            decisions.append(args)
            return route_decision(*args)

        monkeypatch.setattr(tree_module, "route_decision", counted)
        fresh = fit_regression_tree(second, 4, MOVIE_MODES, kb)
        fresh_decisions = len(decisions)
        table = CoverageTable()
        fit_regression_tree(first, 4, MOVIE_MODES, kb, table=table)
        decisions.clear()
        shared = fit_regression_tree(second, 4, MOVIE_MODES, kb, table=table)
        assert len(decisions) < fresh_decisions  # the table was read
        assert shared.to_text() == fresh.to_text()

    def test_fitted_values_are_the_routed_leaf_values(self, movie_domain):
        kb, examples, _ = movie_domain
        rng = random.Random(3)
        regression = [
            RegressionExample(q, y, rng.uniform(-0.9, 0.9)) for q, y in examples.labeled()
        ]
        fitted = []
        tree = fit_regression_tree(regression, 6, MOVIE_MODES, kb, fitted=fitted)
        assert fitted == [evaluate_tree(tree, e.query, kb) for e in regression]


def _random_movie_tree_and_examples(seed=0):
    rng = random.Random(seed)
    people = [f"p{i}" for i in range(8)]
    movies = [f"m{i}" for i in range(6)]
    lines = []
    for p in people:
        for m in rng.sample(movies, 2):
            lines.append(f"actedin({p}, {m}).")
    for m in movies:
        lines.append(f"directedby({m}, {rng.choice(people)}).")
    kb = parse_facts("\n".join(lines), MOVIE_MODES)
    examples = []
    for _ in range(50):
        a, b = rng.sample(people, 2)
        query = atom(COLLAB, C(a, "person"), C(b, "person"))
        examples.append(RegressionExample(query, 1, rng.uniform(-0.9, 0.9)))
    tree = fit_regression_tree(examples, 4, MOVIE_MODES, kb)
    return tree, examples, kb


class TestEvaluateTree:
    def test_zero_parameter_leaf_evaluates_to_zero(self):
        tree = fit_regression_tree(
            [RegressionExample(atom(COLLAB, C("p1", "person"), C("p2", "person")), 1, 0.0)],
            1,
            MOVIE_MODES,
            example1_kb(),
        )
        assert isinstance(tree.root, LeafNode)
        value = evaluate_tree(
            tree, atom(COLLAB, C("p1", "person"), C("p2", "person")), example1_kb()
        )
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_wrong_predicate_is_an_error(self):
        tree, _, kb = _random_movie_tree_and_examples()
        with pytest.raises(ValueError):
            evaluate_tree(tree, atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), kb)

    def test_routing_matches_path_clause_satisfaction(self):
        # oracle: satisfy each root-to-leaf clause independently, literal by
        # literal in root order; exactly one must hold and its leaf value must
        # equal the routed value
        tree, examples, kb = _random_movie_tree_and_examples(seed=21)
        head = tree.head
        paths = list(tree.paths())
        assert len(paths) == tree.leaf_count
        for example in examples:
            partial = unify(head, example.query)
            holding = [
                leaf
                for literals, leaf in paths
                if satisfy_route(literals, partial, kb) is not None
            ]
            assert len(holding) == 1
            routed = evaluate_tree(tree, example.query, kb)
            assert routed == pytest.approx(holding[0].params.value(), abs=1e-12)

    def test_path_count_and_structure(self):
        tree, _, kb = _random_movie_tree_and_examples(seed=2)
        for literals, _ in tree.paths():
            # negated literals only ever come from false branches of tests
            signs = [lit.negated for lit in literals]
            assert all(isinstance(s, bool) for s in signs)
