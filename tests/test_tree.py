"""Candidate generation, splitting, leaf fitting, and tree routing."""

import itertools
import math
import random

import pytest

from liftedrbm.data import parse_facts, parse_modes
from liftedrbm.logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    RoutingTrie,
    route_decision,
    unify,
    witnesses,
)
from liftedrbm.model import BoostedModel, TrainConfig
from liftedrbm.tree import (
    CoverageTable,
    InternalNode,
    LeafNode,
    LeafParams,
    ZERO_PARAMS,
    RegressionExample,
    coordinate_descent,
    fit_regression_tree,
    generate_candidates,
    make_head,
    partition,
    _BOUND_MARGIN,
    _sse_floor,
)

from helpers import (
    ACTEDIN,
    COLLAB,
    EXAMPLE1_FACTS,
    MOVIE_MODES,
    SAMEPERSON,
    C,
    V,
    atom,
    example1_kb,
    exhaustive_fit_tree,
    oracle_per_tree,
    oracle_satisfy,
    oracle_witnesses,
    reference_coordinate_descent,
    reference_satisfy,
)


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


def _partition(context, candidate, items, kb, table=None):
    """``partition`` with a coverage table (a fresh one unless given) and
    fresh lists of kept witnesses."""
    table = table if table is not None else CoverageTable()
    return partition(
        context, candidate, items, kb, table, table.node_bits(items), [[] for _ in items]
    )


class TestPartition:
    def test_satisfied_example_goes_left_with_chained_bindings(self, monkeypatch):
        import liftedrbm.tree as tree_module

        # p3 is a person who acts in nothing
        kb = parse_facts(EXAMPLE1_FACTS + "sameperson(p3, p3).\n", MOVIE_MODES)
        items = [_collab_item(kb, "p1", "p2", 0.5), _collab_item(kb, "p3", "p1", -0.5)]
        acts = Literal(atom(ACTEDIN, V("P1", "person"), V("M1", "movie")))
        # one-sided: p1 and p2 both act, as the oracle says
        acting = [items[0], _collab_item(kb, "p2", "p1")]
        assert _partition((), acts, acting, kb) is None
        assert all(oracle_satisfy([acts], base, kb) for _, base, _ in acting)
        # a decision read from the table carries no witness: items go unchanged
        assert _partition((), acts, items, kb) == ([items[0]], [items[1]])
        # The fit chains the committed split's first witness into its true
        # side when it expands that side, and no sooner.  p1 and p2 act and
        # p3 does not, so acts splits the root and its true side, which has
        # the larger error, is expanded first.
        examples = [
            example
            for example, _, _ in (
                items[0], _collab_item(kb, "p2", "p1", 0.3), items[1],
                _collab_item(kb, "p3", "p2", -0.4),
            )
        ]
        calls = []
        partitioning = []
        route_decision, partition = tree_module.route_decision, tree_module.partition

        def recorded(context, test, *args):
            result = route_decision(context, test, *args)
            if not partitioning:
                calls.append((test, result))
            return result

        def candidate_split(*args):
            partitioning.append(True)
            try:
                return partition(*args)
            finally:
                partitioning.pop()

        monkeypatch.setattr(tree_module, "route_decision", recorded)
        monkeypatch.setattr(tree_module, "partition", candidate_split)
        tree = fit_regression_tree(examples, 2, MOVIE_MODES, kb)
        assert tree.root.test == acts
        assert calls == []  # the true side is never expanded, so never proved
        tree = fit_regression_tree(examples, 3, MOVIE_MODES, kb)
        assert tree.root.test == acts
        assert [test for test, _ in calls] == [acts.atom, acts.atom]  # p1's item, p2's
        for _, witness in calls:
            assert witness.get(V("M1", "movie")) == C("m1", "movie")

    def test_factless_predicate_sends_everything_right(self):
        kb = example1_kb()
        items = [_collab_item(kb, "p1", "p2"), _collab_item(kb, "p2", "p1")]
        from helpers import DIRECTEDBY

        candidate = Literal(atom(DIRECTEDBY, V("M", "movie"), V("P1", "person")))
        assert _partition((), candidate, items, kb) is None
        assert not any(oracle_satisfy([candidate], base, kb) for _, base, _ in items)

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
        facts = {(fact.predicate.name, tuple(t.name for t in fact.args)) for fact in kb.facts}
        r, s = modes["r"].predicate, modes["s"].predicate
        target = modes["tgt"].predicate
        head = make_head(target)
        queries = [
            atom(target, C(rng.choice(consts), "a"), C(rng.choice(consts), "a"))
            for _ in range(20)
        ]
        a1, a2 = head.args
        a3, a4 = V("A3", "a"), V("A4", "a")

        def holds(body, query):
            # some grounding of the body's other variables makes it all facts
            free = sorted({t for b in body for t in b.args} - {a1, a2}, key=str)
            for values in itertools.product(consts, repeat=len(free)):
                grounded = {a1: query.args[0].name, a2: query.args[1].name}
                grounded.update(zip(free, values))
                if all((b.predicate.name, tuple(grounded[t] for t in b.args)) in facts
                       for b in body):
                    return True
            return False

        table = CoverageTable()
        two_sided = filled = 0
        for context, candidate in (
            ((), atom(s, a1)),
            ((), atom(r, a1, a2)),
            ((), atom(r, a1, a3)),
            ((), atom(r, a3, a2)),
            ((), atom(r, a1, a1)),  # a bound variable twice
            ((), atom(s, a3)),  # no bound position
            ((atom(r, a1, a3),), atom(s, a3)),
            ((atom(r, a1, a3),), atom(r, a3, a2)),
            ((atom(r, a1, a3),), atom(r, a2, a4)),
        ):
            # an item reaches a node with a witness of its context, here the
            # last one, so a candidate it misses is read from its kept list
            items = []
            for q in queries:
                sub = unify(head, q)
                found = list(witnesses(context, sub, kb))
                if found:
                    items.append((RegressionExample(q, 1, 0.1), sub, found[-1]))
            kept = [[] for _ in items]
            split = partition(
                context, Literal(candidate), items, kb, table, table.node_bits(items), kept
            )
            filled += sum(1 for witnesses_kept in kept if witnesses_kept)
            expected = [holds(context + (candidate,), example.query) for example, _, _ in items]
            # a second split reads every decision from the table
            assert _partition(context, Literal(candidate), items, kb, table) == split
            if split is None:
                assert len(set(expected)) <= 1
                continue
            two_sided += 1
            left, right = split
            assert left == [item for item, sat in zip(items, expected) if sat]
            assert right == [item for item, sat in zip(items, expected) if not sat]
        assert two_sided >= 4
        assert filled > 0

    def test_a_constant_or_a_repeated_fresh_variable_is_refused(self):
        # neither is a lookup of the bound values in a projection of the
        # facts, and generate_candidates makes neither
        kb = example1_kb()
        items = [_collab_item(kb, "p1", "p2"), _collab_item(kb, "p2", "p1")]
        p1, p3 = V("P1", "person"), V("P3", "person")
        for candidate in (
            atom(ACTEDIN, p1, C("m1", "movie")),
            atom(SAMEPERSON, p3, p3),
        ):
            with pytest.raises(ValueError):
                _partition((), Literal(candidate), items, kb)
        # a bound variable twice is a lookup
        assert _partition((), Literal(atom(SAMEPERSON, p1, p1)), items, kb) is None

    def test_decides_as_the_oracle_under_any_cached_witness(self):
        """Random contexts, items whose cached witness is any witness of the
        context, not only the first, and candidates over the context's
        variables and fresh ones: each decision is the oracle's and the
        routing walk's.  Every list of kept witnesses serves each candidate
        twice, with a fresh table, so the second round reads it filled."""
        rng = random.Random(4242)
        item_predicate = Predicate("item", ("n",))
        decided = from_later_witness = refused = 0
        for _ in range(400):
            kb, context, bases, tests = _random_context_case(rng)
            bound = {var for a in context for var in a.variables()}
            items, context_witnesses = [], []
            for base in bases:
                found = list(witnesses(context, base, kb))
                if not found:
                    continue  # an item reaches a node only with a witness
                choices = {0, len(found) - 1, rng.randrange(len(found))}
                cached_witnesses = [found[i] for i in sorted(choices)]
                if len(found) == 1 and found[0] == base:
                    # the same grounding as another object than ``base``
                    cached_witnesses.append(dict(base))
                everyone = oracle_witnesses(context, base, kb)
                for cached in cached_witnesses:
                    query = atom(item_predicate, C(f"i{len(items)}", "n"))
                    items.append((RegressionExample(query, 1, 0.0), base, cached))
                    context_witnesses.append(everyone)
            if not items:
                continue
            expected = {
                test: [
                    any(oracle_satisfy([Literal(test)], w, kb) for w in everyone)
                    for everyone in context_witnesses
                ]
                for test in tests
            }
            kept = [[] for _ in items]
            for _ in range(2):
                table = CoverageTable()
                bits = table.node_bits(items)
                for test in tests:
                    free = [t for t in test.args if t not in bound]
                    if len(set(free)) < len(free):
                        with pytest.raises(ValueError):
                            partition(context, Literal(test), items, kb, table, bits, kept)
                        refused += 1
                        continue
                    partition(context, Literal(test), items, kb, table, bits, kept)
                    known, sat = table._entries[(context, test)]
                    for (example, base, cached), bit, want in zip(items, bits[0], expected[test]):
                        assert known & bit
                        assert bool(sat & bit) == want, (
                            f"context={[str(a) for a in context]} test={test} "
                            f"base={base} cached={cached}"
                        )
                        routed = route_decision(context, test, base, cached, kb)
                        assert (routed is not None) == want
                        decided += 1
                        from_later_witness += want and not oracle_satisfy(
                            [Literal(test)], cached, kb
                        )
        # the cases the kept lists exist for are well represented
        assert decided > 10000
        assert from_later_witness > 500
        assert refused > 50


def _random_context_case(rng: random.Random):
    """A random KB, a positive context of 1-3 atoms over a small variable
    pool, a few head-unifier-like partial bindings of it (some grounding the
    whole context), and candidate atoms that share its variables or add
    fresh ones."""
    types = [f"t{i}" for i in range(rng.randint(1, 2))]
    constants = {t: [C(f"{t}c{j}", t) for j in range(rng.randint(2, 5))] for t in types}
    predicates = [
        Predicate(f"q{i}", tuple(rng.choice(types) for _ in range(rng.randint(1, 2))))
        for i in range(rng.randint(2, 3))
    ]
    kb = KnowledgeBase()
    for pred in predicates:
        kb.register_predicate(pred)
        for combo in itertools.product(*[constants[t] for t in pred.arg_types]):
            if rng.random() < 0.45:
                kb.add(Atom(pred, combo))
    pool = {t: [V(f"{t.upper()}{j}", t) for j in range(3)] for t in types}
    fresh = {t: V(f"{t.upper()}9", t) for t in types}

    def random_atom(options):
        pred = rng.choice(predicates)
        return Atom(pred, tuple(rng.choice(options(t)) for t in pred.arg_types))

    context = tuple(
        random_atom(lambda t: pool[t] + [rng.choice(constants[t])] * (rng.random() < 0.2))
        for _ in range(rng.randint(1, 3))
    )
    context_vars = list(dict.fromkeys(v for a in context for v in a.variables()))
    bases = []
    for _ in range(3):
        grounding = rng.random() < 0.25
        base = {}
        for var in context_vars:
            if grounding or rng.random() < 0.3:
                base[var] = rng.choice(constants[var.type_tag])
        bases.append(base)
    tests = list(dict.fromkeys(random_atom(lambda t: pool[t] + [fresh[t]]) for _ in range(8)))
    return kb, context, bases, tests


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

    @pytest.mark.parametrize("learning_rate", [5.0, 1e308])
    def test_divergent_rate_returns_the_best_iterate(self, learning_rate):
        # At these rates the first cycle overshoots, to leaf value 54.53 at
        # rate 5 and to NaN at 1e308, so the best iterate seen is the start.
        params = coordinate_descent([0.5, 0.3], learning_rate=learning_rate)
        assert all(math.isfinite(v) for v in params.as_tuple())
        assert params == ZERO_PARAMS

    @pytest.mark.parametrize("tolerance", [0, 1e-8])
    def test_stops_at_a_fixed_point_at_any_tolerance(self, tolerance):
        # At rate 0.5 the first cycle lands on the mean, and the second
        # leaves the objective where it was: that is a fixed point, where
        # even a zero tolerance must stop.  Each coordinate step multiplies
        # the learning rate by its gradient once, so counting those products
        # counts the steps.
        steps = []

        class CountedRate(float):
            def __mul__(self, other):
                steps.append(other)
                return float(self) * other

        params = coordinate_descent([0.5] * 10, learning_rate=CountedRate(0.5), tolerance=tolerance)
        assert params.value() == 0.5
        assert len(steps) == 2 * 5  # two cycles of five coordinates
        assert reference_coordinate_descent(
            [0.5] * 10, learning_rate=0.5, tolerance=tolerance
        ) == params

    def test_matches_the_reference_loop_bit_for_bit(self):
        # Random starts, means (signed zeros among them), rates up to 1e308
        # and cycle counts 0, 1, 2 and 500; where the reference's objective
        # overflows, it raises, and the shipped loop must still return an
        # iterate no worse than its start.
        rng = random.Random(17)
        returned = overflowed = 0
        for _ in range(3000):
            if rng.random() < 0.1:
                deltas = [rng.choice([0.0, -0.0])] * rng.randint(1, 3)
            else:
                scale = rng.choice([1.0, 1.0, 10.0, 1e3])
                deltas = [rng.uniform(-scale, scale) for _ in range(rng.randint(1, 5))]
            theta0 = rng.choice([
                ZERO_PARAMS,
                LeafParams(*(rng.uniform(-3, 3) for _ in range(5))),
                LeafParams(*(rng.choice([0.0, -0.0]) for _ in range(5))),
            ])
            rate = rng.choice([0.05, 0.5, 2.0, 5.0, 1e100, 1e308, 10 ** rng.uniform(-3, 308)])
            settings = dict(
                learning_rate=rate, max_iters=rng.choice([0, 1, 2, 500]),
                tolerance=rng.choice([0, 1e-8, 1e-3]),
            )
            got = coordinate_descent(deltas, theta0, **settings)
            try:
                want = reference_coordinate_descent(deltas, theta0, **settings)
            except OverflowError:
                overflowed += 1
                mean = sum(deltas) / len(deltas)
                assert (got.value() - mean) ** 2 <= (theta0.value() - mean) ** 2
                continue
            returned += 1
            assert [v.hex() for v in got.as_tuple()] == [v.hex() for v in want.as_tuple()]
        assert returned > 2000 and overflowed > 100

    def test_an_overflowing_objective_is_a_rising_one(self):
        # The first cycle moves the leaf value to about 1e100, whose squared
        # error overflows; the best iterate seen is the start.
        assert coordinate_descent([0.5], learning_rate=1e100) == ZERO_PARAMS
        with pytest.raises(OverflowError):
            reference_coordinate_descent([0.5], learning_rate=1e100)

    @pytest.mark.parametrize("mean", [1e150, 1e200, -1e200])
    def test_a_leaf_reaches_a_mean_whose_squared_error_overflows(self, mean):
        # From the start the squared errors of a leaf near 1e200 overflow;
        # each cycle still moves it towards the mean, as at 1e150.
        params = coordinate_descent([mean])
        assert abs(params.value() - mean) <= 1e-6 * abs(mean)

    def test_never_returns_a_worse_iterate_than_it_saw(self):
        rng = random.Random(5)
        for _ in range(200):
            deltas = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))]
            theta0 = LeafParams(*(rng.uniform(-1, 1) for _ in range(5)))
            rate = rng.choice([0.05, 0.5, 2.0, 3.0, 10.0])
            mean = sum(deltas) / len(deltas)
            params = coordinate_descent(deltas, theta0, learning_rate=rate)
            assert (params.value() - mean) ** 2 <= (theta0.value() - mean) ** 2


def _leaf_sse(deltas, **settings):
    """The squared error fit_regression_tree computes for a fitted leaf."""
    value = coordinate_descent(deltas, **settings).value()
    return sum((value - d) ** 2 for d in deltas)


def _mean_sse(deltas):
    mean = sum(deltas) / len(deltas)
    return sum((mean - d) ** 2 for d in deltas)


class TestLeafFitMemo:
    def test_each_distinct_mean_is_fit_once(self, monkeypatch):
        # Targets are +0.5 where both people act or neither does, -0.5
        # otherwise.  Splitting on whether P1 acts leaves both sides the mean
        # -1/14, and splitting each side on whether P2 acts leaves four pure
        # leaves, two of each sign: seven leaf fits wanted, three distinct.
        import liftedrbm.tree as tree_module

        actors, others = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]
        kb = parse_facts(
            "".join(f"actedin({a}, m1).\n" for a in actors)
            + "".join(f"directedby(m2, {b}).\n" for b in others),
            MOVIE_MODES,
        )
        examples = [
            RegressionExample(
                atom(COLLAB, C(x, "person"), C(y, "person")),
                1,
                0.5 if (x in actors) == (y in actors) else -0.5,
            )
            for x in actors + others
            for y in actors + others
            if x != y
        ]
        means = []
        fit = tree_module.coordinate_descent

        def counted(deltas, *args, **kwargs):
            means.append((sum(deltas) / len(deltas)).hex())
            return fit(deltas, *args, **kwargs)

        monkeypatch.setattr(tree_module, "coordinate_descent", counted)
        fitted = []
        tree = fit_regression_tree(examples, 4, MOVIE_MODES, kb, fitted=fitted)
        leaves = [leaf.params for _, leaf in tree.paths()]
        assert sorted(leaf.value() for leaf in leaves) == pytest.approx([-0.5, -0.5, 0.5, 0.5], abs=1e-3)
        assert len(set(leaves)) == 2  # equal means, one fit
        assert len(means) == len(set(means))
        assert (-1 / 14).hex() in means and (0.5).hex() in means and (-0.5).hex() in means
        reference, reference_fitted = exhaustive_fit_tree(examples, 4, MOVIE_MODES, kb)
        assert tree.to_text() == reference.to_text()
        assert fitted == reference_fitted


class TestSseFloor:
    def test_an_overflowing_square_reads_as_infinity(self):
        # A target of 1e200 squares past the float range; the floor must
        # not raise, and a tree still fits such targets.
        assert not _sse_floor([1e200, -1e200]) < math.inf
        assert _sse_floor([1e200, 1e200]) <= 0.0
        kb = example1_kb()
        examples = [
            RegressionExample(atom(COLLAB, C(x, "person"), C(y, "person")), 1, g)
            for (x, y), g in ((("p1", "p2"), 1e200), (("p2", "p1"), -1e200))
        ]
        tree = fit_regression_tree(examples, 2, MOVIE_MODES, kb)
        assert tree.leaf_count == 1  # both act in the same movies: nothing splits them

    def test_no_leaf_fit_falls_below_the_floor(self):
        # The floor is what lets fit_regression_tree skip a candidate without
        # changing the tree, so a computed leaf error must never be below it.
        # At the default settings it also stays above the two-pass mean error
        # times the margin alone.
        rng = random.Random(17)
        settings = [
            {},
            {"learning_rate": 0.5},
            {"learning_rate": 2.0},
            {"learning_rate": 0.5, "tolerance": 0.0, "max_iters": 50},
        ]
        lowest = math.inf
        for case in range(3000):
            n = rng.randint(1, 60)
            scale = 10 ** rng.uniform(-6, 1)
            if case % 10 == 0:
                deltas = [rng.uniform(-scale, scale)] * n
            else:
                deltas = [rng.uniform(-scale, scale) for _ in range(n)]
            chosen = settings[case % len(settings)] if case % 15 else {
                "tolerance": 0.0, "max_iters": 100,
            }
            sse = _leaf_sse(deltas, **chosen)
            assert sse >= _sse_floor(deltas), (deltas, chosen)
            if not chosen:
                mean_sse = _mean_sse(deltas)
                assert sse >= mean_sse * _BOUND_MARGIN, deltas
                if mean_sse > 0:
                    lowest = min(lowest, sse / mean_sse)
        assert 1 <= lowest < 1 + 1e-6  # some fits come that close to the mean

    def test_equal_targets_need_the_absolute_allowance(self):
        # The float mean of twelve 0.11s is 0.11000000000000003, so the
        # two-pass mean error is positive, but at this rate the leaf value
        # lands nearer 0.11 and its error is a quarter of that.
        deltas = [0.11] * 12
        sse = _leaf_sse(deltas, learning_rate=0.5)
        assert sse < _mean_sse(deltas) * _BOUND_MARGIN
        assert sse >= _sse_floor(deltas)


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
        (value,) = oracle_per_tree([tree], examples[0].query, kb)
        assert abs(value - mean) < 1e-3

    def test_perfect_separator_becomes_the_root(self):
        modes, kb, examples = _separable_domain()
        tree = fit_regression_tree(examples, 2, modes, kb)
        assert isinstance(tree.root, InternalNode)
        assert str(tree.root.test) == "good(T1)"
        for example in examples:
            (value,) = oracle_per_tree([tree], example.query, kb)
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
            (oracle_per_tree([single], e.query, kb)[0] - e.gradient) ** 2 for e in noisy
        )
        sse_split = sum(
            (oracle_per_tree([split], e.query, kb)[0] - e.gradient) ** 2 for e in noisy
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


def _random_fit_case(seed):
    """A random movie domain, regression examples and fit settings."""
    rng = random.Random(seed)
    people = [f"p{i}" for i in range(rng.randint(4, 7))]
    movies = [f"m{i}" for i in range(rng.randint(2, 5))]
    genres = ["g0", "g1", "g2"]
    lines = [f"actedin({p}, {m})." for p in people for m in movies if rng.random() < 0.35]
    lines += [f"directedby({m}, {rng.choice(people)})." for m in movies if rng.random() < 0.8]
    lines += [f"ingenre({m}, {rng.choice(genres)})." for m in movies]
    lines += [f"samegenre({g}, {g})." for g in genres]
    lines += [f"sameperson({a}, {b})." for a in people for b in people if rng.random() < 0.25]
    kb = parse_facts("\n".join(lines), MOVIE_MODES)
    # Coarse targets tie and leave sides with all-equal targets; fine ones do
    # not.  Some cases draw targets of a few units, like distillation's.
    levels = [-0.5, 0.11, 0.5] if seed % 3 == 0 else None
    scale = rng.choice([0.9, 4.0])
    examples = []
    for _ in range(rng.randint(8, 30)):
        a, b = rng.sample(people, 2)
        target = rng.choice(levels) if levels else rng.uniform(-scale, scale)
        examples.append(RegressionExample(atom(COLLAB, C(a, "person"), C(b, "person")), 1, target))
    settings = {
        "max_new_vars": rng.randint(0, 2),
        "max_depth": rng.choice([None, None, 1, 2, 3]),
        **rng.choice([
            {},
            {"learning_rate": 0.5},
            {"cd_max_iters": rng.randint(1, 4)},  # leaf errors far above the bound
            {"learning_rate": 0.2, "cd_tolerance": 1e-4},
        ]),
    }
    return kb, examples, rng.randint(2, 8), settings, rng.random() < 0.5


def _assert_fit_matches_exhaustive(examples, max_leaves, modes, kb, table=None, **settings):
    fitted = []
    tree = fit_regression_tree(examples, max_leaves, modes, kb, table=table, fitted=fitted, **settings)
    reference, reference_fitted = exhaustive_fit_tree(examples, max_leaves, modes, kb, **settings)
    assert tree.to_text() == reference.to_text()
    assert fitted == reference_fitted
    return tree


class TestPrunedFitMatchesExhaustive:
    @pytest.mark.parametrize("seed", range(48))
    def test_random_domains(self, seed):
        kb, examples, max_leaves, settings, shared = _random_fit_case(seed)
        table = None
        if shared:
            # an earlier fit over the same knowledge base fills the table
            table = CoverageTable()
            earlier = [RegressionExample(e.query, e.label, -e.gradient) for e in examples[::2]]
            fit_regression_tree(earlier, max_leaves, MOVIE_MODES, kb, table=table, **settings)
        _assert_fit_matches_exhaustive(examples, max_leaves, MOVIE_MODES, kb, table, **settings)

    def _two_test_domain(self, a_things, b_things, targets):
        modes = parse_modes("mode: a(+thing).\nmode: b(+thing).\nmode: t(-thing).")
        facts = [f"a(x{i})." for i in a_things] + [f"b(x{i})." for i in b_things]
        kb = parse_facts("\n".join(facts), modes)
        target = modes["t"].predicate
        examples = [
            RegressionExample(atom(target, C(f"x{i}", "thing")), 1, value)
            for i, value in enumerate(targets, start=1)
        ]
        return modes, kb, examples

    def test_first_of_two_equal_splits_wins(self):
        # a(T1) and b(T1) hold for the same things, so they score the same
        modes, kb, examples = self._two_test_domain(
            (1, 2), (1, 2), [0.5, 0.4, -0.3, -0.5, -0.45]
        )
        tree = _assert_fit_matches_exhaustive(examples, 2, modes, kb)
        assert str(tree.root.test) == "a(T1)"

    def test_leaf_fits_not_mean_errors_rank_the_splits(self):
        # Three cycles leave these leaves far from their means: a(T1) has the
        # lower mean error (119.2 against 120.8) but b(T1) the lower score
        # (159.5 against 161.9), so the bound may skip nothing here.
        modes, kb, examples = self._two_test_domain(
            (1,), (2, 5), [-4.3, 7.1, 5.9, 6.4, 7.8, -5.3]
        )
        tree = _assert_fit_matches_exhaustive(examples, 2, modes, kb, cd_max_iters=3)
        assert str(tree.root.test) == "b(T1)"

    def test_a_split_within_rounding_of_the_best_is_fit(self):
        # Both splits put the targets -0.19, 0.78, 0.1 on each side, a(T1) in
        # another order on its true side.  At this rate the leaf fits land
        # within rounding of the mean, and b(T1) scores 1.1e-16 below
        # a(T1) although its two-pass mean error is 3.3e-16 above a(T1)'s
        # score: it must be fit, not skipped, to win.
        p, q, r = -0.19, 0.78, 0.1
        modes, kb, examples = self._two_test_domain(
            (2, 3, 4), (1, 2, 3), [p, q, r, p, q, r]
        )
        bound_b = 2 * _mean_sse([p, q, r])
        score_a = _leaf_sse([q, r, p], learning_rate=0.5) + _leaf_sse([p, q, r], learning_rate=0.5)
        score_b = 2 * _leaf_sse([p, q, r], learning_rate=0.5)
        assert score_b < score_a < bound_b
        tree = _assert_fit_matches_exhaustive(examples, 2, modes, kb, learning_rate=0.5)
        assert str(tree.root.test) == "b(T1)"


def _one_tree_model(tree):
    """A model of ``tree`` alone, whose ``per_tree`` routes a query as the
    program routes it."""
    return BoostedModel(tree.target, tree.head, 0.0, [tree], TrainConfig())


class TestCoverageTable:
    def test_shared_table_is_keyed_on_queries_not_positions(self, movie_domain):
        kb, examples, _ = movie_domain
        labeled = examples.labeled()
        first = [RegressionExample(q, y, 0.9 if y else -0.7) for q, y in labeled]
        rng = random.Random(7)
        # a reordered subset, as equal but distinct query objects, new targets
        second = [
            RegressionExample(Atom(q.predicate, q.args), y, rng.uniform(-0.9, 0.9))
            for q, y in rng.sample(labeled, len(labeled) // 2)
        ]

        def decided(table):
            return sum(known.bit_count() for known, _ in table._entries.values())

        alone = CoverageTable()
        fresh = fit_regression_tree(second, 4, MOVIE_MODES, kb, table=alone)
        table = CoverageTable()
        fit_regression_tree(first, 4, MOVIE_MODES, kb, table=table)
        before = decided(table)
        shared = fit_regression_tree(second, 4, MOVIE_MODES, kb, table=table)
        assert decided(table) - before < decided(alone)  # the table was read
        assert shared.to_text() == fresh.to_text()

    def test_each_kept_witness_list_serves_one_node_item(self, movie_domain, monkeypatch):
        # A list of kept witnesses holds the witnesses of one node's context
        # for one item: partition must never be handed it with another
        # context, head unifier or cached witness, and it holds the witnesses
        # of that context, the cached one as itself.  A candidate is decided
        # by set lookups, so every decision made through route_decision is
        # the proof of an expanded true child's item, which went left: it
        # must return the first witness of the child's context.
        import liftedrbm.tree as tree_module

        kb, examples, _ = movie_domain
        rng = random.Random(11)
        regression = [
            RegressionExample(q, y, rng.uniform(-0.9, 0.9)) for q, y in examples.labeled()
        ]
        owners = {}
        filled = set()  # the lists whose witnesses were checked
        expanded = []  # the witnesses chained into true children when expanded
        partitioning = []
        route_decision, partition = tree_module.route_decision, tree_module.partition

        def recorded(context, test, base, cached, kb, stats=None):
            assert not partitioning  # candidates are decided by set lookups
            result = route_decision(context, test, base, cached, kb, stats)
            assert result is not None  # the item went to the true side
            assert result == reference_satisfy(tuple(context) + (test,), base, kb)
            expanded.append(result)
            return result

        def candidate_split(context, candidate, items, kb, table, bits, kept):
            partitioning.append(True)
            try:
                return partition(context, candidate, items, kb, table, bits, kept)
            finally:
                partitioning.pop()
                for (_, base, cached), witnesses_kept in zip(items, kept):
                    owner = owners.setdefault(
                        id(witnesses_kept), (witnesses_kept, tuple(context), base, cached)
                    )
                    assert owner[1] == tuple(context) and owner[2] is base and owner[3] is cached
                    if witnesses_kept and id(witnesses_kept) not in filled:
                        filled.add(id(witnesses_kept))
                        assert witnesses_kept == list(witnesses(context, base, kb))
                        assert sum(w is cached for w in witnesses_kept) == 1

        monkeypatch.setattr(tree_module, "route_decision", recorded)
        monkeypatch.setattr(tree_module, "partition", candidate_split)
        tree = fit_regression_tree(regression, 8, MOVIE_MODES, kb)
        assert len(filled) > 50  # lists were filled
        assert len(expanded) > 50
        reference, _ = exhaustive_fit_tree(regression, 8, MOVIE_MODES, kb)
        assert tree.to_text() == reference.to_text()

    def test_fitted_values_are_the_routed_leaf_values(self, movie_domain):
        kb, examples, _ = movie_domain
        rng = random.Random(3)
        regression = [
            RegressionExample(q, y, rng.uniform(-0.9, 0.9)) for q, y in examples.labeled()
        ]
        fitted = []
        tree = fit_regression_tree(regression, 6, MOVIE_MODES, kb, fitted=fitted)
        model = _one_tree_model(tree)
        assert fitted == [model.per_tree(e.query, kb)[0] for e in regression]


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
        (value,) = oracle_per_tree(
            [tree], atom(COLLAB, C("p1", "person"), C("p2", "person")), example1_kb()
        )
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_wrong_predicate_is_an_error(self):
        tree, _, kb = _random_movie_tree_and_examples()
        with pytest.raises(ValueError):
            _one_tree_model(tree).per_tree(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), kb)

    def test_routing_matches_path_clause_satisfaction(self):
        # oracle: satisfy each root-to-leaf clause independently, literal by
        # literal in root order; exactly one must hold and its leaf value must
        # equal the routed value
        tree, examples, kb = _random_movie_tree_and_examples(seed=21)
        head = tree.head
        paths = list(tree.paths())
        assert len(paths) == tree.leaf_count
        model = _one_tree_model(tree)
        for example in examples:
            holding = [
                leaf
                for literals, leaf in paths
                if RoutingTrie([Clause(head, literals)]).walk(example.query, kb)
            ]
            assert len(holding) == 1
            (routed,) = model.per_tree(example.query, kb)
            assert routed == pytest.approx(holding[0].params.value(), abs=1e-12)

    def test_path_count_and_structure(self):
        tree, _, kb = _random_movie_tree_and_examples(seed=2)
        for literals, _ in tree.paths():
            # negated literals only ever come from false branches of tests
            signs = [lit.negated for lit in literals]
            assert all(isinstance(s, bool) for s in signs)
