"""Candidate generation, splitting, leaf fitting, and tree routing."""

import gc
import itertools
import math
import random
import struct

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
from liftedrbm.model import BoostedModel, TrainConfig, train
from liftedrbm.tree import (
    InternalNode,
    LeafNode,
    LeafParams,
    ZERO_PARAMS,
    coordinate_descent,
    fit_regression_tree,
    generate_candidates,
    join,
    make_head,
    _FRESH,
    _atom,
    ordered_sum,
    _classes,
    _floors,
    _grow,
    _leaf_floor,
    _restated,
    _root_plan,
    _squares,
    _target_classes,
)

from synthetic_domain import generate_movie_domain
from helpers import (
    ACTEDIN,
    COLLAB,
    EXAMPLE1_FACTS,
    MOVIE_MODES,
    SAMEPERSON,
    C,
    V,
    atom,
    atom_partition,
    atom_restates,
    example1_kb,
    exhaustive_fit_tree,
    left_sum,
    oracle_per_tree,
    oracle_satisfy,
    oracle_witnesses,
    reference_classes,
    reference_coordinate_descent,
    scan_partition,
    sum_squares,
)


SPORTS_MODES = parse_modes(
    """
mode: plays(+sports, -team).
mode: teamplaysagainstteam(-team, -team).
mode: athleteplaysforteam(-athlete, +team).
mode: teamplayssport(-team, -sports).
"""
)


def _restates(predicate, slots, context):
    """Whether an expansion finds the candidate ``(predicate, slots)``
    restated by an atom of ``context`` (:func:`_restated`)."""
    key = tuple([None if slot is _FRESH else slot.name for slot in slots])
    return _restated(context, {(predicate.name, key): 0}) == {0}


def _named_candidates(bound_vars, modes, used_names, **kwargs):
    """The candidates ``generate_candidates`` gives for ``bound_vars``, each
    named by ``_atom`` under ``used_names`` as a literal."""
    return [
        Literal(_atom(predicate, slots, used_names))
        for predicate, slots in generate_candidates(bound_vars, modes, **kwargs)
    ]


class TestGenerateCandidates:
    def test_root_candidates_chain_through_the_head(self):
        head = make_head(SPORTS_MODES["teamplayssport"].predicate)
        candidates = _named_candidates(
            head.args,
            SPORTS_MODES,
            [t.name for t in head.args],
            max_new_vars=1,
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
        candidates = _named_candidates(
            head.args, modes, [t.name for t in head.args], exclude_predicates=("collab",),
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
            candidates = _named_candidates(
                bound, modes, [t.name for t in bound], max_new_vars=max_new,
                exclude_predicates=("tgt",),
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
        candidates = _named_candidates(
            head.args, modes, [t.name for t in head.args], max_new_vars=1,
            exclude_predicates=("tgt",),
        )
        assert candidates == []  # no bound a-vars, so r would need two fresh

    def test_deduplication_up_to_renaming(self):
        modes = parse_modes("mode: r(-a).\nmode: tgt(-a).")
        head = make_head(modes["tgt"].predicate)
        candidates = _named_candidates(
            head.args, modes, [t.name for t in head.args], max_new_vars=1,
            exclude_predicates=("tgt",),
        )
        # r(A1) reusing the head variable plus one fresh-variable version
        assert [str(c) for c in candidates] == ["r(A1)", "r(A2)"]
        r = modes["r"].predicate
        assert generate_candidates(head.args, modes, 1, ("tgt",)) == [(r, head.args), (r, (_FRESH,))]

    def test_fresh_names_avoid_used_names(self):
        modes = parse_modes("mode: r(-a).\nmode: tgt(-a).")
        head = make_head(modes["tgt"].predicate)
        candidates = _named_candidates(
            head.args, modes, ["A1", "A2", "A3"], max_new_vars=1, exclude_predicates=("tgt",),
        )
        assert [str(c) for c in candidates] == ["r(A1)", "r(A4)"]


def _collab_item(kb, left, right):
    """A root query and its one row, the query's arguments."""
    return atom(COLLAB, C(left, "person"), C(right, "person")), ((left, right),)


def _base(item):
    """The head unifier of an item's query."""
    return unify(make_head(item[0].predicate), item[0])


def _partition(candidate, examples, kb, bound_vars=None):
    """``partition`` at a node whose items are (position, rows) for the
    given (query, rows), binding ``bound_vars`` (by default the head of
    ``collab`` items): ``None`` for a one-sided split, else whether each
    item is on the true side."""
    bound_vars = make_head(COLLAB).args if bound_vars is None else bound_vars
    split = atom_partition(candidate.atom, bound_vars, _positioned(examples), kb, COLLAB.arity)
    assert len(split) == len(examples) and set(split) <= {0, 1}
    if 0 not in split or 1 not in split:
        return None
    return [bool(chosen) for chosen in split]


def _positioned(examples):
    """Fit items (position, rows) for a list of (query, rows)."""
    return [(position, rows) for position, (_, rows) in enumerate(examples)]


def _names(witness, bound_vars):
    """A witness as a row: the names it binds to ``bound_vars``, in order."""
    return tuple(witness[var].name for var in bound_vars)


def _new_vars(test, bound_vars):
    return tuple(dict.fromkeys(v for v in test.variables() if v not in bound_vars))


class TestPartition:
    def test_satisfied_example_goes_left_with_chained_bindings(self, monkeypatch):
        import liftedrbm.tree as tree_module

        # p3 is a person who acts in nothing
        kb = parse_facts(EXAMPLE1_FACTS + "sameperson(p3, p3).\n", MOVIE_MODES)
        items = [_collab_item(kb, "p1", "p2"), _collab_item(kb, "p3", "p1")]
        acts = Literal(atom(ACTEDIN, V("P1", "person"), V("M1", "movie")))
        # one-sided: p1 and p2 both act, as the oracle says
        acting = [items[0], _collab_item(kb, "p2", "p1")]
        assert _partition(acts, acting, kb) is None
        assert all(oracle_satisfy([acts], _base(item), kb) for item in acting)
        # a decision is the satisfied bits alone: p1 acts and p3 does not
        assert _partition(acts, items, kb) == [True, False]
        # The fit joins the committed split's test into its true side's rows
        # when it expands that side, and no sooner.  p1 and p2 act and p3
        # does not, so acts splits the root and its true side, which has the
        # larger error, is expanded first.
        queries = [
            query for query, _ in (
                items[0], _collab_item(kb, "p2", "p1"), items[1], _collab_item(kb, "p3", "p2"),
            )
        ]
        gradients = [0.5, 0.3, -0.5, -0.4]
        calls = []
        join = tree_module.join

        def recorded(test, bound_vars, *args):
            result = join(test, bound_vars, *args)
            calls.append((test, bound_vars + _new_vars(test, bound_vars), result))
            return result

        monkeypatch.setattr(tree_module, "join", recorded)
        tree = fit_regression_tree(queries, gradients, 2, MOVIE_MODES, kb)
        assert tree.root.test == acts
        assert calls == []  # the true side is never expanded, so never joined
        tree = fit_regression_tree(queries, gradients, 3, MOVIE_MODES, kb)
        assert tree.root.test == acts
        ((test, bound_vars, joined),) = calls
        assert test == acts.atom
        assert [queries[position] for position, _ in joined] == queries[:2]
        column = bound_vars.index(V("M1", "movie"))
        for _, rows in joined:
            assert rows[0][column] == "m1"

    def test_factless_predicate_sends_everything_right(self):
        kb = example1_kb()
        items = [_collab_item(kb, "p1", "p2"), _collab_item(kb, "p2", "p1")]
        from helpers import DIRECTEDBY

        candidate = Literal(atom(DIRECTEDBY, V("M", "movie"), V("P1", "person")))
        assert _partition(candidate, items, kb) is None
        assert not any(oracle_satisfy([candidate], _base(item), kb) for item in items)

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

        two_sided = several = 0
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
            # an item reaches a node with every witness of its context
            bound_vars = head.args + tuple(v for a in context for v in _new_vars(a, head.args))
            items = []
            for q in queries:
                rows = tuple(_names(w, bound_vars) for w in witnesses(context, unify(head, q), kb))
                if rows:
                    items.append((q, rows))
                    several += len(rows) > 1
            split = _partition(Literal(candidate), items, kb, bound_vars)
            expected = [holds(context + (candidate,), query) for query, _ in items]
            # a second split on the knowledge base's kept views decides the same
            assert _partition(Literal(candidate), items, kb, bound_vars) == split
            if split is None:
                assert len(set(expected)) <= 1
                continue
            two_sided += 1
            assert split == expected
        assert two_sided >= 4
        assert several > 0

    def test_a_constant_or_a_repeated_fresh_variable_is_a_filtered_lookup(self):
        # A constant keeps the facts that hold it, and a fresh variable at two
        # positions the facts that repeat one value there; then the test is
        # decided by a lookup in a projection and joined as any other.
        kb = parse_facts(
            EXAMPLE1_FACTS + "actedin(p3, m3).\nsameperson(p2, p3).\nsameperson(p3, p3).\n",
            MOVIE_MODES,
        )
        items = [_collab_item(kb, a, b) for a, b in (("p1", "p2"), ("p3", "p1"), ("p2", "p3"))]
        head = make_head(COLLAB)
        p1, p3 = V("P1", "person"), V("P3", "person")
        two_sided = 0
        for candidate in (
            atom(ACTEDIN, p1, C("m1", "movie")),
            atom(ACTEDIN, p3, C("m3", "movie")),
            atom(SAMEPERSON, p3, p3),
            atom(SAMEPERSON, p1, p1),  # a bound variable twice
            atom(SAMEPERSON, C("p2", "person"), p1),
        ):
            expected = [oracle_satisfy([Literal(candidate)], _base(item), kb) for item in items]
            split = _partition(Literal(candidate), items, kb)
            if split is None:
                assert len(set(expected)) == 1
            else:
                two_sided += 1
                assert split == expected
            bound_vars = head.args + _new_vars(candidate, head.args)
            joined = join(candidate, head.args, _positioned(items), kb)
            for (_, rows), item, sat in zip(joined, items, expected):
                found = witnesses((candidate,), _base(item), kb)
                assert list(rows) == [_names(w, bound_vars) for w in found]
                assert bool(rows) == sat
        assert two_sided == 3

    def test_rows_joins_and_decisions_are_the_oracles(self):
        """Random contexts, reached from partial bindings by one join per
        atom, and candidates over the context's variables, fresh ones and
        constants: the rows an item carries at a node are every witness of
        the node's context, each join gives the witnesses of the extended
        context in search order, and each decision is the oracle's."""
        rng = random.Random(4242)
        decided = from_later_row = with_constant = with_repeat = joined = 0
        for _ in range(1500):
            kb, context, bases, tests = _random_context_case(rng)
            nodes: dict[tuple, list] = {}  # head variables -> items
            for i, base in enumerate(bases):
                head_vars = tuple(var for var in dict.fromkeys(
                    v for a in context for v in a.variables()) if var in base)
                bound_vars = head_vars
                items = [(i, (_names(base, head_vars),))]
                for k, test in enumerate(context):
                    items = join(test, bound_vars, items, kb)
                    bound_vars += _new_vars(test, bound_vars)
                    want = [_names(w, bound_vars) for w in witnesses(context[:k + 1], base, kb)]
                    assert list(items[0][1]) == want
                    joined += 1
                everyone = oracle_witnesses(context, base, kb)
                assert sorted(items[0][1]) == sorted(_names(w, bound_vars) for w in everyone)
                if everyone:  # an item reaches a node only with a witness
                    key = (head_vars, bound_vars)
                    nodes.setdefault(key, []).append((items[0][1], everyone))
            for (head_vars, bound_vars), members in nodes.items():
                items = [(position, rows) for position, (rows, _) in enumerate(members)]
                for test in tests:
                    split = atom_partition(test, bound_vars, items, kb, len(head_vars))
                    assert len(split) == len(items)
                    free = [t for t in test.args if t.is_variable and t not in bound_vars]
                    for (rows, everyone), chosen in zip(members, split):
                        want = any(oracle_satisfy([Literal(test)], w, kb) for w in everyone)
                        assert chosen == want, (
                            f"context={[str(a) for a in context]} test={test} rows={rows}"
                        )
                        decided += 1
                        with_constant += not all(t.is_variable for t in test.args)
                        with_repeat += len(set(free)) < len(free)
                        first = {var: kb.constant(name) for var, name in zip(bound_vars, rows[0])}
                        from_later_row += want and not oracle_satisfy([Literal(test)], first, kb)
        # the cases the later rows, the constants and the repeats exist for
        # are well represented
        assert decided >= 10000
        assert from_later_row >= 300
        assert with_constant >= 500 and with_repeat >= 400
        assert joined > 1000

    def test_a_new_fact_drops_the_kept_views(self):
        # A batch walk and a fit leave the knowledge base's views built;
        # after a fact arrives that makes p3 act, the walk must route
        # collab(p3, p1) the other way and the refit must see p3 act, as
        # the depth-first walk and the exhaustive reference do.
        kb = parse_facts(EXAMPLE1_FACTS + "sameperson(p3, p3).\n", MOVIE_MODES)
        pairs = (("p1", "p2"), ("p2", "p1"), ("p3", "p1"), ("p3", "p2"))
        queries = [atom(COLLAB, C(a, "person"), C(b, "person")) for a, b in pairs]
        gradients = [0.5, 0.3, -0.5, -0.4]
        tree = fit_regression_tree(queries, gradients, 3, MOVIE_MODES, kb)
        assert str(tree.root.test) == "actedin(P1, M1)"
        trie = RoutingTrie([clause for clause, _ in tree.path_clauses()])
        before = trie.walk_many(queries, kb)
        kb.add(atom(ACTEDIN, C("p3", "person"), C("m1", "movie")))
        after = trie.walk_many(queries, kb)
        assert after[2] != before[2]
        assert after == [[i for i, _ in trie.walk(q, kb)] for q in queries]
        _assert_fit_matches_exhaustive(queries, gradients, 3, MOVIE_MODES, kb)


def _random_context_case(rng: random.Random):
    """A random KB, a positive context of 1-3 atoms over a small variable
    pool, a few head-unifier-like partial bindings of it (some grounding the
    whole context), and candidate atoms that share its variables, add fresh
    ones (at times one fresh variable twice) or hold a constant."""
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
    tests = list(dict.fromkeys(
        random_atom(lambda t: pool[t] + [fresh[t]] + [rng.choice(constants[t])] * (rng.random() < 0.2))
        for _ in range(8)
    ))
    return kb, context, bases, tests


def _mean(deltas):
    """The mean a leaf of targets ``deltas`` is fit to."""
    return left_sum(deltas) / len(deltas)


# coordinate_descent's parameters, as hex, at each mean at rate 0.05
_OVERFLOWING_ITERATES = {
    1e150: ("0x1.fc70d087b9d3dp+496", "0x1.58fabc8e199d7p+496", "0x1.145ef5a00a483p+493",
            "-0x1.7b869b421ae68p+496", "0x1.6b55dfca50f0ep+496"),
    1e200: ("0x1.0fc9d8ab57370p+663", "0x1.70d1cdf2c4605p+662", "0x1.2778445ef84f1p+659",
            "-0x1.95c0d67ea36a3p+662", "0x1.8471ae2086bdcp+662"),
    -1e200: ("-0x1.12ef8c881cbcbp+663", "0x1.75a6fd38e7cc0p+662", "0x1.2625c02dd5201p+654",
             "0x1.9d19f9ec897b7p+662", "-0x1.76cd22f915a12p+662"),
    9e307: ("0x1.a09d7bb36eb90p+1021", "0x1.1aace6486d385p+1021", "0x1.c4ea5be87a64ap+1017",
            "-0x1.36fb8c06f4de9p+1021", "0x1.29b75ccddcbf4p+1021"),
    1.7e308: ("0x1.89784a2976cb3p+1022", "0x1.0af8a099bc7c2p+1022", "0x1.abc0e5063ab35p+1018",
              "-0x1.25b4aeea20275p+1022", "0x1.192d2cfb507bep+1022"),
    -9e307: ("-0x1.a570845634ec0p+1021", "0x1.1e611e5052ddfp+1021", "0x1.c2e3757c6879cp+1012",
             "0x1.3c9d5026fa58bp+1021", "-0x1.1f42900b11123p+1021"),
}


class TestCoordinateDescent:
    def test_reaches_the_mean_for_constant_targets(self):
        params = coordinate_descent(_mean([0.5] * 8))
        assert abs(params.value() - 0.5) < 1e-3

    def test_reaches_the_mean_for_mixed_targets(self):
        params = coordinate_descent(_mean([0.2, 0.4]))
        assert abs(params.value() - 0.3) < 1e-3

    def test_converges_from_nonzero_start(self):
        theta0 = LeafParams(1.0, -0.5, 0.25, 0.75, -0.25)
        params = coordinate_descent(_mean([-0.4, -0.2]), theta0)
        assert abs(params.value() - (-0.3)) < 1e-3

    def test_bad_learning_rate_is_an_error(self):
        with pytest.raises(ValueError):
            coordinate_descent(_mean([0.1]), learning_rate=0.0)
        # NaN is neither above 0 nor at or below it: a check for a rate at
        # or below 0 let it through, and the loop returned its start.
        with pytest.raises(ValueError, match="learning rate must be positive"):
            coordinate_descent(0.3, learning_rate=math.nan)
        with pytest.raises(ValueError, match="learning rate must be positive"):
            reference_coordinate_descent([0.3], learning_rate=math.nan)

    @pytest.mark.parametrize("learning_rate", [5.0, 1e308])
    def test_divergent_rate_returns_the_best_iterate(self, learning_rate):
        # At these rates the first cycle overshoots, to leaf value 54.53 at
        # rate 5 and to NaN at 1e308, so the best iterate seen is the start.
        params = coordinate_descent(_mean([0.5, 0.3]), learning_rate=learning_rate)
        assert all(math.isfinite(v) for v in params)
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

        params = coordinate_descent(
            _mean([0.5] * 10), learning_rate=CountedRate(0.5), tolerance=tolerance
        )
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
            got = coordinate_descent(_mean(deltas), theta0, **settings)
            try:
                want = reference_coordinate_descent(deltas, theta0, **settings)
            except OverflowError:
                overflowed += 1
                mean = left_sum(deltas) / len(deltas)
                assert (got.value() - mean) ** 2 <= (theta0.value() - mean) ** 2
                continue
            returned += 1
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert returned > 2000 and overflowed > 100

    def test_an_overflowing_objective_is_a_rising_one(self):
        # The first cycle moves the leaf value to about 1e100, whose squared
        # error overflows; the best iterate seen is the start.
        assert coordinate_descent(_mean([0.5]), learning_rate=1e100) == ZERO_PARAMS
        with pytest.raises(OverflowError):
            reference_coordinate_descent([0.5], learning_rate=1e100)

    @pytest.mark.parametrize("mean", [1e150, 1e200, -1e200, 9e307, 1.7e308, -9e307])
    def test_a_leaf_reaches_a_mean_whose_squared_error_overflows(self, mean):
        # From the start the squared errors of a leaf near 1e200 overflow;
        # each cycle still moves it towards the mean, as at 1e150.  Past
        # 8.99e307, twice the residual overflows too, but a step does not.
        params = coordinate_descent(_mean([mean]))
        assert abs(params.value() - mean) <= 1e-6 * abs(mean)

    @pytest.mark.parametrize("learning_rate", [0.05, 5.0, 1e308])
    @pytest.mark.parametrize("mean", [1e150, 1e200, -1e200, 9e307, 1.7e308, -9e307])
    def test_iterates_at_overflowing_means_are_pinned(self, mean, learning_rate):
        # Where the reference loop's objective overflows, the fuzz above
        # checks only "no worse than the start", so the iterates themselves
        # are pinned here.  Rates 5 and 1e308 overshoot on the first cycle
        # and return the start.
        want = _OVERFLOWING_ITERATES[mean] if learning_rate == 0.05 else ("0x0.0p+0",) * 5
        got = coordinate_descent(mean, learning_rate=learning_rate)
        assert tuple(v.hex() for v in got) == want

    def test_never_returns_a_worse_iterate_than_it_saw(self):
        rng = random.Random(5)
        for _ in range(200):
            deltas = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))]
            theta0 = LeafParams(*(rng.uniform(-1, 1) for _ in range(5)))
            rate = rng.choice([0.05, 0.5, 2.0, 3.0, 10.0])
            mean = left_sum(deltas) / len(deltas)
            params = coordinate_descent(mean, theta0, learning_rate=rate)
            assert (params.value() - mean) ** 2 <= (theta0.value() - mean) ** 2


def _leaf_sse(deltas, **settings):
    """The squared error fit_regression_tree computes for a fitted leaf."""
    return sum_squares(coordinate_descent(_mean(deltas), **settings).value(), deltas)


def _mean_sse(deltas):
    mean = left_sum(deltas) / len(deltas)
    return left_sum((mean - d) ** 2 for d in deltas)


def _counted_fits(monkeypatch):
    """The means ``coordinate_descent`` is called with from now on, as hex."""
    import liftedrbm.tree as tree_module

    means = []
    fit = tree_module.coordinate_descent

    def counted(mean, *args, **kwargs):
        means.append(mean.hex())
        return fit(mean, *args, **kwargs)

    monkeypatch.setattr(tree_module, "coordinate_descent", counted)
    return means


class TestLeafFitMemo:
    def test_each_distinct_mean_is_fit_once(self, monkeypatch):
        # Targets are +0.5 where both people act or neither does, -0.5
        # otherwise.  Splitting on whether P1 acts leaves both sides the mean
        # -1/14, and splitting each side on whether P2 acts leaves four pure
        # leaves, two of each sign: seven leaf fits wanted, three distinct.
        actors, others = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]
        kb = parse_facts(
            "".join(f"actedin({a}, m1).\n" for a in actors)
            + "".join(f"directedby(m2, {b}).\n" for b in others),
            MOVIE_MODES,
        )
        pairs = [(x, y) for x in actors + others for y in actors + others if x != y]
        queries = [atom(COLLAB, C(x, "person"), C(y, "person")) for x, y in pairs]
        gradients = [0.5 if (x in actors) == (y in actors) else -0.5 for x, y in pairs]
        means = _counted_fits(monkeypatch)
        ((tree, fitted),) = _fits_from_one_root(queries, [gradients], 4, MOVIE_MODES, kb, owned=True)
        leaves = [leaf.params for _, leaf in tree.paths()]
        assert sorted(leaf.value() for leaf in leaves) == pytest.approx([-0.5, -0.5, 0.5, 0.5], abs=1e-3)
        assert len(set(leaves)) == 2  # equal means, one fit
        assert len(means) == len(set(means))
        assert (-1 / 14).hex() in means and (0.5).hex() in means and (-0.5).hex() in means
        reference, reference_fitted = exhaustive_fit_tree(queries, gradients, 4, MOVIE_MODES, kb)
        assert tree.to_text() == reference.to_text()
        assert fitted == reference_fitted


def _own(deltas):
    """``deltas`` as target classes read by ``_floors`` and ``_leaf_floor``:
    each item a class of its own, with its own square."""
    return list(range(len(deltas))), deltas, [d * d for d in deltas]


def _floor(deltas, selector):
    """The floor fit_regression_tree ranks the split ``selector`` by."""
    ((floor, _),) = _floors(*_own(deltas), {0: bytes(selector)})
    return floor


def _sides(deltas, selector):
    return (
        [d for d, s in zip(deltas, selector) if s],
        [d for d, s in zip(deltas, selector) if not s],
    )


class TestSseFloor:
    def test_an_overflow_gives_no_floor(self):
        # 1.25e154 and 0.6e154 square within the float range but their
        # squares sum past it, while their leaf error (about 2.1e307) is
        # finite: the floor must not read as inf and prune the split.
        for deltas, selector in (
            ([1.25e154, 0.6e154, 0.0], [1, 1, 0]),
            ([0.0, 1.25e154, 0.6e154], [1, 0, 0]),
            ([1.25e154, 0.0, 0.6e154], [1, 0, 1]),
            ([1.25e154, 0.6e154], [1, 0]),  # sides finite, the node's squares not
            ([1e200, -1e200, 1.0], [1, 0, 1]),
            ([1e200, 1e200, 1.0], [1, 1, 0]),
            ([1.7e308, 1.7e308, 0.0], [1, 1, 0]),  # the side's sum overflows
            ([math.inf, 0.5, 0.25], [1, 0, 1]),
            ([math.nan, 0.5, 0.25], [0, 1, 1]),
        ):
            floor = _floor(deltas, selector)
            assert floor == -math.inf, (deltas, selector, floor)
            left, right = _sides(deltas, selector)
            assert not _leaf_sse(left) + _leaf_sse(right) < floor
        assert _leaf_sse([1.25e154, 0.6e154]) < math.inf
        kb = example1_kb()
        p1, p2 = C("p1", "person"), C("p2", "person")
        queries = [atom(COLLAB, p1, p2), atom(COLLAB, p2, p1)]
        tree = fit_regression_tree(queries, [1e200, -1e200], 2, MOVIE_MODES, kb)
        assert tree.leaf_count == 1  # both act in the same movies: nothing splits them

    def test_no_leaf_fit_falls_below_the_floor(self):
        # The floor is what lets fit_regression_tree skip a candidate without
        # changing the tree, so the computed leaf errors of a split's two
        # sides must never sum below it.  Some come close.
        rng = random.Random(17)
        settings = [
            {},
            {"learning_rate": 0.5},
            {"learning_rate": 2.0},
            {"learning_rate": 0.5, "tolerance": 0.0, "max_iters": 50},
        ]
        lowest = math.inf
        for case in range(3000):
            n = rng.randint(2, 60)
            scale = 10 ** rng.uniform(-6, 1)
            if case % 10 == 0:
                deltas = [rng.uniform(-scale, scale)] * n
            else:
                deltas = [rng.uniform(-scale, scale) for _ in range(n)]
            share = rng.random()
            selector = [rng.random() < share for _ in range(n)]
            true_side, false_side = rng.sample(range(n), 2)
            selector[true_side], selector[false_side] = True, False
            chosen = settings[case % len(settings)] if case % 15 else {
                "tolerance": 0.0, "max_iters": 100,
            }
            left, right = _sides(deltas, selector)
            score = _leaf_sse(left, **chosen) + _leaf_sse(right, **chosen)
            floor = _floor(deltas, selector)
            assert score >= floor, (deltas, selector, chosen)
            assert floor > -math.inf
            if floor > 0:
                lowest = min(lowest, score / floor)
        assert 1 <= lowest < 1 + 1e-6

    def test_equal_targets_need_the_allowance(self):
        # Six 0.1s have a least error of 0, but computed from their sums it
        # reads 2.1e-17, and at this rate the leaf value lands within
        # 3e-17 of 0.1, where their computed error is 4.6e-33.
        deltas = [0.1] * 6
        sse = _leaf_sse(deltas, learning_rate=0.5)
        unpadded = left_sum(d * d for d in deltas) - left_sum(deltas) * (left_sum(deltas) / 6)
        assert sse < unpadded
        assert sse + sse >= _floor(deltas + deltas, [1] * 6 + [0] * 6)


def _random_node(rng):
    """Targets and 2-12 splits of a random node, the splits keyed by
    candidate index as a plan keeps them.  Some targets are constant, some
    are near 1e154 or 1e200, where squares and sums overflow, some splits
    repeat another's column, and some leave one item alone on a side."""
    n = rng.randint(2, 40)
    scale = rng.choice([1e-6, 1e-3, 1.0, 1.0, 1.0, 1e154, 1e200])
    if rng.random() < 0.15:
        deltas = [rng.uniform(-scale, scale)] * n
    else:
        deltas = [rng.uniform(-scale, scale) for _ in range(n)]
    columns = []
    for _ in range(rng.randint(2, 12)):
        kind = rng.random()
        if columns and kind < 0.2:
            column = rng.choice(columns)  # a duplicate column
        elif kind < 0.4:
            column = [0] * n  # one item alone on the true side
            column[rng.randrange(n)] = 1
        elif kind < 0.5:
            column = [1] * n  # ... or on the false side
            column[rng.randrange(n)] = 0
        else:
            share = rng.random()
            column = [int(rng.random() < share) for _ in range(n)]
            column[0], column[-1] = 1, 0
        columns.append(bytes(column))
    indices = sorted(rng.sample(range(60), len(columns)))
    return deltas, dict(zip(indices, columns))


class TestClassFloors:
    def test_every_floor_is_under_its_splits_leaf_fits(self):
        # Through each selector or per class and then per side, in another
        # order than a split's own items, each floor must be under the
        # computed error of the split's two fitted leaves.
        rng = random.Random(29)
        fits = {}

        def leaf_sse(deltas):
            mean = _mean(deltas)
            if mean.hex() not in fits:
                fits[mean.hex()] = coordinate_descent(mean).value()
            return sum_squares(fits[mean.hex()], deltas)

        one_item = finite = 0
        for _ in range(400):
            deltas, splits = _random_node(rng)
            for classes in (None, _classes(splits)):
                ranked = _floors(*_own(deltas), splits, classes)
                assert ranked == sorted(ranked)
                assert sorted(k for _, k in ranked) == sorted(splits)
                for floor, k in ranked:
                    left, right = _sides(deltas, splits[k])
                    assert not leaf_sse(left) + leaf_sse(right) < floor, (deltas, splits[k])
                    one_item += min(len(left), len(right)) == 1
                    finite += floor > -math.inf
        assert one_item > 400 and finite > 2000

    def test_a_kept_grouping_ranks_as_the_selectors_do(self):
        # A plan keeps its classes across trees: with every later tree's
        # targets they rank the splits as sums through each selector do,
        # the floors differing only by rounding.
        rng = random.Random(31)
        for _ in range(200):
            deltas, splits = _random_node(rng)
            classes = _classes(splits)
            for _ in range(3):
                targets = [rng.uniform(-1, 1) for _ in deltas]
                kept = _floors(*_own(targets), splits, classes)
                fresh = _floors(*_own(targets), splits)
                assert [k for _, k in kept] == [k for _, k in fresh]
                assert [f for f, _ in kept] == pytest.approx([f for f, _ in fresh], rel=1e-12, abs=1e-12)

    def test_classes_equal_the_sorted_grouping(self):
        # The order of the classes fixes the order in which _floors adds
        # their sums, and so the floors and the fits they prune (CI pins
        # coordinate_descent's calls): grouping in a dict must give the
        # sort-based grouping's gather order, spans and selectors.
        rng = random.Random(41)
        cases = [(_random_node(rng)[1], None) for _ in range(300)]
        cases += [
            ({5: bytes([1, 0, 0, 1, 1, 0, 1])}, 2),  # one split
            ({2: bytes([1] * 9), 7: bytes(9)}, 1),  # one class
            # one class per item, in another order than the items'
            ({k: bytes([(i >> k) & 1 for i in range(16)]) for k in range(4)}, 16),
        ]
        for splits, count in cases:
            n = len(next(iter(splits.values())))
            got, want = _classes(splits), reference_classes(splits)
            assert got.gather(range(n)) == want.gather(range(n)), splits
            assert got.spans == want.spans, splits
            assert list(got.selectors.items()) == list(want.selectors.items()), splits
            assert count is None or len(got.spans) == count

    def test_classes_partition_the_items_by_their_bits(self):
        rng = random.Random(37)
        for _ in range(100):
            deltas, splits = _random_node(rng)
            gather, spans, selectors = _classes(splits)
            order = list(gather(range(len(deltas))))
            assert sorted(order) == list(range(len(deltas)))
            bits = [tuple(split[i] for split in splits.values()) for i in range(len(deltas))]
            keys = []
            for span in spans:
                members = order[span]
                assert members == sorted(members) and len({bits[i] for i in members}) == 1
                keys.append(bits[members[0]])
            assert len(set(keys)) == len(keys)
            for j, (k, split) in enumerate(splits.items()):
                selector, flip = selectors[k]
                assert list(selector) == [key[j] for key in keys]
                assert list(flip) == [1 - key[j] for key in keys]
                assert sum(len(order[span]) for span, bit in zip(spans, selector) if bit) == (
                    split.count(1)
                )


def _bits(x):
    return struct.pack("<d", x)


class TestClassSquares:
    """A fit squares each leaf value's distance from each distinct target
    once and sums a side's squares in item order by its items' classes:
    the sum must be the one over each item's own square, bit for bit."""

    def test_class_squares_sum_as_each_items_own(self):
        rng = random.Random(43)
        signed_zeros = 0
        for case in range(600):
            pool = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
            pool += rng.sample(
                [0.0, -0.0, math.nan, float("nan"), 1e200, -1e200, 1.25e154, math.inf], 3
            )
            targets = [rng.choice(pool) for _ in range(rng.randint(1, 50))]
            values, ids = _target_classes(targets)
            for target, i in zip(targets, ids):
                assert values[i] is target or _bits(values[i]) == _bits(target)
            signed_zeros += {_bits(0.0), _bits(-0.0)} <= set(map(_bits, targets))
            for center in (rng.uniform(-2, 2), 0.0, -0.0, rng.choice(pool), 1e200):
                squares = _squares(center, values)
                got = ordered_sum(map(squares.__getitem__, ids))
                assert repr(got) == repr(sum_squares(center, targets)), (center, targets)
        assert signed_zeros >= 50

    def test_floors_through_class_ids_are_the_per_item_ones(self):
        # _floors and _leaf_floor read each item's target and its square
        # through the item's target class, squared once per class: the
        # floats must be the ones squaring each item's own target gives,
        # with and without split classes, on signed zeros, NaNs and targets
        # whose squares overflow.
        rng = random.Random(47)
        finite = 0
        for _ in range(300):
            deltas, splits = _random_node(rng)
            pool = rng.sample(deltas, min(len(deltas), 4)) + [0.0, -0.0]
            pool += rng.choice([[], [], [math.nan], [1e200, -1e200]])
            targets = [rng.choice(pool) for _ in deltas]
            values, ids = _target_classes(targets)
            squares = [v * v for v in values]
            for classes in (None, _classes(splits)):
                got = _floors(ids, values, squares, splits, classes)
                assert repr(got) == repr(_floors(*_own(targets), splits, classes))
                finite += sum(floor > -math.inf for floor, _ in got)
            assert repr(_leaf_floor(ids, values, squares)) == repr(_leaf_floor(*_own(targets)))
        assert finite > 1000

    def test_a_signed_zero_and_a_nan_are_classes_of_their_own(self):
        nan = float("nan")
        values, ids = _target_classes([0.0, -0.0, 0.0, nan, math.nan, nan, -0.0])
        assert ids == [0, 1, 0, 2, 3, 2, 1]
        assert [math.copysign(1, v) for v in values[:2]] == [1, -1]
        assert values[2] is nan and values[3] is math.nan

    @pytest.mark.parametrize("seed", range(12))
    def test_fits_with_both_zeros_match_the_exhaustive_fit(self, seed):
        kb, queries, gradients, max_leaves, settings, shared = _random_fit_case(seed)
        rng = random.Random(seed)
        gradients = [rng.choice([0.0, -0.0, g, g]) for g in gradients]
        assert {_bits(0.0), _bits(-0.0)} <= set(map(_bits, gradients))
        earlier = [gradients[::-1]] if shared else ()
        _assert_fit_matches_exhaustive(
            queries, gradients, max_leaves, MOVIE_MODES, kb, earlier, **settings
        )

    def test_a_signed_zero_mean_is_fit_as_its_own(self, monkeypatch):
        # -5e-324 / 2 rounds to -0.0: the mean is summed from the targets
        # themselves, and a -0.0 mean is fit under its own key.
        modes, kb, queries, _ = _separable_domain()
        means = _counted_fits(monkeypatch)
        tree = fit_regression_tree(queries[:2], [-5e-324, 0.0], 1, modes, kb)
        assert means == [(-0.0).hex()]
        assert tree.root.params == coordinate_descent(-0.0)


class TestRootFit:
    """A root is fit only when it stays a leaf, or when the floor under its
    error does not show that it is worth splitting."""

    def _assert_one_fit_leaf(self, tree, gradients, means):
        assert isinstance(tree.root, LeafNode)
        assert means == [_mean(gradients).hex()]
        assert tree.root.params == coordinate_descent(_mean(gradients))

    @pytest.mark.parametrize("max_leaves, max_depth", [(1, None), (4, 0), (1, 0)])
    def test_a_capped_root_is_fit_once(self, monkeypatch, max_leaves, max_depth):
        modes, kb, queries, gradients = _separable_domain()
        means = _counted_fits(monkeypatch)
        tree = fit_regression_tree(queries, gradients, max_leaves, modes, kb, max_depth=max_depth)
        self._assert_one_fit_leaf(tree, gradients, means)

    def test_a_root_with_no_two_sided_split_is_fit_once(self, monkeypatch):
        # Both people act in the same movies: no candidate splits them.
        kb = example1_kb()
        p1, p2 = C("p1", "person"), C("p2", "person")
        queries = [atom(COLLAB, p1, p2), atom(COLLAB, p2, p1)]
        gradients = [0.5, -0.25]
        assert _leaf_floor(*_own(gradients)) > 1e-12
        means = _counted_fits(monkeypatch)
        tree = fit_regression_tree(queries, gradients, 4, MOVIE_MODES, kb)
        self._assert_one_fit_leaf(tree, gradients, means)

    @pytest.mark.parametrize("value", [0.0, 1e-7])
    def test_a_root_with_near_zero_error_is_fit_once(self, monkeypatch, value):
        modes, kb, queries, _ = _separable_domain()
        gradients = [value] * len(queries)
        means = _counted_fits(monkeypatch)
        tree = fit_regression_tree(queries, gradients, 4, modes, kb)
        self._assert_one_fit_leaf(tree, gradients, means)

    def test_one_example_is_fit_once(self, monkeypatch):
        modes, kb, queries, gradients = _separable_domain()
        means = _counted_fits(monkeypatch)
        tree = fit_regression_tree(queries[:1], gradients[:1], 4, modes, kb)
        self._assert_one_fit_leaf(tree, gradients[:1], means)

    def test_a_root_that_splits_is_never_fit(self, monkeypatch):
        modes, kb, queries, gradients = _separable_domain()
        rng = random.Random(5)
        noisy = [g + rng.uniform(-0.1, 0.1) for g in gradients]
        means = _counted_fits(monkeypatch)
        fits = _fits_from_one_root(queries, [noisy, gradients], 3, modes, kb)
        assert len(means) == len(set(means)) > 0
        for (tree, _), targets in zip(fits, [noisy, gradients]):
            assert isinstance(tree.root, InternalNode)
            assert _mean(targets).hex() not in means
        monkeypatch.undo()
        for earlier, targets in (((), noisy), ((noisy,), gradients)):
            _assert_fit_matches_exhaustive(queries, targets, 3, modes, kb, earlier)


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
    queries = [atom(target, C(f"x{i}", "thing")) for i in range(10)]
    gradients = [0.5 if f"x{i}" in goods else -0.5 for i in range(10)]
    return modes, kb, queries, gradients


class TestFitRegressionTree:
    def test_single_leaf_fits_the_mean(self):
        modes, kb, queries, gradients = _separable_domain()
        tree = fit_regression_tree(queries, gradients, 1, modes, kb)
        assert tree.leaf_count == 1
        mean = sum(gradients) / len(gradients)
        (value,) = oracle_per_tree([tree], queries[0], kb)
        assert abs(value - mean) < 1e-3

    def test_perfect_separator_becomes_the_root(self):
        modes, kb, queries, gradients = _separable_domain()
        tree = fit_regression_tree(queries, gradients, 2, modes, kb)
        assert isinstance(tree.root, InternalNode)
        assert str(tree.root.test) == "good(T1)"
        for query, gradient in zip(queries, gradients):
            (value,) = oracle_per_tree([tree], query, kb)
            assert abs(value - gradient) < 1e-3

    def test_leaf_cap_is_respected(self):
        modes, kb, queries, gradients = _separable_domain()
        rng = random.Random(1)
        noisy = [g + rng.uniform(-0.2, 0.2) for g in gradients]
        for cap in (1, 2, 3, 4):
            tree = fit_regression_tree(queries, noisy, cap, modes, kb)
            assert 1 <= tree.leaf_count <= cap

    def test_committed_split_never_hurts_sse(self):
        modes, kb, queries, _ = _separable_domain()
        rng = random.Random(3)
        noisy = [rng.uniform(-0.9, 0.9) for _ in queries]
        single = fit_regression_tree(queries, noisy, 1, modes, kb)
        split = fit_regression_tree(queries, noisy, 2, modes, kb)
        sse_single = sum(
            (oracle_per_tree([single], q, kb)[0] - g) ** 2 for q, g in zip(queries, noisy)
        )
        sse_split = sum(
            (oracle_per_tree([split], q, kb)[0] - g) ** 2 for q, g in zip(queries, noisy)
        )
        assert sse_split <= sse_single + 1e-5

    def test_deterministic_given_identical_inputs(self):
        modes, kb, queries, _ = _separable_domain()
        rng = random.Random(12)
        noisy = [rng.uniform(-0.9, 0.9) for _ in queries]
        t1 = fit_regression_tree(queries, noisy, 4, modes, kb)
        t2 = fit_regression_tree(queries, noisy, 4, modes, kb)
        assert t1.to_text() == t2.to_text()

    def test_max_depth_limits_growth(self):
        modes, kb, queries, _ = _separable_domain()
        rng = random.Random(4)
        noisy = [rng.uniform(-0.9, 0.9) for _ in queries]
        tree = fit_regression_tree(queries, noisy, 64, modes, kb, max_depth=2)
        assert tree.depth <= 2

    def test_empty_examples_are_an_error(self):
        modes, kb, queries, gradients = _separable_domain()
        with pytest.raises(ValueError):
            fit_regression_tree([], [], 4, modes, kb)
        with pytest.raises(ValueError, match="10 queries but 9 gradients"):
            fit_regression_tree(queries, gradients[1:], 4, modes, kb)

    @pytest.mark.parametrize("setting, value", [
        ("max_new_vars", -1),  # unchecked: a one-leaf tree
        ("max_depth", -1),  # unchecked: a one-leaf tree
        ("cd_max_iters", -3),  # unchecked: four leaves, every value 0.0
        ("cd_max_iters", -1),
    ])
    def test_a_negative_setting_is_an_error(self, setting, value):
        kb, examples, _ = generate_movie_domain(seed=11, n_pairs=60)
        labeled = examples.labeled()
        queries, gradients = [q for q, _ in labeled], [label - 0.5 for _, label in labeled]
        with pytest.raises(ValueError, match=f"^{setting} must be non-negative, got {value}$"):
            fit_regression_tree(queries, gradients, 4, kb.modes, kb, **{setting: value})
        fit_regression_tree(queries, gradients, 4, kb.modes, kb, **{setting: 0})  # zero is allowed

    def test_a_nan_learning_rate_is_an_error(self):
        # Unchecked, every leaf of this fit was 0.0.
        kb, examples, _ = generate_movie_domain(seed=11, n_pairs=60)
        labeled = examples.labeled()
        queries, gradients = [q for q, _ in labeled], [label - 0.5 for _, label in labeled]
        with pytest.raises(ValueError, match="learning rate must be positive"):
            fit_regression_tree(queries, gradients, 4, kb.modes, kb, learning_rate=math.nan)

    def test_a_fit_and_a_batch_walk_leave_no_garbage_cycle(self, movie_domain):
        """A deep fit, its tree's depth and text, a batch walk of it, and a
        training run whose root plan holds plans across trees, are freed by
        reference counting alone, so none leaves the cyclic collector
        anything."""
        kb, examples, _ = movie_domain
        labeled = examples.labeled()[:200]
        queries = [q for q, _ in labeled]
        gradients = [0.3 if y else -0.2 for _, y in labeled]
        gc.collect()
        gc.disable()
        try:
            tree = fit_regression_tree(queries, gradients, 64, MOVIE_MODES, kb, max_depth=10)
            assert gc.collect() == 0
            assert tree.leaf_count > 8
            assert tree.depth > 3
            assert gc.collect() == 0
            assert tree.to_text().count("leaf value=") == tree.leaf_count
            assert gc.collect() == 0
            trie = RoutingTrie([clause for clause, _ in tree.path_clauses()])
            fired = trie.walk_many(queries, kb)
            assert all(len(ids) == 1 for ids in fired)
            assert gc.collect() == 0
            model = train(kb, examples, TrainConfig(n_trees=3))
            assert len(model.trees) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()


def _random_fit_case(seed):
    """A random movie domain, queries with their regression targets, and fit
    settings."""
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
    queries, gradients = [], []
    for _ in range(rng.randint(8, 30)):
        a, b = rng.sample(people, 2)
        queries.append(atom(COLLAB, C(a, "person"), C(b, "person")))
        gradients.append(rng.choice(levels) if levels else rng.uniform(-scale, scale))
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
    return kb, queries, gradients, rng.randint(2, 8), settings, rng.random() < 0.5


def _fits_from_one_root(
    queries, gradient_lists, max_leaves, modes, kb, *, owned=False, max_new_vars=1,
    learning_rate=0.05, cd_max_iters=500, cd_tolerance=1e-8, max_depth=None,
):
    """One fit per gradient list, each grown from one root plan with
    ``fit_regression_tree``'s settings, as ``train`` grows its trees: each
    fit's (tree, fitted values).  An ``owned`` root, fit once, is fit as
    ``fit_regression_tree`` fits it."""
    root = _root_plan(queries, modes, max_new_vars)
    return [
        _grown(
            root, list(gradients), max_leaves, kb, owned=owned, learning_rate=learning_rate,
            cd_max_iters=cd_max_iters, cd_tolerance=cd_tolerance, max_depth=max_depth,
        )
        for gradients in gradient_lists
    ]


def _grown(root, gradients, *args, **kwargs):
    """``_grow``'s tree, fit to ``gradients`` through their target classes,
    and each query's leaf value by position, read off the leaf numbers it
    reports; those number the leaves in path order."""
    tree, leaves, values = _grow(root, *_target_classes(gradients), *args, **kwargs)
    assert values == [leaf.params.value() for _, leaf in tree.paths()]
    assert all(type(leaf) is int for leaf in leaves)
    return tree, [values[leaf] for leaf in leaves]


def _assert_fit_matches_exhaustive(
    queries, gradients, max_leaves, modes, kb, earlier=(), **settings
):
    """The fit of ``gradients`` equals the exhaustive reference, tree and
    fitted values: by ``fit_regression_tree``, or, given ``earlier``
    gradient lists, grown after their fits from the same root plan."""
    fits = _fits_from_one_root(
        queries, [*earlier, gradients], max_leaves, modes, kb, owned=not earlier, **settings
    )
    tree, fitted = fits[-1]
    reference, reference_fitted = exhaustive_fit_tree(
        queries, gradients, max_leaves, modes, kb, **settings
    )
    assert tree.to_text() == reference.to_text()
    assert fitted == reference_fitted
    if not earlier:
        fit = fit_regression_tree(queries, gradients, max_leaves, modes, kb, **settings)
        assert fit.to_text() == reference.to_text()
    return tree


class TestPrunedFitMatchesExhaustive:
    @pytest.mark.parametrize("seed", range(48))
    def test_random_domains(self, seed):
        kb, queries, gradients, max_leaves, settings, shared = _random_fit_case(seed)
        # on half the domains an earlier fit from the root has built plans
        earlier = [[-g for g in gradients]] if shared else ()
        _assert_fit_matches_exhaustive(
            queries, gradients, max_leaves, MOVIE_MODES, kb, earlier, **settings
        )

    def _two_test_domain(self, a_things, b_things, targets):
        modes = parse_modes("mode: a(+thing).\nmode: b(+thing).\nmode: t(-thing).")
        facts = [f"a(x{i})." for i in a_things] + [f"b(x{i})." for i in b_things]
        kb = parse_facts("\n".join(facts), modes)
        target = modes["t"].predicate
        queries = [atom(target, C(f"x{i}", "thing")) for i in range(1, len(targets) + 1)]
        return modes, kb, queries, list(targets)

    def test_first_of_two_equal_splits_wins(self):
        # a(T1) and b(T1) hold for the same things, so they score the same
        modes, kb, queries, gradients = self._two_test_domain(
            (1, 2), (1, 2), [0.5, 0.4, -0.3, -0.5, -0.45]
        )
        tree = _assert_fit_matches_exhaustive(queries, gradients, 2, modes, kb)
        assert str(tree.root.test) == "a(T1)"

    def test_leaf_fits_not_mean_errors_rank_the_splits(self):
        # Three cycles leave these leaves far from their means: a(T1) has the
        # lower mean error (119.2 against 120.8) but b(T1) the lower score
        # (159.5 against 161.9), so the bound may skip nothing here.
        modes, kb, queries, gradients = self._two_test_domain(
            (1,), (2, 5), [-4.3, 7.1, 5.9, 6.4, 7.8, -5.3]
        )
        tree = _assert_fit_matches_exhaustive(queries, gradients, 2, modes, kb, cd_max_iters=3)
        assert str(tree.root.test) == "b(T1)"

    @pytest.mark.parametrize("seed", range(24))
    def test_duplicate_selectors_and_dyadic_ties(self, seed):
        # b copies a on even seeds and s(Y, X) mirrors r(X, Y), so several
        # candidates make one split; dyadic targets sum exactly, and at
        # cd_max_iters=0 every leaf value is 0 and every split scores the
        # same sum of squares, so the lowest index must win whatever the
        # floors rank first.
        rng = random.Random(seed)
        modes = parse_modes(
            "mode: a(+thing).\nmode: b(+thing).\nmode: r(+thing, -thing).\n"
            "mode: s(-thing, +thing).\nmode: t(-thing)."
        )
        things = [f"x{i}" for i in range(rng.randint(6, 14))]
        a_facts = [x for x in things if rng.random() < 0.5]
        b_facts = a_facts if seed % 2 == 0 else [x for x in things if rng.random() < 0.5]
        pairs = [(x, y) for x in things for y in things if rng.random() < 0.15]
        facts = [f"a({x})." for x in a_facts] + [f"b({x})." for x in b_facts]
        facts += [f"r({x}, {y}).\ns({y}, {x})." for x, y in pairs]
        kb = parse_facts("\n".join(facts), modes)
        target = modes["t"].predicate
        queries = [atom(target, C(x, "thing")) for x in things]
        gradients = [rng.choice([-0.75, -0.5, 0.25, 0.5]) for _ in things]
        settings = {"cd_max_iters": seed % 3 and 500, "max_new_vars": rng.randint(0, 1)}
        _assert_fit_matches_exhaustive(
            queries, gradients, rng.randint(2, 6), modes, kb, **settings
        )

    def test_a_tie_goes_to_the_lower_index_that_ranks_later(self):
        # At cd_max_iters=0 both splits score 1.0, the sum of the squared
        # targets; b(T1) splits the targets by sign and ranks first by
        # floor, but a(T1) comes first among the candidates and must win.
        modes, kb, queries, gradients = self._two_test_domain(
            (1,), (1, 2), [0.5, 0.5, -0.5, -0.5]
        )
        a_floor, b_floor = _floor(gradients, [1, 0, 0, 0]), _floor(gradients, [1, 1, 0, 0])
        assert b_floor < a_floor < 1.0
        tree = _assert_fit_matches_exhaustive(queries, gradients, 2, modes, kb, cd_max_iters=0)
        assert str(tree.root.test) == "a(T1)"

    def test_a_split_within_rounding_of_the_best_is_fit(self):
        # Both splits put the targets -0.19, 0.78, 0.1 on each side, a(T1) in
        # another order on its true side.  At this rate the leaf fits land
        # within rounding of the mean, and b(T1) scores 1.1e-16 below
        # a(T1) although its two-pass mean error is 3.3e-16 above a(T1)'s
        # score: it must be fit, not skipped, to win.
        p, q, r = -0.19, 0.78, 0.1
        modes, kb, queries, gradients = self._two_test_domain(
            (2, 3, 4), (1, 2, 3), [p, q, r, p, q, r]
        )
        bound_b = 2 * _mean_sse([p, q, r])
        score_a = _leaf_sse([q, r, p], learning_rate=0.5) + _leaf_sse([p, q, r], learning_rate=0.5)
        score_b = 2 * _leaf_sse([p, q, r], learning_rate=0.5)
        assert score_b < score_a < bound_b
        tree = _assert_fit_matches_exhaustive(queries, gradients, 2, modes, kb, learning_rate=0.5)
        assert str(tree.root.test) == "b(T1)"


def _one_tree_model(tree):
    """A model of ``tree`` alone, whose ``per_tree`` routes a query as the
    program routes it."""
    return BoostedModel(tree.target, tree.head, 0.0, [tree], TrainConfig())


class TestCoverageTable:
    """Fit plans: the rows they carry, the values they fit, and their reuse
    by fits grown from one root plan, as ``train`` grows its trees."""

    def test_each_item_carries_every_witness_of_its_node_context(self, movie_domain, monkeypatch):
        # Every item that partition reads carries as rows every witness of
        # the node's context from its head unifier, in search order, so a
        # true child's join gave those of the extended context.  The fit
        # itself searches nothing: with the one search primitive refusing
        # every call, it still fits the exhaustive reference's tree.
        import liftedrbm.logic as logic_module
        import liftedrbm.tree as tree_module

        kb, examples, _ = movie_domain
        rng = random.Random(11)
        queries = [q for q, _ in examples.labeled()]
        gradients = [rng.uniform(-0.9, 0.9) for _ in queries]
        head = make_head(queries[0].predicate)
        nodes, joins, several, expanding, false_plans = [], [], [], [], []
        partition, join, expand = tree_module.partition, tree_module.join, tree_module._Plan.expand

        def expanded(plan, *args):
            # a false child is made with no test to join
            if plan.parent is not None and plan.parent[0] is None:
                made = len(nodes), len(joins)
                expand(plan, *args)
                assert (len(nodes), len(joins)) == made  # it decides and joins nothing
                false_plans.append(plan)
            else:
                expanding.append(plan)
                expand(plan, *args)

        def candidate_split(columns, values, items, width):
            if not nodes or nodes[-1] is not items:  # a node's candidates come together
                nodes.append(items)
                context, bound_vars = expanding[-1].context, expanding[-1].bound_vars
                assert width == len(head.args) and bound_vars[:width] == head.args
                for position, rows in items:
                    found = witnesses(context, unify(head, queries[position]), kb)
                    assert rows == tuple(_names(w, bound_vars) for w in found)
                    several.append(len(rows) > 1)
            split = partition(columns, values, items, width)
            assert split == scan_partition(columns, values, items)
            return split

        def extended(*args):
            joins.append(join(*args))
            return joins[-1]

        monkeypatch.setattr(tree_module, "partition", candidate_split)
        monkeypatch.setattr(tree_module, "join", extended)
        monkeypatch.setattr(tree_module._Plan, "expand", expanded)
        tree = fit_regression_tree(queries, gradients, 8, MOVIE_MODES, kb)
        # the nodes that decide, the root and the true children; each false
        # child keeps its parent's decisions on its side
        assert len(nodes) == len(expanding) == 3 and len(false_plans) == 4 and any(several)
        # each join's rows were read, and checked, at the child it extended
        assert joins and all(any(items is rows for items in nodes) for rows in joins)
        reference, _ = exhaustive_fit_tree(queries, gradients, 8, MOVIE_MODES, kb)
        assert tree.to_text() == reference.to_text()

        def refused(*args, **kwargs):
            raise AssertionError("the fit searched")

        monkeypatch.setattr(tree_module, "partition", partition)
        monkeypatch.setattr(tree_module, "join", join)
        monkeypatch.setattr(tree_module._Plan, "expand", expand)
        monkeypatch.setattr(logic_module, "iter_matches", refused)
        with pytest.raises(AssertionError):
            route_decision((), reference.root.test.atom, {}, {}, kb)
        refit = fit_regression_tree(queries, gradients, 8, MOVIE_MODES, kb)
        assert refit.to_text() == tree.to_text()

    def test_fitted_values_are_the_routed_leaf_values(self, movie_domain):
        kb, examples, _ = movie_domain
        rng = random.Random(3)
        queries = [q for q, _ in examples.labeled()]
        gradients = [rng.uniform(-0.9, 0.9) for _ in queries]
        ((tree, fitted),) = _fits_from_one_root(queries, [gradients], 6, MOVIE_MODES, kb, owned=True)
        model = _one_tree_model(tree)
        assert fitted == [model.per_tree(q, kb)[0] for q in queries]

    def test_one_root_reuses_its_plans_and_fits_as_fresh_roots(self, movie_domain, monkeypatch):
        """Fits over the same examples with new gradients give, grown from
        one root plan, the trees and fitted floats of fresh roots; a plan an
        earlier fit expanded generates, partitions and joins nothing again,
        so a fit with an earlier fit's gradients calls none of them.  The
        candidates of a tuple of bound variables are generated once per
        root, and an expansion partitions every candidate that neither
        restates its context nor keeps its parent's selector (a false child
        keeps all of them, a true child those :func:`_inherits` names), each
        selector the plan holds being what a fresh partition gives; only a
        true child joins.  A tree of L leaves has L - 1 child pairs, so
        a fit that makes fewer than 2 * L - 2 plans reached a node below the
        root that an earlier fit made, which no fit from a fresh root does."""
        import liftedrbm.tree as tree_module

        kb, examples, _ = movie_domain
        queries = [q for q, _ in examples.labeled()]
        calls = {}
        for name in ("partition", "generate_candidates", "join"):
            def counted(*args, _name=name, _original=getattr(tree_module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(tree_module, name, counted)
        rng = random.Random(19)
        root = _root_plan(queries, MOVIE_MODES, 1)
        settings = {"learning_rate": 0.05, "cd_max_iters": 500, "cd_tolerance": 1e-8}
        reused = fresh_reused = inherited = 0
        for fit in range(6):
            if fit != 3:  # the fourth fit repeats the third's gradients
                gradients = [rng.uniform(-0.9, 0.9) for _ in queries]
            fresh_root = _root_plan(queries, MOVIE_MODES, 1)
            fresh, fresh_fitted = _grown(fresh_root, gradients, 6, kb, owned=False, **settings)
            before = {plan: plan.splits is not None for plan, _ in _plans(root.plan)}
            compiled = len(root.compiled)
            calls.clear()
            shared, shared_fitted = _grown(root, gradients, 6, kb, owned=False, **settings)
            assert shared.to_text() == fresh.to_text()
            assert [v.hex() for v in shared_fitted] == [v.hex() for v in fresh_fitted]
            after = list(_plans(root.plan))
            new = [
                (plan, kind) for plan, kind in after
                if plan.splits is not None and not before.get(plan)
            ]
            parents = _true_parents(root.plan)
            decided = [
                (plan, kind, candidate) for plan, kind in new
                for candidate in plan.compiled.candidates
                if not _restates(*candidate, plan.context)
            ]
            kept = sum(
                kind == "false" or _inherits(plan, candidate, parents, 2)
                for plan, kind, candidate in decided
            )
            assert all(plan.compiled is root.compiled[plan.bound_vars] for plan, _ in new)
            assert calls.get("generate_candidates", 0) == len(root.compiled) - compiled
            assert calls.get("partition", 0) == len(decided) - kept
            for plan, _ in new:
                assert plan.selectors == {
                    j: atom_partition(
                        _atom(*each, plan.used_names), plan.bound_vars, plan.items, kb, 2
                    )
                    for j, each in enumerate(plan.compiled.candidates)
                    if not _restates(*each, plan.context)
                }
            assert calls.get("join", 0) == sum(kind == "true" for _, kind in new)
            if fit == 3:
                assert calls == {}
            pairs = 2 * shared.leaf_count - 2
            reused += sum(plan not in before for plan, _ in after) < pairs
            fresh_reused += len(list(_plans(fresh_root.plan))) - 1 < pairs
            inherited += kept
        assert reused >= 2  # later fits reached child plans an earlier fit made
        assert fresh_reused == 0
        assert inherited >= 20

    def test_one_train_resolves_its_root_plan_once(self, movie_domain, monkeypatch):
        # train checks the examples and makes their root rows once, and
        # grows every tree from that one root plan.
        import liftedrbm.model as model_module

        kb, examples, _ = movie_domain
        roots, grown = [], []

        def resolved(queries, *args):
            roots.append((list(queries), _root_plan(queries, *args)))
            return roots[-1][1]

        def grow(root, *args, **kwargs):
            grown.append(root)
            return _grow(root, *args, **kwargs)

        monkeypatch.setattr(model_module, "_root_plan", resolved)
        monkeypatch.setattr(model_module, "_grow", grow)
        model = train(kb, examples, TrainConfig(n_trees=3))
        assert len(model.trees) == 3
        ((queries, root),) = roots
        assert queries == [query for query, _ in examples.labeled()]
        assert len(grown) == 3 and all(each is root for each in grown)

    def test_a_query_given_twice_keeps_both_copies_on_one_side(self):
        # Copies of a query, as the same object and as an equal one, with
        # their own targets: each copy is an item of its own, both go to the
        # side their equal rows say, and the sums are the reference's.
        split = 0
        for seed in range(8):
            kb, queries, gradients, max_leaves, settings, _ = _random_fit_case(seed)
            rng = random.Random(seed)
            copies = []
            for position in rng.sample(range(len(queries)), 4):
                query = queries[position]
                if rng.random() < 0.5:
                    query = Atom(query.predicate, query.args)
                copies.append(position)
                queries.append(query)
                gradients.append(rng.uniform(-0.9, 0.9))
            # a second fit from the first's root reads its plans
            tree = _assert_fit_matches_exhaustive(
                queries, gradients, max_leaves, MOVIE_MODES, kb, [gradients], **settings
            )
            ((_, fitted),) = _fits_from_one_root(
                queries, [gradients], max_leaves, MOVIE_MODES, kb, owned=True, **settings
            )
            for copy, position in enumerate(copies, start=len(queries) - len(copies)):
                assert fitted[copy] == fitted[position]
            split += tree.leaf_count > 1
        assert split >= 4


class TestFalseChildDerivation:
    """A false child is made with its items on its side and no test to
    join, and expanded as any plan is.  It must then hold its parent's
    compiled candidates, which are what generating from scratch gives on its
    plan, having called neither partition nor join; and its selectors and
    splits must be what partitioning each candidate, named under its used
    names, gives."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_false_children_match_a_fresh_expansion(self, shared, monkeypatch):
        import liftedrbm.tree as tree_module

        head = make_head(COLLAB)
        parents, roots, checked, nested, two_sided, renamed = {}, {}, [], 0, 0, 0
        origin = {}  # id of a candidate list -> (the list, its generating plan's used names)
        settings = {}
        child, expand, name_atom, namings = (
            tree_module._Plan.child, tree_module._Plan.expand, tree_module._atom, []
        )
        scans = {"partition": 0, "join": 0}
        for name in scans:
            def counted_scan(*args, _name=name, _original=getattr(tree_module, name)):
                scans[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tree_module, name, counted_scan)

        def counted(*args):
            namings.append(args)
            return name_atom(*args)

        def made(plan, k):
            before, new = len(namings), k not in plan.children
            children = child(plan, k)
            if new:
                assert len(namings) - before == 1  # the winner alone is named
                parents[children[1]] = plan
            return children

        def derived(plan, root, kb):
            nonlocal nested, two_sided, renamed
            roots[plan] = root
            parent = parents.get(plan)
            if parent is None:  # a root or a true child
                return expand(plan, root, kb)
            before = dict(scans)
            expand(plan, root, kb)
            assert scans == before  # it decides and joins nothing
            nested += parent in parents
            candidates = generate_candidates(
                plan.bound_vars, MOVIE_MODES, settings["max_new_vars"], (COLLAB.name,),
            )
            assert plan.compiled is parent.compiled
            assert plan.compiled.candidates == candidates
            # the names the plan that generated the list would give
            compiled = parent.compiled
            _, generated = origin.setdefault(id(compiled), (compiled, parent.used_names))
            for predicate, slots in candidates:
                named = name_atom(predicate, slots, plan.used_names)
                renamed += str(named) != str(name_atom(predicate, slots, generated))
            # every item carries every witness of the context, as its parent's
            for position, rows in plan.items:
                found = witnesses(plan.context, unify(head, queries[position]), kb)
                assert rows == tuple(_names(w, plan.bound_vars) for w in found)
            firsts, selectors = {}, {}
            for j, (predicate, slots) in enumerate(candidates):
                named = name_atom(predicate, slots, plan.used_names)
                if atom_restates(named, set(plan.bound_vars), plan.context):
                    continue
                split = selectors[j] = atom_partition(
                    named, plan.bound_vars, plan.items, kb, COLLAB.arity
                )
                if 0 in split and 1 in split:
                    firsts.setdefault(split, j)
            want = {j: split for split, j in firsts.items()}
            assert plan.selectors == selectors
            assert plan.splits == want
            checked.append(plan)
            two_sided += bool(want)

        monkeypatch.setattr(tree_module._Plan, "child", made)
        monkeypatch.setattr(tree_module._Plan, "expand", derived)
        monkeypatch.setattr(tree_module, "_atom", counted)
        for seed in range(48):
            kb, queries, gradients, max_leaves, settings, _ = _random_fit_case(seed)
            if shared:  # an earlier fit with other gradients, from the same root plan
                _fits_from_one_root(
                    queries, [gradients[::-1], gradients], max_leaves, MOVIE_MODES, kb, **settings
                )
            else:
                fit_regression_tree(queries, gradients, max_leaves, MOVIE_MODES, kb, **settings)
            # a false child no fit reached is expanded here, from its root
            for plan, parent in list(parents.items()):
                if plan not in roots:
                    derived(plan, roots[parent], kb)
        assert len(checked) >= 100 and nested >= 40 and two_sided >= 80 and renamed >= 300

    def test_a_candidate_that_restates_the_context_holds_everywhere(self):
        # Every candidate the skip rule names holds on every witness of the
        # context, so its split is all-true and one-sided; the rule on slots
        # is the rule on the named atom.  A test with a constant or a fresh
        # variable twice is no candidate.
        rng = random.Random(31)
        named = renamed = 0
        for _ in range(1500):
            kb, context, bases, tests = _random_context_case(rng)
            bound = set(v for a in context for v in a.variables())
            for test in tests:
                free = [t for t in test.args if t.is_variable and t not in bound]
                if not all(t.is_variable for t in test.args) or len(set(free)) < len(free):
                    continue
                slots = tuple(_FRESH if t in free else t for t in test.args)
                restated = _restates(test.predicate, slots, context)
                assert restated == atom_restates(test, bound, context)
                if not restated:
                    continue
                named += 1
                renamed += bool(free)
                for base in bases:
                    for witness in oracle_witnesses(context, base, kb):
                        assert oracle_satisfy([Literal(test)], witness, kb), (
                            f"context={[str(a) for a in context]} test={test}"
                        )
        assert named >= 3000 and renamed >= 2000

    def test_a_fresh_slot_matches_any_argument_and_a_bound_slot_its_own(self):
        r = Predicate("r", ("t", "t"))
        a, b = V("A", "t"), V("B", "t")
        assert _restates(r, (_FRESH, _FRESH), (Atom(r, (a, b)),))
        assert _restates(r, (_FRESH, b), (Atom(r, (a, b)),))
        assert not _restates(r, (b, _FRESH), (Atom(r, (a, b)),))
        assert not _restates(r, (_FRESH, b), (Atom(r, (a, C("c", "t"))),))


class TestSlotCandidates:
    """A candidate is a predicate and its slots until it wins: what an
    expansion decides from the slots must be what the atom :func:`_atom`
    names for the candidate, under the plan's used names, gives."""

    def test_slot_decisions_are_the_named_atoms(self, monkeypatch):
        import liftedrbm.tree as tree_module

        expand, scan, selectors = tree_module._Plan.expand, tree_module.partition, []
        counts = dict.fromkeys(
            ("decided", "restated", "two_sided", "bound_twice", "fresh", "inherited"), 0
        )

        def recorded(*args):
            selectors.append(scan(*args))
            return selectors[-1]

        def checked(plan, root, kb):
            selectors.clear()
            expand(plan, root, kb)
            found = iter(selectors)
            bound = set(plan.bound_vars)
            for j, (predicate, slots) in enumerate(plan.compiled.candidates):
                named = _atom(predicate, slots, plan.used_names)
                restated = _restates(predicate, slots, plan.context)
                assert restated == atom_restates(named, bound, plan.context), str(named)
                if restated:
                    counts["restated"] += 1
                    assert j not in plan.selectors
                    continue
                # an expanded plan has two items or more, so a decided
                # selector is no cached one-byte object
                selector = plan.selectors[j]
                if any(selector is each for each in selectors):
                    assert selector is next(found)  # decided here, in candidate order
                else:
                    counts["inherited"] += 1  # its parent's, on its side
                assert selector == atom_partition(
                    named, plan.bound_vars, plan.items, kb, len(root.head.args)
                )
                counts["decided"] += 1
                counts["two_sided"] += 0 in selector and 1 in selector
                taken = [slot for slot in slots if slot is not _FRESH]
                counts["bound_twice"] += len(set(taken)) < len(taken)
                counts["fresh"] += len(taken) < len(slots)
            assert next(found, None) is None  # one selector per decided candidate

        monkeypatch.setattr(tree_module, "partition", recorded)
        monkeypatch.setattr(tree_module._Plan, "expand", checked)
        for seed in range(48):
            kb, queries, gradients, max_leaves, settings, _ = _random_fit_case(seed)
            fit_regression_tree(queries, gradients, max_leaves, MOVIE_MODES, kb, **settings)
        assert counts["decided"] >= 1000 and counts["restated"] >= 100
        assert counts["two_sided"] >= 500 and counts["bound_twice"] >= 150
        assert counts["fresh"] >= 500 and counts["inherited"] >= 100


class TestInheritedSelectors:
    """A plan holds the selector of every candidate that does not restate
    its context: a root decides each afresh; a true child takes its
    parent's, on its side, for a candidate that reads only head columns, or
    for every parent candidate when its test reads only head columns; a
    false child takes all of its parent's, and decides and joins nothing.
    Each must be what a fresh partition of the plan's own items gives."""

    def test_every_selector_a_plan_holds_is_a_fresh_partition(self, monkeypatch):
        import liftedrbm.tree as tree_module

        expand, scan, join, fresh = (
            tree_module._Plan.expand, tree_module.partition, tree_module.join, []
        )
        # selectors decided afresh, taken by false children, and taken by
        # true children: under a test of head columns, one of which reads
        # more, or reading head columns alone
        counts = dict.fromkeys(("fresh", "false", "every", "every_reads_more", "head_only"), 0)
        joins = 0

        def check(plan, kb):
            bound, want = set(plan.bound_vars), {}
            for j, (predicate, slots) in enumerate(plan.compiled.candidates):
                named = _atom(predicate, slots, plan.used_names)
                if not atom_restates(named, bound, plan.context):
                    want[j] = atom_partition(named, plan.bound_vars, plan.items, kb, COLLAB.arity)
            assert plan.selectors == want

        def recorded(*args):
            fresh.append(scan(*args))
            return fresh[-1]

        def joined(*args):
            nonlocal joins
            joins += 1
            return join(*args)

        def expanded(plan, root, kb):
            parent, width, made = plan.parent, len(root.head.args), joins
            fresh.clear()
            expand(plan, root, kb)
            check(plan, kb)
            counts["fresh"] += len(fresh)
            if parent is not None and parent[0] is None:  # a false child
                assert not fresh and joins == made and plan.compiled is parent[1]
                counts["false"] += len(plan.selectors)
                return
            for j, selector in plan.selectors.items():
                # an expanded plan has two items or more, so a selector
                # decided here is no cached one-byte object
                if any(selector is each for each in fresh):
                    continue
                reads_head = all(c < width for c in plan.compiled.columns[j])
                every = parent[-1]
                counts["every" if every else "head_only"] += 1
                counts["every_reads_more"] += every and not reads_head
                assert reads_head or every

        monkeypatch.setattr(tree_module, "partition", recorded)
        monkeypatch.setattr(tree_module, "join", joined)
        monkeypatch.setattr(tree_module._Plan, "expand", expanded)
        for seed in range(40):
            kb, queries, gradients, _, settings, shared = _random_fit_case(seed)
            settings.update(max_new_vars=1 + seed % 2, max_depth=(2, 3, 6, None)[seed // 2 % 4])
            earlier = [gradients[::-1]] if shared else ()
            _assert_fit_matches_exhaustive(
                queries, gradients, 4 + seed % 9, MOVIE_MODES, kb, earlier, **settings
            )
        assert counts["fresh"] >= 1500 and counts["false"] >= 2000
        assert counts["every"] >= 2000 and counts["every_reads_more"] >= 300
        assert counts["head_only"] >= 150


def _plans(root):
    """Every plan under a root plan, each with its kind: "root", "true" or
    "false" child."""
    stack = [(root, "root")]
    while stack:
        plan, kind = stack.pop()
        yield plan, kind
        for true_plan, false_plan in plan.children.values():
            stack += [(true_plan, "true"), (false_plan, "false")]


def _true_parents(root):
    """Each true child plan under a root plan, to the plan it is a child of."""
    return {
        true_plan: plan for plan, _ in _plans(root) for true_plan, _ in plan.children.values()
    }


def _inherits(plan, candidate, parents, width):
    """Whether an expanded ``plan`` keeps its parent's selector of
    ``candidate``: it is a true child, the candidate is one of its parent's
    (it reads none of the test's fresh variables), and the candidate reads
    only head variables or the test reads no bound variable but the head's."""
    parent = parents.get(plan)
    if parent is None:
        return False
    _, slots = candidate
    if any(slot is not _FRESH and slot not in parent.bound_vars for slot in slots):
        return False
    head = parent.bound_vars[:width]
    reads_head = all(slot is _FRESH or slot in head for slot in slots)
    return reads_head or all(t in head or t not in parent.bound_vars for t in plan.context[-1].args)


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
    queries, gradients = [], []
    for _ in range(50):
        a, b = rng.sample(people, 2)
        queries.append(atom(COLLAB, C(a, "person"), C(b, "person")))
        gradients.append(rng.uniform(-0.9, 0.9))
    tree = fit_regression_tree(queries, gradients, 4, MOVIE_MODES, kb)
    return tree, queries, kb


class TestEvaluateTree:
    def test_zero_parameter_leaf_evaluates_to_zero(self):
        tree = fit_regression_tree(
            [atom(COLLAB, C("p1", "person"), C("p2", "person"))],
            [0.0],
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
        tree, queries, kb = _random_movie_tree_and_examples(seed=21)
        head = tree.head
        paths = list(tree.paths())
        assert len(paths) == tree.leaf_count
        model = _one_tree_model(tree)
        for query in queries:
            holding = [
                leaf
                for literals, leaf in paths
                if RoutingTrie([Clause(head, literals)]).walk(query, kb)
            ]
            assert len(holding) == 1
            (routed,) = model.per_tree(query, kb)
            assert routed == pytest.approx(holding[0].params.value(), abs=1e-12)

    def test_path_count_and_structure(self):
        tree, _, kb = _random_movie_tree_and_examples(seed=2)
        for literals, _ in tree.paths():
            # negated literals only ever come from false branches of tests
            signs = [lit.negated for lit in literals]
            assert all(isinstance(s, bool) for s in signs)
