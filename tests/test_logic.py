"""Head matching, bindings, and satisfaction semantics."""

import gc
import itertools
import random

import pytest

from liftedrbm.logic import (
    Atom,
    KnowledgeBase,
    Literal,
    Predicate,
    SearchStats,
    _columns,
    partition,
    unify,
    witnesses,
)

from helpers import (
    ACTEDIN,
    COLLAB,
    DIRECTEDBY,
    C,
    V,
    atom,
    example1_kb,
    example2_kb,
    ground,
    oracle_route,
    oracle_witnesses,
    random_satisfaction_case,
    reference_satisfy,
    route_body,
    rule_clauses,
    scan_partition,
)


class TestConstruction:
    def test_arity_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            Atom(ACTEDIN, (C("p1", "person"),))

    def test_argument_type_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            atom(ACTEDIN, C("m1", "movie"), C("p1", "person"))

    def test_terms_compare_on_kind_name_and_type(self):
        assert V("X", "person") != C("X", "person")
        assert C("a", "person") != C("a", "movie")
        assert V("X", "person") == V("X", "person")


def _counting_registrations(kb: KnowledgeBase) -> dict[str, int]:
    """Count ``kb``'s calls of its two registration methods from now on."""
    calls = {"register_constant": 0, "register_predicate": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(kb, name)):
            calls[_name] += 1
            return _method(*args)

        setattr(kb, name, counted)
    return calls


class TestKnowledgeBaseAdd:
    """``add`` called directly, with terms and predicates it may or may not
    hold as the very objects."""

    def test_fresh_terms_register_each_constant_and_the_predicate_once(self):
        kb = KnowledgeBase()
        kb.add(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")))
        p1, m1 = kb.constant("p1"), kb.constant("m1")
        # an equal predicate and equal terms, as other objects
        other = Predicate("actedin", ("person", "movie"))
        kb.add(Atom(other, (C("p1", "person"), C("m2", "movie"))))
        kb.add(atom(ACTEDIN, C("p2", "person"), C("m1", "movie")))
        assert kb.predicates == {"actedin": ACTEDIN} and kb.predicates["actedin"] is ACTEDIN
        assert kb.universe("person") == (C("p1", "person"), C("p2", "person"))
        assert kb.universe("movie") == (C("m1", "movie"), C("m2", "movie"))
        assert kb.constant("p1") is p1 and kb.constant("m1") is m1
        assert kb.universe("person")[0] is p1
        assert len(kb) == 3

    def test_a_fact_of_the_bases_own_terms_registers_nothing(self):
        kb = KnowledgeBase()
        kb.add(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")))
        kb.add(atom(ACTEDIN, C("p2", "person"), C("m2", "movie")))
        calls = _counting_registrations(kb)
        kb.add(Atom(kb.predicates["actedin"], (kb.constant("p1"), kb.constant("m2"))))
        assert calls == {"register_constant": 0, "register_predicate": 0}
        assert atom(ACTEDIN, C("p1", "person"), C("m2", "movie")) in kb
        kb.add(atom(ACTEDIN, C("p3", "person"), kb.constant("m1")))
        assert calls == {"register_constant": 1, "register_predicate": 0}
        assert kb.universe("person")[-1] == C("p3", "person")

    def test_a_constant_met_at_a_second_type_is_refused(self):
        kb = KnowledgeBase()
        kb.add(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")))
        with pytest.raises(ValueError, match="constant p1 used with conflicting types person and"):
            kb.add(atom(DIRECTEDBY, C("p1", "movie"), C("p2", "person")))
        with pytest.raises(ValueError, match="constant m1 used with conflicting types movie and"):
            kb.add(atom(DIRECTEDBY, C("m2", "movie"), C("m1", "person")))
        assert kb.facts == (atom(ACTEDIN, C("p1", "person"), C("m1", "movie")),)
        assert kb.constant("p1").type_tag == "person"

    def test_a_predicate_met_at_other_types_is_refused(self):
        kb = KnowledgeBase()
        kb.add(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")))
        other = Predicate("actedin", ("movie", "person"))
        with pytest.raises(ValueError, match="conflicting signatures for predicate actedin"):
            kb.add(Atom(other, (C("m1", "movie"), C("p1", "person"))))
        assert len(kb) == 1

    def test_a_repeated_fact_changes_nothing(self):
        kb = KnowledgeBase()
        fact = atom(ACTEDIN, C("p1", "person"), C("m1", "movie"))
        kb.add(fact)
        kb.add(atom(ACTEDIN, C("p2", "person"), C("m1", "movie")))
        view = kb.projection("actedin", (0,))

        def state():
            return kb.facts, kb.universe("person"), kb.universe("movie"), dict(kb.predicates)

        before = state()
        for again in (fact, atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), kb.facts[1]):
            kb.add(again)
            assert state() == before
            assert kb.projection("actedin", (0,)) is view  # no new fact, so the views stay
        assert len(kb) == 2


class TestUnify:
    def test_query_against_head_binds_both_variables(self):
        # the walkthrough case: unifying the query with the clause head
        query = atom(COLLAB, C("p01", "person"), C("p02", "person"))
        head = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        result = unify(head, query)
        assert result is not None
        assert result.get(V("P1", "person")) == C("p01", "person")
        assert result.get(V("P2", "person")) == C("p02", "person")

    def test_identical_ground_atoms_unify_with_empty_substitution(self):
        a = atom(ACTEDIN, C("p1", "person"), C("m1", "movie"))
        result = unify(a, a)
        assert result is not None and len(result) == 0

    def test_constant_clash_fails(self):
        a = atom(ACTEDIN, C("p1", "person"), V("M", "movie"))
        b = atom(ACTEDIN, C("p2", "person"), C("m1", "movie"))
        assert unify(a, b) is None

    def test_predicate_clash_fails(self):
        a = atom(ACTEDIN, C("p1", "person"), C("m1", "movie"))
        b = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        assert unify(a, b) is None

    def test_a_non_ground_atom_matches_nothing(self):
        head = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        assert unify(head, atom(COLLAB, V("X", "person"), C("p2", "person"))) is None


def _random_atom(rng, pred, constants, variables, ground_bias):
    args = []
    for t in pred.arg_types:
        if rng.random() < ground_bias:
            args.append(rng.choice(constants[t]))
        else:
            args.append(rng.choice(variables[t]))
    return Atom(pred, tuple(args))


def _assignments(pattern, atom_, constants):
    """Every assignment of ``pattern``'s variables to constants of their
    types under which it grounds to ``atom_``: a brute-force oracle."""
    variables = list(dict.fromkeys(pattern.variables()))
    return [
        binding
        for values in itertools.product(*[constants[v.type_tag] for v in variables])
        for binding in [dict(zip(variables, values))]
        if ground(pattern, binding) == atom_
    ]


class TestUnifyProperties:
    """``unify(pattern, ground)`` is the one assignment of the pattern's
    variables that grounds it to the atom, and a non-ground atom matches
    nothing."""

    def test_soundness_on_random_pairs(self):
        rng = random.Random(11)
        preds = [Predicate("r", ("a", "b")), Predicate("s", ("a", "a", "b"))]
        constants = {t: [C(f"{t}{i}", t) for i in range(3)] for t in ("a", "b")}
        variables = {t: [V(f"{t.upper()}{i}", t) for i in range(3)] for t in ("a", "b")}
        successes = 0
        for _ in range(3000):
            pred = rng.choice(preds)
            pattern = _random_atom(rng, pred, constants, variables, 0.5)
            bias = 1.0 if rng.random() < 0.9 else 0.5  # some targets are not ground
            target = _random_atom(rng, pred, constants, variables, bias)
            result = unify(pattern, target)
            if not target.is_ground:
                assert result is None
                continue
            expected = _assignments(pattern, target, constants)
            assert len(expected) <= 1
            assert result == (expected[0] if expected else None)
            if result is not None:
                successes += 1
                assert ground(pattern, result) == target
                assert set(result) == set(pattern.variables())
        assert successes > 100  # the space is small enough for many successes

    def test_generality_on_enumerable_space(self):
        # every pattern against every atom over two constants and two variables
        pred = Predicate("r", ("a", "a"))
        constants = {"a": [C("a0", "a"), C("a1", "a")]}
        terms = constants["a"] + [V("X", "a"), V("Y", "a")]
        for args_a in itertools.product(terms, repeat=2):
            for args_b in itertools.product(terms, repeat=2):
                pattern, target = Atom(pred, args_a), Atom(pred, args_b)
                result = unify(pattern, target)
                if not target.is_ground:
                    assert result is None
                    continue
                expected = _assignments(pattern, target, constants)
                assert result == (expected[0] if expected else None), f"{pattern} vs {target}"


class TestApply:
    """``helpers.ground``, which the oracles use to apply a binding."""

    def test_single_binding(self):
        binding = {V("P1", "person"): C("p1", "person")}
        a = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        assert ground(a, binding) == atom(COLLAB, C("p1", "person"), V("P2", "person"))

    def test_identity(self):
        a = atom(ACTEDIN, C("p1", "person"), C("m1", "movie"))
        assert ground(a, {}) == a

    def test_full_grounding(self):
        binding = {V("M", "movie"): C("m1", "movie"), V("P2", "person"): C("p2", "person")}
        a = atom(ACTEDIN, V("P2", "person"), V("M", "movie"))
        assert ground(a, binding) == atom(ACTEDIN, C("p2", "person"), C("m1", "movie"))


def _collab_partial(kb, left, right):
    head = atom(COLLAB, V("P1", "person"), V("P2", "person"))
    query = atom(COLLAB, C(left, "person"), C(right, "person"))
    return unify(head, query)


def _first_witness(body, partial, kb, stats=None):
    return next(witnesses(body, partial, kb, stats), None)


def _atoms(clause):
    """The body of a negation-free clause as the atoms ``witnesses`` takes."""
    assert not any(lit.negated for lit in clause.body)
    return [lit.atom for lit in clause.body]


class TestSatisfy:
    def test_same_movie_clause_holds_in_example1(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        witness = _first_witness(_atoms(same_movie), partial, kb)
        assert witness is not None
        assert witness.get(V("M", "movie")) == C("m1", "movie")

    def test_different_genre_clause_fails_in_example1(self):
        kb = example1_kb()
        different_genres, worked_under, _ = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        assert route_body(different_genres.body, partial, kb) is None
        assert _first_witness(_atoms(worked_under), partial, kb) is None

    def test_worked_under_clause_holds_in_example2(self):
        kb = example2_kb()
        different_genres, worked_under, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p01", "p02")
        witness = _first_witness(_atoms(worked_under), partial, kb)
        assert witness is not None
        assert witness.get(V("M1", "movie")) == C("m01", "movie")
        assert witness.get(V("P3", "person")) == C("p03", "person")
        assert route_body(different_genres.body, partial, kb) is None
        assert _first_witness(_atoms(same_movie), partial, kb) is None

    def test_empty_body_is_trivially_satisfied(self):
        kb = example1_kb()
        partial = _collab_partial(kb, "p1", "p2")
        assert _first_witness((), partial, kb) == partial

    def test_ground_negation_uses_closed_world(self):
        kb = example1_kb()
        lit = Literal(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), negated=True)
        assert route_body((lit,), {}, kb) is None
        missing = Literal(atom(ACTEDIN, C("p1", "person"), C("m9", "movie")), negated=True)
        assert route_body((missing,), {}, kb) is not None

    def test_unbound_negation_is_existential(self):
        # ¬actedin(p1, M) fails because some movie of p1 exists
        kb = example1_kb()
        lit = Literal(atom(ACTEDIN, C("p1", "person"), V("M", "movie")), negated=True)
        assert route_body((lit,), {}, kb) is None

    def test_negation_is_decided_in_place_over_its_prefix(self):
        from helpers import SAMEPERSON

        kb = KnowledgeBase()
        kb.add(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")))
        kb.add(atom(SAMEPERSON, C("p2", "person"), C("p2", "person")))
        p = V("P", "person")
        negation = Literal(atom(ACTEDIN, p, V("M", "movie")), negated=True)
        same = Literal(atom(SAMEPERSON, p, p))
        # with an empty prefix, actedin(P, M) has a solution (p1, m1), so the
        # negation fails; it is not deferred until sameperson binds P to p2
        assert route_body((negation, same), {}, kb) is None
        # after the prefix binds P to p2, actedin(p2, M) has none, so it holds
        witness = route_body((same, negation), {}, kb)
        assert witness is not None
        assert witness.get(p) == C("p2", "person")

    def test_backtracks_across_literals(self):
        kb = example1_kb()
        # first witness for actedin(p1, M) is m1; requiring m2 later forces backtracking
        m = V("M", "movie")
        body = (
            atom(ACTEDIN, C("p1", "person"), m),
            atom(ACTEDIN, C("p2", "person"), m),
            atom(ACTEDIN, C("p1", "person"), m),
        )
        assert _first_witness(body, {}, kb) is not None

    def test_search_stops_at_first_witness(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        stats = SearchStats()
        assert _first_witness(_atoms(same_movie), partial, kb, stats) is not None
        # actedin(p1, M) yields m1, then actedin(p2, m1) holds: two visits
        assert stats.groundings_visited == 2

    def test_route_satisfaction_reports_the_first_witness(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        witness = route_body(same_movie.body, partial, kb)
        assert witness is not None
        assert witness.get(V("M", "movie")) == C("m1", "movie")

    def test_route_satisfaction_matches_satisfy_on_positive_bodies(self):
        m = V("M", "movie")
        body = (
            Literal(atom(ACTEDIN, C("p1", "person"), m)),  # first witness is m1
            Literal(atom(ACTEDIN, C("p2", "person"), m)),  # ... but only m2 works
        )
        kb = KnowledgeBase()
        for left, right in (("p1", "m1"), ("p1", "m2"), ("p2", "m2")):
            kb.add(atom(ACTEDIN, C(left, "person"), C(right, "movie")))
        atoms = [lit.atom for lit in body]
        routed = route_body(body, {}, kb)
        for witness in (_first_witness(atoms, {}, kb), routed):
            assert witness is not None
            assert witness.get(m) == C("m2", "movie")

    def test_route_satisfaction_scopes_negation_over_the_prefix(self):
        # route semantics: a negated literal fails iff (prefix AND atom) has a
        # solution, mirroring a tree's false branch; it does not backtrack into
        # the prefix to look for a witness (X=b) that would dodge the atom
        t = "thing"
        q = Predicate("q", (t,))
        r = Predicate("r", (t,))
        s = Predicate("s", (t,))
        kb = KnowledgeBase()
        kb.add(Atom(q, (C("a", t),)))
        kb.add(Atom(q, (C("b", t),)))
        kb.add(Atom(r, (C("a", t),)))
        kb.add(Atom(s, (C("b", t),)))
        x = V("X", t)
        body = (
            Literal(Atom(q, (x,))),
            Literal(Atom(r, (x,)), negated=True),
            Literal(Atom(s, (x,))),
        )
        assert route_body(body, {}, kb) is None


class TestSatisfactionOracle:
    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(202)
        checked = satisfiable = 0
        for _ in range(2500):
            body, partial, kb = random_satisfaction_case(rng)
            witness = route_body(body, partial, kb)
            expected = oracle_route(body, partial, kb)
            assert (witness is not None) == expected, f"body={[str(l) for l in body]}"
            checked += 1
            if witness is not None:
                satisfiable += 1
                # the witness grounds every positive literal to a stored fact
                for lit in body:
                    if not lit.negated:
                        grounded = ground(lit.atom, witness)
                        assert grounded.is_ground and grounded in kb
            if not any(lit.negated for lit in body):
                # on negation-free bodies both engines find the same witness
                assert reference_satisfy([lit.atom for lit in body], partial, kb) == witness
        assert checked == 2500
        assert 100 < satisfiable < 2400  # both outcomes well represented


def _key(binding):
    """A binding as sorted (variable, constant) names, to compare lists of
    bindings in no particular order."""
    return tuple(sorted((var.name, value.name) for var, value in binding.items()))


def _variables_to_constants(binding):
    return all(var.is_variable and not value.is_variable for var, value in binding.items())


def _spoil(binding):
    """Mutate a returned binding, as a careless caller might."""
    binding.clear()
    binding[V("SPOILT", "t0")] = C("spoilt", "t0")


class TestKeptWitnesses:
    def test_witnesses_are_the_oracle_groundings_first_the_one_satisfy_finds(self):
        """Each witness also binds variables to constants only, and is the
        caller's own: spoiling it changes no later search."""
        rng = random.Random(909)
        several = 0
        for _ in range(1500):
            body, partial, kb = random_satisfaction_case(rng)
            atoms = [lit.atom for lit in body]
            found = list(witnesses(atoms, dict(partial), kb))
            expected = oracle_witnesses(atoms, partial, kb)
            assert sorted(map(_key, found)) == sorted(map(_key, expected))
            assert len(set(map(_key, found))) == len(found)  # distinct
            assert all(any(w == o for o in expected) for w in found)
            assert all(map(_variables_to_constants, found))
            first = reference_satisfy(atoms, partial, kb)
            if found:
                assert found[0] == first
            else:
                assert first is None
            several += len(found) > 1
            snapshot = [dict(w) for w in found]
            for w in found:
                _spoil(w)
            assert list(witnesses(atoms, partial, kb)) == snapshot
        assert several > 100

    def test_the_first_witness_costs_only_the_search_up_to_it(self):
        """``next(witnesses(...))`` is the reference search's witness and visits
        exactly its groundings, so the generator is lazy; running it to the
        end gives the oracle's witnesses."""
        rng = random.Random(909)
        stopped_early = 0
        for _ in range(1500):
            body, partial, kb = random_satisfaction_case(rng)
            atoms = [lit.atom for lit in body]
            lazy, reference, full = SearchStats(), SearchStats(), SearchStats()
            first = next(witnesses(atoms, partial, kb, lazy), None)
            assert first == reference_satisfy(atoms, partial, kb, reference)
            assert lazy.groundings_visited == reference.groundings_visited
            found = list(witnesses(atoms, partial, kb, full))
            expected = oracle_witnesses(atoms, partial, kb)
            assert sorted(map(_key, found)) == sorted(map(_key, expected))
            stopped_early += lazy.groundings_visited < full.groundings_visited
        assert stopped_early > 100

    def test_empty_body_has_one_witness_the_partial(self):
        partial = {V("X", "t"): C("a", "t")}
        assert list(witnesses((), partial, KnowledgeBase())) == [partial]
        # without a partial, each search starts from a binding of its own
        first = next(witnesses((), None, KnowledgeBase()))
        assert first == {}
        _spoil(first)
        assert list(witnesses((), None, KnowledgeBase())) == [{}]

    def test_witnesses_count_their_groundings(self):
        kb = example1_kb()
        partial = _collab_partial(kb, "p1", "p2")
        body = [atom(ACTEDIN, V("P1", "person"), V("M", "movie"))]
        stats = SearchStats()
        assert len(list(witnesses(body, partial, kb, stats))) == 2
        assert stats.groundings_visited == 2

    def test_a_search_leaves_no_garbage_cycle(self):
        """An exhausted or abandoned search is freed by reference counting
        alone, so a scoring loop leaves the cyclic collector nothing."""
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        body = _atoms(same_movie)
        partial = _collab_partial(kb, "p1", "p2")
        assert len(list(witnesses(body, partial, kb))) > 1
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert list(witnesses(body, partial, kb))
                assert next(witnesses(body, partial, kb)) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()


def _random_row_case(rng):
    """A random knowledge base over one type, the bound variables of a node
    whose first ``head`` columns are its queries' head values, and items
    whose rows repeat their item's head values, some with no rows."""
    names = [f"c{i}" for i in range(4)]
    predicates = [Predicate(f"r{arity}", ("t",) * arity) for arity in (1, 2, 3)]
    kb = KnowledgeBase()
    for predicate in predicates:
        for _ in range(rng.randint(0, 3 * predicate.arity)):
            kb.add(Atom(predicate, tuple(C(rng.choice(names), "t") for _ in predicate.arg_types)))
    head = rng.randint(0, 3)
    bound_vars = tuple(V(f"B{i}", "t") for i in range(head + rng.randint(0, 3)))
    items = []
    for position in range(rng.randint(1, 8)):
        fixed = tuple(rng.choice(names) for _ in range(head))
        rows = tuple(
            fixed + tuple(rng.choice(names) for _ in bound_vars[head:])
            for _ in range(rng.randint(0, 5))
        )
        items.append((position, rows))
    return kb, predicates, head, bound_vars, items


def _random_test(rng, predicates, bound_vars):
    """An atom over bound variables, constants and fresh variables, a fresh
    one sometimes at two positions."""
    predicate = rng.choice(predicates)
    fresh = [V("F1", "t"), V("F2", "t")]
    constants = [C(f"c{i}", "t") for i in range(4)]
    args = []
    for _ in predicate.arg_types:
        roll = rng.random()
        pool = bound_vars if bound_vars and roll < 0.6 else fresh if roll < 0.85 else constants
        args.append(rng.choice(pool))
    return Atom(predicate, tuple(args))


class _ReadRows(tuple):
    """An item's rows that record the index of each row handed out, by
    index or by iteration, in ``reads``."""

    def __new__(cls, rows, reads):
        obj = super().__new__(cls, rows)
        obj.reads = reads
        return obj

    def __getitem__(self, index):
        self.reads.append(index)
        return tuple.__getitem__(self, index)

    def __iter__(self):
        for index in range(len(self)):
            self.reads.append(index)
            yield tuple.__getitem__(self, index)


class TestRowTest:
    """``partition`` reads an item's head columns from its first row: every
    row of an item holds its query's head values there."""

    def test_every_kind_of_key_is_the_plain_scan(self):
        rng = random.Random(909)
        kinds = dict.fromkeys(("head", "mixed", "free", "empty"), 0)
        filtered = repeated = 0
        for _ in range(3000):
            kb, predicates, head, bound_vars, items = _random_row_case(rng)
            for _ in range(4):
                test = _random_test(rng, predicates, bound_vars)
                positions, columns, _, filters = _columns(test, bound_vars)
                values = kb.projection(test.predicate.name, positions, filters)
                assert partition(columns, values, items, head) == scan_partition(
                    columns, values, items
                ), f"{test} head={head} items={items}"
                inner = sum(column < head for column in columns)
                kind = (
                    "empty" if not columns else "head" if inner == len(columns)
                    else "mixed" if inner else "free"
                )
                kinds[kind] += 1
                filtered += bool(filters[0])
                repeated += bool(filters[1])
        assert min(kinds.values()) >= 1000, kinds
        assert filtered >= 2500 and repeated >= 500

    def test_a_head_key_reads_only_each_items_first_row(self):
        kb = example1_kb()
        reads: list[int] = []
        rows = [("p1", "p2", "m1"), ("p1", "p2", "m2"), ("p1", "p2", "m3")]
        items = [(0, _ReadRows(rows, reads)), (1, _ReadRows([("p3", "p1", "m1")] * 3, reads))]
        plain = [(position, tuple(rows)) for position, rows in items]
        for columns, values in (
            ((0,), kb.projection("actedin", (0,))),
            ((1, 0), kb.projection("collab", (0, 1))),
            ((), kb.projection("ingenre", ())),
            ((), kb.projection("ingenre", (), (((0, "m9"),), ()))),  # no such fact
        ):
            reads.clear()
            split = partition(columns, values, items, 2)
            assert split == scan_partition(columns, values, plain)
            assert reads == [0, 0]
        assert 0 in scan_partition((0,), kb.projection("actedin", (0,)), plain)

    def test_a_new_fact_changes_the_next_decision_through_the_grouped_view(self):
        kb = example1_kb()
        p1, m = V("P1", "person"), V("M1", "movie")
        bound_vars = (p1, V("P2", "person"), m)
        items = [(0, (("p3", "p1", "m1"), ("p3", "p1", "m2"))), (1, (("p1", "p2", "m1"),))]
        tests = (
            atom(ACTEDIN, p1, m),  # a head column and another: the grouped view
            atom(ACTEDIN, p1, V("M2", "movie")),  # a head column alone
        )
        decided = []
        for test in tests * 2:
            if len(decided) == len(tests):
                kb.add(atom(ACTEDIN, C("p3", "person"), C("m2", "movie")))
            positions, columns, _, filters = _columns(test, bound_vars)
            values = kb.projection(test.predicate.name, positions, filters)
            decided.append(partition(columns, values, items, 2))
            assert decided[-1] == scan_partition(columns, values, items)
        assert decided == [b"\x00\x01", b"\x00\x01", b"\x01\x01", b"\x01\x01"]
