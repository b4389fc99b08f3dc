"""Unification, substitution application, and satisfaction semantics."""

import itertools
import random

import pytest

from liftedrbm.logic import (
    Atom,
    KnowledgeBase,
    Literal,
    Predicate,
    SearchStats,
    Substitution,
    route_decision,
    unify,
    witnesses,
)

from helpers import (
    ACTEDIN,
    COLLAB,
    C,
    V,
    atom,
    example1_kb,
    example2_kb,
    oracle_route,
    oracle_witnesses,
    random_satisfaction_case,
    reference_satisfy,
    route_body,
    rule_clauses,
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

    def test_seed_constraints_are_respected(self):
        head = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        query = atom(COLLAB, C("p1", "person"), C("p2", "person"))
        seed = Substitution().bind(V("P1", "person"), C("p1", "person"))
        assert unify(head, query, seed) is not None
        clash = Substitution().bind(V("P1", "person"), C("p9", "person"))
        assert unify(head, query, clash) is None

    def test_variable_to_variable_binding(self):
        a = atom(ACTEDIN, V("X", "person"), V("M", "movie"))
        b = atom(ACTEDIN, V("Y", "person"), C("m1", "movie"))
        result = unify(a, b)
        assert result is not None
        assert result.apply(a) == result.apply(b)


def _random_atom(rng, pred, constants, variables, ground_bias):
    args = []
    for t in pred.arg_types:
        if rng.random() < ground_bias:
            args.append(rng.choice(constants[t]))
        else:
            args.append(rng.choice(variables[t]))
    return Atom(pred, tuple(args))


class TestUnifyProperties:
    def test_soundness_on_random_pairs(self):
        # whenever unify succeeds, applying the result equalizes the atoms
        rng = random.Random(11)
        preds = [Predicate("r", ("a", "b")), Predicate("s", ("a", "a", "b"))]
        constants = {t: [C(f"{t}{i}", t) for i in range(3)] for t in ("a", "b")}
        variables = {t: [V(f"{t.upper()}{i}", t) for i in range(3)] for t in ("a", "b")}
        successes = 0
        for _ in range(3000):
            pred = rng.choice(preds)
            a = _random_atom(rng, pred, constants, variables, 0.5)
            b = _random_atom(rng, pred, constants, variables, 0.5)
            result = unify(a, b)
            if result is not None:
                successes += 1
                assert result.apply(a) == result.apply(b)
        assert successes > 100  # the space is small enough for many successes

    def test_generality_on_enumerable_space(self):
        # any ground unifier factors through the returned most general unifier
        pred = Predicate("r", ("a", "a"))
        constants = [C("a0", "a"), C("a1", "a")]
        variables = [V("X", "a"), V("Y", "a")]
        terms = constants + variables
        for args_a in itertools.product(terms, repeat=2):
            for args_b in itertools.product(terms, repeat=2):
                a, b = Atom(pred, args_a), Atom(pred, args_b)
                mgu = unify(a, b)
                all_vars = [t for t in set(args_a + args_b) if t.is_variable]
                for values in itertools.product(constants, repeat=len(all_vars)):
                    ground = Substitution()
                    for var, value in zip(all_vars, values):
                        ground = ground.bind(var, value)
                    if ground.apply(a) == ground.apply(b):
                        assert mgu is not None, f"{a} and {b} have a unifier"
                        # s factors through the mgu: s(mgu(atom)) == s(atom)
                        assert ground.apply(mgu.apply(a)) == ground.apply(a)
                        assert ground.apply(mgu.apply(b)) == ground.apply(b)


class TestApply:
    def test_single_binding(self):
        sub = Substitution().bind(V("P1", "person"), C("p1", "person"))
        a = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        assert sub.apply(a) == atom(COLLAB, C("p1", "person"), V("P2", "person"))

    def test_identity(self):
        a = atom(ACTEDIN, C("p1", "person"), C("m1", "movie"))
        assert Substitution().apply(a) == a

    def test_full_grounding(self):
        sub = (
            Substitution()
            .bind(V("M", "movie"), C("m1", "movie"))
            .bind(V("P2", "person"), C("p2", "person"))
        )
        a = atom(ACTEDIN, V("P2", "person"), V("M", "movie"))
        assert sub.apply(a) == atom(ACTEDIN, C("p2", "person"), C("m1", "movie"))

    def test_application_is_idempotent(self):
        sub = (
            Substitution()
            .bind(V("X", "person"), V("Y", "person"))
            .bind(V("Y", "person"), C("p1", "person"))
        )
        a = atom(COLLAB, V("X", "person"), V("Y", "person"))
        once = sub.apply(a)
        assert sub.apply(once) == once
        assert once.is_ground

    def test_rebinding_is_rejected(self):
        sub = Substitution().bind(V("X", "person"), C("p1", "person"))
        with pytest.raises(ValueError):
            sub.bind(V("X", "person"), C("p2", "person"))


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
        assert route_body((lit,), Substitution(), kb) is None
        missing = Literal(atom(ACTEDIN, C("p1", "person"), C("m9", "movie")), negated=True)
        assert route_body((missing,), Substitution(), kb) is not None

    def test_unbound_negation_is_existential(self):
        # ¬actedin(p1, M) fails because some movie of p1 exists
        kb = example1_kb()
        lit = Literal(atom(ACTEDIN, C("p1", "person"), V("M", "movie")), negated=True)
        assert route_body((lit,), Substitution(), kb) is None

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
        assert route_body((negation, same), Substitution(), kb) is None
        # after the prefix binds P to p2, actedin(p2, M) has none, so it holds
        witness = route_body((same, negation), Substitution(), kb)
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
        assert _first_witness(body, Substitution(), kb) is not None

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
        routed = route_body(body, Substitution(), kb)
        for witness in (_first_witness(atoms, Substitution(), kb), routed):
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
        assert route_body(body, Substitution(), kb) is None


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
                        grounded = witness.apply(lit.atom)
                        assert grounded.is_ground and grounded in kb
            if not any(lit.negated for lit in body):
                # on negation-free bodies both engines find the same witness
                assert reference_satisfy([lit.atom for lit in body], partial, kb) == witness
        assert checked == 2500
        assert 100 < satisfiable < 2400  # both outcomes well represented


def _random_context_case(rng: random.Random):
    """A random KB, a positive context of 1-3 atoms over a small variable
    pool, a few head-unifier-like partial bindings of it (some grounding the
    whole context), and test atoms that share its variables or add fresh
    ones."""
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
        ground = rng.random() < 0.25
        base = Substitution()
        for var in context_vars:
            if ground or rng.random() < 0.3:
                base = base.bind(var, rng.choice(constants[var.type_tag]))
        bases.append(base)
    tests = [
        random_atom(lambda t: pool[t] + [fresh[t], rng.choice(constants[t])])
        for _ in range(8)
    ]
    return kb, context, bases, tests


class TestKeptWitnesses:
    def test_witnesses_are_the_oracle_groundings_first_the_one_satisfy_finds(self):
        rng = random.Random(909)
        several = 0
        for _ in range(1500):
            body, partial, kb = random_satisfaction_case(rng)
            atoms = [lit.atom for lit in body]
            found = list(witnesses(atoms, partial, kb))
            expected = oracle_witnesses(atoms, partial, kb)
            assert sorted(map(repr, found)) == sorted(map(repr, expected))
            assert len(set(map(repr, found))) == len(found)  # distinct
            assert all(any(w == o for o in expected) for w in found)
            first = reference_satisfy(atoms, partial, kb)
            if found:
                assert found[0] == first
            else:
                assert first is None
            several += len(found) > 1
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
            assert sorted(map(repr, found)) == sorted(map(repr, expected))
            stopped_early += lazy.groundings_visited < full.groundings_visited
        assert stopped_early > 100

    def test_empty_body_has_one_witness_the_partial(self):
        partial = Substitution().bind(V("X", "t"), C("a", "t"))
        assert list(witnesses((), partial, KnowledgeBase())) == [partial]

    def test_witnesses_count_their_groundings(self):
        kb = example1_kb()
        partial = _collab_partial(kb, "p1", "p2")
        body = [atom(ACTEDIN, V("P1", "person"), V("M", "movie"))]
        stats = SearchStats()
        assert len(list(witnesses(body, partial, kb, stats))) == 2
        assert stats.groundings_visited == 2

    def test_kept_lists_decide_and_witness_as_a_full_proof(self):
        """For every (context, item, test), route_decision with a kept list
        returns the Substitution it returns without one, and the one the
        fast path or a full satisfy of the extended conjunction gives; each
        list is read over every test twice, so the second round reads it
        filled.  The cached witness is any witness of the context, not only
        the first satisfy meets."""
        rng = random.Random(4242)
        decided = from_later_witness = from_first_kept = ground_items = 0
        for _ in range(400):
            kb, context, bases, tests = _random_context_case(rng)
            for base in bases:
                found = list(witnesses(context, base, kb))
                if not found:
                    continue  # an item reaches a node only with a witness
                choices = {0, len(found) - 1, rng.randrange(len(found))}
                cached_witnesses = [found[i] for i in sorted(choices)]
                if len(found) == 1 and found[0] == base:
                    ground_items += 1
                    # the same grounding as another object than ``base``
                    cached_witnesses.append(Substitution(dict(base.items())))
                for cached in cached_witnesses:
                    kept = []
                    for _ in range(2):
                        for test in tests:
                            got = route_decision(context, test, base, cached, kb, None, kept)
                            alone = route_decision(context, test, base, cached, kb)
                            reference = reference_satisfy((test,), cached, kb)
                            if reference is None:
                                reference = reference_satisfy(tuple(context) + (test,), base, kb)
                                if reference is not None:
                                    from_later_witness += 1
                                    later = [w for w in found if w != cached]
                                    from_first_kept += reference_satisfy((test,), later[0], kb) is not None
                            assert got == alone == reference, (
                                f"context={[str(a) for a in context]} test={test} "
                                f"base={base} cached={cached}"
                            )
                            decided += 1
        # the cases the kept lists exist for are well represented
        assert decided > 10000
        assert from_later_witness > 500 and from_first_kept > 200
        assert ground_items > 50
