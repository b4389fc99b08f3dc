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
    satisfy,
    satisfy_route,
    unify,
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
    random_satisfaction_case,
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


def _atoms(clause):
    """The body of a negation-free clause as the atoms ``satisfy`` takes."""
    assert not any(lit.negated for lit in clause.body)
    return [lit.atom for lit in clause.body]


class TestSatisfy:
    def test_same_movie_clause_holds_in_example1(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        witness = satisfy(_atoms(same_movie), partial, kb)
        assert witness is not None
        assert witness.get(V("M", "movie")) == C("m1", "movie")

    def test_different_genre_clause_fails_in_example1(self):
        kb = example1_kb()
        different_genres, worked_under, _ = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        assert satisfy_route(different_genres.body, partial, kb) is None
        assert satisfy(_atoms(worked_under), partial, kb) is None

    def test_worked_under_clause_holds_in_example2(self):
        kb = example2_kb()
        different_genres, worked_under, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p01", "p02")
        witness = satisfy(_atoms(worked_under), partial, kb)
        assert witness is not None
        assert witness.get(V("M1", "movie")) == C("m01", "movie")
        assert witness.get(V("P3", "person")) == C("p03", "person")
        assert satisfy_route(different_genres.body, partial, kb) is None
        assert satisfy(_atoms(same_movie), partial, kb) is None

    def test_empty_body_is_trivially_satisfied(self):
        kb = example1_kb()
        partial = _collab_partial(kb, "p1", "p2")
        assert satisfy((), partial, kb) == partial

    def test_ground_negation_uses_closed_world(self):
        kb = example1_kb()
        lit = Literal(atom(ACTEDIN, C("p1", "person"), C("m1", "movie")), negated=True)
        assert satisfy_route((lit,), Substitution(), kb) is None
        missing = Literal(atom(ACTEDIN, C("p1", "person"), C("m9", "movie")), negated=True)
        assert satisfy_route((missing,), Substitution(), kb) is not None

    def test_unbound_negation_is_existential(self):
        # ¬actedin(p1, M) fails because some movie of p1 exists
        kb = example1_kb()
        lit = Literal(atom(ACTEDIN, C("p1", "person"), V("M", "movie")), negated=True)
        assert satisfy_route((lit,), Substitution(), kb) is None

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
        assert satisfy_route((negation, same), Substitution(), kb) is None
        # after the prefix binds P to p2, actedin(p2, M) has none, so it holds
        witness = satisfy_route((same, negation), Substitution(), kb)
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
        assert satisfy(body, Substitution(), kb) is not None

    def test_search_stops_at_first_witness(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        stats = SearchStats()
        assert satisfy(_atoms(same_movie), partial, kb, stats) is not None
        # actedin(p1, M) yields m1, then actedin(p2, m1) holds: two visits
        assert stats.groundings_visited == 2

    def test_route_satisfaction_reports_the_first_witness(self):
        kb = example1_kb()
        _, _, same_movie = rule_clauses()
        partial = _collab_partial(kb, "p1", "p2")
        witness = satisfy_route(same_movie.body, partial, kb)
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
        for witness in (satisfy(atoms, Substitution(), kb), satisfy_route(body, Substitution(), kb)):
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
        assert satisfy_route(body, Substitution(), kb) is None


class TestSatisfactionOracle:
    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(202)
        checked = satisfiable = 0
        for _ in range(2500):
            body, partial, kb = random_satisfaction_case(rng)
            witness = satisfy_route(body, partial, kb)
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
                assert satisfy([lit.atom for lit in body], partial, kb) == witness
        assert checked == 2500
        assert 100 < satisfiable < 2400  # both outcomes well represented
