"""Parsing, negative generation, fold splitting, and the temporal filter."""

import collections
import itertools

import pytest

from liftedrbm.data import (
    ExampleSet,
    ParseError,
    generate_negatives,
    parse_examples,
    parse_facts,
    parse_modes,
    split_folds,
)
from liftedrbm.logic import KnowledgeBase, Predicate, unify, witnesses

from helpers import (
    ACTEDIN,
    COLLAB,
    EXAMPLE2_FACTS,
    MOVIE_MODES,
    MOVIE_MODES_TEXT,
    C,
    V,
    atom,
    rule_clauses,
    serialize_facts,
)


class TestParseModes:
    def test_happy_path(self):
        modes = parse_modes(MOVIE_MODES_TEXT)
        assert modes["actedin"].predicate == Predicate("actedin", ("person", "movie"))
        assert modes["actedin"].chaining == ("-", "-")

    def test_plus_and_minus_flags(self):
        modes = parse_modes("mode: plays(+sport, -team).")
        assert modes["plays"].chaining == ("+", "-")

    def test_duplicate_declaration_is_an_error(self):
        with pytest.raises(ParseError):
            parse_modes("mode: p(+a).\nmode: p(-a).")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_modes("mode: p(+a).\nmode p(+a).")


class TestParseFacts:
    def test_single_fact(self):
        kb = parse_facts("actedin(p1, m1).", MOVIE_MODES)
        assert len(kb) == 1
        assert atom(ACTEDIN, C("p1", "person"), C("m1", "movie")) in kb

    def test_empty_file_gives_empty_kb(self):
        kb = parse_facts("", MOVIE_MODES)
        assert len(kb) == 0

    def test_walkthrough_fact_file_supports_satisfaction(self):
        kb = parse_facts(EXAMPLE2_FACTS, MOVIE_MODES)
        assert len(kb) == 7
        _, worked_under, _ = rule_clauses()
        head = atom(COLLAB, V("P1", "person"), V("P2", "person"))
        query = atom(COLLAB, C("p01", "person"), C("p02", "person"))
        body = [lit.atom for lit in worked_under.body]
        assert next(witnesses(body, unify(head, query), kb), None) is not None

    def test_comments_and_blank_lines_are_skipped(self):
        kb = parse_facts("% a comment\n\nactedin(p1, m1). % trailing\n", MOVIE_MODES)
        assert len(kb) == 1

    def test_duplicates_are_stored_once(self):
        kb = parse_facts("actedin(p1, m1).\nactedin(p1, m1).", MOVIE_MODES)
        assert len(kb) == 1

    def test_unknown_predicate_is_an_error(self):
        with pytest.raises(ParseError, match="no mode declaration"):
            parse_facts("mystery(p1).", MOVIE_MODES)

    def test_variable_in_fact_is_an_error(self):
        with pytest.raises(ParseError, match="ground"):
            parse_facts("actedin(P1, m1).", MOVIE_MODES)

    def test_conflicting_constant_types_are_an_error(self):
        with pytest.raises(ParseError, match="conflicting types"):
            parse_facts("actedin(p1, m1).\nactedin(m1, m2).", MOVIE_MODES)

    def test_malformed_atom_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_facts("actedin(p1, m1).\nactedin(p2, m1).\nactedin(p3 m1).", MOVIE_MODES)

    def test_round_trip(self):
        text = "actedin(p1, m1).\ndirectedby(m1, p2).\ningenre(m1, g1).\n"
        kb = parse_facts(text, MOVIE_MODES)
        assert serialize_facts(kb) == text
        again = parse_facts(serialize_facts(kb), MOVIE_MODES)
        assert again.facts == kb.facts


class TestParseExamples:
    def test_examples_validated_against_kb(self):
        kb = parse_facts("actedin(p1, m1).\nactedin(p2, m1).", MOVIE_MODES)
        examples = parse_examples("collab(p1, p2).", kb, COLLAB)
        assert examples == [atom(COLLAB, C("p1", "person"), C("p2", "person"))]

    def test_a_repeated_example_is_kept_where_it_first_occurs(self):
        kb = parse_facts("actedin(p1, m1).\nactedin(p2, m1).", MOVIE_MODES)
        examples = parse_examples(
            "collab(p2, p1).\ncollab(p1, p2).\ncollab(p2,p1).", kb, COLLAB
        )
        p1, p2 = C("p1", "person"), C("p2", "person")
        assert examples == [atom(COLLAB, p2, p1), atom(COLLAB, p1, p2)]

    def test_unknown_constant_is_an_error(self):
        kb = parse_facts("actedin(p1, m1).", MOVIE_MODES)
        with pytest.raises(ParseError, match="unknown constant"):
            parse_examples("collab(p1, p9).", kb, COLLAB)

    def test_wrong_predicate_is_an_error(self):
        kb = parse_facts("actedin(p1, m1).", MOVIE_MODES)
        with pytest.raises(ParseError):
            parse_examples("actedin(p1, m1).", kb, COLLAB)

    def test_wrong_type_is_an_error(self):
        kb = parse_facts("actedin(p1, m1).", MOVIE_MODES)
        with pytest.raises(ParseError, match="type"):
            parse_examples("collab(p1, m1).", kb, COLLAB)


def _pair_kb(n_people=4, extra=""):
    modes = parse_modes("mode: likes(-person, -person).\nmode: knows(-person, -person).")
    people = [f"p{i}" for i in range(n_people)]
    facts = "\n".join(f"knows({a}, {b})." for a, b in zip(people, people[1:]))
    return modes, parse_facts(facts + "\n" + extra, modes)


class TestGenerateNegatives:
    def test_ratio_two_yields_twice_the_positives(self):
        modes, kb = _pair_kb(6)
        target = modes["likes"].predicate
        positives = [
            atom(target, C("p0", "person"), C("p1", "person")),
            atom(target, C("p1", "person"), C("p2", "person")),
            atom(target, C("p2", "person"), C("p3", "person")),
            atom(target, C("p3", "person"), C("p4", "person")),
        ]
        negatives = generate_negatives(kb, target, positives, ratio=2, seed=3)
        assert len(negatives) == 8
        keys = {str(a) for a in negatives}
        assert len(keys) == 8
        assert keys.isdisjoint({str(a) for a in positives})

    def test_zero_positives_yield_zero_negatives(self):
        modes, kb = _pair_kb()
        target = modes["likes"].predicate
        assert generate_negatives(kb, target, [], ratio=2, seed=0) == []

    def test_small_domain_warns_and_returns_all(self):
        # 3 people -> 9 groundings; 4 positives leave 5 candidates, request 8
        modes, kb = _pair_kb(3)
        target = modes["likes"].predicate
        people = ["p0", "p1", "p2"]
        positives = [
            atom(target, C(a, "person"), C(b, "person"))
            for a, b in [("p0", "p0"), ("p0", "p1"), ("p1", "p2"), ("p2", "p0")]
        ]
        with pytest.warns(UserWarning):
            negatives = generate_negatives(kb, target, positives, ratio=2, seed=0)
        expected = {
            f"likes({a}, {b})"
            for a, b in itertools.product(people, repeat=2)
        } - {str(a) for a in positives}
        assert {str(a) for a in negatives} == expected

    def test_request_overflowing_to_infinity_uses_every_grounding(self):
        # 1e308 * 2 is inf as a float; it still asks for the whole space
        modes, kb = _pair_kb(3)
        target = modes["likes"].predicate
        positives = [
            atom(target, C("p0", "person"), C("p1", "person")),
            atom(target, C("p2", "person"), C("p2", "person")),
        ]
        with pytest.warns(UserWarning, match="only 7 groundings"):
            negatives = generate_negatives(kb, target, positives, ratio=1e308, seed=0)
        assert len(negatives) == 7
        assert {str(a) for a in negatives}.isdisjoint({str(a) for a in positives})

    def test_deterministic_under_seed(self):
        modes, kb = _pair_kb(6)
        target = modes["likes"].predicate
        positives = [atom(target, C("p0", "person"), C("p1", "person"))]
        a = generate_negatives(kb, target, positives, ratio=2, seed=42)
        b = generate_negatives(kb, target, positives, ratio=2, seed=42)
        assert [str(x) for x in a] == [str(x) for x in b]
        c = generate_negatives(kb, target, positives, ratio=2, seed=43)
        assert [str(x) for x in a] != [str(x) for x in c]

    def test_never_emits_a_positive(self):
        modes, kb = _pair_kb(5)
        target = modes["likes"].predicate
        people = [f"p{i}" for i in range(5)]
        positives = [
            atom(target, C(a, "person"), C(b, "person"))
            for a, b in itertools.product(people, repeat=2)
            if a <= b
        ]
        for seed in range(10):
            negatives = generate_negatives(kb, target, positives, ratio=0.5, seed=seed)
            assert {str(a) for a in negatives}.isdisjoint({str(a) for a in positives})

    def test_grounding_space_beyond_sys_maxsize(self):
        # 60,000 ** 4 groundings: len(range(total)) would overflow
        modes = parse_modes("mode: quad(-a, -a, -a, -a).")
        kb = KnowledgeBase(modes)
        for i in range(60_000):
            kb.register_constant(f"c{i}", "a")
        target = modes["quad"].predicate
        positive = atom(target, *[C("c0", "a")] * 4)
        negatives = generate_negatives(kb, target, [positive], ratio=2, seed=0)
        assert len(negatives) == 2
        assert len(set(negatives)) == 2 and positive not in negatives

    @pytest.mark.parametrize("ratio", [-1, float("inf"), float("nan")])
    def test_bad_ratio_is_rejected(self, ratio):
        modes, kb = _pair_kb(3)
        target = modes["likes"].predicate
        positives = [atom(target, C("p0", "person"), C("p1", "person"))]
        with pytest.raises(ValueError, match="ratio"):
            generate_negatives(kb, target, positives, ratio=ratio, seed=0)

    def test_draws_are_uniform_over_non_positive_groundings(self):
        # 3 people -> 9 groundings; 2 positives leave 7, one drawn per seed
        modes, kb = _pair_kb(3)
        target = modes["likes"].predicate
        positives = [
            atom(target, C("p0", "person"), C("p1", "person")),
            atom(target, C("p2", "person"), C("p2", "person")),
        ]
        counts = collections.Counter(
            str(negative)
            for seed in range(7000)
            for negative in generate_negatives(kb, target, positives, ratio=0.5, seed=seed)
        )
        assert len(counts) == 7
        mean = sum(counts.values()) / 7
        assert all(0.85 * mean <= n <= 1.15 * mean for n in counts.values()), counts


def _example_set(n_pos, n_neg):
    modes, kb = _pair_kb(8)
    target = modes["likes"].predicate
    people = [f"p{i}" for i in range(8)]
    pairs = list(itertools.product(people, repeat=2))
    atoms = [atom(target, C(a, "person"), C(b, "person")) for a, b in pairs]
    return ExampleSet(target, atoms[:n_pos], atoms[n_pos : n_pos + n_neg])


class TestSplitFolds:
    def test_exact_division(self):
        examples = _example_set(10, 20)
        folds = split_folds(examples, 5, seed=1)
        for fold in range(5):
            pos = sum(1 for a in examples.positives if folds.assignments[a] == fold)
            neg = sum(1 for a in examples.negatives if folds.assignments[a] == fold)
            assert pos == 2 and neg == 4

    def test_deterministic_under_seed(self):
        examples = _example_set(10, 20)
        a = split_folds(examples, 5, seed=7)
        b = split_folds(examples, 5, seed=7)
        assert a.assignments == b.assignments

    def test_uneven_classes_spread_by_at_most_one(self):
        examples = _example_set(11, 22)
        for seed in range(20):
            folds = split_folds(examples, 5, seed=seed)
            pos_sizes = [
                sum(1 for a in examples.positives if folds.assignments[a] == f)
                for f in range(5)
            ]
            neg_sizes = [
                sum(1 for a in examples.negatives if folds.assignments[a] == f)
                for f in range(5)
            ]
            assert set(pos_sizes) <= {2, 3} and sum(pos_sizes) == 11
            assert set(neg_sizes) <= {4, 5} and sum(neg_sizes) == 22

    def test_too_few_members_is_an_error(self):
        examples = _example_set(3, 20)
        with pytest.raises(ValueError):
            split_folds(examples, 5, seed=0)

    def test_split_partitions_the_example_set(self):
        examples = _example_set(10, 20)
        folds = split_folds(examples, 5, seed=3)
        seen = []
        for fold in range(5):
            train, test = folds.split(examples, fold)
            assert len(train) + len(test) == len(examples)
            seen.extend(str(a) for a in test.positives + test.negatives)
        assert sorted(seen) == sorted(
            str(a) for a in examples.positives + examples.negatives
        )


class TestExampleSet:
    def test_overlapping_labels_are_an_error(self):
        modes, kb = _pair_kb()
        target = modes["likes"].predicate
        a = atom(target, C("p0", "person"), C("p1", "person"))
        with pytest.raises(ValueError):
            ExampleSet(target, [a], [a])

    def test_labeled_lists_positives_first(self):
        examples = _example_set(2, 3)
        labels = [y for _, y in examples.labeled()]
        assert labels == [1, 1, 0, 0, 0]
