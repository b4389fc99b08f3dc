"""Parsing, negative generation, fold splitting, and the temporal filter."""

import collections
import itertools
import random

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
    oracle_label_overlap,
    oracle_parse_examples,
    oracle_parse_facts,
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


# Constants of each type, and the facts every example corpus is read against.
_NAMES = {"person": ["p0", "p1", "p2", "p3"], "movie": ["m0", "m1", "m2"], "genre": ["g0", "g1"]}
_CORPUS_FACTS = (
    "actedin(p0, m0).\nactedin(p1, m0).\nactedin(p3, m2).\n"
    "directedby(m1, p2).\ningenre(m2, g0).\ningenre(m0, g1).\n"
)
_SPACES = ["", "", " ", "  ", "\t", "\u00a0", "\u3000"]


def _corpus_line(rng: random.Random, predicates: list[str], fault_rate: float) -> str:
    """One line: an atom of one of ``predicates`` over known constants, in
    random spacing, or, at ``fault_rate``, a line with one fault."""
    name = rng.choice(predicates)
    types = list(MOVIE_MODES[name].predicate.arg_types)
    tokens = [rng.choice(_NAMES[type_tag]) for type_tag in types]
    if rng.random() < fault_rate:
        fault = rng.randrange(12)
        if fault == 0:
            tokens[rng.randrange(len(tokens))] = rng.choice(["P1", "Who", "X_2"])  # variable
        elif fault == 1:
            tokens[rng.randrange(len(tokens))] = rng.choice(["nobody", "m9", "q_1"])  # unknown
        elif fault == 2:  # a constant of another type
            at = rng.randrange(len(tokens))
            tokens[at] = rng.choice([c for t, cs in _NAMES.items() if t != types[at] for c in cs])
        elif fault == 3:
            name = rng.choice(["actedin", "directedby", "collab", "mystery"])  # other predicate
        elif fault == 4:
            tokens = tokens[:-1] if rng.random() < 0.5 else tokens + ["p0"]  # wrong arity
        elif fault == 5:
            tokens = []  # empty argument list
        elif fault == 6:
            tokens.insert(rng.randrange(len(tokens) + 1), "")  # empty or trailing argument
        elif fault == 7:
            tokens[rng.randrange(len(tokens))] += rng.choice(["\u00a0x", "-1", " y", "\u3000z"])
        elif fault == 8:
            return f"{name}({', '.join(tokens)}"  # no closing parenthesis
        elif fault == 9:
            return f"{name.capitalize()}({', '.join(tokens)})."
        elif fault == 10:
            return f"{name}({', '.join(tokens)}) extra."
        else:
            return rng.choice(["% a comment", "", "\t", "\u3000"])  # no atom at all
    space = lambda: rng.choice(_SPACES)  # noqa: E731
    args = ",".join(space() + tok + space() for tok in tokens)
    line = f"{space()}{name}{space()}({args}){space()}{rng.choice(['.', '.', ''])}{space()}"
    return line + rng.choice(["", "", f"\t% {rng.choice(tokens or ['c'])}, ()."])


def _corpus_text(rng: random.Random, predicates: list[str], fault_rate: float) -> str:
    lines: list[str] = []
    for _ in range(rng.randint(0, 10)):
        # repeat an earlier line now and then, so duplicates are read too
        repeat = lines and rng.random() < 0.2
        lines.append(rng.choice(lines) if repeat else _corpus_line(rng, predicates, fault_rate))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _read(reader, *args):
    """What ``reader`` returns, or the message of the ParseError it raises."""
    try:
        return reader(*args)
    except ParseError as exc:
        return str(exc)


def _fault_kinds(messages) -> set[str]:
    kinds = {
        "malformed atom", "malformed argument", "no mode declaration", "arguments, got",
        "found variable", "unknown constant", "expected person", "expected a collab/2 atom",
        "conflicting types", "both labels",
    }
    return {kind for kind in kinds for message in messages if kind in message}


class TestOneReaderAgainstTheOracle:
    """``parse_facts``, ``parse_examples`` and ``ExampleSet`` against the
    reading path that builds every constant anew, checks each argument by
    its own match and finds repeats and overlaps by whole atoms: the same
    atoms in the same order, or the same message at the same line."""

    def test_fact_files_read_as_the_oracle_reads_them(self):
        rng = random.Random(3103)
        facts = ["actedin", "directedby", "ingenre"]
        messages, read = [], 0
        for _ in range(400):
            text = _corpus_text(rng, facts, 0.08)
            got = _read(parse_facts, text, MOVIE_MODES)
            want = _read(oracle_parse_facts, text, MOVIE_MODES)
            if isinstance(want, str):
                assert got == want, text
                messages.append(want)
                continue
            assert got.facts == want.facts, text
            assert [got.universe(t) for t in _NAMES] == [want.universe(t) for t in _NAMES]
            read += len(got)
        assert read > 500
        assert _fault_kinds(messages) >= {
            "malformed atom", "malformed argument", "no mode declaration", "arguments, got",
            "found variable", "conflicting types",
        }

    def test_example_files_read_as_the_oracle_reads_them(self):
        rng = random.Random(3104)
        kb = parse_facts(_CORPUS_FACTS, MOVIE_MODES)
        messages, overlaps, read = [], 0, 0
        for _ in range(600):
            texts = [_corpus_text(rng, ["collab"], 0.06) for _ in range(2)]
            got = [_read(parse_examples, text, kb, COLLAB) for text in texts]
            want = [_read(oracle_parse_examples, text, kb, COLLAB) for text in texts]
            assert got == want, texts
            if any(isinstance(each, str) for each in want):
                messages += [each for each in want if isinstance(each, str)]
                continue
            # each argument is the knowledge base's own term
            assert all(t is kb.constant(t.name) for each in got for a in each for t in a.args)
            read += len(got[0]) + len(got[1])
            overlap = oracle_label_overlap(*want)
            if overlap:
                overlaps += 1
                with pytest.raises(ParseError) as caught:
                    ExampleSet(COLLAB, *got)
                assert str(caught.value) == f"examples appear with both labels: {overlap}"
                messages.append(str(caught.value))
            else:
                assert len(ExampleSet(COLLAB, *got)) == len(got[0]) + len(got[1])
        assert read > 500 and overlaps > 20
        assert _fault_kinds(messages) >= {
            "malformed atom", "malformed argument", "no mode declaration", "arguments, got",
            "found variable", "unknown constant", "expected person", "expected a collab/2 atom",
            "both labels",
        }


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
