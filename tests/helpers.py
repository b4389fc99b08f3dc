"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from liftedrbm.data import parse_facts, parse_modes
from liftedrbm.logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    Substitution,
    Term,
)

# The benchmark's fixture model: the default config trained on fold 0 of the
# seed-11 movie domain, i.e. the same model as the ``movie_model`` fixture.
BOOST_FIXTURE = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "boost_model.json"


def V(name: str, type_tag: str) -> Term:
    return Term.variable(name, type_tag)


def C(name: str, type_tag: str) -> Term:
    return Term.constant(name, type_tag)


def atom(pred: Predicate, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


# --- movie-style schema used across tests ---------------------------------

MOVIE_MODES_TEXT = """
mode: directedby(-movie, -person).
mode: actedin(-person, -movie).
mode: ingenre(-movie, -genre).
mode: samegenre(-genre, -genre).
mode: sameperson(-person, -person).
mode: collab(-person, -person).
"""

MOVIE_MODES = parse_modes(MOVIE_MODES_TEXT)
DIRECTEDBY = MOVIE_MODES["directedby"].predicate
ACTEDIN = MOVIE_MODES["actedin"].predicate
INGENRE = MOVIE_MODES["ingenre"].predicate
SAMEGENRE = MOVIE_MODES["samegenre"].predicate
SAMEPERSON = MOVIE_MODES["sameperson"].predicate
COLLAB = MOVIE_MODES["collab"].predicate

COLLAB_HEAD = atom(COLLAB, V("P1", "person"), V("P2", "person"))


def rule_clauses() -> tuple[Clause, Clause, Clause]:
    """The three hand-written movie clauses used by the inference walkthrough."""
    p1, p2 = V("P1", "person"), V("P2", "person")
    m = V("M", "movie")
    m1, m2 = V("M1", "movie"), V("M2", "movie")
    g1, g2 = V("G1", "genre"), V("G2", "genre")
    p3 = V("P3", "person")
    different_genres = Clause(
        COLLAB_HEAD,
        (
            Literal(atom(DIRECTEDBY, m1, p1)),
            Literal(atom(INGENRE, m1, g1)),
            Literal(atom(ACTEDIN, p2, m2)),
            Literal(atom(INGENRE, m2, g2)),
            Literal(atom(SAMEGENRE, g1, g2), negated=True),
        ),
    )
    worked_under = Clause(
        COLLAB_HEAD,
        (
            Literal(atom(DIRECTEDBY, m1, p1)),
            Literal(atom(ACTEDIN, p3, m1)),
            Literal(atom(SAMEPERSON, p3, p2)),
        ),
    )
    same_movie = Clause(
        COLLAB_HEAD,
        (
            Literal(atom(ACTEDIN, p1, m)),
            Literal(atom(ACTEDIN, p2, m)),
        ),
    )
    return different_genres, worked_under, same_movie


EXAMPLE1_FACTS = """
actedin(p1, m1).
actedin(p1, m2).
actedin(p2, m1).
actedin(p2, m2).
"""

EXAMPLE2_FACTS = """
directedby(m1, p1).
ingenre(m1, g1).
actedin(p2, m2).
ingenre(m2, g2).
directedby(m01, p01).
actedin(p03, m01).
sameperson(p03, p02).
"""


def example1_kb() -> KnowledgeBase:
    return parse_facts(EXAMPLE1_FACTS, MOVIE_MODES)


def example2_kb() -> KnowledgeBase:
    return parse_facts(EXAMPLE2_FACTS, MOVIE_MODES)


# --- brute-force satisfaction oracle ---------------------------------------

def oracle_satisfy(body, partial, kb: KnowledgeBase) -> bool:
    """Exhaustive-enumeration satisfiability of positive literals, independent
    of the search code.

    Enumerates every type-consistent grounding of the body's variables and
    holds iff some grounding makes every literal a stored fact.
    """
    free: list[Term] = []
    for lit in body:
        for var in lit.atom.variables():
            walked = partial.walk(var)
            if walked.is_variable and walked not in free:
                free.append(walked)
    universes = [kb.universe(v.type_tag) for v in free]
    for combo in itertools.product(*universes):
        subst = partial
        for var, value in zip(free, combo):
            subst = subst.bind(var, value)
        if all(subst.apply(lit.atom) in kb for lit in body):
            return True
    return False


def oracle_route(body, partial, kb: KnowledgeBase) -> bool:
    """Satisfiability of a signed body read as a tree path reads it.

    With ``P`` the positive literals before literal i, ``P AND atom_i`` must be
    satisfiable (by :func:`oracle_satisfy`) exactly when literal i is
    positive: a negated literal holds iff its atom cannot extend the prefix.
    """
    prefix: list[Literal] = []
    for lit in body:
        if oracle_satisfy(prefix + [Literal(lit.atom)], partial, kb) == lit.negated:
            return False
        if not lit.negated:
            prefix.append(lit)
    return True


# --- random-case generator for the satisfaction oracle suite ---------------

def random_satisfaction_case(rng: random.Random):
    """A random KB (<= 6 constants per type), body (<= 3 literals), partial."""
    n_types = rng.randint(1, 3)
    types = [f"t{i}" for i in range(n_types)]
    constants = {
        t: [C(f"{t}c{j}", t) for j in range(rng.randint(2, 6))] for t in types
    }
    predicates = [
        Predicate(f"q{i}", tuple(rng.choice(types) for _ in range(rng.randint(1, 2))))
        for i in range(rng.randint(2, 3))
    ]
    kb = KnowledgeBase()
    for pred in predicates:
        kb.register_predicate(pred)
        space = list(itertools.product(*[constants[t] for t in pred.arg_types]))
        rng.shuffle(space)
        keep = rng.randint(0, max(1, int(len(space) * 0.4)))
        for combo in space[:keep]:
            kb.add(Atom(pred, combo))
    var_pool = {t: [V(f"{t.upper()}{j}", t) for j in range(3)] for t in types}
    body = []
    used_vars: list[Term] = []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(predicates)
        args = []
        for t in pred.arg_types:
            if rng.random() < 0.7:
                var = rng.choice(var_pool[t])
                args.append(var)
                if var not in used_vars:
                    used_vars.append(var)
            else:
                args.append(rng.choice(constants[t]))
        body.append(Literal(Atom(pred, tuple(args)), negated=rng.random() < 0.25))
    partial = Substitution()
    for var in used_vars:
        if rng.random() < 0.25:
            partial = partial.bind(var, rng.choice(constants[var.type_tag]))
    return body, partial, kb
