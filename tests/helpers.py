"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
import re
from pathlib import Path

from liftedrbm.data import ParseError, parse_facts, parse_modes, validate_query
from liftedrbm.logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    RoutingTrie,
    Term,
    _columns,
    iter_matches,
    partition,
    route_decision,
    unify,
)
from liftedrbm.model import probability
from liftedrbm.network import HiddenNode, LiftedRBMNetwork
from liftedrbm.tree import (
    InternalNode,
    LeafNode,
    LeafParams,
    RelationalRegressionTree,
    ZERO_PARAMS,
    _atom,
    _value,
    coordinate_descent,
    generate_candidates,
    make_head,
    sigmoid,
)

# The benchmark's fixture model: the default config trained on fold 0 of the
# seed-11 movie domain, i.e. the same model as the ``movie_model`` fixture.
BOOST_FIXTURE = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "boost_model.json"
# The fixture model of the benchmark's score workload, over the 100-person,
# 100-movie seed-11 domain.
SCORE_FIXTURE = BOOST_FIXTURE.with_name("score_model.json")


def left_sum(values) -> float:
    """The floats of ``values`` added left to right, on every Python: from
    3.12 on, ``sum`` compensates."""
    return functools.reduce(operator.add, values, 0.0)


def V(name: str, type_tag: str) -> Term:
    return Term.variable(name, type_tag)


def C(name: str, type_tag: str) -> Term:
    return Term.constant(name, type_tag)


def atom(pred: Predicate, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


def ground(a: Atom, binding: dict[Term, Term]) -> Atom:
    """``a`` with each variable that ``binding`` binds replaced by its value."""
    return Atom(a.predicate, tuple(binding.get(t, t) for t in a.args))


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


def serialize_facts(kb: KnowledgeBase) -> str:
    """Render all facts back into the file grammar, in insertion order."""
    lines = [f"{a.predicate.name}({', '.join(t.name for t in a.args)})." for a in kb.facts]
    return "\n".join(lines) + ("\n" if lines else "")


def type_tags(kb: KnowledgeBase) -> tuple[str, ...]:
    """Every type an argument of a registered predicate takes, so every type
    of a constant that a fact registered."""
    return tuple(dict.fromkeys(t for p in kb.predicates.values() for t in p.arg_types))


def network_from_clauses(head: Atom, clauses, psi0: float = 0.0) -> LiftedRBMNetwork:
    """A network hand-built from (clause, parameters) pairs, one hidden node
    each, as if every clause were a path of tree 0."""
    hidden = [HiddenNode(i, clause, params, (0, i)) for i, (clause, params) in enumerate(clauses)]
    return LiftedRBMNetwork(head, psi0, hidden)


# --- reference searches ---------------------------------------------------

def reference_satisfy(body, partial, kb: KnowledgeBase, stats=None):
    """First witness of a conjunction of positive atoms, or None: a recursive
    depth-first, left-to-right search that returns at the first solution.

    The reference for ``next(logic.witnesses(...), None)``; it shares only
    :func:`~liftedrbm.logic.iter_matches`, so ``stats`` counts the same
    groundings when the generator stops where this search returns.
    """
    n = len(body)

    def solve(i, current):
        if i == n:
            return current
        for extended in iter_matches(body[i], current, kb, stats):
            result = solve(i + 1, extended)
            if result is not None:
                return result
        return None

    return solve(0, {} if partial is None else partial)


def route_body(body, partial: dict[Term, Term], kb: KnowledgeBase, stats=None):
    """The witness with which a signed ``body`` holds from ``partial``, or None,
    by the walk that routes trees and networks: a one-clause
    :class:`~liftedrbm.logic.RoutingTrie` whose head lists the partial's
    bound variables, queried with their values."""
    bound = tuple(partial)
    head = Atom(Predicate("route", tuple(var.type_tag for var in bound)), bound)
    fired = RoutingTrie([Clause(head, tuple(body))]).walk(ground(head, partial), kb, stats)
    return fired[0][1] if fired else None


def atom_partition(test: Atom, bound_vars, items, kb: KnowledgeBase, head: int) -> bytes:
    """``logic.partition`` of (item, rows of a context binding
    ``bound_vars``, the first ``head`` of them the head's) by a named atom
    ``test``, read as a batch walk reads a branch's atom."""
    positions, columns, _, filters = _columns(test, bound_vars)
    return partition(columns, kb.projection(test.predicate.name, positions, filters), items, head)


def scan_partition(columns, values, items, head=None) -> bytes:
    """The plain per-row scan ``logic.partition`` must equal: 1 for an item
    iff the values at ``columns`` of one of its rows are in ``values``
    (``head`` is read by nothing here)."""
    read = operator.itemgetter(*columns) if columns else (lambda row: ())
    return bytes([any(read(row) in values for row in rows) for _, rows in items])


def atom_restates(test: Atom, bound, context) -> bool:
    """Whether renaming ``test``'s variables outside ``bound`` makes it an
    atom of ``context``, each such variable renamed one way wherever it
    stands: then ``test`` holds on every witness of the context."""
    for other in context:
        if other.predicate != test.predicate:
            continue
        renaming: dict[Term, Term] = {}
        for mine, theirs in zip(test.args, other.args):
            if mine.is_variable and mine not in bound:
                if renaming.setdefault(mine, theirs) != theirs:
                    break
            elif mine != theirs:
                break
        else:
            return True
    return False


# --- reference leaf fit ----------------------------------------------------

def _reference_partials(p):
    s_pos = sigmoid(p[1] + p[2] + p[4])
    s_neg = sigmoid(p[1] + p[2] + p[3])
    return (1.0, s_pos - s_neg, s_pos - s_neg, -s_neg, s_pos)


def reference_coordinate_descent(
    deltas, theta0=ZERO_PARAMS, learning_rate=0.05, max_iters=500, tolerance=1e-8
):
    """The reference for :func:`~liftedrbm.tree.coordinate_descent`: each
    coordinate's step evaluates the leaf value and all five partials afresh,
    through :func:`~liftedrbm.tree._value` and :func:`sigmoid`.

    This is the loop the written-out cycle replaced, kept as it was: an
    objective whose square overflows raises ``OverflowError`` here.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if not deltas:
        return theta0
    mean = left_sum(deltas) / len(deltas)
    p = list(theta0)
    previous = (_value(p) - mean) ** 2
    for cycle in range(max_iters):
        for coord in range(5):
            grad = 2.0 * (_value(p) - mean) * _reference_partials(p)[coord]
            p[coord] -= learning_rate * grad
        current = (_value(p) - mean) ** 2
        if not (current < previous and previous - current >= tolerance):
            if not current <= previous:
                return reference_coordinate_descent(
                    deltas, theta0, learning_rate, cycle, tolerance
                )
            break
        previous = current
    return LeafParams(*p)


# --- brute-force satisfaction oracle ---------------------------------------

def _oracle_groundings(atoms, partial, kb: KnowledgeBase):
    """Yield ``partial`` extended by each type-consistent grounding of the
    atoms' free variables that makes every atom a stored fact."""
    free: list[Term] = []
    for a in atoms:
        for var in a.variables():
            if var not in partial and var not in free:
                free.append(var)
    universes = [kb.universe(v.type_tag) for v in free]
    for combo in itertools.product(*universes):
        binding = {**partial, **dict(zip(free, combo))}
        if all(ground(a, binding) in kb for a in atoms):
            yield binding


def oracle_satisfy(body, partial, kb: KnowledgeBase) -> bool:
    """Exhaustive-enumeration satisfiability of positive literals, independent
    of the search code.

    Enumerates every type-consistent grounding of the body's variables and
    holds iff some grounding makes every literal a stored fact.
    """
    return any(True for _ in _oracle_groundings([lit.atom for lit in body], partial, kb))


def oracle_witnesses(atoms, partial, kb: KnowledgeBase) -> list[dict[Term, Term]]:
    """Every witness of a conjunction of positive atoms by exhaustive
    enumeration: ``partial`` extended by each grounding of the free variables
    that makes every atom a stored fact, in no particular order."""
    return list(_oracle_groundings(atoms, partial, kb))


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


def oracle_tree_paths(tree, query, kb: KnowledgeBase) -> list[int]:
    """Positions, in ``tree.paths()`` order, of the path clauses that
    :func:`oracle_route` satisfies for ``query``; routing code is not used."""
    partial = unify(tree.head, query)
    return [
        i for i, (literals, _) in enumerate(tree.paths())
        if partial is not None and oracle_route(literals, partial, kb)
    ]


def oracle_per_tree(trees, query, kb: KnowledgeBase) -> tuple[float, ...]:
    """The leaf value of the one path of each tree that the oracle satisfies."""
    values = []
    for tree in trees:
        fired = oracle_tree_paths(tree, query, kb)
        assert len(fired) == 1, f"{len(fired)} paths of a tree hold for {query}"
        leaves = [leaf for _, leaf in tree.paths()]
        values.append(leaves[fired[0]].params.value())
    return tuple(values)



def reference_train_loop(model, labeled, kb: KnowledgeBase):
    """What ``train`` reports and adds up for ``model``, trained on the
    (query, label) pairs ``labeled``, by a loop over the examples: per tree,
    its ``progress(index, sse, mean_abs)`` arguments, and each example's
    leaf-value sum before it, with one list more for the sums after the
    last tree.  Before each tree an example's gradient is its label less
    ``probability(psi0 + sum)``; its leaf value is the one ``model.per_tree``
    routes it to, added onto its sum, and ``(value - gradient) ** 2`` onto
    the tree's error, both from ``0.0`` and left to right."""
    routed = [model.per_tree(query, kb) for query, _ in labeled]
    sums = [0.0] * len(labeled)
    reports, sums_before = [], []
    for index in range(len(model.trees)):
        sums_before.append(list(sums))
        gradients = [
            label - probability(model.psi0 + total, model.config.psi_clamp)
            for (_, label), total in zip(labeled, sums)
        ]
        sse = 0.0
        for i, gradient in enumerate(gradients):
            value = routed[i][index]
            sums[i] += value
            sse += (value - gradient) ** 2
        reports.append((index + 1, sse, left_sum(abs(g) for g in gradients) / len(gradients)))
    return reports, sums_before + [sums]

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
    partial = {}
    for var in used_vars:
        if rng.random() < 0.25:
            partial[var] = rng.choice(constants[var.type_tag])
    return body, partial, kb


# --- exhaustive tree fitter ------------------------------------------------

def exhaustive_fit_tree(
    queries,
    gradients,
    max_leaves,
    modes,
    kb: KnowledgeBase,
    *,
    learning_rate=0.05,
    cd_max_iters=500,
    cd_tolerance=1e-8,
    max_new_vars=1,
    max_depth=None,
):
    """Best-first tree induction that fits both leaves of every candidate.

    The reference for :func:`~liftedrbm.tree.fit_regression_tree`, which
    skips candidates by a bound: the same node order, candidate order,
    splits, leaf fits and strict first-minimum choice, with no pruning.  It
    names every candidate under its node's used names, and each split
    decides every item with its own ``route_decision`` call, keeping no fit
    plans, fact views or witnesses of the node's context, and the true side
    chains the witness that call returns.  ``gradients`` are the
    targets of ``queries`` by position.  Returns the tree and each query's
    leaf value in ``queries`` order.
    """
    head = make_head(queries[0].predicate)

    def fit(items):
        deltas = [gradients[position] for position, _, _ in items]
        params = coordinate_descent(
            left_sum(deltas) / len(deltas), learning_rate=learning_rate, max_iters=cd_max_iters,
            tolerance=cd_tolerance,
        )
        value = params.value()
        return params, left_sum((value - d) ** 2 for d in deltas)

    def node(items, depth, context, bound_vars, used_names, fitted_leaf):
        params, sse = fitted_leaf
        return {"items": items, "depth": depth, "context": context, "bound_vars": bound_vars,
                "used_names": used_names, "params": params, "sse": sse, "split": None}

    items = [(position, unify(head, q), unify(head, q)) for position, q in enumerate(queries)]
    root = node(items, 0, (), head.args, frozenset(t.name for t in head.args), fit(items))
    tick = itertools.count()
    frontier = []

    def push(n):
        if (max_depth is None or n["depth"] < max_depth) and n["sse"] > 1e-12 and len(n["items"]) >= 2:
            heapq.heappush(frontier, (-n["sse"], next(tick), n))

    push(root)
    leaves = 1
    while leaves < max_leaves and frontier:
        _, _, n = heapq.heappop(frontier)
        best = None
        for predicate, slots in generate_candidates(
            n["bound_vars"], modes, max_new_vars=max_new_vars,
            exclude_predicates=(head.predicate.name,),
        ):
            candidate = Literal(_atom(predicate, slots, n["used_names"]))
            left, right = [], []
            for position, base, cached in n["items"]:
                extended = route_decision(n["context"], candidate.atom, base, cached, kb)
                if extended is None:
                    right.append((position, base, cached))
                else:
                    left.append((position, base, extended))
            if left and right:
                fit_left, fit_right = fit(left), fit(right)
                score = fit_left[1] + fit_right[1]
                if best is None or score < best[0]:
                    best = (score, candidate, left, right, fit_left, fit_right)
        if best is None:
            continue
        _, candidate, left, right, fit_left, fit_right = best
        new_vars = tuple(v for v in candidate.atom.variables() if v not in n["bound_vars"])
        names = n["used_names"] | {t.name for t in candidate.atom.variables()}
        true_child = node(left, n["depth"] + 1, n["context"] + (candidate.atom,),
                          n["bound_vars"] + new_vars, names, fit_left)
        false_child = node(right, n["depth"] + 1, n["context"], n["bound_vars"], names, fit_right)
        n["split"] = (candidate, true_child, false_child)
        leaves += 1
        push(true_child)
        push(false_child)

    values = [None] * len(queries)

    def build(n):
        if n["split"] is None:
            for position, _, _ in n["items"]:
                values[position] = n["params"].value()
            return LeafNode(n["params"])
        candidate, true_child, false_child = n["split"]
        return InternalNode(candidate, build(true_child), build(false_child))

    tree = RelationalRegressionTree(head, build(root))
    return tree, values


# --- the reading path as it was before examples shared the base's terms ----

_ORACLE_ATOM = re.compile(r"^([a-z][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*\.?\s*$")
_ORACLE_TOKEN = re.compile(r"^[A-Za-z0-9_]+$")


def _oracle_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if line:
            yield line_no, line


def oracle_parse_atom(text: str, predicates: dict[str, Predicate], require_ground: bool) -> Atom:
    """One atom read argument by argument, each checked by its own regex
    match, and each constant a fresh ``Term.constant``."""
    text = text.strip()
    match = _ORACLE_ATOM.match(text)
    if match is None:
        raise ParseError(f"malformed atom {text!r}")
    name, args_text = match.groups()
    tokens = [tok.strip() for tok in args_text.split(",")] if args_text else []
    for tok in tokens:
        if not _ORACLE_TOKEN.match(tok):
            raise ParseError(f"malformed argument {tok!r}")
    predicate = predicates.get(name)
    if predicate is None:
        raise ParseError(f"no mode declaration for predicate {name}")
    if len(tokens) != predicate.arity:
        raise ParseError(f"{name} expects {predicate.arity} arguments, got {len(tokens)}")
    args = []
    for tok, type_tag in zip(tokens, predicate.arg_types):
        if tok[0].isupper():
            if require_ground:
                raise ParseError(f"expected a ground atom, found variable {tok}")
            args.append(Term.variable(tok, type_tag))
        else:
            args.append(Term.constant(tok, type_tag))
    return Atom(predicate, tuple(args))


def oracle_parse_facts(text: str, modes) -> KnowledgeBase:
    """``parse_facts`` by :func:`oracle_parse_atom`: every fact is made of
    fresh terms, so ``KnowledgeBase.add`` registers each of its constants."""
    kb = KnowledgeBase(modes)
    for line_no, line in _oracle_lines(text):
        try:
            kb.add(oracle_parse_atom(line, kb.predicates, True))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return kb


def oracle_parse_examples(text: str, kb: KnowledgeBase, target: Predicate) -> list[Atom]:
    """``parse_examples`` by :func:`oracle_parse_atom` and ``validate_query``,
    a repeat found by comparing whole atoms."""
    predicates = {**kb.predicates, target.name: target}
    seen: set[Atom] = set()
    examples: list[Atom] = []
    for line_no, line in _oracle_lines(text):
        try:
            atom = oracle_parse_atom(line, predicates, True)
            validate_query(atom, target, kb)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        if atom not in seen:
            seen.add(atom)
            examples.append(atom)
    return examples


def oracle_label_overlap(positives, negatives) -> list[str]:
    """The examples given both labels, found by their printed forms."""
    return sorted({str(a) for a in positives} & {str(a) for a in negatives})


def recording_pool(sizes: list):
    """A stand-in for ``concurrent.futures.ProcessPoolExecutor`` that starts
    no process: each pool appends its ``max_workers`` to ``sizes`` and maps
    in this process."""

    class RecordingPool:
        map = staticmethod(map)

        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    return RecordingPool
