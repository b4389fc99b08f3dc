"""Typed first-order terms, unification, and conjunctive queries over ground facts.

The knowledge base is closed-world: a ground atom is true iff it is stored as a
fact, and negated literals are handled by negation-as-failure.  Query
satisfaction runs depth-first, left to right, visiting candidate facts in
knowledge-base insertion order, and stops at the first full solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence


class UnknownConstantError(ValueError):
    """A query or example mentions a constant the knowledge base has never seen."""


@dataclass(frozen=True, slots=True)
class Term:
    """A constant or a logical variable carrying an entity type."""

    name: str
    type_tag: str
    is_variable: bool = False

    @staticmethod
    def constant(name: str, type_tag: str) -> "Term":
        return Term(name, type_tag, False)

    @staticmethod
    def variable(name: str, type_tag: str) -> "Term":
        return Term(name, type_tag, True)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Predicate:
    """A predicate symbol with its declared argument types."""

    name: str
    arg_types: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: Predicate
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} expects {self.predicate.arity} arguments, "
                f"got {len(self.args)}"
            )
        for term, expected in zip(self.args, self.predicate.arg_types):
            if term.type_tag != expected:
                raise ValueError(
                    f"argument {term.name} of {self.predicate.name} has type "
                    f"{term.type_tag}, expected {expected}"
                )

    @property
    def is_ground(self) -> bool:
        return not any(t.is_variable for t in self.args)

    def variables(self) -> Iterator[Term]:
        for t in self.args:
            if t.is_variable:
                yield t

    def __str__(self) -> str:
        return f"{self.predicate.name}({', '.join(t.name for t in self.args)})"


@dataclass(frozen=True, slots=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("¬" if self.negated else "") + str(self.atom)


class Substitution:
    """An immutable variable-binding map.

    Bindings may chain through other variables; :meth:`walk` resolves a term to
    its final value, so applying a substitution is idempotent.  A variable can
    be bound at most once.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[dict[Term, Term]] = None):
        self._bindings: dict[Term, Term] = dict(bindings) if bindings else {}

    def walk(self, term: Term) -> Term:
        b = self._bindings
        while term.is_variable:
            nxt = b.get(term)
            if nxt is None:
                return term
            term = nxt
        return term

    def bind(self, var: Term, value: Term) -> "Substitution":
        if not var.is_variable:
            raise ValueError(f"cannot bind non-variable {var.name}")
        if var in self._bindings:
            raise ValueError(f"variable {var.name} is already bound")
        if var.type_tag != value.type_tag:
            raise ValueError(
                f"type clash binding {var.name}:{var.type_tag} to "
                f"{value.name}:{value.type_tag}"
            )
        new = Substitution.__new__(Substitution)
        merged = dict(self._bindings)
        merged[var] = value
        new._bindings = merged
        return new

    def get(self, var: Term) -> Optional[Term]:
        """Resolved value of ``var``, or None when unbound."""
        walked = self.walk(var)
        return None if walked == var else walked

    def apply(self, atom: Atom) -> Atom:
        """Replace every bound variable in ``atom``; unbound ones pass through."""
        return Atom(atom.predicate, tuple(self.walk(t) for t in atom.args))

    def items(self):
        return self._bindings.items()

    def __contains__(self, var: Term) -> bool:
        return var in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __repr__(self) -> str:
        parts = sorted(f"{v.name}/{self.walk(v).name}" for v in self._bindings)
        return "{" + ", ".join(parts) + "}"


EMPTY_SUBSTITUTION = Substitution()


def unify(a: Atom, b: Atom, seed: Optional[Substitution] = None) -> Optional[Substitution]:
    """Most general unifier of two atoms extending ``seed``, or None on failure.

    Predicate, arity, or type clashes and distinct constants all fail.  On
    success, applying the result to both atoms yields identical atoms.
    """
    if a.predicate != b.predicate:
        return None
    subst = seed if seed is not None else EMPTY_SUBSTITUTION
    for x, y in zip(a.args, b.args):
        x = subst.walk(x)
        y = subst.walk(y)
        if x == y:
            continue
        if x.type_tag != y.type_tag:
            return None
        if x.is_variable:
            subst = subst.bind(x, y)
        elif y.is_variable:
            subst = subst.bind(y, x)
        else:
            return None  # two distinct constants
    return subst


@dataclass(frozen=True, slots=True)
class Clause:
    """A conjunctive body implying a target head."""

    head: Atom
    body: tuple[Literal, ...]

    def body_predicates(self) -> tuple[str, ...]:
        return tuple(sorted({lit.atom.predicate.name for lit in self.body}))

    def __str__(self) -> str:
        body = " ∧ ".join(str(lit) for lit in self.body) if self.body else "true"
        return f"{body} ⇒ {self.head}"


class KnowledgeBase:
    """Indexed, append-only store of ground facts.

    Facts are kept in insertion order.  Lookup uses the per-predicate extension
    plus a (predicate, argument position, constant) hash index keyed on the
    first bound argument of a query literal.  Instances are immutable once
    loading finishes and are safe to share across workers.
    """

    def __init__(self, modes=None):
        self._facts: list[Atom] = []
        self._keys: set[tuple] = set()
        self._by_pred: dict[str, list[tuple[str, ...]]] = {}
        self._arg_index: dict[tuple[str, int, str], list[tuple[str, ...]]] = {}
        self._constants: dict[str, Term] = {}
        self._universes: dict[str, list[Term]] = {}
        self.predicates: dict[str, Predicate] = {}
        self.modes = dict(modes) if modes else None
        if self.modes:
            for mode in self.modes.values():
                self.register_predicate(mode.predicate)

    def register_predicate(self, predicate: Predicate) -> None:
        known = self.predicates.get(predicate.name)
        if known is not None and known != predicate:
            raise ValueError(f"conflicting signatures for predicate {predicate.name}")
        if known is None:
            self.predicates[predicate.name] = predicate
            self._by_pred[predicate.name] = []

    def register_constant(self, name: str, type_tag: str) -> Term:
        known = self._constants.get(name)
        if known is not None:
            if known.type_tag != type_tag:
                raise ValueError(
                    f"constant {name} used with conflicting types "
                    f"{known.type_tag} and {type_tag}"
                )
            return known
        term = Term.constant(name, type_tag)
        self._constants[name] = term
        self._universes.setdefault(type_tag, []).append(term)
        return term

    def constant(self, name: str) -> Optional[Term]:
        return self._constants.get(name)

    def add(self, atom: Atom) -> None:
        if not atom.is_ground:
            raise ValueError(f"fact {atom} is not ground")
        self.register_predicate(atom.predicate)
        names = tuple(t.name for t in atom.args)
        key = (atom.predicate.name, names)
        if key in self._keys:
            return
        for term in atom.args:
            self.register_constant(term.name, term.type_tag)
        self._keys.add(key)
        self._facts.append(atom)
        self._by_pred[atom.predicate.name].append(names)
        for pos, name in enumerate(names):
            self._arg_index.setdefault((atom.predicate.name, pos, name), []).append(names)

    @property
    def facts(self) -> tuple[Atom, ...]:
        return tuple(self._facts)

    def universe(self, type_tag: str) -> tuple[Term, ...]:
        return tuple(self._universes.get(type_tag, ()))

    def type_tags(self) -> tuple[str, ...]:
        return tuple(self._universes)

    def candidates(self, pred_name: str, bound: Sequence[tuple[int, str]]):
        """Stored argument tuples possibly matching a literal.

        ``bound`` lists (position, constant name) pairs; only the first one is
        used for index lookup, callers re-check the rest.
        """
        if bound:
            pos, name = bound[0]
            return self._arg_index.get((pred_name, pos, name), ())
        return self._by_pred.get(pred_name, ())

    def __contains__(self, atom: Atom) -> bool:
        return (atom.predicate.name, tuple(t.name for t in atom.args)) in self._keys

    def __len__(self) -> int:
        return len(self._facts)


@dataclass
class SearchStats:
    """Instrumentation for satisfaction searches: ``groundings_visited`` counts
    candidate facts examined while extending positive literals."""

    groundings_visited: int = 0


class SatisfyResult(NamedTuple):
    satisfied: bool
    witness: Optional[Substitution]


def _split_args(atom: Atom, subst: Substitution):
    bound: list[tuple[int, str]] = []
    unbound: list[tuple[int, Term]] = []
    for pos, term in enumerate(atom.args):
        walked = subst.walk(term)
        if walked.is_variable:
            unbound.append((pos, walked))
        else:
            bound.append((pos, walked.name))
    return bound, unbound


def iter_matches(
    atom: Atom,
    subst: Substitution,
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> Iterator[Substitution]:
    """Yield extensions of ``subst`` grounding ``atom`` to stored facts.

    Facts are visited in insertion order (filtered through the argument index
    when some arguments are already bound), so results are deterministic.
    """
    bound, unbound = _split_args(atom, subst)
    for fact_args in kb.candidates(atom.predicate.name, bound):
        if stats is not None:
            stats.groundings_visited += 1
        ok = True
        for pos, name in bound:
            if fact_args[pos] != name:
                ok = False
                break
        if not ok:
            continue
        if not unbound:
            yield subst
            continue
        new_bindings: dict[Term, str] = {}
        for pos, var in unbound:
            name = fact_args[pos]
            seen = new_bindings.get(var)
            if seen is None:
                new_bindings[var] = name
            elif seen != name:  # same variable at two positions
                ok = False
                break
        if not ok:
            continue
        extended = subst
        for var, name in new_bindings.items():
            extended = extended.bind(var, kb.constant(name))
        yield extended


def has_match(atom: Atom, subst: Substitution, kb: KnowledgeBase) -> bool:
    """True when some stored fact grounds ``atom`` under ``subst``."""
    for _ in iter_matches(atom, subst, kb):
        return True
    return False


def satisfy(
    body: Sequence[Literal],
    partial: Optional[Substitution],
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> SatisfyResult:
    """First witness of a conjunctive body, or failure.

    Positive literals are grounded against stored facts by depth-first,
    left-to-right backtracking.  A negated literal succeeds when no grounding
    of its atom is a stored fact (negation-as-failure); it is checked in place
    once all its variables are bound and deferred to the end of the body
    otherwise.  The search stops at the first solution; an empty body is
    trivially satisfied.
    """
    subst = partial if partial is not None else EMPTY_SUBSTITUTION
    n = len(body)

    def solve(i: int, current: Substitution, deferred: tuple[Literal, ...]):
        if i == n:
            for lit in deferred:
                if has_match(lit.atom, current, kb):
                    return None
            return current
        lit = body[i]
        if lit.negated:
            if any(current.walk(t).is_variable for t in lit.atom.args):
                return solve(i + 1, current, deferred + (lit,))
            if has_match(lit.atom, current, kb):
                return None
            return solve(i + 1, current, deferred)
        for extended in iter_matches(lit.atom, current, kb, stats):
            result = solve(i + 1, extended, deferred)
            if result is not None:
                return result
        return None

    witness = solve(0, subst, ())
    return SatisfyResult(witness is not None, witness)


def route_decision(
    context: Sequence[Literal],
    test: Atom,
    base: Optional[Substitution],
    cached: Substitution,
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> Optional[Substitution]:
    """Decide whether ``context AND test`` is satisfiable; None means no.

    ``cached`` must be a witness of ``context`` (extending ``base``).  The fast
    path grounds ``test`` directly under the cached witness; when that fails,
    the whole conjunction is re-satisfied from scratch so the decision never
    depends on which witness happened to be cached.  Returns a witness of the
    extended conjunction to cache for the next decision.

    ``context`` holds only the positive literals of a path.  A false branch
    is taken only once ``context AND test`` is proven unsatisfiable, so every
    extension of that context already satisfies ``NOT test``: conjoining the
    negation would never prune the search and would only be re-proved.
    """
    for extended in iter_matches(test, cached, kb, stats):
        return extended
    return satisfy(tuple(context) + (Literal(test),), base, kb, stats).witness


def satisfy_route(
    body: Sequence[Literal],
    partial: Optional[Substitution],
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> SatisfyResult:
    """Satisfy a body the way a decision path does: one commitment per literal.

    Each literal is decided once, in order, by full satisfiability of the
    prefix up to and including it (via :func:`route_decision`): a positive
    literal extends the running witness, a negated literal holds iff the
    prefix conjoined with its atom has no solution.  A clause produced from a
    root-to-leaf tree path evaluates exactly as the tree routes, which makes
    path-mapped networks agree with their source ensemble; on bodies without
    negation the outcome coincides with :func:`satisfy`.  The prefix keeps
    only the positive literals, as a tree node's context does (see
    :func:`route_decision`), so later literals see variables that occur only
    under an earlier negation as fresh.
    """
    base = partial if partial is not None else EMPTY_SUBSTITUTION
    prefix: list[Literal] = []
    cached = base
    for lit in body:
        extended = route_decision(prefix, lit.atom, base, cached, kb, stats)
        if lit.negated:
            if extended is not None:
                return SatisfyResult(False, None)
        else:
            if extended is None:
                return SatisfyResult(False, None)
            cached = extended
            prefix.append(lit)
    return SatisfyResult(True, cached)
