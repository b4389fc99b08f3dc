"""Typed first-order terms and conjunctive queries over ground facts.

The knowledge base is closed-world: a ground atom is true iff it is stored as a
fact.  A binding is a plain dict from variables to constants: :func:`unify`
matches a clause head against a ground query, and each search step binds a
body variable to a stored constant, so no variable is ever bound to another.
:func:`witnesses` is the one search: it proves a conjunction of
positive atoms depth-first, left to right, visiting candidate facts in
knowledge-base insertion order, and yields each full solution lazily, so its
first costs only the search up to it.  A negated literal has one meaning, the
one a tree's false branch gives it: ``NOT atom`` after a prefix holds iff
``prefix AND atom`` has no solution.  A :class:`RoutingTrie` walk is the one
place that reads it; a signed body is routed by walking a one-clause trie.

A tree fit and :meth:`RoutingTrie.walk_many` decide on rows instead, each a
witness as the names it binds, and both through :func:`partition`: a test of
each item's rows against a knowledge base's :meth:`~KnowledgeBase.projection`
(a semi-join; Bernstein and Chiu, JACM 1981).  An item's leading columns
hold its query's head values in every row, so a key on them is looked up
once per item, not once per row.  :func:`join` extends the rows (tuple-ID
propagation; Yin et al., CrossMine, ICDE 2004).  These fact views depend on
the facts alone, so the knowledge base builds each once and keeps it until a
new fact arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterator, Optional, Sequence


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


def unify(pattern: Atom, atom: Atom) -> Optional[dict[Term, Term]]:
    """The binding of ``pattern``'s variables that makes it ``atom``, or None.

    ``atom`` must be ground: a non-ground one matches nothing.  A predicate
    clash or two distinct constants fail, and a variable repeated in
    ``pattern`` must meet one constant at each of its positions.
    """
    if pattern.predicate != atom.predicate or not atom.is_ground:
        return None
    binding: dict[Term, Term] = {}
    for x, y in zip(pattern.args, atom.args):
        if x.is_variable:
            if binding.setdefault(x, y) != y:
                return None
        elif x != y:
            return None
    return binding


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


class Projection(set):
    """The values of a :meth:`KnowledgeBase.projection`, which also keeps
    them grouped by some of their components (:meth:`grouped`)."""

    __slots__ = ("_groups",)

    def __init__(self, values):
        super().__init__(values)
        self._groups: dict[tuple[int, ...], dict] = {}

    def grouped(self, inner: tuple[int, ...], outer: tuple[int, ...]) -> dict:
        """The values, tuples of several components, grouped by their
        components at ``inner``: for each part there (one name, or a tuple
        for several), the set of the parts at ``outer`` of the values that
        hold it.  Built on first use and kept with the projection."""
        groups = self._groups.get(inner)
        if groups is None:
            groups = self._groups[inner] = {}
            part, rest = itemgetter(*inner), itemgetter(*outer)
            for value in self:
                groups.setdefault(part(value), set()).add(rest(value))
        return groups


class KnowledgeBase:
    """Indexed, append-only store of ground facts.

    Facts are kept in insertion order.  Lookup uses the per-predicate extension
    plus a (predicate, argument position, constant) hash index keyed on the
    first bound argument of a query literal.  The views of the facts that
    rows are decided and joined on (:meth:`projection`, :meth:`grouping`)
    are built on first use and kept, and so is each projection's grouping
    by a key's head part (:meth:`Projection.grouped`); :meth:`add` drops
    them all whenever it stores a new fact.
    """

    def __init__(self, modes=None):
        self._facts: list[Atom] = []
        self._keys: set[tuple] = set()
        self._by_pred: dict[str, list[tuple[str, ...]]] = {}
        self._arg_index: dict[tuple[str, int, str], list[tuple[str, ...]]] = {}
        self._projections: dict[tuple, Projection] = {}
        self._groupings: dict[tuple, dict] = {}
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
        # What this base already holds as the very objects needs no registering.
        if self.predicates.get(atom.predicate.name) is not atom.predicate:
            self.register_predicate(atom.predicate)
        names = tuple([t.name for t in atom.args])
        key = (atom.predicate.name, names)
        if key in self._keys:
            return
        for term in atom.args:
            if self._constants.get(term.name) is not term:
                self.register_constant(term.name, term.type_tag)
        self._keys.add(key)
        self._facts.append(atom)
        self._by_pred[atom.predicate.name].append(names)
        for pos, name in enumerate(names):
            self._arg_index.setdefault((atom.predicate.name, pos, name), []).append(names)
        self._projections.clear()
        self._groupings.clear()

    @property
    def facts(self) -> tuple[Atom, ...]:
        return tuple(self._facts)

    def universe(self, type_tag: str) -> tuple[Term, ...]:
        return tuple(self._universes.get(type_tag, ()))

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

    def _matching(self, name: str, filters) -> list[tuple[str, ...]]:
        """The argument tuples of predicate ``name``'s facts that pass the
        filters of :func:`_columns`, in insertion order."""
        constants, repeats = filters
        return [
            args for args in self.candidates(name, constants)
            if all(args[pos] == value for pos, value in constants)
            and all(args[pos] == args[other] for pos, other in repeats)
        ]

    def projection(self, name: str, positions: tuple[int, ...], filters=((), ())) -> Projection:
        """The values (:func:`_key`) at ``positions`` of predicate ``name``'s
        facts that pass ``filters`` (see :func:`_columns`).  An atom whose
        bound arguments stand at ``positions`` and whose other arguments
        ``filters`` describe holds under a row iff the row's values at those
        arguments' columns are in the set."""
        key = (name, positions, filters)
        values = self._projections.get(key)
        if values is None:
            facts = self._matching(name, filters)
            values = self._projections[key] = Projection(map(_key(positions), facts))
        return values

    def grouping(self, test: Atom, bound_vars: Sequence[Term]):
        """The columns in ``bound_vars`` of ``test``'s bound arguments, and
        the facts ``test`` can match grouped by their values there: for each
        value, the names at ``test``'s fresh positions of each fact holding
        it, in insertion order."""
        positions, columns, free, filters = _columns(test, bound_vars)
        key = (test.predicate.name, positions, free, filters)
        groups = self._groupings.get(key)
        if groups is None:
            groups = self._groupings[key] = {}
            read = _key(positions)
            for args in self._matching(test.predicate.name, filters):
                groups.setdefault(read(args), []).append(tuple([args[pos] for pos in free]))
        return columns, groups


@dataclass
class SearchStats:
    """Instrumentation for satisfaction searches: ``groundings_visited`` counts
    candidate facts examined while extending positive literals."""

    groundings_visited: int = 0


def _split_args(atom: Atom, binding: dict[Term, Term]):
    bound: list[tuple[int, str]] = []
    unbound: list[tuple[int, Term]] = []
    for pos, term in enumerate(atom.args):
        value = binding.get(term, term)
        if value.is_variable:
            unbound.append((pos, value))
        else:
            bound.append((pos, value.name))
    return bound, unbound


def iter_matches(
    atom: Atom,
    binding: dict[Term, Term],
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> Iterator[dict[Term, Term]]:
    """Yield extensions of ``binding`` grounding ``atom`` to stored facts.

    Facts are visited in insertion order (filtered through the argument index
    when some arguments are already bound), so results are deterministic.  A
    fact that binds a new variable yields a copy of ``binding`` extended by
    it; one that binds none yields ``binding`` itself.
    """
    bound, unbound = _split_args(atom, binding)
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
            yield binding
            continue
        extended = dict(binding)
        for pos, var in unbound:
            value = kb.constant(fact_args[pos])
            if extended.setdefault(var, value) is not value:  # same variable at two positions
                break
        else:
            yield extended


def witnesses(
    body: Sequence[Atom],
    partial: Optional[dict[Term, Term]],
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> Iterator[dict[Term, Term]]:
    """Lazily yield every witness of a conjunction of positive atoms.

    Atoms are grounded against stored facts by depth-first, left-to-right
    backtracking, so ``next(witnesses(...), None)`` is the first witness and
    stops there; an empty body has one witness, ``partial`` itself.  The
    witnesses are distinct: facts are stored once, so two groundings of an
    atom never bind its variables alike.
    """
    return _solve(body, 0, {} if partial is None else partial, kb, stats)


def _solve(
    body: Sequence[Atom],
    i: int,
    binding: dict[Term, Term],
    kb: KnowledgeBase,
    stats: Optional[SearchStats],
) -> Iterator[dict[Term, Term]]:
    """The witnesses of ``body[i:]`` extending ``binding``, depth first; not a
    closure calling itself, which would be a reference cycle per search."""
    if i == len(body):
        yield binding
        return
    for extended in iter_matches(body[i], binding, kb, stats):
        yield from _solve(body, i + 1, extended, kb, stats)


def route_decision(
    context: Sequence[Atom],
    test: Atom,
    base: Optional[dict[Term, Term]],
    cached: dict[Term, Term],
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> Optional[dict[Term, Term]]:
    """Decide whether ``context AND test`` is satisfiable; None means no.

    ``cached`` must be a witness of ``context`` (extending ``base``).  The fast
    path grounds ``test`` directly under the cached witness; when that fails,
    the whole conjunction is re-satisfied from scratch so the decision never
    depends on which witness happened to be cached.  Returns a witness of the
    extended conjunction to cache for the next decision: when the fast path
    fails, the first of :func:`witnesses` of ``context + (test,)`` from
    ``base``.
    When ``cached is base``, ``base`` itself grounds the context, so it is the
    context's only witness and the fast path was the whole search.  Only
    :meth:`RoutingTrie.walk` decides here: a fit and
    :meth:`RoutingTrie.walk_many` decide on rows, by :func:`partition`.

    ``context`` holds the atoms of a path's positive tests only.  A false
    branch is taken only once ``context AND test`` is proven unsatisfiable, so
    every extension of that context already satisfies ``NOT test``: conjoining
    the negation would never prune the search and would only be re-proved.
    """
    for extended in iter_matches(test, cached, kb, stats):
        return extended
    if cached is base:
        return None
    return next(witnesses(tuple(context) + (test,), base, kb, stats), None)


def _key(columns: Sequence[int]):
    """A function reading the values at ``columns`` of a row or a fact, as
    the keys of a projection or a grouping: one name for one column, a
    tuple for several, ``()`` for none."""
    return itemgetter(*columns) if columns else lambda row: ()


def _columns(test: Atom, bound_vars: Sequence[Term]):
    """How ``test`` reads a row binding ``bound_vars``: its bound positions,
    their columns, its fresh variables' first positions, and the filters on
    its predicate's facts: (position, name) for a constant and (position,
    earlier position) for a fresh variable met again."""
    positions, columns, free, constants, repeats = [], [], [], [], []
    first: dict[Term, int] = {}
    for pos, term in enumerate(test.args):
        if not term.is_variable:
            constants.append((pos, term.name))
        elif term in bound_vars:
            positions.append(pos)
            columns.append(bound_vars.index(term))
        elif term in first:
            repeats.append((pos, first[term]))
        else:
            first[term] = pos
            free.append(pos)
    return tuple(positions), tuple(columns), tuple(free), (tuple(constants), tuple(repeats))


def join(test: Atom, bound_vars: Sequence[Term], items, kb: KnowledgeBase):
    """Each (item, rows of a context binding ``bound_vars``) turned into
    (item, its rows of that context extended by ``test``): each row followed
    by the fresh names of each fact of ``kb``'s :meth:`~KnowledgeBase.grouping`
    that it meets.  Rows keep their order and facts their insertion order,
    so the rows are those of :func:`witnesses`, in its order; an item no row
    of which meets a fact gets none."""
    columns, groups = kb.grouping(test, bound_vars)
    read = _key(columns)
    return [
        (item, tuple([row + new for row in rows for new in groups.get(read(row), ())]))
        for item, rows in items
    ]


# Turns a :func:`partition` selector into its complement.
FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def partition(columns: Sequence[int], values: Projection, items, head: int) -> bytes:
    """Which (item, rows of a context) satisfy ``context AND test``: one
    byte per item, 1 iff one of its rows holds at ``columns``, the columns
    of ``test``'s bound arguments, a value of ``values``, their
    :meth:`~KnowledgeBase.projection`, since only those values join with
    the context.  A fit's candidate split and a batch walk's branch are
    both decided here.

    The first ``head`` columns hold the names the item's query binds to
    the head: the root row is those names, a join only appends columns and
    a false branch keeps its rows, so they are the same in every row of an
    item.  A key that reads only such columns, or none, is decided by
    looking up the first row's values; one that also reads later columns
    looks up the first row's head values in ``values`` grouped by its head
    part (:meth:`Projection.grouped`), then scans the rows' other values
    alone; any other key scans every row's values.  An item with no rows
    is on the false side.  Each way gives the selector of the plain scan
    (the factorised rows of Olteanu and Závodný, TODS 2015: every row
    repeats its item's head part)."""
    inner = tuple([i for i, column in enumerate(columns) if column < head])
    if len(inner) == len(columns):
        read = _key(columns)
        return bytes([bool(rows) and read(rows[0]) in values for _, rows in items])
    if inner:
        outer = tuple([i for i, column in enumerate(columns) if column >= head])
        groups = values.grouped(inner, outer)
        read_head = _key([columns[i] for i in inner])
        read = _key([columns[i] for i in outer])
        return bytes([
            bool(rows) and (part := read_head(rows[0])) in groups
            and not groups[part].isdisjoint(map(read, rows))
            for _, rows in items
        ])
    read, isdisjoint = _key(columns), values.isdisjoint
    return bytes([not isdisjoint(map(read, rows)) for _, rows in items])


class _TrieNode:
    """A point in a routing trie: the clauses that end here, and one branch
    ``[atom, positive child, negated child]`` per distinct next atom."""

    __slots__ = ("ends", "branches")

    def __init__(self):
        self.ends: list[int] = []
        self.branches: list[list] = []

    def insert(self, body: Sequence[Literal], clause_id: int) -> None:
        node = self
        for lit in body:
            for branch in node.branches:
                if branch[0] == lit.atom:
                    break
            else:
                branch = [lit.atom, None, None]
                node.branches.append(branch)
            side = 2 if lit.negated else 1
            if branch[side] is None:
                branch[side] = _TrieNode()
            node = branch[side]
        node.ends.append(clause_id)


class RoutingTrie:
    """Clauses merged on (head, signed literal sequence), routed in one walk.

    Clauses with the same head and the same leading literals share those
    trie nodes, so each shared literal is decided once per query, and a
    literal and its negation at the same point share one decision.  Sharing
    is exact: an identical literal sequence under an identical head means an
    identical context, test, head unifier and chain of cached witnesses, so
    every decision, and every witness, is the one the clause would get on
    its own (the argument by which a fit plan's false child, whose context
    is its parent's, takes its parent's decisions; see
    :meth:`~liftedrbm.tree._Plan.child`).
    A clause is identified by its position in ``clauses``.  A trie keeps no
    state of a walk; :meth:`walk_many` routes a batch, without witnesses.
    """

    __slots__ = ("_roots",)

    def __init__(self, clauses: Sequence[Clause]):
        roots: dict[Atom, _TrieNode] = {}
        for clause_id, clause in enumerate(clauses):
            roots.setdefault(clause.head, _TrieNode()).insert(clause.body, clause_id)
        self._roots = roots

    def walk(
        self,
        query: Atom,
        kb: KnowledgeBase,
        stats: Optional[SearchStats] = None,
    ) -> list[tuple[int, dict[Term, Term]]]:
        """(clause id, witness) of every clause that holds for ``query``, in
        clause order; a clause whose head does not unify with it never holds.

        The walk starts at each root whose head unifies with ``query``, with
        the head unifier as ``base``.  A node's context is the positive atoms
        on its way from the root and its cached witness the last positive
        extension (``base`` at the root).  Each branch's atom is decided
        once, by :func:`route_decision`; a satisfied atom descends into its
        positive child with the extended witness, an unsatisfied one into its
        negated child with the node's context and witness.  A clause ending
        at a node holds with that node's witness.  So a negated literal holds
        iff its positive prefix conjoined with its atom has no solution, and
        later literals see a variable that occurs only under an earlier
        negation as fresh.
        """
        fired: list[tuple[int, dict[Term, Term]]] = []
        for head, root in self._roots.items():
            base = unify(head, query)
            if base is None:
                continue
            stack = [(root, (), base)]
            while stack:
                node, context, cached = stack.pop()
                for clause_id in node.ends:
                    fired.append((clause_id, cached))
                for atom, yes, no in node.branches:
                    extended = route_decision(context, atom, base, cached, kb, stats)
                    if extended is not None:
                        if yes is not None:
                            stack.append((yes, context + (atom,), extended))
                    elif no is not None:
                        stack.append((no, context, cached))
        fired.sort(key=itemgetter(0))
        return fired

    def walk_many(self, queries: Sequence[Atom], kb: KnowledgeBase) -> list[list[int]]:
        """For each query, ``[i for i, _ in self.walk(query, kb)]``, decided
        for the whole batch at once on rows.

        A query enters each root its head unifies with as an item with one
        row, the names the unifier binds; a node's items carry every witness
        of its context as rows, the first columns the head's variables.
        :func:`partition` decides ``context AND atom`` for them all: the
        items it selects go to the positive child, their rows extended by
        :func:`join`, the rest to the negated child unchanged.  Under a head
        of distinct variables, a ground query of its predicate unifies and
        its row is its arguments' names.  The projections and groupings are
        ``kb``'s, kept for later batches until it gains a fact."""
        fired: list[list[int]] = [[] for _ in queries]
        for head, root in self._roots.items():
            bound = tuple(dict.fromkeys(head.variables()))
            width, predicate = len(bound), head.predicate
            if width == len(head.args):
                items = [(i, (tuple([t.name for t in q.args]),)) for i, q in enumerate(queries)
                         if (q.predicate is predicate or q.predicate == predicate) and q.is_ground]
            else:
                bases = [(i, unify(head, query)) for i, query in enumerate(queries)]
                items = [(i, (tuple([b[v].name for v in bound]),)) for i, b in bases
                         if b is not None]
            stack = [(root, bound, items)] if items else []
            while stack:
                node, bound, items = stack.pop()
                for clause_id in node.ends:
                    for index, _ in items:
                        fired[index].append(clause_id)
                for atom, yes, no in node.branches:
                    positions, columns, _, filters = _columns(atom, bound)
                    values = kb.projection(atom.predicate.name, positions, filters)
                    split = partition(columns, values, items, width)
                    if yes is not None and 1 in split:
                        new = tuple(dict.fromkeys(v for v in atom.variables() if v not in bound))
                        sat = join(atom, bound, compress(items, split), kb)
                        stack.append((yes, bound + new, sat))
                    if no is not None and 0 in split:
                        stack.append((no, bound, list(compress(items, split.translate(FLIP)))))
        return [sorted(ids) for ids in fired]
