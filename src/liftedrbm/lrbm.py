"""Lifted-RBM networks: the scorer of a model and of :mod:`liftedrbm.network`.

A network has one visible node per atomic predicate, one hidden node per
clause (with the five leaf parameters of the clause's source leaf), and two
output nodes.  Visible-to-hidden edges exist only where the predicate occurs
in the hidden clause's body; every hidden node connects to both outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .data import validate_query
from .logic import Atom, Clause, KnowledgeBase, RoutingTrie, SearchStats, Term
from .tree import LeafParams


@dataclass(frozen=True)
class HiddenNode:
    index: int
    clause: Clause
    params: LeafParams
    source: tuple[int, int]  # (tree index, path index)


@dataclass
class LiftedRBMNetwork:
    """Hidden clause nodes over one target; ``psi_clamp`` bounds the potential
    before the sigmoid, as in the source model, whose default it shares.

    The hidden clauses are routed through one
    :class:`~liftedrbm.logic.RoutingTrie` by :meth:`fire`, the one scorer of
    a model's path network and of :func:`~liftedrbm.network.lrbm_inference`:
    clauses with the same head and leading literals decide those literals
    once per query, and activations and witnesses are the ones each clause
    gets on its own.  The trie is built on first use and rebuilt whenever
    ``hidden`` holds other nodes than it was built from: a ``hidden`` list
    is compared node by node on each use, as it may have been edited in
    place, but the tuple the trie was built from is known by identity.
    """

    head: Atom
    psi0: float
    hidden: Sequence[HiddenNode]
    psi_clamp: float = 20.0
    _routing: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _routed(self) -> tuple[tuple[HiddenNode, ...], RoutingTrie, list[float]]:
        """``hidden`` as it is now, its trie and its potentials, in ``hidden``
        order; rebuilt when ``hidden`` has changed."""
        hidden = tuple(self.hidden)  # the very tuple, when it is one
        built = None if self._routing is None else self._routing[0]
        if built is not hidden and built != hidden:
            trie = RoutingTrie([node.clause for node in hidden])
            self._routing = (hidden, trie, [node.params.value() for node in hidden])
        return self._routing

    def fire(
        self, query: Atom, kb: KnowledgeBase, stats: Optional[SearchStats] = None
    ) -> tuple[list[tuple[int, dict[Term, Term]]], tuple[float, ...]]:
        """(position in ``hidden``, witness) of each hidden clause that holds
        for ground ``query``, and their values, in ``hidden`` order, from one
        :meth:`~liftedrbm.logic.RoutingTrie.walk` that counts into ``stats``;
        a query :func:`~liftedrbm.data.validate_query` refuses raises its error."""
        validate_query(query, self.head.predicate, kb)
        _, trie, values = self._routed()
        fired = trie.walk(query, kb, stats)
        return fired, tuple([values[position] for position, _ in fired])

    def fire_many(self, queries: Sequence[Atom], kb: KnowledgeBase) -> list[tuple[float, ...]]:
        """The values :meth:`fire` gives each query, routed as one batch by
        :meth:`~liftedrbm.logic.RoutingTrie.walk_many`; the first query that
        :func:`~liftedrbm.data.validate_query` refuses raises its error."""
        for query in queries:
            validate_query(query, self.head.predicate, kb)
        _, trie, values = self._routed()
        return [tuple([values[i] for i in fired]) for fired in trie.walk_many(queries, kb)]

    @property
    def visible_hidden_edges(self) -> tuple[tuple[str, int], ...]:
        edges = (
            (pred, node.index) for node in self.hidden for pred in node.clause.body_predicates()
        )
        return tuple(sorted(edges))

    @property
    def visible(self) -> tuple[str, ...]:
        return tuple(sorted({pred for pred, _ in self.visible_hidden_edges}))


def path_network(head: Atom, psi0: float, trees, psi_clamp: float) -> LiftedRBMNetwork:
    """A new network with one hidden node per root-to-leaf path of every
    tree, numbered in tree order and, within a tree, in path order."""
    hidden: list[HiddenNode] = []
    for tree_index, tree in enumerate(trees):
        for path_index, (clause, params) in enumerate(tree.path_clauses()):
            hidden.append(HiddenNode(len(hidden), clause, params, (tree_index, path_index)))
    return LiftedRBMNetwork(head, psi0, hidden, psi_clamp)
