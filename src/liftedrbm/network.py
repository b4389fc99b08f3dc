"""Explicit lifted-RBM networks built from tree ensembles.

A network has one visible node per atomic predicate, one hidden node per
clause (with the five leaf parameters of the clause's source leaf), and two
output nodes.  Visible-to-hidden edges exist only where the predicate occurs
in the hidden clause's body; every hidden node connects to both outputs.

Two conversions are provided: exact path mapping (one hidden node per
root-to-leaf path of every tree) and approximate distillation (one tree overfit
to the ensemble's potentials, then path-mapped).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .data import validate_query
from .logic import (
    Atom,
    Clause,
    KnowledgeBase,
    RoutingTrie,
    SearchStats,
    Term,
)
from .model import BoostedModel, TrainConfig, probability
from .tree import LeafParams, fit_regression_tree


@dataclass(frozen=True)
class HiddenNode:
    index: int
    clause: Clause
    params: LeafParams
    source: tuple[int, int]  # (tree index, path index)


@dataclass
class LiftedRBMNetwork:
    """Hidden clause nodes over one target; ``psi_clamp`` bounds the potential
    before the sigmoid, as in the source model.

    The hidden clauses are routed through one
    :class:`~liftedrbm.logic.RoutingTrie`, so clauses with the same head and
    leading literals decide those literals once per query; activations and
    witnesses are the ones each clause gets on its own.  The trie is built
    on first use and rebuilt whenever ``hidden`` holds other nodes than it
    was built from.
    """

    head: Atom
    psi0: float
    hidden: list[HiddenNode]
    psi_clamp: float = TrainConfig.psi_clamp
    _routing: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _routed(self) -> tuple[tuple[HiddenNode, ...], RoutingTrie, list[float]]:
        """``hidden`` as it is now, its trie and its potentials, in ``hidden``
        order; rebuilt when ``hidden`` has changed."""
        hidden = tuple(self.hidden)
        routing = self._routing
        if routing is None or routing[0] != hidden:
            trie = RoutingTrie([node.clause for node in hidden])
            values = [node.params.value() for node in hidden]
            routing = self._routing = (hidden, trie, values)
        return routing

    @property
    def visible_hidden_edges(self) -> tuple[tuple[str, int], ...]:
        edges = (
            (pred, node.index) for node in self.hidden for pred in node.clause.body_predicates()
        )
        return tuple(sorted(edges))

    @property
    def visible(self) -> tuple[str, ...]:
        return tuple(sorted({pred for pred, _ in self.visible_hidden_edges}))


def paths_to_lrbm(model: BoostedModel) -> LiftedRBMNetwork:
    """Exact conversion: one hidden node per root-to-leaf path of every tree.

    Per tree exactly one path clause holds for any example, so the network
    potential equals the ensemble potential exactly; a model without trees
    maps to a network without hidden nodes, whose potential is ``psi0``.
    """
    hidden: list[HiddenNode] = []
    for tree_index, tree in enumerate(model.trees):
        for path_index, (clause, params) in enumerate(tree.path_clauses()):
            hidden.append(HiddenNode(len(hidden), clause, params, (tree_index, path_index)))
    return LiftedRBMNetwork(model.head, model.psi0, hidden, model.config.psi_clamp)


@dataclass
class InferenceResult:
    probability: float
    psi: float
    activated: tuple[int, ...]
    witnesses: dict[int, dict[Term, Term]]


def lrbm_inference(
    net: LiftedRBMNetwork,
    query: Atom,
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> InferenceResult:
    """Activate hidden nodes for a ground query and aggregate their potentials.

    Every hidden clause is routed in one walk of the network's routing trie
    (see :class:`~liftedrbm.logic.RoutingTrie`): each clause's head is
    unified with the query and its body decided one literal at a time against
    the facts, each literal by :func:`~liftedrbm.logic.route_decision`,
    stopping at the first satisfying grounding, which is reported as the
    node's witness.
    Path-mapped clauses therefore activate exactly as their source trees
    route, and their shared prefixes are decided once.  The potential is
    ``psi0`` plus the sum of the fired clauses' values in ``hidden`` order,
    so a path-mapped network gives the float its model gives.  ``stats``,
    when given, accumulates the groundings visited.
    """
    validate_query(query, net.head.predicate, kb)
    hidden, trie, values = net._routed()
    fired = trie.walk(query, kb, stats)
    activated = tuple(hidden[position].index for position, _ in fired)
    witnesses = {hidden[position].index: witness for position, witness in fired}
    psi = net.psi0 + sum(values[position] for position, _ in fired)
    return InferenceResult(probability(psi, net.psi_clamp), psi, activated, witnesses)


def distill_single_tree(
    model: BoostedModel,
    examples,
    kb: KnowledgeBase,
    max_depth: int = 10,
) -> BoostedModel:
    """Fit one tree of bounded depth to the ensemble's potentials.

    Every example is relabeled with the full potential the ensemble assigns it
    (all routed through all trees as one batch, by ``model.psi_many``) and a
    single tree is grown against those regression targets.  The conversion is
    approximate by construction.  A potential past the float range is no
    target, so the first example whose potential is not finite is refused.
    The result is a one-tree model with the source's configuration and
    modes; its prior is zero because the targets absorb it.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    labeled = examples.labeled()
    if not labeled:
        raise ValueError("distillation needs training examples")
    queries = [query for query, _ in labeled]
    psis = model.psi_many(queries, kb)
    for query, psi in zip(queries, psis):
        if not math.isfinite(psi):
            raise ValueError(
                f"example {query} has potential {psi!r}; distillation needs finite ones"
            )
    tree = fit_regression_tree(
        queries,
        psis,
        max_leaves=2 ** max_depth,
        modes=model.modes,
        kb=kb,
        learning_rate=model.config.learning_rate,
        cd_max_iters=model.config.cd_max_iters,
        cd_tolerance=model.config.cd_tolerance,
        max_new_vars=model.config.max_new_vars,
        max_depth=max_depth,
    )
    return BoostedModel(tree.target, tree.head, 0.0, [tree], model.config, dict(model.modes))


def _params_text(params: LeafParams) -> str:
    return "(" + ", ".join(repr(v) for v in params.as_tuple()) + ")"


def network_to_dict(net: LiftedRBMNetwork) -> dict:
    return {
        "format_version": 1,
        "target": str(net.head),
        "psi0": net.psi0,
        "psi_clamp": net.psi_clamp,
        "visible": list(net.visible),
        "hidden": [
            {
                "id": node.index,
                "source": list(node.source),
                "clause": str(node.clause),
                "params": list(node.params.as_tuple()),
            }
            for node in net.hidden
        ],
        "visible_hidden_edges": [list(edge) for edge in net.visible_hidden_edges],
        "hidden_output_edges": "dense",
    }


def dumps_network(net: LiftedRBMNetwork) -> str:
    return json.dumps(network_to_dict(net), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _network_dot(net: LiftedRBMNetwork) -> str:
    lines = ["digraph lifted_rbm {", "  rankdir=LR;"]
    for pred in net.visible:
        lines.append(f'  "v_{pred}" [shape=ellipse, label="{pred}"];')
    for node in net.hidden:
        body = " ∧ ".join(str(lit) for lit in node.clause.body) or "true"
        label = f"h{node.index}: {body}\\nparams={_params_text(node.params)}"
        lines.append(f'  "h_{node.index}" [shape=box, label="{label}"];')
    lines.append('  "y_1" [shape=doublecircle, label="y=1"];')
    lines.append('  "y_0" [shape=doublecircle, label="y=0"];')
    for pred, index in net.visible_hidden_edges:
        lines.append(f'  "v_{pred}" -> "h_{index}";')
    for node in net.hidden:
        lines.append(f'  "h_{node.index}" -> "y_1" [label="{node.params.pos_weight!r}"];')
        lines.append(f'  "h_{node.index}" -> "y_0" [label="{node.params.neg_weight!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _network_text(net: LiftedRBMNetwork) -> str:
    lines = [
        f"target: {net.head}",
        f"psi0: {net.psi0!r}",
        f"hidden nodes: {len(net.hidden)} (sorted by |pos_weight - neg_weight|)",
    ]
    ranked = sorted(
        net.hidden,
        key=lambda node: (-abs(node.params.pos_weight - node.params.neg_weight), node.index),
    )
    for node in ranked:
        influence = abs(node.params.pos_weight - node.params.neg_weight)
        lines.append(
            f"  h{node.index} [influence={influence:.6f}] {node.clause} "
            f"params={_params_text(node.params)}"
        )
    return "\n".join(lines) + "\n"


def export(net: LiftedRBMNetwork, fmt: str) -> str:
    """Deterministic rendering of a network as ``dot`` or ``text``; for a
    model, export ``paths_to_lrbm(model)``."""
    if fmt == "dot":
        return _network_dot(net)
    if fmt == "text":
        return _network_text(net)
    raise ValueError(f"unknown export format {fmt!r}")
