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
from dataclasses import dataclass
from typing import Optional, Sequence

from .logic import (
    Atom,
    Clause,
    KnowledgeBase,
    SearchStats,
    Substitution,
    satisfy_route,
    unify,
)
from .model import BoostedModel, TrainConfig, probability, validate_query
from .tree import LeafParams, RegressionExample, fit_regression_tree


@dataclass(frozen=True)
class HiddenNode:
    index: int
    clause: Clause
    params: LeafParams
    source: tuple[int, int]  # (tree index, path index)


@dataclass
class LiftedRBMNetwork:
    """Hidden clause nodes over one target; ``psi_clamp`` bounds the potential
    before the sigmoid, as in the source model."""

    head: Atom
    psi0: float
    hidden: list[HiddenNode]
    psi_clamp: float = TrainConfig.psi_clamp

    @property
    def visible_hidden_edges(self) -> tuple[tuple[str, int], ...]:
        edges = (
            (pred, node.index) for node in self.hidden for pred in node.clause.body_predicates()
        )
        return tuple(sorted(edges))

    @property
    def visible(self) -> tuple[str, ...]:
        return tuple(sorted({pred for pred, _ in self.visible_hidden_edges}))

    @classmethod
    def from_clauses(
        cls,
        head: Atom,
        clauses: Sequence[tuple[Clause, LeafParams]],
        psi0: float = 0.0,
    ) -> "LiftedRBMNetwork":
        """Hand-build a network from (clause, parameters) pairs."""
        hidden = [
            HiddenNode(i, clause, params, (0, i)) for i, (clause, params) in enumerate(clauses)
        ]
        return cls(head, psi0, hidden)


def paths_to_lrbm(model: BoostedModel) -> LiftedRBMNetwork:
    """Exact conversion: one hidden node per root-to-leaf path of every tree.

    Per tree exactly one path clause holds for any example, so the network
    potential equals the ensemble potential exactly.
    """
    if not model.trees:
        raise ValueError("model has no trees to map")
    hidden: list[HiddenNode] = []
    for tree_index, tree in enumerate(model.trees):
        for path_index, (literals, leaf) in enumerate(tree.paths()):
            clause = Clause(tree.head, literals)
            hidden.append(
                HiddenNode(len(hidden), clause, leaf.params, (tree_index, path_index))
            )
    return LiftedRBMNetwork(model.head, model.psi0, hidden, model.config.psi_clamp)


@dataclass
class InferenceResult:
    probability: float
    psi: float
    activated: tuple[int, ...]
    witnesses: dict[int, Substitution]


def lrbm_inference(
    net: LiftedRBMNetwork,
    query: Atom,
    kb: KnowledgeBase,
    stats: Optional[SearchStats] = None,
) -> InferenceResult:
    """Activate hidden nodes for a ground query and aggregate their potentials.

    Each hidden clause is partially ground by unifying its head with the query;
    its body is then satisfied one literal at a time against the facts (see
    :func:`~liftedrbm.logic.satisfy_route`), stopping at the first satisfying
    grounding, which is reported as the node's witness.  Path-mapped clauses
    therefore activate exactly as their source trees route.  ``stats``, when
    given, accumulates the groundings visited over all hidden nodes.
    """
    validate_query(query, net.head.predicate, kb)
    activated: list[int] = []
    witnesses: dict[int, Substitution] = {}
    psi = net.psi0
    for node in net.hidden:
        seed = unify(node.clause.head, query)
        if seed is None:
            continue
        witness = satisfy_route(node.clause.body, seed, kb, stats)
        if witness is not None:
            activated.append(node.index)
            witnesses[node.index] = witness
            psi += node.params.value()
    return InferenceResult(probability(psi, net.psi_clamp), psi, tuple(activated), witnesses)


def distill_single_tree(
    model: BoostedModel,
    examples,
    kb: KnowledgeBase,
    max_depth: int = 10,
) -> BoostedModel:
    """Fit one tree of bounded depth to the ensemble's potentials.

    Every example is relabeled with the full potential the ensemble assigns it
    (found by routing it through all trees) and a single tree is grown against
    those regression targets.  The conversion is approximate by construction.
    The result is a one-tree model with the source's configuration and
    modes; its prior is zero because the targets absorb it.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    labeled = examples.labeled()
    if not labeled:
        raise ValueError("distillation needs training examples")
    regression = [
        RegressionExample(query, label, model.psi(query, kb))
        for query, label in labeled
    ]
    tree = fit_regression_tree(
        regression,
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
