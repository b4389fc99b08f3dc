"""Lifted-RBM networks from tree ensembles: conversion, inference, export.

Two conversions are provided: exact path mapping (one hidden node per
root-to-leaf path of every tree) and approximate distillation (one tree overfit
to the ensemble's potentials, then path-mapped).  The networks themselves,
:class:`LiftedRBMNetwork` and its :class:`HiddenNode`, are
:mod:`liftedrbm.lrbm`'s, which a model scores through too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .logic import Atom, KnowledgeBase, SearchStats, Term
from .lrbm import HiddenNode, LiftedRBMNetwork, path_network  # noqa: F401 (exported)
from .model import BoostedModel, probability
from .tree import fit_regression_tree, ordered_sum


def paths_to_lrbm(model: BoostedModel) -> LiftedRBMNetwork:
    """Exact conversion: one hidden node per root-to-leaf path of every tree.

    Per tree exactly one path clause holds for any example, so the network
    potential equals the ensemble potential exactly; a model without trees
    maps to a network without hidden nodes, whose potential is ``psi0``.
    A model scores through a network of its own, so editing this one never
    changes the model's scores.
    """
    return path_network(model.head, model.psi0, model.trees, model.config.psi_clamp)


@dataclass
class InferenceResult:
    probability: float
    psi: float
    activated: tuple[int, ...]
    witnesses: dict[int, dict[Term, Term]]


def lrbm_inference(
    net: LiftedRBMNetwork, query: Atom, kb: KnowledgeBase, stats: Optional[SearchStats] = None
) -> InferenceResult:
    """Activate hidden nodes for a ground query and aggregate their potentials.

    Every hidden clause is routed in one walk of the network's routing trie
    (:meth:`LiftedRBMNetwork.fire`, as a model's scores are), each literal
    decided by :func:`~liftedrbm.logic.route_decision` and a clause that holds
    reported with its first satisfying grounding as the node's witness; so
    path-mapped clauses activate exactly as their source trees route.  The
    potential is ``psi0`` plus the sum of the fired clauses' values in
    ``hidden`` order, so a path-mapped network gives the float its model
    gives.  ``stats``, when given, accumulates the groundings visited.
    """
    fired, values = net.fire(query, kb, stats)
    psi = net.psi0 + ordered_sum(values)
    activated = tuple(net.hidden[position].index for position, _ in fired)
    witnesses = {net.hidden[position].index: witness for position, witness in fired}
    return InferenceResult(probability(psi, net.psi_clamp), psi, activated, witnesses)


def distill_single_tree(
    model: BoostedModel, examples, kb: KnowledgeBase, max_depth: int = 10
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
    config = model.config
    tree = fit_regression_tree(
        queries, psis, max_leaves=2 ** max_depth, modes=model.modes, kb=kb,
        learning_rate=config.learning_rate, cd_max_iters=config.cd_max_iters,
        cd_tolerance=config.cd_tolerance, max_new_vars=config.max_new_vars, max_depth=max_depth,
    )
    return BoostedModel(tree.target, tree.head, 0.0, [tree], model.config, dict(model.modes))


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
                "params": list(node.params),
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
        label = f"h{node.index}: {body}\\nparams={tuple(node.params)!r}"
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
            f"params={tuple(node.params)!r}"
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
