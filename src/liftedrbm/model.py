"""Boosted-ensemble model: potentials, gradients, training loop, serialization.

The model's potential for a query is the prior plus the sum of its trees'
routed leaf values; the predicted probability is the logistic sigmoid of that
potential, clamped for numerical safety.  Each boosting iteration fits one
tree to the pointwise gradients ``label - probability`` of the current model.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .data import ModeDeclaration, ParseError, parse_atom_text, read_text
from .logic import Atom, KnowledgeBase, Literal, Predicate, Term, UnknownConstantError
from .tree import (
    CoverageTable,
    InternalNode,
    LeafNode,
    LeafParams,
    RegressionExample,
    RelationalRegressionTree,
    TreeNode,
    evaluate_tree,
    fit_regression_tree,
    make_head,
    sigmoid,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults are 20 trees of up to 4 leaves with
    a coordinate-descent learning rate of 0.05."""

    n_trees: int = 20
    max_leaves: int = 4
    learning_rate: float = 0.05
    cd_max_iters: int = 500
    cd_tolerance: float = 1e-8
    max_new_vars: int = 1
    seed: int = 0
    psi_clamp: float = 20.0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be non-negative")
        if self.max_leaves < 1:
            raise ValueError("max_leaves must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_new_vars < 0:
            raise ValueError("max_new_vars must be non-negative")
        if not self.psi_clamp > 0:
            raise ValueError("psi_clamp must be positive")


def probability(psi: float, clamp: float = 20.0) -> float:
    """Sigmoid of the potential, clamped to ``[-clamp, clamp]`` first."""
    return sigmoid(max(-clamp, min(clamp, psi)))


class Prediction(NamedTuple):
    probability: float
    psi: float
    per_tree: tuple[float, ...]


@dataclass
class BoostedModel:
    """An ordered sum of regression trees over one target predicate.

    ``modes`` echoes the mode declarations seen at training time, making the
    serialized model self-describing (fact files can be re-parsed from it).
    """

    target: Predicate
    head: Atom
    psi0: float
    trees: list[RelationalRegressionTree]
    config: TrainConfig
    modes: dict[str, ModeDeclaration] = field(default_factory=dict)

    def per_tree(self, query: Atom, kb: KnowledgeBase) -> tuple[float, ...]:
        return tuple(evaluate_tree(tree, query, kb) for tree in self.trees)

    def psi(self, query: Atom, kb: KnowledgeBase) -> float:
        return self.psi0 + sum(self.per_tree(query, kb))

    def predict(self, query: Atom, kb: KnowledgeBase) -> Prediction:
        validate_query(query, self.target, kb)
        per_tree = self.per_tree(query, kb)
        psi = self.psi0 + sum(per_tree)
        return Prediction(probability(psi, self.config.psi_clamp), psi, per_tree)


def validate_query(query: Atom, target: Predicate, kb: KnowledgeBase) -> None:
    """Reject queries with the wrong predicate or constants the KB never saw."""
    if query.predicate != target:
        raise ValueError(f"query {query} is not a {target} atom")
    if not query.is_ground:
        raise ValueError(f"query {query} is not ground")
    for term in query.args:
        known = kb.constant(term.name)
        if known is None or known.type_tag != term.type_tag:
            raise UnknownConstantError(
                f"constant {term.name}:{term.type_tag} is unknown to the knowledge base"
            )


def compute_gradients(
    model: BoostedModel,
    labeled: Sequence[tuple[Atom, int]],
    kb: KnowledgeBase,
) -> list[float]:
    """Pointwise gradients ``label - probability`` under the current model."""
    gradients = []
    for query, label in labeled:
        psi = model.psi(query, kb)
        gradients.append(label - probability(psi, model.config.psi_clamp))
    return gradients


ProgressFn = Callable[[int, float, float], None]


def train(
    kb: KnowledgeBase,
    examples,
    config: Optional[TrainConfig] = None,
    progress: Optional[ProgressFn] = None,
    psi0: float = 0.0,
) -> BoostedModel:
    """Boost ``config.n_trees`` trees against an :class:`~liftedrbm.data.ExampleSet`.

    Tree n is fit to the gradients of the model made of trees 1..n-1 (the
    potential per example is accumulated incrementally, from the leaf each
    example reached in the fit, which is the leaf routing sends it to, so
    those are exactly the gradients).  ``psi0`` is the prior potential, zero
    by default; pass the log prior odds to start from the base rate.
    ``progress(tree_index, fit_sse, mean_abs_gradient)`` is invoked after each
    iteration when given.

    All trees share one :class:`~liftedrbm.tree.CoverageTable`, created here
    and dropped on return: whether an example satisfies a node's context and a
    candidate never depends on the gradients, so trees 2..n reuse what earlier
    trees proved.  It holds two n-bit ints per distinct context x candidate
    for the n training examples.
    """
    config = config or TrainConfig()
    if len(examples) == 0:
        raise ValueError("cannot train without examples")
    if not kb.modes:
        raise ValueError("knowledge base carries no mode declarations")
    labeled = examples.labeled()
    model = BoostedModel(
        target=examples.target,
        head=make_head(examples.target),
        psi0=psi0,
        trees=[],
        config=config,
        modes=dict(kb.modes),
    )
    psis = [model.psi0] * len(labeled)
    table = CoverageTable()
    fitted: list[float] = []
    for index in range(config.n_trees):
        gradients = [
            label - probability(psi, config.psi_clamp)
            for (_, label), psi in zip(labeled, psis)
        ]
        regression = [
            RegressionExample(query, label, gradient)
            for (query, label), gradient in zip(labeled, gradients)
        ]
        tree = fit_regression_tree(
            regression,
            config.max_leaves,
            kb.modes,
            kb,
            learning_rate=config.learning_rate,
            cd_max_iters=config.cd_max_iters,
            cd_tolerance=config.cd_tolerance,
            max_new_vars=config.max_new_vars,
            table=table,
            fitted=fitted,
        )
        model.trees.append(tree)
        sse = 0.0
        for i, (value, gradient) in enumerate(zip(fitted, gradients)):
            psis[i] += value
            sse += (value - gradient) ** 2
        if progress is not None:
            mean_abs = sum(abs(g) for g in gradients) / len(gradients)
            progress(index + 1, sse, mean_abs)
    return model


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": list(node.params.as_tuple())}
    return {
        "test": str(node.test.atom),
        "true": _node_to_dict(node.true_child),
        "false": _node_to_dict(node.false_child),
    }


def _finite(value, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ParseError(f"{what} must be finite, got {number!r}")
    return number


def _node_from_dict(data: dict, predicates: dict[str, Predicate]) -> TreeNode:
    if "leaf" in data:
        values = data["leaf"]
        if len(values) != 5:
            raise ParseError("leaf parameters must be a 5-tuple")
        return LeafNode(LeafParams(*(_finite(v, "leaf parameter") for v in values)))
    atom = parse_atom_text(data["test"], predicates)
    return InternalNode(
        Literal(atom),
        _node_from_dict(data["true"], predicates),
        _node_from_dict(data["false"], predicates),
    )


def model_to_dict(model: BoostedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "target": {
            "name": model.target.name,
            "arg_types": list(model.target.arg_types),
            "head_vars": [t.name for t in model.head.args],
        },
        "modes": {
            name: {
                "arg_types": list(mode.predicate.arg_types),
                "chaining": list(mode.chaining),
            }
            for name, mode in model.modes.items()
        },
        "psi0": model.psi0,
        "config": asdict(model.config),
        "trees": [_node_to_dict(tree.root) for tree in model.trees],
    }


def model_from_dict(data) -> BoostedModel:
    """Rebuild a model from its JSON document; any schema violation is a
    :class:`~liftedrbm.data.ParseError`."""
    if not isinstance(data, dict):
        raise ParseError(f"model document must be a JSON object, got {type(data).__name__}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version!r}")
    try:
        return _model_from_dict(data)
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"model document lacks field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc


def _model_from_dict(data: dict) -> BoostedModel:
    modes = {
        name: ModeDeclaration(
            Predicate(name, tuple(spec["arg_types"])), tuple(spec["chaining"])
        )
        for name, spec in data["modes"].items()
    }
    predicates = {name: mode.predicate for name, mode in modes.items()}
    target_info = data["target"]
    target = Predicate(target_info["name"], tuple(target_info["arg_types"]))
    predicates.setdefault(target.name, target)
    head = Atom(
        target,
        tuple(
            Term.variable(name, type_tag)
            for name, type_tag in zip(target_info["head_vars"], target.arg_types)
        ),
    )
    config = TrainConfig(**data["config"])
    trees = [
        RelationalRegressionTree(head, _node_from_dict(node, predicates))
        for node in data["trees"]
    ]
    return BoostedModel(target, head, _finite(data["psi0"], "psi0"), trees, config, modes)


def dumps_model(model: BoostedModel) -> str:
    """Deterministic JSON rendering; floats keep full shortest-repr precision,
    so dump/load/dump round-trips are byte-identical."""
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def loads_model(text: str) -> BoostedModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model document: {exc}") from exc
    return model_from_dict(data)


def save_model(model: BoostedModel, path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def load_model(path) -> BoostedModel:
    return loads_model(read_text(path))
