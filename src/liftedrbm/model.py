"""Boosted-ensemble model: potentials, gradients, training loop, serialization.

The model's potential for a query is the prior plus the sum of its trees'
routed leaf values; the predicted probability is the logistic sigmoid of that
potential, clamped for numerical safety.  Each boosting iteration fits one
tree to the pointwise gradients ``label - probability`` of the current model.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .data import ModeDeclaration, ParseError, parse_atom_text, read_text, validate_query
from .logic import Atom, KnowledgeBase, Literal, Predicate, RoutingTrie
from .tree import (
    InternalNode,
    LeafNode,
    LeafParams,
    RelationalRegressionTree,
    TreeNode,
    _grow,
    _root_plan,
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
        for name in ("n_trees", "max_leaves", "cd_max_iters", "max_new_vars", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        # Each field keeps the exception type it has always raised for a wrong type.
        for name, wrong_type in (
            ("learning_rate", TypeError), ("psi_clamp", TypeError), ("cd_tolerance", ValueError)
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise wrong_type(f"{name} must be a real number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} is beyond float range") from None
        if self.cd_max_iters < 0:
            raise ValueError("cd_max_iters must be non-negative")
        if not 0 <= self.cd_tolerance < math.inf:
            raise ValueError(
                f"cd_tolerance must be finite and non-negative, got {self.cd_tolerance!r}"
            )
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

    A query is routed through all trees in one walk of a
    :class:`~liftedrbm.logic.RoutingTrie` over the trees' path clauses, so a
    test that several paths or trees start with is decided once; that
    sharing is exact.  The walk reports the fired clauses in clause order,
    which is tree order, and the potential is ``psi0`` plus the sum of their
    leaf values in that order, the float :func:`~liftedrbm.network.lrbm_inference`
    computes for the path-mapped network.  The trie is built on first use and
    rebuilt whenever ``trees`` holds other trees than it was built from (as
    after :func:`train` appends one); a tree changed in place is not noticed.
    """

    target: Predicate
    head: Atom
    psi0: float
    trees: list[RelationalRegressionTree]
    config: TrainConfig
    modes: dict[str, ModeDeclaration] = field(default_factory=dict)
    # (trees, their routing trie, its clauses' leaf values), built by _routed
    _routing: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _routed(self) -> tuple[tuple[RelationalRegressionTree, ...], RoutingTrie, list[float]]:
        """``trees`` as now, their path clauses' trie and leaf values, in
        clause order; rebuilt when ``trees`` has changed."""
        trees = tuple(self.trees)
        routing = self._routing
        if routing is None or routing[0] != trees:
            clauses = [pair for tree in trees for pair in tree.path_clauses()]
            trie = RoutingTrie([clause for clause, _ in clauses])
            routing = self._routing = (trees, trie, [params.value() for _, params in clauses])
        return routing

    def per_tree(self, query: Atom, kb: KnowledgeBase) -> tuple[float, ...]:
        """The leaf value each tree routes ground target atom ``query`` to, in
        tree order; a query :func:`~liftedrbm.data.validate_query` refuses
        raises its error."""
        validate_query(query, self.target, kb)
        trees, trie, values = self._routed()
        fired = trie.walk(query, kb)
        if len(fired) != len(trees):
            raise ValueError(f"query {query} does not ground target {self.head}")
        return tuple(values[clause_id] for clause_id, _ in fired)

    def psi(self, query: Atom, kb: KnowledgeBase) -> float:
        return self.psi0 + sum(self.per_tree(query, kb))

    def psi_many(self, queries: Sequence[Atom], kb: KnowledgeBase) -> list[float]:
        """:meth:`psi` of each query, bit for bit, routed as one batch by
        :meth:`~liftedrbm.logic.RoutingTrie.walk_many`; the first query that
        :func:`~liftedrbm.data.validate_query` refuses raises its error."""
        for query in queries:
            validate_query(query, self.target, kb)
        trees, trie, values = self._routed()
        psis = []
        for query, fired in zip(queries, trie.walk_many(queries, kb)):
            if len(fired) != len(trees):
                raise ValueError(f"query {query} does not ground target {self.head}")
            psis.append(self.psi0 + sum(values[clause_id] for clause_id in fired))
        return psis

    def predict(self, query: Atom, kb: KnowledgeBase) -> Prediction:
        per_tree = self.per_tree(query, kb)
        psi = self.psi0 + sum(per_tree)
        return Prediction(probability(psi, self.config.psi_clamp), psi, per_tree)


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

    All trees are grown from one root plan, made here and dropped on
    return: whether an example satisfies a node's context and a candidate
    never depends on the gradients, so trees 2..n reuse what earlier trees
    decided.  The root holds the fit plan of every node a tree reached (its
    rows, candidates and splits), which a later tree reaching that node
    reuses, and each tree is grown from it and that tree's gradient list
    alone, as :func:`~liftedrbm.tree.fit_regression_tree` would grow it.
    Examples share few (label, potential) pairs, so each tree computes one
    gradient per pair and lists it for every example that has it.
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
    root = _root_plan([query for query, _ in labeled], kb.modes, config.max_new_vars)
    fitted: list[float] = []
    labels = [label for _, label in labeled]
    for index in range(config.n_trees):
        # A tree's examples share few (label, potential) pairs: one gradient each.
        keys = list(zip(labels, psis))
        gradient = {
            key: key[0] - probability(key[1], config.psi_clamp) for key in dict.fromkeys(keys)
        }
        gradients = list(map(gradient.__getitem__, keys))
        tree = _grow(
            root, gradients, config.max_leaves, kb, owned=False, learning_rate=config.learning_rate,
            cd_max_iters=config.cd_max_iters, cd_tolerance=config.cd_tolerance, fitted=fitted,
        )
        _check_finite_leaves(tree, index)
        model.trees.append(tree)
        sse = 0.0
        for i, (value, gradient) in enumerate(zip(fitted, gradients)):
            psis[i] += value
            sse += (value - gradient) ** 2
        if progress is not None:
            mean_abs = sum(abs(g) for g in gradients) / len(gradients)
            progress(index + 1, sse, mean_abs)
    return model


def _check_finite_leaves(tree: RelationalRegressionTree, index: int) -> None:
    """Refuse a fitted tree with a non-finite leaf parameter, naming the leaf."""
    for literals, leaf in tree.paths():
        if not all(map(math.isfinite, leaf.params.as_tuple())):
            path = " ∧ ".join(str(lit) for lit in literals) or "true"
            raise ValueError(
                f"tree {index + 1} leaf {path} has non-finite parameters "
                f"{leaf.params.as_tuple()}; lower the learning rate"
            )


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": list(node.params.as_tuple())}
    return {
        "test": str(node.test.atom),
        "true": _node_to_dict(node.true_child),
        "false": _node_to_dict(node.false_child),
    }


def _finite(value, what: str) -> float:
    """``value`` as a float, when it is a finite JSON number (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    return float(value)


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
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version!r}")
    try:
        return _model_from_dict(data)
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"model document lacks field {exc}") from exc
    except (TypeError, ValueError, AttributeError, RecursionError, OverflowError) as exc:
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
    names = target_info["head_vars"]
    head = parse_atom_text(f"{target.name}({', '.join(names)})", {target.name: target})
    if not isinstance(names, list) or len({t.name for t in head.variables()}) != len(names):
        raise ParseError(f"head_vars must be {target.arity} distinct variables, got {names!r}")
    config = TrainConfig(**data["config"])
    trees = [
        RelationalRegressionTree(head, _node_from_dict(node, predicates))
        for node in data["trees"]
    ]
    # A path's clause prints its variables by name, so one name at two types
    # on a path would read as one variable; sibling subtrees may differ.
    for tree in trees:
        for literals, _ in tree.paths():
            types = {t.name: t.type_tag for t in head.args}
            for var in (v for lit in literals for v in lit.atom.variables()):
                known = types.setdefault(var.name, var.type_tag)
                if known != var.type_tag:
                    raise ParseError(
                        f"variable {var.name} is used as {known} and as {var.type_tag} "
                        f"on one path"
                    )
    return BoostedModel(target, head, _finite(data["psi0"], "psi0"), trees, config, modes)


def dumps_model(model: BoostedModel) -> str:
    """Deterministic JSON rendering; floats keep full shortest-repr precision,
    so dump/load/dump round-trips are byte-identical."""
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def loads_model(text: str) -> BoostedModel:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid model document: {exc}") from exc
    return model_from_dict(data)


def save_model(model: BoostedModel, path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def load_model(path) -> BoostedModel:
    return loads_model(read_text(path))
