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
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from operator import add, mul
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .data import (
    ModeDeclaration,
    ParseError,
    check_predicate,
    parse_atom_text,
    read_text,
    validate_query,
)
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
    ordered_sum,
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
        return self.psi0 + ordered_sum(self.per_tree(query, kb))

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
            psis.append(self.psi0 + ordered_sum(values[clause_id] for clause_id in fired))
        return psis

    def predict(self, query: Atom, kb: KnowledgeBase) -> Prediction:
        per_tree = self.per_tree(query, kb)
        psi = self.psi0 + ordered_sum(per_tree)
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

    Tree n is fit to the gradients of the model made of trees 1..n-1.  Each
    example's leaf values are summed tree by tree from the leaf it reached
    in each fit, which is the leaf routing sends it to, and its potential is
    ``psi0`` plus that sum, as :meth:`BoostedModel.psi` adds them, so those
    are exactly the model's gradients.  ``psi0`` is the prior potential, zero
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
    Examples share few (label, leaf-value sum) pairs, their classes: a
    gradient, a next sum and an error are computed once per class and leaf.
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
    root = _root_plan([query for query, _ in labeled], kb.modes, config.max_new_vars)
    # An example's class numbers its (label, leaf-value sum) pair, first seen first.
    pairs: dict[tuple[int, float], int] = {}
    classes = [pairs.setdefault((label, 0.0), len(pairs)) for _, label in labeled]
    for index in range(config.n_trees):
        keys = list(pairs)
        gradient = [label - probability(psi0 + total, config.psi_clamp) for label, total in keys]
        gradients = list(map(gradient.__getitem__, classes))
        tree, leaves, values = _grow(
            root, gradients, config.max_leaves, kb, owned=False, learning_rate=config.learning_rate,
            cd_max_iters=config.cd_max_iters, cd_tolerance=config.cd_tolerance,
        )
        _check_finite_leaves(tree, index)
        model.trees.append(tree)
        # An example's step is its (class, leaf): its next class is the pair
        # that step reaches, and its squared error is the step's.
        width = len(values)
        steps = list(map(add, map(mul, classes, repeat(width)), leaves))
        pairs, moved, errors = {}, {}, {}
        for step in dict.fromkeys(steps):
            before, leaf = divmod(step, width)
            label, total = keys[before]
            moved[step] = pairs.setdefault((label, total + values[leaf]), len(pairs))
            errors[step] = (values[leaf] - gradient[before]) ** 2
        classes = list(map(moved.__getitem__, steps))
        if progress is not None:
            sse = ordered_sum(map(errors.__getitem__, steps))
            progress(index + 1, sse, ordered_sum(map(abs, gradients)) / len(gradients))
    return model


def _finite_leaf(params: LeafParams) -> bool:
    """Whether a leaf's parameters and value are finite, as every leaf's
    must be: then a potential, the prior plus leaf values, may overflow to
    an infinity but is never NaN."""
    return all(map(math.isfinite, params)) and math.isfinite(params.value())


def _check_finite_leaves(tree: RelationalRegressionTree, index: int) -> None:
    """Refuse a fitted tree with a leaf :func:`_finite_leaf` refuses, naming
    the leaf."""
    for literals, leaf in tree.paths():
        if not _finite_leaf(leaf.params):
            path = " ∧ ".join(str(lit) for lit in literals) or "true"
            raise ValueError(
                f"tree {index + 1} leaf {path} has non-finite parameters or value "
                f"{tuple(leaf.params)}; lower the learning rate"
            )


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": list(node.params)}
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


def _node_from_dict(data: dict, predicates: dict[str, Predicate], path: str) -> TreeNode:
    if "leaf" in _object(data, path):
        if not data.keys().isdisjoint(("test", "true", "false")):
            raise ValueError("a tree node holds both a leaf and a test")
        values = _object(data, path, "leaf")["leaf"]
        if len(values) != 5:
            raise ParseError("leaf parameters must be a 5-tuple")
        params = LeafParams(*(_finite(v, "leaf parameter") for v in values))
        # Each parameter passed _finite, so of _finite_leaf's rule only the
        # leaf's value is left to check here.
        if not _finite_leaf(params):
            raise ParseError(f"leaf {values} has value {params.value()!r}, not a finite number")
        return LeafNode(params)
    atom = parse_atom_text(_object(data, path, "test", "true", "false")["test"], predicates)
    return InternalNode(
        Literal(atom),
        _node_from_dict(data["true"], predicates, f"{path}.true"),
        _node_from_dict(data["false"], predicates, f"{path}.false"),
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
    except (TypeError, ValueError, AttributeError, RecursionError, OverflowError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc


def _array(value, field: str) -> tuple:
    """``value`` as a tuple, when it is a JSON array."""
    if not isinstance(value, list):
        raise ParseError(
            f"malformed model document: {field} must be a JSON array, got {type(value).__name__}"
        )
    return tuple(value)


def _object(value, path: str, *keys: str) -> dict:
    """``value``, when it is a JSON object holding exactly ``keys`` (given
    any): a key it lacks or holds besides them is refused, named by its path."""
    if not isinstance(value, dict):
        raise ParseError(
            f"malformed model document: {path} must be a JSON object, got {type(value).__name__}"
        )
    prefix = f"{path}." if path else ""
    for key in value if keys else ():
        if key not in keys:
            raise ParseError(f"malformed model document: unknown field {prefix}{key}")
    for key in keys:
        if key not in value:
            raise ParseError(f"model document lacks field {prefix}{key}")
    return value


def _signature(predicate: Predicate) -> str:
    return f"{predicate.name}({', '.join(predicate.arg_types)})"


def _model_from_dict(data: dict) -> BoostedModel:
    _object(data, "", "format_version", "target", "modes", "psi0", "config", "trees")
    modes = {}
    for name, spec in _object(data["modes"], "modes").items():
        spec = _object(spec, f"modes.{name}", "arg_types", "chaining")
        modes[name] = ModeDeclaration(
            Predicate(name, _array(spec["arg_types"], f"modes.{name}.arg_types")),
            _array(spec["chaining"], f"modes.{name}.chaining"),
        )
    predicates = {name: mode.predicate for name, mode in modes.items()}
    target_info = _object(data["target"], "target", "name", "arg_types", "head_vars")
    target = check_predicate(
        Predicate(target_info["name"], _array(target_info["arg_types"], "target.arg_types"))
    )
    # Tree tests are parsed with these predicates and scored against the
    # target, so the two must agree.
    declared = predicates.setdefault(target.name, target)
    if declared != target:
        raise ValueError(
            f"target {_signature(target)} disagrees with its mode {_signature(declared)}"
        )
    names = target_info["head_vars"]
    head = parse_atom_text(f"{target.name}({', '.join(names)})", {target.name: target})
    if not isinstance(names, list) or len({t.name for t in head.variables()}) != len(names):
        raise ParseError(f"head_vars must be {target.arity} distinct variables, got {names!r}")
    settings = _object(data["config"], "config", *(each.name for each in fields(TrainConfig)))
    config = TrainConfig(**settings)
    trees = [
        RelationalRegressionTree(head, _node_from_dict(node, predicates, f"trees[{index}]"))
        for index, node in enumerate(_array(data["trees"], "trees"))
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
