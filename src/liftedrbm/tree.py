"""Relational regression trees fit to pointwise boosting gradients.

Internal nodes test one literal; each root-to-leaf path is a conjunctive
clause and every leaf carries the five parameters of one network feature: an
output-bias difference, a hidden-unit bias, a path-feature weight, and the two
hidden-to-output weights.  A node's decision is satisfiability of the whole
path conjunction extended by its test, with the first witness chained into the
bindings, so training-time partitions and routing at prediction time agree
exactly.  A path's context holds only the atoms of its positive tests: a false
branch adds nothing, since its negated test holds on every extension of the
context (see :func:`~liftedrbm.logic.route_decision`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .logic import (
    Atom,
    KnowledgeBase,
    Literal,
    Predicate,
    Substitution,
    Term,
    route_decision,
    unify,
)


def softplus(z: float) -> float:
    """log(1 + exp(z)) computed as max(z, 0) + log1p(exp(-|z|))."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True, slots=True)
class LeafParams:
    """Parameters of one clause feature, all applied when the path is active.

    ``output_bias`` is the difference between the two output-node biases (only
    the difference matters for the potential), ``hidden_bias`` the bias of the
    hidden unit, ``feature_weight`` the visible-to-hidden weight on the path
    indicator, and ``neg_weight``/``pos_weight`` the edges from the hidden unit
    to the two output nodes.
    """

    output_bias: float = 0.0
    hidden_bias: float = 0.0
    feature_weight: float = 0.0
    neg_weight: float = 0.0
    pos_weight: float = 0.0

    def value(self) -> float:
        """Potential contributed when this leaf's path feature is active."""
        return _value(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.output_bias,
            self.hidden_bias,
            self.feature_weight,
            self.neg_weight,
            self.pos_weight,
        )


ZERO_PARAMS = LeafParams()


def _value(p: Sequence[float]) -> float:
    """Leaf potential of parameters in :meth:`LeafParams.as_tuple` order,
    ``output_bias + softplus(base + pos_weight) - softplus(base + neg_weight)``
    with ``base = hidden_bias + feature_weight``."""
    return p[0] + softplus(p[1] + p[2] + p[4]) - softplus(p[1] + p[2] + p[3])


def _partials(p: list[float]) -> tuple[float, float, float, float, float]:
    s_pos = sigmoid(p[1] + p[2] + p[4])
    s_neg = sigmoid(p[1] + p[2] + p[3])
    return (1.0, s_pos - s_neg, s_pos - s_neg, -s_neg, s_pos)


def coordinate_descent(
    deltas: Sequence[float],
    theta0: LeafParams = ZERO_PARAMS,
    learning_rate: float = 0.05,
    max_iters: int = 500,
    tolerance: float = 1e-8,
) -> LeafParams:
    """Fit leaf parameters to a multiset of regression targets.

    Cycles through the five coordinates, each moved by ``learning_rate`` times
    the negative partial derivative of the mean squared error; the leaf value
    is shared by all its examples, so the optimum satisfies
    ``value == mean(deltas)``.  Gradients are averaged over examples to keep
    the step size independent of leaf support.  Stops after ``max_iters``
    cycles or once the objective improves by less than ``tolerance``; empty
    input returns ``theta0`` unchanged.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if not deltas:
        return theta0
    mean = sum(deltas) / len(deltas)
    p = list(theta0.as_tuple())
    previous = (_value(p) - mean) ** 2
    for _ in range(max_iters):
        for coord in range(5):
            grad = 2.0 * (_value(p) - mean) * _partials(p)[coord]
            p[coord] -= learning_rate * grad
        current = (_value(p) - mean) ** 2
        if previous - current < tolerance:
            break
        previous = current
    return LeafParams(*p)


@dataclass(frozen=True, slots=True)
class RegressionExample:
    """A ground target atom with its label and current pointwise gradient.

    During boosting the gradient is the residual ``label - probability`` and
    lies in (-1, 1); tree distillation reuses the slot for raw potentials.
    """

    query: Atom
    label: int
    gradient: float


@dataclass
class LeafNode:
    params: LeafParams


@dataclass
class InternalNode:
    test: Literal  # always positive; the false branch stands for its negation
    true_child: "TreeNode"
    false_child: "TreeNode"


TreeNode = Union[LeafNode, InternalNode]


@dataclass
class RelationalRegressionTree:
    """One regression tree over a target predicate.

    ``head`` is the canonical target atom (for example ``collab(P1, P2)``)
    whose variables are bound by unifying with a ground query.
    """

    head: Atom
    root: TreeNode

    @property
    def target(self) -> Predicate:
        return self.head.predicate

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.paths())

    @property
    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if isinstance(node, LeafNode):
                return 0
            return 1 + max(walk(node.true_child), walk(node.false_child))

        return walk(self.root)

    def paths(self) -> Iterable[tuple[tuple[Literal, ...], LeafNode]]:
        """Root-to-leaf paths as signed literal tuples, true branch first."""
        stack: list[tuple[TreeNode, tuple[Literal, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if isinstance(node, LeafNode):
                yield path, node
            else:
                negated = Literal(node.test.atom, negated=True)
                stack.append((node.false_child, path + (negated,)))
                stack.append((node.true_child, path + (node.test,)))

    def to_text(self) -> str:
        lines: list[str] = [str(self.head)]

        def walk(node: TreeNode, indent: str):
            if isinstance(node, LeafNode):
                values = ", ".join(repr(v) for v in node.params.as_tuple())
                lines.append(f"{indent}leaf value={node.params.value():.6f} params=({values})")
                return
            lines.append(f"{indent}test {node.test}")
            lines.append(f"{indent}yes:")
            walk(node.true_child, indent + "  ")
            lines.append(f"{indent}no:")
            walk(node.false_child, indent + "  ")

        walk(self.root, "  ")
        return "\n".join(lines) + "\n"


def _fresh_variable(type_tag: str, taken: set[str]) -> Term:
    """A variable named by type initial and the first free index, e.g. P1;
    its name is added to ``taken``."""
    base = type_tag[0].upper() if type_tag else "V"
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    name = f"{base}{i}"
    taken.add(name)
    return Term.variable(name, type_tag)


def make_head(predicate: Predicate) -> Atom:
    """Canonical head atom with variables named by type initial, e.g. P1, P2."""
    taken: set[str] = set()
    return Atom(predicate, tuple(_fresh_variable(t, taken) for t in predicate.arg_types))


_FRESH = object()  # placeholder for a to-be-named variable slot


def generate_candidates(
    bound_vars: Sequence[Term],
    modes,
    max_new_vars: int = 1,
    used_names: Iterable[str] = (),
    exclude_predicates: Iterable[str] = (),
) -> list[Literal]:
    """Mode-compatible test literals for a node binding ``bound_vars``.

    ``+`` arguments draw from the bound variables of the matching type; ``-``
    arguments may also introduce fresh variables, at most ``max_new_vars`` per
    literal.  Every slot's options are distinct (each bound variable once, one
    fresh placeholder), so no two candidates are equal up to renaming of the
    fresh variables.  They come in a deterministic order: modes in declaration
    order, bound variables in binding order, fresh slots last.  Fresh variables
    are named by type initial avoiding ``used_names``.
    """
    by_type: dict[str, list[Term]] = {}
    for var in bound_vars:
        group = by_type.setdefault(var.type_tag, [])
        if var not in group:
            group.append(var)
    excluded = set(exclude_predicates)
    base_names = set(used_names)
    out: list[Literal] = []
    for mode in modes.values():
        predicate = mode.predicate
        if predicate.name in excluded:
            continue
        slot_options: list[list] = []
        for type_tag, flag in zip(predicate.arg_types, mode.chaining):
            options: list = list(by_type.get(type_tag, ()))
            if flag == "-":
                options.append(_FRESH)
            slot_options.append(options)
        for combo in itertools.product(*slot_options):
            n_fresh = sum(1 for slot in combo if slot is _FRESH)
            if n_fresh > max_new_vars:
                continue
            taken = base_names | {slot.name for slot in combo if slot is not _FRESH}
            args = tuple(
                _fresh_variable(type_tag, taken) if slot is _FRESH else slot
                for slot, type_tag in zip(combo, predicate.arg_types)
            )
            out.append(Literal(Atom(predicate, args)))
    return out


# (example, head unifier, cached witness of the node's context)
FitItem = tuple[RegressionExample, Substitution, Substitution]


class CoverageTable:
    """Which examples satisfy ``context AND candidate``, each decided once.

    An entry is keyed on a node's context (the atoms of its positive path
    tests) and a candidate atom, variable names included, and holds two ints
    used as bitsets over the examples: ``known`` marks the examples already
    decided and ``sat`` those whose extended conjunction is satisfiable.  Each
    distinct query atom owns one bit.  The entries are exact: a decision
    depends only on the knowledge base, the context, the candidate and the
    query (through its head unifier), never on gradients or on which witness
    of the context was cached (see :func:`~liftedrbm.logic.route_decision`).
    A table is therefore valid for one unchanged knowledge base, and costs two
    n-bit ints per distinct context x candidate for n distinct queries.
    """

    __slots__ = ("_bits", "_by_id", "_entries")

    def __init__(self):
        self._bits: dict[Atom, int] = {}
        # Hashing an atom walks its terms, so a memo on object identity answers
        # first: a caller passes the same query object for an example in every
        # tree.  The memo holds each object, so its id is not reused meanwhile.
        self._by_id: dict[int, tuple[Atom, int]] = {}
        self._entries: dict[tuple[tuple[Atom, ...], Atom], tuple[int, int]] = {}

    def bit(self, query: Atom) -> int:
        """The one-bit mask owned by ``query``."""
        hit = self._by_id.get(id(query))
        if hit is None:
            mask = self._bits.setdefault(query, 1 << len(self._bits))
            hit = self._by_id[id(query)] = (query, mask)
        return hit[1]


def partition(
    context: Sequence[Atom],
    candidate: Literal,
    items: Sequence[FitItem],
    kb: KnowledgeBase,
    table: Optional[CoverageTable] = None,
) -> tuple[list[FitItem], list[FitItem]]:
    """Split node examples on satisfiability of (context AND candidate).

    ``context`` holds the atoms of the node's positive root-to-node tests;
    every item carries the example's head unifier plus a cached witness of that
    context.  Examples whose extended conjunction is satisfiable go left with
    the first witness found (for variable chaining); the rest go right
    unchanged.  Both sides keep the order of ``items``.

    With a :class:`CoverageTable`, the decisions it already holds under the
    key (``context``, ``candidate.atom``) are read from it, only the others
    are proved, and those are recorded in it; the split is the same, since a
    decision depends on neither the gradients nor the cached witness.  Left
    items then keep their context witness, since a decision read from the
    table carries none: partition the chosen split's left side again without
    a table to chain witnesses.
    """
    left: list[FitItem] = []
    right: list[FitItem] = []
    if table is None:
        for example, base, cached in items:
            extended = route_decision(context, candidate.atom, base, cached, kb)
            if extended is not None:
                left.append((example, base, extended))
            else:
                right.append((example, base, cached))
        return left, right
    key = (tuple(context), candidate.atom)
    known, sat = table._entries.get(key, (0, 0))
    for item in items:
        example, base, cached = item
        bit = table.bit(example.query)
        if not known & bit:
            known |= bit
            if route_decision(context, candidate.atom, base, cached, kb) is not None:
                sat |= bit
        (left if sat & bit else right).append(item)
    table._entries[key] = (known, sat)
    return left, right


@dataclass
class _FitNode:
    items: list[FitItem]
    depth: int
    context: tuple[Atom, ...]
    bound_vars: tuple[Term, ...]
    used_names: frozenset[str]
    params: LeafParams = ZERO_PARAMS
    sse: float = 0.0
    test: Optional[Literal] = None
    true_child: Optional["_FitNode"] = None
    false_child: Optional["_FitNode"] = None


# Nodes whose residual error is below this are never worth splitting.
_MIN_SPLIT_SSE = 1e-12


def fit_regression_tree(
    examples: Sequence[RegressionExample],
    max_leaves: int,
    modes,
    kb: KnowledgeBase,
    *,
    learning_rate: float = 0.05,
    cd_max_iters: int = 500,
    cd_tolerance: float = 1e-8,
    max_new_vars: int = 1,
    max_depth: Optional[int] = None,
    table: Optional[CoverageTable] = None,
    fitted: Optional[list[float]] = None,
) -> RelationalRegressionTree:
    """Greedy best-first induction of one tree fitting the current gradients.

    Expandable nodes sit in a priority queue ordered by their residual error.
    Expanding a node scores every mode-compatible candidate by fitting both
    child leaves with coordinate descent and summing their squared errors; the
    first candidate attaining the minimum is committed (deterministic
    tie-break) and both children are queued.  Construction stops at
    ``max_leaves`` leaves or when nothing expandable remains; candidates
    emptying either side are rejected and a node with no usable candidate
    stays a leaf.

    Candidates are scored from a :class:`CoverageTable` keyed on (node
    context, candidate atom), so each (context, candidate, example) is proved
    at most once; only the committed split's true side is proved again, for
    the witnesses its children chain.  The table is exact because a decision
    never depends on the gradients, and it costs two n-bit ints per distinct
    context x candidate.  Pass ``table`` to share one across fits over the
    same knowledge base (as :func:`~liftedrbm.model.train` does for its
    trees); by default the fit uses its own and drops it on return, which
    still pays off because a false child keeps its parent's context.  When
    given, ``fitted`` is filled with each example's leaf value in
    ``examples`` order: the value :func:`evaluate_tree` routes it to, since
    fitting and routing make the same decisions.
    """
    if not examples:
        raise ValueError("cannot fit a tree to zero examples")
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    predicate = examples[0].query.predicate
    head = make_head(predicate)
    if table is None:
        table = CoverageTable()

    def fit_leaf(items: Sequence[FitItem]) -> tuple[LeafParams, float]:
        deltas = [example.gradient for example, _, _ in items]
        params = coordinate_descent(
            deltas,
            learning_rate=learning_rate,
            max_iters=cd_max_iters,
            tolerance=cd_tolerance,
        )
        value = params.value()
        return params, sum((value - d) ** 2 for d in deltas)

    items: list[FitItem] = []
    for example in examples:
        subst = unify(head, example.query)
        if subst is None:
            raise ValueError(f"example {example.query} does not ground {head}")
        items.append((example, subst, subst))

    root = _FitNode(
        items,
        depth=0,
        context=(),
        bound_vars=head.args,
        used_names=frozenset(t.name for t in head.args),
    )
    root.params, root.sse = fit_leaf(items)

    tick = itertools.count()
    frontier: list[tuple[float, int, _FitNode]] = []

    def push(node: _FitNode) -> None:
        depth_ok = max_depth is None or node.depth < max_depth
        if depth_ok and node.sse > _MIN_SPLIT_SSE and len(node.items) >= 2:
            heapq.heappush(frontier, (-node.sse, next(tick), node))

    push(root)
    leaves = 1
    while leaves < max_leaves and frontier:
        _, _, node = heapq.heappop(frontier)
        candidates = generate_candidates(
            node.bound_vars,
            modes,
            max_new_vars=max_new_vars,
            used_names=node.used_names,
            exclude_predicates=(predicate.name,),
        )
        best = None
        for candidate in candidates:
            left, right = partition(node.context, candidate, node.items, kb, table)
            if not left or not right:
                continue
            theta_left, sse_left = fit_leaf(left)
            theta_right, sse_right = fit_leaf(right)
            score = sse_left + sse_right
            if best is None or score < best[0]:
                best = (score, candidate, left, right, theta_left, sse_left, theta_right, sse_right)
        if best is None:
            continue  # permanent leaf
        _, candidate, left, right, theta_left, sse_left, theta_right, sse_right = best
        left, _ = partition(node.context, candidate, left, kb)
        new_vars = tuple(
            v for v in candidate.atom.variables() if v not in node.bound_vars
        )
        child_names = node.used_names | {t.name for t in candidate.atom.variables()}
        node.test = candidate
        node.true_child = _FitNode(
            left,
            depth=node.depth + 1,
            context=node.context + (candidate.atom,),
            bound_vars=node.bound_vars + new_vars,
            used_names=child_names,
            params=theta_left,
            sse=sse_left,
        )
        node.false_child = _FitNode(
            right,
            depth=node.depth + 1,
            context=node.context,
            bound_vars=node.bound_vars,
            used_names=child_names,
            params=theta_right,
            sse=sse_right,
        )
        leaves += 1
        push(node.true_child)
        push(node.false_child)

    leaf_value: dict[int, float] = {}  # id(example) -> value of the leaf it reached

    def materialize(node: _FitNode) -> TreeNode:
        if node.test is None:
            value = node.params.value()
            for example, _, _ in node.items:
                leaf_value[id(example)] = value
            return LeafNode(node.params)
        return InternalNode(
            node.test, materialize(node.true_child), materialize(node.false_child)
        )

    tree = RelationalRegressionTree(head, materialize(root))
    if fitted is not None:
        fitted[:] = [leaf_value[id(example)] for example in examples]
    return tree


def evaluate_tree(tree: RelationalRegressionTree, query: Atom, kb: KnowledgeBase) -> float:
    """Route a ground query to its unique leaf and return that leaf's value.

    At every internal node the decision is satisfiability of the accumulated
    positive path conjunction extended by the node's test; a satisfied test
    chains its first witness into the bindings and joins the conjunction, a
    failed test keeps both and follows the false branch.
    """
    base = unify(tree.head, query)
    if base is None:
        raise ValueError(f"query {query} does not ground target {tree.head}")
    node = tree.root
    context: tuple[Atom, ...] = ()
    cached = base
    while isinstance(node, InternalNode):
        extended = route_decision(context, node.test.atom, base, cached, kb)
        if extended is not None:
            cached = extended
            context = context + (node.test.atom,)
            node = node.true_child
        else:
            node = node.false_child
    return node.params.value()
