"""Relational regression trees fit to pointwise boosting gradients.

Internal nodes test one literal; each root-to-leaf path is a conjunctive
clause and every leaf carries the five parameters of one network feature: an
output-bias difference, a hidden-unit bias, a path-feature weight, and the two
hidden-to-output weights.  A node's decision is satisfiability of the whole
path conjunction extended by its test.  Training decides it over every witness
of the path's context at once, carried down the tree as rows (the rows engine
of :mod:`~liftedrbm.logic`, which a batch walk shares); routing one query
proves it from the first witness chained down the path; both decide the same
conjunction, so they agree exactly.  A path's context holds only the atoms of
its positive tests: a false branch adds nothing, since its negated test holds
on every extension of the context (see
:func:`~liftedrbm.logic.route_decision`).  A path read as the clause (head,
signed path literals) is what a model's or a network's
:class:`~liftedrbm.logic.RoutingTrie` routes.

A fit builds each node once per :class:`CoverageTable`, as a plan of what
it is regardless of the gradients: its examples by position, rows,
candidates and splits.  Boosted trees share one table, so a later tree
reuses every node an earlier one built and only refits the leaves.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

from .logic import (
    Atom,
    Clause,
    FactViews,
    KnowledgeBase,
    Literal,
    Predicate,
    Term,
    _key,
    join,
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


def _square(x: float) -> float:
    """``x ** 2``, read as ``inf`` where the square overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _sum_squares(center: float, values: Sequence[float]) -> float:
    """``sum((center - v) ** 2 for v in values)``, each overflowing square
    read as ``inf``."""
    try:
        return sum((center - v) ** 2 for v in values)
    except OverflowError:  # rare: only then pay a call per square
        return sum(_square(center - v) for v in values)


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
    cycles, once the objective improves by less than ``tolerance`` or does
    not fall at all (so a zero ``tolerance`` still stops at a fixed point),
    or once it rises or is NaN (a step too large for the curvature).
    Returns the iterate with the lowest objective seen, the latest among
    equals: the objective falls on every cycle before the last, so that is
    the last iterate, or the one before it when the last cycle diverged.
    An objective too large for a float reads as ``inf``, so a cycle that
    overflows it is a rising one; when the objectives before and after a
    cycle both overflow, the cycle's change is read from their difference
    ``(|r0| - |r1|) * (|r0| + |r1|)`` of the residuals' squares, so a leaf
    whose targets are near 1e200 still descends to their mean.  A step is
    ``rate * (2 * r * partial)`` for the residual r, unless ``2 * r``
    overflows; then it is ``2 * (rate * (r * partial))``, so a mean near the
    float maximum is reached too.  Empty input returns ``theta0`` unchanged.

    The cycle is written out: with ``a = p1 + p2 + p4`` and ``b = p1 + p2 +
    p3`` the leaf value is ``p0 + softplus(a) - softplus(b)`` (:func:`_value`)
    and its partials are ``1``, ``sigmoid(a) - sigmoid(b)`` twice,
    ``-sigmoid(b)`` and ``sigmoid(a)``.  A softplus is recomputed only when its
    argument changed (coordinate 0 moves neither, 3 only ``b``, 4 only
    ``a``), and the softplus and sigmoid at one argument share one
    ``exp(-|z|)``.  ``max(z, 0.0)`` and ``-abs(z)`` are spelt as conditionals
    that give the same floats, signed zeros and NaN included, so every
    iterate is the one the loop through :func:`_value`, :func:`softplus` and
    :func:`sigmoid` gives, bit for bit (``tests/test_tree.py`` fuzzes it).
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if not deltas:
        return theta0
    mean = sum(deltas) / len(deltas)
    rate, exp, log1p, inf = learning_rate, math.exp, math.log1p, math.inf
    half = sys.float_info.max / 2
    p0, p1, p2, p3, p4 = theta0.as_tuple()
    a = p1 + p2 + p4
    ea = exp(-a if a >= 0 else a)
    sa = (0.0 if 0.0 > a else a) + log1p(ea)
    b = p1 + p2 + p3
    eb = exp(-b if b >= 0 else b)
    sb = (0.0 if 0.0 > b else b) + log1p(eb)
    residual = p0 + sa - sb - mean
    previous = _square(residual)
    for cycle in range(max_iters):
        # 0: output bias, whose partial is 1.
        p0 -= rate * (2.0 * residual) if -half <= residual <= half else 2.0 * (rate * residual)
        # 1: hidden bias, at the a and b of coordinate 0.
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        r = p0 + sa - sb - mean
        p1 -= rate * (2.0 * r * (ga - gb)) if -half <= r <= half else 2.0 * (rate * (r * (ga - gb)))
        # 2: feature weight; p1 moved a and b.
        a = p1 + p2 + p4
        ea = exp(-a if a >= 0 else a)
        sa = (0.0 if 0.0 > a else a) + log1p(ea)
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        r = p0 + sa - sb - mean
        p2 -= rate * (2.0 * r * (ga - gb)) if -half <= r <= half else 2.0 * (rate * (r * (ga - gb)))
        # 3: negative weight; p2 moved a and b.
        a = p1 + p2 + p4
        ea = exp(-a if a >= 0 else a)
        sa = (0.0 if 0.0 > a else a) + log1p(ea)
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        r = p0 + sa - sb - mean
        p3 -= rate * (2.0 * r * -gb) if -half <= r <= half else 2.0 * (rate * (r * -gb))
        # 4: positive weight; p3 moved b only.
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        r = p0 + sa - sb - mean
        p4 -= rate * (2.0 * r * ga) if -half <= r <= half else 2.0 * (rate * (r * ga))
        # p4 moved a only.
        a = p1 + p2 + p4
        ea = exp(-a if a >= 0 else a)
        sa = (0.0 if 0.0 > a else a) + log1p(ea)
        last, residual = residual, p0 + sa - sb - mean
        current = square = _square(residual)
        if current == previous == inf:
            # Both squares overflow; their difference, factored, may not.
            last, now = abs(last), abs(residual)
            current, previous = 0.0, (last - now) * (last + now)
        # Converged, flat, rising or NaN; "flat" stops a zero tolerance.
        if not (current < previous and previous - current >= tolerance):
            if not current <= previous:
                # This cycle overshot, so the iterate before it is the best
                # seen; the cycles are deterministic, so replay up to it.
                return coordinate_descent(deltas, theta0, learning_rate, cycle, tolerance)
            break
        previous = square
    return LeafParams(p0, p1, p2, p3, p4)


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
        return _depth(self.root)

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

    def path_clauses(self) -> list[tuple[Clause, LeafParams]]:
        """Each root-to-leaf path as the clause (head, signed path literals),
        with its leaf's parameters, in :meth:`paths` order."""
        return [(Clause(self.head, literals), leaf.params) for literals, leaf in self.paths()]

    def to_text(self) -> str:
        lines: list[str] = [str(self.head)]
        _text_lines(self.root, "  ", lines)
        return "\n".join(lines) + "\n"


# Module-level, not closures calling themselves: such a closure is a
# reference cycle on every call.
def _depth(node: TreeNode) -> int:
    if isinstance(node, LeafNode):
        return 0
    return 1 + max(_depth(node.true_child), _depth(node.false_child))


def _text_lines(node: TreeNode, indent: str, lines: list[str]) -> None:
    if isinstance(node, LeafNode):
        values = ", ".join(repr(v) for v in node.params.as_tuple())
        lines.append(f"{indent}leaf value={node.params.value():.6f} params=({values})")
        return
    lines.append(f"{indent}test {node.test}")
    lines.append(f"{indent}yes:")
    _text_lines(node.true_child, indent + "  ", lines)
    lines.append(f"{indent}no:")
    _text_lines(node.false_child, indent + "  ", lines)


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


# (position, rows): the example's index in the fit's ``examples``, and every
# witness of the node's context, each as the names of the constants it binds
# to the node's bound variables, in their order
FitItem = tuple[int, tuple[tuple[str, ...], ...]]

# Turns a split's selector into its complement.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class CoverageTable(FactViews):
    """Which examples satisfy ``context AND candidate``, each decided once,
    and the fit plans built on those decisions.

    An entry is keyed on a node's context (the atoms of its positive path
    tests), interned as an int by :meth:`context_id`, and a candidate atom,
    variable names included, and holds two ints used as bitsets over the
    examples: ``known`` marks the examples already decided and ``sat`` those
    whose extended conjunction is satisfiable.  Each distinct query atom
    owns one bit.  The entries are exact: a decision depends only on the
    knowledge base, the context, the candidate and the query, never on
    gradients.  A table is therefore valid for one unchanged knowledge base,
    and costs two n-bit ints per distinct context x candidate for n distinct
    queries.

    It also maps a root key to the root of a tree of fit plans (see
    :func:`fit_regression_tree`).  The key holds everything a plan depends
    on besides the knowledge base: the target, each example's query bit in
    example order, the modes and ``max_new_vars``.  A plan holds no
    gradient, so a later fit with the same key reuses every node, join,
    candidate and split an earlier fit built.

    It is also the :class:`~liftedrbm.logic.FactViews` the fit decides and
    joins rows on.  A batch walk
    (:meth:`~liftedrbm.logic.RoutingTrie.walk_many`) needs no table.
    """

    __slots__ = ("_by_id", "_bits", "_contexts", "_entries", "_roots")

    def __init__(self):
        # Hashing an atom walks its terms, so a memo on object identity answers
        # first: a caller passes the same query object for an example in every
        # tree.  The memo holds each object, so its id is not reused meanwhile.
        self._by_id: dict[int, tuple[Atom, int]] = {}
        self._bits: dict[Atom, int] = {}
        self._contexts: dict[tuple[Atom, ...], int] = {}
        self._entries: dict[tuple[int, Atom], tuple[int, int]] = {}
        self._roots: dict[tuple, _Plan] = {}
        super().__init__()

    def bit(self, query: Atom) -> int:
        hit = self._by_id.get(id(query))
        if hit is None:
            bit = self._bits.setdefault(query, 1 << len(self._bits))
            hit = self._by_id[id(query)] = (query, bit)
        return hit[1]

    def context_id(self, context: tuple[Atom, ...]) -> int:
        """The int that stands for ``context`` in this table's entry keys."""
        return self._contexts.setdefault(context, len(self._contexts))


class NodeIndex:
    """A fit node's items as :func:`partition` reads them: each item's bit
    (``bits`` holds one per position), their OR ``mask``, the items with
    several rows (``several``, as (bit, rows)), and, per tuple of columns,
    the OR of the bits of the items whose first row holds each value there
    (:meth:`first_rows`).  The first ``width`` columns are the head's, on
    which an item's rows all agree."""

    __slots__ = ("items", "bits", "mask", "several", "width", "_firsts")

    def __init__(self, items: Sequence[FitItem], bits: Sequence[int], width: int):
        self.items = items
        self.bits = [bits[position] for position, _ in items]
        self.mask = 0
        for bit in self.bits:
            self.mask |= bit
        self.several = [(bit, rows) for (_, rows), bit in zip(items, self.bits) if len(rows) > 1]
        self.width = width
        self._firsts: dict[tuple[int, ...], dict] = {}

    def first_rows(self, columns: tuple[int, ...]) -> dict:
        firsts = self._firsts.get(columns)
        if firsts is None:
            firsts = self._firsts[columns] = {}
            read = _key(columns)
            for (_, rows), bit in zip(self.items, self.bits):
                value = read(rows[0])
                firsts[value] = firsts.get(value, 0) | bit
        return firsts


def partition(
    context_id: int,
    bound_vars: Sequence[Term],
    candidate: Literal,
    node: NodeIndex,
    kb: KnowledgeBase,
    table: CoverageTable,
) -> Optional[int]:
    """The bits of a node's items that satisfy (context AND candidate), or
    ``None`` when those are none or all of them (a one-sided split).

    ``context_id`` is the table's :meth:`~CoverageTable.context_id` of the
    atoms of the node's positive root-to-node tests, and ``bound_vars`` the
    variables its rows bind.  The table's entry under the key
    (``context_id``, ``candidate.atom``) is read, only the items whose bits
    it has not decided are decided, and those decisions are recorded in it.
    The result is a subset of ``node.mask``; an item is on the true side iff
    its bit is in it.

    An item is satisfiable iff one of its rows holds, at the candidate's
    bound columns, a value of the table's projection: only those values
    join with the context.  One set intersection with
    :meth:`NodeIndex.first_rows` decides every item whose first row holds;
    only an item with several rows, facing a candidate that binds a column
    past the head's, reads its other rows.
    """
    key = (context_id, candidate.atom)
    known, sat = table._entries.get(key, (0, 0))
    mask = node.mask
    undecided = mask & ~known
    if undecided:
        columns, values = table.projection(candidate.atom, bound_vars, kb)
        firsts = node.first_rows(columns)
        hits = 0
        for value in firsts.keys() & values:
            hits |= firsts[value]
        sat |= hits & undecided
        rest = undecided & ~hits
        if rest and node.several and columns and max(columns) >= node.width:
            read = _key(columns)
            for bit, rows in node.several:
                if rest & bit and not values.isdisjoint(map(read, rows)):
                    sat |= bit
        table._entries[key] = (known | mask, sat)
    sat &= mask
    return None if not sat or sat == mask else sat


@dataclass(slots=True, eq=False)
class _Plan:
    """A fit node as far as it does not depend on the gradients.

    It holds the examples that reach the node, as ``items`` with their rows
    and as ``positions``, its context and the table's id for it, its bound
    variables, used names and depth.  Once expanded it also holds its
    candidates, each one's split as a ``splits`` selector (one byte per
    item, 1 on the true side) or ``None`` when one-sided, and, in
    ``children``, the (true, false) child plans of each candidate index that
    has won.  A true child's ``parent_vars`` are its parent's bound
    variables until it is expanded: its rows are still its parent's, and
    its test, the last atom of its context, is joined into them then.
    Plans hold their children, never their parents.
    """

    items: Optional[list[FitItem]]
    depth: int
    context: tuple[Atom, ...]
    context_id: int
    bound_vars: tuple[Term, ...]
    used_names: frozenset[str]
    parent_vars: Optional[tuple[Term, ...]] = None
    candidates: Optional[list[Literal]] = None
    splits: Optional[list[Optional[bytes]]] = None
    children: dict[int, tuple[_Plan, _Plan]] = field(default_factory=dict)
    positions: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.positions = tuple([position for position, _ in self.items])

    def expand(self, modes, max_new_vars, exclude, bits, width, kb, table) -> None:
        """Join a true child's test into its rows, then generate the
        candidates and decide each one's split."""
        if self.parent_vars is not None:
            self.items = join(self.context[-1], self.parent_vars, self.items, kb, table)
            self.parent_vars = None
        self.candidates = generate_candidates(
            self.bound_vars, modes, max_new_vars, self.used_names, exclude
        )
        index = NodeIndex(self.items, bits, width)  # every split is decided here
        self.splits = []
        for candidate in self.candidates:
            sat = partition(self.context_id, self.bound_vars, candidate, index, kb, table)
            self.splits.append(
                None if sat is None else bytes(map(bool, map(sat.__and__, index.bits)))
            )

    def child(self, k: int, table: CoverageTable) -> tuple["_Plan", "_Plan"]:
        """The (true, false) child plans of candidate ``k``, made once."""
        children = self.children.get(k)
        if children is None:
            candidate, split = self.candidates[k], self.splits[k]
            new_vars = tuple(v for v in candidate.atom.variables() if v not in self.bound_vars)
            names = self.used_names | {t.name for t in candidate.atom.variables()}
            context = self.context + (candidate.atom,)
            children = self.children[k] = (
                _Plan(
                    list(compress(self.items, split)), self.depth + 1, context,
                    table.context_id(context), self.bound_vars + new_vars, names,
                    parent_vars=self.bound_vars,
                ),
                _Plan(
                    list(compress(self.items, split.translate(_FLIP))), self.depth + 1,
                    self.context, self.context_id, self.bound_vars, names,
                ),
            )
        return children

    def drop(self) -> None:
        """Free the rows, candidates and splits that no later fit will read."""
        self.items = self.candidates = self.splits = None


@dataclass(slots=True)
class _FitNode:
    """A node of one fit: its plan, and what this fit's gradients made of it."""

    plan: _Plan
    params: LeafParams
    sse: float
    test: Optional[Literal] = None
    true_child: Optional["_FitNode"] = None
    false_child: Optional["_FitNode"] = None


# Nodes whose residual error is below this are never worth splitting.
_MIN_SPLIT_SSE = 1e-12

# Relative allowance for the rounding of a computed sum of n squares, about
# n * 2**-53 (6e-14 at n = 559); see _sse_floor.
_BOUND_MARGIN = 1.0 - 1e-9


def _sse_floor(deltas: Sequence[float]) -> float:
    """A floor under the squared error of any one leaf value on ``deltas``,
    as :func:`fit_regression_tree` computes it in floats.

    The exact least squared error is ``sum((m - d) ** 2)`` at the mean m,
    found here in a first pass.  A computed sum of squares may fall below
    it by its own rounding, covered by the relative ``_BOUND_MARGIN``; by
    the rounding of m, at most ``n * (n * eps * max|d|) ** 2``; and by
    squares that underflow, at most ``n`` times the least normal float.
    The second matters when a side's targets are all equal: their least
    error is 0, but a rounded m shows a tiny positive one, and a leaf value
    nearer the true mean shows less (see ``tests/test_tree.py``).
    """
    n = len(deltas)
    mean = sum(deltas) / n
    sse = _sum_squares(mean, deltas)
    spread = n * sys.float_info.epsilon * max(map(abs, deltas))
    return sse * _BOUND_MARGIN - n * (_square(spread) + sys.float_info.min)


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
    A candidate's score is the sum of its two child leaves' squared errors,
    each leaf fit by coordinate descent; the first candidate attaining the
    minimum is committed (deterministic tie-break) and both children are
    queued.  Construction stops at ``max_leaves`` leaves or when nothing
    expandable remains; candidates emptying either side are rejected and a
    node with no usable candidate stays a leaf.

    Not every candidate is fit.  A leaf's squared error is least at the mean
    of its targets (CART; Breiman et al. 1984), so each usable candidate
    after the first gets the bound ``sum((m_l - d) ** 2) + sum((m_r - d) **
    2)`` over its two sides, with the means found in a first pass, and is
    skipped when that bound, less a relative ``1e-9`` and an absolute
    allowance for the rounding of the means (see :func:`_sse_floor`), is at
    least the best score so far.  This is exact: a computed leaf error is
    never below that floor (``tests/test_tree.py`` fuzzes it), so a skipped
    candidate's score could not have been strictly below the best, and the
    tree and ``fitted`` are those of fitting every candidate.  Only the
    absolute term keeps it exact for a side whose targets are all equal; it
    is about 1e-23 on 559 targets in (-1, 1).

    Leaf fits are fewer still: :func:`coordinate_descent` reads its targets
    only through their mean, so each distinct mean (bit for bit) is fit once
    per call and its parameters reused for every leaf with that mean.

    Each node is a fit plan: everything about it that does not depend on
    the gradients.  Its items are (position in ``examples``, rows), with
    every witness of the node's context as rows, the root's one row being
    its query's arguments (tuple-ID propagation; Yin et al., CrossMine, ICDE
    2004).  When a plan is first expanded, a true child's rows are extended
    by its test (:func:`~liftedrbm.logic.join`), its candidates are
    generated, and each is decided by :func:`partition` from a
    :class:`CoverageTable` keyed on (node context id, candidate atom), so
    each (context, candidate, example) is decided at most once, by set
    lookups and no search, and kept as a byte selector over the plan's
    items.  A fit reads each side's gradients from its node's by
    ``itertools.compress`` with that selector or its complement; a
    one-sided candidate is skipped without a list.  Child plans are made
    when their candidate first wins, so a true child that stays a leaf is
    never joined.  The fit proves nothing through
    :func:`~liftedrbm.logic.witnesses`.

    Pass ``table`` to share one across fits over the same knowledge base (as
    :func:`~liftedrbm.model.train` does for its trees): the root plan is
    found there under its key (see :class:`CoverageTable`), so a later fit
    over the same examples checks none of them again and reaches each node
    an earlier fit expanded with its rows, candidates and splits built.
    The table then keeps every plan until it is dropped.  By default the fit
    uses its own table and drops it on return, and, since no later fit can
    read a plan, an expanded plan or a permanent leaf frees its rows,
    candidates and splits at once; the table still pays off because a false
    child keeps its parent's context.  When given, ``fitted`` is filled
    with each example's leaf value in ``examples`` order: the value
    :meth:`~liftedrbm.model.BoostedModel.per_tree` routes it to, since
    fitting and routing make the same decisions.
    """
    if not examples:
        raise ValueError("cannot fit a tree to zero examples")
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    predicate = examples[0].query.predicate
    head = make_head(predicate)
    owned = table is None
    if owned:
        table = CoverageTable()

    # coordinate_descent reads its targets only through their mean, so each
    # distinct mean is fit once; its bits are the key, as 0.0 == -0.0.
    fits: dict[str, tuple[LeafParams, float]] = {}

    def fit_leaf(deltas: Sequence[float]) -> tuple[LeafParams, float]:
        key = (sum(deltas) / len(deltas)).hex()
        fit = fits.get(key)
        if fit is None:
            params = coordinate_descent(
                deltas, learning_rate=learning_rate, max_iters=cd_max_iters, tolerance=cd_tolerance
            )
            fit = fits[key] = (params, params.value())
        params, value = fit
        return params, _sum_squares(value, deltas)

    bits = tuple([table.bit(example.query) for example in examples])
    root_key = (predicate, bits, tuple(modes.values()), max_new_vars)
    plan = table._roots.get(root_key)
    if plan is None:  # a hit has checked these same queries
        items: list[FitItem] = []
        for position, example in enumerate(examples):
            query = example.query
            if query.predicate != predicate or not query.is_ground:
                raise ValueError(f"example {query} does not ground {head}")
            items.append((position, (tuple([t.name for t in query.args]),)))
        plan = table._roots[root_key] = _Plan(
            items, 0, (), table.context_id(()), head.args, frozenset(t.name for t in head.args)
        )
    gradients = [example.gradient for example in examples]
    root = _FitNode(plan, *fit_leaf(gradients))
    exclude, width = (predicate.name,), len(head.args)

    tick = itertools.count()
    frontier: list[tuple[float, int, _FitNode, list[float]]] = []

    def push(node: _FitNode, deltas: list[float]) -> None:
        depth_ok = max_depth is None or node.plan.depth < max_depth
        if depth_ok and node.sse > _MIN_SPLIT_SSE and len(deltas) >= 2:
            heapq.heappush(frontier, (-node.sse, next(tick), node, deltas))

    push(root, gradients)
    leaves = 1
    while leaves < max_leaves and frontier:
        _, _, node, deltas = heapq.heappop(frontier)
        plan = node.plan
        if plan.splits is None:
            plan.expand(modes, max_new_vars, exclude, bits, width, kb, table)
        best = None
        for k, split in enumerate(plan.splits):
            if split is None:
                continue
            deltas_left = list(compress(deltas, split))
            deltas_right = list(compress(deltas, split.translate(_FLIP)))
            if best is not None and _sse_floor(deltas_left) + _sse_floor(deltas_right) >= best[0]:
                continue  # cannot score strictly below best
            theta_left, sse_left = fit_leaf(deltas_left)
            theta_right, sse_right = fit_leaf(deltas_right)
            score = sse_left + sse_right
            if best is None or score < best[0]:
                best = (score, k, deltas_left, deltas_right, theta_left, sse_left, theta_right, sse_right)
        if best is None:
            if owned:
                plan.drop()
            continue  # permanent leaf
        _, k, deltas_left, deltas_right, theta_left, sse_left, theta_right, sse_right = best
        true_plan, false_plan = plan.child(k, table)
        node.test = plan.candidates[k]
        if owned:
            plan.drop()  # its items live on in its children; a join frees its rows
        node.true_child = _FitNode(true_plan, theta_left, sse_left)
        node.false_child = _FitNode(false_plan, theta_right, sse_right)
        leaves += 1
        push(node.true_child, deltas_left)
        push(node.false_child, deltas_right)

    values = [0.0] * len(examples)  # by position: the value of the leaf it reached
    tree = RelationalRegressionTree(head, _materialize(root, values))
    if fitted is not None:
        fitted[:] = values
    return tree


def _materialize(node: _FitNode, values: list[float]) -> TreeNode:
    """The tree under a fit node, each example's leaf value put in ``values``
    at its position; not a closure calling itself, a reference cycle per
    fit."""
    if node.test is None:
        value = node.params.value()
        for position in node.plan.positions:
            values[position] = value
        return LeafNode(node.params)
    return InternalNode(
        node.test, _materialize(node.true_child, values), _materialize(node.false_child, values)
    )
