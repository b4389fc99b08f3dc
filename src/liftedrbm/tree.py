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

A fit builds each node once from its root plan, as a plan of what it is
regardless of the gradients: its examples by position, rows, candidates and
splits, decided and joined on the knowledge base's fact views.  A root or a
true child decides its splits on its rows; a false child, whose context and
rows are its parent's, takes its parent's candidates and splits compressed
to its side, as TILDE's else branch keeps its parent's query (Blockeel & De
Raedt, AIJ 1998).  Boosted trees are grown from the one root plan
:func:`~liftedrbm.model.train` holds, so a later tree reuses every node an
earlier one built and only refits the leaves.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .logic import (
    Atom,
    Clause,
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
            out.append(_literal(predicate, combo, base_names))
    return out


def _literal(predicate: Predicate, combo: Sequence, used_names: Iterable[str]) -> Literal:
    """The test of ``predicate`` whose arguments are ``combo``, each
    ``_FRESH`` slot a new variable named by type initial, avoiding
    ``used_names`` and every named slot."""
    taken = {slot.name for slot in combo if slot is not _FRESH}
    taken.update(used_names)
    return Literal(Atom(predicate, tuple([
        _fresh_variable(type_tag, taken) if slot is _FRESH else slot
        for slot, type_tag in zip(combo, predicate.arg_types)
    ])))


def _renamed(
    candidates: list[Literal], bound_vars: Sequence[Term], used_names: frozenset[str]
) -> list[Literal]:
    """``candidates``, generated for a node binding ``bound_vars``, as
    :func:`generate_candidates` names them under ``used_names``, a superset
    of the names it was given: each variable outside ``bound_vars`` a fresh
    slot.  A candidate none of whose fresh names is now used keeps them,
    since each is still the first free index of its type."""
    bound = {var.name for var in bound_vars}
    out = []
    for candidate in candidates:
        args = candidate.atom.args
        if any(arg.name in used_names and arg.name not in bound for arg in args):
            combo = tuple([arg if arg.name in bound else _FRESH for arg in args])
            candidate = _literal(candidate.atom.predicate, combo, used_names)
        out.append(candidate)
    return out


def _restates(test: Atom, bound: set[Term], context: tuple[Atom, ...]) -> bool:
    """Whether renaming ``test``'s variables outside ``bound`` makes it an
    atom of ``context``, each such variable renamed one way wherever it
    stands.  Then ``test`` holds on every witness of the context: that
    witness's own values for the atom's arguments satisfy it."""
    for atom in context:
        if atom.predicate != test.predicate:
            continue
        renaming: dict[Term, Term] = {}
        for mine, theirs in zip(test.args, atom.args):
            if mine.is_variable and mine not in bound:
                if renaming.setdefault(mine, theirs) != theirs:
                    break
            elif mine != theirs:
                break
        else:
            return True
    return False


# (position, rows): the example's index in the fit's ``queries``, and every
# witness of the node's context, each as the names of the constants it binds
# to the node's bound variables, in their order
FitItem = tuple[int, tuple[tuple[str, ...], ...]]

# Turns a split's selector into its complement.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class NodeIndex:
    """A fit node's items as :func:`partition` reads them: each item's bit,
    ``1 << position``, their OR ``mask``, the items with several rows
    (``several``, as (bit, rows)), and, per tuple of columns, the OR of the
    bits of the items whose first row holds each value there
    (:meth:`first_rows`).  The first ``width`` columns are the head's, on
    which an item's rows all agree, so equal queries at two positions have
    equal rows and land on one side."""

    __slots__ = ("items", "bits", "mask", "several", "width", "_firsts")

    def __init__(self, items: Sequence[FitItem], width: int):
        self.items = items
        self.bits = [1 << position for position, _ in items]
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
    bound_vars: Sequence[Term],
    candidate: Literal,
    node: NodeIndex,
    kb: KnowledgeBase,
) -> int:
    """The bits of a node's items that satisfy (context AND candidate), a
    subset of ``node.mask``: an item is on the true side iff its bit is in
    it.  ``bound_vars`` are the variables the node's rows bind.

    An item is satisfiable iff one of its rows holds, at the candidate's
    bound columns, a value of ``kb``'s projection: only those values
    join with the context.  One set intersection with
    :meth:`NodeIndex.first_rows` decides every item whose first row holds;
    only an item with several rows, facing a candidate that binds a column
    past the head's, reads its other rows.
    """
    columns, values = kb.projection(candidate.atom, bound_vars)
    firsts = node.first_rows(columns)
    sat = 0
    for value in firsts.keys() & values:
        sat |= firsts[value]
    rest = node.mask & ~sat
    if rest and node.several and columns and max(columns) >= node.width:
        read = _key(columns)
        for bit, rows in node.several:
            if rest & bit and not values.isdisjoint(map(read, rows)):
                sat |= bit
    return sat


@dataclass(slots=True, eq=False)
class _Plan:
    """A fit node as far as it does not depend on the gradients.

    It holds the examples that reach the node, as ``items`` with their rows
    and as ``positions``, its context, its bound variables, used names and
    depth.  Once expanded it also holds its candidates and, in ``splits``,
    each distinct two-sided split as a selector (one byte per item, 1 on
    the true side) under the index of the first candidate that makes it (a
    later one would score the same and lose the tie), and, in
    ``children``, the (true, false) child plans of each candidate index
    that has won.  A true child's ``parent_vars`` are its parent's bound
    variables until it is expanded: its rows are still its parent's, and
    its test, the last atom of its context, is joined into them then.  A
    false child is never expanded: it is made with its candidates and
    splits (:meth:`child`).
    Plans hold their children, never their parents.
    """

    items: Optional[list[FitItem]]
    depth: int
    context: tuple[Atom, ...]
    bound_vars: tuple[Term, ...]
    used_names: frozenset[str]
    parent_vars: Optional[tuple[Term, ...]] = None
    candidates: Optional[list[Literal]] = None
    splits: Optional[dict[int, bytes]] = None
    children: dict[int, tuple[_Plan, _Plan]] = field(default_factory=dict)
    positions: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.positions = tuple([position for position, _ in self.items])

    def expand(self, root: _Root, kb: KnowledgeBase) -> None:
        """Join a true child's test into its rows, then generate the
        candidates and decide each one's split.  A candidate that
        :func:`_restates` an atom of the context holds on every item, so it
        is one-sided and not decided."""
        if self.parent_vars is not None:
            self.items = join(self.context[-1], self.parent_vars, self.items, kb)
            self.parent_vars = None
        head = root.head
        self.candidates = generate_candidates(
            self.bound_vars, root.modes, root.max_new_vars, self.used_names, (head.predicate.name,)
        )
        index = NodeIndex(self.items, len(head.args))  # every split is decided here
        bound = set(self.bound_vars)
        firsts: dict[int, int] = {}  # satisfied bits -> first candidate index
        for k, candidate in enumerate(self.candidates):
            if _restates(candidate.atom, bound, self.context):
                continue
            sat = partition(self.bound_vars, candidate, index, kb)
            if sat and sat != index.mask:
                firsts.setdefault(sat, k)
        self.splits = {
            k: bytes(map(bool, map(sat.__and__, index.bits))) for sat, k in firsts.items()
        }

    def child(self, k: int) -> tuple["_Plan", "_Plan"]:
        """The (true, false) child plans of candidate ``k``, made once.

        The false child has this plan's context, bound variables and rows,
        so its candidates are this plan's, their fresh variables named
        under its used names (:func:`_renamed`), and each decides the same
        items as here: its split is this one's selector compressed to the
        false side, kept when two-sided and under its first index."""
        children = self.children.get(k)
        if children is None:
            candidate, split = self.candidates[k], self.splits[k]
            flip = split.translate(_FLIP)
            new_vars = tuple(v for v in candidate.atom.variables() if v not in self.bound_vars)
            names = self.used_names | {t.name for t in candidate.atom.variables()}
            firsts: dict[bytes, int] = {}  # selector -> first candidate index
            for j, selector in self.splits.items():
                side = bytes(compress(selector, flip))
                if 0 in side and 1 in side:
                    firsts.setdefault(side, j)
            children = self.children[k] = (
                _Plan(
                    list(compress(self.items, split)), self.depth + 1,
                    self.context + (candidate.atom,), self.bound_vars + new_vars, names,
                    parent_vars=self.bound_vars,
                ),
                _Plan(
                    list(compress(self.items, flip)), self.depth + 1, self.context,
                    self.bound_vars, names,
                    candidates=_renamed(self.candidates, self.bound_vars, names),
                    splits={j: side for side, j in firsts.items()},
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


def _floors(deltas: Sequence[float], splits: dict[int, bytes]) -> list[tuple[float, int]]:
    """(floor, index) of each of a node's ``splits``, ascending: a floor
    under the computed score of any leaf values on the split's two sides.

    A side's squared error is least at its mean (CART; Breiman et al. 1984):
    ``Q - S * (S / m)`` for m targets of sum S and sum of squares Q, each a
    C-level sum through the split's selector or its complement.  The floor
    is the two sides' sum less ``8 * n * eps * Q + n * min`` for the node's
    n targets and Q.  Proof that this is enough: let u = eps / 2, t the
    least subnormal, and for a side Q* and S* the exact sums, E* = Q* - S*
    ** 2 / m and A = sum(|d|) <= sqrt(m * Q*).  A computed sum of m floats
    errs by at most 2 * m * u * (their magnitudes' sum), for recursive and
    for Python's compensated (3.12 on) summation; a product, quotient or
    difference by u, and ``** 2`` by 2 * u, relatively, plus t on
    underflow.  With no overflow and n * u < 1e-6, S errs by 2 * m * u *
    A, so the side's computed ``Q - S * (S / m)`` is at most E* + (6m + 6)
    * u * Q* + (m + 2) * t, and its computed leaf error at least E* - (2m
    + 4) * u * Q* - m * t.  Summed, the floor before the allowance exceeds
    the score by at most (8n + 4) * u * Q* + (2n + 5) * t for the node's
    Q*, below the allowance, as the computed Q >= 0.99 * Q* - n * t and min
    = 2 ** 52 * t.  Rounding is monotone, so the floor is at most the
    score.  An overflow leaves the floor inf, -inf or NaN, read as -inf:
    no floor, and no prune.
    """
    n = len(deltas)
    squares = list(map(operator.mul, deltas, deltas))
    allowance = 8 * n * sys.float_info.epsilon * sum(squares) + n * sys.float_info.min
    ranked = []
    for k, split in splits.items():
        flip = split.translate(_FLIP)
        m = split.count(1)
        s_true, s_false = sum(compress(deltas, split)), sum(compress(deltas, flip))
        floor = (
            (sum(compress(squares, split)) - s_true * (s_true / m))
            + (sum(compress(squares, flip)) - s_false * (s_false / (n - m)))
        ) - allowance
        ranked.append((floor if floor < math.inf else -math.inf, k))
    ranked.sort()
    return ranked


class _Root(NamedTuple):
    """A root plan and what every fit from it reads besides the gradients:
    the head, the modes and ``max_new_vars``."""

    head: Atom
    plan: _Plan
    modes: dict
    max_new_vars: int


def _root_plan(queries: Sequence[Atom], modes, max_new_vars: int) -> _Root:
    """The root plan of fits over ``queries``; it refuses a query that is
    not a ground atom of the first one's predicate."""
    predicate = queries[0].predicate
    head = make_head(predicate)
    items: list[FitItem] = []
    for position, query in enumerate(queries):
        if query.predicate != predicate or not query.is_ground:
            raise ValueError(f"example {query} does not ground {head}")
        items.append((position, (tuple([t.name for t in query.args]),)))
    plan = _Plan(items, 0, (), head.args, frozenset(t.name for t in head.args))
    return _Root(head, plan, modes, max_new_vars)


def fit_regression_tree(
    queries: Sequence[Atom],
    gradients: Sequence[float],
    max_leaves: int,
    modes,
    kb: KnowledgeBase,
    *,
    learning_rate: float = 0.05,
    cd_max_iters: int = 500,
    cd_tolerance: float = 1e-8,
    max_new_vars: int = 1,
    max_depth: Optional[int] = None,
    fitted: Optional[list[float]] = None,
) -> RelationalRegressionTree:
    """Greedy best-first induction of one tree fitting ``gradients``, the
    regression target of each of the ground ``queries`` at its position.

    Expandable nodes sit in a priority queue ordered by their residual error.
    A candidate's score is the sum of its two child leaves' squared errors,
    each leaf fit by coordinate descent; the first candidate attaining the
    minimum is committed (deterministic tie-break) and both children are
    queued.  Construction stops at ``max_leaves`` leaves or when nothing
    expandable remains; candidates emptying either side are rejected and a
    node with no usable candidate stays a leaf.

    Not every candidate is fit.  A candidate that makes the same split as
    an earlier one scores the same and is never fit.  Each other one gets a
    floor under its score from its sides' least squared errors at their
    means (CART; Breiman et al. 1984), less an allowance for rounding that
    :func:`_floors` proves, and candidates are fit in (floor, index) order.
    No candidate is fit past the first floor above the best score so far,
    nor one whose floor equals it when its index is higher than the best
    one's: it could at most tie, and lose the tie.  The committed candidate
    is thus the first minimum in candidate order, as when every candidate
    is fit, and so are the tree and ``fitted`` (``tests/test_tree.py``
    checks them against fitting all).

    Leaf fits are fewer still: :func:`coordinate_descent` reads its targets
    only through their mean, so each distinct mean (bit for bit) is fit once
    per call and its parameters reused for every leaf with that mean.

    Each node is a fit plan: everything about it that does not depend on
    the gradients.  Its items are (position in ``queries``, rows), with
    every witness of the node's context as rows, the root's one row being
    its query's arguments (tuple-ID propagation; Yin et al., CrossMine, ICDE
    2004).  When a root or a true child is first expanded, a true child's
    rows are extended by its test (:func:`~liftedrbm.logic.join`), its
    candidates are generated, and each is decided by :func:`partition`, by
    set lookups in ``kb``'s fact views and no search, and kept as a byte
    selector over the plan's items; a candidate that restates an atom of
    the context (:func:`_restates`) holds on every item and is not decided.
    Child plans are made when their candidate first wins, so a true child
    that stays a leaf is never joined.  A false child is never expanded:
    it keeps its parent's context and rows, so :meth:`_Plan.child` makes it
    with its parent's candidates, renamed, and selectors, compressed to its
    side; no (context, candidate) pair is decided twice.  A fit reads each
    side's gradients from its node's by ``itertools.compress`` with a
    selector or its complement; a one-sided candidate is skipped without a
    list.  The fit proves nothing through
    :func:`~liftedrbm.logic.witnesses`.

    The fit owns its root plan, so a plan frees its rows, candidates and
    splits once it has split, its false child made from them first, or
    stays a leaf.  :func:`~liftedrbm.model.train` instead grows every tree
    from one root plan (:func:`_grow`), so a later tree reaches each node
    an earlier one expanded with its rows, candidates and splits built.
    When given, ``fitted`` is filled with each query's leaf value in
    ``queries`` order: the value
    :meth:`~liftedrbm.model.BoostedModel.per_tree` routes it to, since
    fitting and routing make the same decisions.
    """
    if not queries:
        raise ValueError("cannot fit a tree to zero examples")
    if len(gradients) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(gradients)} gradients")
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    return _grow(
        _root_plan(queries, modes, max_new_vars), list(gradients), max_leaves, kb, owned=True,
        learning_rate=learning_rate, cd_max_iters=cd_max_iters, cd_tolerance=cd_tolerance,
        max_depth=max_depth, fitted=fitted,
    )


def _grow(
    root: _Root, gradients: list[float], max_leaves: int, kb: KnowledgeBase,
    *, owned: bool, learning_rate: float, cd_max_iters: int, cd_tolerance: float,
    max_depth: Optional[int] = None, fitted: Optional[list[float]] = None,
) -> RelationalRegressionTree:
    """The tree :func:`fit_regression_tree` fits from ``root``, whose
    queries' gradients are ``gradients`` by position.  An ``owned`` root is
    read by no later fit, so plans are freed as they are done."""
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

    top = _FitNode(root.plan, *fit_leaf(gradients))

    tick = itertools.count()
    frontier: list[tuple[float, int, _FitNode, list[float]]] = []

    def push(node: _FitNode, deltas: list[float]) -> None:
        depth_ok = max_depth is None or node.plan.depth < max_depth
        if depth_ok and node.sse > _MIN_SPLIT_SSE and len(deltas) >= 2:
            heapq.heappush(frontier, (-node.sse, next(tick), node, deltas))

    push(top, gradients)
    leaves = 1
    while leaves < max_leaves and frontier:
        _, _, node, deltas = heapq.heappop(frontier)
        plan = node.plan
        if plan.splits is None:
            plan.expand(root, kb)
        best = None
        for floor, k in _floors(deltas, plan.splits):
            # The score is at least the floor, so it cannot come first in
            # (score, index) order; past the first floor above the best
            # score, none can.
            if best is not None and (floor, k) > best[:2]:
                continue
            split = plan.splits[k]
            left = list(compress(deltas, split))
            right = list(compress(deltas, split.translate(_FLIP)))
            fit_left, fit_right = fit_leaf(left), fit_leaf(right)
            score = fit_left[1] + fit_right[1]
            if best is None or (score, k) < best[:2]:
                best = (score, k, left, right, fit_left, fit_right)
        if best is None:
            if owned:
                plan.drop()
            continue  # permanent leaf
        _, k, left, right, fit_left, fit_right = best
        true_plan, false_plan = plan.child(k)
        node.test = plan.candidates[k]
        if owned:
            plan.drop()  # its items live on in its children; a join frees its rows
        node.true_child = _FitNode(true_plan, *fit_left)
        node.false_child = _FitNode(false_plan, *fit_right)
        leaves += 1
        push(node.true_child, left)
        push(node.false_child, right)

    values = [0.0] * len(gradients)  # by position: the value of the leaf it reached
    tree = RelationalRegressionTree(root.head, _materialize(top, values))
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
