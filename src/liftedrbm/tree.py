"""Relational regression trees fit to pointwise boosting gradients.

Internal nodes test one literal; each root-to-leaf path is a conjunctive
clause and every leaf carries the five parameters of one network feature: an
output-bias difference, a hidden-unit bias, a path-feature weight, and the two
hidden-to-output weights.  A node's decision is satisfiability of the whole
path conjunction extended by its test.  Training decides it over every witness
of the path's context at once, carried down the tree as rows, by the row test
a batch walk also uses (:func:`~liftedrbm.logic.partition`), which reads the
head's columns, the same in every row of an example, from its first row;
routing one query proves it from the first witness chained down the path;
both decide the same conjunction, so they agree exactly.  A path's context
holds only the atoms of its positive tests: a false branch adds nothing,
since its negated test holds on every extension of the context (see
:func:`~liftedrbm.logic.route_decision`).  A path read as the clause (head,
signed path literals) is what a model's or a network's
:class:`~liftedrbm.logic.RoutingTrie` routes.

A fit builds each node once from its root plan, as a plan of what it is
regardless of the gradients: its examples by position, rows, candidates and
splits, decided and joined on the knowledge base's fact views.  A candidate
is a predicate and one slot per argument, a bound variable or a fresh one;
it is decided from its slots, and only the one that wins is named as an atom
and joins the path, as in TILDE's refinement (Blockeel & De Raedt, AIJ
1998).  The root compiles the candidates of each tuple of bound variables
once, and each candidate is decided once down a path, as query packs share
such work (Blockeel et al., JAIR 2002): a true child decides on its rows
only what its test can change, and a false child, whose context and rows
are its parent's, holds its parent's candidates and takes its decisions
compressed to its side, as TILDE's else branch keeps its parent's query.
Boosted trees are grown from the one root plan :func:`~liftedrbm.model.train`
holds, so a later tree reuses every node an earlier one built and only
refits the leaves.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import accumulate, compress, groupby
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    Term,
    FLIP,
    join,
    partition,
)


def softplus(z: float) -> float:
    """log(1 + exp(z)) computed as max(z, 0) + log1p(exp(-|z|))."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# Float sums that reach an output add left to right: ``sum`` below 3.12, where a
# ``reduce`` fold made ``boost`` ``job_s`` 20% slower; from 3.12 ``sum`` compensates.
if sys.version_info < (3, 12):
    ordered_sum = sum
else:
    def ordered_sum(values: Iterable[float]) -> float:
        total = 0
        for value in values:
            total += value
        return total


class LeafParams(NamedTuple):
    """Parameters of one clause feature, all applied when the path is active.

    ``output_bias`` is the difference between the two output-node biases (only
    the difference matters for the potential), ``hidden_bias`` the bias of the
    hidden unit, ``feature_weight`` the visible-to-hidden weight on the path
    indicator, and ``neg_weight``/``pos_weight`` the edges from the hidden unit
    to the two output nodes.  It is the plain 5-tuple of these, in this order,
    that a model document stores and a tree's text prints.
    """

    output_bias: float = 0.0
    hidden_bias: float = 0.0
    feature_weight: float = 0.0
    neg_weight: float = 0.0
    pos_weight: float = 0.0

    def value(self) -> float:
        """Potential contributed when this leaf's path feature is active."""
        return _value(self)


ZERO_PARAMS = LeafParams()


def _value(p: Sequence[float]) -> float:
    """Leaf potential of five parameters in :class:`LeafParams` order,
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
        return ordered_sum((center - v) ** 2 for v in values)
    except OverflowError:  # rare: only then pay a call per square
        return ordered_sum(_square(center - v) for v in values)


def coordinate_descent(
    mean: float,
    theta0: LeafParams = ZERO_PARAMS,
    learning_rate: float = 0.05,
    max_iters: int = 500,
    tolerance: float = 1e-8,
) -> LeafParams:
    """Fit leaf parameters to regression targets of mean ``mean``.

    Cycles through the five coordinates, each moved by ``learning_rate`` times
    the negative partial derivative of the targets' mean squared error; the
    leaf value is shared by all its examples, so that error is the squared
    distance of the value from ``mean`` plus a constant, and depends on the
    targets only through their mean (Friedman, Ann. Stat. 2001): the
    optimum satisfies ``value == mean``, and the step size does not depend
    on the leaf's support.  Stops after ``max_iters``
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
    float maximum is reached too.

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
    rate, exp, log1p, inf = learning_rate, math.exp, math.log1p, math.inf
    half = sys.float_info.max / 2
    p0, p1, p2, p3, p4 = theta0
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
                return coordinate_descent(mean, theta0, learning_rate, cycle, tolerance)
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
        return max(len(literals) for literals, _ in self.paths())

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


# Module-level, not a closure calling itself: such a closure is a reference
# cycle on every call.
def _text_lines(node: TreeNode, indent: str, lines: list[str]) -> None:
    if isinstance(node, LeafNode):
        values = ", ".join(map(repr, node.params))
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


_FRESH = object()  # a candidate's slot for a fresh variable, named when it wins

# A candidate test: its predicate and one slot per argument, a bound
# variable or ``_FRESH``.
Candidate = tuple[Predicate, tuple]


def generate_candidates(
    bound_vars: Sequence[Term],
    modes,
    max_new_vars: int = 1,
    exclude_predicates: Iterable[str] = (),
) -> list[Candidate]:
    """Mode-compatible tests for a node binding ``bound_vars``, each as its
    predicate and a tuple of slots.

    ``+`` arguments draw from the bound variables of the matching type; ``-``
    arguments may also take a fresh slot, ``_FRESH``, at most ``max_new_vars``
    per candidate.  Every slot's options are distinct (each bound variable
    once, one fresh slot), so no two candidates are equal up to renaming of
    the fresh variables, and no fresh variable stands twice in one.  They
    come in a deterministic order: modes in declaration order, bound
    variables in binding order, fresh slots last.  Nothing is named here:
    :func:`_atom` names a candidate's fresh variables when it wins.
    """
    by_type: dict[str, list[Term]] = {}
    for var in bound_vars:
        group = by_type.setdefault(var.type_tag, [])
        if var not in group:
            group.append(var)
    excluded = set(exclude_predicates)
    out: list[Candidate] = []
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
            if combo.count(_FRESH) <= max_new_vars:
                out.append((predicate, combo))
    return out


def _atom(predicate: Predicate, slots: Sequence, used_names: Iterable[str]) -> Atom:
    """The atom of ``predicate`` whose arguments are ``slots``, each
    ``_FRESH`` slot a new variable named by type initial, avoiding
    ``used_names`` and every bound slot."""
    taken = {slot.name for slot in slots if slot is not _FRESH}
    taken.update(used_names)
    return Atom(predicate, tuple([
        _fresh_variable(type_tag, taken) if slot is _FRESH else slot
        for slot, type_tag in zip(slots, predicate.arg_types)
    ]))


def _restated(context: tuple[Atom, ...], index: dict[tuple, int]) -> set[int]:
    """The indices, by ``index`` (see :class:`_Compiled`), of the candidates
    that restate an atom of ``context``: the atom is the candidate once its
    fresh slots are named, so the candidate holds on every witness of the
    context.  No fresh variable stands twice in a candidate, so an atom
    restates each candidate that keeps or frees each of its arguments."""
    return {
        index[key] for atom in context
        for names in itertools.product(*[(t.name, None) for t in atom.args])
        if (key := (atom.predicate.name, names)) in index
    }


def _first_splits(selectors: Iterable[tuple[int, bytes]]) -> dict[int, bytes]:
    """Each distinct two-sided selector of ``(index, selector)`` pairs under
    its first index: a later one would score the same and lose the tie."""
    firsts: dict[bytes, int] = {}  # selector -> first index
    for k, selector in selectors:
        if 0 in selector and 1 in selector:
            firsts.setdefault(selector, k)
    return {k: selector for selector, k in firsts.items()}


class _Compiled(NamedTuple):
    """The candidates of the plans from one root that bind ``bound_vars``
    and, in candidate order, each one's key in ``index`` (its predicate's
    name and its slots' variable names, ``None`` for a fresh slot: a plan's
    bound variables have distinct names), the columns its bound slots read,
    their projection, and whether those are all head columns."""

    bound_vars: tuple[Term, ...]
    candidates: list[Candidate]
    index: dict[tuple, int]
    columns: list[tuple[int, ...]]
    values: list
    head_only: list[bool]


# (position, rows): the example's index in the fit's ``queries``, and every
# witness of the node's context, each as the names of the constants it binds
# to the node's bound variables, in their order
FitItem = tuple[int, tuple[tuple[str, ...], ...]]

@dataclass(slots=True, eq=False)
class _Plan:
    """A node of the fits from one root, as far as it does not depend on the
    gradients; a fit records what its gradients made of each plan it reaches
    (:func:`_grow`).

    It holds the examples that reach the node, as ``items`` with their rows
    (tuple-ID propagation; Yin et al., CrossMine, ICDE 2004) and as
    ``positions``, its context, its bound variables, used names and depth.
    Once expanded it also holds its candidates, unnamed and ``compiled``
    once per root for its bound variables, in ``selectors`` the selector
    from :func:`~liftedrbm.logic.partition` (one byte per item, 1 on the
    true side) of each candidate that does not restate its context, in
    ``splits`` those :func:`_first_splits` keeps, in ``classes``, its items
    grouped by their bits under those splits (:func:`_classes`, made the
    first time a fit that does not own the plan ranks them), and, in
    ``children``, the (true, false) child plans of each candidate index that
    has won: the only candidates ever named.  A true child's test is the
    last atom of its context.  Until a child holds its own selectors,
    ``parent`` holds its parent's compiled candidates and selectors, the
    selector of its items among its parent's, and whether every selector
    carries over; a true child's rows are its parent's until it is
    expanded and its test is joined into them.  A false child is never
    expanded: it is made holding its parent's candidates and its own
    splits, and takes its selectors when it splits (:meth:`child`).  Plans
    hold their children, never their parents, and :meth:`drop` keeps the
    context, positions and children a fit's tree is read from.
    """

    items: Optional[list[FitItem]]
    depth: int
    context: tuple[Atom, ...]
    bound_vars: tuple[Term, ...]
    used_names: frozenset[str]
    parent: Optional[tuple[_Compiled, dict[int, bytes], bytes, bool]] = None
    compiled: Optional[_Compiled] = None
    selectors: Optional[dict[int, bytes]] = None
    splits: Optional[dict[int, bytes]] = None
    classes: Optional[_Classes] = None
    children: dict[int, tuple[_Plan, _Plan]] = field(default_factory=dict)
    positions: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.positions = tuple([position for position, _ in self.items])

    def expand(self, root: _Root, kb: KnowledgeBase) -> None:
        """Join a true child's test into its rows, then decide each
        candidate's split from its slots: its bound slots are the test's
        bound positions, read at their variables' columns, and its fresh
        slots filter nothing, so its projection is the one a batch walk
        reads for the named atom.  The first columns, one per head argument,
        hold each item's query's arguments in every row.  A candidate that
        restates an atom of the context (:func:`_restated`) holds on every
        item, so it is one-sided and not decided.  A true child's items are
        those its test selected, each with its head columns and a row, so a
        candidate that reads only head columns keeps its parent's selector,
        as does every one when the test reads only head columns: the join
        then extends an item's rows by the same facts.  Only the others are
        decided by :func:`~liftedrbm.logic.partition`."""
        known = None
        if self.parent is not None:
            known, chosen, side, every = self.parent
            self.items = join(self.context[-1], known.bound_vars, self.items, kb)
            self.parent = None
        self.compiled = compiled = root.compile(self.bound_vars, kb)
        restated, width = _restated(self.context, compiled.index), len(root.head.args)
        selectors = self.selectors = {}
        for k, key in enumerate(compiled.index):
            if k in restated:
                continue
            j = None if known is None else known.index.get(key)
            if j is not None and (every or compiled.head_only[k]):
                selectors[k] = bytes(compress(chosen[j], side))
            else:
                selectors[k] = partition(compiled.columns[k], compiled.values[k], self.items, width)
        self.splits = _first_splits(selectors.items())

    def child(self, k: int) -> tuple["_Plan", "_Plan"]:
        """The (true, false) child plans of candidate ``k``, made once.

        Candidate ``k`` is named here (:func:`_atom`), under this plan's used
        names, as the true child's last context atom.  The false child has
        this plan's context, bound variables and rows, so it holds this
        plan's candidates, each deciding the same items: its splits and,
        once it splits itself (here), its selectors are these on its side."""
        children = self.children.get(k)
        if children is None:
            if self.selectors is None:
                _, chosen, side, _ = self.parent
                self.selectors = {j: bytes(compress(s, side)) for j, s in chosen.items()}
                self.parent = None
            compiled, selectors = self.compiled, self.selectors
            test = _atom(*compiled.candidates[k], self.used_names)
            split = self.splits[k]
            flip = split.translate(FLIP)
            new_vars = tuple(v for v in test.variables() if v not in self.bound_vars)
            names = self.used_names | {t.name for t in test.variables()}
            sides = ((j, bytes(compress(selector, flip))) for j, selector in self.splits.items())
            children = self.children[k] = (
                _Plan(
                    list(compress(self.items, split)), self.depth + 1,
                    self.context + (test,), self.bound_vars + new_vars, names,
                    parent=(compiled, selectors, split, compiled.head_only[k]),
                ),
                _Plan(
                    list(compress(self.items, flip)), self.depth + 1, self.context,
                    self.bound_vars, names, parent=(compiled, selectors, flip, True),
                    compiled=compiled, splits=_first_splits(sides),
                ),
            )
        return children

    def drop(self) -> None:
        """Free the rows, selectors, splits and classes that no later fit
        will read."""
        self.items = self.parent = self.selectors = self.splits = self.classes = None


# Nodes whose residual error is below this are never worth splitting.
_MIN_SPLIT_SSE = 1e-12


def _allowance(n: int, squares: float) -> float:
    """What :func:`_floors` takes off a floor over n targets whose squares
    sum to ``squares``, for rounding."""
    return 8 * n * sys.float_info.epsilon * squares + n * sys.float_info.min


class _Classes(NamedTuple):
    """A node's items grouped by their bits under every split: ``gather``
    lists the node's targets class by class, ``spans`` slices each class
    out of that list, and ``selectors`` holds each split's selector over
    the classes (1 on the true side) and its complement, by split index."""

    gather: operator.itemgetter
    spans: list[slice]
    selectors: dict[int, tuple[bytes, bytes]]


def _classes(splits: dict[int, bytes]) -> _Classes:
    """The :class:`_Classes` of a node's ``splits``, at least one: items
    with the same bit under every split form one class, so each split's
    sides are unions of classes, and a node's few splits cut its many items
    into few classes."""
    bits = list(zip(*splits.values()))  # each item's bits, in split order
    order = sorted(range(len(bits)), key=bits.__getitem__)  # stable: a class keeps item order
    keys, ends = [], []
    for key, members in groupby(order, bits.__getitem__):
        keys.append(key)
        ends.append(len(list(members)))
    ends = list(accumulate(ends))
    selectors = {}
    for j, k in enumerate(splits):
        selector = bytes([key[j] for key in keys])
        selectors[k] = (selector, selector.translate(FLIP))
    return _Classes(
        operator.itemgetter(*order), list(map(slice, [0] + ends[:-1], ends)), selectors
    )


def _floors(
    deltas: Sequence[float], splits: dict[int, bytes], classes: Optional[_Classes] = None
) -> list[tuple[float, int]]:
    """(floor, index) of each of a node's ``splits``, ascending: a floor
    under the computed score of any leaf values on the split's two sides.

    A side's squared error is least at its mean (CART; Breiman et al. 1984):
    ``Q - S * (S / m)`` for m targets of sum S and sum of squares Q.  Given
    ``classes``, the splits' :func:`_classes`, each class's S and Q are
    summed once and a side's are the sums of its classes' (per-class
    sufficient statistics, as in LightGBM's histograms; Ke et al., NeurIPS
    2017); that pays when the splits are ranked again, as ``train``'s later
    trees do.  Without them every item is a class of its own, and a side's
    sums are taken through its selector.  The floor is the two sides' sum
    less ``8 * n * eps * Q + n * min`` (:func:`_allowance`) for the node's n
    targets and Q.  Proof that this is enough: let u = eps / 2, t the least
    subnormal, and for a side Q* and S* the exact sums, E* = Q* - S* ** 2 /
    m and A = sum(|d|) <= sqrt(m * Q*).  A computed sum of m floats errs by
    at most 2 * m * u * (their magnitudes' sum) in any order: in any tree of
    plain additions, such as class sums and then their sum, each term passes
    through at most m - 1 roundings; a compensated ``sum`` (Python 3.12 on)
    errs by at most 2 * u * (that magnitude sum) plus O(m * u ** 2) times
    it, so class sums and their sum, both compensated, by about 4 * u times
    it, within the bound for m >= 2, and one term is summed exactly.  A
    product, quotient or difference errs by u, and ``** 2`` by 2 * u,
    relatively, plus t on underflow.  With no overflow and n * u < 1e-6, S
    errs by 2 * m * u * A, so the side's computed ``Q - S * (S / m)`` is at
    most E* + (6m + 6) * u * Q* + (m + 2) * t, and its computed leaf error
    at least E* - (2m + 4) * u * Q* - m * t.  Summed, the floor before the
    allowance exceeds the score by at most (8n + 4) * u * Q* + (2n + 5) * t
    for the node's Q*, below the allowance, as the computed Q >= 0.99 * Q* -
    n * t and min = 2 ** 52 * t.  Rounding is monotone, so the floor is at
    most the score.  An overflow leaves the floor inf, -inf or NaN, read as
    -inf: no floor, and no prune.
    """
    n = len(deltas)
    if classes is None:
        sums, square_sums = deltas, list(map(operator.mul, deltas, deltas))
        selectors = {k: (split, split.translate(FLIP)) for k, split in splits.items()}
    else:
        grouped = classes.gather(deltas)
        squares = list(map(operator.mul, grouped, grouped))
        sums = list(map(sum, map(grouped.__getitem__, classes.spans)))
        square_sums = list(map(sum, map(squares.__getitem__, classes.spans)))
        selectors = classes.selectors
    allowance = _allowance(n, sum(square_sums))
    ranked = []
    for k, (selector, flip) in selectors.items():
        m = splits[k].count(1)
        s_true = sum(compress(sums, selector))
        s_false = sum(compress(sums, flip))
        floor = (
            (sum(compress(square_sums, selector)) - s_true * (s_true / m))
            + (sum(compress(square_sums, flip)) - s_false * (s_false / (n - m)))
        ) - allowance
        ranked.append((floor if floor < math.inf else -math.inf, k))
    return sorted(ranked)


def _leaf_floor(deltas: Sequence[float]) -> float:
    """A floor under the computed squared error of any one leaf value on
    ``deltas``: their least error ``Q - S * (S / n)`` less :func:`_allowance`,
    or -inf where that overflows.  For n >= 2 this is one side of
    :func:`_floors`'s proof: the floor before the allowance exceeds the
    error by at most (8n + 10) * u * Q* + (2n + 2) * t, below the
    allowance.  One target's floor is at most 0: ``d * (d / 1)`` is the
    computed ``Q``."""
    n = len(deltas)
    squares = sum(map(operator.mul, deltas, deltas))
    total = sum(deltas)
    floor = (squares - total * (total / n)) - _allowance(n, squares)
    return floor if floor < math.inf else -math.inf


class _Root(NamedTuple):
    """A root plan and what every fit from it reads besides the gradients:
    the head, the modes and ``max_new_vars``, and the candidates compiled
    for each tuple of bound variables a plan from it binds."""

    head: Atom
    plan: _Plan
    modes: dict
    max_new_vars: int
    compiled: dict[tuple[Term, ...], _Compiled]

    def compile(self, bound_vars: tuple[Term, ...], kb: KnowledgeBase) -> _Compiled:
        """The :class:`_Compiled` candidates of ``bound_vars``, made once."""
        compiled = self.compiled.get(bound_vars)
        if compiled is None:
            candidates = generate_candidates(
                bound_vars, self.modes, self.max_new_vars, (self.head.predicate.name,)
            )
            column, width = bound_vars.index, len(self.head.args)
            index, columns, values = {}, [], []
            for k, (predicate, slots) in enumerate(candidates):
                names = tuple([None if slot is _FRESH else slot.name for slot in slots])
                index[predicate.name, names] = k
                positions = tuple([pos for pos, slot in enumerate(slots) if slot is not _FRESH])
                columns.append(tuple([column(slots[pos]) for pos in positions]))
                values.append(kb.projection(predicate.name, positions))
            compiled = self.compiled[bound_vars] = _Compiled(
                bound_vars, candidates, index, columns, values,
                [all(c < width for c in each) for each in columns],
            )
        return compiled


def _root_plan(queries: Sequence[Atom], modes, max_new_vars: int) -> _Root:
    """The root plan of fits over ``queries``; it refuses a query that is
    not a ground atom of the first one's predicate."""
    predicate = queries[0].predicate
    head = make_head(predicate)
    items: list[FitItem] = []
    for position, query in enumerate(queries):
        same = query.predicate is predicate or query.predicate == predicate
        if not same or not query.is_ground:
            raise ValueError(f"example {query} does not ground {head}")
        items.append((position, (tuple([t.name for t in query.args]),)))
    plan = _Plan(items, 0, (), head.args, frozenset(t.name for t in head.args))
    return _Root(head, plan, modes, max_new_vars, {})


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
) -> RelationalRegressionTree:
    """Greedy best-first induction of one tree fitting ``gradients``, the
    regression target of each of the ground ``queries`` at its position.

    Candidate tests are the ones ``modes`` allow with at most
    ``max_new_vars`` fresh variables each, decided on ``kb``.  Nodes are
    expanded in order of their squared error until the tree has
    ``max_leaves`` leaves or none is left to expand; a node at
    ``max_depth``, with one example, with an error near zero, or with no
    candidate that leaves both sides nonempty stays a leaf.  A candidate
    scores the two sides' squared errors, each side a leaf that
    :func:`coordinate_descent` (``learning_rate``, ``cd_max_iters``,
    ``cd_tolerance``) fits to its targets' mean, and a node commits the
    candidate first in (score, index) order.  Candidates that cannot come
    first are not fit (:func:`_floors`), nor is a mean fit twice, so this is
    the same tree as fitting every candidate (``tests/test_tree.py`` checks
    it).  Raises ValueError for no queries, a gradient count other than the
    query count, ``max_leaves`` below 1, or a query that does not ground the
    first one's predicate.
    """
    if not queries:
        raise ValueError("cannot fit a tree to zero examples")
    if len(gradients) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(gradients)} gradients")
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    tree, _, _ = _grow(
        _root_plan(queries, modes, max_new_vars), list(gradients), max_leaves, kb, owned=True,
        learning_rate=learning_rate, cd_max_iters=cd_max_iters, cd_tolerance=cd_tolerance,
        max_depth=max_depth,
    )
    return tree


def _grow(
    root: _Root, gradients: list[float], max_leaves: int, kb: KnowledgeBase,
    *, owned: bool, learning_rate: float, cd_max_iters: int, cd_tolerance: float,
    max_depth: Optional[int] = None,
) -> tuple[RelationalRegressionTree, list[int], list[float]]:
    """The tree :func:`fit_regression_tree` fits from ``root``, whose
    queries' gradients are ``gradients`` by position; the number of the
    leaf each query reached, by position; and each leaf's value, by number
    in path order (:meth:`RelationalRegressionTree.paths`).  A query's leaf
    value is the one :meth:`~liftedrbm.model.BoostedModel.per_tree` routes
    it to, since fitting and routing make the same decisions.

    The fit queues plans and records, per plan, the candidate it committed
    or the parameters it fit; :func:`_materialize` reads the tree off them.
    An ``owned`` root is read by no later fit, so a plan frees what it holds
    (:meth:`_Plan.drop`) once it has split or stays a leaf;
    :func:`~liftedrbm.model.train` instead grows every tree from one root,
    so a later tree reaches each node an earlier one expanded with its rows,
    candidates and splits built, and ranks its splits by their classes."""
    # Each distinct mean is fit once; its bits are the key, as 0.0 == -0.0.
    fits: dict[str, tuple[LeafParams, float]] = {}

    def fit_leaf(deltas: Sequence[float]) -> tuple[LeafParams, float]:
        mean = ordered_sum(deltas) / len(deltas)
        key = mean.hex()
        fit = fits.get(key)
        if fit is None:
            params = coordinate_descent(
                mean, learning_rate=learning_rate, max_iters=cd_max_iters, tolerance=cd_tolerance
            )
            fit = fits[key] = (params, params.value())
        params, value = fit
        return params, _sum_squares(value, deltas)

    tick = itertools.count()
    frontier: list[tuple[float, int, _Plan, list[float]]] = []
    # What this fit's gradients made of each plan it reached (a plan is
    # keyed by identity): the candidate a split plan committed, whose child
    # plans are its children, and the parameters fit to each leaf plan.
    tests: dict[_Plan, int] = {}
    params: dict[_Plan, LeafParams] = {}

    def push(plan: _Plan, sse: float, deltas: list[float]) -> None:
        depth_ok = max_depth is None or plan.depth < max_depth
        if depth_ok and sse > _MIN_SPLIT_SSE and len(deltas) >= 2:
            heapq.heappush(frontier, (-sse, next(tick), plan, deltas))

    # A root that splits needs no leaf parameters, and its error only
    # decides whether it is queued, alone: a floor above the threshold
    # decides that unfit.  A root that stays a leaf is fit at the end.
    top = root.plan
    sse = _leaf_floor(gradients)
    if not sse > _MIN_SPLIT_SSE:
        params[top], sse = fit_leaf(gradients)
    push(top, sse, gradients)
    leaves = 1
    while leaves < max_leaves and frontier:
        _, _, plan, deltas = heapq.heappop(frontier)
        if plan.splits is None:
            plan.expand(root, kb)
        best = None
        if plan.classes is None and plan.splits and not owned:  # ranked again by later fits
            plan.classes = _classes(plan.splits)
        for floor, k in _floors(deltas, plan.splits, plan.classes):
            # The score is at least the floor, so it cannot come first in
            # (score, index) order; past the first floor above the best
            # score, none can.
            if best is not None and (floor, k) > best[:2]:
                continue
            split = plan.splits[k]
            left = list(compress(deltas, split))
            right = list(compress(deltas, split.translate(FLIP)))
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
        if owned:
            plan.drop()  # its items live on in its children; a join frees its rows
        tests[plan] = k
        params[true_plan], params[false_plan] = fit_left[0], fit_right[0]
        leaves += 1
        push(true_plan, fit_left[1], left)
        push(false_plan, fit_right[1], right)

    if top not in tests and top not in params:
        params[top] = fit_leaf(gradients)[0]
    leaves, values = [0] * len(gradients), []
    tree = RelationalRegressionTree(root.head, _materialize(top, tests, params, leaves, values))
    return tree, leaves, values


def _materialize(
    plan: _Plan, tests: dict[_Plan, int], params: dict[_Plan, LeafParams],
    leaves: list[int], values: list[float],
) -> TreeNode:
    """The tree a fit grew under ``plan``: a split plan's test is its
    committed candidate's true child's last context atom, and a leaf plan
    carries its fit parameters; each leaf's value is appended to ``values``
    and its number put in ``leaves`` at its examples' positions.  Not a
    closure calling itself, a reference cycle per fit."""
    k = tests.get(plan)
    if k is None:
        leaf = params[plan]
        number = len(values)
        values.append(leaf.value())
        for position in plan.positions:
            leaves[position] = number
        return LeafNode(leaf)
    true_plan, false_plan = plan.children[k]
    return InternalNode(
        Literal(true_plan.context[-1]),
        _materialize(true_plan, tests, params, leaves, values),
        _materialize(false_plan, tests, params, leaves, values),
    )
