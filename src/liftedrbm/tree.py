"""Relational regression trees fit to pointwise boosting gradients.

Internal nodes test one literal; each root-to-leaf path is a conjunctive
clause and every leaf carries the five parameters of one network feature: an
output-bias difference, a hidden-unit bias, a path-feature weight, and the two
hidden-to-output weights.  A node's decision is satisfiability of the whole
path conjunction extended by its test, with the first witness chained into the
bindings, so training-time partitions and routing at prediction time agree
exactly.  A path's context holds only the atoms of its positive tests: a false
branch adds nothing, since its negated test holds on every extension of the
context (see :func:`~liftedrbm.logic.route_decision`).  A path read as the
clause (head, signed path literals) is what a model's or a network's
:class:`~liftedrbm.logic.RoutingTrie` routes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .logic import (
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Predicate,
    Term,
    route_decision,
    unify,
    witnesses,
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
    whose targets are near 1e200 still descends to their mean.  Empty input
    returns ``theta0`` unchanged.

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
        p0 -= rate * (2.0 * residual)
        # 1: hidden bias, at the a and b of coordinate 0.
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        p1 -= rate * (2.0 * (p0 + sa - sb - mean) * (ga - gb))
        # 2: feature weight; p1 moved a and b.
        a = p1 + p2 + p4
        ea = exp(-a if a >= 0 else a)
        sa = (0.0 if 0.0 > a else a) + log1p(ea)
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        p2 -= rate * (2.0 * (p0 + sa - sb - mean) * (ga - gb))
        # 3: negative weight; p2 moved a and b.
        a = p1 + p2 + p4
        ea = exp(-a if a >= 0 else a)
        sa = (0.0 if 0.0 > a else a) + log1p(ea)
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        gb = 1.0 / (1.0 + eb) if b >= 0 else eb / (1.0 + eb)
        p3 -= rate * (2.0 * (p0 + sa - sb - mean) * -gb)
        # 4: positive weight; p3 moved b only.
        b = p1 + p2 + p3
        eb = exp(-b if b >= 0 else b)
        sb = (0.0 if 0.0 > b else b) + log1p(eb)
        ga = 1.0 / (1.0 + ea) if a >= 0 else ea / (1.0 + ea)
        p4 -= rate * (2.0 * (p0 + sa - sb - mean) * ga)
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

    def path_clauses(self) -> list[tuple[Clause, LeafParams]]:
        """Each root-to-leaf path as the clause (head, signed path literals),
        with its leaf's parameters, in :meth:`paths` order."""
        return [(Clause(self.head, literals), leaf.params) for literals, leaf in self.paths()]

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
FitItem = tuple[RegressionExample, dict[Term, Term], dict[Term, Term]]


class CoverageTable:
    """Which examples satisfy ``context AND candidate``, each decided once.

    An entry is keyed on a node's context (the atoms of its positive path
    tests) and a candidate atom, variable names included, and holds two ints
    used as bitsets over the examples: ``known`` marks the examples already
    decided and ``sat`` those whose extended conjunction is satisfiable.  Each
    distinct query atom owns one bit.  The entries are exact: a decision
    depends only on the knowledge base, the context, the candidate and the
    query (through its head unifier), never on gradients or on which witness
    of the context was cached (see :func:`partition`).  A table is therefore
    valid for one unchanged knowledge base, and costs two n-bit ints per
    distinct context x candidate for n distinct queries.

    It decides those bits by set lookups (:func:`partition`) and keeps the
    sets: one per predicate x bound positions that a candidate meets, each
    holding the distinct value tuples of the predicate's facts at those
    positions (:meth:`projection`), so at most one tuple per fact.

    A node's examples are read through :meth:`node_bits`: the bit of each of
    its items and their OR, the node mask.  ``sat & mask`` is then the node's
    true side of a candidate whose entry decides every bit of the mask.

    The table keeps no witnesses.  The witnesses of a node's context that
    :func:`partition` keeps for its undecided items live in lists the fit
    holds for that node alone: they serve its candidates only, and a child's
    context, or its set of items, differs.  It does keep each query's head
    unifier (:meth:`unifier`), which every fit sharing the table reuses.
    """

    __slots__ = ("_bits", "_by_id", "_entries", "_projections")

    def __init__(self):
        self._bits: dict[Atom, int] = {}
        # Hashing an atom walks its terms, so a memo on object identity answers
        # first: a caller passes the same query object for an example in every
        # tree.  The memo holds each object, so its id is not reused meanwhile.
        # Its entry is [query, bit, head unifier or None until found].
        self._by_id: dict[int, list] = {}
        self._entries: dict[tuple[tuple[Atom, ...], Atom], tuple[int, int]] = {}
        self._projections: dict[tuple[str, tuple[int, ...]], set[tuple[str, ...]]] = {}

    def _memo(self, query: Atom) -> list:
        hit = self._by_id.get(id(query))
        if hit is None:
            mask = self._bits.setdefault(query, 1 << len(self._bits))
            hit = self._by_id[id(query)] = [query, mask, None]
        return hit

    def unifier(self, head: Atom, query: Atom) -> Optional[dict[Term, Term]]:
        """``unify(head, query)``, found once per query object.

        ``head`` must be :func:`make_head` of ``query``'s predicate, as it is in
        every :func:`fit_regression_tree`: those heads are equal, and no
        binding is ever mutated, so every fit sharing the table can share the
        unifier.  A ``None``, for an example the fit refuses, is not kept.
        """
        hit = self._memo(query)
        if hit[2] is None:
            hit[2] = unify(head, query)
        return hit[2]

    def projection(
        self, test: Atom, bound: dict[Term, Term], kb: KnowledgeBase
    ) -> tuple[tuple[Term, ...], set[tuple[str, ...]]]:
        """The variables of ``test`` that ``bound`` binds, in argument order,
        and the set of the name tuples that ``test``'s predicate's facts hold
        at their positions.

        ``test``'s other arguments must be distinct variables that ``bound``
        leaves free, so ``test`` holds under a binding of the same variables
        iff their values are in the set (a semi-join; Bernstein and Chiu,
        JACM 1981).  A constant, or a free variable at two positions, raises
        ``ValueError``.  Each set is built from ``kb`` once and kept.
        """
        positions: list[int] = []
        variables: list[Term] = []
        free: set[Term] = set()
        for pos, term in enumerate(test.args):
            if not term.is_variable:
                raise ValueError(f"{test}: the constant {term} is not a projection")
            if term in bound:
                positions.append(pos)
                variables.append(term)
            elif term in free:
                raise ValueError(f"{test}: the free variable {term} repeats")
            else:
                free.add(term)
        name = test.predicate.name
        key = (name, tuple(positions))
        values = self._projections.get(key)
        if values is None:
            values = self._projections[key] = {
                tuple([args[pos] for pos in positions]) for args in kb.candidates(name, ())
            }
        return tuple(variables), values

    def node_bits(self, items: Sequence[FitItem]) -> tuple[list[int], int]:
        """The bit of each item's query, in ``items`` order, and their OR."""
        bits = [self._memo(example.query)[1] for example, _, _ in items]
        mask = 0
        for bit in bits:
            mask |= bit
        return bits, mask


def partition(
    context: Sequence[Atom],
    candidate: Literal,
    items: Sequence[FitItem],
    kb: KnowledgeBase,
    table: CoverageTable,
    bits: tuple[Sequence[int], int],
    kept: Sequence[list[dict[Term, Term]]],
) -> Optional[tuple[list[FitItem], list[FitItem]]]:
    """Split node examples on satisfiability of (context AND candidate), or
    return ``None`` when one side would be empty.

    ``context`` holds the atoms of the node's positive root-to-node tests;
    every item carries the example's head unifier plus a cached witness of that
    context.  ``bits`` holds the items' bits and the node mask, as
    :meth:`CoverageTable.node_bits` gives them.  The table's entry under the
    key (``context``, ``candidate.atom``) is read, only the items whose bits
    it has not decided are decided, and those decisions are recorded in it.
    A one-sided split (``sat & mask`` is 0 or ``mask``) is rejected from the
    bits alone, and no list is built.  Otherwise the satisfiable items go
    left and the rest right, both in ``items`` order and unchanged: a
    decision carries no witness, so the true side keeps its witnesses of
    ``context``, and :func:`fit_regression_tree` chains the test into them
    only if it expands that side.

    A decision is one lookup in the table's :meth:`CoverageTable.projection`
    of the candidate's predicate on the positions that the context's
    witnesses bind (the same for every item: each binds the head's and the
    context's variables).  An item is satisfiable when its cached witness's
    values there are in the set; on a miss, unless the cached witness is the
    head unifier and so the context's only witness, when those of another
    witness of the context are.  The candidate's other variables are fresh
    and distinct, so only those values can join with the context, and the
    decision is exact.  A candidate with a constant, or with a fresh variable
    at two positions, raises ``ValueError``; :func:`generate_candidates`
    makes neither.

    ``kept`` holds one list per item, in ``items`` order.  An item's list is
    filled on its first miss with :func:`~liftedrbm.logic.witnesses` of
    ``context`` from its head unifier, the cached one among them replaced by
    the cached witness itself, and read on every later miss.  Passing the
    same lists for every candidate of one node proves each item's context at
    most once at that node, instead of once per candidate that its cached
    witness does not extend.
    """
    item_bits, mask = bits
    key = (tuple(context), candidate.atom)
    known, sat = table._entries.get(key, (0, 0))
    if mask & ~known:
        values = None
        for (_, base, cached), bit, kept_witnesses in zip(items, item_bits, kept):
            if known & bit:
                continue
            known |= bit
            if values is None:
                variables, values = table.projection(candidate.atom, cached, kb)
            if tuple([cached[var].name for var in variables]) in values:
                sat |= bit
                continue
            if cached is base:
                continue
            if not kept_witnesses:
                kept_witnesses += [
                    cached if w == cached else w for w in witnesses(context, base, kb)
                ]
            for witness in kept_witnesses:
                if witness is not cached and (
                    tuple([witness[var].name for var in variables]) in values
                ):
                    sat |= bit
                    break
        table._entries[key] = (known, sat)
    if not sat & mask or sat & mask == mask:
        return None
    left, right = [], []
    for item, bit in zip(items, item_bits):
        (left if sat & bit else right).append(item)
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
    # False for a true child until it is expanded: its items still carry
    # witnesses of its parent's context, which lacks the last atom of its own.
    proven: bool = True
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

    Candidates are split from a :class:`CoverageTable` keyed on (node
    context, candidate atom), so each (context, candidate, example) is
    decided at most once; each expanded node finds its items' bits once, and
    a candidate that leaves one side empty is rejected from the bits without
    building its lists.  The table is exact because a decision never
    depends on the gradients, and it costs two n-bit ints per distinct
    context x candidate.  It also keeps each example's head unifier, and the
    projections of the facts that :func:`partition` decides by: one set
    lookup per example under its cached witness, and no search.

    Each expanded node also holds one list per item, in which
    :func:`partition` keeps the witnesses of the node's context the first
    time a candidate misses under that item's cached witness, so the context
    is proved once per item and node rather than once per candidate that the
    item's cached witness does not extend.
    The lists are dropped once the node is expanded and are never handed to
    its children: a true child's context is longer, and a false child, whose
    context is the same, would keep them alive while the frontier waits
    (measured at about 12% more peak memory on the ``distill`` benchmark).

    A committed split's true side is not proved again when it is made.  Its
    items keep their witnesses of the parent's context, and only when the
    true child is expanded does each get
    ``route_decision(parent context, test, base, witness, kb)``: the first
    witness of its own context.  A true child that stays a leaf is never
    proved.

    Pass ``table`` to share one across fits over the same knowledge base (as
    :func:`~liftedrbm.model.train` does for its trees); by default the fit
    uses its own and drops it on return, which still pays off because a
    false child keeps its parent's context.  When given, ``fitted`` is
    filled with each example's leaf value in ``examples`` order: the value
    :meth:`~liftedrbm.model.BoostedModel.per_tree` routes it to, since
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

    # coordinate_descent reads its targets only through their mean, so each
    # distinct mean is fit once; its bits are the key, as 0.0 == -0.0.
    fits: dict[str, tuple[LeafParams, float]] = {}

    def fit_leaf(deltas: Sequence[float]) -> tuple[LeafParams, float]:
        key = (sum(deltas) / len(deltas)).hex()
        fit = fits.get(key)
        if fit is None:
            params = coordinate_descent(
                deltas,
                learning_rate=learning_rate,
                max_iters=cd_max_iters,
                tolerance=cd_tolerance,
            )
            fit = fits[key] = (params, params.value())
        params, value = fit
        return params, _sum_squares(value, deltas)

    items: list[FitItem] = []
    for example in examples:
        base = table.unifier(head, example.query)
        if base is None:
            raise ValueError(f"example {example.query} does not ground {head}")
        items.append((example, base, base))

    root = _FitNode(
        items,
        depth=0,
        context=(),
        bound_vars=head.args,
        used_names=frozenset(t.name for t in head.args),
    )
    root.params, root.sse = fit_leaf([example.gradient for example in examples])

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
        if not node.proven:
            # Chain into each item the first witness of the node's context.
            context, test = node.context[:-1], node.context[-1]
            node.items = [
                (example, base, route_decision(context, test, base, cached, kb))
                for example, base, cached in node.items
            ]
        candidates = generate_candidates(
            node.bound_vars,
            modes,
            max_new_vars=max_new_vars,
            used_names=node.used_names,
            exclude_predicates=(predicate.name,),
        )
        bits = table.node_bits(node.items)
        kept: list[list[dict[Term, Term]]] = [[] for _ in node.items]
        best = None
        for candidate in candidates:
            split = partition(node.context, candidate, node.items, kb, table, bits, kept)
            if split is None:
                continue
            left, right = split
            deltas_left = [example.gradient for example, _, _ in left]
            deltas_right = [example.gradient for example, _, _ in right]
            if best is not None and _sse_floor(deltas_left) + _sse_floor(deltas_right) >= best[0]:
                continue  # cannot score strictly below best
            theta_left, sse_left = fit_leaf(deltas_left)
            theta_right, sse_right = fit_leaf(deltas_right)
            score = sse_left + sse_right
            if best is None or score < best[0]:
                best = (score, candidate, left, right, theta_left, sse_left, theta_right, sse_right)
        if best is None:
            continue  # permanent leaf
        _, candidate, left, right, theta_left, sse_left, theta_right, sse_right = best
        del kept  # node-local: a child's context or items differ
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
            proven=False,
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
