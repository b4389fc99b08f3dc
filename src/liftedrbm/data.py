"""Parsing of mode, fact, and example files, negative sampling, and folds.

File grammar, one item per line, ``%`` starts a comment:

    facts      pred(c1, c2).
    modes      mode: pred(+type, -type).
    examples   same atom grammar as facts

Constants start with a lowercase letter or digit, variables with an uppercase
letter.  In a mode declaration ``+`` marks an argument that must reuse an
already-bound variable when the predicate is used as a tree test, while ``-``
may also introduce a new variable.  Every predicate appearing in a facts file
needs a mode declaration, since argument types are taken from it.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .logic import Atom, KnowledgeBase, Predicate, Term


class ParseError(ValueError):
    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def read_text(path) -> str:
    """Contents of a UTF-8 text file; one that is not UTF-8 is a
    :class:`ParseError` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


_ATOM_RE = re.compile(r"^([a-z][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*\.?\s*$")
_MODE_RE = re.compile(r"^mode\s*:\s*([a-z][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*\.?\s*$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class ModeDeclaration:
    """Per-predicate argument types plus chaining flags ('+' or '-')."""

    predicate: Predicate
    chaining: tuple[str, ...]

    def __post_init__(self):
        if len(self.chaining) != self.predicate.arity:
            raise ValueError(f"mode for {self.predicate} has wrong arity")
        if any(flag not in ("+", "-") for flag in self.chaining):
            raise ValueError("chaining flags must be '+' or '-'")


@dataclass
class ExampleSet:
    """Ground positive and negative instances of one target predicate."""

    target: Predicate
    positives: list[Atom]
    negatives: list[Atom]

    def __post_init__(self):
        for atom in itertools.chain(self.positives, self.negatives):
            if atom.predicate != self.target:
                raise ValueError(f"example {atom} is not a {self.target} atom")
            if not atom.is_ground:
                raise ValueError(f"example {atom} is not ground")
        overlap = {str(a) for a in self.positives} & {str(a) for a in self.negatives}
        if overlap:
            raise ValueError(f"examples appear with both labels: {sorted(overlap)}")

    def labeled(self) -> list[tuple[Atom, int]]:
        """All examples as (atom, label) pairs, positives first."""
        return [(a, 1) for a in self.positives] + [(a, 0) for a in self.negatives]

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)


@dataclass
class FoldSpec:
    """A stratified assignment of examples to cross-validation folds."""

    k: int
    assignments: dict[Atom, int]

    def split(self, examples: ExampleSet, fold: int) -> tuple[ExampleSet, ExampleSet]:
        """(train, test) example sets for one held-out fold."""
        train_pos = [a for a in examples.positives if self.assignments[a] != fold]
        test_pos = [a for a in examples.positives if self.assignments[a] == fold]
        train_neg = [a for a in examples.negatives if self.assignments[a] != fold]
        test_neg = [a for a in examples.negatives if self.assignments[a] == fold]
        return (
            ExampleSet(examples.target, train_pos, train_neg),
            ExampleSet(examples.target, test_pos, test_neg),
        )


def _lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if line:
            yield line_no, line


def _parse_atom_line(line: str, line_no: int) -> tuple[str, list[str]]:
    match = _ATOM_RE.match(line)
    if match is None:
        raise ParseError(f"malformed atom {line!r}", line_no)
    name, args_text = match.groups()
    if not args_text:
        return name, []
    tokens = [tok.strip() for tok in args_text.split(",")]
    for tok in tokens:
        if not _TOKEN_RE.match(tok):
            raise ParseError(f"malformed argument {tok!r}", line_no)
    return name, tokens


def parse_modes(text: str) -> dict[str, ModeDeclaration]:
    """Parse mode declarations, keyed by predicate name in file order."""
    modes: dict[str, ModeDeclaration] = {}
    for line_no, line in _lines(text):
        match = _MODE_RE.match(line)
        if match is None:
            raise ParseError(f"malformed mode declaration {line!r}", line_no)
        name, args_text = match.groups()
        if name in modes:
            raise ParseError(f"duplicate mode declaration for {name}", line_no)
        arg_types: list[str] = []
        chaining: list[str] = []
        if args_text:
            for spec in (s.strip() for s in args_text.split(",")):
                if len(spec) < 2 or spec[0] not in "+-" or not _TOKEN_RE.match(spec[1:]):
                    raise ParseError(f"malformed argument spec {spec!r}", line_no)
                chaining.append(spec[0])
                arg_types.append(spec[1:])
        modes[name] = ModeDeclaration(Predicate(name, tuple(arg_types)), tuple(chaining))
    return modes


def parse_facts(text: str, modes: dict[str, ModeDeclaration]) -> KnowledgeBase:
    """Build an indexed knowledge base from a facts file.

    Argument types (and hence the per-type constant universes) come from the
    mode declarations; duplicated facts are stored once.
    """
    kb = KnowledgeBase(modes)
    for line_no, line in _lines(text):
        name, tokens = _parse_atom_line(line, line_no)
        predicate = kb.predicates.get(name)
        if predicate is None:
            raise ParseError(f"no mode declaration for predicate {name}", line_no)
        if len(tokens) != predicate.arity:
            raise ParseError(
                f"{name} expects {predicate.arity} arguments, got {len(tokens)}", line_no
            )
        args = []
        for tok, type_tag in zip(tokens, predicate.arg_types):
            if tok[0].isupper():
                raise ParseError(f"facts must be ground, found variable {tok}", line_no)
            try:
                args.append(kb.register_constant(tok, type_tag))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
        kb.add(Atom(predicate, tuple(args)))
    return kb


def serialize_facts(kb: KnowledgeBase) -> str:
    """Render all facts back into the file grammar, in insertion order."""
    lines = [
        f"{a.predicate.name}({', '.join(t.name for t in a.args)})." for a in kb.facts
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_atom_text(
    text: str,
    predicates: dict[str, Predicate],
    require_ground: bool = False,
    line_no: Optional[int] = None,
) -> Atom:
    """Parse a single atom; uppercase tokens become variables typed by position."""
    name, tokens = _parse_atom_line(text.strip(), line_no or 0)
    predicate = predicates.get(name)
    if predicate is None:
        raise ParseError(f"unknown predicate {name}", line_no)
    if len(tokens) != predicate.arity:
        raise ParseError(
            f"{name} expects {predicate.arity} arguments, got {len(tokens)}", line_no
        )
    args = []
    for tok, type_tag in zip(tokens, predicate.arg_types):
        if tok[0].isupper():
            if require_ground:
                raise ParseError(f"expected a ground atom, found variable {tok}", line_no)
            args.append(Term.variable(tok, type_tag))
        else:
            args.append(Term.constant(tok, type_tag))
    return Atom(predicate, tuple(args))


def parse_examples(text: str, kb: KnowledgeBase, target: Predicate) -> list[Atom]:
    """Parse ground target atoms, validated against the knowledge base.

    Every constant must already belong to the knowledge base's type universes
    with the type the target position expects.
    """
    seen: set[str] = set()
    examples: list[Atom] = []
    for line_no, line in _lines(text):
        name, tokens = _parse_atom_line(line, line_no)
        if name != target.name or len(tokens) != target.arity:
            raise ParseError(f"expected a {target} atom, got {line!r}", line_no)
        args = []
        for tok, type_tag in zip(tokens, target.arg_types):
            if tok[0].isupper():
                raise ParseError(f"examples must be ground, found variable {tok}", line_no)
            term = kb.constant(tok)
            if term is None:
                raise ParseError(f"unknown constant {tok}", line_no)
            if term.type_tag != type_tag:
                raise ParseError(
                    f"constant {tok} has type {term.type_tag}, expected {type_tag}", line_no
                )
            args.append(term)
        atom = Atom(target, tuple(args))
        if str(atom) not in seen:
            seen.add(str(atom))
            examples.append(atom)
    return examples


def generate_negatives(
    kb: KnowledgeBase,
    target: Predicate,
    positives: Sequence[Atom],
    ratio: float = 2.0,
    seed: int = 0,
) -> list[Atom]:
    """Sample negatives uniformly from the type-consistent grounding space.

    Draws ``min(floor(ratio * len(positives)), available)`` distinct groundings
    of ``target`` that are not positives, without replacement, deterministically
    under ``seed``.  Emits a warning (never fails) when the domain is too small
    to honor the request.  Grounding indices are sampled and decoded as
    mixed-radix numbers over the type universes, so the cost is
    O(want + positives) however dense the positives are.
    """
    if not math.isfinite(ratio) or ratio < 0:
        raise ValueError(f"ratio must be finite and non-negative, got {ratio}")
    want = int(ratio * len(positives))
    if want == 0:
        return []
    universes = [kb.universe(t) for t in target.arg_types]
    total = math.prod(len(u) for u in universes)
    positive_keys = {tuple(t.name for t in a.args) for a in positives}
    rng = random.Random(seed)
    negatives: list[Atom] = []
    for index in _sample_indices(rng, total, min(total, want + len(positive_keys))):
        combo = []
        for universe in reversed(universes):
            index, digit = divmod(index, len(universe))
            combo.append(universe[digit])
        combo.reverse()
        if tuple(t.name for t in combo) not in positive_keys:
            negatives.append(Atom(target, tuple(combo)))
            if len(negatives) == want:
                return negatives
    warnings.warn(
        f"requested {want} negatives but only {len(negatives)} groundings are available",
        stacklevel=2,
    )
    return negatives


def _sample_indices(rng: random.Random, total: int, count: int) -> list[int]:
    """``rng.sample(range(total), count)``, also where ``total`` exceeds
    ``sys.maxsize`` and ``len(range(total))`` overflows.  For such a space
    ``random.sample`` would draw by rejecting repeats, so that is done here
    with the same calls; smaller spaces go to ``random.sample`` itself."""
    if total <= sys.maxsize:
        return rng.sample(range(total), count)
    chosen: dict[int, None] = {}
    while len(chosen) < count:
        chosen.setdefault(rng.randrange(total))
    return list(chosen)


def split_folds(examples: ExampleSet, k: int, seed: int = 0) -> FoldSpec:
    """Stratified k-fold assignment, deterministic under ``seed``.

    Each label class is shuffled independently and dealt round-robin, so
    per-class fold sizes differ by at most one.
    """
    if k < 2:
        raise ValueError("fold count must be at least 2")
    for label, group in (("positive", examples.positives), ("negative", examples.negatives)):
        if len(group) < k:
            raise ValueError(
                f"{label} class has {len(group)} examples, fewer than {k} folds"
            )
    rng = random.Random(seed)
    assignments: dict[Atom, int] = {}
    for group in (examples.positives, examples.negatives):
        shuffled = list(group)
        rng.shuffle(shuffled)
        for i, atom in enumerate(shuffled):
            assignments[atom] = i % k
    return FoldSpec(k, assignments)

