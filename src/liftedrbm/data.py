"""Parsing of mode, fact, and example files, negative sampling, and folds.

File grammar, one item per line, ``%`` starts a comment:

    facts      pred(c1, c2).
    modes      mode: pred(+type, -type).
    examples   same atom grammar as facts (so are queries)

Constants start with a lowercase letter or digit, variables with an uppercase
letter.  In a mode declaration ``+`` marks an argument that must reuse an
already-bound variable when the predicate is used as a tree test, while ``-``
may also introduce a new variable.  Every predicate appearing in a facts file
needs a mode declaration, since argument types are taken from it.  Every atom
is read by :func:`parse_atom_text`, and every example or query is then checked
by :func:`validate_query`, so a rule gives one message wherever it is broken.
A fact's or an example's constants are read onto the knowledge base's terms,
so examples are compared by their arguments.
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
from typing import Callable, Optional, Sequence

from .logic import Atom, KnowledgeBase, Predicate, Term, UnknownConstantError


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
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_ARGS_RE = re.compile(r"(?:[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)?")
_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


def check_predicate(predicate: Predicate) -> Predicate:
    """``predicate`` if a modes file can declare it: a lowercase-initial
    name, and types of letters, digits and underscores; else a ValueError."""
    if not (isinstance(predicate.name, str) and _NAME_RE.fullmatch(predicate.name)):
        raise ValueError(f"malformed predicate name {predicate.name!r}")
    for type_tag in predicate.arg_types:
        if not (isinstance(type_tag, str) and _TOKEN_RE.fullmatch(type_tag)):
            raise ValueError(f"malformed argument type {type_tag!r} of {predicate.name}")
    return predicate


@dataclass(frozen=True)
class ModeDeclaration:
    """Argument types and chaining flags ('+' or '-') of a predicate a modes file can declare."""

    predicate: Predicate
    chaining: tuple[str, ...]

    def __post_init__(self):
        if len(self.chaining) != self.predicate.arity:
            raise ValueError(f"mode for {self.predicate} has wrong arity")
        if any(flag not in ("+", "-") for flag in self.chaining):
            raise ValueError("chaining flags must be '+' or '-'")
        check_predicate(self.predicate)


@dataclass
class ExampleSet:
    """Ground positive and negative instances of one target predicate; an
    atom given both labels, found by its arguments, is an error."""

    target: Predicate
    positives: list[Atom]
    negatives: list[Atom]

    def __post_init__(self):
        for atom in itertools.chain(self.positives, self.negatives):
            if atom.predicate is not self.target and atom.predicate != self.target:
                raise ValueError(f"example {atom} is not a {self.target} atom")
            if not atom.is_ground:
                raise ValueError(f"example {atom} is not ground")
        positives = {a.args for a in self.positives}  # only the overlap is printed
        overlap = {str(a) for a in self.negatives if a.args in positives}
        if overlap:
            raise ParseError(f"examples appear with both labels: {sorted(overlap)}")

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
        specs = [spec.strip() for spec in args_text.split(",")] if args_text else []
        try:
            modes[name] = ModeDeclaration(
                Predicate(name, tuple([spec[1:] for spec in specs])),
                tuple([spec[:1] for spec in specs]),
            )
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return modes


def parse_facts(text: str, modes: dict[str, ModeDeclaration]) -> KnowledgeBase:
    """Build an indexed knowledge base from a facts file.

    Argument types (and hence the per-type constant universes) come from the
    mode declarations; a constant met at two types is an error, and
    duplicated facts are stored once.
    """
    kb = KnowledgeBase(modes)
    for line_no, line in _lines(text):
        try:
            kb.add(_read_atom(line, kb.predicates, True, kb.register_constant))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return kb


def parse_atom_text(
    text: str,
    predicates: dict[str, Predicate],
    require_ground: bool = False,
) -> Atom:
    """Parse one atom of a declared predicate; uppercase tokens become variables
    typed by position.  Facts, examples, queries and a model's tree tests are
    all read this way.  Errors carry no line number: the caller knows where
    the text came from.
    """
    return _read_atom(text, predicates, require_ground, Term.constant)


def _read_atom(
    text: str,
    predicates: dict[str, Predicate],
    require_ground: bool,
    constant: Callable[[str, str], Term],
) -> Atom:
    """:func:`parse_atom_text`, making each constant by ``constant(name, type)``
    (:func:`parse_facts` and :func:`parse_examples` read onto a knowledge base's
    terms); only arguments that fail their one pattern are split, to name the bad one."""
    text = text.strip()
    match = _ATOM_RE.match(text)
    if match is None:
        raise ParseError(f"malformed atom {text!r}")
    name, args_text = match.groups()
    if not _ARGS_RE.fullmatch(args_text):  # name the first malformed argument
        for tok in args_text.split(","):
            if not _TOKEN_RE.fullmatch(tok.strip()):
                raise ParseError(f"malformed argument {tok.strip()!r}")
    tokens = _TOKEN_RE.findall(args_text)
    predicate = predicates.get(name)
    if predicate is None:
        raise ParseError(f"no mode declaration for predicate {name}")
    if len(tokens) != predicate.arity:
        raise ParseError(f"{name} expects {predicate.arity} arguments, got {len(tokens)}")
    args = []
    for tok, type_tag in zip(tokens, predicate.arg_types):
        if tok[0].isupper():
            if require_ground:
                raise ParseError(f"expected a ground atom, found variable {tok}")
            args.append(Term.variable(tok, type_tag))
        else:
            args.append(constant(tok, type_tag))
    return Atom(predicate, tuple(args))


def validate_query(query: Atom, target: Predicate, kb: KnowledgeBase) -> None:
    """Refuse a query or example that is not a ground ``target`` atom; a
    constant the knowledge base never saw, or saw at another type than
    ``target`` expects, is an :class:`~liftedrbm.logic.UnknownConstantError`."""
    if query.predicate is not target and query.predicate != target:
        raise ValueError(f"expected a {target} atom, got {query}")
    for term in query.args:
        known = kb.constant(term.name)
        if known is term:  # the knowledge base's own
            continue
        if term.is_variable:
            raise ValueError(f"expected a ground atom, found variable {term}")
        if known is None:
            raise UnknownConstantError(f"unknown constant {term.name}")
        if known.type_tag != term.type_tag:
            raise UnknownConstantError(
                f"constant {term.name} has type {known.type_tag}, expected {term.type_tag}"
            )


def parse_examples(text: str, kb: KnowledgeBase, target: Predicate) -> list[Atom]:
    """Parse ground ``target`` atoms, each checked by :func:`validate_query`
    against the knowledge base; a repeated example is kept once, where it
    first occurs.  Constants are the knowledge base's own terms, but for
    those :func:`validate_query` refuses."""
    predicates = {**kb.predicates, target.name: target}

    def constant(name: str, type_tag: str) -> Term:
        known = kb.constant(name)
        return known if known is not None and known.type_tag == type_tag else Term(name, type_tag)

    examples: dict[tuple[Term, ...], Atom] = {}  # one target: an example is its arguments
    for line_no, line in _lines(text):
        try:
            atom = _read_atom(line, predicates, True, constant)
            validate_query(atom, target, kb)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        examples.setdefault(atom.args, atom)
    return list(examples.values())


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
    requested = ratio * len(positives)  # inf when a finite product overflows
    if requested < 1:
        return []
    universes = [kb.universe(t) for t in target.arg_types]
    total = math.prod(len(u) for u in universes)
    # asking for more than the whole grounding space asks for all of it
    want = int(requested) if requested <= total else total
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
        f"requested {ratio:g} negatives for each of {len(positives)} positives but only "
        f"{len(negatives)} groundings are available",
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

