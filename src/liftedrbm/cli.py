"""Command-line front end: train, predict, explain, eval.

Exit codes: 0 success, 1 usage or configuration error (including a file that
cannot be read or written), 2 data error (including a file that is not UTF-8),
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (
    ExampleSet,
    ParseError,
    _lines,
    generate_negatives,
    parse_atom_text,
    parse_examples,
    parse_facts,
    parse_modes,
    read_text,
    split_folds,
)
from .logic import UnknownConstantError
from .metrics import cross_validate
from .model import TrainConfig, load_model, save_model, train
from .network import (
    distill_single_tree,
    dumps_network,
    export,
    paths_to_lrbm,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_data_args(parser):
    parser.add_argument("--facts", required=True, help="facts file")
    parser.add_argument("--modes", required=True, help="mode declarations file")
    parser.add_argument("--pos", required=True, help="positive examples file")
    parser.add_argument("--neg", help="negative examples file")
    parser.add_argument(
        "--neg-ratio",
        type=float,
        default=2.0,
        help="negatives sampled per positive when --neg is absent (default 2)",
    )
    parser.add_argument("--target", help="target predicate name (default: inferred from --pos)")


def _add_train_args(parser):
    parser.add_argument("--trees", type=int, default=20, help="number of boosted trees")
    parser.add_argument("--leaves", type=int, default=4, help="max leaves per tree")
    parser.add_argument("--lr", type=float, default=0.05, help="coordinate-descent learning rate")
    parser.add_argument("--max-new-vars", type=int, default=1, help="fresh variables per test literal")


def _add_train(sub):
    p_train = sub.add_parser("train", help="boost an ensemble and write the model")
    _add_data_args(p_train)
    _add_train_args(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="model output path (JSON)")
    p_train.set_defaults(func=cmd_train)


def _add_predict(sub):
    p_predict = sub.add_parser("predict", help="score ground queries with a model")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--facts", required=True)
    p_predict.add_argument("--queries", required=True, help="file of ground target atoms")
    p_predict.add_argument("--out", help="scores output path (default stdout)")
    p_predict.add_argument("--verbose", action="store_true", help="append per-tree contributions")
    p_predict.set_defaults(func=cmd_predict)


def _add_explain(sub):
    p_explain = sub.add_parser("explain", help="convert a model into a lifted RBM network")
    p_explain.add_argument("--model", required=True)
    p_explain.add_argument("--mode", choices=("paths", "distill"), default="paths")
    p_explain.add_argument("--depth", type=int, default=10, help="distilled tree depth cap")
    p_explain.add_argument("--out", required=True, help="output path prefix")
    p_explain.add_argument("--facts", help="facts file (distill mode)")
    p_explain.add_argument("--pos", help="positive examples file (distill mode)")
    p_explain.add_argument("--neg", help="negative examples file (distill mode)")
    p_explain.add_argument("--neg-ratio", type=float, default=2.0)
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.set_defaults(func=cmd_explain)


def _add_eval(sub):
    p_eval = sub.add_parser("eval", help="k-fold cross validation")
    _add_data_args(p_eval)
    _add_train_args(p_eval)
    p_eval.add_argument("--folds", type=int, default=5)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p_eval.add_argument("--out", help="JSON report path")
    p_eval.set_defaults(func=cmd_eval)


_COMMANDS = dict(train=_add_train, predict=_add_predict, explain=_add_explain, eval=_add_eval)


def build_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The parser with the subcommands ``commands``, all by default; each
    subcommand's parser is the same whichever others are built."""
    parser = _Parser(prog="liftedrbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _COMMANDS[name](sub)
    return parser


def _resolve_target(args, modes, pos_text):
    """The ``--target`` predicate, or else the predicate of the first positive."""
    predicates = {name: mode.predicate for name, mode in modes.items()}
    if args.target is not None:
        if args.target not in predicates:
            raise ParseError(f"target predicate {args.target} has no mode declaration")
        return predicates[args.target]
    for line_no, line in _lines(pos_text):
        try:
            return parse_atom_text(line, predicates).predicate
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from exc
    raise ParseError("positive examples file is empty; pass --target")


def _load_dataset(args, modes, target=None):
    """The knowledge base of ``--facts`` and the examples of ``--pos`` plus
    ``--neg``, or negatives sampled at ``--neg-ratio`` under ``--seed``; no
    example at all is a data error.

    ``target`` defaults to ``--target`` or the predicate of the first positive.
    """
    kb = parse_facts(read_text(args.facts), modes)
    pos_text = read_text(args.pos)
    if target is None:
        target = _resolve_target(args, modes, pos_text)
    positives = parse_examples(pos_text, kb, target)
    if args.neg:
        negatives = parse_examples(read_text(args.neg), kb, target)
    else:
        negatives = generate_negatives(
            kb, target, positives, ratio=args.neg_ratio, seed=args.seed
        )
    if not positives and not negatives:
        raise ParseError("no examples: the positive and negative examples files are both empty")
    return kb, ExampleSet(target, positives, negatives)


def _config_from(args) -> TrainConfig:
    return TrainConfig(
        n_trees=args.trees,
        max_leaves=args.leaves,
        learning_rate=args.lr,
        max_new_vars=args.max_new_vars,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    config = _config_from(args)
    kb, examples = _load_dataset(args, parse_modes(read_text(args.modes)))

    def report(index, sse, mean_abs):
        print(f"tree {index}/{config.n_trees}  sse={sse:.6f}  mean|grad|={mean_abs:.6f}")

    model = train(kb, examples, config, progress=report)
    save_model(model, args.out)
    print(
        f"trained {len(model.trees)} trees on {len(examples.positives)} positive / "
        f"{len(examples.negatives)} negative examples -> {args.out}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    kb = parse_facts(read_text(args.facts), model.modes)
    predicates = {**kb.predicates, model.target.name: model.target}
    lines = []
    errors = []
    for line_no, text in _lines(read_text(args.queries)):
        try:
            query = parse_atom_text(text, predicates, require_ground=True)
            result = model.predict(query, kb)
        except ValueError as exc:  # ParseError and UnknownConstantError included
            errors.append(str(ParseError(str(exc), line_no)))
            continue
        fields = [str(query), repr(result.probability), repr(result.psi)]
        if args.verbose:
            fields.append(",".join(repr(v) for v in result.per_tree))
        lines.append("\t".join(fields))
    output = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    for message in errors:
        print(message, file=sys.stderr)
    return EXIT_DATA if errors else EXIT_OK


def cmd_explain(args) -> int:
    model = load_model(args.model)
    # Suffixes are appended to the prefix as given, so its own dots stay.
    json_path, dot_path = Path(args.out + ".json"), Path(args.out + ".dot")
    if args.mode == "paths":
        net = paths_to_lrbm(model)
    else:
        if not (args.facts and args.pos):
            raise _UsageError("distill mode needs --facts and --pos (training examples)")
        kb, examples = _load_dataset(args, model.modes, model.target)
        distilled = distill_single_tree(model, examples, kb, max_depth=args.depth)
        Path(args.out + ".tree.txt").write_text(distilled.trees[0].to_text(), encoding="utf-8")
        net = paths_to_lrbm(distilled)
    json_path.write_text(dumps_network(net), encoding="utf-8")
    dot_path.write_text(export(net, "dot"), encoding="utf-8")
    print(f"{len(net.hidden)} hidden nodes -> {json_path}, {dot_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _config_from(args)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    kb, examples = _load_dataset(args, parse_modes(read_text(args.modes)))
    folds = split_folds(examples, args.folds, args.seed)

    def report(metrics):
        print(
            f"fold {metrics.fold}: auc-roc={metrics.auc_roc:.4f} "
            f"auc-pr={metrics.auc_pr:.4f} ({metrics.seconds:.2f}s)"
        )

    result = cross_validate(kb, examples, folds, config, jobs=args.jobs, progress=report)
    print(result.to_text(), end="")
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call that names its subcommand builds that subcommand's parser alone.
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnknownConstantError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
