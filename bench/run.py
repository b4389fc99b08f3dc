"""Closed-loop benchmark of the liftedrbm pipeline, driven from outside.

    python3 bench/run.py --workload boost|distill|score --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` and its inputs are generated with ``tests/synthetic_domain.py``.
One process, one thread, one workload.  After set-up, passes of the
workload run back to back until ``--seconds`` have elapsed.  With
``--trace 0`` every pass is untraced and the last stdout line reports the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and it reports the per-layer metrics.  Times are reported at the
reference speed that ``bench/hostspeed.py`` samples during the run.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import hostspeed
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = BENCH_DIR / "fixtures"
WORK = ROOT / ".bench_work"

BOOST_FIXTURE = "boost_model.json"
SCORE_FIXTURE = "score_model.json"

SETUPS = 41  # set-ups per run; setup_s is their median
SCORE_QUERIES = 1000
DISTILL_DEPTH = 10
EXACT_TOL = 1e-9  # network vs ensemble, potential and probability

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_s": "s",
    "pass_s": "s",
    "predict_qps": "1/s",
    "predict_p95_ms": "ms",
    "auc_roc": "1",
    "auc_pr": "1",
    "rmse": "1",
}

PER_LAYER = {
    "logic.route_decision.calls": "count",
    "logic.route_decision.self_s": "s",
    "logic.route_decision.fast_path_ratio": "ratio",
    "logic.route_decision.redundancy": "ratio",
    "logic.satisfy.calls": "count",
    "logic.satisfy.s": "s",
    "logic.groundings_visited": "count",
    "logic.satisfy_route.calls": "count",
    "logic.satisfy_route.s": "s",
    "tree.partition.calls": "count",
    "tree.partition.self_s": "s",
    "tree.generate_candidates.candidates": "count",
    "tree.fit_regression_tree.s": "s",
    "tree.coordinate_descent.calls": "count",
    "tree.coordinate_descent.s": "s",
    "tree.evaluate_tree.calls": "count",
    "tree.evaluate_tree.s": "s",
    "model.train.s": "s",
    "model.predict.calls": "count",
    "model.predict.s": "s",
    "model.load_model.s": "s",
    "model.save_model.s": "s",
    "network.lrbm_inference.calls": "count",
    "network.lrbm_inference.s": "s",
    "network.hidden_nodes": "count",
    "network.paths_to_lrbm.s": "s",
    "network.distill_single_tree.s": "s",
    "data.parse.s": "s",
    "data.facts": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


# -- program and inputs -------------------------------------------------------


def import_program() -> types.SimpleNamespace:
    """Import the checkout's own liftedrbm package and domain generator."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "liftedrbm" / "__init__.py").is_file() or not (
        tests / "synthetic_domain.py"
    ).is_file():
        raise SystemExit(f"error: no liftedrbm sources under {ROOT} (src/liftedrbm, tests/)")
    sys.path[:0] = [str(src), str(tests)]
    names = ("cli", "data", "logic", "metrics", "model", "network", "tree")
    program = types.SimpleNamespace(
        **{name: importlib.import_module(f"liftedrbm.{name}") for name in names}
    )
    program.domain = importlib.import_module("synthetic_domain")
    if Path(program.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: imported liftedrbm from {program.cli.__file__}, not {src}")
    return program


def boost_domain(program):
    """The seed-11 movie domain (30 people, 700 pairs); fold 0 of 5."""
    kb, examples, _ = program.domain.generate_movie_domain(seed=11, n_pairs=700)
    train, heldout = program.data.split_folds(examples, 5, seed=0).split(examples, 0)
    return kb, train, heldout


def score_domain(program):
    """The larger domain: 100 people, 100 movies, 1000 labelled pairs."""
    kb, examples, _ = program.domain.generate_movie_domain(
        seed=11, n_person=100, n_movie=100, n_pairs=1000
    )
    return kb, examples


def rule_labels(kb, pairs) -> list[int]:
    """Clean labels of collab(a, b) under the domain's three rules, computed
    from the facts with plain sets, independently of the program."""
    acts: dict[str, set] = {}
    directs: dict[str, set] = {}
    for fact in kb.facts:
        names = [t.name for t in fact.args]
        if fact.predicate.name == "actedin":
            acts.setdefault(names[0], set()).add(names[1])
        elif fact.predicate.name == "directedby":
            directs.setdefault(names[1], set()).add(names[0])
    empty: set = set()
    labels = []
    for a, b in pairs:
        a_acts, b_acts = acts.get(a, empty), acts.get(b, empty)
        labels.append(int(
            bool(a_acts & b_acts)
            or bool(directs.get(a, empty) & b_acts)
            or bool(a_acts & directs.get(b, empty))
        ))
    return labels


def atoms_text(atoms) -> str:
    return "".join(f"{atom}.\n" for atom in atoms)


def shuffled_facts(kb, rng: random.Random) -> str:
    """The facts in a seeded order: the knowledge base's insertion order,
    which sets the search order but not any decision."""
    lines = [f"{fact}.\n" for fact in kb.facts]
    rng.shuffle(lines)
    return "".join(lines)


def fixture_text(name: str) -> str:
    """Fixture model text, after checking it against ``SHA256SUMS``."""
    sums = {}
    for line in (FIXTURES / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, file_name = line.split()
        sums[file_name] = digest
    data = (FIXTURES / name).read_bytes()
    if hashlib.sha256(data).hexdigest() != sums.get(name):
        raise SystemExit(f"error: fixture {name} does not match its sha256 in SHA256SUMS")
    return data.decode("utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- measurement --------------------------------------------------------------


class Ops:
    """Attempted and failed operations: CLI calls, scored queries and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


class Pass:
    """What one pass of a workload measured."""

    def __init__(self):
        self.scale = 1.0  # to seconds at the reference speed, over this pass
        self.wall = 0.0
        self.job = 0.0
        self.predict: list[float] = []  # seconds per query
        self.network: list[float] = []
        self.quality: dict[str, float] = {}
        self.info: dict[str, float] = {}
        self.fingerprints: dict[str, str] = {}


class Harness:
    def __init__(self, program, speed: hostspeed.HostSpeed):
        self.p = program
        self.ops = Ops()
        self.speed = speed
        self.clock = speed.now

    def cli(self, *argv: str) -> tuple[float, bool]:
        """Run one CLI command in-process; seconds taken, at the reference
        speed, and whether it exited 0."""
        out, err = io.StringIO(), io.StringIO()
        mark = self.speed.mark()
        start = self.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.p.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        seconds = (self.clock() - start) * self.speed.scale(mark)
        detail = err.getvalue().strip().splitlines()[-1:] or [""]
        ok = self.ops.check(code == 0, f"liftedrbm {argv[0]} exited {code}: {detail[0]}")
        return seconds, ok

    def load(self, model_path: Path, facts_path: Path):
        """The model and knowledge base, loaded through the library."""
        mdl = self.p.model.load_model(model_path)
        kb = self.p.data.parse_facts(facts_path.read_text(encoding="utf-8"), mdl.modes)
        return mdl, kb

    def queries(self, mdl, lines: list[str]):
        target = {mdl.target.name: mdl.target}
        return [self.p.data.parse_atom_text(line, target, require_ground=True) for line in lines]

    def score(self, mdl, kb, queries, record: Pass, expected=None):
        """Score each query with ``BoostedModel.predict``, timing every call.

        ``expected`` maps a query's text to the (probability, potential) the
        CLI printed for it; a different value fails the query.  Latencies
        are recorded at the reference speed of the whole loop.
        """
        results, latencies = [], []
        mark = self.speed.mark()
        for query in queries:
            start = self.clock()
            try:
                prediction = mdl.predict(query, kb)
            except Exception as exc:  # a query the program cannot score is a failed op
                latencies.append(self.clock() - start)
                self.ops.check(False, f"predict {query}: {exc!r}")
                results.append(None)
                continue
            latencies.append(self.clock() - start)
            ok = True
            if expected is not None:
                ok = expected.get(str(query)) == (prediction.probability, prediction.psi)
            self.ops.check(ok, f"predict {query}: library and CLI disagree")
            results.append(prediction)
        scale = self.speed.scale(mark)
        record.predict.extend(t * scale for t in latencies)
        return results

    def read_tsv(self, path: Path) -> dict[str, tuple[float, float]]:
        rows = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            atom, prob, psi = line.split("\t")[:3]
            rows[atom] = (float(prob), float(psi))
        return rows

    def quality(self, record: Pass, labels, probabilities, rmse: float) -> None:
        m = self.p.metrics
        scored = [
            m.ScoredExample(label, prob)
            for label, prob in zip(labels, probabilities)
            if prob is not None
        ]
        try:
            record.quality["auc_roc"] = m.auc_roc(scored)
            record.quality["auc_pr"] = m.auc_pr(scored)
        except ValueError as exc:
            self.ops.check(False, f"AUC: {exc}")
        record.quality["rmse"] = rmse


def rms(values) -> float:
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else math.nan


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""

    def setup(self, h: Harness, seed: int, work: Path) -> types.SimpleNamespace:
        """Write the run's inputs under ``work``; timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self, h: Harness, inputs) -> None:
        """Untimed work once per run, after the set-ups."""

    def run_pass(self, h: Harness, inputs, record: Pass) -> None:
        raise NotImplementedError


class Boost(Workload):
    """``train`` with the CLI defaults, then ``predict`` on the held-out fold."""

    name = "boost"

    def setup(self, h: Harness, seed: int, work: Path):
        kb, train, heldout = boost_domain(h.p)
        rng = random.Random(f"boost:{seed}")
        files = {
            "facts": shuffled_facts(kb, rng),
            "modes": h.p.domain.MODES_TEXT,
            "pos": atoms_text(train.positives),
            "neg": atoms_text(train.negatives),
            "heldout": atoms_text(q for q, _ in heldout.labeled()),
        }
        for name, text in files.items():
            (work / f"{name}.txt").write_text(text, encoding="utf-8")
        labels = [label for _, label in heldout.labeled()]
        return types.SimpleNamespace(work=work, labels=labels)

    def run_pass(self, h: Harness, inputs, record: Pass) -> None:
        w = inputs.work
        model_path = w / "model.json"
        record.job, trained = h.cli(
            "train", "--facts", str(w / "facts.txt"), "--modes", str(w / "modes.txt"),
            "--pos", str(w / "pos.txt"), "--neg", str(w / "neg.txt"), "--out", str(model_path),
        )
        record.info["train_s"] = record.job
        if not trained:
            return
        _, predicted = h.cli(
            "predict", "--model", str(model_path), "--facts", str(w / "facts.txt"),
            "--queries", str(w / "heldout.txt"), "--out", str(w / "heldout.tsv"),
        )
        mdl, kb = h.load(model_path, w / "facts.txt")
        lines = (w / "heldout.txt").read_text(encoding="utf-8").splitlines()
        expected = h.read_tsv(w / "heldout.tsv") if predicted else None
        results = h.score(mdl, kb, h.queries(mdl, lines), record, expected)
        probs = [r.probability if r else None for r in results]
        brier = rms(p - y for p, y in zip(probs, inputs.labels) if p is not None)
        h.quality(record, inputs.labels, probs, brier)
        record.fingerprints["model.json"] = sha256(model_path)


class Distill(Workload):
    """``explain --mode distill --depth 10`` of the fixture model of ``boost``."""

    name = "distill"

    def setup(self, h: Harness, seed: int, work: Path):
        kb, train, _ = boost_domain(h.p)
        rng = random.Random(f"distill:{seed}")
        (work / "facts.txt").write_text(shuffled_facts(kb, rng), encoding="utf-8")
        (work / "pos.txt").write_text(atoms_text(train.positives), encoding="utf-8")
        (work / "neg.txt").write_text(atoms_text(train.negatives), encoding="utf-8")
        (work / "model.json").write_text(fixture_text(BOOST_FIXTURE), encoding="utf-8")
        labeled = train.labeled()
        return types.SimpleNamespace(
            work=work,
            lines=[str(q) for q, _ in labeled],
            labels=[label for _, label in labeled],
        )

    def prepare(self, h: Harness, inputs) -> None:
        """The ensemble potentials the distilled tree approximates."""
        mdl, kb = h.load(inputs.work / "model.json", inputs.work / "facts.txt")
        inputs.ensemble = mdl
        inputs.reference = [mdl.psi(q, kb) for q in h.queries(mdl, inputs.lines)]

    def run_pass(self, h: Harness, inputs, record: Pass) -> None:
        w = inputs.work
        out = w / "distilled"
        record.job, ok = h.cli(
            "explain", "--model", str(w / "model.json"), "--mode", "distill",
            "--depth", str(DISTILL_DEPTH), "--facts", str(w / "facts.txt"),
            "--pos", str(w / "pos.txt"), "--neg", str(w / "neg.txt"), "--out", str(out),
        )
        record.info["distill_s"] = record.job
        if not ok:
            return
        tree_text = out.with_suffix(".tree.txt").read_text(encoding="utf-8")
        fixture = inputs.ensemble
        try:
            distilled = self.model_from_text(h.p, tree_text, fixture)
        except (ValueError, IndexError) as exc:
            h.ops.check(False, f"distilled tree text does not parse: {exc}")
            return
        tree = distilled.trees[0]
        leaves, depth = tree.leaf_count, tree.depth
        h.ops.check(leaves <= 2**DISTILL_DEPTH and depth <= DISTILL_DEPTH,
                    f"distilled tree has {leaves} leaves, depth {depth}")
        net_text = h.p.network.dumps_network(h.p.network.paths_to_lrbm(distilled))
        h.ops.check(net_text == out.with_suffix(".json").read_text(encoding="utf-8"),
                    "distilled network differs from the path mapping of its tree text")
        kb = h.p.data.parse_facts((w / "facts.txt").read_text(encoding="utf-8"), fixture.modes)
        results = h.score(distilled, kb, h.queries(distilled, inputs.lines), record)
        gaps = [r.psi - ref for r, ref in zip(results, inputs.reference) if r is not None]
        rmse = rms(gaps)
        h.ops.check(math.isfinite(rmse), f"distill_rmse is {rmse}")
        probs = [r.probability if r else None for r in results]
        h.quality(record, inputs.labels, probs, rmse)
        record.info["leaves"] = leaves
        record.fingerprints["distilled.tree.txt"] = hashlib.sha256(tree_text.encode()).hexdigest()

    @staticmethod
    def model_from_text(program, text: str, fixture):
        """Rebuild the distilled model from the tree text the CLI wrote."""
        tree_mod, data = program.tree, program.data
        predicates = {name: mode.predicate for name, mode in fixture.modes.items()}
        lines = text.splitlines()
        head = data.parse_atom_text(lines[0], predicates)
        position = 1

        def take(prefix: str) -> str:
            nonlocal position
            line = lines[position].strip()
            position += 1
            if not line.startswith(prefix):
                raise ValueError(f"line {position}: expected {prefix!r}, got {line!r}")
            return line[len(prefix):]

        def node():
            line = lines[position].strip()
            if line.startswith("leaf "):
                values = take("leaf ").split("params=(", 1)[1].rstrip(")")
                return tree_mod.LeafNode(tree_mod.LeafParams(*map(float, values.split(", "))))
            test = data.parse_atom_text(take("test "), predicates)
            take("yes:")
            yes = node()
            take("no:")
            no = node()
            return tree_mod.InternalNode(program.logic.Literal(test), yes, no)

        root = node()
        if position != len(lines):
            raise ValueError(f"trailing lines after line {position}")
        tree = tree_mod.RelationalRegressionTree(head, root)
        return program.model.BoostedModel(
            fixture.target, head, 0.0, [tree], fixture.config, dict(fixture.modes)
        )


class Score(Workload):
    """``predict`` and ``explain --mode paths`` with the larger fixture, then
    ``lrbm_inference`` of the path-mapped network on the same queries."""

    name = "score"

    def setup(self, h: Harness, seed: int, work: Path):
        kb, _ = score_domain(h.p)
        rng = random.Random(f"score:{seed}")
        people = sorted({t.name for t in kb.universe("person")}, key=lambda n: int(n[1:]))
        # Stratified by clean label, so that every seed scores the same mix
        # of positives and negatives and the quality numbers stay comparable.
        candidates = [(a, b) for a in people for b in people if a != b]
        by_label: dict[int, list] = {0: [], 1: []}
        for pair, label in zip(candidates, rule_labels(kb, candidates)):
            by_label[label].append(pair)
        positives = round(SCORE_QUERIES * len(by_label[1]) / len(candidates))
        labelled = [(pair, 1) for pair in rng.sample(by_label[1], positives)]
        labelled += [(pair, 0) for pair in rng.sample(by_label[0], SCORE_QUERIES - positives)]
        rng.shuffle(labelled)
        (work / "facts.txt").write_text(shuffled_facts(kb, rng), encoding="utf-8")
        lines = [f"collab({a}, {b})" for (a, b), _ in labelled]
        (work / "queries.txt").write_text("".join(f"{line}.\n" for line in lines), encoding="utf-8")
        (work / "model.json").write_text(fixture_text(SCORE_FIXTURE), encoding="utf-8")
        labels = [label for _, label in labelled]
        return types.SimpleNamespace(work=work, lines=lines, labels=labels)

    def run_pass(self, h: Harness, inputs, record: Pass) -> None:
        w = inputs.work
        model_path = w / "model.json"
        record.info["predict_cli_s"], predicted = h.cli(
            "predict", "--model", str(model_path), "--facts", str(w / "facts.txt"),
            "--queries", str(w / "queries.txt"), "--out", str(w / "scores.tsv"),
        )
        _, explained = h.cli(
            "explain", "--model", str(model_path), "--mode", "paths", "--out", str(w / "network"),
        )
        mdl, kb = h.load(model_path, w / "facts.txt")
        queries = h.queries(mdl, inputs.lines)
        expected = h.read_tsv(w / "scores.tsv") if predicted else None
        results = h.score(mdl, kb, queries, record, expected)
        net = h.p.network.paths_to_lrbm(mdl)
        if explained:
            net_path = w / "network.json"
            h.ops.check(h.p.network.dumps_network(net) == net_path.read_text(encoding="utf-8"),
                        "CLI network JSON differs from paths_to_lrbm of the model")
            record.fingerprints["network.json"] = sha256(net_path)
        latencies = []
        mark = h.speed.mark()
        start = h.clock()
        for query, ensemble in zip(queries, results):
            t0 = h.clock()
            try:
                inferred = h.p.network.lrbm_inference(net, query, kb)
            except Exception as exc:  # a query the program cannot score is a failed op
                latencies.append(h.clock() - t0)
                h.ops.check(False, f"lrbm_inference {query}: {exc!r}")
                continue
            latencies.append(h.clock() - t0)
            exact = ensemble is not None and (
                abs(inferred.psi - ensemble.psi) <= EXACT_TOL
                and abs(inferred.probability - ensemble.probability) <= EXACT_TOL
            )
            h.ops.check(exact, f"network and ensemble disagree on {query}")
        scale = h.speed.scale(mark)
        record.job = (h.clock() - start) * scale
        record.network.extend(t * scale for t in latencies)
        probs = [r.probability if r else None for r in results]
        brier = rms(p - y for p, y in zip(probs, inputs.labels) if p is not None)
        h.quality(record, inputs.labels, probs, brier)
        if predicted:
            record.fingerprints["scores.tsv"] = sha256(w / "scores.tsv")


WORKLOADS = {w.name: w for w in (Boost(), Distill(), Score())}


# -- tracing ----------------------------------------------------------------------


def install_trace(tracer: spans.Tracer, program) -> None:
    """Wrap each public function where the code that calls it looks it up."""
    logic, tree, model, network, data, cli = (
        program.logic, program.tree, program.model, program.network, program.data, program.cli,
    )
    counters = tracer.counters
    search_stats = getattr(logic, "SearchStats", None)
    logic_spans = ("logic.route_decision", "logic.satisfy", "logic.satisfy_route")

    def counting(func):
        """before/after hooks that count groundings at the outermost logic call,
        passing a SearchStats when the caller gives none."""
        index = spans.param_index(func, "stats") if func is not None else None

        def before(args, kwargs):
            if index is None or search_stats is None or any(map(tracer.inside, logic_spans)):
                return args, kwargs, None
            stats = spans.argument(args, kwargs, index, "stats")
            if stats is None:
                stats = search_stats()
                if index < len(args):
                    args = args[:index] + (stats,) + args[index + 1:]
                else:
                    kwargs = {**kwargs, "stats": stats}
            return args, kwargs, (stats, stats.groundings_visited)

        def after(state, result, frame):
            if state is not None:
                stats, start = state
                counters["logic.groundings_visited"] += stats.groundings_visited - start

        return before, after

    route = getattr(logic, "route_decision", None)
    count_before, count_after = counting(route)
    where = {n: spans.param_index(route, n) for n in ("context", "test", "base")}

    def route_before(args, kwargs):
        context, test, base = (spans.argument(args, kwargs, where.get(n), n) for n in where)
        if context is not None and test is not None and hasattr(base, "items"):
            binding = tuple(sorted((v.name, t.name) for v, t in base.items()))
            tracer.keys["logic.route_decision"].add((tuple(context), test, binding))
        return count_before(args, kwargs)

    def route_after(state, result, frame):
        count_after(state, result, frame)
        if not frame.fell_back:
            counters["logic.route_decision.fast_path"] += 1

    for owner in (tree, logic):
        tracer.wrap(owner, "route_decision", "logic.route_decision", route_before, route_after)

    sat_before, sat_after = counting(getattr(logic, "satisfy", None))

    def satisfy_before(args, kwargs):
        enclosing = tracer.nearest("logic.route_decision")
        if enclosing is not None:
            enclosing.fell_back = True
        return sat_before(args, kwargs)

    tracer.wrap(logic, "satisfy", "logic.satisfy", satisfy_before, sat_after)
    tracer.wrap(network, "satisfy_route", "logic.satisfy_route",
                *counting(getattr(network, "satisfy_route", None)))

    def count_candidates(state, result, frame):
        counters["tree.generate_candidates.candidates"] += len(result)

    tracer.wrap(tree, "partition", "tree.partition")
    tracer.wrap(tree, "coordinate_descent", "tree.coordinate_descent")
    tracer.wrap(tree, "generate_candidates", "tree.generate_candidates", after=count_candidates)
    for owner in (model, network):
        tracer.wrap(owner, "fit_regression_tree", "tree.fit_regression_tree")
    tracer.wrap(model, "evaluate_tree", "tree.evaluate_tree")
    tracer.wrap(model.BoostedModel, "predict", "model.predict")

    def network_size(args, kwargs):
        net = args[0] if args else kwargs.get("net")
        return args, kwargs, len(getattr(net, "hidden", ()))

    def record_size(state, result, frame):
        counters["network.hidden_nodes"] = max(counters["network.hidden_nodes"], state)

    tracer.wrap(network, "lrbm_inference", "network.lrbm_inference", network_size, record_size)

    def count_facts(state, result, frame):
        counters["data.facts"] += len(result)

    def span_of(module_name: str, name: str) -> str:
        return "data.parse" if name.startswith("parse_") else f"{module_name}.{name}"

    # The benchmark's own library calls, then every function the CLI imports.
    library = ((network, "paths_to_lrbm"), (model, "load_model"), (data, "parse_facts"),
               (data, "parse_atom_text"))
    for owner, name in library:
        short = owner.__name__.rsplit(".", 1)[1]
        tracer.wrap(owner, name, span_of(short, name),
                    after=count_facts if name == "parse_facts" else None)
    for name, obj in sorted(vars(cli).items()):
        module_name = getattr(obj, "__module__", "") or ""
        if not (isinstance(obj, types.FunctionType) and module_name.startswith("liftedrbm.")):
            continue
        if module_name == "liftedrbm.cli":
            continue
        short = module_name.rsplit(".", 1)[1]
        tracer.wrap(cli, name, span_of(short, name),
                    after=count_facts if name == "parse_facts" else None)
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(tracer: spans.Tracer, scale: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass; times multiplied by ``scale``."""
    calls, own, total, counters = tracer.calls, tracer.self_time, tracer.total, tracer.counters
    decisions = calls["logic.route_decision"]
    distinct = len(tracer.keys["logic.route_decision"])
    values = {
        "logic.route_decision.calls": decisions,
        "logic.route_decision.self_s": own["logic.route_decision"],
        "logic.route_decision.fast_path_ratio":
            counters["logic.route_decision.fast_path"] / decisions if decisions else 0.0,
        "logic.route_decision.redundancy": decisions / distinct if distinct else 0.0,
        "logic.satisfy.calls": calls["logic.satisfy"],
        "logic.satisfy.s": total["logic.satisfy"],
        "logic.groundings_visited": counters["logic.groundings_visited"],
        "logic.satisfy_route.calls": calls["logic.satisfy_route"],
        "logic.satisfy_route.s": total["logic.satisfy_route"],
        "tree.partition.calls": calls["tree.partition"],
        "tree.partition.self_s": own["tree.partition"],
        "tree.generate_candidates.candidates": counters["tree.generate_candidates.candidates"],
        "tree.fit_regression_tree.s": total["tree.fit_regression_tree"],
        "tree.coordinate_descent.calls": calls["tree.coordinate_descent"],
        "tree.coordinate_descent.s": total["tree.coordinate_descent"],
        "tree.evaluate_tree.calls": calls["tree.evaluate_tree"],
        "tree.evaluate_tree.s": total["tree.evaluate_tree"],
        "model.train.s": total["model.train"],
        "model.predict.calls": calls["model.predict"],
        "model.predict.s": total["model.predict"],
        "model.load_model.s": total["model.load_model"],
        "model.save_model.s": total["model.save_model"],
        "network.lrbm_inference.calls": calls["network.lrbm_inference"],
        "network.lrbm_inference.s": total["network.lrbm_inference"],
        "network.hidden_nodes": counters["network.hidden_nodes"],
        "network.paths_to_lrbm.s": total["network.paths_to_lrbm"],
        "network.distill_single_tree.s": total["network.distill_single_tree"],
        "data.parse.s": total["data.parse"],
        "data.facts": counters["data.facts"],
        "cli.self_s": own["cli.main"],
    }
    return {
        name: float(value) * (scale if PER_LAYER[name] == "s" else 1.0)
        for name, value in values.items()
    }


COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit == "count"] + [
    "logic.route_decision.redundancy",
    "logic.route_decision.fast_path_ratio",
]


# -- the run ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    program = import_program()
    workload = WORKLOADS[workload_name]
    work = WORK / f"{workload_name}-{seed}-{time.time_ns()}"
    try:
        return measure(program, workload, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(program, workload, work: Path, seed: int, seconds: float, trace: bool) -> int:
    with hostspeed.HostSpeed() as speed:
        h = Harness(program, speed)
        setup_times = []
        mark = speed.mark()
        for i in range(SETUPS):
            target = work / f"setup-{i}"
            start = speed.now()
            target.mkdir(parents=True)
            inputs = workload.setup(h, seed, target)
            setup_times.append(speed.now() - start)
        setup_scale = speed.scale(mark)
        workload.prepare(h, inputs)

        tracer = spans.Tracer(clock=speed.now)
        for problem in spans.self_test() if trace else []:
            h.ops.check(False, f"span self-test: {problem}")
        passes: list[tuple[bool, Pass]] = []
        layers: list[dict[str, float]] = []
        start = time.perf_counter()  # the deadline is in real seconds
        index = 0
        while True:
            traced = trace and index % 2 == 1
            record = Pass()
            if traced:
                install_trace(tracer, program)
            installed = tracer.patched
            mark = speed.mark()
            t0 = speed.now()
            try:
                workload.run_pass(h, inputs, record)
            finally:
                record.wall = speed.now() - t0
                record.scale = speed.scale(mark)
                tracer.restore()
            if traced:
                layers.append(layer_metrics(tracer, record.scale))
                tracer.reset()
                leftover = [f"{owner}.{attr}" for owner, attr, original in installed
                            if getattr(owner, attr) is not original]
                h.ops.check(not leftover, f"wrappers left in place: {leftover}")
            passes.append((traced, record))
            index += 1
            # Stop when another pass would end nearer past the deadline than
            # stopping now falls short of it.
            half_pass = statistics.median(r.wall for _, r in passes) / 2
            if time.perf_counter() - start + half_pass >= seconds and (not trace or index >= 2):
                break
    h.ops.check(speed.wrong == 0, f"{speed.wrong} reference rounds gave a wrong count")

    untraced = [r for traced, r in passes if not traced]
    first = untraced[0]
    # Outputs must repeat exactly from pass to pass.
    for _, r in passes[1:]:
        same = r.quality == first.quality and r.fingerprints == first.fingerprints
        h.ops.check(same, "quality or fingerprints changed between passes")
    if layers:
        repeat = all(
            all(layer[m] == layers[0][m] for m in COUNT_METRICS) for layer in layers[1:]
        )
        h.ops.check(repeat, "traced counts differ between passes")

    predict = stream_stats(untraced, "predict")
    end_to_end = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_s": statistics.median(r.job for r in untraced),
        "pass_s": statistics.median(r.wall * r.scale for r in untraced),
        "predict_qps": predict["qps"],
        "predict_p95_ms": predict["p95_ms"],
        **{name: first.quality.get(name, math.nan) for name in ("auc_roc", "auc_pr", "rmse")},
    }
    report(workload.name, seed, passes, layers, h.ops, end_to_end, sorted(set(tracer.absent)), speed)
    if trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            if PER_LAYER[name] == "s" else layers[0][name]
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            r.wall * r.scale for t, r in passes if t
        ) - statistics.median(r.wall * r.scale for r in untraced)
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    ok = h.ops.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": ok,
        "attempted": h.ops.attempted,
        "failed": h.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


# The name each workload's quality numbers are printed under.
QUALITY_LABELS = {
    "boost": {"auc_roc": "heldout_auc_roc", "auc_pr": "heldout_auc_pr", "rmse": "heldout_rmse"},
    "distill": {"auc_roc": "train_auc_roc", "auc_pr": "train_auc_pr", "rmse": "distill_rmse"},
    "score": {"auc_roc": "truth_auc_roc", "auc_pr": "truth_auc_pr", "rmse": "truth_rmse"},
}


def stream_stats(passes: list[Pass], stream: str) -> dict[str, float]:
    """Per-query rate and percentiles over every sample of the run."""
    pooled = [s for r in passes for s in getattr(r, stream)]
    if not pooled:
        return {"samples": 0, "qps": math.nan, "p95_ms": math.nan, "p99_ms": math.nan}
    return {
        "samples": len(pooled),
        "qps": len(pooled) / sum(pooled),
        "p95_ms": percentile(pooled, 95) * 1e3,
        "p99_ms": percentile(pooled, 99) * 1e3,
    }


def report(name, seed, passes, layers, ops, end_to_end, absent, speed) -> None:
    """Human-readable lines before the result line: every metric with its unit."""
    untraced = [r for t, r in passes if not t]
    rows = [
        ("reference_round_ms", statistics.fmean(speed.samples) * 1e3, "ms",
         f"mean of {len(speed.samples)} rounds; times below are at {hostspeed.REFERENCE_S * 1e3:g} ms"),
        ("pass_wall_s", statistics.median(r.wall for r in untraced), "s", "median, as measured"),
        ("setup_s", end_to_end["setup_s"], "s", f"median of {SETUPS} set-ups"),
        ("peak_rss_mb", end_to_end["peak_rss_mb"], "MB", ""),
        ("failed_ops", ops.failed / ops.attempted if ops.attempted else 0.0, "share",
         f"{ops.failed} of {ops.attempted}"),
        ("pass_s", end_to_end["pass_s"], "s", f"median of {len(untraced)} passes"),
    ]
    for key in sorted(untraced[0].info):
        unit = "count" if key == "leaves" else "s"
        values = [r.info[key] for r in untraced if key in r.info]
        rows.append((key, statistics.median(values), unit, f"median of {len(values)}"))
    for key, label in QUALITY_LABELS[name].items():
        rows.append((label, end_to_end[key], "1", "same on every pass"))
    for stream in ("predict", "network"):
        stats = stream_stats(untraced, stream)
        if stats["samples"]:
            note = f"{stats['samples']} samples"
            for key, unit in (("qps", "1/s"), ("p95_ms", "ms"), ("p99_ms", "ms")):
                rows.append((f"{stream}_{key}", stats[key], unit, note))
    print(f"workload {name}  seed {seed}  passes {len(passes)} ({len(layers)} traced)")
    for label, value, unit, note in rows:
        print(f"  {label:<18} {value:<24.10g} {unit:<6} {note}")
    for key, digest in sorted(untraced[0].fingerprints.items()):
        print(f"  sha256 {key:<18} {digest}")
    if absent:
        print(f"  absent, not traced: {', '.join(absent)}")
    for message in ops.messages:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
