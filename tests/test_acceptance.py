"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import os
import random
import time

import pytest

from liftedrbm.data import ExampleSet, split_folds
from liftedrbm.logic import RoutingTrie, SearchStats
from liftedrbm.metrics import ScoredExample, auc_pr, auc_roc, cross_validate
from liftedrbm.model import (
    BoostedModel,
    TrainConfig,
    probability,
)
from liftedrbm.network import lrbm_inference, paths_to_lrbm
from liftedrbm.tree import (
    LeafNode,
    LeafParams,
    RelationalRegressionTree,
    coordinate_descent,
    fit_regression_tree,
    make_head,
)

from helpers import (
    COLLAB,
    COLLAB_HEAD,
    MOVIE_MODES,
    C,
    V,
    atom,
    example1_kb,
    example2_kb,
    left_sum,
    network_from_clauses,
    oracle_route,
    random_satisfaction_case,
    route_body,
    rule_clauses,
    type_tags,
)


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_path_mapping_exactness(movie_model, movie_domain):
    """Network potential and probability equal the ensemble's on every example."""
    start = time.perf_counter()
    model, _, _, kb = movie_model
    _, examples, _ = movie_domain
    labeled = examples.labeled()
    assert len(labeled) >= 500
    net = paths_to_lrbm(model)
    worst = 0.0
    for query, _ in labeled:
        ensemble = model.predict(query, kb)
        network = lrbm_inference(net, query, kb)
        gap = max(
            abs(ensemble.psi - network.psi), abs(ensemble.probability - network.probability)
        )
        worst = max(worst, gap)
        assert gap < 1e-9, f"{query}: |ensemble - network| = {gap}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"  worst gap {worst:.2e} over {len(labeled)} examples, {elapsed:.1f}s")
    _report(1, "path-mapping exactness")


def test_criterion_2_gradient_identity():
    """Pointwise gradients equal central finite differences of log-likelihood."""
    kb = example1_kb()
    query = atom(COLLAB, C("p1", "person"), C("p2", "person"))
    head = make_head(COLLAB)
    rng = random.Random(12345)
    step = 1e-5
    for _ in range(1000):
        psi = rng.uniform(-15.0, 15.0)
        label = rng.randint(0, 1)
        tree = RelationalRegressionTree(head, LeafNode(LeafParams(output_bias=psi)))
        model = BoostedModel(COLLAB, head, 0.0, [tree], TrainConfig(), dict(MOVIE_MODES))
        delta = label - probability(model.psi(query, kb), model.config.psi_clamp)

        def log_likelihood(value):
            # P(y=0 | v) = sigmoid(-v); evaluated this way to stay stable
            return math.log(probability(value if label == 1 else -value))

        numeric = (log_likelihood(psi + step) - log_likelihood(psi - step)) / (2 * step)
        assert abs(delta - numeric) < 1e-6
    _report(2, "gradient identity")


def test_criterion_3_satisfaction_oracle():
    """A one-clause routing trie agrees with exhaustive enumeration on 10,000
    generated cases."""
    rng = random.Random(424242)
    disagreements = 0
    satisfiable = 0
    for _ in range(10_000):
        body, partial, kb = random_satisfaction_case(rng)
        assert len(body) <= 3
        assert all(len(kb.universe(t)) <= 6 for t in type_tags(kb))
        got = route_body(body, partial, kb) is not None
        expected = oracle_route(body, partial, kb)
        if got != expected:
            disagreements += 1
        satisfiable += got
    assert disagreements == 0
    assert 500 < satisfiable < 9500  # both outcomes well represented
    print(f"  10000 cases, {satisfiable} satisfiable, 0 disagreements")
    _report(3, "satisfaction oracle")


def test_criterion_4_appendix_fidelity():
    """The two inference walkthroughs reproduce exactly, with early stop."""
    clauses = [(clause, LeafParams(output_bias=0.1)) for clause in rule_clauses()]
    net = network_from_clauses(COLLAB_HEAD, clauses)

    query1 = atom(COLLAB, C("p1", "person"), C("p2", "person"))
    query2 = atom(COLLAB, C("p01", "person"), C("p02", "person"))
    stats1 = SearchStats()
    result1 = lrbm_inference(net, query1, example1_kb(), stats1)
    assert result1.activated == (2,)  # only the shared-movie clause
    assert result1.witnesses[2].get(V("M", "movie")) == C("m1", "movie")
    assert stats1.groundings_visited == 2  # the search stops at the first witness

    stats2 = SearchStats()
    result2 = lrbm_inference(net, query2, example2_kb(), stats2)
    assert result2.activated == (1,)  # only the worked-under clause
    witness = result2.witnesses[1]
    assert witness.get(V("P1", "person")) == C("p01", "person")
    assert witness.get(V("M1", "movie")) == C("m01", "movie")
    assert witness.get(V("P2", "person")) == C("p02", "person")
    assert witness.get(V("P3", "person")) == C("p03", "person")
    # different_genres and worked_under share the routing trie's branch for
    # their first literal directedby(M1, P1), which is decided once
    assert stats2.groundings_visited == 4

    # proved clause by clause, as the walkthroughs read, the searches visit
    # 2 and 5 groundings
    for query, kb, visited in ((query1, example1_kb(), 2), (query2, example2_kb(), 5)):
        stats = SearchStats()
        for clause in rule_clauses():
            RoutingTrie([clause]).walk(query, kb, stats)
        assert stats.groundings_visited == visited
    _report(4, "appendix fidelity")


def test_criterion_5_leaf_fit_optimality():
    """Coordinate descent reaches the mean within 1e-3 in <= 500 iterations."""
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(1, 25)
        deltas = [rng.uniform(-0.95, 0.95) for _ in range(n)]
        params = coordinate_descent(
            left_sum(deltas) / len(deltas), learning_rate=0.05, max_iters=500, tolerance=1e-8
        )
        mean = sum(deltas) / n
        assert abs(params.value() - mean) < 1e-3
    _report(5, "leaf-fit optimality")


def test_criterion_6_auc_oracles():
    """AUC-ROC matches the pairwise oracle; AUC-PR reproduces frozen cases."""
    rng = random.Random(31337)
    for _ in range(200):
        scored = [
            ScoredExample(1, round(rng.random(), 1)) for _ in range(rng.randint(1, 60))
        ] + [
            ScoredExample(0, round(rng.random(), 1)) for _ in range(rng.randint(1, 60))
        ]
        wins = 0.0
        for p in (s.score for s in scored if s.label == 1):
            for q in (s.score for s in scored if s.label == 0):
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        n_pos = sum(1 for s in scored if s.label == 1)
        n_neg = len(scored) - n_pos
        assert abs(auc_roc(scored) - wins / (n_pos * n_neg)) < 1e-9

    hand = [ScoredExample(1, 0.9), ScoredExample(1, 0.4), ScoredExample(0, 0.6), ScoredExample(0, 0.2)]
    assert auc_pr(hand) == pytest.approx(0.8333333333333333, abs=1e-9)
    perfect = [ScoredExample(1, 0.9), ScoredExample(1, 0.8), ScoredExample(0, 0.1)]
    assert auc_pr(perfect) == pytest.approx(1.0, abs=1e-12)
    last = [ScoredExample(1, 0.1), ScoredExample(0, 0.9), ScoredExample(0, 0.8), ScoredExample(0, 0.7)]
    assert auc_pr(last) == pytest.approx(0.25, abs=1e-12)
    _report(6, "auc oracles")


def test_criterion_7_end_to_end_learning(movie_domain):
    """5-fold CV with the default hyperparameters on rule-generated data."""
    start = time.perf_counter()
    kb, examples, _ = movie_domain
    config = TrainConfig(n_trees=20, max_leaves=4, learning_rate=0.05)
    folds = split_folds(examples, 5, seed=0)
    report = cross_validate(kb, examples, folds, config)
    elapsed = time.perf_counter() - start
    print(
        f"  mean auc-roc {report.mean_auc_roc:.4f}±{report.std_auc_roc:.4f}, "
        f"auc-pr {report.mean_auc_pr:.4f}±{report.std_auc_pr:.4f}, {elapsed:.1f}s"
    )
    assert report.mean_auc_roc >= 0.95
    assert report.mean_auc_pr >= 0.90
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(7, "end-to-end learning")


def test_criterion_8_ensemble_vs_single_tree(movie_model):
    """The boosted ensemble is not worse than a depth-10 single tree."""
    model, train_set, test_set, kb = movie_model

    labeled = train_set.labeled()
    single_tree = fit_regression_tree(
        [query for query, _ in labeled], [label - 0.5 for _, label in labeled],
        2 ** 10, MOVIE_MODES, kb, max_depth=10,
    )
    single = BoostedModel(
        COLLAB, single_tree.head, 0.0, [single_tree], model.config, dict(MOVIE_MODES)
    )

    def roc(m):
        scored = [
            ScoredExample(label, m.predict(query, kb).probability)
            for query, label in test_set.labeled()
        ]
        return auc_roc(scored)

    ensemble_roc = roc(model)
    single_roc = roc(single)
    print(f"  ensemble {ensemble_roc:.4f} vs depth-10 single tree {single_roc:.4f}")
    assert ensemble_roc >= single_roc - 0.02
    _report(8, "ensemble vs single tree")


def test_criterion_9_external_benchmarks():
    """Runs the public benchmark datasets when present; never gates on them."""
    data_dir = os.environ.get("LIFTEDRBM_DATA_DIR")
    if not data_dir or not os.path.isdir(data_dir):
        pytest.skip(
            "public benchmark datasets are not bundled; set LIFTEDRBM_DATA_DIR "
            "to a directory of <name>/{facts,modes,pos}.txt to run them"
        )
    from liftedrbm.data import parse_examples, parse_facts, parse_modes, generate_negatives

    for name in sorted(os.listdir(data_dir)):
        root = os.path.join(data_dir, name)
        if not os.path.isdir(root):
            continue
        with open(os.path.join(root, "modes.txt"), encoding="utf-8") as handle:
            modes = parse_modes(handle.read())
        with open(os.path.join(root, "facts.txt"), encoding="utf-8") as handle:
            kb = parse_facts(handle.read(), modes)
        with open(os.path.join(root, "pos.txt"), encoding="utf-8") as handle:
            pos_text = handle.read()
        target_name = pos_text.split("(", 1)[0].strip()
        target = modes[target_name].predicate
        positives = parse_examples(pos_text, kb, target)
        negatives = generate_negatives(kb, target, positives, ratio=2.0, seed=0)
        examples = ExampleSet(target, positives, negatives)
        folds = split_folds(examples, 5, seed=0)
        report = cross_validate(kb, examples, folds, TrainConfig())
        print(f"  {name}: auc-roc {report.mean_auc_roc:.4f} auc-pr {report.mean_auc_pr:.4f}")
    _report(9, "external benchmarks")
