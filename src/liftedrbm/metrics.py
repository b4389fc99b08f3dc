"""Ranking metrics and the cross-validation harness.

AUC-ROC is the probability that a uniformly random positive outranks a
uniformly random negative, with ties worth half.  AUC-PR is average precision:
the sum of the precision at each rank where recall increases, divided by the
positive count, with score ties broken by stable input order.  Reported
spreads use the population standard deviation.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .data import ExampleSet, FoldSpec
from .logic import Atom, KnowledgeBase
from .model import TrainConfig, probability, train


@dataclass(frozen=True)
class ScoredExample:
    label: int
    score: float
    query: Optional[Atom] = None


def auc_roc(scored: Sequence[ScoredExample]) -> float:
    """Pairwise win rate of positives over negatives, ties counting half.

    Computed from average ranks (identical to the brute-force pairwise
    oracle).  Raises when either class is empty.
    """
    positives = [s.score for s in scored if s.label == 1]
    negatives = [s.score for s in scored if s.label != 1]
    if not positives or not negatives:
        raise ValueError("auc_roc needs at least one positive and one negative")
    items = sorted((s.score, s.label) for s in scored)
    ranks: dict[float, float] = {}
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j][0] == items[i][0]:
            j += 1
        # ranks are 1-based; tied scores share their average rank
        ranks[items[i][0]] = (i + 1 + j) / 2.0
        i = j
    rank_sum = sum(ranks[score] for score in positives)
    n_pos = len(positives)
    n_neg = len(negatives)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_pr(scored: Sequence[ScoredExample]) -> float:
    """Average precision over descending scores; stable order breaks ties."""
    n_pos = sum(1 for s in scored if s.label == 1)
    if n_pos == 0:
        raise ValueError("auc_pr needs at least one positive")
    order = sorted(range(len(scored)), key=lambda i: -scored[i].score)
    hits = 0
    total = 0.0
    for rank, index in enumerate(order, start=1):
        if scored[index].label == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    auc_roc: float
    auc_pr: float
    n_train: int
    n_test: int
    seconds: float


@dataclass
class MetricsReport:
    folds: list[FoldMetrics]
    mean_auc_roc: float
    std_auc_roc: float
    mean_auc_pr: float
    std_auc_pr: float
    config: dict
    total_seconds: float

    def to_dict(self) -> dict:
        return {
            "folds": [asdict(f) for f in self.folds],
            "mean_auc_roc": self.mean_auc_roc,
            "std_auc_roc": self.std_auc_roc,
            "mean_auc_pr": self.mean_auc_pr,
            "std_auc_pr": self.std_auc_pr,
            "config": self.config,
            "total_seconds": self.total_seconds,
            "notes": "stdev uses the population formula; ROC ties score half",
        }

    def to_text(self) -> str:
        lines = ["fold  auc-roc  auc-pr   n_train  n_test  seconds"]
        for f in self.folds:
            lines.append(
                f"{f.fold:>4}  {f.auc_roc:7.4f}  {f.auc_pr:7.4f}  "
                f"{f.n_train:>7}  {f.n_test:>6}  {f.seconds:7.2f}"
            )
        lines.append(
            f"mean  {self.mean_auc_roc:.4f}±{self.std_auc_roc:.4f}  "
            f"{self.mean_auc_pr:.4f}±{self.std_auc_pr:.4f}  "
            f"(population stdev, total {self.total_seconds:.2f}s)"
        )
        return "\n".join(lines) + "\n"


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def _run_fold(payload) -> FoldMetrics:
    """One fold's metrics; any failure is re-raised naming the fold."""
    try:
        return _fold_metrics(*payload)
    except Exception as exc:
        raise RuntimeError(f"fold {payload[-1]} failed: {exc}") from exc


def _fold_metrics(kb, examples, folds, config, fold) -> FoldMetrics:
    start = time.perf_counter()
    train_set, test_set = folds.split(examples, fold)
    model = train(kb, train_set, config)
    labeled = test_set.labeled()
    psis = model.psi_many([query for query, _ in labeled], kb)
    scored = [
        ScoredExample(label, probability(psi, model.config.psi_clamp), query)
        for (query, label), psi in zip(labeled, psis)
    ]
    return FoldMetrics(
        fold=fold,
        auc_roc=auc_roc(scored),
        auc_pr=auc_pr(scored),
        n_train=len(train_set),
        n_test=len(test_set),
        seconds=time.perf_counter() - start,
    )


def cross_validate(
    kb: KnowledgeBase,
    examples: ExampleSet,
    folds: FoldSpec,
    config: Optional[TrainConfig] = None,
    jobs: int = 1,
    progress: Optional[Callable[[FoldMetrics], None]] = None,
) -> MetricsReport:
    """Train on each fold's complement, score the fold, aggregate both AUCs."""
    config = config or TrainConfig()
    start = time.perf_counter()
    payloads = [(kb, examples, folds, config, fold) for fold in range(folds.k)]
    results: list[FoldMetrics] = []
    with ExitStack() as stack:
        mapper = map
        if jobs > 1:
            # Imported here: it pulls in multiprocessing, about 2.6 MB of
            # resident memory that no other command needs.
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for metrics in mapper(_run_fold, payloads):
            results.append(metrics)
            if progress is not None:
                progress(metrics)
    mean_roc, std_roc = _mean_std([m.auc_roc for m in results])
    mean_pr, std_pr = _mean_std([m.auc_pr for m in results])
    return MetricsReport(
        folds=results,
        mean_auc_roc=mean_roc,
        std_auc_roc=std_roc,
        mean_auc_pr=mean_pr,
        std_auc_pr=std_pr,
        config=asdict(config),
        total_seconds=time.perf_counter() - start,
    )
