"""Top-K recommendation lists and ranking metrics (P@K, R@K, nDCG@K).

Ground truth per user is the set of test items rated 4 or higher. Users
with empty ground truth are excluded; metric means run over the evaluated
users. Items the user touched in training, with either sign, are excluded
from ranking. Users are ranked in blocks: one score matrix per block, with
the training items set to -inf, then one stable sort per row.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

GROUP_BINS = ((0, 20), (20, 50), (50, math.inf))
GROUND_TRUTH_MIN_RATING = 4.0
BLOCK_USERS = 64  # users per score matrix: 64 x 3,700 items in float64 is 1.9 MB


@dataclass
class MetricTriple:
    precision: float
    recall: float
    ndcg: float


@dataclass
class RankingReport:
    metrics: dict                 # K -> MetricTriple
    evaluated_users: int
    groups: dict = field(default_factory=dict)  # label -> RankingReport


def _item_mask(item_sets, num_items: int) -> np.ndarray:
    """Boolean matrix whose row i is true on the items of ``item_sets[i]``."""
    mask = np.zeros((len(item_sets), num_items), dtype=bool)
    rows = np.repeat(np.arange(len(item_sets)), [len(s) for s in item_sets])
    mask[rows, np.fromiter(itertools.chain.from_iterable(item_sets), dtype=np.int64,
                           count=len(rows))] = True
    return mask


def topk_recommend(Z: np.ndarray, num_users: int, users, k: int,
                   exclude: dict) -> np.ndarray:
    """Top-k items for each of ``users``, ties broken by the lower item index.

    ``exclude`` maps a user to the items left out of its ranking. Returns an
    int array of shape (len(users), k); a row holds -1 past the user's
    candidate count, so a user with fewer than k candidates gets a short list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num_items = Z.shape[0] - num_users
    excluded = _item_mask([exclude.get(u, ()) for u in users], num_items)
    scores = Z[users] @ Z[num_users:].T
    scores[excluded] = -np.inf
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    recs = np.full((len(users), k), -1, dtype=np.int64)
    recs[:, :top.shape[1]] = top
    recs[np.arange(k) >= num_items - excluded.sum(axis=1)[:, None]] = -1
    return recs


def ground_truth(test_records, descriptor) -> dict:
    """Per-user set of test items rated at or above the relevance cutoff."""
    truth = {}
    for r in test_records:
        if r.rating >= GROUND_TRUTH_MIN_RATING:
            truth.setdefault(descriptor.user(r.user_id), set()).add(descriptor.item(r.item_id))
    return truth


def train_interactions(train_records, descriptor) -> dict:
    """Per-user set of training items (both signs), used for exclusion."""
    seen = {}
    for r in train_records:
        seen.setdefault(descriptor.user(r.user_id), set()).add(descriptor.item(r.item_id))
    return seen


def _mean_report(per_k: dict, members: np.ndarray) -> RankingReport:
    """Means over the ``members`` rows, summed in user order as Python floats."""
    count = int(members.sum())
    metrics = {k: MetricTriple(*(sum(v[members].tolist()) / count if count else 0.0
                                 for v in values))
               for k, values in per_k.items()}
    return RankingReport(metrics, evaluated_users=count)


def evaluate(Z: np.ndarray, num_users: int, truth: dict, exclude: dict,
             ks, groups: bool = False) -> RankingReport:
    """Average per-user metrics over users with non-empty ground truth.

    ``truth`` and ``exclude`` map dense user index to item sets. When
    ``groups`` is set, users are additionally binned by training-interaction
    count and per-bin sub-reports attached.
    """
    ks = sorted(ks)
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    users = [u for u, items in truth.items() if items]
    if not users:
        raise ValueError("no evaluable users (all ground-truth sets empty)")
    num_items, max_k = Z.shape[0] - num_users, ks[-1]
    hits = np.empty((len(users), max_k), dtype=bool)
    for start in range(0, len(users), BLOCK_USERS):
        block = users[start:start + BLOCK_USERS]
        recs = topk_recommend(Z, num_users, block, max_k, exclude)
        relevant = _item_mask([truth[u] for u in block], num_items)
        hits[start:start + len(block)] = (
            relevant[np.arange(len(block))[:, None], recs] & (recs >= 0))

    # binary relevance: gain (2^y - 1) is 1 for hits, 0 otherwise. The running
    # sums add the terms in rank order, as a per-user loop would.
    discount = np.array([1.0 / math.log2(pos + 2) for pos in range(max_k)])
    hit_counts = np.cumsum(hits, axis=1)
    dcg = np.cumsum(hits * discount, axis=1)
    idcg = np.cumsum(discount)
    sizes = np.array([len(truth[u]) for u in users])
    per_k = {k: (hit_counts[:, k - 1] / k, hit_counts[:, k - 1] / sizes,
                 dcg[:, k - 1] / idcg[np.minimum(sizes, k) - 1]) for k in ks}

    report = _mean_report(per_k, np.ones(len(users), dtype=bool))
    if groups:
        seen = np.array([len(exclude.get(u, ())) for u in users])
        for lo, hi in GROUP_BINS:
            report.groups[f"[{lo},{hi})"] = _mean_report(per_k, (seen >= lo) & (seen < hi))
    return report


def _rows(report: RankingReport):
    """(group label, K, MetricTriple) for all users, then for each group."""
    for label, rep in [("all", report), *report.groups.items()]:
        for k in sorted(rep.metrics):
            yield label, k, rep.metrics[k]


def write_report_csv(report: RankingReport, path: str) -> None:
    """Machine-readable report: columns K, metric, value, group."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "metric", "value", "group"])
        for label, k, t in _rows(report):
            for metric in ("precision", "recall", "ndcg"):
                writer.writerow([k, metric, f"{getattr(t, metric):.10f}", label])


def format_report(report: RankingReport) -> str:
    lines = [f"evaluated users: {report.evaluated_users}",
             f"{'K':>4} {'P@K':>10} {'R@K':>10} {'nDCG@K':>10}  group"]
    lines += [f"{k:>4} {t.precision:>10.4f} {t.recall:>10.4f} {t.ndcg:>10.4f}  {label}"
              for label, k, t in _rows(report)]
    return "\n".join(lines)


def aggregate_fold_reports(reports: list) -> dict:
    """Mean and standard deviation per (K, metric) across fold reports."""
    summary = {}
    for k in reports[0].metrics:
        for metric in ("precision", "recall", "ndcg"):
            values = [getattr(rep.metrics[k], metric) for rep in reports]
            summary[(k, metric)] = (float(np.mean(values)), float(np.std(values)))
    return summary
