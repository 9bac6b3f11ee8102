"""Top-K recommendation lists and ranking metrics (P@K, R@K, nDCG@K).

Ground truth per user is the array of test items rated 4 or higher. Users
with empty ground truth are excluded; metric means run over the evaluated
users. Items the user touched in training, with either sign, are excluded
from ranking. Both are int64 arrays of distinct items, one slice of a
grouped array per user. Users are ranked in blocks; each block's scores
fill one buffer that ``evaluate`` owns, with the training items set to
-inf. The K-th largest of a row's chunk maxima bounds its K-th largest
score from below, and only the items scoring at least that bound are
sorted, by score and then item index; the lists equal those of a full
stable sort per row. Embeddings with a NaN or infinite value are rejected.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

GROUP_BINS = ((0, 20), (20, 50), (50, math.inf))
GROUND_TRUTH_MIN_RATING = 4.0
BLOCK_USERS = 128  # users per score matrix: 128 x 3,700 items in float64 is 3.8 MB
CHUNK_ITEMS = 8  # items per chunk of the top-K bound
_EMPTY = np.empty(0, dtype=np.int64)


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


def _pairs(item_arrays) -> tuple:
    """(row, item) index arrays of every item in ``item_arrays[row]``."""
    sizes = [len(a) for a in item_arrays]
    # an empty list would make the concatenation float64
    items = np.concatenate([_EMPTY, *(a for a, n in zip(item_arrays, sizes) if n)])
    return np.repeat(np.arange(len(item_arrays)), sizes), items


def topk_recommend(Z: np.ndarray, num_users: int, users, k: int,
                   exclude: dict, out: np.ndarray = None) -> np.ndarray:
    """Top-k items for each of ``users``, ties broken by the lower item index.

    ``exclude`` maps a user to a 1-D integer array of the distinct items left
    out of its ranking. When ``out`` is given, the scores are written into
    its first len(users) rows: it is an array of ``Z``'s dtype with one
    column per item. Returns an int array of shape (len(users), k); a row
    holds -1 past the user's candidate count, so a user with fewer than k
    candidates gets a short list. The result equals
    ``argsort(-scores, kind="stable")[:, :k]``, but only the items scoring at
    least a lower bound of a row's k-th largest score are sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num_items = Z.shape[0] - num_users
    excluded = [exclude.get(u, _EMPTY) for u in users]
    scores = np.matmul(Z[users], Z[num_users:].T,
                       out=None if out is None else out[:len(users)])
    scores[_pairs(excluded)] = -np.inf
    # Chunk c of a row holds items c, c + m, c + 2m, ...: a column of the
    # (depth, m) view of its first depth * m scores. Each chunk maximum is a
    # distinct item's score, so the k-th largest is at or below the row's k-th
    # largest score, and every item tied with that score reaches it. The
    # candidates are the items of the chunks that reach this bound, and the
    # tail items past the view that do. With fewer than 2k chunks a chunk is
    # one item, and the bound is the k-th score itself.
    depth = CHUNK_ITEMS if num_items // CHUNK_ITEMS >= 2 * k else 1
    m = num_items // depth
    body = scores[:, :depth * m].reshape(len(users), depth, m)
    chunk_max = body.max(axis=1)
    kth = m - min(k, m)
    bound = np.partition(chunk_max, kth, axis=1)[:, kth, None]
    crow, cch = np.divmod(np.flatnonzero(chunk_max >= bound), m)
    at, place = np.divmod(np.flatnonzero(body[crow, :, cch] >= bound[crow]), depth)
    trow, tcol = np.nonzero(scores[:, depth * m:] >= bound)
    # sorted flat positions run row by row with items ascending, as in the
    # full matrix, and the stable lexsort keeps that order among equal scores
    flat = np.sort(np.concatenate([crow[at] * num_items + cch[at] + place * m,
                                   trow * num_items + tcol + depth * m]))
    rows, items = np.divmod(flat, num_items)
    order = np.lexsort((-scores.reshape(-1)[flat], rows))
    rows, items = rows[order], items[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place within its row
    keep = rank < k
    recs = np.full((len(users), k), -1, dtype=np.int64)
    recs[rows[keep], rank[keep]] = items[keep]
    candidates = num_items - np.array([len(a) for a in excluded])
    recs[np.arange(k) >= candidates[:, None]] = -1
    return recs


def _item_arrays(ratings, descriptor) -> dict:
    """{dense user: int64 array of its distinct dense items} over ``ratings``.

    Users come in order of first appearance; items ascend, and each array is
    a view into one grouped array.
    """
    users, items, missing = ratings.dense(descriptor)
    if missing is not None:
        raise missing
    # sorting the (user, item) keys groups the users in ascending order, each
    # with its distinct items ascending
    width = int(items.max(initial=0)) + 1
    keys = np.sort(users * width + items)
    user_of, grouped = np.divmod(keys[np.diff(keys, prepend=-1) != 0], width)
    starts = np.flatnonzero(np.diff(user_of, prepend=-1))
    first = np.full(int(users.max(initial=0)) + 1, len(users))  # each user's first row
    np.minimum.at(first, users, np.arange(len(users)))
    present = user_of[starts]
    appearance = np.argsort(first[present]).tolist()
    bounds = [*starts.tolist(), len(grouped)]
    arrays = list(map(grouped.__getitem__, map(slice, bounds[:-1], bounds[1:])))
    return dict(zip(present[appearance].tolist(), map(arrays.__getitem__, appearance)))


def ground_truth(test, descriptor) -> dict:
    """Per-user array of test items rated at or above the relevance cutoff."""
    return _item_arrays(test.take(np.flatnonzero(test.rating >= GROUND_TRUTH_MIN_RATING)),
                      descriptor)


def train_interactions(train, descriptor) -> dict:
    """Per-user array of training items (both signs), used for exclusion."""
    return _item_arrays(train, descriptor)


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

    ``truth`` and ``exclude`` map dense user index to 1-D integer arrays (or
    lists) of distinct dense items, as ``ground_truth`` and
    ``train_interactions`` return them. When ``groups`` is set, users are
    additionally binned by training-interaction count and per-bin
    sub-reports attached.
    """
    ks = sorted(ks)
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    bad_rows = len(Z) - int(np.isfinite(Z).all(axis=1).sum())
    if bad_rows:
        raise ValueError(f"embeddings hold NaN or infinite values in {bad_rows} row(s)")
    users = [u for u, items in truth.items() if len(items)]
    if not users:
        raise ValueError("no evaluable users (all ground-truth sets empty)")
    num_items, max_k = Z.shape[0] - num_users, ks[-1]
    hits = np.empty((len(users), max_k), dtype=bool)
    scores = np.empty((min(len(users), BLOCK_USERS), num_items), dtype=Z.dtype)
    for start in range(0, len(users), BLOCK_USERS):
        block = users[start:start + BLOCK_USERS]
        recs = topk_recommend(Z, num_users, block, max_k, exclude, scores)
        relevant = np.zeros((len(block), num_items), dtype=bool)
        relevant[_pairs([truth[u] for u in block])] = True
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
