"""Workload inputs generated from a seed, independent of the test helpers.

The generator follows the latent-factor model of the repository's test
fixtures: users and items live in a k-dimensional taste space, item
popularity is heavy-tailed (Zipf), user activity is lognormal, and the star
value is a noisy quantization of the latent affinity. It is a copy on
purpose, so that an edit to the tests cannot change a benchmark workload.
One change: user activity is drawn stratified, so the rating count is the
same for every seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass
class SyntheticRatings:
    tsv: bytes            # user<TAB>item<TAB>rating<TAB>timestamp lines
    num_ratings: int
    num_users_rated: int
    num_items_rated: int
    user_factors: np.ndarray
    item_factors: np.ndarray
    item_log_popularity: np.ndarray


def latent_factor_ratings(num_users: int, num_items: int, seed: int,
                          k: int = 8) -> SyntheticRatings:
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal((num_users, k)) / np.sqrt(k)
    zv = rng.standard_normal((num_items, k)) / np.sqrt(k)
    pop = rng.zipf(1.6, num_items).astype(float)
    logpop = np.log(np.minimum(pop, 1000))
    # Stratified lognormal activity: every seed gives the same multiset of
    # per-user rating counts, in another order, so the number of ratings (and
    # with it the work of a job) does not change with the seed.
    strata = ndtri((np.arange(num_users) + 0.5) / num_users)
    activity = rng.permutation(np.clip(np.exp(3.2 + 0.8 * strata), 8, 150).astype(int))
    users, items, stars = [], [], []
    for u in range(num_users):
        s = zv @ zu[u]      # one row at a time: no users x items matrix
        p = np.exp(1.5 * s + 0.8 * logpop)
        p /= p.sum()
        n = min(int(activity[u]), num_items)
        rated = rng.choice(num_items, size=n, replace=False, p=p)
        noisy = s[rated] + 0.3 * rng.standard_normal(n)
        qs = np.quantile(noisy, [0.15, 0.35, 0.55, 0.8])
        users.append(np.full(n, u))
        items.append(rated)
        stars.append(1 + np.searchsorted(qs, noisy))
    users, items, stars = (np.concatenate(a) for a in (users, items, stars))
    timestamps = rng.integers(0, 10_000, size=len(users))
    order = rng.permutation(len(users))
    lines = [f"u{u}\ti{v}\t{r}\t{t}\n" for u, v, r, t in
             zip(users[order].tolist(), items[order].tolist(),
                 stars[order].tolist(), timestamps[order].tolist())]
    return SyntheticRatings("".join(lines).encode("ascii"), len(lines),
                            len(np.unique(users)), len(np.unique(items)), zu, zv, logpop)


def latent_embeddings(data: SyntheticRatings, descriptor, dim: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Embeddings in the program's node order that rank by the latent model.

    A user-item score is the taste affinity plus a popularity term plus
    small noise, so top-K lists are informative without any training. Rows
    follow the descriptor's dense indices (users first, then items).
    """
    k = data.user_factors.shape[1]
    noise_dim = dim - k - 1
    Z = np.zeros((descriptor.num_users + descriptor.num_items, dim))
    for user_id, row in descriptor.user_index.items():
        u = int(user_id[1:])
        Z[row, :k] = data.user_factors[u]
        Z[row, k] = 1.0
    for item_id, col in descriptor.item_index.items():
        v = int(item_id[1:])
        Z[descriptor.num_users + col, :k] = data.item_factors[v]
        Z[descriptor.num_users + col, k] = 0.4 * data.item_log_popularity[v]
    Z[:, k + 1:] = 0.1 * rng.standard_normal((Z.shape[0], noise_dim))
    return Z
