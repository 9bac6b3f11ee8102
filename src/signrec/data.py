"""Rating file parsing, interaction-count filtering, and k-fold splitting."""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .rng import substream


# Every rating lies on this closed scale.
RATING_SCALE = (1.0, 5.0)


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number and, if known, the file."""

    def __init__(self, message: str, line_no: int, path: str | None = None):
        super().__init__(f"{path + ': ' if path else ''}line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ParseError):
    """A well-formed line whose rating lies off the rating scale."""


@dataclass(frozen=True)
class RatingRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int = 0


@dataclass
class DatasetDescriptor:
    """Bijective maps from external identifiers to dense indices."""

    num_users: int
    num_items: int
    user_index: dict = field(repr=False)
    item_index: dict = field(repr=False)

    def user(self, user_id: str) -> int:
        return self.user_index[user_id]

    def item(self, item_id: str) -> int:
        return self.item_index[item_id]


@dataclass
class FoldSplit:
    fold_index: int
    train: list
    test: list


_SEPARATORS = {"tsv": "\t", "movielens-dat": "::"}


def _format_rating(rating: float) -> str:
    return str(int(rating)) if float(rating).is_integer() else repr(rating)


def parse_ratings(source, format: str = "tsv") -> list:
    """Parse a rating file into records, one per non-empty line.

    ``source`` may be a path, a text file object, or bytes. Lines starting
    with ``#`` are treated as comments and skipped.
    """
    if format not in _SEPARATORS:
        raise ValueError(f"unknown format {format!r}")
    sep = _SEPARATORS[format]

    path = os.fspath(source) if isinstance(source, (str, os.PathLike)) else None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    elif isinstance(source, bytes):
        lines = source.decode("utf-8").splitlines()
    else:
        lines = source.readlines()

    lo, hi = RATING_SCALE
    records = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 fields separated by {sep!r}, got {len(parts)}",
                             line_no, path)
        user_id, item_id = parts[0], parts[1]
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(f"bad rating field {parts[2]!r}", line_no, path) from None
        try:
            timestamp = int(parts[3]) if len(parts) == 4 else 0
        except ValueError:
            raise ParseError(f"bad timestamp field {parts[3]!r}", line_no, path) from None
        if not (lo <= rating <= hi):
            raise ValidationError(f"rating {rating} outside scale [{lo}, {hi}]", line_no, path)
        records.append(RatingRecord(user_id, item_id, rating, timestamp))
    return records


def filter_min_interactions(records, threshold: int) -> list:
    """Iteratively drop users/items with fewer than ``threshold`` interactions.

    Removal cascades (dropping an item can push a user below the threshold),
    so the loop runs until a fixed point.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if threshold == 0:
        return list(records)
    current = list(records)
    while True:
        user_counts = Counter(r.user_id for r in current)
        item_counts = Counter(r.item_id for r in current)
        kept = [r for r in current
                if user_counts[r.user_id] >= threshold and item_counts[r.item_id] >= threshold]
        if len(kept) == len(current):
            return kept
        current = kept


def build_descriptor(records) -> DatasetDescriptor:
    """Assign dense indices by order of first appearance."""
    user_index, item_index = {}, {}
    for r in records:
        if r.user_id not in user_index:
            user_index[r.user_id] = len(user_index)
        if r.item_id not in item_index:
            item_index[r.item_id] = len(item_index)
    return DatasetDescriptor(len(user_index), len(item_index), user_index, item_index)


def kfold_split(records, k: int, seed: int) -> list:
    """Deterministic k-fold partition of the globally shuffled record list."""
    records = list(records)
    if k < 2:
        raise ValueError("k must be >= 2")
    if not records:
        raise ValueError("records must be non-empty")
    if k > len(records):
        raise ValueError(f"k={k} exceeds record count {len(records)}")
    rng = substream(seed, "split")
    order = rng.permutation(len(records))
    chunks = np.array_split(order, k)
    folds = []
    for fold_index, test_idx in enumerate(chunks):
        in_test = np.zeros(len(records), dtype=bool)
        in_test[test_idx] = True
        train = list(map(records.__getitem__, np.flatnonzero(~in_test).tolist()))
        test = list(map(records.__getitem__, np.flatnonzero(in_test).tolist()))
        folds.append(FoldSplit(fold_index, train, test))
    return folds


def write_fold_manifests(folds, directory, force: bool = False) -> list:
    """Write one TSV manifest per fold holding that fold's test records.

    Columns: ``fold  user  item  rating  timestamp``. The train set of fold i
    is the union of every other fold's manifest.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for fold in folds:
        path = os.path.join(directory, f"fold{fold.fold_index}.tsv")
        if os.path.exists(path) and not force:
            raise FileExistsError(f"{path} exists; pass force to overwrite")
        with open(path, "w", encoding="utf-8") as fh:
            for r in fold.test:
                fh.write("\t".join([str(fold.fold_index), r.user_id, r.item_id,
                                    _format_rating(r.rating), str(r.timestamp)]) + "\n")
        paths.append(path)
    return paths


def read_fold_manifests(directory, k: int) -> list:
    """Reconstruct FoldSplits from manifests written by write_fold_manifests."""
    tests = []
    for fold_index in range(k):
        path = os.path.join(directory, f"fold{fold_index}.tsv")
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 5:
                    raise ParseError("expected 5 manifest fields", line_no, path)
                try:
                    rating, timestamp = float(parts[3]), int(parts[4])
                except ValueError as exc:
                    raise ParseError(f"bad rating or timestamp ({exc})", line_no, path) from None
                records.append(RatingRecord(parts[1], parts[2], rating, timestamp))
        tests.append(records)
    folds = []
    for fold_index in range(k):
        train = [r for j in range(k) if j != fold_index for r in tests[j]]
        folds.append(FoldSplit(fold_index, train, tests[fold_index]))
    return folds
