"""Rating file parsing, interaction-count filtering, k-fold splitting, and the
manifest directory a split writes: fold manifests and a node index.

Ratings travel as columns (:class:`Ratings`) from the parse to evaluation:
integer codes into the user- and item-id lists, the rating and the
timestamp. Every function that takes ratings takes :class:`Ratings`;
:class:`RatingRecord` is one row of them.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

import numpy as np

from .rng import substream


# Every rating lies on this closed scale.
RATING_SCALE = (1.0, 5.0)


class ParseError(ValueError):
    """Malformed input line; carries the file and the 1-based line number."""

    def __init__(self, message: str, line_no: int, path: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ParseError):
    """A well-formed line whose rating lies off the rating scale."""


class DuplicateEdgeError(ValueError):
    """Two ratings of the same (user, item) pair."""


@contextlib.contextmanager
def holding(path: str, what: str):
    """Report a file that does not parse as ``what`` as a data error naming it."""
    try:
        yield
    except ValueError as exc:  # bad JSON or UTF-8; an empty, truncated or foreign .npy file
        raise ValueError(f"{path}: not {what} ({exc})") from None


@dataclass(frozen=True)
class RatingRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int = 0


def _encode(values: list, index: dict) -> np.ndarray:
    """Codes of ``values`` in ``index``, which gains new values in first-appearance order."""
    new = [value for value in dict.fromkeys(values) if value not in index]
    index.update(zip(new, range(len(index), len(index) + len(new))))
    return np.fromiter(map(index.__getitem__, values), np.int64, count=len(values))


def _dense(codes: np.ndarray, ids: list, index: dict) -> np.ndarray:
    """``index[ids[code]]`` for each code, -1 where ``index`` lacks the id.

    Only the codes present are looked up.
    """
    present = np.flatnonzero(np.bincount(codes, minlength=len(ids)))
    lookup = np.full(len(ids), -1, dtype=np.int64)
    lookup[present] = [index.get(ids[c], -1) for c in present.tolist()]
    return lookup[codes]


@dataclass(eq=False)
class Ratings:
    """Ratings as columns, one row per rating.

    ``users`` and ``items`` are int64 codes into ``user_ids`` and
    ``item_ids``; each list holds its ids in order of first appearance in
    the rows the lists were built from. Rows made by ``take`` share the
    lists. Iterating yields one :class:`RatingRecord` per row.
    """

    user_ids: list
    item_ids: list
    users: np.ndarray       # int64
    items: np.ndarray       # int64
    rating: np.ndarray      # float64
    timestamp: np.ndarray   # int64

    @classmethod
    def from_records(cls, records) -> "Ratings":
        records = list(records)
        user_ids, item_ids = {}, {}
        users = _encode(list(map(attrgetter("user_id"), records)), user_ids)
        items = _encode(list(map(attrgetter("item_id"), records)), item_ids)
        return cls(list(user_ids), list(item_ids), users, items,
                   np.fromiter(map(attrgetter("rating"), records), np.float64, len(records)),
                   np.fromiter(map(attrgetter("timestamp"), records), np.int64, len(records)))

    def __len__(self) -> int:
        return len(self.rating)

    def __iter__(self):
        return map(RatingRecord, map(self.user_ids.__getitem__, self.users.tolist()),
                   map(self.item_ids.__getitem__, self.items.tolist()),
                   self.rating.tolist(), self.timestamp.tolist())

    def take(self, rows) -> "Ratings":
        return Ratings(self.user_ids, self.item_ids, self.users[rows], self.items[rows],
                       self.rating[rows], self.timestamp[rows])

    def dense(self, descriptor) -> tuple:
        """Dense (users, items) indices under ``descriptor``, and a KeyError or None.

        If ``descriptor`` lacks an id, the indices cover only the rows before
        the first row holding one, and the KeyError names it (the user's id
        before the item's).
        """
        users = _dense(self.users, self.user_ids, descriptor.user_index)
        items = _dense(self.items, self.item_ids, descriptor.item_index)
        missing = np.flatnonzero((users < 0) | (items < 0))
        if not len(missing):
            return users, items, None
        row = missing[0]
        name = (self.user_ids[self.users[row]] if users[row] < 0
                else self.item_ids[self.items[row]])
        return users[:row], items[:row], KeyError(name)


@dataclass
class DatasetDescriptor:
    """Bijective maps from external identifiers to dense indices."""

    num_users: int
    num_items: int
    user_index: dict = field(repr=False)
    item_index: dict = field(repr=False)


@dataclass
class FoldSplit:
    fold_index: int
    train: Ratings
    test: Ratings


_SEPARATORS = {"tsv": "\t", "movielens-dat": "::"}
FORMATS = tuple(_SEPARATORS)

# The node index a split writes beside its fold manifests.
NODE_INDEX = "nodes.json"


def _format_rating(rating: float) -> str:
    return str(int(rating)) if float(rating).is_integer() else repr(rating)


def _timestamp(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"timestamp {text!r} outside the int64 range")
    return value


def _lines(text: str) -> list:
    """The lines of ``text``, split at ``\\n``, ``\\r\\n`` and ``\\r``, without their ends."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _raise_first_bad_line(lines: list, sep: str, path: str) -> None:
    """Raise the error of the first line that ``parse_ratings`` rejects, if any."""
    lo, hi = RATING_SCALE
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 fields separated by {sep!r}, got {len(parts)}",
                             line_no, path)
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(f"bad rating field {parts[2]!r}", line_no, path) from None
        try:
            if len(parts) == 4:
                _timestamp(parts[3])
        except ValueError:
            raise ParseError(f"bad timestamp field {parts[3]!r}", line_no, path) from None
        if not (lo <= rating <= hi):
            raise ValidationError(f"rating {rating} outside scale [{lo}, {hi}]", line_no, path)


def parse_ratings(path, format: str = "tsv") -> Ratings:
    """Parse the rating file at ``path`` into columns, one row per rating line.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Blank lines and lines starting
    with ``#`` are skipped, and still count in the line numbers of errors.
    """
    if format not in _SEPARATORS:
        raise ValueError(f"unknown format {format!r}")
    sep = _SEPARATORS[format]
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8", newline="") as fh, holding(path, "UTF-8 text"):
        text = fh.read()
    lines = _lines(text)
    n = len(lines)
    skip = np.fromiter(map(str.isspace, lines), bool, n)
    skip |= np.fromiter(map(len, lines), np.int64, n) == 0
    if "#" in text:
        skip |= np.fromiter((line.lstrip()[:1] == "#" for line in lines), bool, n)
    kept = np.flatnonzero(~skip)
    widths = np.fromiter(map(str.count, lines, repeat(sep)), np.int64, n)[kept] + 1
    lo, hi = RATING_SCALE
    try:
        if not np.isin(widths, (3, 4)).all():
            raise ValueError("field count")
        width = int(widths.max(initial=3))
        rows = map(lines.__getitem__, kept.tolist())
        if (widths < width).any():  # one split at 4 fields: a missing timestamp is 0
            rows = (line + sep + "0" if w == 3 else line for line, w in zip(rows, widths.tolist()))
        flat = "\n".join(rows).replace(sep, "\n").split("\n") if len(kept) else []
        users, items, rating, *timestamp = (flat[f::width] for f in range(width))
        rating = np.fromiter(map(float, rating), np.float64, len(kept))
        timestamp = (np.fromiter(map(int, timestamp[0]), np.int64, len(kept)) if timestamp
                     else np.zeros(len(kept), np.int64))
        if not ((rating >= lo) & (rating <= hi)).all():
            raise ValueError("rating scale")
    except (ValueError, OverflowError):
        _raise_first_bad_line(lines, sep, path)
        raise
    user_ids, item_ids = {}, {}
    users, items = _encode(users, user_ids), _encode(items, item_ids)
    return Ratings(list(user_ids), list(item_ids), users, items, rating, timestamp)


def filter_min_interactions(ratings: Ratings, threshold: int) -> Ratings:
    """Iteratively drop users/items with fewer than ``threshold`` interactions.

    Removal cascades (dropping an item can push a user below the threshold),
    so the loop runs until a fixed point.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    keep = np.ones(len(ratings), dtype=bool)
    while threshold:
        user_counts = np.bincount(ratings.users[keep], minlength=len(ratings.user_ids))
        item_counts = np.bincount(ratings.items[keep], minlength=len(ratings.item_ids))
        kept = keep & (user_counts[ratings.users] >= threshold) \
            & (item_counts[ratings.items] >= threshold)
        if kept.sum() == keep.sum():
            break
        keep = kept
    return ratings.take(np.flatnonzero(keep))


def reject_repeated_pairs(ratings: Ratings, users: np.ndarray, items: np.ndarray) -> None:
    """Raise :class:`DuplicateEdgeError` if two rows hold the same (user, item) pair.

    ``users`` and ``items`` index the ids of the first ``len(users)`` rows of
    ``ratings``, one index per id. The error names the pair of the first row
    whose pair an earlier row holds.
    """
    keys = users * (int(items.max(initial=-1)) + 1) + items
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return
    order = np.argsort(keys, kind="stable")
    row = order[1:][keys[order[1:]] == keys[order[:-1]]].min()
    raise DuplicateEdgeError(f"repeated interaction ({ratings.user_ids[ratings.users[row]]}, "
                             f"{ratings.item_ids[ratings.items[row]]})")


def _first_seen(codes: np.ndarray, ids: list) -> dict:
    """{id: dense index}, the ids that ``codes`` use in order of first appearance."""
    present, first = np.unique(codes, return_index=True)
    ordered = present[np.argsort(first)].tolist()
    return dict(zip(map(ids.__getitem__, ordered), range(len(ordered))))


def build_descriptor(ratings: Ratings) -> DatasetDescriptor:
    """Assign dense indices by order of first appearance."""
    user_index = _first_seen(ratings.users, ratings.user_ids)
    item_index = _first_seen(ratings.items, ratings.item_ids)
    return DatasetDescriptor(len(user_index), len(item_index), user_index, item_index)


def kfold_split(ratings: Ratings, k: int, seed: int) -> list:
    """Deterministic k-fold partition of the globally shuffled ratings."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not len(ratings):
        raise ValueError("ratings must be non-empty")
    if k > len(ratings):
        raise ValueError(f"k={k} exceeds rating count {len(ratings)}")
    rng = substream(seed, "split")
    order = rng.permutation(len(ratings))
    folds = []
    for fold_index, test_idx in enumerate(np.array_split(order, k)):
        in_test = np.zeros(len(ratings), dtype=bool)
        in_test[test_idx] = True
        folds.append(FoldSplit(fold_index, ratings.take(np.flatnonzero(~in_test)),
                               ratings.take(np.flatnonzero(in_test))))
    return folds


def write_fold_manifests(folds, directory, force: bool = False) -> list:
    """Write one TSV manifest per fold holding that fold's test ratings.

    Columns: ``fold  user  item  rating  timestamp``. The train set of fold i
    is the union of every other fold's manifest. Without ``force``, an
    existing manifest or node index (:func:`write_node_index`) refuses the
    split before any file is written.
    """
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, f"fold{fold.fold_index}.tsv") for fold in folds]
    existing = [path for path in paths + [os.path.join(directory, NODE_INDEX)]
                if os.path.exists(path)]
    if existing and not force:
        raise FileExistsError(f"{existing[0]} exists; pass force to overwrite")
    for fold, path in zip(folds, paths):
        test = fold.test
        line = f"{fold.fold_index}\t{{}}\t{{}}\t{{}}\t{{}}\n".format
        ratings = test.rating.tolist()
        formatted = {rating: _format_rating(rating) for rating in set(ratings)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(map(line, map(test.user_ids.__getitem__, test.users.tolist()),
                              map(test.item_ids.__getitem__, test.items.tolist()),
                              map(formatted.__getitem__, ratings),
                              test.timestamp.tolist()))
    return paths


def _raise_first_bad_manifest_line(lines: list, path: str, fold_index: int) -> None:
    for line_no, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError("expected 5 manifest fields", line_no, path)
        try:
            float(parts[3]), _timestamp(parts[4])
        except ValueError as exc:
            raise ParseError(f"bad rating or timestamp ({exc})", line_no, path) from None
        if parts[0] != str(fold_index):
            raise ParseError(f"fold column {parts[0]!r} in the manifest of fold {fold_index}",
                             line_no, path)


def read_fold_manifests(directory, k: int) -> list:
    """Reconstruct FoldSplits from manifests written by write_fold_manifests.

    All k manifests are read into one set of columns; fold i's test rows are
    manifest i's lines and its train rows the other manifests' lines, in
    manifest order. Every line of manifest i must name fold i, so a manifest
    copied or renamed into another fold's file is a ``ParseError``.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"fold manifests missing at {directory}; run split first")
    user_ids, item_ids = {}, {}
    users, items, rating, timestamp, sizes = [], [], [], [], []
    for fold_index in range(k):
        path = os.path.join(directory, f"fold{fold_index}.tsv")
        with open(path, "r", encoding="utf-8") as fh, holding(path, "UTF-8 text"):
            lines = _lines(fh.read())
        n = len(lines)
        try:
            if (np.fromiter(map(str.count, lines, repeat("\t")), np.int64, n) != 4).any():
                raise ValueError("field count")
            columns = "\t".join(lines).split("\t") if n else []
            rating.append(np.fromiter(map(float, columns[3::5]), np.float64, n))
            timestamp.append(np.fromiter(map(int, columns[4::5]), np.int64, n))
            if columns[0::5].count(str(fold_index)) != n:
                raise ValueError("fold column")
        except (ValueError, OverflowError):
            _raise_first_bad_manifest_line(lines, path, fold_index)
            raise
        users.append(_encode(columns[1::5], user_ids))
        items.append(_encode(columns[2::5], item_ids))
        sizes.append(n)
    ratings = Ratings(list(user_ids), list(item_ids),
                      *map(np.concatenate, (users, items, rating, timestamp)))
    manifest = np.repeat(np.arange(k), sizes)
    return [FoldSplit(i, ratings.take(np.flatnonzero(manifest != i)),
                      ratings.take(np.flatnonzero(manifest == i))) for i in range(k)]


def write_node_index(directory, descriptor: DatasetDescriptor, min_interactions: int) -> None:
    """Write ``descriptor`` to ``nodes.json`` in ``directory``.

    The JSON object holds the user ids and the item ids, each in embedding-row
    order, and the ``min_interactions`` filter that the split applied before
    indexing them.
    """
    path = os.path.join(directory, NODE_INDEX)
    # json.dumps runs the C encoder; json.dump into a file runs the Python one
    text = json.dumps({"min_interactions": min_interactions,
                       "users": sorted(descriptor.user_index, key=descriptor.user_index.get),
                       "items": sorted(descriptor.item_index, key=descriptor.item_index.get)})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_node_index(directory, min_interactions: int) -> DatasetDescriptor:
    """The descriptor that :func:`write_node_index` wrote to ``directory``.

    A missing or damaged file, and an index written under another
    ``min_interactions`` than the one given, raise errors that name it.
    """
    path = os.path.join(directory, NODE_INDEX)
    try:
        with open(path, "r", encoding="utf-8") as fh, holding(path, "a node index"):
            index = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} is missing; run signrec split --force to write "
                                "the manifests and their node index") from None
    if not (isinstance(index, dict) and sorted(index) == ["items", "min_interactions", "users"]
            and type(index["min_interactions"]) is int
            and all(isinstance(ids, list) and all(type(i) is str for i in ids)
                    for ids in (index["users"], index["items"]))):
        raise ValueError(f"{path}: not a node index (an object of min_interactions and "
                         "lists of user and item id strings)")
    user_index, item_index = (dict(zip(index[key], range(len(index[key]))))
                              for key in ("users", "items"))
    if len(user_index) < len(index["users"]) or len(item_index) < len(index["items"]):
        raise ValueError(f"{path}: not a node index (an id is repeated)")
    if index["min_interactions"] != min_interactions:
        raise ValueError(f"{directory} was split with --min-interactions "
                         f"{index['min_interactions']}, not --min-interactions "
                         f"{min_interactions}; pass the split's value or split again")
    return DatasetDescriptor(len(user_index), len(item_index), user_index, item_index)
