"""Rating file parsing, interaction-count filtering, k-fold splitting, and the
split directory, which ``write_fold_manifests`` writes and ``read_fold_manifests`` checks.

Ratings travel as columns (:class:`Ratings`) from the parse to evaluation:
integer codes into the user- and item-id lists, the rating and the
timestamp. Every function that takes ratings takes :class:`Ratings`;
:class:`RatingRecord` is one row of them.

``parse_ratings`` and ``read_fold_manifests`` decode their files with one
field scanner. It reads the file as bytes, checks that it is UTF-8 and
turns ``\r\n`` and ``\r`` into ``\n``; numpy then finds the line ends and
separators and each line's field count in one pass. A field of 1 to 18
ASCII digits is read in place; any other number field goes through
``float``, ``int`` or ``_timestamp`` on its own text, so it keeps the value
and acceptance it would have on its own. Ids are told apart by their bytes
and length, and each distinct id is decoded once. Each input rule marks the
lines it refuses, and ``_refuse`` names the first such line from its field
bytes: no file is read twice.
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


# The ASCII bytes for which str.isspace holds, less the line ends "\n" and "\r".
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[9, 11, 12, 28, 29, 30, 31, 32]] = True
_DIGITS = 18  # a field of 1 to this many ASCII digits is read in place as an int64
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)


def _read(path: str) -> tuple:
    """The UTF-8 text file at ``path``: its bytes, a uint8 array of them, its line ends.

    ``\\r\\n`` and ``\\r`` become ``\\n`` and a last line without an end gets
    one, so line i is ``data[ends[i - 1] + 1:ends[i]]``. The array holds 7
    NUL bytes past the text, so 8 bytes can be read at any offset of it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    with holding(path, "UTF-8 text"):
        data.decode("utf-8")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data[-1:] not in (b"", b"\n"):
        data += b"\n"
    buf = np.frombuffer(data + bytes(7), np.uint8)
    return data, buf, np.flatnonzero(buf == ord("\n"))


def _skipped(data: bytes, buf: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each line is blank or a comment, as ``str.isspace`` and ``str.lstrip`` say."""
    starts = np.concatenate(([0], ends + 1))[:-1]
    first = starts.copy()  # each line's first byte that is not blank, else its end
    lead = np.flatnonzero(_BLANK[buf[starts]])
    if len(lead):
        solid = np.flatnonzero(~_BLANK[buf])
        first[lead] = solid[np.searchsorted(solid, starts[lead])]
    skip = np.isin(buf[first], (ord("\n"), ord("#")))
    # a non-ASCII character there may be Unicode white space
    for line in np.flatnonzero(buf[first] >= 128).tolist():
        text = data[starts[line]:ends[line]].decode("utf-8")
        skip[line] = text.isspace() or text.lstrip()[:1] == "#"
    return skip


def _fields(buf: np.ndarray, ends: np.ndarray, sep: bytes, rows, n: int) -> tuple:
    """The field count of each line in ``rows`` and the (start, end) offsets of its first n fields.

    A line splits at ``sep`` as ``str.split(sep)`` splits it: in a run of
    colons, ``::`` pairs the colons from the run's start. Field f of a line
    of f or fewer fields is empty, at the line's end.
    """
    cuts = np.flatnonzero(buf == sep[0])
    if len(sep) == 2:  # "::"
        cuts = cuts[:-1][np.diff(cuts) == 1]
        run_start = np.maximum.accumulate(np.where(np.diff(cuts, prepend=-2) != 1, cuts, 0))
        cuts = cuts[(cuts - run_start) % 2 == 0]
    upto = np.searchsorted(cuts, ends)  # the cuts before each line's end
    per_line = np.diff(upto, prepend=0)
    first, width = (upto - per_line)[rows], per_line[rows] + 1
    cuts = cuts if len(cuts) else np.zeros(1, dtype=np.int64)  # take needs a cut to clip to
    lo, end, fields = np.concatenate(([0], ends + 1))[:-1][rows], ends[rows], []
    for f in range(n):
        hi = np.where(width > f + 1, cuts.take(first + f, mode="clip"), end)
        fields.append((lo, hi))
        lo = np.where(width > f + 1, hi + len(sep), end)
    return width, fields


def _numbers(data: bytes, buf: np.ndarray, field: tuple, convert, dtype) -> tuple:
    """``convert`` of the text of each field, as ``dtype``, and which fields it refused.

    A field of 1 to ``_DIGITS`` ASCII digits is read in place, which gives
    the value ``int`` and ``float`` give; ``convert`` reads every other one,
    and the field is refused where it raises ``ValueError``.
    """
    lo, hi = field
    size = hi - lo
    plain = (size > 0) & (size <= _DIGITS)
    values = np.zeros(len(lo), dtype=np.int64)
    for back in range(min(int(size.max(initial=0)), _DIGITS), 0, -1):
        at = hi - back  # the digits are right-aligned: a field's leading columns are 0
        inside = at >= lo
        digit = buf[np.maximum(at, 0)] - ord("0")  # wraps below "0"
        plain &= (digit <= 9) | ~inside
        values = values * 10 + digit * inside
    values, refused = values.astype(dtype), np.zeros(len(lo), dtype=bool)
    other, read = np.flatnonzero(~plain), []
    for row, a, b in zip(other.tolist(), lo[other].tolist(), hi[other].tolist()):
        try:
            read.append(convert(data[a:b].decode("utf-8")))
        except ValueError:
            read.append(0)
            refused[row] = True
    values[other] = read
    return values, refused


def _ids(data: bytes, buf: np.ndarray, field: tuple) -> tuple:
    """Codes of the fields' texts in order of first appearance, and the texts in that order.

    Fields are told apart by their bytes and length, and each text is
    decoded once.
    """
    lo, hi = field
    size = hi - lo
    # up to 7 bytes and the length in one key; longer fields are numbered
    # per length, above every such key
    words = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))
    keys = words[lo] & _LOW_BYTES[np.minimum(size, 7)] | size.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(size > 7)
    base = 1 << 63
    for length in np.unique(size[long]).tolist():
        rows = long[size[long] == length]
        text = buf[lo[rows, None] + np.arange(length)]
        _, local = np.unique(text.view(f"V{length}").ravel(), return_inverse=True)
        keys[rows] = local.astype(np.uint64) + np.uint64(base)
        base += int(local.max()) + 1
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(lo))
    np.minimum.at(first, inverse, np.arange(len(lo)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # one decode of the distinct fields, each followed by "\n", which no field holds
    start, span = lo[first[order]], size[first[order]] + 1
    at = np.cumsum(span) - span
    joined = buf[np.arange(span.sum()) + np.repeat(start - at, span)]
    joined[at + span - 1] = ord("\n")
    return rank[inverse], joined.tobytes().decode("utf-8").split("\n")[:-1]


def _text(data: bytes, field: tuple, row: int) -> str:
    return data[field[0][row]:field[1][row]].decode("utf-8")


def _error(convert, text: str):
    """The ``ValueError`` that ``convert(text)`` raises, else None."""
    try:
        convert(text)
    except ValueError as exc:
        return exc


def _refuse(path: str, rows: np.ndarray, rules: list) -> None:
    """Raise the error of the first line that a rule refuses, if any.

    ``rules`` holds (refused, error class, message) triples in the order
    the rules apply to a line: ``refused`` marks each line of ``rows`` that
    the rule refuses, and ``message(i)`` is the error's text for line
    ``rows[i]``, which the first rule refusing the line raises.
    """
    refused = np.flatnonzero(np.logical_or.reduce([rule[0] for rule in rules]))
    if len(refused):
        at = refused[0]
        _, error, message = next(rule for rule in rules if rule[0][at])
        raise error(message(at), int(rows[at]) + 1, path)


def parse_ratings(path, format: str = "tsv") -> Ratings:
    """Parse the rating file at ``path`` into columns, one row per rating line.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Blank lines and lines starting
    with ``#`` are skipped, and still count in the line numbers of errors.
    A user or item id that holds a tab is refused: a fold manifest could not
    hold it.
    """
    if format not in _SEPARATORS:
        raise ValueError(f"unknown format {format!r}")
    sep = _SEPARATORS[format]
    path = os.fspath(path)
    data, buf, ends = _read(path)
    rows = np.flatnonzero(~_skipped(data, buf, ends))
    width, (user, item, score, stamp) = _fields(buf, ends, sep.encode(), rows, 4)
    rating, bad_rating = _numbers(data, buf, score, float, np.float64)
    timestamp = np.zeros(len(rows), dtype=np.int64)  # 0 where a line has no timestamp
    bad_stamp = np.zeros(len(rows), dtype=bool)
    four = np.flatnonzero(width == 4)
    timestamp[four], bad_stamp[four] = _numbers(data, buf, (stamp[0][four], stamp[1][four]),
                                                _timestamp, np.int64)
    (users, user_ids), (items, item_ids) = _ids(data, buf, user), _ids(data, buf, item)
    lo, hi = RATING_SCALE
    _refuse(path, rows, [
        ((width < 3) | (width > 4), ParseError,
         lambda i: f"expected 3 or 4 fields separated by {sep!r}, got {width[i]}"),
        (np.array(["\t" in name for name in user_ids], dtype=bool)[users], ParseError,
         lambda i: f"user id {_text(data, user, i)!r} holds a tab, which a fold manifest "
                   "cannot hold"),
        (np.array(["\t" in name for name in item_ids], dtype=bool)[items], ParseError,
         lambda i: f"item id {_text(data, item, i)!r} holds a tab, which a fold manifest "
                   "cannot hold"),
        (bad_rating, ParseError, lambda i: f"bad rating field {_text(data, score, i)!r}"),
        (bad_stamp, ParseError, lambda i: f"bad timestamp field {_text(data, stamp, i)!r}"),
        (~((rating >= lo) & (rating <= hi)), ValidationError,
         lambda i: f"rating {float(rating[i])} outside scale [{lo}, {hi}]")])
    return Ratings(user_ids, item_ids, users, items, rating, timestamp)


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


def write_fold_manifests(folds, directory, descriptor: DatasetDescriptor,
                         min_interactions: int, force: bool = False) -> list:
    """Write a split to ``directory``: one TSV manifest per fold, then the node index.

    Manifest i holds fold i's test ratings in columns ``fold  user  item
    rating  timestamp``; fold i's train set is the other manifests' lines.
    ``nodes.json`` is a JSON object of ``descriptor``'s user and item ids,
    each in embedding-row order, and the ``min_interactions`` that the split
    applied. Without ``force``, an existing manifest or node index refuses
    the split before any file is written.
    """
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, f"fold{fold.fold_index}.tsv") for fold in folds]
    index_path = os.path.join(directory, NODE_INDEX)
    existing = [path for path in paths + [index_path] if os.path.exists(path)]
    if existing and not force:
        raise FileExistsError(f"{existing[0]} exists; pass force to overwrite")
    for fold, path in zip(folds, paths):
        test = fold.test
        ratings = test.rating.tolist()
        formatted = {rating: _format_rating(rating) for rating in set(ratings)}
        columns = (repeat(str(fold.fold_index)),
                   map(test.user_ids.__getitem__, test.users.tolist()),
                   map(test.item_ids.__getitem__, test.items.tolist()),
                   map(formatted.__getitem__, ratings), map(str, test.timestamp.tolist()))
        with open(path, "w", encoding="utf-8") as fh:
            if len(test):
                fh.write("\n".join(map("\t".join, zip(*columns))) + "\n")
    # json.dumps runs the C encoder; json.dump into a file runs the Python one
    text = json.dumps({"min_interactions": min_interactions,
                       "users": sorted(descriptor.user_index, key=descriptor.user_index.get),
                       "items": sorted(descriptor.item_index, key=descriptor.item_index.get)})
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return paths


def read_fold_manifests(directory, k: int, min_interactions: int) -> tuple:
    """The folds and the descriptor of the split that write_fold_manifests wrote.

    ``nodes.json`` is read first. The k manifests then decode to one set of
    columns whose codes are node-index rows; fold i's test rows are manifest
    i's lines and its train rows the other manifests' lines, in manifest
    order. The first line of manifest i that is malformed, names another fold
    or names an id the index lacks (the user's first) is a ``ParseError``,
    and one whose rating lies off the scale a :class:`ValidationError`.
    Last, a (user, item) pair on two lines is a :class:`DuplicateEdgeError`.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"fold manifests missing at {directory}; run split first")
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
    descriptor = DatasetDescriptor(len(user_index), len(item_index), user_index, item_index)
    columns, sizes = [], []
    lo, hi = RATING_SCALE
    for fold_index in range(k):
        path = os.path.join(directory, f"fold{fold_index}.tsv")
        data, buf, ends = _read(path)
        rows = np.arange(len(ends))
        width, (fold, user, item, score, stamp) = _fields(buf, ends, b"\t", rows, 5)
        rating, bad_rating = _numbers(data, buf, score, float, np.float64)
        timestamp, bad_stamp = _numbers(data, buf, stamp, _timestamp, np.int64)
        tag = str(fold_index).encode()
        same = fold[1] - fold[0] == len(tag)
        for at, byte in enumerate(tag):
            same &= buf[np.minimum(fold[0] + at, len(buf) - 1)] == byte
        users, items = (np.fromiter(map(lookup.get, texts, repeat(-1)), np.int64,
                                    len(texts))[codes]
                        for (codes, texts), lookup in ((_ids(data, buf, user), user_index),
                                                       (_ids(data, buf, item), item_index)))
        _refuse(path, rows, [
            (width != 5, ParseError, lambda i: "expected 5 manifest fields"),
            (bad_rating | bad_stamp, ParseError,
             lambda i: "bad rating or timestamp ({})".format(
                 _error(float, _text(data, score, i))
                 or _error(_timestamp, _text(data, stamp, i)))),
            (~same, ParseError, lambda i: f"fold column {_text(data, fold, i)!r} in the "
                                          f"manifest of fold {fold_index}"),
            (users < 0, ParseError, lambda i: f"user {_text(data, user, i)!r} is not in "
                                              f"{NODE_INDEX}; split it again"),
            (items < 0, ParseError, lambda i: f"item {_text(data, item, i)!r} is not in "
                                              f"{NODE_INDEX}; split it again"),
            (~((rating >= lo) & (rating <= hi)), ValidationError,
             lambda i: f"rating {float(rating[i])} outside scale [{lo}, {hi}]")])
        columns.append((users, items, rating, timestamp))
        sizes.append(len(ends))
    ratings = Ratings(index["users"], index["items"], *map(np.concatenate, zip(*columns)))
    try:
        reject_repeated_pairs(ratings, ratings.users, ratings.items)
    except DuplicateEdgeError as exc:
        raise DuplicateEdgeError(f"{directory}: {exc} in two manifest lines; "
                                 "split it again") from None
    manifest = np.repeat(np.arange(k), sizes)
    return [FoldSplit(i, ratings.take(np.flatnonzero(manifest != i)),
                      ratings.take(np.flatnonzero(manifest == i))) for i in range(k)], descriptor
