"""Self-consistency fusion of ranked lists across templates and index types.

For each item and index type, gather its 0-based ranks across the per-template
lists (only appearances at rank < K enter the collection). Confidence is
f(mean rank) and consistency is f(sample standard deviation of ranks) with
f(r) = exp(-r / tau); an item seen in a single list gets consistency 0 (the
sample deviation needs two observations, and 0 is the most conservative credit).
Per-type score: S^x = alpha * Conf + (1 - alpha) * Cons. Final score:
S = S^ceid + S^seid with a missing side contributing 0.

All users are fused in one array pass over int32 entry arrays (`RankArrays`).
`np.bincount` adds in entry (list-file) order and `**2`/`exp` run on Python
floats, so every term equals the per-item formula bit for bit. `score_items`
and `fuse_and_rank` are the same code for one user.

A list file enters as a `RankSide` (`rank_side`): int32 columns whose users and
items are numbered per file, which the pipeline's stages keep in a cache of
parsed files (see `rqrec.pipeline`); `RankArrays.add` maps those numbers into
its own. The (user, item) pairs of all templates are sorted once per
`RankArrays`, and a template cap selects its pairs from that order.
"""
from __future__ import annotations

import math
import pickle
from collections import namedtuple
from itertools import chain, count
from pathlib import Path

import numpy as np

from .dataio import replace_on_close
from .retrieval import ListRecord

# per-pair terms, the breakdown columns after user and item
COLUMNS = ("conf_c", "cons_c", "s_c", "conf_s", "cons_s", "s_s", "s_total", "appearances")
SelfConsistencyScore = namedtuple("SelfConsistencyScore", ("item",) + COLUMNS)


# every (user, item) pair's `COLUMNS` arrays, pairs in sorted order (user and item
# are numbers into the sorted names), and the users with a list under the cap
PairScores = namedtuple("PairScores", "users items listed user item columns")

# one index type's lists: the user and item names in first-seen order, then read-only
# int32 columns of numbers into them, (user, item, rank, template) per entry in
# list-file order and (user, template) per list
RankSide = namedtuple("RankSide", "users items user item rank template list_user list_template")

# the sorted names of a `RankArrays`, each first-seen user number's position among
# them, every (user, item) pair of all templates in sorted order, and per side each
# entry's number among those pairs
PairNumbering = namedtuple("PairNumbering", "users items user_pos user item entry_pair")


class DuplicateList(ValueError):
    """A second list for one (user, template); `position` is its index in the records."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def rank_side(records: list[ListRecord]) -> RankSide:
    """One index type's lists as columns; a repeated (user, template) is an error."""
    seen: set[tuple[str, int]] = set()
    for n, r in enumerate(records):
        if (r.user, r.template) in seen:
            raise DuplicateList(f"duplicate template id {r.template} for user "
                                f"{r.user!r} in the {r.index_type} lists", n)
        seen.add((r.user, r.template))
    users: dict[str, int] = {}
    lengths = np.array([len(r.items) for r in records], dtype=np.int64)
    list_user = np.array([users.setdefault(r.user, len(users)) for r in records], np.int32)
    list_template = np.array([r.template for r in records], np.int32)
    names = list(chain.from_iterable(r.items for r in records))
    # first-seen numbers are the positions in an insertion-ordered dict
    items = dict(zip(dict.fromkeys(names), count()))
    item = np.fromiter(map(items.__getitem__, names), np.int32, len(names))
    rank = np.arange(len(item)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # the names as new strings side by side: the ones a parse made lie among its
    # records, and a few of them kept alive would keep all the records' memory
    kept_names = pickle.loads(pickle.dumps((list(users), list(items))))
    side = RankSide(*kept_names, np.repeat(list_user, lengths), item, rank.astype(np.int32),
                    np.repeat(list_template, lengths), list_user, list_template)
    for column in side[2:]:
        column.flags.writeable = False
    return side


class RankArrays:
    """The ceid, then the seid lists as int32 arrays; one `add` per index type.

    A side is (user, item, rank, template) per entry in list-file order, then
    (user, template) per list; users and items are numbered as first seen.
    """

    def __init__(self) -> None:
        self.user_ids: dict[str, int] = {}
        self.item_ids: dict[str, int] = {}
        self.sides: list[tuple[np.ndarray, ...]] = []
        self._numbering: PairNumbering | None = None

    def add(self, side: RankSide) -> None:
        users = [self.user_ids.setdefault(u, len(self.user_ids)) for u in side.users]
        items = [self.item_ids.setdefault(i, len(self.item_ids)) for i in side.items]
        self.sides.append((_renumber(users, side.user), _renumber(items, side.item), side.rank,
                           side.template, _renumber(users, side.list_user), side.list_template))
        self._numbering = None

    def numbering(self) -> PairNumbering:
        """The pairs of all templates, sorted once until the next `add`."""
        if self._numbering is None:
            users, user_pos = _by_name(self.user_ids)
            items, item_pos = _by_name(self.item_ids)
            n_items = max(len(items), 1)
            keys = [user_pos[user] * n_items + item_pos[item] for user, item, *_ in self.sides]
            pairs = np.unique(np.concatenate(keys))
            self._numbering = PairNumbering(users, items, user_pos, pairs // n_items,
                                            pairs % n_items,
                                            [np.searchsorted(pairs, key).astype(np.int32)
                                             for key in keys])
        return self._numbering


def _renumber(numbers: list[int], column: np.ndarray) -> np.ndarray:
    """numbers[column]; where numbers are 0, 1, 2, ... (the first side, and the second
    side's users when both files list them in one order), the column itself, so the
    arrays share the cached side's memory instead of copying it."""
    if numbers == list(range(len(numbers))):
        return column
    return np.array(numbers, dtype=np.int32)[column]


def _by_name(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Sorted names, and each first-seen number's position among them."""
    names = sorted(ids)
    return names, np.argsort([ids[name] for name in names])


def _scalar_map(fn, x: np.ndarray) -> np.ndarray:
    """fn of every element as a Python float; each distinct value is evaluated once."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()], dtype=np.float64)[inverse]


def _type_terms(pair: np.ndarray, rank: np.ndarray, n_pairs: int, alpha: float,
                tau: float) -> tuple[np.ndarray, ...]:
    """(Conf, Cons, S^x, appearances) per pair for one index type; 0 where absent."""
    count = np.bincount(pair, minlength=n_pairs)
    mean = np.bincount(pair, weights=rank, minlength=n_pairs) / np.maximum(count, 1)
    sq_dev = _scalar_map(lambda d: d ** 2, rank - mean[pair])
    var = np.bincount(pair, weights=sq_dev, minlength=n_pairs) / np.maximum(count - 1, 1)
    conf = np.where(count > 0, _scalar_map(math.exp, -mean / tau), 0.0)
    cons = np.where(count > 1, _scalar_map(math.exp, -np.sqrt(var) / tau), 0.0)
    return conf, cons, alpha * conf + (1.0 - alpha) * cons, count


def score_pairs(ranks: RankArrays, alpha: float, tau: float,
                max_templates: float = math.inf) -> PairScores:
    """Every (user, item) pair's terms over the lists with template id <= max_templates.

    The capped pairs keep their order among all pairs, so they are numbered by a
    cumulative sum over a presence mask.
    """
    numbering = ranks.numbering()
    present = np.zeros(len(numbering.user), dtype=bool)
    pair_ranks, listed = [], []
    for entry_pair, (_, _, rank, template, list_user, list_template) in zip(
            numbering.entry_pair, ranks.sides):
        keep = template <= max_templates
        pair_ranks.append((entry_pair[keep], rank[keep]))
        present[entry_pair[keep]] = True
        listed.append(numbering.user_pos[list_user[list_template <= max_templates]])
    number = np.cumsum(present) - 1
    (conf_c, cons_c, s_c, n_c), (conf_s, cons_s, s_s, n_s) = (
        _type_terms(number[pair], rank, int(np.count_nonzero(present)), alpha, tau)
        for pair, rank in pair_ranks)
    columns = (conf_c, cons_c, s_c, conf_s, cons_s, s_s, s_c + s_s, n_c + n_s)
    return PairScores(numbering.users, numbering.items, np.unique(np.concatenate(listed)),
                      numbering.user[present], numbering.item[present],
                      dict(zip(COLUMNS, columns)))


def top_k(scores: PairScores, k_out: int) -> list[ListRecord]:
    """Each listed user's top k_out; ties break by appearance count, then item id."""
    order = np.lexsort((scores.item, -scores.columns["appearances"],
                        -scores.columns["s_total"], scores.user))
    user = scores.user[order]
    top = order[np.arange(len(order)) - np.searchsorted(user, user) < k_out]
    lo, hi = (np.searchsorted(scores.user[top], scores.listed, side).tolist()
              for side in ("left", "right"))
    names = [scores.items[i] for i in scores.item[top].tolist()]
    values = scores.columns["s_total"][top].tolist()
    return [ListRecord(scores.users[u], "fused", 0, names[a:b], values[a:b])
            for u, a, b in zip(scores.listed.tolist(), lo, hi)]


def _one_user(ceid_lists: list[ListRecord], seid_lists: list[ListRecord],
              alpha: float, tau: float) -> PairScores:
    if not ceid_lists and not seid_lists:
        raise ValueError("no ranked lists to fuse")
    ranks = RankArrays()
    ranks.add(rank_side(ceid_lists))
    ranks.add(rank_side(seid_lists))
    if len(ranks.user_ids) > 1:
        raise ValueError(f"lists of more than one user: {sorted(ranks.user_ids)}")
    return score_pairs(ranks, alpha, tau)


def score_items(ceid_lists: list[ListRecord], seid_lists: list[ListRecord],
                alpha: float, tau: float) -> dict[str, SelfConsistencyScore]:
    """Full per-item breakdown of one user's lists over both index types."""
    scores = _one_user(ceid_lists, seid_lists, alpha, tau)
    rows = zip([scores.items[i] for i in scores.item.tolist()],
               *(scores.columns[c].tolist() for c in COLUMNS))
    return {row[0]: SelfConsistencyScore(*row) for row in rows}


def fuse_and_rank(ceid_lists: list[ListRecord], seid_lists: list[ListRecord],
                  alpha: float, tau: float, k_out: int) -> ListRecord:
    """Final top-k_out fusion of one user's lists.

    Single-index ablations pass an empty list for the dropped side; Conf-only
    and Cons-only ablations set alpha to 1 or 0.
    """
    return top_k(_one_user(ceid_lists, seid_lists, alpha, tau), k_out)[0]


def _reprs(x: np.ndarray) -> list[str]:
    """repr of every element, made once per distinct bit pattern (-0.0 keeps its sign)."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in bits.view(x.dtype).tolist()], dtype=object)[
        inverse].tolist()


def write_score_breakdown(scores: PairScores, path: str | Path) -> None:
    """Optional per-item audit table, one row per scored (user, item) pair."""
    rows = zip([scores.users[u] for u in scores.user.tolist()],
               [scores.items[i] for i in scores.item.tolist()],
               *(_reprs(scores.columns[c]) for c in COLUMNS))
    with replace_on_close(path) as fh:
        fh.write("\t".join(["user", "item", *COLUMNS]) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)
