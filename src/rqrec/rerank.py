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
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, count
from pathlib import Path

import numpy as np

from .retrieval import ListRecord

# per-pair terms, the breakdown columns after user and item
COLUMNS = ("conf_c", "cons_c", "s_c", "conf_s", "cons_s", "s_s", "s_total", "appearances")
SelfConsistencyScore = namedtuple("SelfConsistencyScore", ("item",) + COLUMNS)


# every (user, item) pair's `COLUMNS` arrays, pairs in sorted order (user and item
# are numbers into the sorted names), and the users with a list under the cap
PairScores = namedtuple("PairScores", "users items listed user item columns")


class RankArrays:
    """The ceid, then the seid lists as int32 arrays; one `add` per index type.

    A side is (user, item, rank, template) per entry in list-file order, then
    (user, template) per list; users and items are numbered as first seen.
    """

    def __init__(self) -> None:
        self.user_ids: dict[str, int] = {}
        self.item_ids: dict[str, int] = {}
        self.sides: list[tuple[np.ndarray, ...]] = []

    def add(self, records: list[ListRecord]) -> None:
        seen: set[tuple[str, int]] = set()
        for r in records:
            if (r.user, r.template) in seen:
                raise ValueError(f"duplicate template id {r.template} for user "
                                 f"{r.user!r} in the {r.index_type} lists")
            seen.add((r.user, r.template))
        users = self.user_ids
        lengths = np.array([len(r.items) for r in records], dtype=np.int64)
        list_user = np.array([users.setdefault(r.user, len(users)) for r in records], np.int32)
        list_template = np.array([r.template for r in records], np.int32)
        names = list(chain.from_iterable(r.items for r in records))
        # first-seen numbers are the positions in an insertion-ordered dict
        items = self.item_ids = dict(zip(dict.fromkeys([*self.item_ids, *names]), count()))
        item = np.array(list(map(items.__getitem__, names)), np.int32)
        rank = np.arange(len(item)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.sides.append((np.repeat(list_user, lengths), item, rank.astype(np.int32),
                           np.repeat(list_template, lengths), list_user, list_template))


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
    """Every (user, item) pair's terms over the lists with template id <= max_templates."""
    users, user_pos = _by_name(ranks.user_ids)
    items, item_pos = _by_name(ranks.item_ids)
    n_items = max(len(items), 1)
    keys, entry_ranks, listed = [], [], []
    for user, item, rank, template, list_user, list_template in ranks.sides:
        keep = template <= max_templates
        keys.append(user_pos[user[keep]] * n_items + item_pos[item[keep]])
        entry_ranks.append(rank[keep])
        listed.append(user_pos[list_user[list_template <= max_templates]])
    pairs = np.unique(np.concatenate(keys))
    (conf_c, cons_c, s_c, n_c), (conf_s, cons_s, s_s, n_s) = (
        _type_terms(np.searchsorted(pairs, key), rank, len(pairs), alpha, tau)
        for key, rank in zip(keys, entry_ranks))
    columns = (conf_c, cons_c, s_c, conf_s, cons_s, s_s, s_c + s_s, n_c + n_s)
    return PairScores(users, items, np.unique(np.concatenate(listed)),
                      pairs // n_items, pairs % n_items, dict(zip(COLUMNS, columns)))


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
    ranks.add(ceid_lists)
    ranks.add(seid_lists)
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


def write_score_breakdown(scores: PairScores, path: str | Path) -> None:
    """Optional per-item audit table, one row per scored (user, item) pair."""
    rows = zip([scores.users[u] for u in scores.user.tolist()],
               [scores.items[i] for i in scores.item.tolist()],
               *([repr(v) for v in scores.columns[c].tolist()] for c in COLUMNS))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("\t".join(["user", "item", *COLUMNS]) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)
