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
floats, so every term equals the per-item formula bit for bit. A side's terms
sort its pairs' mean ranks once (`np.unique`): exp(-mean/tau) is evaluated per
distinct mean, and each entry's (rank - mean)**2 is read from a table of the
(distinct mean, rank) cells the entries use, each evaluated once. `score_items`
and `fuse_and_rank` are the same code for one user.

A list file enters as a `RankSide` (`rank_side`): int32 columns whose users and
items are numbered by sorted name, which the pipeline's stages keep in a cache
of parsed files (see `rqrec.pipeline`). `rank_arrays` puts the two sides on the
sorted union of their names, which leaves a side that holds every name as it
is, and numbers every entry's (user, item) pair, over all templates, with one
`np.unique(..., return_inverse=True)`; a template cap selects its pairs from
that order. Sorted names are the only order any output sees: `top_k`'s ties,
the breakdown rows and the sweep. `top_k` orders each user's pairs with one
stable argsort of an int64 key (see there) and returns the fused lists as
columns too, a `RankSide` of template 0 and each entry's s_total, which is what
the metrics read; only `fused.jsonl`'s writer and `fuse_and_rank` make records
of them.
"""
from __future__ import annotations

import math
import pickle
from collections import namedtuple
from itertools import chain, repeat
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

# one index type's lists: the sorted user and item names, then read-only int32
# columns of numbers into them, (user, item, rank, template) per entry in
# list-file order and (user, template) per list
RankSide = namedtuple("RankSide", "users items user item rank template list_user list_template")

# the ceid and seid sides numbered into the sorted union of their names, every
# (user, item) pair of all templates in sorted order, and per side each entry's
# number among those pairs
RankArrays = namedtuple("RankArrays", "users items sides user item entry_pair")


class MalformedList(ValueError):
    """A list unfit for the columns; `position` is its index in the records."""

    def __init__(self, problem: str, records: list[ListRecord], position: int):
        super().__init__(f"{problem} in the {records[position].index_type} lists")
        self.position = position


def _field_problem(r: ListRecord) -> str | None:
    """What makes one record's template, user, items or scores unfit, or None;
    the items' own types are checked over the whole file."""
    if type(r.template) is not int or not -2**31 <= r.template < 2**31:  # nor a bool
        return f"template {r.template!r} is not a 32-bit integer"
    if not isinstance(r.user, str):
        return f"user {r.user!r} is not a string"
    if not isinstance(r.items, list) or not isinstance(r.scores, list):
        return "items and scores must be lists"
    return None


def _numbers(names: list[str]) -> dict[str, int]:
    """Each distinct name's position among them sorted.

    A dict, not `np.searchsorted` on a string array: numpy drops trailing NULs,
    so 'a\x00' would land on 'a'.
    """
    return {name: n for n, name in enumerate(sorted(set(names)))}


def rank_side(records: list[ListRecord]) -> RankSide:
    """One index type's lists as columns, users and items numbered by sorted name.

    A field of the wrong type, a repeated (user, template) and an item repeated
    within a list are errors that name the record's position.
    """
    seen: set[tuple[str, int]] = set()
    for n, r in enumerate(records):
        problem = _field_problem(r)
        if problem is None and (r.user, r.template) in seen:
            problem = f"duplicate template id {r.template} for user {r.user!r}"
        if problem:
            raise MalformedList(problem, records, n)
        seen.add((r.user, r.template))
    lengths = np.array([len(r.items) for r in records], dtype=np.int64)
    user_names = [r.user for r in records]
    names = list(chain.from_iterable(r.items for r in records))
    if not all(map(isinstance, names, repeat(str))):
        n, bad = next((n, i) for n, r in enumerate(records) for i in r.items
                      if not isinstance(i, str))
        raise MalformedList(f"item {bad!r} is not a string", records, n)
    users, items = _numbers(user_names), _numbers(names)
    list_user = np.fromiter(map(users.__getitem__, user_names), np.int32, len(records))
    list_template = np.array([r.template for r in records], np.int32)
    item = np.fromiter(map(items.__getitem__, names), np.int32, len(names))
    # an item twice in one list is a repeated (list, item) key; the smallest is the first list
    key = np.sort(np.repeat(np.arange(len(records)), lengths) * len(items) + item)
    repeated = key[1:][key[1:] == key[:-1]]
    if len(repeated):
        n, i = divmod(int(repeated[0]), len(items))
        raise MalformedList(f"item {list(items)[i]!r} repeated in the list of user "
                            f"{records[n].user!r}", records, n)
    rank = np.arange(len(item)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # the names as new strings side by side: the ones a parse made lie among its
    # records, and a few of them kept alive would keep all the records' memory
    kept_names = pickle.loads(pickle.dumps((list(users), list(items))))
    side = RankSide(*kept_names, np.repeat(list_user, lengths), item, rank.astype(np.int32),
                    np.repeat(list_template, lengths), list_user, list_template)
    for column in side[2:]:
        column.flags.writeable = False
    return side


def _onto(names: list[str], union: dict[str, int], column: np.ndarray) -> np.ndarray:
    """A column of numbers into the sorted `names`, as numbers into the sorted union;
    a side that holds every name keeps its column, since its numbers are the union's."""
    if len(names) == len(union):
        return column
    return np.array([union[name] for name in names], dtype=np.int32)[column]


def rank_arrays(ceid: RankSide, seid: RankSide) -> RankArrays:
    """Both sides on one numbering, and the (user, item) pairs of all templates."""
    users, items = _numbers(ceid.users + seid.users), _numbers(ceid.items + seid.items)
    user_names, item_names = list(users), list(items)
    sides = [side._replace(users=user_names, items=item_names,
                           user=_onto(side.users, users, side.user),
                           item=_onto(side.items, items, side.item),
                           list_user=_onto(side.users, users, side.list_user))
             for side in (ceid, seid)]
    n_items = max(len(items), 1)
    pairs, entry_pair = _dense_keys(np.concatenate([side.user.astype(np.int64) * n_items + side.item
                                                    for side in sides]))
    return RankArrays(user_names, item_names, sides, pairs // n_items, pairs % n_items,
                      np.split(entry_pair, [len(sides[0].user)]))


def _dense_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys, and each key's int32 number among them.

    One sort, and a running count of the key changes along it: what
    `np.unique(keys, return_inverse=True)` gives, without its int64 inverse
    and its second sorted copy. Equal keys get one number, so the order of
    ties, and the sort's stability, changes nothing.
    """
    order = np.argsort(keys)
    keys = keys[order]
    change = np.empty(len(keys), dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    distinct = keys[change]
    number = np.cumsum(change, dtype=np.int32)
    number -= 1
    del keys, change  # freed before the inverse is allocated
    inverse = np.empty(len(order), dtype=np.int32)
    inverse[order] = number
    return distinct, inverse


def _dense(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Each element's rank among the distinct values of x, and how many there are."""
    values, inverse = np.unique(x, return_inverse=True)
    return inverse, len(values)


def _scalar_map(fn, x: np.ndarray) -> np.ndarray:
    """fn of every element as a Python float; each distinct value is evaluated once."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()], dtype=np.float64)[inverse]


def _squared_deviations(rank: np.ndarray, means: np.ndarray, mean_no: np.ndarray) -> np.ndarray:
    """(rank - means[mean_no]) ** 2 per entry, from a table of (distinct mean, rank).

    Only the cells some entry uses are evaluated, each once as a Python float:
    rank - mean is the same IEEE subtraction numpy makes, and ** is the scalar
    formula's pow, which can round otherwise than numpy's d * d. The table has a
    row per distinct mean and a column per rank up to the largest.
    """
    width = int(rank.max(initial=0)) + 1
    cell = mean_no * width + rank
    used = np.zeros(len(means) * width, dtype=bool)
    used[cell] = True
    cells = np.flatnonzero(used)
    table = np.empty(len(used))
    table[cells] = [(r - m) ** 2 for m, r in zip(means[cells // width].tolist(),
                                                (cells % width).tolist())]
    return table[cell]


def _type_terms(pair: np.ndarray, rank: np.ndarray, n_pairs: int, alpha: float,
                tau: float) -> tuple[np.ndarray, ...]:
    """(Conf, Cons, S^x, appearances) per pair for one index type; 0 where absent."""
    count = np.bincount(pair, minlength=n_pairs)
    mean = np.bincount(pair, weights=rank, minlength=n_pairs) / np.maximum(count, 1)
    means, mean_no = np.unique(mean, return_inverse=True)
    sq_dev = _squared_deviations(rank, means, mean_no[pair])
    var = np.bincount(pair, weights=sq_dev, minlength=n_pairs) / np.maximum(count - 1, 1)
    conf_of = np.array([math.exp(-m / tau) for m in means.tolist()], dtype=np.float64)
    conf = np.where(count > 0, conf_of[mean_no], 0.0)
    cons = np.where(count > 1, _scalar_map(math.exp, -np.sqrt(var) / tau), 0.0)
    return conf, cons, alpha * conf + (1.0 - alpha) * cons, count


def score_pairs(ranks: RankArrays, alpha: float, tau: float,
                max_templates: float = math.inf) -> PairScores:
    """Every (user, item) pair's terms over the lists with template id <= max_templates.

    The capped pairs keep their order among all pairs, so they are numbered by a
    cumulative sum over a presence mask.
    """
    present = np.zeros(len(ranks.user), dtype=bool)
    pair_ranks, listed = [], []
    for entry_pair, side in zip(ranks.entry_pair, ranks.sides):
        keep = side.template <= max_templates
        pair_ranks.append((entry_pair[keep], side.rank[keep]))
        present[entry_pair[keep]] = True
        listed.append(side.list_user[side.list_template <= max_templates])
    number = np.cumsum(present) - 1
    (conf_c, cons_c, s_c, n_c), (conf_s, cons_s, s_s, n_s) = (
        _type_terms(number[pair], rank, int(np.count_nonzero(present)), alpha, tau)
        for pair, rank in pair_ranks)
    columns = (conf_c, cons_c, s_c, conf_s, cons_s, s_s, s_c + s_s, n_c + n_s)
    return PairScores(ranks.users, ranks.items, np.unique(np.concatenate(listed)),
                      ranks.user[present], ranks.item[present], dict(zip(COLUMNS, columns)))


def top_k(scores: PairScores, k_out: int) -> tuple[RankSide, np.ndarray]:
    """Each listed user's top k_out as one template-0 list, and each entry's s_total;
    ties break by appearance count, then item id.

    The order is one stable argsort of the int64 key user * n + r, where r is the
    dense rank of (-s_total, -appearances) among its n distinct values. The key
    sorts by user, then r, which orders -s_total first and -appearances second,
    as the sort keys (user, -s_total, -appearances, item) do. The pairs arrive
    in (user, item) order, so the stable sort leaves equal keys in item order:
    the order is that of the four-key lexsort.
    """
    s_rank, _ = _dense(-scores.columns["s_total"])
    a_rank, n_a = _dense(-scores.columns["appearances"])
    # s_rank * n_a + a_rank < pairs**2 <= 2**62 and n <= pairs <= 2**31 (pair numbers
    # are int32), so user * n + r < 2**31 * 2**31 cannot overflow int64
    r, n = _dense(s_rank * n_a + a_rank)
    order = np.argsort(scores.user.astype(np.int64) * n + r, kind="stable")
    user = scores.user[order]
    rank = np.arange(len(order)) - np.searchsorted(user, user)
    top = order[rank < k_out]
    side = RankSide(scores.users, scores.items, scores.user[top].astype(np.int32),
                    scores.item[top].astype(np.int32), rank[rank < k_out].astype(np.int32),
                    np.zeros(len(top), np.int32), scores.listed,
                    np.zeros(len(scores.listed), np.int32))
    return side, scores.columns["s_total"][top]


def _one_user(ceid_lists: list[ListRecord], seid_lists: list[ListRecord],
              alpha: float, tau: float) -> PairScores:
    if not ceid_lists and not seid_lists:
        raise ValueError("no ranked lists to fuse")
    ranks = rank_arrays(rank_side(ceid_lists), rank_side(seid_lists))
    if len(ranks.users) > 1:
        raise ValueError(f"lists of more than one user: {ranks.users}")
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
    side, s_total = top_k(_one_user(ceid_lists, seid_lists, alpha, tau), k_out)
    return ListRecord(side.users[0], "fused", 0, [side.items[i] for i in side.item.tolist()],
                      s_total.tolist())


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
