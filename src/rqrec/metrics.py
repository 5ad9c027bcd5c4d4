"""Accuracy metrics under full ranking, and complementarity analysis (PER / CHR).

Every metric reads ranked lists as `RankSide` columns and asks one question of
each entry: is its item its user's held-out test item, at a rank below K?
Hit@K and NDCG@K ask it of the fused lists, one per user; the hit sets ask it
of every template's lists.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import replace_on_close
from .rerank import RankSide

log = logging.getLogger(__name__)


@dataclass
class HitSet:
    """Users whose held-out test item appeared in the top-K list for one template."""

    template_id: int
    users: set[str]


def numbered_targets(users: list[str], items: list[str], test: dict[str, str]) -> np.ndarray:
    """Each user's test item as a number into `items`, -1 where it has none there.

    Sides on the same names share these numbers: a stage numbers the targets of
    its fused lists once and passes them to every metric.
    """
    item_no = {item: n for n, item in enumerate(items)}
    return np.array([item_no.get(test.get(user), -1) for user in users], dtype=np.int64)


def _hits(side: RankSide, target: np.ndarray, k: int) -> np.ndarray:
    """Per entry: its item is its user's test item and its rank is below k."""
    return (side.item == target[side.user]) & (side.rank < k)


def _target_ranks(side: RankSide, test: dict[str, str], k: int,
                  target: np.ndarray | None) -> list[int]:
    """Rank of each test item found within its user's first k entries, in test
    order; the side holds one list per user, and a user without one misses.
    `target` is `numbered_targets` of the side's names, numbered here when None."""
    if not test:
        raise ValueError("empty test split")
    if target is None:
        target = numbered_targets(side.users, side.items, test)
    hit = _hits(side, target, k)
    rank = dict(zip([side.users[u] for u in side.user[hit].tolist()], side.rank[hit].tolist()))
    return [rank[user] for user in test if user in rank]


def hit_at_k(side: RankSide, test: dict[str, str], k: int,
             target: np.ndarray | None = None) -> float:
    """Fraction of test users whose held-out item is within the first k entries."""
    return len(_target_ranks(side, test, k, target)) / len(test)


def ndcg_at_k(side: RankSide, test: dict[str, str], k: int,
              target: np.ndarray | None = None) -> float:
    """Single-relevant-item NDCG: gain 1/log2(rank + 2) at 0-based rank < k."""
    total = 0.0  # a plain loop: sum() of floats is compensated from Python 3.12 on
    for rank in _target_ranks(side, test, k, target):
        total += 1.0 / math.log2(rank + 2)
    return total / len(test)


def hit_sets(side: RankSide, test: dict[str, str], k: int = 10) -> list[HitSet]:
    """Per-template hit sets (users whose test item is in that template's top-k);
    every template with a list gets a set, empty or not."""
    hit = _hits(side, numbered_targets(side.users, side.items, test), k)
    users: dict[int, set[str]] = {t: set() for t in np.unique(side.list_template).tolist()}
    for t, u in zip(side.template[hit].tolist(), side.user[hit].tolist()):
        users[t].add(side.users[u])
    return [HitSet(template_id=t, users=users[t]) for t in sorted(users)]


def per(h1: HitSet, h2: HitSet) -> float:
    """Pairwise exclusive-hit ratio: |H1 - H2| / |H1|."""
    if not h1.users:
        raise ValueError(f"template {h1.template_id} has an empty hit set")
    return len(h1.users - h2.users) / len(h1.users)


def chr_avg(t1_sets: list[HitSet], t2_sets: list[HitSet]) -> float:
    """Mean over t in T1 of |union(T2 hits) - H_t| / |union(T2 hits)|."""
    if not t1_sets:
        raise ValueError("T1 is empty")
    union = set()
    for h in t2_sets:
        union |= h.users
    if not union:
        raise ValueError("union of T2 hit sets is empty")
    return sum(len(union - h.users) / len(union) for h in t1_sets) / len(t1_sets)


def per_matrix(sets: list[HitSet]) -> tuple[list[list[float]], list[int]]:
    """|T| x |T| matrix with cell (i, j) = PER(t_i; t_j); diagonal is 0.

    PER is 0/0 for a template with an empty hit set: its row is all nan,
    with a warning, so one template without hits does not stop the analysis.
    """
    if not sets:
        raise ValueError("per_matrix needs at least 1 template")
    ids = [h.template_id for h in sets]
    matrix = []
    for h1 in sets:
        if not h1.users:
            log.warning("per_matrix: template %d has no hits, its row is nan", h1.template_id)
            matrix.append([math.nan] * len(sets))
        else:
            matrix.append([0.0 if h1.template_id == h2.template_id else per(h1, h2)
                           for h2 in sets])
    return matrix, ids


def write_per_matrix(matrix: list[list[float]], ids: list[int], path: str | Path) -> None:
    with replace_on_close(path) as fh:
        fh.write("template," + ",".join(str(t) for t in ids) + "\n")
        for t, row in zip(ids, matrix):
            fh.write(str(t) + "," + ",".join(repr(v) for v in row) + "\n")


def write_metrics_csv(rows: list[tuple[str, int, float]], path: str | Path) -> None:
    with replace_on_close(path) as fh:
        fh.write("metric,K,value\n")
        for metric, k, value in rows:
            fh.write(f"{metric},{k},{value!r}\n")
