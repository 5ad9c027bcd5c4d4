"""Accuracy metrics under full ranking, and complementarity analysis (PER / CHR)."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .retrieval import RankedList

log = logging.getLogger(__name__)


@dataclass
class HitSet:
    """Users whose held-out test item appeared in the top-K list for one template."""

    template_id: int
    users: set[str]


def _target_positions(metric: str, lists: dict[str, RankedList], test: dict[str, str],
                      k: int) -> list[int]:
    """0-based position of each test item found within its user's first k entries."""
    if not test:
        raise ValueError("empty test split")
    missing = sum(1 for u in test if u not in lists)
    if missing:
        log.warning("%s@%d: %d user(s) missing a ranked list, counted as misses",
                    metric, k, missing)
    tops = ((lists[u].items()[:k], target) for u, target in test.items() if u in lists)
    return [top.index(target) for top, target in tops if target in top]


def hit_at_k(lists: dict[str, RankedList], test: dict[str, str], k: int) -> float:
    """Fraction of test users whose held-out item is within the first k entries."""
    return len(_target_positions("hit", lists, test, k)) / len(test)


def ndcg_at_k(lists: dict[str, RankedList], test: dict[str, str], k: int) -> float:
    """Single-relevant-item NDCG: gain 1/log2(rank + 2) at 0-based rank < k."""
    total = 0.0  # a plain loop: sum() of floats is compensated from Python 3.12 on
    for position in _target_positions("ndcg", lists, test, k):
        total += 1.0 / math.log2(position + 2)
    return total / len(test)


def hit_sets(lists_by_template: dict[int, dict[str, RankedList]],
             test: dict[str, str], k: int = 10) -> list[HitSet]:
    """Per-template hit sets (users whose test item is in that template's top-k)."""
    out = []
    for t in sorted(lists_by_template):
        users = {u for u, target in test.items()
                 if u in lists_by_template[t]
                 and target in lists_by_template[t][u].items()[:k]}
        out.append(HitSet(template_id=t, users=users))
    return out


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
    if len(sets) < 2:
        raise ValueError("per_matrix needs at least 2 templates")
    ids = [h.template_id for h in sets]
    matrix = []
    for h1 in sets:
        if not h1.users:
            log.warning("per_matrix: template %d has no hits, its row is nan", h1.template_id)
            matrix.append([math.nan] * len(sets))
            continue
        row = []
        for h2 in sets:
            row.append(0.0 if h1.template_id == h2.template_id else per(h1, h2))
        matrix.append(row)
    return matrix, ids


def write_per_matrix(matrix: list[list[float]], ids: list[int], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("template," + ",".join(str(t) for t in ids) + "\n")
        for t, row in zip(ids, matrix):
            fh.write(str(t) + "," + ",".join(repr(v) for v in row) + "\n")


def write_metrics_csv(rows: list[tuple[str, int, float]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("metric,K,value\n")
        for metric, k, value in rows:
            fh.write(f"{metric},{k},{value!r}\n")
