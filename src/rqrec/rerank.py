"""Self-consistency fusion of ranked lists across templates and index types.

For each item and index type, gather its 0-based ranks across the per-template
lists (only appearances at rank < K enter the collection). Confidence is
f(mean rank) and consistency is f(sample standard deviation of ranks) with
f(r) = exp(-r / tau); an item seen in a single list gets consistency 0 (the
sample deviation needs two observations, and 0 is the most conservative credit).
Per-type score: S^x = alpha * Conf + (1 - alpha) * Cons. Final score:
S = S^ceid + S^seid with a missing side contributing 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .retrieval import RankedList


@dataclass
class PositionCollection:
    item: str
    index_type: str
    positions: list[int] = field(default_factory=list)


@dataclass
class SelfConsistencyScore:
    item: str
    conf_c: float = 0.0
    cons_c: float = 0.0
    s_c: float = 0.0
    conf_s: float = 0.0
    cons_s: float = 0.0
    s_s: float = 0.0
    s_total: float = 0.0
    appearances: int = 0


def rank_transform(r: float, tau: float) -> float:
    """Monotonically decreasing emphasis on top ranks: exp(-r / tau)."""
    return math.exp(-r / tau)


def collect_positions(lists: list[RankedList]) -> dict[str, PositionCollection]:
    """Gather each item's 0-based rank from every list it appears in."""
    if not lists:
        return {}
    user, index_type = lists[0].user, lists[0].index_type
    seen_templates: set[int] = set()
    for rl in lists:
        if rl.user != user or rl.index_type != index_type:
            raise ValueError("lists must share one user and index type")
        if rl.template_id in seen_templates:
            raise ValueError(f"duplicate template id {rl.template_id}")
        seen_templates.add(rl.template_id)
    out: dict[str, PositionCollection] = {}
    for rl in lists:
        for rank, (item, _) in enumerate(rl.entries):
            pc = out.get(item)
            if pc is None:
                pc = out[item] = PositionCollection(item=item, index_type=index_type)
            pc.positions.append(rank)
    return out


def conf_score(pc: PositionCollection, tau: float) -> float:
    if not pc.positions:
        raise ValueError(f"empty position collection for item {pc.item!r}")
    return rank_transform(sum(pc.positions) / len(pc.positions), tau)


def cons_score(pc: PositionCollection, tau: float) -> float:
    n = len(pc.positions)
    if n <= 1:
        return 0.0
    mean = sum(pc.positions) / n
    var = sum((p - mean) ** 2 for p in pc.positions) / (n - 1)
    return rank_transform(math.sqrt(var), tau)


def index_score(pc: PositionCollection, alpha: float, tau: float) -> float:
    return alpha * conf_score(pc, tau) + (1.0 - alpha) * cons_score(pc, tau)


def _index_terms(pc: PositionCollection | None, alpha: float, tau: float
                 ) -> tuple[float, float, float, int]:
    """(Conf, Cons, S^x, appearances) for one index type; zeros if the item is absent."""
    if pc is None:
        return 0.0, 0.0, 0.0, 0
    conf, cons = conf_score(pc, tau), cons_score(pc, tau)
    return conf, cons, alpha * conf + (1.0 - alpha) * cons, len(pc.positions)


def score_items(ceid_lists: list[RankedList], seid_lists: list[RankedList],
                alpha: float, tau: float) -> dict[str, SelfConsistencyScore]:
    """Full per-item breakdown over both index types."""
    if not ceid_lists and not seid_lists:
        raise ValueError("no ranked lists to fuse")
    pos_c = collect_positions(ceid_lists)
    pos_s = collect_positions(seid_lists)
    scores: dict[str, SelfConsistencyScore] = {}
    for item in set(pos_c) | set(pos_s):
        conf_c, cons_c, s_c, n_c = _index_terms(pos_c.get(item), alpha, tau)
        conf_s, cons_s, s_s, n_s = _index_terms(pos_s.get(item), alpha, tau)
        scores[item] = SelfConsistencyScore(item, conf_c, cons_c, s_c, conf_s, cons_s, s_s,
                                            s_total=s_c + s_s, appearances=n_c + n_s)
    return scores


def rank_scores(user: str, scores: dict[str, SelfConsistencyScore],
                k_out: int) -> RankedList:
    """Top-k_out of one user's scores; ties break by appearance count then item id."""
    ordered = sorted(scores.values(),
                     key=lambda s: (-s.s_total, -s.appearances, s.item))
    return RankedList(user=user, index_type="fused", template_id=0,
                      entries=[(s.item, s.s_total) for s in ordered[:k_out]])


def fuse_and_rank(ceid_lists: list[RankedList], seid_lists: list[RankedList],
                  alpha: float, tau: float, k_out: int) -> RankedList:
    """Final top-k_out fusion of one user's lists.

    Single-index ablations pass an empty list for the dropped side; Conf-only
    and Cons-only ablations set alpha to 1 or 0.
    """
    scores = score_items(ceid_lists, seid_lists, alpha, tau)
    return rank_scores((ceid_lists or seid_lists)[0].user, scores, k_out)


def write_score_breakdown(scores_by_user: dict[str, dict[str, SelfConsistencyScore]],
                          path: str | Path) -> None:
    """Optional per-item audit table."""
    cols = ["user", "item", "conf_c", "cons_c", "s_c",
            "conf_s", "cons_s", "s_s", "s_total", "appearances"]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for user in sorted(scores_by_user):
            for item in sorted(scores_by_user[user]):
                s = scores_by_user[user][item]
                fh.write("\t".join([user, item] +
                                   [repr(v) for v in (s.conf_c, s.cons_c, s.s_c,
                                                      s.conf_s, s.cons_s, s.s_s,
                                                      s.s_total)] +
                                   [str(s.appearances)]) + "\n")
