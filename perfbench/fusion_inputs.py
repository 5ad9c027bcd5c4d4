"""Seeded inputs for the `fusion` workload: split files and per-template ranked lists.

Every user gets a short train history, a validation item and a test item, and
for each index type a private pool of candidate items in a preferred order.
Each template's list is the pool re-ranked under Gaussian noise and cut to the
top k, so lists of one user overlap the way beam-search lists of the fixture
do. The test item joins the pools of a share P_TARGET of users, in the first
half of the pool, so hit sets are neither empty nor saturated. Files are written only through the public
`rqrec.dataio.write_split` and `rqrec.retrieval.write_ranked_lists`.
"""
from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from rqrec.dataio import SplitDataset, write_split
from rqrec.retrieval import RankedList, write_ranked_lists

INDEX_TYPES = ("ceid", "seid")
POOL = 64          # candidate items per (user, index type)
NOISE = 11.0       # rank noise per template, in pool positions
HISTORY = 8        # train items per user
P_TARGET = 0.7     # share of users whose pool holds their test item
# median distinct items per (user, index type) over all templates; the
# retrieve stage of configs/synthetic.cfg measures 37
OVERLAP_TARGET = (33.0, 41.0)


def generate(out_dir: str | Path, seed: int, n_users: int, n_items: int,
             templates: int, k: int) -> dict[str, float]:
    """Write train/valid/test.tsv and ranked_{ceid,seid}.jsonl; return statistics."""
    rng = np.random.default_rng([seed, 20240816])
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    users = [f"u{u:0{uw}d}" for u in range(n_users)]
    names = [f"i{i:0{iw}d}" for i in range(n_items)]

    train: dict[str, list[str]] = {}
    valid: dict[str, str] = {}
    test: dict[str, str] = {}
    history = np.empty((n_users, HISTORY + 2), dtype=np.int64)
    for u in range(n_users):
        history[u] = rng.choice(n_items, size=HISTORY + 2, replace=False)
        train[users[u]] = [names[i] for i in history[u, :HISTORY]]
        valid[users[u]] = names[history[u, HISTORY]]
        test[users[u]] = names[history[u, HISTORY + 1]]
    write_split(SplitDataset(train=train, valid=valid, test=test), out_dir)

    distinct: list[int] = []
    for index_type in INDEX_TYPES:
        # stratified, so that Hit@K varies little between seeds
        include = rng.permutation(n_users) < round(P_TARGET * n_users)
        slot = rng.permutation(n_users) % (POOL // 2)
        pools = np.empty((n_users, POOL), dtype=np.int64)
        for u in range(n_users):
            pools[u] = rng.choice(n_items, size=POOL, replace=False)
            target = history[u, HISTORY + 1]
            if include[u] and target not in pools[u]:
                pools[u, slot[u]] = target
        keys = np.arange(POOL)[None, None, :] + NOISE * rng.standard_normal(
            (n_users, templates, POOL))
        order = np.argsort(keys, axis=2, kind="stable")[:, :, :k]
        lists = []
        for u in range(n_users):
            seen: set[int] = set()
            for t in range(templates):
                picks = order[u, t]
                seen.update(int(p) for p in picks)
                lists.append(RankedList(
                    user=users[u], index_type=index_type, template_id=t + 1,
                    entries=[(names[pools[u, p]], -float(keys[u, t, p])) for p in picks]))
            distinct.append(len(seen))
        write_ranked_lists(lists, Path(out_dir) / f"ranked_{index_type}.jsonl")

    overlap = statistics.median(distinct)
    if not OVERLAP_TARGET[0] <= overlap <= OVERLAP_TARGET[1]:
        raise RuntimeError(f"median distinct items per user and type is {overlap}, "
                           f"outside {OVERLAP_TARGET}")
    return {"median_distinct_items": overlap}
