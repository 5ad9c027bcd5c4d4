"""Correctness checks and deterministic counters, computed from a run's out_dir.

Pure Python and independent of rqrec: the fusion oracle recomputes the `full`
mode scores straight from the paper's formulas, Hit@K and NDCG@K are recounted
from fused.jsonl and test.tsv, and the index-health counters are read from the
code tables.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

INDEX_TYPES = ("ceid", "seid")
EPS = 1e-9  # two implementations of one formula may differ in the last bits


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, by relative path."""
    out = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        out[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def sizes(out_dir: Path) -> dict[str, int]:
    return {str(p.relative_to(out_dir)): p.stat().st_size
            for p in out_dir.rglob("*") if p.is_file()}


def _read_pairs(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        user, item = line.split("\t")
        out[user] = item
    return out


def _read_lists(path: Path) -> dict[tuple[str, int], list[tuple[str, float]]]:
    """(user, template) -> entries of one ranked-list JSONL file."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        out[(rec["user"], rec["template"])] = list(zip(rec["items"], rec["scores"]))
    return out


def _read_codes(path: Path) -> dict[str, tuple[int, ...]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        out[parts[0]] = tuple(int(c) for c in parts[1:])
    return out


# ---------------------------------------------------------------------------
# The fusion oracle

def oracle_scores(per_type_lists: list[list[list[str]]], alpha: float,
                  tau: float) -> dict[str, tuple[float, int]]:
    """item -> (fused score, appearances), from per-type lists of per-template items.

    Conf = exp(-mean rank / tau), Cons = exp(-sample stdev / tau) (0 for a single
    appearance), S^x = alpha Conf + (1 - alpha) Cons, S = sum over index types.
    """
    total: dict[str, float] = {}
    appearances: dict[str, int] = {}
    for lists in per_type_lists:
        ranks: dict[str, list[int]] = {}
        for items in lists:
            for rank, item in enumerate(items):
                ranks.setdefault(item, []).append(rank)
        for item, r in ranks.items():
            conf = math.exp(-statistics.fmean(r) / tau)
            cons = math.exp(-statistics.stdev(r) / tau) if len(r) > 1 else 0.0
            total[item] = total.get(item, 0.0) + alpha * conf + (1.0 - alpha) * cons
            appearances[item] = appearances.get(item, 0) + len(r)
    return {item: (total[item], appearances[item]) for item in total}


def fused_list_agrees(fused: list[tuple[str, float]],
                      scores: dict[str, tuple[float, int]], k: int) -> bool:
    """fused is a correct top-k list, with correct scores, under the oracle's scores.

    Each listed score is within EPS of the oracle's. Items whose oracle scores
    lie within EPS of each other may come in either order, because float
    rounding decides between them. Items with exactly equal listed scores come
    in order of more appearances, then item id.
    """
    items = [item for item, _ in fused]
    if len(items) != min(k, len(scores)) or len(set(items)) != len(items):
        return False
    if any(item not in scores or abs(scores[item][0] - score) > EPS
           for item, score in fused):
        return False
    for (upper, s_upper), (lower, s_lower) in zip(fused, fused[1:]):
        if s_lower > s_upper or scores[lower][0] - scores[upper][0] > EPS:
            return False
        if s_lower == s_upper and (-scores[lower][1], lower) < (-scores[upper][1], upper):
            return False
    floor = scores[items[-1]][0] if items else 0.0
    chosen = set(items)
    return not any(score - floor > EPS for item, (score, _) in scores.items()
                   if item not in chosen)


# ---------------------------------------------------------------------------
# Per-run checks

def check_outputs(out_dir: Path, *, k: int, templates: int, alpha: float, tau: float,
                  seed: int, sample: int, ks: tuple[int, ...] = (5, 10),
                  mode_metrics: dict[str, dict[str, float]] | None = None
                  ) -> tuple[int, set[str], list[str]]:
    """Check one finished run; return (test users, failed users, run-level problems).

    A user fails when one of its ranked lists is not k distinct items of its code
    table in non-increasing score order, when its final fused list is missing or
    is not k distinct items of the code tables, or (for a seeded sample) when
    the fused list disagrees with the oracle.
    Run-level problems (metrics.csv not recomputable, NDCG@K above Hit@K) fail
    every user of the run.
    """
    problems: list[str] = []
    test = _read_pairs(out_dir / "test.tsv")
    failed: set[str] = set()
    fused = {user: entries for (user, _t), entries in
             _read_lists(out_dir / "fused.jsonl").items()}
    tables_by_type = {x: _read_codes(out_dir / f"codes_{x}.tsv") for x in INDEX_TYPES
                      if (out_dir / f"codes_{x}.tsv").exists()}
    per_type = {x: _read_lists(out_dir / f"ranked_{x}.jsonl") for x in INDEX_TYPES}

    for user in test:
        entries = fused.get(user)
        items = [item for item, _ in entries] if entries else []
        if (len(items) != k or len(set(items)) != k
                or any(item not in table for table in tables_by_type.values()
                       for item in items)):
            failed.add(user)

    by_user: dict[str, dict[str, list[list[str]]]] = {}
    for x, lists in per_type.items():
        table = tables_by_type.get(x)
        for (user, t), entries in sorted(lists.items()):
            items = [item for item, _ in entries]
            scores = [score for _, score in entries]
            if (len(items) != k or len(set(items)) != k
                    or any(a < b for a, b in zip(scores, scores[1:]))
                    or (table is not None and any(item not in table for item in items))):
                failed.add(user)
            if t <= templates:
                by_user.setdefault(user, {}).setdefault(x, []).append(items)
    users = sorted(test)
    for user in random.Random(seed).sample(users, min(sample, len(users))):
        lists = by_user.get(user, {})
        scores = oracle_scores([lists.get(x, []) for x in INDEX_TYPES], alpha, tau)
        if not scores or not fused_list_agrees(fused.get(user, []), scores, k):
            failed.add(user)

    recomputed = {}
    for cut in ks:
        hits = ndcg = 0.0
        for user, target in test.items():
            top = [item for item, _ in fused.get(user, [])][:cut]
            if target in top:
                hits += 1.0
                ndcg += 1.0 / math.log2(top.index(target) + 2)
        recomputed[f"hit,{cut}"] = hits / len(test)
        recomputed[f"ndcg,{cut}"] = ndcg / len(test)
    reported = parse_metrics((out_dir / "metrics.csv").read_text(encoding="utf-8"))
    for key, value in recomputed.items():
        if key not in reported or abs(reported[key] - value) > 1e-12:
            problems.append(f"metrics.csv {key}={reported.get(key)} but fused.jsonl gives {value}")
    for mode, metrics in (mode_metrics or {"full": reported}).items():
        for cut in ks:
            if metrics.get(f"ndcg,{cut}", 0.0) > metrics.get(f"hit,{cut}", 0.0) + 1e-12:
                problems.append(f"{mode}: NDCG@{cut} exceeds Hit@{cut}")
    return len(test), failed & test.keys(), problems


def parse_metrics(text: str) -> dict[str, float]:
    """metrics.csv text -> {"hit,10": value, ...}."""
    out = {}
    for line in text.splitlines()[1:]:
        metric, cut, value = line.split(",")
        out[f"{metric},{cut}"] = float(value)
    return out


# ---------------------------------------------------------------------------
# Deterministic counters read from artifacts

def artifact_counters(out_dir: Path) -> dict[str, float]:
    """Index health, trie size, graph edges and artifact sizes; 0 where absent."""
    out: dict[str, float] = {}
    trie_nodes = 0
    for x in INDEX_TYPES:
        path = out_dir / f"codes_{x}.tsv"
        codes = _read_codes(path) if path.exists() else {}
        for level in (1, 2, 3):
            out[f"rqvae.{x}.used_l{level}"] = len({c[level - 1] for c in codes.values()})
        groups: dict[tuple[int, ...], int] = {}
        for c in codes.values():
            groups[c[:3]] = groups.get(c[:3], 0) + 1
        out[f"rqvae.{x}.prefixes"] = len(groups)
        out[f"rqvae.{x}.max_group"] = max(groups.values(), default=0)
        trie_nodes += len({c[:n] for c in codes.values() for n in range(1, len(c) + 1)})
    out["vocab.trie_nodes"] = trie_nodes
    edges = 0
    if (out_dir / "collab.emb").exists():
        pairs = set((out_dir / "train.tsv").read_text(encoding="utf-8").splitlines())
        edges = len(pairs)
    out["collab.edges"] = edges
    out["scorer.checkpoint_mb"] = sum(p.stat().st_size for p in out_dir.glob("scorer_*.txt")) / 1e6
    out["retrieval.ranked_mb"] = sum(p.stat().st_size for p in out_dir.glob("ranked_*.jsonl")) / 1e6
    return out
