"""Trie-constrained beam search producing top-K ranked item lists.

All complete code sequences share one length, so beam scores are plain sums of
token log-probabilities with no length normalization. Score ties break by
lexicographic code tuple.

`beam_search_users` searches many users in one pass over the trie's per-depth
child arrays: every step scores the (beam x child) pairs of all users
together, and one `np.lexsort` keeps each user's top k.
`beam_search_constrained` is the same search for one user.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rqvae import ItemCodeTable
from .vocab import PrefixTrie, code_token


@dataclass
class RankedList:
    user: str
    index_type: str
    template_id: int
    entries: list[tuple[str, float]] = field(default_factory=list)

    def items(self) -> list[str]:
        return [item for item, _ in self.entries]


def _token_id_levels(scorer, trie: PrefixTrie) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per depth: the scorer's ids of each node's child tokens (-1 after the
    last) and of its path from the root."""
    cand_ids, path_ids = [], []
    for child, tokens, paths in zip(trie.child, trie.tokens, trie.paths):
        cand = np.full(child.shape, -1, dtype=np.int64)
        for n, row in enumerate(tokens):
            cand[n, :len(row)] = scorer.token_ids(row)
        unknown = np.argwhere((cand < 0) & (child >= 0))
        if len(unknown):
            n, c = unknown[0]
            raise ValueError(f"candidate token {tokens[n][c]!r} not in vocabulary")
        cand_ids.append(cand)
        path_ids.append(np.array([scorer.token_ids(path) for path in paths],
                                 dtype=np.int64).reshape(len(paths), -1))
    return cand_ids, path_ids


def beam_search_users(scorer, trie: PrefixTrie, contexts: list[list[str]], k: int,
                      users: list[str], template_id: int = 0
                      ) -> tuple[list[RankedList], int]:
    """Beam search for every user at once; also returns the (beam, child) pairs scored.

    Each user's list is what a search of that user alone gives. A scorer
    with `candidate_logprobs` (MarkovScorer) scores all beams of a step in
    one call; any other scorer is asked row by row through
    `next_token_logprobs`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not trie.items:
        raise ValueError("trie is empty")
    vocab = getattr(scorer, "vocab", None)
    if vocab is not None:
        known = set(vocab)
        for context in contexts:
            for t in context:
                if t not in known:
                    raise ValueError(f"unknown context token {t!r}")
    native = hasattr(scorer, "candidate_logprobs")
    if native:
        user_ctx = scorer.context_matrix(contexts)
        cand_ids, path_ids = _token_id_levels(scorer, trie)
    user = np.arange(len(contexts))
    node = np.zeros(len(contexts), dtype=np.int64)
    score = np.zeros(len(contexts))
    pairs = 0
    for d in range(trie.depth):
        kids = trie.child[d][node]
        if native:
            # each beam's last `order` tokens: the user's context, then its path
            ctx = np.concatenate([user_ctx[user], path_ids[d][node]], axis=1)[:, d:]
            logp = scorer.candidate_logprobs(ctx, cand_ids[d][node])
        else:
            logp = np.full(kids.shape, -np.inf)
            for r, (u, n) in enumerate(zip(user.tolist(), node.tolist())):
                tokens = trie.tokens[d][n]
                lp = scorer.next_token_logprobs(contexts[u] + trie.paths[d][n],
                                                tuple(tokens))
                logp[r, :len(tokens)] = [lp[t] for t in tokens]
        rows, cols = np.nonzero(kids >= 0)
        pairs += len(rows)
        cand_user, cand_node = user[rows], kids[rows, cols]
        cand_score = score[rows] + logp[rows, cols]
        # per user: score descending, ties by code tuple (= node number)
        order = np.lexsort((cand_node, -cand_score, cand_user))
        cand_user = cand_user[order]
        rank = np.arange(len(order)) - np.searchsorted(cand_user, cand_user)
        top = order[rank < k]
        user, node, score = cand_user[rank < k], cand_node[top], cand_score[top]
    bounds = np.searchsorted(user, np.arange(len(contexts) + 1)).tolist()
    items = [trie.items[n] for n in node.tolist()]
    scores = score.tolist()
    lists = [RankedList(user=name, index_type=trie.index_type, template_id=template_id,
                        entries=list(zip(items[lo:hi], scores[lo:hi])))
             for name, lo, hi in zip(users, bounds, bounds[1:])]
    return lists, pairs


def beam_search_constrained(scorer, trie: PrefixTrie, context: list[str],
                            k: int, user: str = "", template_id: int = 0) -> RankedList:
    """Beam search over exactly trie.depth steps, width k, for one context.

    Candidate tokens at each step are the trie edges leaving the beam prefix;
    the scorer renormalizes over exactly that candidate set.
    """
    lists, _ = beam_search_users(scorer, trie, [context], k, [user], template_id)
    return lists[0]


def exhaustive_topk_oracle(scorer, table: ItemCodeTable, context: list[str],
                           k: int, user: str = "", template_id: int = 0) -> RankedList:
    """Score every item's full code path directly from the table and sort.

    Independent of the trie: per-step candidate sets are recovered by scanning
    the table for items sharing the current prefix. Intended as a test oracle
    for small tables.
    """
    if len(table.codes) > 10_000:
        raise ValueError("oracle is for small tables (<= 10000 items)")
    depth = table.code_len_total
    # candidate tokens for every observed word prefix
    successors: dict[tuple[int, ...], set[str]] = {}
    for tup in table.codes.values():
        for step in range(depth):
            tok = code_token(table.index_type, step + 1, tup[step])
            successors.setdefault(tup[:step], set()).add(tok)
    scored = []
    for item in sorted(table.codes):
        tup = table.codes[item]
        total = 0.0
        toks: list[str] = []
        for step in range(depth):
            tok = code_token(table.index_type, step + 1, tup[step])
            logps = scorer.next_token_logprobs(context + toks,
                                               tuple(sorted(successors[tup[:step]])))
            total += logps[tok]
            toks.append(tok)
        scored.append((total, tup, item))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return RankedList(user=user, index_type=table.index_type, template_id=template_id,
                      entries=[(item, total) for total, _, item in scored[:k]])


# ---------------------------------------------------------------------------
# Line-delimited interchange format shared by retrieval, rerank, and eval

def ranked_list_record(rl: RankedList) -> str:
    return json.dumps({"user": rl.user, "index_type": rl.index_type,
                       "template": rl.template_id,
                       "items": [i for i, _ in rl.entries],
                       "scores": [s for _, s in rl.entries]})


def parse_ranked_list(line: str) -> RankedList:
    rec = json.loads(line)
    return RankedList(user=rec["user"], index_type=rec["index_type"],
                      template_id=rec["template"],
                      entries=list(zip(rec["items"], rec["scores"])))


def write_ranked_lists(lists: list[RankedList], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rl in lists:
            fh.write(ranked_list_record(rl) + "\n")


def read_ranked_lists(path: str | Path) -> list[RankedList]:
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            if line:
                out.append(parse_ranked_list(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed ranked list ({exc!r}); rerun "
                             "'retrieve' ('rerank' for fused.jsonl) to rewrite it") from None
    return out
