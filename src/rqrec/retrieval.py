"""Trie-constrained beam search producing top-K ranked item lists.

All complete code sequences share one length, so beam scores are plain sums of
token log-probabilities with no length normalization. Score ties break by
lexicographic code tuple.

`beam_search_users` searches the templates of one index type for many users
over the trie's per-depth child arrays: every step scores the (beam x child)
pairs of many (template, context) groups together, and one stable sort keeps
each group's top k. Users with the same scorer context share one group.
`beam_search_constrained` is the same search for one user and one scorer.

Contexts, candidates and paths are ids in the trie's id space (`rqrec.vocab`);
a scorer that is not a `MarkovScorer` over the trie's vocabulary gets strings
made from `trie.vocab`.
"""
from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import numpy as np

from .dataio import decoded, refusal, replace_on_close
from .scorer import MarkovScorer, check_shared_table
from .vocab import PrefixTrie


# one ranked list, in memory and in the JSONL interchange format (fields in file order)
ListRecord = namedtuple("ListRecord", "user index_type template items scores")


def RankedList(user: str, index_type: str, template_id: int,
               entries: list[tuple[str, float]]) -> ListRecord:
    """A `ListRecord` from (item, score) pairs, by the name perfbench/fusion_inputs.py calls."""
    return ListRecord(user, index_type, template_id, [i for i, _ in entries],
                      [s for _, s in entries])


def beam_search_users(scorers: list, trie: PrefixTrie, contexts: list, k: int,
                      users: list[str], template_ids: list[int] | None = None
                      ) -> tuple[list[ListRecord], dict[str, int]]:
    """Beam search for every (template, user): scorer t gives template_ids[t]'s
    lists (1..T by default), each template's lists in user order. A context is
    a sequence of ids into `trie.vocab`.

    Each list is what a search of that user alone with that scorer gives.
    MarkovScorers (templates over one table, with the trie's vocabulary) share
    a search per distinct `context_matrix` row: users whose last `order` tokens
    match get their row's list (the same list objects). A pass searches every
    template for a slice of the distinct rows, at most as many (template, row)
    groups as there are users, and each step scores all beams of the pass
    together, each in its scorer's table column. Any other scorer is asked row
    by row, one full context and one template per `next_token_logprobs` call,
    in token strings.

    Also returns the counters: the distinct contexts searched, the (beam,
    child) pairs scored, and the distinct (context, node, candidate) key
    lookups (one per pair on the row-by-row path).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not trie.items:
        raise ValueError("trie is empty")
    if not scorers:
        raise ValueError("no scorers")
    if template_ids is None:
        template_ids = list(range(1, len(scorers) + 1))
    ids = np.concatenate([np.zeros(0, dtype=np.int64), *map(np.asarray, contexts)])
    if np.any((ids < 0) | (ids >= len(trie.vocab))):
        raise ValueError(f"context token ids must lie in 0..{len(trie.vocab) - 1}")
    native = all(isinstance(scorer, MarkovScorer) for scorer in scorers)
    if native:
        check_shared_table(scorers)
        if scorers[0].vocab != trie.vocab:
            missing = set(trie.vocab).difference(scorers[0].vocab)
            raise ValueError(f"candidate token {min(missing)!r} not in vocabulary" if missing
                             else "the scorer's vocabulary is not the trie's")
        columns = np.array([sc.column for sc in scorers], dtype=np.int64)
        row_ctx, user_row = np.unique(scorers[0].context_matrix(contexts), axis=0,
                                      return_inverse=True)
    else:
        user_row = np.arange(len(contexts))
        # the strings of every context, and of each depth's candidate and path rows
        context_tokens = [[trie.vocab[i] for i in c] for c in contexts]
        cand_tokens = [[tuple(trie.vocab[i] for i in row if i >= 0) for row in ids.tolist()]
                       for ids in trie.cand_ids]
        path_tokens = [[[trie.vocab[i] for i in row] for row in ids.tolist()]
                       for ids in trie.path_ids]
    n_rows, n_templates = int(user_row.max(initial=-1)) + 1, len(scorers)
    counts = {"distinct_contexts": n_rows, "pairs_scored": 0, "lookup_pairs": 0}
    found: list[list] = [[None] * n_rows for _ in scorers]  # (items, scores) per template and row
    # a pass holds no more groups than there are users, as one template's search over all
    # would, or T when there are fewer users than templates
    rows_per_pass = max(1, len(contexts) // n_templates)
    for lo in range(0, n_rows, rows_per_pass):
        # groups g = t * m + j: template t, distinct row lo + j
        m = min(rows_per_pass, n_rows - lo)
        group_row = np.tile(np.arange(lo, lo + m), n_templates)
        group_template = np.repeat(np.arange(n_templates), m)
        group = np.arange(len(group_row))
        node = np.zeros(len(group), dtype=np.int64)
        score = np.zeros(len(group))
        for d in range(trie.depth):
            kids = trie.child[d][node]
            if native:
                # beams of one (row, node) share their context and candidates
                keys, beam_key = np.unique(group_row[group] * len(trie.child[d]) + node,
                                           return_inverse=True)
                key_row, key_node = np.divmod(keys, len(trie.child[d]))
                # each beam's last `order` tokens: the row's context, then its path
                ctx = np.concatenate([row_ctx[key_row], trie.path_ids[d][key_node]],
                                     axis=1)[:, d:]
                cand = trie.cand_ids[d][key_node]
                counts["lookup_pairs"] += int(np.count_nonzero(cand >= 0))
                logp = scorers[0].logprobs(ctx, cand, beam_key, columns[group_template[group]])
            else:
                logp = np.full(kids.shape, -np.inf)
                for r, (g, n) in enumerate(zip(group.tolist(), node.tolist())):
                    tokens = cand_tokens[d][n]
                    lp = scorers[group_template[g]].next_token_logprobs(
                        context_tokens[group_row[g]] + path_tokens[d][n], tokens)
                    logp[r, :len(tokens)] = [lp[t] for t in tokens]
            rows, cols = np.nonzero(kids >= 0)
            counts["pairs_scored"] += len(rows)
            cand_group, cand_node = group[rows], kids[rows, cols]
            cand_score = score[rows] + logp[rows, cols]
            # per group: score descending, ties by code tuple (= node number). Complex
            # numbers sort by real, then imaginary part, so a stable sort of
            # group + i * (-score) over the pairs in node order (unique in a group)
            # is np.lexsort((cand_node, -cand_score, cand_group)) at a third the cost
            key = np.empty(len(rows), dtype=np.complex128)
            key.real, key.imag = cand_group, -cand_score
            by_node = np.argsort(cand_node)
            order = by_node[np.argsort(key[by_node], kind="stable")]
            cand_group = cand_group[order]
            rank = np.arange(len(order)) - np.searchsorted(cand_group, cand_group)
            top = order[rank < k]
            group, node, score = cand_group[rank < k], cand_node[top], cand_score[top]
        bounds = np.searchsorted(group, np.arange(len(group_row) + 1)).tolist()
        items = [trie.items[n] for n in node.tolist()]
        scores = score.tolist()
        for g, (a, b) in enumerate(zip(bounds, bounds[1:])):
            found[g // m][lo + g % m] = items[a:b], scores[a:b]
    if not native:
        counts["lookup_pairs"] = counts["pairs_scored"]
    lists = [ListRecord(name, trie.index_type, tid, *found[t][r])
             for t, tid in enumerate(template_ids)
             for name, r in zip(users, user_row.tolist())]
    return lists, counts


def beam_search_constrained(scorer, trie: PrefixTrie, context, k: int, user: str = "",
                            template_id: int = 0) -> ListRecord:
    """Beam search over exactly trie.depth steps, width k, for one id context.

    Candidate tokens at each step are the trie edges leaving the beam prefix;
    the scorer renormalizes over exactly that candidate set.
    """
    lists, _ = beam_search_users([scorer], trie, [context], k, [user], [template_id])
    return lists[0]


# ---------------------------------------------------------------------------
# Line-delimited interchange format: one JSON object per ListRecord

def ranked_list_record(rec: ListRecord) -> str:
    return json.dumps(rec._asdict())


def write_ranked_lists(lists: list[ListRecord], path: str | Path) -> None:
    """Write the file whole or not at all: a reader sees the old bytes or the new."""
    with replace_on_close(path) as fh:
        for rec in lists:
            fh.write(ranked_list_record(rec) + "\n")


def read_ranked_lists(path: str | Path, lines: list[str] | None = None) -> list[ListRecord]:
    """Every line of a ranked-list file, each parsed once into a `ListRecord`.

    `lines` are the file's `splitlines()` when the caller has read them
    already; errors still name `path`.
    """
    if lines is None:
        lines = decoded(path, Path(path).read_bytes()).splitlines()
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            if line:
                rec = ListRecord(**json.loads(line))
                if len(rec.items) != len(rec.scores):
                    raise ValueError("items and scores differ in length")
                out.append(rec)
        except (ValueError, TypeError) as exc:
            raise ValueError(refusal(path, f"malformed ranked list ({exc!r})", lineno)) from None
    return out
