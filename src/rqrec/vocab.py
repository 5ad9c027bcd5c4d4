"""Code tokens and prefix tries for constrained decoding, in one id space per code table.

`build_prefix_trie` makes each distinct (level, word) token's string once and
sorts them into `vocab`; a token's id is its index there, as in the scorer
checkpoint's `vocab` line. Ids order as the strings do, a permutation of
level * W + word ("<CeID_1,10>" < "<CeID_1,2>", "<CeID_10,0>" < "<CeID_2,0>").
Scorer streams, contexts and the trie's arrays hold ids; strings are made from
`vocab` only where a caller needs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rqvae import ItemCodeTable

_TYPE_LABEL = {"ceid": "CeID", "seid": "SeID"}


def code_token(index_type: str, level: int, word: int) -> str:
    """Token for codebook word `word` at 1-based `level`, e.g. <CeID_3,255>."""
    return f"<{_TYPE_LABEL[index_type]}_{level},{word}>"


def item_tokens(table: ItemCodeTable, item: str) -> list[str]:
    """The item's full code-token path (L levels plus disambiguator)."""
    if item not in table.codes:
        raise ValueError(f"unknown item {item!r} for index type {table.index_type}")
    return [code_token(table.index_type, level, word)
            for level, word in enumerate(table.codes[item], start=1)]


# ---------------------------------------------------------------------------
# Prefix trie

@dataclass
class PrefixTrie:
    """The table's id paths as per-depth arrays, one leaf per item.

    `vocab` is the table's distinct tokens, sorted; a token's id is its index
    there. Nodes at depth d are numbered in code-tuple order, so a node's
    number is its tie-break key; leaf n is item `items[n]`, whose id path is
    row n of `ids`. Row n of `child[d]` lists node n's children (numbers at
    depth d + 1) in id order, which is sorted-token order, -1 after the last;
    `cand_ids[d]` holds their ids in the same cells, and row n of `path_ids[d]`
    the ids from the root to node n.
    """

    index_type: str
    depth: int
    vocab: list[str]
    items: list[str]
    ids: np.ndarray
    child: list[np.ndarray]
    cand_ids: list[np.ndarray]
    path_ids: list[np.ndarray]


def build_prefix_trie(table: ItemCodeTable) -> PrefixTrie:
    """Trie containing exactly the table's (L+1)-token paths."""
    for item, tup in sorted(table.codes.items()):
        if len(tup) != table.code_len_total:
            raise ValueError(f"item {item!r} has code length {len(tup)}, "
                             f"expected {table.code_len_total}")
    rows = sorted((tup, item) for item, tup in table.codes.items())
    for (tup, a), (nxt, b) in zip(rows, rows[1:]):
        if tup == nxt:
            raise ValueError(f"duplicate code tuple {tup} for items {a!r} and {b!r}")
    depth = table.code_len_total
    codes = np.array([tup for tup, _ in rows], dtype=np.int64).reshape(len(rows), depth)
    words = [np.unique(column) for column in codes.T]  # per level, in numeric order
    tokens = [code_token(table.index_type, level, w)
              for level, ws in enumerate(words, start=1) for w in ws.tolist()]
    order = sorted(range(len(tokens)), key=tokens.__getitem__)
    rank = np.argsort(order)  # a token's id: its place in sorted order
    start = np.cumsum([0] + [len(ws) for ws in words])
    ids = np.stack([rank[s + np.searchsorted(ws, column)]
                    for s, ws, column in zip(start, words, codes.T)], axis=1)
    trie = PrefixTrie(table.index_type, depth, [tokens[n] for n in order],
                      [item for _, item in rows], ids, [], [], [])
    first = np.zeros(min(1, len(ids)), dtype=np.int64)  # each node's first row: the root's
    row_node = np.zeros(len(ids), dtype=np.int64)  # each row's node at depth d
    new = np.arange(len(ids)) == 0
    for d in range(depth):
        # nodes at depth d + 1 start where a row's prefix differs from the previous row's
        new[1:] |= ids[1:, d] != ids[:-1, d]
        kids = np.flatnonzero(new)
        parent, token = row_node[kids], ids[kids, d]
        by_parent = np.lexsort((token, parent))  # kid numbers, grouped by parent, by id
        at = parent[by_parent]
        slot = np.arange(len(at)) - np.searchsorted(at, at)
        trie.child.append(np.full((len(first), int(slot.max(initial=-1)) + 1), -1))
        trie.child[d][at, slot] = by_parent
        trie.cand_ids.append(np.full(trie.child[d].shape, -1))
        trie.cand_ids[d][at, slot] = token[by_parent]
        trie.path_ids.append(ids[first, :d])
        first, row_node = kids, np.cumsum(new) - 1
    return trie
