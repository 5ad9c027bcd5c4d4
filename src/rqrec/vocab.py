"""Code tokens and prefix tries for constrained decoding.

A `PrefixTrie` is built once per index type, straight from the code table, as
the per-depth child arrays that the batched beam search reads.
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
    """The table's code-token paths as per-depth arrays, one leaf per item.

    Nodes at depth d are numbered in code-tuple order, so a node's number is
    its tie-break key. Row n of `child[d]` lists node n's children (numbers at
    depth d + 1) in sorted-token order, -1 after the last; `tokens[d][n]` are
    their tokens and `paths[d][n]` the tokens from the root to node n.
    `items[n]` is the item at leaf n.
    """

    index_type: str
    depth: int
    child: list[np.ndarray]
    tokens: list[list[list[str]]]
    paths: list[list[list[str]]]
    items: list[str]


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
    trie = PrefixTrie(table.index_type, table.code_len_total, [], [], [],
                      [item for _, item in rows])
    nodes, paths = {(): 0}, [[]]  # prefix -> number, and path, of the nodes at depth d
    for d in range(trie.depth):
        kids = list(dict.fromkeys(tup[:d + 1] for tup, _ in rows))  # numbered in code-tuple order
        parent = [nodes[kid[:-1]] for kid in kids]
        token = [code_token(trie.index_type, d + 1, kid[-1]) for kid in kids]
        children: list[list[int]] = [[] for _ in nodes]
        for n in sorted(range(len(kids)), key=token.__getitem__):
            children[parent[n]].append(n)
        child = np.full((len(nodes), max(map(len, children), default=0)), -1, dtype=np.int64)
        for p, row in enumerate(children):
            child[p, :len(row)] = row
        trie.child.append(child)
        trie.tokens.append([[token[n] for n in row] for row in children])
        trie.paths.append(paths)
        nodes = {kid: n for n, kid in enumerate(kids)}
        paths = [paths[p] + [tok] for p, tok in zip(parent, token)]
    return trie
