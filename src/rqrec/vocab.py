"""Code-token vocabularies and prefix tries for constrained decoding."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .rqvae import ItemCodeTable

INDEX_TYPES = ("ceid", "seid")
_TYPE_LABEL = {"ceid": "CeID", "seid": "SeID"}
_INDICATOR = {"ceid": "<C>", "seid": "<S>"}


def code_token(index_type: str, level: int, word: int) -> str:
    """Token for codebook word `word` at 1-based `level`, e.g. <CeID_3,255>."""
    return f"<{_TYPE_LABEL[index_type]}_{level},{word}>"


def indicator_token(index_type: str) -> str:
    return _INDICATOR[index_type]


def item_tokens(table: ItemCodeTable, item: str) -> list[str]:
    """The item's full code-token path (L levels plus disambiguator)."""
    if item not in table.codes:
        raise ValueError(f"unknown item {item!r} for index type {table.index_type}")
    return [code_token(table.index_type, level, word)
            for level, word in enumerate(table.codes[item], start=1)]


@dataclass
class TokenVocab:
    """Ordered token set with a kind per token (indicator or code)."""

    tokens: list[str]
    kinds: dict[str, str]


def build_vocabulary(tables: list[ItemCodeTable]) -> TokenVocab:
    """One token per (type, level, word) actually used, plus the type indicators."""
    if not tables:
        raise ValueError("at least one code table required")
    seen_types = set()
    for table in tables:
        if table.index_type in seen_types:
            raise ValueError(f"duplicate table for index type {table.index_type}")
        if table.index_type not in INDEX_TYPES:
            raise ValueError(f"unknown index type {table.index_type}")
        seen_types.add(table.index_type)
    tokens: list[str] = []
    kinds: dict[str, str] = {}
    for t in sorted(seen_types):
        tok = indicator_token(t)
        tokens.append(tok)
        kinds[tok] = "indicator"
    used: set[tuple[str, int, int]] = set()
    for table in tables:
        for tup in table.codes.values():
            for level, word in enumerate(tup, start=1):
                used.add((table.index_type, level, word))
    for index_type, level, word in sorted(used):
        tok = code_token(index_type, level, word)
        tokens.append(tok)
        kinds[tok] = "code"
    return TokenVocab(tokens=tokens, kinds=kinds)


def write_vocab(vocab: TokenVocab, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(f"{tok}\t{vocab.kinds[tok]}\n")


# ---------------------------------------------------------------------------
# Prefix trie

class TrieNode:
    __slots__ = ("children", "item", "word")

    def __init__(self) -> None:
        self.children: dict[str, TrieNode] = {}
        self.item: str | None = None
        self.word: int | None = None  # code word on the incoming edge


@dataclass
class PrefixTrie:
    root: TrieNode
    depth: int
    index_type: str
    size: int = 0

    def walk(self, prefix: list[str]) -> TrieNode:
        node = self.root
        for tok in prefix:
            if tok not in node.children:
                raise ValueError(f"prefix token {tok!r} not in trie")
            node = node.children[tok]
        return node

    def items(self) -> list[tuple[str, list[str]]]:
        out: list[tuple[str, list[str]]] = []

        def rec(node: TrieNode, path: list[str]) -> None:
            if node.item is not None:
                out.append((node.item, list(path)))
            for tok in sorted(node.children):
                path.append(tok)
                rec(node.children[tok], path)
                path.pop()

        rec(self.root, [])
        return out


def build_prefix_trie(table: ItemCodeTable) -> PrefixTrie:
    """Trie containing exactly the table's (L+1)-token paths, one terminal per item."""
    trie = PrefixTrie(root=TrieNode(), depth=table.code_len_total,
                      index_type=table.index_type)
    for item in sorted(table.codes):
        tup = table.codes[item]
        if len(tup) != table.code_len_total:
            raise ValueError(f"item {item!r} has code length {len(tup)}, "
                             f"expected {table.code_len_total}")
        node = trie.root
        for level, word in enumerate(tup, start=1):
            tok = code_token(table.index_type, level, word)
            child = node.children.get(tok)
            if child is None:
                child = TrieNode()
                child.word = word
                node.children[tok] = child
            node = child
        if node.item is not None:
            raise ValueError(f"duplicate code tuple {tup} for items "
                             f"{node.item!r} and {item!r}")
        node.item = item
        trie.size += 1
    return trie


def allowed_next(trie: PrefixTrie, prefix: list[str]) -> set[str]:
    """Edge labels leaving the prefix node; empty at terminals, error off-trie."""
    return set(trie.walk(prefix).children)
