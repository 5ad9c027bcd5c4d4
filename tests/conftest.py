"""Shared test helpers: deterministic pseudo-random scorers, random code tables, the
exhaustive top-k oracle of beam search, an (item, score)-pair ranked list, and the
`np.add.at` scatter that ordered scatters equal."""
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from rqrec.retrieval import ListRecord
from rqrec.rqvae import ItemCodeTable, resolve_collisions
from rqrec.vocab import code_token


class HashScorer:
    """ScorerInterface stand-in with stable pseudo-random token weights.

    Weights depend only on (seed, effective context, token), hashed with
    blake2b, so results are reproducible across processes. The returned
    log-probabilities renormalize over exactly the candidate set.
    """

    def __init__(self, seed: int, vocab: list[str], order: int = 8):
        self.seed = seed
        self.vocab = list(vocab)
        self.order = order

    def _weight(self, context: tuple[str, ...], token: str) -> float:
        key = f"{self.seed}|{'/'.join(context)}|{token}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return 0.05 + int.from_bytes(digest, "big") / 2**64

    def next_token_logprobs(self, context, candidates):
        if not candidates:
            raise ValueError("candidate set is empty")
        ctx = tuple(context[max(0, len(context) - self.order):])
        cand = sorted(candidates)
        weights = [self._weight(ctx, t) for t in cand]
        total = sum(weights)
        return {t: math.log(w / total) for t, w in zip(cand, weights)}


class UniformScorer:
    """Equal probability over any candidate set."""

    def next_token_logprobs(self, context, candidates):
        if not candidates:
            raise ValueError("candidate set is empty")
        lp = -math.log(len(candidates))
        return {t: lp for t in candidates}


def ids_of(vocab: list[str], tokens) -> list[int]:
    """The ids of token strings: their indices in `vocab`."""
    return [vocab.index(t) for t in tokens]


def random_code_table(rng: np.random.Generator, n_items: int, vocab_size: int,
                      code_len: int = 3, index_type: str = "ceid") -> ItemCodeTable:
    """Random raw codes (collisions likely) passed through collision resolution."""
    width = len(str(max(1, n_items - 1)))
    raw = {f"i{k:0{width}d}": tuple(int(w) for w in rng.integers(0, vocab_size, code_len))
           for k in range(n_items)}
    return resolve_collisions(raw, index_type)


def exhaustive_topk_oracle(scorer, table: ItemCodeTable, context: list[str],
                           k: int, user: str = "", template_id: int = 0) -> ListRecord:
    """Score every item's full code path directly from the table and sort.

    Independent of the trie and its ids: the context is token strings, and
    per-step candidate sets are recovered by scanning the table for items
    sharing the current prefix. Intended as a test oracle for small tables.
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
    return ListRecord(user, table.index_type, template_id,
                      [item for _, _, item in scored[:k]], [total for total, _, _ in scored[:k]])


@dataclass
class EntriesList:
    """A ranked list as (item, score) pairs: the form the reference walks read."""
    user: str
    index_type: str
    template_id: int
    entries: list[tuple[str, float]] = field(default_factory=list)

    def items(self) -> list[str]:
        return [item for item, _ in self.entries]

    def record(self) -> ListRecord:
        return ListRecord(self.user, self.index_type, self.template_id, self.items(),
                          [s for _, s in self.entries])


def fused_lists(side, s_total) -> dict[str, ListRecord]:
    """`top_k`'s columns as one record per listed user, entry by entry."""
    lists = {side.users[u]: ListRecord(side.users[u], "fused", 0, [], [])
             for u in side.list_user.tolist()}
    for u, i, score in zip(side.user.tolist(), side.item.tolist(), s_total.tolist()):
        lists[side.users[u]].items.append(side.items[i])
        lists[side.users[u]].scores.append(score)
    return lists


def add_at_reference(n_rows, rows, values):
    out = np.zeros((n_rows, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def wide_range_values(rng, n, d):
    # magnitudes over 12 decades, so that any change of summation order shows
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
