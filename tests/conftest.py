"""Shared test helpers: deterministic pseudo-random scorers, random code tables and an
(item, score)-pair ranked list."""
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from rqrec.retrieval import ListRecord
from rqrec.rqvae import ItemCodeTable, resolve_collisions


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
