"""Pluggable next-token probability source over code-token streams.

The reference implementation is a smoothed n-gram model with interpolated
backoff: P_k = (1 - lambda) * (count + delta) / (total + delta * |V|)
              + lambda * P_{k-1},
with the add-delta unigram at order 0. Any object exposing
`next_token_logprobs(context, candidates)` with the same renormalization
contract (exp of values over the candidate set sums to 1) can stand in,
e.g. an autoregressive language model.

Tables are integer arrays, one set per order k. A context of order k (the k
tokens before a position) gets its id through its suffix chain: its key is
`id(order k-1 suffix) * |V| + token at -k`, and its id is the rank of that key
among the sorted context keys of order k. An n-gram's key is
`context id * |V| + next token`. Lookups are `np.searchsorted` over the sorted
keys, so a batch of (context, candidate) pairs is scored in a few array
operations per order.

Template variants: template 1 trains on the full per-user streams; template
t > 1 trains on a bootstrap resample (with replacement) of user streams seeded
by (cfg.seed, t), emulating prompt-induced diversity. `count_ngrams` numbers
every n-gram occurrence once; each template is then one weighted `bincount`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OOV = -1  # context token outside the vocabulary: a position with zero counts
PAD = -2  # no token: the history is shorter than the order


@dataclass
class ScorerConfig:
    order: int = 8              # context window in tokens
    delta: float = 0.1          # add-delta smoothing constant
    backoff_lambda: float = 0.4  # weight on the lower-order distribution
    seed: int = 0

    def validate(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not 0.0 <= self.backoff_lambda < 1.0:
            raise ValueError(f"backoff_lambda must be in [0, 1), got {self.backoff_lambda}")


@dataclass
class NgramTables:
    """Per order k: sorted context keys, their totals, sorted n-gram keys, their counts."""

    ctx_keys: list[np.ndarray]
    totals: list[np.ndarray]
    ngram_keys: list[np.ndarray]
    counts: list[np.ndarray]

    @classmethod
    def empty(cls, order: int) -> NgramTables:
        def none() -> list[np.ndarray]:
            return [np.zeros(0, dtype=np.int64) for _ in range(order + 1)]
        return cls(none(), none(), none(), none())


def _find(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted keys, -1 where absent."""
    if len(keys) == 0:
        return np.full(len(query), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, at, -1)


class MarkovScorer:
    """Count-based autoregressive scorer over a fixed token vocabulary."""

    def __init__(self, order: int, delta: float, backoff_lambda: float,
                 template_id: int, index_type: str, vocab: list[str],
                 tables: NgramTables | None = None):
        self.order = order
        self.delta = delta
        self.backoff_lambda = backoff_lambda
        self.template_id = template_id
        self.index_type = index_type
        self.vocab = list(vocab)
        self._tok_id = {t: k for k, t in enumerate(self.vocab)}
        self.tables = tables if tables is not None else NgramTables.empty(order)

    def add_stream(self, stream: list[str]) -> None:
        """Count one more stream into the tables."""
        index = count_ngrams({"": stream}, self.order, self.vocab)
        self.tables = _merge_tables(self.tables, index.tables(np.ones(1, dtype=np.int64)),
                                    len(self.vocab))

    def token_ids(self, tokens: list[str]) -> list[int]:
        """Vocabulary ids, OOV for unknown tokens."""
        return [self._tok_id.get(t, OOV) for t in tokens]

    def context_matrix(self, contexts: list[list[str]]) -> np.ndarray:
        """(rows, order) ids of each context's last `order` tokens, left-padded with PAD."""
        out = np.full((len(contexts), self.order), PAD, dtype=np.int64)
        for r, context in enumerate(contexts):
            tail = context[max(0, len(context) - self.order):]
            if tail:
                out[r, self.order - len(tail):] = self.token_ids(tail)
        return out

    def _candidate_probs(self, contexts: np.ndarray, rows: np.ndarray,
                        tokens: np.ndarray) -> np.ndarray:
        """Interpolated probability of tokens[i] after context row rows[i].

        `contexts` comes from `context_matrix` (or has its layout). The float
        operations run in the order of the scalar formula, so each value is
        bitwise what a per-candidate evaluation gives.
        """
        tab = self.tables
        v = len(self.vocab)
        lam = self.backoff_lambda
        ids = np.full(len(contexts), 0 if len(tab.ctx_keys[0]) else -1, dtype=np.int64)
        p = self._smoothed(0, ids[rows], tokens)
        for k in range(1, self.order + 1):
            lead = contexts[:, self.order - k]
            live = lead != PAD
            if not live.any():
                break
            # id -1: a context with zero counts (never seen, or holding an OOV token)
            known = live & (lead >= 0) & (ids >= 0)
            ids = np.where(known, _find(tab.ctx_keys[k], ids * v + lead), -1)
            s = self._smoothed(k, ids[rows], tokens)
            p = np.where(live[rows], (1.0 - lam) * s + lam * p, p)
        return p

    def _smoothed(self, k: int, ctx: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """(count + delta) / (total + delta |V|) at order k; context id -1 counts 0."""
        tab = self.tables
        v = len(self.vocab)
        at = _find(tab.ngram_keys[k], np.where(ctx >= 0, ctx * v + tokens, -1))
        # index -1 picks the appended 0
        count = np.append(tab.counts[k], 0)[at]
        total = np.append(tab.totals[k], 0)[ctx]
        return (count + self.delta) / (total + self.delta * v)

    def candidate_logprobs(self, contexts: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """(rows, C) log-probabilities renormalized over each row's candidates.

        `candidates` holds vocabulary ids, -1 in unused cells; the row sum
        adds the cells in column order, so columns should be in sorted-token
        order. Unused cells come back as -inf.
        """
        rows, cols = np.nonzero(candidates >= 0)
        probs = np.zeros(candidates.shape)
        probs[rows, cols] = self._candidate_probs(contexts, rows, candidates[rows, cols])
        # Python's sum over a row, left to right, and math.log: both keep the
        # values bitwise equal to the scalar formula (numpy's pairwise sum and
        # np.log do not)
        total = np.zeros(len(probs))
        for c in range(probs.shape[1]):
            total += probs[:, c]
        out = np.full(probs.shape, -np.inf)
        out[rows, cols] = list(map(math.log, (probs[rows, cols] / total[rows]).tolist()))
        return out

    def next_token_logprobs(self, context: list[str],
                            candidates: tuple[str, ...] | list[str] | set[str]
                            ) -> dict[str, float]:
        """Log-probabilities renormalized over exactly the candidate set."""
        if not candidates:
            raise ValueError("candidate set is empty")
        cand = sorted(candidates)
        for t in cand:
            if t not in self._tok_id:
                raise ValueError(f"candidate token {t!r} not in vocabulary")
        ids = np.array([self.token_ids(cand)], dtype=np.int64)
        logp = self.candidate_logprobs(self.context_matrix([context]), ids)
        return dict(zip(cand, logp[0].tolist()))

    def stream_nll(self, stream: list[str]) -> float:
        """Mean negative log-probability over the full vocabulary (held-out use)."""
        nll = 0.0
        for i in range(len(stream)):
            lp = self.next_token_logprobs(stream[:i], self.vocab)
            nll -= lp[stream[i]]
        return nll / max(1, len(stream))

    def ngram_rows(self) -> list[int]:
        """Number of distinct n-grams per order."""
        return [len(keys) for keys in self.tables.ngram_keys]


# ---------------------------------------------------------------------------
# Counting

@dataclass
class NgramIndex:
    """Every n-gram occurrence of a set of user streams, numbered once.

    Per order k: `ctx_keys[k]` and `ngram_keys[k]` are the sorted keys of every
    context and n-gram seen in any stream; `ngram_ids[k]` and `owners[k]` give
    each occurrence's n-gram and user. Any reweighting of the users (a
    bootstrap template) is then one `bincount` per order.
    """

    users: list[str]
    vocab_size: int
    ctx_keys: list[np.ndarray]
    ngram_keys: list[np.ndarray]
    ngram_ids: list[np.ndarray]
    owners: list[np.ndarray]

    def tables(self, weights: np.ndarray) -> NgramTables:
        """Tables counting user j's stream weights[j] times, zero rows dropped."""
        v = self.vocab_size
        out = NgramTables([], [], [], [])
        new_ids = np.zeros(1, dtype=np.int64)
        for k in range(len(self.ngram_keys)):
            n_ctx = len(self.ctx_keys[k])
            count = np.bincount(self.ngram_ids[k], weights=weights[self.owners[k]],
                                minlength=len(self.ngram_keys[k])).astype(np.int64)
            ctx_of = self.ngram_keys[k] // v
            total = np.bincount(ctx_of, weights=count, minlength=n_ctx).astype(np.int64)
            keep_ctx = total > 0
            keep = count > 0
            # contexts renumbered over the kept ones; key order is unchanged
            # because a kept context's suffix is kept too
            parent = self.ctx_keys[k] // v
            out.ctx_keys.append((new_ids[parent] * v + self.ctx_keys[k] % v)[keep_ctx])
            out.totals.append(total[keep_ctx])
            new_ids = np.cumsum(keep_ctx) - 1
            out.ngram_keys.append(new_ids[ctx_of[keep]] * v + self.ngram_keys[k][keep] % v)
            out.counts.append(count[keep])
        return out


def count_ngrams(streams: dict[str, list[str]], order: int,
                 vocab: list[str]) -> NgramIndex:
    """Number the n-grams of orders 0..order in the non-empty streams (users sorted)."""
    tok_id = {t: k for k, t in enumerate(vocab)}
    users = sorted(u for u, s in streams.items() if s)
    ids, owner, pos = [], [], []
    for j, u in enumerate(users):
        for i, t in enumerate(streams[u]):
            if t not in tok_id:
                raise ValueError(f"stream token {t!r} not in vocabulary")
            ids.append(tok_id[t])
            owner.append(j)
            pos.append(i)
    tok = np.array(ids, dtype=np.int64)
    owner_arr = np.array(owner, dtype=np.int64)
    pos_arr = np.array(pos, dtype=np.int64)
    v = len(vocab)
    index = NgramIndex(users, v, [], [], [], [])
    ctx = np.zeros(len(tok), dtype=np.int64)  # order-0 context id at every position
    at = np.arange(len(tok))
    for k in range(order + 1):
        if k:
            deep = pos_arr[at] >= k
            at = at[deep]
            keys, ctx = np.unique(ctx[deep] * v + tok[at - k], return_inverse=True)
        else:
            keys = np.zeros(min(1, len(tok)), dtype=np.int64)
        ngram_keys, ngram_ids = np.unique(ctx * v + tok[at], return_inverse=True)
        index.ctx_keys.append(keys)
        index.ngram_keys.append(ngram_keys)
        index.ngram_ids.append(ngram_ids)
        index.owners.append(owner_arr[at])
    return index


def _merge_tables(a: NgramTables, b: NgramTables, v: int) -> NgramTables:
    """Tables holding the summed counts of a and b."""
    out = NgramTables([], [], [], [])
    map_a = map_b = np.zeros(1, dtype=np.int64)
    for k in range(len(a.ctx_keys)):
        ka = map_a[a.ctx_keys[k] // v] * v + a.ctx_keys[k] % v
        kb = map_b[b.ctx_keys[k] // v] * v + b.ctx_keys[k] % v
        ctx_keys = np.union1d(ka, kb)
        map_a, map_b = np.searchsorted(ctx_keys, ka), np.searchsorted(ctx_keys, kb)
        totals = np.zeros(len(ctx_keys), dtype=np.int64)
        totals[map_a] += a.totals[k]
        totals[map_b] += b.totals[k]
        na = map_a[a.ngram_keys[k] // v] * v + a.ngram_keys[k] % v
        nb = map_b[b.ngram_keys[k] // v] * v + b.ngram_keys[k] % v
        ngram_keys = np.union1d(na, nb)
        counts = np.zeros(len(ngram_keys), dtype=np.int64)
        counts[np.searchsorted(ngram_keys, na)] += a.counts[k]
        counts[np.searchsorted(ngram_keys, nb)] += b.counts[k]
        out.ctx_keys.append(ctx_keys)
        out.totals.append(totals)
        out.ngram_keys.append(ngram_keys)
        out.counts.append(counts)
    return out


def train_markov_scorer(streams: dict[str, list[str]], template_id: int,
                        cfg: ScorerConfig, index_type: str,
                        vocab: list[str] | None = None,
                        index: NgramIndex | None = None) -> MarkovScorer:
    """Count n-grams over per-user token streams for one template variant.

    `index` is `count_ngrams(streams, cfg.order, vocab)`; pass it to share one
    counting pass between the templates of the same streams.
    """
    cfg.validate()
    streams = {u: s for u, s in streams.items() if s}
    if not streams:
        raise ValueError("no non-empty training streams")
    users = sorted(streams)
    if vocab is None:
        vocab = sorted({t for s in streams.values() for t in s})
    if index is None:
        index = count_ngrams(streams, cfg.order, vocab)
    if (index.users != users or index.vocab_size != len(vocab)
            or len(index.ngram_keys) != cfg.order + 1):
        raise ValueError("n-gram index does not match the streams, vocab or order")
    if template_id == 1:
        weights = np.ones(len(users), dtype=np.int64)
    else:
        rng = np.random.default_rng([cfg.seed, template_id])
        weights = np.bincount(rng.integers(0, len(users), size=len(users)),
                              minlength=len(users))
    return MarkovScorer(order=cfg.order, delta=cfg.delta,
                        backoff_lambda=cfg.backoff_lambda,
                        template_id=template_id, index_type=index_type,
                        vocab=vocab, tables=index.tables(weights))


# ---------------------------------------------------------------------------
# Checkpoints: header lines, then per order k the lines `ctx<k>`, `ngram<k>` and
# `count<k>`, each followed by its integers in decimal. Totals are recomputed.

SCORER_MAGIC = "MARKOV_SCORER v2"


def _array_line(name: str, values: np.ndarray) -> str:
    return " ".join([name, *map(str, values.tolist())])


def save_scorer(scorer: MarkovScorer, path: str | Path) -> None:
    tab = scorer.tables
    lines = [SCORER_MAGIC,
             f"index_type {scorer.index_type}",
             f"template {scorer.template_id}",
             f"order {scorer.order}",
             f"delta {scorer.delta!r}",
             f"lambda {scorer.backoff_lambda!r}",
             "vocab " + " ".join(scorer.vocab),
             "contexts " + " ".join(str(len(x)) for x in tab.ctx_keys),
             "ngrams " + " ".join(str(len(x)) for x in tab.ngram_keys),
             "counts"]
    for k in range(scorer.order + 1):
        lines += [_array_line(f"ctx{k}", tab.ctx_keys[k]),
                  _array_line(f"ngram{k}", tab.ngram_keys[k]),
                  _array_line(f"count{k}", tab.counts[k])]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scorer(path: str | Path) -> MarkovScorer:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rerun = "; rerun the 'train-scorers' stage"
    if not lines or lines[0] != SCORER_MAGIC:
        found = lines[0] if lines else "an empty file"
        raise ValueError(f"{path}: expected a {SCORER_MAGIC} checkpoint, found {found!r}{rerun}")
    header: dict[str, str] = {}
    body_at = None
    for k, line in enumerate(lines[1:], start=1):
        if line == "counts":
            body_at = k + 1
            break
        key, _, value = line.partition(" ")
        header[key] = value
    if body_at is None:
        raise ValueError(f"{path}: missing counts section{rerun}")
    missing = [key for key in ("index_type", "template", "order", "delta", "lambda",
                               "vocab", "contexts", "ngrams") if key not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}{rerun}")
    order = int(header["order"])
    vocab = header["vocab"].split(" ") if header["vocab"] else []
    sizes = {"ctx": [int(x) for x in header["contexts"].split()],
             "ngram": [int(x) for x in header["ngrams"].split()]}
    body = lines[body_at:]
    if len(body) != 3 * (order + 1) or any(len(s) != order + 1 for s in sizes.values()):
        raise ValueError(f"{path}: expected {3 * (order + 1)} array lines for order "
                         f"{order}, found {len(body)}{rerun}")
    arrays: dict[str, list[np.ndarray]] = {"ctx": [], "ngram": [], "count": []}
    for n, line in enumerate(body):
        k, name = n // 3, ("ctx", "ngram", "count")[n % 3]
        tag, *values = line.split(" ")
        want = sizes["ctx" if name == "ctx" else "ngram"][k]
        if tag != f"{name}{k}" or len(values) != want:
            raise ValueError(f"{path}: line {tag!r} holds {len(values)} values, "
                             f"header says {name}{k} has {want}{rerun}")
        arrays[name].append(np.array(values, dtype=np.int64))
    v = len(vocab)
    totals = [np.bincount(keys // v, weights=counts, minlength=len(ctx)).astype(np.int64)
              for ctx, keys, counts in zip(arrays["ctx"], arrays["ngram"], arrays["count"])]
    return MarkovScorer(order=order, delta=float(header["delta"]),
                        backoff_lambda=float(header["lambda"]),
                        template_id=int(header["template"]),
                        index_type=header["index_type"], vocab=vocab,
                        tables=NgramTables(arrays["ctx"], totals,
                                           arrays["ngram"], arrays["count"]))
