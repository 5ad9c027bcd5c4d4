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
operations per order. `TemplateStack` scores the templates of one index type
together: each key is looked up once per (context, candidate) pair, and each
template's count is read from a column of one count matrix.

Template variants: template 1 trains on the full per-user streams; template
t > 1 trains on a bootstrap resample (with replacement) of user streams seeded
by (cfg.seed, t), emulating prompt-induced diversity. `count_ngrams` numbers
every n-gram once; each template is one weighted `bincount` over that numbering.
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
        if not self.delta > 0:  # nan fails too
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

    @classmethod
    def from_counts(cls, ctx_keys: list[np.ndarray], ngram_keys: list[np.ndarray],
                    counts: list[np.ndarray], v: int) -> NgramTables:
        """Tables whose context totals are the sums of their n-gram counts."""
        totals = [np.bincount(keys // v, weights=c, minlength=len(ctx)).astype(np.int64)
                  for ctx, keys, c in zip(ctx_keys, ngram_keys, counts)]
        return cls(list(ctx_keys), totals, list(ngram_keys), list(counts))


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

    def candidate_logprobs(self, contexts: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """(rows, C) log-probabilities renormalized over each row's candidates.

        `contexts` comes from `context_matrix` (or has its layout); `candidates`
        holds vocabulary ids, -1 in unused cells. This is the one-template case
        of `TemplateStack.logprobs`.
        """
        rows = np.arange(len(contexts))
        return TemplateStack([self]).logprobs(contexts, candidates, rows, np.zeros_like(rows))

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

    def ngram_rows(self) -> list[int]:
        """Number of distinct n-grams with a nonzero count, per order."""
        return [int(np.count_nonzero(c)) for c in self.tables.counts]


def _same_model(a: MarkovScorer, b: MarkovScorer) -> bool:
    """True when a and b differ at most in template id and counts."""
    return ((a.index_type, a.order, a.delta, a.backoff_lambda, a.vocab)
            == (b.index_type, b.order, b.delta, b.backoff_lambda, b.vocab)
            and all(x is y or np.array_equal(x, y)
                    for x, y in zip(a.tables.ctx_keys + a.tables.ngram_keys,
                                    b.tables.ctx_keys + b.tables.ngram_keys)))


class TemplateStack:
    """The templates of one index type, scored together over their shared keys.

    Per order k, `counts[k]` and `totals[k]` hold the templates' n-gram counts
    and context totals key-major: key i's value under template t is at
    i * T + t. A last key row of zeros makes key index -1 (absent) read 0.
    """

    def __init__(self, scorers: list[MarkovScorer]):
        first = scorers[0]
        for t, sc in enumerate(scorers[1:], start=2):
            if not _same_model(sc, first):
                raise ValueError(f"scorer {t} of {len(scorers)} does not share the index "
                                 "type, order, smoothing, vocab and keys of scorer 1")
        self.order, self.delta, self.lam = first.order, first.delta, first.backoff_lambda
        self.v, self.templates = len(first.vocab), len(scorers)
        self.ctx_keys, self.ngram_keys = first.tables.ctx_keys, first.tables.ngram_keys

        def stacked(arrays: list[np.ndarray]) -> np.ndarray:
            out = np.zeros((len(arrays[0]) + 1, len(arrays)), dtype=np.int64)
            for t, a in enumerate(arrays):
                out[:-1, t] = a
            return out.ravel()
        self.counts = [stacked([sc.tables.counts[k] for sc in scorers])
                       for k in range(self.order + 1)]
        self.totals = [stacked([sc.tables.totals[k] for sc in scorers])
                       for k in range(self.order + 1)]

    def logprobs(self, contexts: np.ndarray, candidates: np.ndarray, row: np.ndarray,
                 template: np.ndarray) -> np.ndarray:
        """(len(row), C) log-probabilities of candidates[row[i]] after contexts[row[i]]
        under template index template[i], renormalized over each row's candidates.

        `contexts` has the layout of `MarkovScorer.context_matrix`; `candidates`
        holds vocabulary ids, -1 in unused cells. Key lookups run once per
        (context, candidate) cell, however many output rows read it. The row
        sum adds the cells in column order, so columns should be in
        sorted-token order. Unused cells come back as -inf.
        """
        cells = np.full(candidates.shape, -1, dtype=np.int64)
        at_row, at_col = np.nonzero(candidates >= 0)
        cells[at_row, at_col] = np.arange(len(at_row))
        rows, cols = np.nonzero(cells[row] >= 0)
        probs = np.zeros((len(row), candidates.shape[1]))
        probs[rows, cols] = self._probs(contexts, at_row, candidates[at_row, at_col],
                                        cells[row[rows], cols], template[rows])
        # Python's sum over a row, left to right, and math.log: both keep the
        # values bitwise equal to the scalar formula (numpy's pairwise sum and
        # np.log do not)
        total = np.zeros(len(probs))
        for c in range(probs.shape[1]):
            total += probs[:, c]
        out = np.full(probs.shape, -np.inf)
        out[rows, cols] = list(map(math.log, (probs[rows, cols] / total[rows]).tolist()))
        return out

    def _probs(self, contexts: np.ndarray, cell_row: np.ndarray, cell_token: np.ndarray,
               cell: np.ndarray, template: np.ndarray) -> np.ndarray:
        """Interpolated probability of each output: the token of cell[i] after
        its context row, under template index template[i].

        The float operations run in the order of the scalar formula, so each
        value is bitwise what a per-candidate evaluation gives.
        """
        v, lam, n_templates = self.v, self.lam, self.templates
        out_row = cell_row[cell]

        def smoothed(k: int, ids: np.ndarray) -> np.ndarray:
            """(count + delta) / (total + delta |V|) at order k; context id -1 counts 0."""
            ctx = ids[cell_row]
            at = _find(self.ngram_keys[k], np.where(ctx >= 0, ctx * v + cell_token, -1))
            count = self.counts[k].take((at * n_templates)[cell] + template)
            total = self.totals[k].take((ids * n_templates)[out_row] + template)
            return (count + self.delta) / (total + self.delta * v)

        ids = np.full(len(contexts), 0 if len(self.ctx_keys[0]) else -1, dtype=np.int64)
        p = smoothed(0, ids)
        for k in range(1, self.order + 1):
            lead = contexts[:, self.order - k]
            live = lead != PAD
            if not live.any():
                break
            # id -1: a context with zero counts (never seen, or holding an OOV token)
            known = live & (lead >= 0) & (ids >= 0)
            ids = np.where(known, _find(self.ctx_keys[k], ids * v + lead), -1)
            p = np.where(live[out_row], (1.0 - lam) * smoothed(k, ids) + lam * p, p)
        return p


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
        """Tables counting user j's stream weights[j] times, over the shared keys.

        A key with count 0 (total 0) scores as an absent one, and a context
        with total 0 has only zero-total extensions, so the zero rows are kept.
        """
        counts = [np.bincount(ids, weights=weights[own], minlength=len(keys)).astype(np.int64)
                  for ids, own, keys in zip(self.ngram_ids, self.owners, self.ngram_keys)]
        return NgramTables.from_counts(self.ctx_keys, self.ngram_keys, counts, self.vocab_size)


def count_ngrams(streams: dict[str, list[str]], order: int,
                 vocab: list[str]) -> NgramIndex:
    """Number the n-grams of orders 0..order in the non-empty streams (users sorted)."""
    tok_id = {t: k for k, t in enumerate(vocab)}
    users = sorted(u for u, s in streams.items() if s)
    try:
        tok = np.array([tok_id[t] for u in users for t in streams[u]], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"stream token {exc.args[0]!r} not in vocabulary") from None
    lengths = np.array([len(streams[u]) for u in users], dtype=np.int64)
    owner_arr = np.repeat(np.arange(len(users)), lengths)
    pos_arr = np.arange(len(tok)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
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
# Checkpoints: one file per index type. Header lines, then per order k the lines
# `ctx<k>` and `ngram<k>`, shared by templates 1..T, and one line `count<k>_t<t>`
# per template, each followed by its integers in decimal. Totals are recomputed.

SCORER_MAGIC = "MARKOV_SCORER v3"


def _array_line(name: str, values: np.ndarray) -> str:
    return " ".join([name, *map(str, values.tolist())])


def save_scorer(scorers: list[MarkovScorer], path: str | Path) -> None:
    """Write the scorers of templates 1..T of one index type, which share their keys."""
    if not scorers:
        raise ValueError("no scorers to save")
    first = scorers[0]
    for t, sc in enumerate(scorers, start=1):
        if sc.template_id != t or not _same_model(sc, first):
            raise ValueError(f"scorer {t} of {len(scorers)} is not template {t} with the "
                             "index type, order, smoothing, vocab and keys of template 1")
    tab = first.tables
    lines = [SCORER_MAGIC,
             f"index_type {first.index_type}",
             f"templates {len(scorers)}",
             f"order {first.order}",
             f"delta {first.delta!r}",
             f"lambda {first.backoff_lambda!r}",
             "vocab " + " ".join(first.vocab),
             "contexts " + " ".join(str(len(x)) for x in tab.ctx_keys),
             "ngrams " + " ".join(str(len(x)) for x in tab.ngram_keys),
             "counts"]
    for k in range(first.order + 1):
        lines += [_array_line(f"ctx{k}", tab.ctx_keys[k]),
                  _array_line(f"ngram{k}", tab.ngram_keys[k])]
        lines += [_array_line(f"count{k}_t{sc.template_id}", sc.tables.counts[k])
                  for sc in scorers]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scorer(path: str | Path) -> list[MarkovScorer]:
    """The scorers of templates 1..T; they share one set of key arrays."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rerun = "; rerun the 'train-scorers' stage"
    if not lines or lines[0] != SCORER_MAGIC:
        found = lines[0] if lines else "an empty file"
        raise ValueError(f"{path}: expected a {SCORER_MAGIC} checkpoint, found {found!r}{rerun}")
    if "counts" not in lines:
        raise ValueError(f"{path}: missing counts section{rerun}")
    body_at = lines.index("counts") + 1
    header = dict(line.partition(" ")[::2] for line in lines[1:body_at - 1])
    missing = [key for key in ("index_type", "templates", "order", "delta", "lambda",
                               "vocab", "contexts", "ngrams") if key not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}{rerun}")
    order, n_templates = int(header["order"]), int(header["templates"])
    vocab = header["vocab"].split(" ") if header["vocab"] else []
    ctx_sizes = [int(x) for x in header["contexts"].split()]
    ngram_sizes = [int(x) for x in header["ngrams"].split()]
    per_order = 2 + n_templates
    body = lines[body_at:]
    if (n_templates < 1 or len(body) != per_order * (order + 1)
            or len(ctx_sizes) != order + 1 or len(ngram_sizes) != order + 1):
        raise ValueError(f"{path}: expected {per_order * (order + 1)} array lines for "
                         f"order {order} and {n_templates} templates, found "
                         f"{len(body)}{rerun}")
    rows: list[list[np.ndarray]] = [[] for _ in range(per_order)]
    for n, line in enumerate(body):
        k, j = divmod(n, per_order)
        name = f"ctx{k}" if j == 0 else f"ngram{k}" if j == 1 else f"count{k}_t{j - 1}"
        want = ctx_sizes[k] if j == 0 else ngram_sizes[k]
        tag, *values = line.split(" ")
        if tag != name or len(values) != want:
            raise ValueError(f"{path}: line {tag!r} holds {len(values)} values, "
                             f"header says {name} has {want}{rerun}")
        rows[j].append(np.array(values, dtype=np.int64))
    ctx_keys, ngram_keys, *counts = rows
    return [MarkovScorer(order=order, delta=float(header["delta"]),
                         backoff_lambda=float(header["lambda"]), template_id=t,
                         index_type=header["index_type"], vocab=vocab,
                         tables=NgramTables.from_counts(ctx_keys, ngram_keys, c, len(vocab)))
            for t, c in enumerate(counts, start=1)]
