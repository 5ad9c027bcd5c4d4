"""Pluggable next-token probability source over code-token streams.

The reference implementation is a smoothed n-gram model with interpolated
backoff: P_k = (1 - lambda) * (count + delta) / (total + delta * |V|)
              + lambda * P_{k-1},
with the add-delta unigram at order 0. Any object exposing
`next_token_logprobs(context, candidates)` with the same renormalization
contract (exp of values over the candidate set sums to 1) can stand in,
e.g. an autoregressive language model.

A `MarkovScorer` counts and scores token ids, indices into its `vocab` (for
code tokens, the code table's id space of `rqrec.vocab`); strings enter only
through `next_token_logprobs` and the checkpoint's `vocab` line.

One `NgramTables` holds the counts of every template of an index type, as
integer arrays per order k. A context of order k (the k tokens before a
position) gets its id through its suffix chain: its key is
`id(order k-1 suffix) * |V| + token at -k`, and its id is the rank of that key
among the sorted context keys of order k. An n-gram's key is
`context id * |V| + next token`. The keys are shared by all templates; counts
and totals are key-major matrices with one column per template, and each
`MarkovScorer` reads its own column. Lookups are `np.searchsorted` over the
sorted keys, so a batch of (context, candidate) pairs is scored in a few array
operations per order, for any mix of templates: each key is looked up once and
every template's count is gathered from its row.

Template variants: template 1 trains on the full per-user streams; template
t > 1 trains on a bootstrap resample (with replacement) of user streams seeded
by (cfg.seed, t), emulating prompt-induced diversity. `count_ngrams` numbers
every n-gram once; each template is one weighted `bincount` over that numbering,
and every table's context totals are the sums of its n-gram counts
(`NgramTables.from_counts`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataio import decoded, refusal, replace_on_close

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
    """The tables of an index type's templates, per order k.

    `ctx_keys[k]` and `ngram_keys[k]` are sorted and shared by every template.
    `totals[k]` and `counts[k]` are int64 of shape (len(keys) + 1, templates),
    key-major: row i, column t is key i's value under template column t. The
    last row is zeros, so key index -1 (absent) reads 0.
    """

    ctx_keys: list[np.ndarray]
    totals: list[np.ndarray]
    ngram_keys: list[np.ndarray]
    counts: list[np.ndarray]

    @classmethod
    def from_counts(cls, ctx_keys: list[np.ndarray], ngram_keys: list[np.ndarray],
                    counts: list[np.ndarray], v: int) -> NgramTables:
        """Tables whose context totals are the sums of their n-gram counts, per column."""
        totals = []
        for ctx, keys, c in zip(ctx_keys, ngram_keys, counts):
            parent = keys // v
            total = np.zeros((len(ctx) + 1, c.shape[1]), dtype=np.int64)
            for t in range(c.shape[1]):
                total[:-1, t] = np.bincount(parent, weights=c[:-1, t], minlength=len(ctx))
            totals.append(total)
        return cls(list(ctx_keys), totals, list(ngram_keys), list(counts))


def _find(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted keys, -1 where absent."""
    if len(keys) == 0:
        return np.full(len(query), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, at, -1)


class MarkovScorer:
    """Count-based autoregressive scorer of one template: column `column` of its tables."""

    def __init__(self, order: int, delta: float, backoff_lambda: float,
                 template_id: int, index_type: str, vocab: list[str],
                 tables: NgramTables | None = None, column: int = 0):
        self.order = order
        self.delta = delta
        self.backoff_lambda = backoff_lambda
        self.template_id = template_id
        self.index_type = index_type
        self.vocab = list(vocab)
        self.tables = (tables if tables is not None
                       else count_ngrams({}, order, len(self.vocab), np.ones((1, 0))))
        self.column = column

    @cached_property
    def _tok_id(self) -> dict[str, int]:
        """Token string -> id, for the string contract of `next_token_logprobs` only."""
        return {t: k for k, t in enumerate(self.vocab)}

    def add_stream(self, stream) -> None:
        """Count one more id stream into this template; the scorer then has a table of its own."""
        new = count_ngrams({"": stream}, self.order, len(self.vocab), np.ones((1, 1)))
        self.tables = _merge_tables(self.tables, self.column, new, len(self.vocab))
        self.column = 0

    def context_matrix(self, contexts) -> np.ndarray:
        """(rows, order): each context's last `order` ids (OOV allowed), left-padded with PAD."""
        out = np.full((len(contexts), self.order), PAD, dtype=np.int64)
        for r, context in enumerate(contexts):
            tail = context[max(0, len(context) - self.order):]
            if len(tail):
                out[r, self.order - len(tail):] = tail
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
        ids = np.array([[self._tok_id[t] for t in cand]], dtype=np.int64)
        contexts = self.context_matrix([[self._tok_id.get(t, OOV) for t in context]])
        logp = self.logprobs(contexts, ids, np.zeros(1, dtype=np.int64), np.full(1, self.column))
        return dict(zip(cand, logp[0].tolist()))

    def ngram_rows(self) -> list[int]:
        """Number of distinct n-grams with a nonzero count, per order."""
        return [int(np.count_nonzero(c[:, self.column])) for c in self.tables.counts]

    def logprobs(self, contexts: np.ndarray, candidates: np.ndarray, row: np.ndarray,
                 column: np.ndarray) -> np.ndarray:
        """(len(row), C) log-probabilities of candidates[row[i]] after contexts[row[i]]
        under table column column[i], renormalized over each row's candidates.

        `contexts` has the layout of `context_matrix`; `candidates` holds
        vocabulary ids, -1 in unused cells. Key lookups run once per
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
                                        cells[row[rows], cols], column[rows])
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
               cell: np.ndarray, column: np.ndarray) -> np.ndarray:
        """Interpolated probability of each output: the token of cell[i] after
        its context row, under table column column[i].

        The float operations run in the order of the scalar formula, so each
        value is bitwise what a per-candidate evaluation gives.
        """
        tab, v, lam = self.tables, len(self.vocab), self.backoff_lambda
        n_columns = tab.counts[0].shape[1]
        out_row = cell_row[cell]

        def smoothed(k: int, ids: np.ndarray) -> np.ndarray:
            """(count + delta) / (total + delta |V|) at order k; context id -1 counts 0."""
            ctx = ids[cell_row]
            at = _find(tab.ngram_keys[k], np.where(ctx >= 0, ctx * v + cell_token, -1))
            count = tab.counts[k].take((at * n_columns)[cell] + column)
            total = tab.totals[k].take((ids * n_columns)[out_row] + column)
            return (count + self.delta) / (total + self.delta * v)

        ids = np.full(len(contexts), 0 if len(tab.ctx_keys[0]) else -1, dtype=np.int64)
        p = smoothed(0, ids)
        for k in range(1, self.order + 1):
            lead = contexts[:, self.order - k]
            live = lead != PAD
            if not live.any():
                break
            # id -1: a context with zero counts (never seen, or holding an OOV token)
            known = live & (lead >= 0) & (ids >= 0)
            ids = np.where(known, _find(tab.ctx_keys[k], ids * v + lead), -1)
            p = np.where(live[out_row], (1.0 - lam) * smoothed(k, ids) + lam * p, p)
        return p


def check_shared_table(scorers: list[MarkovScorer]) -> None:
    """Refuse scorers that are not templates of one model: one table, the same settings."""
    def model(sc: MarkovScorer) -> tuple:
        return id(sc.tables), sc.index_type, sc.order, sc.delta, sc.backoff_lambda, sc.vocab
    for n, sc in enumerate(scorers[1:], start=2):
        if model(sc) != model(scorers[0]):
            raise ValueError(f"scorer {n} of {len(scorers)} (template {sc.template_id}) does "
                             "not share the n-gram table, index type, order, smoothing and "
                             "vocab of scorer 1")


# ---------------------------------------------------------------------------
# Counting

def count_ngrams(streams: dict, order: int, vocab_size: int,
                 weights: np.ndarray) -> NgramTables:
    """Tables of the n-grams of orders 0..order in the non-empty id streams.

    `weights` is (templates, users) over the non-empty streams' users, sorted:
    column t counts user j's stream weights[t, j] times, over keys shared by
    every column. A key with count 0 (total 0) scores as an absent one, and a
    context with total 0 has only zero-total extensions, so the zero rows are
    kept.
    """
    users = sorted(u for u, s in streams.items() if len(s))
    tok = np.concatenate([np.zeros(0, dtype=np.int64),
                          *(np.asarray(streams[u], dtype=np.int64) for u in users)])
    outside = tok[(tok < 0) | (tok >= vocab_size)]
    if len(outside):
        raise ValueError(f"stream token id {outside[0]} not in a vocabulary of {vocab_size}")
    lengths = np.array([len(streams[u]) for u in users], dtype=np.int64)
    owner_arr = np.repeat(np.arange(len(users)), lengths)
    pos_arr = np.arange(len(tok)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ctx_keys, ngram_keys, counts = [], [], []
    ctx = np.zeros(len(tok), dtype=np.int64)  # order-0 context id at every position
    at = np.arange(len(tok))
    for k in range(order + 1):
        if k:
            deep = pos_arr[at] >= k
            at = at[deep]
            keys, ctx = np.unique(ctx[deep] * vocab_size + tok[at - k], return_inverse=True)
        else:
            keys = np.zeros(min(1, len(tok)), dtype=np.int64)
        ngrams, ngram_ids = np.unique(ctx * vocab_size + tok[at], return_inverse=True)
        owners = owner_arr[at]  # each occurrence's user
        c = np.zeros((len(ngrams) + 1, len(weights)), dtype=np.int64)
        for t, w in enumerate(weights):  # one float column at a time
            c[:-1, t] = np.bincount(ngram_ids, weights=w[owners], minlength=len(ngrams))
        ctx_keys.append(keys)
        ngram_keys.append(ngrams)
        counts.append(c)
    return NgramTables.from_counts(ctx_keys, ngram_keys, counts, vocab_size)


def _merge_tables(a: NgramTables, column: int, b: NgramTables, v: int) -> NgramTables:
    """One-template tables holding the summed counts of a's column and b's first."""
    ctx_keys, ngram_keys, counts = [], [], []
    map_a = map_b = np.zeros(1, dtype=np.int64)
    for k in range(len(a.ctx_keys)):
        ka = map_a[a.ctx_keys[k] // v] * v + a.ctx_keys[k] % v
        kb = map_b[b.ctx_keys[k] // v] * v + b.ctx_keys[k] % v
        ctx_keys.append(np.union1d(ka, kb))
        map_a, map_b = np.searchsorted(ctx_keys[k], ka), np.searchsorted(ctx_keys[k], kb)
        na = map_a[a.ngram_keys[k] // v] * v + a.ngram_keys[k] % v
        nb = map_b[b.ngram_keys[k] // v] * v + b.ngram_keys[k] % v
        ngram_keys.append(np.union1d(na, nb))
        c = np.zeros((len(ngram_keys[k]) + 1, 1), dtype=np.int64)
        c[np.searchsorted(ngram_keys[k], na), 0] += a.counts[k][:-1, column]
        c[np.searchsorted(ngram_keys[k], nb), 0] += b.counts[k][:-1, 0]
        counts.append(c)
    return NgramTables.from_counts(ctx_keys, ngram_keys, counts, v)


def train_markov_scorer(streams: dict, template_ids: list[int], cfg: ScorerConfig,
                        index_type: str, vocab: list[str]) -> list[MarkovScorer]:
    """One scorer per template id, over per-user id streams into `vocab` counted once.

    The scorers share one `NgramTables`; scorer i reads its column i.
    """
    cfg.validate()
    if not any(len(s) for s in streams.values()):
        raise ValueError("no non-empty training streams")
    n = sum(1 for s in streams.values() if len(s))
    weights = np.ones((len(template_ids), n), dtype=np.int64)
    for w, template_id in zip(weights, template_ids):
        if template_id != 1:
            rng = np.random.default_rng([cfg.seed, template_id])
            w[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    tables = count_ngrams(streams, cfg.order, len(vocab), weights)
    return [MarkovScorer(order=cfg.order, delta=cfg.delta, backoff_lambda=cfg.backoff_lambda,
                         template_id=template_id, index_type=index_type, vocab=vocab,
                         tables=tables, column=column)
            for column, template_id in enumerate(template_ids)]


# ---------------------------------------------------------------------------
# Checkpoints: one file per index type. Header lines, then per order k the lines
# `ctx<k>` and `ngram<k>`, shared by templates 1..T, and one line `count<k>_t<t>`
# per template, each followed by its integers in decimal. Totals are recomputed.

SCORER_MAGIC = "MARKOV_SCORER v3"


def _array_line(name: str, values: np.ndarray) -> str:
    return " ".join([name, *map(str, values.tolist())])


def save_scorer(scorers: list[MarkovScorer], path: str | Path) -> None:
    """Write the scorers of templates 1..T of one index type, which share one table."""
    if not scorers:
        raise ValueError("no scorers to save")
    if [sc.template_id for sc in scorers] != list(range(1, len(scorers) + 1)):
        raise ValueError(f"scorers of templates {[sc.template_id for sc in scorers]}, "
                         f"not 1..{len(scorers)}")
    check_shared_table(scorers)
    first = scorers[0]
    tab = first.tables
    header = [SCORER_MAGIC,
              f"index_type {first.index_type}",
              f"templates {len(scorers)}",
              f"order {first.order}",
              f"delta {first.delta!r}",
              f"lambda {first.backoff_lambda!r}",
              "vocab " + " ".join(first.vocab),
              "contexts " + " ".join(str(len(x)) for x in tab.ctx_keys),
              "ngrams " + " ".join(str(len(x)) for x in tab.ngram_keys),
              "counts"]
    with replace_on_close(path) as fh:
        fh.writelines(line + "\n" for line in header)
        for k in range(first.order + 1):
            lines = [_array_line(f"ctx{k}", tab.ctx_keys[k]),
                     _array_line(f"ngram{k}", tab.ngram_keys[k])]
            lines += [_array_line(f"count{k}_t{sc.template_id}", tab.counts[k][:-1, sc.column])
                      for sc in scorers]
            fh.writelines(line + "\n" for line in lines)


def load_scorer(path: str | Path) -> list[MarkovScorer]:
    """The scorers of templates 1..T: columns 0..T-1 of one shared table."""
    lines = decoded(path, Path(path).read_bytes()).splitlines()
    try:
        if not lines or lines[0] != SCORER_MAGIC:
            found = lines[0] if lines else "an empty file"
            raise ValueError(f"expected a {SCORER_MAGIC} checkpoint, found {found!r}")
        if "counts" not in lines:
            raise ValueError("missing counts section")
        body_at = lines.index("counts") + 1
        header = dict(line.partition(" ")[::2] for line in lines[1:body_at - 1])
        missing = [key for key in ("index_type", "templates", "order", "delta", "lambda",
                                   "vocab", "contexts", "ngrams") if key not in header]
        if missing:
            raise ValueError(f"header lacks {', '.join(missing)}")
        try:
            order, n_templates = int(header["order"]), int(header["templates"])
            delta, lam = float(header["delta"]), float(header["lambda"])
            ctx_sizes = [int(x) for x in header["contexts"].split()]
            ngram_sizes = [int(x) for x in header["ngrams"].split()]
        except ValueError as exc:
            raise ValueError(f"malformed header ({exc})") from None
        per_order, body = 2 + n_templates, lines[body_at:]
        if (n_templates < 1 or order < 0 or len(body) != per_order * (order + 1)
                or len(ctx_sizes) != order + 1 or len(ngram_sizes) != order + 1):
            raise ValueError(f"expected {per_order * (order + 1)} array lines for order "
                             f"{order} and {n_templates} templates, found {len(body)}")

        def array(n: int, name: str, want: int) -> np.ndarray:
            tag, *values = body[n].split(" ")
            if tag != name or len(values) != want:
                raise ValueError(f"line {tag!r} holds {len(values)} values, header says "
                                 f"{name} has {want}")
            try:
                out = np.array(values, dtype=np.int64)
            except ValueError as exc:
                raise ValueError(f"line {tag!r}: {exc}") from None
            if name.startswith("count"):
                if np.any(out < 0):
                    raise ValueError(f"line {tag!r} holds a negative count")
            elif np.any(out[1:] <= out[:-1]):  # lookups binary-search the keys
                raise ValueError(f"line {tag!r}: keys are not strictly increasing")
            return out

        vocab = header["vocab"].split(" ") if header["vocab"] else []
        ctx_keys, ngram_keys, counts = [], [], []
        for k in range(order + 1):
            at = k * per_order
            ctx_keys.append(array(at, f"ctx{k}", ctx_sizes[k]))
            # a header size is used only once a line of that many values has been read
            ngram_keys.append(array(at + 1, f"ngram{k}", ngram_sizes[k]))
            counts.append(np.zeros((ngram_sizes[k] + 1, n_templates), dtype=np.int64))
            for t in range(n_templates):
                counts[k][:-1, t] = array(at + 2 + t, f"count{k}_t{t + 1}", ngram_sizes[k])
        tables = NgramTables.from_counts(ctx_keys, ngram_keys, counts, len(vocab))
    except ValueError as exc:
        raise ValueError(refusal(path, str(exc))) from None
    return [MarkovScorer(order=order, delta=delta, backoff_lambda=lam, template_id=t,
                         index_type=header["index_type"], vocab=vocab, tables=tables,
                         column=t - 1)
            for t in range(1, n_templates + 1)]
