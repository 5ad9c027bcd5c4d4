"""Pluggable next-token probability source over code-token streams.

The reference implementation is a smoothed n-gram model with interpolated
backoff: P_k = (1 - lambda) * (count + delta) / (total + delta * |V|)
              + lambda * P_{k-1},
with the add-delta unigram at order 0. Any object exposing
`next_token_logprobs(context, candidates)` with the same renormalization
contract (exp of values over the candidate set sums to 1) can stand in,
e.g. an autoregressive language model.

Template variants: template 1 trains on the full per-user streams; template
t > 1 trains on a bootstrap resample (with replacement) of user streams seeded
by (cfg.seed, t), emulating prompt-induced diversity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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


class MarkovScorer:
    """Count-based autoregressive scorer over a fixed token vocabulary."""

    def __init__(self, order: int, delta: float, backoff_lambda: float,
                 template_id: int, index_type: str, vocab: list[str]):
        self.order = order
        self.delta = delta
        self.backoff_lambda = backoff_lambda
        self.template_id = template_id
        self.index_type = index_type
        self.vocab = list(vocab)
        self._tok_id = {t: k for k, t in enumerate(self.vocab)}
        # counts[k][context ids][token id] and totals[k][context ids]
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order + 1)]
        self.totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(order + 1)]
        self._cache: dict[tuple, dict[str, float]] = {}

    def add_stream(self, stream: list[str]) -> None:
        ids = [self._tok_id[t] for t in stream]
        for i, tok in enumerate(ids):
            for k in range(min(self.order, i) + 1):
                ctx = tuple(ids[i - k:i])
                table = self.counts[k].setdefault(ctx, {})
                table[tok] = table.get(tok, 0) + 1
                self.totals[k][ctx] = self.totals[k].get(ctx, 0) + 1
        self._cache.clear()

    def _prob(self, ctx: tuple[int, ...], tok: int) -> float:
        v = len(self.vocab)
        p = (self.counts[0].get((), {}).get(tok, 0) + self.delta) / (
            self.totals[0].get((), 0) + self.delta * v)
        lam = self.backoff_lambda
        for k in range(1, len(ctx) + 1):
            sub = ctx[len(ctx) - k:]
            s = (self.counts[k].get(sub, {}).get(tok, 0) + self.delta) / (
                self.totals[k].get(sub, 0) + self.delta * v)
            p = (1.0 - lam) * s + lam * p
        return p

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
        tail = context[len(context) - self.order:] if self.order else []
        ctx = tuple(self._tok_id.get(t, -1) for t in tail)
        key = (ctx, tuple(cand))
        hit = self._cache.get(key)
        if hit is not None:
            return dict(hit)
        probs = [self._prob(ctx, self._tok_id[t]) for t in cand]
        total = sum(probs)
        out = {t: math.log(p / total) for t, p in zip(cand, probs)}
        self._cache[key] = out
        return dict(out)

    def stream_nll(self, stream: list[str]) -> float:
        """Mean negative log-probability over the full vocabulary (held-out use)."""
        nll = 0.0
        for i in range(len(stream)):
            lp = self.next_token_logprobs(stream[:i], self.vocab)
            nll -= lp[stream[i]]
        return nll / max(1, len(stream))


def train_markov_scorer(streams: dict[str, list[str]], template_id: int,
                        cfg: ScorerConfig, index_type: str,
                        vocab: list[str] | None = None) -> MarkovScorer:
    """Count n-grams over per-user token streams for one template variant."""
    cfg.validate()
    streams = {u: s for u, s in streams.items() if s}
    if not streams:
        raise ValueError("no non-empty training streams")
    users = sorted(streams)
    if vocab is None:
        vocab = sorted({t for s in streams.values() for t in s})
    scorer = MarkovScorer(order=cfg.order, delta=cfg.delta,
                          backoff_lambda=cfg.backoff_lambda,
                          template_id=template_id, index_type=index_type,
                          vocab=vocab)
    if template_id == 1:
        chosen = users
    else:
        rng = np.random.default_rng([cfg.seed, template_id])
        chosen = [users[j] for j in rng.integers(0, len(users), size=len(users))]
    for u in chosen:
        scorer.add_stream(streams[u])
    return scorer


# ---------------------------------------------------------------------------
# Checkpoints: header lines, then sorted `context-tokens<TAB>token<TAB>count` rows

SCORER_MAGIC = "MARKOV_SCORER v1"


def save_scorer(scorer: MarkovScorer, path: str | Path) -> None:
    lines = [SCORER_MAGIC,
             f"index_type {scorer.index_type}",
             f"template {scorer.template_id}",
             f"order {scorer.order}",
             f"delta {scorer.delta!r}",
             f"lambda {scorer.backoff_lambda!r}",
             "vocab " + " ".join(scorer.vocab),
             "counts"]
    rows = []
    for k in range(scorer.order + 1):
        for ctx, table in scorer.counts[k].items():
            ctx_toks = " ".join(scorer.vocab[c] for c in ctx)
            for tok, count in table.items():
                rows.append((k, ctx_toks, scorer.vocab[tok], count))
    rows.sort()
    lines += [f"{ctx}\t{tok}\t{count}" for _, ctx, tok, count in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scorer(path: str | Path) -> MarkovScorer:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCORER_MAGIC:
        raise ValueError(f"{path}: bad scorer checkpoint header")
    header: dict[str, str] = {}
    body_at = None
    for k, line in enumerate(lines[1:], start=1):
        if line == "counts":
            body_at = k + 1
            break
        key, _, value = line.partition(" ")
        header[key] = value
    if body_at is None:
        raise ValueError(f"{path}: missing counts section")
    scorer = MarkovScorer(order=int(header["order"]), delta=float(header["delta"]),
                          backoff_lambda=float(header["lambda"]),
                          template_id=int(header["template"]),
                          index_type=header["index_type"],
                          vocab=header["vocab"].split(" ") if header["vocab"] else [])
    for line in lines[body_at:]:
        if not line:
            continue
        ctx_str, tok, count = line.split("\t")
        ctx = tuple(scorer._tok_id[t] for t in ctx_str.split(" ")) if ctx_str else ()
        k = len(ctx)
        table = scorer.counts[k].setdefault(ctx, {})
        table[scorer._tok_id[tok]] = int(count)
        scorer.totals[k][ctx] = scorer.totals[k].get(ctx, 0) + int(count)
    return scorer
