"""Collaborative item embeddings from the train split only.

Free user/item embeddings are propagated over the symmetric-normalized bipartite
interaction graph (mean of all layer outputs), scored by inner product, and
optimized with a pairwise ranking loss against uniformly sampled negatives.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataio import EmbeddingMatrix, SplitDataset

log = logging.getLogger(__name__)


@dataclass
class CollabConfig:
    dim: int = 64
    layers: int = 2
    epochs: int = 30
    learning_rate: float = 0.5
    neg_samples_per_positive: int = 1
    seed: int = 0

    def validate(self) -> None:
        for name, low in (("dim", 1), ("layers", 0), ("epochs", 0),
                          ("neg_samples_per_positive", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.learning_rate > 0:  # nan fails too
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


# Columns summed per bincount call: bounds the int64 flat index, and the block
# of values it adds, to 16 entries per scattered row, whatever the row width.
_BLOCK = 16


def _flat_index(rows: np.ndarray, width: int) -> np.ndarray:
    """Cell ids `row * width + col` of a (len(rows), width) block, row-major."""
    return (np.asarray(rows, dtype=np.int64)[:, None] * width + np.arange(width)).ravel()


def scatter_column_blocks(n_rows: int, rows: np.ndarray, d: int,
                          block: Callable[[int, int], np.ndarray],
                          flat: np.ndarray | None = None) -> np.ndarray:
    """Sum value rows into an (n_rows, d) zero array at `rows`, in column blocks.

    `block(c, w)` returns columns c..c+w of the values, one row per entry of
    `rows`, so no caller holds more than one block of them at a time.
    `np.bincount` adds its weights to each cell in entry order, so the result
    equals, bit for bit, an unbuffered `np.add` scatter (the ufunc's `at`)
    over the same rows. Blocks are `min(d, _BLOCK)` columns wide; `flat` may
    pass `_flat_index(rows, min(d, _BLOCK))` built beforehand.
    """
    width = min(d, _BLOCK)
    if flat is None:
        flat = _flat_index(rows, width)
    out = np.empty((n_rows, d))
    for c in range(0, d, width):
        w = min(width, d - c)
        out[:, c:c + w] = np.bincount(flat if w == width else _flat_index(rows, w),
                                      weights=block(c, w).ravel(),
                                      minlength=n_rows * w).reshape(n_rows, w)
    return out


def scatter_add_rows(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum the rows of `values` into an (n_rows, d) zero array at `rows`, in order."""
    return scatter_column_blocks(n_rows, rows, values.shape[1],
                                 lambda c, w: values[:, c:c + w])


@dataclass
class NormalizedAdjacency:
    """Symmetric-normalized bipartite graph over stacked [users; items] rows."""

    n_users: int
    n_items: int
    user_rows: np.ndarray   # edge endpoints, user side (global row index)
    item_rows: np.ndarray   # edge endpoints, item side (global row index)
    weights: np.ndarray     # 1/sqrt(deg_u * deg_i) per edge
    # both directions of every edge, user side first: destination rows, source
    # rows and weights, and the flat destination index for the last width seen
    _dst: np.ndarray = field(init=False, repr=False)
    _src: np.ndarray = field(init=False, repr=False)
    _w: np.ndarray = field(init=False, repr=False)
    _flat: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._dst = np.concatenate([self.user_rows, self.item_rows])
        self._src = np.concatenate([self.item_rows, self.user_rows])
        self._w = np.concatenate([self.weights, self.weights])[:, None]

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One normalized-adjacency multiplication A_hat @ x.

        One ordered scatter over both directions: user rows and item rows are
        disjoint, so every output cell sums the same terms in the same order
        as one scatter per direction.
        """
        if x.shape[0] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} rows, got {x.shape[0]}")
        d = x.shape[1]
        width = min(d, _BLOCK)
        if self._flat is None or self._flat.size != self._dst.size * width:
            self._flat = _flat_index(self._dst, width)

        def block(c: int, w: int) -> np.ndarray:
            vals = np.take(x[:, c:c + w], self._src, axis=0)
            vals *= self._w
            return vals

        return scatter_column_blocks(self.n_nodes, self._dst, d, block, self._flat)


def build_adjacency(train: dict[str, list[str]],
                    users: list[str], items: list[str]) -> NormalizedAdjacency:
    u_index = {u: k for k, u in enumerate(users)}
    i_index = {i: k for k, i in enumerate(items)}
    pairs = sorted({(u_index[u], i_index[i]) for u, seq in train.items() for i in seq})
    u_rows, i_rows = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    u_deg = np.bincount(u_rows, minlength=len(users)).astype(np.float64)
    i_deg = np.bincount(i_rows, minlength=len(items)).astype(np.float64)
    w = 1.0 / np.sqrt(u_deg[u_rows] * i_deg[i_rows])
    return NormalizedAdjacency(n_users=len(users), n_items=len(items),
                               user_rows=u_rows, item_rows=i_rows + len(users), weights=w)


def propagate(adjacency: NormalizedAdjacency, embeddings: np.ndarray, layers: int) -> np.ndarray:
    """Mean over layers 0..layers of repeated normalized-adjacency multiplication."""
    acc = embeddings.copy()
    cur = embeddings
    for _ in range(layers):
        cur = adjacency.apply(cur)
        acc += cur
    return acc / (layers + 1)


def bpr_loss(diff: np.ndarray) -> float:
    """Mean -log sigmoid(diff) over triples, diff = score(u, pos) - score(u, neg)."""
    return float(np.mean(np.logaddexp(0.0, -diff)))


@dataclass
class CollabState:
    """Trained state; `vectors` holds the layer-averaged propagated representations."""

    users: list[str]
    items: list[str]
    vectors: np.ndarray           # (n_users + n_items, dim)
    loss_history: list[float] = field(default_factory=list)
    edges: int = 0                # distinct observed (user, item) pairs
    negatives_redrawn: int = 0    # draws beyond the first per triple, all epochs

    def item_matrix(self) -> EmbeddingMatrix:
        return EmbeddingMatrix(self.items, self.vectors[len(self.users):])

    def counters(self) -> dict[str, float | int | None]:
        """Deterministic training counters for the stage manifest."""
        return {"edges": self.edges,
                "loss_first": self.loss_history[0] if self.loss_history else None,
                "loss_last": self.loss_history[-1] if self.loss_history else None,
                "negatives_redrawn": self.negatives_redrawn}


def _sample_negatives(rng: np.random.Generator, users: np.ndarray, edge_keys: np.ndarray,
                      degree: np.ndarray, n_items: int) -> tuple[np.ndarray, int]:
    """One uniform item per triple, redrawn while it is a positive of its user.

    `edge_keys` are the sorted `u * n_items + i` keys of the observed pairs.
    Draws go in triple order, so the RNG stream is that of checking every
    triple in turn. A user who owns every item keeps the first draw. Returns
    the negatives and the number of redraws.
    """
    neg = rng.integers(0, n_items, size=len(users))
    keys = users * n_items + neg
    at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
    hits = np.flatnonzero(edge_keys[at] == keys)
    if not len(hits):
        return neg, 0
    positives = set(edge_keys.tolist())
    redrawn = 0
    for k in hits.tolist():
        u = int(users[k])
        if degree[u] >= n_items:  # degenerate user: no unobserved item exists
            continue
        draw = int(rng.integers(0, n_items))
        redrawn += 1
        while u * n_items + draw in positives:
            draw = int(rng.integers(0, n_items))
            redrawn += 1
        neg[k] = draw
    return neg, redrawn


def _loss_and_gradient(prop: np.ndarray, tu: np.ndarray, tp: np.ndarray, tn: np.ndarray,
                       epoch: int) -> tuple[float, np.ndarray]:
    """Mean ranking loss over (user, positive, negative) rows and its gradient."""
    p_user = prop[tu]
    with np.errstate(invalid="ignore", over="ignore"):
        p_diff = prop[tp]
        p_diff -= prop[tn]
        diff = np.sum(p_user * p_diff, axis=1)
        loss = bpr_loss(diff)
    if not np.isfinite(loss):
        raise RuntimeError(f"collaborative training diverged at epoch {epoch}")

    g = (-_sigmoid(-diff) / len(diff))[:, None]   # dL/d(diff) per triple
    t = len(tu)

    def block(c: int, w: int) -> np.ndarray:
        # values of the user rows, then the positives, then the negatives
        vals = np.empty((3 * t, w))
        np.multiply(g, p_diff[:, c:c + w], out=vals[:t])
        np.multiply(g, p_user[:, c:c + w], out=vals[t:2 * t])
        np.negative(vals[t:2 * t], out=vals[2 * t:])
        return vals

    # one ordered scatter over all three parts: positives and negatives share
    # item rows, so their order fixes the sums
    return loss, scatter_column_blocks(len(prop), np.concatenate([tu, tp, tn]),
                                       prop.shape[1], block)


def train_collab_state(split: SplitDataset, cfg: CollabConfig) -> CollabState:
    """Full training loop; exposed separately so tests can inspect the state."""
    cfg.validate()
    if not split.train or not any(split.train.values()):
        raise ValueError("train split is empty")
    users = sorted(split.train)
    items = sorted({i for seq in split.train.values() for i in seq})
    adj = build_adjacency(split.train, users, items)
    n_users, n_items = len(users), len(items)

    rng = np.random.default_rng(cfg.seed)
    scale = 0.1 / np.sqrt(cfg.dim)
    emb = rng.uniform(-scale, scale, size=(n_users + n_items, cfg.dim))

    # the graph's edges are the distinct observed pairs, sorted by (user, item);
    # their keys and the user degrees drive negative sampling
    u_idx, pos_idx = adj.user_rows, adj.item_rows
    edge_keys = u_idx * n_items + (pos_idx - n_users)
    degree = np.bincount(u_idx, minlength=n_users)
    reps = np.repeat(np.arange(len(u_idx)), cfg.neg_samples_per_positive)
    tu, tp = u_idx[reps], pos_idx[reps]

    losses: list[float] = []
    redrawn = 0
    for epoch in range(cfg.epochs):
        prop = propagate(adj, emb, cfg.layers)
        neg, n_redrawn = _sample_negatives(rng, tu, edge_keys, degree, n_items)
        redrawn += n_redrawn
        loss, grad_prop = _loss_and_gradient(prop, tu, tp, neg + n_users, epoch)
        losses.append(loss)
        # propagation operator is symmetric, so the backward pass reuses it
        emb -= cfg.learning_rate * propagate(adj, grad_prop, cfg.layers)

    final = propagate(adj, emb, cfg.layers)
    if not np.all(np.isfinite(final)):
        raise RuntimeError(f"collaborative training diverged at epoch {cfg.epochs - 1}")
    log.info("collab: %d users, %d items, %d edges, final ranking loss %.6f, "
             "%d negatives redrawn", n_users, n_items, len(u_idx),
             losses[-1] if losses else float("nan"), redrawn)
    return CollabState(users=users, items=items, vectors=final, loss_history=losses,
                       edges=len(u_idx), negatives_redrawn=redrawn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
