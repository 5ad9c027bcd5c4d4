"""Collaborative item embeddings from the train split only.

Free user/item embeddings are propagated over the symmetric-normalized bipartite
interaction graph (mean of all layer outputs), scored by inner product, and
optimized with a pairwise ranking loss against uniformly sampled negatives.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class NormalizedAdjacency:
    """Symmetric-normalized bipartite graph over stacked [users; items] rows."""

    n_users: int
    n_items: int
    user_rows: np.ndarray   # edge endpoints, user side (global row index)
    item_rows: np.ndarray   # edge endpoints, item side (global row index)
    weights: np.ndarray     # 1/sqrt(deg_u * deg_i) per edge

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One normalized-adjacency multiplication A_hat @ x."""
        if x.shape[0] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} rows, got {x.shape[0]}")
        out = np.zeros_like(x)
        np.add.at(out, self.user_rows, self.weights[:, None] * x[self.item_rows])
        np.add.at(out, self.item_rows, self.weights[:, None] * x[self.user_rows])
        return out


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

    def item_matrix(self) -> EmbeddingMatrix:
        rows = {item: self.vectors[len(self.users) + k].copy()
                for k, item in enumerate(self.items)}
        return EmbeddingMatrix(dim=self.vectors.shape[1], rows=rows,
                               source_tag="collaborative")


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

    # the graph's edges are the distinct observed pairs; per-user positive
    # sets drive negative sampling
    u_idx, pos_idx = adj.user_rows, adj.item_rows
    pos_sets = [set() for _ in range(n_users)]
    for u, i in zip(u_idx.tolist(), (pos_idx - n_users).tolist()):
        pos_sets[u].add(i)

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        prop = propagate(adj, emb, cfg.layers)
        reps = np.repeat(np.arange(len(u_idx)), cfg.neg_samples_per_positive)
        neg = rng.integers(0, n_items, size=len(reps))
        for k in range(len(reps)):
            seen = pos_sets[u_idx[reps[k]]]
            if len(seen) >= n_items:  # degenerate user: no unobserved item exists
                continue
            while neg[k] in seen:
                neg[k] = rng.integers(0, n_items)
        tu, tp, tn = u_idx[reps], pos_idx[reps], neg + n_users

        with np.errstate(invalid="ignore", over="ignore"):
            diff = np.sum(prop[tu] * (prop[tp] - prop[tn]), axis=1)
            loss = bpr_loss(diff)
        if not np.isfinite(loss):
            raise RuntimeError(f"collaborative training diverged at epoch {epoch}")
        losses.append(loss)

        g = -_sigmoid(-diff) / len(diff)   # dL/d(diff) per triple
        grad_prop = np.zeros_like(prop)
        np.add.at(grad_prop, tu, g[:, None] * (prop[tp] - prop[tn]))
        np.add.at(grad_prop, tp, g[:, None] * prop[tu])
        np.add.at(grad_prop, tn, -g[:, None] * prop[tu])
        # propagation operator is symmetric, so the backward pass reuses it
        emb -= cfg.learning_rate * propagate(adj, grad_prop, cfg.layers)

    final = propagate(adj, emb, cfg.layers)
    if not np.all(np.isfinite(final)):
        raise RuntimeError(f"collaborative training diverged at epoch {cfg.epochs - 1}")
    return CollabState(users=users, items=items, vectors=final, loss_history=losses)


def train_collaborative_embeddings(split: SplitDataset, cfg: CollabConfig) -> EmbeddingMatrix:
    """Train on the train split only and return the item embedding matrix."""
    state = train_collab_state(split, cfg)
    log.info("collab: %d users, %d items, final ranking loss %.6f",
             len(state.users), len(state.items),
             state.loss_history[-1] if state.loss_history else float("nan"))
    return state.item_matrix()


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
