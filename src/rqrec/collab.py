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


def scatter_add_rows(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum the rows of `values` into an (n_rows, d) zero array at `rows`, in order.

    `np.bincount` adds its weights to each cell in entry order, so the result
    equals, bit for bit, an unbuffered `np.add` scatter (the ufunc's `at`)
    over the same rows. It sums `min(d, _BLOCK)` columns per call.
    """
    d = values.shape[1]
    width = min(d, _BLOCK)
    flat = _flat_index(rows, width)
    out = np.empty((n_rows, d))
    for c in range(0, d, width):
        w = min(width, d - c)
        out[:, c:c + w] = np.bincount(flat if w == width else _flat_index(rows, w),
                                      weights=values[:, c:c + w].ravel(),
                                      minlength=n_rows * w).reshape(n_rows, w)
    return out


@dataclass(frozen=True)
class RankFold:
    """An ordered scatter-add, planned to run one rank at a time.

    The destination rows that get entries are ordered by their entry count,
    descending and stable. A row's r-th entry, in entry order, is its rank-r
    term, and the rows holding one are the first c_r of that order. So
    `entries[bounds[r]:bounds[r + 1]]` lists the rank-r entries of rows
    `order[:c_r]`, and one `acc[:c_r] += values` adds a whole rank. Every
    cell then adds its terms in entry order, as `np.bincount` and `np.add.at`
    do, so the sums are theirs bit for bit. The loop runs once per rank, up
    to the largest entry count.
    """

    order: np.ndarray     # destination rows with entries, by entry count
    entries: np.ndarray   # entry ids, rank by rank, each rank in `order`
    bounds: list[int]     # rank r holds entries[bounds[r]:bounds[r + 1]]

    @classmethod
    def of(cls, n_rows: int, rows: np.ndarray) -> RankFold:
        count = np.bincount(rows, minlength=n_rows)
        order = np.argsort(-count, kind="stable")[:np.count_nonzero(count)]
        count = count[order]
        position = np.zeros(n_rows, dtype=np.intp)
        position[order] = np.arange(len(order))
        # the entries row by row, each row's in entry order: the narrowest
        # unsigned type lets a stable sort of up to 2^16 rows be a radix sort
        grouped = np.argsort(position[rows].astype(np.min_scalar_type(len(order))),
                             kind="stable")
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        bounds = np.concatenate([[0], np.cumsum(np.bincount(rank))])
        entries = np.empty_like(grouped)
        entries[bounds[rank] + np.repeat(np.arange(len(order)), count)] = grouped
        return cls(order, entries, bounds.tolist())

    def scatter(self, out: np.ndarray, source: np.ndarray, src: np.ndarray | None = None,
                coef: np.ndarray | None = None, subtract: bool = False) -> None:
        """Add (or subtract) each entry's `coef * source[src]` to out's rows, rank by rank.

        `src` (the entry ids when not given) and `coef`, a column of factors
        (none when not given), are laid out as `entries`. Subtracting b is
        adding -b, bit for bit.
        """
        src = self.entries if src is None else src
        op = np.subtract if subtract else np.add
        acc = out[self.order]
        buf = np.empty_like(acc)
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            terms, sums = buf[:hi - lo], acc[:hi - lo]
            source.take(src[lo:hi], axis=0, out=terms, mode="clip")  # no buffered copy
            if coef is not None:
                np.multiply(terms, coef[lo:hi], out=terms)
            op(sums, terms, out=sums)
        out[self.order] = acc


@dataclass
class NormalizedAdjacency:
    """Symmetric-normalized bipartite graph over stacked [users; items] rows."""

    n_users: int
    n_items: int
    user_rows: np.ndarray   # edge endpoints, user side (global row index)
    item_rows: np.ndarray   # edge endpoints, item side (global row index)
    weights: np.ndarray     # 1/sqrt(deg_u * deg_i) per edge
    # both directions of every edge, user side first, as one rank fold over
    # the destination rows, with each entry's source row and weight
    _fold: RankFold = field(init=False, repr=False)
    _src: np.ndarray = field(init=False, repr=False)
    _w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._fold = RankFold.of(self.n_nodes, np.concatenate([self.user_rows, self.item_rows]))
        entries = self._fold.entries
        self._src = np.concatenate([self.item_rows, self.user_rows])[entries]
        self._w = np.concatenate([self.weights, self.weights])[entries][:, None]

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
        out = np.zeros((self.n_nodes, x.shape[1]))
        self._fold.scatter(out, x, self._src, self._w)
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
                      positives: set[int], degree: np.ndarray, n_items: int
                      ) -> tuple[np.ndarray, int]:
    """One uniform item per triple, redrawn while it is a positive of its user.

    `edge_keys` are the sorted `u * n_items + i` keys of the observed pairs,
    and `positives` the same keys as a set, built once per training. Draws go
    in triple order, so the RNG stream is that of checking every triple in
    turn. A user who owns every item keeps the first draw. Returns the
    negatives and the number of redraws.
    """
    neg = rng.integers(0, n_items, size=len(users))
    keys = users * n_items + neg
    at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
    hits = np.flatnonzero(edge_keys[at] == keys)
    if not len(hits):
        return neg, 0
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
                       epoch: int, folds: tuple[RankFold, RankFold],
                       work: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Mean ranking loss over (user, positive, negative) rows and its gradient.

    `folds` are `RankFold.of(len(prop), rows)` for `tu` and `tp`, and `work`
    three (len(tu), d) arrays for the gathered rows, whatever they hold.
    Training makes both once, so no epoch faults in fresh pages for its three
    largest arrays.
    """
    p_user, p_diff, scratch = work
    # the rows are in range: "clip" only spares np.take a buffered copy
    prop.take(tu, axis=0, out=p_user, mode="clip")
    with np.errstate(invalid="ignore", over="ignore"):
        prop.take(tp, axis=0, out=p_diff, mode="clip")
        prop.take(tn, axis=0, out=scratch, mode="clip")
        p_diff -= scratch
        diff = np.sum(np.multiply(p_user, p_diff, out=scratch), axis=1)
        loss = bpr_loss(diff)
    if not np.isfinite(loss):
        raise RuntimeError(f"collaborative training diverged at epoch {epoch}")

    g = (-_sigmoid(-diff) / len(diff))[:, None]   # dL/d(diff) per triple
    # each triple adds g * p_diff to its user's row, g * p_user to its
    # positive's and -(g * p_user) to its negative's. Every cell sums its
    # terms in the order of [tu, tp, tn]: user rows and item rows are
    # disjoint, and an item row takes all its positives before its negatives
    users, positives = folds
    p_diff *= g
    p_user *= g
    grad = np.zeros_like(prop)
    users.scatter(grad, p_diff)
    positives.scatter(grad, p_user)
    RankFold.of(len(prop), tn).scatter(grad, p_user, subtract=True)
    return loss, grad


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
    positives = set(edge_keys.tolist())
    degree = np.bincount(u_idx, minlength=n_users)
    reps = np.repeat(np.arange(len(u_idx)), cfg.neg_samples_per_positive)
    tu, tp = u_idx[reps], pos_idx[reps]
    folds = RankFold.of(n_users + n_items, tu), RankFold.of(n_users + n_items, tp)
    work = [np.empty((len(tu), cfg.dim)) for _ in range(3)]

    losses: list[float] = []
    redrawn = 0
    for epoch in range(cfg.epochs):
        prop = propagate(adj, emb, cfg.layers)
        neg, n_redrawn = _sample_negatives(rng, tu, edge_keys, positives, degree, n_items)
        redrawn += n_redrawn
        loss, grad_prop = _loss_and_gradient(prop, tu, tp, neg + n_users, epoch, folds, work)
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
