"""Seeded synthetic fixture: clustered items, ring-structured interaction walks.

Items are partitioned into latent clusters; semantic embeddings place each item
near its cluster center. User sequences mostly follow a per-cluster ring
successor (a learnable transition structure) with occasional jumps to the
user's secondary cluster, so both index types and the sequence scorers have
genuine signal without any external data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingMatrix, InteractionDataset


@dataclass
class SyntheticConfig:
    n_users: int = 2000
    n_items: int = 500
    n_clusters: int = 8
    min_len: int = 8
    max_len: int = 16
    emb_dim: int = 48
    p_follow: float = 0.85   # take the ring successor within the cluster
    p_stay: float = 0.9      # stay in the current cluster
    center_scale: float = 4.0
    noise_scale: float = 0.6
    seed: int = 0

    def validate(self) -> None:
        # n_clusters >= 2: every user walks a home cluster and a second one
        for name, low in (("n_users", 1), ("n_clusters", 2), ("emb_dim", 1),
                          ("center_scale", 0), ("noise_scale", 0)):
            if not getattr(self, name) >= low:  # nan fails too
                raise ValueError(f"synthetic.{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("p_follow", "p_stay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"synthetic.{name} must be in [0, 1], got {getattr(self, name)}")
        if self.n_items < self.n_clusters:
            raise ValueError(f"synthetic.n_items must be >= n_clusters ({self.n_clusters}) "
                             f"for one item per cluster, got {self.n_items}")
        if self.min_len < 3:
            raise ValueError(f"synthetic.min_len must be >= 3, got {self.min_len}")
        if self.max_len < self.min_len:
            raise ValueError(f"synthetic.max_len must be >= min_len ({self.min_len}), "
                             f"got {self.max_len}")


def generate_synthetic(cfg: SyntheticConfig) -> tuple[InteractionDataset, EmbeddingMatrix]:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    width = len(str(cfg.n_items - 1))
    items = [f"i{k:0{width}d}" for k in range(cfg.n_items)]
    cluster_of = np.array([k * cfg.n_clusters // cfg.n_items for k in range(cfg.n_items)])
    members = [np.flatnonzero(cluster_of == c) for c in range(cfg.n_clusters)]

    centers = rng.normal(0.0, cfg.center_scale, size=(cfg.n_clusters, cfg.emb_dim))
    vecs = centers[cluster_of] + rng.normal(0.0, cfg.noise_scale,
                                            size=(cfg.n_items, cfg.emb_dim))
    semantic = EmbeddingMatrix(items, vecs)  # zero-padded ids are already sorted

    def successor(idx: int) -> int:
        group = members[cluster_of[idx]]
        pos = int(np.searchsorted(group, idx))
        return int(group[(pos + 1) % len(group)])

    uw = len(str(cfg.n_users - 1))
    sequences: dict[str, list[tuple[str, int]]] = {}
    for uk in range(cfg.n_users):
        user = f"u{uk:0{uw}d}"
        home, alt = rng.choice(cfg.n_clusters, size=2, replace=False)
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        cluster = int(home)
        cur = int(rng.choice(members[cluster]))
        seq = [(items[cur], 0)]
        for step in range(1, length):
            if rng.random() >= cfg.p_stay:
                cluster = int(alt) if cluster == int(home) else int(home)
                cur = int(rng.choice(members[cluster]))
            elif rng.random() < cfg.p_follow:
                cur = successor(cur)
                cluster = int(cluster_of[cur])
            else:
                cur = int(rng.choice(members[cluster]))
            seq.append((items[cur], step))
        sequences[user] = seq
    return InteractionDataset.from_sequences(sequences), semantic
