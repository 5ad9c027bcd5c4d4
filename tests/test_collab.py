import numpy as np
import pytest

from rqrec.collab import (CollabConfig, bpr_loss, build_adjacency, propagate,
                          train_collab_state, train_collaborative_embeddings)
from rqrec.dataio import SplitDataset


BLOCKS = {"u1": ["a", "b"], "u2": ["a", "b"], "u3": ["c", "d"], "u4": ["c", "d"]}


def split_of(train):
    return SplitDataset(train=train, valid={}, test={})


def test_propagate_zero_layers_is_identity():
    adj = build_adjacency({"u1": ["a"]}, ["u1"], ["a"])
    e = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(propagate(adj, e, 0), e)


def test_single_edge_one_layer_copies_item_vector():
    # degree-1 normalization: after one multiplication the user row equals the item row
    adj = build_adjacency({"u1": ["a"]}, ["u1"], ["a"])
    e = np.array([[1.0, 2.0], [5.0, -3.0]])
    out = adj.apply(e)
    assert np.allclose(out[0], e[1])
    assert np.allclose(out[1], e[0])


def test_propagate_matches_dense_matrix_oracle():
    # path graph: u1 - a - u2, two layers, checked against explicit matrix powers
    train = {"u1": ["a"], "u2": ["a"]}
    adj = build_adjacency(train, ["u1", "u2"], ["a"])
    rng = np.random.default_rng(0)
    e = rng.normal(size=(3, 4))
    a = 1.0 / np.sqrt(2.0)
    dense = np.array([[0, 0, a], [0, 0, a], [a, a, 0]])
    expected = (e + dense @ e + dense @ dense @ e) / 3.0
    assert np.allclose(propagate(adj, e, 2), expected, atol=1e-12)


def test_propagate_dimension_mismatch():
    adj = build_adjacency({"u1": ["a"]}, ["u1"], ["a"])
    with pytest.raises(ValueError):
        adj.apply(np.zeros((5, 2)))


def test_disjoint_blocks_separate():
    cfg = CollabConfig(dim=16, layers=2, epochs=150, learning_rate=1.0, seed=3)
    emb = train_collaborative_embeddings(split_of(BLOCKS), cfg)
    v = {i: emb.rows[i] / np.linalg.norm(emb.rows[i]) for i in emb.rows}
    intra = (v["a"] @ v["b"] + v["c"] @ v["d"]) / 2
    cross = np.mean([v[x] @ v[y] for x in "ab" for y in "cd"])
    assert intra > cross


def test_layers_zero_is_plain_mf():
    # propagation disabled: the returned vectors are the free item embeddings
    cfg = CollabConfig(dim=8, layers=0, epochs=20, learning_rate=0.5, seed=1)
    state = train_collab_state(split_of(BLOCKS), cfg)
    assert np.array_equal(propagate(build_adjacency(BLOCKS, state.users, state.items),
                                    state.vectors, 0), state.vectors)


def test_same_seed_bitwise_identical():
    cfg = CollabConfig(dim=8, layers=1, epochs=15, learning_rate=0.5, seed=9)
    a = train_collaborative_embeddings(split_of(BLOCKS), cfg)
    b = train_collaborative_embeddings(split_of(BLOCKS), cfg)
    for item in a.rows:
        assert np.array_equal(a.rows[item], b.rows[item])


def test_no_leakage_from_valid_test():
    cfg = CollabConfig(dim=8, layers=2, epochs=10, learning_rate=0.5, seed=4)
    base = SplitDataset(train=BLOCKS, valid={"u1": "c"}, test={"u1": "d"})
    perturbed = SplitDataset(train=BLOCKS, valid={"u1": "a"}, test={"u1": "zzz"})
    a = train_collaborative_embeddings(base, cfg)
    b = train_collaborative_embeddings(perturbed, cfg)
    for item in a.rows:
        assert np.array_equal(a.rows[item], b.rows[item])


def test_heldout_ranking_loss_decreases():
    rng = np.random.default_rng(12)
    # synthetic two-block data with a held-out slice of train pairs
    train = {}
    for u in range(12):
        block = "abcdef" if u % 2 == 0 else "ghijkl"
        train[f"u{u}"] = list(rng.choice(list(block), size=4, replace=False))
    held_user = sorted(train)[0]
    held_items = train[held_user][-2:]
    observed = {u: (seq[:-2] if u == held_user else seq) for u, seq in train.items()}

    def heldout_loss(epochs):
        cfg = CollabConfig(dim=12, layers=1, epochs=epochs, learning_rate=1.0, seed=2)
        state = train_collab_state(split_of(observed), cfg)
        u_id = state.users.index(held_user)
        item_pos = {i: len(state.users) + state.items.index(i) for i in state.items}
        negs = [i for i in state.items if i not in train[held_user]]
        u_idx = np.array([u_id] * len(held_items) * len(negs))
        pos = np.array([item_pos[i] for i in held_items for _ in negs])
        neg = np.array([item_pos[n] for _ in held_items for n in negs])
        v = state.vectors
        return bpr_loss(np.sum(v[u_idx] * v[pos], axis=1) - np.sum(v[u_idx] * v[neg], axis=1))

    assert heldout_loss(120) < heldout_loss(1)


def test_empty_train_is_error():
    with pytest.raises(ValueError):
        train_collaborative_embeddings(split_of({}), CollabConfig())


def test_divergence_names_epoch():
    cfg = CollabConfig(dim=4, layers=0, epochs=40, learning_rate=1e12, seed=0)
    with pytest.raises(RuntimeError, match="epoch"):
        train_collaborative_embeddings(split_of(BLOCKS), cfg)
