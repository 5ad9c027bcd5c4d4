import tracemalloc

import numpy as np
import pytest

from rqrec.collab import (CollabConfig, RankFold, _loss_and_gradient, _sample_negatives, _sigmoid,
                          bpr_loss, build_adjacency, propagate, scatter_add_rows,
                          train_collab_state)
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
    emb = train_collab_state(split_of(BLOCKS), cfg).item_matrix()
    v = {i: row / np.linalg.norm(row) for i, row in zip(emb.items, emb.vectors)}
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
    a = train_collab_state(split_of(BLOCKS), cfg).item_matrix()
    b = train_collab_state(split_of(BLOCKS), cfg).item_matrix()
    assert a.items == b.items and np.array_equal(a.vectors, b.vectors)


def test_no_leakage_from_valid_test():
    cfg = CollabConfig(dim=8, layers=2, epochs=10, learning_rate=0.5, seed=4)
    base = SplitDataset(train=BLOCKS, valid={"u1": "c"}, test={"u1": "d"})
    perturbed = SplitDataset(train=BLOCKS, valid={"u1": "a"}, test={"u1": "zzz"})
    a = train_collab_state(base, cfg).item_matrix()
    b = train_collab_state(perturbed, cfg).item_matrix()
    assert a.items == b.items and np.array_equal(a.vectors, b.vectors)


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
        train_collab_state(split_of({}), CollabConfig()).item_matrix()


def test_divergence_names_epoch():
    cfg = CollabConfig(dim=4, layers=0, epochs=40, learning_rate=1e12, seed=0)
    with pytest.raises(RuntimeError, match="epoch"):
        train_collab_state(split_of(BLOCKS), cfg).item_matrix()


# ---------------------------------------------------------------------------
# Ordered scatters: bitwise equal to the np.add.at code they replace

def add_at_reference(n_rows, rows, values):
    out = np.zeros((n_rows, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def wide_range_values(rng, n, d):
    # magnitudes over 12 decades, so that any change of summation order shows
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))


@pytest.mark.parametrize("d", [1, 5, 16, 20, 48])
def test_scatter_add_rows_bitwise_equals_add_at(d):
    rng = np.random.default_rng(d)
    rows = np.concatenate([np.repeat(np.arange(9), 7), rng.integers(0, 12, size=300)])
    rng.shuffle(rows)
    values = wide_range_values(rng, len(rows), d)
    got = scatter_add_rows(12, rows, values)
    assert got.shape == (12, d) and got.flags.c_contiguous
    assert got.tobytes() == add_at_reference(12, rows, values).tobytes()


def test_scatter_add_rows_keeps_the_order_of_overlapping_parts():
    # the gradient's layout: user rows, then positives and negatives that
    # share item rows; only one scatter over all three parts in this order
    # equals the three np.add.at calls
    rng = np.random.default_rng(5)
    n_users, n_items, t, d = 6, 4, 400, 8
    tu = rng.integers(0, n_users, size=t)
    tp = n_users + rng.integers(0, n_items, size=t)
    tn = n_users + rng.integers(0, n_items, size=t)
    a, b = wide_range_values(rng, t, d), wide_range_values(rng, t, d)
    ref = np.zeros((n_users + n_items, d))
    np.add.at(ref, tu, a)
    np.add.at(ref, tp, b)
    np.add.at(ref, tn, -b)
    got = scatter_add_rows(len(ref), np.concatenate([tu, tp, tn]), np.concatenate([a, b, -b]))
    assert got.tobytes() == ref.tobytes()
    summed = (scatter_add_rows(len(ref), tu, a) + scatter_add_rows(len(ref), tp, b)
              + scatter_add_rows(len(ref), tn, -b))
    assert summed.tobytes() != ref.tobytes()


def random_train(rng, n_users, n_items, max_len):
    return {f"u{u:03d}": [f"i{i:03d}" for i in rng.choice(n_items, size=rng.integers(1, max_len),
                                                        replace=False)]
            for u in range(n_users)}


def zipf_train(rng, n_users, n_items, per_user, exponent=1.2):
    # item popularity falls as 1/rank^exponent: a few items hold most edges
    p = 1.0 / np.arange(1, n_items + 1) ** exponent
    return {f"u{u:04d}": [f"i{i:04d}" for i in rng.choice(n_items, size=per_user, replace=False,
                                                        p=p / p.sum())]
            for u in range(n_users)}


def graph_of(train):
    users = sorted(train)
    return build_adjacency(train, users, sorted({i for seq in train.values() for i in seq}))


def with_negative_zeros(rng, x):
    # whole rows of -0.0, so that some cells add only -0.0 terms, and scattered ones
    x[rng.choice(len(x), size=max(1, len(x) // 8), replace=False)] = -0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    return x


def add_at_apply(adj, x):
    ref = np.zeros_like(x)
    np.add.at(ref, adj.user_rows, adj.weights[:, None] * x[adj.item_rows])
    np.add.at(ref, adj.item_rows, adj.weights[:, None] * x[adj.user_rows])
    return ref


@pytest.mark.parametrize("d", [1, 3, 16, 17, 20, 48])
def test_apply_bitwise_equals_add_at_reference(d):
    rng = np.random.default_rng(d)
    uniform = random_train(rng, 40, 30, 12)
    uniform["u_none"] = []                            # a node of degree 0
    uniform["u_one"] = ["i000"]                       # whose one term is -0.0 below
    skewed = zipf_train(rng, 300, 80, 6)              # item degrees up to ~200
    for train in (uniform, skewed):
        adj = graph_of(train)
        x = with_negative_zeros(rng, wide_range_values(rng, adj.n_nodes, d))
        x[adj.n_users] = -0.0                         # the first item's row
        ref = add_at_apply(adj, x)
        assert adj.apply(x).tobytes() == ref.tobytes()
        assert adj.apply(x).tobytes() == ref.tobytes()   # again, from the same plan
    assert adj.apply(x).flags.c_contiguous
    degree = np.bincount(np.concatenate([adj.user_rows, adj.item_rows]))
    assert degree.max() > 20 * np.median(degree)


def add_at_loss_and_gradient(prop, tu, tp, tn):
    """The np.add.at gradient over [tu, tp, tn] that the folds replaced."""
    p_diff = prop[tp] - prop[tn]
    diff = np.sum(prop[tu] * p_diff, axis=1)
    g = (-_sigmoid(-diff) / len(diff))[:, None]
    grad = np.zeros_like(prop)
    np.add.at(grad, tu, g * p_diff)
    np.add.at(grad, tp, g * prop[tu])
    np.add.at(grad, tn, -(g * prop[tu]))
    return bpr_loss(diff), grad


def triples(train, negatives_per_positive, rng):
    adj = graph_of(train)
    n_users, n_items = adj.n_users, adj.n_items
    reps = np.repeat(np.arange(len(adj.user_rows)), negatives_per_positive)
    tu, tp = adj.user_rows[reps], adj.item_rows[reps]
    edge_keys = adj.user_rows * n_items + adj.item_rows - n_users
    neg, _ = _sample_negatives(rng, tu, edge_keys, set(edge_keys.tolist()),
                               np.bincount(adj.user_rows, minlength=n_users), n_items)
    return adj, tu, tp, neg + n_users


@pytest.mark.parametrize("d", [1, 16, 17, 48])
def test_loss_and_gradient_bitwise_equals_add_at_reference(d):
    rng = np.random.default_rng(40 + d)
    train = random_train(rng, 30, 12, 10)
    train["u_all"] = [f"i{i:03d}" for i in range(12)]   # owns every item: keeps its first draw
    adj, tu, tp, tn = triples(train, 3, rng)
    assert np.any(tp == tn)   # that user's negatives are its positives
    prop = with_negative_zeros(rng, rng.normal(size=(adj.n_nodes, d))
                               * 10.0 ** rng.integers(-4, 1, size=(adj.n_nodes, 1)))
    ref_loss, ref = add_at_loss_and_gradient(prop, tu, tp, tn)
    folds = RankFold.of(adj.n_nodes, tu), RankFold.of(adj.n_nodes, tp)
    work = [np.full((len(tu), d), np.nan) for _ in range(3)]   # stale contents must not leak
    for _ in range(2):
        loss, grad = _loss_and_gradient(prop, tu, tp, tn, 0, folds, work)
        assert loss == ref_loss
        assert grad.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Memory: the folds hold no more than the column-block scatters they replaced

def column_block_scatter(n_rows, rows, d, block, flat=None):
    # the bincount scatter the folds replaced: 16 columns of values at a time
    width = min(d, 16)
    if flat is None:
        flat = (rows[:, None] * width + np.arange(width)).ravel()
    out = np.empty((n_rows, d))
    for c in range(0, d, width):
        w = min(width, d - c)
        idx = flat if w == width else (rows[:, None] * w + np.arange(w)).ravel()
        out[:, c:c + w] = np.bincount(idx, weights=block(c, w).ravel(),
                                      minlength=n_rows * w).reshape(n_rows, w)
    return out


def column_block_apply(adj, x, flat):
    """NormalizedAdjacency.apply as it was, its flat index `flat` built beforehand."""
    dst = np.concatenate([adj.user_rows, adj.item_rows])
    src = np.concatenate([adj.item_rows, adj.user_rows])
    w = np.concatenate([adj.weights, adj.weights])[:, None]

    def block(c, width):
        vals = np.take(x[:, c:c + width], src, axis=0)
        vals *= w
        return vals

    return column_block_scatter(adj.n_nodes, dst, x.shape[1], block, flat)


def column_block_loss_and_gradient(prop, tu, tp, tn):
    p_user = prop[tu]
    p_diff = prop[tp]
    p_diff -= prop[tn]
    diff = np.sum(p_user * p_diff, axis=1)
    loss = bpr_loss(diff)
    g = (-_sigmoid(-diff) / len(diff))[:, None]
    t = len(tu)

    def block(c, w):
        vals = np.empty((3 * t, w))
        np.multiply(g, p_diff[:, c:c + w], out=vals[:t])
        np.multiply(g, p_user[:, c:c + w], out=vals[t:2 * t])
        np.negative(vals[t:2 * t], out=vals[2 * t:])
        return vals

    return loss, column_block_scatter(len(prop), np.concatenate([tu, tp, tn]), prop.shape[1],
                                      block)


def traced_peak(fn):
    """The tracemalloc peak of one call, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_folds_peak_no_higher_than_column_blocks():
    # the size of the benchmark's catalog: 360 users, 240 items, d 48
    rng = np.random.default_rng(50)
    adj, tu, tp, tn = triples(zipf_train(rng, 360, 240, 8, exponent=0.8), 1, rng)
    prop = rng.normal(size=(adj.n_nodes, 48))
    dst = np.concatenate([adj.user_rows, adj.item_rows])
    flat = (dst[:, None] * 16 + np.arange(16)).ravel()   # the old apply's cached index

    peak, out = traced_peak(lambda: adj.apply(prop))
    ref_peak, ref = traced_peak(lambda: column_block_apply(adj, prop, flat))
    assert out.tobytes() == ref.tobytes()
    assert peak <= ref_peak, (peak, ref_peak)

    folds = RankFold.of(adj.n_nodes, tu), RankFold.of(adj.n_nodes, tp)
    peak, (_, grad) = traced_peak(lambda: _loss_and_gradient(
        prop, tu, tp, tn, 0, folds, [np.empty((len(tu), 48)) for _ in range(3)]))
    ref_peak, (_, ref) = traced_peak(lambda: column_block_loss_and_gradient(prop, tu, tp, tn))
    assert grad.tobytes() == ref.tobytes()
    assert peak <= ref_peak, (peak, ref_peak)


def per_triple_negatives(rng, pos_sets, users, n_items):
    # the per-triple resampling loop the vectorized sampler replaced
    neg = rng.integers(0, n_items, size=len(users))
    draws = 0
    for k in range(len(users)):
        seen = pos_sets[users[k]]
        if len(seen) >= n_items:
            continue
        while neg[k] in seen:
            neg[k] = rng.integers(0, n_items)
            draws += 1
    return neg, draws


def test_negative_sampling_matches_per_triple_loop():
    rng = np.random.default_rng(0)
    n_users, n_items = 30, 12
    pos_sets = [set(rng.choice(n_items, size=rng.integers(1, n_items), replace=False).tolist())
                for _ in range(n_users)]
    pos_sets[3] = set(range(n_items))          # owns every item: keeps its first draw
    pairs = sorted((u, i) for u in range(n_users) for i in pos_sets[u])
    u_idx = np.array([u for u, _ in pairs])
    edge_keys = np.array([u * n_items + i for u, i in pairs])
    degree = np.bincount(u_idx, minlength=n_users)
    users = np.repeat(u_idx, 2)
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        ref, ref_draws = per_triple_negatives(a, pos_sets, users, n_items)
        got, redrawn = _sample_negatives(b, users, edge_keys, set(edge_keys.tolist()),
                                          degree, n_items)
        assert np.array_equal(got, ref)
        assert redrawn == ref_draws > 0
        assert b.bit_generator.state == a.bit_generator.state


def test_user_owning_every_item_trains():
    train = {"u1": ["a", "b", "c"], "u2": ["a"], "u3": ["b", "c"]}
    cfg = CollabConfig(dim=4, layers=1, epochs=25, learning_rate=0.5, seed=0)
    state = train_collab_state(split_of(train), cfg)
    assert len(state.loss_history) == 25 and state.edges == 6
    assert np.all(np.isfinite(state.vectors))


def reference_training(train, cfg):
    """The np.add.at training loop that train_collab_state replaced."""
    users = sorted(train)
    items = sorted({i for seq in train.values() for i in seq})
    adj = build_adjacency(train, users, items)
    n_users, n_items = len(users), len(items)

    def ref_propagate(x):
        acc, cur = x.copy(), x
        for _ in range(cfg.layers):
            nxt = np.zeros_like(cur)
            np.add.at(nxt, adj.user_rows, adj.weights[:, None] * cur[adj.item_rows])
            np.add.at(nxt, adj.item_rows, adj.weights[:, None] * cur[adj.user_rows])
            cur = nxt
            acc += cur
        return acc / (cfg.layers + 1)

    rng = np.random.default_rng(cfg.seed)
    scale = 0.1 / np.sqrt(cfg.dim)
    emb = rng.uniform(-scale, scale, size=(n_users + n_items, cfg.dim))
    u_idx, pos_idx = adj.user_rows, adj.item_rows
    pos_sets = [set() for _ in range(n_users)]
    for u, i in zip(u_idx.tolist(), (pos_idx - n_users).tolist()):
        pos_sets[u].add(i)
    losses = []
    for _ in range(cfg.epochs):
        prop = ref_propagate(emb)
        reps = np.repeat(np.arange(len(u_idx)), cfg.neg_samples_per_positive)
        neg, _ = per_triple_negatives(rng, pos_sets, u_idx[reps], n_items)
        tu, tp, tn = u_idx[reps], pos_idx[reps], neg + n_users
        diff = np.sum(prop[tu] * (prop[tp] - prop[tn]), axis=1)
        losses.append(bpr_loss(diff))
        g = -_sigmoid(-diff) / len(diff)
        grad = np.zeros_like(prop)
        np.add.at(grad, tu, g[:, None] * (prop[tp] - prop[tn]))
        np.add.at(grad, tp, g[:, None] * prop[tu])
        np.add.at(grad, tn, -g[:, None] * prop[tu])
        emb -= cfg.learning_rate * ref_propagate(grad)
    return ref_propagate(emb), losses


def test_training_bitwise_equals_add_at_reference():
    rng = np.random.default_rng(3)
    train = random_train(rng, 50, 20, 15)
    cfg = CollabConfig(dim=20, layers=2, epochs=6, learning_rate=30.0,
                       neg_samples_per_positive=2, seed=11)
    vectors, losses = reference_training(train, cfg)
    state = train_collab_state(split_of(train), cfg)
    assert state.loss_history == losses
    assert state.vectors.tobytes() == vectors.tobytes()
    assert state.negatives_redrawn > 0
