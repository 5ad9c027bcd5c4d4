import logging

import numpy as np
import pytest

from conftest import add_at_reference, wide_range_values
from rqrec.dataio import EmbeddingMatrix
from rqrec.rqvae import (RqVaeConfig, RqVaeModel, _AdamW, _forward, _gradients, _sq_dists,
                         assign_codes, finite_difference_gradients, gradient_check,
                         initialize_model, kmeans_init, load_code_table, max_relative_error,
                         parameter_arrays, quantize_batch, resolve_collisions,
                         scatter_add_rows, train_rqvae, write_code_table)
from rqvae_reference import reference_codes, reference_train_rqvae


def emb_of(x):
    return EmbeddingMatrix([f"i{k:04d}" for k in range(x.shape[0])], x)


def clustered_embeddings(n=300, dim=12, clusters=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(clusters, dim))
    x = centers[rng.integers(0, clusters, n)] + rng.normal(0, 0.3, size=(n, dim))
    return emb_of(x)


# ---------------------------------------------------------------------------
# the ordered scatter of the codebook gradients and k-means: bitwise np.add.at

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
    # a ranking-loss gradient's layout: user rows, then positives and negatives
    # that share item rows; only one scatter over all three parts in this
    # order equals the three np.add.at calls
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


# ---------------------------------------------------------------------------
# k-means

def test_kmeans_two_point_symmetry():
    pts = np.array([[0.0], [0.0], [10.0], [10.0]])
    for seed in range(6):  # some seeds sample two identical rows, exercising reseeding
        cents = kmeans_init(pts, 2, 50, np.random.default_rng(seed))
        assert sorted(float(c) for c in cents[:, 0]) == [0.0, 10.0]


def test_kmeans_zero_iters_returns_sampled_rows():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    cents = kmeans_init(pts, 4, 0, np.random.default_rng(7))
    rows = {tuple(r) for r in pts}
    assert all(tuple(c) in rows for c in cents)
    assert len({tuple(c) for c in cents}) == 4


def sse(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
    return float(d2.min(axis=1).sum())


def test_kmeans_reduces_sse():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(100, 2))
    init = kmeans_init(pts, 4, 0, np.random.default_rng(3))
    final = kmeans_init(pts, 4, 100, np.random.default_rng(3))
    assert sse(pts, final) <= sse(pts, init)


def reference_kmeans(latents, n_centroids, iters, rng):
    """kmeans_init as a per-codeword loop, the version bincount replaced."""
    n = latents.shape[0]
    centroids = latents[rng.choice(n, size=n_centroids, replace=False)].copy()
    for _ in range(iters):
        d2 = _sq_dists(latents, centroids)
        assign = np.argmin(d2, axis=1)
        new = centroids.copy()
        point_err = d2[np.arange(n), assign]
        taken = set()
        for w in range(n_centroids):
            members = assign == w
            if members.any():
                new[w] = latents[members].mean(axis=0)
        for w in range(n_centroids):
            if not (assign == w).any():
                order = np.argsort(-point_err, kind="stable")
                far = next(int(p) for p in order if int(p) not in taken)
                taken.add(far)
                new[w] = latents[far]
        if np.array_equal(new, centroids):
            break
        centroids = new
    return centroids


@pytest.mark.parametrize("width", [2, 3, 7, 16, 33, 40])
def test_kmeans_equals_per_codeword_loop(width):
    rng = np.random.default_rng(width)
    emptied = 0
    for case in range(12):
        n, w = int(rng.integers(12, 60)), int(rng.integers(2, 10))
        pts = rng.normal(size=(int(rng.integers(3, n // 2)), width))
        pts = pts[rng.integers(0, len(pts), n)]  # duplicate rows leave clusters empty
        if case % 3 == 0:
            pts[:, 0] *= 40.0  # far outliers along one axis
        for iters in (1, 3, 30):
            got = kmeans_init(pts, w, iters, np.random.default_rng(case))
            ref = reference_kmeans(pts, w, iters, np.random.default_rng(case))
            assert np.array_equal(got, ref)
        first = pts[np.random.default_rng(case).choice(n, size=w, replace=False)]
        emptied += len({tuple(r) for r in first}) < w
    assert emptied >= 3  # the reseeding path ran


def test_kmeans_too_few_rows():
    with pytest.raises(ValueError):
        kmeans_init(np.zeros((3, 2)), 4, 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# residual quantization

def cb(values):
    return np.array(values, dtype=float)


def test_quantize_one_dim_level_one():
    books = [cb([[0.0], [1.0]])]
    codes, residuals, z_star = quantize_batch(np.array([[0.9]]), books)
    assert codes.tolist() == [[1]]
    assert residuals[0, 1, 0] == pytest.approx(-0.1)
    assert z_star[0, 0] == pytest.approx(1.0)


def test_quantize_two_levels_exact():
    books = [cb([[0.0], [1.0]]), cb([[-0.1], [0.1]])]
    codes, residuals, z_star = quantize_batch(np.array([[0.9]]), books)
    assert codes.tolist() == [[1, 0]]
    assert residuals[0, 2, 0] == pytest.approx(0.0, abs=1e-15)
    assert z_star[0, 0] == pytest.approx(0.9, abs=1e-15)


def test_quantize_tie_breaks_to_lowest_index():
    books = [cb([[1.0], [-1.0]])]  # both at distance 1 from z=0
    codes, _, _ = quantize_batch(np.array([[0.0]]), books)
    assert codes.tolist() == [[0]]


def test_quantize_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        books = [rng.normal(size=(8, 16)) for _ in range(3)]
        z = rng.normal(size=16)
        codes, residuals, z_star = quantize_batch(z[None, :], books)
        r = z.copy()
        for l, book in enumerate(books):
            dists = [float(((r - e) ** 2).sum()) for e in book]
            expect = int(np.argmin(dists))
            assert codes[0, l] == expect
            r = r - book[expect]
        # telescoping identity: z - z* == r_L
        assert np.max(np.abs((z - z_star[0]) - residuals[0, -1])) < 1e-12
        assert np.max(np.abs(residuals[0, -1] - r)) < 1e-12


def test_quantize_nonfinite_error():
    with pytest.raises(ValueError):
        quantize_batch(np.array([[np.nan]]), [cb([[0.0]])])


# ---------------------------------------------------------------------------
# losses on a hand-built identity model

def identity_model(codebooks, beta=0.25, n_layers=5):
    cfg = RqVaeConfig(latent_dim=1, code_len=len(codebooks), codebook_size=2,
                      hidden_dim=1, n_layers=n_layers, beta=beta)
    eye = [np.array([[1.0]]) for _ in range(n_layers)]
    zero = [np.zeros(1) for _ in range(n_layers)]
    return RqVaeModel(encoder_weights=[w.copy() for w in eye],
                      encoder_biases=[b.copy() for b in zero],
                      decoder_weights=[w.copy() for w in eye],
                      decoder_biases=[b.copy() for b in zero],
                      codebooks=codebooks, config=cfg, input_dim=1)


def test_forward_loss_zero_case():
    model = identity_model([cb([[0.0], [1.0]]), cb([[0.0], [0.5]])])
    x = np.array([[1.0]])
    fp = _forward(model, x)
    assert list(fp.codes[0]) == [1, 0]
    assert fp.l_rec == pytest.approx(0.0, abs=1e-15)
    assert fp.l_rq == pytest.approx(0.0, abs=1e-15)
    assert fp.l_rec + fp.l_rq == pytest.approx(0.0, abs=1e-15)


def test_forward_loss_hand_case():
    # z = 0.9 quantizes exactly over two levels; only level 1 leaves a residual
    model = identity_model([cb([[0.0], [1.0]]), cb([[-0.1], [0.1]])], beta=0.25)
    fp = _forward(model, np.array([[0.9]]))
    assert fp.x_star[0, 0] == pytest.approx(0.9, abs=1e-15)
    assert fp.l_rec == pytest.approx(0.0, abs=1e-14)
    # codebook term 0.01 at level 1, plus beta * same commitment value
    assert fp.l_rq == pytest.approx((1 + 0.25) * 0.01, abs=1e-12)


def test_forward_loss_beta_limit_removes_commitment():
    codebook_term = 0.01  # ||r0 - e||^2 for z = 0.9
    tiny = identity_model([cb([[0.0], [1.0]])], beta=1e-12)
    assert _forward(tiny, np.array([[0.9]])).l_rq == pytest.approx(codebook_term, rel=1e-9)
    full = identity_model([cb([[0.0], [1.0]])], beta=0.25)
    assert _forward(full, np.array([[0.9]])).l_rq == pytest.approx(codebook_term * 1.25,
                                                                   abs=1e-12)


def test_losses_nonnegative_random():
    rng = np.random.default_rng(5)
    emb = clustered_embeddings(64, 6, 4, seed=6)
    cfg = RqVaeConfig(latent_dim=4, code_len=2, codebook_size=8, hidden_dim=8,
                      epochs=0, batch_size=64, seed=0)
    model = initialize_model(emb, cfg)
    for _ in range(10):
        batch = rng.normal(size=(16, 6))
        fp = _forward(model, batch)
        assert fp.l_rec >= 0.0 and fp.l_rq >= 0.0


# ---------------------------------------------------------------------------
# training

SMALL = dict(latent_dim=6, code_len=3, codebook_size=8, hidden_dim=16,
             batch_size=128, learning_rate=1e-3)


def test_train_loss_drops_and_history_shape():
    emb = clustered_embeddings(seed=7)
    cfg = RqVaeConfig(epochs=60, seed=3, **SMALL)
    model = train_rqvae(emb, cfg)
    h = model.loss_history
    assert len(h) == 61
    assert h[-1][0] < 0.5 * h[0][0]
    lead = np.mean([v[0] for v in h[1:11]])
    trail = np.mean([v[0] for v in h[-10:]])
    assert trail < lead


def test_train_zero_epochs_equals_initialized():
    emb = clustered_embeddings(seed=8)
    cfg = RqVaeConfig(epochs=0, seed=4, **SMALL)
    trained = train_rqvae(emb, cfg)
    init = initialize_model(emb, RqVaeConfig(epochs=0, seed=4, **SMALL))
    for a, b in zip(parameter_arrays(trained).values(), parameter_arrays(init).values()):
        assert np.array_equal(a, b)
    for ca, cb_ in zip(trained.codebooks, init.codebooks):
        assert np.array_equal(ca, cb_)


def test_train_same_seed_identical():
    emb = clustered_embeddings(seed=9)
    cfg = RqVaeConfig(epochs=12, seed=5, **SMALL)
    a, b = train_rqvae(emb, cfg), train_rqvae(emb, cfg)
    for pa, pb in zip(parameter_arrays(a).values(), parameter_arrays(b).values()):
        assert np.array_equal(pa, pb)
    for ca, cb_ in zip(a.codebooks, b.codebooks):
        assert np.array_equal(ca, cb_)
    assert a.loss_history == b.loss_history


def test_train_logs_nothing(caplog):
    # build-index trains CEID's quantizer in a forked worker, whose records
    # would not reach the stage's handlers
    caplog.set_level(logging.DEBUG, logger="rqrec")
    train_rqvae(clustered_embeddings(n=40, seed=11), RqVaeConfig(epochs=3, seed=7, **SMALL))
    assert caplog.records == []


def test_train_divergence_names_epoch():
    emb = clustered_embeddings(seed=10)  # 300 items
    for batch_size in (SMALL["batch_size"], 512):  # several batches per epoch, then one
        cfg = RqVaeConfig(epochs=50, seed=6, **{**SMALL, "learning_rate": 1e150,
                                                "batch_size": batch_size})
        with pytest.raises(RuntimeError, match=r"^non-finite loss at epoch \d+$"), \
                np.errstate(all="ignore"):
            train_rqvae(emb, cfg)


@pytest.mark.parametrize("batch_size", [64, 300])  # several batches per epoch, or one
def test_loss_history_ends_are_full_data_losses(batch_size):
    emb = clustered_embeddings(seed=20)
    x = emb.vectors
    for epochs in (0, 1, 7):
        cfg = RqVaeConfig(epochs=epochs, seed=21, **{**SMALL, "batch_size": batch_size})
        model = train_rqvae(emb, cfg)
        assert len(model.loss_history) == epochs + 1
        assert model.loss_history[0] == _forward(initialize_model(emb, cfg), x).losses
        assert model.loss_history[-1] == _forward(model, x).losses
        assert all(np.isfinite(entry).all() for entry in model.loss_history)


def reference_adamw(params, grads, m, v, t, lr, weight_decay):
    """The per-array AdamW step the one-vector optimizer replaced, applied in place."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * g * g
        update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
        p -= lr * (update + weight_decay * p)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_equals_per_array_formula(weight_decay):
    emb = clustered_embeddings(n=40, dim=5, seed=22)
    cfg = RqVaeConfig(latent_dim=3, code_len=2, codebook_size=4, hidden_dim=7, n_layers=3,
                      epochs=0, batch_size=40, seed=23)
    model = initialize_model(emb, cfg)
    ref = {k: a.copy() for k, a in parameter_arrays(model).items()}
    assert len({a.shape for a in ref.values()}) >= 4  # 2-D weights, 1-D biases, codebooks
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    opt = _AdamW(model, weight_decay)
    rng = np.random.default_rng(24)
    for t in range(1, 6):
        grads = {}
        for k, a in ref.items():
            g = rng.normal(size=a.shape) * 10.0 ** float(rng.integers(-6, 3))
            g[rng.random(a.shape) < 0.2] = 0.0  # untouched entries, as for unused codewords
            grads[k] = g
        lr = 1e-2 * (1.0 - (t - 1) / 5)
        opt.step(grads, lr)
        reference_adamw(ref, grads, m, v, t, lr, weight_decay)
        for k, a in parameter_arrays(model).items():
            assert a.tobytes() == ref[k].tobytes(), (t, k)


def test_trained_arrays_stay_views_of_the_optimizer_vector():
    emb = clustered_embeddings(seed=25)
    model = train_rqvae(emb, RqVaeConfig(epochs=12, seed=26, **SMALL))
    assert sum(model.reseeds) > 0  # the in-place codeword reseed ran
    arrays = list(parameter_arrays(model).values())
    flat = arrays[0].base
    assert flat is not None and flat.ndim == 1 and flat.size == sum(a.size for a in arrays)
    start = flat.__array_interface__["data"][0]
    offset = 0
    for a in arrays:  # laid out in parameter_arrays order, the gradient's order
        assert a.base is flat and np.shares_memory(a, flat)
        assert a.__array_interface__["data"][0] == start + offset * flat.itemsize
        offset += a.size


def test_train_requires_first_batch_covering_codebook():
    emb = clustered_embeddings(n=10, seed=11)
    cfg = RqVaeConfig(latent_dim=4, code_len=2, codebook_size=16, hidden_dim=8,
                      epochs=1, batch_size=256)
    with pytest.raises(ValueError):
        train_rqvae(emb, cfg)


def test_train_empty_embeddings_error():
    with pytest.raises(ValueError):
        train_rqvae(EmbeddingMatrix([], np.zeros((0, 3))), RqVaeConfig(epochs=1))


# ---------------------------------------------------------------------------
# gradient check

def test_gradient_check_linear_model_exact():
    # single affine layer, no activation: quadratic loss, central differences exact
    rng = np.random.default_rng(12)
    emb = emb_of(rng.normal(size=(24, 5)))
    cfg = RqVaeConfig(latent_dim=3, code_len=2, codebook_size=4, hidden_dim=1,
                      n_layers=1, epochs=0, batch_size=24, seed=7)
    model = initialize_model(emb, cfg)
    batch = rng.normal(size=(4, 5))
    assert gradient_check(model, batch, 1e-5) < 1e-6


def test_gradient_check_random_five_layer():
    rng = np.random.default_rng(13)
    emb = emb_of(rng.normal(size=(32, 6)))
    cfg = RqVaeConfig(latent_dim=4, code_len=3, codebook_size=4, hidden_dim=8,
                      n_layers=5, epochs=0, batch_size=32, seed=8)
    model = initialize_model(emb, cfg)
    batch = rng.normal(size=(4, 6))
    assert gradient_check(model, batch, 1e-5) < 1e-3


def test_gradient_check_negative_control():
    rng = np.random.default_rng(14)
    emb = emb_of(rng.normal(size=(32, 6)))
    cfg = RqVaeConfig(latent_dim=4, code_len=2, codebook_size=4, hidden_dim=8,
                      n_layers=5, epochs=0, batch_size=32, seed=9)
    model = initialize_model(emb, cfg)
    batch = rng.normal(size=(4, 6))
    analytic = _gradients(model, batch, _forward(model, batch))
    numeric = finite_difference_gradients(model, batch, 1e-5)
    # corrupt the largest-magnitude gradient entry by x2
    name = max(analytic, key=lambda k: float(np.max(np.abs(analytic[k]))))
    idx = np.unravel_index(np.argmax(np.abs(analytic[name])), analytic[name].shape)
    analytic[name][idx] *= 2.0
    assert max_relative_error(analytic, numeric) > 1e-1


def test_gradient_check_preconditions():
    rng = np.random.default_rng(15)
    emb = emb_of(rng.normal(size=(16, 4)))
    cfg = RqVaeConfig(latent_dim=3, code_len=2, codebook_size=4, hidden_dim=6,
                      epochs=0, batch_size=16, seed=10)
    model = initialize_model(emb, cfg)
    with pytest.raises(ValueError):
        gradient_check(model, rng.normal(size=(9, 4)), 1e-5)
    with pytest.raises(ValueError):
        gradient_check(model, rng.normal(size=(2, 4)), 1e-2)


# ---------------------------------------------------------------------------
# code assignment and collisions

def test_assign_codes_identical_rows_share_tuples():
    x = np.zeros((6, 4))
    x[3:] = 1.0
    emb = emb_of(x)
    cfg = RqVaeConfig(latent_dim=3, code_len=2, codebook_size=2, hidden_dim=4,
                      epochs=2, batch_size=6, seed=11)
    model = train_rqvae(emb, cfg)
    codes = assign_codes(model, emb)
    assert codes["i0000"] == codes["i0001"] == codes["i0002"]
    assert codes["i0003"] == codes["i0004"] == codes["i0005"]


def test_assign_codes_range_property():
    emb = clustered_embeddings(n=80, seed=16)
    cfg = RqVaeConfig(latent_dim=4, code_len=3, codebook_size=8, hidden_dim=8,
                      epochs=3, batch_size=80, seed=12)
    model = train_rqvae(emb, cfg)
    for tup in assign_codes(model, emb).values():
        assert len(tup) == 3
        assert all(0 <= c < 8 for c in tup)


def test_assign_codes_matches_quantize_oracle():
    model = identity_model([cb([[0.0], [1.0]]), cb([[-0.1], [0.1]])])
    emb = EmbeddingMatrix(["a"], np.array([[0.9]]))
    assert assign_codes(model, emb) == {"a": (1, 0)}


def test_assign_codes_dim_mismatch():
    model = identity_model([cb([[0.0]])])
    emb = EmbeddingMatrix(["a"], np.zeros((1, 2)))
    with pytest.raises(ValueError):
        assign_codes(model, emb)


def test_resolve_collisions_two_way_group():
    raw = {"A": (5, 2, 7), "B": (5, 2, 7), "C": (1, 1, 1)}
    table = resolve_collisions(raw, "ceid")
    assert table.codes == {"A": (5, 2, 7, 1), "B": (5, 2, 7, 2), "C": (1, 1, 1, 0)}
    assert table.code_len == 3 and table.code_len_total == 4


def test_resolve_collisions_no_collisions_all_zero():
    raw = {f"x{k}": (k, 0) for k in range(5)}
    table = resolve_collisions(raw, "seid")
    assert all(tup[-1] == 0 for tup in table.codes.values())


def test_resolve_collisions_three_way():
    raw = {"m": (1, 1), "k": (1, 1), "z": (1, 1), "a": (2, 2)}
    table = resolve_collisions(raw, "ceid")
    # item-id order: k < m < z
    assert table.codes["k"] == (1, 1, 1)
    assert table.codes["m"] == (1, 1, 2)
    assert table.codes["z"] == (1, 1, 3)
    assert table.codes["a"] == (2, 2, 0)


def test_resolve_collisions_tuples_globally_unique():
    rng = np.random.default_rng(17)
    for _ in range(20):
        raw = {f"i{k:03d}": tuple(int(w) for w in rng.integers(0, 3, 3))
               for k in range(40)}
        table = resolve_collisions(raw, "ceid")
        assert len(set(table.codes.values())) == len(table.codes)


def test_code_table_file_roundtrip(tmp_path):
    raw = {"A": (5, 2, 7), "B": (5, 2, 7), "C": (1, 1, 1)}
    table = resolve_collisions(raw, "ceid")
    p = tmp_path / "codes.tsv"
    write_code_table(table, p)
    assert load_code_table(p, "ceid") == table


def test_code_table_duplicate_item_is_error(tmp_path):
    p = tmp_path / "codes.tsv"
    p.write_text("A\t5\t2\t0\nC\t1\t1\t0\nA\t5\t2\t1\n")
    with pytest.raises(ValueError, match=r"codes\.tsv:3: duplicate item 'A'"):
        load_code_table(p, "ceid")


# ---------------------------------------------------------------------------
# the trimmed epoch against the untrimmed reference

@pytest.mark.parametrize("code_len", [1, 3])
@pytest.mark.parametrize("n_layers", [1, 5])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("n", [24, 70])  # one batch; two full batches and a ragged one
def test_training_bitwise_equals_the_untrimmed_reference(n, weight_decay, n_layers, code_len):
    emb = clustered_embeddings(n=n, dim=6, clusters=4, seed=30)
    cfg = RqVaeConfig(latent_dim=4, code_len=code_len, codebook_size=12, hidden_dim=8,
                      n_layers=n_layers, epochs=8, batch_size=32, learning_rate=1e-2,
                      weight_decay=weight_decay, seed=31)
    got, ref = train_rqvae(emb, cfg), reference_train_rqvae(emb, cfg)
    for (name, a), b in zip(parameter_arrays(got).items(), parameter_arrays(ref).values()):
        assert a.tobytes() == b.tobytes(), name
    assert got.loss_history == ref.loss_history
    assert got.reseeds == ref.reseeds and sum(got.reseeds) > 0
    codes = np.array(list(assign_codes(got, emb).values()))
    assert codes.tobytes() == reference_codes(ref, emb).tobytes()
