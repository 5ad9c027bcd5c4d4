"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` for per-criterion output.
The end-to-end criteria (9 and 10) share one fixture-scale pipeline run.
"""
import math
import time

import numpy as np
import pytest

from conftest import HashScorer, exhaustive_topk_oracle, ids_of, random_code_table
from rqrec.config import load_config
from rqrec.dataio import EmbeddingMatrix
from rqrec.metrics import HitSet, chr_avg, hit_at_k, ndcg_at_k, per
from rqrec.pipeline import run_stage, stage_evaluate, stage_rerank
from rqrec.rerank import fuse_and_rank, rank_side, score_items
from rqrec.retrieval import ListRecord, beam_search_constrained
from rqrec.rqvae import (RqVaeConfig, _forward, _gradients, finite_difference_gradients,
                         gradient_check, initialize_model, max_relative_error,
                         parameter_arrays, quantize_batch, resolve_collisions, train_rqvae)
from rqrec.vocab import build_prefix_trie, code_token


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


def rl(user, index_type, template, items):
    return ListRecord(user, index_type, template, list(items),
                      [-float(r) for r in range(len(items))])


# ---------------------------------------------------------------------------

def test_criterion_01_quantization_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        books = [rng.normal(size=(8, 16)) for _ in range(3)]
        z = rng.normal(size=16)
        codes, residuals, z_star = quantize_batch(z[None, :], books)
        r = z.copy()
        for l, book in enumerate(books):
            # independent oracle: exhaustive scan of all codewords at this level
            dists = [float(((r - e) ** 2).sum()) for e in book]
            best = min(range(8), key=lambda w: (dists[w], w))
            assert codes[0, l] == best
            r = r - book[best]
        assert float(np.max(np.abs((z - z_star[0]) - residuals[0, -1]))) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, f"100 instances match brute force, telescoping <= 1e-12, {elapsed:.2f}s")


def test_criterion_02_gradient_check():
    start = time.time()
    worst = 0.0
    for seed in (201, 202, 203):
        rng = np.random.default_rng(seed)
        rows = {f"i{k}": rng.normal(size=6) for k in range(32)}
        emb = EmbeddingMatrix(sorted(rows), np.stack([rows[i] for i in sorted(rows)]))
        cfg = RqVaeConfig(latent_dim=4, code_len=3, codebook_size=4, hidden_dim=8,
                          n_layers=5, epochs=0, batch_size=32, seed=seed)
        model = initialize_model(emb, cfg)
        batch = rng.normal(size=(4, 6))
        err = gradient_check(model, batch, 1e-5)
        worst = max(worst, err)
        assert err < 1e-3
        # negative control: doubling one gradient entry must blow the check
        analytic = _gradients(model, batch, _forward(model, batch))
        numeric = finite_difference_gradients(model, batch, 1e-5)
        name = max(analytic, key=lambda k: float(np.max(np.abs(analytic[k]))))
        idx = np.unravel_index(np.argmax(np.abs(analytic[name])), analytic[name].shape)
        analytic[name][idx] *= 2.0
        assert max_relative_error(analytic, numeric) > 1e-1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, f"max rel err {worst:.2e} < 1e-3, corrupted gradient fails, {elapsed:.1f}s")


def test_criterion_03_rqvae_training():
    start = time.time()
    rng = np.random.default_rng(301)
    centers = rng.normal(0, 3.0, size=(8, 24))
    x = centers[rng.integers(0, 8, 1000)] + rng.normal(0, 0.3, size=(1000, 24))
    emb = EmbeddingMatrix([f"i{k:04d}" for k in range(1000)], x)
    cfg = RqVaeConfig(latent_dim=8, code_len=3, codebook_size=16, hidden_dim=32,
                      epochs=200, batch_size=256, learning_rate=1e-3, seed=302)
    model = train_rqvae(emb, cfg)
    initial = model.loss_history[0][0]
    final = model.loss_history[-1][0]
    assert final < 0.1 * initial
    again = train_rqvae(emb, cfg)
    for a, b in zip(parameter_arrays(model).values(), parameter_arrays(again).values()):
        assert np.array_equal(a, b)
    for ca, cb in zip(model.codebooks, again.codebooks):
        assert np.array_equal(ca, cb)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(3, f"l_rec {initial:.2f} -> {final:.4f} ({final / initial:.2%}), "
              f"deterministic, {elapsed:.1f}s")


def test_criterion_04_collision_resolution():
    raw = {
        "pear": (5, 2, 7), "apple": (5, 2, 7),                     # 2-way
        "fig": (1, 1, 1), "date": (1, 1, 1), "elder": (1, 1, 1),   # 3-way
        "kiwi": (0, 3, 0), "lime": (4, 4, 4),                      # unique
    }
    table = resolve_collisions(raw, "ceid")
    tuples = list(table.codes.values())
    assert len(set(tuples)) == len(tuples)
    assert table.codes["apple"] == (5, 2, 7, 1)  # item-id order within the group
    assert table.codes["pear"] == (5, 2, 7, 2)
    assert table.codes["date"] == (1, 1, 1, 1)
    assert table.codes["elder"] == (1, 1, 1, 2)
    assert table.codes["fig"] == (1, 1, 1, 3)
    assert table.codes["kiwi"][-1] == 0 and table.codes["lime"][-1] == 0
    for item, tup in table.codes.items():
        group = [i for i, r in raw.items() if r == raw[item]]
        if len(group) == 1:
            assert tup[-1] == 0
        else:
            assert tup[-1] == sorted(group).index(item) + 1
    report(4, "2-way and 3-way groups numbered 1..m in item-id order, "
              "non-colliding all 0, tuples globally unique")


def test_criterion_05_beam_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(501)
    invalid = 0
    checked = 0
    # beam width K=20 covers the item count here, so equality is structural
    for trial in range(110):
        n_items = int(rng.integers(2, 21))
        vocab_size = int(rng.integers(2, 9))
        table = random_code_table(rng, n_items, vocab_size)
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        sc = HashScorer(seed=5000 + trial, vocab=vocab)
        ctx = list(rng.choice(vocab, size=int(rng.integers(0, 5))))
        got = beam_search_constrained(sc, trie, ids_of(vocab, ctx), 20)
        want = exhaustive_topk_oracle(sc, table, ctx, 20)
        assert got == want
        invalid += sum(1 for i in got.items if i not in table.codes)
        checked += 1
    # larger instances where the beam prunes: validity must still be absolute
    for trial in range(30):
        table = random_code_table(rng, int(rng.integers(25, 51)), int(rng.integers(2, 9)))
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        found = beam_search_constrained(HashScorer(seed=trial, vocab=vocab), trie, [], 20)
        invalid += sum(1 for i in found.items if i not in table.codes)
    assert invalid == 0
    elapsed = time.time() - start
    report(5, f"{checked} instances identical to oracle at K=20, "
              f"0 invalid ids across all runs, {elapsed:.1f}s")


def test_criterion_06_rerank_oracle():
    # anchors evaluated independently
    assert math.exp(-0.3) == pytest.approx(0.7408182206817179, abs=1e-12)
    assert math.exp(-math.sqrt(2) / 10) == pytest.approx(0.8681234453945849, abs=1e-12)

    ce = [rl("u", "ceid", 1, ["A", "B", "C"]), rl("u", "ceid", 2, ["B", "A", "D"])]
    se = [rl("u", "seid", 1, ["A", "C", "E"]), rl("u", "seid", 2, ["A", "D", "C"])]
    scores = score_items(ce, se, alpha=0.8, tau=10.0)
    # hand-evaluated position sets -> frozen expectations
    # pi_C: A[0,1] B[1,0] C[2] D[2]; pi_S: A[0,0] C[1,2] D[1] E[2]
    expected = {
        "A": (0.951229424500714, 0.9317314234233945, 0.9473298242852503,
              1.0, 1.0, 1.0, 1.9473298242852501),
        "B": (0.951229424500714, 0.9317314234233945, 0.9473298242852503,
              0.0, 0.0, 0.0, 0.9473298242852503),
        "C": (0.8187307530779818, 0.0, 0.6549846024623855,
              0.8607079764250578, 0.9317314234233945, 0.8749126658247253,
              1.5298972682871108),
        "D": (0.8187307530779818, 0.0, 0.6549846024623855,
              0.9048374180359595, 0.0, 0.7238699344287677, 1.3788545368911533),
        "E": (0.0, 0.0, 0.0, 0.8187307530779818, 0.0, 0.6549846024623855,
              0.6549846024623855),
    }
    for item, (conf_c, cons_c, s_c, conf_s, cons_s, s_s, s_total) in expected.items():
        s = scores[item]
        assert s.conf_c == pytest.approx(conf_c, abs=1e-9), item
        assert s.cons_c == pytest.approx(cons_c, abs=1e-9), item
        assert s.s_c == pytest.approx(s_c, abs=1e-9), item
        assert s.conf_s == pytest.approx(conf_s, abs=1e-9), item
        assert s.cons_s == pytest.approx(cons_s, abs=1e-9), item
        assert s.s_s == pytest.approx(s_s, abs=1e-9), item
        assert s.s_total == pytest.approx(s_total, abs=1e-9), item
    fused = fuse_and_rank(ce, se, alpha=0.8, tau=10.0, k_out=5)
    assert fused.items == ["A", "C", "D", "B", "E"]

    # an item top-ranked in every list of both types attains S = 2 exactly
    ce2 = [rl("u", "ceid", t, ["best", "other"]) for t in (1, 2)]
    se2 = [rl("u", "seid", t, ["best", "misc"]) for t in (1, 2)]
    assert score_items(ce2, se2, 0.8, 10.0)["best"].s_total == 2.0
    report(6, "toy instance matches hand evaluation to 1e-9 "
              "(anchors exp(-0.3), exp(-sqrt(2)/10)); top-everywhere item scores 2")


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(701)
    users = [f"u{k}" for k in range(20)]
    checked = 0
    for _ in range(1000):
        n1, n2 = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        fam1 = [HitSet(t + 1, set(rng.choice(users, size=rng.integers(1, 15),
                                             replace=False)))
                for t in range(n1)]
        fam2 = [HitSet(t + 1, set(rng.choice(users, size=rng.integers(1, 15),
                                             replace=False)))
                for t in range(n2)]
        # brute-force set algebra
        h1, h2 = fam1[0].users, fam2[0].users
        assert per(fam1[0], fam2[0]) == pytest.approx(
            len([u for u in h1 if u not in h2]) / len(h1), abs=1e-12)
        assert per(fam1[0], fam1[0]) == 0.0
        union = set().union(*(h.users for h in fam2))
        brute = sum(len([u for u in union if u not in h.users]) / len(union)
                    for h in fam1) / len(fam1)
        got = chr_avg(fam1, fam2)
        assert got == pytest.approx(brute, abs=1e-12)
        assert 0.0 <= got <= 1.0
        checked += 1

    # NDCG <= Hit and monotonicity in K on random evaluations
    items = [f"i{k}" for k in range(15)]
    for _ in range(50):
        records, test = [], {}
        for u in range(8):
            ranked = list(rng.permutation(items)[:10])
            records.append(rl(f"u{u}", "fused", 0, ranked))
            test[f"u{u}"] = items[int(rng.integers(0, 15))]
        lists = rank_side(records)
        prev_h = prev_n = 0.0
        for k in range(1, 11):
            h, n = hit_at_k(lists, test, k), ndcg_at_k(lists, test, k)
            assert n <= h + 1e-12
            assert h >= prev_h - 1e-12 and n >= prev_n - 1e-12
            prev_h, prev_n = h, n
    report(7, f"PER/CHR equal brute force on {checked} families; PER(t,t)=0; "
              "NDCG<=Hit; both non-decreasing in K")


def test_criterion_08_ablation_isolation():
    # every item keeps mean rank 1 across four lists in both variants, but every
    # item's rank dispersion (the Cons input) changes between the variants
    tight_c = [rl("u", "ceid", 1, ["a", "b", "c"]), rl("u", "ceid", 2, ["a", "b", "c"]),
               rl("u", "ceid", 3, ["c", "b", "a"]), rl("u", "ceid", 4, ["c", "b", "a"])]
    wide_c = [rl("u", "ceid", 1, ["b", "a", "c"]), rl("u", "ceid", 2, ["b", "c", "a"]),
              rl("u", "ceid", 3, ["a", "c", "b"]), rl("u", "ceid", 4, ["c", "a", "b"])]
    for variant in (tight_c, wide_c):
        pos = score_items(variant, [], alpha=1.0, tau=10.0)
        assert all(s.conf_c == pytest.approx(math.exp(-0.1), abs=1e-12)
                   for s in pos.values())
    tight_s = [rl("u", "seid", t, ["d", "a"]) for t in (1, 2)]
    f_tight = fuse_and_rank(tight_c, tight_s, alpha=1.0, tau=10.0, k_out=5)
    f_wide = fuse_and_rank(wide_c, tight_s, alpha=1.0, tau=10.0, k_out=5)
    assert f_tight == f_wide  # Conf-only ignores all Cons inputs
    f_tight_080 = fuse_and_rank(tight_c, tight_s, alpha=0.8, tau=10.0, k_out=5)
    f_wide_080 = fuse_and_rank(wide_c, tight_s, alpha=0.8, tau=10.0, k_out=5)
    assert (f_tight_080.scores[f_tight_080.items.index("b")]
            != f_wide_080.scores[f_wide_080.items.index("b")])

    # single-index modes reproduce single-index fusion exactly
    wide_s = [rl("u", "seid", 1, ["a", "d"]), rl("u", "seid", 2, ["d", "a"])]
    both = fuse_and_rank(tight_c, wide_s, alpha=0.8, tau=10.0, k_out=5)
    only_c = fuse_and_rank(tight_c, [], alpha=0.8, tau=10.0, k_out=5)
    only_s = fuse_and_rank([], wide_s, alpha=0.8, tau=10.0, k_out=5)
    scores_c = score_items(tight_c, [], 0.8, 10.0)
    scores_s = score_items([], wide_s, 0.8, 10.0)
    assert all(s == pytest.approx(scores_c[i].s_c, abs=1e-15)
               for i, s in zip(only_c.items, only_c.scores))
    assert all(s == pytest.approx(scores_s[i].s_s, abs=1e-15)
               for i, s in zip(only_s.items, only_s.scores))
    assert both != only_c and both != only_s
    report(8, "alpha=1 output invariant to Cons perturbation; "
              "single-index modes reproduce single-index fusion")


# ---------------------------------------------------------------------------
# end-to-end fixture (criteria 9 and 10)

FIXTURE_SETTINGS = {
    "pipeline.seed": 7,
    "pipeline.templates": 10,
    "synthetic.n_users": 2000,
    "synthetic.n_items": 500,
    "synthetic.n_clusters": 8,
    "synthetic.emb_dim": 48,
    "collab.dim": 48,
    "collab.epochs": 60,
    "collab.learning_rate": 40.0,
    "rqvae.latent_dim": 16,
    "rqvae.codebook_size": 32,
    "rqvae.hidden_dim": 64,
    "rqvae.epochs": 150,
    "rqvae.batch_size": 256,
    "scorer.order": 8,
    "retrieval.k": 20,
}


def read_metrics(out_dir):
    values = {}
    for line in (out_dir / "metrics.csv").read_text().splitlines()[1:]:
        metric, k, v = line.split(",")
        values[(metric, int(k))] = float(v)
    return values


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    out = tmp / "run"
    lines = [f"paths.out_dir = {out}",
             f"paths.interactions = {out}/interactions.tsv",
             f"paths.semantic_emb = {out}/semantic.emb"]
    lines += [f"{k} = {v}" for k, v in FIXTURE_SETTINGS.items()]
    cfg_path = tmp / "fixture.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    cfg = load_config(cfg_path)

    start = time.time()
    run_stage(cfg, "all", synthetic=True)
    elapsed = time.time() - start
    snapshot = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    full_metrics = read_metrics(out)

    run_stage(cfg, "all", synthetic=True)  # same config and seed
    rerun = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}

    mode_metrics = {}
    for mode in ("ceid-only", "seid-only"):
        stage_rerank(cfg, mode=mode)
        stage_evaluate(cfg)
        mode_metrics[mode] = read_metrics(out)
    stage_rerank(cfg)
    stage_evaluate(cfg)
    return cfg, elapsed, snapshot, rerun, full_metrics, mode_metrics


def test_criterion_09_end_to_end(fixture_run):
    cfg, elapsed, snapshot, rerun, full_metrics, mode_metrics = fixture_run
    assert elapsed < 600.0
    for (metric, k), v in full_metrics.items():
        assert 0.0 <= v <= 1.0
    for key in (("hit", 5), ("hit", 10), ("ndcg", 5), ("ndcg", 10)):
        assert key in full_metrics

    # PER matrices present with zero diagonal
    for index_type in ("ceid", "seid"):
        lines = snapshot[f"per_matrix_{index_type}.csv"].decode().splitlines()
        assert len(lines) == 11
        for row, line in enumerate(lines[1:]):
            assert float(line.split(",")[row + 1]) == 0.0

    # byte-identical artifacts on rerun with the same seed
    assert set(snapshot) == set(rerun)
    different = [name for name in snapshot if snapshot[name] != rerun[name]]
    assert different == []

    # fusion sanity floor against the single-index modes
    fused = full_metrics[("hit", 10)]
    best_single = max(mode_metrics["ceid-only"][("hit", 10)],
                      mode_metrics["seid-only"][("hit", 10)])
    assert fused >= 0.95 * best_single
    report(9, f"all ran in {elapsed:.0f}s; H@10={fused:.4f} vs best single "
              f"{best_single:.4f}; rerun byte-identical ({len(snapshot)} artifacts)")


def test_criterion_10_template_sweep(fixture_run):
    cfg, _, snapshot, _, _, _ = fixture_run
    lines = snapshot["template_sweep.csv"].decode().splitlines()
    assert lines[0] == "num_templates,hit@5,ndcg@5,hit@10,ndcg@10"
    counts = [int(line.split(",")[0]) for line in lines[1:]]
    assert counts == list(range(2, 11))
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")[1:]]
        assert len(cells) == 4
        assert all(0.0 <= c <= 1.0 for c in cells)
    report(10, f"sweep reports all cells for |T| in 2..10 "
               f"({len(lines) - 1} rows x 4 metrics); monotonicity not asserted")
