import math
import re

import numpy as np
import pytest

from conftest import ids_of
from rqrec.scorer import (MarkovScorer, NgramTables, ScorerConfig, count_ngrams, load_scorer,
                          save_scorer, train_markov_scorer)


def cfg(**kw):
    return ScorerConfig(**{"order": 2, "delta": 0.1, "backoff_lambda": 0.4,
                           "seed": 0, **kw})


def train_tokens(streams, template_ids, config, index_type, vocab=None):
    """`train_markov_scorer` over the ids of token-string streams; the vocabulary
    defaults to the streams' sorted tokens."""
    if vocab is None:
        vocab = sorted({t for s in streams.values() for t in s})
    return train_markov_scorer({u: ids_of(vocab, s) for u, s in streams.items()},
                               template_ids, config, index_type, vocab)


def counts(sc):
    """The scorer's n-gram keys and counts per order, as comparable lists."""
    return [(keys.tolist(), c[:-1, sc.column].tolist())
            for keys, c in zip(sc.tables.ngram_keys, sc.tables.counts)]


def totals(sc):
    return [(keys.tolist(), t[:-1, sc.column].tolist())
            for keys, t in zip(sc.tables.ctx_keys, sc.tables.totals)]


def test_repeating_stream_count_dominance():
    streams = {"u": ["a", "b"] * 20}
    sc = train_tokens(streams, [1], cfg(), "ceid")[0]
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert lp["b"] > lp["a"]


def test_large_delta_tends_uniform():
    streams = {"u": ["a", "b"] * 20}
    sc = train_tokens(streams, [1], cfg(delta=1e9), "ceid")[0]
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert abs(lp["a"] - lp["b"]) < 1e-6


def test_train_deterministic():
    rng = np.random.default_rng(0)
    streams = {f"u{k}": [f"t{rng.integers(0, 5)}" for _ in range(8)] for k in range(6)}
    a = train_tokens(streams, [1], cfg(), "ceid")[0]
    b = train_tokens(streams, [1], cfg(), "ceid")[0]
    assert counts(a) == counts(b) and totals(a) == totals(b)
    # bootstrap templates are deterministic too, but differ from the full data
    a3 = train_tokens(streams, [3], cfg(), "ceid")[0]
    b3 = train_tokens(streams, [3], cfg(), "ceid")[0]
    assert counts(a3) == counts(b3)
    assert counts(a3) != counts(a)


def test_single_candidate_logprob_zero():
    sc = train_tokens({"u": ["a", "b"]}, [1], cfg(), "ceid")[0]
    assert sc.next_token_logprobs(["a"], ["b"]) == {"b": 0.0}


def test_uniform_untrained_model():
    sc = MarkovScorer(order=2, delta=0.1, backoff_lambda=0.4, template_id=1,
                      index_type="ceid", vocab=["a", "b", "c", "d"])
    lp = sc.next_token_logprobs([], ["a", "b", "c", "d"])
    for t in "abcd":
        assert lp[t] == pytest.approx(math.log(0.25), abs=1e-12)


def test_hand_computed_backoff():
    # corpus [a, b, a], order 1, delta=0.1, lambda=0.4:
    #   P0(a) = 2.1/3.2, P0(b) = 1.1/3.2
    #   P(b|a) = 0.6 * (1.1/1.2) + 0.4 * (1.1/3.2) = 0.6875
    #   P(a|a) = 0.6 * (0.1/1.2) + 0.4 * (2.1/3.2) = 0.3125
    sc = train_tokens({"u": ["a", "b", "a"]}, [1], cfg(order=1), "ceid")[0]
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert lp["b"] == pytest.approx(math.log(0.6875), abs=1e-12)
    assert lp["a"] == pytest.approx(math.log(0.3125), abs=1e-12)


def test_renormalization_sums_to_one():
    rng = np.random.default_rng(1)
    vocab = [f"t{k}" for k in range(12)]
    streams = {f"u{k}": [vocab[rng.integers(0, 12)] for _ in range(30)]
               for k in range(5)}
    sc = train_tokens(streams, [1], cfg(order=3), "ceid", vocab=vocab)[0]
    for _ in range(50):
        n_c = int(rng.integers(1, 12))
        cands = list(rng.choice(vocab, size=n_c, replace=False))
        ctx = [vocab[rng.integers(0, 12)] for _ in range(int(rng.integers(0, 6)))]
        lp = sc.next_token_logprobs(ctx, cands)
        assert abs(sum(math.exp(v) for v in lp.values()) - 1.0) <= 1e-9
        assert all(math.isfinite(v) for v in lp.values())


def test_order_n_beats_unigram_on_structured_data():
    rng = np.random.default_rng(2)
    vocab = ["a", "b", "c", "d"]
    nxt = {"a": "b", "b": "c", "c": "d", "d": "a"}

    def walk(n):
        cur = vocab[rng.integers(0, 4)]
        out = [cur]
        for _ in range(n - 1):
            cur = nxt[cur] if rng.random() < 0.9 else vocab[rng.integers(0, 4)]
            out.append(cur)
        return out

    train = {f"u{k}": walk(25) for k in range(12)}
    held = walk(200)
    hi = train_tokens(train, [1], cfg(order=2), "ceid", vocab=vocab)[0]
    uni = train_tokens(train, [1], cfg(order=0), "ceid", vocab=vocab)[0]

    def mean_nll(sc):
        return -sum(sc.next_token_logprobs(held[:i], vocab)[held[i]]
                    for i in range(len(held))) / len(held)

    assert mean_nll(hi) <= mean_nll(uni)


def test_bootstrap_seeded_by_template():
    # distinct unigrams per user: any difference in the resampled multiset shows up
    streams = {f"u{k}": [f"w{k}"] * (k + 1) for k in range(8)}
    s2 = train_tokens(streams, [2], cfg(), "ceid")[0]
    s5 = train_tokens(streams, [5], cfg(), "ceid")[0]
    assert counts(s2) != counts(s5)  # different template seeds resample differently


def test_empty_streams_error():
    with pytest.raises(ValueError):
        train_tokens({}, [1], cfg(), "ceid")
    with pytest.raises(ValueError):
        train_tokens({"u": []}, [1], cfg(), "ceid")


def test_empty_candidates_error():
    sc = train_tokens({"u": ["a", "b"]}, [1], cfg(), "ceid")[0]
    with pytest.raises(ValueError):
        sc.next_token_logprobs(["a"], [])


def test_unknown_candidate_error():
    sc = train_tokens({"u": ["a", "b"]}, [1], cfg(), "ceid")[0]
    with pytest.raises(ValueError, match="zzz"):
        sc.next_token_logprobs(["a"], ["zzz"])


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    streams = {f"u{k}": [f"t{rng.integers(0, 6)}" for _ in range(15)]
               for k in range(5)}
    scorers = train_tokens(streams, [1, 2, 3, 4], cfg(order=3, delta=0.25), "seid")
    p = tmp_path / "scorer.txt"
    save_scorer(scorers, p)
    loaded = load_scorer(p)
    assert [b.template_id for b in loaded] == [1, 2, 3, 4]
    for sc, back in zip(scorers, loaded):
        assert back.order == sc.order and back.delta == sc.delta
        assert back.backoff_lambda == sc.backoff_lambda
        assert back.index_type == "seid" and back.vocab == sc.vocab
        assert counts(back) == counts(sc) and totals(back) == totals(sc)
        assert back.tables is loaded[0].tables and back.column == back.template_id - 1
        ctx = [sc.vocab[0], sc.vocab[1]]
        assert back.next_token_logprobs(ctx, sc.vocab) == sc.next_token_logprobs(ctx, sc.vocab)


def test_save_refuses_mismatched_scorers(tmp_path):
    streams = {"u": ["a", "b", "a", "c"], "v": ["c", "b"]}
    one, two = train_tokens(streams, [1, 2], cfg(), "ceid")
    p = tmp_path / "scorer.txt"
    for bad in ([], [two], [one, one],
                [one, train_tokens(streams, [2], cfg(), "seid")[0]],
                [one, train_tokens(streams, [2], cfg(delta=0.5), "ceid")[0]],
                [one, train_tokens({"u": ["a", "b"]}, [2], cfg(), "ceid",
                                          vocab=one.vocab)[0]]):
        with pytest.raises(ValueError):
            save_scorer(bad, p)
    # template 2 counted again: the same keys, counts and settings, in another table
    again = train_tokens(streams, [1, 2], cfg(), "ceid")[1]
    with pytest.raises(ValueError, match=r"^scorer 2 of 2 \(template 2\) does not share the "
                                         r"n-gram table"):
        save_scorer([one, again], p)
    assert not p.exists()


def reference_logprobs(streams, template_id, config, vocab, context, candidates):
    """The smoothed backoff model from scratch: n-gram dicts counted by scanning
    the (resampled) streams, then the scalar formula per candidate, Python's
    sum and math.log."""
    users = sorted(u for u, s in streams.items() if s)
    if template_id == 1:
        chosen = users
    else:
        rng = np.random.default_rng([config.seed, template_id])
        chosen = [users[j] for j in rng.integers(0, len(users), size=len(users))]
    ngrams: dict[tuple[str, ...], int] = {}
    ctx_totals: dict[tuple[str, ...], int] = {}
    for u in chosen:
        s = streams[u]
        for i in range(len(s)):
            for k in range(min(config.order, i) + 1):
                ngrams[tuple(s[i - k:i + 1])] = ngrams.get(tuple(s[i - k:i + 1]), 0) + 1
                ctx_totals[tuple(s[i - k:i])] = ctx_totals.get(tuple(s[i - k:i]), 0) + 1
    tail = context[max(0, len(context) - config.order):]
    v, d, lam = len(vocab), config.delta, config.backoff_lambda
    probs = []
    for tok in sorted(candidates):
        p = (ngrams.get((tok,), 0) + d) / (ctx_totals.get((), 0) + d * v)
        for k in range(1, len(tail) + 1):
            ctx = tuple(tail[len(tail) - k:])
            s = (ngrams.get(ctx + (tok,), 0) + d) / (ctx_totals.get(ctx, 0) + d * v)
            p = (1.0 - lam) * s + lam * p
        probs.append(p)
    total = sum(probs)
    return {t: math.log(p / total) for t, p in zip(sorted(candidates), probs)}


def test_logprobs_bitwise_equal_to_bruteforce_reference():
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(60):
        n_vocab = int(rng.integers(1, 10))
        vocab = [f"t{k}" for k in range(n_vocab)]
        streams = {f"u{j}": [vocab[x] for x in rng.integers(0, n_vocab, int(rng.integers(0, 16)))]
                   for j in range(int(rng.integers(1, 7)))}
        streams["u0"] = streams["u0"] or [vocab[0]]
        config = cfg(order=trial % 5, seed=trial, delta=[0.1, 0.25, 1.0][trial % 3])
        template_id = 1 + trial % 3
        sc = train_tokens(streams, [template_id], config, "ceid", vocab=vocab)[0]
        for _ in range(15):
            # contexts shorter and longer than the order, some holding an OOV token
            context = [vocab[x] if rng.random() > 0.2 else "<OOV>"
                       for x in rng.integers(0, n_vocab, int(rng.integers(0, 7)))]
            cands = list(rng.choice(vocab, size=int(rng.integers(1, n_vocab + 1)), replace=False))
            want = reference_logprobs(streams, template_id, config, vocab, context, cands)
            assert sc.next_token_logprobs(context, cands) == want
            checked += 1
    assert checked == 900


def test_oov_context_token_differs_from_short_history():
    streams = {"u": ["a", "b", "a", "b", "b", "a"]}
    sc = train_tokens(streams, [1], cfg(order=2), "ceid")[0]
    short = sc.next_token_logprobs(["a"], ["a", "b"])
    with_oov = sc.next_token_logprobs(["<OOV>", "a"], ["a", "b"])
    assert short != with_oov  # the OOV position still adds a zero-count order
    assert with_oov == reference_logprobs(streams, 1, cfg(order=2), ["a", "b"],
                                          ["<OOV>", "a"], ["a", "b"])


def test_add_stream_matches_training():
    rng = np.random.default_rng(22)
    vocab = [f"t{k}" for k in range(6)]
    streams = {f"u{k}": [vocab[x] for x in rng.integers(0, 6, 12)] for k in range(5)}
    trained = train_tokens(streams, [1], cfg(order=3), "ceid", vocab=vocab)[0]
    grown = MarkovScorer(order=3, delta=0.1, backoff_lambda=0.4, template_id=1,
                         index_type="ceid", vocab=vocab)
    for u in sorted(streams):
        grown.add_stream(ids_of(vocab, streams[u]))
    assert counts(grown) == counts(trained) and totals(grown) == totals(trained)


def reference_count_ngrams(streams, order, v):
    """Per order, the context keys, n-gram keys, n-gram ids and owners that
    `count_ngrams` numbers, by the per-token append loop that np.repeat replaced."""
    users = sorted(u for u, s in streams.items() if s)
    ids, owner, pos = [], [], []
    for j, u in enumerate(users):
        for i, t in enumerate(streams[u]):
            if not 0 <= t < v:
                raise ValueError(f"stream token id {t} not in a vocabulary of {v}")
            ids.append(t)
            owner.append(j)
            pos.append(i)
    tok, owner, pos = (np.array(x, dtype=np.int64) for x in (ids, owner, pos))
    out = [[], [], [], []]
    ctx = np.zeros(len(tok), dtype=np.int64)
    at = np.arange(len(tok))
    for k in range(order + 1):
        if k:
            deep = pos[at] >= k
            at = at[deep]
            keys, ctx = np.unique(ctx[deep] * v + tok[at - k], return_inverse=True)
        else:
            keys = np.zeros(min(1, len(tok)), dtype=np.int64)
        ngram_keys, ngram_ids = np.unique(ctx * v + tok[at], return_inverse=True)
        for column, value in zip(out, (keys, ngram_keys, ngram_ids, owner[at])):
            column.append(value)
    return out


def reference_tables(streams, order, v, weights):
    """Keys, counts and totals per order from the append loop's occurrences: each
    column a weighted bincount, totals summed per occurrence rather than per key."""
    ctx_keys, ngram_keys, ngram_ids, owners = reference_count_ngrams(streams, order, v)
    counts, totals = [], []
    for ctx, keys, ids, own in zip(ctx_keys, ngram_keys, ngram_ids, owners):
        c = np.zeros((len(keys) + 1, len(weights)), dtype=np.int64)
        t = np.zeros((len(ctx) + 1, len(weights)), dtype=np.int64)
        for column, w in enumerate(weights):
            c[:-1, column] = np.bincount(ids, weights=w[own], minlength=len(keys))
            t[:-1, column] = np.bincount(keys[ids] // v, weights=w[own], minlength=len(ctx))
        counts.append(c)
        totals.append(t)
    return NgramTables(ctx_keys, totals, ngram_keys, counts)


def assert_tables_equal(tables, ref):
    for name in ("ctx_keys", "totals", "ngram_keys", "counts"):
        arrays, ref_arrays = getattr(tables, name), getattr(ref, name)
        assert len(arrays) == len(ref_arrays)
        for a, b in zip(arrays, ref_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_ngrams_equals_append_loop(seed):
    rng = np.random.default_rng(seed)
    vocab = [f"t{k}" for k in range(6)]
    streams = {f"u{k}": rng.integers(0, 6, int(rng.integers(0, 14))).tolist()  # ids into vocab
               for k in range(15)}
    assert any(not s for s in streams.values())
    n = sum(1 for s in streams.values() if s)
    weights = np.concatenate([np.ones((1, n), dtype=np.int64), rng.integers(0, 4, (2, n))])
    assert (weights == 0).any() and (weights > 1).any()
    for order in (0, 1, 3, 5):
        tables = count_ngrams(streams, order, len(vocab), weights)
        assert_tables_equal(tables, reference_tables(streams, order, len(vocab), weights))
        assert tables.counts[0].shape == (len(tables.ngram_keys[0]) + 1, 3)
    # ids outside the vocabulary: the first in stream order is named
    streams["u3"] = [1, 9, 2, -1]
    streams["u7"] = [-2]
    with pytest.raises(ValueError, match="^stream token id 9 not in a vocabulary of 6$"):
        count_ngrams(streams, 2, len(vocab), np.ones((1, n)))
    with pytest.raises(ValueError, match="^stream token id 9 not in a vocabulary of 6$"):
        reference_count_ngrams(streams, 2, len(vocab))


def test_add_stream_to_a_later_template_column():
    rng = np.random.default_rng(24)
    vocab = [f"t{k}" for k in range(6)]
    streams = {f"u{k}": rng.integers(0, 6, int(rng.integers(1, 15))).tolist() for k in range(9)}
    config = cfg(order=3, seed=5)
    scorers = train_markov_scorer(streams, [1, 2, 7], config, "ceid", vocab)
    grown = scorers[2]
    assert (grown.template_id, grown.column) == (7, 2)
    new = rng.integers(0, 6, 11).tolist()
    grown.add_stream(new)
    # template 7's bootstrap weights, then 1 for the new stream, whose user sorts last
    n = len(streams)
    w7 = np.bincount(np.random.default_rng([5, 7]).integers(0, n, size=n), minlength=n)
    assert (w7 != 1).any()  # column 0 would count other weights
    want = count_ngrams({**streams, "v": new}, 3, len(vocab), np.append(w7, 1)[None])
    assert grown.column == 0 and grown.tables is not scorers[0].tables
    assert_tables_equal(grown.tables, want)


def test_shared_index_matches_own_count():
    rng = np.random.default_rng(23)
    vocab = [f"t{k}" for k in range(7)]
    streams = {f"u{k}": [vocab[x] for x in rng.integers(0, 7, int(rng.integers(1, 20)))]
               for k in range(8)}
    together = train_tokens(streams, [1, 2, 7], cfg(order=3), "ceid", vocab=vocab)
    for column, (t, shared) in enumerate(zip((1, 2, 7), together)):
        own = train_tokens(streams, [t], cfg(order=3), "ceid", vocab=vocab)[0]
        assert counts(own) == counts(shared) and totals(own) == totals(shared)
        assert (shared.template_id, shared.column) == (t, column)
        assert shared.tables is together[0].tables
        assert shared.ngram_rows() == own.ngram_rows()
        for ctx in ([], vocab[:1], vocab[2:5], streams["u0"][-3:]):
            assert shared.next_token_logprobs(ctx, vocab) == own.next_token_logprobs(ctx, vocab)


@pytest.mark.parametrize("old", [
    "MARKOV_SCORER v1\nindex_type ceid\ntemplate 1\norder 1\n"
    "delta 0.1\nlambda 0.4\nvocab a b\ncounts\n\ta\t2\na\tb\t1\n",
    "MARKOV_SCORER v2\nindex_type ceid\ntemplate 1\norder 0\ndelta 0.1\nlambda 0.4\n"
    "vocab a b\ncontexts 1\nngrams 2\ncounts\nctx0 0\nngram0 0 1\ncount0 2 1\n",
], ids=["v1", "v2"])
def test_load_refuses_v1_checkpoint(tmp_path, old):
    p = tmp_path / "scorer_ceid.txt"
    p.write_text(old)
    with pytest.raises(ValueError, match="train-scorers"):
        load_scorer(p)


def test_load_refuses_truncated_checkpoint(tmp_path):
    streams = {"u": ["a", "b", "a", "c", "b"], "v": ["c", "a", "b"]}
    scorers = train_tokens(streams, [1, 2], cfg(order=2), "ceid")
    p = tmp_path / "scorer_ceid.txt"
    save_scorer(scorers, p)
    lines = p.read_text().splitlines()
    assert lines[-1].startswith("count2_t2 ")
    p.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]) + "\n")  # one value short
    with pytest.raises(ValueError, match="train-scorers"):
        load_scorer(p)
    p.write_text("\n".join(lines[:-2]) + "\n")  # the last two arrays missing
    with pytest.raises(ValueError, match="train-scorers"):
        load_scorer(p)
    # template 2's order-1 count line dropped: the line count no longer fits
    p.write_text("\n".join(ln for ln in lines if not ln.startswith("count1_t2 ")) + "\n")
    with pytest.raises(ValueError, match="2 templates.*train-scorers"):
        load_scorer(p)
    p.write_text("\n".join(ln for ln in lines if not ln.startswith("ngrams ")) + "\n")
    with pytest.raises(ValueError, match="lacks ngrams.*train-scorers"):
        load_scorer(p)
    # a malformed number names the file and the stage to rerun
    named = rf"^{re.escape(str(p))}: .+; rerun 'train-scorers' to rewrite it$"

    def replaced(tag, first):
        """The checkpoint lines with the first value of line `tag` replaced."""
        at = next(n for n, ln in enumerate(lines) if ln.split(" ")[0] == tag)
        return lines[:at] + [" ".join([tag, first, *lines[at].split(" ")[2:]])] + lines[at + 1:]

    for tag, first in (("order", "x"), ("delta", "x"), ("templates", "two"),
                       ("count1_t2", "x"), ("ngrams", "-4")):
        p.write_text("\n".join(replaced(tag, first)) + "\n")
        with pytest.raises(ValueError, match=named):
            load_scorer(p)
    # a negative count, and keys out of order: lookups binary-search the keys
    p.write_text("\n".join(replaced("count1_t2", "-50")) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 'count1_t2' holds a "
                                         r"negative count; rerun 'train-scorers' to rewrite it$"):
        load_scorer(p)
    at = next(n for n, ln in enumerate(lines) if ln.startswith("ngram1 "))
    tag, *keys = lines[at].split(" ")
    assert len(keys) > 1
    p.write_text("\n".join(lines[:at] + [" ".join([tag, *keys[::-1]])] + lines[at + 1:]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 'ngram1': keys are not "
                                         r"strictly increasing; rerun 'train-scorers' to "
                                         r"rewrite it$"):
        load_scorer(p)
