import math

import numpy as np
import pytest

from rqrec.scorer import (MarkovScorer, ScorerConfig, load_scorer, save_scorer,
                          train_markov_scorer)


def cfg(**kw):
    return ScorerConfig(**{"order": 2, "delta": 0.1, "backoff_lambda": 0.4,
                           "seed": 0, **kw})


def test_repeating_stream_count_dominance():
    streams = {"u": ["a", "b"] * 20}
    sc = train_markov_scorer(streams, 1, cfg(), "ceid")
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert lp["b"] > lp["a"]


def test_large_delta_tends_uniform():
    streams = {"u": ["a", "b"] * 20}
    sc = train_markov_scorer(streams, 1, cfg(delta=1e9), "ceid")
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert abs(lp["a"] - lp["b"]) < 1e-6


def test_train_deterministic():
    rng = np.random.default_rng(0)
    streams = {f"u{k}": [f"t{rng.integers(0, 5)}" for _ in range(8)] for k in range(6)}
    a = train_markov_scorer(streams, 1, cfg(), "ceid")
    b = train_markov_scorer(streams, 1, cfg(), "ceid")
    assert a.counts == b.counts and a.totals == b.totals
    # bootstrap templates are deterministic too, but differ from the full data
    a3 = train_markov_scorer(streams, 3, cfg(), "ceid")
    b3 = train_markov_scorer(streams, 3, cfg(), "ceid")
    assert a3.counts == b3.counts
    assert a3.counts != a.counts


def test_single_candidate_logprob_zero():
    sc = train_markov_scorer({"u": ["a", "b"]}, 1, cfg(), "ceid")
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
    sc = train_markov_scorer({"u": ["a", "b", "a"]}, 1, cfg(order=1), "ceid")
    lp = sc.next_token_logprobs(["a"], ["a", "b"])
    assert lp["b"] == pytest.approx(math.log(0.6875), abs=1e-12)
    assert lp["a"] == pytest.approx(math.log(0.3125), abs=1e-12)


def test_renormalization_sums_to_one():
    rng = np.random.default_rng(1)
    vocab = [f"t{k}" for k in range(12)]
    streams = {f"u{k}": [vocab[rng.integers(0, 12)] for _ in range(30)]
               for k in range(5)}
    sc = train_markov_scorer(streams, 1, cfg(order=3), "ceid", vocab=vocab)
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
    hi = train_markov_scorer(train, 1, cfg(order=2), "ceid", vocab=vocab)
    uni = train_markov_scorer(train, 1, cfg(order=0), "ceid", vocab=vocab)
    assert hi.stream_nll(held) <= uni.stream_nll(held)


def test_bootstrap_seeded_by_template():
    # distinct unigrams per user: any difference in the resampled multiset shows up
    streams = {f"u{k}": [f"w{k}"] * (k + 1) for k in range(8)}
    s2 = train_markov_scorer(streams, 2, cfg(), "ceid")
    s5 = train_markov_scorer(streams, 5, cfg(), "ceid")
    assert s2.counts != s5.counts  # different template seeds resample differently


def test_empty_streams_error():
    with pytest.raises(ValueError):
        train_markov_scorer({}, 1, cfg(), "ceid")
    with pytest.raises(ValueError):
        train_markov_scorer({"u": []}, 1, cfg(), "ceid")


def test_empty_candidates_error():
    sc = train_markov_scorer({"u": ["a", "b"]}, 1, cfg(), "ceid")
    with pytest.raises(ValueError):
        sc.next_token_logprobs(["a"], [])


def test_unknown_candidate_error():
    sc = train_markov_scorer({"u": ["a", "b"]}, 1, cfg(), "ceid")
    with pytest.raises(ValueError, match="zzz"):
        sc.next_token_logprobs(["a"], ["zzz"])


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    streams = {f"u{k}": [f"t{rng.integers(0, 6)}" for _ in range(15)]
               for k in range(5)}
    sc = train_markov_scorer(streams, 4, cfg(order=3, delta=0.25), "seid")
    p = tmp_path / "scorer.txt"
    save_scorer(sc, p)
    back = load_scorer(p)
    assert back.order == sc.order and back.delta == sc.delta
    assert back.backoff_lambda == sc.backoff_lambda
    assert back.template_id == 4 and back.index_type == "seid"
    assert back.vocab == sc.vocab
    assert back.counts == sc.counts and back.totals == sc.totals
    ctx = [sc.vocab[0], sc.vocab[1]]
    assert back.next_token_logprobs(ctx, sc.vocab) == sc.next_token_logprobs(ctx, sc.vocab)
