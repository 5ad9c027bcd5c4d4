import re

import numpy as np
import pytest

from conftest import (EntriesList, HashScorer, UniformScorer, fused_lists, ids_of,
                      random_code_table)
from rqrec.rerank import fuse_and_rank, rank_arrays, rank_side, score_pairs, top_k
from rqrec.retrieval import (ListRecord, RankedList, beam_search_constrained,
                             beam_search_users, exhaustive_topk_oracle, ranked_list_record,
                             read_ranked_lists, write_ranked_lists)
from rqrec.rqvae import ItemCodeTable
from rqrec.scorer import ScorerConfig, train_markov_scorer
from rqrec.vocab import build_prefix_trie, code_token


def table_of(codes, index_type="ceid"):
    code_len = len(next(iter(codes.values()))) - 1
    return ItemCodeTable(index_type=index_type, code_len=code_len, codes=codes)


def test_single_item_trie():
    table = table_of({"only": (3, 1, 4, 0)})
    trie = build_prefix_trie(table)
    sc = HashScorer(seed=1, vocab=[code_token("ceid", l, w)
                                   for l in range(1, 5) for w in range(8)])
    rl = beam_search_constrained(sc, trie, [], 5)
    assert rl.items == ["only"]
    # single path: every step renormalizes over one candidate, total logprob 0
    assert rl.scores[0] == pytest.approx(0.0, abs=1e-15)


def test_uniform_ties_break_lexicographically():
    # branch only at the first level so every complete path scores ln(1/4)
    codes = {"w": (3, 0, 0, 0), "x": (0, 1, 1, 0), "y": (2, 0, 2, 0), "z": (1, 0, 0, 0)}
    trie = build_prefix_trie(table_of(codes))
    rl = beam_search_constrained(UniformScorer(), trie, [], 4)
    assert rl.items == ["x", "z", "y", "w"]  # by code tuple: 0..., 1..., 2..., 3...
    assert all(s == rl.scores[0] for s in rl.scores)


def test_beam_equals_oracle_when_width_covers_items():
    # beam search is exact when the width is at least the item count: nothing is pruned
    rng = np.random.default_rng(42)
    for trial in range(30):
        n_items = int(rng.integers(2, 51))
        vocab_size = int(rng.integers(2, 9))
        table = random_code_table(rng, n_items, vocab_size)
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        sc = HashScorer(seed=trial, vocab=vocab)
        ctx = list(rng.choice(vocab, size=int(rng.integers(0, 6))))
        k = max(n_items, int(rng.integers(1, 21)))
        got = beam_search_constrained(sc, trie, ids_of(vocab, ctx), k)
        want = exhaustive_topk_oracle(sc, table, ctx, k)
        assert (got.items, got.scores) == (want.items, want.scores)
        assert all(i in table.codes for i in got.items)


def test_beam_valid_items_even_when_pruning():
    # narrower than the item count: ordering may be approximate but every id is real
    rng = np.random.default_rng(43)
    for trial in range(15):
        table = random_code_table(rng, int(rng.integers(25, 51)), int(rng.integers(2, 9)))
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        rl = beam_search_constrained(HashScorer(seed=trial, vocab=vocab), trie, [], 10)
        assert len(rl.items) == len(rl.scores) == 10
        assert all(i in table.codes for i in rl.items)


def test_beam_full_width_equals_oracle_with_markov_scorer():
    rng = np.random.default_rng(7)
    # the second table has 11 levels and words up to 12, where sorted-token order is
    # neither level-major nor numeric: "<CeID_10,0>" < "<CeID_2,0>", "<CeID_1,10>" < "<CeID_1,2>"
    for n_items, words, code_len in ((20, 4, 3), (30, 13, 10)):
        table = random_code_table(rng, n_items, words, code_len)
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        assert trie.vocab == vocab
        streams = {f"u{k}": list(rng.choice(vocab, size=20)) for k in range(6)}
        sc = train_markov_scorer({u: ids_of(vocab, s) for u, s in streams.items()}, [1],
                                 ScorerConfig(order=4), "ceid", vocab=vocab)[0]
        got = beam_search_constrained(sc, trie, ids_of(vocab, streams["u0"][:8]),
                                      len(table.codes))
        want = exhaustive_topk_oracle(sc, table, streams["u0"][:8], len(table.codes))
        assert (got.items, got.scores) == (want.items, want.scores)
        assert len(got.items) == len(table.codes)
    assert trie.depth == 11 and max(max(tup) for tup in table.codes.values()) >= 10


def test_beam_equals_oracle_with_two_digit_code_words():
    # code words >= 10 make token-string order ("<CeID_1,10>" < "<CeID_1,2>")
    # differ from numeric order: the oracle normalizes over sorted tokens and
    # breaks ties by code tuple, so both orders of the trie must match it
    rng = np.random.default_rng(21)
    for trial in range(40):
        table = random_code_table(rng, int(rng.integers(30, 61)), int(rng.integers(11, 16)))
        trie = build_prefix_trie(table)
        vocab = sorted({code_token("ceid", l + 1, w)
                        for tup in table.codes.values() for l, w in enumerate(tup)})
        streams = {f"u{k}": list(rng.choice(vocab, size=30)) for k in range(6)}
        sc = train_markov_scorer({u: ids_of(vocab, s) for u, s in streams.items()}, [1],
                                 ScorerConfig(order=3, seed=trial), "ceid", vocab=vocab)[0]
        ctx = streams["u0"][:int(rng.integers(0, 8))]
        got = beam_search_constrained(sc, trie, ids_of(vocab, ctx), len(table.codes))
        want = exhaustive_topk_oracle(sc, table, ctx, len(table.codes))
        assert (got.items, got.scores) == (want.items, want.scores)


def test_uniform_ties_break_by_numeric_code_tuple():
    # item names and token strings both order "10" before "2"; code tuples do not
    codes = {f"i{w}": (w, 0, 0, 0) for w in range(12)}
    table = table_of(codes)
    rl = beam_search_constrained(UniformScorer(), build_prefix_trie(table), [], 12)
    assert rl.items == [f"i{w}" for w in range(12)]
    assert rl == exhaustive_topk_oracle(UniformScorer(), table, [], 12)


def test_oracle_k_bounds():
    rng = np.random.default_rng(3)
    table = random_code_table(rng, 9, 3)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    sc = HashScorer(seed=5, vocab=vocab)
    assert len(exhaustive_topk_oracle(sc, table, [], 100).items) == 9
    top1 = exhaustive_topk_oracle(sc, table, [], 1)
    assert len(top1.items) == len(top1.scores) == 1
    assert top1.items[0] == exhaustive_topk_oracle(sc, table, [], 9).items[0]


def test_beam_deterministic():
    rng = np.random.default_rng(11)
    table = random_code_table(rng, 30, 5)
    trie = build_prefix_trie(table)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    sc = HashScorer(seed=2, vocab=vocab)
    a = beam_search_constrained(sc, trie, ids_of(vocab, [vocab[0]]), 10)
    b = beam_search_constrained(sc, trie, ids_of(vocab, [vocab[0]]), 10)
    assert a == b


def test_beam_scores_non_increasing():
    rng = np.random.default_rng(13)
    table = random_code_table(rng, 40, 6)
    trie = build_prefix_trie(table)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    rl = beam_search_constrained(HashScorer(seed=9, vocab=vocab), trie, [], 15)
    assert rl.scores == sorted(rl.scores, reverse=True)
    assert len(set(rl.items)) == len(rl.items)


def test_beam_context_id_outside_the_trie_is_error():
    table = table_of({"a": (0, 0)})
    trie = build_prefix_trie(table)
    assert trie.vocab == ["<CeID_1,0>", "<CeID_2,0>"]
    contexts = [[0], [1, 2, 0], [-1]]
    for sc in (HashScorer(seed=1, vocab=trie.vocab), UniformScorer()):
        with pytest.raises(ValueError, match=r"^context token ids must lie in 0\.\.1$"):
            beam_search_users([sc], trie, contexts, 1, ["u0", "u1", "u2"])
        lists, _ = beam_search_users([sc], trie, contexts[:1], 1, ["u0"])
        assert lists[0].items == ["a"]
    with pytest.raises(ValueError, match=r"^context token ids must lie in 0\.\.1$"):
        beam_search_constrained(UniformScorer(), trie, [-1], 1)


def test_candidate_token_outside_vocab_is_named():
    # a checkpoint trained on an older code table lacks tokens of the current trie
    codes = {"a": (0, 1, 0), "b": (0, 2, 0), "c": (1, 3, 0), "d": (1, 4, 0)}
    trie = build_prefix_trie(table_of(codes))
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in codes.values() for l, w in enumerate(tup)})
    streams = {"u0": ids_of(vocab, vocab * 2)}
    sc = train_markov_scorer(streams, [1], ScorerConfig(order=2), "ceid", vocab=vocab)[0]
    lists, _ = beam_search_users([sc], trie, [[]], 4, ["u0"])
    assert sorted(lists[0].items) == ["a", "b", "c", "d"]
    # two tokens missing at depth 1: the first in sorted order is named
    stale = [t for t in vocab if t not in ("<CeID_2,2>", "<CeID_2,3>")]
    sc = train_markov_scorer({"u0": ids_of(stale, stale * 2)}, [1], ScorerConfig(order=2),
                             "ceid", vocab=stale)[0]
    with pytest.raises(ValueError, match=r"candidate token '<CeID_2,2>' not in vocabulary"):
        beam_search_users([sc], trie, [[]], 4, ["u0"])


def test_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    table = random_code_table(rng, 12, 4)
    trie = build_prefix_trie(table)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    lists = [beam_search_constrained(HashScorer(seed=s, vocab=vocab), trie, [], 6,
                                     user=f"u{s}", template_id=s + 1)
             for s in range(4)]
    p = tmp_path / "ranked.jsonl"
    write_ranked_lists(lists, p)
    records = read_ranked_lists(p)
    assert records == lists
    # what is read back writes the same bytes
    write_ranked_lists(records, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()
    rec = ranked_list_record(lists[0])
    assert p.read_text().splitlines()[0] == rec
    assert rec.startswith('{"user": "u0", "index_type": "ceid", "template": 1,')


def test_every_producer_returns_list_records(tmp_path):
    rng = np.random.default_rng(19)
    table = random_code_table(rng, 12, 4)
    trie = build_prefix_trie(table)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    sc = HashScorer(seed=3, vocab=vocab)
    lists, _ = beam_search_users([sc], trie, [[], ids_of(vocab, [vocab[0]])], 5, ["u0", "u1"],
                                 [2])
    ranks = rank_arrays(rank_side(lists), rank_side([]))
    write_ranked_lists(lists, tmp_path / "ranked.jsonl")
    produced = [*lists, beam_search_constrained(sc, trie, [], 5, user="u0"),
                exhaustive_topk_oracle(sc, table, [], 5, user="u0"),
                *fused_lists(*top_k(score_pairs(ranks, 0.8, 10.0), 4)).values(),
                fuse_and_rank(lists[:1], [], 0.8, 10.0, 4),
                *read_ranked_lists(tmp_path / "ranked.jsonl")]
    assert len(produced) == 9
    for rec in produced:
        assert type(rec) is ListRecord
        assert type(rec.items) is list and type(rec.scores) is list
        assert len(rec.items) == len(rec.scores) > 0


@pytest.mark.parametrize("entries", [[], [("a", -0.5)], [("b", 0.0), ("a", -1.25), ("c", -2.0)]])
def test_ranked_list_function_equals_entries_record(entries):
    got = RankedList(user="u7", index_type="seid", template_id=3, entries=list(entries))
    want = EntriesList("u7", "seid", 3, list(entries)).record()
    assert type(got) is ListRecord and got == want
    assert ranked_list_record(got) == ranked_list_record(want)


@pytest.mark.parametrize("bad", [
    '{"user": "u1", "index_type": "ceid", "template": 1, "items": ["a", "b"], "scores": [0.0]}',
    '{"user": "u1", "index_type": "ceid", "template": 1, "items": 5, "scores": 5}',
    '{"user": "u1", "index_type": "ceid", "template": 1, "items": [], "scores": [], "x": 1}',
    '["u1", "ceid", 1, [], []]',
], ids=["length_mismatch", "not_a_list", "extra_key", "not_an_object"])
def test_malformed_record_names_line(tmp_path, bad):
    good = ranked_list_record(ListRecord("u0", "ceid", 1, ["a"], [-0.5]))
    p = tmp_path / "ranked.jsonl"
    p.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: malformed ranked list"):
        read_ranked_lists(p)


def test_read_refuses_a_byte_that_is_not_utf8(tmp_path):
    good = ranked_list_record(ListRecord("u0", "ceid", 1, ["a"], [-0.5])).encode()
    p = tmp_path / "ranked_ceid.jsonl"
    p.write_bytes(good + b"\n" + good[:9] + b"\xff" + good[10:] + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: byte 0xff is not UTF-8; "
                                         "rerun 'retrieve' to rewrite it$"):
        read_ranked_lists(p)


class CallsOnly:
    """Exposes only the `next_token_logprobs` contract of the scorer it wraps."""

    def __init__(self, scorer):
        self.vocab = scorer.vocab
        self.next_token_logprobs = scorer.next_token_logprobs


def batch_setup(seed):
    rng = np.random.default_rng(seed)
    table = random_code_table(rng, 45, 6)
    trie = build_prefix_trie(table)
    vocab = sorted({code_token("ceid", l + 1, w)
                    for tup in table.codes.values() for l, w in enumerate(tup)})
    streams = {f"u{k}": ids_of(vocab, rng.choice(vocab, size=24)) for k in range(8)}
    # histories from empty to longer than the scorer order, in one batch
    contexts = [ids_of(vocab, rng.choice(vocab, size=n)) for n in (0, 1, 2, 3, 5, 8, 13, 20)]
    users = [f"v{k}" for k in range(len(contexts))]
    return trie, vocab, streams, contexts, users


@pytest.mark.parametrize("kind", ["markov", "hash"])
def test_batched_search_equals_single_user_search(kind):
    trie, vocab, streams, contexts, users = batch_setup(44)
    if kind == "markov":
        sc = train_markov_scorer(streams, [2], ScorerConfig(order=4, seed=3), "ceid",
                                 vocab=vocab)[0]
    else:
        sc = HashScorer(seed=4, vocab=vocab, order=4)
    for k in (1, 7, 20):
        lists, counts = beam_search_users([sc], trie, contexts, k, users, [2])
        assert [rl.user for rl in lists] == users
        assert counts["pairs_scored"] > 0
        for user, context, rl in zip(users, contexts, lists):
            single = beam_search_constrained(sc, trie, context, k, user=user, template_id=2)
            assert rl == single
            assert len(rl.items) == len(rl.scores) == min(k, len(trie.items))


@pytest.mark.parametrize("order", [0, 3, 6])
def test_batched_markov_search_equals_per_call_search(order):
    # the array path and the next_token_logprobs path give the same bytes
    trie, vocab, streams, contexts, users = batch_setup(45)
    sc = train_markov_scorer(streams, [1], ScorerConfig(order=order), "ceid", vocab=vocab)[0]
    native, native_counts = beam_search_users([sc], trie, contexts, 10, users)
    per_call, per_call_counts = beam_search_users([CallsOnly(sc)], trie, contexts, 10, users)
    assert native == per_call
    # the array path searches each distinct context tail once, the per-call path every user
    rows = sc.context_matrix(contexts).tolist()
    firsts = [c for n, c in enumerate(contexts) if rows.index(rows[n]) == n]
    _, firsts_counts = beam_search_users([CallsOnly(sc)], trie, firsts, 10, users[:len(firsts)])
    assert native_counts["distinct_contexts"] == len(firsts)
    assert native_counts["pairs_scored"] == firsts_counts["pairs_scored"]
    assert per_call_counts["distinct_contexts"] == len(contexts)


def template_setup():
    """batch_setup plus users whose contexts share the last `order` tokens of another
    user's (one search for both) or only the last `order - 1` (two searches), and
    three templates over one n-gram index."""
    trie, vocab, streams, contexts, users = batch_setup(46)
    order = 4
    tail = streams["u0"][:order]  # a context seen in training
    other = next(t for t in ids_of(vocab, vocab) if t != tail[0])
    added = [tail, contexts[-1][:5] + tail, [other] + tail[1:],
             ids_of(vocab, vocab[:3]) + [other] + tail[1:],
             contexts[-1][:-order] + [other] + contexts[-1][1 - order:]]
    scorers = train_markov_scorer(streams, [1, 2, 3], ScorerConfig(order=order, seed=6), "ceid",
                                  vocab=vocab)
    return trie, scorers, contexts + added, users + [f"w{n}" for n in range(len(added))]


@pytest.mark.parametrize("k", [1, 7, 20])
def test_template_search_equals_single_searches(k):
    trie, scorers, contexts, users = template_setup()
    lists, counts = beam_search_users(scorers, trie, contexts, k, users)
    assert [(rl.template, rl.user) for rl in lists] == [(t, u) for t in (1, 2, 3) for u in users]
    for t, sc in enumerate(scorers, start=1):
        for context, rl in zip(contexts, lists[(t - 1) * len(users):t * len(users)]):
            assert rl == beam_search_constrained(sc, trie, context, k, user=rl.user,
                                                 template_id=t)
    # batch_setup's 8 tails (lengths 0-3 and 4 random ones) and 3 new ones: `tail`,
    # [other] + tail[1:], and contexts[-1]'s with its `order`-th last token replaced
    assert counts["distinct_contexts"] == 11
    assert 0 < counts["lookup_pairs"] <= counts["pairs_scored"]
    assert counts["pairs_scored"] >= 3 * 11 * min(k, len(trie.items))
    # fewer users than templates: one distinct context per pass
    one, _ = beam_search_users(scorers, trie, contexts[-1:], k, users[-1:])
    assert one == lists[len(users) - 1::len(users)]


def test_template_search_refuses_scorers_over_different_tables():
    trie, scorers, contexts, users = template_setup()
    _, vocab, streams, _, _ = batch_setup(46)
    # the templates counted again: the same keys and counts, in another table
    again = train_markov_scorer(streams, [1, 2, 3], ScorerConfig(order=4, seed=6), "ceid",
                                vocab=vocab)
    with pytest.raises(ValueError, match=r"^scorer 3 of 3 \(template 3\) does not share the "
                                         r"n-gram table"):
        beam_search_users(scorers[:2] + again[2:], trie, contexts, 5, users)
    # templates 2 and 3 alone search columns 1 and 2 of the shared table
    lists, _ = beam_search_users(scorers[1:], trie, contexts, 5, users, [2, 3])
    every, _ = beam_search_users(scorers, trie, contexts, 5, users)
    assert lists == [rl for rl in every if rl.template > 1]
    alone, _ = beam_search_users(again[2:], trie, contexts, 5, users, [3])
    assert alone == every[2 * len(users):]


def test_template_search_per_call_path_gives_the_same_records():
    trie, scorers, contexts, users = template_setup()
    native, native_counts = beam_search_users(scorers, trie, contexts, 7, users, [4, 5, 6])
    per_call, per_call_counts = beam_search_users([CallsOnly(sc) for sc in scorers], trie,
                                                  contexts, 7, users, [4, 5, 6])
    assert native == per_call
    assert [rl.template for rl in native[::len(users)]] == [4, 5, 6]
    assert per_call_counts["distinct_contexts"] == len(contexts)
    assert per_call_counts["lookup_pairs"] == per_call_counts["pairs_scored"]
    assert native_counts["pairs_scored"] < per_call_counts["pairs_scored"]
