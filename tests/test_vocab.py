import pytest

from rqrec.rqvae import ItemCodeTable
from rqrec.vocab import (allowed_next, build_prefix_trie, build_vocabulary,
                         code_token, indicator_token, item_tokens, write_vocab)


def table_of(codes, index_type="ceid"):
    code_len = len(next(iter(codes.values()))) - 1
    return ItemCodeTable(index_type=index_type, code_len=code_len, codes=codes)


def test_token_format():
    assert code_token("ceid", 3, 255) == "<CeID_3,255>"
    assert code_token("seid", 1, 0) == "<SeID_1,0>"
    assert indicator_token("ceid") == "<C>"
    assert indicator_token("seid") == "<S>"


def test_vocab_counts_single_table():
    # words {0,1} at each of 4 levels: 8 code tokens + 1 indicator
    codes = {"a": (0, 0, 0, 0), "b": (1, 1, 1, 1), "c": (0, 1, 0, 1)}
    vocab = build_vocabulary([table_of(codes)])
    assert len(vocab.tokens) == 9
    assert sum(1 for t in vocab.tokens if vocab.kinds[t] == "code") == 8
    assert "<C>" in vocab.tokens and "<S>" not in vocab.tokens


def test_vocab_both_indicators():
    vocab = build_vocabulary([table_of({"a": (0, 0)}, "ceid"),
                              table_of({"a": (1, 0)}, "seid")])
    assert "<C>" in vocab.tokens and "<S>" in vocab.tokens


def test_vocab_token_unique_and_ordered():
    codes = {"a": (0, 0, 255, 0), "b": (0, 0, 255, 1)}
    vocab = build_vocabulary([table_of(codes)])
    assert vocab.tokens.count("<CeID_3,255>") == 1
    code_toks = [t for t in vocab.tokens if vocab.kinds[t] == "code"]
    assert code_toks == sorted(code_toks, key=lambda t: code_toks.index(t))  # stable listing


def test_vocab_duplicate_type_is_error():
    with pytest.raises(ValueError, match="duplicate"):
        build_vocabulary([table_of({"a": (0, 0)}), table_of({"b": (1, 0)})])


def test_vocab_dump(tmp_path):
    vocab = build_vocabulary([table_of({"a": (0, 0)})])
    p = tmp_path / "vocab.tsv"
    write_vocab(vocab, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "<C>\tindicator"
    assert all("\t" in ln for ln in lines)


def test_item_tokens_unknown_item():
    with pytest.raises(ValueError, match="zzz"):
        item_tokens(table_of({"x1": (5, 2, 7, 0)}), "zzz")


def test_trie_single_item():
    trie = build_prefix_trie(table_of({"only": (3, 1, 4, 0)}))
    assert trie.size == 1
    items = trie.items()
    assert items == [("only", ["<CeID_1,3>", "<CeID_2,1>", "<CeID_3,4>", "<CeID_4,0>"])]


def test_trie_shared_prefix_branches():
    trie = build_prefix_trie(table_of({"a": (0, 0, 0, 0), "b": (0, 0, 1, 0)}))
    assert allowed_next(trie, []) == {"<CeID_1,0>"}
    branch = allowed_next(trie, ["<CeID_1,0>", "<CeID_2,0>"])
    assert branch == {"<CeID_3,0>", "<CeID_3,1>"}


def test_trie_terminal_count():
    codes = {f"i{k}": (k, 0, 0, 0) for k in range(17)}
    trie = build_prefix_trie(table_of(codes))
    assert trie.size == 17
    assert len(trie.items()) == 17


def test_allowed_next_terminal_empty():
    trie = build_prefix_trie(table_of({"a": (1, 2, 3, 0)}))
    path = ["<CeID_1,1>", "<CeID_2,2>", "<CeID_3,3>", "<CeID_4,0>"]
    assert allowed_next(trie, path) == set()


def test_allowed_next_off_trie_is_error():
    trie = build_prefix_trie(table_of({"a": (1, 2)}))
    with pytest.raises(ValueError):
        allowed_next(trie, ["<CeID_1,9>"])


def test_trie_duplicate_tuple_is_error():
    table = ItemCodeTable(index_type="ceid", code_len=1,
                          codes={"a": (1, 0), "b": (1, 0)})
    with pytest.raises(ValueError, match="duplicate"):
        build_prefix_trie(table)


def test_trie_bijection_and_extendability():
    codes = {"a": (0, 0, 0, 0), "b": (0, 0, 1, 0), "c": (2, 1, 1, 1),
             "d": (2, 1, 1, 2), "e": (2, 0, 0, 0)}
    table = table_of(codes)
    trie = build_prefix_trie(table)
    # walking each item's own tokens reaches its terminal
    for item in codes:
        node = trie.walk(item_tokens(table, item))
        assert node.item == item
    # every allowed token extends to some terminal
    def check(prefix, depth):
        nxt = allowed_next(trie, prefix)
        if depth == trie.depth:
            assert nxt == set()
            return
        assert nxt
        for tok in nxt:
            check(prefix + [tok], depth + 1)
    check([], 0)
