import numpy as np
import pytest

from rqrec.rqvae import ItemCodeTable
from rqrec.vocab import build_prefix_trie, code_token, item_tokens


def table_of(codes, index_type="ceid"):
    code_len = len(next(iter(codes.values()))) - 1
    return ItemCodeTable(index_type=index_type, code_len=code_len, codes=codes)


def test_token_format():
    assert code_token("ceid", 3, 255) == "<CeID_3,255>"
    assert code_token("seid", 1, 0) == "<SeID_1,0>"


def test_item_tokens_unknown_item():
    with pytest.raises(ValueError, match="zzz"):
        item_tokens(table_of({"x1": (5, 2, 7, 0)}), "zzz")


def tokens(trie, d):
    """Row n: the child tokens of node n at depth d, read from the id arrays."""
    return [[trie.vocab[i] for i in row if i >= 0] for row in trie.cand_ids[d].tolist()]


def paths(trie, d):
    """Row n: the tokens from the root to node n at depth d."""
    return [[trie.vocab[i] for i in row] for row in trie.path_ids[d].tolist()]


def leaf_of(trie, path):
    """Follow the tokens of `path` down the child arrays; the node number reached."""
    node = 0
    for d, tok in enumerate(path):
        node = int(trie.child[d][node, tokens(trie, d)[node].index(tok)])
    return node


def test_trie_single_item():
    trie = build_prefix_trie(table_of({"only": (3, 1, 4, 0)}))
    assert trie.items == ["only"] and trie.depth == 4
    assert [c.tolist() for c in trie.child] == [[[0]]] * 4
    assert [tokens(trie, d) for d in range(4)] == [[["<CeID_1,3>"]], [["<CeID_2,1>"]],
                                                   [["<CeID_3,4>"]], [["<CeID_4,0>"]]]
    assert paths(trie, 3) == [["<CeID_1,3>", "<CeID_2,1>", "<CeID_3,4>"]]


def test_trie_shared_prefix_branches():
    trie = build_prefix_trie(table_of({"a": (0, 0, 0, 0), "b": (0, 0, 1, 0)}))
    assert tokens(trie, 0) == [["<CeID_1,0>"]]
    assert tokens(trie, 2) == [["<CeID_3,0>", "<CeID_3,1>"]]
    assert paths(trie, 2) == [["<CeID_1,0>", "<CeID_2,0>"]]
    assert trie.child[2].tolist() == [[0, 1]]
    assert trie.child[3].tolist() == [[0], [1]]  # one terminal token below each branch


def test_trie_nodes_in_code_order_children_in_token_order():
    # "<CeID_1,10>" sorts before "<CeID_1,2>", but code word 2 is node 0
    trie = build_prefix_trie(table_of({"a": (10, 0), "b": (2, 0), "c": (10, 1)}))
    assert tokens(trie, 0) == [["<CeID_1,10>", "<CeID_1,2>"]]
    assert trie.child[0].tolist() == [[1, 0]]
    assert paths(trie, 1) == [["<CeID_1,2>"], ["<CeID_1,10>"]]
    assert trie.items == ["b", "a", "c"]


def test_trie_terminal_count():
    codes = {f"i{k}": (k, 0, 0, 0) for k in range(17)}
    trie = build_prefix_trie(table_of(codes))
    assert len(trie.items) == 17
    assert trie.items == [f"i{k}" for k in range(17)]
    assert trie.child[0].shape == (1, 17)


def test_trie_duplicate_tuple_is_error():
    table = ItemCodeTable(index_type="ceid", code_len=1,
                          codes={"a": (1, 0), "b": (1, 0)})
    with pytest.raises(ValueError, match="duplicate code tuple .* 'a' and 'b'"):
        build_prefix_trie(table)


def test_trie_wrong_code_length_is_error():
    table = ItemCodeTable(index_type="ceid", code_len=2,
                          codes={"a": (1, 0, 0), "b": (1, 0)})
    with pytest.raises(ValueError, match="'b' has code length 2, expected 3"):
        build_prefix_trie(table)


def test_trie_bijection_and_extendability():
    codes = {"a": (0, 0, 0, 0), "b": (0, 0, 1, 0), "c": (2, 1, 1, 1),
             "d": (2, 1, 1, 2), "e": (2, 0, 0, 0), "f": (12, 0, 3, 0)}
    table = table_of(codes)
    trie = build_prefix_trie(table)
    # walking each item's own tokens reaches its leaf
    for item in codes:
        assert trie.items[leaf_of(trie, item_tokens(table, item))] == item
    assert sorted(trie.items) == sorted(codes)
    for d in range(trie.depth):
        child, toks, path = trie.child[d], tokens(trie, d), paths(trie, d)
        n_next = len(trie.items) if d + 1 == trie.depth else len(trie.path_ids[d + 1])
        # every node has a child, and each child is listed exactly once
        assert all(row for row in toks)
        assert sorted(child[child >= 0].tolist()) == list(range(n_next))
        assert np.array_equal(trie.cand_ids[d] >= 0, child >= 0)
        for n, row in enumerate(toks):
            assert row == sorted(row)
            assert (child[n] >= 0).sum() == len(row)
            if d + 1 < trie.depth:
                for tok, kid in zip(row, child[n].tolist()):
                    assert paths(trie, d + 1)[kid] == path[n] + [tok]
