import re

import numpy as np
import pytest

from rqrec.dataio import (EmbeddingMatrix, InteractionDataset, kcore_filter,
                          leave_one_out_split, load_embedding_matrix,
                          load_interactions, load_split, replace_on_close,
                          write_embedding_matrix, write_interactions,
                          write_split)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_orders_by_timestamp(tmp_path):
    p = tmp_path / "x.tsv"
    write_lines(p, ["u1\ta\t1", "u1\tb\t2"])
    ds = load_interactions(p)
    assert ds.sequences["u1"] == [("a", 1), ("b", 2)]
    write_lines(p, ["u1\ta\t2", "u1\tb\t1"])
    ds = load_interactions(p)
    assert ds.sequences["u1"] == [("b", 1), ("a", 2)]


def test_load_ties_keep_file_order(tmp_path):
    p = tmp_path / "x.tsv"
    write_lines(p, ["u1\tb\t5", "u1\ta\t5", "u1\tc\t5"])
    ds = load_interactions(p)
    assert [i for i, _ in ds.sequences["u1"]] == ["b", "a", "c"]


def test_load_counts_malformed(tmp_path):
    p = tmp_path / "x.tsv"
    write_lines(p, ["u1\ta\t1", "u1\tb\t2", "u2\tc\t3", "garbage line"])
    ds = load_interactions(p)
    assert ds.num_interactions() == 3
    assert ds.skipped_lines == 1


def test_load_item_user_sets_consistent(tmp_path):
    p = tmp_path / "x.tsv"
    write_lines(p, ["u1\ta\t1", "u2\ta\t2", "u2\tb\t3"])
    ds = load_interactions(p)
    assert ds.users == {"u1", "u2"}
    assert ds.items == {"a", "b"}


def test_load_empty_is_error(tmp_path):
    p = tmp_path / "x.tsv"
    write_lines(p, ["not a valid line"])
    with pytest.raises(ValueError):
        load_interactions(p)


def test_load_ends_lines_as_a_text_mode_read(tmp_path):
    # \r\n and a lone \r end a line; \x85, which str.splitlines would also split on, does not
    p = tmp_path / "x.tsv"
    p.write_bytes("u1\ta\t1\r\nu1\tb\t2\ru2\td\t3\n".encode("utf-8"))
    ds = load_interactions(p)
    assert ds.sequences == {"u1": [("a", 1), ("b", 2)], "u2": [("d", 3)]}
    assert ds.skipped_lines == 0
    # so an id holding \x85 stays whole, and is refused on the line a text-mode read gives it
    p.write_bytes("u1\ta\t1\r\nu2\td\t3\ru1\tb\x85c\t2\n".encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(f"{p}:3: id 'b\\x85c' holds a line break")):
        load_interactions(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_interactions(tmp_path / "nope.tsv")


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        seqs = {}
        for u in range(rng.integers(1, 8)):
            n = int(rng.integers(1, 12))
            seqs[f"u{u}"] = [(f"i{rng.integers(0, 9)}", int(ts))
                             for ts, _ in enumerate(range(n))]
        ds = InteractionDataset.from_sequences(seqs)
        p = tmp_path / f"rt{trial}.tsv"
        write_interactions(ds, p)
        assert load_interactions(p) == ds


def kcore_oracle(ds, k):
    """Brute-force fixpoint: recount from scratch each pass."""
    seqs = {u: list(s) for u, s in ds.sequences.items()}
    while True:
        counts = {}
        for s in seqs.values():
            for i, _ in s:
                counts[i] = counts.get(i, 0) + 1
        new = {}
        for u, s in seqs.items():
            s2 = [(i, t) for i, t in s if counts[i] >= k]
            if len(s2) >= k:
                new[u] = s2
        if new == seqs:
            return InteractionDataset.from_sequences(new)
        seqs = new


def test_kcore_fixpoint_noop():
    seqs = {"u1": [("a", 1), ("b", 2)], "u2": [("a", 3), ("b", 4)]}
    ds = InteractionDataset.from_sequences(seqs)
    assert kcore_filter(ds, 2) == ds


def test_kcore_removes_light_user():
    seqs = {"u1": [("a", 1)],
            "u2": [("a", 2), ("b", 3)], "u3": [("a", 4), ("b", 5)]}
    ds = kcore_filter(InteractionDataset.from_sequences(seqs), 2)
    assert "u1" not in ds.users
    assert ds.users == {"u2", "u3"}


def test_kcore_cascade_matches_bruteforce():
    # removing item c drops u3 below k, which in turn drops item d
    seqs = {"u1": [("a", 1), ("b", 2)],
            "u2": [("a", 3), ("b", 4)],
            "u3": [("c", 5), ("d", 6)],
            "u4": [("a", 7), ("d", 8)]}
    ds = InteractionDataset.from_sequences(seqs)
    got = kcore_filter(ds, 2)
    assert got == kcore_oracle(ds, 2)
    assert "c" not in got.items and "u3" not in got.users


def test_kcore_random_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(30):
        seqs = {}
        for u in range(int(rng.integers(2, 10))):
            n = int(rng.integers(1, 8))
            seqs[f"u{u}"] = [(f"i{rng.integers(0, 6)}", t) for t in range(n)]
        ds = InteractionDataset.from_sequences(seqs)
        k = int(rng.integers(1, 4))
        assert kcore_filter(ds, k) == kcore_oracle(ds, k)


def test_kcore_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(10):
        seqs = {f"u{u}": [(f"i{rng.integers(0, 5)}", t)
                          for t in range(int(rng.integers(1, 9)))]
                for u in range(6)}
        ds = InteractionDataset.from_sequences(seqs)
        once = kcore_filter(ds, 3)
        assert kcore_filter(once, 3) == once


def test_kcore_may_empty():
    ds = InteractionDataset.from_sequences({"u1": [("a", 1)]})
    assert kcore_filter(ds, 5).users == set()


def seq_ds(items_per_user):
    return InteractionDataset.from_sequences(
        {u: [(i, t) for t, i in enumerate(items)]
         for u, items in items_per_user.items()})


def test_split_basic():
    split = leave_one_out_split(seq_ds({"u1": ["i1", "i2", "i3", "i4", "i5"]}))
    assert split.train["u1"] == ["i1", "i2", "i3"]
    assert split.valid["u1"] == "i4"
    assert split.test["u1"] == "i5"


def test_split_length_three():
    split = leave_one_out_split(seq_ds({"u1": ["a", "b", "c"]}))
    assert split.train["u1"] == ["a"]


def test_split_truncates_history():
    items = [f"i{k}" for k in range(25)]
    split = leave_one_out_split(seq_ds({"u1": items}), max_len=20)
    assert split.train["u1"] == items[3:23]
    assert len(split.train["u1"]) == 20
    assert split.valid["u1"] == "i23" and split.test["u1"] == "i24"


def test_split_drops_short_users():
    split = leave_one_out_split(seq_ds({"u1": ["a", "b"], "u2": ["a", "b", "c"]}))
    assert "u1" not in split.train and "u1" not in split.test
    assert split.dropped_users == ["u1"]


def test_split_never_leaks_test_item_position():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        items = [f"i{k}" for k in range(n)]
        split = leave_one_out_split(seq_ds({"u": items}), max_len=10)
        # positions are disjoint even when item ids repeat elsewhere
        assert split.test["u"] == items[-1]
        assert split.valid["u"] == items[-2]
        assert all(it in items[:-2] for it in split.train["u"])


def test_split_file_roundtrip(tmp_path):
    split = leave_one_out_split(seq_ds({"u1": ["a", "b", "c", "d"],
                                        "u2": ["c", "a", "b"]}))
    write_split(split, tmp_path)
    assert load_split(tmp_path) == split


@pytest.mark.parametrize("name", ["valid.tsv", "test.tsv"])
def test_load_split_refuses_a_user_listed_twice(tmp_path, name):
    write_split(leave_one_out_split(seq_ds({"u1": ["a", "b", "c"], "u2": ["c", "a", "b"]})),
                tmp_path)
    path = tmp_path / name
    write_lines(path, ["u1\tp", "u2\tq", "u1\tr"])
    with pytest.raises(ValueError) as err:
        load_split(tmp_path)
    assert str(err.value) == f"{path}:3: user 'u1' listed twice; rerun 'prepare' to rewrite it"


def test_emb_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    emb = EmbeddingMatrix([f"i{k}" for k in range(5)], rng.normal(size=(5, 4)))
    p = tmp_path / "m.emb"
    write_embedding_matrix(emb, p)
    back = load_embedding_matrix(p)
    assert back.dim == 4 and back.items == emb.items
    assert np.array_equal(back.vectors, emb.vectors)


def test_emb_header_and_shape(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "2 3", "a 1.0 2.0 3.0", "b 0.5 0.25 0.125"])
    emb = load_embedding_matrix(p)
    assert emb.dim == 3 and len(emb.items) == 2


def test_emb_bad_header(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["WRONG", "1 2", "a 1 2"])
    with pytest.raises(ValueError, match=":1:"):
        load_embedding_matrix(p)


def test_emb_row_length_error_names_line(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "2 3", "a 1.0 2.0 3.0", "b 1.0 2.0"])
    with pytest.raises(ValueError, match=":4:"):
        load_embedding_matrix(p)


def test_emb_duplicate_item(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "2 2", "a 1 2", "a 3 4"])
    with pytest.raises(ValueError, match="duplicate"):
        load_embedding_matrix(p)


def test_emb_nonfinite(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "1 2", "a 1.0 nan"])
    with pytest.raises(ValueError, match="non-finite"):
        load_embedding_matrix(p)
    write_lines(p, ["ITEM_EMB v1", "3 2", "c 1 2", "b inf 4", "a nan 6"])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:4: non-finite value$"):
        load_embedding_matrix(p)
    emb = EmbeddingMatrix(["a", "b"], np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="row 'b' has non-finite values"):
        write_embedding_matrix(emb, tmp_path / "out.emb")


def test_emb_rows_in_any_order_load_sorted(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "3 2", "c 5 6", "a 1 2", "b 3 4"])
    emb = load_embedding_matrix(p)
    assert emb.items == ["a", "b", "c"]
    assert emb.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    write_embedding_matrix(emb, p)
    assert p.read_text().splitlines()[2:] == ["a 1.0 2.0", "b 3.0 4.0", "c 5.0 6.0"]


def test_embedding_matrix_refuses_unsorted_or_duplicate_items():
    for items in (["b", "a"], ["a", "a"], ["i9", "i10"]):  # string order, not numeric
        with pytest.raises(ValueError, match="sorted and unique"):
            EmbeddingMatrix(items, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="3 items for vectors of shape"):
        EmbeddingMatrix(["a", "b", "c"], np.zeros((2, 3)))
    assert EmbeddingMatrix(["i10", "i9"], np.zeros((2, 3))).dim == 3


def test_emb_rows_beyond_size_line(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "2 2", "a 1 2", "b 3 4", "", "c 5 6"])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:6: a row beyond the 2 the "
                                         r"size line declares$"):
        load_embedding_matrix(p)
    write_lines(p, ["ITEM_EMB v1", "2 2", "a 1 2", "b 3 4", ""])  # trailing blank lines pass
    assert load_embedding_matrix(p).items == ["a", "b"]


def test_emb_size_line_without_dimensions(tmp_path):
    # a (40, 0) matrix would load and only fail later, inside RQ-VAE training
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "40 0", *(f"i{k:02d}" for k in range(40))])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: size line '40 0' needs "
                                         r"n >= 0 rows and d >= 1 dimensions$"):
        load_embedding_matrix(p)


def test_emb_size_line_with_negative_dimensions(tmp_path):
    p = tmp_path / "m.emb"
    write_lines(p, ["ITEM_EMB v1", "1 -1", ""])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: size line '1 -1' needs "
                                         r"n >= 0 rows and d >= 1 dimensions$"):
        load_embedding_matrix(p)
    write_lines(p, ["ITEM_EMB v1", "-1 2", "a 1 2"])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: size line '-1 2'"):
        load_embedding_matrix(p)


def test_replace_on_close_swaps_whole_files(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    with pytest.raises(RuntimeError):
        with replace_on_close(p) as fh:
            fh.write("new, half written\n")
            raise RuntimeError("stopped")
    assert p.read_text() == "old\n"
    with replace_on_close(p) as fh:
        fh.write("new\n")
    assert p.read_text() == "new\n"
    assert sorted(x.name for x in tmp_path.iterdir()) == ["out.txt"]
