import math

import numpy as np
import pytest

from rqrec.metrics import (HitSet, chr_avg, hit_at_k, hit_sets, ndcg_at_k,
                           per, per_matrix, write_per_matrix)
from conftest import EntriesList
from rqrec.rerank import rank_side
from rqrec.retrieval import ListRecord


def rl(user, items):
    return ListRecord(user, "fused", 0, list(items), [-float(r) for r in range(len(items))])


def test_hit_examples():
    lists = rank_side([rl(f"u{k}", ["hit", "x", "y"]) for k in range(4)])
    test = {f"u{k}": "hit" for k in range(4)}
    assert hit_at_k(lists, test, 3) == 1.0
    test_miss = {f"u{k}": "absent" for k in range(4)}
    assert hit_at_k(lists, test_miss, 3) == 0.0
    test_half = {"u0": "hit", "u1": "hit", "u2": "absent", "u3": "absent"}
    assert hit_at_k(lists, test_half, 3) == 0.5


def test_hit_respects_k():
    lists = rank_side([rl("u", ["a", "b", "c"])])
    assert hit_at_k(lists, {"u": "c"}, 2) == 0.0
    assert hit_at_k(lists, {"u": "c"}, 3) == 1.0


def test_missing_list_counts_as_miss():
    lists = rank_side([rl("u0", ["t"])])
    test = {"u0": "t", "u1": "t"}
    assert hit_at_k(lists, test, 1) == 0.5
    assert ndcg_at_k(lists, test, 1) == 0.5


def test_ndcg_examples():
    lists = rank_side([rl("u", ["a", "b", "c"])])
    assert ndcg_at_k(lists, {"u": "a"}, 3) == 1.0
    assert ndcg_at_k(lists, {"u": "b"}, 3) == pytest.approx(0.6309297535714575, abs=1e-9)
    assert ndcg_at_k(lists, {"u": "zzz"}, 3) == 0.0


def test_ndcg_le_hit_and_monotone_in_k():
    rng = np.random.default_rng(0)
    items = [f"i{k}" for k in range(12)]
    for _ in range(30):
        records = []
        test = {}
        for u in range(10):
            perm = list(rng.permutation(items)[:8])
            records.append(rl(f"u{u}", perm))
            test[f"u{u}"] = items[int(rng.integers(0, 12))]
        lists = rank_side(records)
        prev_h = prev_n = 0.0
        for k in range(1, 9):
            h, n = hit_at_k(lists, test, k), ndcg_at_k(lists, test, k)
            assert n <= h + 1e-12
            assert h >= prev_h - 1e-12 and n >= prev_n - 1e-12
            prev_h, prev_n = h, n


def reference_positions(lists: dict[str, ListRecord], test: dict[str, str], k: int) -> list[int]:
    """The metrics' old walk: each user's list by name, and `list.index` in its first k."""
    tops = ((lists[u].items[:k], target) for u, target in test.items() if u in lists)
    return [top.index(target) for top, target in tops if target in top]


def reference_hit(lists, test, k):
    return len(reference_positions(lists, test, k)) / len(test)


def reference_ndcg(lists, test, k):
    total = 0.0
    for position in reference_positions(lists, test, k):
        total += 1.0 / math.log2(position + 2)
    return total / len(test)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_hit_ndcg_equal_the_dict_walk(seed):
    rng = np.random.default_rng(seed)
    items = [f"i{j}" for j in range(30)]
    names = [f"u{u:02d}" for u in range(40)]
    # users without a list, lists of any length, and targets outside every list
    lists = {u: rl(u, rng.choice(items, size=rng.integers(0, 12), replace=False).tolist())
             for u in names if rng.random() < 0.8}
    test = {u: f"i{rng.integers(0, 36)}" for u in rng.permutation(names).tolist()}
    assert list(test) != sorted(test)  # NDCG sums in test order, not the side's user order
    side = rank_side(list(lists.values()))
    for k in (1, 3, 10, 20):  # 20 is above every list's length
        assert hit_at_k(side, test, k) == reference_hit(lists, test, k)
        assert ndcg_at_k(side, test, k) == reference_ndcg(lists, test, k)


def test_per_examples():
    h1 = HitSet(1, {"u1", "u2", "u3", "u4"})
    h2 = HitSet(2, {"u2", "u3"})
    assert per(h1, h1) == 0.0
    assert per(h1, h2) == 0.5
    assert per(h2, HitSet(3, {"a", "b"})) == 1.0


def test_per_empty_error():
    with pytest.raises(ValueError):
        per(HitSet(1, set()), HitSet(2, {"u"}))


def test_chr_example():
    t1 = [HitSet(1, {"a", "b"})]
    t2 = [HitSet(2, {"b", "c"}), HitSet(3, {"c", "d"})]
    assert chr_avg(t1, t2) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # union covered by every H_t
    assert chr_avg([HitSet(1, {"b", "c", "d"})], t2) == 0.0
    # disjoint
    assert chr_avg([HitSet(1, {"zz"})], t2) == 1.0


def test_chr_errors():
    with pytest.raises(ValueError):
        chr_avg([], [HitSet(1, {"a"})])
    with pytest.raises(ValueError):
        chr_avg([HitSet(1, {"a"})], [HitSet(2, set())])


def test_per_matrix_hand_case(tmp_path):
    h1 = HitSet(1, {"u1", "u2", "u3", "u4"})
    h2 = HitSet(2, {"u2", "u3"})
    matrix, ids = per_matrix([h1, h2])
    assert ids == [1, 2]
    assert matrix[0][0] == 0.0 and matrix[1][1] == 0.0
    assert matrix[0][1] == 0.5
    assert matrix[1][0] == 0.0  # H2 - H1 is empty
    p = tmp_path / "per.csv"
    write_per_matrix(matrix, ids, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "template,1,2"
    assert len(lines) == 3


def test_per_matrix_identical_sets_zero():
    sets = [HitSet(t, {"a", "b"}) for t in range(1, 5)]
    matrix, _ = per_matrix(sets)
    assert all(v == 0.0 for row in matrix for v in row)


def test_per_matrix_generally_asymmetric():
    h1 = HitSet(1, {"a", "b", "c"})
    h2 = HitSet(2, {"c"})
    matrix, _ = per_matrix([h1, h2])
    assert matrix[0][1] != matrix[1][0]


def test_per_matrix_one_template():
    assert per_matrix([HitSet(4, {"a"})]) == ([[0.0]], [4])
    matrix, ids = per_matrix([HitSet(4, set())])
    assert ids == [4] and math.isnan(matrix[0][0])
    with pytest.raises(ValueError, match="at least 1 template"):
        per_matrix([])


def brute_per(h1, h2):
    only = [u for u in h1 if u not in h2]
    return len(only) / len(h1)


def brute_chr(t1, t2):
    union = set()
    for s in t2:
        union |= s
    vals = []
    for s in t1:
        vals.append(len([u for u in union if u not in s]) / len(union))
    return sum(vals) / len(vals)


def test_per_chr_match_bruteforce_on_random_families():
    rng = np.random.default_rng(9)
    users = [f"u{k}" for k in range(20)]
    for _ in range(200):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        fam1 = [set(rng.choice(users, size=rng.integers(1, 12), replace=False))
                for _ in range(n1)]
        fam2 = [set(rng.choice(users, size=rng.integers(1, 12), replace=False))
                for _ in range(n2)]
        h1 = [HitSet(t + 1, s) for t, s in enumerate(fam1)]
        h2 = [HitSet(t + 1, s) for t, s in enumerate(fam2)]
        assert per(h1[0], h2[0]) == pytest.approx(brute_per(fam1[0], fam2[0]), abs=1e-12)
        assert chr_avg(h1, h2) == pytest.approx(brute_chr(fam1, fam2), abs=1e-12)
        for v in (per(h1[0], h2[0]), chr_avg(h1, h2)):
            assert 0.0 <= v <= 1.0


def test_hit_sets_builder():
    records = [ListRecord("u1", "ceid", 1, ["a", "b"], [0.0, -1.0]),
               ListRecord("u2", "ceid", 1, ["c", "d"], [0.0, -1.0]),
               ListRecord("u1", "ceid", 2, ["b", "a"], [0.0, -1.0]),
               ListRecord("u2", "ceid", 2, ["d", "c"], [0.0, -1.0])]
    test = {"u1": "a", "u2": "x"}
    sets = hit_sets(rank_side(records), test, k=1)
    assert sets[0].users == {"u1"} and sets[0].template_id == 1
    assert sets[1].users == set() and sets[1].template_id == 2
    sets2 = hit_sets(rank_side(records), test, k=2)
    assert sets2[0].users == {"u1"} and sets2[1].users == {"u1"}


def reference_hit_sets(lists_by_template, test, k):
    """hit_sets as it was over per-template {user: EntriesList} dicts."""
    out = []
    for t in sorted(lists_by_template):
        users = {u for u, target in test.items()
                 if u in lists_by_template[t]
                 and target in lists_by_template[t][u].items()[:k]}
        out.append(HitSet(template_id=t, users=users))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hit_sets_from_records_equal_by_template_path(seed):
    rng = np.random.default_rng(seed)
    items = [f"i{j}" for j in range(12)]
    test = {f"u{u}": items[rng.integers(0, 12)] for u in range(30) if u % 7}  # some untested
    lists = [EntriesList(f"u{u}", "ceid", int(t),
                         [(i, 0.0) for i in rng.choice(items, size=rng.integers(0, 9),
                                                       replace=False)])
             for u in range(30) for t in rng.permutation(5)[:rng.integers(0, 6)] + 1]
    by_template: dict = {}
    for x in lists:
        by_template.setdefault(x.template_id, {})[x.user] = x
    for k in (1, 3, 8):
        got = hit_sets(rank_side([x.record() for x in lists]), test, k)
        assert got == reference_hit_sets(by_template, test, k)
        assert any(h.users for h in got) and any(h.users != got[0].users for h in got)


def test_per_matrix_nan_row_for_template_without_hits(caplog):
    sets = [HitSet(1, {"a", "b"}), HitSet(2, set()), HitSet(3, {"b"})]
    matrix, ids = per_matrix(sets)
    assert ids == [1, 2, 3]
    assert all(math.isnan(v) for v in matrix[1])
    assert matrix[0] == [0.0, 1.0, 0.5] and matrix[2] == [0.0, 1.0, 0.0]
    assert "template 2 has no hits" in caplog.text
