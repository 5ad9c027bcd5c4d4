import math

import numpy as np
import pytest

from conftest import EntriesList, fused_lists
from rqrec.rerank import (COLUMNS, PairScores, _scalar_map, _type_terms, fuse_and_rank,
                          rank_arrays, rank_side, score_items, score_pairs, top_k,
                          write_score_breakdown)
from rqrec.retrieval import ListRecord


def rl(user, index_type, template, items):
    return ListRecord(user, index_type, template, list(items),
                      [-float(r) for r in range(len(items))])


def scored(rec):
    return dict(zip(rec.items, rec.scores))


def placed(*positions):
    """One ceid list per position, with item x at that 0-based rank."""
    return [rl("u", "ceid", t, [f"f{t}_{j}" for j in range(p)] + ["x"])
            for t, p in enumerate(positions, 1)]


def x_score(*positions, alpha=0.8, tau=10.0):
    return score_items(placed(*positions), [], alpha, tau)["x"]


def test_collect_positions_basic():
    # positions a [0, 1, 2], b [1, 0, 1], c [2], d [2], e [0]
    lists = [rl("u", "ceid", 1, ["a", "b", "c"]),
             rl("u", "ceid", 2, ["b", "a", "d"]),
             rl("u", "ceid", 3, ["e", "b", "a"])]
    got = score_items(lists, [], alpha=0.8, tau=10.0)
    assert {item: s.appearances for item, s in got.items()} == {
        "a": 3, "b": 3, "c": 1, "d": 1, "e": 1}
    assert got["a"].conf_c == math.exp(-1.0 / 10.0)
    assert got["a"].cons_c == pytest.approx(math.exp(-0.1), abs=1e-12)  # sample stdev 1
    assert got["b"].conf_c == math.exp(-(2 / 3) / 10.0)
    assert got["b"].cons_c == pytest.approx(math.exp(-math.sqrt(1 / 3) / 10), abs=1e-12)
    assert (got["d"].conf_c, got["d"].cons_c) == (math.exp(-0.2), 0.0)
    assert "z" not in got


def test_collect_positions_all_top():
    lists = [rl("u", "ceid", t, ["a", "b"]) for t in range(1, 11)]
    a = score_items(lists, [], alpha=0.8, tau=10.0)["a"]
    assert (a.conf_c, a.cons_c, a.appearances) == (1.0, 1.0, 10)


def test_collect_positions_duplicate_template_error():
    lists = [rl("u", "ceid", 1, ["a"]), rl("u", "ceid", 1, ["b"])]
    with pytest.raises(ValueError, match="duplicate template id 1 for user 'u'"):
        score_items(lists, [], alpha=0.8, tau=10.0)


def test_collect_positions_mixed_user_error():
    with pytest.raises(ValueError, match="more than one user"):
        score_items([rl("u", "ceid", 1, ["a"]), rl("v", "ceid", 2, ["a"])], [], 0.8, 10.0)
    with pytest.raises(ValueError, match="more than one user"):
        fuse_and_rank([rl("u", "ceid", 1, ["a"])], [rl("v", "seid", 1, ["a"])],
                      0.8, 10.0, 5)


def test_conf_examples():
    assert x_score(0, 0, 0).conf_c == 1.0
    # mean 3, tau 10: exp(-0.3)
    assert x_score(1, 3, 5).conf_c == pytest.approx(0.7408182206817179, abs=1e-9)
    assert x_score(2, 2).conf_c > x_score(3, 3).conf_c  # strictly decreasing


def test_cons_examples():
    assert x_score(2, 2, 2).cons_c == 1.0
    # sample stdev of {1,3} = sqrt(2)
    assert x_score(1, 3).cons_c == pytest.approx(0.8681234453945849, abs=1e-9)
    assert x_score(5).cons_c == 0.0  # singleton sentinel


def test_index_score_examples():
    assert x_score(0, 0).s_c == pytest.approx(1.0)
    # singleton: 0.8 * exp(-0.5) + 0.2 * 0
    assert x_score(5).s_c == pytest.approx(0.4852245277701068, abs=1e-9)
    assert x_score(1, 3, 5, alpha=1.0).s_c == x_score(1, 3, 5).conf_c


def test_conf_invariant_to_permutation():
    assert x_score(1, 4, 7).conf_c == x_score(7, 1, 4).conf_c


def test_cons_shift_invariant_conf_strictly_drops():
    base, shifted = x_score(1, 3, 6), x_score(4, 6, 9)
    assert base.cons_c == pytest.approx(shifted.cons_c, abs=1e-12)
    assert shifted.conf_c < base.conf_c


# hand-built 2-template x 2-index toy; expected values from direct evaluation
# of the position sets with f(r) = exp(-r/10), alpha = 0.8 (frozen literals)
CE = [rl("u", "ceid", 1, ["A", "B", "C"]), rl("u", "ceid", 2, ["B", "A", "D"])]
SE = [rl("u", "seid", 1, ["A", "C", "E"]), rl("u", "seid", 2, ["A", "D", "C"])]

TOY_EXPECTED = {
    #        conf_c              cons_c              s_c                 s_s                 s_total
    "A": (0.951229424500714, 0.9317314234233945, 0.9473298242852501, 1.0, 1.9473298242852501),
    "B": (0.951229424500714, 0.9317314234233945, 0.9473298242852501, 0.0, 0.9473298242852501),
    "C": (0.8187307530779818, 0.0, 0.6549846024623855, 0.8749126658247252, 1.5298972682871108),
    "D": (0.8187307530779818, 0.0, 0.6549846024623855, 0.7238699344287677, 1.3788545368911533),
    "E": (0.0, 0.0, 0.0, 0.6549846024623855, 0.6549846024623855),
}


def test_toy_instance_matches_hand_evaluation():
    scores = score_items(CE, SE, alpha=0.8, tau=10.0)
    assert set(scores) == set(TOY_EXPECTED)
    for item, (conf_c, cons_c, s_c, s_s, s_total) in TOY_EXPECTED.items():
        s = scores[item]
        assert s.conf_c == pytest.approx(conf_c, abs=1e-9)
        assert s.cons_c == pytest.approx(cons_c, abs=1e-9)
        assert s.s_c == pytest.approx(s_c, abs=1e-9)
        assert s.s_s == pytest.approx(s_s, abs=1e-9)
        assert s.s_total == pytest.approx(s_total, abs=1e-9)


def test_toy_final_order():
    fused = fuse_and_rank(CE, SE, alpha=0.8, tau=10.0, k_out=10)
    assert fused.items == ["A", "C", "D", "B", "E"]
    assert fused.index_type == "fused" and fused.user == "u"
    assert fused.scores == sorted(fused.scores, reverse=True)


def test_top_everywhere_attains_two_exactly():
    ce = [rl("u", "ceid", t, ["top", "b"]) for t in (1, 2, 3)]
    se = [rl("u", "seid", t, ["top", "c"]) for t in (1, 2, 3)]
    scores = score_items(ce, se, alpha=0.8, tau=10.0)
    assert scores["top"].s_total == 2.0
    fused = fuse_and_rank(ce, se, alpha=0.8, tau=10.0, k_out=2)
    assert (fused.items[0], fused.scores[0]) == ("top", 2.0)


def test_score_bounds_zero_to_two():
    scores = score_items(CE, SE, alpha=0.8, tau=10.0)
    for s in scores.values():
        for v in (s.conf_c, s.cons_c, s.s_c, s.conf_s, s.cons_s, s.s_s):
            assert 0.0 <= v <= 1.0
        assert 0.0 <= s.s_total <= 2.0


def test_missing_side_contributes_zero():
    scores = score_items(CE, [], alpha=0.8, tau=10.0)
    assert scores["A"].s_s == 0.0
    assert scores["A"].s_total == scores["A"].s_c


def test_both_sides_empty_error():
    with pytest.raises(ValueError):
        fuse_and_rank([], [], alpha=0.8, tau=10.0, k_out=5)


def test_simple_sum():
    # S = S^ceid + S^seid on a case with hand-fixed component scores
    scores = score_items(CE, SE, alpha=0.8, tau=10.0)
    for s in scores.values():
        assert s.s_total == pytest.approx(s.s_c + s.s_s, abs=1e-15)


def test_conf_only_ignores_dispersion():
    # same mean rank for item a, different spreads: alpha=1 scores identical
    tight = [rl("u", "ceid", 1, ["x", "a", "y"]), rl("u", "ceid", 2, ["z", "a", "w"])]
    wide = [rl("u", "ceid", 1, ["a", "x", "y"]), rl("u", "ceid", 2, ["z", "w", "a"])]
    f_tight = fuse_and_rank(tight, [], alpha=1.0, tau=10.0, k_out=6)
    f_wide = fuse_and_rank(wide, [], alpha=1.0, tau=10.0, k_out=6)
    # item a has mean rank 1 in both, stdev 0 vs sqrt(2): conf-only scores agree
    sa_tight = scored(f_tight)["a"]
    sa_wide = scored(f_wide)["a"]
    assert sa_tight == pytest.approx(sa_wide, abs=1e-12)
    with_cons_tight = scored(fuse_and_rank(tight, [], 0.8, 10.0, 6))["a"]
    with_cons_wide = scored(fuse_and_rank(wide, [], 0.8, 10.0, 6))["a"]
    assert with_cons_tight != pytest.approx(with_cons_wide, abs=1e-12)


def test_tie_break_appearance_count_then_item_id():
    # b appears twice at rank 1; q appears once at rank 0; engineered equal S
    # exp(-1/tau)=exp(-0.1); pick tau so conf values tie: both at rank means equal
    ce = [rl("u", "ceid", 1, ["a", "b"]), rl("u", "ceid", 2, ["c", "b"])]
    # b: positions [1,1] -> conf exp(-0.1), cons f(0)=1
    # make a second item with identical score structure via seid side
    se = [rl("u", "seid", 1, ["z", "y"]), rl("u", "seid", 2, ["x", "y"])]
    scores = score_items(ce, se, alpha=0.8, tau=10.0)
    assert scores["b"].s_total == pytest.approx(scores["y"].s_total, abs=1e-15)
    fused = fuse_and_rank(ce, se, alpha=0.8, tau=10.0, k_out=10)
    order = fused.items
    assert order.index("b") < order.index("y")  # equal count, then item id


def test_conf_monotone_under_rank_zero_additions():
    # the mean rank can only drop when a rank-0 appearance is added
    rng = np.random.default_rng(21)
    for _ in range(100):
        positions = [int(p) for p in rng.integers(0, 20, size=rng.integers(1, 8))]
        before = x_score(*positions).conf_c
        after = x_score(*positions, 0).conf_c
        assert after >= before - 1e-12


def test_reranking_is_pure_postprocessing():
    before = [rl("u", "ceid", 1, ["a", "b"]), rl("u", "ceid", 2, ["b", "a"])]
    snapshot = [(x.user, x.template, list(x.items), list(x.scores)) for x in before]
    fuse_and_rank(before, [], alpha=0.5, tau=10.0, k_out=2)
    assert snapshot == [(x.user, x.template, list(x.items), list(x.scores)) for x in before]


def reference_scores(ceid_lists, seid_lists, alpha, tau):
    """The per-item formula with scalar Python floats and left-to-right sums."""
    out = {}
    for side, lists in enumerate((ceid_lists, seid_lists)):
        positions = {}
        for lst in lists:
            for rank, item in enumerate(lst.items):
                positions.setdefault(item, []).append(rank)
        for item, pos in positions.items():
            n, total, sq = len(pos), 0, 0.0
            for p in pos:
                total += p
            mean = total / n
            for p in pos:
                sq += (p - mean) ** 2
            conf = math.exp(-mean / tau)
            cons = math.exp(-math.sqrt(sq / (n - 1)) / tau) if n > 1 else 0.0
            terms = out.setdefault(item, [0.0] * 6 + [0])
            terms[3 * side:3 * side + 3] = [conf, cons, alpha * conf + (1.0 - alpha) * cons]
            terms[6] += n
    return {item: (*t[:6], t[2] + t[5], t[6]) for item, t in out.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_fusion_equals_per_item_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    items = [f"i{j:02d}" for j in range(40)]
    lists = {"ceid": [], "seid": []}
    for u in range(25):
        for index_type in lists:
            for t in rng.permutation(6)[:rng.integers(0, 7)] + 1:  # templates in file order
                size = 0 if u == 3 else rng.integers(1, 12)  # u3: empty lists only
                picks = rng.choice(items, size=size, replace=False)
                lists[index_type].append(rl(f"u{u}", index_type, int(t), list(picks)))
    for alpha in (0.8, 1.0, 0.0):
        for cap in (1, 3, 6):
            for sides in (("ceid", "seid"), ("ceid",), ("seid",)):
                chosen = [lists[t] if t in sides else [] for t in ("ceid", "seid")]
                ranks = rank_arrays(*map(rank_side, chosen))
                scores = score_pairs(ranks, alpha, 10.0, max_templates=cap)
                fused = fused_lists(*top_k(scores, 7))
                users = sorted({x.user for side in chosen for x in side if x.template <= cap})
                assert list(fused) == users
                for user in users:
                    mine = [[x for x in side if x.user == user and x.template <= cap]
                            for side in chosen]
                    ref = reference_scores(*mine, alpha, 10.0)
                    got = {scores.items[i]: tuple(scores.columns[c][j] for c in scores.columns)
                           for j, i in enumerate(scores.item.tolist())
                           if scores.users[scores.user[j]] == user}
                    assert got == ref
                    best = sorted(ref, key=lambda i: (-ref[i][6], -ref[i][7], i))[:7]
                    assert fused[user].items == best
                    assert fused[user].scores == [ref[i][6] for i in best]
                    assert fuse_and_rank(*mine, alpha, 10.0, 7) == fused[user]


def test_squared_deviations_round_like_the_scalar_formula():
    # ranks where glibc's pow(d, 2) and numpy's d * d lead to different Cons
    positions = (982, 264, 151, 109, 34, 1)
    got = x_score(*positions)
    assert tuple(got)[1:] == reference_scores(placed(*positions), [], 0.8, 10.0)["x"]


def reference_sides(lists_per_side):
    """The walk over (item, score) entries that records replaced, numbering users
    and items by sorted name over both sides."""
    users = {u: n for n, u in enumerate(sorted({x.user for lists in lists_per_side
                                                for x in lists}))}
    items = {i: n for n, i in enumerate(sorted({i for lists in lists_per_side
                                                for x in lists for i, _ in x.entries}))}
    sides = []
    for lists in lists_per_side:
        lengths = [len(x.entries) for x in lists]
        list_user = np.array([users[x.user] for x in lists], np.int32)
        list_template = np.array([x.template_id for x in lists], np.int32)
        item = np.fromiter((items[i] for x in lists for i, _ in x.entries), np.int32,
                           count=sum(lengths))
        rank = np.fromiter((r for n in lengths for r in range(n)), np.int32, count=sum(lengths))
        sides.append((np.repeat(list_user, lengths), item, rank,
                      np.repeat(list_template, lengths), list_user, list_template))
    return list(users), list(items), sides


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_arrays_from_records_equal_ranked_list_walk(seed):
    rng = np.random.default_rng(seed)
    items = [f"i{j:02d}" for j in range(30)]
    lists = [[EntriesList(f"u{u}", index_type, int(t),
                          [(i, -float(r)) for r, i in enumerate(
                              rng.choice(items, size=rng.integers(0, 9), replace=False))])
              for u in rng.permutation(12) for t in rng.permutation(4)[:rng.integers(0, 5)] + 1]
             for index_type in ("ceid", "seid")]
    ranks = rank_arrays(*(rank_side([x.record() for x in side]) for side in lists))
    users, item_names, sides = reference_sides(lists)
    assert ranks.users == users and ranks.items == item_names
    assert users == sorted(users) and item_names == sorted(item_names)
    assert len(ranks.sides) == len(sides) == 2
    for got, ref in zip(ranks.sides, sides):
        assert (got.users, got.items) == (users, item_names)
        for a, b in zip(got[2:], ref):
            assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)


def per_cap_score_pairs(ranks, alpha, tau, max_templates):
    """score_pairs as it numbered the pairs of each cap: a sort and a search per cap."""
    n_items = max(len(ranks.items), 1)
    keys, entry_ranks, listed = [], [], []
    for side in ranks.sides:
        keep = side.template <= max_templates
        keys.append(side.user[keep].astype(np.int64) * n_items + side.item[keep])
        entry_ranks.append(side.rank[keep])
        listed.append(side.list_user[side.list_template <= max_templates])
    pairs = np.unique(np.concatenate(keys))
    (conf_c, cons_c, s_c, n_c), (conf_s, cons_s, s_s, n_s) = (
        _type_terms(np.searchsorted(pairs, key), rank, len(pairs), alpha, tau)
        for key, rank in zip(keys, entry_ranks))
    columns = (conf_c, cons_c, s_c, conf_s, cons_s, s_s, s_c + s_s, n_c + n_s)
    return PairScores(ranks.users, ranks.items, np.unique(np.concatenate(listed)),
                      pairs // n_items, pairs % n_items, dict(zip(COLUMNS, columns)))


def assert_pair_scores_identical(got, want):
    assert got.users == want.users and got.items == want.items
    for a, b in zip(got[2:5], want[2:5]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got.columns) == list(want.columns)
    for c in COLUMNS:  # bit patterns, so -0.0 and nan compare too
        assert got.columns[c].dtype == want.columns[c].dtype
        assert got.columns[c].tobytes() == want.columns[c].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairs_numbered_once_equal_per_cap_path_bitwise(seed):
    rng = np.random.default_rng(seed)
    items = [f"i{j:02d}" for j in range(30)]
    sides = [[rl(f"u{u}", index_type, int(t), rng.choice(items, size=rng.integers(0, 9),
                                                         replace=False))
              for u in rng.permutation(15) for t in rng.permutation(6)[:rng.integers(0, 7)] + 1]
             for index_type in ("ceid", "seid")]
    for one_side in ([sides[0], []], [[], sides[1]]):
        ranks = rank_arrays(*map(rank_side, one_side))
        for cap in range(8):
            assert_pair_scores_identical(score_pairs(ranks, 0.8, 10.0, cap),
                                         per_cap_score_pairs(ranks, 0.8, 10.0, cap))
    ranks = rank_arrays(*map(rank_side, sides))
    for alpha in (0.8, 1.0, 0.0):
        for cap in (*range(8), math.inf):
            assert_pair_scores_identical(score_pairs(ranks, alpha, 10.0, cap),
                                         per_cap_score_pairs(ranks, alpha, 10.0, cap))


def test_breakdown_formats_each_value_like_repr(tmp_path):
    x = [0.0, -0.0, 1.5, math.nan, -0.0, 1e-300, 1.5, 0.1 + 0.2, math.inf]
    columns = {c: np.array(x[j:] + x[:j]) for j, c in enumerate(COLUMNS[:-1])}
    columns["appearances"] = np.array([0, 3, 3, 1, 2, 2, 7, 1, 3])
    scores = PairScores(["u"], [f"i{j}" for j in range(9)], np.array([0]),
                        np.zeros(9, dtype=np.int64), np.arange(9), columns)
    write_score_breakdown(scores, tmp_path / "b.tsv")
    want = ["\t".join(["user", "item", *COLUMNS])] + [
        "\t".join(["u", f"i{j}", *(repr(columns[c].tolist()[j]) for c in COLUMNS)])
        for j in range(9)]
    assert (tmp_path / "b.tsv").read_text().splitlines() == want
    assert "-0.0" in want[2] and "0.30000000000000004" in want[8]


def test_rank_side_numbers_per_file_and_is_read_only():
    side = rank_side([rl("v", "ceid", 2, ["b", "a"]), rl("u", "ceid", 1, ["a", "c"]),
                      rl("v", "ceid", 1, [])])
    assert (side.users, side.items) == (["u", "v"], ["a", "b", "c"])
    assert side.user.tolist() == [1, 1, 0, 0] and side.item.tolist() == [1, 0, 0, 2]
    assert side.rank.tolist() == [0, 1, 0, 1] and side.template.tolist() == [2, 2, 1, 1]
    assert side.list_user.tolist() == [1, 0, 1] and side.list_template.tolist() == [2, 1, 1]
    for column in side[2:]:
        assert column.dtype == np.int32 and not column.flags.writeable
    # the arrays renumber both sides by sorted name across sides
    ranks = rank_arrays(side, rank_side([rl("t", "seid", 1, ["c", "0"])]))
    assert (ranks.users, ranks.items) == (["t", "u", "v"], ["0", "a", "b", "c"])
    ceid, seid = ranks.sides
    assert ceid.user.tolist() == [2, 2, 1, 1] and ceid.list_user.tolist() == [2, 1, 2]
    assert ceid.item.tolist() == [2, 1, 1, 3] and ceid.rank is side.rank
    assert seid.user.tolist() == [0, 0] and seid.item.tolist() == [3, 0]
    assert ranks.user.tolist() == [0, 0, 1, 1, 2, 2] and ranks.item.tolist() == [0, 3, 1, 3, 1, 2]
    assert [p.tolist() for p in ranks.entry_pair] == [[5, 4, 2, 3], [1, 0]]


def test_side_holding_every_name_keeps_its_columns():
    both = rank_side([rl("u", "ceid", 1, ["a", "a\x00"]), rl("w", "ceid", 1, ["b"])])
    part = rank_side([rl("w", "seid", 1, ["a\x00"])])
    assert both.items == ["a", "a\x00", "b"] and both.item.tolist() == [0, 1, 2]
    ranks = rank_arrays(both, part)
    kept, mapped = ranks.sides
    for name in ("user", "item", "list_user"):
        assert getattr(kept, name) is getattr(both, name)
    assert mapped.user.tolist() == [1] and mapped.item.tolist() == [1]
    assert mapped.item is not part.item and mapped.list_user.tolist() == [1]
    # 'a' and 'a\x00' stay two items through the fusion
    fused = fused_lists(*top_k(score_pairs(ranks, 0.8, 10.0), 5))
    assert [(r.user, r.items) for r in fused.values()] == [("u", ["a", "a\x00"]),
                                                           ("w", ["a\x00", "b"])]


# The references below are the previous forms of the three steps every fusion
# call runs: entries numbered by a search into the sorted pairs, squared
# deviations mapped per distinct deviation, and the pairs ordered by a four-key
# lexsort. The steps must equal them bit for bit.

def searchsorted_pairs(ranks):
    """The pairs and each side's entry numbers: a sort, then a search per side."""
    n_items = max(len(ranks.items), 1)
    keys = [side.user.astype(np.int64) * n_items + side.item for side in ranks.sides]
    pairs = np.unique(np.concatenate(keys))
    return (pairs // n_items, pairs % n_items,
            [np.searchsorted(pairs, key).astype(np.int32) for key in keys])


def scalar_map_type_terms(pair, rank, n_pairs, alpha, tau):
    """_type_terms mapping every deviation and mean through a float sort of its own."""
    count = np.bincount(pair, minlength=n_pairs)
    mean = np.bincount(pair, weights=rank, minlength=n_pairs) / np.maximum(count, 1)
    sq_dev = _scalar_map(lambda d: d ** 2, rank - mean[pair])
    var = np.bincount(pair, weights=sq_dev, minlength=n_pairs) / np.maximum(count - 1, 1)
    conf = np.where(count > 0, _scalar_map(math.exp, -mean / tau), 0.0)
    cons = np.where(count > 1, _scalar_map(math.exp, -np.sqrt(var) / tau), 0.0)
    return conf, cons, alpha * conf + (1.0 - alpha) * cons, count


def lexsort_top_k(scores, k_out):
    """top_k's columns (user, item, rank, s_total) with the pairs in lexsort order."""
    order = np.lexsort((scores.item, -scores.columns["appearances"],
                        -scores.columns["s_total"], scores.user))
    user = scores.user[order]
    rank = np.arange(len(order)) - np.searchsorted(user, user)
    top = order[rank < k_out]
    return (scores.user[top].astype(np.int32), scores.item[top].astype(np.int32),
            rank[rank < k_out].astype(np.int32), scores.columns["s_total"][top])


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tied_lists(users):
    """Lists whose fusion ties: per user, x and y have equal ranks in other orders
    (equal s_total and appearances); b, seen at rank 0 twice, ties a, seen at
    rank 0 once, on s_total when alpha is 1 (conf-only) but not on appearances;
    and 24 one-item lists make 24 pairs with equal keys, more than an insertion
    sort handles. Every user gets the same lists, so s_total ties across users."""
    ceid, seid = [], []
    for user in users:
        ceid += [rl(user, "ceid", 1, ["y", "q", "x", "p"]), rl(user, "ceid", 2, ["x", "p", "y"]),
                 rl(user, "ceid", 3, ["a"]), rl(user, "ceid", 4, ["b"]),
                 rl(user, "ceid", 5, ["b"])]
        seid += [rl(user, "seid", t, [f"z{t:02d}"]) for t in range(1, 25)]
    return ceid, seid


def fusion_cases(seed):
    """(ceid, seid) record lists: random lists of many users; each side alone; one
    user; the tied lists (with a random side for one case)."""
    rng = np.random.default_rng(seed)
    items = [f"i{j:02d}" for j in range(40)]

    def random_side(index_type, users):
        return [rl(u, index_type, int(t), rng.choice(items, size=rng.integers(0, 12),
                                                    replace=False))
                for u in users for t in rng.permutation(8)[:rng.integers(0, 9)] + 1]

    users = [f"u{u:02d}" for u in rng.permutation(20)]
    ceid, seid = random_side("ceid", users), random_side("seid", users)
    one = random_side("ceid", ["w"]) + [rl("w", "ceid", 9, ["i00", "i01"])]
    tied_c, tied_s = tied_lists(["t1", "t0", "t2"])
    return [(ceid, seid), (ceid, []), ([], seid), (one, []), (one, random_side("seid", ["w"])),
            (tied_c, tied_s), (tied_c, random_side("seid", ["t0", "t1", "t2"]))]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fusion_steps_equal_their_sorting_references(seed):
    for ceid, seid in fusion_cases(seed):
        ranks = rank_arrays(rank_side(ceid), rank_side(seid))
        user, item, entry_pair = searchsorted_pairs(ranks)
        assert_bitwise((ranks.user, ranks.item, *ranks.entry_pair), (user, item, *entry_pair))
        for pair, side in zip(ranks.entry_pair, ranks.sides):
            for alpha, tau in ((0.8, 10.0), (0.3, 3.0)):
                assert_bitwise(_type_terms(pair, side.rank, len(ranks.user), alpha, tau),
                               scalar_map_type_terms(pair, side.rank, len(ranks.user),
                                                     alpha, tau))
        for alpha in (0.8, 1.0, 0.0):
            for cap in (2, 5, math.inf):
                scores = score_pairs(ranks, alpha, 10.0, cap)
                for k_out in (1, 3, 30):
                    side, s_total = top_k(scores, k_out)
                    assert_bitwise((side.user, side.item, side.rank, s_total),
                                   lexsort_top_k(scores, k_out))


def test_tied_lists_tie():
    # the ties the reference test relies on are there
    ranks = rank_arrays(*map(rank_side, tied_lists(["t1", "t0", "t2"])))
    for alpha in (0.8, 1.0):
        scores = score_pairs(ranks, alpha, 10.0)
        s_total, appearances = scores.columns["s_total"], scores.columns["appearances"]
        row = {(scores.users[u], scores.items[i]): n
               for n, (u, i) in enumerate(zip(scores.user.tolist(), scores.item.tolist()))}
        x, y, a, b = (row["t0", name] for name in "xyab")
        assert s_total[x] == s_total[y] == s_total[row["t2", "x"]]
        assert appearances[x] == appearances[y]
        assert (s_total[a] == s_total[b]) == (alpha == 1.0) and appearances[b] > appearances[a]
        zs = [row["t0", f"z{t:02d}"] for t in range(1, 25)]
        assert len(set(zip(s_total[zs].tolist(), appearances[zs].tolist()))) == 1
