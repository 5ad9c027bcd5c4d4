import math

import numpy as np
import pytest

from rqrec.rerank import RankArrays, fuse_and_rank, score_items, score_pairs, top_k
from rqrec.retrieval import RankedList


def rl(user, index_type, template, items):
    return RankedList(user=user, index_type=index_type, template_id=template,
                      entries=[(i, -float(r)) for r, i in enumerate(items)])


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
    assert fused.items() == ["A", "C", "D", "B", "E"]
    assert fused.index_type == "fused" and fused.user == "u"
    scores = [s for _, s in fused.entries]
    assert scores == sorted(scores, reverse=True)


def test_top_everywhere_attains_two_exactly():
    ce = [rl("u", "ceid", t, ["top", "b"]) for t in (1, 2, 3)]
    se = [rl("u", "seid", t, ["top", "c"]) for t in (1, 2, 3)]
    scores = score_items(ce, se, alpha=0.8, tau=10.0)
    assert scores["top"].s_total == 2.0
    fused = fuse_and_rank(ce, se, alpha=0.8, tau=10.0, k_out=2)
    assert fused.entries[0] == ("top", 2.0)


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
    sa_tight = dict(f_tight.entries)["a"]
    sa_wide = dict(f_wide.entries)["a"]
    assert sa_tight == pytest.approx(sa_wide, abs=1e-12)
    with_cons_tight = dict(fuse_and_rank(tight, [], 0.8, 10.0, 6).entries)["a"]
    with_cons_wide = dict(fuse_and_rank(wide, [], 0.8, 10.0, 6).entries)["a"]
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
    order = fused.items()
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
    snapshot = [(x.user, x.template_id, list(x.entries)) for x in before]
    fuse_and_rank(before, [], alpha=0.5, tau=10.0, k_out=2)
    assert snapshot == [(x.user, x.template_id, list(x.entries)) for x in before]


def reference_scores(ceid_lists, seid_lists, alpha, tau):
    """The per-item formula with scalar Python floats and left-to-right sums."""
    out = {}
    for side, lists in enumerate((ceid_lists, seid_lists)):
        positions = {}
        for lst in lists:
            for rank, (item, _) in enumerate(lst.entries):
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
                ranks = RankArrays()
                for side in chosen:
                    ranks.add(side)
                scores = score_pairs(ranks, alpha, 10.0, max_templates=cap)
                fused = {f.user: f for f in top_k(scores, 7)}
                users = sorted({x.user for side in chosen for x in side if x.template_id <= cap})
                assert list(fused) == users
                for user in users:
                    mine = [[x for x in side if x.user == user and x.template_id <= cap]
                            for side in chosen]
                    ref = reference_scores(*mine, alpha, 10.0)
                    got = {scores.items[i]: tuple(scores.columns[c][j] for c in scores.columns)
                           for j, i in enumerate(scores.item.tolist())
                           if scores.users[scores.user[j]] == user}
                    assert got == ref
                    best = sorted(ref, key=lambda i: (-ref[i][6], -ref[i][7], i))[:7]
                    assert fused[user].entries == [(i, ref[i][6]) for i in best]
                    assert fuse_and_rank(*mine, alpha, 10.0, 7) == fused[user]


def test_squared_deviations_round_like_the_scalar_formula():
    # ranks where glibc's pow(d, 2) and numpy's d * d lead to different Cons
    positions = (982, 264, 151, 109, 34, 1)
    got = x_score(*positions)
    assert tuple(got)[1:] == reference_scores(placed(*positions), [], 0.8, 10.0)["x"]
