from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from partavoid import avoidance
from partavoid.avoidance import (
    avoider_counts,
    avoids,
    block_contains_beta,
    containment_witness,
    contains,
    contains_bruteforce,
    count_avoiders,
    iter_avoiders,
    rgf_contains,
)
from partavoid.core import (
    RGFWord,
    SetPartition,
    iter_partitions,
    iter_rgf_words,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
    standardize,
)
from partavoid.enumeration import closed_count

from conftest import BELL, K4_COMPLEMENTS, K4_ROWS, K5_ROWS


P = SetPartition.parse


def test_containment_pinned():
    assert contains(P("145/23"), P("12/34"))
    assert contains(P("135/24"), P("14/23"))
    assert avoids(P("13/24"), P("12/34"))
    assert avoids(P("135/24"), P("13/24")) is False  # crossing present
    assert contains(P("1234"), P("123"))
    assert avoids(P("1/2/3"), P("12"))


def test_witness_is_faithful():
    sigma, tau = P("145/23"), P("12/34")
    w = containment_witness(sigma, tau)
    assert w is not None
    assert standardize(sigma.restrict(w)) == tau
    assert containment_witness(P("13/24"), P("12/34")) is None


def test_self_containment_witness_is_identity():
    tau = P("14/2/3")
    assert containment_witness(tau, tau) == (1, 2, 3, 4)


def _ref_witness(sigma, tau):
    """The containment search as it was before the block-size cut, the
    explicit stack and the least-element cut: recursive, trying every unused
    sigma block for each new pattern block and every admissible element of
    each block; the first witness it finds is the one to match."""
    tau = standardize(tau.blocks)
    k, n = tau.n, sigma.n
    if k > n or len(tau.blocks) > len(sigma.blocks):
        return None
    pb = [0] * (k + 1)
    for ti, b in enumerate(tau.blocks):
        for e in b:
            pb[e] = ti
    bound = [-1] * len(tau.blocks)
    choice = [0] * (k + 1)

    def dfs(e, low, usedmask):
        if e > k:
            return True
        t = pb[e]
        hi = n - (k - e)
        if bound[t] >= 0:
            for x in sigma.blocks[bound[t]]:
                if low < x <= hi:
                    choice[e] = x
                    if dfs(e + 1, x, usedmask):
                        return True
            return False
        for j, blk in enumerate(sigma.blocks):
            if usedmask >> j & 1:
                continue
            bound[t] = j
            for x in blk:
                if low < x <= hi:
                    choice[e] = x
                    if dfs(e + 1, x, usedmask | 1 << j):
                        return True
            bound[t] = -1
        return False

    return tuple(choice[1:]) if dfs(1, 0, 0) else None


def test_witness_matches_the_recursive_search():
    taus = [tau for k in range(1, 5) for tau in iter_partitions(k)]
    for n in range(1, 8):
        for sigma in iter_partitions(n):
            for tau in taus:
                assert containment_witness(sigma, tau) == _ref_witness(sigma, tau), (sigma, tau)
    taus = list(iter_partitions(5))
    for sigma in iter_partitions(7):
        for tau in taus:
            assert containment_witness(sigma, tau) == _ref_witness(sigma, tau), (sigma, tau)


def test_pair_witness_matches_bruteforce():
    # a pair of blocks realizes a two-block pattern iff the greedy scan
    # succeeds in one of its two orders; the oracle's verdict depends only
    # on the pair's standard form, so it is computed once per form
    sigmas = [s for k in range(2, 6) for s in iter_partitions(k) if len(s.blocks) == 2]
    words = {s: tuple(1 if e in s.blocks[1] else 0 for e in range(1, s.n + 1)) for s in sigmas}
    oracle = {}
    for n in range(2, 8):
        for pi in iter_partitions(n):
            for b1, b2 in combinations(pi.blocks, 2):
                pair = standardize([b1, b2])
                for sigma in sigmas:
                    w12 = avoidance._pair_witness(b1, b2, words[sigma])
                    w21 = avoidance._pair_witness(b2, b1, words[sigma])
                    if (pair, sigma) not in oracle:
                        oracle[pair, sigma] = contains_bruteforce(pair, sigma)
                    assert bool(w12 or w21) == oracle[pair, sigma], (pi, b1, b2, sigma)
                    for w in (w12, w21):
                        if w is not None:
                            assert standardize(pi.restrict(w)) == sigma, (pi, w, sigma)
    # at k = 6 a block of five first meets a singleton
    sigmas = [s for s in iter_partitions(6) if len(s.blocks) == 2]
    for pi in iter_partitions(7):
        for sigma in sigmas:
            assert containment_witness(pi, sigma) == _ref_witness(pi, sigma), (pi, sigma)


def test_witness_far_past_the_recursion_limit():
    # the search keeps its untried choices on a stack, not on the call stack
    sigma = SetPartition([range(1, 1501)], 1500)
    assert containment_witness(sigma, SetPartition([range(1, 1201)], 1200)) == tuple(range(1, 1201))
    assert containment_witness(SetPartition([[x] for x in range(1, 1201)], 1200),
                               SetPartition([[x] for x in range(1, 1200)], 1199)) == tuple(range(1, 1200))
    # one long block and a singleton, answered by the pair scan
    sigma = SetPartition([range(1, 1200), [1200]], 1200)
    tau = SetPartition([range(1, 1199), [1199]], 1199)
    assert containment_witness(sigma, tau) == tuple(range(1, 1199)) + (1200,)
    # a shape the search answers itself: one long block and two singletons
    sigma = SetPartition([range(1, 1199), [1199], [1200]], 1200)
    tau = SetPartition([range(1, 1198), [1198], [1199]], 1199)
    assert containment_witness(sigma, tau) == tuple(range(1, 1198)) + (1199, 1200)


def test_block_and_singleton_patterns_take_the_first_witness():
    # beta_k is answered by the first k elements of the first block with k
    # elements, sigma_k by the minima of the first k blocks, without the
    # search; both are the search's own first witnesses
    for n in range(1, 8):
        for sigma in iter_partitions(n):
            for k in range(1, 7):
                beta, sing = single_block_pattern(k), singletons_pattern(k)
                w = containment_witness(sigma, beta)
                assert (w is not None) == contains_bruteforce(sigma, beta)
                big = [b for b in sigma.blocks if len(b) >= k]
                assert w == (tuple(big[0][:k]) if big else None)
                assert w == _ref_witness(sigma, beta)
                w = containment_witness(sigma, sing)
                assert (w is not None) == contains_bruteforce(sigma, sing)
                first = tuple(b[0] for b in sigma.blocks[:k])
                assert w == (first if len(sigma.blocks) >= k else None)
                assert w == _ref_witness(sigma, sing)


def test_patterns_in_other_labels_answer_as_their_standard_form():
    # beta_k and sigma_k are read off tau's blocks before its standard form
    # is looked up, so labels outside [k] must not change an answer; the
    # last two taus have n past their elements, which the shape test on
    # tau.n passes on to the lookup
    taus = [SetPartition([[2, 5, 9]]), SetPartition([[3], [7], [9]]),
            SetPartition([[2, 9], [5]]), SetPartition([[4, 8], [6, 10]]),
            SetPartition([[3], [7], [9]], 9), SetPartition([], 3)]
    for tau in taus:
        std = standardize(tau.blocks)
        for n in range(1, 7):
            for sigma in iter_partitions(n):
                w = containment_witness(sigma, tau)
                assert w == containment_witness(sigma, std), (sigma, tau)
                assert contains(sigma, tau) == (w is not None) == contains_bruteforce(sigma, tau)
                assert avoids(sigma, tau) == (w is None) == avoids(sigma, std)


def test_pattern_record_matches_the_blocks():
    # the one record of a pattern's facts, read by the searches and the
    # block maps
    for k in range(1, 7):
        for tau in iter_partitions(k):
            p = avoidance._pattern_data(tau)
            assert (p.tau, p.k) == (tau, k)
            assert p.word == tuple(x - 1 for x in tau.to_rgf()) == p.pb[1:]
            assert p.end == tuple(b[-1] for b in tau.blocks)
            blocks = [tau.block_of(e) for e in range(1, k + 1)]
            assert p.opens == (0, *(len(b) if b[0] == e else 0
                                    for e, b in enumerate(blocks, start=1)))
            assert sum(p.runs) == k and min(p.runs) >= 1
            start = 0
            for run in p.runs:  # each run is one letter, and the next run another
                assert len(set(p.word[start:start + run])) == 1
                assert start == 0 or p.word[start] != p.word[start - 1]
                start += run


def test_block_and_singleton_shapes_skip_the_pattern_lookup(monkeypatch):
    monkeypatch.setattr(avoidance, "_pattern_data", None)
    sigma = P("135/24/6")
    assert containment_witness(sigma, SetPartition([[2, 5, 9]])) == (1, 3, 5)
    assert containment_witness(sigma, SetPartition([[3], [7], [9]])) == (1, 2, 6)
    assert containment_witness(sigma, SetPartition([[3], [7], [9], [11]])) is None
    assert containment_witness(sigma, SetPartition([])) == ()


def test_fast_matches_bruteforce_exhaustive():
    taus = list(iter_partitions(3))
    for sigma in iter_partitions(5):
        for tau in taus:
            assert contains(sigma, tau) == contains_bruteforce(sigma, tau)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, BELL[6] - 1), st.integers(0, BELL[4] - 1))
def test_fast_matches_bruteforce_sampled(i, j):
    sigma = list(iter_partitions(6))[i]
    tau = list(iter_partitions(4))[j]
    assert contains(sigma, tau) == contains_bruteforce(sigma, tau)


def test_rgf_contains_pinned():
    assert rgf_contains(RGFWord("12211"), RGFWord("1122")) is False
    assert rgf_contains(RGFWord("1122"), RGFWord("1122"))
    assert rgf_contains(RGFWord("1122"), RGFWord("11"))


def test_rgf_contains_matches_the_subsequence_filter():
    # the slow oracle: some subsequence, its letters renamed by rank, is v
    def naive(w, v):
        for pos in combinations(range(len(w)), len(v)):
            sub = [w[i] for i in pos]
            rank = {x: r for r, x in enumerate(sorted(set(sub)), start=1)}
            if tuple(rank[x] for x in sub) == v:
                return True
        return False

    patterns = [tuple(v) for m in range(1, 5) for v in iter_rgf_words(m)]
    for n in range(1, 7):
        for w in iter_rgf_words(n):
            for v in patterns:
                assert rgf_contains(w, v) == naive(w, v), (w, v)


def test_rgf_contains_far_past_the_recursion_limit():
    # the search keeps one position per pattern letter on an explicit stack
    assert rgf_contains([1] * 1200, [1] * 1100)


def test_rgf_implication_direction():
    """Word-level containment forces partition-level containment; the
    converse fails, witnessed by 145/23 versus 12/34."""
    taus = [(t, t.to_rgf()) for t in iter_partitions(4)]
    for sigma in iter_partitions(6):
        w = sigma.to_rgf()
        for tau, v in taus:
            if rgf_contains(w, v):
                assert contains(sigma, tau), (sigma, tau)
    sigma, tau = P("145/23"), P("12/34")
    assert contains(sigma, tau)
    assert not rgf_contains(sigma.to_rgf(), tau.to_rgf())


def test_block_criterion_pinned():
    assert block_contains_beta([2, 5, 6, 7, 8, 9], 5, 2)
    assert not block_contains_beta([2, 5, 6, 7, 8, 9], 5, 3)
    assert block_contains_beta([1, 2, 4, 5], 4, 2)
    for a in range(1, 5):
        assert not block_contains_beta([1, 2, 3], 4, a)
    assert not block_contains_beta([1, 2, 3, 4], 4, 2)
    assert block_contains_beta([2, 5, 6, 9], 4, 3)


def test_block_criterion_matches_contains_interior():
    for n in range(1, 8):
        for pi in iter_partitions(n):
            for k in (3, 4, 5):
                for a in range(2, k):
                    via_blocks = any(block_contains_beta(b, k, a)
                                     for b in pi.blocks)
                    assert via_blocks == contains(pi, punctured_block_pattern(k, a))


def test_block_criterion_ambient_boundary():
    # a block at the floor of [n] needs outside room below for a = 1
    assert not block_contains_beta([1, 2, 3], 4, 1, n=3)
    assert block_contains_beta([2, 3, 4], 4, 1, n=4)
    assert block_contains_beta([1, 2, 3], 4, 4, n=4)
    assert not block_contains_beta([2, 3, 4], 4, 4, n=4)
    for n in range(1, 8):
        for pi in iter_partitions(n):
            for k in (3, 4):
                for a in (1, k):
                    via = any(block_contains_beta(b, k, a, n=n)
                              for b in pi.blocks)
                    assert via == contains(pi, punctured_block_pattern(k, a))


def test_oracle_rows_small():
    for text, row in list(K4_ROWS.items())[:4]:
        tau = P(text)
        for n in range(1, 7):
            assert count_avoiders(n, tau) == row[n - 1]


def test_oracle_matches_naive_filter():
    tau = P("13/24")
    for n in range(1, 8):
        naive = sum(1 for p in iter_partitions(n) if avoids(p, tau))
        assert count_avoiders(n, tau) == naive


def test_walk_matches_bruteforce_filter():
    # both uses of the walk, the counts and the listing (order included);
    # the walk to depth n agrees with the walk to depth 7 at every depth
    for k in range(1, 5):
        for tau in iter_partitions(k):
            counts = avoider_counts(7, tau)
            for n in range(1, 8):
                naive = [p for p in iter_partitions(n)
                         if not contains_bruteforce(p, tau)]
                assert counts[n] == len(naive), (tau, n)
                assert avoider_counts(n, tau) == counts[:n + 1], (tau, n)
                assert list(iter_avoiders(n, tau)) == naive, (tau, n)


def test_listing_matches_the_containment_filter_to_k5():
    # the listing places the last element by the states one element short
    # instead of a transition; at [5] it meets states whose next element
    # would open a new pattern block (15/2/3/4 and the like), which must
    # keep it inside their maps' blocks
    for k in range(1, 6):
        for tau in iter_partitions(k):
            for n in range(1, 8):
                naive = [p for p in iter_partitions(n) if not contains(p, tau)]
                assert list(iter_avoiders(n, tau)) == naive, (str(tau), n)


def test_iter_avoiders_edge_patterns():
    # a pattern of [1] is in every partition; one longer than n in none
    assert list(iter_avoiders(5, P("1"))) == []
    assert list(iter_avoiders(0, P("12"))) == []
    # at n = 1 the first element is also the last
    assert list(iter_avoiders(1, P("1"))) == []
    for tau in ("12", "1/2"):
        assert list(iter_avoiders(1, P(tau))) == [P("1")]
    for n in range(1, 6):
        assert list(iter_avoiders(n, P("123456"))) == list(iter_partitions(n))
        assert len(list(iter_avoiders(n, P("1/2/3/4/5/6")))) == BELL[n]


def test_iter_avoiders_far_past_the_recursion_limit():
    # the walk keeps its pending nodes on a stack, not on the call stack
    assert list(iter_avoiders(1200, P("1/2"))) == [single_block_pattern(1200)]


def test_iter_avoiders_reproduces_k4_rows():
    for text, row in K4_ROWS.items():
        tau = P(text)
        for n in range(1, 9):
            got = list(iter_avoiders(n, tau))
            assert len(got) == count_avoiders(n, tau) == row[n - 1], (text, n)
            assert len(set(got)) == len(got)
            assert all(p.n == n for p in got)


def test_walk_reproduces_k4_rows_for_every_pattern():
    for tau in iter_partitions(4):
        text = str(tau)
        row = list(K4_ROWS[K4_COMPLEMENTS.get(text, text)])
        assert avoider_counts(10, tau)[1:] == row, text


def test_avoider_counts_vector():
    counts = avoider_counts(6, P("12/34"))
    assert [counts[n] for n in range(1, 7)] == list(K4_ROWS["12/34"][:6])


def test_k5_rows_frozen():
    for text, row in K5_ROWS.items():
        assert count_avoiders(7, P(text)) == row[6]
        assert avoider_counts(9, P(text))[1:] == list(row), text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, BELL[5] - 1), st.integers(0, BELL[3] - 1))
def test_avoids_is_negation(i, j):
    sigma = list(iter_partitions(5))[i]
    tau = list(iter_partitions(3))[j]
    assert avoids(sigma, tau) == (not contains(sigma, tau))
    assert (containment_witness(sigma, tau) is None) == avoids(sigma, tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, BELL[6] - 1), st.integers(0, BELL[5] - 1),
       st.integers(0, BELL[4] - 1))
def test_containment_transitive(i, j, l):
    sigma = list(iter_partitions(6))[i]
    tau = list(iter_partitions(5))[j]
    rho = list(iter_partitions(4))[l]
    if contains(sigma, tau) and contains(tau, rho):
        assert contains(sigma, rho)


def test_complement_count_symmetry():
    for tau in iter_partitions(4):
        comp = tau.complement()
        for n in range(4, 7):
            assert count_avoiders(n, tau) == count_avoiders(n, comp)


# =========================================================================
# the level-by-level count against the listing walk and the closed forms
# =========================================================================

def test_counts_match_the_listing_for_every_pattern_to_k5():
    # the count merges prefixes with equal states; the listing walks every
    # prefix.  Each depth d, for every n (the states it drops depend on n)
    for k in range(1, 6):
        for tau in iter_partitions(k):
            listed = [0] + [len(list(iter_avoiders(d, tau))) for d in range(1, 9)]
            for n in range(1, 9):
                assert avoider_counts(n, tau) == listed[:n + 1], (str(tau), n)


def test_counts_agree_with_every_closed_form_past_brute_force():
    # two independent methods at every n <= 14, far beyond what the walk
    # lists in test time; every pattern of [4] but 1/23/4 has a closed form
    checked = set()
    for tau in iter_partitions(4):
        counts = avoider_counts(14, tau)
        for method in ("formula", "gf"):
            for n in range(1, 15):
                want = closed_count(tau, n, method)
                if want is not None:
                    assert counts[n] == want, (str(tau), method, n)
                    checked.add(str(tau))
    assert len(checked) == 14 and "1/23/4" not in checked


def test_walk_expands_each_key_once_and_only_cut_keys(monkeypatch):
    # the move table serves every level but the last.  Keys leave out the
    # empty map, the one state that need 1 drops, so moves made at need <= 1
    # serve every such level; from need 2 on, a key met again takes the
    # level before's moves with each child key cut to this need.  So place
    # sees no key at two consecutive levels (the last level excepted), and
    # no state that the level before's need drops, except the empty map
    # re-added at need <= 1: an uncut move keeps such states, which leaves
    # the counts right but the keys unmerged, so only a spy on place sees it
    calls = []
    placer = avoidance._placer

    def spy(p):
        place = placer(p)

        def wrapped(states, bi, need):
            calls.append((frozenset(states.items()), bi, need, need == p.k - 1))
            return place(states, bi, need)
        return wrapped

    monkeypatch.setattr(avoidance, "_placer", spy)
    for tau in iter_partitions(4):
        calls.clear()
        avoider_counts(12, tau)
        assert len(set(calls)) == len(calls), str(tau)
        assert all(j >= need - 1 or m == () and need <= 1
                   for key, _, need, _ in calls for m, j in key), str(tau)
        placed = {}
        for key, _, need, last in calls:
            if not last:
                placed.setdefault(need, set()).add(key - {((), 0)})
        for need, keys in placed.items():
            assert keys.isdisjoint(placed.get(need - 1, ())), (str(tau), need)
    # the walk whose keys recur most: its 10,238 slot moves need only
    # 3,657 expansions
    calls.clear()
    avoider_counts(20, P("1/23/4"))
    assert len(set(calls)) == len(calls) == 3657


def test_counts_match_the_listing_for_patterns_of_k6():
    # the cut moves against the listing, at every depth for every n, on
    # patterns of [6] with 2 to 5 blocks whose walks cut the most moves,
    # and on 1256/34 and 1/256/34, where the settle order of a cut key and
    # of a fresh one can name alike blocks apart (so fewer keys merge)
    for text in ("16/2345", "146/235", "1256/34", "16/23/45", "15/236/4",
                 "15/26/34", "16/25/34", "1/256/34", "16/23/4/5", "1/23/46/5",
                 "1/23/4/5/6", "13/2/4/5/6"):
        tau = P(text)
        listed = [0] + [len(list(iter_avoiders(d, tau))) for d in range(1, 9)]
        for n in range(1, 9):
            assert avoider_counts(n, tau) == listed[:n + 1], (text, n)


def test_counts_of_1_23_4_pinned_to_n20():
    # the one pattern of [4] with no closed form, and the walk whose keys
    # recur most.  For 5 <= n <= 20 these equal the fitted formula
    # 2^(n-1) + (n^4 - 2n^3 + 23n^2 - 286n + 744)/12, unproved, so the
    # values are pinned, not the formula
    assert avoider_counts(20, P("1/23/4")) == [
        0, 1, 2, 5, 14, 38, 92, 196, 378, 684, 1194, 2054, 3540, 6186,
        11040, 20176, 37718, 71888, 139102, 272162, 536640]
