import copy
import pickle
import random
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partavoid.core import (
    Composition,
    EmptyBlock,
    InvalidRGF,
    Matching,
    NotACover,
    OverlappingBlocks,
    PartitionError,
    RGFWord,
    SetPartition,
    bell,
    components,
    double_factorial,
    iter_partitions,
    iter_rgf_words,
    m_counts,
    perfect_matchings,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
    spanning_doubleton_pattern,
    standardize,
    stirling2,
)

from conftest import BELL


def _fold_rgf(xs):
    word = [1]
    for x in xs[1:]:
        word.append(1 + x % (max(word) + 1))
    return word


rgf_words = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 11), min_size=n, max_size=n)).map(_fold_rgf)


def test_from_blocks_standard_form():
    p = SetPartition.from_blocks([[4], [3, 1], [5, 2]], 5)
    assert p.blocks == ((1, 3), (2, 5), (4,))
    assert str(p) == "13/25/4"


def test_validation_errors():
    with pytest.raises(OverlappingBlocks):
        SetPartition.from_blocks([[1, 2], [2, 3]], 3)
    with pytest.raises(NotACover):
        SetPartition.from_blocks([[1, 2]], 3)
    with pytest.raises(EmptyBlock):
        SetPartition.from_blocks([[1, 2], []], 2)
    with pytest.raises(InvalidRGF):
        RGFWord.parse("13")
    with pytest.raises(InvalidRGF):
        RGFWord.parse("2")


def test_cover_check_is_bounded_by_the_blocks():
    # "1/999999999999" parses as two singletons of a huge ground set; the
    # check must fail on the element count, not by building the set 1..n
    with pytest.raises(NotACover):
        SetPartition.from_blocks([[1], [10 ** 12]], 10 ** 12)
    with pytest.raises(NotACover):
        SetPartition.parse("1/999999999999")


def test_parse_forms():
    assert SetPartition.parse("1 3/2") == SetPartition.parse("13/2")
    assert SetPartition.parse("1 2 3 4") == single_block_pattern(4)
    ten = "/".join(str(i) for i in range(1, 11))
    assert SetPartition.parse(ten) == singletons_pattern(10)
    spaced = SetPartition.parse("1 10/2 3/4 5 6 7 8 9")
    assert spaced.n == 10 and spaced.block_of(10) == (1, 10)


def test_str_compact_vs_spaced():
    assert str(SetPartition.parse("13/2")) == "13/2"
    big = SetPartition.from_blocks([[1, 10], [2, 3, 4, 5, 6, 7, 8, 9]], 10)
    assert str(big) == "1 10/2 3 4 5 6 7 8 9"


def test_rgf_pinned():
    assert str(SetPartition.parse("145/23").to_rgf()) == "12211"
    assert str(SetPartition.parse("12/34").to_rgf()) == "1122"
    assert SetPartition.from_rgf(RGFWord.parse("12211")) == SetPartition.parse("145/23")


@given(rgf_words)
def test_rgf_round_trip(word):
    p = SetPartition.from_rgf(RGFWord(word))
    assert list(p.to_rgf()) == list(word)


def test_complement():
    assert str(SetPartition.parse("2345/1").complement()) == "1234/5"
    assert SetPartition.parse("13/24").complement() == SetPartition.parse("13/24")


@given(rgf_words)
def test_complement_involution(word):
    p = SetPartition.from_rgf(RGFWord(word))
    assert p.complement().complement() == p


def test_blocks_are_sorted_from_any_order():
    # the standard form of shuffled blocks with shuffled elements, against
    # the sort by each block's minimum
    rng = random.Random(11)
    for n in range(1, 8):
        for p in iter_partitions(n):
            blocks = [rng.sample(b, len(b)) for b in p.blocks]
            rng.shuffle(blocks)
            want = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
            assert SetPartition(blocks, n).blocks == want == p.blocks
            assert SetPartition(map(tuple, blocks)) == p


def test_standardize():
    assert str(standardize([[2, 7], [4]])) == "13/2"
    assert standardize([[5]]).n == 1


def test_block_check_is_shared():
    # from_blocks and standardize raise the same errors, word for word
    for blocks, exc, text in (([[1, 2], []], EmptyBlock, "empty block"),
                              ([[1, 3], [3, 2]], OverlappingBlocks,
                               "elements repeated across blocks: [3]")):
        for build in (lambda: SetPartition.from_blocks(blocks, 3),
                      lambda: standardize(blocks)):
            with pytest.raises(exc) as info:
                build()
            assert str(info.value) == text
    # a repeat inside one block is a set, as before
    assert str(standardize([[4, 4], [9]])) == "1/2"


def test_components():
    assert components(range(6), [(0, 3), (4, 5), (3, 0), (5, 1)]) == [[0, 3], [1, 4, 5], [2]]
    assert components("abc", []) == [["a"], ["b"], ["c"]]
    assert components([], []) == []


def test_iter_partitions_counts_and_order():
    for n in range(1, 9):
        seen = list(iter_partitions(n))
        assert len(seen) == BELL[n]
        assert len(set(seen)) == BELL[n]
    words = [tuple(p.to_rgf()) for p in iter_partitions(4)]
    assert words == sorted(words)
    assert words[0] == (1, 1, 1, 1) and words[-1] == (1, 2, 3, 4)


def test_iter_partitions_is_the_rgf_listing():
    # against the blocks of each word, gathered here and checked by from_blocks
    for n in range(10):
        got = list(iter_partitions(n))
        want = []
        for w in iter_rgf_words(n):
            blocks = {}
            for x, a in enumerate(w, start=1):
                blocks.setdefault(a, []).append(x)
            want.append(SetPartition.from_blocks(blocks.values(), n))
        assert got == want, n
        assert all(type(b) is tuple for p in got for b in p.blocks)


def test_iter_rgf_words_bounded():
    assert sum(1 for _ in iter_rgf_words(5)) == BELL[5]
    assert sum(1 for _ in iter_rgf_words(5, max_letter=2)) == 2 ** 4


def test_iter_rgf_words_is_every_capped_word_in_order():
    # against a filter over all words of {1..n}^n, which is lexicographic
    for n in range(1, 7):
        for cap in (None, -1, 0, 1, 2, 3, n):
            top = n if cap is None else cap
            want = [w for w in product(range(1, top + 1), repeat=n)
                    if all(w[i] <= max(w[:i], default=0) + 1 for i in range(n))]
            assert [tuple(w) for w in iter_rgf_words(n, max_letter=cap)] == want, (n, cap)
    assert list(iter_rgf_words(0)) == [] and list(iter_rgf_words(3, max_letter=0)) == []


def test_iter_rgf_words_far_past_the_recursion_limit():
    # an odometer over the word, not one frame per letter
    assert [tuple(w) for w in iter_rgf_words(3000, max_letter=1)] == [(1,) * 3000]
    first = [tuple(w) for w in islice(iter_rgf_words(3000), 3)]
    assert first == [(1,) * 3000, (1,) * 2999 + (2,), (1,) * 2998 + (2, 1)]


def test_matchings():
    assert m_counts(6) == [1, 1, 2, 4, 10, 26, 76]
    m = Matching.from_rgf([1, 2, 1, 3])
    assert type(m) is Matching and m.blocks == ((1, 3), (2,), (4,))
    assert m.k == 1 and m.f == 2 and m.n == 4
    with pytest.raises(PartitionError):
        Matching.from_rgf([1, 2, 1, 1])


def test_counting_helpers():
    assert [bell(n) for n in range(8)] == list(BELL[:8])
    assert stirling2(5, 3) == 25 and stirling2(0, 0) == 1
    assert double_factorial(6) == 48 and double_factorial(5) == 15
    assert perfect_matchings(6) == 15 and perfect_matchings(0) == 1


def test_stirling2_loop_matches_recurrence():
    @lru_cache(maxsize=None)
    def recursive(n, k):
        if n == 0:
            return 1 if k == 0 else 0
        if k == 0 or k > n:
            return 0
        return k * recursive(n - 1, k) + recursive(n - 1, k - 1)

    for n in range(31):
        for k in range(31):
            assert stirling2(n, k) == recursive(n, k), (n, k)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_pattern_factories():
    assert str(single_block_pattern(4)) == "1234"
    assert str(singletons_pattern(4)) == "1/2/3/4"
    assert str(punctured_block_pattern(4, 1)) == "1/234"
    assert str(punctured_block_pattern(5, 3)) == "1245/3"
    assert str(spanning_doubleton_pattern(4)) == "14/2/3"
    with pytest.raises(ValueError):
        punctured_block_pattern(4, 5)


def test_pattern_factories_share_one_object_per_argument():
    for k in range(2, 7):
        assert single_block_pattern(k) is single_block_pattern(k)
        assert singletons_pattern(k) is singletons_pattern(k)
        for a in range(1, k + 1):
            assert punctured_block_pattern(k, a) is punctured_block_pattern(k, a)
    for k, a in ((4, 0), (4, 5), (1, 1), (0, 0)):
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError):
                punctured_block_pattern(k, a)


def test_block_queries():
    p = SetPartition.parse("135/2/4")
    assert p.block_of(3) == (1, 3, 5)
    assert p.block_sizes() == (3, 1, 1)
    assert p.singletons() == [2, 4]
    assert len(p) == 3


def test_immutability():
    p = SetPartition.parse("12/3")
    with pytest.raises(AttributeError):
        p.n = 7


def _copies(x):
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(x, proto))
    yield copy.copy(x)
    yield copy.deepcopy(x)


def test_pickle_and_copy_round_trip():
    cases = [SetPartition.parse("13/24"), Matching([[1, 3], [2]], 3),
             Matching([], 0), RGFWord.parse("1213"), Composition([0, 2, 1])]
    for x in cases:
        for y in _copies(x):
            assert y == x and type(y) is type(x)
    for y in _copies(Matching([[1, 4], [2], [3, 5]], 5)):
        assert (y.k, y.f) == (2, 1)
        with pytest.raises(AttributeError):
            y.n = 7


def test_records_are_values():
    from partavoid.bijections import CappedCore
    from partavoid.wilf import CountTable
    core = CappedCore(SetPartition.parse("14/23"), 2)
    table = CountTable(3, 4, {"123": (14,)})
    assert (core.partition, core.caps) == (SetPartition.parse("14/23"), 2)
    assert core == CappedCore(SetPartition.parse("14/23"), 2) != CappedCore(core.partition, 1)
    assert len({core, CappedCore(core.partition, 2)}) == 1
    assert repr(table) == "CountTable(k=3, n_max=4, rows={'123': (14,)})"
    for x in (core, table):
        for y in _copies(x):
            assert y == x and type(y) is type(x)
        with pytest.raises(AttributeError):
            x.k = 7
    with pytest.raises(TypeError):
        CappedCore(core.partition)


@given(rgf_words)
def test_pickle_round_trip_over_rgf_words(word):
    w = RGFWord(word)
    p = SetPartition.from_rgf(w)
    for x in (w, p):
        for y in _copies(x):
            assert y == x and type(y) is type(x)
            assert hash(y) == hash(x)
