import copy
import pickle
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partavoid.avoidance import avoids, block_contains_beta, contains, iter_avoiders
from partavoid.bijections import (
    ABCWord,
    InvalidRWord,
    KZero,
    LetterOutOfRange,
    NotInImage,
    NotInW,
    PreconditionViolated,
    RWord,
    R_to_rgf,
    caps_of,
    decode_14_2_3,
    decode_1_24_3,
    delta_insertion_encode,
    delta_nonsurjectivity_witness,
    encode_14_2_3,
    encode_1_24_3,
    generate_14_23_core,
    has_forbidden_pair,
    iter_abc_words,
    iter_r_words,
    lemma_induction_psi,
    lex_rank_family,
    phi_134_2,
    phi_134_2_inverse,
    phi_a,
    phi_a_inverse,
    psi_sigma_beta,
    rgf_to_R,
    slide,
    two_block_gamma,
    two_block_varphi,
    two_block_varphi_inverse,
    _unslide,
)
from partavoid.core import (
    Composition,
    Matching,
    SetPartition,
    iter_partitions,
    iter_rgf_words,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
    spanning_doubleton_pattern,
    standardize,
)

P = SetPartition.parse


# =========================================================================
# slide and the cascade
# =========================================================================

def test_slide_worked_example():
    out = slide(P("1 3/2 5 6 7 8 9/4 10"), 2, 5, 2)
    assert str(out) == "1 6/2 3 4 5 8 9/7 10"


def test_slide_preserves_block_index_and_size():
    pi = P("1 3/2 5 6 7 8 9/4 10")
    out = slide(pi, 2, 5, 2)
    assert len(out.blocks) == len(pi.blocks)
    assert len(out.blocks[1]) == len(pi.blocks[1])


def test_slide_rejects_wrong_anatomy():
    with pytest.raises(PreconditionViolated):
        slide(P("123/45"), 1, 5, 2)   # block contains position-3 pattern? no: too small
    with pytest.raises(PreconditionViolated):
        slide(P("1 3/2 5 6 7 8 9/4 10"), 1, 5, 2)  # tiny block, no witness


def test_slide_unslide_round_trip():
    k = 5
    for a in (2, 3, 4):
        hi = punctured_block_pattern(k, a + 1)
        for n in (6, 7):
            for pi in iter_partitions(n):
                if not avoids(pi, hi):
                    continue
                for i in range(1, len(pi.blocks) + 1):
                    if not block_contains_beta(pi.blocks[i - 1], k, a, n=n):
                        continue
                    out = slide(pi, i, k, a)
                    assert _unslide(out, i, k, a) == pi


def test_cascade_worked_example():
    pi0 = P("1 10 11 12/2 4 5 8/3 6 7 9")
    assert str(phi_a(pi0, 5, 2)) == "1 2 11 12/3 4 7 9/5 6 8 10"


def test_cascade_rejects_a3_on_worked_example():
    # the staged input contains the position-4 pattern, so the a=3 cascade
    # refuses it at the precondition
    with pytest.raises(PreconditionViolated):
        phi_a(P("1 10 11 12/2 4 5 8/3 6 7 9"), 5, 3)


def test_phi_a_properties_small():
    k = 5
    for a in (2, 3, 4):
        hi = punctured_block_pattern(k, a + 1)
        lo = punctured_block_pattern(k, a)
        for n in range(1, 8):
            src = [p for p in iter_partitions(n) if avoids(p, hi)]
            dst = {p for p in iter_partitions(n) if avoids(p, lo)}
            images = set()
            for p in src:
                q = phi_a(p, k, a)
                assert q in dst
                assert phi_a_inverse(q, k, a) == p
                images.add(q)
            assert len(images) == len(src)
            if a < k - 1:
                assert images == dst
            else:
                assert images <= dst


def test_phi_a_inverse_rejects_noninverse_input():
    with pytest.raises(PreconditionViolated):
        phi_a_inverse(P("1 3/2 5 6 7 8 9/4 10"), 5, 2)  # contains position-2


# =========================================================================
# two-block injection
# =========================================================================

def test_two_block_worked_example():
    out = two_block_varphi(P("123456"), P("12/34"))
    assert str(out) == "12/34/56"
    assert two_block_varphi_inverse(out, P("12/34")) == P("123456")


def test_two_block_fixes_containing_input():
    pi = P("1234/5678")
    assert contains(pi, P("12/34"))
    assert two_block_varphi(pi, P("12/34")) == pi


def test_two_block_requires_big_block():
    with pytest.raises(PreconditionViolated):
        two_block_varphi(P("1/2/3/4/5"), P("12/34"))


def test_two_block_round_trip_all_sigma():
    beta4 = single_block_pattern(4)
    sigmas = [s for s in iter_partitions(4) if len(s.blocks) == 2]
    for sigma in sigmas:
        for n in (5, 6):
            src = [p for p in iter_partitions(n) if contains(p, beta4)]
            images = set()
            for p in src:
                q = two_block_varphi(p, sigma)
                assert contains(q, sigma)
                assert two_block_varphi_inverse(q, sigma) == p
                images.add(q)
            assert len(images) == len(src)
            m = len(sigma.blocks[1])
            if m + 1 < 4:
                g = two_block_gamma(sigma, n)
                assert contains(g, sigma)
                assert g not in images
            else:
                codom = sum(1 for p in iter_partitions(n) if contains(p, sigma))
                assert len(images) < codom


def test_two_block_gamma_needs_two_blocks():
    for text in ("1/2/3", "123"):
        with pytest.raises(PreconditionViolated, match="exactly two blocks"):
            two_block_gamma(P(text), 5)


def _ref_varphi_inverse(rho, sigma):
    """two_block_varphi_inverse before the block-size cut: the containment
    search on every block pair."""
    blocks = rho.blocks
    if contains(rho, single_block_pattern(sigma.n)):
        return rho
    parent = list(range(len(blocks)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if contains(standardize([blocks[i], blocks[j]]), sigma):
                parent[find(i)] = find(j)
    merged = {}
    for i, b in enumerate(blocks):
        merged.setdefault(find(i), []).extend(b)
    return SetPartition(merged.values(), rho.n)


def test_two_block_inverse_matches_every_pair_search():
    for sigma in iter_partitions(4):
        if len(sigma.blocks) != 2:
            continue
        for n in range(4, 8):
            for rho in iter_partitions(n):
                if contains(rho, sigma):
                    assert two_block_varphi_inverse(rho, sigma) == _ref_varphi_inverse(rho, sigma), (rho, sigma)


def test_two_block_inverse_refuses_every_avoider_of_sigma():
    # the precondition is the containment search when rho has a block of k
    # elements (the fixed-point branch) and the pair scan otherwise
    branches = set()
    for sigma in iter_partitions(4):
        if len(sigma.blocks) != 2:
            continue
        for n in range(4, 8):
            for rho in iter_partitions(n):
                if avoids(rho, sigma):
                    branches.add(max(map(len, rho.blocks)) >= 4)
                    with pytest.raises(PreconditionViolated, match="must contain the two-block"):
                        two_block_varphi_inverse(rho, sigma)
    assert branches == {False, True}


# =========================================================================
# psi and the induction combinator
# =========================================================================

def test_psi_worked_example():
    assert str(psi_sigma_beta(P("123/45"), 3)) == "1/23/4/5"


def test_psi_base_case():
    assert str(psi_sigma_beta(P("12345"), 2)) == "1/2/3/4/5"


def test_psi_rejects_too_many_blocks():
    with pytest.raises(PreconditionViolated):
        psi_sigma_beta(P("1/2/34"), 3)


def test_psi_injective_and_image_clean():
    for k in (3, 4):
        beta = single_block_pattern(k)
        sig = singletons_pattern(k)
        for n in range(1, 8):
            src = [p for p in iter_partitions(n) if avoids(p, sig)]
            images = set()
            for p in src:
                q = psi_sigma_beta(p, k)
                assert avoids(q, beta)
                assert not has_forbidden_pair(q, k)
                images.add(q)
            assert len(images) == len(src)


def _ref_psi(pi, k):
    """psi as the recursion on the standardized rest of the partition."""
    n = pi.n
    if n == 0:
        return pi
    if k == 2:
        return SetPartition([[x] for x in range(1, n + 1)], n)
    first, rest = pi.blocks[0], pi.blocks[1:]
    q, r = divmod(len(first), k - 1)
    out = [list(first[:r])] if r else []
    out += [list(first[r + t * (k - 1):r + (t + 1) * (k - 1)]) for t in range(q)]
    if rest:
        tail = sorted(x for b in rest for x in b)
        out += [[tail[e - 1] for e in b] for b in _ref_psi(standardize(rest), k - 1).blocks]
    return SetPartition(out, n)


def test_psi_matches_the_recursion():
    for n in range(1, 9):
        for p in iter_partitions(n):
            for k in range(len(p.blocks) + 1, 7):
                assert psi_sigma_beta(p, k) == _ref_psi(p, k), (p, k)


def test_has_forbidden_pair_is_literal():
    assert has_forbidden_pair(P("13/245"), 4)
    assert has_forbidden_pair(P("13/245/6"), 4)
    # the same shape on shifted elements does not count
    assert not has_forbidden_pair(P("1/24/356"), 4)


def test_lemma_induction_exceptional_case():
    alpha = P("12/3")
    fam = lex_rank_family(alpha, singletons_pattern(3))
    out = lemma_induction_psi(P("15/2/3/4"), alpha, fam)
    assert str(out) == "15/23/4"


def test_lemma_induction_identity_case():
    alpha = P("12/3")
    fam = lex_rank_family(alpha, singletons_pattern(3))
    pi = P("15/24/3")
    assert lemma_induction_psi(pi, alpha, fam) == pi


def test_lemma_induction_rejects_lifted_pattern():
    alpha = P("12/3")
    fam = lex_rank_family(alpha, singletons_pattern(3))
    with pytest.raises(PreconditionViolated):
        lemma_induction_psi(P("1/23/4/5"), alpha, fam)


def test_lemma_induction_injective_k4():
    alpha = P("12/3")
    fam = lex_rank_family(alpha, singletons_pattern(3))
    lifted = P("1/23/4")
    sig4 = singletons_pattern(4)
    src = [p for p in iter_partitions(6) if avoids(p, lifted)]
    images = set()
    for p in src:
        q = lemma_induction_psi(p, alpha, fam)
        assert avoids(q, sig4)
        images.add(q)
    assert len(images) == len(src)
    codom = sum(1 for p in iter_partitions(6) if avoids(p, sig4))
    assert len(images) < codom


# =========================================================================
# growth words
# =========================================================================

def test_word_membership():
    with pytest.raises(NotInW):
        ABCWord("b")
    with pytest.raises(NotInW):
        ABCWord("aca")
    with pytest.raises(NotInW):
        ABCWord("axc")
    w = ABCWord("aacac")
    assert not w.is_star() and not w.is_doublestar()
    assert ABCWord("aaccba").is_star()
    assert ABCWord("abbacb").is_doublestar()


def test_encoders_check_plain_words_and_trust_typed_ones():
    for enc in (encode_14_2_3, encode_1_24_3):
        for text in ("ac", "ba", "", "abd"):
            with pytest.raises(NotInW):
                enc(text)
    for w in iter_abc_words(8):
        assert type(w) is ABCWord and type(str(w)) is str
        assert encode_14_2_3(w) == encode_14_2_3(str(w))
        assert encode_1_24_3(w) == encode_1_24_3(str(w))


def test_encode_14_2_3_worked_example():
    assert str(encode_14_2_3("aaccba")) == "134/25/6"
    assert decode_14_2_3(P("134/25/6")) == "aaccba"


def test_encode_1_24_3_worked_example():
    assert str(encode_1_24_3("abbacb")) == "1235/46"
    assert decode_1_24_3(P("1235/46")) == "abbacb"
    assert str(encode_1_24_3("aacac")) == "135/2/4"


def test_decode_rejects_outside_image():
    with pytest.raises(NotInImage):
        decode_14_2_3(P("14/2/3"))
    with pytest.raises(NotInImage):
        decode_1_24_3(P("1/24/3"))


def _ref_abc_words(n, star=False, doublestar=False):
    """W_n by its definition: every string over {a, b, c}, filtered."""
    out = []
    for letters in product("abc", repeat=n):
        try:
            w = ABCWord("".join(letters))
        except NotInW:
            continue
        if (not star or w.is_star()) and (not doublestar or w.is_doublestar()):
            out.append(w)
    return out


def test_iter_abc_words_is_the_filter_in_order():
    for n in range(10):
        for flags in ({}, {"star": True}, {"doublestar": True}):
            got = list(iter_abc_words(n, **flags))
            assert got == _ref_abc_words(n, **flags), (n, flags)
            assert all(type(w) is ABCWord for w in got)


def test_iter_abc_words_far_past_the_recursion_limit():
    # the generator grows the word in place; W_n itself is exponential, so
    # only its first words are taken
    first = list(islice(iter_abc_words(1100, star=True), 4))
    a = "a" * 1100
    assert first == [a, a[:-1] + "b", a[:-1] + "c", a[:-2] + "ba"]


def _ref_decode(pi, c_block):
    """The growth replay through block_of, one block search per element."""
    letters, cur = [], []
    for i in range(1, pi.n + 1):
        target = pi.block_of(i)
        if i == target[0]:
            letters.append("a")
            cur.append(target[0])
            continue
        home = cur.index(target[0])
        if home == len(cur) - 1:
            letters.append("b")
        elif home == c_block % len(cur):
            letters.append("c")
        else:
            return None
    return "".join(letters)


def test_decoders_match_the_growth_replay():
    for n in range(1, 8):
        for p in iter_partitions(n):
            for dec, c_block in ((decode_14_2_3, -2), (decode_1_24_3, 0)):
                want = _ref_decode(p, c_block)
                if want is None:
                    with pytest.raises(NotInImage):
                        dec(p)
                else:
                    assert dec(p) == want, (p, c_block)


def test_word_bijections_small():
    pat1, pat2 = P("14/2/3"), P("1/24/3")
    for n in range(1, 8):
        star = list(iter_abc_words(n, star=True))
        av1 = {p for p in iter_partitions(n) if avoids(p, pat1)}
        assert {encode_14_2_3(w) for w in star} == av1
        assert all(decode_14_2_3(encode_14_2_3(w)) == w for w in star)
        dstar = list(iter_abc_words(n, doublestar=True))
        av2 = {p for p in iter_partitions(n) if avoids(p, pat2)}
        assert {encode_1_24_3(w) for w in dstar} == av2
        assert all(decode_1_24_3(encode_1_24_3(w)) == w for w in dstar)


# =========================================================================
# bounded-letter words
# =========================================================================

def test_rgf_to_R_pinned():
    assert str(rgf_to_R("11", 4)) == "12"
    assert str(R_to_rgf(RWord((1, 2), 4))) == "11"


def test_rgf_to_R_rejects_big_letters():
    with pytest.raises(LetterOutOfRange):
        rgf_to_R("1234", 4)


def test_rword_validation():
    with pytest.raises(InvalidRWord):
        RWord((2, 1), 4)
    with pytest.raises(InvalidRWord):
        RWord((1, 3), 4)
    assert tuple(RWord((1, 2, 1, 3), 4)) == (1, 2, 1, 3)


def test_rword_pickle_and_copy_round_trip():
    for k in (2, 3, 5):
        for w in iter_r_words(4, k):
            copies = [pickle.loads(pickle.dumps(w, proto))
                      for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
            for v in copies + [copy.copy(w), copy.deepcopy(w)]:
                assert type(v) is RWord and v == w and v.k == w.k == k
                assert R_to_rgf(v) == R_to_rgf(w)


def test_iter_r_words_is_every_word_in_order():
    # against a filter over all words of {1..k-1}^n, which is lexicographic
    for k in range(2, 6):
        for n in range(1, 7):
            want = [w for w in product(range(1, k), repeat=n)
                    if all(w[i] <= w[:i].count(1) + 1 for i in range(n))]
            assert [tuple(v) for v in iter_r_words(n, k)] == want, (n, k)
    assert list(iter_r_words(0, 3)) == [] and list(iter_r_words(3, 1)) == []


def test_iter_r_words_far_past_the_recursion_limit():
    # an odometer over the word, not one frame per letter
    assert [tuple(v) for v in iter_r_words(3000, 2)] == [(1,) * 3000]
    first = [tuple(v) for v in islice(iter_r_words(3000, 3), 3)]
    assert first == [(1,) * 3000, (1,) * 2999 + (2,), (1,) * 2998 + (2, 1)]


def test_rgf_R_bijection_small():
    for k in (2, 3, 4, 5):
        for n in range(1, 8):
            rgfs = list(iter_rgf_words(n, max_letter=k - 1))
            rws = {tuple(v) for v in iter_r_words(n, k)}
            assert len(rgfs) == len(rws)
            seen = set()
            for w in rgfs:
                v = rgf_to_R(w, k)
                assert tuple(v) in rws
                assert R_to_rgf(v) == w
                seen.add(tuple(v))
            assert seen == rws


def test_delta_insertion_worked_example():
    assert str(delta_insertion_encode(P("13/25/4"), 4)) == "11313"


def _ref_delta(pi, k):
    """The growth replay through block_of, each joined block ranked among
    the minima seen so far: the letters, or the refusal's message."""
    letters, mins_seen = [], []
    for i in range(1, pi.n + 1):
        target = pi.block_of(i)
        if i == target[0]:
            letters.append(1)
            mins_seen.append(i)
            continue
        blocks_so_far = len(mins_seen)
        t = sorted(mins_seen).index(target[0]) + 1
        if blocks_so_far - t + 2 > k - 1:
            return (f"element {i} lands {blocks_so_far - t} blocks from the right; "
                    f"only {k - 2} rightmost blocks are reachable")
        letters.append(blocks_so_far - t + 2)
    return letters


def test_delta_insertion_encode_matches_the_block_replay():
    for k in range(3, 6):
        delta = spanning_doubleton_pattern(k)
        for n in range(1, 9):
            for p in iter_avoiders(n, delta):
                assert list(delta_insertion_encode(p, k)) == _ref_delta(p, k), (p, k)
        for n in range(1, 7):
            for p in iter_partitions(n):
                want = _ref_delta(p, k)
                if isinstance(want, str):
                    with pytest.raises(PreconditionViolated) as info:
                        delta_insertion_encode(p, k)
                    assert str(info.value) == want
    with pytest.raises(PreconditionViolated, match="need k >= 3"):
        delta_insertion_encode(P("12"), 2)


def test_delta_insertion_rejects_deep_joins():
    with pytest.raises(PreconditionViolated):
        delta_insertion_encode(P("14/2/3"), 3)


def test_delta_insertion_injective_but_not_onto():
    delta = spanning_doubleton_pattern(4)
    avoiders = [p for p in iter_partitions(6) if avoids(p, delta)]
    codes = {tuple(delta_insertion_encode(p, 4)) for p in avoiders}
    assert len(codes) == len(avoiders)
    all_words = {tuple(v) for v in iter_r_words(6, 4)}
    assert codes < all_words
    w = delta_nonsurjectivity_witness(6, 4)
    assert contains(w, delta)
    assert tuple(delta_insertion_encode(w, 4)) in all_words - codes


# =========================================================================
# the 14/23 core
# =========================================================================

def test_core_n4():
    core = {(str(c.partition), c.caps) for c in generate_14_23_core(4)}
    assert core == {("1234", 1), ("13/24", 2), ("12/34", 1)}


def test_core_matches_oracle():
    pat = P("14/23")
    for n in range(2, 9):
        got = {c.partition for c in generate_14_23_core(n)}
        want = {p for p in iter_partitions(n)
                if avoids(p, pat) and not p.singletons()}
        assert got == want


def test_caps_of():
    assert caps_of(P("12/34")) == {4}
    assert caps_of(P("13/24")) == {3, 4}
    assert caps_of(P("1234")) == {4}
    assert caps_of(P("14/23")) == {3, 4}


# =========================================================================
# 134/2 decomposition
# =========================================================================

def test_phi_134_2_worked_example():
    pi = P("1 2 7/3/4 5 6 8/9/10 11 12")
    lam, skel = phi_134_2(pi)
    assert tuple(lam) == (1, 2, 1)
    assert str(skel) == "14/2/35/6/78"
    assert type(lam) is Composition and (len(lam), sum(lam)) == (3, 4)
    assert type(skel) is Matching
    assert sorted(len(b) for b in skel.blocks) == [1, 1, 2, 2, 2]
    assert phi_134_2_inverse(lam, skel) == pi


def test_phi_134_2_rejects_bad_shape():
    with pytest.raises(PreconditionViolated):
        phi_134_2(P("134/2"))
    with pytest.raises(KZero):
        phi_134_2(P("1/2/3"))


def test_phi_134_2_round_trip_small():
    pat = P("134/2")
    for n in range(1, 8):
        for p in iter_partitions(n):
            if not avoids(p, pat):
                continue
            try:
                lam, skel = phi_134_2(p)
            except KZero:
                continue
            assert phi_134_2_inverse(lam, skel) == p


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=10))
def test_word_round_trip_property(text):
    try:
        w = ABCWord("a" + text[1:]) if text else None
    except NotInW:
        return
    if w is None or not w.is_star():
        return
    assert decode_14_2_3(encode_14_2_3(w)) == w


# =========================================================================
# refusals of the public maps
# =========================================================================

@pytest.mark.parametrize("call,exc,match", [
    pytest.param(lambda: slide(P("1 3/2 5 6 7 8 9/4 10"), 2, 5, 1),
                 PreconditionViolated, "2 <= a <= k-1", id="slide-a_below_2"),
    pytest.param(lambda: slide(P("1 3/2 5 6 7 8 9/4 10"), 2, 5, 5),
                 PreconditionViolated, "2 <= a <= k-1", id="slide-a_equals_k"),
    pytest.param(lambda: slide(P("1 3/2 5 6 7 8 9/4 10"), 4, 5, 2),
                 PreconditionViolated, "no block 4", id="slide-no_block_i"),
    pytest.param(lambda: slide(P("1 3/2 5 6 7 8 9/4 10"), 0, 5, 2),
                 PreconditionViolated, "no block 0", id="slide-block_0"),
    pytest.param(lambda: slide(P("1245/3"), 1, 4, 2),
                 PreconditionViolated, "contains the position-3 pattern",
                 id="slide-holds_position_a_plus_1"),
    pytest.param(lambda: _unslide(P("12/3"), 2, 5, 2),
                 PreconditionViolated, "too small", id="unslide-too_small"),
    pytest.param(lambda: _unslide(P("1357/2/4/6"), 1, 5, 2),
                 PreconditionViolated, "not parked", id="unslide-not_parked"),
    pytest.param(lambda: _unslide(P("1234"), 1, 5, 2),
                 PreconditionViolated, "no room", id="unslide-no_room"),
    pytest.param(lambda: phi_a(P("12"), 5, 1),
                 PreconditionViolated, "2 <= a <= k-1", id="phi_a-a_below_2"),
    pytest.param(lambda: phi_a(P("12"), 5, 5),
                 PreconditionViolated, "2 <= a <= k-1", id="phi_a-a_equals_k"),
    pytest.param(lambda: phi_a_inverse(P("12"), 5, 1),
                 PreconditionViolated, "2 <= a <= k-1", id="phi_a_inverse-a_below_2"),
    pytest.param(lambda: phi_a_inverse(P("12"), 5, 5),
                 PreconditionViolated, "2 <= a <= k-1", id="phi_a_inverse-a_equals_k"),
    pytest.param(lambda: RWord((1, 4), 4),
                 InvalidRWord, "outside 1..3", id="RWord-letter_past_k_minus_1"),
    pytest.param(lambda: RWord((1, 0), 4),
                 InvalidRWord, "outside 1..3", id="RWord-letter_0"),
    pytest.param(lambda: RWord((), 4), InvalidRWord, "empty word", id="RWord-empty"),
    pytest.param(lambda: RWord((1,), 1),
                 PreconditionViolated, "need k >= 2", id="RWord-k_below_2"),
    pytest.param(lambda: phi_134_2_inverse(Composition([0, 0]), Matching([[1, 2], [3]], 3)),
                 PreconditionViolated, "composition length",
                 id="phi_134_2_inverse-wrong_length"),
    pytest.param(lambda: two_block_gamma(P("12/34"), 4),
                 PreconditionViolated, "need n > k", id="two_block_gamma-n_equals_k"),
    pytest.param(lambda: two_block_gamma(P("1/23"), 2),
                 PreconditionViolated, "need n > k", id="two_block_gamma-n_below_k"),
    pytest.param(lambda: psi_sigma_beta(P("1"), 1),
                 PreconditionViolated, "need k >= 2", id="psi_sigma_beta-k_below_2"),
])
def test_public_maps_refuse_with_their_documented_class(call, exc, match):
    with pytest.raises(exc, match=match) as info:
        call()
    assert type(info.value) is exc
