###############################################################################
#
#  Executable maps between avoidance classes.
#
#  * slide / phi_a / phi_a_inverse: block surgery proving the equivalences
#    within the punctured-block family 1..(a-1)(a+1)..k/a.
#  * two_block_varphi (+ inverse): the block-splitting injection showing any
#    two-block pattern has fewer avoiders than the single-block pattern.
#  * psi_sigma_beta: the recursive chunking injection from all-singleton
#    avoiders into single-block avoiders.
#  * lemma_induction_psi: the combinator lifting an injection family for a
#    pattern alpha to one for 1/alpha-shifted.
#  * encode/decode_14_2_3 and encode/decode_1_24_3: growth-word encodings
#    over the alphabet {a, b, c}, two settings of one codec that differ only
#    in the block the letter c extends.
#  * rgf_to_R / R_to_rgf and delta_insertion_encode: the word-level halves of
#    the chain doubleton-span < all-singletons < single-block.
#  * generate_14_23_core: the singleton-free 14/23 avoiders, built by the
#    insertion/augmentation recursion, with their cap statistic.
#  * phi_134_2 (+ inverse): the composition-times-matching decomposition of
#    134/2 avoiders.
#
#  The word listings (iter_abc_words, iter_r_words) state only their
#  alphabet rules and grow through core's odometer; the encoders build their
#  partitions through core's RGF builder, and the decoders read their
#  letters off core's to_rgf.
#
###############################################################################

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .core import (
    Composition,
    Matching,
    RGFWord,
    SetPartition,
    _growth_words,
    components,
    single_block_pattern,
    standardize,
)
from .avoidance import (
    _beta_in_block,
    _pair_witness,
    _pattern_data,
    avoids,
    contains,
    iter_avoiders,
)


class BijectionError(ValueError):
    """Base class for map precondition and membership failures."""


class PreconditionViolated(BijectionError):
    pass


class NotInW(BijectionError):
    pass


class NotInImage(BijectionError):
    pass


class LetterOutOfRange(BijectionError):
    pass


class InvalidRWord(BijectionError):
    pass


class KZero(BijectionError):
    pass


# =========================================================================
# word types
# =========================================================================

class ABCWord(str):
    """A word over {a,b,c} whose first letter is a and whose every c is
    preceded by at least two a's (the ambient word set of the growth
    encodings).  The tighter star / doublestar conditions are exposed as
    predicates, not enforced at construction."""

    def __new__(cls, text):
        text = str(text)
        if not text:
            raise NotInW("empty word")
        if any(ch not in "abc" for ch in text):
            raise NotInW(f"letters must be a, b, or c: {text!r}")
        if text[0] != "a":
            raise NotInW("word must start with a")
        a_seen = 0
        for i, ch in enumerate(text, start=1):
            if ch == "c" and a_seen < 2:
                raise NotInW(f"c at position {i} has fewer than two a's before it")
            if ch == "a":
                a_seen += 1
        return super().__new__(cls, text)

    def is_star(self):
        """No two c's have exactly one a between them."""
        cpos = [i for i, ch in enumerate(self) if ch == "c"]
        for i in range(len(cpos)):
            for j in range(i + 1, len(cpos)):
                if self[cpos[i] + 1:cpos[j]].count("a") == 1:
                    return False
        return True

    def is_doublestar(self):
        """No a between any two c's, and a c with three or more a's before
        it is never immediately followed by b."""
        cpos = [i for i, ch in enumerate(self) if ch == "c"]
        if len(cpos) >= 2 and "a" in self[cpos[0] + 1:cpos[-1]]:
            return False
        for p in cpos:
            if self[:p].count("a") >= 3 and p + 1 < len(self) and self[p + 1] == "b":
                return False
        return True


def iter_abc_words(n, star=False, doublestar=False):
    """All words of W_n, optionally only those of W_n* or W_n**, in
    lexicographic order (a < b < c), grown letter by letter (see
    core._growth_words) so that no string outside the set is built.

    After a prefix, a is always allowed, and b too, except that under
    doublestar a b may not follow a c that has three or more a's before it.
    A c needs two a's before it; under star the c before it may not sit
    exactly one a back, and under doublestar every c sits after the same
    number of a's, so no a may come between it and the c before it.
    """
    def letters(prefix):
        a = prefix.count("a")
        allowed = "a" if doublestar and prefix[-1] == "c" and a >= 3 else "ab"
        if a >= 2:
            since = None  # the a's after the last c, if there is one
            if "c" in prefix:
                since = prefix[len(prefix) - prefix[::-1].index("c"):].count("a")
            if not (star and since == 1 or doublestar and since):
                allowed += "c"
        return allowed

    for word in _growth_words(n, "a", letters):  # each one in W_n, so not checked again
        yield str.__new__(ABCWord, "".join(word))


class RWord(tuple):
    """A word over {1..k-1} with w_1 = 1 and each letter at most one more
    than the number of 1's strictly before it."""

    def __new__(cls, letters, k):
        if k < 2:
            raise PreconditionViolated("need k >= 2")
        word = []
        ones = 0
        for x in letters:
            x = int(x)
            if not 1 <= x <= k - 1:
                raise InvalidRWord(f"letter {x} at position {len(word) + 1} outside 1..{k - 1}")
            if x > ones + 1:
                raise InvalidRWord(f"letter {x} at position {len(word) + 1} exceeds 1 + prior ones")
            if x == 1:
                ones += 1
            word.append(x)
        if not word:
            raise InvalidRWord("empty word")
        obj = super().__new__(cls, word)
        obj.k = k
        return obj

    def __reduce__(self):
        # tuple's own pickling would call __new__ without k
        return (type(self), (tuple(self), self.k))

    def __str__(self):
        if max(self) <= 9:
            return "".join(str(x) for x in self)
        return ",".join(str(x) for x in self)


def iter_r_words(n, k):
    """All valid words of length n over {1..k-1} with the ones condition, in
    lexicographic order, grown letter by letter as iter_rgf_words."""
    if k < 2:
        return

    def letters(prefix):  # at most k - 1, and at most 1 + the 1's before
        return range(1, min(k - 1, prefix.count(1) + 1) + 1)

    for word in _growth_words(n, 1, letters):  # each one valid, so not checked again
        v = tuple.__new__(RWord, word)
        v.k = k
        yield v


# =========================================================================
# slide and the cascade phi_a
# =========================================================================

def _transport_block(pi, i, new_block):
    """Replace block i of pi by new_block; move everything else to the
    complement of new_block order-isomorphically."""
    n = pi.n
    old = set(pi.blocks[i - 1])
    new = sorted(new_block)
    rest_old = [x for x in range(1, n + 1) if x not in old]
    rest_new = [x for x in range(1, n + 1) if x not in set(new)]
    rank = dict(zip(rest_old, rest_new))
    out_blocks = []
    for j, b in enumerate(pi.blocks, start=1):
        out_blocks.append(new if j == i else [rank[x] for x in b])
    out = SetPartition(out_blocks, n)
    if out.blocks[i - 1] != tuple(new):
        raise BijectionError("replaced block lost its index")
    return out


def slide(pi, i, k, a):
    """Move the gray interval of block i down next to its low segment.

    The block must contain the punctured pattern at position a and avoid it
    at position a+1 (witnesses taken in [n] minus the block).  With the
    block sorted as x_1 < ... < x_s, the low segment is x_1..x_{a-1}, the
    gray interval is the next l = s-k+2 elements, and the top segment
    (possibly empty when a = k-1) is the final k-a-1 elements.  The gray
    interval becomes x_{a-1}+1 .. x_{a-1}+l; the rest of the partition is
    transported order-isomorphically.
    """
    if not 2 <= a <= k - 1:
        raise PreconditionViolated("slide needs 2 <= a <= k-1")
    if not 1 <= i <= len(pi.blocks):
        raise PreconditionViolated(f"no block {i}")
    B = pi.blocks[i - 1]
    n = pi.n
    # a block of fewer than k - 1 elements holds no punctured pattern of
    # [k], so it is refused without the block check
    if len(B) < k - 1 or not _beta_in_block(B, k, a, n):
        raise PreconditionViolated(f"block {i} does not contain the position-{a} pattern")
    if _beta_in_block(B, k, a + 1, n):
        raise PreconditionViolated(f"block {i} contains the position-{a + 1} pattern")
    s = len(B)
    ell = s - k + 2
    if not (s >= k - 1 and B[a - 1] > B[a - 2] + 1):
        raise BijectionError("block anatomy out of step with the witness checks")
    low = B[:a - 1]
    top = B[a - 1 + ell:]
    start = B[a - 2] + 1
    gray = list(range(start, start + ell))
    if top and gray[-1] >= top[0]:
        raise BijectionError("gray interval would collide with the top segment")
    return _transport_block(pi, i, [*low, *gray, *top])


def _unslide(pi, i, k, a):
    # inverse surgery: the gray interval sits right above the low segment;
    # send it back up to just below the top segment (or to the very top of
    # [n] when the top segment is empty, which is the a = k-1 case)
    B = list(pi.blocks[i - 1])
    n = pi.n
    s = len(B)
    ell = s - k + 2
    if s < k - 1 or ell < 1:
        raise PreconditionViolated("block too small to un-slide")
    low = B[:a - 1]
    gray = B[a - 1:a - 1 + ell]
    top = B[a - 1 + ell:]
    if gray != list(range(low[-1] + 1, low[-1] + 1 + ell)):
        raise PreconditionViolated("gray interval is not parked against the low segment")
    start = (top[0] - ell) if top else (n - ell + 1)
    if start <= low[-1] + 1:
        raise PreconditionViolated("no room to un-slide the gray interval")
    new_gray = list(range(start, start + ell))
    return _transport_block(pi, i, low + new_gray + top)


def phi_a(pi, k, a):
    """Left-to-right cascade of slides over the block indices.

    Maps avoiders of the position-(a+1) punctured pattern to avoiders of the
    position-a one; injective for 2 <= a <= k-1 and bijective for a < k-1.
    """
    if not 2 <= a <= k - 1:
        raise PreconditionViolated("phi_a needs 2 <= a <= k-1")
    n = pi.n
    if any(len(b) >= k - 1 and _beta_in_block(b, k, a + 1, n) for b in pi.blocks):
        raise PreconditionViolated(f"input contains the position-{a + 1} pattern")
    cur = pi
    for i in range(1, len(pi.blocks) + 1):
        b = cur.blocks[i - 1]
        if len(b) >= k - 1 and _beta_in_block(b, k, a, n):
            cur = slide(cur, i, k, a)
    for b in cur.blocks:  # re-check the image verdict
        if len(b) >= k - 1 and _beta_in_block(b, k, a, n):
            raise BijectionError("image fails to avoid the target pattern")
    return cur


def phi_a_inverse(rho, k, a):
    """Un-slide blocks in reverse index order; inverts phi_a on its image."""
    if not 2 <= a <= k - 1:
        raise PreconditionViolated("needs 2 <= a <= k-1")
    n = rho.n
    if any(len(b) >= k - 1 and _beta_in_block(b, k, a, n) for b in rho.blocks):
        raise PreconditionViolated(f"input contains the position-{a} pattern")
    cur = rho
    for i in range(len(rho.blocks), 0, -1):
        b = cur.blocks[i - 1]
        if len(b) >= k - 1 and _beta_in_block(b, k, a + 1, n):
            cur = _unslide(cur, i, k, a)
    return cur


# =========================================================================
# two-block patterns versus the single block
# =========================================================================

@lru_cache(maxsize=None)
def _two_block_data(sigma):
    """sigma's standard form, checked to have two blocks, and its run
    lengths a_1, b_1, a_2, b_2, ... scanning 1..k through A and B (tuples,
    as the result is shared by every call for sigma)."""
    sigma = _pattern_data(sigma)[0]
    if len(sigma.blocks) != 2:
        raise PreconditionViolated("pattern must have exactly two blocks")
    a_set = set(sigma.blocks[0])
    runs_a, runs_b = [], []
    pos = 1
    k = sigma.n
    while pos <= k:
        in_a = pos in a_set
        length = 0
        while pos <= k and (pos in a_set) == in_a:
            length += 1
            pos += 1
        (runs_a if in_a else runs_b).append(length)
    return sigma, tuple(runs_a), tuple(runs_b)


def two_block_varphi(pi, sigma):
    """Split every big block of pi along the interleaving pattern of sigma.

    sigma must have two blocks; pi must contain the single-block pattern of
    the same length.  Partitions already containing sigma are fixed; in any
    other partition each block C with |C| >= k is cut into a block playing
    the A part (plus the division remainder) and q blocks playing B, so the
    result contains sigma while every new block has fewer than k elements.
    """
    sigma, runs_a, runs_b = _two_block_data(sigma)
    k = sigma.n
    if avoids(pi, single_block_pattern(k)):
        raise PreconditionViolated("input must contain the single-block pattern")
    if contains(pi, sigma):
        return pi
    A, B = sigma.blocks
    m = len(B)
    out = []
    for C in pi.blocks:
        if len(C) < k:
            out.append(list(C))
            continue
        q, r = divmod(len(C) - len(A), m)
        astar = []
        skipped = []
        idx = 0
        for t, a_len in enumerate(runs_a):
            astar += C[idx:idx + a_len]
            idx += a_len
            if t < len(runs_b):
                skipped.append(C[idx:idx + q * runs_b[t]])
                idx += q * runs_b[t]
        astar += C[idx:]  # the last r elements
        parts = [[] for _ in range(q)]
        for b_len, group in zip(runs_b, skipped):
            for u in range(q):
                parts[u] += group[u * b_len:(u + 1) * b_len]
        out.append(astar)
        out.extend(parts)
    return SetPartition(out, pi.n)


def two_block_varphi_inverse(rho, sigma):
    """Coalesce block pairs that realize sigma; inverts two_block_varphi.

    rho must contain sigma.  A partition with a block of k elements is a
    fixed point, and the containment search checks that.  Otherwise the
    pairs of blocks that realize sigma are exactly what the precondition
    asks for: an occurrence of sigma, which has two blocks, lies in two
    blocks of rho, so rho contains sigma iff some pair does.  A pair
    realizes sigma = A/B iff, in one of its two orders (x, y), x holds at
    least |A| elements, y at least |B|, and the greedy scan of sigma's
    block word over x and y succeeds (avoidance._pair_witness, the scan
    containment_witness runs over the pairs of a whole partition)."""
    sigma = _two_block_data(sigma)[0]
    k = sigma.n
    if contains(rho, single_block_pattern(k)):
        if avoids(rho, sigma):
            raise PreconditionViolated("input must contain the two-block pattern")
        return rho  # the fixed-point case
    blocks = rho.blocks
    a, b = map(len, sigma.blocks)
    word = _pattern_data(sigma)[2][1:]

    def realizes(x, y):
        return len(x) >= a and len(y) >= b and _pair_witness(x, y, word) is not None

    pairs = [(i, j) for i, j in combinations(range(len(blocks)), 2)
             if realizes(blocks[i], blocks[j]) or realizes(blocks[j], blocks[i])]
    if not pairs:
        raise PreconditionViolated("input must contain the two-block pattern")
    merged = components(range(len(blocks)), pairs)
    return SetPartition([[x for i in c for x in blocks[i]] for c in merged], rho.n)


def two_block_gamma(sigma, n):
    """The witness partition A / B+{k+1} / singletons that the splitting map
    never produces (meaningful when |B|+1 < k)."""
    sigma = _two_block_data(sigma)[0]
    A, B = sigma.blocks
    k = sigma.n
    if n <= k:
        raise PreconditionViolated("need n > k")
    blocks = [list(A), list(B) + [k + 1]] + [[x] for x in range(k + 2, n + 1)]
    return SetPartition(blocks, n)


# =========================================================================
# all-singletons versus the single block
# =========================================================================

def psi_sigma_beta(pi, k):
    """Chunk the first block into runs of k-1 and recurse on the rest.

    Injects avoiders of the k-singletons pattern into avoiders of the
    single-block pattern of length k.  The recursion runs as a loop over
    the blocks: the rest is order-isomorphic to its standard form and the
    chunks depend only on block sizes and order, so block t is chunked in
    its own labels into runs of k-1-t, and at run length 1 (pattern length
    2) what is left becomes singletons.
    """
    if k < 2:
        raise PreconditionViolated("need k >= 2")
    if len(pi.blocks) >= k:
        raise PreconditionViolated("input must have fewer than k blocks")
    out = []
    for b, chunk in zip(pi.blocks, range(k - 1, 1, -1)):
        r = len(b) % chunk
        if r:
            out.append(b[:r])
        out += [b[i:i + chunk] for i in range(r, len(b), chunk)]
    out += [[x] for b in pi.blocks[k - 2:] for x in b]
    return SetPartition(out, pi.n)


def has_forbidden_pair(pi, k):
    """True when the partition literally has the blocks {1,3} and
    {2,4,5,..,k+1}.  No psi image does: the size-(k-1) block would have to
    be a chunk of the preimage's first block and the block holding 1 also
    sits inside that first block, but then the chunks of the first block
    would fail to be consecutive."""
    bl = set(pi.blocks)
    return (1, 3) in bl and tuple([2] + list(range(4, k + 2))) in bl


def lemma_induction_psi(pi, alpha, family):
    """Keep the first block; push the rest through the injection family.

    alpha is a pattern of [k-1]; family(m) must return an injection from
    avoiders of alpha to avoiders of the (k-1)-singletons pattern on [m],
    for every m > k-1.  The input must avoid 1/alpha', where alpha' is
    alpha with every value shifted up by one.  When the elements outside
    the first block number at most k-1 the map is the identity, except
    that a tail of exactly k-1 singletons is replaced by a copy of alpha.
    """
    k = alpha.n + 1
    shifted = SetPartition(
        [[1]] + [[x + 1 for x in b] for b in alpha.blocks], k)
    if contains(pi, shifted):
        raise PreconditionViolated("input contains the lifted pattern")
    first = pi.blocks[0]
    rest = pi.blocks[1:]
    t = pi.n - len(first)
    if t > k - 1:
        tail_elems = sorted(x for b in rest for x in b)
        mapped = family(t)(standardize(rest))
        out = [list(first)] + [[tail_elems[e - 1] for e in b] for b in mapped.blocks]
        return SetPartition(out, pi.n)
    if t == k - 1 and rest and all(len(b) == 1 for b in rest):
        tail_elems = sorted(x for b in rest for x in b)
        copy = [[tail_elems[e - 1] for e in b] for b in alpha.blocks]
        return SetPartition([list(first)] + copy, pi.n)
    return pi


def lex_rank_family(alpha, target):
    """Order-preserving injections Pi_m(alpha) -> Pi_m(target) by position
    in the generation order; usable wherever |Pi_m(alpha)| <= |Pi_m(target)|."""
    def family(m):
        src = list(iter_avoiders(m, alpha))
        dst = list(iter_avoiders(m, target))
        if len(src) > len(dst):
            raise ValueError(f"no room for an injection at m={m}")
        table = dict(zip(src, dst))
        return lambda p: table[p]
    return family


# =========================================================================
# growth-word encodings for 14/2/3 and 1/24/3
# =========================================================================

def _encode_growth(w, c_block):
    """a: open a singleton; b: extend the last block; c: extend the block
    of index c_block among those opened so far."""
    if not isinstance(w, ABCWord):  # an ABCWord was checked when it was built
        w = ABCWord(w)
    word = []
    opened = 0
    for ch in w:
        if ch == "a":
            opened += 1
            word.append(opened)
        else:
            word.append(opened if ch == "b" else c_block % opened + 1)
    return SetPartition._from_word(word)


def _decode_growth(pi, c_block):
    """Read off from pi's RGF word which rule placed each element."""
    letters = []
    opened = 0
    # the empty partition has no RGF word, and ABCWord refuses the empty one
    for i, home in enumerate(pi.to_rgf() if pi.n else (), start=1):
        if home > opened:
            letters.append("a")
            opened = home
        elif home == opened:
            letters.append("b")
        elif home == c_block % opened + 1:
            letters.append("c")
        else:
            raise NotInImage(f"element {i} extends neither the last block "
                             "nor the one c extends")
    return ABCWord("".join(letters))


def encode_14_2_3(w):
    """c extends the second-to-rightmost block."""
    return _encode_growth(w, -2)


def decode_14_2_3(pi):
    return _decode_growth(pi, -2)


def encode_1_24_3(w):
    """c extends the first block."""
    return _encode_growth(w, 0)


def decode_1_24_3(pi):
    return _decode_growth(pi, 0)


# =========================================================================
# RGF words with bounded letters versus the ones-bounded words
# =========================================================================

def rgf_to_R(w, k):
    """First-occurrence decomposition: each first occurrence becomes a 1 and
    the subword after it is shifted up by one, except that when all of
    1..k-1 occur the final subword is left alone."""
    if not isinstance(w, RGFWord):  # an RGFWord was checked when it was built
        w = RGFWord(w)
    if max(w) > k - 1:
        raise LetterOutOfRange(f"letters must stay below {k}")
    m = max(w)
    firsts = {}
    for i, x in enumerate(w):
        if x not in firsts:
            firsts[x] = i
    cuts = [firsts[v] for v in range(1, m + 1)] + [len(w)]
    out = []
    for v in range(1, m + 1):
        seg = w[cuts[v - 1] + 1:cuts[v]]
        out.append(1)
        if v == m == k - 1:
            out.extend(seg)
        else:
            out.extend(x + 1 for x in seg)
    return RWord(out, k)


def R_to_rgf(v, k=None):
    """Split on the leading ones and shift the segments back down."""
    if k is None:
        k = v.k
    if not (isinstance(v, RWord) and v.k == k):  # an RWord was checked when it was built
        v = RWord(v, k)
    ones = [i for i, x in enumerate(v) if x == 1]
    m = min(len(ones), k - 1)
    cuts = ones[:m] + [len(v)]
    out = []
    for s in range(m):
        seg = v[cuts[s] + 1:cuts[s + 1]]
        out.append(s + 1)
        if s + 1 == m == k - 1:
            out.extend(seg)
        else:
            out.extend(x - 1 for x in seg)
    return RGFWord(out)


def delta_insertion_encode(pi, k):
    """Encode each step of the growth of pi by which of the k-2 rightmost
    blocks received the new element (or 1 for a new singleton): from the RGF
    word, an element of block t with m blocks open before it gets m - t + 2.

    Defined exactly on the partitions buildable under that insertion rule;
    every avoider of the spanning-doubleton pattern 1k/2/../(k-1) is.
    """
    if k < 3:
        raise PreconditionViolated("need k >= 3")
    letters = []
    opened = 0
    # the empty partition has no RGF word, and RWord refuses the empty one
    for i, t in enumerate(pi.to_rgf() if pi.n else (), start=1):
        if t > opened:
            letters.append(1)
            opened = t
            continue
        letter = opened - t + 2
        if letter > k - 1:
            raise PreconditionViolated(
                f"element {i} lands {opened - t} blocks from the right; "
                f"only {k - 2} rightmost blocks are reachable")
        letters.append(letter)
    return RWord(letters, k)


def delta_nonsurjectivity_witness(n, k):
    """The partition 1(k-1)/2(k+1)/3/../(k-2)/k/(k+2)/../n, which is not a
    spanning-doubleton avoider yet encodes to a word no avoider reaches."""
    if not (n > k >= 4):
        raise ValueError("need n > k >= 4")
    blocks = [[1, k - 1], [2, k + 1]]
    blocks += [[x] for x in range(3, k - 1)]
    blocks += [[k]]
    blocks += [[x] for x in range(k + 2, n + 1)]
    return SetPartition(blocks, n)


# =========================================================================
# the singleton-free 14/23 core
# =========================================================================

class CappedCore(namedtuple("CappedCore", "partition caps")):
    """A singleton-free 14/23 avoider (partition) with its cap count (caps)."""

    __slots__ = ()


def caps_of(pi):
    """The set of caps: k such that every i >= k is its block's maximum."""
    maxima = {b[-1] for b in pi.blocks}
    out = []
    i = pi.n
    while i >= 1 and i in maxima:
        out.append(i)
        i -= 1
    return set(out)


def generate_14_23_core(n):
    """All of the core at size n, via the insertion/augmentation recursion:
    insert n into the block of n-1, or increment at a cap (or at n-1) and
    append a doubleton."""
    if n < 2:
        raise ValueError("need n >= 2")
    levels = {2: {SetPartition([[1, 2]], 2)}}
    for m in range(3, n + 1):
        cur = set()
        for p in levels[m - 1]:
            blocks = [list(b) for b in p.blocks]
            for b in blocks:
                if b[-1] == m - 1:
                    b.append(m)
                    break
            cur.add(SetPartition(blocks, m))
        if m >= 4:
            for p in levels[m - 2]:
                for cap in sorted(caps_of(p) | {m - 1}):
                    blocks = [[x + 1 if x >= cap else x for x in b] for b in p.blocks]
                    blocks.append([cap, m])
                    cur.add(SetPartition(blocks, m))
        levels[m] = cur
    return {CappedCore(p, len(caps_of(p))) for p in levels[n]}


# =========================================================================
# the 134/2 decomposition
# =========================================================================

def phi_134_2(pi):
    """Split a 134/2 avoider into the run-length composition of its
    non-singleton blocks and the standardized min/max skeleton."""
    non_singles = [b for b in pi.blocks if len(b) >= 2]
    if not non_singles:
        raise KZero("no non-singleton blocks")
    for b in non_singles:
        body = b[:-1]
        if any(body[i + 1] != body[i] + 1 for i in range(len(body) - 1)):
            raise PreconditionViolated(
                f"block {set(b)} is not a run plus a detached maximum")
    lam = Composition(len(b) - 2 for b in non_singles)
    skeleton = [[b[0], b[-1]] for b in non_singles]
    skeleton += [[b[0]] for b in pi.blocks if len(b) == 1]
    std = standardize(skeleton)
    return lam, Matching(std.blocks, std.n)


def phi_134_2_inverse(lam, skeleton):
    """Rebuild the avoider: the j-th doubleton of the skeleton grows back
    its interior run of lam[j] consecutive elements."""
    doubles = [b for b in skeleton.blocks if len(b) == 2]
    if len(lam) != len(doubles):
        raise PreconditionViolated("composition length must match doubleton count")
    run_of = {b[0]: lam[j] for j, b in enumerate(doubles)}
    value = {}
    nxt = 1
    for p in range(1, skeleton.n + 1):
        value[p] = nxt
        nxt += 1 + run_of.get(p, 0)
    blocks = []
    for b in skeleton.blocks:
        if len(b) == 1:
            blocks.append([value[b[0]]])
        else:
            lo, hi = b
            blocks.append(list(range(value[lo], value[lo] + run_of[lo] + 1)) + [value[hi]])
    return SetPartition(blocks, nxt - 1)


__all__ = [
    "ABCWord",
    "BijectionError",
    "CappedCore",
    "InvalidRWord",
    "KZero",
    "LetterOutOfRange",
    "NotInImage",
    "NotInW",
    "PreconditionViolated",
    "RWord",
    "caps_of",
    "decode_14_2_3",
    "decode_1_24_3",
    "delta_insertion_encode",
    "delta_nonsurjectivity_witness",
    "encode_14_2_3",
    "encode_1_24_3",
    "generate_14_23_core",
    "has_forbidden_pair",
    "iter_abc_words",
    "iter_r_words",
    "lemma_induction_psi",
    "lex_rank_family",
    "phi_134_2",
    "phi_134_2_inverse",
    "phi_a",
    "phi_a_inverse",
    "psi_sigma_beta",
    "rgf_to_R",
    "R_to_rgf",
    "slide",
    "two_block_gamma",
    "two_block_varphi",
    "two_block_varphi_inverse",
]
