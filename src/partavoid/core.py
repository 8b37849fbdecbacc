###############################################################################
#
#  Set partitions of [n] = {1, ..., n} in standard form, the correspondence
#  with restricted growth functions, the exhaustive generator of partitions
#  (the patterns of [k] for the tables, a verify corpus, the tests' naive
#  filters), and the Matching and Composition types that the 134/2
#  decomposition returns.
#
#  Standard form: blocks sorted by minimum element, elements ascending inside
#  each block.  Text format: "1 3/2 5 6/4", or compact "13/25/4" when every
#  element is a single digit.
#
#  The growth encoding (element i goes to block number a_i) lives here
#  alone: one odometer, _growth_words, grows words letter by letter under an
#  alphabet rule given as a function of the prefix (the RGF words state
#  theirs here, the R-words and the abc words theirs in bijections); one
#  builder, SetPartition._from_word, turns a word into its partition in
#  standard form without a sort; one step, SetPartition._grown, adds the
#  next element to a prefix's blocks for a walk that keeps blocks instead
#  of a word (the avoider listing); one reader, to_rgf, turns a partition
#  back into its word; and RGFWord is the one check of the growth rule.
#
###############################################################################

from functools import lru_cache


class PartitionError(ValueError):
    """Base class for malformed partition input."""


class OverlappingBlocks(PartitionError):
    pass


class NotACover(PartitionError):
    pass


class EmptyBlock(PartitionError):
    pass


class InvalidRGF(PartitionError):
    pass


# =========================================================================
# SetPartition
# =========================================================================

class SetPartition:
    """A set partition of [n], kept in standard form.

    Immutable; equality is structural (same n, same blocks), and the hash
    is the blocks'.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, blocks, n=None):
        # assumes blocks are disjoint nonempty sets of 1..n; use from_blocks
        # for fully validated construction.  Disjoint blocks differ in their
        # first elements, so sorting the tuples orders them by minimum.
        bs = tuple(sorted([tuple(sorted(b)) for b in blocks]))
        object.__setattr__(self, "blocks", bs)
        if n is None:
            n = sum(len(b) for b in bs)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since the default
        # slot-by-slot restore would go through __setattr__
        return (type(self), (self.blocks, self.n))

    @classmethod
    def _standard(cls, blocks, n):
        """The partition whose blocks are already in standard form: a tuple
        of ascending tuples, ordered by minimum.  Nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def _from_word(cls, word):
        """The partition with element i in block word[i-1], for a word that
        keeps the growth rule.  Nothing is checked and nothing is sorted: the
        rule opens the blocks in order of their minima, and each element is
        appended after the smaller ones."""
        blocks = []
        for x, a in enumerate(word, start=1):
            if a > len(blocks):
                blocks.append([x])
            else:
                blocks[a - 1].append(x)
        return cls._standard(tuple(map(tuple, blocks)), len(word))

    @staticmethod
    def _grown(blocks, b, x):
        """Standard-form blocks with x, larger than every element of them,
        added to block b, or opening a new block when b == len(blocks): the
        growth rule's one step.  The other blocks are shared, not copied."""
        if b == len(blocks):
            return (*blocks, (x,))
        out = list(blocks)
        out[b] += (x,)
        return tuple(out)

    @classmethod
    def from_blocks(cls, blocks, n):
        """Validated constructor: blocks must partition {1..n} exactly."""
        _, seen = _disjoint_blocks(blocks)
        if len(seen) != n or seen != set(range(1, n + 1)):
            raise NotACover(f"blocks cover {sorted(seen)}, expected 1..{n}")
        return cls(blocks, n)

    @classmethod
    def from_rgf(cls, letters):
        """Build the partition with i in block number letters[i-1]."""
        if not isinstance(letters, RGFWord):  # an RGFWord was checked when it was built
            letters = RGFWord(letters)
        return cls._from_word(letters)

    @classmethod
    def parse(cls, text):
        """Parse "1 3/2 5 6/4" or compact "13/25/4" (single-digit elements)."""
        text = text.strip()
        if not text:
            raise PartitionError("empty partition text")
        chunks = [c.strip() for c in text.split("/")]
        if any(not c for c in chunks):
            raise EmptyBlock("empty block in text")
        if any(" " in c for c in chunks):
            blocks = [[int(tok) for tok in c.split()] for c in chunks]
        elif all(c.isdigit() for c in chunks):
            blocks = [[int(ch) for ch in c] for c in chunks]
            try:
                return cls.from_blocks(blocks, max(max(b) for b in blocks))
            except PartitionError:
                # all-singleton partitions of n >= 10 have no spaces to
                # signal the spaced form; retry with whole-number chunks
                blocks = [[int(c)] for c in chunks]
        else:
            raise PartitionError(f"cannot read partition text {text!r}")
        n = max(max(b) for b in blocks)
        return cls.from_blocks(blocks, n)

    def to_rgf(self):
        """The RGF word: the letter of element x is the number of its block.
        The blocks are in standard form, so it keeps the growth rule."""
        if not self.n:
            raise InvalidRGF("empty word")
        letters = [0] * self.n
        for j, b in enumerate(self.blocks, start=1):
            for x in b:
                letters[x - 1] = j
        return tuple.__new__(RGFWord, letters)

    def complement(self):
        """Replace each element x by n+1-x; an involution on partitions of [n]."""
        m = self.n + 1
        return SetPartition([[m - x for x in b] for b in self.blocks], self.n)

    def restrict(self, subset):
        """Blocks of the restriction to subset (empty intersections dropped)."""
        s = set(subset)
        return [[x for x in b if x in s] for b in self.blocks if s & set(b)]

    def block_of(self, x):
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def singletons(self):
        return [b[0] for b in self.blocks if len(b) == 1]

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash(self.blocks)  # equal partitions have equal blocks

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __str__(self):
        if self.n <= 9:
            return "/".join("".join(str(x) for x in b) for b in self.blocks)
        return "/".join(" ".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self):
        return f"SetPartition({self})"


def _disjoint_blocks(blocks):
    """The blocks as sets, and their union; raises EmptyBlock or
    OverlappingBlocks unless they are nonempty, pairwise disjoint and
    without an element repeated inside one of them."""
    seen = set()
    sets = []
    for block in blocks:
        block = tuple(block)
        b = set(block)
        if not b:
            raise EmptyBlock("empty block")
        if len(b) < len(block):
            repeated = sorted(x for x in b if block.count(x) > 1)
            raise OverlappingBlocks(f"elements repeated within a block: {repeated}")
        if seen & b:
            raise OverlappingBlocks(f"elements repeated across blocks: {sorted(seen & b)}")
        seen |= b
        sets.append(b)
    return sets, seen


def standardize(blocks):
    """Order-isomorphic relabeling of disjoint blocks onto {1..size}.

    The input may use arbitrary positive integers; {{2,5},{3}} becomes 13/2.
    """
    cleaned, seen = _disjoint_blocks(blocks)
    rank = {x: i for i, x in enumerate(sorted(seen), start=1)}
    return SetPartition([[rank[x] for x in b] for b in cleaned], len(seen))


def components(items, pairs):
    """The connected components of the graph on items whose edges are
    pairs, by union-find; each component keeps the order of items, and
    the components come in the order of their first members."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    comps = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


# =========================================================================
# RGF words
# =========================================================================

class RGFWord(tuple):
    """A restricted growth function: a_1 = 1 and a_i <= 1 + max(prefix).
    The letters are integers or digits, so RGFWord("12211") reads text."""

    def __new__(cls, letters):
        word = []
        mx = 0
        for a in letters:
            try:
                a = int(a)
            except ValueError:
                raise InvalidRGF(
                    f"letter {a!r} at position {len(word) + 1} is not a number") from None
            if a < 1 or a > mx + 1:
                raise InvalidRGF(f"letter {a} at position {len(word) + 1} breaks the growth rule")
            if a > mx:
                mx = a
            word.append(a)
        if not word:
            raise InvalidRGF("empty word")
        return super().__new__(cls, word)

    def __str__(self):
        if max(self) <= 9:
            return "".join(str(a) for a in self)
        return ",".join(str(a) for a in self)

    def __repr__(self):
        return f"RGFWord({self})"


def _growth_words(n, first, letters):
    """The words of length n that start with first and whose every later
    letter is one of letters(prefix), the letters allowed after its prefix,
    in lexicographic order by the order letters lists them, as one list
    that changes in place between yields.

    An odometer over the word: each position keeps the letters its prefix
    allows it and it has not taken yet.  The last position with one left
    takes the next, and every position after it restarts at first, which
    every allowed prefix must allow and list first.  So letters is called
    once per prefix, no word outside the set is built, and no recursion
    limit bounds n.
    """
    if n < 1:
        return
    word = [first] * n
    left = [iter(())] * n  # left[i]: the letters position i has still to take
    i = 1
    while True:
        for j in range(i, n):
            word[j] = first
            left[j] = iter(letters(word[:j])[1:])
        yield word
        i = n - 1
        while i and (letter := next(left[i], None)) is None:
            i -= 1
        if not i:
            return
        word[i] = letter
        i += 1


def iter_rgf_words(n, max_letter=None):
    """All RGF words of length n in lexicographic order, optionally with
    letters at most max_letter."""
    cap = n if max_letter is None else max_letter
    if cap < 1:
        return

    def letters(prefix):  # at most cap, and at most 1 + the largest before
        return range(1, min(cap, max(prefix) + 1) + 1)

    for word in _growth_words(n, 1, letters):
        yield tuple.__new__(RGFWord, word)


def iter_partitions(n):
    """Every partition of [n] exactly once, in lexicographic RGF order."""
    for word in iter_rgf_words(n):
        yield SetPartition._from_word(word)


# =========================================================================
# Matchings (blocks of size <= 2) and weak compositions
# =========================================================================

class Matching(SetPartition):
    """A partition whose blocks are singletons and doubletons."""

    __slots__ = ()

    def __init__(self, blocks, n=None):
        super().__init__(blocks, n)
        if any(len(b) > 2 for b in self.blocks):
            raise PartitionError("matching blocks must have size 1 or 2")

    @classmethod
    def _standard(cls, blocks, n):
        return cls(blocks, n)  # so that from_rgf checks the block sizes too


def m_counts(n):
    """The numbers of matchings of [0], ..., [n] (any number of fixed
    points), by m(i) = m(i-1) + (i-1) m(i-2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = [1, 1]
    for i in range(2, n + 1):
        m.append(m[-1] + (i - 1) * m[-2])
    return m[:n + 1]


class Composition(tuple):
    """A weak composition: ordered nonnegative parts with a fixed count."""

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be nonnegative")
        return super().__new__(cls, parts)


# =========================================================================
# Named pattern families
# =========================================================================

@lru_cache(maxsize=None)
def single_block_pattern(k):
    """The partition of [k] with one block, one shared object per k
    (SetPartition is immutable), so callers need not hoist it."""
    return SetPartition([range(1, k + 1)], k)


@lru_cache(maxsize=None)
def singletons_pattern(k):
    """The partition of [k] into k singletons, one shared object per k."""
    return SetPartition([[x] for x in range(1, k + 1)], k)


@lru_cache(maxsize=None)
def punctured_block_pattern(k, a):
    """1..(a-1)(a+1)..k / a: one block missing the point a, plus {a}; one
    shared object per (k, a)."""
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    if k < 2:
        raise ValueError("need k >= 2")
    return SetPartition([[x for x in range(1, k + 1) if x != a], [a]], k)


def spanning_doubleton_pattern(k):
    """1k/2/3/../(k-1): the doubleton {1,k} plus singletons."""
    if k < 3:
        raise ValueError("need k >= 3")
    return SetPartition([[1, k]] + [[x] for x in range(2, k)], k)


# =========================================================================
# Small exact counting helpers
# =========================================================================

@lru_cache(maxsize=None)
def stirling2(n, k):
    """S(n, k), by S(i, j) = j S(i-1, j) + S(i-1, j-1) run bottom-up over the
    rows i = 1..n, keeping the columns j = 0..k."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    row = [1] + [0] * k  # row 0
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def double_factorial(m):
    """m!! in the standard sense: 6!! = 48, 5!! = 15, 0!! = (-1)!! = 1."""
    if m < -1:
        raise ValueError("undefined")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def perfect_matchings(two_k):
    """Number of perfect matchings of [2k]: the odd double factorial
    1*3*...*(2k-1)."""
    if two_k % 2:
        return 0
    return double_factorial(two_k - 1)


__all__ = [
    "PartitionError",
    "OverlappingBlocks",
    "NotACover",
    "EmptyBlock",
    "InvalidRGF",
    "SetPartition",
    "RGFWord",
    "Matching",
    "Composition",
    "standardize",
    "components",
    "iter_rgf_words",
    "iter_partitions",
    "m_counts",
    "stirling2",
    "bell",
    "double_factorial",
    "perfect_matchings",
    "single_block_pattern",
    "singletons_pattern",
    "punctured_block_pattern",
    "spanning_doubleton_pattern",
]
