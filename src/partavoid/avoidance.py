###############################################################################
#
#  Containment and avoidance in Klazar's sense: sigma contains tau when some
#  subset S of the ground set restricts-and-standardizes to tau.  This module
#  has the point query, which answers three shapes of tau from its blocks
#  (one block, all singletons, two blocks: a greedy scan of block pairs) and
#  runs the pruned containment search for the rest, a deliberately naive
#  all-subsets checker kept as the test oracle, RGF-word containment for
#  contrast, the block-level criterion for the patterns 1..(a-1)(a+1)..k/a,
#  and the exact count and listing of the avoiders of a pattern.  Both grow
#  partitions one element at a time in RGF order, and neither searches a
#  prefix from scratch: each prefix carries its set of partial embeddings of
#  the pattern (a map from pattern blocks to host blocks, with the number of
#  pattern elements placed), which one transition updates as each element is
#  added.  Later elements exceed the whole prefix, so positions never matter
#  and a prefix's future depends on its embeddings alone.  So the count
#  (avoider_counts) goes level by level and merges the prefixes that have
#  the same embeddings up to a renaming of host blocks, while the listing
#  (iter_avoiders) walks every prefix, cut at the first containment, and
#  is the oracle the count is tested against.  The listing keeps each
#  pending prefix's blocks, grows a child's with core's one growth step
#  (copying only the block it extends), makes each avoider from its
#  blocks without a sort, and places the last element by the dead blocks
#  of the states one element short, as the count does.  The count keeps
#  each key's moves in a move table that serves every level but the last:
#  keys leave out the empty embedding, so a move made at need <= 1 serves
#  every such level, and from need 2 on a reused move has each child cut
#  to the level's need; on the last level an unshut child skips its
#  rebuild.  The block criterion runs one gap loop, which callers holding
#  blocks in standard form call without the sort.  What these and
#  bijections' two-block maps read of a pattern (its blocks, word and runs)
#  is computed once, in one cached record per pattern (_pattern_data).
#
###############################################################################

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, groupby

from .core import SetPartition, standardize


# =========================================================================
# containment
# =========================================================================

_Pattern = namedtuple("_Pattern", "tau k pb opens end word runs")


@lru_cache(maxsize=None)
def _pattern_data(tau):
    """The facts about tau that the searches and the block maps read, as a
    record computed once per pattern (tuples, as it is shared by every call
    for tau): tau's standard form and size k; pb, the block index of each
    pattern element 1..k (pb[0] is 0); opens, for each element the size of
    its block if it is that block's least element, else 0; end, the last
    element of each block; word, pb[1:], the 0-based block word; and runs,
    the lengths of the maximal runs of equal letters in word."""
    tau = standardize(tau.blocks)
    k = tau.n
    pb = [0] * (k + 1)
    opens = [0] * (k + 1)
    for ti, b in enumerate(tau.blocks):
        opens[b[0]] = len(b)
        for e in b:
            pb[e] = ti
    word = tuple(pb[1:])
    return _Pattern(tau, k, tuple(pb), tuple(opens), tuple(b[-1] for b in tau.blocks), word,
                    tuple(len(list(g)) for _, g in groupby(word)))


def _pair_witness(x, y, word):
    """The witness of a two-block pattern in the host blocks x and y, or
    None.  word gives the pattern block of each element 1..k, 0 for the
    block of 1 (played by x) and 1 for the other (played by y); each element
    takes the least element of its host block above the last choice, which
    finds an embedding whenever one exists with that block map."""
    rest = (iter(x), iter(y))  # each block is read once, as choices only rise
    low = 0
    out = []
    for t in word:
        for v in rest[t]:
            if v > low:
                break
        else:
            return None
        out.append(v)
        low = v
    return tuple(out)


def containment_witness(sigma, tau):
    """A subset S with standardize(sigma|S) = tau, or None.

    Pattern elements 1..k are matched to increasing elements of sigma by
    depth-first search, maintaining the partial correspondence between
    pattern blocks and sigma blocks; branches that cannot reach k elements,
    that would merge two pattern blocks or that open a pattern block on a
    smaller sigma block are cut.  Each pattern element tries only the least
    element above the last choice in each sigma block it may take: with the
    block map fixed, every completion after a larger element of that block
    is also one after the least, so the larger ones can only fail where the
    least failed.  The search keeps one list of untried choices per pattern
    element on an explicit stack, first choice last, so it tries them in
    the order of a recursive search, finds the same first witness, and no
    recursion limit bounds k.

    Three shapes are answered from tau's blocks, each with the witness the
    search would find first, so the search runs only for three or more
    blocks.  Two come before tau's standard form is looked up, as neither
    depends on its labels: one block (beta_k, k its size) and all
    singletons (sigma_k).  Blocks within [tau.n] number tau.n only when all
    are singletons, so that is the test for sigma_k; an all-singleton tau
    with a larger tau.n is answered after the lookup.  The third, two
    blocks A/B with 1 in A, comes after it: tau lies in sigma iff some
    ordered pair (x, y) of distinct sigma blocks with |x| >= |A| and
    |y| >= |B| takes tau's block word greedily (_pair_witness).  The search
    branches only where A and B open, on x and then y in block order, and
    its least-element rule is that greed, so scanning the pairs with x
    outer returns its first witness.
    """
    blocks = sigma.blocks
    r = len(tau.blocks)
    if r == 1:  # beta_k: the first block with k elements
        k = len(tau.blocks[0])
        for b in blocks:
            if len(b) >= k:
                return b[:k]
        return None
    if tau.n == r:  # sigma_k (the empty pattern too): the first k blocks' minima
        return tuple([b[0] for b in blocks[:r]]) if r <= len(blocks) else None
    tau, k, pb, opens, _, word, _ = _pattern_data(tau)
    n = sigma.n
    if k > n or r > len(blocks):
        return None
    if r == k:  # sigma_k, with tau.n past k
        return tuple(b[0] for b in blocks[:k])
    if r == 2:
        a, b = map(len, tau.blocks)
        for i, x in enumerate(blocks):
            if len(x) >= a:
                for j, y in enumerate(blocks):
                    if j != i and len(y) >= b and (w := _pair_witness(x, y, word)):
                        return w
        return None
    bound = [0] * len(tau.blocks)  # the sigma block of each opened pattern block
    choice = [0] * (k + 1)
    untried = [None] * (k + 1)  # (x, sigma block of x), popped from the end
    used = [0] * (k + 1)  # the mask of sigma blocks taken before element e
    e = 1
    low = mask = 0
    while True:
        hi = n - (k - e)  # leave room for the remaining pattern elements
        size = opens[e]
        level = []
        for j in (range(len(blocks)) if size else (bound[pb[e]],)):
            if size and (mask >> j & 1 or len(blocks[j]) < size):
                continue
            for x in blocks[j]:
                if x > low:
                    if x <= hi:
                        level.append((x, j))
                    break
        level.reverse()
        untried[e] = level
        used[e] = mask
        while not untried[e]:
            e -= 1
            if not e:
                return None
        low, j = untried[e].pop()
        choice[e] = low
        mask = used[e] | 1 << j
        bound[pb[e]] = j
        if e == k:
            return tuple(choice[1:])
        e += 1


def contains(sigma, tau):
    """True iff sigma contains tau as a Klazar pattern."""
    return containment_witness(sigma, tau) is not None


def avoids(sigma, tau):
    return containment_witness(sigma, tau) is None


def contains_bruteforce(sigma, tau):
    """All-subsets containment check; the slow oracle the fast one is tested against."""
    tau = standardize(tau.blocks)
    k = tau.n
    if k > sigma.n:
        return False
    for S in combinations(range(1, sigma.n + 1), k):
        if standardize(sigma.restrict(S)) == tau:
            return True
    return False


def rgf_contains(a, b):
    """Word containment: some subsequence of a standardizes to b.

    This is the RGF notion of avoidance, provided for contrast; it does not
    coincide with the subset-based notion (12211 avoids 1122 even though
    145/23 contains 12/34).  The search tries positions left to right for
    each pattern letter on an explicit stack, so no recursion limit bounds
    the length of b.
    """
    a = tuple(a)
    b = tuple(b)
    k = len(b)
    n = len(a)
    if k > n:
        return False
    mapping = {}  # pattern letter -> word letter, order-preserving
    inverse = {}
    nxt = [0]  # nxt[j]: the next position of a that pattern letter j tries
    fresh = []  # for each placed letter: the pattern letter it mapped, or None
    while nxt:
        j = len(nxt) - 1
        if j == k:
            return True
        p = nxt[j]
        if p > n - (k - j):  # no room left for the letters after j: back up
            nxt.pop()
            if fresh and (v := fresh.pop()) is not None:
                del inverse[mapping.pop(v)]
            continue
        nxt[j] = p + 1
        v, x = b[j], a[p]
        if v in mapping:
            if mapping[v] != x:
                continue
            fresh.append(None)
        else:
            if x in inverse or any((v2 < v) != (x2 < x) for v2, x2 in mapping.items()):
                continue
            mapping[v] = x
            inverse[x] = v
            fresh.append(v)
        nxt.append(p + 1)
    return False


# =========================================================================
# block-level criterion for beta_{k,a} = 1..(a-1)(a+1)..k/a
# =========================================================================

def _beta_in_block(xs, k, a, n=None):
    """The criterion of block_contains_beta for an ascending sequence xs and
    1 <= a <= k; nothing is checked, so callers with blocks in standard
    form skip the sort."""
    s = len(xs)
    if s < k - 1:
        return False
    if n is not None and (a == 1 and xs[0] > 1 or a == k and xs[-1] < n):
        return True
    # i elements below the gap after xs[i-1], s-i above
    for i in range(max(a - 1, 1), min(s - k + a, s - 1) + 1):
        if xs[i] > xs[i - 1] + 1:
            return True
    return False


def block_contains_beta(block, k, a, n=None):
    """True iff some integer c in a gap of the block witnesses beta_{k,a}.

    The witness condition is a-1 <= #{x in block : x < c} together with
    k-a <= #{x in block : x > c}, for some c not in the block.  Without n,
    c must lie strictly between min(block) and max(block); with the ground
    set [n], c ranges over all of [n] minus the block.
    """
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    return _beta_in_block(sorted(block), k, a, n)


# =========================================================================
# counting and listing the avoiders over the RGF prefix tree
# =========================================================================

def _placer(p):
    """The transition shared by the count and the listing, for the pattern
    with record p (_pattern_data).

    A prefix carries the partial embeddings of the pattern into it as a dict
    m -> j: m gives the host block of each pattern block 0..r-1 in RGF order,
    and j is the largest number of pattern elements 1..j placed with that
    map.  Every later host element exceeds the whole prefix, so positions
    never matter and, for a fixed m, a larger j dominates a smaller one.
    Adding an element to host block bi extends (m, j) when the pattern block
    t of element j+1 is already mapped to bi, or is new and bi is not yet in
    m (giving m + (bi,)).  Once all r pattern blocks are mapped, the host
    block of each closed pattern block (all its elements <= j) is masked to
    -1: it is never compared again, so maps that differ only there are one
    state.  The returned place(states, bi, need) gives the child's states,
    keeping those with j >= need, or None when j reaches k: the child
    contains the pattern.  When nothing changes it returns states itself.
    """
    k, pb, end = p.k, p.pb, p.end
    nxt = p.word  # nxt[j] is the pattern block of element j + 1
    r = len(end)
    closes = [e == end[pb[e]] for e in range(k + 1)]  # element e ends its block
    closed = [[e <= j for e in end] for j in range(k + 1)]  # the closed blocks at j

    def place(states, bi, need):
        child = None
        for m, j in states.items():
            t = nxt[j]
            if t < len(m):
                if m[t] != bi:
                    continue
                grown = m
            elif bi in m:
                continue
            else:
                grown = m + (bi,)
            j += 1
            if j == k:
                return None
            if child is None:
                if need > 0:
                    child = {m2: j2 for m2, j2 in states.items() if j2 >= need}
                else:
                    child = states.copy()
            if len(grown) == r and (grown is not m or closes[j]):
                if grown is m and child.get(m) == j - 1:
                    del child[m]  # dominated by the grown state, as when unmasked
                grown = tuple([-1 if x else h for x, h in zip(closed[j], grown)])
            if j >= need and child.get(grown, 0) < j:
                child[grown] = j
        if child is None and need > 0:
            child = {m: j for m, j in states.items() if j >= need}
            if len(child) == len(states):
                child = None
        return states if child is None else child

    return place


def avoider_counts(n, tau):
    """List c with c[d] = |Pi_d(tau)| for 1 <= d <= n, counted level by level.

    A prefix's future depends only on its states (see _placer), and place
    compares host blocks only for equality, so the prefixes of [d] are
    counted together by state: level d is a dict from a key (u, f, frozenset
    of the states) to the number of avoiders of [d] with that key.  The u
    host blocks that some map uses are renamed 0..u-1 in the order of a
    signature of their roles in the states (any renaming is sound; this one
    lets prefixes that differ only in the order of alike blocks merge), and
    the other f blocks are free.  A free block and the new block are
    interchangeable, so one place on label u serves all f + 1 of them.  A
    state one element short makes a block dead (the next element there
    completes the pattern), or every block outside its map, the free ones
    and the new one included.  A dead block never takes another element, so
    it leaves the count with every state that still needs it.  States that
    can no longer reach k within the elements left are dropped, and the
    prefixes of [n - 1] count their children from their states.

    A slot's moves, (bi, child key, u, lost, shut) for each block choice
    bi, depend only on its key, on need and on whether the level is the
    last (the one level where need is k - 1).  A move table holds them,
    one per level, and a level takes over the entries of the level before
    for the keys it meets again and drops the others (keeping every
    depth's entries took 2.6 times the memory on 14/23 at n = 22).  Keys
    leave out the empty map, the one state that need 1 drops, and a level
    at need <= 1 adds it back before place, so such moves are the same at
    every depth.  From need 2 on, a taken-over move is cut: its child key
    loses the states with j < need, and settle renames the rest.  Dropping
    states by j commutes with place and settle, so that is the move made
    afresh, but for the order of blocks whose roles tie.  shut comes only
    from states with j = k - 1 > need, and so does lost when the child is
    unshut, the one case that reads it; both carry over.  The last level
    makes its own moves: there an unshut child leaves settle once its dead
    blocks are known, as its u cancels out of u + free + 1.  No recursion
    limit bounds n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = _pattern_data(tau)
    k, end = p.k, p.end
    place = _placer(p)
    tk = p.word[-1]  # the pattern block of element k
    opened = [[i for i, e in enumerate(end) if e > j] for j in range(k + 1)]
    # a used block's signature sums weight[j][i] over the states that map
    # pattern block i to it with j elements placed
    weight = [[1 << 8 * (i * (k + 1) + j) for i in range(len(end))] for j in range(k + 1)]

    def settle(child, last):
        """(key or None, u, lost, shut) for a child's states, lost being the
        number of its blocks that die; shut means that no free block and
        not the new block may take the next element.  On the last level
        there is no key, and an unshut child's u is left at 0."""
        used = set().union(*child)
        used.discard(-1)
        dead = set()
        shut = k - 1 in child.values()
        if shut:
            keep = used
            for m, j in child.items():
                if j == k - 1:
                    if tk < len(m):
                        dead.add(m[tk])
                    else:
                        keep = keep.intersection(m)
            shut = keep is not used
            dead |= used - keep
            if last and not shut:
                return None, 0, len(dead), False
            if dead:
                # a state goes when an open pattern block (one with an
                # element past j) sits on a dead block, and a closed one
                # sitting there is masked
                live = {}
                for m, j in child.items():
                    if not dead.isdisjoint(m):
                        for i in opened[j]:
                            if i < len(m) and m[i] in dead:
                                m = None
                                break
                        if m is None:
                            continue
                        m = tuple([-1 if h in dead else h for h in m])
                    if live.get(m, -1) < j:
                        live[m] = j
                child = live
                used = set().union(*child)
                used.discard(-1)
        u = len(used)
        if last:
            return None, u, len(dead), shut
        if u > 1:
            roles = dict.fromkeys(used, 0)
            roles[-1] = 0
            for m, j in child.items():
                for h, x in zip(m, weight[j]):
                    roles[h] += x
            order = sorted(used, key=roles.__getitem__)
        else:
            order = list(used)
        if order != list(range(u)):
            label = dict(zip(order, range(u)))
            label[-1] = -1
            child = {tuple([label[h] for h in m]): j for m, j in child.items()}
        return frozenset(child.items()), u, len(dead), shut

    def cut(key, u, need):
        """(key, u) of a child key made at need - 1, cut to need.  settle
        finds no dead block in a key it made, so it only renames."""
        child = {m: j for m, j in key if j >= need}
        if len(child) == len(key):
            return key, u
        return settle(child, False)[:2]

    counts = [0] * (n + 1)
    if n == 1:
        counts[1] = int(k > 1)  # the one partition of [1] contains only 1
        return counts
    moves = {}
    level = {(0, 0, frozenset()): 1}
    for s in range(1, n):
        need = k - (n - s)
        last = s == n - 1
        # canon holds one object per child key, so equal keys share
        # memory, and cuts the cut of each child key
        kept, moves, canon, cuts = ({} if last else moves), {}, {}, {}
        after = {}
        while level:
            (u, f, key), c = level.popitem()
            out = moves.get(key)
            if out is None:
                out = kept.pop(key, None)
                if out is None:
                    states = dict(key)
                    shut = k - 1 in states.values()
                    if need <= 1:
                        states[()] = 0  # the empty map, left out of keys
                    out = []
                    for bi in range(u + 1):
                        child = place(states, bi, need)
                        if child is states:
                            out.append((bi, key, u, 0, shut))
                        elif child is not None:
                            child.pop((), None)
                            key2, u2, lost, shut2 = settle(child, last)
                            out.append((bi, canon.setdefault(key2, key2), u2, lost, shut2))
                elif need > 1:
                    for i, (bi, key2, u2, lost, shut2) in enumerate(out):
                        if key2 not in cuts:
                            key3, u3 = cut(key2, u2, need)
                            cuts[key2] = canon.setdefault(key3, key3), u3
                        out[i] = (bi, *cuts[key2], lost, shut2)
                moves[key] = out
            for bi, key2, u2, lost, shut2 in out:
                # bi < u is one used block; bi == u stands for each of the
                # f free blocks and for the new block
                if bi < u:
                    ways = ((c, 0),)
                elif f:
                    ways = ((c * f, 0), (c, 1))
                else:
                    ways = ((c, 1),)
                for w, new in ways:
                    counts[s] += w
                    free = 0 if shut2 else u + f + new - lost - u2
                    if not last:
                        slot = (u2, free, key2)
                        after[slot] = after.get(slot, 0) + w
                    else:
                        # the child's own children: a block that would
                        # complete the pattern is dead and out of the count,
                        # so every used block takes one, and unless the
                        # child is shut so do its free blocks and a new one
                        counts[n] += w * (u2 if shut2 else u2 + free + 1)
        level = after
    return counts


def count_avoiders(n, tau):
    """Exact |Pi_n(tau)|."""
    return avoider_counts(n, tau)[n]


def iter_avoiders(n, tau):
    """Every partition of [n] that avoids tau, in lexicographic RGF order.

    A walk over every prefix with the transition of _placer, cut at the
    first containment, so no partition is searched from scratch; it is the
    oracle avoider_counts is tested against.  Pending prefixes wait on an
    explicit stack with their blocks and states, children pushed last to
    first so that they come off in RGF order, and no recursion limit bounds
    n.  A child's blocks are its parent's grown by core's
    SetPartition._grown, so no avoider is sorted.  Element n takes no
    transition: it goes into every block, the new one included, in which
    no state one element short completes the pattern.  Such a state names
    the block that would, or, when element k would open a pattern block,
    keeps element n inside its map's blocks (settle's dead blocks in
    avoider_counts).
    """
    if n < 1:
        return
    p = _pattern_data(tau)
    k = p.k
    place = _placer(p)
    grown = SetPartition._grown
    tk = p.word[-1]  # the pattern block of element k
    # (the element to place next, the blocks and the states of its prefix)
    stack = [(1, (), {(): 0})]
    while stack:
        x, blocks, states = stack.pop()
        if x < n:
            need = k - (n - x)
            for b in range(len(blocks), -1, -1):
                child = place(states, b, need)
                if child is not None:
                    stack.append((x + 1, grown(blocks, b, x), child))
            continue
        choices = range(len(blocks) + 1)
        dead = set()
        for m, j in states.items():
            if j == k - 1:
                if tk < len(m):
                    dead.add(m[tk])
                else:
                    dead.update(b for b in choices if b not in m)
        for b in choices:
            if b not in dead:
                yield SetPartition._standard(grown(blocks, b, x), n)


__all__ = [
    "avoids",
    "avoider_counts",
    "block_contains_beta",
    "containment_witness",
    "contains",
    "contains_bruteforce",
    "count_avoiders",
    "iter_avoiders",
    "rgf_contains",
]
