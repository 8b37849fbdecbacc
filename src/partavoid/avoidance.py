###############################################################################
#
#  Containment and avoidance in Klazar's sense: sigma contains tau when some
#  subset S of the ground set restricts-and-standardizes to tau.  This module
#  has the pruned containment search (the point query), a deliberately naive
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
#  each key's moves in a move table keyed by (key, need clipped at 0,
#  last level or not): a level's need <= 0 entries serve the next level
#  too, the rest only their own; on the last level an unshut child skips
#  its rebuild.  The block criterion runs one gap loop, which callers
#  holding blocks in standard form call without the sort.
#
###############################################################################

from functools import lru_cache
from itertools import combinations

from .core import SetPartition, standardize


# =========================================================================
# containment
# =========================================================================

@lru_cache(maxsize=None)
def _pattern_data(tau):
    """Standard form, size k, the block index of each pattern element 1..k,
    and for each element the size of its block if it is that block's least
    element, else 0 (tuples, as the result is shared by every call for tau)."""
    tau = standardize(tau.blocks)
    k = tau.n
    pb = [0] * (k + 1)
    opens = [0] * (k + 1)
    for ti, b in enumerate(tau.blocks):
        opens[b[0]] = len(b)
        for e in b:
            pb[e] = ti
    return tau, k, tuple(pb), tuple(opens)


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
    """
    tau, k, pb, opens = _pattern_data(tau)
    n = sigma.n
    blocks = sigma.blocks
    if k > n or len(tau.blocks) > len(blocks):
        return None
    if not k:
        return ()
    # two shapes the search would answer with its own first witness
    if len(tau.blocks) == 1:  # beta_k: the first block with k elements
        return next((tuple(b[:k]) for b in blocks if len(b) >= k), None)
    if len(tau.blocks) == k:  # sigma_k: the first k blocks' minima
        return tuple(b[0] for b in blocks[:k])
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
    145/23 contains 12/34).
    """
    a = tuple(a)
    b = tuple(b)
    k = len(b)
    n = len(a)
    if k > n:
        return False
    mapping = {}
    inverse = {}

    def rec(i, j):
        if j == k:
            return True
        v = b[j]
        for p in range(i, n - (k - j) + 1):
            x = a[p]
            if v in mapping:
                if mapping[v] != x:
                    continue
                fresh = False
            else:
                if x in inverse:
                    continue
                if any((v2 < v) != (x2 < x) for v2, x2 in mapping.items()):
                    continue
                mapping[v] = x
                inverse[x] = v
                fresh = True
            if rec(p + 1, j + 1):
                return True
            if fresh:
                del mapping[v]
                del inverse[x]
        return False

    return rec(0, 0)


# =========================================================================
# block-level criterion for beta_{k,a} = 1..(a-1)(a+1)..k/a
# =========================================================================

def _beta_in_block(xs, k, a, n=None):
    """The criterion of block_contains_beta for an ascending sequence xs and
    1 <= a <= k, or of block_contains_beta_ambient when n is given; nothing
    is checked, so callers with blocks in standard form skip the sort."""
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


def block_contains_beta(block, k, a):
    """True iff some integer c in a gap of the block witnesses beta_{k,a}.

    The witness condition is a-1 <= #{x in block : x < c} together with
    k-a <= #{x in block : x > c}, for some c not in the block.  Here c is
    required to lie strictly between min(block) and max(block); the variant
    that also admits witnesses outside that range (which needs the ambient
    ground-set size) is block_contains_beta_ambient.
    """
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    return _beta_in_block(sorted(block), k, a)


def block_contains_beta_ambient(block, k, a, n):
    """Same criterion with c ranging over all of [n] minus the block."""
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    return _beta_in_block(sorted(block), k, a, n)


# =========================================================================
# counting and listing the avoiders over the RGF prefix tree
# =========================================================================

def _block_ends(k, pb):
    """The last element of each pattern block, in block order."""
    end = [0] * (max(pb) + 1)
    for e in range(1, k + 1):
        end[pb[e]] = e
    return end


def _placer(k, pb):
    """The transition shared by the count and the listing, for a pattern of
    [k] with block index pb.

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
    nxt = pb[1:]  # nxt[j] is the pattern block of element j + 1
    end = _block_ends(k, pb)
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
    bi, depend only on its key, on need clipped at 0 and on whether the
    level is the last (the one level where need is k - 1).  A move table
    holds them, one per level: at need <= 0 moves are the same at every
    depth, so a level takes over the entries of the level before for the
    keys it meets again, and drops the others (keeping every depth's
    entries took 2.6 times the memory on 14/23 at n = 22).  On the last
    level an unshut child leaves settle once its dead blocks are known, as
    its u cancels out of u + free + 1.  No recursion limit bounds n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    tau, k, pb, _ = _pattern_data(tau)
    place = _placer(k, pb)
    end = _block_ends(k, pb)
    tk = pb[k]  # the pattern block of element k
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

    counts = [0] * (n + 1)
    if n == 1:
        counts[1] = int(k > 1)  # the one partition of [1] contains only 1
        return counts
    moves = {}
    level = {(0, 0, frozenset({((), 0)})): 1}
    for s in range(1, n):
        need = k - (n - s)
        last = s == n - 1
        # the need <= 0 moves of the level before serve the keys met again;
        # canon holds one object per child key, so equal keys share memory
        kept, moves, canon = (moves if need <= 0 else {}), {}, {}
        after = {}
        while level:
            (u, f, key), c = level.popitem()
            out = moves.get(key)
            if out is None:
                out = kept.pop(key, None)
                if out is None:
                    states = dict(key)
                    shut = k - 1 in states.values()
                    out = []
                    for bi in range(u + 1):
                        child = place(states, bi, need)
                        if child is states:
                            out.append((bi, key, u, 0, shut))
                        elif child is not None:
                            key2, u2, lost, shut2 = settle(child, last)
                            out.append((bi, canon.setdefault(key2, key2), u2, lost, shut2))
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
    tau, k, pb, _ = _pattern_data(tau)
    place = _placer(k, pb)
    grown = SetPartition._grown
    tk = pb[k]  # the pattern block of element k
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
    "block_contains_beta_ambient",
    "containment_witness",
    "contains",
    "contains_bruteforce",
    "count_avoiders",
    "iter_avoiders",
    "rgf_contains",
]
