###############################################################################
#
#  Containment and avoidance in Klazar's sense: sigma contains tau when some
#  subset S of the ground set restricts-and-standardizes to tau.  This module
#  has the pruned containment search (the point query), a deliberately naive
#  all-subsets checker kept as the test oracle, RGF-word containment for
#  contrast, the block-level criterion for the patterns 1..(a-1)(a+1)..k/a,
#  and the brute-force walk over the RGF prefix tree, one pass from the root
#  that both counts the avoiders of every [d], d <= n (avoider_counts) and,
#  keeping the blocks of the prefix it is at, lists them (iter_avoiders).
#  The walk never searches a prefix from scratch: each node carries its set
#  of partial embeddings of the pattern, a map from pattern blocks to host
#  blocks with the number of pattern elements placed, and updates it as each
#  element is added.  Later elements exceed the whole prefix, so positions
#  never matter and, for one map, more elements placed dominates fewer.
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
    """Standard form, size k, and the block index of each pattern element
    1..k (a tuple, as the result is shared by every call for tau)."""
    tau = standardize(tau.blocks)
    k = tau.n
    pb = [0] * (k + 1)
    for ti, b in enumerate(tau.blocks):
        for e in b:
            pb[e] = ti
    return tau, k, tuple(pb)


def containment_witness(sigma, tau):
    """A subset S with standardize(sigma|S) = tau, or None.

    Pattern elements 1..k are matched to increasing elements of sigma by
    depth-first search, maintaining the partial correspondence between
    pattern blocks and sigma blocks; branches that cannot reach k elements
    or that would merge two pattern blocks are cut.
    """
    tau, k, pb = _pattern_data(tau)
    n = sigma.n
    if k > n or len(tau.blocks) > len(sigma.blocks):
        return None
    blocks = sigma.blocks
    bound = [-1] * len(tau.blocks)
    choice = [0] * (k + 1)

    def dfs(e, low, usedmask):
        if e > k:
            return True
        t = pb[e]
        hi = n - (k - e)  # leave room for the remaining pattern elements
        j = bound[t]
        if j >= 0:
            for x in blocks[j]:
                if x <= low:
                    continue
                if x > hi:
                    break
                choice[e] = x
                if dfs(e + 1, x, usedmask):
                    return True
            return False
        for j2, blk in enumerate(blocks):
            if usedmask >> j2 & 1:
                continue
            bound[t] = j2
            for x in blk:
                if x <= low:
                    continue
                if x > hi:
                    break
                choice[e] = x
                if dfs(e + 1, x, usedmask | (1 << j2)):
                    return True
            bound[t] = -1
        return False

    if dfs(1, 0, 0):
        return tuple(choice[1:])
    return None


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
    xs = sorted(block)
    s = len(xs)
    if s < k - 1:
        return False
    # i elements below the gap after xs[i-1], s-i above
    for i in range(max(a - 1, 1), min(s - k + a, s - 1) + 1):
        if xs[i] > xs[i - 1] + 1:
            return True
    return False


def block_contains_beta_ambient(block, k, a, n):
    """Same criterion with c ranging over all of [n] minus the block."""
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    xs = sorted(block)
    s = len(xs)
    if s < k - 1:
        return False
    if a == 1 and xs[0] > 1:
        return True
    if a == k and xs[-1] < n:
        return True
    return block_contains_beta(block, k, a)


# =========================================================================
# brute-force counting over the RGF prefix tree
# =========================================================================

def _placer(k, pb):
    """The walk's transition for a pattern of [k] with block index pb.

    Each node of the RGF prefix walk carries the partial embeddings of the
    pattern into its prefix as a dict m -> j: m gives the host block of each
    pattern block 0..r-1 in RGF order, and j is the largest number of
    pattern elements 1..j placed with that map.  Every later host element
    exceeds the whole prefix, so positions never matter and, for a fixed m,
    a larger j dominates a smaller one.  Adding an element to host block bi
    extends (m, j) when the pattern block t of element j+1 is already mapped
    to bi, or is new and bi is not yet in m (giving m + (bi,)).  The
    returned place(states, bi, need) gives the child's states, keeping those
    with j >= need, or None when j reaches k: the child contains the
    pattern, and its subtree is pruned.
    """
    nxt = pb[1:]  # nxt[j] is the pattern block of element j + 1

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
                child = {m2: j2 for m2, j2 in states.items() if j2 >= need}
            if j >= need and child.get(grown, 0) < j:
                child[grown] = j
        return states if child is None else child

    return place


def avoider_counts(n, tau, shards=1):
    """List c with c[d] = |Pi_d(tau)| for 1 <= d <= n, from one walk.

    The walk goes once from the root of the RGF prefix tree, depth first,
    keeping its pending nodes on an explicit stack, so no recursion limit
    bounds n.  Each node's states are updated by the transition of _placer;
    a prefix that contains the pattern is pruned with its whole subtree,
    and every surviving node of depth d is one avoider of [d].  States that
    can no longer reach k within the elements left are dropped, and the
    children of a node at depth n - 1 are counted from its states directly.
    shards is checked (it must be positive) but does not split the work:
    the walk and its counts are the same for every value.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if shards < 1:
        raise ValueError("shards must be positive")
    tau, k, pb = _pattern_data(tau)
    nxt = pb[1:]
    last = k - 1
    place = _placer(k, pb)
    counts = [0] * (n + 1)
    stack = [(1, 0, {(): 0})]  # (element to add, blocks so far, states)
    while stack:
        s, nb, states = stack.pop()
        if s == n:
            # children of a depth n - 1 node that still avoid the pattern:
            # the states one element short each rule out one block or all
            # blocks outside their map
            alive = set(range(nb + 1))
            t = nxt[last]
            for m, j in states.items():
                if j == last:
                    if t < len(m):
                        alive.discard(m[t])
                    else:
                        alive.intersection_update(m)
            counts[n] += len(alive)
            continue
        need = k - (n - s)
        for bi in range(nb + 1):
            child = place(states, bi, need)
            if child is not None:
                counts[s] += 1
                stack.append((s + 1, nb + (bi == nb), child))
    return counts


def count_avoiders(n, tau, shards=1):
    """Exact |Pi_n(tau)|; shards is checked as in avoider_counts."""
    return avoider_counts(n, tau, shards)[n]


def iter_avoiders(n, tau):
    """Every partition of [n] that avoids tau, in lexicographic RGF order.

    The pruned walk of avoider_counts, keeping the blocks of the current
    prefix as it goes: a prefix that contains the pattern is cut with its
    whole subtree, so no partition is searched from scratch.  Pending nodes
    wait on an explicit stack, children pushed last to first so that they
    come off in RGF order, and no recursion limit bounds n.
    """
    if n < 1:
        return
    tau, k, pb = _pattern_data(tau)
    place = _placer(k, pb)
    blocks = []
    path = []  # the block of each element of the prefix in blocks
    first = place({(): 0}, 0, k - n + 1)
    stack = [] if first is None else [(1, 0, first)]  # (element, its block, states)
    while stack:
        s, bi, states = stack.pop()
        while len(path) >= s:  # back up to the parent's prefix, [s - 1]
            b = path.pop()
            blocks[b].pop()
            if not blocks[b]:
                blocks.pop()
        if bi == len(blocks):
            blocks.append([])
        blocks[bi].append(s)
        path.append(bi)
        if s == n:
            yield SetPartition(blocks, n)
            continue
        need = k - (n - s - 1)
        for b in range(len(blocks), -1, -1):
            child = place(states, b, need)
            if child is not None:
                stack.append((s + 1, b, child))


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
