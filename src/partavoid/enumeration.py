###############################################################################
#
#  Exact counting formulas and generating-function machinery.
#
#  Closed counts for the patterns with known formulas (single block, all
#  singletons, 12/34, 1/234, 134/2, 12/3/4), rational generating functions
#  for 14/2/3 and 1/24/3, the algebraic one for 14/23, Catalan for 13/24,
#  and a small exact power-series calculus to pull all of it through sqrt,
#  composition, and division without rounding.  A series is integer
#  numerators over one integer denominator, and every operation
#  works on those integers: products convolve them; division is long
#  division scaled by powers of the divisor's constant term; sqrt solves
#  2 f h' = f' h on integers scaled by (4d)^n, one term per nonzero term
#  of f, so the roots of 1 - 4z and 1 - 4z^2 take O(N); compose is
#  Horner's rule from the last nonzero outer term, with each step truncated
#  to the order that can still reach the result.  compose serves only CI's
#  check of the 14/23 transform and the tests' references: beta_k's EGF
#  cross-check is a product of exp(z^j/j!) over block sizes j, and
#  sigma_k's a sum of exponentials, both on integer counts with no series.
#  Integer results are read off with an exact divmod; Fractions are built
#  only when coeffs is read.
#  The refinement of the 14/23 core by its cap statistic, h_series_check,
#  is a tuple of integer rows, one t-polynomial per n, with no series.
#  This module also owns the map from a pattern to the closed forms that
#  count it, complements included: closed_count is the one lookup.
#
###############################################################################

from itertools import accumulate
from math import comb, factorial, lcm
from operator import add, mul, sub

from .core import m_counts, stirling2


class SeriesError(ValueError):
    pass


class DivByZeroConstant(SeriesError):
    pass


class SqrtNonUnit(SeriesError):
    pass


class ComposeNonzeroConstant(SeriesError):
    pass


class NonIntegralCoefficient(SeriesError):
    pass


class InexactDivision(SeriesError):
    pass


# =========================================================================
# univariate series, exact rational coefficients
# =========================================================================

class PowerSeries:
    """Truncated power series with exact rational coefficients 0..N, held
    as integer numerators over one nonzero integer denominator.

    Arithmetic is exact and never pretends to know coefficients past the
    truncation order: combining two series yields the smaller order.
    """

    __slots__ = ("_num", "_den", "N", "_coeffs")

    def __init__(self, coeffs, N=None):
        coeffs = list(coeffs)
        N = len(coeffs) - 1 if N is None else N
        if N < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[:N + 1]
        if any(type(c) is not int for c in coeffs):
            from fractions import Fraction
            coeffs = [Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (d // c.denominator) for c in coeffs]
        _series(num + [0] * (N + 1 - len(num)), d, N, self)

    def __setattr__(self, *_):
        raise AttributeError("PowerSeries is immutable")

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions, built once, on first use."""
        if self._coeffs is None:
            from fractions import Fraction
            object.__setattr__(self, "_coeffs",
                               tuple(Fraction(x, self._den) for x in self._num))
        return self._coeffs

    def __getitem__(self, n):
        if not 0 <= n <= self.N:
            raise IndexError(f"coefficient {n} beyond order {self.N}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.N == other.N
                and [x * other._den for x in self._num] == [y * self._den for y in other._num])

    def __repr__(self):
        tail = ", ..." if self.N > 5 else ""
        return f"PowerSeries([{', '.join(map(str, self.coeffs[:6]))}{tail}], N={self.N})"

    def __add__(self, other, op=add):
        other = _coerce(other, self.N)
        N = min(self.N, other.N)
        d = lcm(self._den, other._den)
        return _series(list(map(op, _over(self, d, N), _over(other, d, N))), d, N)

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __rsub__(self, other):
        return _coerce(other, self.N) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other, self.N)
        N = min(self.N, other.N)
        b_terms = [(j, y) for j, y in enumerate(other._num[:N + 1]) if y]
        out = [0] * (N + 1)
        for i, x in enumerate(self._num[:N + 1]):
            if not x:
                continue
            for j, y in b_terms:
                if i + j > N:
                    break
                out[i + j] += x * y
        return _series(out, self._den * other._den, N)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Long division on integers.  With self = A/a, other = B/b and
        c = B_0, the quotient is (b/a) q for q = A/B, and Q_n = q_n c^(n+1)
        obeys Q_n = A_n c^n - sum_{0<j<=n} B_j c^(j-1) Q_{n-j}, over the
        nonzero B_j; coefficient n is then b Q_n c^(N-n) / (a c^(N+1))."""
        other = _coerce(other, self.N)
        c = other._num[0]
        if not c:
            raise DivByZeroConstant("divisor has zero constant term")
        N = min(self.N, other.N)
        power = [c ** i for i in range(N + 2)]
        b_terms = [(j, y * power[j - 1])
                   for j, y in enumerate(other._num[1:N + 1], start=1) if y]
        Q = []
        for n, x in enumerate(self._num[:N + 1]):
            acc = x * power[n]
            for j, y in b_terms:
                if j > n:
                    break
                acc -= y * Q[n - j]
            Q.append(acc)
        b, d = other._den, self._den * power[N + 1]
        return _series([b * x * power[N - n] for n, x in enumerate(Q)], d, N)

    def __rtruediv__(self, other):
        return _coerce(other, self.N) / self

    def sqrt(self):
        """Square root with constant term 1, from the differential equation
        2 f h' = f' h of h = sqrt(f), run on integers over the nonzero terms
        of f only.

        Coefficient n - 1 of the equation is 2n h_n = sum_{0<i<=n} (3i - 2n)
        f_i h_{n-i}.  With f = F/d, H_n = h_n (4d)^n obeys
        2n H_n = sum_{0<i<=n} (3i - 2n) F_i 4^i d^(i-1) H_{n-i}.
        Every H_n is an integer: the square recurrence
        H_n = (F_n 4^n d^(n-1) - sum_{0<i<n} H_i H_{n-i}) / 2 keeps every
        H_n for n >= 1 even, by induction, since each product in the sum is
        of two even numbers, so the sum and the first term are multiples of
        4.  So the division by 2n is exact.  The cost is O(N t) for t nonzero
        terms of f: a dense f takes about N^2/2 products, twice the N^2/4
        of the square recurrence.  The result is H_n (4d)^(N-n) over
        (4d)^N."""
        d, F = self._den, self._num
        if F[0] != d:
            raise SqrtNonUnit("sqrt needs constant term 1")
        q, N = 4 * d, self.N
        terms = [(i, x * 4 ** i * d ** (i - 1))
                 for i, x in enumerate(F[1:], start=1) if x]
        H = [1]
        for n in range(1, N + 1):
            acc = 0
            for i, c in terms:
                if i > n:
                    break
                acc += (3 * i - 2 * n) * c * H[n - i]
            H.append(acc // (2 * n))
        scale = [1]
        for _ in range(N):
            scale.append(scale[-1] * q)
        return _series(list(map(mul, H, reversed(scale))), scale[-1], N)

    def compose(self, inner):
        """self(inner); inner must vanish at 0.

        Horner's rule acc <- c_m + inner * acc, from the last nonzero
        coefficient of self at or below N down to c_0.  The acc that
        holds c_m is later multiplied by inner^m, of order >= m, so only
        its terms of order <= N - m reach the result, and it is kept to
        that order: about N^3/6 multiply-adds instead of N^3/2.  With
        self = F/a and inner = z q/e, the acc of c_m is integer numerators
        over a e^(top-m), so a step scales F_m by e^(top-m) and the result
        is the last acc over a e^top."""
        inner = _coerce(inner, self.N)
        if inner._num[0]:
            raise ComposeNonzeroConstant("inner series must have zero constant term")
        N = min(self.N, inner.N)
        F = self._num
        top = next((m for m in range(N, -1, -1) if F[m]), 0)
        q_terms = [(j, y) for j, y in enumerate(inner._num[1:N + 1]) if y]
        acc, scale = [F[top]], 1
        for m in range(top - 1, -1, -1):
            # acc <- c_m + z q acc, to order N - m
            width = N - m
            prod = [0] * width
            for i, x in enumerate(acc):
                if not x:
                    continue
                for j, y in q_terms:
                    if i + j >= width:
                        break
                    prod[i + j] += x * y
            scale *= inner._den
            acc = [F[m] * scale] + prod
        return _series(acc + [0] * (N + 1 - len(acc)), self._den * scale, N)

    def integer_coeffs(self):
        out = [divmod(x, self._den) for x in self._num]
        for n, (_, r) in enumerate(out):
            if r:
                raise NonIntegralCoefficient(f"coefficient {n} is {self.coeffs[n]}")
        return [q for q, _ in out]


def _series(num, den, N, s=None):
    """num[n]/den, n = 0..N, from N + 1 ints and den != 0, filled into s or new."""
    s = object.__new__(PowerSeries) if s is None else s
    for name, value in zip(PowerSeries.__slots__, (num, den, N, None)):
        object.__setattr__(s, name, value)
    return s


def _coerce(x, N):
    return x if isinstance(x, PowerSeries) else PowerSeries([x], N)


def _over(s, d, N):
    """The numerators 0..N of s over d, a multiple of s's denominator."""
    f = d // s._den
    return s._num[:N + 1] if f == 1 else [x * f for x in s._num[:N + 1]]


def geometric(N):
    """1/(1-z) to order N."""
    return PowerSeries([1] * (N + 1), N)


def monomial(c, d, N):
    return PowerSeries([0] * d + [c], N)


def exp_poly(m, N):
    """exp_m = sum_{i<=m} z^i/i!, as a series of order N: the numerators
    L/i! over L = min(m, N)!."""
    L = factorial(min(max(m, 0), N))
    return _series([L // factorial(i) if i <= m else 0 for i in range(N + 1)], L, N)


# =========================================================================
# closed counting formulas
# =========================================================================

def count_beta_k(n, k):
    """Partitions of [n] with every block smaller than k (avoiders of the
    length-k single-block pattern), by conditioning on the block of n:
    a(m) = sum_{j=1}^{min(k-1, m)} C(m-1, j-1) a(m-j), built up from a(0) = 1."""
    if k < 2:
        raise ValueError("need k >= 2")
    if n < 0:
        raise ValueError("need n >= 0")
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m - 1, j - 1) * a[m - j]
                     for j in range(1, min(k - 1, m) + 1)))
    return a[n]


def count_sigma_k(n, k):
    """Partitions of [n] with fewer than k blocks."""
    if k < 2:
        raise ValueError("need k >= 2")
    return sum(stirling2(n, j) for j in range(0, k))


def count_12_34(n):
    """Avoiders of 12/34: at most one block of size >= 3, the rest a partial
    matching threaded around it."""
    row = [comb(n, j) for j in range(n + 4)]
    tail = list(accumulate(reversed(row)))[::-1]  # tail[j] = sum_{i >= j} C(n, i)
    return sum(factorial(k) * (row[2 * k] + (k + 1) ** 2 * tail[2 * k + 3])
               for k in range(n // 2 + 1))


def count_1_234(n):
    """Avoiders of 1/234: the block of 1 is an interval, an interval plus
    one extra, or an interval plus two extras; what remains is a partial
    matching.  For the interval 1..ell, with j = n - ell - 1 elements above
    ell + 1 to take the extras from, the three give m(j + 1), j m(j) and
    C(j, 2) m(j - 1) avoiders, read from one table of m."""
    m = m_counts(n)
    return sum(m[:n]) + sum(j * m[j] + comb(j, 2) * m[j - 1] for j in range(1, n - 1))


def count_134_2(n):
    """Avoiders of 134/2 via the composition-times-matching decomposition.

    An avoider with k >= 1 non-singleton blocks and f singletons is a
    skeleton, k doubletons ((2k-1)!! matchings) with the f singletons
    placed among them (C(2k+f, f) ways), whose doubletons grow interior
    runs from the other n-2k-f elements (C(n-f-k-1, k-1) ways).  By
    Chu-Vandermonde, sum_j C(j, 2k) C(n+k-1-j, k-1) = C(n+k, 3k), so the
    sum over f collapses and the count is 1 + sum_{k>=1} (2k-1)!! C(n+k, 3k),
    with the double factorial kept as a running product."""
    total, matchings = 1, 1
    for k in range(1, n // 2 + 1):
        matchings *= 2 * k - 1
        total += matchings * comb(n + k, 3 * k)
    return total


def count_12_3_4(n):
    """Avoiders of 12/3/4: at most 2 blocks after the first k elements
    are chained, summed over how the chain head distributes.

    The m = n - k elements after the chain form j blocks in S(m, j) ways,
    S(m, 1) = 1 and S(m, 2) = 2^(m-1) - 1, and the chain head meets them
    in sum_i C(j-1, i-1) k(k-1)..(k-i+1) ways: k for one block and
    k + k(k-1) = k^2 for two."""
    total = 1
    for k in range(1, n):
        total += k + k * k * (2 ** (n - k - 1) - 1)
    return total


# =========================================================================
# generating functions
# =========================================================================

def gf_coeffs_rational(numerator, denominator, N):
    """Coefficients 0..N of numerator/denominator, integer polynomials with
    constant term first, by series division."""
    return (PowerSeries(numerator, N) / PowerSeries(denominator, N)).integer_coeffs()


NUM_14_2_3 = [0, 1, -3, 3]
DEN_14_2_3 = [1, -5, 8, -5]
NUM_1_24_3 = [0, 1, -4, 6, -2]
DEN_1_24_3 = [1, -6, 13, -12, 4]   # (1 - 3z + 2z^2)^2


def gf_coeffs_14_2_3(N):
    return gf_coeffs_rational(NUM_14_2_3, DEN_14_2_3, N)


def gf_coeffs_1_24_3(N):
    return gf_coeffs_rational(NUM_1_24_3, DEN_1_24_3, N)


def core_gf_14_23(N):
    """G(z): the generating function of the singleton-free 14/23 avoiders,
    (z - 2z^2(1+z) - z*sqrt(1-4z^2)) / (-2 + 2z(1+z)^2)."""
    z = monomial(1, 1, N)
    root = (1 - monomial(4, 2, N)).sqrt()
    one_plus = 1 + z
    num = z - 2 * z * z * one_plus - z * root
    den = -2 + 2 * z * one_plus * one_plus
    return num / den


def gf_coeffs_14_23(N):
    """Avoiders of 14/23: G(z/(1-z))/(1-z) + 1/(1-z), read off as the
    binomial transform f_n = sum_m C(n, m) g_m + 1 of the core counts g.

    An avoider of [n] is a singleton-free core on some m of its elements,
    chosen in C(n, m) ways, with the rest singletons; the all-singleton
    partition is the 1.  Since [z^n] z^m/(1-z)^(m+1) = C(n, m), this is
    the series above coefficient by coefficient.  After n rounds of
    adjacent sums g_m <- g_m + g_(m+1), g_0 is sum_m C(n, m) g_m: O(N^2)
    additions instead of a composition."""
    g = core_gf_14_23(N).integer_coeffs()
    out = []
    for _ in range(N + 1):
        out.append(g[0] + 1)
        g = [x + y for x, y in zip(g, g[1:])]
    return out


def gf_coeffs_13_24(N):
    """Avoiders of 13/24 are the non-crossing partitions: Catalan numbers,
    read off (1 - sqrt(1-4z))/(2z)."""
    s = 1 - (1 - monomial(4, 1, N + 1)).sqrt()
    return _series(s._num[1:], 2 * s._den, N).integer_coeffs()


def _poly_div_one_minus_t(poly):
    # divide by (1 - t): the partial sums, exact iff poly(1) == 0
    out = list(accumulate(poly))
    if out and out[-1] != 0:
        raise InexactDivision("numerator does not vanish at t = 1")
    return out[:-1]


def h_series_check(N):
    """Solve H(z,t) = z^2 t + z t H(z,1) + (z^2 t/(1-t))(H(z,1) - t H(z,t))
    order by order in z.  Row n, for n = 0..N, is the tuple of integer
    t-coefficients of [z^n]H, trailing zeros stripped: entry j counts the
    size-n singleton-free 14/23 avoiders with j caps, so the row has at
    most n + 1 entries and sums to [z^n] of core_gf_14_23."""
    if N < 2:
        raise ValueError("need N >= 2")
    rows = [(), ()]
    for n in range(2, N + 1):
        prev2 = rows[n - 2]
        # numerator h_{n-2}(1) - t*h_{n-2}(t), then the exact (1-t) division
        quot = _poly_div_one_minus_t([sum(prev2)] + [-c for c in prev2])
        poly = [0] * (max(len(quot) + 1, 2) + 1)
        poly[1] = sum(rows[n - 1]) + (n == 2)
        for i, c in enumerate(quot):
            poly[i + 1] += c
        while poly[-1] == 0:
            poly.pop()
        rows.append(tuple(poly))
    return tuple(rows)


def egf_crosscheck_beta_k(N, k):
    """n! * [z^n] exp(exp_{k-1}(z) - 1), exactly, for n = 0..N.

    exp(exp_{k-1}(z) - 1) is the product over j < k of exp(z^j/j!), one
    factor per block size.  The counts of the factor j = 1 are all 1.
    Multiplying counts a by exp(z^j/j!) picks the m blocks of size j among
    the n elements and leaves the rest to the factors before:
    c_n = sum_m t_m(n) a_{n-jm}, with t_m(n) = n!/((n-jm)! j!^m m!) the
    number of ways to pick them.  Each term w_m(n) = t_m(n) a_{n-jm} is an
    integer, kept running along n - jm fixed:
    w_m(n) = C(n, j) w_{m-1}(n-j) / m, an exact divmod whose remainder
    raises.  A factor takes about N^2/(2j) products of a big integer by the
    small C(n, j), where a convolution with t_m(n) in full would multiply
    two big integers.  Nothing here is shared with count_beta_k, which
    conditions on the block of n, or with the walk."""
    if k < 2:
        raise ValueError("need k >= 2")
    if N < 0:
        raise ValueError("need n >= 0")
    a = [1] * (N + 1)
    for j in range(2, k):
        binom = [comb(n, j) for n in range(N + 1)]
        c, ways = a[:], a
        for m in range(1, N // j + 1):
            # ways becomes w_m(n) for n = jm..N
            nxt = []
            for n, x in zip(range(j * m, N + 1), ways):
                w, r = divmod(binom[n] * x, m)
                if r:
                    from fractions import Fraction
                    raise NonIntegralCoefficient(
                        f"coefficient {n}: {Fraction(binom[n] * x, m)} ways "
                        f"with {m} blocks of size {j}")
                nxt.append(w)
                c[n] += w
            ways = nxt
        a = c
    return a


def egf_crosscheck_sigma_k(N, k):
    """n! * [z^n] exp_{k-1}(e^z - 1), exactly, for n = 0..N.

    By the binomial theorem exp_{k-1}(e^z - 1) = sum_{j<k} (e^z - 1)^j / j!
    is sum_{i<k} w_i e^(iz), with w_i = sum_{j=i}^{k-1} (-1)^(j-i) C(j, i) / j!,
    so n! [z^n] is sum_i w_i i^n.  The weights are scaled to integers by
    m! for m = k - 1, the powers i^n kept running, and each count read off
    with an exact divmod by m!; a remainder raises.  Nothing here is
    shared with count_sigma_k's Stirling sum or with the walk."""
    if k < 2:
        raise ValueError("need k >= 2")
    if N < 0:
        raise ValueError("need n >= 0")
    m = k - 1
    den = factorial(max(m, 0))
    weights = [sum((-1) ** (j - i) * comb(j, i) * (den // factorial(j))
                   for j in range(i, m + 1)) for i in range(m + 1)]
    out, powers = [], [1] * len(weights)
    for n in range(N + 1):
        total = sum(map(mul, weights, powers))
        count, r = divmod(total, den)
        if r:
            from fractions import Fraction
            raise NonIntegralCoefficient(
                f"coefficient {n} times {n}! is {Fraction(total, den)}")
        out.append(count)
        powers = [p * i for i, p in enumerate(powers)]
    return out


# =========================================================================
# which closed form counts which pattern
# =========================================================================

# method -> the beta_k and sigma_k families, each (n, k) -> count, and the
# patterns of [4] with a closed form of their own, each n -> count.  Every
# entry looks its function up by name at call time, so a wrapper rebound
# over a module global later (as the benchmark's tracer does) is called.
_CLOSED_FORMS = {
    "formula": {
        "beta_k": lambda n, k: count_beta_k(n, k),
        "sigma_k": lambda n, k: count_sigma_k(n, k),
        "12/3/4": lambda n: count_12_3_4(n),
        "12/34": lambda n: count_12_34(n),
        "1/234": lambda n: count_1_234(n),
        "134/2": lambda n: count_134_2(n),
    },
    "gf": {
        "beta_k": lambda n, k: egf_crosscheck_beta_k(n, k)[n],
        "sigma_k": lambda n, k: egf_crosscheck_sigma_k(n, k)[n],
        "14/2/3": lambda n: gf_coeffs_14_2_3(n)[n],
        "1/24/3": lambda n: gf_coeffs_1_24_3(n)[n],
        "14/23": lambda n: gf_coeffs_14_23(n)[n],
        "13/24": lambda n: gf_coeffs_13_24(n)[n],
    },
}


def closed_count(tau, n, method):
    """The number of partitions of [n] that avoid tau, by method "formula"
    (a closed sum) or "gf" (a series coefficient), or None when that method
    covers neither tau nor its complement, which has the same counts."""
    forms = _CLOSED_FORMS[method]
    k = tau.n
    if k < 2:
        return None
    if len(tau.blocks) == 1:
        return forms["beta_k"](n, k)
    if len(tau.blocks) == k:
        return forms["sigma_k"](n, k)
    for text in (str(tau), str(tau.complement())):
        if text in forms:
            return forms[text](n)
    return None


__all__ = [
    "ComposeNonzeroConstant",
    "DivByZeroConstant",
    "InexactDivision",
    "NonIntegralCoefficient",
    "PowerSeries",
    "SeriesError",
    "SqrtNonUnit",
    "closed_count",
    "core_gf_14_23",
    "count_12_34",
    "count_12_3_4",
    "count_134_2",
    "count_1_234",
    "count_beta_k",
    "count_sigma_k",
    "egf_crosscheck_beta_k",
    "egf_crosscheck_sigma_k",
    "exp_poly",
    "geometric",
    "gf_coeffs_13_24",
    "gf_coeffs_14_23",
    "gf_coeffs_14_2_3",
    "gf_coeffs_1_24_3",
    "gf_coeffs_rational",
    "h_series_check",
    "monomial",
]
