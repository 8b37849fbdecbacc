###############################################################################
#
#  Exact counting formulas and generating-function machinery.
#
#  Closed counts for the patterns with known formulas (single block, all
#  singletons, 12/34, 1/234, 134/2, 12/3/4), rational generating functions
#  for 14/2/3 and 1/24/3, the algebraic one for 14/23, Catalan for 13/24,
#  and a small exact power-series calculus (Fraction coefficients) to pull
#  all of it through sqrt, composition, and division without rounding.
#  Products convolve integer numerators over one common denominator, so
#  the inner loops do int arithmetic; sqrt runs the O(N^2) coefficient
#  recurrence on integers scaled by (4d)^n; compose is Horner's rule on
#  integer numerators, from the last nonzero outer term, with each step
#  truncated to the order that can still reach the result; division is
#  the one long-division routine, over the divisor's nonzero terms, and
#  the rational series are quotients by it.  Products, sqrt and compose
#  build one Fraction per result coefficient, at the end.
#  This module also owns the map from a pattern to the closed forms that
#  count it, complements included: closed_count is the one lookup.
#
###############################################################################

from fractions import Fraction
from math import comb, factorial, lcm

from .core import m_count, perfect_matchings, stirling2


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
    """Truncated power series with Fraction coefficients 0..N.

    Arithmetic is exact and never pretends to know coefficients past the
    truncation order: combining two series yields the smaller order.
    """

    __slots__ = ("coeffs", "N")

    def __init__(self, coeffs, N=None):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if N is None:
            N = len(coeffs) - 1
        if N < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[:N + 1] + [Fraction(0)] * (N + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "N", N)

    def __setattr__(self, *_):
        raise AttributeError("PowerSeries is immutable")

    def __getitem__(self, n):
        if not 0 <= n <= self.N:
            raise IndexError(f"coefficient {n} beyond order {self.N}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (isinstance(other, PowerSeries)
                and self.N == other.N and self.coeffs == other.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.N > 5 else ""
        return f"PowerSeries([{head}{tail}], N={self.N})"

    def __add__(self, other):
        other = _coerce(other, self.N)
        N = min(self.N, other.N)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(N + 1)], N)

    def __sub__(self, other):
        other = _coerce(other, self.N)
        N = min(self.N, other.N)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(N + 1)], N)

    def __rsub__(self, other):
        return _coerce(other, self.N) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other, self.N)
        N = min(self.N, other.N)
        da, a = _common_denominator(self.coeffs[:N + 1])
        db, b = _common_denominator(other.coeffs[:N + 1])
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (N + 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in b_terms:
                if i + j > N:
                    break
                out[i + j] += x * y
        d = da * db
        return PowerSeries([Fraction(c, d) for c in out], N)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.N)
        if other.coeffs[0] == 0:
            raise DivByZeroConstant("divisor has zero constant term")
        N = min(self.N, other.N)
        inv0 = Fraction(1) / other.coeffs[0]
        # h_n = (f_n - sum_{0<j<=n} g_j h_{n-j}) / g_0, over the nonzero g_j
        b_terms = [(j, y) for j, y in enumerate(other.coeffs[1:N + 1], start=1) if y]
        out = []
        for n in range(N + 1):
            acc = self.coeffs[n]
            for j, y in b_terms:
                if j > n:
                    break
                acc -= y * out[n - j]
            out.append(acc * inv0)
        return PowerSeries(out, N)

    def __rtruediv__(self, other):
        return _coerce(other, self.N) / self

    def sqrt(self):
        """Square root with constant term 1, by the coefficient recurrence
        h_0 = 1, h_n = (f_n - sum_{0<i<n} h_i h_{n-i}) / 2, run on integers.

        With f = F/d over the common denominator d, H_n = h_n (4d)^n obeys
        H_0 = 1, H_n = (F_n 4^n d^(n-1) - sum_{0<i<n} H_i H_{n-i}) / 2.
        Every H_n is an integer, and even for n >= 1: by induction each
        product in the sum is of two even numbers, so the sum and the
        first term are multiples of 4.  The sum is twice the half-sum,
        plus the middle square when n is even."""
        if self.coeffs[0] != 1:
            raise SqrtNonUnit("sqrt needs constant term 1")
        d, F = _common_denominator(self.coeffs)
        H = [1]
        scale = 4  # 4^n d^(n-1)
        for n in range(1, self.N + 1):
            half = sum(H[i] * H[n - i] for i in range(1, (n + 1) // 2))
            middle = H[n // 2] ** 2 if n % 2 == 0 else 0
            H.append((F[n] * scale - middle) // 2 - half)
            scale *= 4 * d
        return PowerSeries([Fraction(x, (4 * d) ** n) for n, x in enumerate(H)], self.N)

    def compose(self, inner):
        """self(inner); inner must vanish at 0.

        Horner's rule acc <- c_m + inner * acc, from the last nonzero
        coefficient of self at or below N down to c_0.  The acc that
        holds c_m is later multiplied by inner^m, of order >= m, so only
        its terms of order <= N - m reach the result, and it is kept to
        that order: about N^3/6 multiply-adds instead of N^3/2.  With
        inner = z q, acc is integer numerators over one running
        denominator D; a step is D <- lcm(D e, den c_m), for q's common
        denominator e, and each result coefficient becomes a Fraction
        once, at the end."""
        inner = _coerce(inner, self.N)
        if inner.coeffs[0] != 0:
            raise ComposeNonzeroConstant("inner series must have zero constant term")
        N = min(self.N, inner.N)
        f = self.coeffs
        top = next((m for m in range(N, -1, -1) if f[m]), 0)
        e, q = _common_denominator(inner.coeffs[1:N + 1])
        q_terms = [(j, y) for j, y in enumerate(q) if y]
        D, acc = f[top].denominator, [f[top].numerator]
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
            c = f[m]
            De = D * e
            D = lcm(De, c.denominator)
            s = D // De
            acc = [c.numerator * (D // c.denominator)] + [x * s for x in prod]
        return PowerSeries([Fraction(x, D) for x in acc], N)

    def integer_coeffs(self):
        for n, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise NonIntegralCoefficient(f"coefficient {n} is {c}")
        return [int(c) for c in self.coeffs]


def _coerce(x, N):
    if isinstance(x, PowerSeries):
        return x
    return PowerSeries([x], N)


def _common_denominator(coeffs):
    """(d, nums) with coeffs[i] == nums[i] / d; d is the lcm of the
    denominators, so products of nums are plain int arithmetic."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def geometric(N):
    """1/(1-z) to order N."""
    return PowerSeries([1] * (N + 1), N)


def monomial(c, d, N):
    out = [Fraction(0)] * (N + 1)
    if d <= N:
        out[d] = Fraction(c)
    return PowerSeries(out, N)


def exp_poly(m, N):
    """exp_m = sum_{i<=m} z^i/i!, as a series of order N."""
    return PowerSeries([Fraction(1, factorial(i)) if i <= m else 0
                        for i in range(N + 1)], N)


# =========================================================================
# bivariate series for the cap statistic
# =========================================================================

class BivariateSeries:
    """Coefficients of z^n as exact t-polynomials, n = 0..N; the t-degree
    of row n never exceeds n."""

    __slots__ = ("rows", "N")

    def __init__(self, rows):
        clean = []
        for n, poly in enumerate(rows):
            poly = [Fraction(c) for c in poly]
            while poly and poly[-1] == 0:
                poly.pop()
            if len(poly) - 1 > n:
                raise ValueError(f"row {n} has t-degree {len(poly) - 1} > {n}")
            clean.append(tuple(poly))
        object.__setattr__(self, "rows", tuple(clean))
        object.__setattr__(self, "N", len(clean) - 1)

    def __setattr__(self, *_):
        raise AttributeError("BivariateSeries is immutable")

    def __getitem__(self, n):
        return self.rows[n]

    def at_t(self, t):
        """Specialize t, leaving a list of z-coefficients."""
        t = Fraction(t)
        return [sum((c * t ** i for i, c in enumerate(row)), Fraction(0))
                for row in self.rows]


def _poly_eval_one(poly):
    return sum(poly, Fraction(0))


def _poly_div_one_minus_t(poly):
    # divide by (1 - t); exact iff poly(1) == 0
    out = []
    acc = Fraction(0)
    for c in poly:
        acc += c
        out.append(acc)
    if out and out[-1] != 0:
        raise InexactDivision("numerator does not vanish at t = 1")
    return out[:-1] if out else out


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
    total = 0
    for k in range(0, n // 2 + 1):
        total += factorial(k) * comb(n, 2 * k)
        for ell in range(3, n - 2 * k + 1):
            total += comb(n, 2 * k + ell) * factorial(k) * (k + 1) ** 2
    return total


def count_1_234(n):
    """Avoiders of 1/234: the block of 1 is an interval, an interval plus
    one extra, or an interval plus two extras; what remains is a partial
    matching."""
    total = 0
    for ell in range(1, n + 1):
        total += m_count(n - ell)
    for ell in range(1, n - 1):
        total += (n - ell - 1) * m_count(n - ell - 1)
    for ell in range(1, n - 2):
        total += comb(n - ell - 1, 2) * m_count(n - ell - 2)
    return total


def count_134_2(n):
    """Avoiders of 134/2 via the composition-times-matching decomposition."""
    total = 1
    for k in range(1, n // 2 + 1):
        for f in range(0, n - 2 * k + 1):
            total += (comb(n - f - k - 1, k - 1)
                      * comb(2 * k + f, f) * perfect_matchings(2 * k))
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
    the series above coefficient by coefficient, in O(N^2) products
    instead of a composition."""
    g = core_gf_14_23(N).integer_coeffs()
    return [sum(comb(n, m) * g[m] for m in range(n + 1)) + 1
            for n in range(N + 1)]


def gf_coeffs_13_24(N):
    """Avoiders of 13/24 are the non-crossing partitions: Catalan numbers,
    read off (1 - sqrt(1-4z))/(2z)."""
    M = N + 1
    root = (1 - monomial(4, 1, M)).sqrt()
    shifted = (1 - root).coeffs
    out = PowerSeries([shifted[n + 1] / 2 for n in range(N + 1)], N)
    return out.integer_coeffs()


def h_series_check(N):
    """Solve H(z,t) = z^2 t + z t H(z,1) + (z^2 t/(1-t))(H(z,1) - t H(z,t))
    order by order in z.  Row n collects t^(cap count) over the size-n
    singleton-free 14/23 avoiders."""
    if N < 2:
        raise ValueError("need N >= 2")
    rows = [(), ()]
    for n in range(2, N + 1):
        h1 = _poly_eval_one(rows[n - 1])
        prev2 = rows[n - 2]
        h2 = _poly_eval_one(prev2)
        # numerator h_{n-2}(1) - t*h_{n-2}(t), then the exact (1-t) division
        numer = [h2] + [-c for c in prev2]
        quot = _poly_div_one_minus_t(numer)
        poly = [Fraction(0)] * (max(len(quot) + 1, 2) + 1)
        if n == 2:
            poly[1] += 1
        poly[1] += h1
        for i, c in enumerate(quot):
            poly[i + 1] += c
        rows.append(poly)
    return BivariateSeries(rows)


def _egf_counts(series):
    """n! * [z^n] series for n = 0..N; a count that is not an integer
    raises rather than being truncated."""
    out, fact = [], 1
    for n, c in enumerate(series.coeffs):
        fact *= n or 1
        count = c * fact
        if count.denominator != 1:
            raise NonIntegralCoefficient(f"coefficient {n} times {n}! is {count}")
        out.append(count.numerator)
    return out


def egf_crosscheck_beta_k(N, k):
    """n! * [z^n] exp(exp_{k-1}(z) - 1), exactly."""
    g = exp_poly(k - 1, N) - 1
    return _egf_counts(exp_poly(N, N).compose(g))


def egf_crosscheck_sigma_k(N, k):
    """n! * [z^n] exp_{k-1}(e^z - 1), exactly."""
    return _egf_counts(exp_poly(k - 1, N).compose(exp_poly(N, N) - 1))


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
    "BivariateSeries",
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
