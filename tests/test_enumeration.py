import random
from fractions import Fraction
from itertools import product
from math import comb, perm

import pytest

from partavoid.avoidance import avoids, count_avoiders
from partavoid.core import SetPartition, iter_partitions, perfect_matchings, stirling2
from partavoid.enumeration import (
    DEN_14_2_3,
    DEN_1_24_3,
    NUM_14_2_3,
    NUM_1_24_3,
    BivariateSeries,
    ComposeNonzeroConstant,
    DivByZeroConstant,
    InexactDivision,
    NonIntegralCoefficient,
    PowerSeries,
    SqrtNonUnit,
    core_gf_14_23,
    count_1_234,
    count_12_3_4,
    count_12_34,
    count_134_2,
    count_beta_k,
    count_sigma_k,
    egf_crosscheck_beta_k,
    egf_crosscheck_sigma_k,
    exp_poly,
    geometric,
    gf_coeffs_13_24,
    gf_coeffs_14_2_3,
    gf_coeffs_14_23,
    gf_coeffs_1_24_3,
    gf_coeffs_rational,
    h_series_check,
    monomial,
    _poly_div_one_minus_t,
)
from partavoid.bijections import generate_14_23_core

P = SetPartition.parse


# =========================================================================
# series plumbing
# =========================================================================

def test_series_identities():
    N = 12
    g = geometric(N)
    one = PowerSeries([1], N)
    z = PowerSeries([0, 1], N)
    assert (g * (one - z)).coeffs == one.coeffs
    assert (one / (one - z)).coeffs == g.coeffs
    assert ((one - z) + z).coeffs == one.coeffs


def test_series_sqrt():
    N = 8
    f = PowerSeries([1, -4], N).sqrt()
    # (sqrt f)^2 == f
    assert list((f * f).coeffs) == list(PowerSeries([1, -4], N).coeffs)
    # central binomials hide in 1/sqrt(1-4z)
    inv = PowerSeries([1], N) / f
    assert list(inv.coeffs[:5]) == [1, 2, 6, 20, 70]


def test_series_compose():
    N = 10
    f = geometric(N)
    z = PowerSeries([0, 1], N)
    assert f.compose(z).coeffs == f.coeffs
    zz = PowerSeries([0, 0, 1], N)
    assert list(f.compose(zz).coeffs[:7]) == [1, 0, 1, 0, 1, 0, 1]


def test_series_error_paths():
    N = 6
    with pytest.raises(DivByZeroConstant):
        PowerSeries([1], N) / PowerSeries([0, 1], N)
    with pytest.raises(SqrtNonUnit):
        PowerSeries([2], N).sqrt()
    with pytest.raises(ComposeNonzeroConstant):
        geometric(N).compose(PowerSeries([1, 1], N))


def test_series_integer_coeffs_guard():
    f = PowerSeries([Fraction(1, 2)], 4)
    with pytest.raises(NonIntegralCoefficient):
        f.integer_coeffs()
    # the error names the first coefficient that is not an integer
    with pytest.raises(NonIntegralCoefficient, match="coefficient 2 is 1/3"):
        PowerSeries([1, 2, Fraction(1, 3), Fraction(1, 2)]).integer_coeffs()
    assert PowerSeries([Fraction(4, 2), -3, 0]).integer_coeffs() == [2, -3, 0]
    # integers over a denominator that is not 1
    assert (PowerSeries([2, 4]) / 2).integer_coeffs() == [1, 2]


# =========================================================================
# the integer-numerator kernel against a slow schoolbook reference
# =========================================================================

def _ref_mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i in range(N + 1):
        for j in range(N + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _ref_sqrt(f, N):
    # binomial series: sum over j of C(1/2, j) (f - 1)^j
    g = [Fraction(0)] + list(f[1:N + 1])
    out = [Fraction(0)] * (N + 1)
    power = [Fraction(1)] + [Fraction(0)] * N
    binom = Fraction(1)
    for j in range(N + 1):
        out = [o + binom * p for o, p in zip(out, power)]
        power = _ref_mul(power, g, N)
        binom *= (Fraction(1, 2) - j) / (j + 1)
    return out


def _ref_compose(f, g, N):
    acc = [Fraction(0)] * (N + 1)
    for c in reversed(f[:N + 1]):
        acc = _ref_mul(acc, g, N)
        acc[0] += c
    return acc


def _random_series(rng, N, density=None):
    if density is None:
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
    return PowerSeries([Fraction(rng.randint(-30, 30), rng.randint(1, 40))
                        if rng.random() < density else 0 for _ in range(N + 1)], N)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_mul_matches_schoolbook(seed):
    rng = random.Random(seed)
    for _ in range(12):
        a = _random_series(rng, rng.randint(0, 14))
        b = _random_series(rng, rng.randint(0, 14))
        N = min(a.N, b.N)
        want = _ref_mul(a.coeffs, b.coeffs, N)
        for got in (a * b, b * a):
            assert got.N == N and got.coeffs == tuple(want)
            assert all(type(c) is Fraction for c in got.coeffs)
        for scalar in (0, 3, Fraction(-2, 7)):
            want = _ref_mul(a.coeffs, [Fraction(scalar)] + [Fraction(0)] * a.N, a.N)
            for got in (a * scalar, scalar * a):
                assert got.N == a.N and got.coeffs == tuple(want)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_sqrt_matches_binomial_series(seed):
    rng = random.Random(100 + seed)
    for _ in range(6):
        f = _random_series(rng, rng.randint(0, 12))
        f = PowerSeries((1,) + f.coeffs[1:], f.N)
        h = f.sqrt()
        assert h.N == f.N and h.coeffs == tuple(_ref_sqrt(f.coeffs, f.N))
        assert _ref_mul(h.coeffs, h.coeffs, f.N) == list(f.coeffs)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_compose_matches_horner(seed):
    rng = random.Random(200 + seed)
    for _ in range(6):
        f = _random_series(rng, rng.randint(0, 12))
        g = _random_series(rng, rng.randint(0, 12))
        g = PowerSeries((0,) + g.coeffs[1:], g.N)
        N = min(f.N, g.N)
        got = f.compose(g)
        assert got.N == N and got.coeffs == tuple(_ref_compose(f.coeffs, g.coeffs, N))


def _exact_series(rng, N, first):
    # small denominators keep the schoolbook references quick at N = 40
    return PowerSeries([first] + [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(N)], N)


@pytest.mark.parametrize("f,g", [
    # an outer series with a zero tail, inner with factorial denominators
    (exp_poly(3, 30), exp_poly(30, 30) - 1),
    # an all-zero outer series
    (PowerSeries([0] * 9, 8), PowerSeries([0, 1, 2, 3], 8)),
    # an outer series that is a constant, and the orders 0 and 1
    (PowerSeries([Fraction(3, 7)], 6), geometric(6) - 1),
    (PowerSeries([5], 0), PowerSeries([0], 0)),
    (PowerSeries([2, Fraction(-1, 3)], 1), PowerSeries([0, Fraction(5, 2)], 1)),
    # an inner series of lower order than the outer: the result takes it
    (exp_poly(12, 12), PowerSeries([0, 1, -1, Fraction(1, 2)], 5)),
    # order 40, where a truncation fault shows in the top coefficients
    (_exact_series(random.Random(1), 40, Fraction(2, 3)),
     _exact_series(random.Random(2), 40, 0)),
    (_exact_series(random.Random(3), 40, 1), PowerSeries([0, 1, 1], 40)),
], ids=["zero_tail", "zero_outer", "constant_outer", "order_0", "order_1",
        "lower_order_inner", "order_40", "order_40_sparse_inner"])
def test_kernel_compose_edge_cases(f, g):
    N = min(f.N, g.N)
    got = f.compose(g)
    assert got.N == N and got.coeffs == tuple(_ref_compose(f.coeffs, g.coeffs, N))
    assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("f", [
    PowerSeries([1], 0),
    PowerSeries([1, Fraction(-5, 3)], 1),
    PowerSeries([1, 0, 0, Fraction(1, 6)], 9),
    _exact_series(random.Random(4), 40, 1),
], ids=["order_0", "order_1", "sparse", "order_40"])
def test_kernel_sqrt_edge_cases(f):
    h = f.sqrt()
    assert h.N == f.N and h.coeffs == tuple(_ref_sqrt(f.coeffs, f.N))
    assert all(type(c) is Fraction for c in h.coeffs)


def _ref_div(f, g, N):
    # long division over every divisor term, zeros included
    out = []
    for n in range(N + 1):
        acc = f[n] - sum((g[j] * out[n - j] for j in range(1, n + 1)), Fraction(0))
        out.append(acc / g[0])
    return out


@pytest.mark.parametrize("seed", range(8))
def test_kernel_div_matches_long_division(seed):
    # sparse divisors too: the kernel skips their zero terms
    rng = random.Random(300 + seed)
    for _ in range(6):
        f = _random_series(rng, rng.randint(0, 12))
        g = _random_series(rng, rng.randint(0, 12))
        g = PowerSeries((Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)),)
                        + g.coeffs[1:], g.N)
        N = min(f.N, g.N)
        got = f / g
        assert got.N == N and got.coeffs == tuple(_ref_div(f.coeffs, g.coeffs, N))
        assert _ref_mul(got.coeffs, g.coeffs, N) == list(f.coeffs[:N + 1])


@pytest.mark.parametrize("f,g", [
    # a constant term of -2: the quotient carries powers of it to order 40
    (_exact_series(random.Random(5), 40, Fraction(1, 3)),
     _exact_series(random.Random(6), 40, -2)),
    (PowerSeries([1], 6), PowerSeries([Fraction(-3, 5), 0, 0, 1], 6)),
    (_exact_series(random.Random(7), 12, 0), PowerSeries([Fraction(7, 2)], 12)),
    (PowerSeries([Fraction(2, 3)], 0), PowerSeries([-5], 0)),
], ids=["order_40_constant_minus_2", "sparse_divisor", "constant_divisor", "order_0"])
def test_kernel_div_edge_cases(f, g):
    N = min(f.N, g.N)
    got = f / g
    assert got.N == N and got.coeffs == tuple(_ref_div(f.coeffs, g.coeffs, N))
    assert all(type(c) is Fraction for c in got.coeffs)


def test_series_equality_ignores_the_denominator():
    assert PowerSeries([Fraction(2, 4)]) == PowerSeries([Fraction(1, 2)])
    # sqrt holds its integer result over 4^N; equal to the same integers over 1
    root = PowerSeries([1, -4], 6).sqrt()
    assert root == PowerSeries([1, -2, -2, -4, -10, -28, -84], 6)
    assert root != PowerSeries([1, -2, -2, -4, -10, -28, -85], 6)
    assert PowerSeries([1, 2], 3) != PowerSeries([1, 2], 4)
    assert PowerSeries([1]) != Fraction(1) and PowerSeries([1]) != [1]
    z = PowerSeries([0, 1], 5)
    assert (z * Fraction(2, 3)) / Fraction(2, 3) == z
    # a negative constant term leaves a negative denominator
    assert PowerSeries([1, 1], 2) / -1 == PowerSeries([-1, -1], 2)
    assert (PowerSeries([1, 1], 2) / -1).integer_coeffs() == [-1, -1, 0]


def test_series_coeffs_are_fractions():
    f = _exact_series(random.Random(8), 10, 1)
    g = PowerSeries([0, 1, 2], 10)
    for s in (PowerSeries([1, 2, 3]), geometric(4), exp_poly(3, 6), monomial(5, 2, 4),
              f + g, f - g, 2 - f, f * g, f / geometric(10), 1 / f, f.sqrt(),
              f.compose(g)):
        assert all(type(c) is Fraction for c in s.coeffs)
        assert [s[n] for n in range(s.N + 1)] == list(s.coeffs)
    with pytest.raises(IndexError):
        g[11]


def test_gf_rational_is_series_division():
    for N, (num, den) in product((30, 200), ((NUM_14_2_3, DEN_14_2_3), (NUM_1_24_3, DEN_1_24_3))):
        f, g = PowerSeries(num, N).coeffs, PowerSeries(den, N).coeffs
        assert gf_coeffs_rational(num, den, N) == _ref_div(f, g, N)
    with pytest.raises(DivByZeroConstant):
        gf_coeffs_rational([1], [0, 1], 4)
    with pytest.raises(DivByZeroConstant):
        gf_coeffs_rational([1], [], 4)


def test_sqrt_is_exact_at_the_truncation_order():
    # sqrt(1 - 4z^2) = sum_m -C(2m, m)/(2m - 1) z^(2m), to the last coefficient
    for N in (0, 1, 2, 7, 84, 2000):
        root = PowerSeries([1, 0, -4], N).sqrt()
        want = [0] * (N + 1)
        for m in range(N // 2 + 1):
            want[2 * m] = Fraction(-comb(2 * m, m), 2 * m - 1)
        assert root.N == N and list(root.coeffs) == want


def test_sqrt_squares_back_over_a_non_unit_denominator():
    # a sparse f whose terms carry the denominators 3 and 7
    f = PowerSeries([1, Fraction(1, 3), 0, 0, 0, Fraction(-2, 7)], 300)
    h = f.sqrt()
    assert h.N == 300 and h * h == f


# =========================================================================
# closed formulas, checked against the exhaustive counter
# =========================================================================

def test_count_beta_k_rows(k4_rows):
    for n in range(1, 11):
        assert count_beta_k(n, 4) == k4_rows["1234"][n - 1]
    assert count_beta_k(3, 2) == 1


def test_count_sigma_k_rows(k4_rows):
    for n in range(1, 11):
        assert count_sigma_k(n, 4) == k4_rows["1/2/3/4"][n - 1]


def test_sagan_k3_rows():
    for n in range(1, 13):
        assert count_sigma_k(n, 3) == 2 ** (n - 1)
    pat = P("12/3")
    for n in range(1, 13):
        assert count_avoiders(n, pat) == 1 + n * (n - 1) // 2


def test_double_and_triple_sums(k4_rows):
    for n in range(1, 11):
        assert count_12_34(n) == k4_rows["12/34"][n - 1]
        assert count_1_234(n) == k4_rows["1/234"][n - 1]
        assert count_134_2(n) == k4_rows["134/2"][n - 1]
        assert count_12_3_4(n) == k4_rows["12/3/4"][n - 1]


def _ref_count_134_2(n):
    # reference: the double sum over k arcs and the f free elements
    total = 1
    for k in range(1, n // 2 + 1):
        total += perfect_matchings(2 * k) * sum(
            comb(n - f - k - 1, k - 1) * comb(2 * k + f, f) for f in range(n - 2 * k + 1))
    return total


def test_count_134_2_matches_the_double_sum():
    for n in range(151):
        assert count_134_2(n) == _ref_count_134_2(n), n


def _ref_count_12_3_4(n):
    # reference: S(m, 1) and S(m, 2) from the stirling2 table
    total = 1
    for k in range(1, n):
        for j in range(1, 3):
            inner = sum(comb(j - 1, i - 1) * perm(k, i) for i in range(1, j + 1))
            total += stirling2(n - k, j) * inner
    return total


def test_count_12_3_4_matches_the_stirling_sum():
    for n in range(1, 121):
        assert count_12_3_4(n) == _ref_count_12_3_4(n), n


def test_formulas_match_oracle_directly():
    # belt and braces for one mid-size n not present in the frozen table
    n = 11
    assert count_beta_k(n, 4) == count_avoiders(n, P("1234"))
    assert count_12_34(n) == count_avoiders(n, P("12/34"))


# =========================================================================
# generating functions
# =========================================================================

def test_gf_14_2_3(k4_rows):
    assert gf_coeffs_14_2_3(10) == [0] + list(k4_rows["14/2/3"])


def test_gf_1_24_3(k4_rows):
    assert gf_coeffs_1_24_3(10) == [0] + list(k4_rows["1/24/3"])


def test_gf_13_24_is_catalan(k4_rows, catalan):
    got = gf_coeffs_13_24(10)
    assert got == catalan[:11]
    assert got[1:] == list(k4_rows["13/24"])


def test_gf_14_23(k4_rows):
    assert gf_coeffs_14_23(10) == [1] + list(k4_rows["14/23"])


def _ref_gf_coeffs_14_23(N):
    # reference: G(z/(1-z))/(1-z) + 1/(1-z) through compose
    M = N + 2
    G = core_gf_14_23(M)
    F = G.compose(monomial(1, 1, M) * geometric(M)) * geometric(M) + geometric(M)
    return F.integer_coeffs()[:N + 1]


@pytest.mark.parametrize("N", [0, 1, 2, 3, 10, 80, 200])
def test_gf_14_23_matches_the_composition(N):
    assert gf_coeffs_14_23(N) == _ref_gf_coeffs_14_23(N)


def test_gfs_agree_with_bell_below_threshold(bell):
    # every pattern of size 4 is present in nothing smaller than itself
    for fn in (gf_coeffs_14_2_3, gf_coeffs_1_24_3, gf_coeffs_13_24, gf_coeffs_14_23):
        row = fn(4)
        assert row[1:4] == bell[1:4]
        assert row[4] == bell[4] - 1


def test_gf_rational_guard():
    with pytest.raises(NonIntegralCoefficient):
        gf_coeffs_rational([1], [2, 1], 4)


def test_core_gf_pinned():
    g = core_gf_14_23(8)
    assert [g.coeffs[n] for n in (2, 3, 4)] == [1, 1, 3]
    assert g.coeffs[0] == 0 and g.coeffs[1] == 0
    for n in range(2, 9):
        assert g.coeffs[n] == len(generate_14_23_core(n))


# =========================================================================
# the capped refinement
# =========================================================================

def test_h_series_rows():
    H = h_series_check(6)
    assert H.rows[2] == (0, 1)
    assert H.rows[3] == (0, 1)
    assert H.rows[4] == (0, 2, 1)


def test_h_row_matches_cap_statistic():
    H = h_series_check(8)
    for n in range(2, 9):
        tally = {}
        for c in generate_14_23_core(n):
            tally[c.caps] = tally.get(c.caps, 0) + 1
        row = H.rows[n]
        for j, coef in enumerate(row):
            assert tally.get(j, 0) == coef


def test_h_at_one_is_core_gf():
    H = h_series_check(10)
    g = core_gf_14_23(10)
    assert list(H.at_t(1)) == list(g.coeffs)


def test_poly_div_guard():
    with pytest.raises(InexactDivision):
        _poly_div_one_minus_t((0, 1))
    assert _poly_div_one_minus_t((1, 0, -1)) == [1, 1]


# =========================================================================
# exponential cross-checks
# =========================================================================

def test_egf_crosschecks_k4(k4_rows):
    assert egf_crosscheck_beta_k(10, 4)[1:] == list(k4_rows["1234"])
    assert egf_crosscheck_sigma_k(10, 4)[1:] == list(k4_rows["1/2/3/4"])


def test_egf_crosschecks_k5(k5_rows):
    assert egf_crosscheck_beta_k(9, 5)[1:] == list(k5_rows["12345"])
    assert egf_crosscheck_sigma_k(9, 5)[1:] == list(k5_rows["1/2/3/4/5"])


def test_egf_crosschecks_refuse_a_non_integral_count(monkeypatch):
    # a faulty kernel must raise, not have its count truncated by int()
    with monkeypatch.context() as m:
        # beta_k counts the two pairs of [4] as C(4, 2) C(2, 2) / 2; C(4, 2)
        # off by one leaves 7/2 of them
        m.setattr("partavoid.enumeration.comb",
                  lambda n, k: comb(n, k) + ((n, k) == (4, 2)))
        with pytest.raises(NonIntegralCoefficient,
                           match="coefficient 4: 7/2 ways with 2 blocks of size 2"):
            egf_crosscheck_beta_k(4, 4)
    # sigma_k sums exponentials with weights over 3!: C(3, 1) off by one
    # puts every count off by 1/6, from 1 at n = 0 to 7/6
    monkeypatch.setattr("partavoid.enumeration.comb",
                        lambda n, k: comb(n, k) + ((n, k) == (3, 1)))
    with pytest.raises(NonIntegralCoefficient, match="coefficient 0 times 0! is 7/6"):
        egf_crosscheck_sigma_k(2, 4)


@pytest.mark.parametrize("crosscheck", [egf_crosscheck_beta_k, egf_crosscheck_sigma_k])
def test_egf_crosschecks_refuse_bad_arguments(crosscheck):
    # the same refusals as count_beta_k and count_sigma_k
    for N, k in ((5, 1), (5, 0), (0, -3)):
        with pytest.raises(ValueError, match="need k >= 2"):
            crosscheck(N, k)
    with pytest.raises(ValueError, match="need n >= 0"):
        crosscheck(-1, 4)
    assert crosscheck(0, 2) == [1]


def _egf_counts(series):
    # n! * [z^n] series for n = 0..N; a count that is not an integer raises
    out, fact = [], 1
    for n, x in enumerate(series._num):
        fact *= n or 1
        count, r = divmod(x * fact, series._den)
        if r:
            raise NonIntegralCoefficient(
                f"coefficient {n} times {n}! is {series.coeffs[n] * fact}")
        out.append(count)
    return out


def _ref_egf_beta_k(N, k):
    # reference: exp composed with exp_{k-1}(z) - 1 through the series kernel
    return _egf_counts(exp_poly(N, N).compose(exp_poly(k - 1, N) - 1))


def _ref_egf_sigma_k(N, k):
    # reference: exp_{k-1} composed with e^z - 1 through the series kernel
    return _egf_counts(exp_poly(k - 1, N).compose(exp_poly(N, N) - 1))


@pytest.mark.parametrize("k", range(2, 8))
def test_egf_beta_k_matches_the_composition(k):
    for N in range(61):
        assert egf_crosscheck_beta_k(N, k) == _ref_egf_beta_k(N, k), N


@pytest.mark.parametrize("N, k", [(12, 12), (200, 4)])
def test_egf_beta_k_matches_the_composition_far_out(N, k):
    assert egf_crosscheck_beta_k(N, k) == _ref_egf_beta_k(N, k)


@pytest.mark.parametrize("k", range(2, 8))
def test_egf_sigma_k_matches_the_composition(k):
    for N in range(61):
        assert egf_crosscheck_sigma_k(N, k) == _ref_egf_sigma_k(N, k), N


@pytest.mark.parametrize("N, k", [(12, 12), (200, 4)])
def test_egf_sigma_k_matches_the_composition_far_out(N, k):
    assert egf_crosscheck_sigma_k(N, k) == _ref_egf_sigma_k(N, k)


@pytest.mark.parametrize("k", [4, 5])
def test_series_agree_with_formulas_to_80(k):
    # two independent methods, far past the brute-force horizon
    N = 80
    assert egf_crosscheck_beta_k(N, k) == [count_beta_k(n, k) for n in range(N + 1)]
    assert egf_crosscheck_sigma_k(N, k) == [count_sigma_k(n, k) for n in range(N + 1)]


def test_gf_13_24_is_catalan_to_80():
    assert gf_coeffs_13_24(80) == [comb(2 * n, n) // (n + 1) for n in range(81)]


def test_sigma_below_beta():
    for k in (3, 4, 5, 6, 7):
        for n in range(1, 13):
            s, b = count_sigma_k(n, k), count_beta_k(n, k)
            if n > k > 2:
                assert s < b
            else:
                assert s == b


# =========================================================================
# bivariate container behaviour
# =========================================================================

def test_bivariate_degree_guard():
    with pytest.raises(ValueError):
        BivariateSeries([(1,), (0, 1, 5)])


def test_bivariate_at_t():
    B = BivariateSeries([(0,), (0, 1), (0, 1, 1)])
    assert B.at_t(2) == [0, 2, 6]
