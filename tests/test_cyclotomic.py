"""Field kernel: cyclotomic arithmetic, polynomials, exact linear algebra."""

import cmath
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from symloci import cyclotomic
from symloci.cyclotomic import (
    Cyclotomic,
    ExactMatrix,
    NonSquare,
    _cyclotomic_int_coeffs,
    _divisors,
    euler_phi,
    rational_sqrt,
)
from symloci.forms import BinaryForm, form_gcd, partial_derivatives
from symloci.loci import commuting_space_basis, stalk_order, stalk_order_from_eigenvalue

CONDUCTORS = [1, 3, 4, 5, 8, 12]


def _rat(p, q):
    return Cyclotomic.rational(Fraction(p, q))


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_a_huge_conductor_is_refused_before_it_is_factored(monkeypatch):
    # phi(n) >= sqrt(n/2), so phi(n) coefficients bound n by 2 phi(n)^2; a
    # conductor past that is refused with no trial division
    assert all(n <= 2 * euler_phi(n) ** 2 for n in range(1, 2001))
    for n in range(1, 2001):
        assert Cyclotomic(n, [1] * euler_phi(n)).n == n
    monkeypatch.setattr(cyclotomic, "_factor", lambda n: pytest.fail(f"{n} was factored"))
    with pytest.raises(ValueError, match="wrong length"):
        Cyclotomic(10**18 + 3, [1])


def test_cyclotomic_polynomial_small():
    assert list(_cyclotomic_int_coeffs(1)) == [-1, 1]
    assert list(_cyclotomic_int_coeffs(4)) == [1, 0, 1]
    assert list(_cyclotomic_int_coeffs(12)) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomial_degree_and_root():
    for n in CONDUCTORS + [6, 10, 20, 60]:
        p = _cyclotomic_int_coeffs(n)
        assert len(p) - 1 == euler_phi(n) and p[-1] == 1
        z = Cyclotomic.zeta(n)
        assert not sum((c * z**i for i, c in enumerate(p)), Cyclotomic.rational(0))


def _ref_cyclotomic_int_coeffs(n, _cache={}):
    # the construction before Phi_rad(x^(n/rad)): x^n - 1 divided by the
    # product of Phi_d over the proper divisors d of n
    if n == 1:
        return (-1, 1)
    if n not in _cache:
        den = [1]
        for d in (d for d in range(1, n) if n % d == 0):
            phi_d, new = _ref_cyclotomic_int_coeffs(d), [0] * (len(den) + euler_phi(d))
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
        rem, q = [-1] + [0] * (n - 1) + [1], [0] * (n - len(den) + 2)
        for i in range(len(q) - 1, -1, -1):
            q[i] = rem[i + len(den) - 1]
            for j, dj in enumerate(den):
                rem[i + j] -= q[i] * dj
        assert not any(rem[: len(den) - 1])
        _cache[n] = tuple(q)
    return _cache[n]


def test_cyclotomic_polynomial_matches_the_divisor_quotient():
    assert all(_cyclotomic_int_coeffs(n) == _ref_cyclotomic_int_coeffs(n) for n in range(1, 301))
    # sha256 of repr() of the quotient's coefficient tuple at the conductors
    # 27720 = lcm(1..12) and two divisors of it, recorded once (about 30 s)
    recorded = {
        9240: "7788ea362312a149eda22056e2d6477f5f52718d33b16de82e4685518a13cb4c",
        13860: "e2330ab66c2a547e287832194200488c412c219ebc26cb6bf8018e1575fb1432",
        27720: "17c22ddbfc036cbd34da672e7c5b2daab69cc7dbabb0a4fcd4b7480d3deab47c",
    }
    for n, digest in recorded.items():
        assert hashlib.sha256(repr(_cyclotomic_int_coeffs(n)).encode()).hexdigest() == digest, n


@pytest.mark.parametrize("shift", [-1, 1, 2])
@pytest.mark.parametrize("n", [2, 12, 105, 4001])
def test_a_wrong_phi_makes_the_cyclotomic_product_raise(n, shift, monkeypatch):
    # the product ends in 1, 0 only at degree phi(n): one less leaves a
    # nonzero or non-unit top, more leaves a zero leading coefficient
    monkeypatch.setattr(cyclotomic, "_phi", lambda k: euler_phi(k) + shift)
    with pytest.raises(AssertionError, match="no monic polynomial"):
        _cyclotomic_int_coeffs.__wrapped__(n)


def oracle_reduction_rows(n):
    # the table of reduced powers: row k - phi is zeta_n^k, phi <= k < n,
    # reduced, as the (index, coefficient) pairs of its nonzero entries,
    # each row the last one times x
    phi, mod = euler_phi(n), _cyclotomic_int_coeffs(n)
    rows, cur = [], [-c for c in mod[:phi]]  # x^phi
    for _ in range(phi, n):
        rows.append(tuple((i, v) for i, v in enumerate(cur) if v))
        top, cur = cur[phi - 1], [0] + cur[:-1]
        cur = [v - top * c for v, c in zip(cur, mod)]
    return rows


def oracle_fold(n, raw, rows):
    # raw wrapped mod x^n - 1, each zeta_n^k past phi read off its row
    phi, wrapped = euler_phi(n), [sum(raw[e::n]) for e in range(min(n, len(raw)))]
    out = wrapped[:phi] + [0] * (phi - len(wrapped))
    for e, c in enumerate(wrapped[phi:], phi):
        for i, v in rows[e - phi]:
            out[i] += c * v
    return tuple(out)


def test_the_fold_matches_the_reduction_table():
    # every conductor n <= 120, every raw length up to 2n + 1: the wrap
    # mod x^n - 1 and the division by Phi_n both run; dense, sparse and
    # large digits
    rng = random.Random(4401)
    for n in range(1, 121):
        phi, rows = euler_phi(n), oracle_reduction_rows(n)
        for length in range(2 * n + 2):
            bound = rng.choice([1, 9, 10**30])
            raw = [rng.randint(-bound, bound) * (rng.random() < 0.7) for _ in range(length)]
            assert cyclotomic._fold(n, phi, list(raw)) == oracle_fold(n, raw, rows), (n, length)


@pytest.mark.parametrize("n", [12508, 27720])
def test_the_fold_at_a_large_conductor_keeps_the_image_mod_p(n):
    # the table costs seconds and hundreds of MB there: the fold must keep
    # the image under the ring map zeta_n -> r of _image_field(n), on raws
    # that wrap and divide, and zeta^a zeta^b must be zeta^(a + b)
    (p, r), phi, rng = cyclotomic._image_field(n), euler_phi(n), random.Random(n)
    image = lambda digits: reduce(lambda acc, c: (acc * r + c) % p, reversed(digits), 0)  # noqa: E731
    raws = [[rng.randint(-9, 9) for _ in range(2 * n + 1)], [0] * (n - 1) + [1], [0] * phi + [1]]
    raws += [[rng.randint(-99, 99) * (rng.random() < 0.01) for _ in range(rng.randint(phi, 2 * n))] for _ in range(2)]
    for raw in raws:
        folded = cyclotomic._fold(n, phi, list(raw))
        assert len(folded) == phi and image(folded) == image(raw)
    for a, b in [(1, n - 1), (phi, n - phi), (n - 1, n - 2), (rng.randrange(n), rng.randrange(n))]:
        assert Cyclotomic.zeta(n, a) * Cyclotomic.zeta(n, b) == Cyclotomic.zeta(n, a + b), (a, b)


def test_the_first_fold_at_a_large_conductor_builds_no_table():
    # with every cache of the module cleared, zeta_27720^27719 builds Phi_n
    # and divides once; a table of the reduced powers zeta^k, phi <= k < n,
    # holds 5.16 M pairs at this n and peaks near 450 MB
    for f in vars(cyclotomic).values():
        getattr(f, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        z = Cyclotomic.zeta(27720, 27719)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.n == 27720 and peak < 16 * 2**20, peak


def test_canonical_reduce_examples():
    assert Cyclotomic.from_raw(4, [0, 0, 1]) == -1
    assert Cyclotomic.from_raw(7, [5]) == 5
    assert Cyclotomic.from_raw(5, [0, 1, 1, 1, 1]) == -1


def test_equality_across_conductors():
    assert Cyclotomic.zeta(12, 4) == Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(6) == -Cyclotomic.zeta(3, 2)
    assert Cyclotomic.zeta(8, 2) == Cyclotomic.zeta(4)
    assert hash(Cyclotomic.zeta(12, 4)) == hash(Cyclotomic.zeta(3))


def _random_elements(rng, n, count):
    out = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))]
        out.append(Cyclotomic(n, coeffs))
    return out


@pytest.mark.parametrize("n", CONDUCTORS)
def test_field_axioms(n):
    import random

    rng = random.Random(1000 + n)
    xs = _random_elements(rng, n, 6)
    one = Cyclotomic.rational(1)
    for a in xs[:3]:
        for b in xs[2:5]:
            for c in xs[3:]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in xs:
        if a:
            assert a * a.inverse() == one


@given(
    n1=st.sampled_from(CONDUCTORS),
    n2=st.sampled_from(CONDUCTORS),
    c1=st.integers(-9, 9),
    c2=st.integers(-9, 9),
    k1=st.integers(0, 11),
    k2=st.integers(0, 11),
)
@settings(max_examples=80, deadline=None)
def test_promotion_coherence(n1, n2, c1, c2, k1, k2):
    # arithmetic commutes with promotion to the lcm conductor
    from math import lcm

    a = Cyclotomic.zeta(n1, k1 % n1) * c1
    b = Cyclotomic.zeta(n2, k2 % n2) * c2
    m = lcm(n1, n2) * 2
    assert (a + b).promote(lcm((a + b).n, m)) == a.promote(m) + b.promote(m)
    assert (a * b).promote(lcm((a * b).n, m)) == a.promote(m) * b.promote(m)


FAST_PATH_CONDUCTORS = [1, 3, 4, 5, 8, 12, 15, 20]


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from(FAST_PATH_CONDUCTORS))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=euler_phi(n),
            max_size=euler_phi(n),
        )
    )
    return Cyclotomic(n, coeffs)


@given(a=cyclotomics(), b=cyclotomics())
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_are_canonical(a, b):
    # +, - and * build their results without re-validation; each result
    # must still be a well-formed element the public constructor accepts
    for r in (a + b, a - b, a * b):
        assert all(type(x) is Fraction for x in r.c)
        assert len(r.c) == euler_phi(r.n)
        assert type(r.c) is tuple
        assert Cyclotomic(r.n, r.c) == r
        assert Cyclotomic(r.n, r.c).c == r.c
    assert a - b == a + (-b)
    assert (a - b).n == (a + (-b)).n and (a - b).c == (a + (-b)).c


def test_complex_embedding_is_morphism():
    import random

    rng = random.Random(7)
    for n in CONDUCTORS:
        xs = _random_elements(rng, n, 4)
        for a, b in zip(xs, xs[1:]):
            assert abs((a + b).complex() - (a.complex() + b.complex())) < 1e-9
            assert abs((a * b).complex() - (a.complex() * b.complex())) < 1e-9


def test_complex_embedding_examples():
    assert abs(Cyclotomic.zeta(4).complex() - 1j) < 1e-12
    assert abs(_rat(1, 2).complex() - 0.5) < 1e-12
    golden = (Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)).complex()
    assert abs(golden - (5**0.5 - 1) / 2) < 1e-9


def test_minimal_conductor():
    x = Cyclotomic.zeta(12, 4) + Cyclotomic.zeta(12, 8)  # zeta3 + zeta3^2 = -1
    m = x.minimal()
    assert m.n == 1 and m.as_rational() == -1
    assert Cyclotomic.zeta(20, 4).minimal().n == 5
    assert Cyclotomic.zeta(6).minimal().n == 3


# -- the smallest field, one prime at a time, against the Gauss-Jordan descent --
#
# The oracles are the code ``minimal`` and ``_ru_split`` ran before they read
# the field and the exponent by rule: an integer Gauss-Jordan per (n, d) over
# the divisor scan, and the scan over j of r zeta_n^j.


@lru_cache(maxsize=None)
def oracle_descent(n, d):
    """(checks, rows, scale) reading Q(zeta_n) at conductor d | n: integer
    Gauss-Jordan on [P | I], P the (full column rank) promotion matrix from
    Q(zeta_d), leaves diag(p_j) over zero rows.  nums / den lies in Q(zeta_d)
    iff each check row (the I-part of a zero row) kills nums, and then
    rows . nums / (scale * den) are its coefficients at d."""
    phi_n, phi_d, step = euler_phi(n), euler_phi(d), n // d
    cols = [cyclotomic._fold(n, phi_n, [0] * (j * step) + [1]) for j in range(phi_d)]
    m = [[col[i] for col in cols] + [int(i == k) for k in range(phi_n)] for i in range(phi_n)]
    for c in range(phi_d):
        r = next(i for i in range(c, phi_n) if m[i][c])
        m[c], m[r] = m[r], m[c]
        piv = m[c]
        for i in range(phi_n):
            f = m[i][c]
            if i != c and f:
                row = [piv[c] * v - f * w for v, w in zip(m[i], piv)]
                g = gcd(*row)
                m[i] = [v // g for v in row]
    scale = lcm(*(m[c][c] for c in range(phi_d)))
    rows = tuple(tuple(v * (scale // m[c][c]) for v in m[c][phi_d:]) for c in range(phi_d))
    checks = tuple(tuple(r[phi_d:]) for r in m[phi_d:])
    return checks, rows, scale


def oracle_minimal(x):
    # the least divisor d (not 2 mod 4) whose field holds x, tried in ascending order
    if x.is_rational():
        return cyclotomic._make(1, x.nums[:1], x.den)
    for d in (d for d in _divisors(x.n)[1:-1] if d % 4 != 2):
        checks, rows, scale = oracle_descent(x.n, d)
        if not any(sum(map(mul, row, x.nums)) for row in checks):
            return cyclotomic._make(d, tuple(sum(map(mul, row, x.nums)) for row in rows), scale * x.den)
    return x


def _stored(x):
    return x.n, x.nums, x.den


def test_minimal_matches_the_gauss_jordan_descent():
    # every n <= 120: a value promoted from each proper divisor, sums across
    # two subfields, values at n = 2 (mod 4), which always drop the 2, and
    # values already minimal, which come back as they are
    rng = random.Random(4801)
    for n in range(1, 121):
        divisors = _divisors(n)
        values = [_random_elements(rng, d, 1)[0].promote(n) for d in divisors[:-1]]
        for _ in range(4):
            a, b = rng.choice(divisors), rng.choice(divisors)
            values.append((_random_elements(rng, a, 1)[0] + _random_elements(rng, b, 1)[0]).promote(n))
        if n % 4 == 2:
            values += _random_elements(rng, n, 2)
        for x in values:
            assert _stored(x.minimal()) == _stored(oracle_minimal(x)), x
        for x in map(oracle_minimal, _random_elements(rng, n, 2)):
            assert x.minimal() is x or x.is_rational(), x


def test_the_first_minimal_at_a_composite_conductor_builds_no_matrix():
    # zeta_2018 + zeta_2018^2 lies in Q(zeta_1009), read off at one stroke:
    # the Gauss-Jordan descent from 2018 to 1009 peaked at 31 MB
    x = Cyclotomic.zeta(2018) + Cyclotomic.zeta(2018, 2)
    for f in vars(cyclotomic).values():
        getattr(f, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        y = x.minimal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.n == 1009 and y == x and peak < 2**20, peak


def oracle_ru_split(x):
    # the least j with x zeta_n^-j rational, by trying each j in turn
    if not x:
        return None
    if x.is_rational():
        return x.as_rational(), 0
    n = x.n
    for j in range(1, n):
        q = x * Cyclotomic.zeta(n, -j)
        if q.is_rational():
            return q.as_rational(), j
    return None


def test_the_split_matches_the_exponent_scan():
    # r zeta_n^j for r of both signs, every n <= 60 and j < n, and values
    # with no split; each square root is stored as the scan's was, and zero
    # splits as 0 zeta^0, whose root is the rational 0
    rng = random.Random(4802)
    for n in range(1, 61):
        values = [Cyclotomic.zeta(n, j) * r for j in range(n) for r in (Fraction(9, 4), -2)]
        for x in values:
            (r, j) = split = oracle_ru_split(x)
            assert x._ru_split() == split, x
            want = rational_sqrt(r) * Cyclotomic.zeta(2 * n, j) if j else rational_sqrt(r)
            assert _stored(x.sqrt()) == _stored(want), x
        for x in [1 + Cyclotomic.zeta(n, 2)] + _random_elements(rng, n, 2):
            if x:
                assert x._ru_split() == oracle_ru_split(x), x
    zero = Cyclotomic.rational(0)
    assert zero._ru_split() == (0, 0) and _stored(zero.sqrt()) == (1, (0,), 1)


def test_a_split_past_the_float_range_squares_back():
    # the argument is read from the numerators over the largest: 10^400 has no float
    x = Cyclotomic.zeta(20, 3) * 10**400
    s = x.sqrt()
    assert x._ru_split() == (10**400, 3) and s * s == x


def as_ru_times_rational(x):
    """Decompose as (r, rho) with x = r * rho, r rational, rho a root of
    unity in Q(zeta_n); None if there is no such form."""
    dec = x._ru_split()
    if dec is None:
        return None
    r, j = dec
    return r, Cyclotomic.zeta(x.n, j) if j else Cyclotomic.rational(1)


def mul_vector(m, v):
    """The product of the ExactMatrix m with the column vector v."""
    return [sum((a * x for a, x in zip(m.row(i), v) if a and x), Cyclotomic.rational(0)) for i in range(m.rows)]


def test_ru_order_and_decomposition():
    assert Cyclotomic.zeta(8).ru_order() == 8
    assert Cyclotomic.rational(-1).ru_order() == 2
    assert Cyclotomic.rational(5).ru_order() is None
    r, rho = as_ru_times_rational(Cyclotomic.zeta(4) * 6)
    assert r == 6 and rho == Cyclotomic.zeta(4)
    assert as_ru_times_rational(Cyclotomic.zeta(5) + 1) is None


def product_loop_order(x, cap=None):
    """The order of x by successive exact products, up to cap (default
    2n + 1) of them; None for zero, a non-root or an order above cap."""
    if not x:
        return None
    p = x
    for k in range(1, (cap or 2 * x.n + 1) + 1):
        if p == 1:
            return k
        p = p * x
    return None


def test_ru_order_matches_the_product_loop():
    cases = [Cyclotomic.zeta(n, j) for n in range(1, 61) for j in range(n)]
    cases += [Cyclotomic.rational(0), Cyclotomic.rational(2), 1 + Cyclotomic.zeta(5)]
    for x in cases:
        assert x.ru_order() == product_loop_order(x), x
    # an order above the cap reads as None, one at the cap as the order
    x = Cyclotomic.zeta(60, 7)
    assert x.ru_order(cap=59) is None is product_loop_order(x, cap=59)
    assert x.ru_order(cap=60) == 60 == product_loop_order(x, cap=60)
    assert Cyclotomic.zeta(8, 2).ru_order(cap=3) is None and Cyclotomic.zeta(8, 2).ru_order(cap=4) == 4


def test_rational_sqrt():
    for q in (2, 3, 5, 6, 12, Fraction(9, 4), Fraction(2, 3), -5, -1, 0):
        s = rational_sqrt(q)
        assert s * s == Cyclotomic.rational(Fraction(q))


def trial_phi(n):
    """Euler's phi by its own trial division, as the kernel computed it
    before one factorization served every prime factor."""
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def trial_divisors(n):
    """The divisors of n, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_rational_sqrt(q):
    """rational_sqrt by its own trial division, the sqrt(p) of each prime
    with an odd exponent multiplied in ascending order, the cofactor last."""
    q = Fraction(q)
    if q == 0:
        return Cyclotomic.rational(0)
    result = Cyclotomic.rational(1)
    if q < 0:
        result = Cyclotomic.zeta(4)
        q = -q
    n = q.numerator * q.denominator
    rational_part = Fraction(1, q.denominator)
    m, p = n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            rational_part *= p ** (e // 2)
            if e % 2:
                result = result * cyclotomic._prime_sqrt(p)
        p += 1
    if m > 1:
        result = result * cyclotomic._prime_sqrt(m)
    return result * Cyclotomic.rational(rational_part)


def test_euler_phi_and_divisors_match_the_trial_loops():
    for n in range(1, 2001):
        assert euler_phi(n) == trial_phi(n), n
        assert list(_divisors(n)) == trial_divisors(n), n


def _squarefree_part(n):
    # the least k with n / k a square, independent of any factorization
    return next(k for k in range(1, n + 1) if n % k == 0 and isqrt(n // k) ** 2 == n // k)


def test_rational_sqrt_matches_the_trial_loop(monkeypatch):
    # every +-a/b with a, b <= 60: the exact roots, equal in value and
    # conductor, where the product of the primes under the root is at most
    # 120 (2,046 of the 4,406 values; sqrt(53 * 59) alone lies at conductor
    # 12,508 and takes seconds);
    # then all of them with sqrt(p) stood in by the rational p, where equal
    # values mean equal rational parts and equal primes under the root
    grid = sorted({s * Fraction(a, b) for a in range(1, 61) for b in range(1, 61) for s in (1, -1)})
    for q in grid:
        if _squarefree_part(abs(q.numerator) * q.denominator) <= 120:
            got, want = rational_sqrt(q), trial_rational_sqrt(q)
            assert (got, got.n) == (want, want.n), q
    monkeypatch.setattr(cyclotomic, "_prime_sqrt", Cyclotomic.rational)
    for q in grid:
        got, want = rational_sqrt(q), trial_rational_sqrt(q)
        assert (got, got.n) == (want, want.n), q


def oracle_root_exponent(x, n):
    # the candidate from the argument, proved by one comparison at lcm(n, x.n)
    j = round(cmath.phase(x.complex()) * n / (2 * cmath.pi)) % n
    return j if Cyclotomic.zeta(n, j) == x else None


def test_the_root_exponent_is_proved_at_the_values_own_conductor(monkeypatch):
    # against the comparison at the lcm, for roots of unity, their negatives,
    # multiples and non-roots at every conductor c <= 30, read at N = c,
    # lcm(2, c), 3 lcm(2, c) and the unrelated 7 and 10
    cases = [Cyclotomic.zeta(c, k) * s for c in range(1, 31) for k in range(c) for s in (1, -1, 2)]
    cases += [1 + Cyclotomic.zeta(c) for c in range(1, 31)] + [Cyclotomic.zeta(12, 5).promote(60)]
    for x in cases:
        for n in {x.n, 2 * x.n // gcd(2, x.n), 6 * x.n // gcd(2, x.n), 7, 10}:
            assert cyclotomic._root_exponent(x, n) == oracle_root_exponent(x, n), (x, n)
    # zeta_4001 at N = 8002: the proof folds at 4001, and nothing at 8002
    folded = []
    real = cyclotomic._fold
    monkeypatch.setattr(cyclotomic, "_fold", lambda n, phi, raw: folded.append(n) or real(n, phi, raw))
    cyclotomic._stored_root_exponent.cache_clear()
    assert Cyclotomic.zeta(4001).ru_order() == 4001 and cyclotomic._root_exponent(Cyclotomic.zeta(4001, 3), 8002) == 6
    assert (-Cyclotomic.zeta(4001)).ru_order() == 8002 and 4001 in folded and 8002 not in folded


def test_one_value_stored_at_two_conductors_gives_one_exponent(monkeypatch):
    # the cache is keyed on the stored (n, nums, den): no lookup hashes the
    # value, so none runs minimal(), and both storings read the same j
    minimal = []
    real = Cyclotomic.minimal
    monkeypatch.setattr(Cyclotomic, "minimal", lambda self: minimal.append(self) or real(self))
    cyclotomic._stored_root_exponent.cache_clear()
    for value, n in ((Cyclotomic.zeta(4, 3), 12), (Cyclotomic.zeta(6), 6), (Cyclotomic.zeta(5, 2), 10)):
        wide = value.promote(3 * value.n)
        assert wide == value and (wide.n, wide.nums) != (value.n, value.nums)
        j = cyclotomic._root_exponent(value, n)
        assert j is not None and cyclotomic._root_exponent(wide, n) == j
        assert wide.ru_order() == value.ru_order()
    # route B of the family survey rows reads through the same cache
    for d, m, t in ((11, 3, -1), (12, 4, 0), (13, 6, 1)):
        assert stalk_order_from_eigenvalue(d, m, t) == stalk_order(d, m, t)
        assert commuting_space_basis(d, m, Cyclotomic.zeta(2 * m, d - 1))
    assert not minimal


def test_a_value_past_the_float_range_has_no_root_exponent():
    # its complex value overflows; a root of unity's never does
    assert (Cyclotomic.zeta(5) * 10**400).ru_order() is None
    assert commuting_space_basis(3, 2, Cyclotomic.zeta(4) * 10**400) == []


def test_sqrt_of_ru_times_rational():
    x = Cyclotomic.zeta(5) * Fraction(-18, 7)
    s = x.sqrt()
    assert s * s == x
    with pytest.raises(ValueError):
        (Cyclotomic.zeta(5) + 1).sqrt()


def test_json_roundtrip():
    x = Cyclotomic(12, [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7)])
    assert Cyclotomic.from_json(x.to_json()) == x
    blob = x.to_json()
    assert blob["conductor"] == 12
    assert all(isinstance(s, str) for pair in blob["coeffs"] for s in pair)


# -- polynomials, as binary forms: t^k is X^k Y^(n-k) ------------------------


def test_poly_divmod_gcd():
    a = BinaryForm(2, [-2, 0, 2])  # 2 - 2t^2
    b = BinaryForm(1, [1, 1])  # 1 + t
    assert form_gcd(a, b) == b  # b divides a
    assert form_gcd(a, b * b).degree == 1
    g = form_gcd(BinaryForm(2, [1, 0, -1]), BinaryForm(1, [1, 1]))  # t^2-1 vs t+1
    assert g == BinaryForm(1, [1, 1])


def test_poly_derivative_eval():
    p = BinaryForm(2, [3, 2, 1])  # 1 + 2t + 3t^2
    dt, _ = partial_derivatives(p)
    assert dt == BinaryForm(1, [6, 2])
    assert p.evaluate(Cyclotomic.rational(2), Cyclotomic.rational(1)) == 17


# -- matrices -----------------------------------------------------------------


def test_kernel_examples():
    m = ExactMatrix.from_rows([[1, 1], [2, 2]])
    (v,) = m.kernel_basis()
    assert v[0] * 1 + v[1] * 1 == 0 or (v[0] + v[1]) == 0
    assert not ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_basis()
    z = ExactMatrix(2, 3, [0] * 6)
    assert len(z.kernel_basis()) == 3


def test_kernel_exactness_and_rank():
    import random

    rng = random.Random(3)
    for trial in range(8):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        entries = [
            Cyclotomic.zeta(4) * rng.randint(-2, 2) + rng.randint(-2, 2)
            for _ in range(rows * cols)
        ]
        m = ExactMatrix(rows, cols, entries)
        basis = m.kernel_basis()
        assert m.rank() + len(basis) == cols
        for v in basis:
            assert all(not e for e in mul_vector(m, v))


def test_determinant_examples():
    ident = ExactMatrix.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert ident.determinant() == 1
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert swap.determinant() == -1
    z4 = Cyclotomic.zeta(4)
    assert ExactMatrix.from_rows([[1, z4], [z4, 1]]).determinant() == 2
    with pytest.raises(NonSquare):
        ExactMatrix(2, 3, [0] * 6).determinant()


# -- differential check against a Fraction-tuple reference kernel ------------
#
# The reference keeps one Fraction per basis coefficient and reduces modulo
# Phi_n by long division: the representation Cyclotomic used before integer
# numerators over a common denominator.  Each function returns (conductor,
# coefficient tuple) with the conductor rules of the kernel.


def _ref_modulus(n):
    return [Fraction(c) for c in _cyclotomic_int_coeffs(n)]


def _ref_reduce(n, raw):
    mod = _ref_modulus(n)
    phi = len(mod) - 1
    out = [Fraction(0)] * max(n, phi)
    for e, c in enumerate(raw):
        out[e % n] += c
    for e in range(len(out) - 1, phi - 1, -1):
        c = out[e]
        if c:
            for i, mi in enumerate(mod):
                out[e - phi + i] -= c * mi
    return tuple(out[:phi])


def _ref_promote(x, m):
    step = m // x.n
    raw = [Fraction(0)] * ((len(x.c) - 1) * step + 1)
    raw[::step] = x.c
    return _ref_reduce(m, raw)


def _ref_add(x, y, sign):
    from math import lcm

    m = lcm(x.n, y.n)
    return m, tuple(a + sign * b for a, b in zip(_ref_promote(x, m), _ref_promote(y, m)))


def _ref_mul(x, y):
    from math import lcm

    if x.n == 1:
        return y.n, tuple(x.c[0] * v for v in y.c)
    if y.n == 1:
        return x.n, tuple(y.c[0] * v for v in x.c)
    m = lcm(x.n, y.n)
    a, b = _ref_promote(x, m), _ref_promote(y, m)
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return m, _ref_reduce(m, conv)


def _ref_inverse(x):
    # extended Euclid in Q[t] against Phi_n
    if x.is_rational():
        return x.n, (1 / x.c[0],) + x.c[1:]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q))
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return trim(out)

    r0, r1 = _ref_modulus(x.n), trim(list(x.c))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, rem = [Fraction(0)] * (len(r0) - len(r1) + 1), list(r0)
        for i in range(len(q) - 1, -1, -1):
            q[i] = rem[i + len(r1) - 1] / r1[-1]
            for j, v in enumerate(r1):
                rem[i + j] -= q[i] * v
        qs = mul(q, s1)
        s_new = [Fraction(0)] * max(len(s0), len(qs))
        for i, v in enumerate(s0):
            s_new[i] += v
        for i, v in enumerate(qs):
            s_new[i] -= v
        r0, r1, s0, s1 = r1, trim(rem), s1, trim(s_new)
    return x.n, _ref_reduce(x.n, [v / r0[0] for v in s0])


def _ref_galois(x, k):
    raw = [Fraction(0)] * x.n
    for i, ci in enumerate(x.c):
        raw[(i * k) % x.n] += ci
    return _ref_reduce(x.n, raw)


def _ref_complex(x):
    import cmath

    z = cmath.exp(2j * cmath.pi / x.n)
    total, p = 0j, 1 + 0j
    for ci in x.c:
        if ci:
            total += float(ci) * p
        p *= z
    return total


def _as_ref(r):
    # r in canonical form, as (conductor, Fraction coefficients)
    from math import gcd

    assert r.den > 0 and gcd(r.den, *r.nums) == 1 and len(r.nums) == euler_phi(r.n)
    return r.n, r.c


def _fraction_from_json(obj):
    # the Fraction decoder that from_json replaced
    return Cyclotomic(int(obj["conductor"]), [Fraction(int(num), int(den)) for num, den in obj["coeffs"]])


@st.composite
def _coefficient_pairs(draw):
    # [num, den] decimal strings as a file may hold them: unreduced, with
    # negative denominators, zeros over any denominator, big numerators
    n = draw(st.sampled_from(CONDUCTORS))
    num = st.one_of(st.integers(-30, 30), st.integers(-(10**40), 10**40))
    den = st.integers(-24, 24).filter(bool)
    pairs = draw(st.lists(st.tuples(num, den), min_size=euler_phi(n), max_size=euler_phi(n)))
    return {"conductor": n, "coeffs": [[str(a), str(b)] for a, b in pairs]}


@given(_coefficient_pairs())
@settings(max_examples=200, deadline=None)
@example({"conductor": 1, "coeffs": [["0", "-7"]]})
@example({"conductor": 4, "coeffs": [["6", "-4"], ["-9", "6"]]})
def test_json_codec_on_ints_matches_the_fraction_codec(obj):
    x, want = Cyclotomic.from_json(obj), _fraction_from_json(obj)
    assert (x.n, x.nums, x.den) == (want.n, want.nums, want.den)
    blob = x.to_json()
    assert blob == {"conductor": x.n, "coeffs": [[str(f.numerator), str(f.denominator)] for f in want.c]}
    y = Cyclotomic.from_json(json.loads(json.dumps(blob)))
    assert (y.n, y.nums, y.den) == (x.n, x.nums, x.den)


@pytest.mark.parametrize(
    "obj, error, match",
    [
        ({"conductor": 5, "coeffs": [["1", "2"], ["3", "0"], ["0", "1"], ["1", "1"]]}, ZeroDivisionError, "denominator"),
        ({"conductor": 5, "coeffs": [["1", "2"], ["3", "1"]]}, ValueError, "wrong length"),
        ({"conductor": 1, "coeffs": []}, ValueError, "wrong length"),
        ({"conductor": 0, "coeffs": [["1", "1"]]}, ValueError, "phi"),
        ({"conductor": 3, "coeffs": [["1", "1"], ["x", "1"]]}, ValueError, "invalid literal"),
        ({"conductor": 3, "coeffs": [["1", "1"], ["1"]]}, ValueError, "unpack"),
    ],
)
def test_malformed_coefficient_json_is_refused(obj, error, match):
    with pytest.raises(error, match=match):
        Cyclotomic.from_json(obj)


def test_a_huge_conductor_in_json_is_refused_before_it_is_factored(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_factor", lambda n: pytest.fail(f"{n} was factored"))
    with pytest.raises(ValueError, match="wrong length"):
        Cyclotomic.from_json({"conductor": 10**18 + 3, "coeffs": [["1", "1"]]})


@given(a=cyclotomics(), b=cyclotomics())
@settings(max_examples=200, deadline=None)
def test_integer_kernel_matches_fraction_reference(a, b):
    assert _as_ref(a + b) == _ref_add(a, b, 1)
    assert _as_ref(a - b) == _ref_add(a, b, -1)
    assert _as_ref(a * b) == _ref_mul(a, b)
    for x in (a, b):
        if x:
            assert _as_ref(x.inverse()) == _ref_inverse(x)
        for k in (2, 3):
            m = x.n * k
            assert _as_ref(x.promote(m)) == (m, _ref_promote(x, m))
            assert x.promote(m) == x and hash(x.promote(m)) == hash(x)
        assert x.complex() == _ref_complex(x)
        blob = json.dumps(x.to_json())
        assert blob == json.dumps(
            {"conductor": x.n, "coeffs": [[str(f.numerator), str(f.denominator)] for f in x.c]}
        )
        assert json.dumps(Cyclotomic.from_json(json.loads(blob)).to_json()) == blob


@given(a=cyclotomics(), b=cyclotomics())
@settings(max_examples=150, deadline=None)
def test_minimal_matches_fraction_reference(a, b):
    # the minimal conductor is the least d (not 2 mod 4) whose Galois group
    # Gal(Q(zeta_n)/Q(zeta_d)) fixes x; the value is unique there
    from math import gcd

    cases = [a * b, a + b, a, a.promote(3 * a.n)]
    cases += [x.promote(2 * x.n) for x in cases if x.n % 2]  # n = 2 (mod 4)
    for x in cases:
        y = x.minimal()
        n = x.n
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        least = min(
            d
            for d in range(1, n + 1)
            if n % d == 0
            and d % 4 != 2
            and all(_ref_galois(x, k) == x.c for k in units if (k - 1) % d == 0)
        )
        assert _as_ref(y)[0] == least
        assert _ref_promote(y, n) == x.c
        assert hash(y) == hash(x)


# -- differential check of the elimination against Gauss-Jordan ---------------
#
# The oracle is the elimination ExactMatrix ran before rank, kernel_basis and
# determinant shared one forward-elimination routine: Gauss-Jordan with row
# normalization for rank and kernel, a separate forward loop for det.


def _ref_echelon(mat):
    m = [mat.row(i) for i in range(mat.rows)]
    pivots = []
    r = 0
    for c in range(mat.cols):
        pr = next((i for i in range(r, mat.rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(mat.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == mat.rows:
            break
    return m, pivots


def _ref_kernel(mat):
    m, pivots = _ref_echelon(mat)
    basis = []
    for f in [c for c in range(mat.cols) if c not in pivots]:
        v = [Cyclotomic.rational(0)] * mat.cols
        v[f] = Cyclotomic.rational(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def _ref_determinant(mat):
    m = [mat.row(i) for i in range(mat.rows)]
    det, sign = Cyclotomic.rational(1), 1
    for c in range(mat.cols):
        pr = next((i for i in range(c, mat.rows) if m[i][c]), None)
        if pr is None:
            return Cyclotomic.rational(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, mat.rows):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det * sign


@st.composite
def matrices(draw):
    # tall, square and wide shapes with sparse small entries; a row may be a
    # multiple of an earlier one (rank deficiency), and leading zeros force
    # row swaps
    n = draw(st.sampled_from([1, 4, 5, 12]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 5)))
    phi = euler_phi(n)
    coeffs = st.lists(st.integers(-2, 2), min_size=phi, max_size=phi)
    entry = st.one_of(st.just(Cyclotomic.rational(0)), coeffs.map(lambda c: Cyclotomic(n, c)))
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            k = draw(st.integers(0, i - 1))
            s = draw(entry)
            m[i] = [s * v for v in m[k]]
    return ExactMatrix.from_rows(m)


@given(mat=matrices())
@example(mat=ExactMatrix.from_rows([[0, 1, 2], [0, 2, 4], [3, 0, 1]]))
@example(mat=ExactMatrix.from_rows([[0, 0], [0, 5], [1, 1]]))
@settings(max_examples=250, deadline=None)
def test_elimination_matches_gauss_jordan(mat):
    basis = mat.kernel_basis()
    assert mat.rank() == len(_ref_echelon(mat)[1])
    assert basis == _ref_kernel(mat)
    for v in basis:
        assert not any(mul_vector(mat, v))
    if mat.rows == mat.cols:
        assert mat.determinant() == _ref_determinant(mat)
