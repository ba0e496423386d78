"""Binary forms: substitution action, resultants, gcds, divisors."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symloci.cyclotomic import Cyclotomic, ExactMatrix, euler_phi
from symloci.forms import (
    BinaryForm,
    DegreeMismatch,
    Divisor,
    P1Point,
    RationalMap,
    _accumulate_product,
    distinct_common_roots_count,
    distinct_roots_count,
    form_from_divisor,
    form_gcd,
    multiplicity_at,
    partial_derivatives,
    resultant_pair,
    substitute,
    sylvester_resultant,
)

X2 = BinaryForm(2, [1, 0, 0])
Y2 = BinaryForm(2, [0, 0, 1])
XY = BinaryForm(2, [0, 1, 0])


def _random_form(rng, d, conductor=1):
    coeffs = []
    for _ in range(d + 1):
        c = Cyclotomic.rational(rng.randint(-3, 3))
        if conductor > 1 and rng.random() < 0.5:
            c = c + Cyclotomic.zeta(conductor) * rng.randint(-2, 2)
        coeffs.append(c)
    if not any(coeffs):
        coeffs[0] = Cyclotomic.rational(1)
    return BinaryForm(d, coeffs)


def _random_sl2(rng):
    # product of elementary matrices over the Gaussian rationals, det 1
    from symloci.moebius import MoebiusMap

    m = MoebiusMap.identity()
    for _ in range(3):
        b = Cyclotomic.rational(rng.randint(-2, 2)) + Cyclotomic.zeta(4) * rng.randint(-1, 1)
        if rng.random() < 0.5:
            m = m.compose(MoebiusMap(1, b, 0, 1))
        else:
            m = m.compose(MoebiusMap(1, 0, b, 1))
    return m


def test_substitute_examples():
    assert substitute(X2, ((0, 1), (1, 0))) == Y2
    sheared = substitute(XY, ((1, 1), (0, 1)))
    assert sheared == BinaryForm(2, [0, 1, 1])  # XY + Y^2
    f = BinaryForm(3, [1, -2, 0, 5])
    assert substitute(f, ((1, 0), (0, 1))) == f
    c = BinaryForm(0, [Cyclotomic.zeta(5) + 2])  # degree 0: every g fixes it
    assert substitute(c, ((1, 2), (3, Cyclotomic.zeta(4)))) == c


def test_substitute_right_action():
    rng = random.Random(11)
    for _ in range(10):
        f = _random_form(rng, rng.randint(1, 5), conductor=4)
        g, h = _random_sl2(rng), _random_sl2(rng)
        assert substitute(substitute(f, g), h) == substitute(f, g.compose(h))


def _power_table(s, t, n):
    """Coefficient lists of (sX + tY)^k for k = 0..n, each row from the last
    by one multiplication by sX + tY: the oracle for the binomial rows that
    ``substitute`` builds."""
    zero, one = Cyclotomic.rational(0), Cyclotomic.rational(1)
    pows = [[one]]
    for k in range(1, n + 1):
        prev = pows[-1]
        cur = [zero] * (k + 1)
        for i, p in enumerate(prev):
            if p:
                cur[i] = cur[i] + p * s
                cur[i + 1] = cur[i + 1] + p * t
        pows.append(cur)
    return pows


def _dense_substitute(f, a, b, c, d):
    # the power-table route: both full tables, every nonzero coefficient
    n = f.degree
    pows1, pows2 = _power_table(a, b, n), _power_table(c, d, n)
    out = [Cyclotomic.rational(0)] * (n + 1)
    for i, coef in enumerate(f.coeffs):
        if coef:
            _accumulate_product(out, pows1[n - i], pows2[i], coef)
    return out


def _element(draw, n):
    k, scale = draw(st.integers(0, n - 1)), draw(st.integers(-3, 3).filter(bool))
    return Cyclotomic.zeta(n, k) * scale + draw(st.sampled_from([0, 1, Fraction(-1, 2)]))


def _sparse_form(draw):
    d = draw(st.integers(0, 14))
    coeffs = [_element(draw, draw(st.integers(1, 12))) if draw(st.booleans()) else 0 for _ in range(d + 1)]
    return BinaryForm(d, coeffs)


@st.composite
def _monomial_substitutions(draw):
    f = _sparse_form(draw)
    n = draw(st.integers(1, 12))
    s, t = _element(draw, n), _element(draw, draw(st.sampled_from([1, n])))
    g = (s, 0, 0, t) if draw(st.booleans()) else (0, s, t, 0)
    return f, g


@st.composite
def _dense_substitutions(draw):
    # at most one zero entry, so the matrix is never monomial; the zero is
    # the rational 0 or a zero stored at conductor n
    f = _sparse_form(draw)
    n = draw(st.integers(1, 12))
    g = [_element(draw, draw(st.sampled_from([1, n]))) for _ in range(4)]
    zero = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if zero is not None:
        g[zero] = draw(st.sampled_from([Cyclotomic.rational(0), Cyclotomic.zeta(n) * 0]))
    return f, tuple(g)


@settings(max_examples=200, deadline=None)
@given(_monomial_substitutions())
@example((BinaryForm.zero(5), (Cyclotomic.zeta(7), 0, 0, 1)))
@example((BinaryForm.zero(3), (0, 1, 1, 0)))
@example((BinaryForm(0, [Cyclotomic.zeta(9, 2)]), (0, Cyclotomic.zeta(4), 3, 0)))
@example((BinaryForm(4, [1, Cyclotomic.zeta(12), 0, Fraction(2, 3), Cyclotomic.zeta(5)]), (0, 1, -1, 0)))
@example((BinaryForm(3, [Cyclotomic.zeta(3), 1, 0, 2]), (0, -1, 1, 0)))
def test_monomial_substitution_matches_the_power_table(case):
    f, g = case
    got = substitute(f, g).coeffs
    want = _dense_substitute(f, *g)
    assert [(c.n, c.nums, c.den) for c in got] == [(c.n, c.nums, c.den) for c in want]


@settings(max_examples=200, deadline=None)
@given(_dense_substitutions())
@example((BinaryForm.zero(6), (1, 2, Cyclotomic.zeta(5), 3)))
@example((BinaryForm(0, [Cyclotomic.zeta(7, 3)]), (1, Cyclotomic.zeta(4), 3, 2)))
@example((BinaryForm(5, [0, 0, Cyclotomic.zeta(3), 0, 0, 0]), (1, 1, 0, 1)))
@example((BinaryForm(4, [1, 0, 0, 0, Cyclotomic.zeta(8)]), (Cyclotomic.zeta(5), 0, Cyclotomic.zeta(12), 1)))
@example((BinaryForm(3, [2, 1, Fraction(1, 3), Cyclotomic.zeta(5)]), (Cyclotomic.zeta(5) * 0, 1, -1, Cyclotomic.zeta(4))))
def test_dense_substitution_matches_the_power_table(case):
    # the binomial rows against both full power tables: same coefficients,
    # stored at the same conductors
    f, g = case
    got = substitute(f, g).coeffs
    want = _dense_substitute(f, *g)
    assert [(c.n, c.nums, c.den) for c in got] == [(c.n, c.nums, c.den) for c in want]


def test_resultant_examples():
    assert resultant_pair(X2, Y2) == 1
    assert not resultant_pair(X2, XY)
    assert resultant_pair(XY, BinaryForm(2, [1, 0, 1])) == 1
    with pytest.raises(DegreeMismatch):
        resultant_pair(X2, BinaryForm(3, [1, 0, 0, 0]))


def test_resultant_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        d1, d2, e = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        f1, f2 = _random_form(rng, d1, 4), _random_form(rng, d2)
        g = _random_form(rng, e, 3)
        lhs = sylvester_resultant(f1 * f2, g)
        rhs = sylvester_resultant(f1, g) * sylvester_resultant(f2, g)
        assert lhs == rhs
    # equal-degree wrapper agrees with the general resultant
    f, g = _random_form(rng, 3), _random_form(rng, 3)
    assert resultant_pair(f, g) == sylvester_resultant(f, g)
    assert bool(resultant_pair(f, g)) == (form_gcd(f, g).degree == 0)


def test_resultant_sl2_invariance():
    rng = random.Random(6)
    for _ in range(6):
        d = rng.randint(1, 3)
        f, g = _random_form(rng, d, 4), _random_form(rng, d, 4)
        a = _random_sl2(rng)
        assert resultant_pair(substitute(f, a), substitute(g, a)) == resultant_pair(f, g)


# ---------------------------------------------------------------------------
# sylvester_resultant against the Sylvester determinant
# ---------------------------------------------------------------------------
#
# The oracle is the definition: n shifted rows of F's coefficients over m
# shifted rows of G's, an (m+n) x (m+n) matrix, and its determinant by
# ExactMatrix.determinant.  The resultant runs the Euclidean remainder
# sequence instead, so zero forms, degree 0, zero top coefficients (a root
# at [1:0]) and zero bottom ones (a root at [0:1]) are each checked here.

RESULTANT_CONDUCTORS = [1, 4, 5, 8, 12]


def _sylvester_determinant(f, g):
    m, n = f.degree, g.degree
    rows = [[0] * s + list(f.coeffs) + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + list(g.coeffs) + [0] * (m - 1 - s) for s in range(m)]
    return ExactMatrix.from_rows(rows).determinant()


def _assert_resultant(f, g):
    got, want = sylvester_resultant(f, g), _sylvester_determinant(f, g)
    assert got == want, (f, g, got, want)
    return got


def _edged_form(rng, d, conductor):
    # random form with, a third of the time each, a zero top coefficient
    # and a zero bottom one
    f = _random_form(rng, d, conductor)
    coeffs = list(f.coeffs)
    if rng.random() < 1 / 3:
        coeffs[0] = Cyclotomic.rational(0)
    if rng.random() < 1 / 3:
        coeffs[-1] = Cyclotomic.rational(0)
    return BinaryForm(d, coeffs)


def test_resultant_matches_sylvester_determinant_over_degrees():
    rng = random.Random(10)
    for m in range(13):
        for n in range(13):
            conductor = RESULTANT_CONDUCTORS[(m + 2 * n) % len(RESULTANT_CONDUCTORS)]
            _assert_resultant(_edged_form(rng, m, conductor), _edged_form(rng, n, conductor))


def test_resultant_edge_cases_match_sylvester_determinant():
    c, e = Cyclotomic.zeta(5) + 2, Cyclotomic.zeta(12) - 3
    const, other = BinaryForm(0, [c]), BinaryForm(0, [e])
    cubic = BinaryForm(3, [1, -2, 0, 5])
    quad = BinaryForm(2, [Cyclotomic.zeta(8), 0, 3])
    # degree 0, including the 0 x 0 determinant and zero constants
    assert _assert_resultant(const, other) == 1
    assert _assert_resultant(BinaryForm.zero(0), BinaryForm.zero(0)) == 1
    assert _assert_resultant(const, cubic) == c**3
    assert _assert_resultant(cubic, const) == c**3
    assert _assert_resultant(BinaryForm.zero(2), const) == c**2
    assert _assert_resultant(const, BinaryForm.zero(3)) == c**3
    assert not _assert_resultant(BinaryForm.zero(0), cubic)
    assert not _assert_resultant(cubic, BinaryForm.zero(0))
    zero5 = BinaryForm(0, [Cyclotomic(5, [0, 0, 0, 0])])
    assert sylvester_resultant(cubic, zero5).to_json() == _sylvester_determinant(cubic, zero5).to_json()
    # zero forms of positive degree
    assert not _assert_resultant(BinaryForm.zero(2), cubic)
    assert not _assert_resultant(quad, BinaryForm.zero(1))
    assert not _assert_resultant(BinaryForm.zero(1), BinaryForm.zero(4))
    # a top coefficient of zero in one form lowers its actual degree ...
    low = BinaryForm(4, [0, 0, 1, Cyclotomic.zeta(4), 2])  # Y^2 (X^2 + i XY + 2 Y^2)
    assert _assert_resultant(low, cubic) and _assert_resultant(cubic, low)
    assert _assert_resultant(quad, low) and _assert_resultant(low, quad)
    assert _assert_resultant(BinaryForm(3, [0, 0, 0, c]), quad) == c**2 * Cyclotomic.zeta(8) ** 3
    # ... and in both it is the common root [1:0]
    assert not _assert_resultant(low, BinaryForm(2, [0, 1, 1]))
    # zero bottom coefficients: a root at [0:1] in one form, then in both
    assert _assert_resultant(BinaryForm(3, [1, 2, 0, 0]), quad)
    assert not _assert_resultant(BinaryForm(3, [1, 2, 0, 0]), BinaryForm(2, [1, 1, 0]))
    # a shared factor of higher degree
    shared = BinaryForm(2, [1, Cyclotomic.zeta(5), -1])
    assert not _assert_resultant(shared * cubic, shared * quad)
    assert not _assert_resultant(shared * low, shared)


@st.composite
def _resultant_operands(draw):
    n = draw(st.sampled_from(RESULTANT_CONDUCTORS))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    coeff = st.lists(entry, min_size=euler_phi(n), max_size=euler_phi(n)).map(lambda c: Cyclotomic(n, c))
    forms = []
    for _ in range(2):
        d = draw(st.integers(0, 6))
        forms.append(BinaryForm(d, draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))))
    return forms


@settings(max_examples=150, deadline=None)
@given(_resultant_operands())
@example([BinaryForm.zero(0), BinaryForm.zero(0)])
@example([BinaryForm.zero(3), BinaryForm(0, [2])])
@example([BinaryForm(2, [0, 1, 1]), BinaryForm(3, [0, 1, 0, 1])])
def test_resultant_antisymmetry(ops):
    f, g = ops
    res = _assert_resultant(f, g)
    assert sylvester_resultant(g, f) == (-res if f.degree * g.degree % 2 else res)


def test_resultant_of_constructed_maps_and_conjugates():
    # the platonic maps of the construct-check workload and their SL2(Z)
    # conjugates: the same value, written the same way, as the determinant
    from symloci.moebius import MoebiusMap, conjugate_map
    from symloci.platonic import construct_symmetric_map
    from test_aut import M_PANEL

    for kind, d in (("octa", 13), ("tetra", 11), ("tetra", 13)):
        phi, _ = construct_symmetric_map(d, kind)
        res = sylvester_resultant(phi.F, phi.G)
        assert res.to_json() == _sylvester_determinant(phi.F, phi.G).to_json()
        for m in M_PANEL:
            psi = conjugate_map(phi, MoebiusMap(*m))
            got = sylvester_resultant(psi.F, psi.G)
            assert got.to_json() == _sylvester_determinant(psi.F, psi.G).to_json() == res.to_json(), (kind, d, m)


def test_partial_derivatives_and_euler():
    f = BinaryForm(3, [0, 1, 0, 0])  # X^2 Y
    fx, fy = partial_derivatives(f)
    assert fx == BinaryForm(2, [0, 2, 0])
    assert fy == BinaryForm(2, [1, 0, 0])
    xn = BinaryForm(4, [1, 0, 0, 0, 0])
    fx, fy = partial_derivatives(xn)
    assert fx == BinaryForm(3, [4, 0, 0, 0]) and fy.is_zero()
    rng = random.Random(2)
    for _ in range(8):
        d = rng.randint(1, 6)
        f = _random_form(rng, d, 3)
        fx, fy = partial_derivatives(f)
        x = BinaryForm(1, [1, 0])
        y = BinaryForm(1, [0, 1])
        assert x * fx + y * fy == f * d


def test_form_from_divisor():
    assert form_from_divisor(Divisor({P1Point.affine(0): 2})) == BinaryForm(2, [1, 0, 0])
    d = Divisor({P1Point.affine(1): 1, P1Point.affine(-1): 1})
    assert form_from_divisor(d) == BinaryForm(2, [1, 0, -1])
    assert form_from_divisor(Divisor({P1Point.infinity(): 1})) == BinaryForm(1, [0, 1])


def test_divisor_roundtrip_via_multiplicities():
    pts = [P1Point.affine(2), P1Point.affine(Fraction(-1, 3)), P1Point.infinity()]
    mults = [3, 1, 2]
    div = Divisor(dict(zip(pts, mults)))
    f = form_from_divisor(div)
    assert f.degree == div.degree
    for p, m in zip(pts, mults):
        assert multiplicity_at(f, p) == m
    assert multiplicity_at(f, P1Point.affine(7)) == 0


def test_form_gcd_examples():
    a = BinaryForm(3, [0, 1, 0, 0])  # X^2 Y
    b = BinaryForm(3, [0, 0, 1, 0])  # X Y^2
    assert form_gcd(a, b) == BinaryForm(2, [0, 1, 0])
    assert form_gcd(BinaryForm(2, [1, 0, 1]), BinaryForm(1, [1, -1])).degree == 0
    f = BinaryForm(3, [2, 0, 0, 2])
    assert form_gcd(f, f) == BinaryForm(3, [1, 0, 0, 1])


# -- form_gcd against the univariate-polynomial route it replaced -----------
#
# The oracle dehomogenizes both forms, runs Euclid with dense polynomials
# over the cyclotomics (lowest degree first), takes the monic gcd,
# homogenizes it and multiplies by the common power of Y.


def _ref_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_rem(a, b):
    rem = list(a)
    if len(rem) < len(b):
        return rem
    inv_lead = b[-1].inverse()
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv_lead
        if c:
            for j, bj in enumerate(b):
                rem[i + j] = rem[i + j] - c * bj
    return _ref_trim(rem)


def _ref_form_gcd(f, g):
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    v = min(f.y_valuation(), g.y_valuation())
    a, b = _ref_trim(list(reversed(f.coeffs))), _ref_trim(list(reversed(g.coeffs)))
    while b:
        a, b = b, _ref_rem(a, b)
    inv = a[-1].inverse()
    h = [c * inv for c in a]
    out = BinaryForm(len(h) - 1, list(reversed(h)))
    if v:
        out = out * BinaryForm(v, [0] * v + [1])  # Y^v
    return out.normalized()


@st.composite
def _gcd_operands(draw):
    n = draw(st.sampled_from([1, 4, 5, 12]))
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    coeff = st.lists(entry, min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda c: Cyclotomic(n, c)
    )

    def form(max_degree):
        d = draw(st.integers(0, max_degree))
        coeffs = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
        if not any(coeffs):
            coeffs[draw(st.integers(0, d))] = Cyclotomic.rational(1)
        return BinaryForm(d, coeffs)

    shared = form(3)
    ops = []
    for _ in range(2):
        v = draw(st.integers(0, 2))
        op = shared * BinaryForm(v, [0] * v + [1]) * form(3)
        if draw(st.integers(0, 9)) == 0:
            op = BinaryForm.zero(op.degree)
        ops.append(op)
    return ops


@settings(max_examples=150, deadline=None)
@given(_gcd_operands())
@example([BinaryForm(3, [0, 1, 0, 0]), BinaryForm(4, [0, 0, 1, 0, -1])])  # X^2 Y, X^2 Y^2 - Y^4
@example([BinaryForm(0, [3]), BinaryForm(2, [0, 1, 1])])
@example([BinaryForm.zero(2), BinaryForm(2, [0, 0, 2])])
@example([BinaryForm.zero(1), BinaryForm.zero(2)])
def test_form_gcd_matches_polynomial_euclid(ops):
    f, g = ops
    if f.is_zero() and g.is_zero():
        with pytest.raises(ValueError):
            form_gcd(f, g)
        return
    got, want = form_gcd(f, g), _ref_form_gcd(f, g)
    assert got == want and got.degree == want.degree
    assert form_gcd(g, f) == got


def test_distinct_common_roots():
    assert distinct_common_roots_count(BinaryForm(3, [0, 1, 0, 0]), BinaryForm(3, [1, 0, 0, 0])) == 1
    c = BinaryForm(2, [1, 0, -1])
    d = BinaryForm(3, [1, 0, -1, 0])
    assert distinct_common_roots_count(c, d) == 2
    assert distinct_common_roots_count(X2, Y2) == 0


@st.composite
def _monomial_and_other(draw):
    # c X^(n-i) Y^i and a sparse or zero form, degrees 0-14, all entries
    # zero or a root of unity times 1..3 at one conductor 1-12
    cond = draw(st.integers(1, 12))

    def entry():
        return Cyclotomic.zeta(cond, draw(st.integers(0, cond - 1))) * draw(st.integers(1, 3))

    n, m = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    mono = BinaryForm.monomial(n, draw(st.integers(0, n)), entry())
    other = BinaryForm(m, [entry() if draw(st.booleans()) else 0 for _ in range(m + 1)])
    return (mono, other) if draw(st.booleans()) else (other, mono)


@settings(max_examples=200, deadline=None)
@given(_monomial_and_other())
@example((BinaryForm.monomial(3, 3), BinaryForm(2, [0, 1, 0])))  # Y^3 and XY share [1:0] only
@example((BinaryForm.monomial(3, 0), BinaryForm(2, [0, 1, 0])))  # X^3 and XY share [0:1] only
@example((BinaryForm(2, [0, Cyclotomic.zeta(7) - 1, 0]), BinaryForm.zero(4)))
@example((BinaryForm.zero(0), BinaryForm.monomial(0, 0, 5)))
@example((BinaryForm.monomial(1, 1), BinaryForm.monomial(1, 1, Cyclotomic.zeta(3))))
def test_monomial_common_roots_match_the_gcd_route(case):
    f, g = case
    want = distinct_roots_count(form_gcd(f, g))
    assert distinct_common_roots_count(f, g) == distinct_common_roots_count(g, f) == want


def test_distinct_roots_count():
    f = form_from_divisor(
        Divisor({P1Point.affine(0): 3, P1Point.affine(1): 1, P1Point.infinity(): 2})
    )
    assert distinct_roots_count(f) == 3


def test_p1point_normalization_and_hash():
    p = P1Point(Cyclotomic.rational(4), Cyclotomic.rational(2))
    assert p == P1Point.affine(2)
    assert hash(p) == hash(P1Point.affine(2))
    q = P1Point(Cyclotomic.rational(3), Cyclotomic.rational(0))
    assert q.is_infinity() and q == P1Point.infinity()
    with pytest.raises(ValueError):
        P1Point(0, 0)


def test_rational_map_basics():
    phi = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])  # z^2
    assert phi.degree == 2
    assert phi.resultant() == 1
    assert phi.apply(P1Point.affine(3)) == P1Point.affine(9)
    assert phi.apply(P1Point.infinity()) == P1Point.infinity()
    j = phi.fixed_point_form()
    assert j == BinaryForm(3, [0, 1, -1, 0])
    psi = RationalMap(phi.F * Cyclotomic.zeta(3), phi.G * Cyclotomic.zeta(3))
    assert phi.proportional_to(psi)
    assert not phi.proportional_to(RationalMap.from_zpoly([1, 0, 1], [0, 0, 1]))


def test_zero_form_degree_bookkeeping():
    z = BinaryForm.zero(4)
    assert z.is_zero() and z.degree == 4
    f = BinaryForm(2, [1, 0, 1])
    assert (z * f).degree == 6
    with pytest.raises(ValueError):
        form_gcd(BinaryForm.zero(2), BinaryForm.zero(3))


def test_form_json_roundtrip():
    f = BinaryForm(2, [Cyclotomic.zeta(8), Cyclotomic.rational(Fraction(1, 2)), Cyclotomic.rational(0)])
    assert BinaryForm.from_json(f.to_json()) == f
