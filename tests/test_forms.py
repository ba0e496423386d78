"""Binary forms: substitution action, resultants, gcds, divisors."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from symloci import forms
from symloci.aut import _verified_type
from symloci.cyclotomic import Cyclotomic, ExactMatrix, _image_field, euler_phi
from symloci.forms import (
    BinaryForm,
    DegreeMismatch,
    Divisor,
    P1Point,
    RationalMap,
    _C0,
    _accumulate_product,
    _cy,
    _product_mod,
    distinct_common_roots_count,
    distinct_roots_count,
    form_from_divisor,
    form_gcd,
    partial_derivatives,
    resultant_pair,
    substitute,
    sylvester_resultant,
)
from symloci.moebius import MoebiusMap

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
            _accumulate_product(out, [coef * x for x in pows1[n - i]], pows2[i])
    return out


def _assert_matches_the_power_table(f, g):
    # the values of the oracle; a form whose nonzero coefficients share one
    # conductor m comes back with every nonzero coefficient stored at
    # lcm(m, a.n, b.n, c.n, d.n) and every zero the one rational _C0
    got = substitute(f, g).coeffs
    assert list(got) == _dense_substitute(f, *g)
    conductors = {x.n for x in f.coeffs if x}
    if len(conductors) <= 1:
        N = lcm(*conductors, *(_cy(x).n for x in g))
        assert all(c.n == N if c else c is _C0 for c in got)


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
    _assert_matches_the_power_table(*case)


@settings(max_examples=200, deadline=None)
@given(_dense_substitutions())
@example((BinaryForm.zero(6), (1, 2, Cyclotomic.zeta(5), 3)))
@example((BinaryForm(0, [Cyclotomic.zeta(7, 3)]), (1, Cyclotomic.zeta(4), 3, 2)))
@example((BinaryForm(5, [0, 0, Cyclotomic.zeta(3), 0, 0, 0]), (1, 1, 0, 1)))
@example((BinaryForm(4, [1, 0, 0, 0, Cyclotomic.zeta(8)]), (Cyclotomic.zeta(5), 0, Cyclotomic.zeta(12), 1)))
@example((BinaryForm(3, [2, 1, Fraction(1, 3), Cyclotomic.zeta(5)]), (Cyclotomic.zeta(5) * 0, 1, -1, Cyclotomic.zeta(4))))
def test_dense_substitution_matches_the_power_table(case):
    _assert_matches_the_power_table(*case)


# The packed Horner kernel of ``substitute`` against the same oracle, where
# the hypothesis draws rarely go: a digit at its a-priori bound, high degree,
# coefficients at several conductors and denominators, zero entries stored
# at a conductor above 1, singular matrices, degree 0 and the zero form.
Z5, Z12 = Cyclotomic.zeta(5), Cyclotomic.zeta(12)
EDGE_SUBSTITUTIONS = [
    # +-(2^k - 1) X^n under (X, Y) -> (X, X + Y), which fixes it: the one digit equals the l1 bound
    *((BinaryForm.monomial(n, 0, s * (2**k - 1)), (1, 0, 1, 1)) for k in (1, 7, 31, 64) for n in (0, 5) for s in (1, -1)),
    *((BinaryForm.monomial(4, 0, s * (2**k - 1) * Z5), (1, 0, Z5, 1)) for k in (3, 40) for s in (1, -1)),
    # negative entries of maximal l1 norm: the one term reaches the bound, its sign alternating with n
    *((BinaryForm(n, [-(2**k - 1)] + [0] * n), (-3, 0, -2, -1)) for k in (5, 33) for n in (1, 4, 7)),
    (BinaryForm(6, [-7, 0, 0, 0, 0, 0, -7]), (-1, -1, -1, 1)),
    # degrees up to 40
    *((_random_form(random.Random(f"deg:{n}:{m}"), n, m), (1, 2, Cyclotomic.zeta(m), -3)) for n in (25, 40) for m in (1, 5)),
    (_random_form(random.Random("deg:40:int"), 40, 12), (2, -1, 3, 1)),
    (_random_form(random.Random("deg:33:i"), 33, 4), (Cyclotomic.zeta(4), Cyclotomic.zeta(4), 1, -1)),
    # coefficients at several conductors and denominators, entries with denominators
    (
        BinaryForm(5, [Fraction(1, 2), Z5 / 3, 0, Z12 * 7, Cyclotomic.zeta(4) - Fraction(1, 6), 5]),
        (1, Fraction(1, 2), Z5, 2),
    ),
    (
        BinaryForm(4, [Z12 / 4, Cyclotomic.zeta(8, 3), Fraction(-2, 9), Z5 + Z12, Cyclotomic.zeta(3)]),
        (Fraction(2, 3), Z12, Z5, -1),
    ),
    (BinaryForm(3, [Z5, Z5 / 2, 1, Fraction(1, 3)]), (Z12 / 5, Fraction(-1, 4), 1, Z5)),
    # zero entries stored at conductors above 1, and singular matrices
    (BinaryForm(5, [1, Z5, 0, Z12, 2, -1]), (Z5 * 0, 1, 1, Z12)),
    (BinaryForm(5, [1, Z5, 0, Z12, 2, -1]), (1, Z12 * 0, Z5, 1)),
    (BinaryForm(4, [Z12, 0, 3, Z5, 1]), (1, Z5, Z12 * 0, Cyclotomic.zeta(7))),
    (BinaryForm(4, [Z12, 0, 3, Z5, 1]), (1, 1, Z5, Z5 * 0)),
    (BinaryForm(4, [2, Z5, 0, 1, Z12]), (1, 1, 0, 0)),
    (BinaryForm(4, [2, Z5, 0, 1, Z12]), (0, 0, Z5, 1)),
    (BinaryForm(4, [2, Z5, 0, 1, Z12]), (0, Z12, 0, 1)),
    (BinaryForm(4, [2, Z5, 0, 1, Z12]), (Z5, 0, 1, 0)),
    (BinaryForm(4, [2, Z5, 0, 1, Z12]), (Z5 * 0, 0, 0, Z12 * 0)),
    # degree 0 and the zero form
    (BinaryForm(0, [Z12 - Fraction(1, 3)]), (1, Z5, 2, 3)),
    (BinaryForm(0, [0]), (1, 1, 1, 2)),
    (BinaryForm.zero(7), (1, Z5, 2, 3)),
    (BinaryForm(3, [Z5 * 0, 0, Z12 * 0, 0]), (1, Z5, 2, 3)),
]


@pytest.mark.parametrize("case", range(len(EDGE_SUBSTITUTIONS)))
def test_packed_substitution_edges_match_the_power_table(case):
    _assert_matches_the_power_table(*EDGE_SUBSTITUTIONS[case])


def _spy_on_passes(monkeypatch):
    # the conductor m of each packed Horner pass that substitute runs
    passes, real = [], forms._packed_horner
    monkeypatch.setattr(forms, "_packed_horner", lambda coeffs, m, *g: passes.append(m) or real(coeffs, m, *g))
    return passes


def test_every_matrix_takes_the_packed_pass_and_stores_at_its_field(monkeypatch):
    passes, z4 = _spy_on_passes(monkeypatch), Cyclotomic.zeta(4)
    (c,) = substitute(BinaryForm(0, [Cyclotomic.zeta(7, 3)]), (1, z4, 3, 2)).coeffs
    assert c == Cyclotomic.zeta(7, 3) and c.n == 28
    f = BinaryForm(3, [Z5, 0, 2 * Z5, 1 + Z5])
    assert [(c.n, c.nums) for c in substitute(f, (1, 0, 0, 1)).coeffs] == [(c.n, c.nums) for c in f.coeffs]
    got = substitute(f, (z4, 0, 0, 2)).coeffs  # diagonal: coef a^(3-i) d^i in place
    assert list(got) == [x * z4 ** (3 - i) * 2**i for i, x in enumerate(f.coeffs)]
    assert [c.n for c in got] == [20, 1, 20, 20] and got[1] is _C0
    assert passes == [7, 5, 5]


MIXED_CONDUCTORS = (5, 7, 8, 9, 11, 12)
MIXED_FORM = BinaryForm(11, [Cyclotomic.zeta(MIXED_CONDUCTORS[i % 6], i) * (i % 4 + 1) + (i % 3 - 1) for i in range(12)])


def test_each_packed_pass_takes_one_conductor(monkeypatch):
    # six passes, each in a field of conductor at most 44, where one pass at
    # the lcm of the six conductors would multiply 27720-digit ints throughout
    passes, g = _spy_on_passes(monkeypatch), (Cyclotomic.zeta(4), 1, 2, 3)
    assert list(substitute(MIXED_FORM, g).coeffs) == _dense_substitute(MIXED_FORM, *g)
    assert sorted(passes) == list(MIXED_CONDUCTORS)


def test_mixed_conductor_passes_are_folded_once_at_their_lcm(monkeypatch):
    # the six passes' digits are added at L = lcm(20, 28, 8, 36, 44, 12) =
    # 27720 and folded once per coefficient, with no Cyclotomic addition
    folds, adds, g = [], [], (Cyclotomic.zeta(4), 1, 2, 3)
    real_fold, real_add = forms._fold, Cyclotomic.__add__
    monkeypatch.setattr(forms, "_fold", lambda n, phi, raw: folds.append(n) or real_fold(n, phi, raw))
    monkeypatch.setattr(Cyclotomic, "__add__", lambda x, y: adds.append(x) or real_add(x, y))
    got = substitute(MIXED_FORM, g).coeffs
    assert folds.count(27720) == 12 and not adds
    monkeypatch.undo()
    assert list(got) == _dense_substitute(MIXED_FORM, *g)
    assert all(c.n == 27720 if c else c is _C0 for c in got)


@pytest.mark.parametrize("p", [2**61 - 1, _image_field(5)[0], _image_field(12)[0]])
def test_product_mod_matches_the_schoolbook_product(p):
    # residues of the convolution, inputs unreduced: negative, above p and
    # near p in size
    rng = random.Random(p)
    for lf, lg in [(1, 1), (1, 9), (7, 3), (9, 300), (10, 10), (40, 40), (64, 257), (300, 12)]:
        f = [rng.choice([p - 1, -1, rng.randrange(-(p**2), p**2)]) for _ in range(lf)]
        g = [rng.choice([p - 1, 1 - p, rng.randrange(-5 * p, 5 * p)]) for _ in range(lg)]
        want = [sum(f[i] * g[k - i] for i in range(max(0, k - lg + 1), min(k, lf - 1) + 1)) % p for k in range(lf + lg - 1)]
        assert _product_mod(f, g, p) == want


@st.composite
def _maps_with_stored_zeros(draw):
    # coefficients at conductors 1 and n, zeros the rational 0 or stored at n
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    zeros = st.sampled_from([Cyclotomic.rational(0), Cyclotomic.zeta(n) * 0])

    def coeff():
        return draw(zeros) if draw(st.booleans()) else _element(draw, draw(st.sampled_from([1, n])))

    f, g = ([coeff() for _ in range(d + 1)] for _ in "FG")
    return RationalMap(BinaryForm(d, f), BinaryForm(d, g)) if any(f + g) else RationalMap.from_zpoly([1, 0], [0, 1])


@settings(max_examples=200, deadline=None)
@given(_maps_with_stored_zeros())
@example(RationalMap(BinaryForm(1, [Cyclotomic.zeta(5) * 0, 1]), BinaryForm(1, [Cyclotomic.zeta(7), 0])))
def test_fixed_point_form_matches_the_padded_difference(phi):
    # Y F - X G: every coefficient, and the conductor it is stored at, as
    # the difference of the two padded forms gives it
    d, F, G = phi.degree, phi.F.coeffs, phi.G.coeffs
    want = BinaryForm(d + 1, [0, *F]) - BinaryForm(d + 1, [*G, 0])
    got = phi.fixed_point_form()
    assert got.degree == d + 1
    assert [(c.n, c.nums, c.den) for c in got.coeffs] == [(c.n, c.nums, c.den) for c in want.coeffs]


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
# The first oracle is the definition: n shifted rows of F's coefficients
# over m shifted rows of G's, an (m+n) x (m+n) matrix, and its determinant
# by ExactMatrix.determinant.  The second is the route the resultant took
# before, monic Euclid over the field (``oracle_euclid_resultant``).  The
# resultant runs the subresultant remainder sequence on integral numerators
# instead, so zero forms, degree 0, zero top coefficients (a root at [1:0]),
# zero bottom ones (a root at [0:1]), cleared denominators and abnormal
# sequences (a degree drop of 2 or more) are each checked here.

RESULTANT_CONDUCTORS = [1, 4, 5, 8, 12]


def _sylvester_determinant(f, g):
    m, n = f.degree, g.degree
    rows = [[0] * s + list(f.coeffs) + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + list(g.coeffs) + [0] * (m - 1 - s) for s in range(m)]
    return ExactMatrix.from_rows(rows).determinant()


def oracle_euclid_resultant(f, g):
    # Res(A, B) = (-1)^(ab) lc(B)^(a-r) Res(B, A mod B) on A = F(x, 1),
    # B = G(x, 1), r = deg(A mod B), each remainder by monic field Euclid,
    # after the same declared-degree prologue
    m, n = f.degree, g.degree
    if not n or not m:
        res = g.coeffs[0] ** m if not n else f.coeffs[0] ** n
        return res if res else Cyclotomic.rational(0)
    a, b = _ref_trim(list(f.coeffs[::-1])), _ref_trim(list(g.coeffs[::-1]))
    if not a or not b or (len(a) <= m and len(b) <= n):
        return Cyclotomic.rational(0)
    da, db = len(a) - 1, len(b) - 1
    res = a[-1] ** (n - db) * b[-1] ** (m - da) * (-1) ** (n * (m - da))
    while db:
        r = _ref_rem(a, b)
        if not r:
            return Cyclotomic.rational(0)
        res = res * b[-1] ** (da - len(r) + 1) * (-1) ** (da * db)
        a, b, da, db = b, r, db, len(r) - 1
    return res * b[0] ** da


def _assert_resultant(f, g):
    got, want = sylvester_resultant(f, g), _sylvester_determinant(f, g)
    assert got == want == oracle_euclid_resultant(f, g), (f, g, got, want)
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
            want = _sylvester_determinant(psi.F, psi.G).to_json()
            assert got.to_json() == want == oracle_euclid_resultant(psi.F, psi.G).to_json() == res.to_json(), m


def _abnormal_pair(rng, conductor, db, drop):
    # A = Q B + R with deg B = db and deg R = db - drop, so that A mod B = R
    # and the second step of the remainder sequence drops the degree by drop
    b = _random_form(rng, db, conductor)
    b = BinaryForm(db, [b.coeffs[0] or Cyclotomic.rational(1), *b.coeffs[1:]])
    r = _random_form(rng, db - drop, conductor)
    r = BinaryForm(db - drop, [r.coeffs[0] or Cyclotomic.rational(2), *r.coeffs[1:]])
    q = BinaryForm(2, [Fraction(1, 3), Cyclotomic.zeta(conductor) if conductor > 1 else 2, -1])
    a = q * b + BinaryForm(db + 2, [0] * (drop + 2) + list(r.coeffs))
    return a, b, r


@pytest.mark.parametrize("conductor", RESULTANT_CONDUCTORS)
def test_resultant_and_gcd_on_abnormal_remainder_sequences(conductor):
    # delta >= 2 in both steps, so the scale h is updated as g^delta / h^(delta - 1)
    rng = random.Random(f"abnormal:{conductor}")
    for db, drop in ((4, 3), (6, 3), (6, 4), (7, 5)):
        a, b, r = _abnormal_pair(rng, conductor, db, drop)
        assert _ref_rem(list(a.coeffs[::-1]), list(b.coeffs[::-1])) == list(r.coeffs[::-1])
        _assert_resultant(a, b)
        _assert_resultant(b, a)
        c = BinaryForm(2, [1, 0, Fraction(-1, 2)])  # a shared factor
        assert not _assert_resultant(a * c, b * c)
        for f, g in ((a * c, b * c), (a, b), (b * c, a * c * c)):
            assert form_gcd(f, g) == oracle_euclid_gcd(f, g) == _ref_form_gcd(f, g)


def test_resultant_with_cleared_denominators_and_unequal_degrees():
    rng = random.Random(12)
    for conductor in RESULTANT_CONDUCTORS:
        for m, n in ((5, 2), (2, 5), (1, 6), (7, 3), (4, 4)):
            f, g = (_edged_form(rng, k, conductor) for k in (m, n))
            scale = [Fraction(1, 6), Fraction(-5, 4), Cyclotomic.zeta(conductor) / 7]
            f = BinaryForm(m, [c * scale[i % 3] for i, c in enumerate(f.coeffs)])
            _assert_resultant(f, g)
            _assert_resultant(g, f)


def test_rational_resultants_and_gcds_make_no_field_operation(monkeypatch):
    # every coefficient rational: the sequence runs on Python ints, so no
    # Cyclotomic product or inverse is taken, denominators or not
    from symloci.moebius import MoebiusMap, conjugate_map
    from symloci.platonic import construct_symmetric_map
    from test_aut import M_PANEL

    phi = conjugate_map(construct_symmetric_map(13, "octa")[0], MoebiusMap(*M_PANEL[0]))
    half = BinaryForm(3, [Fraction(1, 2), 0, Fraction(-3, 4), 5])
    shared = BinaryForm(4, [1, Fraction(2, 3), 0, 0, -1]) * half
    cases = [
        (sylvester_resultant, phi.F, phi.G),
        (sylvester_resultant, half, BinaryForm(2, [0, Fraction(1, 3), 2])),
        (form_gcd, shared * BinaryForm(2, [3, 0, 1]), shared * BinaryForm(3, [0, 1, 7, Fraction(1, 5)])),
        (form_gcd, *partial_derivatives(phi.F)),
    ]
    want = [fn(f, g) for fn, f, g in cases]
    calls = []
    for name in ("__mul__", "__rmul__", "inverse"):
        real = getattr(Cyclotomic, name)
        monkeypatch.setattr(Cyclotomic, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    got = [fn(f, g) for fn, f, g in cases]
    assert not calls
    assert got == want and got[2] == shared.normalized()


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


def test_form_from_divisor_is_the_product_of_the_linear_forms():
    # 0, infinity and points at conductors 1, 4, 5 and 60, with
    # multiplicities up to 3: the same coefficients, and the same
    # representations, as the product normalized and minimized
    z = Cyclotomic.zeta
    points = [
        P1Point.affine(0),
        P1Point.infinity(),
        P1Point.affine(Fraction(-2, 3)),
        P1Point.affine(z(4) + 1),
        P1Point.affine(z(5, 2) - Fraction(1, 2)),
        P1Point(z(5), z(4) + 2),
        P1Point.affine(z(60, 7) * 3),
    ]
    rng = random.Random(5)
    for _ in range(12):
        div = Divisor({p: rng.randint(1, 3) for p in rng.sample(points, rng.randint(1, len(points)))})
        product = BinaryForm(0, [1])
        for p, m in div.terms.items():
            for _ in range(m):
                product = product * linear_form(p)
        got = form_from_divisor(div)
        assert got == product.normalized().minimized()
        assert got.to_json() == product.normalized().minimized().to_json()
        assert got.degree == div.degree


def linear_form(p):
    """The degree-1 form y*X - x*Y vanishing exactly at p."""
    return BinaryForm(1, [p.y, -p.x])


def multiplicity_at(f, p):
    """Order of vanishing of f at p, by exact trial division."""
    if f.is_zero():
        raise ValueError("zero form vanishes everywhere")
    lf = linear_form(p)
    count = 0
    cur = f
    while cur.degree >= 1:
        quo, ok = _divide_by_linear(cur, lf)
        if not ok:
            break
        cur = quo
        count += 1
    return count


def _divide_by_linear(f, lf):
    # divide f by lf = u*X + v*Y exactly; returns (quotient, divides?)
    u, v = lf.coeffs
    n = f.degree
    q = [Cyclotomic.rational(0)] * n
    rem = list(f.coeffs)
    if u:
        inv = u.inverse()
        for i in range(n):
            q[i] = rem[i] * inv
            rem[i + 1] = rem[i + 1] - q[i] * v
            rem[i] = Cyclotomic.rational(0)
        return BinaryForm(n - 1, q), not rem[n]
    inv = v.inverse()
    for i in range(n, 0, -1):
        q[i - 1] = rem[i] * inv
        rem[i - 1] = rem[i - 1] - q[i - 1] * u
        rem[i] = Cyclotomic.rational(0)
    return BinaryForm(n - 1, q), not rem[0]


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


def oracle_euclid_gcd(f, g):
    # monic field Euclid on F1(x, 1) and G1(x, 1) after the common Y-power
    # is split off, the route form_gcd took before
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero() or g.is_zero():
        return (g if f.is_zero() else f).normalized()
    vf, vg = f.y_valuation(), g.y_valuation()
    a, b = list(f.coeffs[vf:])[::-1], list(g.coeffs[vg:])[::-1]
    while b:
        a, b = b, _ref_rem(a, b)
    v = min(vf, vg)
    return BinaryForm(v + len(a) - 1, [0] * v + a[::-1]).normalized()


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
    assert got == want == oracle_euclid_gcd(f, g) and got.degree == want.degree
    assert form_gcd(g, f) == got


def test_distinct_common_roots():
    assert distinct_common_roots_count(BinaryForm(3, [0, 1, 0, 0]), BinaryForm(3, [1, 0, 0, 0])) == 1
    c = BinaryForm(2, [1, 0, -1])
    d = BinaryForm(3, [1, 0, -1, 0])
    assert distinct_common_roots_count(c, d) == 2
    assert distinct_common_roots_count(X2, Y2) == 0
    assert distinct_common_roots_count(BinaryForm.monomial(3, 3), XY) == 1  # [1:0] only
    assert distinct_common_roots_count(BinaryForm.monomial(3, 0), XY) == 1  # [0:1] only
    assert distinct_common_roots_count(XY * (Cyclotomic.zeta(7) - 1), BinaryForm.zero(4)) == 2
    assert distinct_common_roots_count(BinaryForm.zero(0), BinaryForm.monomial(0, 0, 5)) == 0


@st.composite
def _map_and_diagonal(draw):
    # a map of degree 1-8 and diag(a, d), a != d, all entries zero (in the
    # map) or a root of unity times 1..3 at one conductor 1-12, so F_d and
    # G_0 are often 0
    cond = draw(st.integers(1, 12))

    def entry():
        return Cyclotomic.zeta(cond, draw(st.integers(0, cond - 1))) * draw(st.integers(1, 3))

    n = draw(st.integers(1, 8))
    F, G = ([entry() if draw(st.booleans()) else 0 for _ in range(n + 1)] for _ in range(2))
    if not any(F + G):
        F[0] = entry()
    a, d = entry(), entry()
    return RationalMap(BinaryForm(n, F), BinaryForm(n, G)), MoebiusMap(a, 0, 0, -a if d == a else d)


@settings(max_examples=200, deadline=None)
@given(_map_and_diagonal())
@example((RationalMap(X2, Y2), MoebiusMap(-1, 0, 0, 1)))  # z^2 and -z share 0 and infinity
@example((RationalMap(Y2, X2), MoebiusMap(-1, 0, 0, 1)))  # 1/z^2 and -z share neither
@example((RationalMap(XY, Y2), MoebiusMap(Cyclotomic.zeta(3), 0, 0, 1)))  # Y F - X G = 0: all fixed
def test_monomial_common_roots_match_the_gcd_route(case):
    # a diagonal sigma's fixed-point form (d - a) X Y is a monomial: the
    # type read from F_d and G_0 counts its roots 0 and infinity that
    # Y F - X G shares, which the gcd route counts from the forms
    phi, sigma = case
    want = distinct_common_roots_count(phi.fixed_point_form(), sigma.fixed_point_form()) - 1
    assert _verified_type(phi, sigma) == want


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
    assert q == P1Point.infinity()
    with pytest.raises(ValueError):
        P1Point(0, 0)


def test_rational_map_basics():
    phi = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])  # z^2
    assert phi.degree == 2
    assert phi.resultant() == 1
    for p, image in ((P1Point.affine(3), P1Point.affine(9)), (P1Point.infinity(), P1Point.infinity())):
        assert P1Point(phi.F.evaluate(p.x, p.y), phi.G.evaluate(p.x, p.y)) == image
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
