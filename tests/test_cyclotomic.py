"""Field kernel: cyclotomic arithmetic, polynomials, exact linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symloci.cyclotomic import (
    Cyclotomic,
    ExactMatrix,
    NonSquare,
    Poly,
    canonical_reduce,
    complex_embedding,
    cyclotomic_polynomial,
    euler_phi,
    rational_sqrt,
)

CONDUCTORS = [1, 3, 4, 5, 8, 12]


def _rat(p, q):
    return Cyclotomic.rational(Fraction(p, q))


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_small():
    def as_ints(p):
        return [c.as_rational() for c in p.coeffs]

    assert as_ints(cyclotomic_polynomial(1)) == [-1, 1]
    assert as_ints(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert as_ints(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomial_degree_and_root():
    for n in CONDUCTORS + [6, 10, 20, 60]:
        p = cyclotomic_polynomial(n)
        assert p.degree == euler_phi(n)
        assert not p(Cyclotomic.zeta(n))


def test_canonical_reduce_examples():
    assert canonical_reduce([0, 0, 1], 4) == -1
    assert canonical_reduce([5], 7) == 5
    assert canonical_reduce([0, 1, 1, 1, 1], 5) == -1


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
            assert abs(complex_embedding(a + b) - (a.complex() + b.complex())) < 1e-9
            assert abs(complex_embedding(a * b) - (a.complex() * b.complex())) < 1e-9


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


def test_ru_order_and_decomposition():
    assert Cyclotomic.zeta(8).ru_order() == 8
    assert Cyclotomic.rational(-1).ru_order() == 2
    assert Cyclotomic.rational(5).ru_order() is None
    r, rho = (Cyclotomic.zeta(4) * 6).as_ru_times_rational()
    assert r == 6 and rho == Cyclotomic.zeta(4)
    assert (Cyclotomic.zeta(5) + 1).as_ru_times_rational() is None


def test_rational_sqrt():
    for q in (2, 3, 5, 6, 12, Fraction(9, 4), Fraction(2, 3), -5, -1, 0):
        s = rational_sqrt(q)
        assert s * s == Cyclotomic.rational(Fraction(q))


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


# -- polynomials -------------------------------------------------------------


def test_poly_divmod_gcd():
    x = Poly.from_rationals
    a = x([2, 0, -2])  # -2t^2 + 2 ... coefficients low-first: 2 - 2t^2
    b = x([1, 1])  # 1 + t
    q, r = a.divmod(b)
    assert q * b + r == a
    g = x([-1, 0, 1]).gcd(x([1, 1]))  # t^2-1 vs t+1
    assert g == x([1, 1])


def test_poly_derivative_eval():
    p = Poly.from_rationals([1, 2, 3])  # 1 + 2t + 3t^2
    assert p.derivative() == Poly.from_rationals([2, 6])
    assert p(Cyclotomic.rational(2)) == 17


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
            assert all(not e for e in m.mul_vector(v))


def test_determinant_examples():
    ident = ExactMatrix.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert ident.determinant() == 1
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert swap.determinant() == -1
    z4 = Cyclotomic.zeta(4)
    assert ExactMatrix.from_rows([[1, z4], [z4, 1]]).determinant() == 2
    with pytest.raises(NonSquare):
        ExactMatrix(2, 3, [0] * 6).determinant()
