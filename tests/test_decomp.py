"""The equivariant decomposition: roundtrips, torus action, eigenforms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symloci.cyclotomic import Cyclotomic
from symloci.decomp import (
    EigenformReport,
    FormPair,
    ForbiddenMultipleZero,
    NotAnEigenvector,
    decompose,
    decompose_map,
    diagonal_eigenvalue,
    eigenform_classify,
    gm_action,
    meets_ratd,
    recompose,
    recompose_map,
)
from symloci.forms import BinaryForm, RationalMap, substitute
from symloci.moebius import MoebiusMap


def test_identity_map_pair():
    p = decompose(BinaryForm(1, [1, 0]), BinaryForm(1, [0, 1]))
    assert p.H == BinaryForm(0, [2])
    assert p.J.is_zero() and p.J.degree == 2
    f, g = recompose(p)
    assert f == BinaryForm(1, [1, 0]) and g == BinaryForm(1, [0, 1])


def test_hand_expanded_example():
    p = decompose(BinaryForm(2, [1, 0, 0]), BinaryForm(2, [0, 0, 1]))
    assert p.H == BinaryForm(1, [2, 2])
    assert p.J == BinaryForm(3, [0, 1, -1, 0])
    f, g = recompose(p)
    assert f == BinaryForm(2, [1, 0, 0]) and g == BinaryForm(2, [0, 0, 1])


def test_rejects_zero_pair():
    with pytest.raises(ValueError):
        decompose(BinaryForm.zero(2), BinaryForm.zero(2))


def test_pure_j_inverse():
    j = BinaryForm(3, [0, 1, -1, 0])
    p = FormPair(2, BinaryForm.zero(1), j)
    f, g = recompose(p)
    third = Cyclotomic.rational(Fraction(1, 3))
    jx, jy = BinaryForm(2, [0, 2, -1]), BinaryForm(2, [1, -2, 0])
    assert f == jy * third and g == -(jx * third)


@given(
    d=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(d, seed):
    rng = random.Random(seed)
    coeffs = lambda: [
        Cyclotomic.rational(rng.randint(-4, 4)) + Cyclotomic.zeta(4) * rng.randint(-1, 1)
        for _ in range(d + 1)
    ]
    f1, f2 = BinaryForm(d, coeffs()), BinaryForm(d, coeffs())
    if f1.is_zero() and f2.is_zero():
        return
    pair = decompose(f1, f2)
    g1, g2 = recompose(pair)
    assert g1 == f1 and g2 == f2
    assert decompose(g1, g2) == pair
    # one vanishing component: F = 0, G = 0, then H = 0, J = 0
    zero_d = BinaryForm.zero(d)
    for g1, g2 in ((zero_d, f2), (f1, zero_d)):
        if not (g1.is_zero() and g2.is_zero()):
            assert recompose(decompose(g1, g2)) == (g1, g2)
    for h, j in ((BinaryForm.zero(d - 1), pair.J), (pair.H, BinaryForm.zero(d + 1))):
        if not (h.is_zero() and j.is_zero()):
            assert decompose(*recompose(FormPair(d, h, j))) == FormPair(d, h, j)


def _random_sl2_qi(rng):
    m = MoebiusMap.identity()
    for _ in range(3):
        b = Cyclotomic.rational(rng.randint(-2, 2)) + Cyclotomic.zeta(4) * rng.randint(-1, 1)
        m = m.compose(MoebiusMap(1, b, 0, 1) if rng.random() < 0.5 else MoebiusMap(1, 0, b, 1))
    return m


def test_equivariance():
    # decompose(conjugated pair) = substitution action on (H, J), exactly
    rng = random.Random(17)
    for _ in range(12):
        d = rng.randint(1, 6)
        f1 = BinaryForm(d, [Cyclotomic.rational(rng.randint(-3, 3)) for _ in range(d + 1)])
        f2 = BinaryForm(d, [Cyclotomic.rational(rng.randint(-3, 3)) for _ in range(d + 1)])
        if f1.is_zero() and f2.is_zero():
            continue
        a = _random_sl2_qi(rng)
        aa, ab, ac, ad = a.a, a.b, a.c, a.d
        f1g = substitute(f1, a)
        f2g = substitute(f2, a)
        conj = decompose(f1g * ad - f2g * ab, f2g * aa - f1g * ac)
        pair = decompose(f1, f2)
        assert conj.H == substitute(pair.H, a)
        assert conj.J == substitute(pair.J, a)


def test_gm_action_group_law_and_commutation():
    p = decompose(BinaryForm(2, [1, 2, 0]), BinaryForm(2, [0, 1, 1]))
    one = Cyclotomic.rational(1)
    assert gm_action(one, p) == p
    t = Cyclotomic.rational(2)
    q = gm_action(t, p)
    assert q.H == p.H * 2 and q.J == p.J * Fraction(1, 2)
    assert gm_action(t.inverse(), q) == p
    a = _random_sl2_qi(random.Random(3))
    left = gm_action(t, FormPair(p.d, substitute(p.H, a), substitute(p.J, a)))
    right = gm_action(t, p)
    assert left.H == substitute(right.H, a) and left.J == substitute(right.J, a)


def test_meets_ratd_cases():
    h = BinaryForm(1, [2, 2])
    j = BinaryForm(3, [0, 1, -1, 0])
    assert meets_ratd(FormPair(2, h, j))
    assert not meets_ratd(FormPair(2, BinaryForm(1, [1, 0]), BinaryForm(3, [0, 1, 0, 0])))
    assert meets_ratd(FormPair(2, BinaryForm(1, [0, 1]), BinaryForm(3, [0, 1, 0, 0])))
    # J = 0 conventions
    assert not meets_ratd(FormPair(2, h, BinaryForm.zero(3)))
    assert meets_ratd(FormPair(1, BinaryForm(0, [2]), BinaryForm.zero(2)))
    # H = 0: squarefree J decides
    assert meets_ratd(FormPair(2, BinaryForm.zero(1), j))
    assert not meets_ratd(FormPair(2, BinaryForm.zero(1), BinaryForm(3, [0, 1, 0, 0])))


def test_meets_ratd_is_torus_invariant():
    p = decompose_map(RationalMap.from_zpoly([1, 0, 1], [0, 1, 0]))
    for t in (2, Fraction(1, 3), -5):
        assert meets_ratd(gm_action(Cyclotomic.rational(t), p)) == meets_ratd(p)


def test_meets_ratd_witness_scale():
    # when the orbit meets, only finitely many scales fail: find a witness
    phi = RationalMap.from_zpoly([1, 0, 3], [0, 2, 0])
    pair = decompose_map(phi)
    assert meets_ratd(pair)
    witnesses = 0
    for t in range(1, 2 * phi.degree + 4):
        cand = recompose_map(gm_action(Cyclotomic.rational(t), pair))
        if cand.is_in_ratd():
            witnesses += 1
    assert witnesses >= phi.degree  # all but finitely many scales work


def test_eigenform_table_cells():
    eta = Cyclotomic.zeta(4)  # m = 2
    rep = eigenform_classify(BinaryForm(2, [1, 0, 1]), 2, eta)
    assert (rep.divisibility, rep.eigenvalue) == ("m|k", Cyclotomic.rational(-1))
    rep = eigenform_classify(BinaryForm(2, [0, 1, 0]), 1, Cyclotomic.rational(-1))
    assert (rep.divisibility, rep.eigenvalue) == ("m|k-2", Cyclotomic.rational(1))
    # F(0) = 0 cell: X(X^2+Y^2), lambda = -eta
    rep = eigenform_classify(BinaryForm(3, [1, 0, 1, 0]), 2, eta)
    assert (rep.divisibility, rep.eigenvalue) == ("m|k-1", -eta)
    # F(inf) = 0 cell: Y(X^2+Y^2), lambda = -1/eta = +eta here
    rep = eigenform_classify(BinaryForm(3, [0, 1, 0, 1]), 2, eta)
    assert (rep.divisibility, rep.eigenvalue) == ("m|k-1", -(eta.inverse()))


def test_eigenform_errors():
    eta = Cyclotomic.zeta(4)
    with pytest.raises(NotAnEigenvector):
        eigenform_classify(BinaryForm(2, [1, 1, 1]), 2, eta)
    with pytest.raises(ForbiddenMultipleZero):
        eigenform_classify(BinaryForm(4, [1, 0, 0, 0, 0]), 2, eta)  # inf is a 4-fold zero


def _four_cell_classify(f, m, eta):
    # the four hand-written support cells that eigenform_classify replaced
    # by one rule, kept as its oracle
    if eta.ru_order() != 2 * m:
        raise ValueError("eta must be a primitive 2m-th root of unity")
    lam = diagonal_eigenvalue(f, eta)
    k = f.degree
    c = f.coeffs
    at_zero = c[k]  # F(0,1)
    at_inf = c[0]  # F(1,0)
    if not at_zero and k >= 2 and not c[k - 1]:
        raise ForbiddenMultipleZero("0 is a multiple zero")
    if not at_inf and k >= 2 and not c[1]:
        raise ForbiddenMultipleZero("infinity is a multiple zero")
    minus_one = Cyclotomic.rational(-1)
    if at_zero and at_inf:
        if k % m:
            raise NotAnEigenvector("support contradicts the divisibility m|k")
        expected = minus_one ** (k // m)
        div = "m|k"
    elif not at_zero and at_inf:
        if (k - 1) % m:
            raise NotAnEigenvector("support contradicts m|k-1")
        expected = minus_one ** ((k - 1) // m) * eta
        div = "m|k-1"
    elif at_zero and not at_inf:
        if (k - 1) % m:
            raise NotAnEigenvector("support contradicts m|k-1")
        expected = minus_one ** ((k - 1) // m) * eta.inverse()
        div = "m|k-1"
    else:
        if (k - 2) % m:
            raise NotAnEigenvector("support contradicts m|k-2")
        expected = minus_one ** ((k - 2) // m)
        div = "m|k-2"
    if lam != expected:
        raise AssertionError("computed eigenvalue disagrees with the classification")
    return EigenformReport(k=k, m=m, divisibility=div, eigenvalue=lam)


def _classification_cases():
    # every residue class of supports mod m (an eigenform), with any of the
    # indices 0, 1, k-1, k dropped (every cell, and multiple zeros at 0 and
    # infinity), and with one index of another class added (no eigenform)
    for m in range(1, 7):
        for k in range(0, 13):
            supports = {()}
            for r in range(min(m, k + 1)):
                base = set(range(r, k + 1, m))
                for mask in range(16):
                    drop = {e for bit, e in enumerate((0, 1, k - 1, k)) if mask >> bit & 1}
                    supports.add(tuple(sorted(base - drop)))
                other = next((i for i in range(k + 1) if i % m != r), None)
                if other is not None:
                    supports.add(tuple(sorted(base | {other})))
            for sup in sorted(supports):
                f = BinaryForm(k, [i + 1 if i in sup else 0 for i in range(k + 1)])
                for j in range(2 * m):
                    yield f, m, Cyclotomic.zeta(2 * m, j)  # j not a unit: not primitive


def _outcome(classify, case):
    # the report with its eigenvalue as an exact key: conductor, numerators, denominator
    try:
        k, m, divisibility, lam = classify(*case)
    except (ValueError, AssertionError) as exc:
        return type(exc)
    return k, m, divisibility, (lam.n, lam.nums, lam.den)


def test_eigenform_classify_matches_the_four_cells():
    cells, errors = set(), set()
    for case in _classification_cases():
        got = _outcome(eigenform_classify, case)
        assert got == _outcome(_four_cell_classify, case), case
        if isinstance(got, tuple):
            cells.add((not case[0].coeffs[-1], not case[0].coeffs[0]))  # F(0) = 0, F(inf) = 0
        else:
            errors.add(got)
    assert cells == {(False, False), (True, False), (False, True), (True, True)}
    assert errors == {ValueError, NotAnEigenvector, ForbiddenMultipleZero}


def test_form_pair_json():
    p = decompose(BinaryForm(2, [1, 0, 0]), BinaryForm(2, [0, 0, 1]))
    assert FormPair.from_json(p.to_json()) == p
