"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line
per criterion.
"""

import pytest

from symloci.aut import discover_automorphisms, is_automorphism, verify_group_action
from symloci.cyclotomic import Cyclotomic
from symloci.decomp import decompose, eigenform_classify, recompose
from symloci.forms import BinaryForm, RationalMap, substitute
from symloci.loci import (
    cyclic_existence_and_dim,
    dihedral_basis,
    dihedral_dim,
    generic_member,
    stalk_eigenvalue,
    stalk_order,
)
from symloci.moebius import MoebiusMap, standard_subgroup
from symloci.platonic import (
    NotRealizable,
    character_table,
    construct_symmetric_map,
    existence_residues,
    platonic_existence,
    invariant_locus_dimension,
    relevant_divisors,
    relevant_pairs,
)

ONE = Cyclotomic.rational(1)


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS - {msg}")


# -- 1 ------------------------------------------------------------------------


def _structured_pair(d, p):
    """Deterministic pseudo-structured degree-d pair #p."""
    vals = (0, 1, -1, 2, 3, -2, 5)
    zeta = (Cyclotomic.rational(1), Cyclotomic.zeta(4), Cyclotomic.zeta(3))[p % 3]

    def coeff(i, shift):
        v = vals[(p * (i + 2) + shift + d) % len(vals)]
        c = Cyclotomic.rational(v)
        if (p + i + shift) % 4 == 1:
            c = c * zeta
        if (p + i) % 5 == shift % 5:  # structured sparsity
            c = Cyclotomic.rational(0)
        return c

    f1 = BinaryForm(d, [coeff(i, 0) for i in range(d + 1)])
    f2 = BinaryForm(d, [coeff(i, 3) for i in range(d + 1)])
    if f1.is_zero() and f2.is_zero():
        f1 = BinaryForm.monomial(d, 0)
    return f1, f2


def _sl2_over_qi(j):
    i = Cyclotomic.zeta(4)
    small = (1, -1, 2, 0, -2)

    def val(k):
        c = Cyclotomic.rational(small[k % 5])
        return c + i * small[(k + 2) % 5] if k % 2 else c

    m = MoebiusMap(1, val(j), 0, 1)
    m = m.compose(MoebiusMap(1, 0, val(j + 1), 1))
    m = m.compose(MoebiusMap(1, val(j + 3), 0, 1))
    assert m.det() == ONE
    return m


def test_criterion_01_roundtrip_and_equivariance():
    for d in range(2, 11):
        for p in range(100):
            f1, f2 = _structured_pair(d, p)
            pair = decompose(f1, f2)
            g1, g2 = recompose(pair)
            assert g1 == f1 and g2 == f2
        for j in range(10):
            a = _sl2_over_qi(10 * d + j)
            f1, f2 = _structured_pair(d, j + 7)
            f1g, f2g = substitute(f1, a), substitute(f2, a)
            conj = decompose(f1g * a.d - f2g * a.b, f2g * a.a - f1g * a.c)
            pair = decompose(f1, f2)
            assert conj.H == substitute(pair.H, a)
            assert conj.J == substitute(pair.J, a)
    _ok(1, "900 exact roundtrips + 90 exact SL2 equivariance checks, d in 2..10")


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_cyclic_dimension_formulas():
    checked = 0
    for d in range(2, 11):
        for m in range(2, d + 2):
            for t, rep in cyclic_existence_and_dim(d, m):
                expected = 2 * (d - t) // m + t - 1
                assert rep.dim_moduli == expected
                for comp, idx in rep.certificate["bases"].items():
                    assert len(idx) - 1 == rep.dim_ratd  # projective adjustment
                    checked += 1
                if t == 0:
                    assert rep.components == 2
                    assert len(rep.certificate["bases"]) == 2
    assert checked >= 50
    _ok(2, f"eigenspace dimension == closed form for {checked} (d, m, t)-strata")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_dihedral_dimensions():
    checked = 0
    for d in range(2, 11):
        for m in range(2, d + 2):
            for t, rep in dihedral_dim(d, m):
                if t == 0:
                    assert not rep.exists
                    for mu in (1, -1):
                        for comp in ("inf", "zero"):
                            assert dihedral_basis(d, m, 0, mu, comp) == []
                    checked += 1
                    continue
                assert rep.exists, (d, m, t)
                expected = (d - 1) // m if t == 1 else (d + 1) // m - 1
                assert rep.dim_moduli == expected
                assert rep.certificate["free_parameters"] - 1 == expected
                assert verify_group_action(
                    RationalMap.from_zpoly(*rep.certificate["member"]), standard_subgroup("dihedral", m)
                ).all_verified
                checked += 1
    assert checked >= 25
    _ok(3, f"dihedral case split reproduced by constrained eigenspaces, {checked} cases")


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_platonic_enumeration():
    expected_sizes = {"tetra": [4, 4, 6], "octa": [6, 8, 12], "icosa": [12, 20, 30]}
    for kind, sizes in expected_sizes.items():
        rows = character_table(kind)
        assert [r.size for r in rows] == sizes
        assert sum(r.size for r in rows) == standard_subgroup(kind).order + 2
        assert len(relevant_divisors(kind)) == 8
        assert len(relevant_pairs(kind)) == 8  # all four conditions checked inside
    # characters per the table: tetra (chi, 1, chi^-1) on the order-3
    # generator; octa vertex orbit trivial, other two the sign character;
    # icosa all trivial
    t = character_table("tetra")
    assert t[2].character == (ONE, ONE)
    assert t[0].character[1] * t[1].character[1] == ONE != t[0].character[1]
    o = character_table("octa")
    cs = {r.size: r.character for r in o}
    assert cs[8] == (ONE, ONE) and cs[6] == cs[12] == (-ONE, ONE)
    assert all(r.character == (ONE, ONE) for r in character_table("icosa"))
    _ok(4, "3 degenerate orbits, characters, 8 relevant divisors + 8 pairs per group")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_platonic_dimension_theorem():
    cases = {"tetra": [3, 5, 7, 9, 11, 13], "octa": [5, 7, 11, 13], "icosa": [11, 19, 29, 31]}
    orders = {"tetra": 12, "octa": 24, "icosa": 60}
    for kind, ds in cases.items():
        for d in ds:
            assert invariant_locus_dimension(d, kind) == 2 * d // orders[kind], (kind, d)
    _ok(5, "linear-algebra dimension == floor(2d/|G|) on all 14 listed (group, d)")


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_degree5_example():
    f = RationalMap.from_zpoly([1, 0, 0, 0, -5, 0], [-5, 0, 0, 0, 1])
    i = Cyclotomic.zeta(4)
    assert is_automorphism(f, MoebiusMap.scaling(i))
    assert is_automorphism(f, MoebiusMap(i, i, 1, -1))
    phi, report = construct_symmetric_map(5, "octa")
    assert report.all_verified and len(report.verified_elements) == 24
    assert phi.proportional_to(f)
    disc = discover_automorphisms(f, tolerance=1e-8)
    assert disc.numeric_order == 24
    assert disc.census == {1: 1, 2: 9, 3: 8, 4: 6}
    _ok(6, "(z^5-5z)/(1-5z^4): 24 exact automorphisms, numeric census {1,9,8,6}")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_a5_residues():
    residues = {d % 30 for d in range(2, 62) if platonic_existence(d, "icosa")}
    assert residues == {1, 11, 19, 29}
    assert existence_residues("icosa", 30) == {1, 11, 19, 29}
    assert 21 not in residues  # adjudicates the residue list in favor of 29
    phi, report = construct_symmetric_map(11, "icosa")
    assert report.all_verified and len(report.verified_elements) == 60
    _ok(7, "A5 residues mod 30 = {1, 11, 19, 29}; d=11 map with 60 exact automorphisms")


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_stalk_orders():
    checked = 0
    for d in range(2, 11):
        for m in range(2, d + 2):
            for t in (1, 0, -1):
                if (d - t) % m or (d - t) // m < 1:
                    continue
                s = stalk_order(d, m, t)
                dprime = (d - t) // m
                if t in (1, -1):
                    assert s == (1 if dprime % 2 == 0 else 2)
                else:
                    assert s == (m if d % 2 else 2 * m)
                # direct eigenvalue computation on a certificate member
                comp = "inf" if t >= 0 else "zero"
                F, G = generic_member(d, m, t, comp)
                eta = Cyclotomic.zeta(2 * m)
                coeffs = F + G
                lams = set()
                for k, c in enumerate(coeffs):
                    if c:
                        side, idx = ("a", k) if k <= d else ("b", k - d - 1)
                        lams.add(stalk_eigenvalue(d, (side, idx), eta))
                assert len(lams) == 1
                assert lams.pop().ru_order() == s
                checked += 1
    assert checked >= 30
    _ok(8, f"stalk orders match the case table on {checked} certificate members")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_eigenform_table():
    minus_one = Cyclotomic.rational(-1)
    checked = 0
    for m in range(1, 6):
        eta = Cyclotomic.zeta(2 * m)
        for k in range(1, 13):
            # top-left: F(0) != 0 != F(inf), support = 0 mod m
            if k % m == 0:
                sup = [i for i in range(k + 1) if i % m == 0]
                f = BinaryForm(k, [(i + 1 if i in sup else 0) for i in range(k + 1)])
                rep = eigenform_classify(f, m, eta)
                assert rep.divisibility == "m|k"
                assert rep.eigenvalue == minus_one ** (k // m)
                checked += 1
            # top-right: F(0) = 0, F(inf) != 0
            if (k - 1) % m == 0 and k >= 1:
                sup = [i for i in range(k) if i % m == 0]
                if (k - 1) in sup:
                    f = BinaryForm(k, [(i + 1 if i in sup else 0) for i in range(k + 1)])
                    rep = eigenform_classify(f, m, eta)
                    assert rep.divisibility == "m|k-1"
                    assert rep.eigenvalue == minus_one ** ((k - 1) // m) * eta
                    checked += 1
            # bottom-left: F(0) != 0, F(inf) = 0
            if (k - 1) % m == 0 and k >= 1:
                sup = [i for i in range(1, k + 1) if i % m == 1 % m]
                if 1 in sup and k in sup:
                    f = BinaryForm(k, [(i + 1 if i in sup else 0) for i in range(k + 1)])
                    rep = eigenform_classify(f, m, eta)
                    assert rep.divisibility == "m|k-1"
                    assert rep.eigenvalue == minus_one ** ((k - 1) // m) * eta.inverse()
                    checked += 1
            # bottom-right: F(0) = F(inf) = 0
            if (k - 2) % m == 0 and k >= 2:
                sup = [i for i in range(1, k) if i % m == 1 % m]
                if 1 in sup and (k - 1) in sup:
                    f = BinaryForm(k, [(i + 1 if i in sup else 0) for i in range(k + 1)])
                    rep = eigenform_classify(f, m, eta)
                    assert rep.divisibility == "m|k-2"
                    assert rep.eigenvalue == minus_one ** ((k - 2) // m)
                    checked += 1
    assert checked >= 40
    _ok(9, f"all four eigenform cells verified exactly on {checked} forms, m <= 5, k <= 12")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_negative_controls():
    for d in (4, 6):
        for kind in ("tetra", "octa", "icosa"):
            assert not platonic_existence(d, kind)
            with pytest.raises(NotRealizable):
                construct_symmetric_map(d, kind)
    import random

    rng = random.Random(2024)
    catalog = [standard_subgroup("cyclic", m) for m in (2, 3, 4)]
    catalog += [standard_subgroup("dihedral", m) for m in (2, 3)]
    catalog.append(standard_subgroup("tetra"))
    tested = 0
    while tested < 3:
        phi = RationalMap.from_zpoly(
            [rng.randint(1, 9) for _ in range(4)], [rng.randint(1, 9) for _ in range(4)]
        )
        if not phi.is_in_ratd():
            continue
        rep = discover_automorphisms(phi)
        assert rep.numeric_order == 1 and rep.census == {1: 1}
        for group in catalog:
            for e in group.elements:
                if not e.is_identity():
                    assert not is_automorphism(phi, e)
        tested += 1
    _ok(10, "d in {4,6} NotRealizable; generic cubics have trivial automorphisms")
