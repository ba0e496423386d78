"""Platonic symmetry: orbits, characters, relevant pairs, dimensions,
construction."""

import pytest

from symloci.cyclotomic import Cyclotomic
from symloci.decomp import decompose_map
from symloci.forms import Divisor, P1Point, form_from_divisor
from symloci.platonic import (
    NotInImage,
    NotRealizable,
    character_group,
    character_table,
    construct_symmetric_map,
    existence_residues,
    fiber_dimension,
    invariant_eigenvalue_check,
    invariant_locus_dimension,
    lifted_scalar,
    platonic_existence,
    platonic_group,
    relevant_divisors,
    relevant_pairs,
)

ONE = Cyclotomic.rational(1)
ZETA3 = Cyclotomic.zeta(3)


def test_character_tables():
    rows = character_table("tetra")
    assert [r.size for r in rows] == [4, 4, 6]
    assert [r.stabilizer_order for r in rows] == [3, 3, 2]
    # the two vertex orbits carry inverse nontrivial cube-root characters
    # on the order-3 generator; the order-2 generator acts trivially
    c1, c2, c3 = (r.character for r in rows)
    assert c1[0] == c2[0] == c3[0] == ONE
    assert c3[1] == ONE
    assert c1[1] in (ZETA3, ZETA3 * ZETA3) and c2[1] == c1[1].inverse()

    rows = character_table("octa")
    assert [r.size for r in rows] == [6, 8, 12]
    chars = {r.size: r.character for r in rows}
    assert chars[8] == (ONE, ONE)
    assert chars[6] == chars[12]
    assert chars[6][0] == -ONE and chars[6][1] == ONE  # the sign character

    rows = character_table("icosa")
    assert [r.size for r in rows] == [12, 20, 30]
    assert all(r.character == (ONE, ONE) for r in rows)


def test_orbit_forms_are_eigenforms_of_the_lifts():
    for kind in ("tetra", "octa"):
        group = platonic_group(kind)
        for row in character_table(kind):
            for g, chi in zip(group.generators, row.character):
                assert lifted_scalar(row.form, g) == chi


def test_character_group_sizes():
    assert len(character_group(platonic_group("tetra"))) == 3
    assert len(character_group(platonic_group("octa"))) == 2
    assert len(character_group(platonic_group("icosa"))) == 1


def test_relevant_divisors():
    degs = sorted(d.degree for d in relevant_divisors("tetra"))
    assert degs == [0, 4, 4, 6, 8, 10, 10, 14]
    degs = sorted(d.degree for d in relevant_divisors("octa"))
    assert degs == [0, 6, 8, 12, 14, 18, 20, 26]
    degs = sorted(d.degree for d in relevant_divisors("icosa"))
    assert degs == [0, 12, 20, 30, 32, 42, 50, 62]


def test_relevant_pairs():
    for kind, n in (("tetra", 12), ("octa", 24), ("icosa", 60)):
        pairs = relevant_pairs(kind)
        assert len(pairs) == 8
        for p in pairs:
            assert (p.d2.degree - p.d1.degree - 2) % n == 0
    tetra = relevant_pairs("tetra")
    empty_d2 = next(p for p in tetra if p.d2.degree == 0)
    assert empty_d2.d1.degree == 22
    octa = relevant_pairs("octa")
    six = next(p for p in octa if p.d2.degree == 6)
    assert six.d1.degree == 28
    assert (6 - 28 - 2) % 24 == 0


def test_fiber_dimensions():
    octa = platonic_group("octa")
    d6 = next(dv for dv in relevant_divisors("octa") if dv.degree == 6)
    assert fiber_dimension(5, octa, d6) == 0
    tetra = platonic_group("tetra")
    pair = next(p for p in relevant_pairs("tetra") if p.degrees == (6, 8))
    assert fiber_dimension(7, tetra, pair) == 2 * 7 // 12 + 1 - (6 + 8) // 12 == 1
    with pytest.raises(NotInImage):
        fiber_dimension(6, octa, d6)
    with pytest.raises(NotInImage):
        fiber_dimension(3, tetra, pair)  # degrees exceed the bounds


def test_bracket_identity_for_all_pairs():
    # [(deg D1 + deg D2)/|G|] = 1 for every relevant pair of every group
    for kind, n in (("tetra", 12), ("octa", 24), ("icosa", 60)):
        for p in relevant_pairs(kind):
            assert (p.d1.degree + p.d2.degree) // n == 1


def test_existence():
    for d in range(2, 30):
        assert platonic_existence(d, "tetra") == (d % 2 == 1)
    from math import gcd

    for d in range(2, 40):
        assert platonic_existence(d, "octa") == (gcd(d, 6) == 1)
    assert platonic_existence(11, "icosa")
    assert not platonic_existence(21, "icosa")
    assert sorted(existence_residues("icosa", 30)) == [1, 11, 19, 29]
    assert sorted(existence_residues("icosa", 60)) == [1, 11, 19, 29, 31, 41, 49, 59]


def test_invariant_locus_dimension_small():
    assert invariant_locus_dimension(5, "tetra") == 0
    assert invariant_locus_dimension(7, "tetra") == 1
    assert invariant_locus_dimension(5, "octa") == 0
    with pytest.raises(NotRealizable):
        invariant_locus_dimension(4, "tetra")


def test_construct_degree5_octa_is_the_classic_map():
    phi, report = construct_symmetric_map(5, "octa")
    assert report.all_verified and len(report.verified_elements) == 24
    # the construction lands exactly on [X^5 - 5XY^4 : -5X^4Y + Y^5]
    from symloci.forms import BinaryForm, RationalMap

    classic = RationalMap(
        BinaryForm(5, [1, 0, 0, 0, -5, 0]), BinaryForm(5, [0, -5, 0, 0, 0, 1])
    )
    assert phi.proportional_to(classic)
    assert phi.is_in_ratd()


def test_construct_various():
    phi, report = construct_symmetric_map(7, "tetra")
    assert phi.degree == 7 and len(report.verified_elements) == 12
    assert phi.is_in_ratd()
    phi, report = construct_symmetric_map(13, "octa")
    assert phi.degree == 13 and len(report.verified_elements) == 24
    with pytest.raises(NotRealizable):
        construct_symmetric_map(4, "tetra")
    with pytest.raises(NotRealizable):
        construct_symmetric_map(6, "octa")


def test_construct_with_padding_orbit():
    # d = 15 tetra: relevant divisor degree 4, needs one full padding orbit
    phi, report = construct_symmetric_map(15, "tetra")
    assert phi.degree == 15
    assert report.all_verified
    pair = decompose_map(phi)
    assert pair.H.is_zero()


def test_invariant_eigenvalue_lemma():
    g3 = next(e for e in platonic_group("tetra").elements if e.projective_order() == 3)
    val = invariant_eigenvalue_check(platonic_group("tetra"), P1Point.affine(5), g3.sl2_lift())
    assert val == ONE  # (-1)^(12/3)
    g4 = next(e for e in platonic_group("octa").elements if e.projective_order() == 4)
    assert invariant_eigenvalue_check(platonic_group("octa"), P1Point.affine(7), g4.sl2_lift()) == ONE
    from symloci.moebius import standard_subgroup

    d3 = standard_subgroup("dihedral", 3)
    g2 = next(e for e in d3.elements if e.projective_order() == 2)
    assert invariant_eigenvalue_check(d3, P1Point.affine(4), g2.sl2_lift()) == -ONE


def test_distinguished_element_u():
    # the sum of all degenerate points has degree |G| + 2 and trivial character
    for kind in ("tetra", "octa"):
        group = platonic_group(kind)
        u = Divisor()
        for row in character_table(kind):
            u = u + row.orbit
        assert u.degree == group.order + 2
        form = form_from_divisor(u)
        for g in group.generators:
            assert lifted_scalar(form, g) == ONE


def test_no_symmetric_maps_where_existence_fails():
    # wherever the oracle says no (d <= 13), every character stratum is
    # empty or misses the map space; even d kill all strata outright
    # (the lifted -identity acts by -1 on odd-degree forms)
    from symloci.decomp import FormPair, meets_ratd
    from symloci.platonic import _generic_combination, character_eigenspace

    for kind in ("tetra", "octa", "icosa"):
        group = platonic_group(kind)
        for d in range(2, 14):
            if platonic_existence(d, kind):
                continue
            for char in character_group(group):
                h_basis = character_eigenspace(d - 1, group, char)
                j_basis = character_eigenspace(d + 1, group, char)
                if d % 2 == 0:
                    assert not h_basis and not j_basis, (kind, d)
                    continue
                hits = 0
                for seed in range(12):
                    h = _generic_combination(h_basis, d - 1, seed)
                    j = _generic_combination(j_basis, d + 1, seed)
                    if h.is_zero() and j.is_zero():
                        continue
                    if meets_ratd(FormPair(d, h, j)):
                        hits += 1
                assert hits == 0, (kind, d, char)


def test_certificate_checks_survive_python_O():
    # the eigenvector checks are explicit raises, not asserts that -O strips
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symloci

    script = """
import sys
from symloci.forms import BinaryForm
from symloci.platonic import lifted_scalar, platonic_group
assert False, "asserts must be stripped under -O"
g = platonic_group("octa").generators[1]
try:
    lifted_scalar(BinaryForm(2, [1, 0, 0]), g)  # X^2 is not an eigenform
except AssertionError as exc:
    print("rejected:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(symloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "not an eigenvector" in proc.stdout
