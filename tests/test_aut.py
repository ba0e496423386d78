"""Exact automorphism verification and numeric discovery."""

import cmath
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symloci.aut import (
    AutReport,
    NotAnAutomorphism,
    _fixes,
    _verify_through_generators,
    automorphism_type,
    discover_automorphisms,
    is_automorphism,
    verify_group_action,
)
from symloci.cyclotomic import Cyclotomic
from symloci.forms import BinaryForm, RationalMap
from symloci.loci import dihedral_generic_member
from symloci.moebius import FiniteSubgroup, MoebiusMap, classify_census, conjugate_map, standard_subgroup


def degree5_example() -> RationalMap:
    """f(z) = (z^5 - 5z) / (1 - 5z^4)."""
    return RationalMap.from_zpoly([1, 0, 0, 0, -5, 0], [-5, 0, 0, 0, 1])


def test_is_automorphism_examples():
    f = degree5_example()
    assert is_automorphism(f, MoebiusMap.scaling(Cyclotomic.zeta(4)))
    i = Cyclotomic.zeta(4)
    assert is_automorphism(f, MoebiusMap(i, i, 1, -1))
    z2 = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])
    assert is_automorphism(z2, MoebiusMap.inversion())
    assert not is_automorphism(z2, MoebiusMap(1, 1, 0, 1))


def test_automorphism_type_examples():
    neg = MoebiusMap.scaling(-1)
    z3 = RationalMap.from_zpoly([1, 0, 0, 0], [0, 0, 0, 1])
    assert automorphism_type(z3, neg) == 1
    inv_z3 = RationalMap.from_zpoly([0, 0, 0, 1], [1, 0, 0, 0])
    assert automorphism_type(inv_z3, neg) == -1
    # type 0: z^3/(z^2 + c) style member fixing only one of {0, inf}:
    # phi = 1/(z(z^2+2)) maps 0 -> inf, inf -> 0 ... use a verified family
    from symloci.loci import generic_member

    phi0 = RationalMap.from_zpoly(*generic_member(4, 2, 0, "inf"))
    assert automorphism_type(phi0, neg) == 0


def test_automorphism_type_errors():
    z2 = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])
    with pytest.raises(NotAnAutomorphism):
        automorphism_type(z2, MoebiusMap(1, 1, 0, 1))
    with pytest.raises(NotAnAutomorphism):
        automorphism_type(z2, MoebiusMap.identity())


def test_verify_group_action_examples():
    d = 4
    zd = RationalMap.from_zpoly([1] + [0] * d, [0] * d + [1])
    rep = verify_group_action(zd, standard_subgroup("dihedral", d - 1))
    assert rep.all_verified and len(rep.verified_elements) == 2 * (d - 1)
    rep = verify_group_action(degree5_example(), standard_subgroup("octa"))
    assert rep.all_verified and len(rep.verified_elements) == 24
    assert rep.classified == "octa"
    assert rep.census == {1: 1, 2: 9, 3: 8, 4: 6}
    bad = verify_group_action(
        RationalMap.from_zpoly([1, 0, 1], [0, 0, 1]), standard_subgroup("cyclic", 2)
    )
    assert not bad.all_verified
    assert bad.failed == MoebiusMap.scaling(-1)


def test_conjugation_covariance():
    # sigma in Aut(phi) iff f^-1 sigma f in Aut(phi^f)
    rng = random.Random(23)
    phi = degree5_example()
    sigma = MoebiusMap.scaling(Cyclotomic.zeta(4))
    for _ in range(4):
        f = MoebiusMap(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(3, 6))
        phi_f = conjugate_map(phi, f)
        sigma_f = f.inverse().compose(sigma).compose(f)
        assert is_automorphism(phi_f, sigma_f)
        assert automorphism_type(phi, sigma) == automorphism_type(phi_f, sigma_f)


def test_discovery_degree5():
    rep = discover_automorphisms(degree5_example(), tolerance=1e-8)
    assert rep.numeric_order == 24
    assert rep.census == {1: 1, 2: 9, 3: 8, 4: 6}
    assert rep.classified == "octa"
    assert rep.verified_elements == []  # numeric mode makes no exactness claim


def test_discovery_z2():
    rep = discover_automorphisms(RationalMap.from_zpoly([1, 0, 0], [0, 0, 1]))
    assert rep.numeric_order == 2
    assert rep.census == {1: 1, 2: 1}


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf")])
def test_discovery_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        discover_automorphisms(degree5_example(), tolerance)


def test_discovery_generic_cubic_is_trivial():
    rng = random.Random(41)
    for _ in range(3):
        phi = RationalMap.from_zpoly(
            [rng.randint(1, 9) for _ in range(4)], [rng.randint(1, 9) for _ in range(4)]
        )
        if not phi.is_in_ratd():
            continue
        rep = discover_automorphisms(phi)
        assert rep.numeric_order == 1
        assert rep.census == {1: 1}


def test_discovery_few_fixed_points():
    # z -> 1/z^2 has fixed-point form with only 3 distinct roots; z^2 - z
    # exercises the period-2 augmentation path indirectly via small counts
    phi = RationalMap.from_zpoly([0, 0, 1], [1, 0, 0])  # 1/z^2
    rep = discover_automorphisms(phi)
    assert rep.numeric_order >= 3  # full symmetry group here is S3

    # a map whose fixed points all collide: phi(z) = z + 1/z has fixed form
    # Y^3 alone -> needs period-2 points
    phi2 = RationalMap.from_zpoly([1, 0, 1], [0, 1, 0])
    rep2 = discover_automorphisms(phi2)
    assert rep2.numeric_order >= 2  # -z conjugates it to itself? z -> -z: (-z)+1/(-z) = -(z+1/z)


def test_discovered_symmetry_of_constructed_map():
    from symloci.platonic import construct_symmetric_map

    phi, exact = construct_symmetric_map(3, "tetra")
    rep = discover_automorphisms(phi)
    assert rep.numeric_order >= 12
    assert len(exact.verified_elements) == 12


def test_report_json():
    rep = verify_group_action(degree5_example(), standard_subgroup("cyclic", 4))
    blob = rep.to_json()
    assert blob["classified"] == "cyclic:4"
    assert blob["failed"] is None
    assert len(blob["verified_elements"]) == 4


# ---------------------------------------------------------------------------
# generator route against the element-by-element scan
# ---------------------------------------------------------------------------


def _catalog():
    groups = [standard_subgroup("cyclic", m) for m in range(1, 13)]
    groups += [standard_subgroup("dihedral", m) for m in range(1, 9)]
    return groups + [standard_subgroup(kind) for kind in ("tetra", "octa", "icosa")]


def _perturbed(phi: RationalMap) -> RationalMap:
    coeffs = list(phi.F.coeffs)
    coeffs[0] = coeffs[0] + 1
    return RationalMap(BinaryForm(phi.degree, coeffs), phi.G)


def _map_pool():
    """(map, group it must pass or None, group it must fail or None)."""
    from symloci.loci import NoMemberFound, dihedral_generic_member, generic_member
    from symloci.platonic import construct_symmetric_map

    pool = []
    for d, kind in ((3, "tetra"), (5, "octa"), (11, "icosa")):
        phi, _ = construct_symmetric_map(d, kind)
        group = standard_subgroup(kind)
        pool.append((phi, group, None))
        pool.append((_perturbed(phi), None, group))
        for m in (MoebiusMap(2, 1, 1, 1), MoebiusMap(1, 1, 0, 1)):  # SL2(Z), not normalizing G
            pool.append((conjugate_map(phi, m), None, group))
    for m, t in zip(range(2, 13), itertools.cycle((1, 0, -1))):
        phi = RationalMap.from_zpoly(*generic_member(m + t, m, t, "zero"))
        pool.append((phi, standard_subgroup("cyclic", m), None))
    for m in range(2, 9):
        for t, mu in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            try:
                phi = RationalMap.from_zpoly(*dihedral_generic_member(m + t, m, t, mu))
            except NoMemberFound:
                continue
            pool.append((phi, standard_subgroup("dihedral", m), None))
            break
    return pool


def test_generator_route_matches_the_element_scan():
    catalog = _catalog()
    passed = set()
    for phi, must_pass, must_fail in _map_pool():
        for group in catalog:
            fast, slow = _verify_through_generators(phi, group), verify_group_action(phi, group)
            assert fast.to_json() == slow.to_json(), (phi, group)
            assert fast.all_verified == slow.all_verified
            if fast.all_verified:
                passed.add(group.label)
        if must_pass is not None:
            assert _verify_through_generators(phi, must_pass).all_verified, (phi, must_pass)
        if must_fail is not None:
            assert not _verify_through_generators(phi, must_fail).all_verified, (phi, must_fail)
    # the generator route succeeded on every group at least once
    assert passed == {group.label for group in catalog}


def test_group_without_generators_falls_back_to_the_scan():
    from symloci.platonic import construct_symmetric_map

    phi, _ = construct_symmetric_map(5, "octa")
    for group in _catalog():
        rebuilt = FiniteSubgroup.from_json(group.to_json())
        assert rebuilt.generators == []
        for psi in (phi, _perturbed(phi)):
            got = _verify_through_generators(psi, rebuilt)
            assert got.to_json() == verify_group_action(psi, group).to_json()
            assert got.to_json() == _verify_through_generators(psi, group).to_json()


def test_the_lazy_scan_reports_the_eager_scans_first_failure(monkeypatch):
    # the element scan of a lazily listed cyclic or dihedral group against
    # the scan of the eager listing: the same report, the same first failing
    # element, and no element built past it
    from symloci import moebius
    from test_moebius import oracle_rotation_group, spy_on_rotation_elements

    built = spy_on_rotation_elements(monkeypatch)
    maps = [degree5_example()] + [phi for phi, _ in _members()[::7]]
    failures = 0
    for phi in maps:
        for m in range(1, 9):
            for dihedral in (False, True):
                built.clear()
                want = verify_group_action(phi, oracle_rotation_group(m, dihedral))
                group = moebius._rotation_group(m, dihedral)
                got = _verify_through_generators(phi, group)
                assert got.to_json() == want.to_json(), (phi, m, dihedral)
                if not got.all_verified:
                    failures += 1
                    assert callable(group._elements) and len(built) == len(got.verified_elements) + 1
                    assert built[-1] is got.failed
    assert failures > 50


def test_passing_report_lists_every_element_in_order():
    octa = standard_subgroup("octa")
    rep = _verify_through_generators(degree5_example(), octa)
    assert rep.verified_elements == octa.elements
    assert [e.key() for e in rep.verified_elements] == [e.key() for e in octa.elements]
    # the report owns its census and element list
    rep.census[2] = 0
    rep.verified_elements.clear()
    assert octa.order_census() == {1: 1, 2: 9, 3: 8, 4: 6}
    assert len(octa.elements) == 24


# ---------------------------------------------------------------------------
# the weight route for monomial generators against conjugation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _members():
    """(map, group) for a generic member of every cyclic and dihedral
    stratum with d = 2..14 (one sign of mu per dihedral stratum)."""
    from symloci.loci import NoMemberFound, dihedral_generic_member, generic_member

    out = []
    for d in range(2, 15):
        for m in range(2, d + 2):
            for t in (1, 0, -1):
                if (d - t) % m or (d - t) // m < 1:
                    continue
                member = generic_member(d, m, t, "zero" if t < 0 else "inf")
                out.append((RationalMap.from_zpoly(*member), standard_subgroup("cyclic", m)))
                for mu in (1, -1) if t else ():
                    try:
                        member = dihedral_generic_member(d, m, t, mu)
                        out.append((RationalMap.from_zpoly(*member), standard_subgroup("dihedral", m)))
                        break
                    except NoMemberFound:
                        pass
    return tuple(out)


def _unit(draw, n):
    # a root of unity of order dividing n times a nonzero rational
    scale = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
    return Cyclotomic.zeta(n, draw(st.integers(0, n - 1))) * scale


def _coefficient(draw, n):
    # zero, as the rational 0 or stored at conductor n, about half the time
    if draw(st.booleans()):
        return draw(st.sampled_from([Cyclotomic.rational(0), Cyclotomic.zeta(n) * 0]))
    return _unit(draw, n)


def _integer_anti_diagonal_case(draw):
    # phi with G_i = mu F_(d-i), integers with zeros at either end, is fixed
    # by 1/z; phi(s z) / s, F_i s^(d-i) and G_i s^(d-i+1), by [[0, k], [k s^2, 0]]:
    # b = c for s = +-1 (+-1 entries for k = +-1 too), b != c for s = 2, -3.
    # Then maybe one coefficient changed, or an arbitrary [[0, b], [c, 0]].
    d, mu = draw(st.integers(1, 8)), draw(st.sampled_from([1, -1]))
    s, k = draw(st.sampled_from([1, -1, 2, -3])), draw(st.sampled_from([1, -1, 2, -5]))
    a = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    a[draw(st.integers(0, d))] = draw(st.sampled_from([1, -2]))
    coeffs = [x * s ** (d - i) for i, x in enumerate(a)] + [mu * a[d - i] * s ** (d - i + 1) for i in range(d + 1)]
    sigma = MoebiusMap(0, k, k * s * s, 0)
    how = draw(st.sampled_from(["member", "changed", "other sigma"]))
    if how == "changed":
        coeffs[draw(st.integers(0, 2 * d + 1))] = draw(st.sampled_from([0, 1, -1, 4]))
    elif how == "other sigma":
        sigma = MoebiusMap(0, draw(st.sampled_from([1, -1, 2, 3])), draw(st.sampled_from([1, -1, 4, -6])), 0)
    if not any(coeffs):
        coeffs[0] = 1
    return RationalMap(BinaryForm(d, coeffs[: d + 1]), BinaryForm(d, coeffs[d + 1 :])), sigma


@st.composite
def _fixes_cases(draw):
    if draw(st.integers(0, 4)) == 0:  # rational integers throughout: the integer route of 1/z-like maps
        return _integer_anti_diagonal_case(draw)
    # one conductor n = 1..12 per case for the drawn entries and coefficients
    n = draw(st.integers(1, 12))
    phi, group = draw(st.sampled_from(_members()))
    how = draw(st.sampled_from(["member", "member", "changed", "random"]))
    if how == "changed":  # one coefficient replaced, so the member may stop being fixed
        coeffs = phi.coefficients()
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = _coefficient(draw, n)
    elif how == "random":
        coeffs = [_coefficient(draw, n) for _ in range(2 * draw(st.integers(1, 14)) + 2)]
    if how != "member":
        if not any(coeffs):
            coeffs[draw(st.integers(0, len(coeffs) - 1))] = _unit(draw, n)
        d = len(coeffs) // 2 - 1
        phi = RationalMap(BinaryForm(d, coeffs[: d + 1]), BinaryForm(d, coeffs[d + 1 :]))
    kind = draw(st.sampled_from(["element", "element", "diagonal", "anti-diagonal", "dense"]))
    if kind == "element":  # a group element, at a scalar multiple of its stored matrix
        s = _unit(draw, n)
        sigma = MoebiusMap(*(x * s for x in draw(st.sampled_from(group.elements)).entries()))
    elif kind == "diagonal":
        sigma = MoebiusMap(_unit(draw, n), 0, 0, _unit(draw, n))
    elif kind == "anti-diagonal":
        sigma = MoebiusMap(0, _unit(draw, n), _unit(draw, n), 0)
    else:  # at most one zero entry, so never monomial: it falls through
        entries = [_unit(draw, n) for _ in range(4)]
        entries[draw(st.integers(0, 3))] *= draw(st.sampled_from([0, 1]))
        assume(entries[0] * entries[3] != entries[1] * entries[2])
        sigma = MoebiusMap(*entries)
    return phi, sigma


@settings(max_examples=400, deadline=None)
@given(_fixes_cases())
@example((RationalMap.from_zpoly([1, 0, 0], [0, 0, 1]), MoebiusMap.inversion()))
@example((RationalMap.from_zpoly([1, 0, 0], [0, 0, 1]), MoebiusMap(0, Cyclotomic.zeta(3), 2, 0)))
@example((RationalMap.from_zpoly([1, 0, 0, 0, 1], [1, 0, 0]), MoebiusMap.scaling(Cyclotomic.zeta(4))))
@example((RationalMap.from_zpoly([1, 0, 0, 0, 1], [1, 0, 0]), MoebiusMap(Cyclotomic.zeta(12, 3) * 2, 0, 0, 2)))
@example((RationalMap.from_zpoly([1], [1, 0]), MoebiusMap.scaling(-1)))
@example((degree5_example(), MoebiusMap(Cyclotomic.zeta(4), Cyclotomic.zeta(4), 1, -1)))
@example((RationalMap.from_zpoly(*dihedral_generic_member(6, 5, 1, -1)), MoebiusMap.inversion()))  # a mu = -1 member
@example((RationalMap.from_zpoly([4, 0, 2], [16, 0, 2]), MoebiusMap(0, 1, 4, 0)))  # fixed by 1/(4z): b != c
@example((RationalMap.from_zpoly([0, 1, 1], [-1, -1, 0]), MoebiusMap(0, -1, -1, 0)))  # F_0 = G_2 = 0, fixed
@example((RationalMap.from_zpoly([3, 0, 1], [1, 0]), MoebiusMap(0, 1, 1, 0)))  # G_0 = 0, not fixed
def test_weight_route_matches_conjugation(case):
    phi, sigma = case
    assert _fixes(phi, sigma) == is_automorphism(phi, sigma)


@st.composite
def _diagonal_cases(draw):
    # diag(a, d) with a/d of exact order 1..17, or -1, or no root of unity
    # ((2, 1) and (3, 2)), times a common scalar; phi supported on the
    # exponents of a/d in one class mod the order (fixed; mod 2, 3 or past
    # every exponent when a/d is no root of unity), perhaps with one
    # coefficient added (then fixed only if g stays a multiple of the order),
    # or on one coefficient (g = 0).  Integer maps come as two lists of ints
    # or as a RationalMap, others with coefficients at conductor n = 1..12.
    ratio = draw(st.sampled_from([*range(1, 18), "-1", (2, 1), (3, 2)]))
    if ratio == "-1":
        a, d, order = Cyclotomic.rational(-1), Cyclotomic.rational(1), 2
    elif isinstance(ratio, tuple):
        a, d, order = *map(Cyclotomic.rational, ratio), None
    else:
        k = draw(st.integers(1, ratio).filter(lambda k: math.gcd(k, ratio) == 1))
        a, d, order = Cyclotomic.zeta(ratio, k), Cyclotomic.rational(1), ratio
    s = draw(st.sampled_from([Cyclotomic.rational(1), Cyclotomic.rational(-3), Cyclotomic.zeta(12, 5) * 2]))
    sigma = MoebiusMap(a * s, 0, 0, d * s)
    deg, ints = draw(st.integers(1, 12)), draw(st.booleans())
    n = 1 if ints else draw(st.integers(1, 12))
    # F_i has the exponent i + 1 of r = d/a, G_i the exponent i
    slots = [("F", i, i + 1) for i in range(deg + 1)] + [("G", i, i) for i in range(deg + 1)]
    how = draw(st.sampled_from(["class", "class", "one more", "one"]))
    if how == "one":
        support = [draw(st.sampled_from(slots))]
    else:
        e, modulus = draw(st.integers(0, 2 * deg + 1)), order or draw(st.sampled_from([2, 3, 2 * deg + 2]))
        support = [x for x in slots if (x[2] - e) % modulus == 0]
        if how == "one more" or not support:
            support.append(draw(st.sampled_from(slots)))
    coeffs = {"F": [0] * (deg + 1), "G": [0] * (deg + 1)}
    for side, i, _ in support:
        coeffs[side][i] = draw(st.sampled_from([1, -1, 2, 5])) if ints else _unit(draw, n)
    phi = RationalMap(BinaryForm(deg, coeffs["F"]), BinaryForm(deg, coeffs["G"]))
    return (coeffs["F"], coeffs["G"]) if ints and draw(st.booleans()) else phi, phi, sigma


@settings(max_examples=500, deadline=None)
@given(_diagonal_cases())
@example((([0, 0, 1], [1, 0, 0]), RationalMap.from_zpoly([1], [1, 0, 0]), MoebiusMap(2, 0, 0, 1)))  # 1/z^2 under 2z: no
@example((([0, 1], [0, 0]), RationalMap(BinaryForm(1, [0, 1]), BinaryForm.zero(1)), MoebiusMap(3, 0, 0, 2)))  # g = 0
@example((([1, 0, 0], [0, 0, 1]), RationalMap.from_zpoly([1, 0, 0], [1]), MoebiusMap(-1, 0, 0, 1)))  # z^2 under -z: yes
def test_the_weight_rule_reads_the_order_of_a_over_d(case):
    lists_or_map, phi, sigma = case
    assert _fixes(lists_or_map, sigma) == is_automorphism(phi, sigma)


def test_weight_route_proves_every_member_under_every_element():
    # deterministic true cases: each member under each element of its group
    # and a scalar multiple of it; a changed member under the generators
    scalars = (Cyclotomic.rational(1), Cyclotomic.zeta(12, 5) * -3)
    for phi, group in _members():
        for e, s in itertools.product(group.elements, scalars):
            sigma = MoebiusMap(*(x * s for x in e.entries()))
            assert _fixes(phi, sigma) and is_automorphism(phi, sigma), (phi, sigma)
        bad = _perturbed(phi)
        for g in group.generators:
            assert _fixes(bad, g) == is_automorphism(bad, g), (bad, g)


def _spy(monkeypatch, module, name):
    """Count the calls of module.name through every binding of it in the package."""
    original, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "symloci" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_family_survey_conjugates_nothing(monkeypatch, capsys):
    from symloci import aut, moebius
    from symloci.cli import main

    conjugations = _spy(monkeypatch, moebius, "conjugate_map")
    exact_tests = _spy(monkeypatch, aut, "is_automorphism")
    weight_tests = _spy(monkeypatch, aut, "_fixes")
    assert main(["survey", "--groups", "cyclic,dihedral", "--d", "9"]) == 0
    assert capsys.readouterr().out.count("\n") > 10
    assert conjugations == [] and exact_tests == []
    assert len(weight_tests) > 10


def test_a_failing_generator_falls_back_to_the_element_scan():
    # a dihedral member changed so that it fails zeta_m z, or only 1/z: the
    # report is the element scan's, naming the same first failing element
    from symloci.loci import dihedral_generic_member

    for m, t, mu in ((3, 1, 1), (4, -1, 1), (5, 1, -1)):
        d = m + t
        phi = RationalMap.from_zpoly(*dihedral_generic_member(d, m, t, mu))
        group = standard_subgroup("dihedral", m)
        rotation, inversion = group.generators
        coeffs, seen = phi.coefficients(), set()
        for k in range(len(coeffs)):
            changed = coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1 :]
            bad = RationalMap(BinaryForm(d, changed[: d + 1]), BinaryForm(d, changed[d + 1 :]))
            fails = [g for g in group.generators if not is_automorphism(bad, g)]
            rep = _verify_through_generators(bad, group)
            assert rep.to_json() == verify_group_action(bad, group).to_json()
            assert rep.failed.key() == fails[0].key()
            if fails == [inversion]:  # passes the rotation: its powers verify first
                assert len(rep.verified_elements) >= 2
            seen.add("rotation" if fails[0] is rotation else "inversion only")
        assert seen == {"rotation", "inversion only"}, (m, t, mu)


# ---------------------------------------------------------------------------
# numeric discovery on the constructed maps and their conjugates
# ---------------------------------------------------------------------------


# the construct-check conjugators: eight SL2(Z) matrices with entries |.| <= 3
M_PANEL = (
    (0, -1, 1, -2), (-2, -1, -1, -1), (0, 1, -1, 1), (2, 1, -3, -1),
    (0, 1, -1, 2), (1, 0, 1, 1), (-1, 1, 1, -2), (-2, 1, 1, -1),
)  # fmt: skip

# Aut of each discovery map: the constructed maps' groups are proved by
# `construct` (the tetra d = 13 map is octahedral: no finite subgroup of
# PGL2 properly contains S4), and conjugation keeps the group
FULL_GROUP = {
    "octa13": {"numeric_order": 24, "census": {"1": 1, "2": 9, "3": 8, "4": 6}, "classified": "octa"},
    "tetra11": {"numeric_order": 12, "census": {"1": 1, "2": 3, "3": 8}, "classified": "tetra"},
    "tetra13": {"numeric_order": 24, "census": {"1": 1, "2": 9, "3": 8, "4": 6}, "classified": "octa"},
    "icosa11": {"numeric_order": 60, "census": {"1": 1, "2": 15, "3": 20, "5": 24}, "classified": "icosa"},
    "cyclic:3 d=7": {"numeric_order": 3},
    "dihedral:3 d=7": {"numeric_order": 6},
    "4z^3 - 3z, infinity fixed": {"numeric_order": 2},
    "1/z^2": {"numeric_order": 6},
    "z + 1/z, period-2 points": {"numeric_order": 2},
}
TOLERANCES = (1e-6, 1e-8, 1e-10)


@pytest.fixture(scope="module")
def discovery_maps():
    """(name, map, name of its unconjugated map) for the constructed
    platonic maps, plain and conjugated, and small maps that take the other
    branches of discovery."""
    from symloci.loci import dihedral_generic_member, generic_member
    from symloci.platonic import construct_symmetric_map

    maps = []
    for kind, d in (("octa", 13), ("tetra", 11), ("tetra", 13), ("icosa", 11)):
        phi, _ = construct_symmetric_map(d, kind)
        maps.append((f"{kind}{d}", phi, f"{kind}{d}"))
        maps.extend((f"{kind}{d}^{m}", conjugate_map(phi, MoebiusMap(*m)), f"{kind}{d}") for m in M_PANEL)
    small = [
        ("cyclic:3 d=7", RationalMap.from_zpoly(*generic_member(7, 3, 1, "zero"))),
        ("dihedral:3 d=7", RationalMap.from_zpoly(*dihedral_generic_member(7, 3, 1, 1))),
        ("4z^3 - 3z, infinity fixed", RationalMap.from_zpoly([4, 0, -3, 0], [0, 0, 0, 1])),
        ("1/z^2", RationalMap.from_zpoly([0, 0, 1], [1, 0, 0])),
        ("z + 1/z, period-2 points", RationalMap.from_zpoly([1, 0, 1], [0, 1, 0])),
    ]
    return maps + [(name, phi, name) for name, phi in small]


# discover_automorphisms(phi, tol).to_json() for every discovery map at the
# three tolerances
RECORDED_REPORTS = Path(__file__).parent / "golden" / "discovery_reports.json"
# the numeric_order of each of those reports from the triple loop that
# discovery ran before balancing: every ordered triple of periodic points
# conjugated in floats and tested on the coefficients (the live loop is in
# tests/sweep_discovery.py)
TRIPLE_LOOP_ORDERS = Path(__file__).parent / "golden" / "triple_loop_orders.json"


def test_constructed_maps_report_their_full_group_and_others_are_unchanged(discovery_maps):
    recorded = json.loads(RECORDED_REPORTS.read_text())
    assert len(recorded) == 3 * len(discovery_maps)
    for name, phi, base in discovery_maps:
        for tolerance in TOLERANCES:
            got = discover_automorphisms(phi, tolerance).to_json()
            assert got == recorded[f"{name} @ {tolerance:g}"], (name, tolerance)
            want = FULL_GROUP[base]
            assert {k: got[k] for k in want} == want, (name, tolerance)


def oracle_discovery(phi: RationalMap, tolerance: float = 1e-8) -> AutReport:
    """discover_automorphisms as it was before the closure: every candidate
    rotation is built as a permutation and tested at the probe points, and
    the census is read off the ones that pass."""
    from symloci import aut

    tol, period = max(tolerance, 1e-9) ** 0.5, 1
    for _ in range(5):
        rough, converged = aut._roots(aut._periodic_form(phi, period))
        distinct = aut._distinct(rough, 1e-2)
        if len(distinct) < 3 and period == 1:
            period = 2
            continue
        if len(distinct) < 3:
            raise aut.DegenerateConfiguration("fewer than 3 periodic points through period 2")
        a, b, c, d = t = aut._balancing(distinct)[0]
        g = [complex(round(x.real), round(x.imag)) for x in (16 * e / max(t, key=abs) for e in (d, -b, -c, a))]
        if max(abs(b), abs(c), abs(a - d)) < 1e-2 * max(abs(a), abs(d)) or g[0] * g[3] == g[1] * g[2]:
            break
        A = MoebiusMap(*(int(x.real) + Cyclotomic.zeta(4) * int(x.imag) if x.imag else int(x.real) for x in g))
        phi = conjugate_map(phi, A)
        rough = [aut._apply([x.complex() for x in A.inverse().entries()], p) for p in rough]
        if converged:
            break
    points = aut._distinct(aut._roots(aut._periodic_form(phi, period), rough, 1e-14, 50)[0], tol)
    if len(points) < 3:
        raise aut.DegenerateConfiguration("fewer than 3 periodic points through period 2")
    coeffs = aut._floats(phi.coefficients())
    pair = coeffs[: phi.degree + 1], coeffs[phi.degree + 1 :]
    probes = [(p, aut._evaluate(pair, p)) for p in aut._PROBES]
    identity, census = tuple(range(len(points))), {}
    for perm, base in aut._rotations(aut._balancing(points)[1], tol):
        src, dst = aut._to_01inf(*(points[k] for k in base)), aut._to_01inf(*(points[perm[k]] for k in base))
        m = aut._mul((dst[3], -dst[1], -dst[2], dst[0]), src)
        images = ((aut._apply(m, q), aut._evaluate(pair, aut._apply(m, p))) for p, q in probes)
        if perm == identity or all(abs(u[0] * w[1] - u[1] * w[0]) <= tol for u, w in images):
            k, power = 1, perm
            while power != identity:
                k, power = k + 1, tuple(perm[i] for i in power)
            census[k] = census.get(k, 0) + 1
    found = sum(census.values())
    return AutReport(numeric_order=found, census=census, classified=classify_census(found, census))


def test_the_closure_reports_what_the_per_candidate_scan_does(discovery_maps):
    for name, phi, _ in discovery_maps:
        for tolerance in TOLERANCES:
            got, want = discover_automorphisms(phi, tolerance), oracle_discovery(phi, tolerance)
            assert got.to_json() == want.to_json(), (name, tolerance)


def test_only_the_generators_are_built_as_permutations(monkeypatch):
    # octa d = 13: each of the 24 elements is a candidate that passes, but
    # only those that no element found so far maps a and b as they do are
    # built, and three of them generate S4
    from symloci import aut

    built, rotations = [], aut._rotations

    def spy(vs, tol, known=()):
        for perm, base in rotations(vs, tol, known):
            built.append(perm)
            yield perm, base

    monkeypatch.setattr(aut, "_rotations", spy)
    phi = _construct_check_map("octa", 13)
    assert discover_automorphisms(phi).numeric_order == 24 and len(built) <= 3
    built.clear()
    assert oracle_discovery(phi).numeric_order == 24 and len(built) == 24


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_discovery_finds_at_least_the_triple_loop_orders(discovery_maps, tolerance):
    # the old loop found a subgroup: the new order is at least its order,
    # and the same where the old loop found the whole group
    old = json.loads(TRIPLE_LOOP_ORDERS.read_text())
    for name, phi, base in discovery_maps:
        was, full = old[f"{name} @ {tolerance:g}"], FULL_GROUP[base]["numeric_order"]
        got = discover_automorphisms(phi, tolerance).numeric_order
        assert got >= was and (was < full or got == was), (name, tolerance, was, got)


@pytest.mark.parametrize("m", [(0, -1, 1, -2), (0, 1, -1, 2)])
def test_every_element_order_of_a_conjugated_icosa_map_is_read(m):
    # the powers of 8 of the 60 numeric matrices never came within 1e-8 of
    # a scalar, so the census missed them and the group was "unknown"
    from symloci.platonic import construct_symmetric_map

    phi, _ = construct_symmetric_map(11, "icosa")
    report = discover_automorphisms(conjugate_map(phi, MoebiusMap(*m)), 1e-8)
    assert report.numeric_order == 60
    assert report.census == {1: 1, 2: 15, 3: 20, 5: 24}
    assert report.classified == "icosa"


_SL2_SMALL = [
    m
    for m in itertools.product(range(-5, 6), repeat=4)
    if m[0] * m[3] - m[1] * m[2] == 1 and m not in M_PANEL and m not in ((1, 0, 0, 1), (-1, 0, 0, -1))
]


@lru_cache(maxsize=None)
def _construct_check_map(kind, d):
    from symloci.platonic import construct_symmetric_map

    return construct_symmetric_map(d, kind)[0]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([("octa", 13), ("tetra", 11), ("tetra", 13)]), st.sampled_from(_SL2_SMALL))
@example(("octa", 13), (5, 4, 1, 1))
@example(("tetra", 11), (-5, 2, 2, -1))
def test_conjugation_by_sl2z_keeps_the_report(case, m):
    phi = _construct_check_map(*case)
    assert discover_automorphisms(conjugate_map(phi, MoebiusMap(*m))).to_json() == discover_automorphisms(phi).to_json()


def test_high_degree_conjugates_find_the_whole_group():
    # z^61 (dihedral of order 120 on 62 fixed points): the fixed-point form
    # of a conjugate is too ill-conditioned for its rough roots to converge,
    # so the map is balanced again until they do
    phi = RationalMap.from_zpoly([1] + [0] * 61, [0] * 61 + [1])
    for m in ((1, 0, 0, 1), (2, 1, 1, 1)):
        report = discover_automorphisms(conjugate_map(phi, MoebiusMap(*m)))
        assert (report.numeric_order, report.classified) == (120, "dihedral:60"), m


# ---------------------------------------------------------------------------
# the numeric helpers
# ---------------------------------------------------------------------------


def test_roots_cover_infinity_zero_and_multiplicity():
    from symloci.aut import _roots

    # z^2 (z^3 - 1) with a leading zero: infinity, 0 twice and the cube roots of 1
    form = BinaryForm(6, [0, 1, 0, 0, -1, 0, 0])
    points, converged = _roots(form, rel=1e-14)
    assert converged and len(points) == 6
    assert points[:3] == [(1, 0), (0, 1), (0, 1)]
    cubes = sorted((x / y for x, y in points[3:]), key=lambda z: cmath.phase(z))
    assert all(abs(z - cmath.exp(2j * cmath.pi * k / 3)) < 1e-12 for z, k in zip(cubes, (-1, 0, 1)))
    assert _roots(BinaryForm.zero(3)) == ([], True)


def test_balancing_makes_the_automorphisms_rotations():
    # the 14 fixed points of the octa d = 13 map conjugated by M = (2, 1,
    # -3, -1), taken in floats as M^(-1) of the plain map's, all in |z| <=
    # 0.52: their mean on the sphere moves to the centre, and the 24
    # automorphisms are the rotations that keep the balanced points' dot
    # products
    from symloci.aut import _apply, _balancing, _roots, _rotations

    points = [_apply((-1, -1, 3, 2), p) for p in _roots(_construct_check_map("octa", 13).fixed_point_form(), rel=1e-14)[0]]
    t, vs = _balancing(points)
    assert len(vs) == 14 and max(abs(sum(v[k] for v in vs)) for k in range(3)) < 1e-10
    perms = [perm for perm, _ in _rotations(vs, 1e-4)]
    assert len(perms) == 24 and len(set(perms)) == 24
    dot = lambda p, q: sum(x * y for x, y in zip(p, q))  # noqa: E731
    for perm in perms:
        assert all(abs(dot(vs[i], vs[j]) - dot(vs[perm[i]], vs[perm[j]])) < 1e-8 for i in range(14) for j in range(14))


def test_import_and_discovery_leave_numpy_out(tmp_path):
    import subprocess

    from symloci.platonic import construct_symmetric_map

    phi, _ = construct_symmetric_map(5, "octa")
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"map": conjugate_map(phi, MoebiusMap(2, 1, -3, -1)).to_json()}))
    script = (
        "import sys, symloci\n"
        "from symloci.cli import main\n"
        f"assert main(['aut', {str(path)!r}]) == 0\n"
        f"assert main(['check', {str(path)!r}, '--group', 'octa']) == 4\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert '"numeric_order": 24' in done.stdout and "numeric discovery: order 24" in done.stdout
