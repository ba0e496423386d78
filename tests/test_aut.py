"""Exact automorphism verification and numeric discovery."""

import itertools
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symloci.aut import (
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
from symloci.moebius import FiniteSubgroup, MoebiusMap, conjugate_map, standard_subgroup


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

    phi0 = generic_member(4, 2, 0, "inf")
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


def _ref_conjugate_complex(fc, gc, m):
    # the numeric conjugation before it shared one substitution routine with
    # the period-2 composition: its own power table per call
    import numpy as np

    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    n = len(fc) - 1
    p1, p2 = [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
    for _ in range(n):
        p1.append(np.convolve(p1[-1], np.array([a, b])))
        p2.append(np.convolve(p2[-1], np.array([c, d])))
    fs, gs = np.zeros(n + 1, dtype=complex), np.zeros(n + 1, dtype=complex)
    for i, (fi, gi) in enumerate(zip(fc, gc)):
        if fi != 0 or gi != 0:
            prod = np.convolve(p1[n - i], p2[i])
            if fi != 0:
                fs += fi * prod
            if gi != 0:
                gs += gi * prod
    return d * fs - b * gs, a * gs - c * fs


def _ref_subst_complex(fc, gc, target):
    import numpy as np

    n = len(target) - 1
    pf, pg = [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
    for _ in range(n):
        pf.append(np.convolve(pf[-1], fc))
        pg.append(np.convolve(pg[-1], gc))
    out = np.zeros(n * (len(fc) - 1) + 1, dtype=complex)
    for i, coef in enumerate(target):
        if coef != 0:
            out += coef * np.convolve(pf[n - i], pg[i])
    return out


def test_numeric_substitution_matches_reference():
    # one routine serves conjugation and the period-2 composition; the
    # arithmetic is unchanged, so the results must be bit-identical
    import numpy as np

    from symloci.aut import _complex_coeffs, _conjugate_complex, _subst_complex

    base = degree5_example()
    square = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])
    maps = [base, conjugate_map(base, MoebiusMap(2, 1, 1, 1)), square]
    rng = np.random.default_rng(11)
    for phi in maps:
        fc, gc = _complex_coeffs(phi.F), _complex_coeffs(phi.G)
        for _ in range(10):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got, want = _conjugate_complex(fc, gc, m), _ref_conjugate_complex(fc, gc, m)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        f2, g2 = _subst_complex(fc, gc, (fc, gc))
        assert np.array_equal(f2, _ref_subst_complex(fc, gc, fc))
        assert np.array_equal(g2, _ref_subst_complex(fc, gc, gc))


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
        pool.append((generic_member(m + t, m, t, "zero"), standard_subgroup("cyclic", m), None))
    for m in range(2, 9):
        for t, mu in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            try:
                phi = dihedral_generic_member(m + t, m, t, mu)
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
                out.append((generic_member(d, m, t, "zero" if t < 0 else "inf"), standard_subgroup("cyclic", m)))
                for mu in (1, -1) if t else ():
                    try:
                        out.append((dihedral_generic_member(d, m, t, mu), standard_subgroup("dihedral", m)))
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


@st.composite
def _fixes_cases(draw):
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
def test_weight_route_matches_conjugation(case):
    phi, sigma = case
    assert _fixes(phi, sigma) == is_automorphism(phi, sigma)


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
        phi = dihedral_generic_member(d, m, t, mu)
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
# numeric discovery against the full triple loop
# ---------------------------------------------------------------------------


def _ref_discover_automorphisms(phi: RationalMap, tolerance: float):
    """Discovery as it ran before the permutation filter: every ordered
    triple of periodic points is conjugated and tested on the coefficients."""
    import numpy as np

    from symloci.aut import (
        AutReport,
        _cluster,
        _complex_coeffs,
        _conjugate_complex,
        _mobius_through,
        _numeric_order,
        _proportional,
        _roots_of_form,
        _subst_complex,
    )
    from symloci.moebius import classify_census

    cluster_tol = max(tolerance, 1e-9) ** 0.5
    j = phi.fixed_point_form()
    lead_zeros = 0
    while lead_zeros <= j.degree and not j.coeffs[lead_zeros]:
        lead_zeros += 1
    fc = _complex_coeffs(phi.F)
    gc = _complex_coeffs(phi.G)
    points = _cluster(_roots_of_form(_complex_coeffs(j), lead_zeros), cluster_tol)
    if len(points) < 3:
        f2, g2 = _subst_complex(fc, gc, (fc, gc))
        j2 = np.concatenate(([0], f2)) - np.concatenate((g2, [0]))
        scale = np.max(np.abs(j2)) or 1.0
        nz = 0
        while nz < len(j2) - 1 and abs(j2[nz]) <= 1e-12 * scale:
            nz += 1
        points = _cluster(points + _roots_of_form(j2, nz), cluster_tol)
    assert len(points) >= 3
    points.sort(key=lambda p: (0, 0.0, 0.0) if p is None else (1, round(p.real, 6), round(p.imag, 6)))
    base = points[:3]
    coeff_vec = np.concatenate((fc, gc))
    found = []
    for q1 in points:
        for q2 in points:
            if q2 is q1:
                continue
            for q3 in points:
                if q3 is q1 or q3 is q2:
                    continue
                m = _mobius_through(base, (q1, q2, q3))
                if abs(np.linalg.det(m)) < 1e-14:
                    continue
                m = m / np.max(np.abs(m))
                cf, cg = _conjugate_complex(fc, gc, m)
                if _proportional(np.concatenate((cf, cg)), coeff_vec, tolerance):
                    if not any(_proportional(m.ravel(), f.ravel(), cluster_tol) for f in found):
                        found.append(m)
    census = {}
    for m in found:
        o = _numeric_order(m, max(tolerance, 1e-9))
        if o is not None:
            census[o] = census.get(o, 0) + 1
    return AutReport([], numeric_order=len(found), census=census, classified=classify_census(len(found), census))


# the construct-check conjugators: eight SL2(Z) matrices with entries |.| <= 3
M_PANEL = (
    (0, -1, 1, -2), (-2, -1, -1, -1), (0, 1, -1, 1), (2, 1, -3, -1),
    (0, 1, -1, 2), (1, 0, 1, 1), (-1, 1, 1, -2), (-2, 1, 1, -1),
)  # fmt: skip


@pytest.fixture(scope="module")
def discovery_maps():
    """(name, map, at most this many triples survive the filter) for the
    constructed platonic maps, plain and conjugated, and small maps that
    take the other branches of discovery."""
    from symloci.loci import dihedral_generic_member, generic_member
    from symloci.platonic import construct_symmetric_map

    maps = []
    for kind, d in (("octa", 13), ("tetra", 11), ("tetra", 13), ("icosa", 11)):
        phi, _ = construct_symmetric_map(d, kind)
        maps.append((f"{kind}{d}", phi, 60))
        maps.extend((f"{kind}{d}^{m}", conjugate_map(phi, MoebiusMap(*m)), 60) for m in M_PANEL)
    maps += [
        ("cyclic:3 d=7", generic_member(7, 3, 1, "zero"), None),
        ("dihedral:3 d=7", dihedral_generic_member(7, 3, 1, 1), None),
        ("4z^3 - 3z, infinity fixed", RationalMap.from_zpoly([4, 0, -3, 0], [0, 0, 0, 1]), None),
        ("1/z^2", RationalMap.from_zpoly([0, 0, 1], [1, 0, 0]), None),
        ("z + 1/z, period-2 points", RationalMap.from_zpoly([1, 0, 1], [0, 1, 0]), None),
    ]
    return maps


@pytest.mark.parametrize("tolerance", [1e-6, 1e-8, 1e-10])
def test_discovery_matches_the_full_triple_loop(discovery_maps, tolerance, monkeypatch):
    from symloci import aut

    survivors = []
    filtered = aut._permuting_triples

    def counted(*args):
        survivors.extend(filtered(*args))
        return survivors

    monkeypatch.setattr(aut, "_permuting_triples", counted)
    for name, phi, cap in discovery_maps:
        survivors.clear()
        got = discover_automorphisms(phi, tolerance)
        assert got.to_json() == _ref_discover_automorphisms(phi, tolerance).to_json(), (name, tolerance)
        # the filter prunes: of 1,320-2,184 triples, about |Aut| survive
        assert cap is None or len(survivors) <= cap, (name, len(survivors))


# ---------------------------------------------------------------------------
# element orders from the eigenvalue ratio
# ---------------------------------------------------------------------------

# discover_automorphisms(phi, tol).to_json() for every discovery map at the
# three tolerances above, recorded while _numeric_order still multiplied
# the matrix until a power was scalar
RECORDED_REPORTS = Path(__file__).parent / "golden" / "discovery_reports.json"


def test_reports_with_every_order_read_are_unchanged(discovery_maps):
    recorded = json.loads(RECORDED_REPORTS.read_text())
    assert len(recorded) == 3 * len(discovery_maps)
    kept = 0
    for name, phi, _ in discovery_maps:
        for tolerance in (1e-6, 1e-8, 1e-10):
            old = recorded[f"{name} @ {tolerance:g}"]
            if sum(old["census"].values()) == old["numeric_order"]:
                assert discover_automorphisms(phi, tolerance).to_json() == old, (name, tolerance)
                kept += 1
    assert kept == 94


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


def test_numeric_order_examples():
    import numpy as np

    from symloci.aut import _numeric_order

    def rotation(k, turns=1):
        z = np.exp(2j * np.pi * turns / k)
        return np.array([[z, 0], [0, 1]]) * 3.0

    assert _numeric_order(np.eye(2) * (2 - 1j), 1e-9) == 1
    assert [_numeric_order(rotation(k), 1e-9) for k in (2, 3, 5, 7)] == [2, 3, 5, 7]
    assert _numeric_order(rotation(5, 2), 1e-9) == 5
    # conjugated away from the diagonal
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert _numeric_order(np.linalg.inv(m) @ rotation(4) @ m, 1e-9) == 4
    # parabolic: equal eigenvalues, not scalar, infinite order
    assert _numeric_order(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-9) is None
    # loxodromic with a rational rotation angle
    assert _numeric_order(rotation(3) @ np.diag([2.0, 1.0]), 1e-9) is None
    # order above the cap
    assert _numeric_order(rotation(600), 1e-9) is None
