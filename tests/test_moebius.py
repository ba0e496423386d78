"""Moebius maps, subgroup catalog, closure, conjugation, degenerate orbits."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from symloci import moebius
from symloci.cyclotomic import Cyclotomic
from symloci.forms import Divisor, P1Point, RationalMap, _normalized
from symloci.moebius import (
    CapExceeded,
    FiniteSubgroup,
    MoebiusMap,
    UnliftableInField,
    classify_finite_subgroup,
    conjugate_map,
    degenerate_orbits,
    generate_closure,
    standard_subgroup,
)


def test_projective_equality():
    m1 = MoebiusMap(1, 2, 3, 4)
    m2 = MoebiusMap(Cyclotomic.zeta(4), Cyclotomic.zeta(4) * 2, Cyclotomic.zeta(4) * 3, Cyclotomic.zeta(4) * 4)
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert m1 != MoebiusMap(1, 2, 3, 5)
    with pytest.raises(ValueError):
        MoebiusMap(1, 2, 2, 4)


def test_compose_inverse_apply():
    rng = random.Random(1)
    for _ in range(6):
        m = MoebiusMap(rng.randint(1, 4), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 4) + 5)
        assert m.compose(m.inverse()).is_identity()
        p = P1Point.affine(rng.randint(-5, 5))
        q = m.apply(p)
        assert m.inverse().apply(q) == p


def test_standard_subgroup_orders():
    assert standard_subgroup("cyclic", 3).order == 3
    assert standard_subgroup("cyclic", 1).order == 1
    assert standard_subgroup("dihedral", 5).order == 10
    assert standard_subgroup("tetra").order == 12
    assert standard_subgroup("octa").order == 24
    assert standard_subgroup("icosa").order == 60


def test_platonic_censuses():
    assert standard_subgroup("tetra").order_census() == {1: 1, 2: 3, 3: 8}
    assert standard_subgroup("octa").order_census() == {1: 1, 2: 9, 3: 8, 4: 6}
    assert standard_subgroup("icosa").order_census() == {1: 1, 2: 15, 3: 20, 5: 24}


def test_generate_closure_quoted_generators():
    i = Cyclotomic.zeta(4)
    g = generate_closure([MoebiusMap.scaling(-1), MoebiusMap(i, i, 1, -1)], cap=100)
    assert g.order == 12
    assert generate_closure([MoebiusMap.identity()], cap=10).order == 1
    with pytest.raises(CapExceeded):
        generate_closure([MoebiusMap(1, 1, 0, 1)], cap=50)


def projective_key(m):
    """The normalized entries of m, each minimal: a hashable form of the map
    up to scale, as the closure keyed its elements before it ran on
    permutations (the deleted ``MoebiusMap.key``)."""
    return tuple((e.n, e.nums, e.den) for e in (v.minimal() for v in _normalized(m.entries())))


def _stored_entries(group):
    return [tuple((v.n, v.nums, v.den) for v in e.entries()) for e in group.elements]


def oracle_closure(gens, cap):
    """The two-sided BFS on matrices that ``generate_closure`` replays on
    the indices of its Cayley graph: every frontier element e tries e g and
    g e for each generator g, then each inverse, keyed by its normalized
    entries."""
    ident = MoebiusMap.identity()
    elements = {projective_key(ident): ident}
    frontier = [ident]
    gen_list = list(gens) + [g.inverse() for g in gens]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gen_list:
                for h in (e.compose(g), g.compose(e)):
                    k = projective_key(h)
                    if k not in elements:
                        if len(elements) >= cap:
                            raise CapExceeded(f"closure exceeded cap {cap}")
                        elements[k] = h
                        new_frontier.append(h)
        frontier = new_frontier
    return FiniteSubgroup(list(elements.values()), generators=list(gens))


_M = MoebiusMap(2, 1, 1, 1)


def _conjugated(kind):
    # M^-1 g M for each generator g of the catalog group
    return [_M.inverse().compose(g).compose(_M) for g in standard_subgroup(kind).generators]


def _closure_cases():
    cases = [(kind, standard_subgroup(kind).generators) for kind in ("tetra", "octa", "icosa")]
    for m in range(1, 13):
        cases += [(f"{kind}:{m}", standard_subgroup(kind, m).generators) for kind in ("cyclic", "dihedral")]
    return cases + [(f"{kind}^M", _conjugated(kind)) for kind in ("octa", "icosa")]


def test_closure_matches_the_two_sided_bfs(monkeypatch):
    # same elements, in the same order, with the same stored entries, from
    # an empty graph cache and again from a full one; the catalog groups are
    # built before the cache is swapped out, so theirs stays in the real one
    cases = _closure_cases()
    for cached in (False, True):
        if not cached:
            monkeypatch.setattr(moebius, "_CAYLEY", {})
        for name, gens in cases:
            expected = _stored_entries(oracle_closure(gens, 61))
            assert _stored_entries(generate_closure(gens, cap=61)) == expected, (name, cached)


@pytest.mark.parametrize("first", [11, 12])
def test_a_cached_graph_keeps_the_cap(first, monkeypatch):
    # caps 11, 12, 11 or 12, 11, 11 from an empty cache: the order-12 group
    # raises below 12 whether or not its graph is cached
    monkeypatch.setattr(moebius, "_CAYLEY", {})
    i = Cyclotomic.zeta(4)
    tetra = [MoebiusMap.scaling(-1), MoebiusMap(i, i, 1, -1)]
    for cap in (first, 23 - first, 11):
        if cap < 12:
            with pytest.raises(CapExceeded):
                generate_closure(tetra, cap=cap)
        else:
            assert generate_closure(tetra, cap=cap).order == 12


@pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
def test_closed_form_groups_equal_their_closures(kind):
    # same elements, same order, same stored representatives: construct
    # prints the elements as they are stored
    for m in range(1, 61):
        group = standard_subgroup(kind, m)
        gens = [MoebiusMap.scaling(Cyclotomic.zeta(m))] + [MoebiusMap.inversion()] * (kind == "dihedral")
        assert group.generators == gens
        closure = generate_closure(group.generators, cap=2 * m + 1)
        assert _stored_entries(group) == _stored_entries(closure), m
        assert group.order_census() == dict(Counter(e.projective_order() for e in group.elements)), m


def oracle_rotation_group(m, dihedral):
    """The eager listing of ``moebius._rotation_group`` before its elements
    were built lazily: every power r^k and r^-k first, then the level-by-
    level list, with the closed-form census."""
    ident, j = MoebiusMap.identity(), MoebiusMap.inversion()
    r = MoebiusMap.scaling(Cyclotomic.zeta(m)) if m > 1 else ident
    up, down, r_inv = [ident], [ident], r.inverse()
    for _ in range(m // 2):
        up.append(up[-1].compose(r))
        down.append(down[-1].compose(r_inv))
    elements = [ident]
    for k in range(1, m // 2 + 2):
        if 2 * k <= m:
            elements.append(up[k])
        if dihedral:
            elements.append(up[k - 1].compose(j))
            if 0 < 2 * k - 2 < m:
                elements.append(j.compose(up[k - 1]))
        if 2 * k < m:
            elements.append(down[k])
    gens = [r, j] if dihedral else [r]
    return FiniteSubgroup(elements, generators=gens, census=moebius._rotation_census(m, dihedral))


@pytest.mark.parametrize("dihedral", [False, True], ids=["cyclic", "dihedral"])
def test_lazy_rotation_groups_equal_the_eager_listing(dihedral):
    # order and census before any element is built, then the same elements
    # with the same stored representatives, iterated lazily and listed
    for m in range(1, 61):
        want = oracle_rotation_group(m, dihedral)
        group = moebius._rotation_group(m, dihedral)
        assert group.order == want.order == len(want.elements), m
        assert group.order_census() == want.order_census(), m
        assert callable(group._elements), m  # nothing listed yet
        assert [tuple((v.n, v.nums, v.den) for v in e.entries()) for e in group] == _stored_entries(want), m
        assert callable(group._elements), m  # iterating lists nothing
        assert _stored_entries(group) == _stored_entries(want), m
        assert group.elements is group.elements and group.order == want.order, m
        assert [e.entries() for e in group.generators] == [e.entries() for e in want.generators], m


def spy_on_rotation_elements(monkeypatch) -> list:
    """The list, filled as they are built, of the elements that the lazy
    cyclic and dihedral listings yield."""
    built, real = [], moebius._rotation_elements

    def spy(*args):
        for e in real(*args):
            built.append(e)
            yield e

    monkeypatch.setattr(moebius, "_rotation_elements", spy)
    return built


def test_a_lazy_group_builds_elements_only_as_they_are_reached(monkeypatch):
    built = spy_on_rotation_elements(monkeypatch)
    group = moebius._rotation_group(4001, True)
    assert (group.order, group.label, len(group.generators)) == (8002, "dihedral:4001", 2)
    assert classify_finite_subgroup(group) == "dihedral:4001" and not built
    first = next(iter(group))
    assert first.is_identity() and len(built) == 1


def test_classification():
    assert classify_finite_subgroup(standard_subgroup("tetra")) == "tetra"
    assert classify_finite_subgroup(standard_subgroup("octa")) == "octa"
    assert classify_finite_subgroup(standard_subgroup("icosa")) == "icosa"
    assert classify_finite_subgroup(standard_subgroup("cyclic", 6)) == "cyclic:6"
    for m in (2, 3, 4, 6):
        assert classify_finite_subgroup(standard_subgroup("dihedral", m)) == f"dihedral:{m}"
    # order 4: cyclic vs dihedral(2) distinguished by census
    assert classify_finite_subgroup(standard_subgroup("cyclic", 4)) == "cyclic:4"


def test_conjugate_examples():
    z2 = RationalMap.from_zpoly([1, 0, 0], [0, 0, 1])
    assert conjugate_map(z2, MoebiusMap.inversion()).proportional_to(z2)
    assert conjugate_map(z2, MoebiusMap.identity()).proportional_to(z2)
    zp1 = RationalMap.from_zpoly([1, 1], [0, 1])
    from fractions import Fraction

    half = RationalMap.from_zpoly([1, Fraction(1, 2)], [0, 1])
    assert conjugate_map(zp1, MoebiusMap.scaling(2)).proportional_to(half)


def test_conjugation_right_action():
    rng = random.Random(9)
    phi = RationalMap.from_zpoly([1, 2, -1], [3, 0, 1])
    for _ in range(6):
        f = MoebiusMap(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(3, 5))
        h = MoebiusMap(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(3, 5))
        lhs = conjugate_map(conjugate_map(phi, f), h)
        rhs = conjugate_map(phi, f.compose(h))
        assert lhs.proportional_to(rhs)


def test_conjugation_preserves_ratd_membership():
    phi = RationalMap.from_zpoly([1, 0, 2], [0, 1, 1])
    assert phi.is_in_ratd()
    f = MoebiusMap(1, 2, 1, 3)
    assert conjugate_map(phi, f).is_in_ratd()


def test_sl2_lift():
    i = Cyclotomic.zeta(4)
    m = MoebiusMap(i, i, 1, -1)  # det -2i
    g = m.sl2_lift()
    assert g.det() == 1
    assert g == m  # projectively unchanged
    m2 = MoebiusMap.scaling(Cyclotomic.zeta(5))
    assert m2.sl2_lift().det() == 1
    bad = MoebiusMap(Cyclotomic.zeta(5) + 1, 0, 0, 1)  # det not rational * root of unity
    with pytest.raises(UnliftableInField):
        bad.sl2_lift()


def test_fixed_points_exact():
    m = MoebiusMap.scaling(Cyclotomic.zeta(3))
    pts = m.fixed_points()
    assert set(pts) == {P1Point.affine(0), P1Point.infinity()}
    inv = MoebiusMap.inversion()  # fixes +-1
    assert set(inv.fixed_points()) == {P1Point.affine(1), P1Point.affine(-1)}
    i = Cyclotomic.zeta(4)
    rot = MoebiusMap(i, i, 1, -1)
    for p in rot.fixed_points():
        assert rot.apply(p) == p


def test_a_parabolic_triangular_map_has_one_fixed_point():
    assert MoebiusMap(1, 0, 1, 1).fixed_points() == [P1Point.affine(0)]  # z / (z + 1)
    assert MoebiusMap(1, 1, 0, 1).fixed_points() == [P1Point.infinity()]  # z + 1
    assert MoebiusMap(2, 0, 1, 1).fixed_points() == [P1Point.affine(0), P1Point.affine(1)]
    assert MoebiusMap(2, 1, 0, 1).fixed_points() == [P1Point.infinity(), P1Point.affine(-1)]


def test_fixed_points_of_every_platonic_element():
    for kind in ("tetra", "octa"):
        g = standard_subgroup(kind)
        for e in g.elements:
            if e.is_identity():
                continue
            pts = e.fixed_points()
            assert len(pts) == 2
            for p in pts:
                assert e.apply(p) == p


def double_loop_sqrt(tr, pgl_order):
    """sqrt(tr^2 - 4) = xi - 1/xi by trying each xi = zeta_s^k, s = 2
    pgl_order and then s = pgl_order, as before k was read off acos(tr/2)."""
    for s in (2 * pgl_order, pgl_order):
        for k in range(s):
            xi = Cyclotomic.zeta(s, k)
            xi_inv = Cyclotomic.zeta(s, (s - k) % s)
            if xi + xi_inv == tr:
                return xi - xi_inv
    raise UnliftableInField(f"trace {tr!r} is not a sum of inverse roots of unity")


def oracle_projective_order(e, cap=512):
    """The order in PGL2 by composing e with itself, as before it was read
    off the eigenvalue ratio (``moebius._angle``)."""
    p = e
    for k in range(1, cap + 1):
        if p.is_identity():
            return k
        p = p.compose(e)
    raise CapExceeded(f"order exceeds {cap}")


def _stored_points(points):
    return [(p.x, p.x.n, p.y, p.y.n) for p in points]


def test_the_trace_root_matches_the_double_loop():
    # fixed_points against the points built from the double loop's root, in
    # value and conductor, wherever it takes a root: b and c both nonzero
    groups = [standard_subgroup(kind) for kind in ("tetra", "octa", "icosa")]
    groups += [generate_closure(_conjugated(kind), cap=61) for kind in ("tetra", "octa", "icosa")]
    groups += [standard_subgroup("dihedral", m) for m in range(1, 13)]
    for group in groups:
        for e in group.elements:
            if e.b and e.c:
                g = e.sl2_lift()
                root = double_loop_sqrt(g.a + g.d, oracle_projective_order(e))
                want = [P1Point((g.a - g.d) + sign * root, g.c + g.c) for sign in (1, -1)]
                assert _stored_points(e.fixed_points()) == _stored_points(want), (group, e)
    # trace 3, determinant 1: loxodromic, of no finite order
    assert moebius._angle(MoebiusMap(2, 1, 1, 1)) is None
    with pytest.raises(UnliftableInField):
        double_loop_sqrt(Cyclotomic.rational(3), 2)


def _finite_order_cases():
    for kind in ("tetra", "octa", "icosa"):
        yield kind, standard_subgroup(kind).elements
        yield f"{kind}^M", [_M.inverse().compose(e).compose(_M) for e in standard_subgroup(kind).elements]
    for m in range(1, 41):
        for kind in ("cyclic", "dihedral"):
            yield f"{kind}:{m}", standard_subgroup(kind, m).elements


@pytest.mark.parametrize("case", list(_finite_order_cases()), ids=lambda case: case[0])
def test_projective_order_matches_the_composition_loop(case, monkeypatch):
    _, elements = case
    want = [oracle_projective_order(e) for e in elements]
    composed = []
    real = MoebiusMap.compose
    monkeypatch.setattr(MoebiusMap, "compose", lambda x, y: composed.append(1) or real(x, y))
    assert [e.projective_order() for e in elements] == want
    assert composed == []


@pytest.mark.parametrize("g", [MoebiusMap(2, 1, -1, 0), MoebiusMap(2, 1, 1, 1)], ids=["parabolic", "loxodromic"])
def test_an_element_of_infinite_order_exceeds_the_cap(g):
    with pytest.raises(CapExceeded):
        g.projective_order()
    with pytest.raises(CapExceeded):
        g.fixed_points()


def test_an_order_past_the_cap_exceeds_it():
    rotation = MoebiusMap.scaling(Cyclotomic.zeta(13))
    with pytest.raises(CapExceeded):
        rotation.projective_order(cap=12)
    assert rotation.projective_order(cap=13) == oracle_projective_order(rotation) == 13


def test_degenerate_orbit_structure():
    expected = {
        "tetra": ([4, 4, 6], 14),
        "octa": ([6, 8, 12], 26),
        "icosa": ([12, 20, 30], 62),
    }
    for kind, (sizes, total) in expected.items():
        g = standard_subgroup(kind)
        orbs = degenerate_orbits(g)
        assert [d.degree for d, _ in orbs] == sizes
        assert sum(d.degree for d, _ in orbs) == total == g.order + 2
        for div, stab in orbs:
            assert stab * div.degree == g.order
            p = div.support()[0]
            assert sum(e.apply(p) == p for e in g.elements) == stab


def test_degenerate_orbits_dihedral_cyclic():
    d3 = degenerate_orbits(standard_subgroup("dihedral", 3))
    assert sorted(d.degree for d, _ in d3) == [2, 3, 3]
    assert sum(d.degree for d, _ in d3) == 8  # |G| + 2
    c4 = degenerate_orbits(standard_subgroup("cyclic", 4))
    assert sorted(d.degree for d, _ in c4) == [1, 1]


def oracle_degenerate_orbits(group):
    """The scan of the fixed points of every non-identity element, each
    orbit started at the first fixed point no earlier orbit holds."""
    points = {}
    for e in group.elements:
        if not e.is_identity():
            for p in e.fixed_points():
                p = p.minimized()
                points.setdefault(p, p)
    orbits = []
    while points:
        orbit = _scanned_orbit(group, next(iter(points)))
        for q in orbit:
            points.pop(q, None)
        orbits.append((Divisor.of_points(orbit), group.order // len(orbit)))
    orbits.sort(key=lambda t: (t[0].degree, -t[1]))
    return orbits


def _scanned_orbit(group, p):
    # the images of p under every element, in element order, no repeats
    return list(dict.fromkeys(e.apply(p).minimized() for e in group.elements))


def _orbit_terms(orbits):
    # the BFS of FiniteSubgroup.orbit lists an orbit's points in its own
    # order, so each orbit compares as a point set
    return [(dict(div.terms), stab) for div, stab in orbits]


def test_the_riemann_hurwitz_stop_finds_every_degenerate_orbit():
    groups = [standard_subgroup(kind, m) for kind in ("cyclic", "dihedral") for m in range(1, 13)]
    groups += [standard_subgroup(kind) for kind in ("tetra", "octa", "icosa")]
    groups += [generate_closure(_conjugated(kind), cap=60) for kind in ("tetra", "octa", "icosa")]
    for group in groups:
        assert _orbit_terms(degenerate_orbits(group)) == _orbit_terms(oracle_degenerate_orbits(group)), group


def test_the_bfs_orbit_is_the_element_scan_orbit():
    groups = [standard_subgroup(kind, m) for kind in ("cyclic", "dihedral") for m in range(1, 13)]
    groups += [standard_subgroup(kind) for kind in ("tetra", "octa", "icosa")]
    groups += [generate_closure(_conjugated(kind), cap=60) for kind in ("tetra", "octa", "icosa")]
    # a copy without generators keeps the element scan
    octa = standard_subgroup("octa")
    groups.append(FiniteSubgroup(octa.elements, octa.label))
    rational = [P1Point.affine(0), P1Point.infinity(), P1Point.affine(2), P1Point.affine(Fraction(-1, 3))]
    for group in groups:
        fixed = [p for e in group.elements[1:6] for p in e.fixed_points()]
        for p in fixed + rational:
            orbit = group.orbit(p)
            assert len(set(orbit)) == len(orbit), (group, p)
            assert set(orbit) == set(_scanned_orbit(group, p)), (group, p)
            assert group.order % len(orbit) == 0
    assert not groups[-1].generators


def test_icosa_orbits_stop_early(monkeypatch):
    seen = []
    fixed_points = MoebiusMap.fixed_points

    def spy(self):
        seen.append(self)
        return fixed_points(self)

    monkeypatch.setattr(MoebiusMap, "fixed_points", spy)
    assert [div.degree for div, _ in degenerate_orbits(standard_subgroup("icosa"))] == [12, 20, 30]
    assert len(seen) < 10


def test_a_group_copied_without_generators_classifies():
    g = standard_subgroup("dihedral", 3)
    g2 = FiniteSubgroup(g.elements, g.label)
    assert g.generators and not g2.generators
    assert g2.order == 6 and g2.label == "dihedral:3"
    assert classify_finite_subgroup(g2) == "dihedral:3"


def _catalog():
    groups = [standard_subgroup("cyclic", m) for m in range(1, 13)]
    groups += [standard_subgroup("dihedral", m) for m in range(1, 9)]
    return groups + [standard_subgroup(kind) for kind in ("tetra", "octa", "icosa")]


def test_order_census_is_cached_but_not_shared():
    for group in _catalog():
        recount = dict(Counter(e.projective_order() for e in group.elements))
        first = group.order_census()
        assert first == recount
        first[1] = 99
        first[97] = 1
        assert group.order_census() == recount
        assert group.order_census() is not group.order_census()


def test_classification_of_every_catalog_group():
    for group in _catalog():
        # the order-2 group <1/z> is cyclic
        expected = "cyclic:2" if group.label == "dihedral:1" else group.label
        assert classify_finite_subgroup(group) == expected
        assert classify_finite_subgroup(group) == expected  # census served from the cache
        assert classify_finite_subgroup(FiniteSubgroup(group.elements, group.label)) == expected


def oracle_cayley_graph(gens, cap):
    """The Cayley graph as ``moebius._cayley_graph`` found it on matrices
    before it ran on permutations: a BFS of right multiplications, each
    product composed and keyed by its normalized entries (``projective_key``),
    and the same right, rights and lefts tables derived from it."""
    elements, right, index = [], [], {}

    def find(h):
        k = index.setdefault(projective_key(h), len(elements))
        if k == len(elements):
            elements.append(h)
        return k

    find(MoebiusMap.identity())
    for h in elements:
        if len(elements) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        right.append([find(h.compose(g)) for g in gens])
    rights = list(zip(*right))
    rights += [{y: x for x, y in enumerate(col)} for col in rights]
    lefts = [{0: col[0]} for col in rights]
    for x, row in enumerate(right):
        for i, y in enumerate(row):
            for out in lefts:
                out.setdefault(y, right[out[x]][i])
    return elements, right, rights, lefts


def _entries(elements):
    return [tuple((v.n, v.nums, v.den) for v in e.entries()) for e in elements]


def test_the_permutation_graph_is_the_key_bfs(monkeypatch):
    # same elements (stored entries, in order), tables, powers and census,
    # found from an empty graph cache; each element is composed on first read
    monkeypatch.setattr(moebius, "_CAYLEY", {})
    for name, gens in _closure_cases():
        elements, right, rights, lefts = oracle_cayley_graph(gens, 61)
        got = moebius._cayley_graph(gens, 61)
        assert got[1:4] == (right, rights, lefts), name
        assert not got[0].made.keys() - {0}, name  # nothing composed yet
        assert _entries(got[0]) == _entries(elements), name
        assert [len(c) for c in got[5]] == [oracle_projective_order(e) for e in elements], name
        for x, cycle in enumerate(got[5]):  # the indices of elements[x]^1, ^2, ..., 1
            power = elements[x]
            for y in cycle:
                assert projective_key(elements[y]) == projective_key(power), (name, x)
                power = power.compose(elements[x])
        census = Counter(e.projective_order() for e in oracle_closure(gens, 61).elements)
        assert list(generate_closure(gens, cap=61).order_census().items()) == list(census.items()), name


def test_a_closure_is_found_with_no_product_and_composed_on_first_read(monkeypatch):
    monkeypatch.setattr(moebius, "_CAYLEY", {})
    composed = []
    real = MoebiusMap.compose
    monkeypatch.setattr(MoebiusMap, "compose", lambda x, y: composed.append(1) or real(x, y))
    for kind, order in (("tetra", 12), ("octa", 24), ("icosa", 60)):
        group = generate_closure(standard_subgroup(kind).generators, cap=order)
        census = group.order_census()
        assert (group.order, sum(census.values()), composed) == (order, order, []), kind
        assert sorted(group._cayley) == list(range(order)), kind
        first = next(iter(group))
        assert first.is_identity() and composed == [], kind
        assert _entries(group.elements) == _entries(standard_subgroup(kind).elements), kind
        assert len(composed) == order - 1, kind
        assert _entries(group) == _entries(group.elements) and len(composed) == order - 1, kind
        composed.clear()


@pytest.mark.parametrize("m", range(1, 13))
def test_groups_with_a_short_orbit_of_infinity_close_through_more_seeds(m):
    # <-z>, <zeta_m z> and <zeta_m z, 1/z> fix infinity or swap it with 0, so
    # the points are infinity, 0 and the orbit of 1
    rotation = MoebiusMap.scaling(Cyclotomic.zeta(m))
    dihedral = [rotation, MoebiusMap.inversion()]
    cases = [([MoebiusMap.scaling(-1)], 2, 4), ([rotation], m, m + 2), (dihedral, 2 * m, m + 2)]
    for gens, order, points in cases:
        group = generate_closure(gens, cap=2 * m + 1)
        perms = moebius._cayley_graph(gens, 2 * m + 1)[4]
        assert (group.order, len(perms), len(perms[0])) == (order, order, max(points, 3)), (m, order)
        assert group.order_census() == dict(Counter(oracle_projective_order(e) for e in group.elements))


def test_an_element_of_infinite_order_generates_past_every_cap():
    # z + 1 moves 0 to 1, 2, 3, ...: its orbit passes the cap, and nothing is cached
    translation = MoebiusMap(1, 1, 0, 1)
    for cap in (50, 512):
        with pytest.raises(CapExceeded):
            generate_closure([translation], cap=cap)
    assert (tuple((v.n, v.nums, v.den) for v in translation.entries()),) not in moebius._CAYLEY
    with pytest.raises(CapExceeded):
        generate_closure([MoebiusMap(2, 1, 1, 1)])  # loxodromic


def oracle_bfs_orbits(group):
    """``degenerate_orbits`` as it was before the coset walk: the element
    scan with the Riemann-Hurwitz stop, each orbit closed under the
    generators by ``FiniteSubgroup.orbit``."""
    target, total = 2 - Fraction(2, group.order), Fraction(0)
    covered, orbits = set(), []
    for e in group.elements:
        if total == target:
            break
        for p in [] if e.is_identity() else e.fixed_points():
            if (p := p.minimized()) not in covered:
                orbit = group.orbit(p)
                covered.update(orbit)
                orbits.append((Divisor.of_points(orbit), group.order // len(orbit)))
                total += 1 - Fraction(len(orbit), group.order)
    orbits.sort(key=lambda t: (t[0].degree, -t[1]))
    return orbits


def _ordered_points(orbits):
    return [([(p.x.n, p.x.nums, p.x.den, p.y.n, p.y.nums, p.y.den) for p in div.terms], stab) for div, stab in orbits]


def test_the_coset_walk_lists_each_orbit_as_the_generator_bfs(monkeypatch):
    closures = [generate_closure(standard_subgroup(kind).generators, cap=60) for kind in ("tetra", "octa", "icosa")]
    closures += [generate_closure(_conjugated(kind), cap=60) for kind in ("tetra", "octa", "icosa")]
    for m in range(1, 13):
        for kind in ("cyclic", "dihedral"):
            closures.append(generate_closure(standard_subgroup(kind, m).generators, cap=2 * m))
    # S4 as <-z, i(z+1)/(z-1), iz>: its first scanned element -z is the square
    # of iz, so Stab(0) is <iz>, not <-z>
    i = Cyclotomic.zeta(4)
    closures.append(generate_closure([MoebiusMap.scaling(-1), MoebiusMap(i, i, 1, -1), MoebiusMap.scaling(i)], cap=24))
    rotations = [standard_subgroup(kind, m) for kind in ("cyclic", "dihedral") for m in range(1, 13)]
    applied = []
    real = MoebiusMap.apply
    monkeypatch.setattr(MoebiusMap, "apply", lambda g, p: applied.append(1) or real(g, p))
    for group in closures + rotations:
        want = oracle_bfs_orbits(group)
        applied.clear()
        got = degenerate_orbits(group)
        if group._cayley:  # |G p| - 1 applications per orbit, each point minimized once
            assert len(applied) == sum(div.degree - 1 for div, _ in got), group
        assert _ordered_points(got) == _ordered_points(want), group
        assert _orbit_terms(got) == _orbit_terms(oracle_degenerate_orbits(group)), group


def _octa_square_of_a_quarter_turn():
    # (p, the power cycle of an order-4 rotation, that of its square e, a fixed point of e)
    octa = generate_closure(standard_subgroup("octa").generators, cap=24, label="octa")
    powers = moebius._cayley_graph(octa.generators, 24)[5]
    quarter = next(c for c in powers if len(c) == 4)
    e = moebius._cayley_graph(octa.generators, 24)[0][quarter[1]]
    return octa, quarter, powers[quarter[1]], e.fixed_points()[0].minimized()


def test_a_proper_power_taken_for_the_stabilizer_is_refused():
    octa, quarter, square, p = _octa_square_of_a_quarter_turn()
    assert len(square) == 2 and square[0] == quarter[1]
    assert moebius._coset_orbit(octa, p, quarter) == octa.orbit(p) and len(octa.orbit(p)) == 6
    with pytest.raises(AssertionError, match=r"\|G p\| \|Stab\(p\)\| = 6 \* 2 is not \|G\|"):
        moebius._coset_orbit(octa, p, square)


_WRONG_STABILIZER = """
import sys
sys.path.insert(0, {tests!r})
from test_moebius import _octa_square_of_a_quarter_turn
from symloci import moebius
octa, quarter, square, p = _octa_square_of_a_quarter_turn()
try:
    moebius._coset_orbit(octa, p, square)
except AssertionError as exc:
    print("refused:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_proper_power_is_refused_also_under_optimization(flags):
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(moebius.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *flags, "-c", _WRONG_STABILIZER.format(tests=tests)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and "refused: octa" in proc.stdout, proc.stdout + proc.stderr
