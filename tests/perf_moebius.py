"""Layer micro-benchmarks of the platonic set-up, per group: closing the
generators (moebius.generate_closure), counting the element orders
(FiniteSubgroup.order_census, each read off the element's eigenvalue
ratio), finding the degenerate orbits (moebius.degenerate_orbits) and the
character table built from nothing cached (platonic.character_table over
platonic._orbit_forms); on icosa's 30-point orbit, the BFS of
FiniteSubgroup.orbit from one of its points and the orbit's form
(forms.form_from_divisor).  The exponents of the orbit
products of every character at n = 120 and 124 (platonic._orbit_exponents),
with their trace-formula count, from the cached orbit forms; the class sums
of that count for every character (platonic._class_sums), from the cached
Cayley graph: the conjugacy classes on its indices with one eigenvalue
ratio per class (platonic._class_table), and each character walked as
exponents of a root of unity; the trace-formula sum itself for every
character at n = 10..40 (platonic._trace_sum), with the class sums warm.  The icosa member test at J-degree n = 1002 and 4002
(platonic._member_meets, d = n - 1, trivial character) on the quotient P^1/G: the orbit
images and their independence mod p (platonic._orbit_images), the syzygy's branch value
(platonic._branch_value) and one short Euclid per seed.  Also the exact automorphism test of one
generator on a degree-24 map, by coefficient weights (aut._fixes) and by
conjugation (aut.is_automorphism); the map has integer coefficients, so
the weights case of 1/z times the identity on Python ints.  And the rows
of the cyclic and dihedral survey at d = 11 and 40 (loci.survey_rows):
the member search with its integer candidates, each proved on its two
int lists to be of its type, fixed by its generators and in Rat_d, with no
root-of-unity exponent and no rotation zeta_m z cached.

    PYTHONPATH=src python -m pytest tests/perf_moebius.py --benchmark-only

Each round starts from an empty cache for what it times: the closure
without its cached Cayley graph, the census not yet counted, the table
with no orbit data cached, so the orbits, their forms and each form's
scalar under each generator's determinant-1 lift (read at one point, no
substitution) are found again;
the exponents with no exponent, class or root-of-unity cache; the
class sums with no class table, class-sum or root-of-unity cache; the
member test with no orbit image or branch value cached.  The
file name is outside the test_*.py pattern, so the default test run skips
it.
"""

import pytest

from symloci import cyclotomic, moebius, platonic
from symloci.moebius import degenerate_orbits, generate_closure, standard_subgroup

KINDS = ["tetra", "octa", "icosa"]


@pytest.mark.parametrize("kind", KINDS)
def test_generate_closure(benchmark, kind):
    group = standard_subgroup(kind)
    closure = benchmark.pedantic(
        generate_closure, args=(group.generators, group.order), setup=moebius._CAYLEY.clear, rounds=20
    )
    assert closure.order == group.order


@pytest.mark.parametrize("kind", KINDS)
def test_order_census(benchmark, kind):
    group = standard_subgroup(kind)

    def cold():
        group._census = None

    census = benchmark.pedantic(group.order_census, setup=cold, rounds=20)
    assert sum(census.values()) == group.order


@pytest.mark.parametrize("kind", KINDS)
def test_degenerate_orbits(benchmark, kind):
    group = standard_subgroup(kind)
    assert len(benchmark(degenerate_orbits, group)) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_character_table(benchmark, kind):
    group = platonic.platonic_group(kind)
    rows = benchmark.pedantic(
        platonic.character_table, args=(group,), setup=platonic._orbit_forms.cache_clear, rounds=20
    )
    assert len(rows) == 3


def _exponent_cache():
    # the root-of-unity exponent cache, keyed on the stored value where the
    # tree has that key, so that the file also times a tree that hashes the value
    return getattr(cyclotomic, "_stored_root_exponent", cyclotomic._root_exponent)


def _class_caches():
    # the class table where the tree has one, so that the file also times
    # a tree whose class sums divide per element
    return [c for c in (platonic._class_sums, getattr(platonic, "_class_table", None), _exponent_cache()) if c]


@pytest.mark.parametrize("kind", KINDS)
def test_class_sums(benchmark, kind):
    def cold():
        for cached in _class_caches():
            cached.cache_clear()

    group = platonic.platonic_group(kind)
    chars = platonic.character_group(group)
    sums = benchmark.pedantic(lambda: [platonic._class_sums(group, char) for char in chars], setup=cold, rounds=50)
    assert all(sums)


@pytest.mark.parametrize("kind", KINDS)
def test_trace_sum(benchmark, kind):
    group = platonic.platonic_group(kind)
    cases = [(n, group, char) for char in platonic.character_group(group) for n in range(10, 41, 2)]
    sums = benchmark(lambda: [platonic._trace_sum(*case) for case in cases])
    assert all(s.is_rational() and s.nums[0] % group.order == 0 for s in sums)


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_exponents(benchmark, kind):
    def no_exponents():
        for cached in (platonic._orbit_exponents, *_class_caches()):
            cached.cache_clear()

    group = platonic.platonic_group(kind)
    chars = platonic.character_group(group)

    def exponents():
        return [platonic._orbit_exponents(n, group, char) for char in chars for n in (120, 124)]

    assert all(benchmark.pedantic(exponents, setup=no_exponents, rounds=20))


@pytest.mark.parametrize("n", [1002, 4002])
def test_product_images(benchmark, n):
    def no_images():
        for cached in (platonic._orbit_images, platonic._branch_value):
            cached.cache_clear()

    group = platonic.platonic_group("icosa")
    (trivial,) = platonic.character_group(group)
    assert benchmark.pedantic(platonic._member_meets, args=(n - 1, group, trivial, 24), setup=no_images, rounds=10)


def _icosa_orbit_30():
    div, _ = degenerate_orbits(standard_subgroup("icosa"))[2]
    assert div.degree == 30
    return div


def test_orbit(benchmark):
    group = standard_subgroup("icosa")
    assert len(benchmark(group.orbit, _icosa_orbit_30().support()[0])) == 30


def test_form_from_divisor(benchmark):
    from symloci.forms import form_from_divisor

    assert benchmark(form_from_divisor, _icosa_orbit_30()).degree == 30


def _fixes_cases():
    # a degree-24 member of the dihedral:5 locus, under its rotation, its
    # inversion and the dense octahedral generator i(z+1)/(z-1)
    from symloci.cyclotomic import Cyclotomic
    from symloci.forms import RationalMap
    from symloci.loci import dihedral_generic_member
    from symloci.moebius import MoebiusMap

    phi = RationalMap.from_zpoly(*dihedral_generic_member(24, 5, -1, 1))
    rotation, inversion = standard_subgroup("dihedral", 5).generators
    i = Cyclotomic.zeta(4)
    return phi, {"zeta5z": rotation, "1/z": inversion, "dense": MoebiusMap(i, i, 1, -1)}


@pytest.mark.parametrize("route", ["weights", "conjugation"])
@pytest.mark.parametrize("sigma", ["zeta5z", "1/z", "dense"])
def test_fixes(benchmark, sigma, route):
    from symloci.aut import _fixes, is_automorphism

    phi, sigmas = _fixes_cases()
    test = _fixes if route == "weights" else is_automorphism
    assert benchmark(test, phi, sigmas[sigma]) == (sigma != "dense")


@pytest.mark.parametrize("d", [11, 40])
def test_family_survey_rows(benchmark, d):
    from symloci.loci import survey_rows

    from symloci import loci

    def cold():  # no root-of-unity exponent and no rotation zeta_m z cached
        _exponent_cache().cache_clear()
        loci._rotation.cache_clear()

    rows = benchmark.pedantic(survey_rows, args=(d, ("cyclic", "dihedral")), setup=cold, rounds=10)
    assert rows and all(row["match"] for row in rows)
