"""Layer micro-benchmarks of the platonic set-up, per group: closing the
generators (moebius.generate_closure), finding the degenerate orbits
(moebius.degenerate_orbits) and the orbit forms with their lifted
characters (platonic._cached_table).  Also the exact automorphism test of
one generator on a degree-24 map, by coefficient weights (aut._fixes) and
by conjugation (aut.is_automorphism).

    PYTHONPATH=src python -m pytest tests/perf_moebius.py --benchmark-only

Each round starts from an empty cache for what it times: the closure
without its cached Cayley graph, the table without its cached rows (the
orbits it reads stay cached; they are timed on their own).  The file name
is outside the test_*.py pattern, so the default test run skips it.
"""

import pytest

from symloci import moebius, platonic
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
def test_degenerate_orbits(benchmark, kind):
    group = standard_subgroup(kind)
    assert len(benchmark(degenerate_orbits, group)) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_cached_table(benchmark, kind):
    platonic._orbit_data(kind)
    rows = benchmark.pedantic(
        platonic._cached_table, args=(kind,), setup=platonic._cached_table.cache_clear, rounds=20
    )
    assert len(rows) == 3


def _fixes_cases():
    # a degree-24 member of the dihedral:5 locus, under its rotation, its
    # inversion and the dense octahedral generator i(z+1)/(z-1)
    from symloci.cyclotomic import Cyclotomic
    from symloci.loci import dihedral_generic_member
    from symloci.moebius import MoebiusMap

    phi = dihedral_generic_member(24, 5, -1, 1)
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
