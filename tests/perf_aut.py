"""Layer micro-benchmarks of numeric discovery: discover_automorphisms on
the constructed octa d = 13, tetra d = 11 and tetra d = 13 maps, plain and
conjugated by (0, -1, 1, -2), and its permutation filter
aut._permuting_triples on the 14 fixed points of the octa d = 13 map and
on the 62 fixed points of z^61.

    PYTHONPATH=src python -m pytest tests/perf_aut.py --benchmark-only

The file name is outside the test_*.py pattern, so the default test run
skips it.
"""

from functools import lru_cache

import pytest

from symloci.aut import _cluster, _complex_coeffs, _permuting_triples, _roots_of_form, discover_automorphisms
from symloci.forms import RationalMap
from symloci.moebius import MoebiusMap, conjugate_map
from symloci.platonic import construct_symmetric_map

CASES = [("octa", 13), ("tetra", 11), ("tetra", 13)]
AUT_ORDER = {("octa", 13): 24, ("tetra", 11): 12, ("tetra", 13): 24}


@lru_cache(maxsize=None)
def _map(kind, d, conjugated):
    phi, _ = construct_symmetric_map(d, kind)
    return conjugate_map(phi, MoebiusMap(0, -1, 1, -2)) if conjugated else phi


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "M"])
@pytest.mark.parametrize("kind,d", CASES, ids=[f"{k}{d}" for k, d in CASES])
def test_discover_automorphisms(benchmark, kind, d, conjugated):
    report = benchmark(discover_automorphisms, _map(kind, d, conjugated), 1e-8)
    # at most |Aut(phi)|: discovery may miss elements
    assert 0 < report.numeric_order <= AUT_ORDER[kind, d]


def _fixed_points(phi):
    # the periodic points discovery starts from, at --tolerance 1e-8
    j = phi.fixed_point_form()
    lead_zeros = next(i for i, c in enumerate(j.coeffs) if c)
    return _cluster(_roots_of_form(_complex_coeffs(j), lead_zeros), 1e-4)


@pytest.mark.parametrize("n", [14, 62])
def test_permuting_triples(benchmark, n):
    phi = _map("octa", 13, False) if n == 14 else RationalMap.from_zpoly([1] + [0] * 61, [0] * 61 + [1])
    points = _fixed_points(phi)
    assert len(points) == n
    triples = benchmark(lambda: list(_permuting_triples(points, 1e-4)))
    assert len(triples) == (24 if n == 14 else 120)
