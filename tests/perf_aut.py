"""Layer micro-benchmarks of numeric discovery: discover_automorphisms on
the constructed octa d = 13, tetra d = 11 and tetra d = 13 maps, plain and
conjugated by (0, -1, 1, -2), and on z^61 and the constructed icosa d = 59
map conjugated by (2, 1, 1, 1), and its helpers on the fixed points of the
octa d = 13 map (14 points) and of z^61 (62 points): aut._roots (the
rough roots, 1e-3, of the octa map under (2, 1, -3, -1) and of z^61, and
the accurate ones from the rough ones on the plain maps), aut._balancing
(of the same rough roots) and aut._rotations (of the balanced accurate
points of the plain maps).

    PYTHONPATH=src python -m pytest tests/perf_aut.py --benchmark-only

The file name is outside the test_*.py pattern, so the default test run
skips it.
"""

from functools import lru_cache

import pytest

from symloci.aut import _balancing, _distinct, _roots, _rotations, discover_automorphisms
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
    assert report.numeric_order == AUT_ORDER[kind, d]


HIGH_DEGREE = {"z61": (120, "dihedral:60"), "icosa59": (60, "icosa")}


@pytest.mark.parametrize("name", HIGH_DEGREE)
def test_discover_high_degree_conjugate(benchmark, name):
    if name == "z61":
        phi = RationalMap.from_zpoly([1] + [0] * 61, [0] * 61 + [1])
    else:
        phi = construct_symmetric_map(59, "icosa")[0]
    report = benchmark(discover_automorphisms, conjugate_map(phi, MoebiusMap(2, 1, 1, 1)), 1e-8)
    assert (report.numeric_order, report.classified) == HIGH_DEGREE[name]


@lru_cache(maxsize=None)
def _form(n):
    if n == 14:
        return conjugate_map(_map("octa", 13, False), MoebiusMap(2, 1, -3, -1)).fixed_point_form()
    return RationalMap.from_zpoly([1] + [0] * 61, [0] * 61 + [1]).fixed_point_form()


@pytest.mark.parametrize("n", [14, 62])
def test_rough_roots(benchmark, n):
    points, converged = benchmark(_roots, _form(n))
    assert converged and len(points) == n


def _plain_form(n):
    return _map("octa", 13, False).fixed_point_form() if n == 14 else _form(62)


@pytest.mark.parametrize("n", [14, 62])
def test_accurate_roots(benchmark, n):
    rough = _roots(_plain_form(n))[0]
    points, _ = benchmark(_roots, _plain_form(n), rough, 1e-14, 50)
    assert len(_distinct(points, 1e-4)) == n


@pytest.mark.parametrize("n", [14, 62])
def test_balancing(benchmark, n):
    points = _distinct(_roots(_form(n))[0], 1e-2)
    _, vs = benchmark(_balancing, points)
    assert max(abs(sum(v[k] for v in vs)) for k in range(3)) < 1e-10


@pytest.mark.parametrize("n", [14, 62])
def test_rotations(benchmark, n):
    vs = _balancing(_distinct(_roots(_plain_form(n), None, 1e-14, 50)[0], 1e-4))[1]
    perms = benchmark(lambda: list(_rotations(vs, 1e-4)))
    assert len(perms) == (24 if n == 14 else 120)
