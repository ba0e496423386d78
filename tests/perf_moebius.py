"""Layer micro-benchmarks of the platonic set-up, per group: closing the
generators (moebius.generate_closure), finding the degenerate orbits
(moebius.degenerate_orbits) and the orbit forms with their lifted
characters (platonic._cached_table).

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
