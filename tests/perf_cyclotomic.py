"""Layer micro-benchmark of the exact field kernel: Cyclotomic *, + and
inverse, per conductor, and the reduction ``_fold`` under all of them.

    PYTHONPATH=src python -m pytest tests/perf_cyclotomic.py --benchmark-only

Each round runs one operation over a fixed list of 49 operand pairs drawn
by a seeded generator (coefficients p/q, |p| <= 9, 1 <= q <= 6); a fold
reduces one dense integer raw of length n.  The conductors are those the
survey and construct-check workloads multiply at.  The file
name is outside the test_*.py pattern, so the default test run skips it.
"""

import random
from fractions import Fraction

import pytest

from symloci import cyclotomic
from symloci.cyclotomic import Cyclotomic, euler_phi

CONDUCTORS = [1, 4, 5, 8, 10, 12, 15, 20, 24]


def _operands(n, count=50):
    rng = random.Random(n)
    return [
        Cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(euler_phi(n))])
        for _ in range(count)
    ]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_mul(benchmark, n):
    xs = _operands(n)
    pairs = list(zip(xs, xs[1:]))
    benchmark(lambda: [a * b for a, b in pairs])


@pytest.mark.parametrize("n", CONDUCTORS)
def test_add(benchmark, n):
    xs = _operands(n)
    pairs = list(zip(xs, xs[1:]))
    benchmark(lambda: [a + b for a, b in pairs])


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse(benchmark, n):
    xs = [x for x in _operands(n) if x][:49]
    benchmark(lambda: [x.inverse() for x in xs])


@pytest.mark.parametrize("n", CONDUCTORS)
def test_fold(benchmark, n):
    rng = random.Random(n)
    raw = [rng.randint(-9, 9) for _ in range(n)]
    phi = euler_phi(n)
    benchmark(lambda: cyclotomic._fold(n, phi, list(raw)))


def test_first_fold_at_a_large_conductor(benchmark):
    # zeta_27720^27719 with every cache of the module cleared, as in a fresh process
    def first():
        for f in vars(cyclotomic).values():
            getattr(f, "cache_clear", lambda: None)()
        return Cyclotomic.zeta(27720, 27719)

    benchmark.pedantic(first, rounds=5)
