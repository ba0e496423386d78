"""Layer micro-benchmark of the exact field kernel: Cyclotomic *, + and
inverse, per conductor.

    PYTHONPATH=src python -m pytest tests/perf_cyclotomic.py --benchmark-only

Each round runs one operation over a fixed list of 49 operand pairs drawn
by a seeded generator (coefficients p/q, |p| <= 9, 1 <= q <= 6).  The file
name is outside the test_*.py pattern, so the default test run skips it.
"""

import random
from fractions import Fraction

import pytest

from symloci.cyclotomic import Cyclotomic, euler_phi

CONDUCTORS = [1, 4, 5, 12, 20]


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
