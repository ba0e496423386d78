"""Layer micro-benchmark of the exact field kernel: Cyclotomic *, + and
inverse, per conductor, the reduction ``_fold`` under all of them, and
``minimal``, which reads the smallest field one prime at a time.

    PYTHONPATH=src python -m pytest tests/perf_cyclotomic.py --benchmark-only

Each round runs one operation over a fixed list of 49 operand pairs drawn
by a seeded generator (coefficients p/q, |p| <= 9, 1 <= q <= 6); a fold
reduces one dense integer raw of length n; ``minimal`` rewrites 49 such
operands promoted to 2n, promoted to 3n, and at their own smallest field.
``_image_field`` finds the prime p = 1 (mod n) below 2^61 and the root of
order n behind the maps to F_p, with every cache cleared, prime proofs too.
The conductors are those the survey and construct-check workloads multiply
at.  The file name is outside the test_*.py pattern, so the default test
run skips it.
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


@pytest.mark.parametrize("n", CONDUCTORS)
def test_minimal(benchmark, n):
    xs = [x.minimal() for x in _operands(n)[:49]]
    values = [y for x in xs for y in (x.promote(2 * x.n), x.promote(3 * x.n), x)]
    benchmark(lambda: [x.minimal() for x in values])


def _clear_caches():
    for f in vars(cyclotomic).values():
        getattr(f, "cache_clear", lambda: None)()


def test_first_minimal_at_a_composite_conductor(benchmark):
    # zeta_1155 + zeta_1155^7, already minimal at 1155 = 3 5 7 11, with every
    # cache of the module cleared, as in a fresh process
    x = Cyclotomic.zeta(1155) + Cyclotomic.zeta(1155, 7)
    assert benchmark.pedantic(x.minimal, setup=_clear_caches, rounds=3).n == 1155


@pytest.mark.parametrize("n", [1, 3, 4, 12, 20, 60])
def test_image_field(benchmark, n):
    p, _ = benchmark.pedantic(cyclotomic._image_field, args=(n,), setup=_clear_caches, rounds=50)
    assert p % n == 1 % n
