"""Layer micro-benchmark of the resultant: forms.sylvester_resultant on
fixed pairs of degree-d forms, per degree and conductor.

    PYTHONPATH=src python -m pytest tests/perf_forms.py --benchmark-only

Each round computes the resultant of one pair (F, G) of degree-d forms
drawn by a seeded generator: coefficients a + b zeta_n with a, b integers
in [-9, 9], the zeta term present half the time (always rational at
conductor 1).  The file name is outside the test_*.py pattern, so the
default test run skips it.
"""

import random

import pytest

from symloci.cyclotomic import Cyclotomic
from symloci.forms import BinaryForm, sylvester_resultant

CASES = [(8, 1), (11, 1), (13, 1), (13, 5), (13, 12)]


def _form(rng, d, n):
    coeffs = []
    for _ in range(d + 1):
        c = Cyclotomic.rational(rng.randint(-9, 9))
        if n > 1 and rng.random() < 0.5:
            c = c + Cyclotomic.zeta(n) * rng.randint(-9, 9)
        coeffs.append(c)
    return BinaryForm(d, coeffs)


@pytest.mark.parametrize("d, n", CASES)
def test_sylvester_resultant(benchmark, d, n):
    rng = random.Random(f"{d}:{n}")
    f, g = _form(rng, d, n), _form(rng, d, n)
    assert benchmark(sylvester_resultant, f, g)
