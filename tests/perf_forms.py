"""Layer micro-benchmarks of the forms layer: forms.sylvester_resultant on
fixed pairs of degree-d forms and on the octa d = 13 map conjugated by
(2, 1, -3, -1) and by (-2, -1, -1, -1), forms.form_gcd of A C and B C for
forms A, B of degree 8 and C of degree 5 at conductors 1, 5 and 12,
forms.substitute of one degree-24 form under a diagonal, an anti-diagonal,
a dense and an integer dense matrix per conductor, of one degree-119 form
under the icosa generator T and of the degree-11 form of test_forms.py with
coefficients at conductors 5, 7, 8, 9, 11 and 12 under (zeta_4, 1, 2, 3),
forms._product_mod of two degree-d lists mod 2^61 - 1 at d = 12, 30 and 60 (the
package multiplies at most 61 entries: the orbit forms and their syzygy),
and RationalMap.is_in_ratd on the quotient x -> x^M against the exact
resultant on a degree-11 dihedral member, the degree-79 cyclic:2 member
(stride 2) and the octa d = 13 map.  Every matrix takes the same packed
Horner path, one pass per coefficient conductor, so the monomial matrices
time that path too.

    PYTHONPATH=src python -m pytest tests/perf_forms.py --benchmark-only

The forms are drawn by a seeded generator: coefficients a + b zeta_n with
a, b integers in [-9, 9], the zeta term present half the time (always
rational at conductor 1).  The resultant's rounds take one pair (F, G);
the substitutions act by zeta_n z, 1/z, (z + 1)/(zeta_n z + 2) and
(2z + 1)/(z + 1), whose matrices are diagonal, anti-diagonal, dense and
dense with integer entries, as a conjugation by SL2(Z) is.  The file name
is outside the test_*.py pattern, so the default test run skips it.
"""

import random

import pytest

from symloci.cyclotomic import Cyclotomic
from symloci.forms import BinaryForm, RationalMap, _product_mod, form_gcd, substitute, sylvester_resultant
from symloci.loci import dihedral_generic_member, generic_member
from symloci.moebius import MoebiusMap, conjugate_map, standard_subgroup
from symloci.platonic import construct_symmetric_map
from test_forms import MIXED_FORM

CASES = [(8, 1), (11, 1), (13, 1), (13, 5), (13, 12)]
SUBSTITUTION_MATRICES = {
    "diagonal": lambda z: (z, 0, 0, 1),
    "anti-diagonal": lambda z: (0, 1, 1, 0),
    "dense": lambda z: (1, 1, z, 2),
    "integer": lambda z: (2, 1, 1, 1),
}


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


@pytest.mark.parametrize("m", [(2, 1, -3, -1), (-2, -1, -1, -1)], ids=str)
def test_sylvester_resultant_octa_conjugate(benchmark, m):
    phi = conjugate_map(construct_symmetric_map(13, "octa")[0], MoebiusMap(*m))
    assert benchmark(sylvester_resultant, phi.F, phi.G)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_form_gcd(benchmark, n):
    rng = random.Random(f"gcd:{n}")
    a, b, c = _form(rng, 8, n), _form(rng, 8, n), _form(rng, 5, n)
    assert benchmark(form_gcd, a * c, b * c).degree >= 5


@pytest.mark.parametrize("kind", sorted(SUBSTITUTION_MATRICES))
@pytest.mark.parametrize("n", [1, 5, 12])
def test_substitute(benchmark, kind, n):
    rng = random.Random(f"substitute:{n}")
    f = _form(rng, 24, n)
    g = SUBSTITUTION_MATRICES[kind](Cyclotomic.zeta(n))
    assert not benchmark(substitute, f, g).is_zero()


@pytest.mark.parametrize("n", [1, 5])
def test_substitute_icosa_generator(benchmark, n):
    # T = (-(e - e^4), e^2 - e^3; e^2 - e^3, e - e^4), e = zeta_5: dense at conductor 5
    t = standard_subgroup("icosa").generators[1]
    assert t.b and t.c
    f = _form(random.Random(f"substitute:icosa:{n}"), 119, n)
    assert not benchmark(substitute, f, t).is_zero()


def test_substitute_mixed_conductors(benchmark):
    assert not benchmark(substitute, MIXED_FORM, (Cyclotomic.zeta(4), 1, 2, 3)).is_zero()


@pytest.mark.parametrize("d", [12, 30, 60])
def test_product_mod(benchmark, d):
    p, rng = 2**61 - 1, random.Random(f"product_mod:{d}")
    f, g = ([rng.randrange(p) for _ in range(d + 1)] for _ in "fg")
    assert len(benchmark(_product_mod, f, g, p)) == 2 * d + 1


IN_RATD_MAPS = {
    "dihedral:3 d=11": lambda: RationalMap.from_zpoly(*dihedral_generic_member(11, 3, -1, 1)),
    "cyclic:2 d=79": lambda: RationalMap.from_zpoly(*generic_member(79, 2, 1)),
    "octa d=13": lambda: construct_symmetric_map(13, "octa")[0],
}
IN_RATD_ROUTES = {
    "modular": lambda phi: phi.is_in_ratd(),
    "exact": lambda phi: bool(phi.resultant()),
}


@pytest.mark.parametrize("route", sorted(IN_RATD_ROUTES))
@pytest.mark.parametrize("name", sorted(IN_RATD_MAPS))
def test_is_in_ratd(benchmark, name, route):
    phi = IN_RATD_MAPS[name]()
    assert benchmark(IN_RATD_ROUTES[route], phi)
