"""Images in F_p: the prime and the root of unity behind the ring map, and
every claim it proves (a nonzero resultant, a pair J, H meeting Rat_d, f_1
coprime to the other orbit forms, under which distinct first exponents make
the orbit products independent) against the exact route it replaces; a
zero image must leave the verdict to the exact route, or, for the premise
of the platonic products, which has no exact route, fail the certificate."""

import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import count
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from symloci import decomp, forms, platonic
from symloci.cli import main
from symloci.cyclotomic import (
    Cyclotomic,
    _cyclotomic_int_coeffs,
    _exact_order,
    _image_field,
    _images,
    _is_prime,
)
from symloci.decomp import FormPair, _meets_ratd_image, meets_ratd
from symloci.forms import (
    BinaryForm,
    RationalMap,
    _coprime_images,
    form_gcd,
    multiple_zero_locus,
    sylvester_resultant,
)
from symloci.loci import _seed_coefficients
from symloci.platonic import character_eigenspace, character_group, platonic_group

SRC = str(Path(__file__).resolve().parent.parent / "src")
CONDUCTORS = [1, 4, 5, 12]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _clear_image_caches():
    for cached in (platonic._orbit_images, platonic._branch_value, oracle_power_image, oracle_product_image):
        cached.cache_clear()


@lru_cache(maxsize=None)
def oracle_power_image(group, i, a):
    """The image mod p (``_orbit_images``) of f_i^a, built up through the
    cache 64 powers at a time: the power of the image route, which the member
    test read before it moved to the quotient P^1/G."""
    p, images = platonic._orbit_images(group)
    for k in range(a % 64, a, 64):
        oracle_power_image(group, i, k)
    return forms._product_mod(oracle_power_image(group, i, a - 1), images[i], p) if a else [1]


@lru_cache(maxsize=None)
def oracle_product_image(group, exps):
    """The image mod p of the orbit product f_1^a f_2^b f_3^c of exps."""
    p = platonic._orbit_images(group)[0]
    return reduce(partial(forms._product_mod, p=p), (oracle_power_image(group, i, a) for i, a in enumerate(exps)))


def oracle_product_images(n, group, char):
    """(p, the images mod p of the degree-n orbit products of char) when
    their first exponents are distinct and ``_orbit_images`` proves f_1
    coprime to the other forms, else (None, the exact basis): the helper that
    proved, sized and imaged a space in one call, kept as the oracle of
    ``_orbit_exponents`` and the image route's products."""
    exps = platonic._orbit_exponents(n, group, char)
    if (images := platonic._orbit_images(group)) and len({e[0] for e in exps}) == len(exps):
        p = images[0]
        product = partial(forms._product_mod, p=p)
        return p, [reduce(product, (oracle_power_image(group, i, a) for i, a in enumerate(e))) for e in exps]
    return None, character_eigenspace(n, group, char)


def _rows(n, group, char):
    # the image rows the image route read for one space
    return [oracle_product_image(group, e) for e in platonic._orbit_exponents(n, group, char)]


def _rank_mod(rows, p):
    """Rank over F_p of integer rows, each clearing its first nonzero
    column: the oracle for the independence of the orbit-product images."""
    rank, rows = 0, list(rows)
    while rows:
        piv = rows.pop()
        c = next((c for c, x in enumerate(piv) if x % p), None)
        if c is not None:
            rank, inv = rank + 1, pow(piv[c], -1, p)
            rows = [[(a - r[c] * inv * b) % p for a, b in zip(r, piv)] for r in rows]
    return rank


# ---------------------------------------------------------------------------
# the prime and the root
# ---------------------------------------------------------------------------


def test_miller_rabin_matches_trial_division_below_5000():
    primes = [n for n in range(5000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(5000) if _is_prime(n)] == primes


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the bases 2..23
        (2**31 - 1) * (2**61 - 1),
    ],
)
def test_miller_rabin_refuses_composites(n):
    assert not _is_prime(n)


def test_miller_rabin_accepts_large_primes():
    assert _is_prime(2**61 - 1) and _is_prime(2**89 - 1) and _is_prime(2**31 - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15, 24, 60, 120, 27720])
def test_image_field_is_a_ring_map(n):
    p, r = _image_field(n)
    assert p < 2**61 and (p - 1) % n == 0 and _is_prime(p) and _exact_order(r, n, p)
    # independently of the order test: r is a root of Phi_n mod p
    assert sum(c * pow(r, i, p) for i, c in enumerate(_cyclotomic_int_coeffs(n))) % p == 0
    if n == 1:
        assert (p, r) == (2**61 - 1, 1)


def divisor_scan_image_field(n):
    """_image_field with each prime q | n found as a divisor of n with
    phi(q) = q - 1, both counted directly, as before one factorization
    served every prime factor."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    primes = [q for q in divisors[1:] if sum(1 for k in range(1, q) if gcd(k, q) == 1) == q - 1]
    p = (2**61 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    exact = lambda r: pow(r, n, p) == 1 and all(pow(r, n // q, p) != 1 for q in primes)  # noqa: E731
    return p, next(r for g in count(2) if exact(r := pow(g, (p - 1) // n, p)))


def test_image_field_matches_the_divisor_scan():
    for n in range(1, 121):
        assert _image_field(n) == divisor_scan_image_field(n), n


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def oracle_is_prime(p):
    """Deterministic Miller-Rabin on the prime bases 2..37 with no trial
    division and no cache, each base's powers a^(t 2^j), j < s, listed in
    full: the prime proof before the sieve and the stopping chain."""
    if p < 38:
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s t, t odd
    return all(
        pow(a, (p - 1) >> s, p) == 1 or p - 1 in [pow(a, (p - 1) >> k, p) for k in range(s, 0, -1)]
        for a in _MR_BASES
    )


def oracle_image_field(n):
    """_image_field's search with the unsieved prime proof."""
    p = (2**61 - 2) // n * n + 1
    while not oracle_is_prime(p):
        p -= n
    return p, next(r for g in count(2) if _exact_order(r := pow(g, (p - 1) // n, p), n, p))


def test_the_sieved_prime_proof_matches_the_full_chains_below_20000():
    assert [n for n in range(-3, 20000) if _is_prime(n)] == [n for n in range(-3, 20000) if oracle_is_prime(n)]


def test_the_sieved_prime_proof_matches_the_full_chains_below_2_61():
    # the range the image fields search, odd n only, as every candidate p = 1 (mod n) is for n > 1
    rng = random.Random(61)
    for n in (rng.randrange(2**60, 2**61) | 1 for _ in range(2000)):
        assert _is_prime(n) == oracle_is_prime(n), n


@pytest.mark.parametrize(
    "n, verdict",
    [
        (561, False),
        (2047, False),
        (3215031751, False),  # 151 * 751 * 28351: the sieve refuses it
        (3825123056546413051, False),
        ((2**31 - 1) * (2**61 - 1), False),
        (2**31 - 1, True),
        (2**61 - 1, True),
        (2**89 - 1, True),
        # 1287836182261 * 2575672364521, a strong pseudoprime to every base 2..37 with no factor
        # below 256: past the bound of 3.3 * 10^24 both proofs call it prime
        (3317044064679887385961981, True),
    ],
)
def test_the_sieved_prime_proof_matches_the_full_chains_on_pseudoprimes(n, verdict):
    assert _is_prime(n) == oracle_is_prime(n) == verdict


def test_image_field_matches_the_unsieved_search():
    for n in range(1, 301):
        assert _image_field(n) == oracle_image_field(n), n


def test_a_root_of_the_wrong_order_is_refused():
    p, r = _image_field(12)
    assert _exact_order(r, 12, p)
    assert not _exact_order(1, 12, p)
    assert not _exact_order(pow(r, 2, p), 12, p)  # order 6
    assert not _exact_order(pow(r, 3, p), 12, p)  # order 4
    assert not _exact_order(r, 24, p)  # r^24 = 1 but r^12 = 1 too
    assert not _exact_order(r + 1, 12, p)  # not a root of unity of order 12


def _cyclo(n, draw):
    return Cyclotomic.from_raw(n, [draw() for _ in range(n)]) * Cyclotomic.rational(draw() or 1).inverse()


@given(n=st.sampled_from([1, 3, 4, 5, 8, 12]), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_images_respect_sums_products_and_inverses(n, seed):
    rng = random.Random(seed)
    x, y = _cyclo(n, lambda: rng.randint(-4, 4)), _cyclo(n, lambda: rng.randint(-4, 4))
    z = Cyclotomic.zeta(3)  # a second conductor: the map is taken at the lcm
    p, [[ix, iy, iz, s, m, q]] = _images([[x, y, z, x + y, x * y * z, x / y if y else x]])
    assert s == (ix + iy) % p and m == ix * iy * iz % p
    assert q == (ix * pow(iy, -1, p) % p if y else ix)


def test_a_denominator_divisible_by_p_has_no_image():
    p = _image_field(1)[0]
    assert _images([[Cyclotomic.rational(1)], [Cyclotomic.rational(Fraction(1, p))]]) is None
    assert _images([[Cyclotomic.rational(Fraction(p, 2))]]) == (p, [[0]])


def test_rank_mod_p():
    p = 101
    assert _rank_mod([], p) == 0
    assert _rank_mod([[1, 2, 3], [2, 4, 6]], p) == 1
    assert _rank_mod([[1, 2, 3], [2, 4, 6 + p]], p) == 1
    assert _rank_mod([[0, 1, 0], [1, 0, 0], [1, 1, 1]], p) == 3


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


@st.composite
def form_pairs(draw):
    """Two forms of declared degrees 1..5 at one of CONDUCTORS, with
    coefficients a + b zeta_n that are often 0; sometimes both top
    coefficients vanish (a common root at [1:0]) or one declared degree
    drops, and sometimes both are multiplied by one linear form."""
    n = draw(st.sampled_from(CONDUCTORS))
    z = Cyclotomic.zeta(n)

    def form(deg):
        coeffs = [Cyclotomic.rational(draw(st.integers(-3, 3))) for _ in range(deg + 1)]
        coeffs = [c + z * draw(st.sampled_from([0, 0, 1, -2])) for c in coeffs] if n > 1 else coeffs
        return BinaryForm(deg, coeffs)

    f, g = form(draw(st.integers(1, 5))), form(draw(st.integers(1, 5)))
    edge = draw(st.sampled_from(["none", "top", "drop", "shared"]))
    if edge in ("top", "drop"):
        f = BinaryForm(f.degree, [0] + list(f.coeffs[1:]))
        g = g if edge == "drop" else BinaryForm(g.degree, [0] + list(g.coeffs[1:]))
    elif edge == "shared":
        lin = form(1)
        f, g = f * lin, g * lin
    return f, g


def _modular_verdict(f, g):
    p, images = _images([f.coeffs, g.coeffs])
    return _coprime_images(images, p)


@given(pair=form_pairs())
@example(pair=(BinaryForm(2, [0, 1, 1]), BinaryForm(3, [0, 0, 1, 2])))  # both vanish at [1:0]
@example(pair=(BinaryForm(2, [0, 1, 1]), BinaryForm(1, [1, 2])))  # F's degree drops
@example(pair=(BinaryForm(2, [0, 0, 0]), BinaryForm(1, [1, 2])))  # F is the zero form
@settings(max_examples=300, deadline=None)
def test_the_modular_verdict_is_the_exact_one(pair):
    # equal unless p divides a nonzero resultant, far beyond these sizes
    f, g = pair
    assert _modular_verdict(f, g) == bool(sylvester_resultant(f, g))


@given(pair=form_pairs(), lin=st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any))
@settings(max_examples=100, deadline=None)
def test_maps_with_a_shared_linear_factor_are_rejected(pair, lin):
    f, g = pair
    d = max(f.degree, g.degree)
    f, g = (BinaryForm(d, list(h.coeffs) + [0] * (d - h.degree)) for h in (f, g))
    if f.is_zero() and g.is_zero():
        return
    line = BinaryForm(1, list(lin))
    phi = RationalMap(f * line, g * line)
    assert not _modular_verdict(phi.F, phi.G)
    assert not phi.is_in_ratd()


def test_a_resultant_divisible_by_p_falls_back_to_the_exact_value():
    # z / (z + p): Res = p is nonzero, its image is 0
    p = _image_field(1)[0]
    phi = RationalMap(BinaryForm(1, [1, 0]), BinaryForm(1, [1, p]))
    assert not _modular_verdict(phi.F, phi.G)
    assert phi.resultant() == p and phi.is_in_ratd()


def test_the_modular_route_computes_no_resultant(monkeypatch):
    monkeypatch.setattr(forms, "sylvester_resultant", lambda f, g: pytest.fail("exact resultant computed"))
    assert RationalMap.from_zpoly([1, 0, 0, 2], [0, 3, 1, 0]).is_in_ratd()


def _times(f, g):
    # the coefficient list of the product of two forms, as lists of ints
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@st.composite
def int_pairs(draw):
    # the int lists (F, G) of one declared degree d = 1..8, perhaps both
    # vanishing at [1:0] or sharing a factor L: F = L P, G = L Q
    d, ints = draw(st.integers(1, 8)), st.integers(-4, 4)
    edge = draw(st.sampled_from(["none", "top", "shared", "shared"]))
    if edge == "shared":
        k = draw(st.integers(1, d))
        lin = draw(st.lists(ints, min_size=k + 1, max_size=k + 1))
        return tuple(_times(lin, draw(st.lists(ints, min_size=d - k + 1, max_size=d - k + 1))) for _ in "FG")
    f, g = (draw(st.lists(ints, min_size=d + 1, max_size=d + 1)) for _ in "FG")
    if edge == "top":
        f[0] = g[0] = 0
    return f, g


@given(pair=int_pairs())
@example(pair=([1, 0], [1, _image_field(1)[0]]))  # z / (z + p): Res = p, its image 0
@example(pair=([0, 0], [1, 2]))  # F is the zero form
@example(pair=([0, 1, 1], [0, 0, 1]))  # both vanish at [1:0]
@settings(max_examples=300, deadline=None)
def test_the_rat_d_test_on_int_lists_is_the_exact_one(pair):
    f, g = pair
    d = len(f) - 1
    want = bool(sylvester_resultant(BinaryForm(d, f), BinaryForm(d, g)))
    assert forms._in_ratd(f, g) == want
    if any(f) or any(g):
        assert RationalMap(BinaryForm(d, f), BinaryForm(d, g)).is_in_ratd() == want


def test_int_lists_are_proved_by_their_images_with_no_resultant(monkeypatch):
    # an int's image is x % p: no cyclotomic image, and no resultant when
    # the images are coprime or a list is one term past its stride; the
    # Res = p pair still needs the exact value
    p, seen = _image_field(1)[0], []
    monkeypatch.setattr(forms, "sylvester_resultant", lambda f, g: seen.append((f, g)) or sylvester_resultant(f, g))
    z5 = Cyclotomic.zeta(5)
    assert RationalMap(BinaryForm(2, [1, 0, z5]), BinaryForm(2, [0, z5 + 1, 0])).is_in_ratd() and seen == []
    monkeypatch.setattr(forms, "_images", lambda lists: pytest.fail("cyclotomic images of int lists"))
    assert forms._in_ratd([1, 0, 0, 2], [0, 3, 1, 0]) and seen == []
    assert forms._in_ratd([1, 0], [1, p]) and seen == []  # X is one term: Res = p, proved with no image
    assert forms._in_ratd([1, 1], [1, p + 1]) and len(seen) == 1  # X + Y and X + (p + 1) Y: Res = p
    assert not forms._in_ratd([1, 1, 0], [0, 1, 1]) and len(seen) == 2  # X (X + Y) and (X + Y) Y


@st.composite
def strided_pairs(draw):
    """(F, G) = (X^a Y^b f(X^M, Y^M), X^a' Y^b' g(X^M, Y^M)) of one degree n >= 1,
    M = 1..4, with int or, half the time, cyclotomic coefficients; each list
    sits at its own offset, so F and G may lie in different residues mod M.
    The edge cases: f and g times one h(X^M, Y^M), both lists vanishing at
    [1:0] (offsets >= 1) or at [0:1] (ends < n), or free offsets, where one
    list alone often vanishes at an end."""
    M, z = draw(st.integers(1, 4)), Cyclotomic.zeta(draw(st.sampled_from([3, 4, 5])))
    cyclotomic, edge = draw(st.booleans()), draw(st.sampled_from(["free", "factor", "[1:0]", "[0:1]"]))

    def poly(k):  # k + 1 coefficients, often 0
        ints = st.integers(-3, 3)
        return [draw(ints) + z * draw(ints) if cyclotomic else draw(ints) for _ in range(k + 1)]

    f, g = poly(draw(st.integers(0, 3))), poly(draw(st.integers(0, 3)))
    if edge == "factor":
        h = poly(draw(st.integers(1, 2)))
        f, g = _times(f, h), _times(g, h)
    spans = [(len(x) - 1) * M for x in (f, g)]
    n = max(max(spans), 1) + draw(st.integers(0, 2)) + (edge in ("[1:0]", "[0:1]"))
    lo, hi = (1, 0) if edge == "[1:0]" else (0, 1) if edge == "[0:1]" else (0, 0)
    out = []
    for x, span in zip((f, g), spans):
        first = draw(st.integers(lo, n - span - hi))
        xs = [x[0] * 0] * (n + 1)
        xs[first : first + span + 1 : M] = x
        out.append(xs)
    return tuple(out)


def _exact_in_ratd(F, G):
    n = len(F) - 1
    return bool(sylvester_resultant(BinaryForm(n, F), BinaryForm(n, G)))


# each pinned pair fails a mutant of the quotient rule: X (X + Y), X (X + 2Y)
# share [0:1], and forgetting that rule proves f = X + Y, g = X + 2Y coprime;
# Y (X + Y), Y (X + 2Y) share [1:0]; X^2 - Y^2 and X (X + Y) share X + Y, and
# a stride M = 2 from F's support alone reads G as the one term X^2
PINNED_STRIDED = [
    (([1, 1, 0], [1, 2, 0]), False),
    (([0, 1, 1], [0, 1, 2]), False),
    (([1, 0, -1], [1, 1, 0]), False),
    (([1, 0, 3, 0, 1], [0, 1, 0, 5, 0]), True),  # M = 2, residues 0 and 1; g = X + 5Y misses f's roots
    (([1, 0, 3, 0, 2], [0, 1, 0, 1, 0]), False),  # (X^2 + Y^2) (X^2 + 2Y^2) and (X^2 + Y^2) X Y
    (([1, 0, 0, 1], [0, 0, 0, 1]), True),  # only G vanishes at [1:0]
    (([0, 0, 1, 0, 0, 0, 2], [1, 0, 0, 0, 0, 0, 0]), True),  # f one term past the stride 3
]


@pytest.mark.parametrize("pair, want", PINNED_STRIDED, ids=str)
def test_the_quotient_rat_d_test_on_pinned_strided_pairs(pair, want):
    assert _exact_in_ratd(*pair) == want
    assert forms._in_ratd(*pair) == want


def test_the_quotient_rat_d_test_on_pinned_cyclotomic_pairs():
    # X^2 (X^2 + z Y^2) and Y^2 (X^2 + z Y^2), stride 2, share X^2 + z Y^2;
    # X^4 + z Y^4 and X Y^3 do not
    z = Cyclotomic.zeta(5)
    zero, one = z * 0, z**0
    for F, G, want in [
        ([one, zero, z, zero, zero], [zero, zero, one, zero, z], False),
        ([one, zero, zero, zero, z], [zero, one, zero, zero, zero], True),
        ([one, zero, z, zero, one], [zero, one, zero, z + 1, zero], True),
    ]:
        assert _exact_in_ratd(F, G) == forms._in_ratd(F, G) == want


@given(pair=strided_pairs())
@settings(max_examples=300, deadline=None)
def test_the_quotient_rat_d_test_is_the_exact_one(pair):
    F, G = pair
    want = _exact_in_ratd(F, G)
    assert forms._in_ratd(F, G) == want
    if any(F) or any(G):
        n = len(F) - 1
        assert RationalMap(BinaryForm(n, F), BinaryForm(n, G)).is_in_ratd() == want


# ---------------------------------------------------------------------------
# meets_ratd
# ---------------------------------------------------------------------------


def _exact_meets(pair):
    # meets_ratd with no image: the exact gcds decide
    real = decomp._images
    decomp._images = lambda xs: None
    try:
        return meets_ratd(pair)
    finally:
        decomp._images = real


def test_a_multiple_zero_of_the_image_only_falls_back():
    # J = XY(X + pY) is squarefree, its image X^2 Y is not, and H = X
    # vanishes at the double root of the image
    p = _image_field(1)[0]
    pair = FormPair(2, BinaryForm(1, [1, 0]), BinaryForm(3, [0, 1, p, 0]))
    j = [c.nums[0] % p for c in pair.J.coeffs]
    assert not _meets_ratd_image(p, [1, 0], j)
    assert meets_ratd(pair) and _exact_meets(pair)


def test_meets_ratd_by_images_on_small_pairs():
    rng = random.Random(21)
    for _ in range(300):
        d = rng.randint(2, 5)
        h = BinaryForm(d - 1, [rng.choice([0, 0, 1, -1, 2]) for _ in range(d)])
        j = BinaryForm(d + 1, [rng.choice([0, 0, 1, -1, 3]) for _ in range(d + 2)])
        if h.is_zero() and j.is_zero():
            continue
        pair = FormPair(d, h, j)
        assert meets_ratd(pair) == _exact_meets(pair), pair


def _branchy_meets(pair):
    # the exact rule before it was one gcd, kept as the oracle
    h, j = pair.H, pair.J
    if j.is_zero():
        return pair.d == 1 and not h.is_zero()
    mz = multiple_zero_locus(j)
    if h.is_zero():
        return mz.degree == 0
    if mz.degree == 0:
        return True
    return form_gcd(mz, h).degree == 0


def _random_cyclotomic_form(rng, deg, n):
    z = Cyclotomic.zeta(n) if n > 1 else Cyclotomic.rational(0)
    return BinaryForm(deg, [z * rng.choice([0, 1, -2]) + rng.choice([0, 0, 1, -1, 2]) for _ in range(deg + 1)])


def _edge_and_random_pairs():
    rng = random.Random(22)
    for d in range(1, 7):  # J = 0: recompose gives (XH, YH)/(d+1), which share H unless d = 1
        yield FormPair(d, BinaryForm(d - 1, [rng.randint(1, 3) for _ in range(d)]), BinaryForm.zero(d + 1))
        yield FormPair(d, BinaryForm.monomial(d - 1, d - 1), BinaryForm.zero(d + 1))
    for d in range(2, 6):  # H = 0 with J squarefree, and with a double root at 1, 0 or infinity
        yield FormPair(d, BinaryForm.zero(d - 1), BinaryForm(d + 1, [1] + [0] * d + [-1]))
        for double in (BinaryForm(2, [1, -2, 1]), BinaryForm(2, [0, 0, 1]), BinaryForm(2, [1, 0, 0])):
            yield FormPair(d, BinaryForm.zero(d - 1), double * BinaryForm(d - 1, [1] + [0] * (d - 2) + [3]))
    for n in CONDUCTORS:
        for _ in range(60):
            d = rng.randint(2, 6)
            h, j = _random_cyclotomic_form(rng, d - 1, n), _random_cyclotomic_form(rng, d + 1, n)
            if rng.random() < 0.5:  # J with a double root, which H may share
                lin = _random_cyclotomic_form(rng, 1, n)
                if lin.is_zero():
                    continue
                j = lin * lin * _random_cyclotomic_form(rng, d - 1, n)
                h = lin * _random_cyclotomic_form(rng, d - 2, n) if rng.random() < 0.5 else h
            if not (h.is_zero() and j.is_zero()):
                yield FormPair(d, h, j)


def test_the_exact_meets_ratd_is_the_branchy_rule(monkeypatch):
    monkeypatch.setattr(decomp, "_images", lambda lists: None)
    pairs = list(_edge_and_random_pairs())
    verdicts = [meets_ratd(pair) for pair in pairs]
    assert verdicts == [_branchy_meets(pair) for pair in pairs]
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_exact_meets_ratd_is_the_branchy_rule_on_platonic_members(kind, monkeypatch):
    # seeds 0 and 1 of every stratum at d = 2..31, obstructed strata included
    monkeypatch.setattr(decomp, "_images", lambda lists: None)
    group, verdicts = platonic_group(kind), set()
    for d in range(2, 32):
        for char in character_group(group):
            bases = [(character_eigenspace(n, group, char), n) for n in (d - 1, d + 1)]
            for seed in (0, 1):
                h, j = (
                    sum((b * c for b, c in zip(basis, _seed_coefficients(seed, len(basis)))), BinaryForm.zero(n))
                    for basis, n in bases
                )
                if not (h.is_zero() and j.is_zero()):
                    verdict = meets_ratd(FormPair(d, h, j))
                    assert verdict == _branchy_meets(FormPair(d, h, j)), (kind, d, char, seed)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def oracle_member_meets(d, group, char, tries=24, seeds=_seed_coefficients):
    """_member_meets on the full-degree images of the orbit products: the
    member sum_k c_k P_k mod p, at the coefficients of seeds, passing
    ``_meets_ratd_image``; the image route before the quotient P^1/G."""
    p = platonic._orbit_images(group)[0]
    h_rows, j_rows = (_rows(n, group, char) for n in (d - 1, d + 1))
    for seed in range(tries):
        c = seeds(seed, max(len(h_rows), len(j_rows)))
        h, j = ([sum(a * b for a, b in zip(c, col)) % p for col in zip(*rows)] for rows in (h_rows, j_rows))
        if _meets_ratd_image(p, h, j):
            return True
    return False


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_image_verdict_is_the_exact_one_on_every_platonic_stratum(kind):
    # d = 2..61: the seed-0 member of every stratum with a nonzero J-space,
    # obstructed or not, gets the same verdict from its images as from the
    # exact gcds; and 24 seeds of the raw products prove a member mod p
    # exactly where the exponent rule leaves the stratum unobstructed
    group = platonic_group(kind)
    verdicts = set()
    for d in range(2, 62):
        for char in character_group(group):
            h_basis, j_basis = (character_eigenspace(n, group, char) for n in (d - 1, d + 1))
            if not j_basis:
                continue
            h, j = (
                sum((b * c for b, c in zip(basis, _seed_coefficients(0, len(basis)))), BinaryForm.zero(n))
                for basis, n in ((h_basis, d - 1), (j_basis, d + 1))
            )
            p, (h_image, j_image) = _images([h.coeffs, j.coeffs])
            verdict = _meets_ratd_image(p, h_image, j_image)
            assert verdict == _exact_meets(FormPair(d, h, j)), (kind, d, char)
            assert oracle_member_meets(d, group, char) == (not platonic._obstructed(d, group, char)), (kind, d, char)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dependent_orbit_products_are_refused(monkeypatch):
    # f_1 replaced by f_2 under f_1's character: f_1^3 and f_2^3 are then
    # the same degree-12 invariant, f_1 is not coprime to the other forms,
    # so the images refuse the premise, and the exact basis the products
    from test_eigenspace import _no_solve_caches, _with_orbit_row

    group = platonic_group("tetra")
    trivial = character_group(group)[0]
    _with_orbit_row(monkeypatch, "tetra", 0, form=platonic._orbit_forms(group)[1][1])
    try:
        with pytest.raises(AssertionError, match="do not prove their products independent"):
            platonic._orbit_images(group)
        with pytest.raises(AssertionError, match="linearly dependent"):
            character_eigenspace(12, group, trivial)
    finally:
        monkeypatch.undo()
        _no_solve_caches()


@pytest.mark.parametrize("kind, degrees", [("tetra", (4, 4, 6)), ("octa", (6, 8, 12)), ("icosa", (12, 20, 30))])
def test_the_one_prime_proves_the_premise_for_each_group(kind, degrees, monkeypatch):
    # f_1 coprime to the product of the other forms at _image_field's prime,
    # and d_2 not dividing d_3: the images are those of _images; with no
    # image the group is refused, never passed on as None
    group = platonic_group(kind)
    _clear_image_caches()
    forms_ = platonic._orbit_forms(group)[1]
    assert tuple(f.degree for f in forms_) == degrees and degrees[2] % degrees[1]
    p, images = platonic._orbit_images(group)
    assert (p, images) == _images([f.coeffs for f in forms_])
    assert p == _image_field(lcm(*(c.n for f in forms_ for c in f.coeffs)))[0]
    assert _coprime_images([images[0], reduce(partial(forms._product_mod, p=p), images[1:])], p)
    monkeypatch.setattr(platonic, "_images", lambda lists: None)
    _clear_image_caches()
    try:
        with pytest.raises(AssertionError, match="do not prove their products independent"):
            platonic._orbit_images(group)
    finally:
        _clear_image_caches()


# ---------------------------------------------------------------------------
# zero images fall back
# ---------------------------------------------------------------------------


@pytest.fixture
def zero_images(monkeypatch):
    """Every image forced to 0, and nothing cached from real images."""

    def zeros(lists):
        return _image_field(1)[0], [[0] * len(xs) for xs in lists]

    _clear_image_caches()
    for module in (forms, decomp, platonic):
        monkeypatch.setattr(module, "_images", zeros)
    yield
    _clear_image_caches()


_ARGVS = [
    ["survey", "--d", "2..13", "--groups", "cyclic,dihedral"],
    ["survey", "--d", "8..11", "--groups", "cyclic,dihedral", "--format", "json"],
]
# the premise of the platonic products is proved only on their images
_PLATONIC_ARGVS = [["survey", "--d", "2..13"], ["survey", "--d", "29..31", "--groups", "platonic"]]


@pytest.fixture(scope="module")
def unpatched_outputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "octa13.json"
    code, out, _ = _run(["construct", "--d", "13", "--group", "octa"])
    assert code == 0
    path.write_text(out)
    argvs = _ARGVS + [["check", str(path), "--group", "octa"], ["resultant", str(path)]]
    return [(argv, _run(argv)) for argv in argvs]


def test_a_zero_image_falls_back_with_identical_output(unpatched_outputs, zero_images, monkeypatch):
    calls = []
    real = forms.RationalMap.resultant
    monkeypatch.setattr(forms.RationalMap, "resultant", lambda self: calls.append(1) or real(self))
    for argv, expected in unpatched_outputs:
        assert _run(argv) == expected, argv
    assert calls  # the exact route ran
    for argv in _PLATONIC_ARGVS:
        code, _, err = _run(argv)
        assert code == 2 and "certification failed" in err, argv


def test_a_zero_image_proves_nothing(zero_images):
    assert RationalMap.from_zpoly([1, 0, 0, 2], [0, 3, 1, 0]).is_in_ratd()
    assert meets_ratd(FormPair(2, BinaryForm(1, [2, 2]), BinaryForm(3, [0, 1, -1, 0])))
    with pytest.raises(AssertionError, match="do not prove their products independent"):
        platonic.invariant_locus_dimension(13, "octa")


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_distinct_first_exponents_prove_what_the_rank_mod_p_proves(kind, monkeypatch):
    # every space of every character for even n <= 200 is proved by its
    # first exponents, with no exact basis, and its image rows have full
    # rank mod p
    group = platonic_group(kind)
    _clear_image_caches()
    p = platonic._orbit_images(group)[0]
    monkeypatch.setattr(platonic.ExactMatrix, "row_basis", lambda self: pytest.fail("exact basis built"))
    for char in character_group(group):
        for n in range(0, 201, 2):
            exps = platonic._orbit_exponents(n, group, char)
            assert len({e[0] for e in exps}) == len(exps), (kind, n, char)
            rows = _rows(n, group, char)
            assert _rank_mod(rows, p) == len(rows) == len(exps), (kind, n, char)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_sizes_and_rows_are_those_of_the_product_images_oracle(kind):
    group = platonic_group(kind)
    _clear_image_caches()
    for char in character_group(group):
        for n in range(0, 201, 2):
            p, rows = oracle_product_images(n, group, char)
            assert p == platonic._orbit_images(group)[0], (kind, n, char)
            assert len(platonic._orbit_exponents(n, group, char)) == len(rows), (kind, n, char)
            assert _rows(n, group, char) == rows, (kind, n, char)


def test_repeated_first_exponents_refuse_the_group(monkeypatch):
    # f_3 replaced by f_2^2 of degree 8: f_1 stays coprime to the others,
    # but d_2 = 4 divides d_3 = 8, so f_2^2 and f_3 would have one first
    # exponent, which the order of vanishing at a root of f_1 cannot tell apart
    from test_eigenspace import _no_solve_caches, _with_orbit_row

    group = platonic_group("tetra")
    f2 = platonic._orbit_forms(group)[1][1]
    _with_orbit_row(monkeypatch, "tetra", 2, form=f2 * f2)
    p, (first, *others) = _images([f.coeffs for f in platonic._orbit_forms(group)[1]])
    assert _coprime_images([first, reduce(partial(forms._product_mod, p=p), others)], p)
    try:
        with pytest.raises(AssertionError, match="do not prove their products independent"):
            platonic._orbit_images(group)
    finally:
        monkeypatch.undo()
        _no_solve_caches()


# ---------------------------------------------------------------------------
# the member test on the quotient P^1/G
# ---------------------------------------------------------------------------


def _strata_with_a_j_space(d_max):
    # every stratum with a nonempty J-space, d = 2..d_max, obstructed ones included
    return [
        (group, d, char)
        for group in map(platonic_group, ("tetra", "octa", "icosa"))
        for d in range(2, d_max + 1)
        for char in character_group(group)
        if platonic._orbit_exponents(d + 1, group, char)
    ]


# Q's factor u - rho v up to a scalar, as its coefficients of v and u: rho =
# 1, 1/108 and -1/1728
_RHO_FACTOR = {"tetra": [-1, 1], "octa": [-1, 108], "icosa": [1, 1728]}


def _drawn_vectors(group, d, char, rng):
    """Coefficient vectors of Q, the u^0 coefficient first, all nonzero:
    random, or J's Q with a root at rho, a double root at u = 2v, or a double
    root at rho, times a random cofactor; H's Q is the prefix of the same
    vector, as at a seed."""
    k = len(platonic._orbit_exponents(d + 1, group, char)) - 1
    count = max(k + 1, len(platonic._orbit_exponents(d - 1, group, char)))
    rho = _RHO_FACTOR[group.label]
    vectors = []
    for factor in ([], rho, [4, -4, 1], _times(rho, rho)):
        if len(factor) > k + 1:
            continue
        while True:
            cofactor = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k + 2 - max(len(factor), 1))]
            q = _times(factor, cofactor) if factor else cofactor
            q += [rng.randint(1, 9) for _ in range(count - len(q))]
            if all(q):
                vectors.append(q)
                break
    return vectors


def _quotient_cases():
    # (group, d, char, tries, vector): the seeds at tries 1 and 4 on every
    # stratum to d = 150, and drawn vectors at one try each to d = 60
    rng = random.Random(41)
    seeded = [(*case, tries, None) for case in _strata_with_a_j_space(150) for tries in (1, 4)]
    drawn = [
        (*case, 1, vector)
        for case in _strata_with_a_j_space(60)
        if len(platonic._orbit_exponents(case[1] + 1, case[0], case[2])) > 1
        for vector in _drawn_vectors(*case, rng)
    ]
    return seeded, drawn


@pytest.fixture(scope="module")
def quotient_cases():
    """The cases and their verdicts on the full-degree images (the oracle)."""
    seeded, drawn = _quotient_cases()
    verdicts = [oracle_member_meets(d, group, char, tries, _seeds(v)) for group, d, char, tries, v in seeded + drawn]
    return seeded, drawn, verdicts


def _seeds(vector):
    # the real seeds, or one drawn vector at every seed
    return _seed_coefficients if vector is None else (lambda seed, count: vector[:count])


def _quotient_verdicts(member_meets, cases, monkeypatch):
    # member_meets on each case, its seeds patched to the case's vector; an
    # AssertionError counts as no verdict
    out = []
    for group, d, char, tries, vector in cases:
        monkeypatch.setattr(platonic, "_seed_coefficients", _seeds(vector))
        try:
            out.append(member_meets(d, group, char, tries))
        except AssertionError:
            out.append(None)
    return out


def test_the_quotient_verdict_is_the_image_verdict_on_every_stratum(quotient_cases, monkeypatch):
    # 834 seeded cases: every stratum with a nonempty J-space, d = 2..150, at
    # tries 1 and 4; and drawn vectors whose Q_J has a root at rho, where the
    # f_3 orbit's order decides, or a double root off the branch values
    seeded, drawn, want = quotient_cases
    assert len(seeded) == 834
    got = _quotient_verdicts(platonic._member_meets, seeded + drawn, monkeypatch)
    assert got == want
    assert set(want[: len(seeded)]) == set(want[len(seeded) :]) == {True, False}


def _mutant(old, new):
    # _member_meets with one piece of its source replaced, defined over
    # platonic's globals, so that it reads the patched seeds
    src = textwrap.dedent(inspect.getsource(platonic._member_meets))
    assert src.count(old) == 1, old
    namespace = {}
    exec(src.replace(old, new), vars(platonic), namespace)
    return namespace["_member_meets"]


_MUTANTS = {
    "rho + 1": None,
    "s_1 + 1": ("a + s1 * i", "a + (s1 + 1) * i"),
    "no f_1, f_2 orders": ("(*base[:2], base[2] + at_rho(q))", "(0, 0, base[2] + at_rho(q))"),
}


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_each_mutant_of_the_quotient_test_fails_the_differential(name, quotient_cases, monkeypatch):
    # rho + 1 shows only on the drawn vectors: the seed integers are
    # positive, so no seeded Q vanishes at rho = 1, 1/108 or -1/1728
    seeded, drawn, want = quotient_cases
    member_meets = platonic._member_meets
    if _MUTANTS[name]:
        member_meets = _mutant(*_MUTANTS[name])
    else:
        real = {group: platonic._branch_value(group) for group, *_ in seeded}
        shifted = {group: (p, (rho + 1) % p) for group, (p, rho) in real.items()}
        monkeypatch.setattr(platonic, "_branch_value", shifted.__getitem__)
        assert _quotient_verdicts(member_meets, seeded, monkeypatch) == want[: len(seeded)]
    assert _quotient_verdicts(member_meets, seeded + drawn, monkeypatch) != want


def test_the_syzygy_has_the_orbit_forms_alpha_and_beta():
    # f_3^2 = alpha f_1^s_1 + beta f_2^s_2 exactly, with the alpha and beta
    # of the standard orbit forms; _branch_value holds the image of
    # rho = -beta/alpha: 1, 1/108 and -1/1728
    z3 = Cyclotomic.zeta(3)
    pinned = {
        "tetra": (z3 * Fraction(-1, 18) - Fraction(1, 36), z3 * Fraction(1, 18) + Fraction(1, 36)),
        "octa": (Cyclotomic.rational(-108), Cyclotomic.rational(1)),
        "icosa": (Cyclotomic.rational(1728), Cyclotomic.rational(1)),
    }
    for kind, (alpha, beta) in pinned.items():
        group = platonic_group(kind)
        f1, f2, f3 = platonic._orbit_forms(group)[1]
        u, v = (reduce(lambda a, b: a * b, [f] * (group.order // f.degree)) for f in (f1, f2))
        assert f3 * f3 == u * alpha + v * beta, kind
        rho = (-beta / alpha).as_rational()
        p = platonic._orbit_images(group)[0]
        assert platonic._branch_value(group) == (p, rho.numerator * pow(rho.denominator, -1, p) % p), kind
        assert rho == {"tetra": 1, "octa": Fraction(1, 108), "icosa": Fraction(-1, 1728)}[kind]


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_no_euclid_at_degree_4001_reads_a_list_past_the_quotient_degree(kind, monkeypatch):
    # d = 4001: every list that the Euclid mod p reads, the premise's
    # included, has at most (d + 1) // |G| + 2 entries, against about 4,000
    # when the member test read the full-degree images
    group, seen = platonic_group(kind), []
    _clear_image_caches()
    real = forms._remainder
    monkeypatch.setattr(forms, "_remainder", lambda a, b, p: seen.append(max(len(a), len(b))) or real(a, b, p))
    assert platonic.invariant_locus_dimension(4001, group) == 2 * 4001 // group.order
    assert seen and max(seen) <= 4002 // group.order + 2


# ---------------------------------------------------------------------------
# python -O
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_vanishing_resultant_is_refused_also_under_optimization(flags, tmp_path):
    # F = X (X + Y), G = Y (X + Y): the images share X + Y, and so do the forms
    path = tmp_path / "shared.json"
    phi = RationalMap(BinaryForm(2, [1, 1, 0]), BinaryForm(2, [0, 1, 1]))
    path.write_text(json.dumps({"map": phi.to_json()}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "symloci.cli", "check", str(path), "--group", "cyclic:2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and "vanishing resultant" in proc.stderr


_REFUSED_PREMISE = """
import sys
from symloci import platonic
from symloci.cli import main
platonic._coprime_images = lambda images, p: False
sys.exit(main(["survey", "--groups", "tetra", "--d", "11"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_refused_premise_is_exit_2_also_under_optimization(flags):
    # with f_1 not proved coprime to the other forms no dimension is
    # certified: there is no exact route to fall back to
    from test_eigenspace import _run_script

    proc = _run_script(flags, _REFUSED_PREMISE)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "certification failed" in proc.stderr and "Traceback" not in proc.stderr
