"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_n).

Every quantity in this package is a cyclotomic number: a Q-linear
combination of powers of a primitive n-th root of unity, in the reduced
power basis {zeta^i : 0 <= i < phi(n)} modulo the n-th cyclotomic
polynomial Phi_n.  As in FLINT's fmpq_poly and nf_elem, the coefficients
are integer numerators over one common denominator: x = sum_i nums[i]
zeta^i / den with den > 0 and gcd(den, *nums) == 1.  That form is unique,
so elements of one field are equal iff their (nums, den) agree; elements
of different fields are compared at the lcm conductor.  Sums, products
(convolutions folded modulo Phi_n) and inverses (an extended Euclid
against Phi_n) run on integers, then divide out one gcd.  A fold wraps the
exponents mod x^n - 1, then keeps the remainder of long division by the
monic Phi_n, read from Phi_n's nonzero terms; no table of reduced powers is
kept per conductor.  ``c`` gives the coefficients as Fractions, for printing.
``minimal`` drops one prime p of n at a time, m = n / p: by stride if p | m,
as Phi_n(X) = Phi_m(X^p), else in the CRT basis zeta_m^i zeta_p^k.  ``sqrt``
reads a root of unity's exponent off the argument, proved by one product.

Also provided here: exact linear algebra (``ExactMatrix``, the one elimination
in the package), read only by ``platonic.character_eigenspace``, which no
command calls, and the maps to F_p that prove a polynomial in the data
nonzero (``_images``).
"""

from __future__ import annotations

import cmath
from bisect import bisect
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd, lcm, prod
from operator import add, sub

_new = object.__new__


class NonSquare(ValueError):
    """Determinant requested for a non-square matrix."""


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (p, e) with p^e exactly dividing n >= 1, p ascending: the
    package's one trial division, which every prime factor is read from."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out + [(n, 1)] if n > 1 else out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for n >= 1")
    return prod(p ** (e - 1) * (p - 1) for p, e in _factor(n))


_phi = lru_cache(maxsize=None)(euler_phi)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    # ascending: the products of one p^k, 0 <= k <= e, per prime power p^e of n
    return tuple(sorted(map(prod, product(*([p**k for k in range(e + 1)] for p, e in _factor(n))))))


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    # coefficients of Phi_n, low->high, monic, integral: for n > 1 the power series of
    # prod (1 - x^(n/s))^mu(s) over s | rad n to degree phi(n) + 1, where it must end in 1, 0
    if n == 1:
        return (-1, 1)
    top = _phi(n) + 1
    c = [1] + [0] * top
    for s in map(prod, product(*((1, -p) for p, _ in _factor(n)))):  # s = mu(s) |s|
        d = n // abs(s)
        if s > 0:  # times 1 - x^d, downward
            for k in range(top, d - 1, -1):
                c[k] -= c[k - d]
        else:  # over 1 - x^d, a running sum upward
            for k in range(d, top + 1):
                c[k] += c[k - d]
    if c.pop() or c[-1] != 1:
        raise AssertionError(f"the product for Phi_{n} is no monic polynomial of degree {top - 1}")
    return tuple(c)


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[tuple[int, int], ...]:
    # (i - phi, c) for each nonzero c x^i of Phi_n below x^phi: all a division reads
    phi = _phi(n)
    return tuple((i - phi, c) for i, c in enumerate(_cyclotomic_int_coeffs(n)[:phi]) if c)


def _fold(n: int, phi: int, raw: list) -> tuple[int, ...]:
    # sum_e raw[e] zeta_n^e (integers, any length) in the reduced basis: the
    # exponents wrap mod x^n - 1, then long division by the monic Phi_n, top
    # exponent down to phi, leaves the remainder; raw is consumed
    if len(raw) > n:
        for e in range(n, len(raw)):
            raw[e % n] += raw[e]
        del raw[n:]
    terms = _phi_terms(n)
    for e in range(len(raw) - 1, phi - 1, -1):
        if c := raw[e]:
            for j, v in terms:
                raw[e + j] -= c * v
    return tuple(raw[:phi] + [0] * (phi - len(raw)))


def _make(n: int, nums: tuple[int, ...], den: int) -> Cyclotomic:
    # the canonical element nums / den of Q(zeta_n); den > 0 on entry
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([v // g for v in nums])
            den //= g
    obj = _new(Cyclotomic)
    obj.n, obj.nums, obj.den, obj._hash = n, nums, den, None
    return obj


def _from_pairs(n: int, pairs: list) -> Cyclotomic:
    # sum_i (num_i / den_i) zeta_n^i from integer pairs, any den_i != 0;
    # phi(n) >= sqrt(n/2), so a conductor past 2 len^2 is refused before it is factored
    if not (den := lcm(*(d for _, d in pairs))):
        raise ZeroDivisionError("a coefficient has denominator 0")
    if n > 2 * len(pairs) ** 2 or len(pairs) != euler_phi(n):
        raise ValueError("coefficient vector has wrong length for conductor")
    return _make(n, tuple([v * (den // d) for v, d in pairs]), den)


def _int(s) -> int:
    # int(s), through Decimal for a string of a sign and decimal digits
    return int(Decimal(s)) if isinstance(s, str) and s.strip().lstrip("+-").isdecimal() else int(s)


def _add(x: Cyclotomic, y: Cyclotomic, op) -> Cyclotomic:
    # x op y for op in (add, sub) at one conductor
    dx, dy = x.den, y.den
    if dx == dy:
        return _make(x.n, tuple(map(op, x.nums, y.nums)), dx)
    g = gcd(dx, dy)
    fx, fy = dy // g, dx // g
    return _make(x.n, tuple([op(a * fx, b * fy) for a, b in zip(x.nums, y.nums)]), dx * fx)


class Cyclotomic:
    """An element nums / den of Q(zeta_n) in the canonical reduced form."""

    __slots__ = ("n", "nums", "den", "_hash")

    def __init__(self, conductor: int, coeffs):
        x = _from_pairs(conductor, [(x.numerator, x.denominator) for x in map(Fraction, coeffs)])
        self.n, self.nums, self.den, self._hash = x.n, x.nums, x.den, None

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficients in the reduced basis, as Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> Cyclotomic:
        if type(q) is int:
            return _make(1, (q,), 1)
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> Cyclotomic:
        """zeta_n^k as an exact element of Q(zeta_n)."""
        raw = [0] * (k % n) + [1]
        return _make(n, _fold(n, _phi(n), raw), 1)

    @classmethod
    def from_raw(cls, conductor: int, raw) -> Cyclotomic:
        """Reduce sum_i raw[i] * zeta_n^i to the canonical basis."""
        raw = [Fraction(x) for x in raw]
        den = lcm(*(x.denominator for x in raw))
        ints = [x.numerator * (den // x.denominator) for x in raw]
        return _make(conductor, _fold(conductor, _phi(conductor), ints), den)

    # -- representation helpers --------------------------------------------

    def promote(self, m: int) -> Cyclotomic:
        """Rewrite in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("can only promote to a multiple of the conductor")
        step = m // self.n
        raw = [0] * ((len(self.nums) - 1) * step + 1)
        raw[::step] = self.nums
        return _make(m, _fold(m, _phi(m), raw), self.den)

    def _common(self, other: Cyclotomic):
        # both operands at one conductor, the lcm of theirs
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def minimal(self) -> Cyclotomic:
        """Rewrite at the smallest conductor that can represent the value, one prime at a time
        (``_descend``); the fields holding x are closed under gcd, so a prime kept once stays kept."""
        if self.is_rational():
            return _make(1, self.nums[:1], self.den)
        x = self
        for p, _ in _factor(self.n):
            while x.n > p and x.n % p == 0 and (y := _descend(x, p)) is not None:
                x = y
        return x

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(*self._common(other), add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(*self._common(other), sub)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = self.den * other.den
        if self.n == 1:
            q = self.nums[0]
            return _make(other.n, tuple([q * v for v in other.nums]), den)
        if other.n == 1:
            q = other.nums[0]
            return _make(self.n, tuple([q * v for v in self.nums]), den)
        x, y = self._common(other)
        a, b = x.nums, y.nums
        conv = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    conv[j] += ai * bj
        return _make(x.n, _fold(x.n, len(a), conv), den)

    __rmul__ = __mul__

    def inverse(self) -> Cyclotomic:
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        q = self.nums[0]
        if self.is_rational():
            sign = -1 if q < 0 else 1
            return _make(self.n, (sign * self.den,) + self.nums[1:], sign * q)
        s, c = _int_modular_inverse(self.nums, _cyclotomic_int_coeffs(self.n))
        # self * s = c / den, so 1 / self = den * s / c
        scale = self.den if c > 0 else -self.den
        return _make(self.n, _fold(self.n, len(self.nums), [scale * v for v in s]), abs(c))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        if self._hash is None:
            m = self.minimal()
            self._hash = hash((m.n, m.nums, m.den))
        return self._hash

    # -- complex embedding ---------------------------------------------------

    def complex(self) -> complex:
        # nums[i] / den is the correctly rounded float of the coefficient
        z = cmath.exp(2j * cmath.pi / self.n)
        den = self.den
        total = 0j
        p = 1 + 0j
        for ci in self.nums:
            if ci:
                total += ci / den * p
            p *= z
        return total

    # -- root-of-unity structure ----------------------------------------------

    def ru_order(self, cap: int | None = None) -> int | None:
        """Multiplicative order if self is a root of unity of order at most
        cap (default 2n + 1), else None.  The roots of unity of Q(zeta_n)
        are the N-th, N = lcm(2, n), and zeta_N^j has order N / gcd(j, N)."""
        j = _root_exponent(self, big := lcm(2, self.n))
        order = None if j is None else big // gcd(j, big)
        return order if order and order <= (cap or 2 * self.n + 1) else None

    def _ru_split(self):
        # (r, j) with self = r zeta_n^j, r rational, j least (0 if self is rational), or None.  The
        # angle times n / pi is 2j, or 2j + n if r < 0 (mod 2n); for even n, zeta_n^(n/2) = -1, so j < n/2
        if self.is_rational():
            return self.as_rational(), 0
        n = self.n
        k = round(_phase(self) * n / cmath.pi)
        j = (k - k % 2 * n) // 2 % (n // 2 if n % 2 == 0 else n)
        q = self * Cyclotomic.zeta(n, -j)
        return (q.as_rational(), j) if q.is_rational() else None

    def sqrt(self) -> Cyclotomic:
        """Exact square root when self = rational * (root of unity).

        The result lives in a (possibly larger) cyclotomic field.  Raises
        ValueError for shapes outside that family.
        """
        dec = self._ru_split()
        if dec is None:
            raise ValueError("square root not of the form sqrt(rational * root of unity)")
        r, j = dec
        root = rational_sqrt(r)
        if j:
            # rho = zeta_n^j != 1: take zeta_{2n}^j
            root = root * Cyclotomic.zeta(2 * self.n, j)
        if root * root != self:
            raise AssertionError("computed square root does not square back")
        return root

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        den = self.den  # each coefficient v / den in lowest terms, as decimal strings
        try:
            return {"conductor": self.n, "coeffs": [[str(v // (g := gcd(v, den))), str(den // g)] for v in self.nums]}
        except ValueError:  # past the interpreter's int-to-str digit limit, which Decimal does not have
            return {"conductor": self.n, "coeffs": [[str(Decimal(v // (g := gcd(v, den)))), str(Decimal(den // g))]
                                                    for v in self.nums]}

    @classmethod
    def from_json(cls, obj: dict) -> Cyclotomic:
        try:
            pairs = [(int(num), int(den)) for num, den in obj["coeffs"]]
        except ValueError:  # the same limit on str-to-int
            pairs = [(_int(num), _int(den)) for num, den in obj["coeffs"]]
        return _from_pairs(int(obj["conductor"]), pairs)

    def __repr__(self):
        c = self.c
        if self.is_rational():
            return str(c[0])
        terms = []
        for i, ci in enumerate(c):
            if not ci:
                continue
            if i == 0:
                terms.append(str(ci))
            else:
                coef = "" if ci == 1 else ("-" if ci == -1 else f"{ci}*")
                power = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
                terms.append(f"{coef}{power}")
        return " + ".join(terms).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.rational(x)
    return NotImplemented


def _root_exponent(x: Cyclotomic, n: int) -> int | None:
    """The j < n with zeta_n^j = x, or None: the only candidate is read off
    the argument of x's complex value, and one exact comparison at x's own
    conductor c proves it.  Cached on the stored (c, nums, den), so a lookup
    runs no minimal()."""
    return _stored_root_exponent(x.n, x.nums, x.den, n)


@lru_cache(maxsize=None)
def _stored_root_exponent(c: int, nums: tuple, den: int, n: int) -> int | None:
    x = _make(c, nums, den)
    j = round(_phase(x) * n / (2 * cmath.pi)) % n
    # Q(zeta_c) holds zeta_n^j, of order o, only if o | L = lcm(2, c), as zeta_L^e; zeta_2c^e is
    # (-1)^e zeta_c^(e (c+1) / 2) for odd c
    o, L = n // gcd(j, n), lcm(2, c)
    e = j * o // n * (L // o)
    sign, k = (1, e) if L == c else ((-1) ** e, e * (c + 1) // 2)
    return j if L % o == 0 and Cyclotomic.zeta(c, k) * sign == x else None


def _phase(x: Cyclotomic) -> float:
    # x's argument, read from its numerators over the largest, so no float overflows
    big, z = max(map(abs, x.nums)) or 1, cmath.exp(2j * cmath.pi / x.n)
    return cmath.phase(sum(v / big * z**i for i, v in enumerate(x.nums) if v))


def _descend(x: Cyclotomic, p: int) -> Cyclotomic | None:
    """x at conductor m = n / p > 1, p prime, or None if Q(zeta_m) does not hold x: by stride if
    p | m; else by x's parts along zeta_p^k, k < p - 1, with zeta_n = zeta_m^a zeta_p^b and
    zeta_p^(p-1) = -1 - ... - zeta_p^(p-2), each folded at m: all but the first must be 0."""
    nums, m = x.nums, x.n // p
    if m % p == 0:
        return None if any(v for i, v in enumerate(nums) if i % p) else _make(m, nums[::p], x.den)
    a, b = pow(p, -1, m), pow(m, -1, p)  # a p + b m = 1 (mod n)
    parts = [[0] * m for _ in range(p)]
    for i, v in enumerate(nums):
        parts[b * i % p][a * i % m] += v
    top, phi = parts.pop(), _phi(m)
    for k in range(p - 2, -1, -1):  # only k = 0 may be nonzero
        if any(y := _fold(m, phi, list(map(sub, parts[k], top)))) and k:
            return None
    return _make(m, y, x.den)


def _int_modular_inverse(a, mod) -> tuple[list[int], int]:
    """(s, c) with s * a = c (mod mod), c a nonzero integer, for a of lower
    degree than the irreducible mod: extended Euclid over Z by pseudo-division,
    dividing out each (remainder, cofactor) pair's content."""
    r0, s0 = list(mod), []
    r1, s1 = _trim(list(a)), [1]
    while len(r1) > 1:
        lc, k = r1[-1], len(r1)
        r, s = r0, s0
        while len(r) >= k:
            t, shift = r[-1], len(r) - k
            r = [lc * v for v in r]
            s = [lc * v for v in s] + [0] * (len(s1) + shift - len(s))
            for i, v in enumerate(r1):
                r[i + shift] -= t * v
            for i, v in enumerate(s1):
                s[i + shift] -= t * v
            _trim(r)
        if not r:
            raise AssertionError("element and modulus share a factor: no inverse")
        g = gcd(*r, *s)
        r0, s0, r1, s1 = r1, s1, [v // g for v in r], [v // g for v in s]
    return s1, r1[0]


# -- images in F_p (Collins; Brown, J. ACM 18, 1971): a ring map Z[zeta_n][1/den]
# -> F_p takes a resultant to that of the images, so a nonzero image proves
# the exact value nonzero; a zero one proves nothing.

_SMALL_PRIMES = tuple(q for q in range(2, 256) if all(q % k for k in range(2, int(q**0.5) + 1)))
_MR_BASES = _SMALL_PRIMES[:12]  # 2..37


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Trial division by the primes below 256, exact below 256^2, then deterministic Miller-Rabin
    on the prime bases 2..37, exact below 3.3 * 10^24 (3,317,044,064,679,887,385,961,981, the first
    composite to pass every base, is called prime).  With p - 1 = 2^s t, t odd, a base passes if
    a^t = 1, or if its square chain a^(t 2^j), j < s, reaches -1, where the chain stops.  Cached, so
    the image fields' 2^61 - 1 (n = 1, 3, 5, 15, ...) is proved once."""
    if p < 2 or any(p % q == 0 for q in _SMALL_PRIMES):
        return p in _SMALL_PRIMES
    if p < 2**16:
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and x != p - 1 and all((x := x * x % p) != p - 1 for _ in range(s - 1)):
            return False
    return True


def _exact_order(r: int, n: int, p: int) -> bool:
    # r^n = 1 and r^(n/q) != 1 (mod p) for each prime q | n
    return pow(r, n, p) == 1 and all(pow(r, n // q, p) != 1 for q, _ in _factor(n))


@lru_cache(maxsize=None)
def _image_field(n: int) -> tuple[int, int]:
    """(p, r): the largest prime p < 2^61 with p = 1 (mod n), and the first
    r = g^((p-1)/n), g = 2, 3, ..., of exact order n mod p (p = 2^61 - 1 and
    r = 1 at n = 1).  p does not divide n, so r is a root of Phi_n mod p and
    zeta_m -> r^(n/m) for m | n is a ring map Z[zeta_n] -> F_p."""
    p = (2**61 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    return p, next(r for g in count(2) if _exact_order(r := pow(g, (p - 1) // n, p), n, p))


def _images(lists) -> tuple[int, list[list[int]]] | None:
    """(p, the images in F_p of the cyclotomic numbers in each of lists)
    under the ring map of ``_image_field(n)``, n the lcm of their
    conductors; None when p divides a denominator, where there is no map."""
    n = lcm(*(x.n for xs in lists for x in xs))
    p, r = _image_field(n)
    if any(x.den % p == 0 for xs in lists for x in xs):
        return None
    def image(x):
        v = x.nums[0] if x.n == 1 else sum(c * pow(r, n // x.n * i, p) for i, c in enumerate(x.nums))
        return (v if x.den == 1 else v * pow(x.den, -1, p)) % p
    return p, [list(map(image, xs)) for xs in lists]


def rational_sqrt(q) -> Cyclotomic:
    """Exact square root of a rational number as a cyclotomic number."""
    q = Fraction(q)
    if q == 0:
        return Cyclotomic.rational(0)
    result, q = Cyclotomic.zeta(4) if q < 0 else Cyclotomic.rational(1), abs(q)
    # sqrt(a/b) = sqrt(a*b)/b
    rational_part = Fraction(1, q.denominator)
    for p, e in _factor(q.numerator * q.denominator):
        rational_part *= p ** (e // 2)
        if e % 2:
            result = result * _prime_sqrt(p)
    return result * Cyclotomic.rational(rational_part)


@lru_cache(maxsize=None)
def _prime_sqrt(p: int) -> Cyclotomic:
    if p == 2:
        return Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
    # Gauss sum: sum of legendre(a, p) zeta_p^a is sqrt(p) or i*sqrt(p)
    raw = [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)]
    g = Cyclotomic.from_raw(p, raw)
    if p % 4 == 1:
        return g
    return g * Cyclotomic.zeta(4, 3)  # divide out i


class ExactMatrix:
    """Row-major matrix of cyclotomic numbers with exact linear algebra."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [e if isinstance(e, Cyclotomic) else Cyclotomic.rational(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists) -> ExactMatrix:
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = [e for r in row_lists for e in r]
        return cls(rows, cols, flat)

    def row(self, i: int) -> list[Cyclotomic]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _eliminate(self):
        """Forward elimination: (rows in echelon form, pivot columns, row
        swaps, inverses of the pivots).  Column c's pivot is its first
        nonzero entry at or below the current row; the rows below it are
        cleared, none is normalized."""
        m = [self.row(i) for i in range(self.rows)]
        pivots, invs = [], []
        swaps = r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                swaps += 1
            piv = m[r]
            inv = piv[c].inverse()
            for i in range(r + 1, self.rows):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], piv)]
            pivots.append(c)
            invs.append(inv)
            r += 1
        return m, pivots, swaps, invs

    def row_basis(self) -> list[list[Cyclotomic]]:
        """Reduced echelon basis of the row space, one row per pivot: 1 at
        its pivot column, the row's first nonzero entry, and 0 there in
        every other row.  The echelon rows of ``_eliminate`` are scaled and
        cleared upwards, last pivot first."""
        m, pivots, _, invs = self._eliminate()
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = m[r] = [x * invs[r] for x in m[r]]
            for i in range(r):
                if m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], row)]
        return m[: len(pivots)]

    def kernel_basis(self) -> list[list[Cyclotomic]]:
        """Exact basis of the right kernel; len = cols - rank.  Vector k sets
        the k-th free column to 1, the other free columns to 0, and solves
        the echelon rows bottom-up for the pivot columns."""
        m, pivots, _, invs = self._eliminate()
        zero, one = Cyclotomic.rational(0), Cyclotomic.rational(1)
        basis = []
        for f in sorted(set(range(self.cols)) - set(pivots)):
            v = [zero] * self.cols
            v[f] = one
            # pivot columns right of f stay 0
            for r in range(bisect(pivots, f) - 1, -1, -1):
                c, row = pivots[r], m[r]
                acc = zero
                for j in range(c + 1, f + 1):
                    if row[j] and v[j]:
                        acc = acc + row[j] * v[j]
                v[c] = -(acc * invs[r])
            basis.append(v)
        return basis

    def determinant(self) -> Cyclotomic:
        if self.rows != self.cols:
            raise NonSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        m, pivots, swaps, _ = self._eliminate()
        if len(pivots) < self.rows:
            return Cyclotomic.rational(0)
        det = Cyclotomic.rational(1)
        for r in range(self.rows):
            det = det * m[r][r]
        return -det if swaps % 2 else det

