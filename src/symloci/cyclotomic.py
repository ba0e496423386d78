"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_n).

Every quantity in this package is a cyclotomic number: a Q-linear
combination of powers of a primitive n-th root of unity, stored in the
reduced power basis {zeta^i : 0 <= i < phi(n)} modulo the n-th cyclotomic
polynomial.  That basis makes equality testing canonical: two elements are
equal iff their coefficient vectors agree after promotion to the lcm
conductor.

Also provided here: dense univariate polynomials over the cyclotomics and
exact linear algebra (kernel, rank, determinant, solve), which every other
module relies on for dimension counts.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__


class NonSquare(ValueError):
    """Determinant requested for a non-square matrix."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for n >= 1")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic; coeffs low->high
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num[: len(den) - 1])
    return q


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    # coefficients of Phi_n, low->high, monic, integral
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    den = [1]
    for d in _divisors(n):
        if d == n:
            continue
        phi_d = _cyclotomic_int_coeffs(d)
        new = [0] * (len(den) + len(phi_d) - 1)
        for i, a in enumerate(den):
            if a:
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
        den = new
    return tuple(_int_poly_div(num, den))


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # row k-phi expresses zeta_n^k (phi <= k < n) in the reduced basis
    phi = euler_phi(n)
    mod = _cyclotomic_int_coeffs(n)
    rows = []
    cur = [-c for c in mod[:phi]]  # x^phi
    for _ in range(phi, n):
        rows.append(tuple(cur))
        top = cur[phi - 1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * mod[i]
    return tuple(rows)


def _reduce_raw(n: int, raw) -> tuple[Fraction, ...]:
    # fold arbitrary zeta_n-power coefficients into the reduced basis
    phi = euler_phi(n)
    out = [_ZERO] * phi
    rows = None
    for e, c in enumerate(raw):
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] += c
        else:
            if rows is None:
                rows = _reduction_rows(n)
            row = rows[e - phi]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


class Cyclotomic:
    """An element of Q(zeta_n) in the canonical reduced representation."""

    __slots__ = ("n", "c", "_hash")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(x) for x in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length for conductor")
        self.n = conductor
        self.c = coeffs
        self._hash = None

    @classmethod
    def _trusted(cls, conductor: int, coeffs: tuple) -> Cyclotomic:
        """Internal fast path for results of the arithmetic and _reduce_raw:
        coeffs must already be a tuple of phi(conductor) Fractions, so no
        re-wrapping and no length check is done."""
        obj = _new(cls)
        obj.n = conductor
        obj.c = coeffs
        obj._hash = None
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> Cyclotomic:
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> Cyclotomic:
        """zeta_n^k as an exact element of Q(zeta_n)."""
        k %= n
        raw = [_ZERO] * (k + 1)
        raw[k] = _ONE
        return cls._trusted(n, _reduce_raw(n, raw))

    @classmethod
    def from_raw(cls, conductor: int, raw) -> Cyclotomic:
        """Reduce sum_i raw[i] * zeta_n^i to the canonical basis."""
        return cls._trusted(conductor, _reduce_raw(conductor, [Fraction(x) for x in raw]))

    # -- representation helpers --------------------------------------------

    def promote(self, m: int) -> Cyclotomic:
        """Rewrite in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("can only promote to a multiple of the conductor")
        step = m // self.n
        raw = [_ZERO] * ((len(self.c) - 1) * step + 1) if self.c else [_ZERO]
        for i, ci in enumerate(self.c):
            if ci:
                raw[i * step] = ci
        return Cyclotomic._trusted(m, _reduce_raw(m, raw))

    def _common(self, other: Cyclotomic):
        m = lcm(self.n, other.n)
        return m, self.promote(m).c, other.promote(m).c

    def is_rational(self) -> bool:
        return all(not x for x in self.c[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c[0]

    def minimal(self) -> Cyclotomic:
        """Rewrite at the smallest conductor that can represent the value."""
        x = self
        # n == 2 (mod 4) fields coincide with their odd half
        while x.n % 4 == 2:
            h = x.n // 2
            # zeta_n = -zeta_h^((h+1)/2)
            raw = [_ZERO] * h
            for i, ci in enumerate(x.c):
                if ci:
                    e = (i * ((h + 1) // 2)) % h
                    raw[e] += ci if i % 2 == 0 else -ci
            x = Cyclotomic._trusted(h, _reduce_raw(h, raw))
        if x.is_rational():
            return Cyclotomic._trusted(1, (x.c[0],))
        for d in _divisors(x.n):
            if d == x.n or d % 4 == 2 or d == 1:
                continue
            y = _try_represent(x, d)
            if y is not None:
                return y
        return x

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return Cyclotomic._trusted(self.n, tuple(a + b for a, b in zip(self.c, other.c)))
        m, a, b = self._common(other)
        return Cyclotomic._trusted(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._trusted(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return Cyclotomic._trusted(self.n, tuple(a - b for a, b in zip(self.c, other.c)))
        m, a, b = self._common(other)
        return Cyclotomic._trusted(m, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1:
            q = self.c[0]
            return Cyclotomic._trusted(other.n, tuple(q * x for x in other.c))
        if other.n == 1:
            q = other.c[0]
            return Cyclotomic._trusted(self.n, tuple(q * x for x in self.c))
        m, a, b = self._common(other)
        conv = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return Cyclotomic._trusted(m, _reduce_raw(m, conv))

    __rmul__ = __mul__

    def inverse(self) -> Cyclotomic:
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic._trusted(self.n, (1 / self.c[0],) + self.c[1:])
        mod = [Fraction(x) for x in _cyclotomic_int_coeffs(self.n)]
        u = _poly_modular_inverse(list(self.c), mod)
        return Cyclotomic._trusted(self.n, _reduce_raw(self.n, u))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

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
        return any(self.c)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return self.c == other.c
        m, a, b = self._common(other)
        return a == b

    def __hash__(self):
        if self._hash is None:
            m = self.minimal()
            self._hash = hash((m.n, m.c))
        return self._hash

    # -- galois / embeddings -------------------------------------------------

    def galois(self, k: int) -> Cyclotomic:
        """Apply zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        raw = [_ZERO] * self.n
        for i, ci in enumerate(self.c):
            if ci:
                raw[(i * k) % self.n] += ci
        return Cyclotomic._trusted(self.n, _reduce_raw(self.n, raw))

    def conjugate(self) -> Cyclotomic:
        return self.galois(self.n - 1) if self.n > 1 else self

    def complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        total = 0j
        p = 1 + 0j
        for ci in self.c:
            if ci:
                total += float(ci) * p
            p *= z
        return total

    # -- root-of-unity structure ----------------------------------------------

    def ru_order(self, cap: int | None = None) -> int | None:
        """Multiplicative order if self is a root of unity, else None."""
        if not self:
            return None
        cap = cap or 2 * self.n + 1
        p = self
        one = Cyclotomic.rational(1)
        for k in range(1, cap + 1):
            if p == one:
                return k
            p = p * self
        return None

    def as_ru_times_rational(self):
        """Decompose as (r, rho) with self = r * rho, r rational > 0 or < 0,
        rho a root of unity in Q(zeta_n).  Returns None if no such form."""
        if not self:
            return None
        if self.is_rational():
            return self.c[0], Cyclotomic.rational(1)
        n = self.n
        for j in range(n):
            rho = Cyclotomic.zeta(n, j)
            q = self * rho.inverse()
            if q.is_rational():
                return q.c[0], rho
        return None

    def sqrt(self) -> Cyclotomic:
        """Exact square root when self = rational * (root of unity).

        The result lives in a (possibly larger) cyclotomic field.  Raises
        ValueError for shapes outside that family.
        """
        if not self:
            return Cyclotomic.rational(0)
        dec = self.as_ru_times_rational()
        if dec is None:
            raise ValueError("square root not of the form sqrt(rational * root of unity)")
        r, rho = dec
        root = rational_sqrt(r)
        if rho != Cyclotomic.rational(1):
            # rho = zeta_n^j: take zeta_{2n}^j
            n = self.n
            j = next(j for j in range(n) if Cyclotomic.zeta(n, j) == rho)
            root = root * Cyclotomic.zeta(2 * n, j)
        assert root * root == self
        return root

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.n,
            "coeffs": [[str(x.numerator), str(x.denominator)] for x in self.c],
        }

    @classmethod
    def from_json(cls, obj: dict) -> Cyclotomic:
        coeffs = [Fraction(int(num), int(den)) for num, den in obj["coeffs"]]
        return cls(int(obj["conductor"]), coeffs)

    def __repr__(self):
        if self.is_rational():
            return str(self.c[0])
        terms = []
        for i, ci in enumerate(self.c):
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


def _try_represent(x: Cyclotomic, d: int) -> Cyclotomic | None:
    # solve for x as a Q-combination of the reduced basis of Q(zeta_d) inside Q(zeta_n)
    n, phi_d = x.n, euler_phi(d)
    cols = []
    for j in range(phi_d):
        raw = [_ZERO] * n
        raw[(j * (n // d)) % n] = _ONE
        cols.append(_reduce_raw(n, raw))
    sol = _solve_rational(cols, x.c)
    if sol is None:
        return None
    return Cyclotomic(d, sol)


def _solve_rational(cols, target):
    # least structure: solve sum_j y_j cols[j] = target over Q, or None
    rows = len(target)
    ncols = len(cols)
    mat = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][ncols]:
            return None
    sol = [_ZERO] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = mat[i][ncols]
    return tuple(sol)


def _poly_modular_inverse(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    # extended Euclid in Q[x]: u with a*u = 1 (mod mod); mod irreducible
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def poly_divmod(num, den):
        num = list(num)
        q = [_ZERO] * max(len(num) - len(den) + 1, 0)
        inv_lead = 1 / den[-1]
        for i in range(len(q) - 1, -1, -1):
            c = num[i + len(den) - 1] * inv_lead
            q[i] = c
            if c:
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
        return q, trim(num)

    def poly_mul(p, q):
        out = [_ZERO] * (len(p) + len(q) - 1) if p and q else []
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
        return trim(out)

    def poly_sub(p, q):
        out = [_ZERO] * max(len(p), len(q))
        for i, pi in enumerate(p):
            out[i] += pi
        for i, qi in enumerate(q):
            out[i] -= qi
        return trim(out)

    r0, r1 = list(mod), trim(list(a))
    s0, s1 = [], [_ONE]
    while r1:
        q, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    # r0 = gcd (a nonzero constant since mod is irreducible and a != 0)
    assert len(r0) == 1
    inv_g = 1 / r0[0]
    return [x * inv_g for x in s0]


def rational_sqrt(q) -> Cyclotomic:
    """Exact square root of a rational number as a cyclotomic number."""
    q = Fraction(q)
    if q == 0:
        return Cyclotomic.rational(0)
    result = Cyclotomic.rational(1)
    if q < 0:
        result = Cyclotomic.zeta(4)
        q = -q
    # sqrt(a/b) = sqrt(a*b)/b
    n = q.numerator * q.denominator
    rational_part = Fraction(1, q.denominator)
    m, p = n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            rational_part *= p ** (e // 2)
            if e % 2:
                result = result * _prime_sqrt(p)
        p += 1
    if m > 1:
        result = result * _prime_sqrt(m)
    return result * Cyclotomic.rational(rational_part)


@lru_cache(maxsize=None)
def _prime_sqrt(p: int) -> Cyclotomic:
    if p == 2:
        return Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
    # Gauss sum: sum of legendre(a, p) zeta_p^a is sqrt(p) or i*sqrt(p)
    raw = [_ZERO] * p
    for a in range(1, p):
        raw[a] = _ONE if pow(a, (p - 1) // 2, p) == 1 else -_ONE
    g = Cyclotomic.from_raw(p, raw)
    if p % 4 == 1:
        return g
    return g * Cyclotomic.zeta(4, 3)  # divide out i


def cyclotomic_polynomial(n: int) -> Poly:
    """Phi_n as a polynomial with (rational) cyclotomic coefficients."""
    return Poly([Cyclotomic.rational(c) for c in _cyclotomic_int_coeffs(n)])


def canonical_reduce(raw, conductor: int) -> Cyclotomic:
    """Reduce sum_i raw[i] zeta_n^i (rational raw) modulo Phi_n."""
    return Cyclotomic.from_raw(conductor, raw)


def complex_embedding(x: Cyclotomic) -> complex:
    """Evaluate under zeta_n -> exp(2 pi i / n)."""
    return x.complex()


class Poly:
    """Dense univariate polynomial over Cyclotomic, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_rationals(cls, vals) -> Poly:
        return cls([Cyclotomic.rational(v) for v in vals])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [Cyclotomic.rational(0)] * (len(b) - len(a))
        for i, bi in enumerate(b):
            out[i] = out[i] + bi
        return Poly(out)

    def __neg__(self):
        return Poly([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Cyclotomic.rational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: Poly):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly([]), self
        q = [Cyclotomic.rational(0)] * (dq + 1)
        inv_lead = other.coeffs[-1].inverse()
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead
            q[i] = c
            if c:
                for j, dj in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * dj
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly([c * inv for c in self.coeffs])

    def derivative(self) -> Poly:
        return Poly([c * i for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: Poly) -> Poly:
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, x: Cyclotomic) -> Cyclotomic:
        acc = Cyclotomic.rational(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + ", ".join(repr(c) for c in self.coeffs) + ")"


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

    def at(self, i: int, j: int) -> Cyclotomic:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Cyclotomic]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _echelon(self):
        # returns (matrix rows, pivot column list, swap count)
        m = [self.row(i) for i in range(self.rows)]
        pivots = []
        swaps = 0
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                swaps += 1
            inv = m[r][c].inverse()
            m[r] = [v * inv for v in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots, swaps

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> list[list[Cyclotomic]]:
        """Exact basis of the right kernel; len = cols - rank."""
        m, pivots, _ = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        zero, one = Cyclotomic.rational(0), Cyclotomic.rational(1)
        for f in free:
            v = [zero] * self.cols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = -m[r][f]
            basis.append(v)
        return basis

    def determinant(self) -> Cyclotomic:
        if self.rows != self.cols:
            raise NonSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        m = [self.row(i) for i in range(self.rows)]
        det = Cyclotomic.rational(1)
        sign = 1
        for c in range(self.cols):
            pr = next((i for i in range(c, self.rows) if m[i][c]), None)
            if pr is None:
                return Cyclotomic.rational(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign = -sign
            piv = m[c][c]
            det = det * piv
            inv = piv.inverse()
            for i in range(c + 1, self.rows):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det * sign if sign < 0 else det

    def mul_vector(self, v) -> list[Cyclotomic]:
        out = []
        for i in range(self.rows):
            acc = Cyclotomic.rational(0)
            row = self.row(i)
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out


def kernel_basis(m: ExactMatrix) -> list[list[Cyclotomic]]:
    return m.kernel_basis()


def determinant(m: ExactMatrix) -> Cyclotomic:
    return m.determinant()
