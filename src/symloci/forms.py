"""Binary forms in X, Y over the cyclotomics, and divisors on P^1.

A form of degree n is stored as n+1 coefficients, coeffs[i] multiplying
X^(n-i) Y^i.  The zero form carries an explicit declared degree so that
decompositions with a vanishing component stay representable.  Resultants
(the value of the Sylvester determinant) and gcds, after the common Y-power
is split off, come from one subresultant remainder sequence on the integral
numerators of the coefficient lists; no root finding is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul, sub

from .cyclotomic import Cyclotomic, _fold, _image_field, _images, _make, _phi, _trim

_C0 = Cyclotomic.rational(0)
_C1 = Cyclotomic.rational(1)


class DegreeMismatch(ValueError):
    """Operands do not have the degrees the operation requires."""


def _cy(x) -> Cyclotomic:  # every rational zero is the one _C0, so sparse int lists build fast
    return x if isinstance(x, Cyclotomic) else Cyclotomic.rational(x) if x else _C0


def _proportional(v, w) -> bool:
    """Exact projective equality of two coefficient vectors, no divisions."""
    i = next((k for k, c in enumerate(v) if c), None)
    if i != next((k for k, c in enumerate(w) if c), None):
        return False
    return all(a * w[i] == b * v[i] for a, b in zip(v, w) if a or b)


def _normalized(v) -> list[Cyclotomic]:
    """The entries of v divided by the first nonzero one; a zero vector
    comes back unchanged."""
    lead = next((c for c in v if c), None)
    if lead is None:
        return list(v)
    inv = lead.inverse()
    return [c * inv for c in v]


class BinaryForm:
    """Homogeneous form sum_i coeffs[i] X^(n-i) Y^i of declared degree n."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(_cy(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        return cls(degree, [_C0] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, i: int, c=1) -> BinaryForm:
        coeffs = [_C0] * (degree + 1)
        coeffs[i] = _cy(c)
        return cls(degree, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("can only add forms of equal degree")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("can only subtract forms of equal degree")
        return BinaryForm(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = _cy(other)
            return BinaryForm(self.degree, [a * c for a in self.coeffs])
        n = self.degree + other.degree
        out = [_C0] * (n + 1)
        _accumulate_product(out, self.coeffs, other.coeffs)
        return BinaryForm(n, out)

    __rmul__ = __mul__

    def evaluate(self, x: Cyclotomic, y: Cyclotomic) -> Cyclotomic:
        n, acc = self.degree, _C0
        xpows, ypows = _powers(x, n), _powers(y, n)
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * xpows[n - i] * ypows[i]
        return acc

    def normalized(self) -> BinaryForm:
        """Scale so the first nonzero coefficient is 1."""
        return BinaryForm(self.degree, _normalized(self.coeffs))

    def minimized(self) -> BinaryForm:
        """Rewrite every coefficient at its minimal conductor."""
        return BinaryForm(self.degree, [c.minimal() for c in self.coeffs])

    def y_valuation(self) -> int:
        """Multiplicity of the factor Y, i.e. of the root [1:0]."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.degree + 1  # zero form: conventionally everything

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> BinaryForm:
        return cls(int(obj["degree"]), [Cyclotomic.from_json(c) for c in obj["coeffs"]])

    def __repr__(self):
        if self.is_zero():
            return f"BinaryForm(0; deg {self.degree})"
        terms = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = []
            if n - i:
                mono.append("X" if n - i == 1 else f"X^{n-i}")
            if i:
                mono.append("Y" if i == 1 else f"Y^{i}")
            body = "*".join(mono) or "1"
            cs = repr(c)
            if cs == "1" and mono:
                terms.append(body)
            elif cs == "-1" and mono:
                terms.append(f"-{body}")
            else:
                coef = cs if cs.startswith("-") or "+" not in cs else f"({cs})"
                terms.append(f"{coef}*{body}" if mono else coef)
        return " + ".join(terms).replace("+ -", "- ")


def _powers(x: Cyclotomic, top: int) -> list[Cyclotomic]:
    """[1, x, x^2, ..., x^top], ints for an int x."""
    return list(accumulate(repeat(x, top), mul, initial=x**0))


def _accumulate_product(out: list, p1: list, p2: list):
    # out += p1 * p2, coefficient lists in the X^(n-i) Y^i order
    for u, x in enumerate(p1):
        if x:
            for v, y in enumerate(p2):
                if y:
                    out[u + v] = out[u + v] + x * y


def substitute(f: BinaryForm, g) -> BinaryForm:
    """Right substitution action F^g = F(aX+bY, cX+dY).

    g may be a 4-tuple (a, b, c, d), a 2x2 nested sequence, or any object
    with fields a, b, c, d.  Every matrix takes one packed Horner pass
    (Kronecker substitution) per conductor m among the nonzero coefficients.
    A pass works in Z[zeta_N], N = lcm(m, a.n, b.n, c.n, d.n), and writes
    each element, denominators cleared, as one int: its digits in
    Z[x]/(x^N - 1) at x = 2^B, so the ring is Z mod 2^(BN) - 1, reduced by
    shift and add.  Horner on the power of Y,
    S_k = S_(k-1) (aX+bY) + f_k (cX+dY)^k, takes O(n^2) int products, and B,
    two bits past the l1 bound sum_i |f_i| (|a|+|b|)^(n-i) (|c|+|d|)^i on
    every digit, decodes them exactly.  Each nonzero coefficient is stored at
    the lcm of the passes' N, so a form whose nonzero coefficients share one
    conductor m comes back at that N, and each zero as the rational 0.
    """
    a, b, c, d = _matrix_entries(g)
    n, coeffs = f.degree, f.coeffs
    passes = [_packed_horner(coeffs, m, a, b, c, d) for m in {x.n for x in coeffs if x}]
    (L, den, rows), *more = passes or [(1, 1, [()] * (n + 1))]  # the zero form: each coefficient _C0
    if more:  # several conductors: each coefficient's digits added at the lcm L over one den, folded once
        L, den = lcm(*(N for N, _, _ in passes)), lcm(*(t for _, t, _ in passes))
        raws = [[0] * max((len(r[0]) - 1) * (L // N) + 1 for N, _, r in passes) for _ in range(n + 1)]
        for N, t, r in passes:
            for raw, nums in zip(raws, r):
                for j, v in enumerate(nums):
                    raw[j * (L // N)] += v * (den // t)
        rows = [_fold(L, _phi(L), raw) for raw in raws]
    return BinaryForm(n, [_make(L, nums, den) if any(nums) else _C0 for nums in rows])


def _packed_horner(coeffs: tuple, m: int, a, b, c, d) -> tuple:
    # (N, den, rows): the terms of the nonzero coefficients at conductor m, added, as digits at N
    # over den; one pass per m, since a pass at the lcm of all of them multiplies N-digit ints throughout
    n, fs = len(coeffs) - 1, [(i, x) for i, x in enumerate(coeffs) if x and x.n == m]
    N, dm, den = lcm(m, a.n, b.n, c.n, d.n), lcm(a.den, b.den, c.den, d.den), lcm(*(x.den for _, x in fs))
    ents, fs = [(x, dm // x.den) for x in (a, b, c, d)], [(i, x, den // x.den) for i, x in fs]  # numerators
    na, nb, nc, nd = (s * sum(map(abs, x.nums)) for x, s in ents)
    B = sum(s * sum(map(abs, x.nums)) * (na + nb) ** (n - i) * (nc + nd) ** i for i, x, s in fs).bit_length() + 2
    W, M, half, mask = B * N, (1 << B * N) - 1, 1 << (B - 1), (1 << B) - 1
    pack = lambda x, s: sum(v * s << B * (N // x.n) * j for j, v in enumerate(x.nums))  # noqa: E731
    (al, be, ga, de), F, S, P = [pack(x, s) for x, s in ents], {i: pack(x, s) for i, x, s in fs}, [], [1]
    for k in range(n + 1):
        P = [((v := p * ga + q * de) & M) + (v >> W) for p, q in zip(P + [0], [0] + P)] if k else P
        fk = F.get(k, 0)
        S = [((v := s * al + t * be + fk * p) & M) + (v >> W) for s, t, p in zip(S + [0], [0] + S, P)]
    offset, phi, rows = M // mask * half, _phi(N), []  # offset: half in every digit
    for s in S:
        w = (s + offset) % M
        rows.append(_fold(N, phi, [(w >> B * e & mask) - half for e in range(N)]))
    return N, den * dm**n, rows


def _matrix_entries(g):
    if hasattr(g, "a"):
        g = (g.a, g.b, g.c, g.d)
    return [_cy(x) for row in g for x in (row if isinstance(row, (list, tuple)) else [row])]


def partial_derivatives(f: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """(dF/dX, dF/dY); Euler: X F_X + Y F_Y = n F exactly."""
    n = f.degree
    if n < 1:
        raise DegreeMismatch("derivative needs degree >= 1")
    fx = [f.coeffs[i] * (n - i) for i in range(n)]
    fy = [f.coeffs[i + 1] * (i + 1) for i in range(n)]
    return BinaryForm(n - 1, fx), BinaryForm(n - 1, fy)


def resultant_pair(f: BinaryForm, g: BinaryForm) -> Cyclotomic:
    """Sylvester resultant of two degree-d binary forms.

    Zero exactly when the forms share a projective root; this is the
    polynomial cutting out the complement of the space of genuine
    degree-d maps.
    """
    if f.degree != g.degree:
        raise DegreeMismatch("resultant_pair expects equal degrees")
    if f.degree < 1:
        raise DegreeMismatch("resultant_pair expects degree >= 1")
    return sylvester_resultant(f, g)


def sylvester_resultant(f: BinaryForm, g: BinaryForm) -> Cyclotomic:
    """The (m+n) x (m+n) Sylvester determinant of forms of declared degrees
    m, n, by the subresultant remainder sequence (``_prs``) on the integral
    numerators of A = F(x, 1), B = G(x, 1): Res(F/a, G/b) = Res(F, G) /
    (a^n b^m) for integers a, b clearing the denominators.

    A zero top coefficient lowers the actual degree: Res_{m,n} =
    (-1)^(n(m-m')) lc(G)^(m-m') Res_{m',n} for F, lc(F)^(n-n') Res_{m,n'}
    for G, and 0 when both vanish (a common root at [1:0]).  Degree 0
    follows the matrix: Res_{m,0}(F, g0) = g0^m, Res_{0,n}(f0, G) = f0^n,
    and the 0 x 0 case is 1.  Zero comes back as the rational 0.
    """
    m, n = f.degree, g.degree
    if not n or not m:
        res = g.coeffs[0] ** m if not n else f.coeffs[0] ** n
        return res if res else _C0
    (a, ca), (b, cb), div = _numerators(f.coeffs, g.coeffs)
    if not a or not b or (len(a) <= m and len(b) <= n):
        return _C0
    da, db = len(a) - 1, len(b) - 1
    res, den = (-1) ** (n * (m - da)) * a[-1] ** (n - db) * b[-1] ** (m - da) * _prs(a, b, div)[0], ca**n * cb**m
    return (_make(1, (res,), den) if type(res) is int else _make(res.n, res.nums, den)) if res else _C0


def _numerators(*coeff_lists) -> tuple:
    # each list times the lcm c of its denominators, lowest degree first and
    # trimmed, with c; then the exact quotient div(xs, y) of their ring: ints
    # when every coefficient is rational, else den-1 cyclotomics
    ints, out = all(x.n == 1 for xs in coeff_lists for x in xs), []
    for xs in coeff_lists:
        c = lcm(*(x.den for x in xs))
        nums = [x.nums[0] * (c // x.den) if ints else _make(x.n, tuple([v * (c // x.den) for v in x.nums]), 1)
                for x in reversed(xs)]
        out.append((_trim(nums), c))
    # a quotient of ints is a floor division, of cyclotomics one inverse and then a product per entry
    div = (lambda xs, y: [x // y for x in xs]) if ints else (lambda xs, y: list(map(_cy(y).inverse().__mul__, xs)))
    return *out, div


def _prs(a: list, b: list, div) -> tuple:
    """(Res(A, B), the last nonzero term, a multiple of gcd(A, B)) by the
    subresultant remainder sequence (Collins, J. ACM 14, 1967; Brown and
    Traub, J. ACM 18, 1971) of lists lowest degree first with nonzero tops:
    B' = prem(A, B) / (g h^delta) = lc(B)^(delta+1) A mod B / (g h^delta),
    then g = lc(B), h = g^delta / h^(delta-1), every division exact (div)."""
    s = g = h = 1
    if len(a) < len(b):
        a, b, s = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1) % 2)
    while len(b) > 1:
        delta, lc, r = len(a) - len(b), b[-1], list(a)
        for i in range(delta, -1, -1):  # r = prem(A, B)
            c = r.pop()
            r[:i] = [lc * x for x in r[:i]]
            r[i:] = [lc * x - c * y for x, y in zip(r[i:], b)]
        s *= (-1) ** ((len(a) - 1) * (len(b) - 1) % 2)
        a, b, g = b, div(_trim(r), g * h**delta), lc
        h = g if delta == 1 else div([g**delta * h], h**delta)[0]
    return (s * div([b[0] ** (len(a) - 1) * h], h ** (len(a) - 1))[0] if b else 0), b or a


def _remainder(a: list, b: list, p: int) -> list:
    # a mod b for univariate lists of integers mod p, b's reduced, lowest
    # degree first, each with a nonzero top; a is consumed, the result trimmed
    k, inv = len(b) - 1, pow(b[-1], -1, p)
    for i in range(len(a) - 1 - k, -1, -1):
        if c := a[i + k] * inv % p:
            a[i : i + k] = [x - c * y for x, y in zip(a[i : i + k], b)]
    a[:] = [x % p for x in a[:k]]
    return _trim(a)


def _coprime_images(images: list, p: int) -> bool:
    """Do forms with these coefficient images mod p, of their declared
    degrees, share no root over the closure of F_p?  Not if an image is 0 or
    all vanish at [1:0]; else Euclid mod p on the F(x, 1) decides.  Forms
    share no root iff their resultant is nonzero, so True proves Res != 0."""
    if not all(map(any, images)) or not any(f[0] for f in images):
        return False
    a = []
    for f in images:
        b = _trim(f[::-1])
        while b:
            a, b = b, _remainder(a, b, p)
    return len(a) == 1


def _in_ratd(F, G) -> bool:
    """Res(F, G) != 0 for the int or cyclotomic lists of two forms of degree n = len(F) - 1 >= 1.  M, the gcd of
    the offsets of both supports from each list's first nonzero index, writes F = X^a Y^b f(X^M, Y^M) and
    G = X^a' Y^b' g(X^M, Y^M), f and g nonzero at both ends.  z -> z^M maps C* onto itself, so F and G share a
    root iff one is 0, both vanish at [1:0] (F[0] = G[0] = 0) or at [0:1] (F[n] = G[n] = 0), or f and g share
    one, which no one-term f or g has.  Coprime images of f, g mod p (x % p for ints, else ``_images``) prove
    they do not; else Res(F, G) decides."""
    (sF, sG), n = ([i for i, x in enumerate(xs) if x] for xs in (F, G)), len(F) - 1
    if not (sF and sG) or min(sF[0], sG[0]) or max(sF[-1], sG[-1]) < n:
        return False
    if len(sF) == 1 or len(sG) == 1:
        return True
    M, p = gcd(*(i - s[0] for s in (sF, sG) for i in s)), _image_field(1)[0]
    f, g = (xs[s[0] : s[-1] + 1 : M] for xs, s in ((F, sF), (G, sG)))
    im = (p, [[x % p for x in xs] for xs in (f, g)]) if all(type(x) is int for x in (*f, *g)) else _images([f, g])
    return bool(im and _coprime_images(im[1], im[0]) or sylvester_resultant(BinaryForm(n, F), BinaryForm(n, G)))


def _product_mod(f: list, g: list, p: int) -> list:
    out = [0] * (len(f) + len(g) - 1)
    _accumulate_product(out, f, g)
    return [v % p for v in out]


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd of two binary forms, scaled so its first nonzero coefficient is 1.

    Write F = Y^vf F1 with vf = F.y_valuation().  The subresultant sequence
    (``_prs``) runs on the integral numerators of F1(x, 1) and G1(x, 1),
    lowest degree first; its last nonzero term is the gcd up to a scalar,
    and the common factor Y^min(vf, vg) comes back as leading zero
    coefficients.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero() or g.is_zero():
        return (g if f.is_zero() else f).normalized()
    vf, vg = f.y_valuation(), g.y_valuation()
    (a, _), (b, _), div = _numerators(f.coeffs[vf:], g.coeffs[vg:])
    last, v = _prs(a, b, div)[1][::-1], min(vf, vg)
    t = last[0]  # over Q each x / t is one fraction in lowest terms
    last = [_make(1, (x if t > 0 else -x,), abs(t)) for x in last] if type(t) is int else _normalized(last)
    return BinaryForm(v + len(last) - 1, [_C0] * v + last)


def multiple_zero_locus(j: BinaryForm) -> BinaryForm:
    """Form whose roots are the multiple zeros of j (common zeros of the
    partials; valid in characteristic 0 by the Euler identity)."""
    jx, jy = partial_derivatives(j)
    if jx.is_zero() and jy.is_zero():
        return j.normalized()
    return form_gcd(jx, jy)


def distinct_roots_count(f: BinaryForm) -> int:
    """Number of distinct projective roots of a nonzero form."""
    if f.is_zero():
        raise ValueError("zero form has every point as a root")
    if f.degree == 0:
        return 0
    return f.degree - multiple_zero_locus(f).degree


def distinct_common_roots_count(f: BinaryForm, g: BinaryForm) -> int:
    """Distinct projective roots shared by f and g, those of form_gcd(f, g);
    ``aut._verified_type`` reads them off two coefficients for a diagonal map."""
    return distinct_roots_count(form_gcd(f, g))


class P1Point:
    """Point [x : y] of P^1, normalized to y = 1 or (x, y) = (1, 0)."""

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x, y):
        x, y = _cy(x), _cy(y)
        if y:
            inv = y.inverse()
            x, y = x * inv, _C1
        elif x:
            x, y = _C1, _C0
        else:
            raise ValueError("[0 : 0] is not a point of P^1")
        self.x = x
        self.y = y
        self._hash = None

    @classmethod
    def infinity(cls) -> P1Point:
        return cls(_C1, _C0)

    @classmethod
    def affine(cls, z) -> P1Point:
        return cls(_cy(z), _C1)

    def __eq__(self, other):
        return isinstance(other, P1Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.x, self.y))
        return self._hash

    def minimized(self) -> P1Point:
        p = P1Point.__new__(P1Point)
        p.x, p.y, p._hash = self.x.minimal(), self.y.minimal(), None
        return p

    def __repr__(self):
        return "[inf]" if not self.y else f"[{self.x!r}]"


class Divisor:
    """Finite formal sum of points of P^1 with positive multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[P1Point, int] = {}
        if terms:
            for p, m in dict(terms).items():
                self._add(p, m)

    def _add(self, p: P1Point, mult: int):
        if mult < 0:
            raise ValueError("divisors here are effective")
        if mult:
            self.terms[p] = self.terms.get(p, 0) + mult

    @classmethod
    def of_points(cls, points, mult: int = 1) -> Divisor:
        d = cls()
        for p in points:
            d._add(p, mult)
        return d

    @property
    def degree(self) -> int:
        return sum(self.terms.values())

    def support(self) -> list[P1Point]:
        return list(self.terms.keys())

    def __add__(self, other: Divisor) -> Divisor:
        d = Divisor(self.terms)
        for p, m in other.terms.items():
            d._add(p, m)
        return d

    def __rmul__(self, k: int) -> Divisor:
        return Divisor({p: k * m for p, m in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.terms == other.terms

    def multiplicity(self, p: P1Point) -> int:
        return self.terms.get(p, 0)

    def __repr__(self):
        if not self.terms:
            return "Divisor(0)"
        return " + ".join(
            (f"{m}*{p!r}" if m > 1 else f"{p!r}") for p, m in self.terms.items()
        )


def form_from_divisor(d: Divisor) -> BinaryForm:
    """Product of (y_p X - x_p Y)^mult over the divisor, normalized so the
    first nonzero coefficient is 1; its divisor is exactly d.  Each factor
    is one pass, new[k] = y old[k] - x old[k-1]: y = 1 needs no multiply,
    and the point (1 : 0) gives -Y, a shift."""
    out = [_C1]
    for p, m in d.terms.items():
        x = p.x
        for _ in range(m):
            if p.y:
                out = [a - x * b if x and b else a for a, b in zip(out + [_C0], [_C0] + out)]
            else:
                out = [_C0] + [-a for a in out]
    return BinaryForm(len(out) - 1, out).normalized().minimized()


class RationalMap:
    """A degree-d rational self-map of P^1 given by a form pair [F : G]."""

    __slots__ = ("F", "G")

    def __init__(self, F: BinaryForm, G: BinaryForm):
        if F.degree != G.degree:
            raise DegreeMismatch("F and G must have the same degree")
        if F.degree < 1:
            raise DegreeMismatch("maps here have degree >= 1")
        if F.is_zero() and G.is_zero():
            raise ValueError("the zero pair is not a map")
        self.F = F
        self.G = G

    @property
    def degree(self) -> int:
        return self.F.degree

    def resultant(self) -> Cyclotomic:
        return resultant_pair(self.F, self.G)

    def is_in_ratd(self) -> bool:
        """Res(F, G) != 0, proved on the quotient x -> x^M: F = X^a Y^b f(X^M, Y^M), G = X^a' Y^b' g(X^M, Y^M)
        share a root iff both vanish at [1:0], both at [0:1], or f and g share one (``_in_ratd``)."""
        return _in_ratd(self.F.coeffs, self.G.coeffs)

    def coefficients(self) -> list[Cyclotomic]:
        return list(self.F.coeffs) + list(self.G.coeffs)

    def fixed_point_form(self) -> BinaryForm:
        """Y*F - X*G, the degree d+1 form vanishing at the fixed points."""
        return BinaryForm(self.degree + 1, map(sub, (_C0, *self.F.coeffs), (*self.G.coeffs, _C0)))

    def proportional_to(self, other: RationalMap) -> bool:
        """Exact projective equality of coefficient vectors."""
        v, w = self.coefficients(), other.coefficients()
        return self.degree == other.degree and _proportional(v, w)

    def normalized(self) -> RationalMap:
        v, d = _normalized(self.coefficients()), self.degree
        return RationalMap(BinaryForm(d, v[: d + 1]), BinaryForm(d, v[d + 1 :]))

    def minimized(self) -> RationalMap:
        return RationalMap(self.F.minimized(), self.G.minimized())

    @classmethod
    def from_zpoly(cls, num, den) -> RationalMap:
        """Build from numerator/denominator coefficient lists in z
        (highest degree first), e.g. from_zpoly([1, 0], [0, 1]) is z/1, the identity."""
        d = max(len(num), len(den)) - 1
        num = [0] * (d + 1 - len(num)) + list(num)
        den = [0] * (d + 1 - len(den)) + list(den)
        return cls(BinaryForm(d, num), BinaryForm(d, den))

    def to_json(self) -> dict:
        return {"F": self.F.to_json(), "G": self.G.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> RationalMap:
        return cls(BinaryForm.from_json(obj["F"]), BinaryForm.from_json(obj["G"]))

    def __repr__(self):
        return f"[{self.F!r} : {self.G!r}]"
