"""Binary forms in X, Y over the cyclotomics, and divisors on P^1.

A form of degree n is stored as n+1 coefficients, coeffs[i] multiplying
X^(n-i) Y^i.  The zero form carries an explicit declared degree so that
decompositions with a vanishing component stay representable.  Resultants
take the value of the Sylvester determinant but are computed by the
Euclidean remainder sequence; gcds run Euclid on the coefficient lists
after the common Y-power is split off.  Both share one remainder step, and
no root finding is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import Cyclotomic, _trim

_C0 = Cyclotomic.rational(0)
_C1 = Cyclotomic.rational(1)


class DegreeMismatch(ValueError):
    """Operands do not have the degrees the operation requires."""


def _cy(x) -> Cyclotomic:
    return x if isinstance(x, Cyclotomic) else Cyclotomic.rational(x)


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

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("can only add forms of equal degree")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("can only subtract forms of equal degree")
        return BinaryForm(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm(self.degree, [-a for a in self.coeffs])

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
    """[1, x, x^2, ..., x^top]."""
    out = [_C1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _accumulate_product(out: list, p1: list, p2: list, coef=None):
    # out += coef * p1 * p2, coefficient lists in the X^(n-i) Y^i order
    for u, x in enumerate(p1):
        if x:
            cx = x if coef is None else coef * x
            for v, y in enumerate(p2):
                if y:
                    out[u + v] = out[u + v] + cx * y


def substitute(f: BinaryForm, g) -> BinaryForm:
    """Right substitution action F^g = F(aX+bY, cX+dY).

    g may be a 4-tuple (a, b, c, d), a 2x2 nested sequence, or any object
    with fields a, b, c, d.  Each nonzero coefficient of X^(n-i) Y^i adds
    coef (aX+bY)^(n-i) (cX+dY)^i; only those rows are built, entry by entry
    as comb(k, j) a^(k-j) b^j from the powers of the entries.  A diagonal
    or anti-diagonal g takes O(n) products instead, with the same result.
    """
    a, b, c, d = _matrix_entries(g)
    n = f.degree
    out = [_C0] * (n + 1)
    if (not b and not c) or (not a and not d):
        # coef X^(n-i) Y^i goes to coef s^(n-i) t^i X^(n-i) Y^i, (s, t) =
        # (a, d), or to coef s^(n-i) t^i X^i Y^(n-i), (s, t) = (b, c); a zero
        # product stays the rational 0, as a zero row entry is skipped
        flip = bool(b or c)
        s, t = (b, c) if flip else (a, d)
        spows, tpows = _powers(s, n), _powers(t, n)
        for i, coef in enumerate(f.coeffs):
            st = coef and spows[n - i] * tpows[i]
            if st:
                out[n - i if flip else i] = coef * st
        return BinaryForm(n, out)
    apows, bpows, cpows, dpows = (_powers(x, n) for x in (a, b, c, d))
    for i, coef in enumerate(f.coeffs):
        if coef:
            row1 = [apows[n - i - j] * bpows[j] * comb(n - i, j) for j in range(n - i + 1)]
            row2 = [cpows[i - j] * dpows[j] * comb(i, j) for j in range(i + 1)]
            _accumulate_product(out, row1, row2, coef)
    return BinaryForm(n, out)


def _matrix_entries(g):
    if hasattr(g, "a"):
        return _cy(g.a), _cy(g.b), _cy(g.c), _cy(g.d)
    flat = []
    for row in g:
        if isinstance(row, (list, tuple)):
            flat.extend(row)
        else:
            flat.append(row)
    a, b, c, d = flat
    return _cy(a), _cy(b), _cy(c), _cy(d)


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
    m, n, by the Euclidean recurrence Res(A, B) = (-1)^(ab) lc(B)^(a-r)
    Res(B, A mod B) on A = F(x, 1), B = G(x, 1), r = deg(A mod B).

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
    a, b = _trim(list(f.coeffs[::-1])), _trim(list(g.coeffs[::-1]))
    if not a or not b or (len(a) <= m and len(b) <= n):
        return _C0
    da, db = len(a) - 1, len(b) - 1
    res = a[-1] ** (n - db) * b[-1] ** (m - da)
    if n * (m - da) % 2:
        res = -res
    while db:
        r = _remainder(a, b)
        if not r:
            return _C0
        dr = len(r) - 1
        res = res * b[-1] ** (da - dr)
        if da * db % 2:
            res = -res
        a, b, da, db = b, r, db, dr
    return res * b[0] ** da


def _remainder(a: list, b: list) -> list:
    # a mod b for univariate coefficient lists, lowest degree first, each
    # with a nonzero top coefficient; a is consumed, the result trimmed
    k = len(b) - 1
    if len(a) > k:
        inv = b[-1].inverse()
        for i in range(len(a) - 1 - k, -1, -1):
            c = a[i + k] * inv
            if c:
                for j in range(k):
                    a[i + j] = a[i + j] - c * b[j]
        del a[k:]
        _trim(a)
    return a


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd of two binary forms, scaled so its first nonzero coefficient is 1.

    Write F = Y^vf F1 with vf = F.y_valuation().  Euclid runs on the
    coefficient lists of F1(x, 1) and G1(x, 1), lowest degree first, and
    the common factor Y^min(vf, vg) comes back as leading zero
    coefficients.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    vf, vg = f.y_valuation(), g.y_valuation()
    a, b = list(f.coeffs[vf:])[::-1], list(g.coeffs[vg:])[::-1]
    while b:
        a, b = b, _remainder(a, b)
    v = min(vf, vg)
    return BinaryForm(v + len(a) - 1, [_C0] * v + a[::-1]).normalized()


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
    """Distinct projective roots shared by f and g.  A monomial c X^(n-i) Y^i
    has the roots [0:1] if i < n and [1:0] if i > 0; the other form, even a
    zero one, vanishes there when its last, resp. first, coefficient is 0."""
    for mono, other in ((f, g), (g, f)):
        if sum(map(bool, mono.coeffs)) == 1:
            i = mono.y_valuation()
            return (i < mono.degree and not other.coeffs[-1]) + (i > 0 and not other.coeffs[0])
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

    def is_infinity(self) -> bool:
        return not self.y

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

    def linear_form(self) -> BinaryForm:
        """The degree-1 form y*X - x*Y vanishing exactly at this point."""
        return BinaryForm(1, [self.y, -self.x])

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    @classmethod
    def from_json(cls, obj) -> P1Point:
        return cls(Cyclotomic.from_json(obj["x"]), Cyclotomic.from_json(obj["y"]))

    def __repr__(self):
        return "[inf]" if self.is_infinity() else f"[{self.x!r}]"


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

    def __len__(self):
        return len(self.terms)

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
    first nonzero coefficient is 1; its divisor is exactly d."""
    out = BinaryForm(0, [_C1])
    for p, m in d.terms.items():
        lf = p.linear_form()
        for _ in range(m):
            out = out * lf
    return out.normalized().minimized()


def multiplicity_at(f: BinaryForm, p: P1Point) -> int:
    """Order of vanishing of f at p, by exact trial division."""
    if f.is_zero():
        raise ValueError("zero form vanishes everywhere")
    lf = p.linear_form()
    count = 0
    cur = f
    while cur.degree >= 1:
        quo, ok = _divide_by_linear(cur, lf)
        if not ok:
            break
        cur = quo
        count += 1
    return count


def _divide_by_linear(f: BinaryForm, lf: BinaryForm):
    # divide f by lf = u*X + v*Y exactly; returns (quotient, divides?)
    u, v = lf.coeffs
    n = f.degree
    q = [_C0] * n
    rem = list(f.coeffs)
    if u:
        inv = u.inverse()
        for i in range(n):
            q[i] = rem[i] * inv
            rem[i + 1] = rem[i + 1] - q[i] * v
            rem[i] = _C0
        return BinaryForm(n - 1, q), not rem[n]
    inv = v.inverse()
    for i in range(n, 0, -1):
        q[i - 1] = rem[i] * inv
        rem[i - 1] = rem[i - 1] - q[i - 1] * u
        rem[i] = _C0
    return BinaryForm(n - 1, q), not rem[0]


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
        return bool(self.resultant())

    def coefficients(self) -> list[Cyclotomic]:
        return list(self.F.coeffs) + list(self.G.coeffs)

    def apply(self, p: P1Point) -> P1Point:
        return P1Point(self.F.evaluate(p.x, p.y), self.G.evaluate(p.x, p.y))

    def fixed_point_form(self) -> BinaryForm:
        """Y*F - X*G, the degree d+1 form vanishing at the fixed points."""
        d = self.degree
        yf = BinaryForm(d + 1, [_C0] + list(self.F.coeffs))
        xg = BinaryForm(d + 1, list(self.G.coeffs) + [_C0])
        return yf - xg

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
        (highest degree first), e.g. from_zpoly([1,0],[0,1]) is z/1... z."""
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
