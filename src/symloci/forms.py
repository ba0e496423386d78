"""Binary forms in X, Y over the cyclotomics, and divisors on P^1.

A form of degree n is stored as n+1 coefficients, coeffs[i] multiplying
X^(n-i) Y^i.  The zero form carries an explicit declared degree so that
decompositions with a vanishing component stay representable.  Resultants
are Sylvester determinants; gcds go through dehomogenization after the
common Y-power is split off, so no root finding is ever needed.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic, ExactMatrix, Poly

_C0 = Cyclotomic.rational(0)
_C1 = Cyclotomic.rational(1)


class DegreeMismatch(ValueError):
    """Operands do not have the degrees the operation requires."""


def _cy(x) -> Cyclotomic:
    return x if isinstance(x, Cyclotomic) else Cyclotomic.rational(x)


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
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return BinaryForm(n, out)

    __rmul__ = __mul__

    def scale(self, c) -> BinaryForm:
        return self * _cy(c)

    def evaluate(self, x: Cyclotomic, y: Cyclotomic) -> Cyclotomic:
        acc = _C0
        ypow = _C1
        xpows = [_C1]
        for _ in range(self.degree):
            xpows.append(xpows[-1] * x)
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * xpows[self.degree - i] * ypow
            ypow = ypow * y
        return acc

    def normalized(self) -> BinaryForm:
        """Scale so the first nonzero coefficient is 1."""
        for c in self.coeffs:
            if c:
                inv = c.inverse()
                return BinaryForm(self.degree, [a * inv for a in self.coeffs])
        return self

    def minimized(self) -> BinaryForm:
        """Rewrite every coefficient at its minimal conductor."""
        return BinaryForm(self.degree, [c.minimal() for c in self.coeffs])

    def y_valuation(self) -> int:
        """Multiplicity of the factor Y, i.e. of the root [1:0]."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.degree + 1  # zero form: conventionally everything

    def dehomogenize(self) -> Poly:
        """F(x, 1) as a univariate polynomial (low degree first)."""
        return Poly(list(reversed(self.coeffs)))

    @classmethod
    def homogenize(cls, p: Poly, degree: int) -> BinaryForm:
        if p.degree > degree:
            raise DegreeMismatch("polynomial degree exceeds the target form degree")
        coeffs = [_C0] * (degree + 1)
        for j, c in enumerate(p.coeffs):
            coeffs[degree - j] = c
        return cls(degree, coeffs)

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


def _power_table(s: Cyclotomic, t: Cyclotomic, n: int) -> list[list[Cyclotomic]]:
    """Coefficient lists of (sX + tY)^k for k = 0..n."""
    pows = [[_C1]]
    for k in range(1, n + 1):
        prev = pows[-1]
        cur = [_C0] * (k + 1)
        for i, p in enumerate(prev):
            if p:
                cur[i] = cur[i] + p * s
                cur[i + 1] = cur[i + 1] + p * t
        pows.append(cur)
    return pows


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
    with fields a, b, c, d.  The powers (aX+bY)^k and (cX+dY)^k, k = 0..n,
    are built once per call by ``_power_table``, the same table from which
    ``_substitution_columns`` builds the whole substitution matrix.
    """
    a, b, c, d = _matrix_entries(g)
    n = f.degree
    if n == 0:
        return f
    pows1, pows2 = _power_table(a, b, n), _power_table(c, d, n)
    out = [_C0] * (n + 1)
    for i, coef in enumerate(f.coeffs):
        if coef:
            _accumulate_product(out, pows1[n - i], pows2[i], coef)
    return BinaryForm(n, out)


def _substitution_columns(n: int, g) -> list[list[Cyclotomic]]:
    """Matrix of F -> F^g on degree-n forms, by columns: column k is the
    coefficient list of (X^(n-k) Y^k)^g.  One power table serves all n+1
    monomials."""
    a, b, c, d = _matrix_entries(g)
    pows1, pows2 = _power_table(a, b, n), _power_table(c, d, n)
    cols = []
    for k in range(n + 1):
        out = [_C0] * (n + 1)
        _accumulate_product(out, pows1[n - k], pows2[k])
        cols.append(out)
    return cols


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
    """Resultant of binary forms of arbitrary declared degrees m, n via the
    (m+n) x (m+n) Sylvester determinant; multiplicative in each argument."""
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    for shift in range(n):
        row = [_C0] * size
        for j, c in enumerate(f.coeffs):
            row[shift + j] = c
        rows.append(row)
    for shift in range(m):
        row = [_C0] * size
        for j, c in enumerate(g.coeffs):
            row[shift + j] = c
        rows.append(row)
    return ExactMatrix.from_rows(rows).determinant()


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic-normalized gcd of two binary forms."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    vf, vg = f.y_valuation(), g.y_valuation()
    v = min(vf, vg)
    pf, pg = f.dehomogenize(), g.dehomogenize()
    h = pf.gcd(pg)
    out = BinaryForm.homogenize(h, h.degree)
    if v:
        out = out * BinaryForm(v, [_C0] * v + [_C1])  # Y^v
    return out.normalized()


def distinct_roots_count(f: BinaryForm) -> int:
    """Number of distinct projective roots of a nonzero form."""
    if f.is_zero():
        raise ValueError("zero form has every point as a root")
    if f.degree == 0:
        return 0
    fx, fy = partial_derivatives(f)
    if fx.is_zero() and fy.is_zero():
        return 0
    rep = form_gcd(fx, fy) if not fx.is_zero() and not fy.is_zero() else None
    if rep is None:
        rep = (fy if fx.is_zero() else fx).normalized()
        # a vanishing partial only happens for constants, handled above
    return f.degree - rep.degree


def distinct_common_roots_count(f: BinaryForm, g: BinaryForm) -> int:
    """Distinct projective roots shared by f and g."""
    h = form_gcd(f, g)
    if h.degree == 0:
        return 0
    return distinct_roots_count(h)


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

    def complex(self):
        return None if self.is_infinity() else self.x.complex()

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
        if self.degree != other.degree:
            return False
        v, w = self.coefficients(), other.coefficients()
        i = next((k for k, c in enumerate(v) if c), None)
        j = next((k for k, c in enumerate(w) if c), None)
        if i != j:
            return False
        vi, wj = v[i], w[j]
        return all(v[k] * wj == w[k] * vi for k in range(len(v)))

    def normalized(self) -> RationalMap:
        coeffs = self.coefficients()
        lead = next(c for c in coeffs if c)
        inv = lead.inverse()
        return RationalMap(self.F * inv, self.G * inv)

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
