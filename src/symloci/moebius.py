"""Projective linear maps of P^1, finite subgroup machinery, conjugation.

MoebiusMap stores an arbitrary 2x2 representative with nonzero determinant;
equality is projective.  Closure generation keeps the raw composition
representatives (their determinants stay products of generator
determinants, which keeps exact SL2 lifting available), and deduplicates
through a normalized key.  The standard catalog covers the cyclic,
dihedral, tetrahedral, octahedral and icosahedral rotation groups.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import Cyclotomic, euler_phi, _divisors
from .forms import BinaryForm, Divisor, P1Point, RationalMap, substitute

_C0 = Cyclotomic.rational(0)
_C1 = Cyclotomic.rational(1)


class CapExceeded(RuntimeError):
    """Closure generation hit the element cap (group not finite or too big)."""


class UnliftableInField(ValueError):
    """No SL2 lift exists within the cyclotomic tower for this element."""


def _cy(x):
    return x if isinstance(x, Cyclotomic) else Cyclotomic.rational(x)


class MoebiusMap:
    """z -> (az + b)/(cz + d) with ad - bc != 0; equality is projective."""

    __slots__ = ("a", "b", "c", "d", "_key")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (_cy(a), _cy(b), _cy(c), _cy(d))
        self._key = None
        if not self.det():
            raise ValueError("singular matrix does not define a Moebius map")

    @classmethod
    def identity(cls) -> MoebiusMap:
        return cls(1, 0, 0, 1)

    @classmethod
    def scaling(cls, s) -> MoebiusMap:
        return cls(s, 0, 0, 1)

    @classmethod
    def inversion(cls) -> MoebiusMap:
        return cls(0, 1, 1, 0)

    def det(self) -> Cyclotomic:
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: MoebiusMap) -> MoebiusMap:
        """self after other (matrix product self * other)."""
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return MoebiusMap(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> MoebiusMap:
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def apply(self, p: P1Point) -> P1Point:
        return P1Point(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def is_identity(self) -> bool:
        return not self.b and not self.c and self.a == self.d

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        # cross-ratio test, no divisions
        s, o = self.entries(), other.entries()
        i = next(k for k, v in enumerate(s) if v)
        j = next(k for k, v in enumerate(o) if v)
        if i != j:
            return False
        return all(s[k] * o[i] == o[k] * s[i] for k in range(4))

    def key(self):
        """Hashable canonical form: entries divided by the first nonzero one."""
        if self._key is None:
            s = self.entries()
            lead = next(v for v in s if v)
            inv = lead.inverse()
            norm = tuple((v * inv).minimal() for v in s)
            self._key = tuple((e.n, e.c) for e in norm)
        return self._key

    def __hash__(self):
        return hash(self.key())

    def projective_order(self, cap: int = 512) -> int:
        """Order in PGL2; raises CapExceeded past the cap."""
        p = self
        for k in range(1, cap + 1):
            if p.is_identity():
                return k
            p = p.compose(self)
        raise CapExceeded(f"order exceeds {cap}")

    def sl2_lift(self) -> SL2Lift:
        """Scale to determinant 1.

        Works whenever det is a rational multiple of a root of unity (true
        for all catalog subgroups and their compositions); otherwise raises
        UnliftableInField.
        """
        delta = self.det()
        dec = delta.as_ru_times_rational()
        if dec is None:
            raise UnliftableInField(f"determinant {delta!r} has no cyclotomic square root here")
        s = delta.sqrt()
        inv = s.inverse()
        return SL2Lift(self.a * inv, self.b * inv, self.c * inv, self.d * inv)

    def fixed_point_form(self) -> BinaryForm:
        """c X^2 + (d - a) X Y - b Y^2, cutting out Fix(self)."""
        return BinaryForm(2, [self.c, self.d - self.a, -self.b])

    def fixed_points(self) -> list[P1Point]:
        """The fixed points on P^1, exactly.

        Non-identity finite-order maps have two; the quadratic is solved
        through the SL2 lift, whose eigenvalues are roots of unity, so the
        discriminant has an explicit cyclotomic square root.
        """
        if self.is_identity():
            raise ValueError("every point is fixed by the identity")
        a, b, c, d = self.entries()
        if not c:
            if a == d:
                return [P1Point.infinity()]  # parabolic translation
            return [P1Point.infinity(), P1Point(b, d - a)]
        if not b:
            return [P1Point.affine(0), P1Point(a - d, c)]
        g = self.sl2_lift()
        tr = g.a + g.d
        root = _trace_discriminant_sqrt(tr, self.projective_order())
        two_c = g.c + g.c
        z1 = P1Point((g.a - g.d) + root, two_c)
        z2 = P1Point((g.a - g.d) - root, two_c)
        return [z1, z2] if z1 != z2 else [z1]

    def to_json(self) -> dict:
        return {k: getattr(self, k).to_json() for k in ("a", "b", "c", "d")}

    @classmethod
    def from_json(cls, obj: dict) -> MoebiusMap:
        return cls(*(Cyclotomic.from_json(obj[k]) for k in ("a", "b", "c", "d")))

    def __repr__(self):
        return f"Moebius[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"


class SL2Lift(MoebiusMap):
    """A Moebius map whose stored representative has determinant exactly 1."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(a, b, c, d)
        if self.det() != _C1:
            raise ValueError("SL2Lift requires determinant 1")


def _trace_discriminant_sqrt(tr: Cyclotomic, pgl_order: int) -> Cyclotomic:
    # For det-1 finite-order g: tr = xi + 1/xi with xi a root of unity of
    # order dividing 2*pgl_order, so sqrt(tr^2 - 4) = xi - 1/xi.
    for s in (2 * pgl_order, pgl_order):
        for k in range(s):
            xi = Cyclotomic.zeta(s, k)
            xi_inv = Cyclotomic.zeta(s, (s - k) % s)
            if xi + xi_inv == tr:
                return xi - xi_inv
    raise UnliftableInField(f"trace {tr!r} is not a sum of inverse roots of unity")


def conjugate_map(phi: RationalMap, f: MoebiusMap) -> RationalMap:
    """phi^f = f^(-1) . phi . f, as a form pair (projective representative)."""
    g = f.entries()
    Fg = substitute(phi.F, f)
    Gg = substitute(phi.G, f)
    a, b, c, d = g
    return RationalMap(Fg * d - Gg * b, Gg * a - Fg * c)


class FiniteSubgroup:
    """A finite subgroup of PGL2 as an explicit closed element list."""

    __slots__ = ("elements", "label", "generators")

    def __init__(self, elements, label="unknown", generators=None):
        self.elements: list[MoebiusMap] = list(elements)
        self.label = label
        self.generators = list(generators) if generators else []

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def order_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for e in self.elements:
            o = e.projective_order()
            census[o] = census.get(o, 0) + 1
        return census

    def orbit(self, p: P1Point) -> list[P1Point]:
        seen = {}
        for e in self.elements:
            q = e.apply(p).minimized()
            seen.setdefault(q, q)
        return list(seen.values())

    def stabilizer_order(self, p: P1Point) -> int:
        return sum(1 for e in self.elements if e.apply(p) == p)

    def to_json(self) -> dict:
        return {"label": self.label, "elements": [e.to_json() for e in self.elements]}

    @classmethod
    def from_json(cls, obj) -> FiniteSubgroup:
        return cls([MoebiusMap.from_json(e) for e in obj["elements"]], obj.get("label", "unknown"))

    def __repr__(self):
        return f"FiniteSubgroup({self.label}, order {self.order})"


def generate_closure(gens, cap: int = 512, label="unknown") -> FiniteSubgroup:
    """Close a generator list under composition and inverse, up to cap."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ident = MoebiusMap.identity()
    elements: dict = {ident.key(): ident}
    frontier = [ident]
    gen_list = list(gens) + [g.inverse() for g in gens]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gen_list:
                for h in (e.compose(g), g.compose(e)):
                    k = h.key()
                    if k not in elements:
                        if len(elements) >= cap:
                            raise CapExceeded(f"closure exceeded cap {cap}")
                        elements[k] = h
                        new_frontier.append(h)
        frontier = new_frontier
    return FiniteSubgroup(list(elements.values()), label=label, generators=list(gens))


def _zeta_map(m: int) -> MoebiusMap:
    return MoebiusMap.scaling(Cyclotomic.zeta(m)) if m > 1 else MoebiusMap.identity()


def standard_subgroup(kind: str, m: int | None = None) -> FiniteSubgroup:
    """The catalog subgroups, generated exactly:

    cyclic:   <zeta_m z>
    dihedral: <zeta_m z, 1/z>
    tetra:    <-z, i(z+1)/(z-1)>
    octa:     <iz, i(z+1)/(z-1)>
    icosa:    <eps z, T> with eps = zeta_5 and T the symmetric order-2 map
              with entries in Q(zeta_5); validated by closure order 60.

    Each (kind, m) is closed once per process and the same FiniteSubgroup is
    returned on later calls; nothing in the package mutates one.
    """
    return _standard_subgroup(kind.lower(), m)


@lru_cache(maxsize=None)
def _standard_subgroup(kind: str, m: int | None) -> FiniteSubgroup:
    i = Cyclotomic.zeta(4)
    rot3 = MoebiusMap(i, i, 1, -1)  # i(z+1)/(z-1)
    if kind == "cyclic":
        if m is None or m < 1:
            raise ValueError("cyclic needs m >= 1")
        return generate_closure([_zeta_map(m)], cap=m + 1, label=f"cyclic:{m}")
    if kind == "dihedral":
        if m is None or m < 1:
            raise ValueError("dihedral needs m >= 1")
        return generate_closure(
            [_zeta_map(m), MoebiusMap.inversion()], cap=2 * m + 1, label=f"dihedral:{m}"
        )
    if kind == "tetra":
        return generate_closure([MoebiusMap.scaling(-1), rot3], cap=13, label="tetra")
    if kind == "octa":
        return generate_closure([MoebiusMap.scaling(i), rot3], cap=25, label="octa")
    if kind == "icosa":
        eps = Cyclotomic.zeta(5)
        e1, e4 = eps, Cyclotomic.zeta(5, 4)
        e2, e3 = Cyclotomic.zeta(5, 2), Cyclotomic.zeta(5, 3)
        s = MoebiusMap.scaling(eps)
        t = MoebiusMap(-(e1 - e4), e2 - e3, e2 - e3, e1 - e4)
        return generate_closure([s, t], cap=61, label="icosa")
    raise ValueError(f"unknown subgroup kind {kind!r}")


_PLATONIC_CENSUS = {
    "tetra": (12, {1: 1, 2: 3, 3: 8}),
    "octa": (24, {1: 1, 2: 9, 3: 8, 4: 6}),
    "icosa": (60, {1: 1, 2: 15, 3: 20, 5: 24}),
}


def classify_finite_subgroup(group: FiniteSubgroup) -> str:
    """Label from order plus element-order census (determines the family)."""
    return classify_census(group.order, group.order_census())


def classify_census(n: int, census: dict[int, int]) -> str:
    """Label a subgroup of PGL2 from its order and element-order census."""
    if n == 1:
        return "cyclic:1"
    if census.get(n, 0):
        return f"cyclic:{n}"
    for name, (size, pattern) in _PLATONIC_CENSUS.items():
        if n == size and census == pattern:
            return name
    if n % 2 == 0:
        m = n // 2
        expected = {1: 1}
        for dd in _divisors(m):
            if dd > 1:
                expected[dd] = expected.get(dd, 0) + euler_phi(dd)
        expected[2] = expected.get(2, 0) + m  # the m order-2 reflections
        if census == expected:
            return f"dihedral:{m}"
    return "unknown"


def degenerate_orbits(group: FiniteSubgroup) -> list[tuple[Divisor, int]]:
    """All orbits shorter than |G|, as multiplicity-1 divisors with their
    stabilizer orders, sorted by orbit size.

    These are exactly the orbits of fixed points of non-identity elements.
    """
    points: dict[P1Point, P1Point] = {}
    for e in group.elements:
        if e.is_identity():
            continue
        for p in e.fixed_points():
            p = p.minimized()
            points.setdefault(p, p)
    orbits: list[tuple[Divisor, int]] = []
    remaining = dict(points)
    while remaining:
        p = next(iter(remaining))
        orbit = group.orbit(p)
        for q in orbit:
            remaining.pop(q, None)
        stab = group.order // len(orbit)
        orbits.append((Divisor.of_points(orbit), stab))
    orbits.sort(key=lambda t: (t[0].degree, -t[1]))
    return orbits
