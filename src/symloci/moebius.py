"""Projective linear maps of P^1, finite subgroup machinery, conjugation.

MoebiusMap stores an arbitrary 2x2 representative with nonzero determinant;
equality is projective.  Closure generation keeps the raw composition
representatives (their determinants stay products of generator
determinants, which keeps exact SL2 lifting available), and deduplicates
through a normalized key.  The standard catalog covers the cyclic,
dihedral, tetrahedral, octahedral and icosahedral rotation groups; the
first two are listed lazily in closed form, as their closures list them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import acos, pi

from .cyclotomic import Cyclotomic, euler_phi, _divisors
from .forms import BinaryForm, Divisor, P1Point, RationalMap, _cy, _normalized, _proportional, substitute

_C0 = Cyclotomic.rational(0)
_C1 = Cyclotomic.rational(1)


class CapExceeded(RuntimeError):
    """Closure generation hit the element cap (group not finite or too big)."""


class UnliftableInField(ValueError):
    """No SL2 lift exists within the cyclotomic tower for this element."""


class MoebiusMap:
    """z -> (az + b)/(cz + d) with ad - bc != 0; equality is projective."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (_cy(a), _cy(b), _cy(c), _cy(d))
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
        """self after other, the matrix product self * other (invertible: det is not checked)."""
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        prod = object.__new__(MoebiusMap)
        prod.a, prod.b, prod.c, prod.d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return prod

    def inverse(self) -> MoebiusMap:
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def apply(self, p: P1Point) -> P1Point:
        return P1Point(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def is_identity(self) -> bool:
        return not self.b and not self.c and self.a == self.d

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return _proportional(self.entries(), other.entries())

    def key(self):
        """Hashable canonical form: the normalized entries, each minimal."""
        return tuple((e.n, e.nums, e.den) for e in (v.minimal() for v in _normalized(self.entries())))

    def __hash__(self):
        return hash(self.key())

    def projective_order(self, cap: int = 512) -> int:
        """Order in PGL2, the m of the eigenvalue ratio zeta_m^j (``_angle``);
        raises CapExceeded past the cap and for infinite order."""
        q = _angle(self, cap)
        if q is None or (not q and not self.is_identity()):  # 0: the identity, or parabolic
            raise CapExceeded(f"order exceeds {cap}")
        return q.denominator

    def sl2_lift(self) -> SL2Lift:
        """Scale to determinant 1.

        Works whenever det is a rational multiple of a root of unity (true
        for all catalog subgroups and their compositions); otherwise raises
        UnliftableInField.
        """
        delta = self.det()
        try:
            s = delta.sqrt()
        except ValueError as exc:
            msg = f"determinant {delta!r} has no cyclotomic square root here"
            raise UnliftableInField(msg) from exc
        inv = s.inverse()
        return SL2Lift(self.a * inv, self.b * inv, self.c * inv, self.d * inv)

    def fixed_point_form(self) -> BinaryForm:
        """c X^2 + (d - a) X Y - b Y^2, cutting out Fix(self)."""
        return BinaryForm(2, [self.c, self.d - self.a, -self.b])

    def fixed_points(self) -> list[P1Point]:
        """The fixed points on P^1, exactly.

        Non-identity finite-order maps have two; the quadratic is solved through
        the SL2 lift, whose discriminant has the root xi - 1/xi, xi = zeta_2m^j a
        root of the eigenvalue ratio (``_angle``): the lift's eigenvalue is xi or -1/xi.
        """
        if self.is_identity():
            raise ValueError("every point is fixed by the identity")
        a, b, c, d = self.entries()
        if not b or not c:  # triangular: infinity or 0 is fixed, once if a = d (parabolic)
            pts = [P1Point.infinity(), P1Point(b, d - a)] if not c else [P1Point.affine(0), P1Point(a - d, c)]
            return pts[:1] if a == d else pts
        g, q = self.sl2_lift(), _angle(self)
        if not q:
            raise CapExceeded("order exceeds 512")
        root = Cyclotomic.zeta(2 * q.denominator, q.numerator) - Cyclotomic.zeta(2 * q.denominator, -q.numerator)
        two_c = g.c + g.c
        z1 = P1Point((g.a - g.d) + root, two_c)
        z2 = P1Point((g.a - g.d) - root, two_c)
        return [z1, z2] if z1 != z2 else [z1]

    def to_json(self) -> dict:
        return {k: getattr(self, k).to_json() for k in ("a", "b", "c", "d")}

    def __repr__(self):
        return f"Moebius[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"


class SL2Lift(MoebiusMap):
    """A Moebius map whose stored representative has determinant exactly 1."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(a, b, c, d)
        if self.det() != _C1:
            raise ValueError("SL2Lift requires determinant 1")


def _angle(g: MoebiusMap, cap: int = 512) -> Fraction | None:
    """The j/m in [0, 1/2] with zeta_m^j + zeta_m^-j = tr^2/det - 2, so zeta_m^(+-j) is the ratio of
    g's eigenvalues: read off acos by Fraction.limit_denominator(cap), proved with no division by
    (zeta_m^j + zeta_m^-j + 2) det = tr^2.  None when no m <= cap fits; 0 for identity or parabolic g."""
    tr2, det = (g.a + g.d) ** 2, g.det()
    x = (tr2.complex() / det.complex()).real / 2 - 1
    q = Fraction(acos(max(-1.0, min(1.0, x))) / (2 * pi)).limit_denominator(cap)
    m, j = q.denominator, q.numerator
    return q if (Cyclotomic.zeta(m, j) + Cyclotomic.zeta(m, -j) + 2) * det == tr2 else None


def conjugate_map(phi: RationalMap, f: MoebiusMap) -> RationalMap:
    """phi^f = f^(-1) . phi . f, as a form pair (projective representative)."""
    g = f.entries()
    Fg = substitute(phi.F, f)
    Gg = substitute(phi.G, f)
    a, b, c, d = g
    return RationalMap(Fg * d - Gg * b, Gg * a - Fg * c)


class FiniteSubgroup:
    """A finite subgroup of PGL2 as an explicit closed element list.

    generators, when non-empty, generate elements; aut's generator route
    relies on this to prove every element through the generators.  The
    group is not mutated after construction, so its order census is
    computed once, on first use, unless the caller knows it already.
    elements may also be a function that yields them, given the census: the
    order is then its total, and only a read of ``elements`` lists them all.
    """

    __slots__ = ("_elements", "label", "generators", "_census")

    def __init__(self, elements, label="unknown", generators=None, census=None):
        self._elements = elements if callable(elements) else list(elements)
        self.label = label
        self.generators = list(generators) if generators else []
        self._census: dict[int, int] | None = census

    @property
    def elements(self) -> list[MoebiusMap]:
        if callable(self._elements):
            self._elements = list(self._elements())
        return self._elements

    @property
    def order(self) -> int:
        return sum(self._census.values()) if callable(self._elements) else len(self._elements)

    def __iter__(self):
        return self._elements() if callable(self._elements) else iter(self._elements)

    def order_census(self) -> dict[int, int]:
        """{element order: count}; a fresh copy of the cached census."""
        if self._census is None:
            census: dict[int, int] = {}
            for e in self.elements:
                o = e.projective_order()
                census[o] = census.get(o, 0) + 1
            self._census = census
        return dict(self._census)

    def orbit(self, p: P1Point) -> list[P1Point]:
        """G p, minimized, no repeats: p closed under the k generators by BFS
        (k |G p| applications; ``platonic._orbit_forms`` relies on that
        closure), or with none, the images of p under the elements."""
        if not self.generators:
            return list(dict.fromkeys(e.apply(p).minimized() for e in self.elements))
        points = [p.minimized()]
        seen = set(points)
        for q in points:
            for g in self.generators:
                if (r := g.apply(q).minimized()) not in seen:
                    seen.add(r)
                    points.append(r)
        return points

    def __repr__(self):
        return f"FiniteSubgroup({self.label}, order {self.order})"


# generator entries -> the tables of _cayley_graph, for the process's life
_CAYLEY: dict[tuple, tuple] = {}


def _cayley_graph(gens, cap: int) -> tuple:
    """(elements, right, rights, lefts): the identity and then the elements
    in the order a BFS of right multiplications by the generators finds
    them, each stored as that product; right[x][i], the index of elements[x]
    gens[i]; rights[i][x] / lefts[i][x], that of elements[x] g / g elements[x]
    for g the i-th of gens, then their inverses, g elements[x] by the first
    edge into x.  |G| k products and keys for k generators, cached per
    generator entries.  CapExceeded when |G| > cap: a cached graph larger
    than cap is searched again, up to the cap."""
    key = tuple(tuple((v.n, v.nums, v.den) for v in g.entries()) for g in gens)
    if key not in _CAYLEY or len(_CAYLEY[key][0]) > cap:
        elements, right, index = [], [], {}

        def find(h):
            k = index.setdefault(h.key(), len(elements))
            if k == len(elements):
                elements.append(h)
            return k

        find(MoebiusMap.identity())
        for h in elements:
            if len(elements) > cap:
                raise CapExceeded(f"closure exceeded cap {cap}")
            right.append([find(h.compose(g)) for g in gens])
        rights = list(zip(*right))
        rights += [{y: x for x, y in enumerate(col)} for col in rights]
        lefts = [{0: col[0]} for col in rights]
        for x, row in enumerate(right):
            for i, y in enumerate(row):
                for out in lefts:
                    out.setdefault(y, right[out[x]][i])
        _CAYLEY[key] = elements, right, rights, lefts
    return _CAYLEY[key]


def generate_closure(gens, cap: int = 512, label="unknown") -> FiniteSubgroup:
    """Close a generator list under composition and inverse, up to cap.

    The elements come in the order of a two-sided BFS from the identity:
    each element e, in the order found, tries e g then g e for each
    generator g, then each inverse, and keeps the first product reaching an
    element.  It runs on the indices of the cached right Cayley graph
    (``_cayley_graph``), so it composes only the |G| - 1 products it keeps.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = list(gens)
    gen_list = gens + [g.inverse() for g in gens]
    rights, lefts = _cayley_graph(gens, cap)[2:]
    found, queue = {0: MoebiusMap.identity()}, [0]
    for x in queue:
        for g, times_g, g_times in zip(gen_list, rights, lefts):
            for y, a, b in ((times_g[x], found[x], g), (g_times[x], g, found[x])):
                if y not in found:
                    found[y] = a.compose(b)
                    queue.append(y)
    return FiniteSubgroup(list(found.values()), label=label, generators=gens)


def _rotation_group(m: int, dihedral: bool) -> FiniteSubgroup:
    r = MoebiusMap.scaling(Cyclotomic.zeta(m)) if m > 1 else MoebiusMap.identity()
    gens, label = ([r, MoebiusMap.inversion()], f"dihedral:{m}") if dihedral else ([r], f"cyclic:{m}")
    return FiniteSubgroup(lambda: _rotation_elements(r, m, dihedral), label, gens, _rotation_census(m, dihedral))


def _rotation_elements(r: MoebiusMap, m: int, dihedral: bool):
    # generate_closure([r] or [r, J]) without the search, r = zeta_m z and
    # J = 1/z: its level k adds r^k (new while 2k <= m), r^(k-1) J, J r^(k-1)
    # (new while 0 < 2k - 2 < m) and r^-k (new while 2k < m), each as the
    # first product that reaches it, built as it is reached
    up = down = MoebiusMap.identity()
    j, r_inv = MoebiusMap.inversion(), r.inverse()
    yield up
    for k in range(1, m // 2 + 2):
        prev = up  # r^(k-1)
        if 2 * k <= m:
            yield (up := up.compose(r))
        if dihedral:
            yield prev.compose(j)
            if 0 < 2 * k - 2 < m:
                yield j.compose(prev)
        if 2 * k < m:
            yield (down := down.compose(r_inv))


def _rotation_census(m: int, dihedral: bool) -> dict[int, int]:
    # phi(q) rotations of each order q | m, and m reflections of order 2
    census = {q: euler_phi(q) for q in _divisors(m)}
    if dihedral:
        census[2] = census.get(2, 0) + m
    return census


def standard_subgroup(kind: str, m: int | None = None) -> FiniteSubgroup:
    """The catalog subgroups, generated exactly:

    cyclic:   <zeta_m z>
    dihedral: <zeta_m z, 1/z>
    tetra:    <-z, i(z+1)/(z-1)>
    octa:     <iz, i(z+1)/(z-1)>
    icosa:    <eps z, T> with eps = zeta_5 and T the symmetric order-2 map
              with entries in Q(zeta_5); validated by closure order 60.

    The platonic groups are closed by ``generate_closure``; the cyclic and
    dihedral ones are listed in closed form, as that closure lists them, on
    first read, and know their order and census before.  Each (kind, m) is
    built once per process and the same FiniteSubgroup is returned on later
    calls; nothing in the package mutates one.
    """
    return _standard_subgroup(kind.lower(), m)


@lru_cache(maxsize=None)
def _standard_subgroup(kind: str, m: int | None) -> FiniteSubgroup:
    i = Cyclotomic.zeta(4)
    rot3 = MoebiusMap(i, i, 1, -1)  # i(z+1)/(z-1)
    if kind in ("cyclic", "dihedral"):
        if m is None or m < 1:
            raise ValueError(f"{kind} needs m >= 1")
        return _rotation_group(m, kind == "dihedral")
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
    if n % 2 == 0 and census == _rotation_census(n // 2, True):
        return f"dihedral:{n // 2}"
    return "unknown"


def degenerate_orbits(group: FiniteSubgroup) -> list[tuple[Divisor, int]]:
    """All orbits shorter than |G|, as multiplicity-1 divisors with their
    stabilizer orders, sorted by orbit size: the orbits of the fixed points
    of non-identity elements, scanned in element order.  The scan stops once
    the orbits found satisfy Riemann-Hurwitz for P^1 -> P^1/G exactly,
    sum (1 - 1/|G_p|) = 2 - 2/|G|, as no degenerate orbit is then left.
    """
    target, total = 2 - Fraction(2, group.order), Fraction(0)
    covered: set[P1Point] = set()
    orbits: list[tuple[Divisor, int]] = []
    for e in group.elements:
        if total == target:
            break
        if e.is_identity():
            continue
        for p in e.fixed_points():
            if (p := p.minimized()) not in covered:
                orbit = group.orbit(p)
                covered.update(orbit)
                orbits.append((Divisor.of_points(orbit), group.order // len(orbit)))
                total += 1 - Fraction(len(orbit), group.order)
    orbits.sort(key=lambda t: (t[0].degree, -t[1]))
    return orbits
