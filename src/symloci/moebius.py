"""Projective linear maps of P^1, finite subgroup machinery, conjugation.

MoebiusMap stores an arbitrary 2x2 representative with nonzero determinant;
equality is projective.  Closure generation finds the group on integers,
as permutations of an orbit of three or more points, and composes the raw
representatives (their determinants stay products of generator
determinants, which keeps exact SL2 lifting available) on first read.  The
standard catalog covers the cyclic, dihedral, tetrahedral, octahedral and
icosahedral rotation groups; the first two are listed in closed form.
"""

from __future__ import annotations

from collections import Counter
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

    def __hash__(self):  # a Cyclotomic hashes as its minimal form
        return hash(tuple(_normalized(self.entries())))

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

    generators, when non-empty, generate elements; aut's generator route relies on this to prove
    every element through the generators.  The group is not mutated after construction, so its
    order census is computed once, on first use, unless the caller knows it already.  elements may
    also be a function that yields them, given the census: the order is then its total, and only a
    read of ``elements`` lists them all.  A closure knows its elements' Cayley indices (``_cayley``).
    """

    __slots__ = ("_elements", "label", "generators", "_census", "_cayley")

    def __init__(self, elements, label="unknown", generators=None, census=None):
        self._elements = elements if callable(elements) else list(elements)
        self.label = label
        self.generators = list(generators) if generators else []
        self._census: dict[int, int] | None = census
        self._cayley: list[int] | None = None

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
            self._census = dict(Counter(e.projective_order() for e in self.elements))
        return dict(self._census)

    def orbit(self, p: P1Point) -> list[P1Point]:
        """G p, minimized, no repeats: p closed under the k generators by BFS
        (k |G p| applications), or with none, the images of p under the
        elements.  ``_coset_orbit`` lists it from a known stabilizer."""
        if not self.generators:
            return list(dict.fromkeys(e.apply(p).minimized() for e in self.elements))
        return _bfs([p.minimized()], [lambda q, g=g: g.apply(q).minimized() for g in self.generators], self.order)[0]

    def __repr__(self):
        return f"FiniteSubgroup({self.label}, order {self.order})"


class _Products:
    """products[y] = products[x] g, or g products[x] if left, for first[y] = (x, g, left), composed
    once, on first read; products[0] is the identity, and an index past the end an IndexError."""

    def __init__(self, first):
        self.first, self.made = first, {0: MoebiusMap.identity()}

    def __getitem__(self, y):
        if y not in self.made:
            x, g, left = self.first[y]
            self.made[y] = g.compose(self[x]) if left else self[x].compose(g)
        return self.made[y]


def _bfs(start: list, moves, cap: int) -> tuple:
    """(items, edges, first): start closed under moves by BFS, items in the order found, edges[x][j]
    the index of moves[j](items[x]), first[y] the first such (x, j); CapExceeded past cap items."""
    items, index, edges, first = list(start), {s: k for k, s in enumerate(start)}, [], [None] * len(start)
    for x, item in enumerate(items):
        edges.append([])
        for j, move in enumerate(moves):
            if (y := index.setdefault(new := move(item), len(items))) == len(items):
                items.append(new)
                first.append((x, j))
                if len(items) > cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
            edges[-1].append(y)
    return items, edges, first


# generator entries -> the tables of _cayley_graph, for the process's life
_CAYLEY: dict[tuple, tuple] = {}


def _cayley_graph(gens, cap: int) -> tuple:
    """(elements, right, rights, lefts, perms, powers) of <gens>, in the order of a BFS of right
    multiplications by gens: elements[x], composed on first read by its first edge (``_Products``);
    right[x][i], the index of elements[x] gens[i]; rights[i][x] / lefts[i][x], of elements[x] g /
    g elements[x] for g the i-th of gens, then their inverses; powers[x], of elements[x]^1, ..., 1.
    A map fixing three points is 1, so the group is found faithfully, with no matrix product, as the
    permutations perms of the orbit of infinity, then of 0 and 1 until there are three points.
    CapExceeded past cap points in an orbit or cap elements, cached or not; cached per gens entries."""
    key = tuple(tuple((v.n, v.nums, v.den) for v in g.entries()) for g in gens)
    if key not in _CAYLEY:
        points, images = [], []
        for seed in (P1Point.infinity(), P1Point.affine(0), P1Point.affine(1)):
            if len(points) < 3 and seed not in points:
                orbit, edges, _ = _bfs([seed], [g.apply for g in gens], cap)
                images += [[len(points) + y for y in row] for row in edges]
                points += orbit
        moves = [lambda h, g=g: tuple(map(h.__getitem__, g)) for g in zip(*images)]  # h g, g applied first
        perms, right, first = _bfs([tuple(range(len(points)))], moves, cap)
        where, powers = {p: x for x, p in enumerate(perms)}, [[x] for x in range(len(perms))]
        for cycle in powers:
            while cycle[-1]:
                cycle.append(where[tuple(map(perms[cycle[-1]].__getitem__, perms[cycle[0]]))])
        rights = list(zip(*right))
        rights += [{y: x for x, y in enumerate(col)} for col in rights]
        lefts = [{0: col[0]} for col in rights]
        for x, row in enumerate(right):
            for i, y in enumerate(row):
                for out in lefts:
                    out.setdefault(y, right[out[x]][i])
        _CAYLEY[key] = _Products([f and (f[0], gens[f[1]], False) for f in first]), right, rights, lefts, perms, powers
    if len(_CAYLEY[key][1]) > cap:
        raise CapExceeded(f"closure exceeded cap {cap}")
    return _CAYLEY[key]


def generate_closure(gens, cap: int = 512, label="unknown") -> FiniteSubgroup:
    """Close a generator list under composition and inverse, up to cap.

    The elements come in the order of a two-sided BFS from the identity:
    each element e, in the order found, tries e g then g e for each
    generator g, then each inverse, and keeps the first product reaching an
    element.  It runs on the indices of the cached Cayley graph
    (``_cayley_graph``), whose cycles of powers give the census, and
    composes the |G| - 1 products it keeps on first read.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = list(gens)
    _, _, rights, lefts, _, powers = _cayley_graph(gens, cap)
    gen_list = gens + [g.inverse() for g in gens]
    queue, _, first = _bfs([0], [table.__getitem__ for pair in zip(rights, lefts) for table in pair], cap)
    products = _Products([f and (f[0], gen_list[f[1] // 2], f[1] % 2) for f in first])  # x g, then g x
    group = FiniteSubgroup(lambda: map(products.__getitem__, range(len(queue))), label, gens,
                           dict(Counter(len(powers[y]) for y in queue)))
    group._cayley = queue
    return group


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
              with entries in Q(zeta_5), of order 60 under the cap 61.

    All know their order and census before their elements, built on first
    read: the platonic groups by ``generate_closure``, the cyclic and
    dihedral ones in closed form, as that closure lists them.  Each (kind, m)
    is built once per process and the same FiniteSubgroup is returned on
    later calls; nothing in the package mutates one.
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
        e1, e2, e3, e4 = (Cyclotomic.zeta(5, k) for k in range(1, 5))
        t = MoebiusMap(e4 - e1, e2 - e3, e2 - e3, e1 - e4)
        return generate_closure([MoebiusMap.scaling(e1), t], cap=61, label="icosa")
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
    sum (1 - 1/|G_p|) = 2 - 2/|G|, as no degenerate orbit is then left.  A
    closure lists each orbit by ``_coset_orbit``, other groups by ``orbit``.
    """
    target, total = 2 - Fraction(2, group.order), Fraction(0)
    covered: set[P1Point] = set()
    orbits: list[tuple[Divisor, int]] = []
    powers = group._cayley and _cayley_graph(group.generators, group.order)[5]
    for e, x in zip(group, group._cayley or [None] * group.order):
        if total == target:
            break
        if e.is_identity():
            continue
        for p in e.fixed_points():
            if (p := p.minimized()) not in covered:
                stab = powers and max((c for c in powers if x in c), key=len)  # Stab(p) (``_coset_orbit``)
                orbit = _coset_orbit(group, p, stab) if stab else group.orbit(p)
                covered.update(orbit)
                orbits.append((Divisor.of_points(orbit), group.order // len(orbit)))
                total += 1 - Fraction(len(orbit), group.order)
    orbits.sort(key=lambda t: (t[0].degree, -t[1]))
    return orbits


def _coset_orbit(group: FiniteSubgroup, p: P1Point, stab: list[int]) -> list[P1Point]:
    """G p as ``FiniteSubgroup.orbit`` lists it, for a closure and the Cayley indices stab of Stab(p), in
    |G p| - 1 applications: h p <-> h Stab(p), so the BFS runs on the cosets.  Point stabilizers of a
    finite group are cyclic, and c != 1 of finite order has the fixed points of its powers other than 1,
    so a fixed point of e has the largest <c> holding e.  |G p| |stab| = |G|, else AssertionError."""
    _, _, _, lefts, perms, _ = _cayley_graph(group.generators, group.order)
    where = {q: y for y, q in enumerate(perms)}
    coset = lambda y: min(where[tuple(map(perms[y].__getitem__, perms[h]))] for h in stab)  # noqa: E731
    moves = [lambda c, left=left: coset(left[c]) for left in lefts[: len(group.generators)]]
    points = [p]
    for x, j in _bfs([coset(0)], moves, group.order)[2][1:]:  # a coset's first edge gives its point
        points.append(group.generators[j].apply(points[x]).minimized())
    if len(set(points)) * len(stab) != group.order:
        raise AssertionError(f"{group.label}: |G p| |Stab(p)| = {len(set(points))} * {len(stab)} is not |G|")
    return points
