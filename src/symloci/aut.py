"""Automorphism testing for rational maps: exact verification plus a
numeric discovery mode.

Candidates are verified exactly (coefficient proportionality after
conjugation, by every element in verify_group_action; a whole group through
its generators, a monomial one such as zeta_m z or 1/z by its coefficient
weights instead); discovery is numeric, in plain Python floats.  Automorphisms
permute the periodic points and fix their conformal barycentre, so once an
exact integer change of coordinates has brought it near the centre of the
sphere they are rotations: discovery matches the balanced points by their
distances and keeps a rotation that permutes them and commutes with the map
at probe points.
"""

from __future__ import annotations

import cmath
import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, hypot

from . import forms
from .cyclotomic import Cyclotomic
from .forms import BinaryForm, RationalMap, distinct_common_roots_count
from .moebius import FiniteSubgroup, MoebiusMap, classify_census, conjugate_map


class NotAnAutomorphism(ValueError):
    """Type requested for a map/Moebius pair that is not an automorphism."""


class DegenerateConfiguration(RuntimeError):
    """Fewer than three distinct periodic points found through period 2."""


def is_automorphism(phi: RationalMap, sigma: MoebiusMap) -> bool:
    """Exact test: does conjugating phi by sigma reproduce phi projectively?"""
    return conjugate_map(phi, sigma).proportional_to(phi)


def _fixes(phi, sigma: MoebiusMap) -> bool:
    """is_automorphism(phi, sigma), with no conjugation for a monomial sigma,
    for which phi may also be its coefficient lists (F, G), ints or cyclotomics.
    diag(a, d) scales F_i by a^(n-i) d^(i+1) = a^(n+1) r^(i+1) and G_i by
    a^(n+1) r^i, r = d/a: the weights agree on the support of phi exactly
    when r^g = 1, g the gcd of the differences of the exponents of r, so when
    the order of a/d (``ru_order``) divides g, or g = 0 if there is none.
    [[0, b], [c, 0]] gives (-b G(bY, cX), -c F(bY, cX)), coefficient k of
    G(bY, cX) being G_(n-k) b^k c^(n-k): O(n) products, on Python ints when
    b, c and phi are rational integers (1/z: (-G, -F) reversed proportional
    to (F, G))."""
    a, b, c, d = sigma.entries()
    F, G = (phi.F.coeffs, phi.G.coeffs) if isinstance(phi, RationalMap) else phi
    if not b and not c:
        exps = [i + 1 for i, x in enumerate(F) if x] + [i for i, x in enumerate(G) if x]
        g, order = gcd(*(e - exps[0] for e in exps)), (a if d == 1 else a / d).ru_order()
        return not (g % order if order else g)
    if not a and not d:
        n = len(F) - 1
        if all(type(x) is int or x.n == x.den == 1 for x in (b, c, *F, *G)):
            b, c, F, G = b.nums[0], c.nums[0], *([x if type(x) is int else x.nums[0] for x in xs] for xs in (F, G))
        bpows, cpows = forms._powers(b, n + 1), forms._powers(c, n + 1)
        fs = [x and -x * bpows[k + 1] * cpows[n - k] for k, x in enumerate(G[::-1])]
        gs = [x and -x * bpows[k] * cpows[n - k + 1] for k, x in enumerate(F[::-1])]
        return forms._proportional(fs + gs, F + G)
    return is_automorphism(phi, sigma)


def automorphism_type(phi: RationalMap, sigma: MoebiusMap) -> int:
    """Type t in {-1, 0, 1}: one less than the number of distinct common
    fixed points of phi and sigma."""
    if not is_automorphism(phi, sigma):
        raise NotAnAutomorphism("sigma does not stabilize phi")
    return _verified_type(phi, sigma)


def _verified_type(phi, sigma: MoebiusMap) -> int:
    """automorphism_type for a sigma already verified as an automorphism of phi, no conjugation.
    A diagonal sigma fixes just 0 and infinity, where Y F - X G is F_d and -G_0: its type is read
    from those coefficients, also of lists (F, G).  Others take ``distinct_common_roots_count``."""
    if sigma.is_identity():
        raise NotAnAutomorphism("type is defined for non-trivial automorphisms")
    if not sigma.b and not sigma.c:
        F, G = (phi.F.coeffs, phi.G.coeffs) if isinstance(phi, RationalMap) else phi
        return (not F[-1]) + (not G[0]) - 1
    return distinct_common_roots_count(phi.fixed_point_form(), sigma.fixed_point_form()) - 1


class AutReport(namedtuple("AutReport", "verified_elements numeric_order census classified failed")):
    """Verification/discovery outcome for one map.

    From a group verification, verified_elements lists the group's
    elements in their stored order.  verify_group_action conjugates by
    each of them; the route that construct and check take proves them
    through the generators (phi^(gh) = (phi^g)^h) when every generator
    passes.  Each report gets its own empty list and census by default.
    """

    __slots__ = ()

    def __new__(cls, verified_elements=None, numeric_order=None, census=None, classified="unknown", failed=None):
        verified_elements = [] if verified_elements is None else verified_elements
        census = {} if census is None else census
        return tuple.__new__(cls, (verified_elements, numeric_order, census, classified, failed))

    @property
    def all_verified(self) -> bool:
        return self.failed is None

    def to_json(self) -> dict:
        return {
            "verified_elements": [e.to_json() for e in self.verified_elements],
            "numeric_order": self.numeric_order,
            "census": {str(k): v for k, v in sorted(self.census.items())},
            "classified": self.classified,
            "failed": self.failed.to_json() if self.failed else None,
        }


def verify_group_action(phi: RationalMap, group: FiniteSubgroup) -> AutReport:
    """Run the exact automorphism test on every element of the group.

    Stops at the first failure, which is recorded in the report.  This is
    the exhaustive check, one conjugation per element; callers that need
    only the verdict and the certificate prove the elements through the
    generators instead (``_verify_through_generators``).
    """
    verified = []
    census: dict[int, int] = {}
    for e in group:  # a lazily listed group builds no element past the first failure
        if not is_automorphism(phi, e):
            return AutReport(verified, census=census, failed=e)
        verified.append(e)
        o = e.projective_order()
        census[o] = census.get(o, 0) + 1
    return AutReport(verified, census=census, classified=classify_census(len(verified), census))


def _verify_through_generators(phi: RationalMap, group: FiniteSubgroup) -> AutReport:
    """The report of verify_group_action, with every element proved
    through the generators.

    Conjugation is a right action, phi^(gh) = (phi^g)^h, so phi is fixed by
    every element of the closure once it is fixed by each generator: only
    the generators are tested (``_fixes``: a monomial one by its weights),
    and on success every element is reported as verified, in stored order.
    construct and check take this route for their certificates; the member
    search of the cyclic and dihedral loci needs only the verdict and calls
    ``_fixes`` on the generators itself.
    A group without generators, or a generator that fails, falls back to
    verify_group_action's element scan, which conjugates by each element,
    so a failure reports the same first failing element.
    """
    if group.generators and all(_fixes(phi, g) for g in group.generators):
        census = group.order_census()
        return AutReport(list(group.elements), census=census, classified=classify_census(group.order, census))
    return verify_group_action(phi, group)


# numeric discovery: a point of P^1 is a unit vector (x, y) of C^2, z = x/y,
# a matrix a tuple (a, b, c, d), a point of the sphere a unit vector of R^3


def _unit(x: complex, y: complex) -> tuple[complex, complex]:
    s = hypot(abs(x), abs(y))
    return x / s, y / s


def _apply(m, p) -> tuple[complex, complex]:
    return _unit(m[0] * p[0] + m[1] * p[1], m[2] * p[0] + m[3] * p[1])


def _mul(m, n):
    return m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3], m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3]


def _sphere(p) -> tuple[float, float, float]:  # 0 at the south pole
    w = p[0] * p[1].conjugate()
    return 2 * w.real, 2 * w.imag, abs(p[0]) ** 2 - abs(p[1]) ** 2


def _cross(p, q):
    return p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]


def _floats(coeffs) -> list[complex]:  # scaled by one power of 2 if the largest would overflow
    top = max((max(abs(v).bit_length() for v in c.nums) - c.den.bit_length() for c in coeffs if c), default=0)
    scale = Cyclotomic.rational(Fraction(1, 1 << top)) if top > 500 else None
    return [(c * scale if scale else c).complex() for c in coeffs]


def _roots(form: BinaryForm, starts=None, rel: float = 1e-3, cap: int = 100) -> tuple[list, bool]:
    """The roots of a form with multiplicity, and whether they converged:
    exact leading zeros are infinity, trailing ones 0, the others are from
    Aberth-Ehrlich sweeps (Math. Comp. 27, 1973) from a circle or from starts (one
    per root, so also for 0 and infinity), each moving only the roots whose last
    correction was above rel |z| (Bini, Numer. Algorithms 13, 1996)."""
    c = form.coeffs
    if not any(c):
        return [], True
    lead, trail = (next(i for i, x in enumerate(seq) if x) for seq in (c, c[::-1]))
    poly = _floats(c[lead : len(c) - trail])
    n, rev = len(poly) - 1, poly[::-1]
    if starts is None:
        zs = [abs(poly[-1] / poly[0]) ** (1 / n) * cmath.exp(1j * (0.4 + 2 * cmath.pi * k / n)) for k in range(n)]
    else:
        starts = sorted(starts, key=lambda p: abs(p[0]) / (abs(p[1]) or 1e-300))[trail : trail + n]
        zs = [(p[0] / p[1] if p[1] else 1e300) or 1e-300 for p in starts]
    moving = list(range(n))
    for _ in range(cap):
        for i in moving[:]:
            z = zs[i]
            t, p, dp, s = z if abs(z) <= 1 else 1 / z, 0j, 0j, 0
            for x in poly if t is z else rev:
                dp, p = dp * t + p, p * t + x
            den = dp if t is z else n * p - t * dp  # for |z| > 1 p/p' is z q / (n q - t q'), q(t) = t^n p(1/t)
            w = (p if t is z else z * p) / den if den else 0j
            for y in zs:
                if y != z:
                    s += 1 / (z - y)
            s *= w
            zs[i] = z - (w / (1 - s) if s != 1 else w)
            if abs(zs[i] - z) <= rel * abs(z):
                moving.remove(i)
        if not moving:
            break
    return [(1 + 0j, 0j)] * lead + [(0j, 1 + 0j)] * trail + [_unit(z, 1) for z in zs], not moving


def _distinct(points, tol: float) -> list:  # without those within tol of an earlier one
    out: dict = {}
    for p in points:
        v = _sphere(p)
        if all((v[0] - w[0]) ** 2 + (v[1] - w[1]) ** 2 + (v[2] - w[2]) ** 2 > tol * tol for w in out.values()):
            out[p] = v
    return list(out)


def _balancing(points) -> tuple:
    """T moving the points' mean on the sphere to the centre, and the moved
    points: their conformal barycentre (Douady-Earle, Acta Math. 157, 1986)
    is then the centre, so their automorphisms are rotations.  Newton steps:
    a boost s e moves the mean m by s (I - M) e, M the second moment.
    Clustered points make I - M nearly singular and the step unbounded, so
    it is capped at s = 709, e^s near the largest float: no larger boost is
    needed to spread points that floats tell apart."""
    t, vs = (1, 0, 0, 1), [_sphere(p) for p in points]
    size = lambda vs: sum(sum(v[i] for v in vs) ** 2 for i in range(3))  # noqa: E731
    while size(vs) >= 1e-24 * len(vs) ** 2:  # |m| >= 1e-12
        rows = [[(i == j) - sum(v[i] * v[j] for v in vs) / len(vs) for j in range(3)] for i in range(3)]
        cols = [_cross(rows[1], rows[2]), _cross(rows[2], rows[0]), _cross(rows[0], rows[1])]
        w = [sum(sum(v[i] for v in vs) * cols[i][j] for i in range(3)) for j in range(3)]  # n det (I - M)^-1 m
        r = sum(x * x for x in w) ** 0.5
        x, y, h = (e / r for e in w)  # (u : v) is at w / r; S = [[v, -u], [u*, v*]] takes it to 0
        u, v = _unit(1 + h, complex(x, -y)) if h > 0 else _unit(complex(x, y), 1 - h)
        rot, back = (v, -u, u.conjugate(), v.conjugate()), (v.conjugate(), u, -u.conjugate(), v)
        step = min(r / abs(len(vs) * sum(x * y for x, y in zip(rows[0], cols[0]))), 709.0)
        for s in (step / 2**k for k in range(40)):
            mu = cmath.exp(s / 2).real
            b = _mul(back, _mul((mu, 0, 0, 1 / mu), rot))
            moved = [_apply(b, p) for p in points]
            moved_vs = [_sphere(p) for p in moved]
            if size(moved_vs) < size(vs):
                break
        points, vs, t = moved, moved_vs, _mul(b, t)
    return t, vs


def _periodic_form(phi: RationalMap, period: int) -> BinaryForm:  # fixed points of phi or phi o phi
    if period == 2:
        d, F, G = phi.degree, phi.F, phi.G
        pw = [reduce(BinaryForm.__mul__, [F] * (d - i) + [G] * i) for i in range(d + 1)]  # F^(d-i) G^i
        pair = [sum((t * c for t, c in zip(pw, h.coeffs) if c), BinaryForm.zero(d * d)) for h in (F, G)]
        if all(h.is_zero() for h in pair):  # phi o phi is no map, e.g. for [XY : 0]
            raise DegenerateConfiguration("phi o phi is the zero pair")
        phi = RationalMap(*pair)
    return phi.fixed_point_form()


def _evaluate(pair, p) -> tuple[complex, complex]:  # phi(p) from F's and G's coefficients, Horner in x/y or y/x
    (fc, gc), (x, y) = pair, p
    t, fc, gc = (y / x, fc[::-1], gc[::-1]) if abs(x) > abs(y) else (x / y, fc, gc)
    f = g = 0j
    for a, b in zip(fc, gc):
        f, g = f * t + a, g * t + b
    return _unit(f, g)


def _to_01inf(p1, p2, p3):
    alpha, beta = p3[1] * p2[0] - p3[0] * p2[1], p1[1] * p2[0] - p1[0] * p2[1]
    return alpha * p1[1], -alpha * p1[0], beta * p3[1], -beta * p3[0]


def _rotations(vs, tol: float, known=()):
    """The permutations of vs by rotations (within tol), with indices (a, b, c):
    the images (i, j) of a = 0 and b, closest to orthogonal to it, keep
    their dot product and fix the rotation; c, farthest off their great circle,
    is matched first.  (i, j) is skipped if a permutation in known, which may grow
    between yields, maps (a, b) to it: the rotation, so the permutation, is the same."""
    n, tol2 = len(vs), tol * tol
    dot = [[p[0] * q[0] + p[1] * q[1] + p[2] * q[2] for q in vs] for p in vs]
    a, b = 0, min(range(1, n), key=lambda j: abs(dot[0][j]))

    def frame(i, j):
        e2 = [w - dot[i][j] * e for w, e in zip(vs[j], vs[i])]
        e2 = [x / sum(y * y for y in e2) ** 0.5 for x in e2]
        return vs[i], e2, _cross(vs[i], e2)

    coords = [[sum(x * y for x, y in zip(e, v)) for e in frame(a, b)] for v in vs]
    c = max((k for k in range(n) if k not in (a, b)), key=lambda k: abs(coords[k][2]))
    xs, pts = zip(*sorted((v[0], (k, *v)) for k, v in enumerate(vs)))
    for i, j in itertools.permutations(range(n), 2):
        if abs(dot[i][j] - dot[a][b]) <= tol and not any(x[a] == i and x[b] == j for x in known):
            (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = zip(*frame(i, j))
            perm = []
            for u, v, t in [coords[c], *coords]:
                w0, w1, w2 = x0 * u + y0 * v + z0 * t, x1 * u + y1 * v + z1 * t, x2 * u + y2 * v + z2 * t
                near = pts[bisect_left(xs, w0 - tol) : bisect_right(xs, w0 + tol)]
                hits = [h for h, x, y, z in near if (w0 - x) ** 2 + (w1 - y) ** 2 + (w2 - z) ** 2 <= tol2]
                if len(hits) != 1:
                    break
                perm.append(hits[0])
            else:
                if len(set(perm)) == n:
                    yield tuple(perm[1:]), (a, b, c)


_PROBES = [_unit(z, 1) for z in (0.53 + 0.31j, -0.71 + 0.62j, 0.17 - 0.94j, 1.63 + 0.42j)]  # generic points


def discover_automorphisms(phi: RationalMap, tolerance: float = 1e-8) -> AutReport:
    """Numeric search for Aut(phi) as rotations of its balanced periodic points.

    The points (fixed, or of period <= 2 if fewer than 3 fixed points are
    distinct) are balanced roughly (1e-3) by T; phi is conjugated exactly
    by an integer A near T^(-1) unless T is within 1e-2 of the identity,
    again while the rough roots do not converge.  The accurate roots,
    distinct within tol = tolerance^(1/2) (>= 3.2e-5), are balanced in
    floats; a rotation permuting them is kept if its Moebius map commutes
    with phi at four probe points within tol, as a generator of the group
    closed on the permutations (faithful on >= 3 points, so the closure is
    every candidate that passes), and a candidate whose images of a and b
    an element has is not built.  No exactness is claimed.
    """
    if phi.degree < 2:
        raise ValueError("discovery expects degree >= 2")
    if not 0 < tolerance < float("inf"):
        raise ValueError(f"tolerance must be finite and > 0, not {tolerance}")
    tol, period = max(tolerance, 1e-9) ** 0.5, 1
    for _ in range(5):  # the period-2 switch, then at most four conjugations
        rough, converged = _roots(_periodic_form(phi, period))
        distinct = _distinct(rough, 1e-2)
        if len(distinct) < 3 and period == 1:
            period = 2
            continue
        if len(distinct) < 3:
            raise DegenerateConfiguration("fewer than 3 periodic points through period 2")
        a, b, c, d = t = _balancing(distinct)[0]
        g = [complex(round(x.real), round(x.imag)) for x in (16 * e / max(t, key=abs) for e in (d, -b, -c, a))]
        if max(abs(b), abs(c), abs(a - d)) < 1e-2 * max(abs(a), abs(d)) or g[0] * g[3] == g[1] * g[2]:
            break
        A = MoebiusMap(*(int(x.real) + Cyclotomic.zeta(4) * int(x.imag) if x.imag else int(x.real) for x in g))
        phi = conjugate_map(phi, A)  # A is T^(-1) in Z[i] to 1/32 of its largest entry
        rough = [_apply([x.complex() for x in A.inverse().entries()], p) for p in rough]
        if converged:
            break
    points = _distinct(_roots(_periodic_form(phi, period), rough, 1e-14, 50)[0], tol)
    if len(points) < 3:
        raise DegenerateConfiguration("fewer than 3 periodic points through period 2")
    coeffs = _floats(phi.coefficients())
    pair = coeffs[: phi.degree + 1], coeffs[phi.degree + 1 :]
    probes = [(p, _evaluate(pair, p)) for p in _PROBES]
    identity = tuple(range(len(points)))
    gens, group, census = [], {identity}, {}
    for perm, base in _rotations(_balancing(points)[1], tol, group):
        src, dst = _to_01inf(*(points[k] for k in base)), _to_01inf(*(points[perm[k]] for k in base))
        m = _mul((dst[3], -dst[1], -dst[2], dst[0]), src)  # the Moebius map of the permutation
        images = ((_apply(m, q), _evaluate(pair, _apply(m, p))) for p, q in probes)
        if all(abs(u[0] * w[1] - u[1] * w[0]) <= tol for u, w in images):
            gens.append(perm)
            layer = set(group)
            while layer:  # in place: _rotations skips what group covers
                layer = {tuple(map(x.__getitem__, g)) for x in layer for g in gens} - group
                group |= layer
    for perm in group:
        k, power = 1, perm
        while power != identity:
            k, power = k + 1, tuple(map(perm.__getitem__, power))
        census[k] = census.get(k, 0) + 1
    return AutReport(numeric_order=len(group), census=census, classified=classify_census(len(group), census))
