"""Automorphism testing for rational maps: exact verification plus a
numeric discovery mode.

Exact computation of the full automorphism group of an arbitrary map would
require factoring its fixed-point form, so the split here is: candidates
are verified exactly (coefficient proportionality after conjugation, by
every element in verify_group_action; a whole group through its
generators, a monomial one such as zeta_m z or 1/z by its coefficient
weights instead), and candidate discovery is numeric (automorphisms
permute the periodic points, so every automorphism shows up as the Moebius
map through a triple of them; a candidate must permute the periodic
points before it is tested on the coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import forms
from .forms import RationalMap, distinct_common_roots_count
from .moebius import FiniteSubgroup, MoebiusMap, classify_census, conjugate_map


class NotAnAutomorphism(ValueError):
    """Type requested for a map/Moebius pair that is not an automorphism."""


class DegenerateConfiguration(RuntimeError):
    """Fewer than three distinct periodic points found through period 2."""


def is_automorphism(phi: RationalMap, sigma: MoebiusMap) -> bool:
    """Exact test: does conjugating phi by sigma reproduce phi projectively?"""
    return conjugate_map(phi, sigma).proportional_to(phi)


def _fixes(phi: RationalMap, sigma: MoebiusMap) -> bool:
    """is_automorphism(phi, sigma), with no conjugation for a monomial sigma.
    diag(a, d) scales F_i by a^(n-i) d^(i+1) = a^(n+1) r^(i+1) and G_i by
    a^(n+1) r^i, r = d/a: the weights agree on the support of phi exactly
    when a^g = d^g, g the gcd of the differences of the exponents of r.
    [[0, b], [c, 0]] gives (-b G(bY, cX), -c F(bY, cX)), coefficient k of
    G(bY, cX) being G_(n-k) b^k c^(n-k): O(n) products."""
    a, b, c, d = sigma.entries()
    F, G, n = phi.F.coeffs, phi.G.coeffs, phi.degree
    if not b and not c:
        exps = [i + 1 for i, x in enumerate(F) if x] + [i for i, x in enumerate(G) if x]
        g = gcd(*(e - exps[0] for e in exps))
        return a**g == d**g
    if not a and not d:
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


def _verified_type(phi: RationalMap, sigma: MoebiusMap) -> int:
    """automorphism_type for a sigma already verified as an automorphism
    of phi: the fixed-point count alone, no conjugation."""
    if sigma.is_identity():
        raise NotAnAutomorphism("type is defined for non-trivial automorphisms")
    return distinct_common_roots_count(phi.fixed_point_form(), sigma.fixed_point_form()) - 1


@dataclass
class AutReport:
    """Verification/discovery outcome for one map.

    From a group verification, verified_elements lists the group's
    elements in their stored order.  verify_group_action conjugates by
    each of them; the route that construct, check and the dihedral loci
    take proves them through the generators (phi^(gh) = (phi^g)^h) when
    every generator passes.
    """

    verified_elements: list[MoebiusMap] = field(default_factory=list)
    numeric_order: int | None = None
    census: dict[int, int] = field(default_factory=dict)
    classified: str = "unknown"
    failed: MoebiusMap | None = None

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
    for e in group.elements:
        if not is_automorphism(phi, e):
            return AutReport(
                verified_elements=verified, census=census, classified="unknown", failed=e
            )
        verified.append(e)
        o = e.projective_order()
        census[o] = census.get(o, 0) + 1
    return AutReport(
        verified_elements=verified,
        census=census,
        classified=classify_census(len(verified), census),
    )


def _verify_through_generators(phi: RationalMap, group: FiniteSubgroup) -> AutReport:
    """The report of verify_group_action, with every element proved
    through the generators.

    Conjugation is a right action, phi^(gh) = (phi^g)^h, so phi is fixed by
    every element of the closure once it is fixed by each generator: only
    the generators are tested (``_fixes``: a monomial one by its weights),
    and on success every element is reported as verified, in stored order.
    A group without generators, or a generator that fails, falls back to
    verify_group_action's element scan, which conjugates by each element,
    so a failure reports the same first failing element.
    """
    if group.generators and all(_fixes(phi, g) for g in group.generators):
        census = group.order_census()
        return AutReport(
            verified_elements=list(group.elements),
            census=census,
            classified=classify_census(group.order, census),
        )
    return verify_group_action(phi, group)


# ---------------------------------------------------------------------------
# numeric discovery
# ---------------------------------------------------------------------------


def _complex_coeffs(form) -> np.ndarray:
    return np.array([c.complex() for c in form.coeffs], dtype=complex)


def _roots_of_form(coeffs: np.ndarray, exact_lead_zeros: int) -> list[complex | None]:
    """Projective roots of a binary form given by X-descending coefficients.

    None stands for the point at infinity; exact_lead_zeros leading
    coefficients are known to vanish exactly.
    """
    pts: list[complex | None] = [None] * exact_lead_zeros
    poly = coeffs[exact_lead_zeros:]
    if len(poly) > 1:
        pts.extend(np.roots(poly))
    return pts


def _cluster(points, tol: float):
    out: list[complex | None] = []
    for p in points:
        if p is None:
            if None not in out:
                out.append(None)
            continue
        if not any(q is not None and abs(p - q) <= tol for q in out):
            out.append(p)
    return out


def _homog(p: complex | None) -> tuple[complex, complex]:
    return (1 + 0j, 0j) if p is None else (p, 1 + 0j)


def _to_01inf(triple) -> np.ndarray:
    """The numeric Moebius matrix sending the triple to (0, 1, inf)."""
    (x1, y1), (x2, y2), (x3, y3) = (_homog(p) for p in triple)
    alpha = y3 * x2 - x3 * y2
    beta = y1 * x2 - x1 * y2
    return np.array([[alpha * y1, -alpha * x1], [beta * y3, -beta * x3]], dtype=complex)


def _mobius_through(src, dst) -> np.ndarray:
    """The numeric Moebius matrix sending the src triple to the dst triple."""
    m_src = _to_01inf(src)
    m_dst = _to_01inf(dst)
    inv = np.array([[m_dst[1, 1], -m_dst[0, 1]], [-m_dst[1, 0], m_dst[0, 0]]], dtype=complex)
    return inv @ m_src


def _permuting_triples(points, tol: float):
    """The ordered triples of distinct points, in nested-loop order, whose
    Moebius map from points[:3] sends every point within chordal distance
    tol of one of the points: an automorphism permutes the periodic
    points.  Works on the (q2, q3) pairs of one q1 at a time and tests
    points[3], points[4], ... only on the candidates still alive."""
    hp = np.array([_homog(p) for p in points])
    hp /= np.linalg.norm(hp, axis=1, keepdims=True)
    n = len(hp)
    src = _to_01inf(points[:3])
    pairs = np.array([(j, k) for j in range(n) for k in range(n) if j != k])
    for q1 in range(n):
        i2, i3 = pairs[(pairs != q1).all(axis=1)].T
        (x1, y1), (x2, y2), (x3, y3) = hp[q1], hp[i2].T, hp[i3].T
        alpha, beta = y3 * x2 - x3 * y2, y1 * x2 - x1 * y2
        # the adjugate of _to_01inf((q1, q2, q3)), batched over the pairs
        m = np.moveaxis(np.array([[-beta * x3, alpha * x1], [-beta * y3, alpha * y1]]), -1, 0) @ src
        alive = np.arange(len(i2))
        for k in range(3, n):
            w = m[alive] @ hp[k]
            cross = np.abs(np.outer(w[:, 0], hp[:, 1]) - np.outer(w[:, 1], hp[:, 0]))
            alive = alive[cross.min(axis=1) <= tol * np.linalg.norm(w, axis=1)]
        for a in alive:
            yield points[q1], points[i2[a]], points[i3[a]]


def _conjugate_complex(fc: np.ndarray, gc: np.ndarray, m: np.ndarray):
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    fs, gs = _subst_complex(np.array([a, b]), np.array([c, d]), (fc, gc))
    return d * fs - b * gs, a * gs - c * fs


def _proportional(v: np.ndarray, w: np.ndarray, tol: float) -> bool:
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0 or nw == 0:
        return False
    s = np.vdot(v, w) / (nv * nv)
    return bool(np.linalg.norm(s * v - w) <= tol * nw)


def _numeric_order(m: np.ndarray, tol: float, cap: int = 512) -> int | None:
    """Projective order, None above cap: 1 only for a scalar matrix, else
    the least k with k * arg(l1/l2) / 2pi within tol of an integer, l1, l2
    the eigenvalues, |l1/l2| within tol of 1 (a ratio of 1 is parabolic)."""
    scale = max(abs(m[0, 0]), abs(m[1, 1]), 1e-30)
    if max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1])) <= tol * scale:
        return 1
    l1, l2 = np.linalg.eigvals(m)
    if abs(abs(l1 / l2) - 1) > tol:
        return None
    turns = np.arange(1, cap + 1) * (np.angle(l1 / l2) / (2 * np.pi))
    hits = np.flatnonzero(np.abs(turns - np.round(turns)) <= tol)
    return int(hits[0]) + 1 if hits.size and hits[0] else None


def discover_automorphisms(phi: RationalMap, tolerance: float = 1e-8) -> AutReport:
    """Numeric search for Aut(phi) via triples of periodic points.

    Fixed points are computed as roots of the fixed-point form; if fewer
    than three are distinct, period-2 points are added.  A candidate
    Moebius map through a triple must first permute the periodic points
    (within the clustering radius); only the survivors are tested by
    conjugating phi numerically.  No exactness is claimed for the result.

    The report describes the elements found: ``numeric_order`` counts them,
    and ``census`` and ``classified`` describe the group they form.  An
    element whose conjugate fails the coefficient test at this tolerance is
    missing without notice, so that group may be a proper subgroup of
    Aut(phi).
    """
    if phi.degree < 2:
        raise ValueError("discovery expects degree >= 2")
    if not 0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and > 0, not {tolerance}")
    cluster_tol = max(tolerance, 1e-9) ** 0.5
    j = phi.fixed_point_form()
    lead_zeros = 0
    while lead_zeros <= j.degree and not j.coeffs[lead_zeros]:
        lead_zeros += 1
    fc = _complex_coeffs(phi.F)
    gc = _complex_coeffs(phi.G)
    points = _cluster(_roots_of_form(_complex_coeffs(j), lead_zeros), cluster_tol)
    if len(points) < 3:
        d = phi.degree
        f2, g2 = _subst_complex(fc, gc, (fc, gc))
        j2 = np.concatenate(([0], f2)) - np.concatenate((g2, [0]))
        # exact leading zeros are unknown here; strip numerically
        scale = np.max(np.abs(j2)) or 1.0
        nz = 0
        while nz < len(j2) - 1 and abs(j2[nz]) <= 1e-12 * scale:
            nz += 1
        points = _cluster(points + _roots_of_form(j2, nz), cluster_tol)
    if len(points) < 3:
        raise DegenerateConfiguration("fewer than 3 periodic points through period 2")

    points.sort(key=lambda p: (0, 0.0, 0.0) if p is None else (1, round(p.real, 6), round(p.imag, 6)))
    base = points[:3]
    coeff_vec = np.concatenate((fc, gc))
    found: list[np.ndarray] = []
    for triple in _permuting_triples(points, cluster_tol):
        m = _mobius_through(base, triple)
        if abs(np.linalg.det(m)) < 1e-14:
            continue
        m = m / np.max(np.abs(m))
        cf, cg = _conjugate_complex(fc, gc, m)
        if _proportional(np.concatenate((cf, cg)), coeff_vec, tolerance):
            if not any(_proportional(m.ravel(), f.ravel(), cluster_tol) for f in found):
                found.append(m)
    census: dict[int, int] = {}
    for m in found:
        o = _numeric_order(m, max(tolerance, 1e-9))
        if o is not None:
            census[o] = census.get(o, 0) + 1
    return AutReport(
        verified_elements=[],
        numeric_order=len(found),
        census=census,
        classified=classify_census(len(found), census),
    )


def _subst_complex(p: np.ndarray, q: np.ndarray, targets) -> list[np.ndarray]:
    """T(P, Q) for each degree-n target form T, with P, Q complex binary
    forms given by X-descending coefficients: one table of the products
    P^(n-i) Q^i serves every target.  Conjugation substitutes the linear
    forms aX+bY, cX+dY; period-2 points substitute the map's own F, G.
    Every term has full degree, so each accumulation is a plain sum."""
    n = len(targets[0]) - 1
    pp = [np.array([1.0 + 0j])]
    pq = [np.array([1.0 + 0j])]
    for _ in range(n):
        pp.append(np.convolve(pp[-1], p))
        pq.append(np.convolve(pq[-1], q))
    outs = [np.zeros(n * (len(p) - 1) + 1, dtype=complex) for _ in targets]
    for i, coefs in enumerate(zip(*targets)):
        prod = None
        for out, coef in zip(outs, coefs):
            if coef != 0:
                if prod is None:
                    prod = np.convolve(pp[n - i], pq[i])
                out += coef * prod
    return outs
