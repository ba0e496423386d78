"""Sweep of numeric discovery against the triple loop it replaced.

    PYTHONPATH=src python -m pytest tests/sweep_discovery.py -q

For each discovery map of ``tests/test_aut.py`` (the constructed platonic
maps, plain and under the eight panel matrices, and five small maps) at
each tolerance: the old loop's order, recomputed live, matches the one
recorded in ``tests/golden/triple_loop_orders.json``, and
``discover_automorphisms`` finds at least as many elements, the same number
where the old loop found the whole group.  The old loop is kept here with
numpy, which the package no longer uses: every ordered triple of periodic
points (numpy's roots of the unbalanced fixed-point form) gives a Moebius
map, which is conjugated in floats and tested on the coefficients.  The
file name is outside the test_*.py pattern, so the default test run skips
it.
"""

import json

import numpy as np
import pytest

from symloci.aut import discover_automorphisms
from test_aut import FULL_GROUP, TOLERANCES, TRIPLE_LOOP_ORDERS, discovery_maps  # noqa: F401


def _homog(p):
    return (1 + 0j, 0j) if p is None else (p, 1 + 0j)


def _to_01inf(triple):
    (x1, y1), (x2, y2), (x3, y3) = (_homog(p) for p in triple)
    alpha, beta = y3 * x2 - x3 * y2, y1 * x2 - x1 * y2
    return np.array([[alpha * y1, -alpha * x1], [beta * y3, -beta * x3]], dtype=complex)


def _roots(coeffs, lead_zeros):
    return [None] * lead_zeros + (list(np.roots(coeffs[lead_zeros:])) if len(coeffs) - lead_zeros > 1 else [])


def _cluster(points, tol):
    out = []
    for p in points:
        if p is None:
            if None not in out:
                out.append(None)
        elif not any(q is not None and abs(p - q) <= tol for q in out):
            out.append(p)
    return out


def _subst(p, q, target):
    # T(P, Q) for a degree-n form T, P and Q complex forms, X-descending
    n = len(target) - 1
    pp, pq = [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
    for _ in range(n):
        pp.append(np.convolve(pp[-1], p))
        pq.append(np.convolve(pq[-1], q))
    out = np.zeros(n * (len(p) - 1) + 1, dtype=complex)
    for i, coef in enumerate(target):
        if coef != 0:
            out += coef * np.convolve(pp[n - i], pq[i])
    return out


def _proportional(v, w, tol):
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0 or nw == 0:
        return False
    return bool(np.linalg.norm(np.vdot(v, w) / (nv * nv) * v - w) <= tol * nw)


def triple_loop_order(phi, tolerance):
    cluster_tol = max(tolerance, 1e-9) ** 0.5
    j = phi.fixed_point_form()
    lead_zeros = next((i for i, c in enumerate(j.coeffs) if c), j.degree + 1)
    fc = np.array([c.complex() for c in phi.F.coeffs])
    gc = np.array([c.complex() for c in phi.G.coeffs])
    points = _cluster(_roots(np.array([c.complex() for c in j.coeffs]), lead_zeros), cluster_tol)
    if len(points) < 3:  # add the period-2 points
        j2 = np.concatenate(([0], _subst(fc, gc, fc))) - np.concatenate((_subst(fc, gc, gc), [0]))
        scale = np.max(np.abs(j2)) or 1.0
        nz = 0
        while nz < len(j2) - 1 and abs(j2[nz]) <= 1e-12 * scale:
            nz += 1
        points = _cluster(points + _roots(j2, nz), cluster_tol)
    points.sort(key=lambda p: (0, 0.0, 0.0) if p is None else (1, round(p.real, 6), round(p.imag, 6)))
    base, coeff_vec, found = points[:3], np.concatenate((fc, gc)), []
    for q1 in points:
        for q2 in points:
            for q3 in points:
                if q2 is q1 or q3 is q1 or q3 is q2:
                    continue
                dst = _to_01inf((q1, q2, q3))
                m = np.array([[dst[1, 1], -dst[0, 1]], [-dst[1, 0], dst[0, 0]]]) @ _to_01inf(base)
                if abs(np.linalg.det(m)) < 1e-14:
                    continue
                a, b, c, d = (m / np.max(np.abs(m))).ravel()
                fs, gs = _subst(np.array([a, b]), np.array([c, d]), fc), _subst(np.array([a, b]), np.array([c, d]), gc)
                if _proportional(np.concatenate((d * fs - b * gs, a * gs - c * fs)), coeff_vec, tolerance):
                    if not any(_proportional(m.ravel(), f.ravel(), cluster_tol) for f in found):
                        found.append(m)
    return len(found)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_discovery_finds_at_least_the_live_triple_loop(discovery_maps, tolerance):  # noqa: F811
    recorded = json.loads(TRIPLE_LOOP_ORDERS.read_text())
    for name, phi, base in discovery_maps:
        was, full = triple_loop_order(phi, tolerance), FULL_GROUP[base]["numeric_order"]
        assert was == recorded[f"{name} @ {tolerance:g}"], (name, tolerance)
        got = discover_automorphisms(phi, tolerance).numeric_order
        assert got >= was and (was < full or got == was), (name, tolerance, was, got)
