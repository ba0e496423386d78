"""Cyclic and dihedral automorphism loci: existence, dimensions, members.

A map commutes with z -> zeta_m z exactly when its coefficient vector is an
eigenvector of the diagonal conjugation action, so each locus is cut out by
a coordinate subspace of the 2d+2 coefficients plus open conditions.  All
dimension claims are certified two ways: by the closed-form expressions and
by counting eigenspace coordinates; the stalk order s by its case table
and by the order 2m / gcd(e, 2m) of each component's eigenvalue eta^e.

Types t = 1, 0, -1 record how many of the two fixed points of the rotation
are fixed by the map (t + 1 of them); t = 0 splits into two components
swapped by z -> 1/z.  One walk, ``_strata``, owns which types a rotation
order has, their components and the exponent e of eta = zeta_2m each
component reads; the eigenspace certificates, the member searches, the
dihedral bases, s and the survey all read it there.

Members come from one seeded search over eigenspace vectors, each basis
read off the exponent of its eigenvalue.  A candidate is two lists of Python
ints, proved on them: its type from F_d and G_0, zeta_m z and (on dihedral
loci) 1/z by coefficient weights (``aut._fixes``), Rat_d on the quotient
x -> x^M (``forms._in_ratd``): F = X^a Y^b f(X^M, Y^M) and G = X^a' Y^b'
g(X^M, Y^M) share a root iff both vanish at 0 or both at infinity, or f and
g, of degree about d/M, share one.  A member is its two int lists (F, G)
wherever this module returns one; only ``construct`` builds a map, of the
member it prints.  A map fixed by the generators is fixed by their group, so
no group is built.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from functools import lru_cache
from math import gcd

# loci.is_automorphism is unused here, but bench/tests/test_bench.py counts
# it among the bindings the tracer must patch
from .aut import _fixes, _verified_type, is_automorphism  # noqa: F401
from .cyclotomic import Cyclotomic, _root_exponent
from .forms import _in_ratd
from .moebius import MoebiusMap

_SEARCH_VALUES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_INVERSION = MoebiusMap.inversion()  # 1/z, built once for every dihedral search


def _seed_coefficients(seed: int, count: int) -> list[int]:
    """Coefficients of count basis vectors at one seed of a deterministic
    member search: _SEARCH_VALUES at index seed + j (seed + 1), plus
    32 (j // 12).  The index is periodic in j with a period dividing 12, so
    without the offset a basis of more than 12 vectors repeats a
    coefficient pattern, F and G share a factor at every seed, and the
    search runs out of seeds; the first 12 coefficients are unchanged."""
    vals = _SEARCH_VALUES
    return [vals[(seed + j * (seed + 1)) % len(vals)] + 32 * (j // len(vals)) for j in range(count)]


class NoMemberFound(RuntimeError):
    """The deterministic coefficient search exhausted its budget."""


class SurveyRow(namedtuple("SurveyRow", "d group t exists dim_moduli dim_ratd components s dim_linalg match")):
    """One survey row, built by keyword only; the field order is the column
    order of the CSV and JSON output.  Platonic rows leave t, components and
    s blank and have no dim_ratd."""

    __slots__ = ()

    def __new__(cls, *, d, group, t="", exists, dim_moduli, dim_ratd=None, components="", s="", dim_linalg, match):
        return tuple.__new__(cls, (d, group, t, exists, dim_moduli, dim_ratd, components, s, dim_linalg, match))


class CyclicNormalForm(namedtuple("CyclicNormalForm", "d m t dprime psi_constraints")):
    """Shape data for maps commuting with a rotation of order m."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _jsonify(v):
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, dict):
        return {str(k): _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    return v


class LocusReport(namedtuple("LocusReport", "exists dim_moduli dim_ratd components certificate")):
    """Existence and dimensions of one locus; each report gets its own empty
    certificate by default."""

    __slots__ = ()

    def __new__(cls, exists, dim_moduli=None, dim_ratd=None, components=0, certificate=None):
        certificate = {} if certificate is None else certificate
        return tuple.__new__(cls, (exists, dim_moduli, dim_ratd, components, certificate))

    def to_json(self):
        return {
            "exists": self.exists,
            "dim_moduli": self.dim_moduli,
            "dim_ratd": self.dim_ratd,
            "components": self.components,
            "certificate": _jsonify(self.certificate),
        }


def stalk_eigenvalue(d: int, index: tuple[str, int], eta: Cyclotomic) -> Cyclotomic:
    """Eigenvalue forced by a nonzero coefficient at ('a'|'b', k) under the
    diagonal lift diag(eta, 1/eta)."""
    side, k = index
    if side == "a":
        return eta ** (d - 2 * k - 1)
    if side == "b":
        return eta ** (d - 2 * k + 1)
    raise ValueError("index side must be 'a' or 'b'")


def commuting_space_basis(d: int, m: int, lam: Cyclotomic) -> list[tuple[str, int]]:
    """Coordinate indices spanning the lam-eigenspace of the diagonal
    conjugation action on the 2d+2 coefficients.  The index ('a', k) has
    eigenvalue eta^(d-2k-1) and ('b', k) eta^(d-2k+1), eta = zeta_2m (see
    ``stalk_eigenvalue``), so the exponents mod 2m are compared with the j
    of eta^j = lam (``_root_exponent``), None when lam is no power of eta."""
    return _eigenspace(d, m, _root_exponent(lam, 2 * m))


def _eigenspace(d: int, m: int, j: int | None) -> list[tuple[str, int]]:
    # the basis of the eta^j-eigenspace, empty for j None
    return [("a", k) for k in range(d + 1) if (d - 2 * k - 1) % (2 * m) == j] + [
        ("b", k) for k in range(d + 1) if (d - 2 * k + 1) % (2 * m) == j
    ]


@lru_cache(maxsize=None)
def _rotation(m: int) -> MoebiusMap:  # zeta_m z once per m, so aut._fixes reads zeta_m's order once
    return MoebiusMap.scaling(Cyclotomic.zeta(m))


def _strata(d: int, m: int) -> list[tuple[int, int, dict[str, int]]]:
    """(t, d', {component: e}) for each type t with m | d - t and
    d' = (d - t)/m >= 1.  A component's maps are eta^e-eigenvectors, eta =
    zeta_2m, e taken mod 2m: a_0's d - 1 at t = 1 and on the t = 0 component
    "inf" (a_0 and a_d nonzero), b_0's d + 1 at t = -1 and on "zero" (b_0 and
    b_d nonzero), which 1/z swaps with "inf".  ValueError for d < 2 or m < 2."""
    if d < 2 or m < 2:
        raise ValueError("need d >= 2 and m >= 2")
    exponents = {1: {"inf": d - 1}, 0: {"inf": d - 1, "zero": d + 1}, -1: {"zero": d + 1}}
    return [
        (t, (d - t) // m, {comp: e % (2 * m) for comp, e in exponents[t].items()})
        for t in (1, 0, -1)
        if (d - t) % m == 0 and (d - t) // m >= 1
    ]


def _component_exponent(d: int, m: int, t: int, component: str | None) -> int | None:
    # e of the type's only component, or of the named one where t = 0 has
    # two; None when the type has no stratum or no such component
    if component not in ("inf", "zero", None):
        raise ValueError(f"component must be 'inf', 'zero' or None, not {component!r}")
    exps = next((exps for s, _, exps in _strata(d, m) if s == t), {})
    return next(iter(exps.values())) if len(exps) == 1 else exps.get(component)


def _search(d: int, vecs: list[dict], gens: list[MoebiusMap], t: int, budget: int, exhausted: str) -> tuple:
    """The int lists (F, G) of the first combination of the int vectors vecs,
    at seeds 0..budget-1, of type t under gens[0], fixed by every generator
    and in Rat_d, each proved on those lists; NoMemberFound(exhausted) if none is."""
    for seed in range(budget):
        F, G = [0] * (d + 1), [0] * (d + 1)
        for c, vec in zip(_seed_coefficients(seed, len(vecs)), vecs):
            for (side, k), x in vec.items():
                (F if side == "a" else G)[k] += c * x
        if _verified_type((F, G), gens[0]) == t and all(_fixes((F, G), g) for g in gens) and _in_ratd(F, G):
            return F, G
    raise NoMemberFound(exhausted)


def generic_member(d: int, m: int, t: int, component: str = "inf", budget: int = 64) -> tuple:
    """The int lists (F, G) of a deterministic small-coefficient member of
    the cyclic locus with the requested type, exactly verified on those lists
    before being returned; ``RationalMap.from_zpoly(F, G)`` is its map."""
    if t == 0 and component is None:
        raise ValueError("a t = 0 stratum has two components: name 'inf' or 'zero'")
    if (e := _component_exponent(d, m, t, component)) is None:
        raise NoMemberFound(f"no stratum of type t={t} for d={d} m={m}")
    vecs, exhausted = [{ix: 1} for ix in _eigenspace(d, m, e)], f"no member for d={d} m={m} t={t} within budget"
    return _search(d, vecs, [_rotation(m)], t, budget, exhausted)


def cyclic_existence_and_dim(d: int, m: int) -> list[tuple[int, LocusReport]]:
    """For each type t with m | d - t: the locus dimensions, eigenspace
    certificate and an exactly verified generic member, as its int lists
    (F, G) under certificate["member"].

    dim in the moduli space is 2(d-t)/m + t - 1; in the parameter space one
    more (the scaling family z -> cz acts along the fibers).
    """
    out = []
    for t, dprime, exps in _strata(d, m):
        dim_moduli = 2 * dprime + t - 1
        dim_ratd = dim_moduli + 1
        constraints = {
            1: "alpha != 0 and delta != 0",
            0: "exactly one of alpha, delta vanishes",
            -1: "alpha = 0 and delta = 0",
        }[t]
        cert: dict = {"family": CyclicNormalForm(d, m, t, dprime, constraints), "eigenvalues": {}, "bases": {}}
        for comp, e in exps.items():
            lam = Cyclotomic.zeta(2 * m, e)
            basis = commuting_space_basis(d, m, lam)
            cert["eigenvalues"][comp] = lam
            cert["bases"][comp] = [list(ix) for ix in basis]
            if len(basis) != dim_ratd + 1:
                raise AssertionError("eigenspace count disagrees with the formula")
        cert["member"] = generic_member(d, m, t, next(iter(exps)))
        cert["member_verified"] = True
        out.append((t, LocusReport(True, dim_moduli, dim_ratd, len(exps), cert)))
    return out


# ---------------------------------------------------------------------------
# dihedral loci
# ---------------------------------------------------------------------------


def dihedral_basis(d: int, m: int, t: int, mu: int, component: str | None = None) -> list[dict[tuple[str, int], int]]:
    """Free parameters of the locus commuting with both zeta_m z and 1/z:
    inside the rotation eigenspace of the type's component (the named one
    where t = 0 has two), inversion forces b_i = mu * a_(d-i).  Empty when
    the type has no stratum."""
    basis = _eigenspace(d, m, _component_exponent(d, m, t, component))
    a_idx = [k for side, k in basis if side == "a"]
    b_set = {k for side, k in basis if side == "b"}
    # an index the pairing takes out of the eigenspace, or a b-index it
    # misses, is forced to zero: the locus is empty
    if any(d - k not in b_set for k in a_idx) or len(b_set) != len(a_idx):
        return []
    return [{("a", k): 1, ("b", d - k): mu} for k in a_idx]


def dihedral_generic_member(d: int, m: int, t: int, mu: int, budget: int = 64) -> tuple:
    """The int lists (F, G) of a deterministic member of the dihedral locus
    of type t and sign mu, proved fixed by zeta_m z and 1/z on those lists."""
    if not (vecs := dihedral_basis(d, m, t, mu)):
        raise NoMemberFound("empty dihedral stratum")
    return _search(d, vecs, [_rotation(m), _INVERSION], t, budget, f"no dihedral member for d={d} m={m} t={t} mu={mu}")


def dihedral_dim(d: int, m: int) -> list[tuple[int, LocusReport]]:
    """Dimensions of the loci with dihedral symmetry of order 2m:

      m | d-1: dimension (d-1)/m
      m | d:   empty
      m | d+1: dimension (d+1)/m - 1

    The inversion relation b_i = mu a_(d-i) admits mu = +-1; both signs are
    searched and the signs realizing members are recorded.  A nonempty
    basis where both searches run dry raises NoMemberFound.
    """
    out = []
    for t, dprime, _ in _strata(d, m):
        if t == 0:
            out.append((0, LocusReport(exists=False, components=0, certificate={"reason": "m divides d"})))
            continue
        dim = dprime if t == 1 else dprime - 1
        members = {}
        for mu in (1, -1):
            with suppress(NoMemberFound):
                members[mu] = dihedral_generic_member(d, m, t, mu)
        signs, member = list(members), next(iter(members.values()), None)
        vecs = dihedral_basis(d, m, t, 1)
        if member is None and vecs:
            raise NoMemberFound(f"no dihedral member for d={d} m={m} t={t} with either sign")
        exists = member is not None
        cert = {"free_parameters": len(vecs), "signs_realized": signs, "member": member, "member_verified": exists}
        out.append((t, LocusReport(exists, dim if exists else None, dim if exists else None, len(signs), cert)))
    return out


def stalk_order(d: int, m: int, t: int) -> int:
    """Order of the root of unity by which an order-2m lift of the rotation
    acts on the line over a fixed map of type t:

      t = +-1: 1 if (d - t)/m is even else 2
      t = 0:   m if d is odd else 2m
    """
    if t not in [s for s, _, _ in _strata(d, m)]:  # _strata refuses d < 2 and m < 2
        raise ValueError(f"m must divide d - t for a type t in (1, 0, -1), not t={t}")
    return (1 if (d - t) // m % 2 == 0 else 2) if t else (m if d % 2 else 2 * m)


def stalk_order_from_eigenvalue(d: int, m: int, t: int) -> int:
    """The same order, read off each component's eigenvalue eta^e, eta =
    zeta_2m, as 2m / gcd(e, 2m)."""
    orders = {2 * m // gcd(e, 2 * m) for s, _, exps in _strata(d, m) if s == t for e in exps.values()}
    if not orders:
        raise ValueError("m must divide d - t")
    if len(orders) > 1:
        raise AssertionError("both t=0 components must give the same order")
    return orders.pop()


def survey_rows(d: int, kinds=("cyclic", "dihedral")) -> list[dict]:
    """Survey rows for one degree, each member proved on its int lists (F, G); every row carries
    both the closed-form dimension and the linear-algebra dimension plus a match flag, which on a cyclic row
    also needs the two routes to the stalk order s to agree."""

    def row(group, t, rep, **rest):  # the columns a report fills, and the rest
        return SurveyRow(d=d, group=group, t=t, exists=rep.exists, dim_moduli=rep.dim_moduli, dim_ratd=rep.dim_ratd,
                         components=rep.components, **rest)._asdict()

    rows = []
    if "cyclic" in kinds:
        for m in range(2, d + 2):
            for t, rep in cyclic_existence_and_dim(d, m):
                affine, s = len(next(iter(rep.certificate["bases"].values()))), stalk_order(d, m, t)
                match = affine - 1 == rep.dim_ratd and s == stalk_order_from_eigenvalue(d, m, t)
                rows.append(row(f"cyclic:{m}", t, rep, s=s, dim_linalg=affine - 1, match=match))
    if "dihedral" in kinds:
        for m in range(2, d + 2):
            for t, rep in dihedral_dim(d, m):
                linalg = rep.certificate["free_parameters"] - 1 if rep.exists else None
                # an empty row matches only where the theorem says empty (t = 0)
                # and each component's basis is, for one sign mu: the pairing
                # that empties it does not read mu
                empty = t == 0 and not any(
                    dihedral_basis(d, m, 0, 1, c) for s, _, cs in _strata(d, m) if s == 0 for c in cs
                )
                match = linalg == rep.dim_ratd if rep.exists else empty
                rows.append(row(f"dihedral:{m}", t, rep, dim_linalg=linalg, match=match))
    return rows
