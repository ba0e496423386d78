"""Cyclic and dihedral automorphism loci: existence, dimensions, members.

A map commutes with z -> zeta_m z exactly when its coefficient vector is an
eigenvector of the diagonal conjugation action, so each locus is cut out by
a coordinate subspace of the 2d+2 coefficients plus open conditions.  All
dimension claims are certified two ways: by the closed-form expressions and
by counting eigenspace coordinates.

Types t = 1, 0, -1 record how many of the two fixed points of the rotation
are fixed by the map (t + 1 of them); t = 0 splits into two components
swapped by z -> 1/z.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

# loci.is_automorphism is unused here, but bench/tests/test_bench.py counts
# it among the bindings the tracer must patch
from .aut import _fixes, _verified_type, _verify_through_generators, is_automorphism  # noqa: F401
from .cyclotomic import Cyclotomic
from .forms import BinaryForm, RationalMap
from .moebius import MoebiusMap, standard_subgroup

_SEARCH_VALUES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _seed_coefficients(seed: int, count: int) -> list[Cyclotomic]:
    """Coefficients of count basis vectors at one seed of a deterministic
    member search: _SEARCH_VALUES at index seed + j (seed + 1), plus
    32 (j // 12).  The index is periodic in j with a period dividing 12, so
    without the offset a basis of more than 12 vectors repeats a
    coefficient pattern, F and G share a factor at every seed, and the
    search runs out of seeds; the first 12 coefficients are unchanged."""
    vals = _SEARCH_VALUES
    return [
        Cyclotomic.rational(vals[(seed + j * (seed + 1)) % len(vals)] + 32 * (j // len(vals)))
        for j in range(count)
    ]


class NoMemberFound(RuntimeError):
    """The deterministic coefficient search exhausted its budget."""


@dataclass(kw_only=True)
class SurveyRow:
    """One survey row; the field order is the column order of the CSV and
    JSON output.  Platonic rows leave t, components and s blank and have
    no dim_ratd."""

    d: int
    group: str
    t: int | str = ""
    exists: bool
    dim_moduli: int | None
    dim_ratd: int | None = None
    components: int | str = ""
    s: int | str = ""
    dim_linalg: int | None
    match: bool


@dataclass
class CyclicNormalForm:
    """Shape data for maps commuting with a rotation of order m."""

    d: int
    m: int
    t: int
    dprime: int
    psi_constraints: str

    def to_json(self):
        return self.__dict__.copy()


def _jsonify(v):
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, dict):
        return {str(k): _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    return v


@dataclass
class LocusReport:
    exists: bool
    dim_moduli: Optional[int] = None
    dim_ratd: Optional[int] = None
    components: int = 0
    certificate: dict = field(default_factory=dict)

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
    ``stalk_eigenvalue``), so only the exponents mod 2m with eta^j = lam
    are looked up."""
    hit = _root_exponents(2 * m, lam)
    return [("a", k) for k in range(d + 1) if (d - 2 * k - 1) % (2 * m) in hit] + [
        ("b", k) for k in range(d + 1) if (d - 2 * k + 1) % (2 * m) in hit
    ]


@lru_cache(maxsize=None)
def _root_exponents(n: int, lam: Cyclotomic) -> frozenset[int]:
    # {j < n : zeta_n^j = lam}, once per (n, lam)
    return frozenset(j for j in range(n) if Cyclotomic.zeta(n, j) == lam)


def _lambda_for(d: int, m: int, t: int, component: str = "inf") -> Cyclotomic:
    # t=1 and the t=0 component fixing {0,inf} pointwise at infinity share
    # a_0's eigenvalue eta^(d-1), the others b_0's eta^(d+1), eta = zeta_2m
    e = d - 1 if t == 1 or (t == 0 and component == "inf") else d + 1
    return Cyclotomic.zeta(2 * m, e % (2 * m))


def _map_from_coeffs(d: int, assignment: dict[tuple[str, int], Cyclotomic]) -> RationalMap:
    zero = Cyclotomic.rational(0)
    a = [assignment.get(("a", k), zero) for k in range(d + 1)]
    b = [assignment.get(("b", k), zero) for k in range(d + 1)]
    return RationalMap(BinaryForm(d, a), BinaryForm(d, b))


def _required_indices(d: int, t: int, component: str) -> list[tuple[str, int]]:
    if t == 1:
        return [("a", 0), ("b", d)]
    if t == -1:
        return [("b", 0), ("a", d)]
    if component == "inf":
        return [("a", 0), ("a", d)]
    return [("b", 0), ("b", d)]


def generic_member(
    d: int,
    m: int,
    t: int,
    component: str = "inf",
    budget: int = 64,
) -> RationalMap:
    """Deterministic small-coefficient member of the cyclic locus with the
    requested type, exactly verified before being returned."""
    if d < 2 or m < 2:
        raise ValueError("need d >= 2 and m >= 2")
    lam = _lambda_for(d, m, t, component)
    basis = commuting_space_basis(d, m, lam)
    if not basis:
        raise NoMemberFound("empty eigenspace")
    required = _required_indices(d, t, component)
    if any(r not in basis for r in required):
        raise NoMemberFound("type conditions cannot hold on this eigenspace")
    sigma = MoebiusMap.scaling(Cyclotomic.zeta(m))
    for seed in range(budget):
        assignment = dict(zip(basis, _seed_coefficients(seed, len(basis))))
        phi = _map_from_coeffs(d, assignment)
        if phi.is_in_ratd() and _fixes(phi, sigma) and _verified_type(phi, sigma) == t:
            return phi
    raise NoMemberFound(f"no member for d={d} m={m} t={t} within budget")


def cyclic_existence_and_dim(d: int, m: int) -> list[tuple[int, LocusReport]]:
    """For each type t with m | d - t: the locus dimensions, eigenspace
    certificate and an exactly verified generic member.

    dim in the moduli space is 2(d-t)/m + t - 1; in the parameter space one
    more (the scaling family z -> cz acts along the fibers).
    """
    if d < 2 or m < 2:
        raise ValueError("need d >= 2 and m >= 2")
    out = []
    for t in (1, 0, -1):
        if (d - t) % m:
            continue
        dprime = (d - t) // m
        if dprime < 1:
            continue
        dim_moduli = 2 * dprime + t - 1
        dim_ratd = dim_moduli + 1
        components = 2 if t == 0 else 1
        constraints = {
            1: "alpha != 0 and delta != 0",
            0: "exactly one of alpha, delta vanishes",
            -1: "alpha = 0 and delta = 0",
        }[t]
        comps = ("inf", "zero") if t == 0 else ("inf" if t == 1 else "zero",)
        cert: dict = {
            "family": CyclicNormalForm(d, m, t, dprime, constraints),
            "eigenvalues": {},
            "bases": {},
        }
        member = None
        for comp in comps:
            lam = _lambda_for(d, m, t, comp)
            basis = commuting_space_basis(d, m, lam)
            cert["eigenvalues"][comp] = lam
            cert["bases"][comp] = [list(ix) for ix in basis]
            if len(basis) != dim_ratd + 1:
                raise AssertionError("eigenspace count disagrees with the formula")
            if member is None:
                member = generic_member(d, m, t, comp)
        cert["member"] = member
        cert["member_verified"] = True
        out.append(
            (
                t,
                LocusReport(
                    exists=True,
                    dim_moduli=dim_moduli,
                    dim_ratd=dim_ratd,
                    components=components,
                    certificate=cert,
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# dihedral loci
# ---------------------------------------------------------------------------


def dihedral_basis(
    d: int, m: int, t: int, mu: int, component: str | None = None
) -> list[dict[tuple[str, int], Cyclotomic]]:
    """Free parameters of the locus commuting with both zeta_m z and 1/z:
    inside the rotation eigenspace, inversion forces b_i = mu * a_(d-i)."""
    if component is None:
        component = "inf" if t == 1 else "zero"
    lam = _lambda_for(d, m, t, component)
    basis = commuting_space_basis(d, m, lam)
    a_idx = [k for side, k in basis if side == "a"]
    b_set = {k for side, k in basis if side == "b"}
    vecs = []
    mu_c = Cyclotomic.rational(mu)
    one = Cyclotomic.rational(1)
    for k in a_idx:
        if (d - k) not in b_set:
            return []  # pairing leaves the eigenspace: locus is empty
        vecs.append({("a", k): one, ("b", d - k): mu_c})
    # any b-index not hit by the pairing would be forced to zero
    if len(b_set) != len(a_idx):
        return []
    return vecs


def dihedral_generic_member(d: int, m: int, t: int, mu: int, budget: int = 64) -> RationalMap:
    if d < 2 or m < 2:
        raise ValueError("need d >= 2 and m >= 2")
    vecs = dihedral_basis(d, m, t, mu)
    if not vecs:
        raise NoMemberFound("empty dihedral stratum")
    group = standard_subgroup("dihedral", m)
    sigma = group.generators[0]  # the rotation z -> zeta_m z
    for seed in range(budget):
        assignment: dict[tuple[str, int], Cyclotomic] = {}
        for c, vec in zip(_seed_coefficients(seed, len(vecs)), vecs):
            for idx, coeff in vec.items():
                assignment[idx] = assignment.get(idx, Cyclotomic.rational(0)) + c * coeff
        phi = _map_from_coeffs(d, assignment)
        verified = phi.is_in_ratd() and _verify_through_generators(phi, group).all_verified
        if verified and _verified_type(phi, sigma) == t:
            return phi
    raise NoMemberFound(f"no dihedral member for d={d} m={m} t={t} mu={mu}")


def dihedral_dim(d: int, m: int) -> list[tuple[int, LocusReport]]:
    """Dimensions of the loci with dihedral symmetry of order 2m:

      m | d-1: dimension (d-1)/m
      m | d:   empty
      m | d+1: dimension (d+1)/m - 1

    The inversion relation b_i = mu a_(d-i) admits mu = +-1; both signs are
    searched and the signs realizing members are recorded.
    """
    if d < 2 or m < 2:
        raise ValueError("need d >= 2 and m >= 2")
    out = []
    for t in (1, 0, -1):
        if (d - t) % m:
            continue
        if t == 0:
            out.append((0, LocusReport(exists=False, components=0, certificate={"reason": "m divides d"})))
            continue
        dprime = (d - t) // m
        dim = dprime if t == 1 else dprime - 1
        signs = []
        member = None
        for mu in (1, -1):
            try:
                candidate = dihedral_generic_member(d, m, t, mu)
            except NoMemberFound:
                continue
            signs.append(mu)
            if member is None:
                member = candidate
        vecs = dihedral_basis(d, m, t, 1)
        cert = {
            "free_parameters": len(vecs),
            "signs_realized": signs,
            "member": member,
            "member_verified": member is not None,
        }
        exists = member is not None
        out.append(
            (
                t,
                LocusReport(
                    exists=exists,
                    dim_moduli=dim if exists else None,
                    dim_ratd=dim if exists else None,
                    components=len(signs),
                    certificate=cert,
                ),
            )
        )
    return out


def stalk_order(d: int, m: int, t: int) -> int:
    """Order of the root of unity by which an order-2m lift of the rotation
    acts on the line over a fixed map of type t:

      t = +-1: 1 if (d - t)/m is even else 2
      t = 0:   m if d is odd else 2m
    """
    if (d - t) % m:
        raise ValueError("m must divide d - t")
    if t in (1, -1):
        dprime = (d - t) // m
        return 1 if dprime % 2 == 0 else 2
    return m if d % 2 else 2 * m


def stalk_order_from_eigenvalue(d: int, m: int, t: int) -> int:
    """The same order, but read off a populated coefficient directly."""
    eta = Cyclotomic.zeta(2 * m)
    index = {1: ("a", 0), -1: ("b", 0), 0: ("a", 0)}[t]
    lam = stalk_eigenvalue(d, index, eta)
    order = lam.ru_order()
    if t == 0:
        other = stalk_eigenvalue(d, ("b", 0), eta).ru_order()
        if other != order:
            raise AssertionError("both t=0 components must give the same order")
    return order


def codimension_values(d: int) -> dict:
    """Both codimension readings for the full automorphism locus.

    The largest stratum is the order-2 locus of moduli dimension d-1, so
    the locus in the parameter space has dimension (d-1)+3 and codimension
    (2d+1) - (d+2) = d-1; inside the moduli space, of dimension
    (2d+1) - 3 = 2d-2, the same stratum has codimension d-1 as well.
    """
    best = -1
    for m in range(2, d + 2):
        for t in (1, 0, -1):
            if (d - t) % m == 0 and (d - t) // m >= 1:
                best = max(best, 2 * (d - t) // m + t - 1)
    return {
        "max_dim_moduli": best,
        "dim_in_ratd_sweep": best + 3,
        "codim_in_ratd": (2 * d + 1) - (best + 3),
        "codim_in_moduli": (2 * d - 2) - best,
    }


def survey_rows(d: int, kinds=("cyclic", "dihedral")) -> list[dict]:
    """Survey rows for one degree; every row carries both the closed-form
    dimension and the linear-algebra dimension plus a match flag."""
    rows = []
    if "cyclic" in kinds:
        for m in range(2, d + 2):
            for t, rep in cyclic_existence_and_dim(d, m):
                lam = _lambda_for(d, m, t, "inf" if t >= 0 else "zero")
                affine = len(commuting_space_basis(d, m, lam))
                rows.append(
                    SurveyRow(
                        d=d,
                        group=f"cyclic:{m}",
                        t=t,
                        exists=rep.exists,
                        dim_moduli=rep.dim_moduli,
                        dim_ratd=rep.dim_ratd,
                        components=rep.components,
                        s=stalk_order(d, m, t),
                        dim_linalg=affine - 1,
                        match=affine - 1 == rep.dim_ratd,
                    )
                )
    if "dihedral" in kinds:
        for m in range(2, d + 2):
            for t, rep in dihedral_dim(d, m):
                if rep.exists:
                    linalg = rep.certificate["free_parameters"] - 1
                    match = linalg == rep.dim_ratd
                elif t == 0:
                    # the theorem says empty; confirm both component strata die
                    linalg = None
                    match = all(
                        not dihedral_basis(d, m, 0, mu, comp)
                        for mu in (1, -1)
                        for comp in ("inf", "zero")
                    )
                else:
                    linalg = None
                    match = False
                rows.append(
                    SurveyRow(
                        d=d,
                        group=f"dihedral:{m}",
                        t=t,
                        exists=rep.exists,
                        dim_moduli=rep.dim_moduli,
                        dim_ratd=rep.dim_ratd,
                        components=rep.components,
                        dim_linalg=linalg,
                        match=match,
                    )
                )
    return [asdict(row) for row in rows]
