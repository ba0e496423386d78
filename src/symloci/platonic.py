"""Symmetry loci for the tetrahedral, octahedral and icosahedral groups.

Everything is driven by the three degenerate orbits of each rotation group:
their sizes, the characters by which the lifted group scales the orbit
forms, and the eight relevant divisors/pairs these generate.  Existence of
a degree-d map with symmetry group G is decided constructively from subset
sums of the orbit degrees, the locus dimension is computed two independent
ways (eigenspace linear algebra vs the closed form floor(2d/|G|)), and
explicit symmetric maps are produced through the inverse of the
divergence/fixed-point decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .aut import AutReport, verify_group_action
from .cyclotomic import Cyclotomic, ExactMatrix
from .decomp import FormPair, meets_ratd, recompose_map
from .forms import (
    BinaryForm,
    Divisor,
    P1Point,
    RationalMap,
    _substitution_columns,
    form_from_divisor,
    form_gcd,
    substitute,
)
from .moebius import FiniteSubgroup, MoebiusMap, degenerate_orbits, standard_subgroup

_PLATONIC = ("tetra", "octa", "icosa")


class NotInImage(ValueError):
    """The divisor/pair cannot arise from a degree-d symmetric map."""


class NotRealizable(ValueError):
    """No degree-d map has this symmetry group."""


class ConstructionFailed(RuntimeError):
    """The symmetric-map constructor exhausted its padding budget."""


@dataclass
class OrbitCharacterRow:
    orbit: Divisor
    size: int
    stabilizer_order: int
    character: tuple[Cyclotomic, ...]  # scalar of each lifted generator
    form: BinaryForm

    def to_json(self):
        return {
            "size": self.size,
            "stabilizer_order": self.stabilizer_order,
            "character": [c.to_json() for c in self.character],
            "form": self.form.to_json(),
        }


@dataclass
class RelevantPair:
    d1: Divisor
    d2: Divisor

    @property
    def degrees(self) -> tuple[int, int]:
        return self.d1.degree, self.d2.degree


def lifted_scalar(form: BinaryForm, rep: MoebiusMap) -> Cyclotomic:
    """Scalar by which the determinant-1 lift of rep acts on an eigenform of
    even degree.

    Uses F^(sM) = s^deg F^M to divide out det(rep)^(deg/2) instead of
    taking an actual square root, so any representative works.
    """
    n = form.degree
    if n % 2:
        raise ValueError("the lifted scalar is only lift-independent in even degree")
    image = substitute(form, rep)
    i = next(k for k, c in enumerate(form.coeffs) if c)
    scalar = image.coeffs[i] * form.coeffs[i].inverse()
    if not all(image.coeffs[k] == scalar * form.coeffs[k] for k in range(n + 1)):
        raise AssertionError("form is not an eigenvector of the group element")
    return scalar * (rep.det() ** (n // 2)).inverse()


def _kind_of(group_or_kind) -> str:
    if isinstance(group_or_kind, str):
        return group_or_kind
    return group_or_kind.label


@lru_cache(maxsize=None)
def platonic_group(kind: str) -> FiniteSubgroup:
    if kind not in _PLATONIC:
        raise ValueError(f"not a platonic rotation group: {kind!r}")
    return standard_subgroup(kind)


@lru_cache(maxsize=None)
def _orbit_data(kind: str) -> list[tuple[Divisor, int]]:
    return degenerate_orbits(platonic_group(kind))


@lru_cache(maxsize=None)
def _cached_table(kind: str) -> tuple[OrbitCharacterRow, ...]:
    group = platonic_group(kind)
    rows = []
    for div, stab in _orbit_data(kind):
        form = form_from_divisor(div)
        char = tuple(lifted_scalar(form, g) for g in group.generators)
        rows.append(
            OrbitCharacterRow(
                orbit=div,
                size=div.degree,
                stabilizer_order=stab,
                character=char,
                form=form,
            )
        )
    return tuple(rows)


def character_table(group_or_kind) -> list[OrbitCharacterRow]:
    """One row per degenerate orbit: size, stabilizer order, and the scalars
    by which the lifted generators act on the orbit form."""
    return list(_cached_table(_kind_of(group_or_kind)))


def relevant_divisors(group_or_kind) -> list[Divisor]:
    """The 2^3 = 8 multiplicity-one sums of subsets of the degenerate
    orbits, in subset-mask order (mask bit i = orbit i included)."""
    orbs = [div for div, _ in _orbit_data(_kind_of(group_or_kind))]
    out = []
    for mask in range(1 << len(orbs)):
        total = Divisor()
        for i, orb in enumerate(orbs):
            if mask >> i & 1:
                total = total + orb
        out.append(total)
    return out


def relevant_pairs(group_or_kind) -> list[RelevantPair]:
    """For each relevant divisor D2 the companion D1 with s_p = 0 where
    t_p = 1 and s_p = |G_p| - 1 on the remaining degenerate points; every
    produced pair is checked against all four defining conditions."""
    kind = _kind_of(group_or_kind)
    group = platonic_group(kind)
    orbs = _orbit_data(kind)
    rows = _cached_table(kind)
    stab_of = {p: stab for div, stab in orbs for p in div.support()}
    pairs = []
    for mask in range(1 << len(orbs)):
        d2 = Divisor()
        d1 = Divisor()
        char1 = tuple(Cyclotomic.rational(1) for _ in group.generators)
        char2 = tuple(Cyclotomic.rational(1) for _ in group.generators)
        for i, (orb, stab) in enumerate(orbs):
            if mask >> i & 1:
                d2 = d2 + orb
                char2 = tuple(a * b for a, b in zip(char2, rows[i].character))
            elif stab > 1:
                d1 = d1 + (stab - 1) * orb
                char1 = tuple(
                    a * b**(stab - 1) for a, b in zip(char1, rows[i].character)
                )
        pair = RelevantPair(d1, d2)
        _validate_relevant_pair(group, pair, char1, char2, stab_of)
        pairs.append(pair)
    return pairs


def _validate_relevant_pair(group, pair, char1, char2, stab_of):
    n = group.order
    deg1, deg2 = pair.degrees
    if (deg2 - deg1 - 2) % n:
        raise AssertionError("degree condition mod |G| fails")
    if char1 != char2:
        raise AssertionError("the two forms have different lifted characters")
    for p, t_p in pair.d2.terms.items():
        if t_p > 1 and pair.d1.multiplicity(p):
            raise AssertionError("t_p > 1 must force s_p = 0")
    for p in set(pair.d1.support()) | set(pair.d2.support()):
        stab = stab_of[p]
        if pair.d1.multiplicity(p) >= stab or pair.d2.multiplicity(p) >= stab:
            raise AssertionError("multiplicities must stay below the stabilizer order")


def fiber_dimension(d: int, group: FiniteSubgroup, obj) -> int:
    """Dimension of the family of symmetric maps over a relevant divisor
    ((d+1-deg D)/|G|) or relevant pair ((d-1-deg D1)/|G| +
    (d+1-deg D2)/|G| + 1)."""
    n = group.order
    if isinstance(obj, RelevantPair):
        deg1, deg2 = obj.degrees
        if deg1 > d - 1:
            raise NotInImage(f"deg D1 = {deg1} exceeds d-1 = {d-1}")
        if deg2 > d + 1:
            raise NotInImage(f"deg D2 = {deg2} exceeds d+1 = {d+1}")
        if (d + 1 - deg2) % n:
            raise NotInImage(f"deg D2 = {deg2} is not d+1 mod {n}")
        if (d - 1 - deg1) % n:
            raise AssertionError("pair condition forces deg D1 = d-1 mod |G|")
        dim = (d - 1 - deg1) // n + (d + 1 - deg2) // n + 1
        if dim != 2 * d // n + 1 - (deg1 + deg2) // n:
            raise AssertionError("fiber dimension disagrees with the closed form")
        return dim
    if isinstance(obj, Divisor):
        deg = obj.degree
        if deg > d + 1:
            raise NotInImage(f"deg D = {deg} exceeds d+1 = {d+1}")
        if (d + 1 - deg) % n:
            raise NotInImage(f"deg D = {deg} is not d+1 mod {n}")
        return (d + 1 - deg) // n
    raise TypeError("expected a RelevantPair or a Divisor")


@lru_cache(maxsize=None)
def _existence_data(kind: str) -> tuple[int, dict[int, int]]:
    """(|G|, {residue mod |G| -> smallest relevant-divisor degree})."""
    group = platonic_group(kind)
    n = group.order
    best: dict[int, int] = {}
    for div in relevant_divisors(group):
        deg = div.degree
        r = deg % n
        if r not in best or deg < best[r]:
            best[r] = deg
    return n, best


def platonic_existence(d: int, group_or_kind) -> bool:
    """Constructive existence of a degree-d map with this symmetry: some
    relevant divisor must have degree = d+1 mod |G| and degree <= d+1."""
    if d < 2:
        raise ValueError("degrees start at 2")
    n, best = _existence_data(_kind_of(group_or_kind))
    smallest = best.get((d + 1) % n)
    return smallest is not None and smallest <= d + 1


def existence_residues(group_or_kind, modulus: int | None = None, d_max: int = 61) -> set[int]:
    """{d mod modulus : a degree-d symmetric map exists, 2 <= d <= d_max};
    default modulus |G|.  Pure subset-sum arithmetic via the cached
    relevant-divisor degrees."""
    kind = _kind_of(group_or_kind)
    n, _ = _existence_data(kind)
    modulus = modulus or n
    return {d % modulus for d in range(2, d_max + 1) if platonic_existence(d, kind)}


# ---------------------------------------------------------------------------
# dimension by exact linear algebra
# ---------------------------------------------------------------------------


# (n, generator entries, char) -> eigenspace basis, kept for the process's life
_EIGENSPACES: dict[tuple, tuple[BinaryForm, ...]] = {}


def character_eigenspace(n: int, group: FiniteSubgroup, char: tuple) -> list[BinaryForm]:
    """Basis of forms of (even) degree n scaled by char under the lifted
    generators; the condition per generator rep M of determinant Delta is
    F^M = char * Delta^(n/2) F.

    Each generator's substitution matrix comes from one shared power table.
    Results are cached for the life of the process, keyed on n, the exact
    generator entries and char, so a survey over consecutive odd degrees
    builds the degree-(d+1) spaces at d once and reuses them at d+2.  The
    key holds the entries rather than the MoebiusMap, whose equality is
    projective; the space itself does not depend on the scale of a
    representative, since Delta^(n/2) absorbs it.
    """
    if n % 2:
        return []
    key = (n, tuple(g.entries() for g in group.generators), tuple(char))
    basis = _EIGENSPACES.get(key)
    if basis is None:
        stacked = []
        for g, chi in zip(group.generators, char):
            cols = _substitution_columns(n, g)
            mu = chi * g.det() ** (n // 2)
            for i in range(n + 1):
                row = [col[i] for col in cols]
                row[i] = row[i] - mu
                stacked.append(row)
        kernel = ExactMatrix.from_rows(stacked).kernel_basis()
        basis = _EIGENSPACES[key] = tuple(BinaryForm(n, vec) for vec in kernel)
    return list(basis)


def character_group(group: FiniteSubgroup) -> list[tuple]:
    """All character tuples realized on forms with G-invariant divisor:
    the closure of the degenerate-orbit characters under multiplication."""
    rows = character_table(group)
    one = tuple(Cyclotomic.rational(1) for _ in group.generators)
    elems = {one: one}
    frontier = [one]
    while frontier:
        new = []
        for x in frontier:
            for row in rows:
                y = tuple(a * b for a, b in zip(x, row.character))
                if y not in elems:
                    elems[y] = y
                    new.append(y)
        frontier = new
    return list(elems.values())


_GENERIC_VALS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


def _generic_combination(basis: list[BinaryForm], degree: int, seed: int) -> BinaryForm:
    if not basis:
        return BinaryForm.zero(degree)
    acc = BinaryForm.zero(degree)
    for j, b in enumerate(basis):
        c = Cyclotomic.rational(_GENERIC_VALS[(seed + j * (seed + 1)) % len(_GENERIC_VALS)])
        acc = acc + b * c
    return acc


def invariant_locus_dimension(d: int, group_or_kind, tries: int = 24) -> int:
    """Dimension of the symmetry locus in the moduli space, computed by
    linear algebra: best over characters chi of h_chi + j_chi - 1, keeping
    only strata where a generic pair reaches a genuine degree-d map."""
    kind = _kind_of(group_or_kind)
    group = platonic_group(kind)
    if not platonic_existence(d, kind):
        raise NotRealizable(f"no degree-{d} map admits {kind} symmetry")
    best = None
    for char in character_group(group):
        h_basis = character_eigenspace(d - 1, group, char)
        j_basis = character_eigenspace(d + 1, group, char)
        if not h_basis and not j_basis:
            continue
        dim = len(h_basis) + len(j_basis) - 1
        if best is not None and dim <= best:
            continue
        for seed in range(tries):
            h = _generic_combination(h_basis, d - 1, seed)
            j = _generic_combination(j_basis, d + 1, seed)
            if h.is_zero() and j.is_zero():
                continue
            if meets_ratd(FormPair(d, h, j)):
                best = dim
                break
    if best is None:
        raise NotRealizable(f"no character stratum reaches degree-{d} maps for {kind}")
    return best


# ---------------------------------------------------------------------------
# explicit construction
# ---------------------------------------------------------------------------


def _padding_orbits(group: FiniteSubgroup, count: int, excluded: set[P1Point]):
    """Deterministic full orbits of rational base points of increasing
    height, disjoint from each other and from the excluded set."""
    orbits = []
    x = 2
    used = set(excluded)
    while len(orbits) < count:
        p = P1Point.affine(x)
        x += 1
        if p in used:
            continue
        orbit = group.orbit(p)
        if len(orbit) < group.order or any(q in used for q in orbit):
            continue
        used.update(orbit)
        orbits.append(Divisor.of_points(orbit))
        if x > 2 + 50 * (count + 1):
            raise ConstructionFailed("could not find enough disjoint padding orbits")
    return orbits


def construct_symmetric_map(d: int, group_or_kind) -> tuple[RationalMap, AutReport]:
    """A degree-d map with the requested platonic symmetry, with every group
    element verified exactly.

    Route: pick the largest relevant divisor D2 with deg D2 = d+1 mod |G|
    and deg D2 <= d+1, pad with disjoint non-degenerate orbits up to degree
    d+1, and invert the decomposition on (H = 0, J).  J stays squarefree by
    construction, so the result always lands among genuine degree-d maps.
    """
    kind = _kind_of(group_or_kind)
    group = platonic_group(kind)
    if not platonic_existence(d, kind):
        raise NotRealizable(f"no degree-{d} map admits {kind} symmetry")
    n = group.order
    candidates = [
        div
        for div in relevant_divisors(group)
        if div.degree <= d + 1 and (d + 1 - div.degree) % n == 0
    ]
    candidates.sort(key=lambda div: -div.degree)
    for d2 in candidates:
        ell = (d + 1 - d2.degree) // n
        padding = _padding_orbits(group, ell, set(d2.support()))
        j = form_from_divisor(d2)
        for orb in padding:
            j = j * form_from_divisor(orb)
        j = BinaryForm(d + 1, j.coeffs).minimized()
        phi = recompose_map(FormPair(d, BinaryForm.zero(d - 1), j)).normalized().minimized()
        if form_gcd(phi.F, phi.G).degree != 0:
            continue  # cannot happen for squarefree J; defensive
        report = verify_group_action(phi, group)
        if report.all_verified:
            return phi, report
    raise ConstructionFailed(f"no relevant divisor produced a verified map for d={d}, {kind}")


def invariant_eigenvalue_check(group: FiniteSubgroup, p: P1Point, g: MoebiusMap) -> Cyclotomic:
    """Scalar action of a determinant-1 lift g on the full-orbit form of p;
    must equal (-1)^(|G|/m) for g lifting an order-m element, hence 1 for
    every platonic group."""
    if group.order % 2:
        raise ValueError("the check needs a group of even order")
    if g.det() != Cyclotomic.rational(1):
        raise ValueError("g must be a determinant-1 lift")
    full = Divisor()
    for sigma in group.elements:
        full = full + Divisor({sigma.apply(p).minimized(): 1})
    form = form_from_divisor(full)
    image = substitute(form, g)
    i = next(k for k, c in enumerate(form.coeffs) if c)
    scalar = image.coeffs[i] * form.coeffs[i].inverse()
    if not all(image.coeffs[k] == scalar * form.coeffs[k] for k in range(form.degree + 1)):
        raise AssertionError("the full-orbit form is not an eigenvector of g")
    m = g.projective_order()
    expected = Cyclotomic.rational((-1) ** (group.order // m))
    if scalar != expected:
        raise AssertionError(f"orbit-form scalar {scalar!r} != (-1)^(|G|/m)")
    return scalar


def survey_rows(d: int, kinds=_PLATONIC) -> list[dict]:
    rows = []
    for kind in kinds:
        group = platonic_group(kind)
        exists = platonic_existence(d, kind)
        if exists:
            formula = 2 * d // group.order
            linalg = invariant_locus_dimension(d, kind)
            match = formula == linalg
        else:
            formula = linalg = None
            match = True
        rows.append(
            {
                "d": d,
                "group": kind,
                "t": "",
                "exists": exists,
                "dim_moduli": formula,
                "dim_ratd": None,
                "components": "",
                "s": "",
                "dim_linalg": linalg,
                "match": match,
            }
        )
    return rows
