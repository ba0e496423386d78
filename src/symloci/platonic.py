"""Symmetry loci for the tetrahedral, octahedral and icosahedral groups.

Everything is driven by the three degenerate orbits of each rotation group:
their sizes, the characters by which the lifted group scales the orbit
forms, and the eight relevant divisors/pairs these generate.  Existence of
a degree-d map with symmetry group G is decided constructively from subset
sums of the orbit degrees, the locus dimension is computed two independent
ways (character eigenspaces vs the closed form floor(2d/|G|)), and
explicit symmetric maps are produced through the inverse of the
divergence/fixed-point decomposition.

The character eigenspaces are spanned by products of the orbit forms,
counted by Molien's character-orthogonality formula over the classes of
eigenvalue ratio.  At a root of f_1, coprime mod p to the other forms,
f_1^a f_2^b f_3^c vanishes to order a mult(f_1); d_2 not dividing d_3 makes
the a of one degree distinct, so the products are independent (``_orbit_images``).
Klein's quotient map (f_1^s_1 : f_2^s_2) to P^1/G is unramified off the three orbits, so a member
f_1^a_0 f_2^b_0 f_3^c Q meets Rat_d by its orders there and by Q, of (d + 1)/|G| + 1 terms at most (``_member_meets``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, product
from math import lcm
from operator import mul

from .aut import AutReport, _verify_through_generators
from .cyclotomic import Cyclotomic, ExactMatrix, _fold, _images, _make, _phi, _root_exponent
from .decomp import FormPair, recompose_map
from .forms import (
    BinaryForm,
    Divisor,
    P1Point,
    RationalMap,
    _coprime_images,
    _product_mod,
    form_from_divisor,
    substitute,
)
from .loci import NoMemberFound, SurveyRow, _seed_coefficients
from .moebius import FiniteSubgroup, MoebiusMap, _angle, _cayley_graph, degenerate_orbits, standard_subgroup

_PLATONIC = ("tetra", "octa", "icosa")
_ONE = Cyclotomic.rational(1)


class NotInImage(ValueError):
    """The divisor/pair cannot arise from a degree-d symmetric map."""


class NotRealizable(ValueError):
    """No degree-d map has this symmetry group."""


class ConstructionFailed(RuntimeError):
    """The symmetric-map constructor exhausted its padding budget."""


class OrbitCharacterRow(namedtuple("OrbitCharacterRow", "orbit size stabilizer_order character form")):
    """A degenerate orbit, its size, stabilizer order and form; character
    holds the form's scalar under each generator's determinant-1 lift."""

    __slots__ = ()


class RelevantPair(namedtuple("RelevantPair", "d1 d2")):
    __slots__ = ()

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
    return _eigen_scalar(form, rep) * (rep.det() ** (n // 2)).inverse()


def _eigen_scalar(form: BinaryForm, g: MoebiusMap) -> Cyclotomic:
    # the s with F^g = s F, read off the first nonzero coefficient
    image = substitute(form, g)
    i = next(k for k, c in enumerate(form.coeffs) if c)
    scalar = image.coeffs[i] * form.coeffs[i].inverse()
    if not all(a == scalar * b for a, b in zip(image.coeffs, form.coeffs)):
        raise AssertionError("form is not an eigenvector of the group element")
    return scalar


def _standard(group_or_kind) -> FiniteSubgroup:
    # the answers are the standard group's, so a group given as such must be
    # that group, not one that only carries its label
    if isinstance(group_or_kind, str):
        return platonic_group(group_or_kind)
    label = group_or_kind.label
    if label in _PLATONIC and group_or_kind is platonic_group(label):
        return group_or_kind
    raise ValueError(f"not the standard platonic group {label!r}")


def platonic_group(kind: str) -> FiniteSubgroup:
    if kind not in _PLATONIC:
        raise ValueError(f"not a platonic rotation group: {kind!r}")
    return standard_subgroup(kind)


def character_table(group_or_kind) -> list[OrbitCharacterRow]:
    """One row per degenerate orbit: size, stabilizer order, and the scalars
    by which the lifted generators act on the orbit form."""
    orbits, forms, scalars = _orbit_forms(_standard(group_or_kind))
    return [
        OrbitCharacterRow(div, div.degree, stab, char, form)
        for (div, stab), form, char in zip(orbits, forms, zip(*scalars))
    ]


def relevant_divisors(group_or_kind) -> list[Divisor]:
    """The 2^3 = 8 multiplicity-one sums of subsets of the degenerate
    orbits, in subset-mask order (mask bit i = orbit i included)."""
    orbs = [div for div, _ in _orbit_forms(_standard(group_or_kind))[0]]
    return [sum((orb for i, orb in enumerate(orbs) if mask >> i & 1), Divisor()) for mask in range(1 << len(orbs))]


def relevant_pairs(group_or_kind) -> list[RelevantPair]:
    """For each relevant divisor D2 the companion D1 with s_p = 0 where
    t_p = 1 and s_p = |G_p| - 1 on the remaining degenerate points; every
    produced pair is checked against all four defining conditions."""
    group = _standard(group_or_kind)
    orbs, _, scalars = _orbit_forms(group)
    chars = list(zip(*scalars))
    stab_of = {p: stab for div, stab in orbs for p in div.support()}
    pairs = []
    for mask in range(1 << len(orbs)):
        d1, d2 = Divisor(), Divisor()
        char1 = char2 = tuple(_ONE for _ in group.generators)
        for i, (orb, stab) in enumerate(orbs):
            if mask >> i & 1:
                d2 = d2 + orb
                char2 = tuple(a * b for a, b in zip(char2, chars[i]))
            elif stab > 1:
                d1 = d1 + (stab - 1) * orb
                char1 = tuple(a * b ** (stab - 1) for a, b in zip(char1, chars[i]))
        pair = RelevantPair(d1, d2)
        _validate_relevant_pair(group, pair, char1, char2, stab_of)
        pairs.append(pair)
    return pairs


def _validate_relevant_pair(group, pair, char1, char2, stab_of):
    if (pair.d2.degree - pair.d1.degree - 2) % group.order:
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
def _existence_data(group: FiniteSubgroup) -> tuple[int, dict[int, int]]:
    """(|G|, {residue mod |G| -> smallest relevant-divisor degree}): the degrees are the subset
    sums of the degenerate orbits' sizes, as the orbits are disjoint and of multiplicity one."""
    n = group.order
    sizes = [div.degree for div, _ in _orbit_forms(group)[0]]
    degrees = reduce(lambda ds, size: ds + [d + size for d in ds], sizes, [0])
    return n, {deg % n: deg for deg in sorted(degrees, reverse=True)}


def platonic_existence(d: int, group_or_kind) -> bool:
    """Constructive existence of a degree-d map with this symmetry: some
    relevant divisor must have degree = d+1 mod |G| and degree <= d+1."""
    if d < 2:
        raise ValueError("degrees start at 2")
    n, best = _existence_data(_standard(group_or_kind))
    smallest = best.get((d + 1) % n)
    return smallest is not None and smallest <= d + 1


def existence_residues(group_or_kind, modulus: int | None = None, d_max: int = 61) -> set[int]:
    """{d mod modulus : a degree-d symmetric map exists, 2 <= d <= d_max};
    default modulus |G|.  Pure subset-sum arithmetic via the cached
    relevant-divisor degrees."""
    group = _standard(group_or_kind)
    modulus = modulus or group.order
    return {d % modulus for d in range(2, d_max + 1) if platonic_existence(d, group)}


# ---------------------------------------------------------------------------
# dimension by exact linear algebra
# ---------------------------------------------------------------------------


def character_eigenspace(n: int, group: FiniteSubgroup, char: tuple) -> list[BinaryForm]:
    """Basis of forms of (even) degree n scaled by char under the lifted
    generators: F^h = chi F for the determinant-1 lift h of each generator.

    Such a form has a G-invariant divisor, a sum of orbits, and the form of
    a full orbit lies in the pencil of the powers f_i^|G_i| of the
    degenerate-orbit forms f_i; with three orbits f_3^2 lies in k[f_1, f_2]
    (Klein, Lectures on the Icosahedron; Springer, Invariant Theory, LNM
    585).  So the basis is the products f_1^a f_2^b f_3^c of degree n, c <= 1
    on the last (largest) of three orbits, whose scalars under the
    generators multiply to chi.  Two exact certificates raise AssertionError:
    the products must be independent (their exact row basis, which no command
    builds), and their number must be the character-orthogonality count.  They
    are reduced to the basis in which form k is 1 at its last nonzero
    coefficient and every other form is 0 there; it depends on the space
    alone, so the generators' order or scale does not change it.

    Odd n gives []: the lift -I acts on degree-n forms by (-1)^n, while
    every character of the binary group is 1 at -I.
    """
    forms = _orbit_forms(group)[1]
    products = [
        reduce(mul, (f for f, a in zip(forms, exps) for _ in range(a)), BinaryForm(0, [_ONE]))
        for exps in _orbit_exponents(n, group, tuple(char))
    ]
    rows = ExactMatrix.from_rows([f.coeffs[::-1] for f in products]).row_basis()
    if len(rows) != len(products):
        raise AssertionError(f"degree-{n} orbit products are linearly dependent")
    return [BinaryForm(n, row[::-1]) for row in reversed(rows)]


@lru_cache(maxsize=None)
def _orbit_exponents(n: int, group: FiniteSubgroup, char: tuple) -> tuple:
    """The exponents (a, b, c) of the orbit products f_1^a f_2^b f_3^c of
    degree n, c <= 1 on the last of three orbits, scaled by char under the
    lifted generators, independent by the module's lemma (``_orbit_images``)
    and counted by the trace formula (``_trace_sum``): the basis that
    ``character_eigenspace`` multiplies out.  () for odd n, where the lift -I acts by (-1)^n and every character is 1.
    With s_i = zeta_N^k_i and chi = zeta_N^k, N = lcm(2, the conductors),
    the test is sum e_i k_i = k (mod N); an s_i that is no root of unity is
    corrupt data (AssertionError), a chi that is none gives ()."""
    if n % 2:
        return ()
    _, forms, scalars = _orbit_forms(group)
    big = lcm(2, *(x.n for x in chain(char, *scalars)))
    ks = [[_root_exponent(s, big) for s in row] for row in scalars]
    if None in chain(*ks):
        raise AssertionError(f"an orbit character of {group.label} is no root of unity")
    targets = [_root_exponent(chi, big) for chi in char]
    d1, d2, *rest = [f.degree for f in forms]
    # b = (n - d1 a - d3 c) / d2 from (a, c); c = 1 before c = 0, so b rises: the (a, b, c) order of the box
    exps = tuple(
        (a, b // d2, *c)
        for a, *c in product(range(n // d1 + 1), *[(1, 0)] * len(rest))
        if None not in targets and (b := n - d1 * a - sum(map(mul, c, rest))) >= 0 and b % d2 == 0
        and all((sum(map(mul, (a, b // d2, *c), k)) - t) % big == 0 for k, t in zip(ks, targets))
    )
    if (trace := _trace_sum(n, group, char)) != len(exps) * group.order:
        raise AssertionError(f"{len(exps)} degree-{n} orbit products, trace formula {trace!r}/{group.order}")
    return exps


@lru_cache(maxsize=None)
def _orbit_forms(group: FiniteSubgroup) -> tuple:
    """The degenerate orbits of group by increasing size with their
    stabilizer orders, their forms, and for each generator the scalar s of
    each form under its determinant-1 lift h (F^h = s F), its character: an
    even-degree form, as every platonic one, has the same s under -h.  The
    trivial group has no degenerate orbit; the forms X and Y serve it; any
    other group without generators has no characters: ValueError.

    No form is substituted: s = F(a x + b y, c x + d y) / F(x, y) for h =
    (a, b; c, d), at the first of (1:0), (0:1), (1:1), (2:1), ... off the
    zeros of F.  This is exact: F is the product of its orbit's linear
    forms, each once, and ``FiniteSubgroup.orbit`` closes the orbit under
    the generator, so h maps it onto itself, and the zeros of F^h, the
    h^-1 images of those of F, are those of F, simple; hence F^h = s F."""
    if group.order > 1 and not group.generators:
        raise ValueError(f"{group!r} has no generators, and orbit characters are read per generator")
    orbits = tuple(degenerate_orbits(group))
    forms = tuple(form_from_divisor(div) for div, _ in orbits)
    forms = forms or (BinaryForm.monomial(1, 0), BinaryForm.monomial(1, 1))
    # n + 1 points, of which a form of degree at most n misses one
    top = max(f.degree for f in forms)
    points = [(_ONE, Cyclotomic.rational(0))] + [(Cyclotomic.rational(k), _ONE) for k in range(top)]
    at = [next((x, y, v) for x, y in points if (v := f.evaluate(x, y))) for f in forms]
    return orbits, forms, tuple(
        tuple(f.evaluate(h.a * x + h.b * y, h.c * x + h.d * y) / v for f, (x, y, v) in zip(forms, at))
        for h in (g.sl2_lift() for g in group.generators)
    )


@lru_cache(maxsize=None)
def _orbit_images(group: FiniteSubgroup) -> tuple:
    """(p, the images of the orbit forms of group) under ``_images``, which prove the module's
    premise (f_1 coprime to the others, and d_2 not dividing d_3, so no two products (a, b, 1),
    (a, b', 0) of one degree share a) and solve the syzygy of ``_branch_value``; failing either,
    or with no image, AssertionError."""
    forms = _orbit_forms(group)[1]
    if (images := _images([f.coeffs for f in forms])) and all(f.degree % forms[1].degree for f in forms[2:]):
        p, (first, *others) = images
        if _coprime_images([first, reduce(partial(_product_mod, p=p), others, [1])], p):
            return images
    raise AssertionError(f"the {group.label} orbit forms do not prove their products independent mod p")


@lru_cache(maxsize=None)
def _branch_value(group: FiniteSubgroup) -> tuple[int, int]:
    """(p, rho mod p): Klein's quotient map pi = (U : V), U = f_1^s_1, V = f_2^s_2, s_i = |G|/d_i, takes the
    f_1, f_2, f_3 orbits to 0, infinity and rho = -beta/alpha by the syzygy f_3^2 = alpha U + beta V (Klein,
    Vorlesungen ueber das Ikosaeder, 1884), proved as the char_3^2 space of degree |G| being span(U, V)
    (``_orbit_exponents``); alpha, beta solved mod p on a 2x2 minor and checked (failing, or 0: AssertionError)."""
    (_, forms, scalars), n = _orbit_forms(group), group.order
    (s1, s2), (p, (f1, f2, f3)) = [n // f.degree for f in forms[:2]], _orbit_images(group)
    u, v, w = (reduce(partial(_product_mod, p=p), [f] * k) for f, k in ((f1, s1), (f2, s2), (f3, 2)))
    minor = lambda i, j, x, y: (x[i] * y[j] - x[j] * y[i]) % p  # noqa: E731
    ij = next(((i, j) for i, j in combinations(range(n + 1), 2) if minor(i, j, u, v)), None)
    if ij and _orbit_exponents(n, group, tuple(row[2] ** 2 for row in scalars)) == ((0, s2, 0), (s1, 0, 0)):
        alpha, beta = (minor(*ij, *xy) * pow(minor(*ij, u, v), -1, p) % p for xy in ((w, v), (u, w)))
        if alpha and beta and all((alpha * x + beta * y - z) % p == 0 for x, y, z in zip(u, v, w)):
            return p, -beta * pow(alpha, -1, p) % p
    raise AssertionError(f"the {group.label} orbit forms prove no syzygy f_3^2 = alpha U + beta V mod p")


def _trace_sum(n: int, group: FiniteSubgroup, char: tuple) -> Cyclotomic:
    """|G| times the dimension of the char-eigenspace in degree n by character orthogonality:
    sum_g char(g)^-1 tr Sym^n(g) of the determinant-1 lift, one trace (``_trace``) per
    eigenvalue-ratio angle (``_class_sums``).  Both are stored over denominator 1, so each product is
    taken on the numerators as exponents of zeta_N, N the lcm of the conductors, into one list folded once."""
    pairs = [(s, _trace(q, n)) for q, s in _class_sums(group, char).items()]
    big = lcm(1, *(x.n for pair in pairs for x in pair))
    raw = [0] * big
    for s, t in pairs:
        fs, ft = big // s.n, big // t.n
        for i, a in enumerate(s.nums):
            if a:
                for j, b in enumerate(t.nums):
                    raw[(i * fs + j * ft) % big] += a * b
    return _make(big, _fold(big, _phi(big), raw), 1)


@lru_cache(maxsize=None)
def _class_table(group: FiniteSubgroup) -> tuple:
    """((q, ((x, size), ...)), ...): the conjugacy classes of group, the orbits of
    x -> g^-1 x g, g a generator, on the indices of the cached Cayley graph (``_cayley_graph``),
    each by a member x and its size, grouped by the class invariant q = j/m of the eigenvalue
    ratio zeta_m^(+-j) (``_angle``): one division per class."""
    elements, right, _, lefts = _cayley_graph(group.generators, group.order)
    table, seen = {}, set()
    for x, h in enumerate(elements):
        if x in seen:
            continue
        members = [x]
        seen.add(x)
        for y in members:
            for i, left in enumerate(lefts[len(group.generators):]):
                if (z := right[left[y]][i]) not in seen:
                    seen.add(z)
                    members.append(z)
        table.setdefault(_angle(h, group.order), []).append((x, len(members)))
    return tuple((q, tuple(classes)) for q, classes in table.items())


@lru_cache(maxsize=None)
def _class_sums(group: FiniteSubgroup, char: tuple) -> dict:
    """{q: sum of char(g)^-1 over the g of eigenvalue-ratio angle q}, summed
    class by class (``_class_table``) from one count per exponent: with
    char(g_i) = zeta_N^k_i, N = lcm(2, the conductors), char(g)^-1 = zeta_N^-k
    for k the sum of the k_i along the first path to g in the Cayley graph.
    {} when two paths disagree or a value is no root of unity: char is no character."""
    big = lcm(2, *(c.n for c in char))
    ks = [_root_exponent(c, big) for c in char]
    if None in ks:
        return {}
    vals = {0: 0}
    for x, row in enumerate(_cayley_graph(group.generators, group.order)[1]):
        for k, y in zip(ks, row):
            if vals.setdefault(y, (v := (vals[x] - k) % big)) != v:
                return {}
    return {
        q: _make(big, _fold(big, _phi(big), [sum(size for x, size in classes if vals[x] == j) for j in range(big)]), 1)
        for q, classes in _class_table(group)
    }


def _trace(q: Fraction, n: int) -> Cyclotomic:
    """tr Sym^n, n even, of the determinant-1 lift of an element of eigenvalue ratio w = zeta_m^j,
    q = j/m (``_angle``): the sum of w^e over e = -n/2 .. n/2, in which each residue of e mod m
    appears (n + 1) // m times and the first (n + 1) % m from -n/2 on once more."""
    m, j = q.denominator, q.numerator
    raw = [0] * m
    for i in range(m):
        raw[j * (i - n // 2) % m] += (n + 1) // m + (i < (n + 1) % m)
    return _make(m, _fold(m, _phi(m), raw), 1)


def character_group(group: FiniteSubgroup) -> list[tuple]:
    """All character tuples realized on forms with G-invariant divisor:
    the closure of the degenerate-orbit characters under multiplication,
    at most |G| characters of G; more is corrupt data (AssertionError)."""
    return list(_character_group(group))


@lru_cache(maxsize=None)
def _character_group(group: FiniteSubgroup) -> tuple[tuple, ...]:
    chars = list(zip(*_orbit_forms(group)[2]))
    elems = [tuple(Cyclotomic.rational(1) for _ in group.generators)]
    for x in elems:
        if len(elems) > group.order:
            raise AssertionError(f"the {group.label} orbit characters generate more than |G| = {group.order}")
        for char in chars:
            y = tuple(a * b for a, b in zip(x, char))
            if y not in elems:
                elems.append(y)
    return tuple(elems)


def _branch_clash(j_orders: tuple, h_orders: tuple) -> bool:
    # the branch rule: a multiple zero of J is a zero of H at some degenerate orbit (H = 0 for ())
    return any(j >= 2 and (not h_orders or h >= 1) for j, h in zip(j_orders, h_orders or j_orders))


def _obstructed(d: int, group: FiniteSubgroup, char: tuple) -> bool:
    """Is the char stratum at degree d obstructed: J-space {0}, or fixed parts f_1^e_1 f_2^e_2 f_3^e_3,
    e_i the least exponent of f_i over a space's products, that break the branch rule?  Exponents only."""
    h_exps, j_exps = (_orbit_exponents(n, group, char) for n in (d - 1, d + 1))
    return not j_exps or _branch_clash(*(tuple(map(min, zip(*exps))) for exps in (j_exps, h_exps)))


def invariant_locus_dimension(d: int, group_or_kind, tries: int = 24) -> int:
    """Dimension of the symmetry locus in the moduli space, computed by
    linear algebra: best over characters chi of h_chi + j_chi - 1 over the
    strata where a generic pair (H, J) reaches a genuine degree-d map,
    that is J != 0 and no multiple zero of J is a zero of H (``meets_ratd``).

    The J-space (degree d+1) and H-space (degree d-1) are spanned by the orbit products, sized by their
    exponents (``_orbit_exponents``).  A stratum whose fixed parts break the branch rule is obstructed
    (``_obstructed``): every J has a multiple zero where every H vanishes.  On any other a generic Q_J of
    ``_member_meets`` is squarefree and misses rho, and a generic Q_H its roots, so generic pairs reach
    Rat_d; an accepted seed is the proof.  ``tries`` bounds the seeds on these strata only; all missing is
    NoMemberFound.  Existence with every stratum obstructed is a disagreement of the routes (AssertionError)."""
    group = _standard(group_or_kind)
    if not platonic_existence(d, group):
        raise NotRealizable(f"no degree-{d} map admits {group.label} symmetry")
    best = None
    for k, char in enumerate(character_group(group)):
        dim = sum(len(_orbit_exponents(n, group, char)) for n in (d - 1, d + 1)) - 1
        if _obstructed(d, group, char) or (best is not None and dim <= best):
            continue
        if not _member_meets(d, group, char, tries):
            raise NoMemberFound(
                f"no seeded member of the unobstructed {group.label} character stratum {k} "
                f"meets Rat_d at d={d} in {tries} tries"
            )
        best = dim
    if best is None:
        raise AssertionError(f"every {group.label} character stratum is obstructed at d={d}, where maps exist")
    return best


def _member_meets(d: int, group: FiniteSubgroup, char: tuple, tries: int) -> bool:
    """Does a seeded member (H, J) of the char stratum meet Rat_d at one of the first tries seeds?
    A space of products (a_0 + s_1 i, b_0 + s_2 (K - i), c), i = 0..K (else AssertionError), has the member
    f_1^a_0 f_2^b_0 f_3^c Q(U, V), Q = sum c_i u^i v^(K - i) of the nonzero seed integers c_i, so with
    U - rho V = f_3^2 / alpha (``_branch_value``) its orders at the three orbits are a_0, b_0, c + 2 ord_rho Q,
    and off them, where pi is unramified, those of Q.  So the pair meets Rat_d iff its orders pass the branch
    rule and Q_J, Q_J', Q_H share no root: tested mod p, where roots only appear; the rule compares orders
    with 1 and 2 alone, so 2 [Q(rho) = 0] stands for 2 ord_rho Q."""
    (p, rho), spaces = _branch_value(group), [_orbit_exponents(n, group, char) for n in (d - 1, d + 1)]
    s1, s2 = (group.order // f.degree for f in _orbit_forms(group)[1][:2])
    bases = [tuple(map(min, zip(*exps))) for exps in spaces]  # the fixed parts' orders (``_obstructed``)
    for exps, (a, b, c) in zip(spaces, (base or (0, 0, 0) for base in bases)):
        if exps != tuple((a + s1 * i, b + s2 * (len(exps) - 1 - i), c) for i in range(len(exps))):
            raise AssertionError(f"a {group.label} space at d={d} is no orbit part times a form in U, V")
    at_rho = lambda q: 2 * (reduce(lambda v, x: (v * rho + x) % p, q[::-1]) == 0)  # noqa: E731
    for cs in (_seed_coefficients(seed, max(map(len, spaces))) for seed in range(tries if spaces[1] else 0)):
        qh, qj = (cs[: len(exps)] for exps in spaces)
        h, j = (base and (*base[:2], base[2] + at_rho(q)) for base, q in zip(bases, (qh, qj)))
        dq = [(len(qj) - 1 - i) * x % p for i, x in enumerate(qj[:-1])]
        if not _branch_clash(j, h) and _coprime_images([f for f in (qj, dq, qh) if any(f)], p):
            return True
    return False


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
        if x > 2 + 50 * (count + 1):
            raise ConstructionFailed("could not find enough disjoint padding orbits")
        p = P1Point.affine(x)
        x += 1
        if p in used:
            continue
        orbit = group.orbit(p)
        if len(orbit) < group.order or any(q in used for q in orbit):
            continue
        used.update(orbit)
        orbits.append(Divisor.of_points(orbit))
    return orbits


def construct_symmetric_map(d: int, group_or_kind) -> tuple[RationalMap, AutReport]:
    """A degree-d map with the requested platonic symmetry, with every group
    element verified exactly.

    Route: pick the largest relevant divisor D2 with deg D2 = d+1 mod |G|
    and deg D2 <= d+1, pad with disjoint non-degenerate orbits up to degree
    d+1, and invert the decomposition on (H = 0, J).  J stays squarefree by
    construction, so the result always lands among genuine degree-d maps.
    """
    group = _standard(group_or_kind)
    if not platonic_existence(d, group):
        raise NotRealizable(f"no degree-{d} map admits {group.label} symmetry")
    n = group.order
    forms, divs = _orbit_forms(group)[1], relevant_divisors(group)
    masks = [mask for mask, div in enumerate(divs) if div.degree <= d + 1 and (d + 1 - div.degree) % n == 0]
    for mask in sorted(masks, key=lambda mask: -divs[mask].degree):
        d2 = divs[mask]
        ell = (d + 1 - d2.degree) // n
        padding = _padding_orbits(group, ell, set(d2.support()))
        # the orbit forms are normalized, so their product is D2's form
        j = reduce(mul, (f for i, f in enumerate(forms) if mask >> i & 1), BinaryForm(0, [_ONE]))
        j = reduce(mul, map(form_from_divisor, padding), j)
        j = BinaryForm(d + 1, j.coeffs).minimized()
        phi = recompose_map(FormPair(d, BinaryForm.zero(d - 1), j)).normalized().minimized()
        if not phi.is_in_ratd():
            continue  # cannot happen for squarefree J; defensive
        report = _verify_through_generators(phi, group)
        if report.all_verified:
            return phi, report
    raise ConstructionFailed(f"no relevant divisor produced a verified map for d={d}, {group.label}")


def invariant_eigenvalue_check(group: FiniteSubgroup, p: P1Point, g: MoebiusMap) -> Cyclotomic:
    """Scalar action of a determinant-1 lift g on the full-orbit form of p;
    must equal (-1)^(|G|/m) for g lifting an order-m element, hence 1 for
    every platonic group."""
    if group.order % 2:
        raise ValueError("the check needs a group of even order")
    if g.det() != Cyclotomic.rational(1):
        raise ValueError("g must be a determinant-1 lift")
    full = Divisor.of_points(sigma.apply(p).minimized() for sigma in group.elements)
    scalar = _eigen_scalar(form_from_divisor(full), g)
    m = g.projective_order()
    expected = Cyclotomic.rational((-1) ** (group.order // m))
    if scalar != expected:
        raise AssertionError(f"orbit-form scalar {scalar!r} != (-1)^(|G|/m)")
    return scalar


def survey_rows(d: int, kinds=_PLATONIC) -> list[dict]:
    rows = []
    for kind in kinds:
        group = platonic_group(kind)
        exists = platonic_existence(d, group)
        if exists:
            formula = 2 * d // group.order
            linalg = invariant_locus_dimension(d, group)
            match = formula == linalg
        else:
            # the second route to non-existence: every stratum is obstructed
            formula = linalg = None
            match = all(_obstructed(d, group, char) for char in character_group(group))
        row = SurveyRow(d=d, group=kind, exists=exists, dim_moduli=formula, dim_linalg=linalg, match=match)
        rows.append(row._asdict())
    return rows
