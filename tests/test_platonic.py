"""Platonic symmetry: orbits, characters, relevant pairs, dimensions,
construction."""

import pytest

from symloci import forms, platonic
from symloci.cyclotomic import Cyclotomic
from symloci.decomp import decompose_map
from symloci.forms import Divisor, P1Point, form_from_divisor
from symloci.moebius import FiniteSubgroup, MoebiusMap, generate_closure, standard_subgroup
from symloci.platonic import (
    ConstructionFailed,
    NotInImage,
    NotRealizable,
    character_group,
    character_table,
    construct_symmetric_map,
    existence_residues,
    fiber_dimension,
    invariant_eigenvalue_check,
    invariant_locus_dimension,
    lifted_scalar,
    platonic_existence,
    platonic_group,
    relevant_divisors,
    relevant_pairs,
    _padding_orbits,
)

ONE = Cyclotomic.rational(1)
ZETA3 = Cyclotomic.zeta(3)


def test_character_tables():
    rows = character_table("tetra")
    assert [r.size for r in rows] == [4, 4, 6]
    assert [r.stabilizer_order for r in rows] == [3, 3, 2]
    # the two vertex orbits carry inverse nontrivial cube-root characters
    # on the order-3 generator; the order-2 generator acts trivially
    c1, c2, c3 = (r.character for r in rows)
    assert c1[0] == c2[0] == c3[0] == ONE
    assert c3[1] == ONE
    assert c1[1] in (ZETA3, ZETA3 * ZETA3) and c2[1] == c1[1].inverse()

    rows = character_table("octa")
    assert [r.size for r in rows] == [6, 8, 12]
    chars = {r.size: r.character for r in rows}
    assert chars[8] == (ONE, ONE)
    assert chars[6] == chars[12]
    assert chars[6][0] == -ONE and chars[6][1] == ONE  # the sign character

    rows = character_table("icosa")
    assert [r.size for r in rows] == [12, 20, 30]
    assert all(r.character == (ONE, ONE) for r in rows)


def test_orbit_forms_are_eigenforms_of_the_lifts():
    for kind in ("tetra", "octa"):
        group = platonic_group(kind)
        for row in character_table(kind):
            for g, chi in zip(group.generators, row.character):
                assert lifted_scalar(row.form, g) == chi


def _scalar_cases():
    # the standard groups, their closures conjugated by M = (2, 1; 1, 1),
    # and small cyclic and dihedral groups, cyclic:1 with the forms X and Y
    m = MoebiusMap(2, 1, 1, 1)
    cases = [platonic_group(kind) for kind in ("tetra", "octa", "icosa")]
    cases += [
        generate_closure([m.inverse().compose(g).compose(m) for g in group.generators], cap=60)
        for group in cases
    ]
    return cases + [standard_subgroup(kind, k) for kind in ("cyclic", "dihedral") for k in (1, 4, 5)]


def test_orbit_form_scalars_are_the_substituted_ones():
    for group in _scalar_cases():
        _, orbit_forms, scalars = platonic._orbit_forms(group)
        assert len(scalars) == len(group.generators)
        for g, row in zip(group.generators, scalars):
            for f, s in zip(orbit_forms, row):
                assert s == platonic._eigen_scalar(f, g.sl2_lift()), (group, f, g)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_orbit_table_substitutes_no_form(kind, monkeypatch):
    calls, real = [], forms.substitute

    def counted(f, g):
        calls.append(f.degree)
        return real(f, g)

    monkeypatch.setattr(forms, "substitute", counted)
    monkeypatch.setattr(platonic, "substitute", counted)
    group = platonic_group(kind)
    platonic._orbit_forms.cache_clear()
    assert len(platonic._orbit_forms(group)[1]) == 3
    assert calls == []


def test_character_group_sizes():
    assert len(character_group(platonic_group("tetra"))) == 3
    assert len(character_group(platonic_group("octa"))) == 2
    assert len(character_group(platonic_group("icosa"))) == 1


def test_a_group_carrying_a_platonic_label_must_be_the_standard_one():
    # the answers are read off the standard group's tables, so a conjugate
    # that only carries its label is refused, not given the standard answers
    tetra = platonic_group("tetra")
    m = MoebiusMap(2, 1, 1, 1)
    inv = m.inverse()
    conj = FiniteSubgroup(
        [inv.compose(e).compose(m) for e in tetra.elements],
        label="tetra",
        generators=[inv.compose(g).compose(m) for g in tetra.generators],
    )
    for query in (relevant_divisors, character_table, relevant_pairs, existence_residues):
        with pytest.raises(ValueError, match="standard platonic group"):
            query(conj)
        assert query(tetra) == query("tetra")
    for query in (platonic_existence, invariant_locus_dimension, construct_symmetric_map):
        with pytest.raises(ValueError, match="standard platonic group"):
            query(7, conj)
    with pytest.raises(ValueError, match="not a platonic rotation group"):
        character_table("cube")


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_a_kind_and_its_standard_group_give_the_same_answers(kind):
    # every cache is keyed on the group, which a kind names: the one object
    # that standard_subgroup caches
    group = platonic_group(kind)
    assert group is platonic_group(kind) is standard_subgroup(kind)
    def exact(x):  # conductor, numerators and denominator
        return x.n, x.nums, x.den

    def key(row):
        return row.size, row.stabilizer_order, [exact(c) for c in row.character], [exact(c) for c in row.form.coeffs]

    assert [key(row) for row in character_table(group)] == [key(row) for row in character_table(kind)]
    assert character_table(group) == character_table(kind)
    assert existence_residues(group, 60) == existence_residues(kind, 60)
    d = min(d for d in range(2, 40) if platonic_existence(d, kind))
    assert invariant_locus_dimension(d, group) == invariant_locus_dimension(d, kind)


def test_relevant_divisors():
    degs = sorted(d.degree for d in relevant_divisors("tetra"))
    assert degs == [0, 4, 4, 6, 8, 10, 10, 14]
    degs = sorted(d.degree for d in relevant_divisors("octa"))
    assert degs == [0, 6, 8, 12, 14, 18, 20, 26]
    degs = sorted(d.degree for d in relevant_divisors("icosa"))
    assert degs == [0, 12, 20, 30, 32, 42, 50, 62]


def test_relevant_pairs():
    for kind, n in (("tetra", 12), ("octa", 24), ("icosa", 60)):
        pairs = relevant_pairs(kind)
        assert len(pairs) == 8
        for p in pairs:
            assert (p.d2.degree - p.d1.degree - 2) % n == 0
    tetra = relevant_pairs("tetra")
    empty_d2 = next(p for p in tetra if p.d2.degree == 0)
    assert empty_d2.d1.degree == 22
    octa = relevant_pairs("octa")
    six = next(p for p in octa if p.d2.degree == 6)
    assert six.d1.degree == 28
    assert (6 - 28 - 2) % 24 == 0


def test_fiber_dimensions():
    octa = platonic_group("octa")
    d6 = next(dv for dv in relevant_divisors("octa") if dv.degree == 6)
    assert fiber_dimension(5, octa, d6) == 0
    tetra = platonic_group("tetra")
    pair = next(p for p in relevant_pairs("tetra") if p.degrees == (6, 8))
    assert fiber_dimension(7, tetra, pair) == 2 * 7 // 12 + 1 - (6 + 8) // 12 == 1
    with pytest.raises(NotInImage):
        fiber_dimension(6, octa, d6)
    with pytest.raises(NotInImage):
        fiber_dimension(3, tetra, pair)  # degrees exceed the bounds


def test_bracket_identity_for_all_pairs():
    # [(deg D1 + deg D2)/|G|] = 1 for every relevant pair of every group
    for kind, n in (("tetra", 12), ("octa", 24), ("icosa", 60)):
        for p in relevant_pairs(kind):
            assert (p.d1.degree + p.d2.degree) // n == 1


def test_existence():
    for d in range(2, 30):
        assert platonic_existence(d, "tetra") == (d % 2 == 1)
    from math import gcd

    for d in range(2, 40):
        assert platonic_existence(d, "octa") == (gcd(d, 6) == 1)
    assert platonic_existence(11, "icosa")
    assert not platonic_existence(21, "icosa")
    assert sorted(existence_residues("icosa", 30)) == [1, 11, 19, 29]
    assert sorted(existence_residues("icosa", 60)) == [1, 11, 19, 29, 31, 41, 49, 59]


def test_existence_matches_the_residues_up_to_600():
    # A_4 needs d odd, S_4 gcd(d, 6) = 1, A_5 d = 1, 11, 19, 29 (mod 30)
    from math import gcd

    rules = {
        "tetra": lambda d: d % 2 == 1,
        "octa": lambda d: gcd(d, 6) == 1,
        "icosa": lambda d: d % 30 in (1, 11, 19, 29),
    }
    for kind, rule in rules.items():
        assert [d for d in range(2, 601) if platonic_existence(d, kind)] == [d for d in range(2, 601) if rule(d)], kind


def oracle_existence_data(group):
    """_existence_data by the old route: each of the 2^3 subsets of the
    degenerate orbits added up as a Divisor, its degree read off."""
    n, orbs = group.order, [div for div, _ in platonic._orbit_forms(group)[0]]
    divs = [sum((orb for i, orb in enumerate(orbs) if mask >> i & 1), Divisor()) for mask in range(1 << len(orbs))]
    return n, {deg % n: deg for deg in sorted((div.degree for div in divs), reverse=True)}


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_existence_data_matches_the_divisor_sums(kind):
    group = platonic_group(kind)
    assert platonic._existence_data(group) == oracle_existence_data(group)


def _relabelled_octa():
    # octa conjugated by an SL_2(Z) matrix: other orbit points, the same sizes
    group, m = platonic_group("octa"), MoebiusMap(2, 1, 1, 1)
    inv = m.inverse()
    return FiniteSubgroup([inv.compose(e).compose(m) for e in group.elements], label="octa-conjugate",
                          generators=[inv.compose(g).compose(m) for g in group.generators])


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa", "relabelled"])
def test_existence_data_adds_no_divisors(kind, monkeypatch):
    group = _relabelled_octa() if kind == "relabelled" else platonic_group(kind)
    want = oracle_existence_data(group)  # also warms the orbit data
    platonic._existence_data.cache_clear()
    added, real = [], Divisor.__add__
    monkeypatch.setattr(Divisor, "__add__", lambda x, y: added.append(1) or real(x, y))
    got = platonic._existence_data(group)
    assert added == []
    assert got == want


def test_invariant_locus_dimension_small():
    assert invariant_locus_dimension(5, "tetra") == 0
    assert invariant_locus_dimension(7, "tetra") == 1
    assert invariant_locus_dimension(5, "octa") == 0
    with pytest.raises(NotRealizable):
        invariant_locus_dimension(4, "tetra")


def test_construct_degree5_octa_is_the_classic_map():
    phi, report = construct_symmetric_map(5, "octa")
    assert report.all_verified and len(report.verified_elements) == 24
    # the construction lands exactly on [X^5 - 5XY^4 : -5X^4Y + Y^5]
    from symloci.forms import BinaryForm, RationalMap

    classic = RationalMap(
        BinaryForm(5, [1, 0, 0, 0, -5, 0]), BinaryForm(5, [0, -5, 0, 0, 0, 1])
    )
    assert phi.proportional_to(classic)
    assert phi.is_in_ratd()


def test_construct_various():
    phi, report = construct_symmetric_map(7, "tetra")
    assert phi.degree == 7 and len(report.verified_elements) == 12
    assert phi.is_in_ratd()
    phi, report = construct_symmetric_map(13, "octa")
    assert phi.degree == 13 and len(report.verified_elements) == 24
    with pytest.raises(NotRealizable):
        construct_symmetric_map(4, "tetra")
    with pytest.raises(NotRealizable):
        construct_symmetric_map(6, "octa")


def test_construct_with_padding_orbit():
    # d = 15 tetra: relevant divisor degree 4, needs one full padding orbit
    phi, report = construct_symmetric_map(15, "tetra")
    assert phi.degree == 15
    assert report.all_verified
    pair = decompose_map(phi)
    assert pair.H.is_zero()


def test_padding_gives_up_when_every_candidate_orbit_is_short():
    # a group of order 2 that fixes every point: each candidate is rejected,
    # so only the budget of 2 + 50 * (count + 1) candidates ends the search
    calls = []

    class FixesEverything:
        order = 2

        def orbit(self, p):
            calls.append(p)
            if len(calls) > 1000:
                pytest.fail("the padding search ran past its budget")
            return [p]

    with pytest.raises(ConstructionFailed, match="padding orbits"):
        _padding_orbits(FixesEverything(), 1, set())
    assert len(calls) <= 102


def test_invariant_eigenvalue_lemma():
    g3 = next(e for e in platonic_group("tetra").elements if e.projective_order() == 3)
    val = invariant_eigenvalue_check(platonic_group("tetra"), P1Point.affine(5), g3.sl2_lift())
    assert val == ONE  # (-1)^(12/3)
    g4 = next(e for e in platonic_group("octa").elements if e.projective_order() == 4)
    assert invariant_eigenvalue_check(platonic_group("octa"), P1Point.affine(7), g4.sl2_lift()) == ONE
    from symloci.moebius import standard_subgroup

    d3 = standard_subgroup("dihedral", 3)
    g2 = next(e for e in d3.elements if e.projective_order() == 2)
    assert invariant_eigenvalue_check(d3, P1Point.affine(4), g2.sl2_lift()) == -ONE


def test_distinguished_element_u():
    # the sum of all degenerate points has degree |G| + 2 and trivial character
    for kind in ("tetra", "octa"):
        group = platonic_group(kind)
        u = Divisor()
        for row in character_table(kind):
            u = u + row.orbit
        assert u.degree == group.order + 2
        form = form_from_divisor(u)
        for g in group.generators:
            assert lifted_scalar(form, g) == ONE


def _seeded_search(d, group, char, tries=24):
    # the search that used to decide every stratum: does one of the first
    # `tries` seeded members meet Rat_d?
    from symloci.decomp import FormPair, meets_ratd
    from symloci.forms import BinaryForm
    from symloci.loci import _seed_coefficients
    from symloci.platonic import character_eigenspace

    bases = [(character_eigenspace(n, group, char), n) for n in (d - 1, d + 1)]
    for seed in range(tries):
        h, j = (
            sum((b * c for b, c in zip(basis, _seed_coefficients(seed, len(basis)))), BinaryForm.zero(n))
            for basis, n in bases
        )
        if not (h.is_zero() and j.is_zero()) and meets_ratd(FormPair(d, h, j)):
            return True
    return False


def test_no_symmetric_maps_where_existence_fails():
    # wherever the oracle says no (d <= 13), every character stratum is
    # empty or misses the map space; even d kill all strata outright
    # (the lifted -identity acts by -1 on odd-degree forms)
    from symloci.platonic import character_eigenspace

    for kind in ("tetra", "octa", "icosa"):
        group = platonic_group(kind)
        for d in range(2, 14):
            if platonic_existence(d, kind):
                continue
            for char in character_group(group):
                if d % 2 == 0:
                    h_basis = character_eigenspace(d - 1, group, char)
                    j_basis = character_eigenspace(d + 1, group, char)
                    assert not h_basis and not j_basis, (kind, d)
                    continue
                assert not _seeded_search(d, group, char, tries=12), (kind, d, char)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_obstruction_rule_matches_the_seeded_search(kind):
    # differential: on every non-empty stratum of odd d <= 31, realizable or
    # not, the exponent rule obstructs exactly where 24 seeds all miss
    from symloci.platonic import _obstructed, character_eigenspace

    group = platonic_group(kind)
    verdicts = set()
    for d in range(3, 32, 2):
        for char in character_group(group):
            if not (character_eigenspace(d - 1, group, char) or character_eigenspace(d + 1, group, char)):
                continue
            verdict = _obstructed(d, group, char)
            assert verdict == (not _seeded_search(d, group, char)), (kind, d, char)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_no_seed_is_spent_on_an_obstructed_stratum(monkeypatch):
    from symloci import platonic

    real_obstructed, real_seed = platonic._obstructed, platonic._seed_coefficients
    # each stratum's verdict, and the verdict of the stratum each seed is
    # drawn for by the member test on the quotient
    verdicts, searched = [], []

    def obstructed(d, group, char):
        verdicts.append(real_obstructed(d, group, char))
        return verdicts[-1]

    def seed_coefficients(seed, count):
        searched.append(verdicts[-1])
        return real_seed(seed, count)

    monkeypatch.setattr(platonic, "_obstructed", obstructed)
    monkeypatch.setattr(platonic, "_seed_coefficients", seed_coefficients)
    for kind, d in (("tetra", 15), ("octa", 13), ("icosa", 31), ("tetra", 61)):
        assert invariant_locus_dimension(d, kind) == 2 * d // platonic_group(kind).order
    assert True in verdicts and searched and True not in searched


def test_product_rows_are_built_only_for_the_spaces_the_member_search_reads(monkeypatch):
    import contextlib
    import io

    from symloci.cli import main

    # survey --d 2..61 --groups platonic: no orbit product is multiplied out,
    # a seed is drawn and a Euclid run only inside _member_meets, on lists
    # of at most (d + 1) // |G| + 1 entries, and the strata dropped by
    # _obstructed or by dim <= best draw no seed
    real_seed, real_meets, real_obstructed = (
        platonic._seed_coefficients, platonic._member_meets, platonic._obstructed
    )
    real_coprime = platonic._coprime_images
    for group in map(platonic_group, ("tetra", "octa", "icosa")):
        platonic._branch_value(group)  # the premise and the syzygy, cached before the spies
    seeded, searched, obstructed, current = set(), set(), set(), []

    def seed_coefficients(seed, count):
        assert current, "a seed drawn outside _member_meets"
        seeded.add(current[-1])
        return real_seed(seed, count)

    def coprime(images, p):
        assert current, "a Euclid run outside _member_meets"
        d, label, _ = current[-1]
        bound = (d + 1) // platonic_group(label).order + 1
        assert all(len(f) <= bound for f in images), (current, list(map(len, images)))
        return real_coprime(images, p)

    def member_meets(d, group, char, tries):
        searched.add(key := (d, group.label, char))
        current.append(key)
        try:
            return real_meets(d, group, char, tries)
        finally:
            current.pop()

    def is_obstructed(d, group, char):
        if verdict := real_obstructed(d, group, char):
            obstructed.add((d, group.label, char))
        return verdict

    monkeypatch.setattr(platonic, "_product_mod", lambda *args: pytest.fail("an orbit product multiplied out"))
    monkeypatch.setattr(platonic, "_seed_coefficients", seed_coefficients)
    monkeypatch.setattr(platonic, "_coprime_images", coprime)
    monkeypatch.setattr(platonic, "_member_meets", member_meets)
    monkeypatch.setattr(platonic, "_obstructed", is_obstructed)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["survey", "--d", "2..61", "--groups", "platonic"]) == 0
    assert seeded == searched and searched
    dropped = {
        (d, group.label, char)
        for group in map(platonic_group, ("tetra", "octa", "icosa"))
        for d in range(2, 62)
        if platonic_existence(d, group)
        for char in character_group(group)
        if (d, group.label, char) not in searched
    }
    # both kinds of drop occur
    assert dropped & obstructed and dropped - obstructed


def test_certificate_checks_survive_python_O():
    # the certificate checks are explicit raises, not asserts that -O strips;
    # checks no honest input reaches are fed a monkeypatched helper
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symloci

    script = """
import sys
from symloci import cyclotomic, decomp, loci, platonic
from symloci.cyclotomic import Cyclotomic
from symloci.forms import BinaryForm
from symloci.platonic import lifted_scalar, platonic_group
assert False, "asserts must be stripped under -O"
g = platonic_group("octa").generators[1]
minus_one = Cyclotomic.rational(-1)


def rejected(probe):
    try:
        probe()
    except AssertionError as exc:
        print("rejected:", exc)
        return True
    return False


def wrong_sqrt():
    cyclotomic.rational_sqrt = lambda q: Cyclotomic.rational(3)
    return Cyclotomic.rational(4).sqrt()


def wrong_phi():
    real = cyclotomic._phi
    cyclotomic._phi = lambda n: real(n) - 1
    try:
        return cyclotomic._cyclotomic_int_coeffs.__wrapped__(12)
    finally:
        cyclotomic._phi = real


def wrong_eigenvalue():
    decomp.diagonal_eigenvalue = lambda f, eta: minus_one
    return decomp.eigenform_classify(BinaryForm(2, [0, 1, 0]), 1, minus_one)


def wrong_eigenspace():
    loci.commuting_space_basis = lambda d, m, lam: []
    return loci.cyclic_existence_and_dim(3, 2)


def wrong_stalk_orders():
    # a walk whose t = 0 components read orders 4 and 2
    loci._strata = lambda d, m: [(0, 2, {"inf": 1, "zero": 2})]
    return loci.stalk_order_from_eigenvalue(4, 2, 0)


def with_exponents(exps, probe):
    # every orbit-product space read as exps
    real = platonic._orbit_exponents
    platonic._orbit_exponents = lambda n, group, char: exps
    try:
        return probe()
    finally:
        platonic._orbit_exponents = real


def wrong_syzygy():
    # a char_3^2 space of degree |G| other than span(U, V)
    return with_exponents((), lambda: platonic._branch_value(platonic_group("octa")))


def wrong_shape():
    # two products whose first exponents differ by 1, not by s_1 = 3
    group = platonic_group("tetra")
    platonic._branch_value(group)
    return with_exponents(((0, 3, 0), (1, 2, 0)), lambda: platonic._member_meets(11, group, (), 1))


probes = [
    wrong_syzygy,  # before wrong_sqrt, which the platonic groups read
    wrong_shape,
    lambda: lifted_scalar(BinaryForm(2, [1, 0, 0]), g),  # X^2 is not an eigenform
    wrong_phi,
    lambda: cyclotomic._int_modular_inverse([1, 1], [-1, 0, 1]),  # x + 1 divides x^2 - 1
    wrong_sqrt,
    wrong_eigenvalue,
    wrong_eigenspace,
    wrong_stalk_orders,
]
sys.exit(0 if all([rejected(p) for p in probes]) else 1)
"""
    src = str(Path(symloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for message in (
        "not an eigenvector",
        "no monic polynomial",
        "share a factor",
        "does not square back",
        "eigenvalue disagrees with the classification",
        "eigenspace count disagrees with the formula",
        "must give the same order",
        "prove no syzygy f_3^2 = alpha U + beta V",
        "no orbit part times a form in U, V",
    ):
        assert message in proc.stdout, proc.stdout
