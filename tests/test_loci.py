"""Cyclic and dihedral locus dimensions, stalk data, generic members."""

import os
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from symloci.aut import automorphism_type, is_automorphism, verify_group_action
from symloci.cyclotomic import Cyclotomic
from symloci.forms import BinaryForm, RationalMap, distinct_common_roots_count
from symloci.loci import (
    NoMemberFound,
    commuting_space_basis,
    cyclic_existence_and_dim,
    dihedral_basis,
    dihedral_dim,
    generic_member,
    stalk_eigenvalue,
    stalk_order,
    stalk_order_from_eigenvalue,
    survey_rows,
)
from symloci.moebius import MoebiusMap, standard_subgroup


def test_cyclic_spec_examples():
    res = dict(cyclic_existence_and_dim(2, 2))
    assert list(res) == [0] and res[0].dim_moduli == 1 and res[0].components == 2
    res = dict(cyclic_existence_and_dim(3, 2))
    assert set(res) == {1, -1}
    assert res[1].dim_moduli == res[-1].dim_moduli == 2  # dim A_2 = d - 1
    res = dict(cyclic_existence_and_dim(3, 4))
    assert list(res) == [-1] and res[-1].dim_moduli == 0


def test_commuting_space_basis_examples():
    minus1, plus1 = Cyclotomic.rational(-1), Cyclotomic.rational(1)
    assert commuting_space_basis(3, 2, minus1) == [("a", 0), ("a", 2), ("b", 1), ("b", 3)]
    assert commuting_space_basis(3, 2, plus1) == [("a", 1), ("a", 3), ("b", 0), ("b", 2)]
    assert commuting_space_basis(2, 3, Cyclotomic.zeta(6, 2)) == []


def test_eigenspace_dimension_matches_formula_everywhere():
    for d in range(2, 11):
        for m in range(2, d + 2):
            for t, rep in cyclic_existence_and_dim(d, m):
                for comp, idx in rep.certificate["bases"].items():
                    assert len(idx) == rep.dim_ratd + 1, (d, m, t, comp)
                assert rep.dim_moduli == 2 * (d - t) // m + t - 1


def test_two_component_split_at_t0():
    from symloci.loci import _strata

    res = dict(cyclic_existence_and_dim(6, 3))
    rep = res[0]
    assert rep.components == 2
    b_inf = rep.certificate["bases"]["inf"]
    b_zero = rep.certificate["bases"]["zero"]
    assert len(b_inf) == len(b_zero) == rep.dim_ratd + 1
    assert b_inf != b_zero
    (t0_exponents,) = [exps for t, _, exps in _strata(6, 3) if t == 0]
    assert t0_exponents["inf"] != t0_exponents["zero"]


def test_generic_members_verified():
    phi = RationalMap.from_zpoly(*generic_member(3, 2, 1))
    sigma = MoebiusMap.scaling(-1)
    assert phi.is_in_ratd()
    assert is_automorphism(phi, sigma)
    assert automorphism_type(phi, sigma) == 1
    phi = RationalMap.from_zpoly(*generic_member(2, 3, -1))
    zeta3 = MoebiusMap.scaling(Cyclotomic.zeta(3))
    assert automorphism_type(phi, zeta3) == -1
    with pytest.raises(NoMemberFound):
        generic_member(4, 5, 0)  # 5 divides neither d nor d-+1


def test_member_search_rejects_order_one():
    from symloci.loci import dihedral_generic_member

    for d in (3, 4):
        for t in (1, 0, -1):
            with pytest.raises(ValueError, match="m >= 2"):
                generic_member(d, 1, t)
            with pytest.raises(ValueError, match="m >= 2"):
                dihedral_basis(d, 1, t, 1)
            for mu in (1, -1):
                with pytest.raises(ValueError, match="m >= 2"):
                    dihedral_generic_member(d, 1, t, mu)


def test_a_bad_component_name_is_refused():
    # t = 0 at d = 4, m = 2 has both components; another name used to read
    # as a missing stratum (generic_member) or an empty basis (dihedral_basis)
    for find in (lambda c: generic_member(4, 2, 0, c), lambda c: dihedral_basis(4, 2, 0, 1, c)):
        for bad in ("foo", "", "Inf"):
            with pytest.raises(ValueError, match=f"component must be 'inf', 'zero' or None, not {bad!r}"):
                find(bad)
    with pytest.raises(ValueError, match="not 'foo'"):
        generic_member(3, 2, 1, "foo")  # a one-component type refuses the name too
    assert generic_member(4, 2, 0, "zero") != generic_member(4, 2, 0, "inf")
    assert dihedral_basis(4, 2, 0, 1, "zero") == dihedral_basis(4, 2, 0, 1, None) == []


def test_a_t_0_member_without_a_component_name_is_refused():
    # None selects neither t = 0 component, so the call must ask for one
    # and not report the stratum missing
    for d, m in ((4, 2), (6, 3), (12, 2)):
        with pytest.raises(ValueError, match="name 'inf' or 'zero'"):
            generic_member(d, m, 0, None)
    assert generic_member(3, 2, 1, None) == generic_member(3, 2, 1)  # one component: None is fine
    assert dihedral_basis(6, 3, 0, -1, None) == []


def test_member_search_on_bases_longer_than_the_search_values():
    # more than 12 basis vectors: the seeded coefficients must not repeat
    # with period 12, or F and G share a factor at every seed
    for d, m in [(23, 2), (34, 3), (35, 3), (45, 4)]:
        reps = cyclic_existence_and_dim(d, m)
        assert reps and all(rep.exists and RationalMap.from_zpoly(*rep.certificate["member"]).is_in_ratd() for _, rep in reps)
    for t, rep in dihedral_dim(47, 2):
        assert rep.exists and rep.certificate["signs_realized"] == [1, -1], t


def test_nonexistence_when_m_divides_nothing():
    # m = 4, d = 6: m divides none of d, d+-1 -> no eigenspace carries a map
    for t in (1, 0, -1):
        assert (6 - t) % 4 != 0
    assert dict(cyclic_existence_and_dim(6, 4)) == {}


def test_cyclic_monotonicity_remark():
    # d-1 = dim A_2 > dim A_m >= dim A_n for 2 < m < n
    for d in range(2, 11):
        dims = {}
        for m in range(2, d + 2):
            reps = cyclic_existence_and_dim(d, m)
            if reps:
                dims[m] = max(rep.dim_moduli for _, rep in reps)
        if 2 in dims:
            assert dims[2] == d - 1
            for m, dim in dims.items():
                if m > 2:
                    assert dim < dims[2]
        ms = sorted(m for m in dims if m > 2)
        for m1, m2 in zip(ms, ms[1:]):
            assert dims[m1] >= dims[m2]


def test_dihedral_spec_examples():
    res = dict(dihedral_dim(5, 2))
    assert res[1].dim_moduli == 2 and res[-1].dim_moduli == 2
    res = dict(dihedral_dim(4, 2))
    assert list(res) == [0] and not res[0].exists
    res = dict(dihedral_dim(2, 3))
    assert res[-1].exists and res[-1].dim_moduli == 0


def test_dihedral_members_and_signs():
    res = dict(dihedral_dim(5, 2))
    for t in (1, -1):
        cert = res[t].certificate
        assert cert["signs_realized"], "at least one inversion sign must produce members"
        phi = RationalMap.from_zpoly(*cert["member"])
        rep = verify_group_action(phi, standard_subgroup("dihedral", 2))
        assert rep.all_verified


def test_dihedral_members_are_proved_fixed_by_the_inversion(monkeypatch):
    # every seeded candidate already commutes with zeta_m z; only the 1/z
    # test rules out a map the inversion does not fix
    from symloci import loci

    fixes = loci._fixes
    monkeypatch.setattr(loci, "_fixes", lambda phi, g: g != MoebiusMap.inversion() and fixes(phi, g))
    assert loci.generic_member(7, 3, 1)
    with pytest.raises(NoMemberFound, match="no dihedral member for d=7 m=3 t=1 mu=1"):
        loci.dihedral_generic_member(7, 3, 1, 1)


def test_family_survey_builds_no_group(monkeypatch):
    # members are proved by their generators: with the group cache cold,
    # a cyclic and dihedral survey still builds no FiniteSubgroup
    from functools import lru_cache

    from symloci import cli, moebius

    cold = lru_cache(maxsize=None)(moebius._standard_subgroup.__wrapped__)
    monkeypatch.setattr(moebius, "_standard_subgroup", cold)
    built, init = [], moebius.FiniteSubgroup.__init__
    spy = lambda self, *a, **k: built.append(a) or init(self, *a, **k)  # noqa: E731
    monkeypatch.setattr(moebius.FiniteSubgroup, "__init__", spy)
    assert cli.main(["survey", "--groups", "cyclic,dihedral", "--d", "9", "--out", os.devnull]) == 0
    assert built == []


def test_the_survey_reads_its_members_from_the_public_functions(monkeypatch):
    # survey_rows finds its reports and members through the module's public
    # functions, so a wrapper on them (as the benchmark tracer installs) sees
    # every call; each member stays two int lists and no BinaryForm is built
    from symloci import forms, loci

    calls = Counter()

    def spy(name):
        fn = getattr(loci, name)
        return lambda *a, **k: calls.update([name]) or fn(*a, **k)

    for name in ("generic_member", "dihedral_generic_member", "cyclic_existence_and_dim", "dihedral_dim"):
        monkeypatch.setattr(loci, name, spy(name))
    built, init = [], forms.BinaryForm.__init__
    monkeypatch.setattr(forms.BinaryForm, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    for d in range(8, 12):
        loci.survey_rows(d)
    assert calls == {"generic_member": 29, "dihedral_generic_member": 40, "cyclic_existence_and_dim": 38, "dihedral_dim": 38}
    assert built == []


def test_the_type_read_from_two_coefficients_matches_the_gcd_route(monkeypatch):
    # every candidate the cyclic and dihedral surveys type for d <= 16,
    # members and rejected seeds alike, under sigma = zeta_m z
    from symloci import loci

    seen, verified_type = [], loci._verified_type
    monkeypatch.setattr(loci, "_verified_type", lambda phi, sigma: seen.append((phi, sigma)) or verified_type(phi, sigma))
    for d in range(2, 17):
        survey_rows(d)
    assert len({sigma.a for _, sigma in seen}) == 16  # zeta_m for m = 2..17
    for (F, G), sigma in seen:
        # the search types its candidates as two lists of ints; the gcd route needs the map
        phi = RationalMap(BinaryForm(len(F) - 1, F), BinaryForm(len(G) - 1, G))
        assert not sigma.b and not sigma.c and sigma.d == 1
        gcd_route = distinct_common_roots_count(phi.fixed_point_form(), sigma.fixed_point_form()) - 1
        assert verified_type((F, G), sigma) == verified_type(phi, sigma) == gcd_route


def oracle_search(d, vecs, gens, t, budget, exhausted):
    """The member search with every candidate built as a RationalMap and
    proved by the exact tests: is_in_ratd, is_automorphism under each
    generator, automorphism_type under gens[0]; the member's two int lists."""
    from symloci.loci import _seed_coefficients

    for seed in range(budget):
        coeffs = {"a": [0] * (d + 1), "b": [0] * (d + 1)}
        for c, vec in zip(_seed_coefficients(seed, len(vecs)), vecs):
            for (side, k), x in vec.items():
                coeffs[side][k] += c * x
        phi = RationalMap(BinaryForm(d, coeffs["a"]), BinaryForm(d, coeffs["b"]))
        if phi.is_in_ratd() and all(is_automorphism(phi, g) for g in gens) and automorphism_type(phi, gens[0]) == t:
            return coeffs["a"], coeffs["b"]
    raise NoMemberFound(exhausted)


def _member_outcomes(budget):
    # the member's int lists (F, G), or the NoMemberFound message, of every cyclic
    # (each component) and dihedral (each sign) stratum for d = 2..30
    from symloci.loci import _strata, dihedral_generic_member

    def outcome(search, *args):
        try:
            return search(*args, budget=budget)
        except NoMemberFound as exc:
            return f"NoMemberFound: {exc}"

    out = {}
    for d in range(2, 31):
        for m in range(2, d + 2):
            for t, _, exps in _strata(d, m):
                for comp in exps:
                    out["cyclic", d, m, t, comp] = outcome(generic_member, d, m, t, comp)
                for mu in (1, -1):
                    out["dihedral", d, m, t, mu] = outcome(dihedral_generic_member, d, m, t, mu)
    return out


@pytest.mark.parametrize("budget", [64, 1, 0])
def test_the_search_on_int_lists_matches_the_exact_oracle(monkeypatch, budget):
    # every stratum has its member at seed 0, so budget 1 returns the same
    # members and budget 0 exhausts every nonempty stratum
    from symloci import loci

    got = _member_outcomes(budget)
    monkeypatch.setattr(loci, "_search", oracle_search)
    assert got == _member_outcomes(budget)
    exhausted = sum(isinstance(v, str) and "empty" not in v for v in got.values())
    assert exhausted == (627 if budget == 0 else 0) and len(got) == 789


@st.composite
def _search_cases(draw):
    # the vectors of a stratum's eigenspace or of any eigenspace of zeta_m z,
    # perhaps with one index from elsewhere, or a dihedral basis; any claimed
    # type; with or without 1/z.  The candidates fail the type, a generator
    # or Rat_d, or pass.  Each index is in one vector, so no coefficient cancels.
    from symloci.loci import _eigenspace, _rotation

    d = draw(st.integers(2, 12))
    m = draw(st.integers(2, d + 1))
    t = draw(st.sampled_from([1, 0, -1]))
    gens = [_rotation(m), MoebiusMap.inversion()] if draw(st.booleans()) else [_rotation(m)]
    if len(gens) == 2 and draw(st.booleans()):
        vecs = dihedral_basis(d, m, t, draw(st.sampled_from([1, -1])))
    else:
        j = draw(st.sampled_from([(d - 1) % (2 * m), (d + 1) % (2 * m), draw(st.integers(0, 2 * m - 1))]))
        extra = draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, d)), max_size=1))
        indices = list(dict.fromkeys(_eigenspace(d, m, j) + extra))
        cuts = sorted(draw(st.lists(st.integers(1, max(len(indices), 1)), max_size=3)))
        vecs = [dict.fromkeys(indices[i:k], draw(st.sampled_from([1, -1, 2]))) for i, k in zip([0, *cuts], [*cuts, len(indices)])]
    vecs = [v for v in vecs if v]
    assume(vecs)
    return d, vecs, gens, t, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_search_cases())
def test_the_search_rejects_what_the_exact_oracle_rejects(case):
    from symloci.loci import _search

    def outcome(search):
        try:
            return search(*case, "exhausted")
        except NoMemberFound as exc:
            return str(exc)

    assert outcome(_search) == outcome(oracle_search)


def test_dihedral_t0_strata_empty():
    for d, m in [(4, 2), (6, 3), (9, 3)]:
        for mu in (1, -1):
            for comp in ("inf", "zero"):
                assert dihedral_basis(d, m, 0, mu, comp) == []


def test_stalk_eigenvalue_examples():
    eta = Cyclotomic.zeta(8)
    assert stalk_eigenvalue(4, ("a", 0), eta) == eta**3
    assert stalk_eigenvalue(3, ("b", 2), eta) == Cyclotomic.rational(1)
    # consistency: all populated indices of an eigenspace give the same value
    lam = Cyclotomic.rational(-1)
    eta4 = Cyclotomic.zeta(4)
    for idx in commuting_space_basis(3, 2, lam):
        assert stalk_eigenvalue(3, idx, eta4) == lam


def test_commuting_space_basis_matches_per_index_scan():
    # oracle: the per-index scan, one stalk_eigenvalue power per coefficient
    for m in range(2, 13):
        eta = Cyclotomic.zeta(2 * m)
        lams = [eta**j for j in range(2 * m)]
        for d in range(2, 41):
            indices = [(side, k) for side in "ab" for k in range(d + 1)]
            eigs = [stalk_eigenvalue(d, idx, eta) for idx in indices]
            for lam in lams:
                want = [idx for idx, e in zip(indices, eigs) if e == lam]
                assert commuting_space_basis(d, m, lam) == want, (d, m, lam)
    # an eigenvalue that is no power of eta has an empty eigenspace
    assert commuting_space_basis(5, 3, Cyclotomic.rational(2)) == []


def test_commuting_space_basis_matches_the_frozenset_scan():
    # oracle: every j < 2m with zeta_2m^j = lam, as a set, then the same
    # exponent filter
    for m in range(1, 9):
        lams = [Cyclotomic.zeta(2 * m, j) for j in range(2 * m)] + [1 + Cyclotomic.zeta(5)]
        for lam in lams:
            hit = frozenset(j for j in range(2 * m) if Cyclotomic.zeta(2 * m, j) == lam)
            for d in range(1, 17):
                want = [("a", k) for k in range(d + 1) if (d - 2 * k - 1) % (2 * m) in hit] + [
                    ("b", k) for k in range(d + 1) if (d - 2 * k + 1) % (2 * m) in hit
                ]
                assert commuting_space_basis(d, m, lam) == want, (d, m, lam)


def test_lambda_is_the_power_of_eta_entry_for_entry():
    # oracle: the component/exponent table written out as e - d, each e
    # unreduced; the walk's e, reduced mod 2m, gives zeta_2m^e stored as eta**e
    from symloci.loci import _strata

    table = {1: {"inf": -1}, 0: {"inf": -1, "zero": 1}, -1: {"zero": 1}}
    for d in range(2, 42):
        for m in range(2, d + 2):
            eta = Cyclotomic.zeta(2 * m)
            strata = _strata(d, m)
            assert [t for t, _, _ in strata] == [t for t in (1, 0, -1) if (d - t) % m == 0], (d, m)
            for t, _, exps in strata:
                assert list(exps) == list(table[t]), (d, m, t)
                for comp, e in exps.items():
                    got, want = Cyclotomic.zeta(2 * m, e), eta ** (d + table[t][comp])
                    assert (got.n, got.nums, got.den) == (want.n, want.nums, want.den), (d, m, t, comp)


def test_the_search_reads_each_eigenspace_off_its_exponent(monkeypatch):
    # oracle: the basis of the eigenvalue itself, its exponent recovered by
    # commuting_space_basis; generic_member searches, and dihedral_basis
    # pairs, the eigenspace of the exponent the walk gives each component
    from symloci import loci
    from symloci.loci import _eigenspace, _strata

    def record(d, vecs, *rest):
        searched.append([next(iter(vec)) for vec in vecs])
        raise NoMemberFound("recorded")

    searched = []
    monkeypatch.setattr(loci, "_search", record)
    for d in range(2, 41):
        for m in range(2, d + 2):
            for t, _, exps in _strata(d, m):
                for comp, e in exps.items():
                    want = commuting_space_basis(d, m, Cyclotomic.zeta(2 * m, e))
                    assert _eigenspace(d, m, e) == want, (d, m, t, comp)
                    with pytest.raises(NoMemberFound, match="recorded"):
                        generic_member(d, m, t, comp)
                    assert searched.pop() == want, (d, m, t, comp)
                    a_side = [next(iter(vec)) for vec in dihedral_basis(d, m, t, 1, comp)]
                    assert a_side in ([], [ix for ix in want if ix[0] == "a"]), (d, m, t, comp)


def test_commuting_space_basis_looks_up_each_eigenvalue_once(monkeypatch):
    # after one call per (2m, lam), an equal lam builds no zeta_2m^j again
    lam, same = Cyclotomic.zeta(14, 3), Cyclotomic.zeta(14, 3)
    want = [commuting_space_basis(d, 7, lam) for d in (9, 12)]
    calls = []
    zeta = Cyclotomic.zeta
    monkeypatch.setattr(Cyclotomic, "zeta", classmethod(lambda cls, *a: calls.append(a) or zeta(*a)))
    assert [commuting_space_basis(d, 7, same) for d in (9, 12)] == want
    assert want[1] == [("a", 4), ("a", 11), ("b", 5), ("b", 12)]
    assert calls == []


def test_stalk_order_table():
    assert stalk_order(5, 2, 1) == 1
    assert stalk_order(6, 6, 0) == 12
    assert stalk_order(7, 3, 1) == 1
    assert stalk_order(3, 2, 1) == 2  # d' = 1 odd
    assert stalk_order(9, 3, 0) == 3  # d odd


def test_stalk_order_cross_validation():
    for d in range(2, 61):
        for m in range(2, d + 2):
            for t in (1, 0, -1):
                if (d - t) % m or (d - t) // m < 1:
                    continue
                assert stalk_order(d, m, t) == stalk_order_from_eigenvalue(d, m, t), (d, m, t)


def _types_without_a_stratum():
    # (d, m, t) with m not dividing d - t, d = 2..12, m = 2..d+1
    return [(d, m, t) for d in range(2, 13) for m in range(2, d + 2) for t in (1, 0, -1) if (d - t) % m]


def test_both_stalk_order_routes_refuse_a_type_without_a_stratum():
    triples = _types_without_a_stratum()
    assert len(triples) == 167
    for route in (stalk_order, stalk_order_from_eigenvalue):
        for d, m, t in triples:
            with pytest.raises(ValueError, match="m must divide d - t"):
                route(d, m, t)


def test_both_stalk_order_routes_raise_on_the_same_triples():
    # a type outside {1, 0, -1} has no stratum: stalk_order(6, 2, 2) used to
    # return 4 through the t = 0 branch, as 2 divides 6 - 2
    def raises(route, d, m, t):
        try:
            route(d, m, t)
        except ValueError:
            return True
        return False

    with pytest.raises(ValueError, match="m must divide d - t"):
        stalk_order(6, 2, 2)
    # d = 1 and m = 1 have no strata either: both routes returned 1 for (3, 1, 0)
    triples = [(d, m, t) for d in range(1, 41) for m in range(1, d + 2) for t in range(-3, 4)]
    verdicts = [raises(stalk_order, *x) for x in triples]
    assert verdicts == [raises(stalk_order_from_eigenvalue, *x) for x in triples]
    assert all(verdicts[i] for i, (d, m, t) in enumerate(triples) if abs(t) > 1 or min(d, m) < 2)
    assert not all(verdicts)


def test_a_type_without_a_stratum_searches_no_seed(monkeypatch):
    from symloci import loci
    from symloci.loci import dihedral_generic_member

    monkeypatch.setattr(loci, "_search", lambda *args: pytest.fail(f"searched {args}"))
    triples = _types_without_a_stratum()
    assert sum(t == 0 for _, _, t in triples) == 54
    for d, m, t in triples:
        for comp in ("inf", "zero"):
            with pytest.raises(NoMemberFound, match=f"no stratum of type t={t} for d={d} m={m}"):
                generic_member(d, m, t, comp)
        for mu in (1, -1):
            with pytest.raises(NoMemberFound, match="empty dihedral stratum"):
                dihedral_generic_member(d, m, t, mu)


def test_survey_rows_all_match():
    rows = survey_rows(4)
    assert rows and all(r["match"] for r in rows)
    groups = {r["group"] for r in rows}
    assert "cyclic:2" in groups and "dihedral:2" in groups


def test_a_certificate_holds_only_what_the_commands_read():
    for d in range(2, 41):
        for m in range(2, d + 2):
            for t, rep in cyclic_existence_and_dim(d, m):
                assert set(rep.certificate) == {"bases", "member"}, (d, m, t)
            for t, rep in dihedral_dim(d, m):
                if t:
                    assert set(rep.certificate) == {"free_parameters", "signs_realized", "member"}, (d, m, t)
                else:
                    assert rep.certificate == {"free_parameters": 0}, (d, m)
