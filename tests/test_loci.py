"""Cyclic and dihedral locus dimensions, stalk data, generic members."""

import pytest

from symloci.aut import automorphism_type, is_automorphism, verify_group_action
from symloci.cyclotomic import Cyclotomic
from symloci.loci import (
    NoMemberFound,
    codimension_values,
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
    res = dict(cyclic_existence_and_dim(6, 3))
    rep = res[0]
    assert rep.components == 2
    b_inf = rep.certificate["bases"]["inf"]
    b_zero = rep.certificate["bases"]["zero"]
    assert len(b_inf) == len(b_zero) == rep.dim_ratd + 1
    assert b_inf != b_zero
    assert rep.certificate["eigenvalues"]["inf"] != rep.certificate["eigenvalues"]["zero"]


def test_generic_members_verified():
    phi = generic_member(3, 2, 1)
    sigma = MoebiusMap.scaling(-1)
    assert phi.is_in_ratd()
    assert is_automorphism(phi, sigma)
    assert automorphism_type(phi, sigma) == 1
    phi = generic_member(2, 3, -1)
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
            for mu in (1, -1):
                with pytest.raises(ValueError, match="m >= 2"):
                    dihedral_generic_member(d, 1, t, mu)


def test_member_search_on_bases_longer_than_the_search_values():
    # more than 12 basis vectors: the seeded coefficients must not repeat
    # with period 12, or F and G share a factor at every seed
    for d, m in [(23, 2), (34, 3), (35, 3), (45, 4)]:
        reps = cyclic_existence_and_dim(d, m)
        assert reps and all(rep.exists and rep.certificate["member"].is_in_ratd() for _, rep in reps)
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
        phi = cert["member"]
        rep = verify_group_action(phi, standard_subgroup("dihedral", 2))
        assert rep.all_verified


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


def test_lambda_is_the_power_of_eta_entry_for_entry():
    from symloci.loci import _lambda_for

    for d in range(2, 42):
        for m in range(2, d + 2):
            eta = Cyclotomic.zeta(2 * m)
            for t, comp, e in ((1, "inf", d - 1), (0, "inf", d - 1), (0, "zero", d + 1), (-1, "zero", d + 1)):
                got, want = _lambda_for(d, m, t, comp), eta**e
                assert (got.n, got.nums, got.den) == (want.n, want.nums, want.den), (d, m, t, comp)


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
    for d in range(2, 11):
        for m in range(2, d + 2):
            for t in (1, 0, -1):
                if (d - t) % m or (d - t) // m < 1:
                    continue
                assert stalk_order(d, m, t) == stalk_order_from_eigenvalue(d, m, t), (d, m, t)


def test_codimension_values():
    for d in range(2, 11):
        vals = codimension_values(d)
        assert vals["max_dim_moduli"] == d - 1
        assert vals["codim_in_ratd"] == d - 1
        # dim M_d = 2d - 2, so the order-2 locus is a curve in the plane M_2
        assert vals["codim_in_moduli"] == d - 1


def test_survey_rows_all_match():
    rows = survey_rows(4)
    assert rows and all(r["match"] for r in rows)
    groups = {r["group"] for r in rows}
    assert "cyclic:2" in groups and "dihedral:2" in groups


def test_locus_report_json_serializable():
    import json

    for _, rep in cyclic_existence_and_dim(3, 2) + dihedral_dim(5, 2):
        json.dumps(rep.to_json())  # must not raise