"""Character eigenspaces: the shared power table and the per-process cache
against the original one-substitution-per-monomial construction."""

import contextlib
import io

import pytest

from symloci import platonic
from symloci.cli import main
from symloci.cyclotomic import ExactMatrix
from symloci.forms import BinaryForm, substitute
from symloci.moebius import FiniteSubgroup, MoebiusMap
from symloci.platonic import character_eigenspace, character_group, platonic_group


def oracle_eigenspace(n, group, char):
    """The eigenspace without the shared power table: the substitution
    matrix from one ``substitute`` call per monomial.  Each generator acts
    through its determinant-1 lift, so odd n is solved as a system rather
    than short-cut."""
    stacked = []
    for g, chi in zip(group.generators, char):
        lift = g.sl2_lift()
        cols = [substitute(BinaryForm.monomial(n, k), lift).coeffs for k in range(n + 1)]
        for i in range(n + 1):
            row = [cols[k][i] for k in range(n + 1)]
            row[i] = row[i] - chi
            stacked.append(row)
    return [BinaryForm(n, vec) for vec in ExactMatrix.from_rows(stacked).kernel_basis()]


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_eigenspace_matches_per_monomial_oracle(kind):
    group = platonic_group(kind)
    for char in character_group(group):
        for n in (10, 12, 14):
            expected = oracle_eigenspace(n, group, char)
            assert character_eigenspace(n, group, char) == expected, (kind, n, char)
            # a second call is served from the cache and agrees as well
            assert character_eigenspace(n, group, char) == expected


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_odd_degree_has_no_eigenforms(kind):
    # the shortcut in character_eigenspace against the full stacked system
    group = platonic_group(kind)
    for char in character_group(group):
        for n in (9, 11, 13):
            assert oracle_eigenspace(n, group, char) == []
            assert character_eigenspace(n, group, char) == []


def test_eigenspace_does_not_depend_on_the_generator_scale():
    group = platonic_group("octa")
    doubled = FiniteSubgroup(
        group.elements,
        label="octa",
        generators=[MoebiusMap(*(2 * e for e in g.entries())) for g in group.generators],
    )
    # projectively equal generators, but a different cache key
    assert doubled.generators == group.generators
    for char in character_group(group):
        for n in (12, 14):
            base = character_eigenspace(n, group, char)
            assert character_eigenspace(n, doubled, char) == base
            assert base == oracle_eigenspace(n, doubled, char)


def test_cached_basis_is_not_shared_with_callers():
    group = platonic_group("tetra")
    char = character_group(group)[0]
    first = character_eigenspace(12, group, char)
    first.clear()
    assert character_eigenspace(12, group, char)


def _survey_rows(d):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["survey", "--groups", "tetra", "--d", str(d)]) == 0
    return out.getvalue().splitlines()[1:]


def test_survey_order_does_not_change_rows(monkeypatch):
    # descending d reuses the spaces in the other direction (degree d-1 at d
    # is degree d'+1 at d' = d-2); both orders start from an empty cache
    monkeypatch.setattr(platonic, "_EIGENSPACES", {})
    descending = {d: _survey_rows(d) for d in (15, 13, 11)}
    monkeypatch.setattr(platonic, "_EIGENSPACES", {})
    ascending = {d: _survey_rows(d) for d in (11, 13, 15)}
    assert descending == ascending
    assert [row.split(",")[-1] for d in (11, 13, 15) for row in ascending[d]] == ["True"] * 3
