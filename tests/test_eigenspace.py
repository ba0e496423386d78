"""Character eigenspaces: the weight-basis solve, the shared power table
and the per-process cache against the original stacked system of one
substitution per monomial and generator."""

import contextlib
import io

import pytest

from symloci import platonic
from symloci.cli import main
from symloci.cyclotomic import Cyclotomic, ExactMatrix
from symloci.forms import BinaryForm, substitute
from symloci.moebius import FiniteSubgroup, MoebiusMap, standard_subgroup
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


def _is_diagonal(g):
    _, b, c, _ = g.entries()
    return not (b or c)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_eigenspace_matches_per_monomial_oracle(kind):
    group = platonic_group(kind)
    # the first generator is diagonal, so only the monomials of its weight
    # enter the solve
    assert _is_diagonal(group.generators[0]) and not _is_diagonal(group.generators[1])
    for char in character_group(group):
        for n in range(0, 21, 2):
            expected = oracle_eigenspace(n, group, char)
            assert character_eigenspace(n, group, char) == expected, (kind, n, char)
            # a second call is served from the cache and agrees as well
            assert character_eigenspace(n, group, char) == expected


@pytest.mark.parametrize("kind, r", [("tetra", 2), ("octa", 4), ("icosa", 5)])
def test_the_solve_keeps_one_weight_class_of_monomials(kind, r, monkeypatch):
    # the diagonal generator (order r) keeps the k of one class mod r; the
    # other generator's n + 1 rows are the whole system
    shapes = []
    kernel_basis = ExactMatrix.kernel_basis

    def spy(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return kernel_basis(matrix)

    monkeypatch.setattr(ExactMatrix, "kernel_basis", spy)
    monkeypatch.setattr(platonic, "_EIGENSPACES", {})
    group = platonic_group(kind)
    for char in character_group(group):
        for n in (20, 22):
            shapes.clear()
            character_eigenspace(n, group, char)
            (rows, cols), = shapes
            assert rows == n + 1 and cols in ((n + 1) // r, (n + 1) // r + 1), (kind, n, char)


def _conjugated(group, m):
    # M^-1 g M has the same determinant and lifted character as g; no
    # generator stays diagonal, so every monomial enters the solve
    inv = m.inverse()
    return FiniteSubgroup(
        [inv.compose(e).compose(m) for e in group.elements],
        label=group.label,
        generators=[inv.compose(g).compose(m) for g in group.generators],
    )


@pytest.mark.parametrize("kind", ["octa", "icosa"])
def test_eigenspace_without_a_diagonal_generator(kind):
    group = platonic_group(kind)
    conj = _conjugated(group, MoebiusMap(2, 1, 1, 1))
    assert not any(_is_diagonal(g) for g in conj.generators)
    for char in character_group(group):
        for n in (6, 12, 14):
            got = character_eigenspace(n, conj, char)
            assert got == oracle_eigenspace(n, conj, char), (kind, n, char)
            assert len(got) == len(character_eigenspace(n, group, char))


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_eigenspace_with_the_diagonal_generator_second(kind):
    group = platonic_group(kind)
    swapped = FiniteSubgroup(group.elements, label=kind, generators=group.generators[::-1])
    for char in character_group(group):
        for n in (10, 12, 14):
            got = character_eigenspace(n, swapped, char[::-1])
            assert got == oracle_eigenspace(n, swapped, char[::-1]), (kind, n, char)
            # the same space, and its basis depends on the space alone
            assert got == character_eigenspace(n, group, char)


@pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
@pytest.mark.parametrize("m", range(2, 7))
def test_eigenspace_of_the_cyclic_and_dihedral_groups(kind, m):
    # cyclic: one diagonal generator and no rows at all; dihedral: the
    # inversion 1/z adds rows on the monomials of the rotation's weight.
    # Characters that no monomial carries give empty spaces on both sides.
    group = standard_subgroup(kind, m)
    rotations = [Cyclotomic.zeta(2 * m, j) for j in range(2 * m)]
    signs = [Cyclotomic.rational(1), Cyclotomic.rational(-1), Cyclotomic.zeta(4)]
    chars = [(r,) for r in rotations] if kind == "cyclic" else [(r, s) for r in rotations for s in signs]
    found = 0
    for n in (0, 2, 6, 10):
        for char in chars:
            got = character_eigenspace(n, group, char)
            assert got == oracle_eigenspace(n, group, char), (kind, m, n, char)
            found += len(got)
    if kind == "cyclic":
        # each monomial carries exactly one character
        assert found == sum(n + 1 for n in (0, 2, 6, 10))
    else:
        assert found


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
