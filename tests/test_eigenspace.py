"""Character eigenspaces: the orbit-form products against the original
stacked system of one substitution per monomial and generator, their count
against the character-orthogonality formula, the class sums of that formula
against a walk over the elements, and the certificates that catch wrong
orbit data."""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product
from math import lcm
from operator import mul
from pathlib import Path

import pytest

from symloci import forms, platonic
from symloci.cli import main
from symloci.cyclotomic import Cyclotomic, ExactMatrix, _root_exponent
from symloci.forms import BinaryForm, substitute
from symloci.moebius import FiniteSubgroup, MoebiusMap, _cayley_graph, standard_subgroup
from symloci.platonic import character_eigenspace, character_group, platonic_group

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _family_characters(kind, m):
    # every rotation value zeta_2m^j, with a sign 1, -1 or i on the
    # inversion of the dihedral group
    rotations = [Cyclotomic.zeta(2 * m, j) for j in range(2 * m)]
    signs = [Cyclotomic.rational(1), Cyclotomic.rational(-1), Cyclotomic.zeta(4)]
    return [(r,) for r in rotations] if kind == "cyclic" else [(r, s) for r in rotations for s in signs]


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


def molien_count(n, group, char):
    """(1/|G|) sum_g char(g)^-1 tr Sym^n(g) for even n over the elements,
    each through its determinant-1 lift with h_k = tr h_(k-1) - h_(k-2);
    char(g) is read off an eigenform of char by substitution.  Nothing here
    is shared with the count ``character_eigenspace`` certifies."""
    witness = next(
        basis[0] for m in range(0, 4 * group.order, 2) if (basis := character_eigenspace(m, group, char))
    )
    assert tuple(platonic.lifted_scalar(witness, g) for g in group.generators) == tuple(char)
    total = Cyclotomic.rational(0)
    for g in group.elements:
        lift = g.sl2_lift()
        tr = lift.a + lift.d
        h = [Cyclotomic.rational(1), tr]
        while len(h) <= n:
            h.append(tr * h[-1] - h[-2])
        total = total + platonic.lifted_scalar(witness, lift).inverse() * h[n]
    count = total / group.order
    assert count.is_rational() and count.as_rational().denominator == 1
    return int(count.as_rational())


def _no_solve_caches():
    # every cache that platonic defines, found by name so that none is
    # missed; the orbit forms stay: a test that changes them patches
    # _orbit_forms
    for name, cached in vars(platonic).items():
        if hasattr(cached, "cache_clear") and cached.__module__ == platonic.__name__ and name != "_orbit_forms":
            cached.cache_clear()


@pytest.fixture(autouse=True)
def _solve_caches_cleared_after():
    # nothing built from injected orbit data outlives its test
    yield
    _no_solve_caches()


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_the_platonic_path_multiplies_orbit_forms_and_counts_by_the_trace_formula(kind, monkeypatch):
    group = platonic_group(kind)
    chars = character_group(group)
    # the count of the character-orthogonality formula, computed first and
    # on its own
    expected = {(n, c): molien_count(n, group, chars[c]) for n in range(0, 25, 2) for c in range(len(chars))}
    called = []

    def spy_on(name, real):
        def spy(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        return spy

    _no_solve_caches()
    monkeypatch.setattr(ExactMatrix, "kernel_basis", spy_on("kernel_basis", ExactMatrix.kernel_basis))
    monkeypatch.setattr(forms, "substitute", spy_on("substitute", forms.substitute))
    monkeypatch.setattr(platonic, "substitute", spy_on("substitute", platonic.substitute))
    # the words of the trace formula come from the Cayley graph that closed
    # the group, with no second search over its elements
    monkeypatch.setattr(MoebiusMap, "compose", spy_on("compose", MoebiusMap.compose))
    for (n, c), count in expected.items():
        assert len(character_eigenspace(n, group, chars[c])) == count, (kind, n, c)
    assert called == []


@pytest.mark.parametrize("kind, r", [("tetra", 2), ("octa", 4), ("icosa", 5)])
def test_the_solve_keeps_one_weight_class_of_monomials(kind, r):
    # the diagonal generator (order r) scales monomial k by the k-th power of
    # a primitive r-th root, so the orbit products kept for one character
    # lie on the k of one class mod r, and the space has at most that
    # class's (n + 1) // r or (n + 1) // r + 1 monomials
    _no_solve_caches()
    group = platonic_group(kind)
    diagonal = group.generators[0]
    assert _is_diagonal(diagonal) and diagonal.projective_order() == r
    for char in character_group(group):
        for n in (20, 22):
            basis = character_eigenspace(n, group, char)
            classes = {k % r for f in basis for k, c in enumerate(f.coeffs) if c}
            assert len(classes) <= 1, (kind, n, char)
            if basis:
                size = len(range(classes.pop(), n + 1, r))
                assert size in ((n + 1) // r, (n + 1) // r + 1) and len(basis) <= size, (kind, n, char)


def _with_orbit_row(monkeypatch, kind, i, form=None, character=None):
    # orbit data with form i or its lifted character changed, and nothing
    # cached from the true data; a scalar is the character itself
    group = platonic_group(kind)
    orbits, forms, scalars = platonic._orbit_forms(group)
    forms = list(forms)
    forms[i] = form or forms[i]
    if character:
        scalars = [[chi if k == i else x for k, x in enumerate(s)] for s, chi in zip(scalars, character)]
    real = platonic._orbit_forms
    monkeypatch.setattr(platonic, "_orbit_forms", lambda g: (orbits, forms, scalars) if g is group else real(g))
    _no_solve_caches()


def test_a_wrong_orbit_character_fails_the_trace_count(monkeypatch):
    # the first tetrahedral orbit form given the trivial character: f_1 then
    # passes as an invariant of degree 4, where there is none
    group = platonic_group("tetra")
    trivial = character_group(group)[0]
    assert all(c == 1 for c in trivial) and not character_eigenspace(4, group, trivial)
    _with_orbit_row(monkeypatch, "tetra", 0, character=trivial)
    with pytest.raises(AssertionError, match="trace formula"):
        character_eigenspace(4, group, trivial)


def test_a_wrong_orbit_form_fails_the_rank(monkeypatch):
    # f_1 replaced by f_2 under f_1's character: f_1^3 and f_2^3 are then
    # the same degree-12 invariant
    group = platonic_group("tetra")
    trivial = character_group(group)[0]
    _with_orbit_row(monkeypatch, "tetra", 0, form=platonic._orbit_forms(group)[1][1])
    with pytest.raises(AssertionError, match="linearly dependent"):
        character_eigenspace(12, group, trivial)


_SURVEY_WITH_A_WRONG_CHARACTER = """
import sys
from symloci import platonic
from symloci.cli import main
group = platonic.platonic_group("tetra")
orbits, forms, scalars = platonic._orbit_forms(group)
# f_1 (degree 4) given the lifted character of f_3 (degree 6)
scalars = [[s[2], *s[1:]] for s in scalars]
platonic._orbit_forms = lambda group: (orbits, forms, scalars)
sys.exit(main(["survey", "--groups", "tetra", "--d", "11"]))
"""


_SURVEY_WITH_A_REPEATED_FORM = """
import sys
from symloci import platonic
from symloci.cli import main
group = platonic.platonic_group("tetra")
orbits, forms, scalars = platonic._orbit_forms(group)
# f_1 replaced by f_2: f_1 is then not coprime to the other forms, and
# f_1^3 and f_2^3 are the same degree-12 invariant
forms = (forms[1], *forms[1:])
platonic._orbit_forms = lambda group: (orbits, forms, scalars)
sys.exit(main(["survey", "--groups", "tetra", "--d", "11"]))
"""


_SURVEY_WITH_SWAPPED_EXPONENTS = """
import sys
from symloci import loci
from symloci.cli import main
walk = loci._strata
# each component reads the other exponent: d - 1 and d + 1 trade places
loci._strata = lambda d, m: [(t, dp, {c: (2 * d - e) % (2 * m) for c, e in exps.items()}) for t, dp, exps in walk(d, m)]
sys.exit(main(["survey", "--groups", "cyclic", "--d", "2..12"]))
"""


def _run_script(flags, script, timeout=120):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_failed_certificate_is_exit_2_also_under_optimization(flags):
    for script, message in (
        (_SURVEY_WITH_A_WRONG_CHARACTER, "certification failed"),
        (_SURVEY_WITH_A_REPEATED_FORM, "certification failed"),
        (_SURVEY_WITH_SWAPPED_EXPONENTS, "search exhausted (NoMemberFound)"),
    ):
        proc = _run_script(flags, script)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and message in proc.stderr


_SURVEY_WITH_A_CORRUPT_SCALAR = """
import sys
from symloci import platonic
from symloci.cli import main
group = platonic.platonic_group("tetra")
orbits, forms, scalars = platonic._orbit_forms(group)
# f_1's scalars doubled: no root of unity, so their powers never repeat
scalars = [[2 * s[0], *s[1:]] for s in scalars]
platonic._orbit_forms = lambda group: (orbits, forms, scalars)
sys.exit(main(["survey", "--groups", "tetra", "--d", "11"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_corrupt_orbit_scalar_is_exit_2_in_seconds_also_under_optimization(flags):
    # the closure of the orbit characters stops past |G| instead of growing
    # for ever
    proc = _run_script(flags, _SURVEY_WITH_A_CORRUPT_SCALAR, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "certification failed" in proc.stderr and "more than |G|" in proc.stderr


def test_an_orbit_scalar_that_is_no_root_of_unity_has_no_exponent(monkeypatch):
    group = platonic_group("tetra")
    trivial, two = character_group(group)[0], Cyclotomic.rational(2)
    # a target that is no root of unity scales no product
    assert platonic._orbit_exponents(8, group, (two, two)) == ()
    assert character_eigenspace(8, group, (two, two)) == []
    _with_orbit_row(monkeypatch, "tetra", 0, character=(two, two))
    with pytest.raises(AssertionError, match="no root of unity"):
        platonic._orbit_exponents(8, group, trivial)
    with pytest.raises(AssertionError, match="more than"):
        character_group(group)


def power_rule_exponents(n, group, char, scalars):
    """The exponents of the degree-n orbit products scaled by char, by the
    exact-power rule on the generators themselves: prod s_i^e_i equals
    chi * Delta^(n/2), s_i = ``_eigen_scalar(f_i, g)`` and Delta = det g."""
    degrees = [f.degree for f in platonic._orbit_forms(group)[1]]
    tops = [n // k + 1 for k in degrees]
    if len(tops) == 3:
        tops[2] = 2
    mus = [chi * g.det() ** (n // 2) for g, chi in zip(group.generators, char)]
    return tuple(
        exps
        for exps in product(*map(range, tops))
        if n % 2 == 0
        and sum(map(mul, exps, degrees)) == n
        and all(reduce(mul, map(pow, s, exps), Cyclotomic.rational(1)) == mu for s, mu in zip(scalars, mus))
    )


@pytest.mark.parametrize(
    "label", ["tetra", "octa", "icosa"] + [f"{kind}:{m}" for kind in ("cyclic", "dihedral") for m in range(1, 7)]
)
def test_orbit_exponents_match_the_exact_power_rule(label):
    # every platonic character at even n <= 124; the cyclic and dihedral
    # groups with the characters of test_eigenspace_of_the_cyclic_and_dihedral_groups
    kind, _, m = label.partition(":")
    if not m:
        group = platonic_group(kind)
        chars, degrees = character_group(group), range(0, 125, 2)
    else:
        m = int(m)
        group = standard_subgroup(kind, m)
        chars, degrees = _family_characters(kind, m), (0, 2, 6, 10)
    forms = platonic._orbit_forms(group)[1]
    scalars = [[platonic._eigen_scalar(f, g) for f in forms] for g in group.generators]
    found = 0
    for char in chars:
        for n in degrees:
            want = power_rule_exponents(n, group, char, scalars)
            assert platonic._orbit_exponents(n, group, char) == want, (group.label, n, char)
            found += len(want)
    assert found


def oracle_orbit_exponents(n, group, char):
    """_orbit_exponents by the box scan it replaced: every (a, b, c) in
    product(range(n // deg_1 + 1), range(n // deg_2 + 1), range(2)),
    filtered by degree and by the character's exponent test."""
    if n % 2:
        return ()
    _, forms, scalars = platonic._orbit_forms(group)
    big = lcm(2, *(x.n for x in chain(char, *scalars)))
    ks = [[_root_exponent(s, big) for s in row] for row in scalars]
    targets = [_root_exponent(chi, big) for chi in char]
    degrees = [f.degree for f in forms]
    tops = [n // k + 1 for k in degrees]
    if len(tops) == 3:
        tops[2] = 2
    return tuple(
        exps
        for exps in product(*map(range, tops))
        if None not in targets
        and sum(map(mul, exps, degrees)) == n
        and all((sum(map(mul, exps, k)) - t) % big == 0 for k, t in zip(ks, targets))
    )


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_orbit_exponents_solved_for_b_match_the_box_scan(kind):
    # every character and every n <= 200: the same tuples in the same order
    group = platonic_group(kind)
    for char in character_group(group):
        for n in range(201):
            assert platonic._orbit_exponents(n, group, char) == oracle_orbit_exponents(n, group, char), (kind, n, char)


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
@pytest.mark.parametrize("m", range(1, 7))
def test_eigenspace_of_the_cyclic_and_dihedral_groups(kind, m):
    # cyclic: one diagonal generator and no rows at all; dihedral: the
    # inversion 1/z adds rows on the monomials of the rotation's weight.
    # Characters that no monomial carries give empty spaces on both sides.
    group = standard_subgroup(kind, m)
    chars = _family_characters(kind, m)
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
    # projectively equal generators, but another group object, so another
    # cache key
    assert doubled.generators == group.generators
    for char in character_group(group):
        for n in (12, 14):
            base = character_eigenspace(n, group, char)
            assert character_eigenspace(n, doubled, char) == base
            assert base == oracle_eigenspace(n, doubled, char)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_a_copy_of_a_standard_group_is_its_own_key_with_the_same_bases(kind):
    group = platonic_group(kind)
    copy = FiniteSubgroup(group.elements, label=kind, generators=group.generators)
    for char in character_group(group):
        for n in range(0, 25, 2):
            assert character_eigenspace(n, copy, char) == character_eigenspace(n, group, char), (kind, n, char)
    # the copy found its own orbits rather than reading the standard group's
    assert platonic._orbit_forms(copy) is not platonic._orbit_forms(group)


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


def test_survey_order_does_not_change_rows():
    # descending d reuses the spaces in the other direction (degree d-1 at d
    # is degree d'+1 at d' = d-2); both orders start from empty caches
    _no_solve_caches()
    descending = {d: _survey_rows(d) for d in (15, 13, 11)}
    _no_solve_caches()
    ascending = {d: _survey_rows(d) for d in (11, 13, 15)}
    assert descending == ascending
    assert [row.split(",")[-1] for d in (11, 13, 15) for row in ascending[d]] == ["True"] * 3


def test_no_command_builds_the_exact_basis(monkeypatch):
    # the survey and construct certify mod p, and a premise the images do
    # not prove is exit 2: no route reaches the exact basis
    calls = []
    real = ExactMatrix.row_basis
    monkeypatch.setattr(ExactMatrix, "row_basis", lambda self: calls.append(self) or real(self))

    def run(argv, code=0):
        _no_solve_caches()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code

    run(["survey", "--groups", "platonic", "--d", "11..31"])
    run(["construct", "--group", "icosa", "--d", "29"])
    monkeypatch.setattr(platonic, "_coprime_images", lambda images, p: False)
    run(["survey", "--groups", "tetra", "--d", "11"], code=2)
    assert calls == []
    character_eigenspace(12, platonic_group("tetra"), character_group(platonic_group("tetra"))[0])
    assert calls  # the spy sees the one caller


def oracle_class_sums(group, char):
    """{t: sum of char(g)^-1 over the g with tr^2/det = t}, element by
    element: char(g)^-1 the product of the inverted generator values along
    the first path to g in the right Cayley graph, and tr^2/det divided out
    for every element; {} when two paths to one element disagree."""
    elements, right = _cayley_graph(group.generators, group.order)[:2]
    inv = [c.inverse() for c in char]
    vals, consistent, sums = {0: Cyclotomic.rational(1)}, True, {}
    for x, row in enumerate(right):
        for i, y in enumerate(row):
            val = vals[x] * inv[i]
            consistent &= vals.setdefault(y, val) == val
    for k, h in enumerate(elements if consistent else []):
        t = (h.a + h.d) ** 2 / h.det()
        sums[t] = sums.get(t, Cyclotomic.rational(0)) + vals[k]
    return sums


def _trace_sum_cases():
    # (case id, group, characters, degrees)
    for kind in ("tetra", "octa", "icosa"):
        group = platonic_group(kind)
        chars = character_group(group)
        doubled = [MoebiusMap(*(2 * e for e in g.entries())) for g in group.generators]
        yield kind, group, chars, range(0, 125, 2)
        yield f"{kind}-conjugated", _conjugated(group, MoebiusMap(2, 1, 1, 1)), chars, range(0, 25, 2)
        swapped = FiniteSubgroup(group.elements, label=kind, generators=group.generators[::-1])
        yield f"{kind}-swapped", swapped, [c[::-1] for c in chars], range(0, 25, 2)
        yield f"{kind}-doubled", FiniteSubgroup(group.elements, label=kind, generators=doubled), chars, range(0, 25, 2)
    for kind in ("cyclic", "dihedral"):
        for m in range(1, 9):
            yield f"{kind}:{m}", standard_subgroup(kind, m), _family_characters(kind, m), range(0, 21, 2)


def t_of(q):
    """tr^2/det = zeta_m^j + zeta_m^-j + 2 of an element of eigenvalue-ratio angle q = j/m."""
    m, j = q.denominator, q.numerator
    return Cyclotomic.zeta(m, j) + Cyclotomic.zeta(m, -j) + 2


@pytest.mark.parametrize("case", list(_trace_sum_cases()), ids=lambda case: case[0])
def test_trace_sum_matches_the_per_element_class_sums(case):
    # every case also takes a tuple holding 1 + zeta_5, which is no character;
    # the class sums are keyed by angle, the oracle's by t, compared through t(q)
    _, group, chars, degrees = case
    empty = 0
    for char in chars + [tuple(1 + Cyclotomic.zeta(5) for _ in group.generators)]:
        expected = oracle_class_sums(group, char)
        sums = platonic._class_sums(group, char)
        angle = {t_of(q): q for q in sums}
        assert {t: sums[q] for t, q in angle.items()} == expected, (group.label, char)
        empty += not expected
        for n in degrees:
            want = sum((s * platonic._trace(angle[t], n) for t, s in expected.items()), Cyclotomic.rational(0))
            assert platonic._trace_sum(n, group, char) == want, (group.label, n, char)
    assert 1 <= empty <= len(chars)


@pytest.mark.parametrize(
    "kind, sizes, values",
    [("tetra", [1, 3, 4, 4], 3), ("octa", [1, 3, 6, 6, 8], 4), ("icosa", [1, 12, 12, 15, 20], 5)],
)
def test_the_class_table_has_one_division_per_conjugacy_class(kind, sizes, values, monkeypatch):
    group = platonic_group(kind)
    platonic._class_table.cache_clear()
    divisions = []
    real, real_inverse = Cyclotomic.__truediv__, Cyclotomic.inverse
    monkeypatch.setattr(Cyclotomic, "__truediv__", lambda x, y: divisions.append(1) or real(x, y))
    monkeypatch.setattr(Cyclotomic, "inverse", lambda x: divisions.append(1) or real_inverse(x))
    table = platonic._class_table(group)
    assert sorted(size for _, classes in table for _, size in classes) == sizes
    assert divisions == []  # each angle is proved by (zeta^j + zeta^-j + 2) det = tr^2
    # the classes of A_4's rotations by 2pi/3 and 4pi/3 share t = 1 and make
    # one entry; those of A_5's by 2pi/5 and 4pi/5 do not
    assert len({t for t, _ in table}) == len(table) == values


@lru_cache(maxsize=None)
def recursive_trace(t, n):
    """u_n by the recursion itself: u_0 = 1, u_2 = t - 1,
    u_(k+2) = (t - 2) u_k - u_(k-2)."""
    if n < 4:
        return t - 1 if n else Cyclotomic.rational(1)
    return (t - 2) * recursive_trace(t, n - 2) - recursive_trace(t, n - 4)


def test_trace_matches_the_recursion():
    for kind in ("tetra", "octa", "icosa"):
        for q, _ in platonic._class_table(platonic_group(kind)):
            for n in range(400, -1, -2):
                assert platonic._trace(q, n) == recursive_trace(t_of(q), n), (kind, q, n)


def test_trace_at_a_high_degree_matches_the_recursion():
    # n = 2,400 at every class angle, in a process where no lower degree was
    # asked of _trace first; the oracle is built up from n = 0, as it recurses
    # n / 2 levels deep, past the interpreter's recursion limit
    for q in {q for kind in ("tetra", "octa", "icosa") for q, _ in platonic._class_table(platonic_group(kind))}:
        t = t_of(q)
        for n in range(0, 2400, 2):
            recursive_trace(t, n)
        assert platonic._trace(q, 2400) == recursive_trace(t, 2400), q


def test_trace_at_a_high_degree_is_the_sum_of_the_powers():
    # u_n = sum_j xi^(n - 2j), j = 0..n, for the eigenvalue ratio xi^2 = zeta_5
    # of angle 1/5: n = 2,400, far past the interpreter's recursion limit
    xi = Cyclotomic.zeta(10)
    n = 2400
    powers = [0] * 10
    for j in range(n + 1):
        powers[(n - 2 * j) % 10] += 1
    assert xi**2 == Cyclotomic.zeta(5)
    assert platonic._trace(Fraction(1, 5), n) == Cyclotomic.from_raw(10, powers)


@pytest.mark.parametrize("kind", ["tetra", "octa", "icosa"])
def test_a_warm_trace_sum_makes_no_field_product_or_sum(kind, monkeypatch):
    # with the class sums cached, each class sum times its trace is taken on
    # the numerators and folded once; the value is the per-class formula's
    group = platonic_group(kind)
    cases = [(char, n) for char in character_group(group) for n in range(0, 61, 2)]
    want = [
        sum((s * platonic._trace(q, n) for q, s in platonic._class_sums(group, char).items()), Cyclotomic.rational(0))
        for char, n in cases
    ]
    calls = []
    real_mul, real_add = Cyclotomic.__mul__, Cyclotomic.__add__
    monkeypatch.setattr(Cyclotomic, "__mul__", lambda x, y: calls.append("*") or real_mul(x, y))
    monkeypatch.setattr(Cyclotomic, "__add__", lambda x, y: calls.append("+") or real_add(x, y))
    got = [platonic._trace_sum(n, group, char) for char, n in cases]
    assert calls == []
    monkeypatch.undo()
    assert got == want


def test_the_traces_and_class_sums_build_no_fraction(monkeypatch):
    # both are read from integer counts; the class table (one angle per
    # class) and the root-of-unity exponents are warm
    groups = [platonic_group(kind) for kind in ("tetra", "octa", "icosa")]
    sums = {(group, char): platonic._class_sums(group, char) for group in groups for char in character_group(group)}
    traces = {(q, n): platonic._trace(q, n) for group in groups for q, _ in platonic._class_table(group)
              for n in range(0, 125, 2)}
    platonic._class_sums.cache_clear()
    made, real = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or real(cls, *args, **kw))
    got_sums = {key: platonic._class_sums(*key) for key in sums}
    got_traces = {key: platonic._trace(*key) for key in traces}
    assert made == []
    monkeypatch.undo()
    # the same canonical (n, nums, den) as before the caches were cleared
    stored = lambda x: (x.n, x.nums, x.den)  # noqa: E731
    assert {k: {q: stored(x) for q, x in v.items()} for k, v in got_sums.items()} == {
        k: {q: stored(x) for q, x in v.items()} for k, v in sums.items()
    }
    assert {k: stored(x) for k, x in got_traces.items()} == {k: stored(x) for k, x in traces.items()}


def test_orbit_powers_at_a_high_exponent():
    # the orbit forms of cyclic:2 are Y and X, so their powers are monomials
    # and exponent 1,500 costs little but depth: the image route's powers,
    # the oracle of the member test on the quotient, build up through their
    # cache past the interpreter's recursion limit
    from test_modular import oracle_power_image

    group = standard_subgroup("cyclic", 2)
    _no_solve_caches()
    oracle_power_image.cache_clear()
    for i, f in enumerate(platonic._orbit_forms(group)[1]):
        k = next(k for k, c in enumerate(f.coeffs) if c)
        assert oracle_power_image(group, i, 1500) == [int(j == 1500 * k) for j in range(1501)]


def test_a_group_without_generators_is_a_value_error():
    # a group given by its elements alone has no generators, and the orbit
    # characters are read per generator; the message prints the group
    octa = standard_subgroup("octa")
    group = FiniteSubgroup(octa.elements, octa.label)
    with pytest.raises(ValueError, match=r"^FiniteSubgroup\(octa, order 24\) has no generators"):
        character_eigenspace(6, group, ())
    trivial = FiniteSubgroup(standard_subgroup("cyclic", 1).elements)
    assert len(character_eigenspace(2, trivial, ())) == 3
