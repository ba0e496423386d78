"""CLI surface: subcommands, exit codes, schemas, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symloci import moebius
from symloci.cli import main
from symloci.forms import RationalMap
from test_moebius import spy_on_rotation_elements


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def degree5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "f5.json"
    code, out, _ = run(["construct", "--d", "5", "--group", "octa"])
    assert code == 0
    path.write_text(out)
    return str(path)


def test_survey_csv_d2():
    code, out, _ = run(["survey", "--d", "2..2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,group,t,exists,dim_moduli,dim_ratd,components,s,dim_linalg,match"
    cyc2 = next(l for l in lines if l.startswith("2,cyclic:2"))
    # the order-2 locus in degree 2 is the type-0 curve of moduli dim 1
    assert cyc2.split(",")[2:6] == ["0", "True", "1", "2"]


def test_survey_deterministic():
    a = run(["survey", "--d", "3..4", "--groups", "cyclic,dihedral"])
    b = run(["survey", "--d", "3..4", "--groups", "cyclic,dihedral"])
    assert a == b


def test_survey_octa_rows():
    code, out, _ = run(["survey", "--d", "5..5", "--groups", "octa"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[:2] == ["5", "octa"] and row[3] == "True" and row[4] == "0"
    code, out, _ = run(["survey", "--d", "9..9", "--groups", "octa"])
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[3] == "False"


def test_survey_json_schema():
    code, out, _ = run(["survey", "--d", "3..3", "--groups", "platonic", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "symloci/1"
    assert payload["all_match"] is True
    assert {r["group"] for r in payload["rows"]} == {"tetra", "octa", "icosa"}


def test_construct_and_certificate(degree5_file):
    with open(degree5_file) as fh:
        payload = json.load(fh)
    assert payload["schema"] == "symloci/1"
    assert payload["certificate"]["verified_count"] == 24
    assert payload["certificate"]["classified"] == "octa"
    assert payload["certificate"]["order_census"] == {"1": 1, "2": 9, "3": 8, "4": 6}


def test_construct_not_realizable():
    code, _, err = run(["construct", "--d", "4", "--group", "tetra"])
    assert code == 3 and "NotRealizable" in err


def test_construct_with_no_realizable_type_says_so():
    # no dihedral:2 stratum of any type reaches degree 24
    code, out, err = run(["construct", "--d", "24", "--group", "dihedral:2"])
    assert (code, out) == (3, "")
    assert err == "NotRealizable: no dihedral:2 symmetry of any type in degree 24\n"
    code, out, err = run(["construct", "--d", "24", "--group", "dihedral:2:t=1"])
    assert (code, out) == (3, "")
    assert err == "NotRealizable: no dihedral:2 symmetry of type 1 in degree 24\n"


@pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
def test_construct_builds_no_group_for_a_locus_that_does_not_exist(monkeypatch, kind):
    # m divides none of d, d +- 1: the answer needs no group of order m or 2m
    from symloci import cli

    def refuse(*args):
        raise AssertionError("standard_subgroup called")

    monkeypatch.setattr(cli, "standard_subgroup", refuse)
    code, out, err = run(["construct", "--d", "5", "--group", f"{kind}:100003"])
    assert (code, out) == (3, "")
    assert err == f"NotRealizable: no {kind}:100003 symmetry of any type in degree 5\n"


def test_construct_cyclic_member():
    code, out, _ = run(["construct", "--d", "3", "--group", "cyclic:2:t=1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["verified_count"] == 2


def test_check_pass_and_fail(degree5_file):
    code, out, _ = run(["check", degree5_file, "--group", "octa"])
    assert code == 0
    assert "24/24 elements pass" in out
    assert "order 24" in out
    code, out, _ = run(["check", degree5_file, "--group", "cyclic:3"])
    assert code == 4


@pytest.mark.parametrize(
    "d, built, claimed, lines",
    [
        (5, "octa", "icosa", ["1/60 elements pass", "Moebius[z5, 0; 0, 1]"]),
        (3, "tetra", "octa", ["1/24 elements pass", "Moebius[z4, 0; 0, 1]"]),
        (7, "cyclic:3", "dihedral:3", ["2/6 elements pass", "Moebius[0, 1; 1, 0]"]),
        (7, "dihedral:3", "dihedral:6", ["1/12 elements pass", "Moebius[z6, 0; 0, 1]"]),
    ],
)
def test_check_reports_the_scan_on_failure(tmp_path, d, built, claimed, lines):
    # a failing generator falls back to the element scan: the count of
    # elements passing before the first failure and that element, as before
    code, out, _ = run(["construct", "--d", str(d), "--group", built])
    assert code == 0
    path = tmp_path / "phi.json"
    path.write_text(out)
    code, out, _ = run(["check", str(path), "--group", claimed])
    assert code == 4
    count, failing = lines
    assert f"exact verification: {count}" in out.splitlines()
    assert f"first failing element: {failing}" in out.splitlines()


@pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
def test_a_large_claimed_group_is_tested_before_it_is_built(degree5_file, monkeypatch, kind):
    # the rotation zeta_4001 z fails its weight test, and the element scan
    # builds the identity and then r, which fails: two elements of 4001 or 8002
    built = spy_on_rotation_elements(monkeypatch)
    moebius._standard_subgroup.cache_clear()  # a fresh group, listed by the spy
    code, out, _ = run(["check", degree5_file, "--group", f"{kind}:4001"])
    order = 4001 * (1 + (kind == "dihedral"))
    assert code == 4 and len(built) == 2
    assert out.splitlines()[:3] == [
        f"degree 5 map, group {kind}:4001 of order {order}",
        f"exact verification: 1/{order} elements pass",
        f"first failing element: {built[1]!r}",
    ]
    assert repr(built[1]).startswith("Moebius[z4001, 0; 0, 1]")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_a_large_claimed_group_fails_in_little_memory(degree5_file):
    # 4001 rotations of 4000 coefficients each came to about 510 MB; the
    # child reads its own peak (VmHWM), since the rusage of a child counts
    # the peak of the process it was forked from
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\nfrom symloci.cli import main\nrc = main(sys.argv[1:])\n"
        "print(rc, next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))"
    )
    argv = [sys.executable, "-c", code, "check", degree5_file, "--group", "cyclic:4001", "--out", os.devnull]
    out = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    rc, peak_kb = map(int, out.stdout.split())
    assert rc == 4 and peak_kb < 50 * 1024


def test_check_dihedral_on_power_map(tmp_path):
    from symloci.forms import RationalMap

    zd = RationalMap.from_zpoly([1, 0, 0, 0, 0], [0, 0, 0, 0, 1])
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"map": zd.to_json()}))
    code, out, _ = run(["check", str(path), "--group", "dihedral:3"])
    assert code == 0 and "6/6" in out


def test_decomp_roundtrip(degree5_file, tmp_path):
    code, out, _ = run(["decomp", degree5_file])
    assert code == 0
    pair = json.loads(out)["pair"]
    assert pair["H"]["degree"] == 4 and pair["J"]["degree"] == 6
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(pair))
    code, out2, _ = run(["decomp", str(pair_file), "--inverse"])
    assert code == 0
    recovered = json.loads(out2)["map"]
    code, out3, _ = run(["decomp", degree5_file])
    assert json.loads(out3)["pair"] == pair  # determinism


def test_aut_subcommand(degree5_file):
    code, out, _ = run(["aut", degree5_file])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["numeric_order"] == 24
    assert rep["census"] == {"1": 1, "2": 9, "3": 8, "4": 6}


@pytest.mark.parametrize("command", [["aut"], ["check", "--group", "octa"]], ids=["aut", "check"])
@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf", "-inf"])
def test_tolerance_must_be_finite_and_positive(degree5_file, command, tolerance):
    # the identity is always an automorphism, so no tolerance may report order 0
    code, out, err = run([command[0], degree5_file, *command[1:], f"--tolerance={tolerance}"])
    assert (code, out) == (1, ""), err
    assert err.startswith("usage error: --tolerance must be finite and > 0"), err


def test_resultant_subcommand(degree5_file):
    code, out, _ = run(["resultant", degree5_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["in_ratd"] is True and payload["degree"] == 5


def test_resultant_json_is_written_at_the_minimal_conductor(degree5_file, monkeypatch):
    # a rational value left at conductor 8 by the arithmetic is written as
    # the same value at conductor 1, so one value always gets one JSON
    from symloci.cyclotomic import Cyclotomic
    from symloci.forms import RationalMap

    stored = Cyclotomic.rational(-48).promote(8)
    assert stored.n == 8
    monkeypatch.setattr(RationalMap, "resultant", lambda self: stored)
    code, out, _ = run(["resultant", degree5_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["resultant"] == Cyclotomic.rational(-48).to_json()
    assert payload["resultant"]["conductor"] == 1 and payload["in_ratd"] is True


def test_usage_errors():
    code, _, err = run(["survey", "--d", "banana"])
    assert code == 1
    code, _, err = run(["survey", "--d", "70..70"])
    assert code == 1 and "allow-large" in err
    code, _, err = run(["construct", "--d", "5", "--group", "frobnitz"])
    assert code == 1
    code, _, _ = run(["check", "/nonexistent.json", "--group", "octa"])
    assert code == 1


def test_exit_code_2_is_reserved_for_mismatch():
    # no mismatch is expected anywhere in the verified range; assert code 0
    code, _, _ = run(["survey", "--d", "6..7", "--groups", "cyclic"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--d", "1", "--group", "octa"],
        ["construct", "--d", "1", "--group", "cyclic:2"],
        ["construct", "--d", "5", "--group", "cyclic:2:t=x"],
        ["aut", "{degree1}"],
        ["check", "{degree1}", "--group", "dihedral:0"],
    ],
    ids=["construct-d1-octa", "construct-d1-cyclic", "bad-type-token", "aut-degree-1", "order-0"],
)
def test_bad_input_is_a_usage_error_not_a_traceback(argv, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symloci
    from symloci.forms import RationalMap

    degree1 = tmp_path / "z.json"
    degree1.write_text(json.dumps({"map": RationalMap.from_zpoly([1, 0], [0, 1]).to_json()}))
    src = str(Path(symloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "symloci.cli"] + [a.format(degree1=degree1) for a in argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "usage error" in proc.stderr, proc.stderr


_LENIENT_SPECS = ["cyclic:3:t=1:junk", "cyclic:3_0", "cyclic:+3", "cyclic: 3", "dihedral:2:t=+1"]
_REFUSED_SPECS = ["octa:", "tetra:1", "cyclic", "cyclic:0", "cyclic:x", "dihedral:2:u=1", "dihedral:2:t=2", "frob"]


@pytest.mark.parametrize(
    "argv",
    [["construct", "--d", "7", "--group", spec] for spec in _LENIENT_SPECS + _REFUSED_SPECS]
    + [["check", "@map", "--group", spec] for spec in _LENIENT_SPECS + _REFUSED_SPECS]
    + [
        ["survey", "--groups", "cyclic,frob", "--d", "3"],
        ["survey", "--d", "5..3"],
        ["survey", "--d", "1_1..1_1"],
        ["construct", "--d", "1_3", "--group", "octa"],
        ["construct", "--group", "cyclic:1", "--d", "5"],
        ["aut", "@degree1"],
    ],
    ids=lambda argv: " ".join(a.lstrip("@") for a in argv),
)
def test_a_malformed_spec_is_a_usage_error(fuzz_files, argv):
    # a group spec or a degree matches its grammar as a whole or not at all:
    # cyclic:3_0 is no cyclic:30, cyclic:3:t=1:junk no cyclic:3:t=1, 1_3 no 13
    code, out, err = run([fuzz_files[a[1:]] if a.startswith("@") else a for a in argv])
    assert (code, out) == (1, ""), err
    assert err.startswith("usage error:") and "Traceback" not in err, err


def test_a_well_formed_group_spec_parses():
    from symloci.cli import _parse_group

    assert _parse_group("CYCLIC:3") == ("cyclic", 3, None)
    assert _parse_group("dihedral:4:t=-1") == ("dihedral", 4, -1)
    assert _parse_group("icosa") == ("icosa", None, None)


@pytest.mark.parametrize(
    "coefficient",
    [
        {"conductor": 1, "coeffs": [["1", "0"]]},
        {"conductor": 5, "coeffs": [["1", "1"], ["2", "3"]]},
        {"conductor": 4, "coeffs": [["1", "1"], ["2.5", "3"]]},
    ],
    ids=["zero-denominator", "wrong-length", "not-an-integer"],
)
@pytest.mark.parametrize("command", ["resultant", "check", "aut", "decomp"])
def test_a_malformed_coefficient_in_a_map_file_is_a_usage_error(command, coefficient, tmp_path):
    obj = RationalMap.from_zpoly([1, 0, 1], [0, 1, 0]).to_json()
    obj["G"]["coeffs"][1] = coefficient
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"map": obj}))
    code, out, err = run([command, str(path)] + (["--group", "cyclic:2"] if command == "check" else []))
    assert (code, out) == (1, "") and "malformed map JSON" in err, err


@pytest.mark.parametrize("argv", [["resultant"], ["check", "--group", "octa"]], ids=["resultant", "check"])
def test_a_huge_conductor_in_a_map_file_is_a_usage_error_at_once(argv, tmp_path):
    # a coefficient of conductor 10^18 + 3 with one coefficient: refused by
    # its length alone, never factored
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symloci

    obj = RationalMap.from_zpoly([1, 0, 1], [0, 1, 0]).to_json()
    obj["F"]["coeffs"][0] = {"conductor": 10**18 + 3, "coeffs": [["1", "1"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"map": obj}))
    src = str(Path(symloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "symloci.cli", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=10,
    )
    assert proc.returncode == 1, proc.stderr
    assert "malformed map JSON" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_a_coefficient_past_the_int_digit_limit_is_read_and_written(fuzz_files, tmp_path):
    # CPython refuses int <-> str past 4,300 digits by default; the codec
    # reads and writes such an int exactly, through the map and back
    from symloci.cyclotomic import Cyclotomic

    with open(fuzz_files["longcoef"]) as fh:
        obj = json.load(fh)["map"]
    phi = RationalMap.from_json(obj)
    assert phi.F.coeffs[0] == 10**4400 and phi.to_json() == obj
    code, out, err = run(["resultant", fuzz_files["longcoef"]])
    assert code == 0, err
    assert Cyclotomic.from_json(json.loads(out)["resultant"]) == phi.resultant() != 0
    code, out, err = run(["decomp", fuzz_files["longcoef"]])
    assert code == 0, err
    (tmp_path / "pair.json").write_text(out)
    code, out, err = run(["decomp", "--inverse", str(tmp_path / "pair.json")])
    assert code == 0, err
    assert RationalMap.from_json(json.loads(out)["map"]).proportional_to(phi)


def test_a_resultant_at_a_conductor_of_four_primes_is_written_as_before(fuzz_files):
    # (X^2 + (zeta_1155 + zeta_1155^7) Y^2 : XY): its resultant is written at
    # its smallest field, 1155 = 3 5 7 11 itself; the digest of stdout was
    # recorded when minimal() reduced an integer matrix per divisor (6 s)
    code, out, err = run(["resultant", fuzz_files["zeta1155"]])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == "916fc8895b55bb4a49c1030c58cb569114835d5a93f5c954b51be0b8d636f3aa"


def test_certification_failure_is_exit_2_not_a_traceback(monkeypatch):
    from symloci import loci

    monkeypatch.setattr(loci, "commuting_space_basis", lambda d, m, lam: [])
    code, out, err = run(["survey", "--groups", "cyclic", "--d", "5"])
    assert code == 2, err
    assert "certification failed: eigenspace count disagrees with the formula" in err
    assert "Traceback" not in err and out == ""


def test_a_stalk_order_disagreement_is_exit_2(monkeypatch):
    from symloci import loci

    # the eigenvalue route disagrees with the case table on the cyclic:3 strata only
    by_eigenvalue = loci.stalk_order_from_eigenvalue
    monkeypatch.setattr(loci, "stalk_order_from_eigenvalue", lambda d, m, t: by_eigenvalue(d, m, t) + (m == 3))
    rows = loci.survey_rows(5, ("cyclic",))
    assert {r["group"] for r in rows if not r["match"]} == {"cyclic:3"}
    code, out, err = run(["survey", "--groups", "cyclic", "--d", "5", "--format", "json"])
    assert code == 2, err
    assert not json.loads(out)["all_match"] and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["survey", "--groups", "cyclic", "--d", "5"], ["construct", "--group", "cyclic:2", "--d", "5"]],
    ids=["survey", "construct"],
)
def test_exhausted_member_search_is_exit_2_not_a_traceback(monkeypatch, argv):
    from symloci import loci

    # no candidate is ever in Rat_d, so every seeded search runs dry (the
    # search proves Rat_d on its int lists by forms._in_ratd, not is_in_ratd)
    monkeypatch.setattr(loci, "_in_ratd", lambda F, G: False)
    code, out, err = run(argv)
    assert code == 2, err
    assert "search exhausted (NoMemberFound): no member for d=5 m=2" in err
    assert "Traceback" not in err and out == ""


def test_an_exhausted_dihedral_search_is_reported(monkeypatch):
    from symloci import loci

    # the t = 1 stratum of dihedral:2 at d = 5 has a nonempty basis; when no
    # candidate is in Rat_d both signs run dry, which is an exhausted search,
    # not an empty locus
    monkeypatch.setattr(loci, "_in_ratd", lambda F, G: False)
    code, out, err = run(["survey", "--groups", "dihedral", "--d", "5"])
    assert code == 2, err
    assert "search exhausted (NoMemberFound): no dihedral member for d=5 m=2 t=1 with either sign" in err
    assert "Traceback" not in err and out == ""


def test_a_platonic_stratum_is_dropped_only_with_a_proof(monkeypatch):
    from symloci import platonic

    # with the obstruction proof taken away every stratum is searched, and
    # the obstructed ones exhaust their seeds
    monkeypatch.setattr(platonic, "_obstructed", lambda d, group, char: False)
    code, out, err = run(["survey", "--groups", "tetra", "--d", "15"])
    assert code == 2, err
    assert "search exhausted (NoMemberFound)" in err
    assert "Traceback" not in err and out == ""


def test_a_platonic_search_that_misses_everywhere_is_exit_2_not_a_traceback(monkeypatch):
    from symloci import platonic

    # tetra maps of degree 7 exist, so the two routes disagree; the member
    # test's Euclid mod p on the quotient rejects every seed, with the
    # premise and the syzygy proved before the patch
    platonic._branch_value(platonic.platonic_group("tetra"))
    monkeypatch.setattr(platonic, "_coprime_images", lambda images, p: False)
    code, out, err = run(["survey", "--groups", "tetra", "--d", "7"])
    assert code == 2, err
    assert "search exhausted (NoMemberFound)" in err
    assert "Traceback" not in err and out == ""


def test_an_unobstructed_stratum_where_no_map_exists_is_exit_2(monkeypatch):
    from symloci import platonic

    real = platonic._obstructed
    first = platonic.character_group(platonic.platonic_group("octa"))[0]
    monkeypatch.setattr(
        platonic, "_obstructed", lambda d, group, char: char != first and real(d, group, char)
    )
    # no degree-9 map has octa symmetry (gcd(9, 6) = 3): the residue rule
    # and the strata disagree
    code, out, err = run(["survey", "--groups", "octa", "--d", "9"])
    assert code == 2, err
    assert out.splitlines()[1:] == ["9,octa,,False,,,,,,False"]


# ---------------------------------------------------------------------------
# argv fuzz: every invocation ends in a documented exit code
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

_DEGREES = st.integers(2, 9).map(str)
_BAD_DEGREES = st.sampled_from(["0", "1", "-3", "x", "", "2.5", "70", "1e3"])
_RANGES = st.one_of(
    _DEGREES,
    st.tuples(_DEGREES, _DEGREES).map("..".join),  # includes reversed ranges
    st.sampled_from(["..", "3..", "..4", "1..3", "2..x", "9..2", "2...4", "70..70", "banana"]),
)
_GROUPS = st.one_of(
    st.sampled_from(["tetra", "octa", "icosa", "TETRA"]),
    st.tuples(st.sampled_from(["cyclic", "dihedral"]), st.integers(-1, 12)).map(lambda p: f"{p[0]}:{p[1]}"),
    st.tuples(
        st.sampled_from(["cyclic", "dihedral"]), st.integers(1, 9), st.sampled_from(["-1", "0", "1", "2", "x", ""])
    ).map(lambda p: f"{p[0]}:{p[1]}:t={p[2]}"),
    st.sampled_from(
        ["", "cyclic", "dihedral", "cyclic:", "cyclic:x", "octa:2", "cyclic:3:u=1", "cyclic:3:t=1:x", "frob", ":"]
    ),
)
_FILTERS = st.lists(
    st.sampled_from(["cyclic", "dihedral", "tetra", "octa", "icosa", "platonic", "all", "nope", ""]),
    min_size=1,
    max_size=3,
).map(",".join)
_FILES = st.sampled_from(
    ["map", "degree1", "singular", "pair", "garbage", "notmap", "empty", "missing"]
    + ["array", "badpair", "pair0", "binary", "deep", "overflow", "constant"]
    + ["big80", "longcoef", "large", "zeta1155"]
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, degree5_file):
    from symloci.cyclotomic import Cyclotomic
    from symloci.forms import BinaryForm

    root = tmp_path_factory.mktemp("fuzz")
    code, out, _ = run(["decomp", degree5_file])
    assert code == 0
    code, large, _ = run(["construct", "--d", "65", "--group", "octa", "--allow-large"])
    assert code == 0
    # (10^4400 X^2 + Y^2 : XY), its coefficient written by hand
    longcoef = RationalMap.from_zpoly([1, 0, 1], [0, 1, 0]).to_json()
    longcoef["F"]["coeffs"][0]["coeffs"][0][0] = "1" + "0" * 4400
    c = Cyclotomic.zeta(1155) + Cyclotomic.zeta(1155, 7)
    bodies = {
        "degree1": json.dumps({"map": RationalMap.from_zpoly([1, 0], [0, 1]).to_json()}),
        "singular": json.dumps({"map": RationalMap.from_zpoly([1, 1, 0], [0, 1, 1]).to_json()}),
        # a genuine map whose periodic points cluster: an unbounded balancing step
        "overflow": json.dumps(
            {"map": RationalMap.from_zpoly([0, 2, 3, -1, 0, 10**30, 0], [-1, 5, 0, 5, 0, 0, 5]).to_json()}
        ),
        # [XY : 0], whose second iterate is the zero pair
        "constant": json.dumps({"map": RationalMap(BinaryForm(2, [0, 1, 0]), BinaryForm.zero(2)).to_json()}),
        "pair": json.dumps(json.loads(out)["pair"]),
        "garbage": "{not json",
        "notmap": json.dumps({"map": {"F": 3}}),
        "empty": "",
        "array": "[1, 2]",
        "deep": "[" * 100_000,
        "badpair": json.dumps({"d": 2, "H": 5, "J": 3}),
        # H of degree -1 has no coefficients, and recompose has no degree-0 map
        "pair0": json.dumps({"d": 0, "H": {"degree": -1, "coeffs": []}, "J": BinaryForm(1, [1, 0]).to_json()}),
        # (10^80 X^30 + Y^30 : X^30 + 10^80 Y^30), whose resultant has about 4,800 digits
        "big80": json.dumps(
            {"map": RationalMap.from_zpoly([10**80] + [0] * 29 + [1], [1] + [0] * 29 + [10**80]).to_json()}
        ),
        # a coefficient past the interpreter's default limit of 4,300 digits for int <-> str
        "longcoef": json.dumps({"map": longcoef}),
        "large": large,  # the octa d = 65 construct, past the default degree cap
        # (X^2 + (zeta_1155 + zeta_1155^7) Y^2 : XY), one coefficient at a conductor of four primes
        "zeta1155": json.dumps({"map": RationalMap(BinaryForm(2, [1, 0, c]), BinaryForm(2, [0, 1, 0])).to_json()}),
    }
    files = {"map": degree5_file, "missing": str(root / "missing.json")}
    for name, body in bodies.items():
        (root / f"{name}.json").write_text(body)
        files[name] = str(root / f"{name}.json")
    (root / "binary.json").write_bytes(b"\xff\xfe{")
    files["binary"] = str(root / "binary.json")
    return files


def _argv():
    survey = st.tuples(
        st.just(["survey", "--d"]),
        _RANGES.map(lambda r: [r]),
        st.one_of(st.just([]), _FILTERS.map(lambda f: ["--groups", f])),
        st.sampled_from([[], ["--format", "json"], ["--format", "xml"]]),
    )
    construct = st.tuples(
        st.just(["construct", "--d"]),
        st.one_of(_DEGREES, _BAD_DEGREES).map(lambda d: [d]),
        st.one_of(_GROUPS.map(lambda g: ["--group", g]), st.just([])),
    )
    check = st.tuples(
        st.just(["check"]),
        _FILES.map(lambda f: ["@" + f]),
        _GROUPS.map(lambda g: ["--group", g]),
        st.sampled_from([[], ["--tolerance", "1e-6"], ["--tolerance", "x"]]),
    )
    on_file = st.tuples(
        st.sampled_from([["decomp"], ["decomp", "--inverse"], ["aut"], ["resultant"]]),
        _FILES.map(lambda f: ["@" + f]),
    )
    other = st.sampled_from([[], ["frobnicate"], ["survey"], ["check", "--group", "octa"], ["--help"]])
    return st.one_of(
        st.one_of(survey, construct, check, on_file).map(lambda parts: [a for part in parts for a in part]),
        other,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
@example(argv=["aut", "@singular"])  # once a DegenerateConfiguration traceback
@example(argv=["aut", "@overflow"])  # once an OverflowError traceback
@example(argv=["aut", "@constant"])  # once a ValueError traceback: phi o phi is the zero pair
@example(argv=["decomp", "@array"])  # once AttributeError tracebacks: a file that is no object
@example(argv=["aut", "@array"])
@example(argv=["resultant", "@array"])
@example(argv=["check", "@array", "--group", "octa"])
@example(argv=["decomp", "--inverse", "@badpair"])  # once a TypeError traceback
@example(argv=["decomp", "--inverse", "@pair0"])  # once a DegreeMismatch traceback
@example(argv=["resultant", "@binary"])  # once a UnicodeDecodeError traceback
@example(argv=["decomp", "--inverse", "@deep"])  # once a RecursionError traceback
@example(argv=["resultant", "@big80"])  # once a ValueError traceback: str() of a 4,800-digit int
@example(argv=["resultant", "@zeta1155"])  # once 6 s: the smallest field read by a Gauss-Jordan per divisor
def test_fuzzed_argv_ends_in_a_documented_exit_code(fuzz_files, argv):
    argv = [fuzz_files[a[1:]] if a.startswith("@") else a for a in argv]
    code, _, err = run(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# ---------------------------------------------------------------------------
# files: what one subcommand writes another reads, and an unwritable --out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--d", "3"],
        ["construct", "--d", "5", "--group", "octa"],
        ["check", "@map", "--group", "octa"],
        ["decomp", "@map"],
        ["decomp", "--inverse", "@pair"],
        ["aut", "@map"],
        ["resultant", "@map"],
    ],
    ids=["survey", "construct", "check", "decomp", "decomp-inverse", "aut", "resultant"],
)
def test_out_into_a_missing_directory_is_a_usage_error(fuzz_files, tmp_path, argv):
    argv = [fuzz_files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run(argv + ["--out", str(tmp_path / "missing" / "x")])
    assert (code, out) == (1, ""), err
    assert err.startswith("usage error: cannot write") and "Traceback" not in err, err


def test_decomp_reads_back_its_own_output(degree5_file, tmp_path):
    pair_file = tmp_path / "p.json"
    assert run(["decomp", degree5_file, "--out", str(pair_file)]) == (0, "", "")
    code, out, err = run(["decomp", str(pair_file), "--inverse"])
    assert code == 0, err
    with open(degree5_file) as fh:
        want = RationalMap.from_json(json.load(fh)["map"])
    got = RationalMap.from_json(json.loads(out)["map"])
    assert (got.F, got.G) == (want.F, want.G)


# ---------------------------------------------------------------------------
# the JSON writer: the bytes of json.dumps(payload, indent=2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--d", "4..5", "--format", "json"],
        ["construct", "--d", "13", "--group", "octa"],
        ["construct", "--d", "7", "--group", "dihedral:3"],
        ["decomp", "@map"],
        ["decomp", "--inverse", "@pair"],
        ["aut", "@map"],
        ["resultant", "@map"],
    ],
    ids=["survey", "construct-octa", "construct-dihedral", "decomp", "decomp-inverse", "aut", "resultant"],
)
def test_every_payload_is_written_as_json_dumps_writes_it(monkeypatch, degree5_file, tmp_path, argv):
    from symloci import cli

    pair_file = tmp_path / "pair.json"
    assert run(["decomp", degree5_file, "--out", str(pair_file)])[0] == 0
    files = {"@map": degree5_file, "@pair": str(pair_file)}
    payloads, writer = [], cli._json

    def spy(obj, indent="\n"):
        if indent == "\n":
            payloads.append(obj)
        return writer(obj, indent)

    monkeypatch.setattr(cli, "_json", spy)
    code, out, err = run([files.get(a, a) for a in argv])
    assert code == 0, err
    [payload] = payloads
    assert payload["schema"] == "symloci/1"
    assert out == json.dumps(payload, indent=2) + "\n"


JSON_EDGES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": {"d": [[], {}]}},
    [[[]], [{}], {"e": ()}],
    "",
    'quote " backslash \\ slash /',
    "\n\t\r\b\f\x00\x1f\x7f",
    "naïve ∑ \U0001f600",
    {"key \"\\é\n": "value"},
    True,
    False,
    None,
    0,
    -7,
    2**70,
    0.0,
    -0.0,
    1.5,
    1e300,
    -2.5e-300,
    float("nan"),
    float("inf"),
    float("-inf"),
    {"mixed": [1, "two", 3.0, None, True, {"x": [False, -1]}], "t": (1, (2, [3]))},
]


@pytest.mark.parametrize("value", JSON_EDGES, ids=[repr(v)[:40] for v in JSON_EDGES])
def test_the_json_writer_matches_json_dumps(value):
    from symloci.cli import _json

    for obj in (value, [value, {"k": value}]):
        assert _json(obj) == json.dumps(obj, indent=2)


def test_the_json_writer_refuses_a_non_json_value_as_json_dumps_does():
    from fractions import Fraction

    from symloci.cli import _json

    for bad in (Fraction(1, 3), [object()], {"rows": [Fraction(2)], "empty": {}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _json(bad)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_the_json_writer_matches_json_dumps_on_any_value(value):
    from symloci.cli import _json

    assert _json(value) == json.dumps(value, indent=2)
