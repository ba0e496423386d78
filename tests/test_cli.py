"""CLI surface: subcommands, exit codes, schemas, determinism."""

import contextlib
import io
import json

import pytest

from symloci.cli import main


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
    payload = json.loads(open(degree5_file).read())
    assert payload["schema"] == "symloci/1"
    assert payload["certificate"]["verified_count"] == 24
    assert payload["certificate"]["classified"] == "octa"
    assert payload["certificate"]["order_census"] == {"1": 1, "2": 9, "3": 8, "4": 6}


def test_construct_not_realizable():
    code, _, err = run(["construct", "--d", "4", "--group", "tetra"])
    assert code == 3 and "NotRealizable" in err


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


def test_resultant_subcommand(degree5_file):
    code, out, _ = run(["resultant", degree5_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["in_ratd"] is True and payload["degree"] == 5


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


def test_certification_failure_is_exit_2_not_a_traceback(monkeypatch):
    from symloci import loci

    monkeypatch.setattr(loci, "commuting_space_basis", lambda d, m, lam: [])
    code, out, err = run(["survey", "--groups", "cyclic", "--d", "5"])
    assert code == 2, err
    assert "certification failed: eigenspace count disagrees with the formula" in err
    assert "Traceback" not in err and out == ""
