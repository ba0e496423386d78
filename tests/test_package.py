"""The package namespace: every exported name resolves, importing the CLI
loads no introspection modules, the record types are plain tuple classes
with the fields, defaults and JSON of the dataclasses they were, and the
README's library example prints what its comments say."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symloci
from symloci import cli
from symloci.aut import AutReport
from symloci.cyclotomic import Cyclotomic
from symloci.decomp import EigenformReport
from symloci.forms import BinaryForm, Divisor
from symloci.loci import LocusReport, SurveyRow
from symloci.moebius import MoebiusMap
from symloci.platonic import OrbitCharacterRow, RelevantPair

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
RECORDS = (AutReport, EigenformReport, SurveyRow, LocusReport, OrbitCharacterRow, RelevantPair)


def test_every_exported_name_resolves():
    assert len(set(symloci.__all__)) == len(symloci.__all__)
    missing = [name for name in symloci.__all__ if not hasattr(symloci, name)]
    assert not missing


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates code per class
    code = "import sys, symloci.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "symloci.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_is_a_tuple_with_no_instance_dict(record):
    assert issubclass(record, tuple) and record.__slots__ == ()


def test_records_build_by_keyword_in_field_order():
    z4 = Cyclotomic.zeta(4)
    assert AutReport._fields == ("verified_elements", "numeric_order", "census", "classified", "failed")
    assert tuple(AutReport(census={1: 1}, numeric_order=1)) == ([], 1, {1: 1}, "unknown", None)
    assert tuple(EigenformReport(eigenvalue=z4, divisibility="m|k", m=2, k=4)) == (4, 2, "m|k", z4)
    assert tuple(LocusReport(components=2, exists=True)) == (True, None, None, 2, {})
    assert tuple(RelevantPair(d2=Divisor(), d1=Divisor())) == (Divisor(), Divisor())
    row = OrbitCharacterRow(form=BinaryForm(0, [1]), character=(z4,), stabilizer_order=3, size=4, orbit=Divisor())
    assert (row.orbit, row.size, row.stabilizer_order, row.character) == (Divisor(), 4, 3, (z4,))
    assert RelevantPair(Divisor.of_points([]), Divisor()).degrees == (0, 0)


def test_survey_rows_build_by_keyword_only_with_blank_defaults():
    row = SurveyRow(d=5, group="tetra", exists=False, dim_moduli=None, dim_linalg=None, match=True)
    assert row._fields == ("d", "group", "t", "exists", "dim_moduli", "dim_ratd", "components", "s", "dim_linalg", "match")
    assert tuple(row) == (5, "tetra", "", False, None, None, "", "", None, True)
    assert list(row._asdict()) == list(row._fields)
    with pytest.raises(TypeError):
        SurveyRow(5, "tetra", "", False, None, None, "", "", None, True)
    with pytest.raises(TypeError):
        SurveyRow(d=5, group="tetra", exists=False, dim_moduli=None, match=True)  # dim_linalg has no default


def test_mutable_defaults_are_fresh_per_record():
    a, b = AutReport(), AutReport()
    assert (a.verified_elements, a.census, a.classified, a.numeric_order, a.failed) == ([], {}, "unknown", None, None)
    assert a.verified_elements is not b.verified_elements and a.census is not b.census
    a.verified_elements.append(MoebiusMap.identity())
    a.census[1] = 1
    assert AutReport() == ([], None, {}, "unknown", None)
    r, s = LocusReport(exists=False), LocusReport(exists=False)
    assert (r.dim_moduli, r.dim_ratd, r.components, r.certificate) == (None, None, 0, {})
    r.certificate["reason"] = "x"
    assert r.certificate is not s.certificate and s.certificate == {} == LocusReport(exists=True).certificate


def test_record_json_is_unchanged():
    one, zero = {"conductor": 1, "coeffs": [["1", "1"]]}, {"conductor": 1, "coeffs": [["0", "1"]]}
    rep = AutReport(numeric_order=2, census={2: 1, 1: 1}, classified="cyclic:2", failed=MoebiusMap(0, 1, 1, 0))
    assert rep.to_json() == {
        "verified_elements": [], "numeric_order": 2, "census": {"1": 1, "2": 1}, "classified": "cyclic:2",
        "failed": {"a": zero, "b": one, "c": one, "d": zero},
    }
    assert AutReport().to_json() == {"verified_elements": [], "numeric_order": None, "census": {},
                                     "classified": "unknown", "failed": None}


def test_the_csv_header_is_the_survey_row_field_order():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["survey", "--d", "5", "--groups", "cyclic,tetra"]) == 0
    header, *rows = buf.getvalue().splitlines()
    assert header == ",".join(SurveyRow._fields) == "d,group,t,exists,dim_moduli,dim_ratd,components,s,dim_linalg,match"
    assert rows[-1] == "5,tetra,,True,0,,,,0,True"


def test_the_readme_library_example_prints_what_its_comments_say():
    # each print's output line begins the "# " comment on that print
    code = README.read_text().split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    said = [line.partition("# ")[2] for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(said) == 4
    for line, comment in zip(printed, said):
        assert comment.startswith(line), (line, comment)
