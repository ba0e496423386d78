"""Byte-for-byte CLI outputs against recorded files: speed-ups and
refactors must leave the survey CSV and the construct JSON unchanged.

To re-record after an intended output change:
    PYTHONPATH=src python -m symloci.cli survey --groups tetra,octa,icosa --d 11..15 > tests/golden/survey_platonic_d11-15.csv
and likewise for the other cases below.
"""

import contextlib
import io
from pathlib import Path

import pytest

from symloci.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["survey", "--groups", "tetra,octa,icosa", "--d", "11..15"], "survey_platonic_d11-15.csv"),
    (["survey", "--groups", "tetra,octa,icosa", "--d", "29..31"], "survey_platonic_d29-31.csv"),
    (["survey", "--groups", "cyclic,dihedral", "--d", "8..11"], "survey_family_d8-11.csv"),
    (["construct", "--group", "octa", "--d", "13"], "construct_octa_d13.json"),
    (["survey", "--groups", "all", "--d", "5..7", "--format", "json"], "survey_all_d5-7.json"),
    (["construct", "--group", "cyclic:3", "--d", "7"], "construct_cyclic3_d7.json"),
    (["construct", "--group", "dihedral:3", "--d", "7"], "construct_dihedral3_d7.json"),
]


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_cli_output_is_byte_identical(argv, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
