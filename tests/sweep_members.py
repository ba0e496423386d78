"""Sweep of the seeded member search over every cyclic and dihedral stratum
up to the default degree cap.

    PYTHONPATH=src python -m pytest tests/sweep_members.py -q

For each d = 2..61 and m = 2..d+1: every cyclic type t with m | d - t has
an exactly verified member, and every dihedral type t = +-1 with m | d - t
has one for both inversion signs mu = +-1 (t = 0 is empty by the theorem).
The search runs out of seeds on none of them.  About two seconds on a
2-vCPU Xeon with Python 3.11; the file name is outside the test_*.py
pattern, so the default test run skips it.
"""

import pytest

from symloci.cli import DEFAULT_DEGREE_CAP
from symloci.loci import cyclic_existence_and_dim, dihedral_dim


@pytest.mark.parametrize("d", range(2, DEFAULT_DEGREE_CAP + 1))
def test_every_stratum_finds_a_member(d):
    for m in range(2, d + 2):
        types = {t for t in (1, 0, -1) if (d - t) % m == 0}
        cyclic = dict(cyclic_existence_and_dim(d, m))
        assert set(cyclic) == types, (d, m)
        for t, rep in cyclic.items():
            assert rep.exists and rep.certificate["member"].is_in_ratd(), (d, m, t)
        for t, rep in dihedral_dim(d, m):
            if t == 0:
                assert not rep.exists, (d, m)
            else:
                assert rep.exists and rep.certificate["signs_realized"] == [1, -1], (d, m, t)
