"""Workload plans and reference checks for the symloci benchmark.

A *plan* is the list of items one worker process runs.  An item is one
``symloci`` CLI invocation; construct-check items come in blocks of five
that share one constructed map.  Plans depend only on (workload, seed,
run index, runs in the invocation), so the same seed always gives the same
items and the same conjugating matrices.

Every run of a workload covers the same item set, and an invocation makes
a fixed number of runs (``runs_per_invocation``).  In construct-check the
conjugating matrices come from a fixed panel: over an invocation's R runs
each case meets the panel's first R matrices once each, and the seed picks
the run in which it meets which.  So the seed picks the order and the
pairing, while the work of an invocation, and the items the program gets
wrong, do not depend on it: run-to-run spread measures the machine, not the
draw.

The reference values below are the paper's closed forms and the classical
facts about the platonic groups; none is read back from the program.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re

WORKLOADS = ("survey-family", "survey-platonic", "construct-check")

# survey-family: one `survey --groups cyclic,dihedral --d D` per degree.
FAMILY_DEGREES = (8, 9, 10, 11)

# survey-platonic: one window of consecutive odd realizable degrees per
# group, run in ascending order as a survey would.  Inside a window the
# degree d+1 eigenspace at d is the degree d'-1 eigenspace at d' = d+2, so
# a cache across items shows here.
PLATONIC_WINDOWS = {"tetra": (11, 13, 15), "octa": (11, 13), "icosa": (11,)}

# construct-check: realizable (G, D) cases; each gives one five-item block.
# An icosa block (construct + check take 10-14 s at d = 11 on the reference
# 2-vCPU Xeon VM) would fill a whole run, so survey-platonic alone covers
# icosa.
CONSTRUCT_CASES = (("octa", 13), ("tetra", 11), ("tetra", 13))

GROUP_ORDER = {"tetra": 12, "octa": 24, "icosa": 60}
GROUP_CENSUS = {
    "tetra": {1: 1, 2: 3, 3: 8},
    "octa": {1: 1, 2: 9, 3: 8, 4: 6},
    "icosa": {1: 1, 2: 15, 3: 20, 5: 24},
}
# Degrees with a G-symmetric map: d mod modulus in the residue set
# (A4: d odd; S4: gcd(d, 6) = 1; A5: d = 1, 11, 19, 29 mod 30).
EXISTENCE_RESIDUES = {
    "tetra": (12, frozenset({1, 3, 5, 7, 9, 11})),
    "octa": (24, frozenset({1, 5, 7, 11, 13, 17, 19, 23})),
    "icosa": (30, frozenset({1, 11, 19, 29})),
}
# Full automorphism group (order, class) of the map `construct` builds for
# each case; conjugation by M in SL2(Z) must leave it unchanged.  The
# tetra d = 13 map is octahedral: all 24 elements of `octa` verify exactly,
# and no finite subgroup of PGL2 properly contains S4.
CONSTRUCTED_AUT = {("octa", 13): (24, "octa"), ("tetra", 11): (12, "tetra"), ("tetra", 13): (24, "octa")}

# SL2(Z) matrices with entries |.| <= 3, identity and -identity excluded.
SL2_SMALL = tuple(
    (a, b, c, d)
    for a in range(-3, 4)
    for b in range(-3, 4)
    for c in range(-3, 4)
    for d in range(-3, 4)
    if a * d - b * c == 1 and (a, b, c, d) not in ((1, 0, 0, 1), (-1, 0, 0, -1))
)
# The conjugating matrices of construct-check, drawn once from SL2_SMALL by
# a fixed generator, not picked by how the program does on them.
M_PANEL = tuple(random.Random("construct-check:M-panel").sample(SL2_SMALL, 8))

# Wall-clock seconds one worker run takes on the reference 2-vCPU Xeon VM,
# set-up included; an invocation makes as many runs as fit in --seconds.
RUN_S = {"survey-family": 11.0, "survey-platonic": 13.0, "construct-check": 7.5}

DISCOVERY = "discovery: "  # prefix of problems that come from numeric discovery


def runs_per_invocation(workload: str, seconds: float) -> int:
    return max(1, int(seconds // RUN_S[workload]))


def plan(workload: str, seed: int, run: int, runs: int) -> list[dict]:
    """The items of run `run` of an invocation of `runs` runs, in the order
    the worker runs them."""
    rng = random.Random(f"{workload}:{seed}:{run}")
    if workload == "survey-family":
        degrees = list(FAMILY_DEGREES)
        rng.shuffle(degrees)
        return [{"kind": "survey", "groups": "cyclic,dihedral", "d": d} for d in degrees]
    if workload == "survey-platonic":
        windows = list(PLATONIC_WINDOWS.items())
        rng.shuffle(windows)
        return [{"kind": "survey", "groups": g, "d": d} for g, degrees in windows for d in degrees]
    if workload == "construct-check":
        # a seeded rotation per case, the same in every run of the invocation
        shift = random.Random(f"{workload}:{seed}")
        panel_index = {case: (run + shift.randrange(runs)) % runs % len(M_PANEL) for case in CONSTRUCT_CASES}
        cases = list(CONSTRUCT_CASES)
        rng.shuffle(cases)
        return [
            {"kind": "construct-block", "group": g, "d": d, "M": list(M_PANEL[panel_index[(g, d)]])}
            for g, d in cases
        ]
    raise ValueError(f"unknown workload {workload!r}")


def item_count(items: list[dict]) -> int:
    """CLI invocations in a plan: a construct block is five."""
    return sum(5 if it["kind"] == "construct-block" else 1 for it in items)


def setup_groups(workload: str) -> dict:
    """What a worker builds before timing: {"platonic": [...kinds],
    "family_orders": [...m]} for the groups the workload's items use."""
    if workload == "survey-family":
        return {"platonic": [], "family_orders": list(range(2, max(FAMILY_DEGREES) + 2))}
    if workload == "survey-platonic":
        return {"platonic": sorted(PLATONIC_WINDOWS), "family_orders": []}
    return {"platonic": sorted({g for g, _ in CONSTRUCT_CASES}), "family_orders": []}


# ---------------------------------------------------------------------------
# reference checks: each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------


def _expected_survey_rows(d: int, groups: str) -> dict:
    """{(group, t): (exists, dim_moduli)} for the rows `survey` must print."""
    rows = {}
    for kind in groups.split(","):
        if kind in GROUP_ORDER:
            modulus, residues = EXISTENCE_RESIDUES[kind]
            exists = d % modulus in residues
            rows[(kind, "")] = (exists, 2 * d // GROUP_ORDER[kind] if exists else None)
            continue
        for m in range(2, d + 2):
            for t in (1, 0, -1):
                if (d - t) % m:
                    continue
                if kind == "cyclic":
                    rows[(f"cyclic:{m}", str(t))] = (True, 2 * (d - t) // m + t - 1)
                elif t == 0:
                    rows[(f"dihedral:{m}", "0")] = (False, None)
                else:
                    dim = (d - 1) // m if t == 1 else (d + 1) // m - 1
                    rows[(f"dihedral:{m}", str(t))] = (True, dim)
    return rows


def check_survey(rc: int, out: str, d: int, groups: str) -> list[str]:
    if rc != 0:
        return [f"survey exited {rc}"]
    expected = _expected_survey_rows(d, groups)
    seen = {}
    problems = []
    for row in csv.DictReader(io.StringIO(out)):
        key = (row["group"], row["t"])
        seen[key] = row
        if row["match"] != "True":
            problems.append(f"{key}: match is {row['match']}")
        if row["d"] != str(d):
            problems.append(f"{key}: degree {row['d']} != {d}")
    if set(seen) != set(expected):
        problems.append(f"row set differs: missing {sorted(set(expected) - set(seen))}, extra {sorted(set(seen) - set(expected))}")
    for key, (exists, dim) in expected.items():
        row = seen.get(key)
        if row is None:
            continue
        if row["exists"] != str(exists):
            problems.append(f"{key}: exists {row['exists']} != {exists}")
        want = "" if dim is None else str(dim)
        if row["dim_moduli"] != want:
            problems.append(f"{key}: dim_moduli {row['dim_moduli']!r} != {want!r}")
    return problems


def _json_or_problem(rc: int, out: str, what: str):
    if rc != 0:
        return None, [f"{what} exited {rc}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"{what} printed malformed JSON: {exc}"]


def check_construct(rc: int, out: str, group: str, d: int) -> list[str]:
    obj, problems = _json_or_problem(rc, out, "construct")
    if obj is None:
        return problems
    n = GROUP_ORDER[group]
    cert = obj["certificate"]
    census = {str(k): v for k, v in GROUP_CENSUS[group].items()}
    if obj["d"] != d or obj["map"]["F"]["degree"] != d:
        problems.append(f"map degree {obj['map']['F']['degree']} != {d}")
    if obj["group_order"] != n or cert["verified_count"] != n:
        problems.append(f"verified {cert['verified_count']} of {obj['group_order']}, want {n}")
    if cert["order_census"] != census:
        problems.append(f"order census {cert['order_census']} != {census}")
    if cert["classified"] != group:
        problems.append(f"classified {cert['classified']} != {group}")
    return problems


_VERIFY_LINE = re.compile(r"exact verification: (\d+)/(\d+) elements pass")
_DISCOVERY_LINE = re.compile(r"numeric discovery: order (\d+), census .*, classified (\S+)")


def check_check(rc: int, out: str, group: str, aut: tuple[int, str]) -> list[str]:
    if rc != 0:
        return [f"check exited {rc}"]
    n = GROUP_ORDER[group]
    problems = []
    m = _VERIFY_LINE.search(out)
    if not m or (int(m.group(1)), int(m.group(2))) != (n, n):
        problems.append(f"exact verification line is not {n}/{n}")
    m = _DISCOVERY_LINE.search(out)
    if not m or (int(m.group(1)), m.group(2)) != aut:
        found = (m.group(1), m.group(2)) if m else None
        problems.append(f"{DISCOVERY}check found {found}, want order {aut[0]} {aut[1]}")
    return problems


def check_resultant(rc: int, out: str, d: int, reference: dict | None = None) -> list[str]:
    """A nonzero resultant of a degree-d map; equal to `reference` when
    given (conjugation by M with det M = 1 leaves it unchanged)."""
    obj, problems = _json_or_problem(rc, out, "resultant")
    if obj is None:
        return problems
    if obj["degree"] != d or obj["in_ratd"] is not True:
        problems.append(f"degree {obj['degree']}, in_ratd {obj['in_ratd']}")
    if reference is not None and obj["resultant"] != reference:
        problems.append("resultant of the conjugated map differs from the original")
    return problems


def check_aut(rc: int, out: str, aut: tuple[int, str]) -> list[str]:
    obj, problems = _json_or_problem(rc, out, "aut")
    if obj is None:
        return problems
    rep = obj["report"]
    if (rep["numeric_order"], rep["classified"]) != aut:
        problems.append(
            f"{DISCOVERY}aut found order {rep['numeric_order']} ({rep['classified']}), "
            f"want {aut[0]} ({aut[1]})"
        )
    return problems
