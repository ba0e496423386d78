"""Self-tests of the benchmark: tracer counts and restoration, reference
checks, seeded plans, and BENCHMARK.json against run.py's tables.

    python3 -m pytest bench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every (owner, attribute) -> value in the symloci package and its classes."""
    import symloci

    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "symloci" and not name.startswith("symloci."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
    for cls in (symloci.Cyclotomic, symloci.ExactMatrix):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_verify_group_action_octa_call_counts():
    import symloci
    from symloci import RationalMap, standard_subgroup

    phi = RationalMap.from_zpoly([1, 0, 0, 0, -5, 0], [0, -5, 0, 0, 0, 1])  # (z^5 - 5z)/(1 - 5z^4)
    octa = standard_subgroup("octa")
    with Tracer() as tr:
        report = symloci.verify_group_action(phi, octa)
    assert report.all_verified and len(report.verified_elements) == 24
    agg = tr.aggregate()
    assert agg["aut.verify_group_action"]["calls"] == 1
    assert agg["aut.is_automorphism"]["calls"] == 24
    assert agg["moebius.conjugate_map"]["calls"] == 24
    assert agg["forms.substitute"]["calls"] == 48
    assert tr.counts["aut.verify_group_action.elements"] == 24
    # self time never exceeds the span, and the root covers its children
    for a in agg.values():
        assert -1e-9 <= a["self_s"] <= a["total_s"] + 1e-9


def test_every_patched_binding_is_restored():
    import symloci
    from symloci import forms, moebius, platonic

    before = _bindings()
    substitute = forms.substitute
    tr = Tracer().install()
    try:
        for owner in (forms, moebius, platonic, symloci):
            assert owner.substitute is not substitute
    finally:
        tr.uninstall()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert forms.substitute is substitute


def test_multi_binding_functions_are_all_patched():
    import symloci
    from symloci import aut, loci, moebius

    originals = {"conjugate_map": moebius.conjugate_map, "is_automorphism": aut.is_automorphism}
    holders = {
        name: [m for m in (symloci, aut, moebius, loci) if vars(m).get(name) is fn]
        for name, fn in originals.items()
    }
    assert all(len(h) == 3 for h in holders.values()), holders
    with Tracer():
        for name, fn in originals.items():
            assert all(getattr(m, name) is not fn for m in holders[name])
    for name, fn in originals.items():
        assert all(getattr(m, name) is fn for m in holders[name])


def _survey_csv(d, groups):
    from symloci import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["survey", "--groups", groups, "--d", str(d)])
    return rc, buf.getvalue()


def test_checker_accepts_program_output_and_flags_defects():
    rc, out = _survey_csv(6, "cyclic,dihedral")
    assert workloads.check_survey(rc, out, 6, "cyclic,dihedral") == []
    lines = out.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("6,cyclic:2,"))
    flipped = lines.copy()
    flipped[i] = flipped[i].rsplit(",", 1)[0] + ",False"
    assert workloads.check_survey(0, "\n".join(flipped), 6, "cyclic,dihedral")
    fields = lines[i].split(",")
    fields[4] = str(int(fields[4]) + 1)  # dim_moduli
    wrong_dim = lines.copy()
    wrong_dim[i] = ",".join(fields)
    assert any("dim_moduli" in p for p in workloads.check_survey(0, "\n".join(wrong_dim), 6, "cyclic,dihedral"))
    assert workloads.check_survey(2, out, 6, "cyclic,dihedral") == ["survey exited 2"]
    missing = "\n".join(lines[:-1])
    assert any("row set differs" in p for p in workloads.check_survey(0, missing, 6, "cyclic,dihedral"))


def test_checker_on_platonic_rows_and_discovery_misses():
    rc, out = _survey_csv(5, "octa")
    assert workloads.check_survey(rc, out, 5, "octa") == []
    assert workloads.check_survey(rc, out.replace("True,0,", "True,1,"), 5, "octa")
    aut_out = json.dumps({"report": {"numeric_order": 1, "classified": "cyclic:1"}})
    problems = workloads.check_aut(0, aut_out, (24, "octa"))
    assert problems and all(p.startswith(workloads.DISCOVERY) for p in problems)
    assert workloads.check_aut(1, aut_out, (24, "octa")) == ["aut exited 1"]
    res = json.dumps({"degree": 5, "in_ratd": True, "resultant": {"conductor": 1, "coeffs": [["3", "1"]]}})
    assert workloads.check_resultant(0, res, 5) == []
    assert workloads.check_resultant(0, res, 5, {"conductor": 1, "coeffs": [["-3", "1"]]})


def test_same_seed_same_items_and_matrices():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7, 0, 3) == workloads.plan(w, 7, 0, 3)
        # every run covers the same item set, whatever the seed
        key = lambda p: sorted(json.dumps(it, sort_keys=True) for it in p)  # noqa: E731
        strip = lambda p: [{k: v for k, v in it.items() if k != "M"} for it in p]  # noqa: E731
        assert key(strip(workloads.plan(w, 7, 0, 3))) == key(strip(workloads.plan(w, 8, 2, 3)))
    for it in workloads.plan("construct-check", 3, 1, 3):
        a, b, c, d = it["M"]
        assert a * d - b * c == 1 and max(map(abs, it["M"])) <= 3


def test_invocation_pairs_do_not_depend_on_the_seed():
    def pairs(seed, runs):
        return sorted(
            (it["group"], it["d"], tuple(it["M"]))
            for run in range(runs)
            for it in workloads.plan("construct-check", seed, run, runs)
        )

    for runs in (1, 3, 4, 11):
        want = sorted((g, d, workloads.M_PANEL[k % len(workloads.M_PANEL)])
                      for g, d in workloads.CONSTRUCT_CASES for k in range(runs))
        assert all(pairs(seed, runs) == want for seed in range(10))
    # the seed still picks which run meets which matrix
    runs = [tuple(map(tuple, (it["M"] for it in workloads.plan("construct-check", s, 0, 3)))) for s in range(20)]
    assert len(set(runs)) > 1


def test_benchmark_json_matches_run_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
