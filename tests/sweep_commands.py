"""Which functions and methods of the package no command enters.

    PYTHONPATH=src python tests/sweep_commands.py

Runs a fixed set of CLI commands in this process with a ``sys.settrace``
hook that records every Python function entered, then prints, module by
module, the module-level functions and class methods of ``symloci`` that
none of them entered.  The commands:

- ``survey`` over d = 2..31 as CSV and as JSON; the family survey over
  60..80; the platonic surveys over 110..125 and at 1001;
- ``construct`` of 16 maps (tetra 5, 7, 11, 13; octa 5, 13, 17; icosa 11,
  29, 31, 119; cyclic:3 at 7 and 12; dihedral:3 at 7 and 11; cyclic:2:t=0
  at 12) and two that exit 3;
- on each of the 16 maps: ``check`` against its own group and against
  cyclic:4001, ``decomp`` both ways, ``resultant`` and ``aut``;
- commands that end in an error path: five usage errors (among them
  ``construct`` of cyclic:1 and ``survey`` at d = 70 without
  ``--allow-large``); a file that is not JSON and a map with no ``F``, each
  given to ``check``, ``aut``, ``resultant`` and ``decomp``; ``check`` of
  (X^2 : XY), outside Rat_d, and with ``--tolerance 0``; ``aut`` of a
  degree-1 map and of (10^10 X^2 + Y^2 : XY), whose fixed points cluster;
- each construct-check block of ``bench/workloads.py`` (construct, check,
  resultant, and resultant and aut of the conjugate) under each of the
  eight ``M_PANEL`` matrices; the conjugate is built outside the trace.

A command that raises is reported and the sweep goes on.  Only calls made
while ``symloci.cli`` is imported (every command imports it, and it builds
the parser then) or inside ``cli.main`` count, so a function that only the
tests or the bench harness call is listed.  About 25 s on a 2-vCPU Xeon
with Python 3.11; the file name is outside the test_*.py pattern, so the
default test run skips it.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # bench.workloads

entered = set()


def _trace(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.settrace(_trace)
import symloci  # noqa: E402
from symloci.cli import main  # noqa: E402

sys.settrace(None)
from bench.workloads import CONSTRUCT_CASES, M_PANEL  # noqa: E402
from symloci.forms import RationalMap  # noqa: E402
from symloci.moebius import MoebiusMap, conjugate_map  # noqa: E402

MAPS = [
    ("tetra", 5), ("tetra", 7), ("tetra", 11), ("tetra", 13), ("octa", 5), ("octa", 13), ("octa", 17),
    ("icosa", 11), ("icosa", 29), ("icosa", 31), ("icosa", 119), ("cyclic:3", 7), ("cyclic:3", 12),
    ("dihedral:3", 7), ("dihedral:3", 11), ("cyclic:2:t=0", 12),
]
NOT_REALIZABLE = [("tetra", 6), ("dihedral:5", 5)]
USAGE_ERRORS = [
    ["survey", "--d", "banana"], ["construct", "--d", "5", "--group", "frob"], ["resultant", "missing.json"],
    ["construct", "--d", "5", "--group", "cyclic:1"], ["survey", "--d", "70"],
]
# name -> (num, den) in z, highest degree first, for the error paths of check and aut
ERROR_MAPS = {"outside": ([1, 0, 0], [0, 1, 0]), "degree1": ([1, 0], [0, 1]), "clustered": ([10**10, 0, 1], [0, 1, 0])}


def run(argv):
    """main(argv) under the trace: (exit code or the exception's name, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(_trace)
        try:
            code = main(argv)
        except Exception as exc:
            code = type(exc).__name__
        finally:
            sys.settrace(None)
    if code not in (0, 1, 3, 4):
        print(f"  {' '.join(argv)}: {code}")
    return code, out.getvalue()


def commands(tmp: Path):
    for fmt in ("csv", "json"):
        run(["survey", "--d", "2..31", "--format", fmt])
    run(["survey", "--d", "60..80", "--groups", "cyclic,dihedral", "--allow-large"])
    run(["survey", "--d", "110..125", "--groups", "platonic", "--allow-large"])
    run(["survey", "--d", "1001", "--groups", "platonic", "--allow-large"])
    for group, d in NOT_REALIZABLE:
        run(["construct", "--d", str(d), "--group", group])
    for group, d in MAPS:
        path, pair = tmp / f"{group}-{d}.json", tmp / f"{group}-{d}-pair.json"
        path.write_text(run(["construct", "--d", str(d), "--group", group, "--allow-large"])[1])
        for claimed in (group.split(":t=")[0], "cyclic:4001"):
            run(["check", str(path), "--group", claimed])
        pair.write_text(run(["decomp", str(path)])[1])
        run(["decomp", "--inverse", str(pair)])
        run(["resultant", str(path)])
        run(["aut", str(path)])
    for argv in USAGE_ERRORS:
        run(argv)
    files = {"garbage": "not json", "no-F": json.dumps({"map": {"G": {"degree": 0, "coeffs": []}}})}
    files.update({name: json.dumps({"map": RationalMap.from_zpoly(*nd).to_json()}) for name, nd in ERROR_MAPS.items()})
    for name, text in files.items():
        (tmp / f"{name}.json").write_text(text)
    for name in ("garbage", "no-F"):
        for cmd in (["check", "--group", "tetra"], ["aut"], ["resultant"], ["decomp"]):
            run([cmd[0], str(tmp / f"{name}.json"), *cmd[1:]])
    run(["check", str(tmp / "outside.json"), "--group", "cyclic:2"])
    run(["check", str(tmp / f"{MAPS[0][0]}-{MAPS[0][1]}.json"), "--group", MAPS[0][0], "--tolerance", "0"])
    run(["aut", str(tmp / "degree1.json")])
    run(["aut", str(tmp / "clustered.json")])
    for group, d in CONSTRUCT_CASES:
        for m in M_PANEL:
            path, conj = tmp / f"{group}{d}.json", tmp / f"{group}{d}-M.json"
            phi = json.loads(run(["construct", "--group", group, "--d", str(d)])[1])["map"]
            path.write_text(json.dumps({"map": phi}))
            run(["check", str(path), "--group", group])
            run(["resultant", str(path)])
            conj.write_text(json.dumps({"map": conjugate_map(RationalMap.from_json(phi), MoebiusMap(*m)).to_json()}))
            run(["resultant", str(conj)])
            run(["aut", str(conj)])


def definitions(module):
    """(qualified name, code object) of each function and method the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                for fn in (getattr(member, "__func__", member), getattr(member, "fget", None)):
                    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
                    if code is not None and code.co_filename == module.__file__:
                        yield f"{name}.{attr}", code
        elif callable(obj) and (code := getattr(getattr(obj, "__wrapped__", obj), "__code__", None)):
            yield name, code


def main_sweep():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        commands(Path(tmp))
    total = missed = 0
    for info in pkgutil.iter_modules(symloci.__path__):
        module = importlib.import_module(f"symloci.{info.name}")
        names = sorted({name for name, code in definitions(module) if code not in entered})
        total += sum(1 for _ in definitions(module))
        missed += len(names)
        print(f"symloci.{info.name} ({len(names)}): {', '.join(names) or '-'}")
    print(f"{missed} of {total} functions and methods entered by no command; {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main_sweep()
