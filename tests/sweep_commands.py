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
- three usage errors;
- each construct-check block of ``bench/workloads.py`` (construct, check,
  resultant, and resultant and aut of the conjugate) under each of the
  eight ``M_PANEL`` matrices; the conjugate is built outside the trace.

A command that raises is reported and the sweep goes on.  Only calls made
inside ``cli.main`` count, so a function that only the tests or the bench
harness call is listed.  About 17 s on a 2-vCPU Xeon with Python 3.11; the
file name is outside the test_*.py pattern, so the default test run skips it.
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

import symloci  # noqa: E402
from bench.workloads import CONSTRUCT_CASES, M_PANEL  # noqa: E402
from symloci.cli import main  # noqa: E402
from symloci.forms import RationalMap  # noqa: E402
from symloci.moebius import MoebiusMap, conjugate_map  # noqa: E402

MAPS = [
    ("tetra", 5), ("tetra", 7), ("tetra", 11), ("tetra", 13), ("octa", 5), ("octa", 13), ("octa", 17),
    ("icosa", 11), ("icosa", 29), ("icosa", 31), ("icosa", 119), ("cyclic:3", 7), ("cyclic:3", 12),
    ("dihedral:3", 7), ("dihedral:3", 11), ("cyclic:2:t=0", 12),
]
NOT_REALIZABLE = [("tetra", 6), ("dihedral:5", 5)]
USAGE_ERRORS = [["survey", "--d", "banana"], ["construct", "--d", "5", "--group", "frob"], ["resultant", "missing.json"]]

entered = set()


def _trace(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


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
