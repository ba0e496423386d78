"""Cold-start benchmarks: fresh interpreter processes, each timed from the
outside, with bytecode writing off (PYTHONDONTWRITEBYTECODE=1), so every
run compiles the package from source as a first run after a checkout does.
Four commands:

* ``import symloci.cli`` alone, the fixed cost every command pays;
* ``symloci survey --d 8 --groups cyclic,dihedral``, a small family survey;
* ``symloci survey --d 11 --groups platonic``, the three platonic groups'
  tables, trace-formula counts and image-field primes built from nothing;
* ``symloci check f5.json --group cyclic:4001``, where f5.json is the
  octa d = 5 map that ``construct`` writes: its first rotation fails, so
  the command exits 4 after testing one generator and two elements.

Each round's wall time is the benchmark's sample.  The child reports its
own peak RSS (VmHWM in /proc/self/status, so Linux only) as it exits, and
the sorted peaks of the rounds go into ``extra_info`` as ``peak_rss_mb``:
the rusage of a child would count the peak of the pytest process it was
forked from.

    PYTHONPATH=src python -m pytest tests/perf_startup.py --benchmark-only

The file name is outside the test_*.py pattern, so the default test run
skips it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PEAK = (
    "import atexit, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(next(line for line in fh if line.startswith('VmHWM')))\n"
    "atexit.register(peak)\n"
)
RUN_CLI = "import runpy\nsys.argv[0] = 'symloci'\nrunpy.run_module('symloci.cli', run_name='__main__')\n"
COMMANDS = {
    "import": (PEAK + "import symloci.cli\n", [], 0),
    "survey-d8-family": (PEAK + RUN_CLI, ["survey", "--d", "8", "--groups", "cyclic,dihedral"], 0),
    "survey-d11-platonic": (PEAK + RUN_CLI, ["survey", "--d", "11", "--groups", "platonic"], 0),
    "check-cyclic-4001": (PEAK + RUN_CLI, ["check", "{f5}", "--group", "cyclic:4001"], 4),
}


def fresh_run(code, args) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of python -c code args in a fresh process
    that writes no bytecode and imports symloci from this checkout's src/."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, int(proc.stderr.split()[-2]) / 1024.0


@pytest.fixture(scope="module")
def f5(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "f5.json"
    with open(path, "w") as fh:
        subprocess.run([sys.executable, "-m", "symloci.cli", "construct", "--d", "5", "--group", "octa"],
                       stdout=fh, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return path


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("name", list(COMMANDS))
def test_cold_start(benchmark, name, f5):
    code, args, want = COMMANDS[name]
    args = [a.format(f5=f5) for a in args]
    runs = []
    benchmark.pedantic(lambda: runs.append(fresh_run(code, args)), rounds=5, iterations=1)
    assert {rc for rc, _ in runs} == {want}
    benchmark.extra_info["peak_rss_mb"] = sorted(mb for _, mb in runs)
