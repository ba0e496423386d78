"""symloci benchmark entry point.

    python3 bench/run.py --workload survey-family --seed 1 --seconds 32 --trace 0

Closed loop, one client: this process starts one worker process at a time
(bench/worker.py) and stays idle until it exits.  Each worker is one *run*:
process start, ``import symloci``, building the workload's groups and
character tables (set-up), then the run's CLI items through
``symloci.cli.main``.  An invocation makes a fixed number of runs, sized
so that they take about --seconds on the reference machine
(workloads.runs_per_invocation), each with a fresh process and a new seeded
item order.  The count does not depend on how fast the host is, so the
items attempted, and the items failed, are the same on every invocation.
A set-up-only worker before the first run gives set-up time one more
sample.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the plan of a
one-run invocation once untraced and once under the outside-in tracer
(bench/tracer.py) and prints the per-layer metrics, including the tracing
overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Any worker that fails ends the benchmark with a nonzero exit code
and no result line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

STARTED = monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every worker must end before this many seconds from the start of the
# invocation, so that a hung one cannot keep the benchmark past 180 s.
DEADLINE_S = 170
SETUP_PROBES = 1
# Times are reported in reference-speed seconds: every raw time is
# multiplied by the host's speed measured around and during it
# (worker.SpeedProbe), which takes out the host's drift in speed (up to a
# factor of two within seconds on the 2-vCPU Xeon VM the README's numbers
# come from).  --trace 1 reports its per-layer times raw.

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
)

# Result conductors reported one by one for Cyclotomic multiplication; any
# other conductor is summed into cyclotomic.mul.calls.n_other.
MUL_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24, 26, 30)

PER_LAYER = (
    ("cyclotomic.mul.calls", "count", "lower"),
    ("cyclotomic.add.calls", "count", "lower"),
    ("cyclotomic.inverse.calls", "count", "lower"),
    ("cyclotomic.minimal.calls", "count", "lower"),
    *((f"cyclotomic.mul.calls.n{n}", "count", "lower") for n in MUL_CONDUCTORS),
    ("cyclotomic.mul.calls.n_other", "count", "lower"),
    ("cyclotomic.kernel.calls", "count", "lower"),
    ("cyclotomic.kernel.self_s", "s", "lower"),
    ("cyclotomic.kernel.cells", "count", "lower"),
    ("cyclotomic.det.calls", "count", "lower"),
    ("cyclotomic.det.self_s", "s", "lower"),
    ("cyclotomic.det.cells", "count", "lower"),
    ("forms.substitute.calls", "count", "lower"),
    ("forms.substitute.self_s", "s", "lower"),
    ("forms.substitute.terms", "count", "lower"),
    ("forms.sylvester_resultant.calls", "count", "lower"),
    ("forms.sylvester_resultant.self_s", "s", "lower"),
    ("forms.form_gcd.calls", "count", "lower"),
    ("forms.form_gcd.self_s", "s", "lower"),
    ("moebius.generate_closure.calls", "count", "lower"),
    ("moebius.generate_closure.self_s", "s", "lower"),
    ("moebius.conjugate_map.calls", "count", "lower"),
    ("moebius.conjugate_map.self_s", "s", "lower"),
    ("decomp.meets_ratd.calls", "count", "lower"),
    ("decomp.meets_ratd.self_s", "s", "lower"),
    ("decomp.meets_ratd.yield", "ratio", "higher"),
    ("aut.verify_group_action.calls", "count", "lower"),
    ("aut.verify_group_action.self_s", "s", "lower"),
    ("aut.verify_group_action.elements", "count", "lower"),
    ("aut.verify_group_action.pass_ratio", "ratio", "higher"),
    ("aut.is_automorphism.calls", "count", "lower"),
    ("aut.is_automorphism.self_s", "s", "lower"),
    ("aut.discover_automorphisms.calls", "count", "lower"),
    ("aut.discover_automorphisms.self_s", "s", "lower"),
    ("aut.discover_automorphisms.hit_ratio", "ratio", "higher"),
    ("loci.generic_member.calls", "count", "lower"),
    ("loci.generic_member.self_s", "s", "lower"),
    ("loci.dihedral_generic_member.calls", "count", "lower"),
    ("loci.dihedral_generic_member.self_s", "s", "lower"),
    ("loci.dihedral.verifies_per_member", "ratio", "lower"),
    ("platonic.character_eigenspace.calls", "count", "lower"),
    ("platonic.character_eigenspace.self_s", "s", "lower"),
    ("platonic.invariant_locus_dimension.self_s", "s", "lower"),
    ("platonic.construct_symmetric_map.self_s", "s", "lower"),
    ("platonic.setup_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

KNOWN_DEFECT = (
    "known defect: `aut` (numeric discovery, default tolerance) often misses the "
    "symmetry of phi^M for M outside the translations, although the group acts exactly; "
    "each miss counts as a failed item"
)


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # single-threaded numpy, and a fixed hash seed so set order repeats
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(workload: str, seed: int, run: int, runs: int, trace: int = 0, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--run", str(run), "--runs", str(runs), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    now = monotonic()
    argv += ["--spawned-at", repr(now)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, STARTED + DEADLINE_S - now))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker run {run} did not end within {DEADLINE_S} s of the start") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker run {run} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker run {run} printed no result")
    return json.loads(lines[-1])


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def item_s(item: dict, scaled: bool = True) -> float:
    return item["latency_s"] * (item["speed"] if scaled else 1.0)


def run_wall(result: dict, scaled: bool = True) -> float:
    return sum(item_s(it, scaled) for it in result["items"])


def run_speed(result: dict) -> float:
    """A run's speed: its items' speeds weighted by their raw time."""
    return run_wall(result) / run_wall(result, scaled=False)


def end_to_end(runs: list[dict], probes: list[dict], scaled: bool = True) -> dict:
    """{metric: (value, sample count)}; times in reference-speed seconds
    unless scaled is False."""
    by_key: dict = {}
    for r in runs:
        for it in r["items"]:
            by_key.setdefault(it["key"], []).append(item_s(it, scaled))
    # Percentiles over the items' median latencies, so that they do not
    # shift with the number of runs.
    latencies = [statistics.median(v) for v in by_key.values()]
    pooled = sum(len(v) for v in by_key.values())
    setups = [r["setup_s"] * (r["setup_speed"] if scaled else 1.0) for r in probes + runs]
    failed = sum(1 for r in runs for it in r["items"] if it["problems"])
    return {
        "wall_s": (statistics.median(run_wall(r, scaled) for r in runs), len(runs)),
        "item_p50_s": (_quantile(latencies, 0.5), pooled),
        "item_p90_s": (_quantile(latencies, 0.9), pooled),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), len(runs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "ok_frac": (1 - failed / pooled, pooled),
    }


def per_layer(traced: dict, overhead: float) -> dict:
    layers, counts = traced["layers"], traced["counts"]

    def span(name, field="calls"):
        return layers.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cyclotomic.mul.calls": counts.get("cyclotomic.mul.calls", 0),
        "cyclotomic.add.calls": counts.get("cyclotomic.add.calls", 0),
        "cyclotomic.inverse.calls": counts.get("cyclotomic.inverse.calls", 0),
        "cyclotomic.minimal.calls": counts.get("cyclotomic.minimal.calls", 0),
    }
    by_n = {int(k): v for k, v in traced["mul_by_conductor"].items()}
    for n in MUL_CONDUCTORS:
        out[f"cyclotomic.mul.calls.n{n}"] = by_n.pop(n, 0)
    out["cyclotomic.mul.calls.n_other"] = sum(by_n.values())
    for name in ("cyclotomic.kernel", "cyclotomic.det"):
        out[f"{name}.calls"] = span(name)
        out[f"{name}.self_s"] = span(name, "self_s")
        out[f"{name}.cells"] = counts.get(f"{name}.cells", 0)
    for name in ("forms.substitute", "forms.sylvester_resultant", "forms.form_gcd",
                 "moebius.generate_closure", "moebius.conjugate_map", "decomp.meets_ratd",
                 "aut.verify_group_action", "aut.is_automorphism", "aut.discover_automorphisms",
                 "loci.generic_member", "loci.dihedral_generic_member",
                 "platonic.character_eigenspace"):
        out[f"{name}.calls"] = span(name)
        out[f"{name}.self_s"] = span(name, "self_s")
    out["forms.substitute.terms"] = counts.get("forms.substitute.terms", 0)
    out["decomp.meets_ratd.yield"] = ratio(counts.get("decomp.meets_ratd.true", 0), span("decomp.meets_ratd"))
    out["aut.verify_group_action.elements"] = counts.get("aut.verify_group_action.elements", 0)
    out["aut.verify_group_action.pass_ratio"] = ratio(
        counts.get("aut.verify_group_action.passed", 0), span("aut.verify_group_action"))
    out["aut.discover_automorphisms.hit_ratio"] = ratio(
        counts.get("aut.discover_automorphisms.hits", 0), counts.get("aut.discover_automorphisms.attempts", 0))
    out["loci.dihedral.verifies_per_member"] = ratio(
        traced["dihedral_verifies"], span("loci.dihedral_generic_member", "ok"))
    for name in ("platonic.invariant_locus_dimension", "platonic.construct_symmetric_map", "cli.main"):
        out[f"{name}.self_s"] = span(name, "self_s")
    out["platonic.setup_s"] = traced["platonic_setup_s"]
    out["trace.overhead_frac"] = overhead
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symloci" / "__init__.py").is_file():
        print(f"error: no symloci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    try:
        if args.trace:
            # the plan of a one-run invocation, once untraced and once traced
            plain = run_worker(args.workload, args.seed, 0, 1)
            traced = run_worker(args.workload, args.seed, 0, 1, trace=1)
            runs = [plain, traced]
            wall = [run_wall(r) for r in runs]
            values = per_layer(traced, wall[1] / wall[0] - 1)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
            notes = [f"trace spans: {traced['spans_file']} ({sum(v['calls'] for v in traced['layers'].values())} spans)",
                     f"untraced wall {wall[0]:.3f} s, traced wall {wall[1]:.3f} s (reference-speed seconds)"]
        else:
            n_runs = workloads.runs_per_invocation(args.workload, args.seconds)
            probes = [run_worker(args.workload, args.seed, -1 - k, n_runs, setup_only=True)
                      for k in range(SETUP_PROBES)]
            runs = [run_worker(args.workload, args.seed, k, n_runs) for k in range(n_runs)]
            values = end_to_end(runs, probes)
            raw = end_to_end(runs, probes, scaled=False)
            metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
            notes = [f"{name:<12} {values[name][0]:>12.4f} {unit:<6} n={values[name][1]:<4} raw {raw[name][0]:.4f}"
                     for name, unit in END_TO_END]
            notes.append("speed per run (set-up, items): " + " ".join(
                f"{r['setup_speed']:.3f}" + (f"/{run_speed(r):.3f}" if "items" in r else "") for r in probes + runs))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    items = [it for r in runs for it in r["items"]]
    failed = [it for it in items if it["problems"]]
    exact_failures = [it for it in failed if any(not p.startswith(workloads.DISCOVERY) for p in it["problems"])]
    prov["loadavg_after"] = os.getloadavg()
    print(f"symloci benchmark: workload {args.workload}, seed {args.seed}, {len(runs)} worker runs, trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for line in notes:
        print(line)
    print(f"failed_frac  {len(failed) / len(items):>12.4f} ratio  ({len(failed)} of {len(items)} items)")
    if len(failed) > len(exact_failures):
        print(KNOWN_DEFECT + f": {len(failed) - len(exact_failures)} item(s) this run")
    for it in failed:
        print(f"FAILED {' '.join(map(str, it['argv']))}: {'; '.join(it['problems'])}")
    print(json.dumps({"correct": not exact_failures, "attempted": len(items), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
