"""One benchmark worker: a fresh process that imports symloci from src/,
builds the groups its workload needs, runs one plan of CLI items through
``symloci.cli.main`` in process, checks every output outside the timed
region, and prints one JSON object with its measurements.

Run by run.py; by hand:
    python3 bench/worker.py --workload survey-family --seed 1 --run 0 --runs 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
PROBE_INTERVAL_S = 0.05
# The unit of reported times: a reference-speed second is a second of a
# host on which probe_s() takes PROBE_REF_S.
PROBE_REF_S = 0.00625


def probe_s() -> float:
    """Duration of a short fixed Fraction-arithmetic loop."""
    x = Fraction(1)
    t0 = perf_counter()
    for i in range(1, 500):
        x = (x * 3 + Fraction(1, 1 + i % 50)) % 7
    return perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed around and during timed code.

    The host's speed drifts by up to a factor of two within seconds, so a
    time means little without the speed it was taken at.  The probe times
    probe_s() just before and just after the timed code and, when
    `interval` is set, from a SIGALRM handler every `interval` seconds in
    between.  `speed` is the mean of PROBE_REF_S / sample: times multiplied
    by it are in reference-speed seconds.  `spent_between(t0, t1)` is the
    time the probes took inside [t0, t1], which the caller subtracts."""

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_):
        t0 = perf_counter()
        self.samples.append((t0, probe_s()))

    def __enter__(self):
        self._sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def spent_between(self, t0: float, t1: float) -> float:
        return sum(d for start, d in self.samples if t0 <= start < t1)

    @property
    def speed(self) -> float:
        return sum(PROBE_REF_S / d for _, d in self.samples) / len(self.samples)


def _call(cli, argv, interval):
    """Run one CLI call; returns (rc, stdout, seconds net of probes, speed)."""
    out, err = io.StringIO(), io.StringIO()
    with SpeedProbe(interval) as probe, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed item, not a crashed run
            rc = f"exception {type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return rc, out.getvalue(), t1 - t0 - probe.spent_between(t0, t1), probe.speed


class Runner:
    """Runs items, records latency, speed and problems, and tags trace spans."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        # No probes inside traced items: they would land in the spans.
        self.interval = None if tracer is not None else PROBE_INTERVAL_S
        self.records = []

    def item(self, key, argv, check, expect_order=None):
        """Time one CLI call; `check(rc, out)` runs untimed.  `key` names
        the item the same way in every run, whatever its order or M."""
        tr = self.tracer
        if tr is not None:
            tr.item, tr.expect_order, tr.enabled = len(self.records), expect_order, True
        rc, out, dt, speed = _call(self.cli, argv, self.interval)
        if tr is not None:
            tr.enabled = False
        problems = [f"exit {rc}"] if not isinstance(rc, int) else check(rc, out)
        self.records.append({"key": key, "argv": argv, "latency_s": dt, "speed": speed, "rc": rc,
                             "problems": problems})
        return rc, out


def _run_plan(runner, items, scratch: Path):
    from symloci.forms import RationalMap
    from symloci.moebius import MoebiusMap, conjugate_map

    for it in items:
        if it["kind"] == "survey":
            d, groups = it["d"], it["groups"]
            runner.item(
                f"survey {groups} {d}",
                ["survey", "--groups", groups, "--d", str(d)],
                lambda rc, out: workloads.check_survey(rc, out, d, groups),
            )
            continue
        g, d, m = it["group"], it["d"], it["M"]
        aut = workloads.CONSTRUCTED_AUT[(g, d)]
        phi_path, psi_path = scratch / f"{g}{d}.json", scratch / f"{g}{d}-M.json"
        rc, out = runner.item(
            f"construct {g} {d}",
            ["construct", "--group", g, "--d", str(d)],
            lambda rc, out: workloads.check_construct(rc, out, g, d),
        )
        try:
            phi_json = json.loads(out)["map"] if rc == 0 else None
        except (json.JSONDecodeError, KeyError):
            phi_json = None
        if phi_json is None:
            continue  # the failed construct is counted; the block has no map to go on with
        phi_path.write_text(json.dumps({"map": phi_json}))
        runner.item(f"check {g} {d}", ["check", str(phi_path), "--group", g],
                    lambda rc, out: workloads.check_check(rc, out, g, aut), expect_order=aut[0])
        _, out = runner.item(f"resultant {g} {d}", ["resultant", str(phi_path)],
                             lambda rc, out: workloads.check_resultant(rc, out, d))
        reference = None if runner.records[-1]["problems"] else json.loads(out)["resultant"]
        # phi^M is built outside the timed region, with tracing off.
        psi = conjugate_map(RationalMap.from_json(phi_json), MoebiusMap(*m))
        psi_path.write_text(json.dumps({"map": psi.to_json()}))
        runner.item(f"resultant {g} {d} M", ["resultant", str(psi_path)],
                    lambda rc, out: workloads.check_resultant(rc, out, d, reference))
        runner.item(f"aut {g} {d} M", ["aut", str(psi_path)],
                    lambda rc, out: workloads.check_aut(rc, out, aut), expect_order=aut[0])


def _setup(workload):
    from symloci import platonic
    from symloci.moebius import standard_subgroup

    need = workloads.setup_groups(workload)
    for m in need["family_orders"]:
        standard_subgroup("cyclic", m)
        standard_subgroup("dihedral", m)
    for kind in need["platonic"]:
        platonic.platonic_group(kind)
        platonic.character_table(kind)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run", type=int, default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs in the invocation this run belongs to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="the parent's time.monotonic() just before it started this process")
    args = ap.parse_args(argv)
    spawned_at = monotonic() if args.spawned_at is None else args.spawned_at

    with SpeedProbe(None if args.trace else PROBE_INTERVAL_S) as probe:
        sys.path.insert(0, str(ROOT / "src"))
        import symloci  # noqa: F401  (the import is part of set-up)
        from symloci import cli

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
            tracer.item = "setup"
        _setup(args.workload)
        setup_s = monotonic() - spawned_at - probe.spent_between(float("-inf"), perf_counter())
    result = {"setup_s": setup_s, "setup_speed": probe.speed}
    if args.setup_only:
        sys.stdout.write(json.dumps(result) + "\n")
        return 0

    items = workloads.plan(args.workload, args.seed, args.run, args.runs)
    scratch = OUT_DIR / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, tracer)
    if tracer is not None:
        tracer.enabled = False
    try:
        _run_plan(runner, items, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["items"] = runner.records
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans
        result["layers"] = tracer.aggregate()
        result["platonic_setup_s"] = sum(
            t1 - t0
            for name, parent, t0, t1, ok, item in spans
            if item == "setup" and parent < 0 and name.startswith("platonic.")
        )
        result["dihedral_verifies"] = sum(
            1
            for name, parent, *_ in spans
            if name == "aut.verify_group_action" and parent >= 0
            and spans[parent][0] == "loci.dihedral_generic_member"
        )
        result["counts"] = dict(tracer.counts)
        result["mul_by_conductor"] = {str(k): v for k, v in sorted(tracer.mul_by_conductor.items())}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
