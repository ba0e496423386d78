"""Outside-in tracer for symloci: wraps the package's functions from the
benchmark's own files, so the program itself is unchanged.

Public module-level functions of each layer module become timed spans;
``Cyclotomic`` arithmetic (microseconds per call) is only counted.  A
function imported with ``from .x import f`` has one binding per importing
module, so every binding whose value *is* the original is patched, and all
of them are restored by ``uninstall``.

Spans are kept in memory as (name, parent, start, end, ok, item) tuples;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "symloci"
MODULES = ("cyclotomic", "forms", "moebius", "decomp", "aut", "loci", "platonic", "cli")
# cli: only main is wrapped, so its self time is argument parsing plus
# CSV/JSON emission (the cmd_* handlers run inside it).
CLI_FUNCTIONS = ("main",)
# Called once per Cyclotomic construction: counted, not timed.
COUNT_ONLY = ("cyclotomic.euler_phi",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.mul_by_conductor: Counter = Counter()
        self.enabled = True
        self.item = None  # tag for spans: item index, or "setup"
        self.expect_order = None  # |Aut| a discover_automorphisms call should find
        self._patched: list = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self) -> Tracer:
        mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        owners = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and name not in CLI_FUNCTIONS:
                    continue
                key = f"{short}.{name}"
                wrapper = self._counter(key, obj) if key in COUNT_ONLY else self._span(key, obj)
                for owner in owners:
                    self._patch_bindings(owner, obj, wrapper)
        cy = mods["cyclotomic"]
        em, num = cy.ExactMatrix, cy.Cyclotomic
        self._patch_bindings(em, em.kernel_basis, self._span("cyclotomic.kernel", em.kernel_basis))
        self._patch_bindings(em, em.determinant, self._span("cyclotomic.det", em.determinant))
        self._patch_bindings(num, num.__mul__, self._counter("cyclotomic.mul", num.__mul__, by_conductor=True))
        self._patch_bindings(num, num.__add__, self._counter("cyclotomic.add", num.__add__))
        self._patch_bindings(num, num.inverse, self._counter("cyclotomic.inverse", num.inverse))
        self._patch_bindings(num, num.minimal, self._counter("cyclotomic.minimal", num.minimal))
        return self

    def _patch_bindings(self, owner, original, wrapper):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, after = self.spans, self.stack, _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, ok, self.item)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn, by_conductor=False):
        counts, conductors = self.counts, self.mul_by_conductor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled and result is not NotImplemented:
                counts[name + ".calls"] += 1
                if by_conductor:
                    conductors[result.n] += 1
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict:
        """{name: {"calls", "self_s", "total_s", "ok"}} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, ok, item in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict = {}
        for sid, (name, parent, t0, t1, ok, item) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "ok": 0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[sid]
            a["ok"] += ok
        return agg

    def write_spans(self, path):
        """One JSON line per span: id, name, parent, start, end, ok, item."""
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1, ok, item) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, parent, round(t0, 7), round(t1, 7), ok, item]) + "\n")


# Work counts recorded where the work happens: name -> f(tracer, args, result).
def _cells(tr, args, result, key):
    tr.counts[key] += args[0].rows * args[0].cols


def _after_substitute(tr, args, result):
    tr.counts["forms.substitute.terms"] += sum(1 for c in args[0].coeffs if c)


def _after_meets_ratd(tr, args, result):
    tr.counts["decomp.meets_ratd.true"] += bool(result)


def _after_verify(tr, args, result):
    tr.counts["aut.verify_group_action.elements"] += len(result.verified_elements) + (result.failed is not None)
    tr.counts["aut.verify_group_action.passed"] += result.all_verified


def _after_discover(tr, args, result):
    if tr.expect_order is not None:
        tr.counts["aut.discover_automorphisms.attempts"] += 1
        tr.counts["aut.discover_automorphisms.hits"] += result.numeric_order == tr.expect_order


_AFTER = {
    "cyclotomic.kernel": functools.partial(_cells, key="cyclotomic.kernel.cells"),
    "cyclotomic.det": functools.partial(_cells, key="cyclotomic.det.cells"),
    "forms.substitute": _after_substitute,
    "decomp.meets_ratd": _after_meets_ratd,
    "aut.verify_group_action": _after_verify,
    "aut.discover_automorphisms": _after_discover,
}
