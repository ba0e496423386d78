"""Command-line front end.

Subcommands:
  survey     dimension/existence table over a degree range (CSV or JSON)
  construct  build a symmetric map with an exact certificate (JSON)
  check      verify claimed automorphisms of a map file exactly, plus a
             numeric discovery summary of the elements found
  decomp     map pair -> (divergence, fixed-point) form pair, or back
  aut        numeric automorphism discovery for a map file; census and class
             describe the elements found, maybe a proper subgroup of Aut(phi)
  resultant  Sylvester resultant of a map file (subresultant remainder sequence)

Exit codes: 0 success, 1 usage/malformed input, 2 dimension mismatch or
an exhausted member search, 3 not realizable, 4 failed exact verification.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import loci, platonic
from .aut import DegenerateConfiguration, _verify_through_generators, discover_automorphisms
from .decomp import FormPair, decompose_map, recompose_map
from .forms import RationalMap
from .moebius import standard_subgroup

SCHEMA = "symloci/1"
DEFAULT_DEGREE_CAP = 61
_FAMILIES = ("cyclic", "dihedral")  # the group kinds that take an order M
_KINDS = _FAMILIES + platonic._PLATONIC

class UsageError(ValueError):
    pass


def _parse_degree_range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
    else:
        lo = hi = spec
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad degree range {spec!r}") from exc
    if lo_i < 2 or lo_i > hi_i:
        raise UsageError("need 2 <= dmin <= dmax")
    return lo_i, hi_i


def _parse_group(spec: str):
    """'tetra' | 'octa' | 'icosa' | 'cyclic:M[:t=T]' | 'dihedral:M[:t=T]'."""
    parts = spec.lower().split(":")
    kind = parts[0]
    if kind in platonic._PLATONIC:
        if len(parts) > 1:
            raise UsageError(f"{kind} takes no parameters")
        return kind, None, None
    if kind in _FAMILIES:
        if len(parts) < 2:
            raise UsageError(f"{kind} needs an order, e.g. {kind}:3")
        try:
            m = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad order in {spec!r}") from exc
        if m < 1:
            raise UsageError(f"the order in {spec!r} must be at least 1")
        t = None
        if len(parts) > 2:
            tok = parts[2]
            if not tok.startswith("t="):
                raise UsageError(f"unexpected group token {tok!r}")
            try:
                t = int(tok[2:])
            except ValueError as exc:
                raise UsageError(f"bad type in {spec!r}") from exc
            if t not in (-1, 0, 1):
                raise UsageError("type must be -1, 0 or 1")
        return kind, m, t
    raise UsageError(f"unknown group {spec!r}")


def _check_tolerance(tolerance: float):
    if not 0 < tolerance < math.inf:
        raise UsageError(f"--tolerance must be finite and > 0, not {tolerance}")


def _check_degree(d: int, allow_large: bool):
    if d < 2:
        raise UsageError("need degree d >= 2")
    if d > DEFAULT_DEGREE_CAP and not allow_large:
        raise UsageError(
            f"degree {d} exceeds the default cap {DEFAULT_DEGREE_CAP}; pass --allow-large"
        )


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json(obj, default=None, indent="\n") -> str:
    """json.dumps(obj, indent=2, default=default) by joins: an indent makes json.dumps pure Python."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [_quote(k) + ": " + _json(v, default, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([_json(v, default, inner) for v in obj]) + indent + "]"
    return _quote(obj) if isinstance(obj, str) else repr(obj) if type(obj) is int else json.dumps(obj, default=default)


def _load(path: str, key: str, build):
    """build(the JSON in path), unwrapped from key as the subcommands write
    it; a file that cannot be read or built is a UsageError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {key} file {path}: {exc}") from exc
    try:
        return build(obj.get(key, obj) if isinstance(obj, dict) else obj)
    except Exception as exc:
        raise UsageError(f"malformed {key} JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_survey(args) -> int:
    d_min, d_max = _parse_degree_range(args.d)
    _check_degree(d_max, args.allow_large)
    kinds = set()
    for tok in (args.groups or "all").split(","):
        tok = tok.strip().lower()
        if tok == "platonic":
            kinds.update(platonic._PLATONIC)
        elif tok == "all":
            kinds.update(_KINDS)
        elif tok in _KINDS:
            kinds.add(tok)
        else:
            raise UsageError(f"unknown group filter {tok!r}")
    rows = []
    for d in range(d_min, d_max + 1):
        family = tuple(k for k in _FAMILIES if k in kinds)
        if family:
            rows.extend(loci.survey_rows(d, family))
        plat = tuple(k for k in platonic._PLATONIC if k in kinds)
        if plat:
            rows.extend(platonic.survey_rows(d, plat))
    rows.sort(key=lambda r: (r["d"], r["group"], -(r["t"] if r["t"] != "" else 2)))
    all_match = all(r["match"] for r in rows)
    if args.format == "json":
        payload = {"schema": SCHEMA, "kind": "survey", "rows": rows, "all_match": all_match}
        _emit(_json(payload, default=str) + "\n", args.out)
    else:
        columns = loci.SurveyRow._fields
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: ("" if r[k] is None else r[k]) for k in columns})
        _emit(buf.getvalue(), args.out)
    return 0 if all_match else 2


def cmd_construct(args) -> int:
    kind, m, t = _parse_group(args.group)
    d = int(args.d)
    _check_degree(d, args.allow_large)
    if kind in platonic._PLATONIC:
        try:
            phi, report = platonic.construct_symmetric_map(d, kind)
        except platonic.NotRealizable as exc:
            print(f"NotRealizable: {exc}", file=sys.stderr)
            return 3
    else:
        if m is None or m < 2:
            raise UsageError("construction needs cyclic:M or dihedral:M with M >= 2")
        loci_of = loci.cyclic_existence_and_dim if kind == "cyclic" else loci.dihedral_dim
        valid = {tt: r for tt, r in loci_of(d, m) if r.exists}
        if t is None:
            t = next(iter(valid), None)
        if t not in valid:
            which = "any type" if t is None else f"type {t}"
            print(f"NotRealizable: no {kind}:{m} symmetry of {which} in degree {d}", file=sys.stderr)
            return 3
        phi = RationalMap.from_zpoly(*valid[t].certificate["member"])
        # the group is built only for the certificate, once a member exists
        report = _verify_through_generators(phi, standard_subgroup(kind, m))
        if not report.all_verified:
            return 4
    payload = {
        "schema": SCHEMA,
        "kind": "constructed_map",
        "d": d,
        "group": args.group,
        "group_order": len(report.verified_elements),  # every element passed: |G|
        "map": phi.to_json(),
        "certificate": {
            "verified_count": len(report.verified_elements),
            "order_census": {str(k): v for k, v in sorted(report.census.items())},
            "classified": report.classified,
            "verified_automorphisms": [e.to_json() for e in report.verified_elements],
        },
    }
    _emit(_json(payload) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    _check_tolerance(args.tolerance)
    phi = _load(args.mapfile, "map", RationalMap.from_json)
    if not phi.is_in_ratd():
        raise UsageError("the map file has vanishing resultant (not a degree-d map)")
    kind, m, _ = _parse_group(args.group)
    group = standard_subgroup(kind, m)
    report = _verify_through_generators(phi, group)
    lines = [f"degree {phi.degree} map, group {args.group} of order {group.order}"]
    lines.append(
        f"exact verification: {len(report.verified_elements)}/{group.order} elements pass"
    )
    if not report.all_verified:
        lines.append(f"first failing element: {report.failed!r}")
    try:
        disc = discover_automorphisms(phi, tolerance=args.tolerance)
        lines.append(
            f"numeric discovery: order {disc.numeric_order}, census "
            f"{dict(sorted(disc.census.items()))}, classified {disc.classified}"
        )
    except Exception as exc:  # numeric mode must not mask the exact verdict
        lines.append(f"numeric discovery unavailable: {exc}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.all_verified else 4


def cmd_decomp(args) -> int:
    if args.inverse:
        phi = _load(args.mapfile, "pair", lambda obj: recompose_map(FormPair.from_json(obj)))
        payload = {"schema": SCHEMA, "kind": "map", "map": phi.to_json()}
    else:
        phi = _load(args.mapfile, "map", RationalMap.from_json)
        pair = decompose_map(phi)
        payload = {"schema": SCHEMA, "kind": "form_pair", "pair": pair.to_json()}
    _emit(_json(payload) + "\n", args.out)
    return 0


def cmd_aut(args) -> int:
    _check_tolerance(args.tolerance)
    phi = _load(args.mapfile, "map", RationalMap.from_json)
    if phi.degree < 2:
        raise UsageError("automorphism discovery needs a map of degree >= 2")
    try:
        report = discover_automorphisms(phi, tolerance=args.tolerance)
    except DegenerateConfiguration as exc:  # e.g. F and G share a factor
        raise UsageError(f"numeric discovery cannot start: {exc}") from exc
    payload = {"schema": SCHEMA, "kind": "aut_report", "report": report.to_json()}
    _emit(_json(payload) + "\n", args.out)
    return 0


def cmd_resultant(args) -> int:
    phi = _load(args.mapfile, "map", RationalMap.from_json)
    res = phi.resultant()
    payload = {
        "schema": SCHEMA,
        "kind": "resultant",
        "degree": phi.degree,
        "resultant": res.minimal().to_json(),
        "in_ratd": bool(res),
    }
    _emit(_json(payload) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symloci",
        description="exact symmetry loci of rational maps on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survey", help="existence/dimension table over a degree range")
    p.add_argument("--d", required=True, help="degree or range, e.g. 5 or 2..10")
    p.add_argument("--groups", help="comma list: cyclic,dihedral,tetra,octa,icosa,platonic,all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("construct", help="build a symmetric map with a certificate")
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--group", required=True, help="tetra|octa|icosa|cyclic:M[:t=T]|dihedral:M[:t=T]")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="exact verification of a claimed group, numeric summary of the elements found")
    p.add_argument("mapfile")
    p.add_argument("--group", required=True)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decomp", help="map <-> (divergence, fixed-point) form pair")
    p.add_argument("mapfile")
    p.add_argument("--inverse", action="store_true", help="treat input as a form pair")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("aut", help="numeric discovery; census/class of the elements found, maybe a proper subgroup")
    p.add_argument("mapfile")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("resultant", help="Sylvester resultant of a map")
    p.add_argument("mapfile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resultant)

    return parser


_PARSER = build_parser()  # built at import; argparse reads sys.stdout/stderr only as it prints


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except (loci.NoMemberFound, platonic.ConstructionFailed) as exc:
        # the closed form says the locus exists; a search that finds no
        # member is a disagreement between the two routes
        print(f"search exhausted ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
