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
import re
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
# --groups: each alias and the kinds it names
_FILTERS = {"all": _KINDS, "platonic": platonic._PLATONIC, **{k: (k,) for k in _KINDS}}
_GROUP_SPEC = "|".join(platonic._PLATONIC + tuple(f"{k}:M[:t=T]" for k in _FAMILIES))
# a platonic kind alone, or a family with M >= 1 in plain digits and T in -1, 0, 1
_GROUP = re.compile(
    f"({'|'.join(platonic._PLATONIC)})|({'|'.join(_FAMILIES)}):(0*[1-9][0-9]*)(?::t=(-1|0|1))?"
)
_DEGREES = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")  # D or A..B in plain digits


class UsageError(ValueError):
    pass


def _parse_degree_range(spec: str, allow_large: bool) -> tuple[int, int]:
    match = _DEGREES.fullmatch(spec)
    if match is None:
        raise UsageError(f"bad degree range {spec!r}")
    lo, hi = int(match[1]), int(match[2] or match[1])
    if lo < 2 or lo > hi:
        raise UsageError("need 2 <= dmin <= dmax")
    if hi > DEFAULT_DEGREE_CAP and not allow_large:
        raise UsageError(f"degree {hi} exceeds the default cap {DEFAULT_DEGREE_CAP}; pass --allow-large")
    return lo, hi


def _parse_group(spec: str):
    """(kind, M, T) of a spec _GROUP matches, case aside; M and T may be None."""
    match = _GROUP.fullmatch(spec.lower())
    if match is None:
        raise UsageError(f"bad group {spec!r}: want {_GROUP_SPEC} with M >= 1 and T = -1, 0 or 1")
    plat, kind, m, t = match.groups()
    return (plat, None, None) if plat else (kind, int(m), None if t is None else int(t))


def _check_tolerance(tolerance: float):
    if not 0 < tolerance < math.inf:
        raise UsageError(f"--tolerance must be finite and > 0, not {tolerance}")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json(obj, indent="\n") -> str:
    """json.dumps(obj, indent=2) by joins: an indent makes json.dumps pure Python."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + indent + "]"
    return _quote(obj) if isinstance(obj, str) else repr(obj) if type(obj) is int else json.dumps(obj)


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
# subcommands: each returns (exit code, output), the output CSV or check
# text, a payload dict that main stamps and writes as JSON, or None
# ---------------------------------------------------------------------------


def cmd_survey(args):
    d_min, d_max = _parse_degree_range(args.d, args.allow_large)
    try:
        kinds = {k for tok in (args.groups or "all").split(",") for k in _FILTERS[tok.strip().lower()]}
    except KeyError as exc:
        raise UsageError(f"unknown group filter {exc.args[0]!r}") from None
    family = tuple(k for k in _FAMILIES if k in kinds)
    plat = tuple(k for k in platonic._PLATONIC if k in kinds)
    rows = []
    for d in range(d_min, d_max + 1):
        if family:
            rows.extend(loci.survey_rows(d, family))
        if plat:
            rows.extend(platonic.survey_rows(d, plat))
    rows.sort(key=lambda r: (r["d"], r["group"], -(r["t"] if r["t"] != "" else 2)))
    all_match = all(r["match"] for r in rows)
    code = 0 if all_match else 2
    if args.format == "json":
        return code, {"kind": "survey", "rows": rows, "all_match": all_match}
    columns = loci.SurveyRow._fields
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for r in rows:
        writer.writerow({k: ("" if r[k] is None else r[k]) for k in columns})
    return code, buf.getvalue()


def cmd_construct(args):
    kind, m, t = _parse_group(args.group)
    d_min, d = _parse_degree_range(args.d, args.allow_large)
    if d_min < d:
        raise UsageError(f"construct takes one degree, not {args.d!r}")
    if kind in platonic._PLATONIC:
        phi, report = platonic.construct_symmetric_map(d, kind)
    else:
        if m < 2:
            raise UsageError("construction needs cyclic:M or dihedral:M with M >= 2")
        loci_of = loci.cyclic_existence_and_dim if kind == "cyclic" else loci.dihedral_dim
        valid = {tt: r for tt, r in loci_of(d, m) if r.exists}
        if t is None:
            t = next(iter(valid), None)
        if t not in valid:
            which = "any type" if t is None else f"type {t}"
            raise platonic.NotRealizable(f"no {kind}:{m} symmetry of {which} in degree {d}")
        phi = RationalMap.from_zpoly(*valid[t].certificate["member"])
        # the group is built only for the certificate, once a member exists
        report = _verify_through_generators(phi, standard_subgroup(kind, m))
        if not report.all_verified:
            return 4, None
    return 0, {
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


def cmd_check(args):
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
    return (0 if report.all_verified else 4), "\n".join(lines) + "\n"


def cmd_decomp(args):
    if args.inverse:
        phi = _load(args.mapfile, "pair", lambda obj: recompose_map(FormPair.from_json(obj)))
        return 0, {"kind": "map", "map": phi.to_json()}
    pair = decompose_map(_load(args.mapfile, "map", RationalMap.from_json))
    return 0, {"kind": "form_pair", "pair": pair.to_json()}


def cmd_aut(args):
    _check_tolerance(args.tolerance)
    phi = _load(args.mapfile, "map", RationalMap.from_json)
    if phi.degree < 2:
        raise UsageError("automorphism discovery needs a map of degree >= 2")
    try:
        report = discover_automorphisms(phi, tolerance=args.tolerance)
    except DegenerateConfiguration as exc:  # e.g. F and G share a factor
        raise UsageError(f"numeric discovery cannot start: {exc}") from exc
    return 0, {"kind": "aut_report", "report": report.to_json()}


def cmd_resultant(args):
    phi = _load(args.mapfile, "map", RationalMap.from_json)
    res = phi.resultant()
    return 0, {
        "kind": "resultant",
        "degree": phi.degree,
        "resultant": res.minimal().to_json(),
        "in_ratd": bool(res),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symloci",
        description="exact symmetry loci of rational maps on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("survey", parents=[out], help="existence/dimension table over a degree range")
    p.add_argument("--d", required=True, help="degree or range, e.g. 5 or 2..10")
    p.add_argument("--groups", help="comma list: " + ",".join(_FILTERS))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("construct", parents=[out], help="build a symmetric map with a certificate")
    p.add_argument("--d", required=True, help="one degree, e.g. 5")
    p.add_argument("--group", required=True, help=_GROUP_SPEC)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "check", parents=[out], help="exact verification of a claimed group, numeric summary of the elements found"
    )
    p.add_argument("mapfile")
    p.add_argument("--group", required=True)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decomp", parents=[out], help="map <-> (divergence, fixed-point) form pair")
    p.add_argument("mapfile")
    p.add_argument("--inverse", action="store_true", help="treat input as a form pair")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser(
        "aut", parents=[out], help="numeric discovery; census/class of the elements found, maybe a proper subgroup"
    )
    p.add_argument("mapfile")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("resultant", parents=[out], help="Sylvester resultant of a map")
    p.add_argument("mapfile")
    p.set_defaults(func=cmd_resultant)

    return parser


_PARSER = build_parser()  # built at import; argparse reads sys.stdout/stderr only as it prints


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code, output = args.func(args)
        if isinstance(output, dict):
            output = _json({"schema": SCHEMA, **output}) + "\n"
        if output is not None:
            _emit(output, args.out)
        return code
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
    except platonic.NotRealizable as exc:
        print(f"NotRealizable: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
