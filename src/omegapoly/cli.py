"""Command line driver.

Subcommands cover the whole toolkit: vertex listings, the bundled
verification checks, hull conversion, facet censuses, edge certificates,
the three-part face test, clique solving over graph files, and
conversion between the JSON and cdd-style text representations.

Exit codes: 0 on success or a passing verification, 1 when a
verification check fails, 2 on usage errors including tripped size
guards.  All numeric output is exact rational text; no floats anywhere.

Guards can be raised per invocation with --max-bruteforce,
--max-hull-dim and --max-hull-points or the matching environment
variables OMEGA_MAX_BRUTEFORCE, OMEGA_MAX_HULL_DIM, OMEGA_MAX_HULL_POINTS.
A subcommand accepts only the guards it reads: hull all three; vertices,
verify, edge-cert and clique-solve only --max-bruteforce; census,
face-test and convert none.

main may be called any number of times in one process.  The parser is
built on the first call and reused; every call parses into a fresh
namespace and reads its guards, flag first and then environment, anew.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import graph2p, neighborly, omega3_census, omega_core, polyhedra
from .graph2p import assignment_from_text
from .guards import (DEFAULT_BRUTEFORCE_BOUND, DEFAULT_HULL_MAX_DIM,
                     DEFAULT_HULL_MAX_POINTS, ScaleGuardError, _shown,
                     check_count, json_fields, json_list, json_number,
                     parse_json, text_int)

# attribute -> (environment variable, default, what it bounds)
_GUARDS = {
    "max_bruteforce": ("OMEGA_MAX_BRUTEFORCE", DEFAULT_BRUTEFORCE_BOUND,
                       "the brute-force part bound"),
    "max_hull_dim": ("OMEGA_MAX_HULL_DIM", DEFAULT_HULL_MAX_DIM,
                     "the hull dimension bound"),
    "max_hull_points": ("OMEGA_MAX_HULL_POINTS", DEFAULT_HULL_MAX_POINTS,
                        "the hull point-count bound"),
}

# ScaleGuardError.guard -> how to raise it: max_hull_dim trips "hull-dim"
_GUARD_HINTS = {
    attr[4:].replace("_", "-"): "--%s (env %s)" % (attr.replace("_", "-"), env)
    for attr, (env, _, _) in _GUARDS.items()}
_GUARD_HINTS["census"] = "--allow-large"


def _int_flag(text: str) -> int:
    """An int flag read by text_int, so bad text is echoed by _shown."""
    try:
        return text_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_guards(sub, *attrs):
    """Give sub a --max-... flag for each guard it reads, and only those."""
    for attr in attrs:
        _, default, what = _GUARDS[attr]
        sub.add_argument("--" + attr.replace("_", "-"), type=_int_flag,
                         default=None,
                         help="override %s (default %d)" % (what, default))
    sub.set_defaults(guards=attrs)


def _settle_guards(args):
    """Resolve each guard the subcommand reads: flag, then environment."""
    for attr in getattr(args, "guards", ()):
        env, default, _ = _GUARDS[attr]
        val = getattr(args, attr)
        raw = os.environ.get(env)
        if val is None and raw is None:
            val = default
        elif val is None:
            try:
                val = int(raw)
            except ValueError:
                raise ValueError("%s=%s is not an integer"
                                 % (env, _shown(raw, repr)))
        check_count(val, args.command, 1, "--" + attr.replace("_", "-"))
        setattr(args, attr, val)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega",
        description="exact rational tools for two-per-part clique polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("vertices", help="list all polytope vertices")
    s.add_argument("--n", type=_int_flag, required=True)
    s.add_argument("--reduced", action="store_true",
                   help="print the n(n+1)/2 reduced coordinates instead of "
                        "the full 4n^2")
    _add_guards(s, "max_bruteforce")
    s.set_defaults(func=_cmd_vertices)

    s = subs.add_parser("verify", help="run the bundled checks for one n")
    s.add_argument("--n", type=_int_flag, required=True)
    _add_guards(s, "max_bruteforce")
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("hull", help="facets of the reduced polytope as "
                                     "H-representation text")
    s.add_argument("--n", type=_int_flag, required=True)
    _add_guards(s, "max_bruteforce", "max_hull_dim", "max_hull_points")
    s.set_defaults(func=_cmd_hull)

    s = subs.add_parser("census", help="facet census as JSON")
    s.add_argument("--n", type=_int_flag, required=True)
    s.add_argument("--orbits", action="store_true",
                   help="include facet orbits under the symmetry group")
    s.add_argument("--allow-large", action="store_true",
                   help="permit the n = 5 census")
    s.set_defaults(func=_cmd_census)

    s = subs.add_parser("edge-cert",
                        help="certificate that two vertices span an edge")
    s.add_argument("--n", type=_int_flag, required=True)
    s.add_argument("--a", required=True, help='assignment like "1,2,1"')
    s.add_argument("--b", required=True, help='assignment like "2,1,1"')
    _add_guards(s, "max_bruteforce")
    s.set_defaults(func=_cmd_edge_cert)

    s = subs.add_parser("face-test",
                        help="three-part case analysis for an excluded pair")
    s.add_argument("--n", type=_int_flag, required=True)
    s.add_argument("--exclude", nargs=2, required=True,
                   metavar=("A", "B"), help="the two excluded assignments")
    s.set_defaults(func=_cmd_face_test)

    s = subs.add_parser("clique-solve", help="find or list cliques of a "
                                             "graph JSON file")
    s.add_argument("--graph", required=True, help="path to graph JSON")
    s.add_argument("--enumerate", action="store_true",
                   help="list every clique instead of finding one")
    _add_guards(s, "max_bruteforce")
    s.set_defaults(func=_cmd_clique_solve)

    s = subs.add_parser("convert", help="convert cdd-style text to JSON "
                                        "and back")
    s.add_argument("--input", required=True, help="path to the file")
    s.set_defaults(func=_cmd_convert)

    return parser


def _cmd_vertices(args) -> int:
    for a in omega_core.all_assignments(args.n, args.max_bruteforce):
        if args.reduced:
            coords = omega_core.reduced_vertex(args.n, a).y
        else:
            coords = omega_core.vertex_from_assignment(args.n, a).coords
        print("%s %s" % (a, " ".join(str(c) for c in coords)))
    return 0


def _verify_rows(n: int, bound: int):
    rows = []

    vertices = omega_core.all_vertices(n, bound)
    bad = sum(len(omega_core.check_equalities(x).violations) for x in vertices)
    rows.append(("vertex equalities", bad == 0,
                 "%d vertices, %d violations" % (len(vertices), bad)))

    expected = n * (n + 1) // 2
    if n >= 2:
        dim = omega_core.omega_dimension(n, bound)
        rows.append(("dimension", dim == expected,
                     "affine dimension %d, expected %d" % (dim, expected)))

    fam = omega_core.independent_family(n)
    pts = [omega_core.vertex_from_assignment(n, a).coords for a in fam]
    rank = polyhedra.affine_rank(polyhedra.VRep(omega_core.coord_count(n), pts))
    rows.append(("independent family", rank == expected,
                 "%d assignments, affine rank %d" % (len(fam), rank)))

    if n >= 2:
        assigns = omega_core.all_assignments(n, bound)
        total = len(assigns) * (len(assigns) - 1) // 2
        good = sum(neighborly.verify_certificate(
            neighborly.edge_certificate(n, a, b, bound), bound)
            for a, b in itertools.combinations(assigns, 2))
        rows.append(("edge certificates", good == total,
                     "%d/%d pairs certified" % (good, total)))

    if n == 3:
        counts = {"disjoint": 0, "shared_edge": 0, "shared_vertex": 0}
        ok = True
        for a, b in itertools.combinations(omega_core.all_assignments(3), 2):
            try:
                counts[omega3_census.analyze_pair(a, b).pair_class.kind] += 1
            except RuntimeError:
                ok = False
        ok = ok and counts == {"disjoint": 4, "shared_edge": 12,
                               "shared_vertex": 12}
        rows.append(("three-part case analysis", ok,
                     "%d facet pairs, %d edge-coordinate pairs, "
                     "%d non-face pairs"
                     % (counts["disjoint"], counts["shared_edge"],
                        counts["shared_vertex"])))
    return rows


def _cmd_verify(args) -> int:
    rows = _verify_rows(args.n, args.max_bruteforce)
    width = max(len(name) for name, _, _ in rows) + 2
    for name, ok, detail in rows:
        print("%-*s %s  %s" % (width, name + ":", "PASS" if ok else "FAIL",
                               detail))
    failed = not all(ok for _, ok, _ in rows)
    print("overall: %s" % ("FAIL" if failed else "PASS",))
    return 1 if failed else 0


def _cmd_hull(args) -> int:
    check_count(args.n, "hull", 2)
    vrep = omega_core.reduced_vertex_vrep(args.n, args.max_bruteforce)
    hrep = polyhedra.convex_hull_facets(vrep, args.max_hull_dim,
                                        args.max_hull_points)
    sys.stdout.write(polyhedra.hrep_to_text(hrep))
    return 0


def _cmd_census(args) -> int:
    report = omega3_census.facet_census(args.n, include_orbits=args.orbits,
                                        allow_large=args.allow_large)
    print(omega3_census.census_to_json(report))
    return 0


def _cmd_edge_cert(args) -> int:
    a = assignment_from_text(args.a)
    b = assignment_from_text(args.b)
    cert = neighborly.edge_certificate(args.n, a, b, args.max_bruteforce)
    # construction records the closed form; enumeration checks it first
    if not neighborly.verify_certificate(cert, args.max_bruteforce):
        print("error: the certificate for %s / %s fails its check on all "
              "%d vertices" % (a, b, 1 << args.n), file=sys.stderr)
        return 1
    print(neighborly.certificate_to_json(cert))
    return 0


def _cmd_face_test(args) -> int:
    check_count(args.n, "face-test", 3, most=3)
    a = assignment_from_text(args.exclude[0])
    b = assignment_from_text(args.exclude[1])
    report = omega3_census.analyze_pair(a, b)
    out = {
        "class": report.pair_class.kind,
        "agreeing_parts": list(report.pair_class.parts),
        "form": {
            "coeffs": [str(c) for c in report.form.coeffs],
            "rhs": str(report.form.rhs),
        },
        "verdict": report.verdict.kind,
        "face_dimension": report.verdict.dimension,
        "excluded_values": [str(v) for v in report.excluded_values],
        "other_values": [str(v) for v in report.other_values],
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_clique_solve(args) -> int:
    with open(args.graph, "r", encoding="ascii") as fh:
        g = graph2p.graph_from_json(fh.read())
    if args.enumerate:
        for a in graph2p.enumerate_cliques(g, args.max_bruteforce):
            print(a)
        return 0
    result = graph2p.find_clique(g)
    print("no clique" if result is None else str(result))
    return 0


def _json_forms(obj, key: str, dim: int) -> tuple:
    """The forms {"coeffs": [...], "rhs": ...} listed under key."""
    (rows,) = json_fields(obj, key)
    pairs = (json_fields(row, "coeffs", "rhs")
             for row in json_list(rows, '"%s"' % key))
    return tuple(polyhedra.linear_form(
        json_list(c, '"coeffs"', json_number, dim), json_number(r, '"rhs"'))
        for c, r in pairs)


def _cmd_convert(args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = parse_json(text)
        kind = obj.get("kind")
        if kind not in ("V", "H"):
            raise ValueError('JSON needs "kind": "V" or "H"')
        (dim,) = json_fields(obj, "dim")
        check_count(dim, "convert", 1, "dim")
        if kind == "V":
            (rows,) = json_fields(obj, "points")
            points = [json_list(row, "a point", json_number, dim)
                      for row in json_list(rows, '"points"')]
            sys.stdout.write(polyhedra.vrep_to_text(
                polyhedra.VRep(dim, points)))
        else:
            ineqs = _json_forms(obj, "inequalities", dim)
            eqs = _json_forms(obj, "equalities", dim)
            sys.stdout.write(polyhedra.hrep_to_text(
                polyhedra.HRep(dim, ineqs, eqs)))
    elif stripped.startswith("V-representation"):
        vrep = polyhedra.vrep_from_text(text)
        out = {"kind": "V", "dim": vrep.dim,
               "points": [[str(c) for c in p] for p in vrep.points]}
        print(json.dumps(out, indent=1))
    elif stripped.startswith("H-representation"):
        hrep = polyhedra.hrep_from_text(text)
        out = {"kind": "H", "dim": hrep.dim}
        for key in ("inequalities", "equalities"):
            out[key] = [{"coeffs": [str(c) for c in f.coeffs],
                         "rhs": str(f.rhs)} for f in getattr(hrep, key)]
        print(json.dumps(out, indent=1))
    else:
        raise ValueError("cannot tell JSON from cdd-style text")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    Parsing leaves it as it was: each call gets a fresh namespace, and
    guards are settled on that namespace, not on the parser.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _settle_guards(args)
        return args.func(args)
    except ScaleGuardError as exc:
        hint = _GUARD_HINTS.get(exc.guard)
        extra = "; raise it with %s" % (hint,) if hint else ""
        print("error: %s%s" % (exc, extra), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
