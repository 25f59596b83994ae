"""The four benchmark workloads: seeded inputs, one timed pass, checks.

A workload has three parts:

* ``setup(seed, workdir)`` builds the inputs from the seed alone (files,
  if any, go under workdir);
* ``run(inputs, between)`` makes one pass and returns the per-operation
  seconds and the raw answers; only this part is timed.  It calls
  ``between()`` between operations, outside their timing, where the
  harness may take a calibration sample;
* ``check(inputs, answers)`` returns an Outcome.  Checks never call
  omegapoly: they recompute what they need with plain ints or compare
  against facts fixed in advance, and they raise (not ``assert``), so
  they also run under ``python -O``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import time
from dataclasses import dataclass, field

import omegapoly.cli
import omegapoly.polyhedra

from layers import OpClock


class WrongAnswer(Exception):
    """An answer the program gave that fails the benchmark's check."""


@dataclass
class Outcome:
    attempted: int
    failed: int = 0  # exceptions, wrong exit codes and wrong answers
    wrong: int = 0  # the wrong answers alone
    counts: dict = field(default_factory=dict)  # exact, same on every pass
    digest: str = ""  # sha256 of the pass's output
    first_failure: str = ""

    def fail(self, message: str, wrong: bool, ops: int = 1) -> None:
        self.failed += ops
        self.wrong += ops if wrong else 0
        if not self.first_failure:
            self.first_failure = message


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv):
    """Run the in-process CLI; return exit code, stdout and seconds.

    An exception escaping main stands in for the exit code.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = omegapoly.cli.main(argv)
    except Exception as exc:  # a crash is a counted failure, not fatal
        code = "%s: %s" % (type(exc).__name__, exc)
    return code, buf.getvalue(), time.perf_counter() - t0


def reduced_vertices(n: int) -> list[tuple[int, ...]]:
    """Reduced 0/1 vertices y[i,j] = [rho(i) = 1][rho(j) = 1], i <= j.

    Assignments in lexicographic order, pairs (i, j) in lexicographic
    order: the layout of omega_core.reduced_vertex_vrep, rebuilt here so
    that checks need nothing from the package.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return [tuple(int(a[i] == 1 and a[j] == 1) for i, j in pairs)
            for a in itertools.product((1, 2), repeat=n)]


# --- census: omega census --n 5 --allow-large --orbits --------------------

CENSUS_ARGV = ["census", "--n", "5", "--allow-large", "--orbits"]
# README census table, n = 5
CENSUS_FACETS = 368
CENSUS_INCIDENCE = 210
CENSUS_ORBITS = [16, 32, 40, 40, 80, 160]
CENSUS_VERTICES_PER_FACET = {15, 20, 24}


def census_setup(seed, workdir):
    return CENSUS_ARGV


def census_run(argv, between):
    code, out, seconds = _cli(argv)
    return [seconds], (code, out)


def census_check(argv, answers):
    code, out = answers
    result = Outcome(attempted=1, digest=_sha256(out))
    try:
        if code != 0:
            result.fail("census exited %r" % (code,), wrong=False)
            return result
        result.counts = _check_census(json.loads(out))
    except WrongAnswer as exc:
        result.fail(str(exc), wrong=True)
    except (ValueError, KeyError, TypeError) as exc:
        result.fail("unreadable census JSON: %r" % (exc,), wrong=True)
    return result


def _check_census(report) -> dict:
    facets = report["facets"]
    if report["facet_count"] != CENSUS_FACETS or len(facets) != CENSUS_FACETS:
        raise WrongAnswer(
            "facet_count %r with %d facets listed, expected %d"
            % (report["facet_count"], len(facets), CENSUS_FACETS))
    if report["per_vertex_incidence"] != CENSUS_INCIDENCE:
        raise WrongAnswer("incidence %r" % (report["per_vertex_incidence"],))
    orbits = sorted(o["size"] for o in report["orbits"])
    if orbits != CENSUS_ORBITS:
        raise WrongAnswer("orbit sizes %r" % (orbits,))
    vertices = reduced_vertices(5)
    incidence = [0] * len(vertices)
    seen = set()
    for f in facets:
        coeffs = tuple(int(c) for c in f["coeffs"])
        rhs = int(f["rhs"])
        if (coeffs, rhs) in seen:
            raise WrongAnswer("facet %r listed twice" % (coeffs,))
        seen.add((coeffs, rhs))
        tight = 0
        for k, y in enumerate(vertices):
            slack = sum(c * v for c, v in zip(coeffs, y)) - rhs
            if slack < 0:
                raise WrongAnswer("facet %r cuts off vertex %d" % (coeffs, k))
            if slack == 0:
                tight += 1
                incidence[k] += 1
        if tight != f["vertices_on"] or tight not in CENSUS_VERTICES_PER_FACET:
            raise WrongAnswer("facet %r has %d tight vertices, says %r"
                              % (coeffs, tight, f["vertices_on"]))
    if set(incidence) != {CENSUS_INCIDENCE}:
        raise WrongAnswer("per-vertex incidence %r"
                          % (sorted(set(incidence)),))
    return {"facet_count": len(facets), "per_vertex_incidence": incidence[0],
            "orbit_sizes": orbits}


# --- verify: omega verify --n 6 --------------------------------------------

VERIFY_N = 6


def _verify_expected(n: int) -> list[tuple[str, str]]:
    dim = n * (n + 1) // 2
    vertices = 2 ** n
    return [
        ("vertex equalities", "%d vertices, 0 violations" % vertices),
        ("dimension", "affine dimension %d, expected %d" % (dim, dim)),
        ("independent family",
         "%d assignments, affine rank %d" % (dim + 1, dim)),
        ("edge certificates", "%d/%d pairs certified"
         % (vertices * (vertices - 1) // 2, vertices * (vertices - 1) // 2)),
    ]


def verify_setup(seed, workdir):
    return ["verify", "--n", str(VERIFY_N)]


def verify_run(argv, between):
    clock = OpClock("neighborly", "edge_certificate", "verify_certificate",
                    between)
    with clock:
        code, out, _ = _cli(argv)
    return clock.ops, (code, out)


def verify_check(argv, answers):
    """Exit 0 with the expected PASS lines.

    Exit 1 means a row printed FAIL, a wrong answer; any other exit is a
    failure to answer.  An operation is one pair, so a wrong answer fails
    the pairs left uncertified (at least one).
    """
    code, out = answers
    pairs = 2 ** VERIFY_N * (2 ** VERIFY_N - 1) // 2
    result = Outcome(attempted=pairs, digest=_sha256(out))
    if code not in (0, 1):
        result.fail("verify exited %r" % (code,), wrong=False, ops=pairs)
        return result
    try:
        _check_verify(out.splitlines(), code)
    except WrongAnswer as exc:
        certified = re.search(r"(\d+)/%d pairs certified" % pairs, out)
        uncertified = pairs - int(certified.group(1)) if certified else pairs
        result.fail(str(exc), wrong=True, ops=max(uncertified, 1))
        return result
    result.counts = {"pairs_certified": pairs, "vertices": 2 ** VERIFY_N,
                     "dimension": VERIFY_N * (VERIFY_N + 1) // 2}
    return result


def _check_verify(lines, code) -> None:
    expected = _verify_expected(VERIFY_N)
    if len(lines) != len(expected) + 1:
        raise WrongAnswer("verify printed %d lines" % (len(lines),))
    for line, (name, detail) in zip(lines, expected):
        if not re.fullmatch(r"%s:\s+PASS  %s" % (re.escape(name),
                                                 re.escape(detail)), line):
            raise WrongAnswer("verify line %r" % (line,))
    if lines[-1] != "overall: PASS":
        raise WrongAnswer("verify line %r" % (lines[-1],))
    if code != 0:
        raise WrongAnswer("verify exited %r after printing PASS" % (code,))


# --- faces: polyhedra.is_face queries ---------------------------------------

FACES_N4_PAIRS = 12


def _qp3_facet_pairs() -> set[tuple[int, int]]:
    """Vertex pairs of n = 3 whose complement is a facet.

    The reduced n = 3 polytope is Padberg's Boolean quadric polytope QP_3
    (x_i = y_ii, y_ij = x_i x_j).  Its 16 facets are y_ij >= 0,
    y_ij <= y_ii, y_ii + y_jj - y_ij <= 1, the triangle inequality
    sum y_ii - sum y_ij <= 1, and y_ij + y_ik - y_jk <= y_ii; each misses
    exactly two of the eight vertices.  Six vertices span a face only if
    they are a facet's vertex set, so every other complement is no face.
    """
    points = [tuple(int(c == 1) for c in a)
              for a in itertools.product((1, 2), repeat=3)]
    missed = set()
    for i, j, k in itertools.permutations(range(3)):
        for slot in range(5):
            slacks = [_qp3_slacks(x, i, j, k)[slot] for x in points]
            if min(slacks) < 0:
                raise RuntimeError("QP_3 inequality %d is not valid" % (slot,))
            missed.add(tuple(v for v, s in enumerate(slacks) if s > 0))
    if len(missed) != 16 or any(len(m) != 2 for m in missed):
        raise RuntimeError("QP_3 facet list is wrong: %r" % (sorted(missed),))
    return missed


def _qp3_slacks(x, i, j, k):
    """Slacks at x in {0, 1}^3 of the five facet families, parts i, j, k."""
    xi, xj, xk = x[i], x[j], x[k]
    return (xi * xj,
            xi - xi * xj,
            1 - xi - xj + xi * xj,
            1 - xi - xj - xk + xi * xj + xi * xk + xj * xk,
            xi - xi * xj - xi * xk + xj * xk)


@dataclass(frozen=True)
class FaceQuery:
    group: str
    vrep: object
    subset: tuple[int, ...]
    expected: str  # FaceVerdict kind


def faces_setup(seed, workdir):
    """All 28 n = 3 pair complements, a seeded sample of 12 n = 4 vertex
    pairs, and the complements of every second n = 4 pair in
    lexicographic order (60 of 120): 100 queries, a pass of a few
    seconds.

    The complements are a fixed set, not a seeded one, so the number of
    them that hit a defect is the same for every seed.  Every n = 4 pair
    is an edge (the polytope is 2-neighborly), and no n = 4 pair
    complement is a face: its 14 vertices exceed the 12 of the largest
    n = 4 facet (README census table).
    """
    rng = random.Random(seed)
    VRep = omegapoly.polyhedra.VRep
    v3 = VRep(6, reduced_vertices(3))
    v4 = VRep(10, reduced_vertices(4))
    facet_pairs = _qp3_facet_pairs()
    queries = []
    for pair in itertools.combinations(range(8), 2):
        queries.append(FaceQuery(
            "n3_complement", v3, _complement(8, pair),
            "facet" if pair in facet_pairs else "not_face"))
    n4_pairs = list(itertools.combinations(range(16), 2))
    for pair in sorted(rng.sample(n4_pairs, FACES_N4_PAIRS)):
        queries.append(FaceQuery("n4_pair", v4, pair, "proper_face"))
    for pair in n4_pairs[::2]:
        queries.append(FaceQuery("n4_complement", v4, _complement(16, pair),
                                 "not_face"))
    return queries


def _complement(npts, pair):
    return tuple(k for k in range(npts) if k not in pair)


def faces_run(queries, between):
    ops, answers = [], []
    for q in queries:
        between()
        t0 = time.perf_counter()
        try:
            answer = omegapoly.polyhedra.is_face(q.vrep, q.subset)
        except Exception as exc:  # a crash is a counted failure, not fatal
            answer = exc
        ops.append(time.perf_counter() - t0)
        answers.append(answer)
    return ops, answers


def faces_check(queries, answers):
    result = Outcome(attempted=len(queries))
    counts = {}
    lines = []
    for q, ans in zip(queries, answers):
        if isinstance(ans, Exception):
            verdict = "error %s: %s" % (type(ans).__name__, ans)
            result.fail("%s %r: %s" % (q.group, q.subset, verdict),
                        wrong=False)
            key = "%s.error.%s" % (q.group, type(ans).__name__)
        else:
            verdict = "%s %r %r" % (ans.kind, ans.dimension, ans.form)
            try:
                _check_face(q, ans)
            except WrongAnswer as exc:
                result.fail("%s %r: %s" % (q.group, q.subset, exc), wrong=True)
            key = "%s.%s" % (q.group, ans.kind)
        counts[key] = counts.get(key, 0) + 1
        lines.append("%s %r %s" % (q.group, q.subset, verdict))
    result.counts = dict(sorted(counts.items()))
    result.digest = _sha256("\n".join(lines))
    return result


def _check_face(q: FaceQuery, ans) -> None:
    if ans.kind != q.expected:
        raise WrongAnswer("%s, expected %s" % (ans.kind, q.expected))
    if q.expected == "proper_face" and ans.dimension != 1:
        raise WrongAnswer("an edge of dimension %r" % (ans.dimension,))


# --- cliques: omega clique-solve --graph FILE ------------------------------

CLIQUE_GRAPHS = 120
# Fixed size schedule, so that seeds change graph content but not the
# spread of sizes; parsing is O(n^2) and dominates at the larger sizes.
# With five sizes, 24 graphs each, the median op falls inside the n = 32
# graphs and the 90th percentile inside the n = 64 ones, not on a
# boundary between two sizes, where it would jump between them.
CLIQUE_SIZES = (16, 24, 32, 48, 64)


@dataclass(frozen=True)
class CliqueInstance:
    path: str
    n: int
    satisfiable: bool
    missing: frozenset  # ((part, pos), (part, pos)) with the lower part first


def cliques_setup(seed, workdir):
    """Random graph files with a planted answer.

    Satisfiable: a hidden assignment's edges are never deleted.
    Unsatisfiable: all four edges between two parts are deleted.
    Either way about 3n further random edges are deleted.
    """
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    instances = []
    for k in range(CLIQUE_GRAPHS):
        n = CLIQUE_SIZES[k % len(CLIQUE_SIZES)]
        satisfiable = (k // len(CLIQUE_SIZES)) % 2 == 0
        missing = set()
        hidden = [rng.choice((1, 2)) for _ in range(n + 1)]
        if not satisfiable:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            missing.update(((i, p), (j, q)) for p in (1, 2) for q in (1, 2))
        while len(missing) < 3 * n:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            p, q = rng.choice((1, 2)), rng.choice((1, 2))
            if satisfiable and p == hidden[i] and q == hidden[j]:
                continue
            missing.add(((i, p), (j, q)))
        path = os.path.join(workdir, "graph%03d.json" % k)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"n": n, "missing_edges": [[list(u), list(v)]
                                                 for u, v in sorted(missing)]},
                      fh)
        instances.append(CliqueInstance(path, n, satisfiable,
                                        frozenset(missing)))
    return instances


def cliques_run(instances, between):
    ops, answers = [], []
    for g in instances:
        between()
        code, out, seconds = _cli(["clique-solve", "--graph", g.path])
        ops.append(seconds)
        answers.append((code, out))
    return ops, answers


def cliques_check(instances, answers):
    result = Outcome(attempted=len(instances))
    found = 0
    for g, (code, out) in zip(instances, answers):
        if code != 0:
            result.fail("%s: exit %r" % (g.path, code), wrong=False)
            continue
        try:
            _check_clique(g, out.strip())
        except WrongAnswer as exc:
            result.fail("%s: %s" % (os.path.basename(g.path), exc), wrong=True)
        found += out.strip() != "no clique"
    result.counts = {"clique_found": found,
                     "no_clique": len(instances) - found}
    result.digest = _sha256("".join(out for _, out in answers))
    return result


def _check_clique(g: CliqueInstance, text: str) -> None:
    if text == "no clique":
        if g.satisfiable:
            raise WrongAnswer("no clique, but one is planted")
        return
    if not g.satisfiable:
        raise WrongAnswer("clique %r, but two parts share no edge" % (text,))
    choice = text.split(",")
    if len(choice) != g.n or any(c not in ("1", "2") for c in choice):
        raise WrongAnswer("malformed assignment %r" % (text,))
    rho = [int(c) for c in choice]
    for i, j in itertools.combinations(range(g.n), 2):
        if ((i + 1, rho[i]), (j + 1, rho[j])) in g.missing:
            raise WrongAnswer("%r uses missing edge %d-%d"
                              % (text, i + 1, j + 1))


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "census": Workload(census_setup, census_run, census_check),
    "verify": Workload(verify_setup, verify_run, verify_check),
    "faces": Workload(faces_setup, faces_run, faces_check),
    "cliques": Workload(cliques_setup, cliques_run, cliques_check),
}
