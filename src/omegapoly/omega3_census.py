"""Vertex-pair case analysis for three parts, and facet censuses.

Relabeling the n parts and swapping the two vertices inside any part
give a symmetry group of order n! * 2^n.  It acts on the vertices only,
as permutations of the vertex indices.  The group preserves how many
parts a pair agrees on, and reaches every pair with the same count, so
for n = 3 a pair of distinct vertices falls into one of three classes,
and the class decides what the other six vertices are:

    0 agreeing parts  ->  "disjoint":       the pair misses a facet that
                          contains the other six vertices (a six-term
                          hyperplane sums the edges internal to either clique)
    2 agreeing parts  ->  "shared_edge":    a single edge coordinate
                          vanishes on exactly the other six vertices
    1 agreeing part   ->  "shared_vertex":  the other six vertices are
                          not a face at all; a four-term witness form
                          separates the excluded pair (values 0 and 2)
                          across the hyperplane holding the six at 1

Each case form is written straight from the pair, and every pair is
checked on its own: the form on all eight vertices, and a face LP on
the six.

facet_census converts the reduced vertex set to facets by double
description and reports counts, per-facet vertex counts, the constant
per-vertex incidence, and facet orbits under the symmetry group.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment
from .guards import ScaleGuardError
from . import omega_core, polyhedra
from .omega_core import coord_count, coord_index
from .polyhedra import FaceVerdict, HRep, LinearForm, VRep

_ZERO = Fraction(0)
_ONE = Fraction(1)

CENSUS_DEFAULT_MAX = 4
CENSUS_OPTIN_MAX = 5


# --- pair classification ----------------------------------------------------

@dataclass(frozen=True)
class PairClass:
    """kind is "disjoint", "shared_edge" or "shared_vertex"; parts lists
    the agreeing parts (empty, two, or one respectively)."""

    kind: str
    parts: tuple[int, ...]


def classify_pair(a: Assignment, b: Assignment) -> PairClass:
    """Sort a pair of distinct three-part assignments into its orbit type."""
    if a.n != 3 or b.n != 3:
        raise ValueError("classification is specific to three parts")
    if a == b:
        raise ValueError("assignments must be distinct")
    agree = tuple(i for i in range(1, 4) if a.rho(i) == b.rho(i))
    kind = {0: "disjoint", 1: "shared_vertex", 2: "shared_edge"}[len(agree)]
    return PairClass(kind, agree)


def _case_form(a: Assignment, cls: PairClass) -> LinearForm:
    """The case form for a pair of class cls, written from a alone.

    x(t) = a(t) and y(t) = 3 - a(t); each term X[i,j,p,q] with i > j is
    written as X[j,i,q,p], since block symmetry makes the two equal on
    the polytope.  The form is the edge sum of both cliques (disjoint),
    the edge of a inside the agreeing parts (shared edge), or for part i
    agreeing and j < k the other two, the witness

        X[i,j,y,y] + X[i,k,x,y] + X[i,j,x,y] + X[i,j,y,x],

    which at z is [z_i != a_i] + [z_i = a_i] * #{t in j, k: z_t != a_t}:
    0 at a, 2 at b and 1 on the other six.
    """
    def x(t):
        return a.rho(t)

    def y(t):
        return 3 - a.rho(t)

    if cls.kind == "disjoint":
        terms = [(i, j, f(i), f(j)) for (i, j) in ((1, 2), (1, 3), (2, 3))
                 for f in (x, y)]
        rhs = _ONE
    elif cls.kind == "shared_edge":
        i, j = cls.parts
        terms = [(i, j, x(i), x(j))]
        rhs = _ZERO
    else:
        (i,) = cls.parts
        j, k = (t for t in (1, 2, 3) if t != i)
        terms = [(i, j, y(i), y(j)), (i, k, x(i), y(k)),
                 (i, j, x(i), y(j)), (i, j, y(i), x(j))]
        rhs = _ONE
    coeffs = [_ZERO] * coord_count(3)
    for (i, j, p, q) in terms:
        if i > j:
            i, j, p, q = j, i, q, p
        coeffs[coord_index(3, i, j, p, q)] = _ONE
    return LinearForm(tuple(coeffs), rhs)


def _pair_evaluations(form: LinearForm, a: Assignment, b: Assignment):
    """Form values at the excluded two and at the six remaining vertices."""
    excluded = []
    others = []
    for z in omega_core.all_assignments(3):
        val = form.value(omega_core.vertex_from_assignment(3, z).coords)
        if z == a or z == b:
            excluded.append(val)
        else:
            others.append(val)
    return excluded, others


def _six_face_verdict(a: Assignment, b: Assignment) -> FaceVerdict:
    """is_face on the six vertices other than a and b, in reduced space."""
    vrep = omega_core.reduced_vertex_vrep(3)
    assigns = omega_core.all_assignments(3)
    subset = [k for k, z in enumerate(assigns) if z != a and z != b]
    return polyhedra.is_face(vrep, subset)


@dataclass(frozen=True)
class CaseReport:
    """Everything the case analysis produces for one vertex pair."""

    pair_class: PairClass
    form: LinearForm
    verdict: FaceVerdict
    excluded_values: tuple[Fraction, ...]
    other_values: tuple[Fraction, ...]


# kind -> (name in messages, values at the excluded pair, value at the
#          other six, verdict)
_CASES = {
    "disjoint": ("disjoint form", [3, 3], 1, "facet"),
    "shared_edge": ("shared-edge form", [1, 1], 0, "facet"),
    "shared_vertex": ("shared-vertex witness", [0, 2], 1, "not_face"),
}


def _run_case(a: Assignment, b: Assignment, kind: str) -> CaseReport:
    """Write the case form for (a, b) and check it.

    The form's values on all eight vertices and the face LP on the six
    others are computed once each and checked against the case claims;
    those two checks are what establish the case.
    """
    name, want_excluded, want_other, want_verdict = _CASES[kind]
    cls = classify_pair(a, b)
    if cls.kind != kind:
        raise ValueError("pair %s, %s is %s, not %s" % (a, b, cls.kind, kind))
    form = _case_form(a, cls)
    excluded, others = _pair_evaluations(form, a, b)
    if sorted(excluded) != want_excluded or any(v != want_other
                                                for v in others):
        raise RuntimeError("%s failed evaluation for %s, %s" % (name, a, b))
    verdict = _six_face_verdict(a, b)
    if verdict.kind != want_verdict:
        raise RuntimeError("six vertices opposite %s, %s: %s, expected %s"
                           % (a, b, verdict.kind, want_verdict))
    return CaseReport(cls, form, verdict, tuple(excluded), tuple(others))


def case_disjoint_form(a: Assignment, b: Assignment) -> LinearForm:
    """Facet equation missing a fully disjoint pair: the six edge
    coordinates internal to either clique sum to 1 on the other six
    vertices and to 3 on each of the excluded two."""
    return _run_case(a, b, "disjoint").form


def case_shared_edge_form(a: Assignment, b: Assignment) -> LinearForm:
    """Single edge coordinate that vanishes on exactly the other six
    vertices when the pair agrees on two parts; those six are a facet."""
    return _run_case(a, b, "shared_edge").form


def case_shared_vertex_witness(a: Assignment, b: Assignment) -> LinearForm:
    """Witness that the six vertices opposite a one-part-agreeing pair are
    no face: the form holds the six at 1 while the excluded pair lands on
    0 and 2, one on each side."""
    return _run_case(a, b, "shared_vertex").form


def analyze_pair(a: Assignment, b: Assignment) -> CaseReport:
    """Run the right case for the pair and bundle form, verdict, values."""
    return _run_case(a, b, classify_pair(a, b).kind)


# --- facet census ------------------------------------------------------------

@dataclass(frozen=True)
class FacetRecord:
    form: LinearForm                  # reduced-space inequality, canonical
    tight: tuple[Assignment, ...]     # vertices satisfied with equality
    vertices_on: int


@dataclass(frozen=True)
class OrbitRecord:
    size: int
    representative: int               # smallest facet index in the orbit


@dataclass(frozen=True)
class CensusReport:
    n: int
    facets: tuple[FacetRecord, ...]
    facet_count: int
    per_vertex_incidence: int
    orbits: tuple[OrbitRecord, ...] | None


def _orbit_generators(n: int) -> list[tuple[int, ...]]:
    """Generators of the symmetry group as permutations of the vertex
    indices of all_assignments(n), where vertex k has part i at position 2
    iff bit n - i of k is set.  Transposing parts t and t + 1 swaps bits
    n - t and n - t - 1; the last generator swaps the two vertices of
    part 1, flipping bit n - 1."""
    gens = []
    for t in range(1, n):
        hi, lo = 1 << (n - t), 1 << (n - t - 1)
        gens.append(tuple(k ^ (hi | lo) if bool(k & hi) != bool(k & lo)
                          else k for k in range(1 << n)))
    gens.append(tuple(k ^ (1 << (n - 1)) for k in range(1 << n)))
    return gens


def facet_census(n: int, include_orbits: bool = True,
                 allow_large: bool = False) -> CensusReport:
    """Full facet description of the reduced polytope for small n.

    Facets come from double description, and which vertices each facet
    holds is the tight-set bitmask the double description keeps with
    each ray (polyhedra._hull_with_masks), so no separate incidence pass
    runs.  n up to 4 takes milliseconds; n = 5 runs double description
    in dimension 15, takes about 0.04 s in-process on a 2-core x86-64
    VM, and must be requested explicitly via allow_large.  n > 5 is
    refused with or without it.
    """
    if n < 2:
        raise ValueError("census needs n >= 2")
    if n > CENSUS_OPTIN_MAX:
        raise ScaleGuardError(
            "census-max", CENSUS_OPTIN_MAX, n,
            "census for %d parts is out of reach: n = %d is the largest "
            "census" % (n, CENSUS_OPTIN_MAX))
    if n > CENSUS_DEFAULT_MAX and not allow_large:
        raise ScaleGuardError(
            "census", CENSUS_DEFAULT_MAX, n,
            "census for %d parts exceeds bound %d (pass allow_large for "
            "n = 5)" % (n, CENSUS_DEFAULT_MAX))

    assigns = omega_core.all_assignments(n)
    vrep = omega_core.reduced_vertex_vrep(n)
    hrep, masks = polyhedra._hull_with_masks(vrep)
    if hrep.equalities:
        raise RuntimeError("reduced vertex set is unexpectedly degenerate")

    records = []
    incidence = [0] * len(assigns)
    for form, mask in zip(hrep.inequalities, masks):
        tight = []
        for k, a in enumerate(assigns):
            if mask >> k & 1:
                tight.append(a)
                incidence[k] += 1
        records.append(FacetRecord(form, tuple(tight), len(tight)))

    counts = set(incidence)
    if len(counts) != 1:
        raise RuntimeError("per-vertex facet incidence is not constant: %r"
                           % (sorted(counts),))

    orbits = _facet_orbits(n, masks) if include_orbits else None
    return CensusReport(n, tuple(records), len(records), counts.pop(), orbits)


@functools.lru_cache(maxsize=None)
def _generator_byte_images(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each generator of _orbit_generators(n), one table per byte of
    a vertex bitmask: tables[k][v] is the bitmask of the images of the
    vertices 8k + b for the set bits b of the byte value v.  Built once
    per n, each entry from the entry without its low bit."""
    nverts = 1 << n
    images = []
    for g in _orbit_generators(n):
        tables = []
        for lo in range(0, nverts, 8):
            table = [0] * (1 << min(8, nverts - lo))
            for v in range(1, len(table)):
                low = v & -v
                table[v] = table[v ^ low] | 1 << g[lo + low.bit_length() - 1]
            tables.append(tuple(table))
        images.append(tuple(tables))
    return tuple(images)


def _facet_orbits(n, masks):
    """Orbits of the facets, given as tight-set bitmasks over the vertex
    indices, under the generators of _orbit_generators.

    A facet's image under a generator is the facet whose tight mask is
    the image of its mask, the OR of one byte image table lookup per
    byte of the mask (_generator_byte_images).  Facets are visited in
    index order, so each orbit's representative is its first member.
    """
    gen_tables = _generator_byte_images(n)
    facet_of_mask = {mask: k for k, mask in enumerate(masks)}
    seen = [False] * len(masks)
    orbits = []
    for start, start_mask in enumerate(masks):
        if seen[start]:
            continue
        seen[start] = True
        size = 1
        frontier = [start_mask]
        while frontier:
            mask = frontier.pop()
            for tables in gen_tables:
                image, rest = 0, mask
                for table in tables:
                    image |= table[rest & 0xFF]
                    rest >>= 8
                k = facet_of_mask.get(image)
                if k is None:
                    raise RuntimeError("symmetry image of a facet is not a "
                                       "facet; census is inconsistent")
                if not seen[k]:
                    seen[k] = True
                    size += 1
                    frontier.append(image)
        orbits.append(OrbitRecord(size, start))
    return tuple(orbits)


# --- serialization ------------------------------------------------------------

def census_to_dict(report: CensusReport) -> dict:
    facets = []
    for rec in report.facets:
        facets.append({
            "coeffs": [str(c) for c in rec.form.coeffs],
            "rhs": str(rec.form.rhs),
            "vertices_on": rec.vertices_on,
        })
    out = {
        "n": report.n,
        "facets": facets,
        "facet_count": report.facet_count,
        "per_vertex_incidence": report.per_vertex_incidence,
    }
    if report.orbits is not None:
        out["orbits"] = [{"size": o.size, "representative": o.representative}
                         for o in report.orbits]
    return out


def census_to_json(report: CensusReport) -> str:
    return json.dumps(census_to_dict(report), indent=1)
