"""Vertex-pair case analysis for three parts, and facet censuses.

Relabeling the n parts and swapping the two vertices inside any part
give a symmetry group of order n! * 2^n.  It acts on the vertices only,
as permutations of the vertex indices.  The group preserves how many
parts a pair agrees on, and reaches every pair with the same count, so
for n = 3 a pair of distinct vertices falls into one of three classes,
and the class decides what the other six vertices are:

    0 agreeing parts  ->  "disjoint":       the pair misses a facet that
                          contains the other six vertices (a six-term
                          hyperplane sums the edges internal to either
                          clique: 1 on the six, 3 on each of the pair)
    2 agreeing parts  ->  "shared_edge":    a single edge coordinate
                          vanishes on exactly the other six vertices,
                          which are a facet
    1 agreeing part   ->  "shared_vertex":  the other six vertices are
                          not a face at all; a four-term witness form
                          separates the excluded pair (values 0 and 2)
                          across the hyperplane holding the six at 1

Each case form is written straight from the pair, and every pair is
checked on its own: the form on all eight vertices, and a face LP on
the six.

facet_census and edges_via_hull read the facets' tight sets from double
description: the first reports counts, per-facet vertex counts, the
constant per-vertex incidence and facet orbits, the second counts 1-faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment, part_bit, positions
from .guards import ScaleGuardError, _shown
from . import omega_core, polyhedra
from .omega_core import coord_count, coord_index
from .polyhedra import FaceVerdict, LinearForm

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
    differ = a.code ^ b.code
    agree = tuple(i for i in range(1, 4) if not differ & part_bit(3, i))
    kind = {0: "disjoint", 1: "shared_vertex", 2: "shared_edge"}[len(agree)]
    return PairClass(kind, agree)


def _case_form(a: int, cls: PairClass) -> LinearForm:
    """The case form for a pair of class cls, written from code a alone.

    x[t] = a(t) and y[t] = 3 - a(t); each term X[i,j,p,q] with i > j is
    written as X[j,i,q,p], since block symmetry makes the two equal on
    the polytope.  The form is the edge sum of both cliques (disjoint),
    the edge of a inside the agreeing parts (shared edge), or for part i
    agreeing and j < k the other two, the witness

        X[i,j,y,y] + X[i,k,x,y] + X[i,j,x,y] + X[i,j,y,x],

    which at z is [z_i != a_i] + [z_i = a_i] * #{t in j, k: z_t != a_t}:
    0 at a, 2 at b and 1 on the other six.
    """
    x = dict(enumerate(positions(3, a), 1))
    y = {t: 3 - p for t, p in x.items()}
    if cls.kind == "disjoint":
        terms = [(i, j, f[i], f[j]) for (i, j) in ((1, 2), (1, 3), (2, 3))
                 for f in (x, y)]
        rhs = _ONE
    elif cls.kind == "shared_edge":
        i, j = cls.parts
        terms = [(i, j, x[i], x[j])]
        rhs = _ZERO
    else:
        (i,) = cls.parts
        j, k = (t for t in (1, 2, 3) if t != i)
        terms = [(i, j, y[i], y[j]), (i, k, x[i], y[k]),
                 (i, j, x[i], y[j]), (i, j, y[i], x[j])]
        rhs = _ONE
    coeffs = [_ZERO] * coord_count(3)
    for (i, j, p, q) in terms:
        if i > j:
            i, j, p, q = j, i, q, p
        coeffs[coord_index(3, i, j, p, q)] = _ONE
    return LinearForm(tuple(coeffs), rhs)


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


def analyze_pair(a: Assignment, b: Assignment) -> CaseReport:
    """Write the case form for the pair's class and check it.

    The form's values on all eight vertices and the face LP on the six
    others are computed once each and checked against the case claims;
    those two checks are what establish the case.
    """
    cls = classify_pair(a, b)
    name, want_excluded, want_other, want_verdict = _CASES[cls.kind]
    za, zb = a.code, b.code
    form = _case_form(za, cls)
    values = [form.value(v.coords) for v in omega_core.all_vertices(3)]
    excluded = [values[z] for z in sorted((za, zb))]
    rest = [z for z in range(1 << 3) if z != za and z != zb]
    others = [values[z] for z in rest]
    if sorted(excluded) != want_excluded or any(v != want_other
                                                for v in others):
        raise RuntimeError("%s failed evaluation for %s, %s" % (name, a, b))
    verdict = polyhedra.is_face(omega_core.reduced_vertex_vrep(3), rest)
    if verdict.kind != want_verdict:
        raise RuntimeError("six vertices opposite %s, %s: %s, expected %s"
                           % (a, b, verdict.kind, want_verdict))
    return CaseReport(cls, form, verdict, tuple(excluded), tuple(others))


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


def _orbit_generators(n: int) -> list[tuple[int, int]]:
    """Generators of the symmetry group as delta swaps (shift, select) on
    bitmasks over the vertex codes k (graph2p.part_bit): a generator
    exchanges bits k and k + shift of a mask for each k in select.
    Transposing parts t and t + 1 moves each k with part t's bit clear
    and part t + 1's set up by the difference of the two bits; swapping
    the vertices of part 1 moves each k with its bit clear up by it."""
    indices = range(1 << n)
    gens = []
    for t in range(1, n):
        hi, lo = part_bit(n, t), part_bit(n, t + 1)
        gens.append((hi - lo, sum(1 << k for k in indices
                                  if k & (hi | lo) == lo)))
    top = part_bit(n, 1)
    gens.append((top, sum(1 << k for k in indices if not k & top)))
    return gens


def facet_census(n: int, include_orbits: bool = True,
                 allow_large: bool = False) -> CensusReport:
    """Full facet description of the reduced polytope for small n.

    Facets come from double description, and which vertices each facet
    holds is the tight-set bitmask the double description keeps with
    each ray (polyhedra._hull_with_masks), so no separate incidence pass
    runs.  n up to 4 takes milliseconds; n = 5 runs double description
    in dimension 15, takes about 0.03 s in-process on a 2-core x86-64
    VM, and must be requested explicitly via allow_large.  n > 5 is
    refused with or without it.
    """
    if n < 2:
        raise ValueError("census needs n >= 2")
    if n > CENSUS_OPTIN_MAX:
        raise ScaleGuardError(
            "census-max", CENSUS_OPTIN_MAX, n,
            "census for %s parts is out of reach: n = %d is the largest "
            "census" % (_shown(n), CENSUS_OPTIN_MAX))
    if n > CENSUS_DEFAULT_MAX and not allow_large:
        raise ScaleGuardError(
            "census", CENSUS_DEFAULT_MAX, n,
            "census for %s parts exceeds bound %d (pass allow_large for "
            "n = 5)" % (_shown(n), CENSUS_DEFAULT_MAX))

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


def _facet_orbits(n, masks):
    """Orbits of the facets, given as tight-set bitmasks over the vertex
    indices, under the generators of _orbit_generators.

    A facet's image under a generator is the facet whose tight mask is
    the image of its mask, one delta swap (Knuth, TAOCP 4A, 7.1.3).
    Facets are visited in index order, so each orbit's representative is
    its first member.
    """
    gens = _orbit_generators(n)
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
            for shift, select in gens:
                moved = ((mask >> shift) ^ mask) & select
                image = mask ^ moved ^ (moved << shift)
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


def edges_via_hull(n: int) -> int:
    """Count vertex pairs that are 1-faces, from the facet incidence.

    Independent of the certificate route: converts the reduced vertex
    set to facets and reads which vertices each facet is tight on.  The
    smallest face holding two vertices is the intersection of the facets
    holding both, so the pair is an edge iff that intersection holds no
    third vertex.
    """
    if not 2 <= n <= 4:
        raise ValueError("geometric edge count is supported for n = 2..4")
    vrep = omega_core.reduced_vertex_vrep(n)
    _, masks = polyhedra._hull_with_masks(vrep)
    everything = (1 << len(vrep.points)) - 1
    count = 0
    for i, j in itertools.combinations(range(len(vrep.points)), 2):
        pair = (1 << i) | (1 << j)
        face = everything
        for mask in masks:
            if mask & pair == pair:
                face &= mask
        if face == pair:
            count += 1
    return count


# --- serialization ------------------------------------------------------------

# a facet and an orbit as json.dumps(indent=1) lays them out in the
# census's lists; a coefficient or rhs is the str of a Fraction, which
# needs no escaping, and a census form has at least one coefficient
_FACET_JSON = ('  {\n   "coeffs": [\n    "%s"\n   ],\n   "rhs": "%s",\n'
               '   "vertices_on": %d\n  }')
_ORBIT_JSON = '  {\n   "size": %d,\n   "representative": %d\n  }'


def _json_list(items: list[str]) -> str:
    """Encoded items as json.dumps(indent=1) lays out a list one level
    into the census object."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n ]"


def census_to_json(report: CensusReport) -> str:
    """The census as the text json.dumps(d, indent=1) gives for the dict
    d = {"n", "facets": [{"coeffs": [str], "rhs": str, "vertices_on"},
    ...], "facet_count", "per_vertex_incidence"}, plus "orbits":
    [{"size", "representative"}, ...] when the report has orbits; a form
    prints as the str of its Fractions.  The text is written directly,
    since json.dumps with indent runs Python's pure-Python encoder, which
    took about half the time of writing an n = 5 census."""
    facets = [_FACET_JSON % ('",\n    "'.join(map(str, f.form.coeffs)),
                             f.form.rhs, f.vertices_on)
              for f in report.facets]
    text = ('{\n "n": %d,\n "facets": %s,\n "facet_count": %d,\n'
            ' "per_vertex_incidence": %d'
            % (report.n, _json_list(facets), report.facet_count,
               report.per_vertex_incidence))
    if report.orbits is not None:
        orbits = [_ORBIT_JSON % (o.size, o.representative)
                  for o in report.orbits]
        text += ',\n "orbits": ' + _json_list(orbits)
    return text + "\n}"
