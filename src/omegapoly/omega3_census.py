"""Vertex-pair case analysis for three parts, and facet censuses.

Relabeling the n parts and swapping the two vertices inside any part
give a symmetry group of order n! * 2^n acting on assignments, on the
full coordinate space and on linear forms.  The group preserves how
many parts a pair agrees on, and reaches every pair with the same
count, so for n = 3 a pair of distinct vertices falls into one of three
classes, and the class decides what the other six vertices are:

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

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment
from .guards import ScaleGuardError
from . import omega_core, polyhedra
from .omega_core import coord_count, coord_index, coord_tuples
from .polyhedra import FaceVerdict, HRep, LinearForm, VRep

_ZERO = Fraction(0)
_ONE = Fraction(1)

CENSUS_DEFAULT_MAX = 4
CENSUS_OPTIN_MAX = 5


# --- symmetry group ---------------------------------------------------------

@dataclass(frozen=True)
class Symmetry:
    """Relabel parts by perm, then swap positions where swaps says so.

    perm lists the images of parts 1..n; swaps[k] applies to the part
    labeled k+1 after relabeling.  On assignments:

        (g . a)(k) = s_k(a(perm^{-1}(k)))

    where s_k exchanges 1 and 2 when swaps[k-1] is true.
    """

    perm: tuple[int, ...]
    swaps: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm %r is not a permutation of 1..%d"
                             % (self.perm, n))
        if len(self.swaps) != n:
            raise ValueError("need one swap flag per part")

    @property
    def n(self) -> int:
        return len(self.perm)


def identity_symmetry(n: int) -> Symmetry:
    return Symmetry(tuple(range(1, n + 1)), (False,) * n)


def all_symmetries(n: int, limit: int = 6) -> list[Symmetry]:
    """The whole group, n! * 2^n elements, in lexicographic order."""
    if n > limit:
        raise ScaleGuardError(
            "bruteforce", limit, n,
            "enumerating the symmetry group for %d parts is too large" % (n,))
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for swaps in itertools.product((False, True), repeat=n):
            out.append(Symmetry(perm, swaps))
    return out


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for k, v in enumerate(perm, start=1):
        inv[v - 1] = k
    return tuple(inv)


def _swap(pos: int, flag: bool) -> int:
    return (3 - pos) if flag else pos


def apply_to_assignment(g: Symmetry, a: Assignment) -> Assignment:
    if a.n != g.n:
        raise ValueError("assignment has %d parts, symmetry has %d"
                         % (a.n, g.n))
    inv = _inverse_perm(g.perm)
    choice = tuple(_swap(a.rho(inv[k - 1]), g.swaps[k - 1])
                   for k in range(1, g.n + 1))
    return Assignment(choice)


def _permuted_index_map(g: Symmetry):
    """Shared index permutation for points and forms.

    Both transform by reading the source value at (perm^{-1}(i),
    perm^{-1}(j), s_i(p), s_j(q)); the swaps are involutions, which is
    why one map serves both directions.
    """
    n = g.n
    inv = _inverse_perm(g.perm)
    mapping = []
    for (i, j, p, q) in coord_tuples(n):
        src = coord_index(n, inv[i - 1], inv[j - 1],
                          _swap(p, g.swaps[i - 1]), _swap(q, g.swaps[j - 1]))
        mapping.append(src)
    return mapping


def apply_to_point(g: Symmetry, x: omega_core.OmegaPoint) -> omega_core.OmegaPoint:
    if x.n != g.n:
        raise ValueError("point has %d parts, symmetry has %d" % (x.n, g.n))
    mapping = _permuted_index_map(g)
    return omega_core.OmegaPoint(g.n, tuple(x.coords[s] for s in mapping))


def apply_to_form(g: Symmetry, f: LinearForm) -> LinearForm:
    """Transport a full-space form so that values on transported points match:
    (g . f)(g . x) = f(x)."""
    n = g.n
    if len(f.coeffs) != coord_count(n):
        raise ValueError("form has %d coefficients, expected %d"
                         % (len(f.coeffs), coord_count(n)))
    mapping = _permuted_index_map(g)
    return LinearForm(tuple(f.coeffs[s] for s in mapping), f.rhs)


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


def _orbit_generators(n: int) -> list[Symmetry]:
    gens = []
    for t in range(1, n):  # adjacent part transpositions
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        gens.append(Symmetry(tuple(perm), (False,) * n))
    swaps = tuple(k == 0 for k in range(n))  # swap inside part 1
    gens.append(Symmetry(tuple(range(1, n + 1)), swaps))
    return gens


def facet_census(n: int, include_orbits: bool = True,
                 allow_large: bool = False) -> CensusReport:
    """Full facet description of the reduced polytope for small n.

    Facets come from double description, and which vertices each facet
    holds is read off integer tight-set bitmasks (polyhedra.tight_masks).
    n up to 4 takes milliseconds; n = 5 runs double description in
    dimension 15, takes about 0.15 s, and must be requested explicitly
    via allow_large.  n > 5 is refused with or without it.
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
    hrep = polyhedra.convex_hull_facets(
        vrep, max_dim=omega_core.reduced_count(n), max_points=len(vrep.points))
    if hrep.equalities:
        raise RuntimeError("reduced vertex set is unexpectedly degenerate")

    records = []
    incidence = [0] * len(assigns)
    masks = polyhedra.tight_masks(hrep.inequalities, vrep)
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

    orbits = _facet_orbits(n, masks, assigns) if include_orbits else None
    return CensusReport(n, tuple(records), len(records), counts.pop(), orbits)


def _facet_orbits(n, masks, assigns):
    """Orbits of the facets, given as tight-set bitmasks over assigns,
    under the generators of _orbit_generators.

    Each generator is a permutation of the vertex indices, stored as the
    bit of each vertex's image; a facet's image under it is the facet
    whose tight mask is the image of its mask.  Facets are visited in
    index order, so each orbit's representative is its first member.
    """
    index_of = {a: k for k, a in enumerate(assigns)}
    gen_bits = [[1 << index_of[apply_to_assignment(g, a)] for a in assigns]
                for g in _orbit_generators(n)]
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
            for bits in gen_bits:
                image, rest = 0, mask
                while rest:
                    low = rest & -rest
                    image |= bits[low.bit_length() - 1]
                    rest ^= low
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


def form_to_reduced(form: LinearForm, n: int) -> LinearForm:
    """Restrict a full-space form to the reduced coordinates.

    The lift is affine, so probing it at zero and at the unit reduced
    points recovers the composed form exactly.
    """
    if len(form.coeffs) != coord_count(n):
        raise ValueError("form has %d coefficients, expected %d"
                         % (len(form.coeffs), coord_count(n)))
    k = omega_core.reduced_count(n)
    zero = omega_core.ReducedPoint(n, (_ZERO,) * k)
    base = form.value(omega_core.lift_point(zero).coords)
    coeffs = []
    for m in range(k):
        unit = omega_core.ReducedPoint(
            n, tuple(_ONE if t == m else _ZERO for t in range(k)))
        coeffs.append(form.value(omega_core.lift_point(unit).coords) - base)
    return LinearForm(tuple(coeffs), form.rhs - base)


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
