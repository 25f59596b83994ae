"""Vertex-pair case analysis for three parts, and facet censuses.

Relabeling the n parts and swapping the two vertices inside any part
give a symmetry group of order n! * 2^n.  It acts on the vertices as
permutations of the vertex indices, and on forms in the reduced
coordinates so that a form's values move with the vertices.  The group
preserves how many parts a pair agrees on, and reaches every pair with
the same count, so for n = 3 a pair of distinct vertices falls into one
of three classes, and the class decides what the other six vertices are:

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

facet_census runs double description on the tangent cone at one vertex
and closes the facets through it under the group: it reports counts,
per-facet vertex counts, the constant per-vertex incidence and facet
orbits.  edges_via_hull reads the facets' tight sets from the double
description of the whole hull and counts 1-faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment, part_bit, positions
from .guards import ScaleGuardError, _shown, check_count
from . import dd, omega_core, polyhedra
from .exact import _coprime, _dot
from .omega_core import (coord_count, coord_index, reduced_count,
                         reduced_index, reduced_pairs)
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

@dataclass(frozen=True, slots=True)
class FacetRecord:
    """One facet of the n-part census as the ints it was found as; the
    Fraction form and the tight assignments are built on request."""

    n: int
    int_form: tuple[int, ...]         # coprime (c..., r): c . y >= r
    mask: int                         # bit k: vertex code k is tight

    @property
    def form(self) -> LinearForm:
        """The reduced-space inequality, canonical, as Fractions."""
        return polyhedra._int_form(self.int_form)

    @property
    def tight(self) -> tuple[Assignment, ...]:
        """The vertices satisfied with equality, in code order."""
        assigns = omega_core.all_assignments(self.n)
        return tuple([a for k, a in enumerate(assigns) if self.mask >> k & 1])

    @property
    def vertices_on(self) -> int:
        return self.mask.bit_count()


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


def _form_actions(n: int) -> list:
    """The generators of _orbit_generators, in the same order, acting on
    integer forms (c..., r) in the reduced coordinates, read as
    c . y >= r: the image of a form takes the value at the image of each
    vertex that the form takes at the vertex, so it is tight on the
    delta-swapped mask.  Each action is an involution and is unimodular,
    so a coprime form stays coprime, and costs O(n^2).

    Transposing parts t and t + 1 moves the coefficient of y[i,j] to
    y[s(i),s(j)] and keeps r.  Swapping the vertices of part 1 replaces
    y[1,1] by 1 - y[1,1] and y[1,j] by y[j,j] - y[1,j], which gives
    c'[1,1] = -c[1,1], c'[1,j] = -c[1,j], c'[j,j] = c[j,j] + c[1,j] and
    r' = r - c[1,1].
    """
    d = reduced_count(n)
    actions = []
    for t in range(1, n):
        s = {t: t + 1, t + 1: t}
        perm = [reduced_index(n, *sorted((s.get(i, i), s.get(j, j))))
                for i, j in reduced_pairs(n)] + [d]
        actions.append(lambda form, perm=perm: tuple([form[k] for k in perm]))
    pairs = [(reduced_index(n, 1, j), reduced_index(n, j, j))
             for j in range(2, n + 1)]

    def swap_part_1(form):
        c = list(form)
        for one_j, jj in pairs:
            c[jj] += c[one_j]
            c[one_j] = -c[one_j]
        c[d] -= c[0]
        c[0] = -c[0]
        return tuple(c)

    actions.append(swap_part_1)
    return actions


def _base_code(n: int) -> int:
    """The vertex whose tangent cone the census runs on: rho(i) = 2 on
    exactly the even parts (code 0b01010 = 10 for n = 5).  The work of a
    double description, taken as the sum over its split steps of the
    squared number of rays entering them, depends on the vertex: for
    n = 5 it is 457k at code 10, the fourth lowest of the 32 and within
    1% of the lowest, 946k at code 0 and 3.66M at code 31, against 1.67M
    for the hull of all 32 points.  For n = 4 code 5 ties for the lowest."""
    return sum(part_bit(n, i) for i in range(2, n + 1, 2))


def _census_facets(n: int, base: int
                   ) -> tuple[list[tuple[tuple[int, ...], int]], list[int]]:
    """Every facet of the reduced polytope as (coprime integer form
    (c..., r) for c . y >= r, tight mask over the vertex codes), sorted
    as polyhedra._hull_with_masks sorts them, and the orbit of each under
    _orbit_generators, named by the tangent facet mask it was reached from.

    The facets through vertex base are the extreme rays of the tangent
    cone {c : c . (p_k - p_base) >= 0 for every code k != base}, found by
    double description with the constraints in increasing k, each ray
    with the mask of its tight constraints.  Every facet holds a vertex
    and the group is transitive on vertices, so closing these under the
    generators, acting on masks by delta swaps and on forms by
    _form_actions, gives every facet; each tangent facet not yet reached
    starts a new orbit.  A form that reaches a tangent facet's mask must
    be the form the double description gave it.
    """
    pts = [omega_core.reduced_bits(n, z) for z in range(1 << n)]
    pb = pts[base]
    cons = [tuple([x - b for x, b in zip(p, pb)])
            for k, p in enumerate(pts) if k != base]
    below = (1 << base) - 1
    forms = {}
    for c, mask in dd._dd_extreme_rays(len(pb), cons):
        mask = (mask & below) | (mask & ~below) << 1 | 1 << base
        forms[mask] = _coprime([*c, _dot(c, pb)])

    gens = list(zip(_orbit_generators(n), _form_actions(n)))
    orbit_of: dict[int, int] = {}
    for seed in list(forms):
        if seed in orbit_of:
            continue
        orbit_of[seed] = seed
        frontier = [seed]
        while frontier:
            mask = frontier.pop()
            form = forms[mask]
            for (shift, select), act in gens:
                moved = ((mask >> shift) ^ mask) & select
                image = mask ^ moved ^ (moved << shift)
                if image in orbit_of:
                    continue
                orbit_of[image] = seed
                frontier.append(image)
                image_form = act(form)
                if forms.setdefault(image, image_form) != image_form:
                    raise RuntimeError("group image of a facet through the "
                                       "base vertex is not its tangent cone "
                                       "form; census is inconsistent")
    facets = sorted((form, mask) for mask, form in forms.items())
    return facets, [orbit_of[mask] for _, mask in facets]


def facet_census(n: int, include_orbits: bool = True,
                 allow_large: bool = False) -> CensusReport:
    """Full facet description of the reduced polytope for small n.

    The facets through one vertex come from double description on its
    tangent cone, and the rest from their images under the symmetry
    group (_census_facets).  Each record keeps its facet as found, the
    coprime int form and the mask of the vertices it holds, so the
    incidence is counted from the masks, and the orbits are those of the
    closure.  The vertex is the one with rho(i) = 2 on exactly the even
    parts (_base_code).  n up to 4 takes milliseconds; n = 5 runs double
    description in dimension 15 on 31 constraints, takes about 0.011 s
    in-process (best of forty runs) on a 2-core x86-64 VM, and must be
    requested explicitly via allow_large.  n > 5 is refused with or
    without it.  An n that is not an int, or is below 2, is refused first,
    by the count rule (check_count) for facet_census.
    """
    check_count(n, "facet_census", 2)
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

    facets, orbit_of = _census_facets(n, _base_code(n))
    records = tuple([FacetRecord(n, form, mask) for form, mask in facets])

    masks = [mask for _, mask in facets]
    incidence = [column.bit_count() for column in dd._columns(masks, 1 << n)]
    counts = set(incidence)
    if len(counts) != 1:
        raise RuntimeError("per-vertex facet incidence is not constant: %r"
                           % (sorted(counts),))

    orbits = _orbit_records(orbit_of) if include_orbits else None
    return CensusReport(n, records, len(records), counts.pop(), orbits)


def _orbit_records(orbit_of: list[int]) -> tuple[OrbitRecord, ...]:
    """Size and smallest facet index of each orbit, given the orbit of
    each facet in index order: an orbit's representative is its first
    member, and orbits are listed by representative."""
    first: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for k, label in enumerate(orbit_of):
        first.setdefault(label, k)
        sizes[label] = sizes.get(label, 0) + 1
    return tuple(OrbitRecord(sizes[label], k) for label, k in first.items())


def edges_via_hull(n: int) -> int:
    """Count vertex pairs that are 1-faces, from the facet incidence.

    Independent of the certificate route: converts the reduced vertex
    set to facets and reads which vertices each facet is tight on.  The
    smallest face holding two vertices is the intersection of the facets
    holding both, so the pair is an edge iff that intersection holds no
    third vertex.  An n that is not an int, or is below 2, is refused by
    the count rule (check_count) for edges_via_hull.
    """
    check_count(n, "edges_via_hull", 2)
    if n > 4:
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
# census's lists; a coefficient or rhs is the str of an int, which is the
# str of the same Fraction and needs no escaping, and a census form has
# at least one coefficient
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
    prints as the str of its Fractions, that is of its ints.  The text is
    written directly, since json.dumps with indent runs Python's
    pure-Python encoder, which took about half the time of writing an
    n = 5 census."""
    facets = [_FACET_JSON % ('",\n    "'.join(map(str, f.int_form[:-1])),
                             f.int_form[-1], f.mask.bit_count())
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
