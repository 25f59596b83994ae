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
checked on its own: the form on all eight vertices, and is_face on the
six.  Six vertices of the full-dimensional n = 3 polytope span a
hyperplane, so is_face decides them by the side of each excluded
vertex, with no LP and no hull.

facet_census runs double description on the cone of facets through one
triangle face and closes them under the group: it reports counts,
per-facet vertex counts, the constant per-vertex incidence and facet
orbits.  It is the one source of the polytope's facets: the hull
command prints its forms, and edges_via_hull reads its tight sets and
counts 1-faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment, part_bit, positions
from .guards import check_count
from . import dd, omega_core, polyhedra
from .exact import _coprime, _dot, _int_rref, _null_basis
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

    The form's values on all eight vertices and the is_face verdict on
    the six others are computed once each and checked against the case
    claims; those two checks are what establish the case.  The six span
    a hyperplane, so is_face decides them as a facet candidate, by the
    sides of the excluded pair.
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
    """The vertex b the census's face is built at (_base_face): rho(i) = 2
    on exactly the even parts (code 0b01010 = 10 for n = 5).  The work of
    a double description, taken as the sum over its split steps of the
    squared number of rays entering them, depends on the vertex.  For the
    cone of facets through the face at b, n = 5, it is 34,320 at code
    10, the second lowest of the 32 (34,141 at code 5), and 4.0M at code
    31; for the tangent cone at the vertex alone it was 457k at code 10
    and 3.66M at code 31, against 1.67M for the hull of all 32 points."""
    return sum(part_bit(n, i) for i in range(2, n + 1, 2))


def _base_face(n: int, base: int) -> tuple[int, ...]:
    """The vertex codes of the face T the census's double description
    runs through, base first: for n >= 3 the star triangle
    {b, b ^ p(n-1) ^ p(n-2), b ^ p(n-1) ^ p(n)} of the three neighbours
    of b ^ p(n-1), with p = part_bit and b = base; for n = 2 the pair
    {b, b ^ 3}.  Its codes have one parity and lie pairwise at Hamming
    distance 2."""
    if n == 2:
        return (base, base ^ 3)
    hub = base ^ part_bit(n, n - 1)
    return (base, hub ^ part_bit(n, n - 2), hub ^ part_bit(n, n))


def _census_facets(n: int, base: int
                   ) -> tuple[list[tuple[tuple[int, ...], int]], list[int]]:
    """Every facet of the reduced polytope as (coprime integer form
    (c..., r) for c . y >= r, tight mask over the vertex codes), sorted
    as polyhedra._hull_with_masks sorts them, and the orbit of each under
    _orbit_generators, named by the tangent facet mask it was reached from.

    The facets through the face T = _base_face(n, base) are the extreme
    rays of its tangent cone {c : c . (p_k - p_base) >= 0 for every code
    k, = 0 for k in T}.  The double description runs on it in the
    subspace where T's differences vanish: c = lambda . B for the
    integer null basis B of those differences (exact._null_basis), one
    constraint (B (p_k - p_base)) per code k outside T, in increasing k.
    Each ray lambda maps back to c, and T's bits go back into its mask.

    Every facet holds a group image of T: it has at least d = n(n+1)/2
    vertices, so at least ceil(d/2) of one parity, and the largest set of
    one parity with no star triangle (for n = 2, no pair at distance 2)
    has 1, 2, 4, 5 and 10 codes for n = 2, ..., 6, below ceil(d/2) = 2,
    3, 5, 8 and 11.  The group is transitive on star triangles (and on
    distance-2 pairs).  So closing these facets under the generators,
    acting on masks by delta swaps and on forms by _form_actions, gives
    every facet; each tangent facet not yet reached starts a new orbit.
    The lemma is checked by exhaustive search for n <= 6 only, so n >= 7
    needs it checked again before the "census-max" guard moves.

    Two checks guard the form actions: a form that reaches a tangent
    facet's mask must be the form the double description gave it, and
    every image form must be tight at the lowest vertex of its image
    mask.
    """
    pts = [omega_core.reduced_bits(n, z) for z in range(1 << n)]
    pb = pts[base]
    face = _base_face(n, base)
    rref, den, pivots = _int_rref([[x - b for x, b in zip(pts[t], pb)]
                                   for t in face[1:]])
    basis = _null_basis(rref, den, pivots, len(pb))
    offsets = [_dot(u, pb) for u in basis]
    cons = [_coprime([_dot(u, p) - o for u, o in zip(basis, offsets)])
            for k, p in enumerate(pts) if k not in face]
    columns, inserts = list(zip(*basis)), sorted(face)
    forms = {}
    for lam, mask in dd._dd_extreme_rays(len(basis), cons):
        for t in inserts:
            below = (1 << t) - 1
            mask = (mask & below) | (mask & ~below) << 1 | 1 << t
        c = [_dot(lam, column) for column in columns]
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
                # the point is one entry shorter, so the dot leaves r out
                low = pts[(image & -image).bit_length() - 1]
                if (forms.setdefault(image, image_form) != image_form
                        or _dot(low, image_form) != image_form[-1]):
                    raise RuntimeError("group image of a facet is not its "
                                       "tangent cone form or not tight on "
                                       "its mask; census is inconsistent")
    facets = sorted((form, mask) for mask, form in forms.items())
    return facets, [orbit_of[mask] for _, mask in facets]


def facet_census(n: int, include_orbits: bool = True,
                 allow_large: bool = False) -> CensusReport:
    """Full facet description of the reduced polytope for small n.

    The facets through one face, a star triangle of three vertices, come
    from double description on its tangent cone, and the rest from their
    images under the symmetry group (_census_facets).  Each record keeps
    its facet as found, the coprime int form and the mask of the vertices
    it holds, so the incidence is counted from the masks, and the orbits
    are those of the closure.  The face is built at the vertex with
    rho(i) = 2 on exactly the even parts (_base_code, _base_face).  n up
    to 4 takes milliseconds; n = 5 runs double description in dimension
    13 on 29 constraints, takes about 0.0055 s in-process (best of forty
    runs) on a 2-core x86-64 VM, and must be requested explicitly via
    allow_large.  The count rule (check_count) for facet_census refuses
    an n that is not an int or is below 2, then an n past 5 (guard
    "census-max", with or without allow_large), then an n past 4 without
    allow_large (guard "census").
    """
    check_count(n, "facet_census", 2, most=CENSUS_OPTIN_MAX,
                guard="census-max")
    if not allow_large:
        check_count(n, "facet_census", 2, "n without allow_large",
                    CENSUS_DEFAULT_MAX, "census")

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

    Independent of the certificate route: reads which vertices each
    facet of facet_census is tight on.  The smallest face holding two
    vertices is the intersection of the facets holding both, so the pair
    is an edge iff that intersection holds no third vertex.  The count
    rule (check_count) for edges_via_hull refuses an n that is not an int
    or is below 2; facet_census's then refuses an n past 5 (guard
    "census-max").
    """
    check_count(n, "edges_via_hull", 2)
    report = facet_census(n, include_orbits=False, allow_large=True)
    facets = [(rec.int_form, rec.mask) for rec in report.facets]
    npts = 1 << n
    count = 0
    for i, j in itertools.combinations(range(npts), 2):
        pair = (1 << i) | (1 << j)
        if polyhedra._closure(facets, pair, npts)[0] == pair:
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
