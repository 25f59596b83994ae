"""Exact rational polyhedral geometry over the integer kernels in exact, dd
and simplex: affine rank, vertex-to-facet conversion, linear programming,
supporting-hyperplane face tests, the regular polytope fixtures and a small
cdd-style text format.  Values are fractions.Fraction, scaled to plain
integers for every kernel; Fractions are made only for what is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .dd import _dd_extreme_rays
from .exact import (_clear_matrix, _coprime, _dot, _in_row_space,
                    _int_affine_rank, _int_rref, _null_basis)
from .guards import (DEFAULT_HULL_MAX_DIM, DEFAULT_HULL_MAX_POINTS,
                     _shown, check_count, exact_number, is_int, text_int)
from .simplex import _int_lp

Vector = tuple[Fraction, ...]

# Fraction(k) for k = -64..64 at index k + 64, made once and shared, since
# hull forms are mostly small ints and a Fraction is immutable
_SMALL = tuple(Fraction(k) for k in range(-64, 65))


def _exact(x) -> Fraction:
    """A new Fraction(x) for an int or a Fraction.  A float, a bool or
    anything else is refused: Fraction(0.1) is not the 0.1 that was meant,
    and True would be read as 1."""
    if isinstance(x, Fraction) or is_int(x):
        return Fraction(x)
    raise ValueError("entry %s is not an int or a Fraction"
                     % (_shown(x, repr),))


def _frac_vector(xs: Iterable) -> Vector:
    """_exact(x) for each x, shared from _SMALL for a small int."""
    return tuple([_SMALL[x + 64] if type(x) is int and -64 <= x <= 64
                  else _exact(x) for x in xs])


@dataclass(frozen=True)
class LinearForm:
    """coeffs . x compared against rhs.

    Used both as the inequality coeffs . x >= rhs and, where stated, as
    the hyperplane coeffs . x = rhs.
    """

    coeffs: Vector
    rhs: Fraction

    def value(self, point: Sequence) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ValueError("point has dimension %d, form has %d"
                             % (len(point), len(self.coeffs)))
        return Fraction(_dot(self.coeffs, point))

    def slack(self, point: Sequence) -> Fraction:
        return self.value(point) - self.rhs


def linear_form(coeffs: Iterable, rhs) -> LinearForm:
    return LinearForm(_frac_vector(coeffs), _exact(rhs))


class VRep:
    """A polytope as a duplicate-free ordered list of points, immutable.

    The kernels read the points as integers Q / D over one common D > 0,
    and is_face also needs their affine rank, for a subset with few
    points outside it their affine dependencies, and for a subset of
    lower dimension the hull's facets with their tight points; each is
    computed on first use (D can have the digits of all the denominators,
    which convert never needs) and kept, since dim and points are read
    only.
    """

    def __init__(self, dim: int, points: Iterable[Sequence]):
        check_count(dim, "VRep", 1, "dim")
        pts = tuple(_frac_vector(p) for p in points)
        for p in pts:
            if len(p) != dim:
                raise ValueError("point %s does not have dimension %d"
                                 % (_shown(p, repr), dim))
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in V-representation")
        self._dim = dim
        self._points = pts

    dim = property(lambda self: self._dim)
    points = property(lambda self: self._points)

    @cached_property
    def _integers(self) -> tuple[list[list[int]], int]:
        """(Q, D) with points = Q / D over one common D > 0."""
        return _clear_matrix(self.points)

    @cached_property
    def _affine_rank(self) -> int:
        """Affine rank of the points (at least one), from _integers."""
        return _int_affine_rank(self._integers[0])

    @cached_property
    def _dependencies(self) -> list[list[int]]:
        """The affine dependencies of the points, one integer row lam per
        non-pivot point f of the RREF R / den of the (dim + 1) x npts
        matrix whose column i is (D, Q_i): den at f and -R[row][f] at each
        pivot point.  Its null vectors are exactly the lam with
        sum lam_i = 0 and sum lam_i p_i = 0, and these rows span them."""
        pts, D = self._integers
        rref, den, pivots = _int_rref([[D] * len(pts), *map(list, zip(*pts))])
        return _null_basis(rref, den, pivots, len(pts))

    @cached_property
    def _facets(self) -> list[tuple[tuple[int, ...], int]]:
        """The hull's (coprime integer form (c..., r), tight bitmask)
        pairs from _hull_with_masks: c . x >= r on every point, with
        equality on the points of the mask.  Built for is_face under
        convex_hull_facets' default guards, so a dim past
        DEFAULT_HULL_MAX_DIM ("hull-dim") or more than
        DEFAULT_HULL_MAX_POINTS points ("hull-points") is refused by the
        count rule, naming is_face."""
        check_count(self.dim, "is_face", 1, "dim", DEFAULT_HULL_MAX_DIM,
                    "hull-dim")
        check_count(len(self.points), "is_face", 0, "point count",
                    DEFAULT_HULL_MAX_POINTS, "hull-points")
        return _hull_with_masks(self)[1]

    def __eq__(self, other):
        return (isinstance(other, VRep)
                and self.dim == other.dim and self.points == other.points)

    def __repr__(self):
        return "VRep(dim=%d, points=%d)" % (self.dim, len(self.points))


@dataclass(frozen=True)
class HRep:
    """A polyhedron as inequalities coeffs . x >= rhs plus equalities."""

    dim: int
    inequalities: tuple[LinearForm, ...]
    equalities: tuple[LinearForm, ...]

    def __post_init__(self):
        check_count(self.dim, "HRep", 1, "dim")
        for kind, forms in (("inequality", self.inequalities),
                            ("equality", self.equalities)):
            for k, f in enumerate(forms):
                if len(f.coeffs) != self.dim:
                    raise ValueError("%s %d has %d coefficients, not %d"
                                     % (kind, k, len(f.coeffs), self.dim))

    def holds(self, point: Sequence) -> bool:
        return (all(f.slack(point) >= 0 for f in self.inequalities)
                and all(f.slack(point) == 0 for f in self.equalities))


def affine_rank(v: VRep) -> int:
    """Dimension of the affine hull of the points, computed on the points
    scaled to integers over one common denominator (cached on v)."""
    if not v.points:
        raise ValueError("affine rank of an empty point set")
    return v._affine_rank


def _int_form(ints: Sequence[int]) -> LinearForm:
    """The form [coeffs..., rhs] = ints, as Fractions."""
    form = _frac_vector(ints)
    return LinearForm(form[:-1], form[-1])


def _coprime_form(ints: Sequence[int]) -> LinearForm:
    """The form [coeffs..., rhs] = ints divided by the gcd of its entries."""
    return _int_form(_coprime(ints))


def convex_hull_facets(v: VRep,
                       max_dim: int = DEFAULT_HULL_MAX_DIM,
                       max_points: int = DEFAULT_HULL_MAX_POINTS) -> HRep:
    """Irredundant H-representation of conv(points).

    Output is the canonical affine hull equalities plus exactly one
    canonically scaled inequality per facet, sorted, so equal point sets
    always produce byte-identical results regardless of input order.
    Forms are coprime integers; an equality's first nonzero coefficient
    is positive.

    Runs on integers from input to output: the points are written once
    as P / D over one common D, the affine hull is the integer RREF of
    the differences P_i - P_0 (its pivots and null vectors are those of
    the rational differences), and the double description runs on
    (D, (P_i - P_0) at the pivots).  A ray (b, c) gives the facet
    c . x >= c . x_0 - b in the pivot coordinates, scaled by D to
    (c D at the pivots, c . P_0 - b D).  Fractions are built only for
    the returned forms.  Each bound passes the count rule from 1, then
    bounds v's dim (guard "hull-dim") and its point count ("hull-points").
    """
    check_count(max_dim, "convex_hull_facets", 1, "max_dim")
    check_count(max_points, "convex_hull_facets", 1, "max_points")
    check_count(v.dim, "convex_hull_facets", 1, "dim", max_dim, "hull-dim")
    check_count(len(v.points), "convex_hull_facets", 0, "point count",
                max_points, "hull-points")
    return _hull_with_masks(v)[0]


def _hull_with_masks(v: VRep
                     ) -> tuple[HRep, list[tuple[tuple[int, ...], int]]]:
    """convex_hull_facets without its size guards, plus one (coprime
    integer form, tight bitmask) pair per inequality, in its order: the
    ints the inequality was built from, and the points it is tight on
    (bit k for point k).

    Constraint k of the double description is point k, so the tight
    bitmask the DD keeps with each ray is the facet's incidence over the
    points: bit k is set iff its form is tight on point k.
    """
    if not v.points:
        raise ValueError("convex hull of an empty point set")

    d = v.dim
    pts, D = v._integers
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts]
    rref, den, pivots = _int_rref(diffs[1:])

    equalities = []
    for coeffs in _null_basis(rref, den, pivots, d):
        eq = _coprime([D * c for c in coeffs] + [_dot(coeffs, base)])
        if next(c for c in eq if c) < 0:
            eq = tuple(-x for x in eq)
        equalities.append(eq)
    equalities.sort()

    facets = []  # (coprime integer form, tight bitmask)
    if pivots:
        cons = [_coprime([D] + [diff[c] for c in pivots]) for diff in diffs]
        base_piv = [base[c] for c in pivots]
        for (b, *c), mask in _dd_extreme_rays(len(pivots) + 1, cons):
            coeffs = [0] * d
            for cj, pc in zip(c, pivots):
                coeffs[pc] = cj * D
            facets.append((_coprime(coeffs + [_dot(c, base_piv) - b * D]),
                           mask))
        facets.sort()
    hrep = HRep(d, tuple(_int_form(f) for f, _ in facets),
                tuple(map(_int_form, equalities)))
    return hrep, facets


# --- linear programming --------------------------------------------------

@dataclass(frozen=True)
class LpResult:
    """Outcome of lp_solve.

    status is "optimal", "infeasible" or "unbounded".  For an optimal
    solve, dual holds one multiplier per constraint (inequalities first,
    then equalities, in the order given) satisfying exactly

        sum_i dual[i] * coeffs_i = objective coefficients
        sum_i dual[i] * rhs_i    = optimum

    with dual[i] <= 0 on inequalities when maximizing and dual[i] >= 0
    when minimizing.  The integer core checks these identities, scaled
    to integers, before lp_solve builds the Fractions.

    The argument and the multipliers are read off the final simplex
    tableau, each multiplier from its row's start column: the row's
    artificial, or its surplus column where x = 0 satisfies the row and
    the row has no artificial.  Where the optimum or the optimal dual is
    not unique they may differ from those of releases that re-solved for
    the multipliers or started every row on an artificial, but the
    argument is always an optimal point and the multipliers always
    satisfy the identities.

    pivots counts the simplex pivots as (phase 1, phase 2).  Phase 1
    counts the pivots that reach a feasible basis from the start basis,
    none when every row holds at x = 0, plus those that drive leftover
    artificials out of the basis.
    """

    status: str
    optimum: Fraction | None = None
    argument: Vector | None = None
    dual: Vector | None = None
    pivots: tuple[int, int] | None = None


def lp_solve(objective: LinearForm, constraints: HRep,
             sense: str = "max") -> LpResult:
    """Exact two-phase simplex over the rationals on free variables.

    Maximizes or minimizes objective.coeffs . x subject to the HRep.
    The objective rhs is ignored.  See LpResult for the dual convention.

    The Fraction boundary of _int_lp: the constraints are scaled to
    integers by L, the lcm of their denominators, and the objective by
    cden, the lcm of its own, so Bland's rule takes the pivots a Fraction
    tableau takes.  Fractions are built only for the argument, the
    optimum and the duals.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    d = constraints.dim
    if len(objective.coeffs) != d:
        raise ValueError("objective has dimension %d, constraints %d"
                         % (len(objective.coeffs), d))
    flip = 1 if sense == "max" else -1
    (cost,), cden = _clear_matrix([[flip * c for c in objective.coeffs]])
    rows, scale = _clear_matrix(
        (*f.coeffs, f.rhs)
        for f in (*constraints.inequalities, *constraints.equalities))
    status, pivots, den, x, y = _int_lp(cost, rows,
                                        len(constraints.inequalities))
    if status != "optimal":
        return LpResult(status, pivots=pivots)
    # y / den are the multipliers of the scaled problem; undo the scalings
    return LpResult("optimal", Fraction(flip * _dot(cost, x), den * cden),
                    tuple(Fraction(xk, den) for xk in x),
                    tuple(Fraction(flip * yi * scale, den * cden) for yi in y),
                    pivots)


# --- face tests -----------------------------------------------------------

@dataclass(frozen=True)
class FaceVerdict:
    """Answer of is_face.

    kind is one of "facet", "proper_face", "not_face", "empty",
    "whole_polytope".  For the first two, form supports the polytope with
    equality exactly on the subset and dimension is the face dimension.
    "not_face" carries no form.  It rests on one of three facts, and no
    witness of any is returned yet: a point outside the subset lies in
    the subset's affine hull; the subset spans a hyperplane of a
    full-dimensional polytope and two outside points lie on opposite
    sides of it; or the facets that hold the subset also hold a point
    outside it.
    """

    kind: str
    form: LinearForm | None = None
    dimension: int | None = None

    @property
    def is_face(self) -> bool:
        return self.kind in ("facet", "proper_face", "empty", "whole_polytope")


def is_face(v: VRep, subset: Iterable[int]) -> FaceVerdict:
    """Decide whether the given point indices form a face of conv(points).

    A face F of a polytope P is P intersected with aff(F), so a point
    outside the subset S that lies in aff(S) makes it "not_face" at once:
    no hyperplane through S leaves that point strictly on one side.  A
    screen looks for such a point with linear algebra alone, and also
    gives dim aff(S), the face dimension.  Which screen runs depends only
    on the sizes of S and of the set O of points outside it:

    - |O| < |S| - 1: the dependency screen (_dependency_screen).  It
      reads the affine dependencies of all the points, which v computes
      once and keeps, cut to the columns in O: a matrix of |O| columns,
      where the other screen's has |S| - 1 rows.  So the complement of a
      small set of points costs an RREF of a few columns, not one of
      nearly every point.
    - otherwise the span screen (_span_screen): one integer RREF of the
      differences of S from its first point, against which each outside
      difference is tested.

    Both give the same answer, dimension and facet normal.  When the
    polytope is full-dimensional and aff(S) is a hyperplane (a facet
    candidate), the screen also decides S: every hyperplane through S
    contains aff(S), so aff(S) is the only one that can support S, and S
    is a facet iff every outside point lies strictly on one side of it
    (Ziegler, Lectures on Polytopes).  Its form is the integer normal of
    aff(S), oriented to make the outside points positive.

    Only a subset of lower dimension, or any subset of a polytope that
    is not full-dimensional, passes the screen undecided, and the
    closure decides it (_closure_form): S is a face iff it equals the
    intersection of the facets that hold it (Kaibel & Pfetsch, Comput.
    Geom. 23, 2002).  The diagonal rectangle {0000, 0011, 1100, 1111} of
    the 4-cube passes the screen and is refused this way: no facet of
    the cube holds both 0000 and 1111, so that intersection is every
    vertex.  For a face, the sum of the holding facets' forms is tight
    exactly on S, and its coprime multiple is the returned form.  The sum
    is checked on every point with ints, and a mismatch raises
    RuntimeError.

    Cost: the points are read as the integers Q / D over one common D
    that v clears on first use and keeps, with its affine rank (for the
    facet and whole_polytope verdicts), so a query pays for neither.
    The closure reads the hull's (form, tight mask) pairs, which v builds
    by double description on the first query that reaches it and keeps,
    under convex_hull_facets' default guards (VRep._facets); after that
    a query costs its screen, one mask test per facet and one int
    evaluation of the sum per point.  A subset the screen decides never
    builds the hull.  Fractions are built only for the returned form,
    and the ranks are integer RREFs.

    A point index must be an int (not a bool) in range(len(v.points));
    anything else is refused with a ValueError.
    """
    npts = len(v.points)
    inside = set()
    for i in subset:
        if not is_int(i):
            raise ValueError("point index %s is not an integer"
                             % (_shown(i, repr),))
        if not 0 <= i < npts:
            raise ValueError("point index %s out of range" % (_shown(i),))
        inside.add(i)
    if not inside:
        return FaceVerdict(kind="empty", dimension=-1)
    if len(inside) == npts:
        return FaceVerdict(kind="whole_polytope", dimension=affine_rank(v))

    idx = sorted(inside)
    outside = [i for i in range(npts) if i not in inside]
    screen = (_dependency_screen if len(outside) < len(idx) - 1
              else _span_screen)
    found = screen(v, idx, outside)
    if found is None:
        return FaceVerdict("not_face")

    dimension, f = found
    if f is None:  # no facet candidate: the closure
        form = _closure_form(v, idx)
        if form is None:
            return FaceVerdict("not_face")
    else:
        pts, D = v._integers
        form = [c * D for c in f] + [_dot(f, pts[idx[0]])]
    kind = "facet" if dimension == v._affine_rank - 1 else "proper_face"
    return FaceVerdict(kind, _coprime_form(form), dimension)


def _closure_form(v: VRep, idx: list[int]) -> list[int] | None:
    """The sum (c..., r) of the int forms of the facets of v that hold
    the points S at the sorted indices idx, or None when the facets
    holding S also hold a point outside it, so that S is no face.

    Each facet's slack is at least zero on every point, so the sum's is
    too, and it is zero exactly where every holding facet is tight: on
    their intersection, which is S.  This is checked on every point,
    c . Q_k - r D on the integers Q / D, and a mismatch raises
    RuntimeError.
    """
    mask = sum(1 << i for i in idx)
    closure, holding = _closure(v._facets, mask, len(v.points))
    if closure != mask:
        return None
    total = [sum(col) for col in zip(*holding)]
    pts, D = v._integers
    coeffs, rhs = total[:-1], total[-1] * D
    for k, p in enumerate(pts):
        slack = _dot(coeffs, p) - rhs
        if slack < 0 or (slack == 0) != (mask >> k & 1):
            raise RuntimeError("the sum of the facets holding %d points is "
                               "not tight exactly on them at point %d"
                               % (len(idx), k))
    return total


def _closure(facets: list[tuple[tuple[int, ...], int]], mask: int,
             npts: int) -> tuple[int, list[tuple[int, ...]]]:
    """(closure, holding) for the points at the bits of mask, from a
    hull's (form, tight mask) pairs over npts points: holding is the
    forms of the facets tight on every one of them, and closure the
    intersection of those facets' tight masks, the smallest face that
    holds the points (all npts when no facet does)."""
    closure = (1 << npts) - 1
    holding = []
    for form, tight in facets:
        if tight & mask == mask:
            closure &= tight
            holding.append(form)
    return closure, holding


def _is_facet_candidate(v: VRep, dimension: int) -> bool:
    """Is a subset with dim aff(S) = dimension a facet candidate: aff(S) a
    hyperplane of a full-dimensional polytope?"""
    return dimension == v.dim - 1 == v._affine_rank - 1


def _span_screen(v: VRep, idx: list[int], outside: list[int]
                 ) -> tuple[int, list[int] | None] | None:
    """(dim aff(S), normal) for the points S at the sorted indices idx, or
    None when S is no face: one integer RREF of the differences of S from
    its first point, each outside difference tested against its row
    space, whose rank is the dimension.

    A point at an index in outside (O) that lies in aff(S) makes S no
    face.  normal is None unless S is a facet candidate; then it is the
    integer normal of aff(S), the one null vector of the RREF, with
    every point of O on its positive side, and S is a facet.  Points of O
    on both sides make S no face.  For a facet candidate the values of
    the normal on O replace the row space test.
    """
    pts = v._integers[0]
    s0 = pts[idx[0]]

    def diff(i):
        return [a - b for a, b in zip(pts[i], s0)]

    span, den, pivots = _int_rref(map(diff, idx[1:]))
    if not _is_facet_candidate(v, len(pivots)):
        if any(_in_row_space(diff(i), span, den, pivots) for i in outside):
            return None
        return len(pivots), None
    # aff(S) is the hyperplane normal . (x - s0) = 0, so the sign of that
    # value both tests a point for aff(S) (zero) and gives its side
    normal = _null_basis(span, den, pivots, v.dim)[0]
    sides = {(x > 0) - (x < 0) for x in (_dot(normal, diff(i))
                                         for i in outside)}
    if sides == {1}:
        return len(pivots), normal
    if sides == {-1}:
        return len(pivots), [-c for c in normal]
    return None


def _dependency_screen(v: VRep, idx: list[int], outside: list[int]
                       ) -> tuple[int, list[int] | None] | None:
    """_span_screen's answer from the affine dependencies of the points,
    cut to the columns in outside (O): the matrix A.

    An outside point w lies in aff(S) iff some dependency is nonzero at w
    and zero at the rest of O, that is iff the unit vector e_w is in the
    row space of A.  In RREF(A) that is a row with one nonzero entry, its
    pivot w; the same combination of the uncut dependencies is the
    witness.  Otherwise the k dependencies span k - rank(A) that vanish
    on O, which are those of S, so dim aff(S) = affine rank - |O| +
    rank(A).

    A facet candidate has rank(A) = |O| - 1.  Let g be an affine function
    whose zero set is the hyperplane aff(S).  For every dependency lam,
    sum lam_w g(w) over O is 0, since g vanishes on S, so the values of g
    on O are a multiple of A's one null vector; none of them is zero,
    since no point of O lies in aff(S).  Entries of both signs make S no
    face.  Otherwise S is a facet, and only then is the normal built, by
    the span screen on the points of S and the first point of O, which
    orients it.
    """
    cut = [[lam[w] for w in outside] for lam in v._dependencies]
    rref, den, pivots = _int_rref(cut)
    if any(sum(map(bool, row)) == 1 for row in rref):
        return None
    dimension = v._affine_rank - len(outside) + len(pivots)
    if not _is_facet_candidate(v, dimension):
        return dimension, None
    sides = _null_basis(rref, den, pivots, len(outside))[0]
    if min(sides) < 0 < max(sides):
        return None
    return _span_screen(v, idx, outside[:1])


# --- fixtures -------------------------------------------------------------

def regular_polytope(kind: str, d: int) -> VRep:
    """Standard simplex, unit cube, or cross polytope vertices in Q^d."""
    check_count(d, "regular_polytope", 1, "d")
    if kind == "simplex":
        pts = [(0,) * d]
        pts += [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    elif kind == "cube":
        pts = list(itertools.product((0, 1), repeat=d))
    elif kind == "cross":
        pts = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
        pts += [tuple(-1 if k == i else 0 for k in range(d)) for i in range(d)]
    else:
        raise ValueError("kind must be simplex, cube or cross")
    return VRep(d, pts)


# --- cdd-style text -------------------------------------------------------

def vrep_to_text(v: VRep) -> str:
    lines = ["V-representation", "begin",
             "%d %d rational" % (len(v.points), v.dim + 1)]
    for p in v.points:
        lines.append(" ".join(["1"] + [str(x) for x in p]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def hrep_to_text(h: HRep) -> str:
    """Rows are "b c1 .. cd" meaning b + c . x >= 0 (= 0 for linearity rows).

    Equalities come first so the linearity indices are a simple prefix.
    """
    lines = ["H-representation"]
    neq = len(h.equalities)
    if neq:
        lines.append("linearity %d %s"
                     % (neq, " ".join(str(i + 1) for i in range(neq))))
    lines.append("begin")
    lines.append("%d %d rational" % (neq + len(h.inequalities), h.dim + 1))
    for f in list(h.equalities) + list(h.inequalities):
        row = [str(-f.rhs)] + [str(c) for c in f.coeffs]
        lines.append(" ".join(row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_block(text: str, expected_header: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    if not lines or lines[0] != expected_header:
        raise ValueError("expected header %r" % (expected_header,))
    linearity: list[int] = []
    i = 1
    while i < len(lines) and lines[i] != "begin":
        toks = lines[i].split()
        if toks[0] == "linearity" and len(toks) >= 2:
            count = text_int(toks[1])
            linearity = [text_int(t) for t in toks[2:]]
            if len(linearity) != count:
                raise ValueError("linearity count mismatch")
        else:
            raise ValueError("unexpected line %s" % (_shown(lines[i], repr),))
        i += 1
    if i == len(lines):
        raise ValueError("missing begin")
    header = lines[i + 1].split() if i + 1 < len(lines) else []
    if len(header) < 2:
        raise ValueError("missing size line after begin")
    nrows, ncols = text_int(header[0]), text_int(header[1])
    if nrows < 0 or ncols < 2:
        raise ValueError("bad size %s x %s: a row needs its leading entry "
                         "and at least one coordinate"
                         % (_shown(nrows), _shown(ncols)))
    body = lines[i + 2:]
    if len(body) <= nrows:
        raise ValueError("block is cut short: %s rows and an end line "
                         "expected after the size line" % (_shown(nrows),))
    rows = []
    for k in range(nrows):
        toks = body[k].split()
        if len(toks) != ncols:
            raise ValueError("row %d has %d entries, want %s"
                             % (k + 1, len(toks), _shown(ncols)))
        try:
            rows.append([exact_number(t) for t in toks])
        except ZeroDivisionError:
            raise ValueError("row %d has a zero denominator" % (k + 1,))
    if body[nrows] != "end":
        raise ValueError("missing end")
    return rows, ncols - 1, linearity


def vrep_from_text(text: str) -> VRep:
    rows, dim, linearity = _parse_block(text, "V-representation")
    if linearity:
        raise ValueError("linearity not supported in V-representations here")
    pts = []
    for row in rows:
        if row[0] != 1:
            raise ValueError("only points (leading 1) are supported, got %s"
                             % (_shown(row[0], str),))
        pts.append(row[1:])
    return VRep(dim, pts)


def hrep_from_text(text: str) -> HRep:
    rows, dim, linearity = _parse_block(text, "H-representation")
    linset = set()
    for i in linearity:
        if not 1 <= i <= len(rows):
            raise ValueError("linearity index %s out of range"
                             % (_shown(i, repr),))
        if i in linset:
            raise ValueError("linearity index %d is listed twice" % (i,))
        linset.add(i)
    forms = list(enumerate((LinearForm(tuple(r[1:]), -r[0]) for r in rows), 1))
    return HRep(dim, tuple(f for i, f in forms if i not in linset),
                tuple(f for i, f in forms if i in linset))
