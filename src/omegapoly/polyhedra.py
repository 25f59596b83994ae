"""Exact rational polyhedral geometry.

Everything here is exact: values are fractions.Fraction, and the convex
hull (affine hull, double description and facet assembly), incidence,
rank, RREF and simplex kernels scale them to plain integers (RREF and
the simplex share one fraction-free pivot, with one common denominator
per matrix).  The simplex is one integer core, _int_lp, that also
checks its duals on integers; lp_solve and is_face both call it and
make Fractions only for what they return, as convex_hull_facets does.
There is no floating point anywhere, so ranks, facet lists, optima and
face verdicts are exact and reproducible bit for bit.

Contents: affine rank, vertex-to-facet conversion by double description,
a two-phase primal simplex with dual extraction, supporting-hyperplane
face tests, the three regular polytope families used as fixtures, a
small cdd-style text format for V- and H-representations, and the rules
for exact numbers read from JSON.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .guards import (DEFAULT_HULL_MAX_DIM, DEFAULT_HULL_MAX_POINTS,
                     ScaleGuardError)

Vector = tuple[Fraction, ...]


def _frac_vector(xs: Iterable) -> Vector:
    return tuple(Fraction(x) for x in xs)


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


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
    return LinearForm(_frac_vector(coeffs), Fraction(rhs))


class VRep:
    """A polytope as a duplicate-free ordered list of points.

    The exact kernels read the points as integers Q / D over one common
    D > 0, and is_face also needs their affine rank.  Both are computed
    on first use and kept, keyed on the identity of the points tuple, so
    they are computed once per VRep however many queries it answers,
    and rebinding points makes the next use compute them afresh.
    """

    def __init__(self, dim: int, points: Iterable[Sequence]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        pts = tuple(_frac_vector(p) for p in points)
        for p in pts:
            if len(p) != dim:
                raise ValueError("point %r does not have dimension %d" % (p, dim))
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in V-representation")
        self.dim = dim
        self.points = pts
        self._ints = None  # (points, Q, D) for the points it was built on
        self._rank = None  # affine rank of those points, once asked for

    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(Q, D) with points = Q / D, the rows of Q as int tuples."""
        if self._ints is None or self._ints[0] is not self.points:
            ints, den = _clear_matrix(self.points)
            self._ints = (self.points, tuple(map(tuple, ints)), den)
            self._rank = None
        return self._ints[1], self._ints[2]

    def _affine_rank(self) -> int:
        """Affine rank of the points (at least one), from the cached Q."""
        ints, _ = self._cleared()
        if self._rank is None:
            self._rank = _int_affine_rank(ints)
        return self._rank

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
        for kind, forms in (("inequality", self.inequalities),
                            ("equality", self.equalities)):
            for k, f in enumerate(forms):
                if len(f.coeffs) != self.dim:
                    raise ValueError("%s %d has %d coefficients, not %d"
                                     % (kind, k, len(f.coeffs), self.dim))

    def holds(self, point: Sequence) -> bool:
        return (all(f.slack(point) >= 0 for f in self.inequalities)
                and all(f.slack(point) == 0 for f in self.equalities))


# --- exact linear algebra -----------------------------------------------

def _int_pivot(tab: list[list[int]], den: int, r: int, c: int) -> int:
    """Fraction-free Gauss-Jordan pivot on entry (r, c) of tab / den, the
    one elimination step here (RREF and every simplex pivot); returns the
    new common denominator p = |tab[r][c]|.

    Row r is kept, negated if its pivot entry is negative, and every other
    row i becomes (row_i * p - row_i[c] * row_r) / den.  From an integer
    matrix with den = 1, den stays the absolute determinant of the pivot
    columns, which are den times unit vectors, and every division is exact
    (Bareiss; the integer pivoting of Avis's lrs).
    """
    if tab[r][c] < 0:
        tab[r] = [-x for x in tab[r]]
    prow = tab[r]
    p = prow[c]
    for i, row in enumerate(tab):
        f = row[c]
        if i != r and (f or p != den):
            tab[i] = [(a * p - f * b) // den for a, b in zip(row, prow)]
    return p


def _clear_matrix(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Integer rows M and D > 0 with rows = M / D, one D for all of them,
    for int or Fraction entries."""
    rows = list(rows)
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _int_rref(rows: Iterable[list[int]]
              ) -> tuple[list[list[int]], int, list[int]]:
    """RREF of an integer matrix as M / den; returns the nonzero rows of
    M, den and the pivot columns.  The given row lists are not changed."""
    mat = list(rows)
    den, pivots = 1, []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        den = _int_pivot(mat, den, r, c)
        pivots.append(c)
    return mat[:len(pivots)], den, pivots


def _int_affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of integer points, by integer RREF of
    their differences from the first."""
    base = points[0]
    return len(_int_rref([[x - b for x, b in zip(p, base)]
                          for p in points[1:]])[2])


def _in_row_space(w: Sequence[int], span: list[list[int]], den: int,
                  pivots: list[int]) -> bool:
    """Is the integer vector w in the row space of span / den, an RREF
    from _int_rref?  Only w = sum_k w[pivots[k]] span[k] / den can be."""
    return all(x * den == sum(w[c] * row[k] for c, row in zip(pivots, span))
               for k, x in enumerate(w))


def affine_rank(v: VRep) -> int:
    """Dimension of the affine hull of the points, computed on the points
    scaled to integers over one common denominator (cached on v)."""
    if not v.points:
        raise ValueError("affine rank of an empty point set")
    return v._affine_rank()


def _coprime(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def _int_form(ints: Sequence[int]) -> LinearForm:
    """The form [coeffs..., rhs] = ints, as Fractions."""
    return LinearForm(tuple(map(Fraction, ints[:-1])), Fraction(ints[-1]))


def _coprime_form(ints: Sequence[int]) -> LinearForm:
    """The form [coeffs..., rhs] = ints divided by the gcd of its entries."""
    return _int_form(_coprime(ints))


# --- double description --------------------------------------------------

def _byte_tables(masks: Sequence[int]) -> list[list[int | None]]:
    """Byte-chunk lookup tables over the positions of rays with the given
    tight masks: tables[k][v] is the bitset of the rays tight on every
    constraint of the byte value v at byte k, that is, on every set bit
    of v << 8k.

    Each ray is bucketed by each nonzero byte of its mask, and the eight
    single-bit entries of a byte are the ORs of its buckets.  Entry 0 is
    every ray; the other entries stay None until _table_entry fills them.
    """
    width = (max(masks, default=0).bit_length() + 7) // 8
    buckets: list[dict[int, int]] = [{} for _ in range(width)]
    for pos, mask in enumerate(masks):
        bit = 1 << pos
        for bucket in buckets:
            v = mask & 0xFF
            if v:
                bucket[v] = bucket.get(v, 0) | bit
            mask >>= 8
    everyone = (1 << len(masks)) - 1
    tables: list[list[int | None]] = []
    for bucket in buckets:
        table: list[int | None] = [None] * 256
        table[0] = everyone
        for b in range(8):
            table[1 << b] = 0
        for v, rays in bucket.items():
            for b in range(8):
                if v >> b & 1:
                    table[1 << b] |= rays
        tables.append(table)
    return tables


def _table_entry(table: list[int | None], v: int) -> int:
    """table[v] of _byte_tables, filled on demand from the entry of the
    low bit of v and the entry of the rest of v."""
    t = table[v]
    if t is None:
        low = v & -v
        t = table[v] = table[low] & _table_entry(table, v ^ low)
    return t


def _partners_by_count(mask: int, minus: list, need: int) -> list:
    """The entries (ray, tight mask, a . ray, position bit) of minus that
    are tight on at least need of the constraints in mask: one popcount
    per entry."""
    return [e for e in minus if (mask & e[1]).bit_count() >= need]


def _partners_by_planes(mask: int, tables: list[list[int | None]],
                        minus_bits: int, slack: int) -> int:
    """The rays of the bitset minus_bits that miss at most slack of the
    constraints in mask, as a bitset.

    Bit-sliced counting over the single-bit table entries: after each
    constraint c of mask, planes[j] holds the rays that have missed at
    least j + 1 of the constraints seen, and a ray misses c when it is
    not in the entry of c.  With slack = popcount(mask) - need, these are
    the rays _partners_by_count keeps, at popcount(mask) * (slack + 1)
    big-int steps however many rays minus_bits holds.
    """
    planes = [0] * (slack + 1)
    rest = mask
    while rest:
        low = rest & -rest
        c = low.bit_length() - 1
        miss = minus_bits & ~tables[c >> 3][1 << (c & 7)]
        for j in range(slack, 0, -1):
            planes[j] |= planes[j - 1] & miss
        planes[0] |= miss
        rest ^= low
    return minus_bits & ~planes[slack]


def _dd_extreme_rays(m: int, cons: list[tuple[int, ...]]
                     ) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of {y in Q^m : a . y >= 0 for every a in cons}, each
    with the bitmask of the constraints it is tight on (bit k for cons[k]).

    Incremental double description.  Starts from the full space as
    lineality, eliminates one lineality vector per independent constraint,
    then splits rays with the usual positive/zero/negative step, keeping
    only adjacent pairs (Fukuda-Prodon, "Double description method
    revisited", 1996).  The final cone must be pointed, which holds
    whenever the constraint normals span Q^m; the caller guarantees that.

    Each ray carries the bitmask of processed constraints it is tight on,
    and these masks are exact zero sets: lineality vectors stay orthogonal
    to every processed constraint, so eliminating one changes no earlier
    slack, and a ray made from a plus/minus pair is a positive combination
    of two rays with nonnegative slacks, so it is tight exactly where both
    are.  Two rays are adjacent iff their common zero set has rank
    cone_dim - 2, where cone_dim = m - len(lineality), which holds iff no
    third ray is tight on the whole common set.

    The adjacency test runs on bitsets over the positions of the rays,
    looked up in per-step byte-chunk tables (_byte_tables): the rays
    tight on the constraints of one byte of a mask are one table entry.
    A pair needs at least cone_dim - 2 common zeros; each plus ray finds
    the minus rays that pass this count by one popcount per minus ray
    (_partners_by_count) or, when its op-count estimate is lower, by
    bit-sliced counting over the single-bit entries (_partners_by_planes),
    the pattern-tree idea of Terzer and Stelling (2008) in flat form.  For
    a partner, the AND of the entries of the nonzero bytes of the common
    zeros is the set of rays tight on all of them, which always holds the
    pair itself, and the pair is adjacent iff it holds nothing else.  The
    AND stops as soon as only the pair is left.  Both routes keep the
    minus rays in order, so rays, masks and their order do not depend on
    the route.

    Rays and constraints are primitive integer vectors, so every dot
    product and combination stays in plain int arithmetic.
    """
    lineality: list[tuple[int, ...]] = [
        tuple(1 if k == i else 0 for k in range(m)) for i in range(m)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (vector, tight bitmask)

    for idx, a in enumerate(cons):
        bit = 1 << idx
        hit = next((k for k, v in enumerate(lineality) if _dot(a, v) != 0), None)
        if hit is not None:
            v = lineality.pop(hit)
            dv = _dot(a, v)
            if dv < 0:
                v = tuple(-x for x in v)
                dv = -dv
            new_lin = []
            for u in lineality:
                du = _dot(a, u)
                if du != 0:
                    u = _coprime([dv * ux - du * vx for ux, vx in zip(u, v)])
                new_lin.append(u)
            lineality = new_lin
            new_rays = []
            for r, mask in rays:
                dr = _dot(a, r)
                if dr != 0:
                    r = _coprime([dv * rx - dr * vx for rx, vx in zip(r, v)])
                new_rays.append((r, mask | bit))
            # v itself was orthogonal to every earlier constraint, so it
            # is tight on all of them and strictly feasible on this one
            new_rays.append((v, bit - 1))
            rays = new_rays
            continue

        plus: list[tuple[tuple[int, ...], int, int, int]] = []
        zero: list[tuple[tuple[int, ...], int]] = []
        minus: list[tuple[tuple[int, ...], int, int, int]] = []
        for pos, (r, mask) in enumerate(rays):
            t = _dot(a, r)
            if t > 0:
                plus.append((r, mask, t, 1 << pos))
            elif t < 0:
                minus.append((r, mask, t, 1 << pos))
            else:
                zero.append((r, mask | bit))
        survivors = [(r, mask) for (r, mask, _, _) in plus] + zero
        if not (plus and minus):
            rays = survivors
            continue
        tables = _byte_tables([mask for _, mask in rays])
        need = m - len(lineality) - 2
        everyone = (1 << len(rays)) - 1
        minus_at = {e[3]: e for e in minus}
        minus_bits = sum(minus_at)
        for rp, mp, tp, bp in plus:
            zeros = mp.bit_count()
            slack = zeros - need
            if slack < 0:
                continue
            if zeros * (slack + 1) * 3 < len(minus):
                hits = _partners_by_planes(mp, tables, minus_bits, slack)
                partners = []
                while hits:
                    low = hits & -hits
                    partners.append(minus_at[low])
                    hits ^= low
            else:
                partners = _partners_by_count(mp, minus, need)
            for rn, mn, tn, bn in partners:
                common = mp & mn
                pair = bp | bn
                tight = everyone
                rest = common
                k = 0
                while rest and tight != pair:
                    v = rest & 0xFF
                    if v:
                        table = tables[k]
                        t = table[v]
                        tight &= _table_entry(table, v) if t is None else t
                    rest >>= 8
                    k += 1
                if tight != pair:
                    continue
                w = _coprime([tp * nx - tn * px for px, nx in zip(rp, rn)])
                survivors.append((w, common | bit))
        rays = survivors

    if lineality:
        raise ValueError("cone is not pointed; constraints do not span")
    return rays


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
    the returned forms.
    """
    if v.dim > max_dim:
        raise ScaleGuardError(
            "hull-dim", max_dim, v.dim,
            "hull in dimension %d exceeds bound %d" % (v.dim, max_dim))
    if len(v.points) > max_points:
        raise ScaleGuardError(
            "hull-points", max_points, len(v.points),
            "hull of %d points exceeds bound %d" % (len(v.points), max_points))
    return _hull_with_masks(v)[0]


def _hull_with_masks(v: VRep) -> tuple[HRep, list[int]]:
    """convex_hull_facets without its size guards, plus the bitmask of
    the points each of its inequalities is tight on (bit k for point k).

    Constraint k of the double description is point k, so the tight
    bitmask the DD keeps with each ray is the facet's incidence over the
    points, exactly what tight_masks computes from the forms.
    """
    if not v.points:
        raise ValueError("convex hull of an empty point set")

    d = v.dim
    pts, D = v._cleared()
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts]
    rref, den, pivots = _int_rref(diffs[1:])

    # the RREF is M / den, so the null vector with 1 at free column fc
    # is den there and -M[row][fc] at the pivots, over den
    equalities = []
    for fc in sorted(set(range(d)) - set(pivots)):
        coeffs = [0] * d
        coeffs[fc] = den
        for row, pc in zip(rref, pivots):
            coeffs[pc] = -row[fc]
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
    return hrep, [mask for _, mask in facets]


def tight_masks(forms: Iterable[LinearForm], v: VRep) -> list[int]:
    """For each form, the bitmask of the points of v it is tight on.

    Bit k is set iff coeffs . points[k] == rhs.  The points are read as
    v's cached integers P / D over one common D and each form is scaled
    to integers (c, rhs), so the test c . P == rhs * D is exact and runs
    on plain ints.
    """
    points, D = v._cleared()
    masks = []
    for f in forms:
        if len(f.coeffs) != v.dim:
            raise ValueError("form has dimension %d, points have %d"
                             % (len(f.coeffs), v.dim))
        (ints,), _ = _clear_matrix([(*f.coeffs, f.rhs)])
        coeffs, rhs = ints[:-1], ints[-1]
        mask = 0
        for k, p in enumerate(points):
            if _dot(coeffs, p) == rhs * D:
                mask |= 1 << k
        masks.append(mask)
    return masks


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


def _price_out(tab, den, basis, cost):
    """Reset the objective row (the tableau's last row) to den * (z - c).
    Basic columns are den times unit vectors, so each division is exact."""
    obj = [-x * den for x in cost] + [0] * (len(tab[-1]) - len(cost))
    for i, bv in enumerate(basis):
        f = obj[bv] // den
        if f:
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab[-1] = obj


def _negate_column(tab, orient, k):
    """Store the other orientation of free variable k: x-_k for x+_k or
    back.  Its column is nonbasic, so the tableau stays a basis form."""
    for row in tab:
        row[k] = -row[k]
    orient[k] = -orient[k]


def _simplex_iterate(tab, den, basis, orient, allowed):
    """Run primal simplex to optimality on the integer tableau tab / den.

    Columns 0..d-1, d = len(orient), belong to the free variables x =
    x+ - x-, one column each: column k holds x+_k where orient[k] is 1
    and x-_k = -x+_k where it is -1, and these columns may always enter.
    Of the other columns only those in allowed may.  Bland's rule runs on
    the labels of the split tableau, with both halves of every free
    variable: x+_k is label k, x-_k label d + k and column c >= d label
    c + d.  A free variable enters in the orientation whose reduced cost
    is negative, its column negated first if it holds the other one; a
    basic column is never negated, so orient names each basic label.
    Every pivot is the one the split tableau takes, on the same column.

    Returns (den, pivots made, False if unbounded).  Entering and leaving
    follow Bland's rule (smallest improving label, ratio ties broken by
    smallest basic label), which cannot cycle.  Ratios rhs / coef with
    coef > 0 are compared by cross-multiplying.  The basis and orient
    name the split basis, so a (basis, orient) state seen before can
    only come from a faulty tableau, and it raises RuntimeError instead
    of looping forever.
    """
    d = len(orient)

    def label(c):
        return c if c < d and orient[c] > 0 else c + d

    pivots = 0
    seen = set()
    while True:
        state = (tuple(basis), tuple(orient))
        if state in seen:
            raise RuntimeError("simplex revisited a basis, which Bland's "
                               "rule rules out; the tableau is faulty")
        seen.add(state)
        obj = tab[-1]
        # x+_k improves where orient[k] * obj[k] < 0; when no x+ label
        # does, x-_k improves wherever obj[k] != 0
        enter = next((k for k in range(d) if orient[k] * obj[k] < 0), None)
        if enter is None:
            enter = next((k for k in range(d) if obj[k]), None)
        if enter is None:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return den, pivots, True
        elif obj[enter] > 0:
            _negate_column(tab, orient, enter)
        leave = None
        for i, bv in enumerate(basis):
            coef = tab[i][enter]
            if coef <= 0:
                continue
            if leave is not None:
                cmp = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * coef
                if cmp > 0 or (cmp == 0 and label(bv) > label(basis[leave])):
                    continue
            leave = i
        if leave is None:
            return den, pivots, False
        den = _int_pivot(tab, den, leave, enter)
        basis[leave] = enter
        pivots += 1


def _int_lp(cost: list[int], rows: list[list[int]], n_ineq: int):
    """Maximize cost . x over free x in Q^d, all in integers.

    rows are [coeffs..., rhs] with d coefficients: the first n_ineq mean
    coeffs . x >= rhs, the rest coeffs . x = rhs.  Two-phase simplex with
    Bland's rule on the integer tableau tab / den (_int_pivot), with one
    column per free variable (see _simplex_iterate).

    The start basis holds x = 0 wherever it can.  An inequality with
    rhs <= 0 holds there; it is written negated, so that its surplus
    entry is +1, and its surplus column starts basic.  Only equalities
    and inequalities with rhs > 0 start on an artificial, and phase 1
    prices those artificials alone (Chvatal, Linear Programming, ch. 8).
    When they all start at 0, as on the rhs-0 equalities of is_face,
    phase 1 makes no simplex pivot and only drives them out.  Each row's
    start column carries its multiplier: a row that starts on its
    surplus gets no artificial, whose column would equal that surplus
    column (+e_i at the start, cost 0 in phase 2) in every tableau.

    Scaling all rows by one positive factor, or the cost by one, leaves
    Bland's pivots and the argument unchanged (the multipliers scale with
    the cost and inversely with the rows), so callers clear denominators
    that way.  Such a scaling keeps each rhs's sign, so the same rows
    start on their surplus columns, and each surplus entry is +1 or -1
    whatever the row's scale: a positive column scaling, which leaves
    Bland's choices unchanged as well.

    Returns (status, (phase 1 pivots, phase 2 pivots), den, x, y).  For
    an optimal solve x / den is the argument and y / den the multipliers
    of the rows (see LpResult); the three dual identities are checked on
    these numerators before returning.  Otherwise den, x and y are None.
    """
    d, m = len(cost), len(rows)
    nreal = d + n_ineq  # x | surplus

    # each row starts basic on its surplus column if x = 0 satisfies it,
    # else on an artificial column of its own
    start, nart = [], 0
    for i, row in enumerate(rows):
        if i < n_ineq and row[-1] <= 0:
            start.append(d + i)
        else:
            start.append(nreal + nart)
            nart += 1

    # rows are x | surplus | artificial | rhs, flipped to rhs >= 0 (and
    # a surplus start too, so that its surplus entry is +1); the last row
    # is the objective row den * (z - c)
    tab: list[list[int]] = []
    signs: list[int] = []
    for i, (*coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 or start[i] < nreal else 1
        row = ([sign * x for x in coeffs] + [0] * (n_ineq + nart)
               + [sign * rhs])
        if i < n_ineq:
            row[d + i] = -sign
        row[start[i]] = 1
        signs.append(sign)
        tab.append(row)
    tab.append([0] * (nreal + nart + 1))
    basis = list(start)
    orient = [1] * d

    # phase 1: maximize minus the sum of the artificials, which all start
    # basic.  At z = 0 the start is already feasible and optimal
    _price_out(tab, 1, basis, [0] * nreal + [-1] * nart)
    den, phase1 = 1, 0
    if tab[-1][-1] != 0:
        den, phase1, bounded = _simplex_iterate(
            tab, 1, basis, orient, range(d, nreal + nart))
        if not bounded:
            raise RuntimeError("phase 1 came out unbounded, which its "
                               "construction rules out")
        if tab[-1][-1] != 0:  # z = -(sum of artificials) at optimum
            return "infeasible", (phase1, 0), None, None, None

    # drive leftover artificials out of the basis, each on its row's
    # first nonzero label, which is x+_k before any x-; a row with no real
    # entry left is redundant and keeps its artificial basic at zero
    for i in range(m):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tab[i][j] != 0), None)
            if col is not None:
                if col < d and orient[col] < 0:
                    _negate_column(tab, orient, col)
                den = _int_pivot(tab, den, i, col)
                basis[i] = col
                phase1 += 1

    # phase 2
    _price_out(tab, den, basis, [o * c for o, c in zip(orient, cost)])
    den, phase2, bounded = _simplex_iterate(tab, den, basis, orient,
                                            range(d, nreal))
    if not bounded:
        return "unbounded", (phase1, phase2), None, None, None

    values = dict(zip(basis, (row[-1] for row in tab)))
    x = [orient[k] * values.get(k, 0) for k in range(d)]
    # the objective row's start columns hold den * c_B B^-1; with the
    # sign flips undone, y / den is the multiplier of each row
    y = [signs[i] * tab[-1][c] for i, c in enumerate(start)]

    for k in range(d):
        if sum(y[i] * rows[i][k] for i in range(m)) != cost[k] * den:
            raise RuntimeError("dual stationarity failed")
    if sum(y[i] * rows[i][-1] for i in range(m)) != _dot(cost, x):
        raise RuntimeError("strong duality failed")
    if any(y[i] > 0 for i in range(n_ineq)):
        raise RuntimeError("dual sign failed")
    return "optimal", (phase1, phase2), den, x, y


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
    "not_face" carries no form: it rests either on a point outside the
    subset that lies in the subset's affine hull or on the exact optimum
    of the face LP being 0, and no witness of either is returned yet.
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
    outside the subset that lies in the subset's affine hull makes it
    "not_face" at once: no hyperplane through the subset leaves that point
    strictly on one side.  This screen tests each outside difference
    against one integer RREF of the subset's differences, whose rank is
    also the face dimension.  Only a subset that passes it gets the LP.

    The LP looks for a hyperplane f . x = f . s0 through the subset (s0
    its first point) with every other point strictly on the positive
    side, maximizing the smallest slack t (capped at 1, which scaling
    makes harmless).  A positive optimum certifies a face.  Optimum zero
    means there is none, and the verdict is "not_face".  The diagonal
    rectangle {0000, 0011, 1100, 1111} of the 4-cube passes the screen
    and is refused this way: its hull meets that of {0101, 1010} at the
    centre.

    The points are read as the integers Q / D over one common D that v
    clears once and keeps, with its affine rank (for the facet and
    whole_polytope verdicts), so a query pays for neither.  The LP rows
    come straight from integer differences: (Q_i - Q_s0) . f - D t >= 0
    for each point outside, -D t >= -D for the cap and (Q_i - Q_s0) . f
    = 0 for each other point of the subset.  That is the Fraction LP
    scaled by D, so _int_lp takes the pivots it would.  Fractions are
    built only for the returned form, and the ranks are integer RREFs.
    """
    idx = sorted(set(subset))
    npts = len(v.points)
    for i in idx:
        if not 0 <= i < npts:
            raise ValueError("point index %d out of range" % (i,))
    if not idx:
        return FaceVerdict(kind="empty", dimension=-1)
    if len(idx) == npts:
        return FaceVerdict(kind="whole_polytope", dimension=affine_rank(v))

    d = v.dim
    pts, D = v._cleared()
    s0 = pts[idx[0]]
    diffs = [[a - b for a, b in zip(p, s0)] for p in pts]
    inside = set(idx)
    span, span_den, pivots = _int_rref(diffs[i] for i in idx[1:])
    if any(_in_row_space(diffs[i], span, span_den, pivots)
           for i in range(npts) if i not in inside):
        return FaceVerdict("not_face")
    rows = [diffs[i] + [-D, 0] for i in range(npts) if i not in inside]
    rows.append([0] * d + [-D, -D])
    n_ineq = len(rows)
    rows += [diffs[i] + [0, 0] for i in idx[1:]]
    status, _, _, x, _ = _int_lp([0] * d + [1], rows, n_ineq)
    if status != "optimal":
        raise RuntimeError("face LP came out %s; it is feasible and bounded "
                           "by construction" % (status,))

    f = x[:d]  # the separator is f / den, its rhs f . s0 / (den D)
    if x[d] > 0:
        kind = ("facet" if len(pivots) == v._affine_rank() - 1
                else "proper_face")
        form = _coprime_form([c * D for c in f] + [_dot(f, s0)])
        return FaceVerdict(kind, form, len(pivots))
    return FaceVerdict("not_face")


# --- fixtures -------------------------------------------------------------

def regular_polytope(kind: str, d: int) -> VRep:
    """Standard simplex, unit cube, or cross polytope vertices in Q^d."""
    if d < 1:
        raise ValueError("dimension must be positive")
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
            count = int(toks[1])
            linearity = [int(t) for t in toks[2:]]
            if len(linearity) != count:
                raise ValueError("linearity count mismatch")
        else:
            raise ValueError("unexpected line %r" % (lines[i],))
        i += 1
    if i == len(lines):
        raise ValueError("missing begin")
    header = lines[i + 1].split() if i + 1 < len(lines) else []
    if len(header) < 2:
        raise ValueError("missing size line after begin")
    nrows, ncols = int(header[0]), int(header[1])
    if nrows < 0 or ncols < 2:
        raise ValueError("bad size %d x %d: a row needs its leading entry "
                         "and at least one coordinate" % (nrows, ncols))
    body = lines[i + 2:]
    if len(body) <= nrows:
        raise ValueError("block is cut short: %d rows and an end line "
                         "expected after the size line" % (nrows,))
    rows = []
    for k in range(nrows):
        toks = body[k].split()
        if len(toks) != ncols:
            raise ValueError("row %d has %d entries, want %d"
                             % (k + 1, len(toks), ncols))
        try:
            rows.append([Fraction(t) for t in toks])
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
                             % (row[0],))
        pts.append(row[1:])
    return VRep(dim, pts)


def hrep_from_text(text: str) -> HRep:
    rows, dim, linearity = _parse_block(text, "H-representation")
    linset = set(linearity)
    for i in linset:
        if not 1 <= i <= len(rows):
            raise ValueError("linearity index %d out of range" % (i,))
    ineqs = []
    eqs = []
    for i, row in enumerate(rows, start=1):
        form = LinearForm(tuple(row[1:]), -row[0])
        if i in linset:
            eqs.append(form)
        else:
            ineqs.append(form)
    return HRep(dim, tuple(ineqs), tuple(eqs))


# --- exact JSON input -----------------------------------------------------

def json_fields(obj, *keys):
    """The values of keys in a JSON object; ValueError names a missing one."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError('JSON input lacks "%s"' % (key,))
    return [obj[key] for key in keys]


def json_positive_int(obj, key: str) -> int:
    (x,) = json_fields(obj, key)
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ValueError('"%s" must be a positive integer' % (key,))
    return x


def json_int(x, what: str) -> int:
    """An int from JSON; floats and bools are refused, not truncated."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("%s holds %s, not an integer" % (what, json.dumps(x)))


def json_number(x, what: str) -> Fraction:
    """An exact number from JSON: an int or a fraction string like "-3/4".

    Floats and bools are refused, since neither is exact input here.
    """
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s holds %s, not an int or a fraction string"
                     % (what, json.dumps(x)))
