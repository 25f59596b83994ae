import copy
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omegapoly import (dd, exact, omega3_census, omega_core, polyhedra as ph,
                       simplex)
from omegapoly.guards import ScaleGuardError
from oracles import face_lp, tight_masks


def frac(a, b=1):
    return Fraction(a, b)


# --- ranks -----------------------------------------------------------------

def test_affine_rank_basics():
    v = ph.VRep(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert ph.affine_rank(v) == 2
    assert ph.affine_rank(ph.VRep(3, [(5, 6, 7)])) == 0
    assert ph.affine_rank(ph.VRep(2, [(0, 0), (2, 2), (1, 1)])) == 1


def test_empty_point_set_is_refused():
    # no points has no affine hull; both say so in one line
    empty = ph.VRep(2, [])
    with pytest.raises(ValueError, match="empty point set"):
        ph.affine_rank(empty)
    with pytest.raises(ValueError, match="empty point set"):
        ph.convex_hull_facets(empty)


def _rank(rows):
    """Rank of a rational matrix: the pivot count of the integer RREF of
    its rows scaled by one common denominator."""
    return len(ph._int_rref(ph._clear_matrix(rows)[0])[2])


def test_matrix_rank():
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    assert _rank([]) == 0
    assert _rank([[frac(1, 2), frac(1, 3)], [frac(3, 2), 1]]) == 1
    assert _rank([[frac(1, 2), frac(1, 3)], [frac(3, 2), 2]]) == 2


def test_vrep_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError):
        ph.VRep(2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        ph.VRep(2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        ph.VRep(0, [])


def test_a_long_point_of_the_wrong_dimension_is_cut_short():
    with pytest.raises(ValueError, match="does not have dimension 1") as info:
        ph.VRep(1, [range(100000)])
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("x", [-65, -64, 0, 64, 65, True, 10 ** 5000,
                               Fraction(3, 2), Fraction(4, 2)],
                         ids=["-65", "-64", "0", "64", "65", "True",
                              "5001-digits", "3/2", "4/2"])
def test_forms_take_small_ints_from_one_shared_table(x):
    # an int in -64..64 gets the one shared Fraction of its value, and
    # every other int or Fraction, inside the table's range or not, gets
    # a Fraction equal to Fraction(x); a bool is refused
    if type(x) is bool:
        for call in (ph._frac_vector, ph._int_form):
            with pytest.raises(ValueError) as info:
                call([x, x])
            assert str(info.value) == "entry True is not an int or a Fraction"
        return
    for got in (*ph._frac_vector([x, x]), *ph._int_form([x, x]).coeffs,
                ph._int_form([x, x]).rhs):
        assert got == Fraction(x) and type(got) is Fraction
    shared = type(x) is int and -64 <= x <= 64
    assert (ph._frac_vector([x])[0] is ph._int_form([0, x]).rhs) == shared


@pytest.mark.parametrize("build, shown", [
    (lambda: ph.VRep(1, [(0,), (0.1,)]), "0.1"),
    (lambda: ph.VRep(1, [(0,), (True,)]), "True"),
    (lambda: ph.VRep(2, [(0, "1")]), "'1'"),
    (lambda: ph.linear_form([0.1], 0), "0.1"),
    (lambda: ph.linear_form([1], 0.5), "0.5"),
    (lambda: ph.linear_form([False, 1], 0), "False"),
    (lambda: ph.linear_form([1], "1/2"), "'1/2'"),
], ids=["vrep-float", "vrep-bool", "vrep-str", "form-float", "rhs-float",
        "form-bool", "rhs-str"])
def test_points_and_forms_refuse_inexact_entries(build, shown):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 0.1, and
    # True was stored as 1, so an inexact entry is refused, not converted
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == "entry %s is not an int or a Fraction" % shown


# --- hull fixtures -----------------------------------------------------------

FIXTURE_COUNTS = {"simplex": lambda d: d + 1,
                  "cube": lambda d: 2 * d,
                  "cross": lambda d: 2 ** d}


@pytest.mark.parametrize("kind", sorted(FIXTURE_COUNTS))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_hull_counts_regular_polytopes(kind, d):
    v = ph.regular_polytope(kind, d)
    h = ph.convex_hull_facets(v)
    assert len(h.inequalities) == FIXTURE_COUNTS[kind](d)
    assert h.equalities == ()
    for p in v.points:
        assert h.holds(p)


@pytest.mark.parametrize("kind", sorted(FIXTURE_COUNTS))
def test_hull_facets_are_tight_on_enough_points(kind):
    d = 4
    v = ph.regular_polytope(kind, d)
    h = ph.convex_hull_facets(v)
    whole = ph.affine_rank(v)
    for form in h.inequalities:
        tight = [p for p in v.points if form.slack(p) == 0]
        assert ph.affine_rank(ph.VRep(d, tight)) == whole - 1


@pytest.mark.parametrize("kind", sorted(FIXTURE_COUNTS))
def test_hull_excludes_pushed_out_points(kind):
    d = 3
    v = ph.regular_polytope(kind, d)
    h = ph.convex_hull_facets(v)
    m = len(v.points)
    centroid = [sum(p[k] for p in v.points) / m for k in range(d)]
    for p in v.points:
        outside = tuple(2 * p[k] - centroid[k] for k in range(d))
        assert not h.holds(outside)


def test_hull_is_input_order_invariant():
    rng = random.Random(7)
    v = ph.regular_polytope("cross", 4)
    h1 = ph.convex_hull_facets(v)
    pts = list(v.points)
    for _ in range(5):
        rng.shuffle(pts)
        h2 = ph.convex_hull_facets(ph.VRep(4, pts))
        assert h2.inequalities == h1.inequalities
        assert h2.equalities == h1.equalities


def test_hull_ignores_interior_points():
    v = ph.regular_polytope("cube", 3)
    h1 = ph.convex_hull_facets(v)
    pts = list(v.points) + [(frac(1, 2), frac(1, 2), frac(1, 2)),
                            (frac(1, 3), frac(2, 3), frac(1, 2))]
    h2 = ph.convex_hull_facets(ph.VRep(3, pts))
    assert h1 == h2


def test_hull_with_affine_hull_equalities():
    # unit square embedded in the z = 1 plane
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    h = ph.convex_hull_facets(ph.VRep(3, pts))
    assert len(h.equalities) == 1
    eq = h.equalities[0]
    assert eq.coeffs == (0, 0, 1) and eq.rhs == 1
    assert len(h.inequalities) == 4
    # equality normalization: first nonzero coefficient positive, coprime
    pts2 = [(0, 0, -1), (1, 0, -1), (0, 1, -1)]
    h2 = ph.convex_hull_facets(ph.VRep(3, pts2))
    assert h2.equalities[0].coeffs == (0, 0, 1)
    assert h2.equalities[0].rhs == -1


def test_hull_of_single_point_and_segment():
    h = ph.convex_hull_facets(ph.VRep(2, [(3, 4)]))
    assert h.inequalities == ()
    assert len(h.equalities) == 2
    assert h.holds((3, 4))
    assert not h.holds((3, 5))

    h = ph.convex_hull_facets(ph.VRep(2, [(0, 0), (2, 2)]))
    assert len(h.equalities) == 1
    assert len(h.inequalities) == 2
    assert h.holds((1, 1))
    assert not h.holds((3, 3))
    assert not h.holds((1, 0))


def test_hull_inequalities_are_canonical_integers():
    pts = [(0, 0), (frac(1, 2), 0), (0, frac(1, 3))]
    h = ph.convex_hull_facets(ph.VRep(2, pts))
    for form in h.inequalities:
        assert all(c.denominator == 1 for c in form.coeffs)
        assert form.rhs.denominator == 1
        from math import gcd
        g = 0
        for c in list(form.coeffs) + [form.rhs]:
            g = gcd(g, int(c))
        assert g == 1
    keys = [(f.coeffs, f.rhs) for f in h.inequalities]
    assert keys == sorted(keys)


def _fraction_rref(rows, ncols):
    """Reduced row echelon form by plain Fraction Gauss-Jordan, kept here
    as a reference independent of the library's integer kernel; returns
    the nonzero rows and the pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _null_space(rows, ncols):
    """Basis of {x : row . x = 0 for every row}, by its own elimination."""
    mat, pivots = _fraction_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            x = [Fraction(0)] * ncols
            x[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                x[pc] = -mat[r][fc]
            basis.append(x)
    return basis


_RATIONAL = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _rational_matrices(draw):
    """0 to 6 rows of 1 to 6 rational columns, with zero rows and rows that
    are rational combinations of earlier ones mixed in."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _RATIONAL)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            mults = draw(st.lists(_RATIONAL, min_size=len(rows),
                                  max_size=len(rows)))
            rows.append([sum(m * row[k] for m, row in zip(mults, rows))
                         for k in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
    return ncols, rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rational_matrices())
def test_rref_matches_fraction_gauss_jordan(case):
    # the integer kernel's M / den is the Fraction RREF, with the same
    # pivots, and the row lists it is given are left as they were
    ncols, rows = case
    expected_rows, expected_pivots = _fraction_rref(rows, ncols)
    ints = ph._clear_matrix(rows)[0]
    before = [list(row) for row in ints]
    mat, den, pivots = ph._int_rref(ints)
    assert ints == before
    assert pivots == expected_pivots
    assert [[Fraction(x, den) for x in row] for row in mat] == expected_rows


def _bareiss_pivot(tab, den, r, c):
    """The plain Bareiss step on entry (r, c) of tab / den, the reference
    for _int_pivot: row r negated if its entry is negative, every entry
    of every other row (a * p - f * b) / den, each division checked."""
    prow = [-x for x in tab[r]] if tab[r][c] < 0 else list(tab[r])
    p = prow[c]
    out = []
    for i, row in enumerate(tab):
        if i == r:
            out.append(prow)
            continue
        quotients = [divmod(a * p - row[c] * b, den)
                     for a, b in zip(row, prow)]
        assert all(rem == 0 for _, rem in quotients)
        out.append([q for q, _ in quotients])
    return out, p


def test_int_pivot_matches_the_plain_bareiss_update():
    # seeded runs of pivots on sparse random tableaux [A | I], each pivot
    # on a nonzero entry anywhere, as the simplex takes them: after every
    # pivot the kernel's tab and den equal the plain Bareiss formula's.
    # The runs reach every case of the sparse route and the general one
    rng = random.Random(28)
    seen = Counter()
    for _ in range(200):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
        tab = [[rng.choice((0, 0, 0, 1, 1, -1, 2, -3)) for _ in range(ncols)]
               + [int(k == i) for k in range(nrows)] for i in range(nrows)]
        den = 1
        for _ in range(6):
            r, c = rng.choice([(i, j) for i, row in enumerate(tab)
                               for j, x in enumerate(row) if x])
            p = abs(tab[r][c])
            seen["p == den == 1" if p == den == 1
                 else "p == den > 1" if p == den else "p != den"] += 1
            seen["negative pivot"] += tab[r][c] < 0
            seen["zero in pivot column"] += any(
                row[c] == 0 for i, row in enumerate(tab) if i != r)
            expected = _bareiss_pivot(tab, den, r, c)
            den = exact._int_pivot(tab, den, r, c)
            assert (tab, den) == expected
    assert len(seen) == 5 and min(seen.values()) >= 20, seen


def _brute_force_facets(points):
    """Tight sets of the facets of conv(points): try the hyperplane through
    every k-subset, k the affine dimension, and keep the one-sided ones
    whose tight set has affine dimension k - 1."""
    d = len(points[0])
    k = ph.affine_rank(ph.VRep(d, points))
    if k == 0:
        return set()
    facets = set()
    for sub in itertools.combinations(range(len(points)), k):
        rows = [list(points[i]) + [-1] for i in sub]
        for form in _null_space(rows, d + 1):
            vals = [sum(c * x for c, x in zip(form, p)) - form[-1]
                    for p in points]
            if all(v == 0 for v in vals):
                continue  # an equality of the affine hull
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                tight = [i for i, v in enumerate(vals) if v == 0]
                if ph.affine_rank(ph.VRep(d, [points[i] for i in tight])) == k - 1:
                    facets.add(frozenset(tight))
            break  # the forms through sub agree up to scale off the hull
    return facets


@st.composite
def _affine_point_sets(draw, rational=False):
    """1 to 9 distinct integer points in Q^d, d = 2..4, drawn from an affine
    subspace of dimension r <= d, so that many sets are flat.  With
    rational=True every coordinate is then scaled and shifted by its own
    rational, so the points (and the base point of a flat set) need not
    be integers."""
    d = draw(st.integers(2, 4))
    r = draw(st.integers(1, d))
    coord = st.integers(-2, 2)
    base = draw(st.lists(coord, min_size=d, max_size=d))
    dirs = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=r, max_size=r))
    mults = draw(st.lists(st.lists(coord, min_size=r, max_size=r),
                          min_size=1, max_size=8))
    if len(mults) >= 2 and draw(st.booleans()):
        # a third point on the line of the first two, beyond the second:
        # double description then splits rays while lineality is left
        mults.insert(2, [2 * b - a for a, b in zip(mults[0], mults[1])])
    points = [tuple(base[j] + sum(m[t] * dirs[t][j] for t in range(r))
                    for j in range(d)) for m in mults]
    if rational:
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        scale = draw(st.lists(st.builds(Fraction, nonzero, st.integers(1, 4)),
                              min_size=d, max_size=d))
        shift = draw(st.lists(_RATIONAL, min_size=d, max_size=d))
        points = [tuple(s * x + t for x, s, t in zip(p, scale, shift))
                  for p in points]
    return d, list(dict.fromkeys(points))


def _check_hull_against_brute_force(d, points):
    v = ph.VRep(d, points)
    h = ph.convex_hull_facets(v)
    k = ph.affine_rank(v)
    assert len(h.equalities) == d - k
    for p in v.points:
        assert h.holds(p)
    tight_sets = [frozenset(i for i, p in enumerate(v.points)
                            if f.slack(p) == 0) for f in h.inequalities]
    assert len(set(tight_sets)) == len(tight_sets)
    assert set(tight_sets) == _brute_force_facets(v.points)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_affine_point_sets())
def test_hull_matches_brute_force_facets(case):
    _check_hull_against_brute_force(*case)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_affine_point_sets(rational=True))
def test_hull_matches_brute_force_facets_on_rational_points(case):
    # the points are P / D with D > 1 in general, so the hull is built
    # from cleared integer points and must still land on the same facets
    _check_hull_against_brute_force(*case)


def _hull_pin_inputs():
    """Seeded rational point sets in dimensions 2-5, many of them flat,
    with every coordinate scaled by a rational and shifted by a
    non-integer one, so that flat sets too have non-integer points;
    then the ridge hulls of the n = 5 census, one per orbit
    representative: the hull of the vertices tight on that facet."""
    rng = random.Random(20261020)
    for _ in range(150):
        d = rng.randint(2, 5)
        r = d if rng.random() < 0.67 else rng.randint(1, d - 1)
        dirs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
        scale = [Fraction(rng.choice((-5, -1, 3, 7)), rng.choice((2, 3, 4)))
                 for _ in range(d)]
        shift = [Fraction(rng.choice((-7, -1, 1, 5)), rng.choice((2, 3, 6)))
                 for _ in range(d)]
        points = {}
        for _ in range(rng.randint(1, 12)):
            m = [rng.randint(-2, 2) for _ in range(r)]
            p = tuple(s * sum(m[t] * dirs[t][j] for t in range(r)) + off
                      for j, (s, off) in enumerate(zip(scale, shift)))
            points[p] = None
        yield ph.VRep(d, list(points))
    vrep = omega_core.reduced_vertex_vrep(5)
    report = omega3_census.facet_census(5, allow_large=True)
    masks = tight_masks([rec.form for rec in report.facets], vrep)
    for orbit in report.orbits:
        mask = masks[orbit.representative]
        yield ph.VRep(vrep.dim, [p for k, p in enumerate(vrep.points)
                                 if mask >> k & 1])


# sha256 over hrep_to_text of the hulls of _hull_pin_inputs, taken from
# the hull built on Fraction affine hulls and forms
HULL_PIN_DIGEST = ("ea9f2ec755ca40f7e4fde6c4b90fed09"
                   "2198163e1a9598d4287fab35af7838ac")


def test_hull_outputs_are_pinned():
    h = hashlib.sha256()
    flat = 0
    for v in _hull_pin_inputs():
        hrep = ph.convex_hull_facets(v)
        flat += bool(hrep.equalities)
        h.update(ph.hrep_to_text(hrep).encode("ascii"))
    assert flat > 40
    assert h.hexdigest() == HULL_PIN_DIGEST


def test_tight_masks_match_slack_on_rational_input():
    pts = [(0, 0), (frac(1, 2), 0), (0, frac(1, 3)), (frac(1, 4), frac(1, 6))]
    v = ph.VRep(2, pts)
    forms = list(ph.convex_hull_facets(v).inequalities)
    forms.append(ph.linear_form((frac(2, 3), 1), frac(1, 3)))
    masks = tight_masks(forms, v)
    for form, mask in zip(forms, masks):
        assert mask == sum(1 << k for k, p in enumerate(v.points)
                           if form.slack(p) == 0)
    # the hypotenuse holds the two far corners and the midpoint
    assert masks[-1] == 0b1110
    with pytest.raises(ValueError):
        tight_masks([ph.linear_form((1, 0, 0), 0)], v)


def test_cached_integers_agree_with_uncached_values():
    # on a fresh VRep, the hull fills the cache that affine_rank and
    # tight_masks then read; each answer must equal one computed without
    # it: the rank from the points cleared anew, the masks from Fraction
    # slacks, and the hull from another fresh VRep with rank asked first
    for v in itertools.islice(_hull_pin_inputs(), 150):
        hull = ph._hull_with_masks(v)
        rank = ph._int_affine_rank(ph._clear_matrix(v.points)[0])
        assert ph.affine_rank(v) == rank == v.dim - len(hull[0].equalities)
        forms = hull[0].inequalities + (ph.linear_form([1] * v.dim, 1),)
        assert tight_masks(forms, v) == [
            sum(1 << k for k, p in enumerate(v.points) if f.slack(p) == 0)
            for f in forms]
        other = ph.VRep(v.dim, v.points)
        assert ph.affine_rank(other) == rank
        assert ph._hull_with_masks(other) == ph._hull_with_masks(v) == hull


def test_the_kernel_changes_no_row_list_it_is_given():
    # _int_pivot replaces rows and never changes one, so the VRep caches
    # stay as they were through every route that pivots, and so do the
    # differences _hull_with_masks reuses as its DD constraints after
    # their RREF.  A pivot that updated rows in place left the caches
    # alone but corrupted those: it found 16 edges at n = 3 and 45 at
    # n = 4
    for n, facets, edges in ((3, 16, 28), (4, 56, 120)):
        v = omega_core.reduced_vertex_vrep(n)
        integers = copy.deepcopy(v._integers)
        dependencies = copy.deepcopy(v._dependencies)
        npts = len(v.points)
        for k in (1, 2, npts - 2):
            for subset in itertools.combinations(range(npts), k):
                ph.is_face(v, subset)
        assert ph.affine_rank(v) == v.dim
        hull, pairs = ph._hull_with_masks(v)
        assert v._integers == integers
        assert v._dependencies == dependencies
        assert v._facets == pairs
        assert len(hull.inequalities) == len(pairs) == facets
        assert omega3_census.edges_via_hull(n) == edges


def test_hull_masks_match_tight_masks():
    # the DD's own tight sets against the incidence recomputed from the
    # returned forms, on full-dimensional and flat point sets alike; the
    # int forms handed back with them are the inequalities' own
    for v in _hull_pin_inputs():
        hrep, pairs = ph._hull_with_masks(v)
        assert hrep == ph.convex_hull_facets(v)
        assert [m for _, m in pairs] == tight_masks(hrep.inequalities, v)
        assert tuple(ph._int_form(f) for f, _ in pairs) == hrep.inequalities


def _reference_dd(m, cons):
    """The double description with the plain pair loop: every plus/minus
    pair gets the common-zero popcount, then an AND of per-constraint
    bitsets over the common zeros, one constraint at a time."""
    lineality = [tuple(1 if k == i else 0 for k in range(m))
                 for i in range(m)]
    rays = []
    for idx, a in enumerate(cons):
        bit = 1 << idx
        hit = next((k for k, v in enumerate(lineality) if ph._dot(a, v)),
                   None)
        if hit is not None:
            v = lineality.pop(hit)
            dv = ph._dot(a, v)
            if dv < 0:
                v, dv = tuple(-x for x in v), -dv
            lineality = [ph._coprime([dv * ux - ph._dot(a, u) * vx
                                      for ux, vx in zip(u, v)])
                         if ph._dot(a, u) else u for u in lineality]
            rays = [(ph._coprime([dv * rx - ph._dot(a, r) * vx
                                  for rx, vx in zip(r, v)])
                     if ph._dot(a, r) else r, mask | bit)
                    for r, mask in rays] + [(v, bit - 1)]
            continue
        plus, zero, minus = [], [], []
        for pos, (r, mask) in enumerate(rays):
            t = ph._dot(a, r)
            if t > 0:
                plus.append((r, mask, t, 1 << pos))
            elif t < 0:
                minus.append((r, mask, t, 1 << pos))
            else:
                zero.append((r, mask | bit))
        survivors = [(r, mask) for r, mask, _, _ in plus] + zero
        cols = [0] * idx
        for pos, (_, mask) in enumerate(rays):
            for c in range(idx):
                if mask >> c & 1:
                    cols[c] |= 1 << pos
        need = m - len(lineality) - 2
        for rp, mp, tp, bp in plus:
            for rn, mn, tn, bn in minus:
                common = mp & mn
                if common.bit_count() < need:
                    continue
                tight = (1 << len(rays)) - 1
                for c in range(idx):
                    if common >> c & 1:
                        tight &= cols[c]
                if tight == bp | bn:
                    w = ph._coprime([tp * nx - tn * px
                                     for px, nx in zip(rp, rn)])
                    survivors.append((w, common | bit))
        rays = survivors
    assert not lineality
    return rays


@pytest.mark.parametrize("count", [8, 9, 16, 17, 24, 25, 32, 33])
def test_dd_matches_the_reference_across_byte_boundaries(count):
    # cones of homogenized points, b + c . p >= 0 for each point p, with
    # tight masks one bit short of, or one bit past, a whole byte
    rng = random.Random(count)
    for d in (3, 4, 5):
        points = set()
        while len(points) < count:
            points.add(tuple(rng.randint(-2, 2) for _ in range(d)))
        cons = [(1,) + p for p in sorted(points, key=lambda _: rng.random())]
        rays = ph._dd_extreme_rays(d + 1, cons)
        assert rays == _reference_dd(d + 1, cons)


def test_dd_matches_the_reference_on_the_n5_census(monkeypatch):
    calls = []
    dd = ph._dd_extreme_rays

    def recorded(m, cons):
        rays = dd(m, cons)
        calls.append((m, cons, rays))
        return rays

    monkeypatch.setattr(ph, "_dd_extreme_rays", recorded)
    ph._hull_with_masks(omega_core.reduced_vertex_vrep(5))
    ((m, cons, rays),) = calls
    assert len(cons) == 32 and len(rays) == 368
    assert rays == _reference_dd(m, cons)


# the deterministic work of the DD on the n = 5 census hull: the rays
# entering each of its 16 split steps (every one has plus and minus rays,
# so each builds its tables once), and the partner candidates that reach
# the adjacency test by the popcount route and by the planes route
N5_DD_STEPS = [7, 19, 29, 41, 68, 59, 89, 131, 186, 143, 267, 426, 379, 618,
               570, 693]
N5_DD_CANDIDATES = {"count": 6540, "planes": 60}


def _counted_dd_work(monkeypatch):
    """Lists of the rays entering each DD split step and counts of the
    partner candidates of each route, filled in by every later DD run,
    and a list of the tables the steps built, as the runs leave them."""
    steps, found, built = [], {"count": 0, "planes": 0}, []
    tables, by_count, by_planes = (dd._byte_tables, dd._partners_by_count,
                                   dd._partners_by_planes)

    def counted_tables(masks):
        steps.append(len(masks))
        made = tables(masks)
        built.extend(made)
        return made

    def counted_count(*args):
        partners = by_count(*args)
        found["count"] += len(partners)
        return partners

    def counted_planes(*args):
        hits = by_planes(*args)
        found["planes"] += hits.bit_count()
        return hits

    monkeypatch.setattr(dd, "_byte_tables", counted_tables)
    monkeypatch.setattr(dd, "_partners_by_count", counted_count)
    monkeypatch.setattr(dd, "_partners_by_planes", counted_planes)
    return steps, found, built


def test_dd_work_on_the_n5_census_is_pinned(monkeypatch):
    steps, found, _ = _counted_dd_work(monkeypatch)
    _, pairs = ph._hull_with_masks(omega_core.reduced_vertex_vrep(5))
    assert steps == N5_DD_STEPS
    assert len(pairs) == 368
    assert found == N5_DD_CANDIDATES


# the same work on the DD behind facet_census(5): the tangent cone at its
# base vertex (code 10), 31 constraints in dimension 15, whose rays are
# the 210 facets through that vertex
N5_TANGENT_STEPS = [7, 18, 23, 32, 46, 43, 64, 87, 117, 99, 172, 218, 205,
                    319, 297, 327]
N5_TANGENT_CANDIDATES = {"count": 3122, "planes": 0}
# the table entries of two or more bits that its adjacency tests fill in,
# of the 11,856 such entries in the 48 tables its steps build
N5_TANGENT_FILLED = 3667


def test_dd_on_the_n5_census_tangent_cone_is_pinned(monkeypatch):
    calls = []
    kernel = dd._dd_extreme_rays

    def recorded(m, cons):
        rays = kernel(m, cons)
        calls.append((m, cons, rays))
        return rays

    monkeypatch.setattr(dd, "_dd_extreme_rays", recorded)
    steps, found, built = _counted_dd_work(monkeypatch)
    omega3_census.facet_census(5, allow_large=True)
    ((m, cons, rays),) = calls
    assert (m, len(cons), len(rays)) == (15, 31, 210)
    assert steps == N5_TANGENT_STEPS
    assert found == N5_TANGENT_CANDIDATES
    assert len(built) == 48
    assert sum(table[v] is not None for table in built
               for v in range(256) if v & (v - 1)) == N5_TANGENT_FILLED
    assert rays == _reference_dd(m, cons)


def test_partner_routes_and_table_entries_agree_on_seeded_masks():
    # the popcount scan and the bit-sliced planes pick the same minus
    # rays, which hold the low positions as in a DD step; a table is
    # built with its single-bit entries alone, and every entry read
    # through _table_entry is the set of rays tight on its byte.  The
    # fixed cases are no rays, rays with empty masks, and a whole byte
    # of constraints no ray is tight on below one that is
    rng = random.Random(15)
    cases = [([], 0), ([0], 1), ([0, 0, 0], 2), ([1 << 20, 0, 1 << 20], 1)]
    for _ in range(150):
        width, density = rng.randint(1, 50), rng.random()
        masks = [sum(1 << c for c in range(width) if rng.random() < density)
                 for _ in range(rng.randint(1, 70))]
        cases.append((masks, rng.randint(0, len(masks))))
    for masks, split in cases:
        tables = dd._byte_tables(masks)
        assert len(tables) == (max(masks, default=0).bit_length() + 7) // 8
        for table in tables:
            assert len(table) == 256
            assert [v for v in range(256) if table[v] is None] == [
                v for v in range(256) if v & (v - 1)]
        minus = [(None, mask, None, 1 << pos)
                 for pos, mask in enumerate(masks[:split])]
        minus_bits = (1 << split) - 1
        misses = dd._miss_columns(tables, minus_bits)
        for mask in masks:
            zeros = mask.bit_count()
            for need in range(max(0, zeros - 4), zeros + 1):
                want = dd._partners_by_count(mask, minus, need)
                got = dd._partners_by_planes(mask, misses, minus_bits,
                                             zeros - need)
                assert got == sum(e[3] for e in want)
        for k, table in enumerate(tables):
            for v in rng.sample(range(256), 256):
                assert dd._table_entry(table, v) == sum(
                    1 << pos for pos, mask in enumerate(masks)
                    if mask >> 8 * k & v == v)
            assert None not in table


# the hull of the 48 vertices of the n = 6 reduced polytope with
# y[1,2] = 0: the ridge hull of one n = 6 facet, and the one hull here
# with DD steps of thousands of rays and tight masks 6 bytes wide
RIDGE6_DIGEST = ("779e0f68a178d79e38638a1774a8b5ca"
                 "0ab5f257a223b4c69f31b3b9bb6de767")


def test_n6_ridge_hull_is_pinned():
    vrep = omega_core.reduced_vertex_vrep(6)
    y12 = omega_core.reduced_index(6, 1, 2)
    v = ph.VRep(vrep.dim, [p for p in vrep.points if p[y12] == 0])
    hrep = ph.convex_hull_facets(v, max_dim=vrep.dim)
    assert (len(v.points), len(hrep.inequalities), len(hrep.equalities)) == (
        48, 11432, 1)
    text = ph.hrep_to_text(hrep).encode("ascii")
    assert hashlib.sha256(text).hexdigest() == RIDGE6_DIGEST


def test_hull_scale_guards():
    with pytest.raises(ScaleGuardError) as err:
        ph.convex_hull_facets(ph.VRep(16, [(0,) * 16, (1,) * 16]))
    assert err.value.guard == "hull-dim"
    v = ph.regular_polytope("cube", 5)
    with pytest.raises(ScaleGuardError) as err:
        ph.convex_hull_facets(v, max_points=16)
    assert err.value.guard == "hull-points"
    # overrides work
    h = ph.convex_hull_facets(v, max_points=32)
    assert len(h.inequalities) == 10


@pytest.mark.parametrize("v,subsets,guard,message", [
    # the 16-simplex and the midpoint of its edge 0, 1
    (ph.VRep(16, [(0,) * 16]
             + [tuple(int(k == i) for k in range(16)) for i in range(16)]
             + [(frac(1, 2),) + (0,) * 15]),
     (range(1, 17), [0, 1], [0, 2]), "hull-dim",
     "is_face: dim must be at most 15, got 16"),
    # 64 points of a parabola and the midpoint of its first chord
    (ph.VRep(2, [(k, k * k) for k in range(64)] + [(frac(1, 2), frac(1, 2))]),
     ([1, 2], [0, 1], [5]), "hull-points",
     "is_face: point count must be at most 64, got 65"),
], ids=["dim16", "points65"])
def test_is_face_refuses_a_hull_past_the_default_guards(
        v, subsets, guard, message, monkeypatch):
    # a facet candidate and a screened not_face need no hull, so they are
    # answered; a lower-dimensional face needs the VRep's hull, which runs
    # under convex_hull_facets' default guards and is refused
    hulls = _record_hulls(monkeypatch)
    facet, screened, lower = subsets
    assert ph.is_face(v, facet).kind == "facet"
    assert ph.is_face(v, screened).kind == "not_face"
    with pytest.raises(ScaleGuardError) as err:
        ph.is_face(v, lower)
    assert (err.value.guard, str(err.value)) == (guard, message)
    assert hulls == []


# --- linear programming -------------------------------------------------------

def square_hrep():
    return ph.HRep(2, (ph.linear_form([1, 0], 0), ph.linear_form([0, 1], 0),
                       ph.linear_form([-1, 0], -1), ph.linear_form([0, -1], -1)),
                   ())


def test_lp_unit_square():
    res = ph.lp_solve(ph.linear_form([1, 1], 0), square_hrep(), "max")
    assert res.status == "optimal"
    assert res.optimum == 2
    assert res.argument == (1, 1)
    # multipliers recombine the objective and the optimum exactly
    assert res.dual == (0, 0, -1, -1)
    res = ph.lp_solve(ph.linear_form([1, 1], 0), square_hrep(), "min")
    assert res.optimum == 0 and res.argument == (0, 0)


def test_lp_statuses():
    h = ph.HRep(1, (ph.linear_form([1], 2), ph.linear_form([-1], -1)), ())
    assert ph.lp_solve(ph.linear_form([1], 0), h).status == "infeasible"
    h = ph.HRep(1, (ph.linear_form([1], 0),), ())
    assert ph.lp_solve(ph.linear_form([1], 0), h).status == "unbounded"
    assert ph.lp_solve(ph.linear_form([-1], 0), h).status == "optimal"
    # no constraints at all
    h = ph.HRep(2, (), ())
    assert ph.lp_solve(ph.linear_form([0, 1], 0), h).status == "unbounded"
    res = ph.lp_solve(ph.linear_form([0, 0], 0), h)
    assert res.status == "optimal" and res.optimum == 0


def assert_dual_identities(res, objective, h, sense):
    forms = h.inequalities + h.equalities
    assert len(res.dual) == len(forms)
    for k in range(h.dim):
        assert sum(y * f.coeffs[k] for y, f in zip(res.dual, forms)) \
            == objective.coeffs[k]
    assert sum(y * f.rhs for y, f in zip(res.dual, forms)) == res.optimum
    sign = -1 if sense == "max" else 1
    assert all(sign * y >= 0 for y in res.dual[:len(h.inequalities)])


def test_lp_with_equalities_and_redundancy():
    nonneg = (ph.linear_form([1, 0], 0), ph.linear_form([0, 1], 0))
    objective = ph.linear_form([1, -1], 0)
    h = ph.HRep(2, nonneg,
                (ph.linear_form([1, 1], 1), ph.linear_form([2, 2], 2)))
    for sense, optimum, argument in (("max", 1, (1, 0)), ("min", -1, (0, 1))):
        res = ph.lp_solve(objective, h, sense)
        assert res.status == "optimal"
        assert res.optimum == optimum
        assert res.argument == argument
        assert_dual_identities(res, objective, h, sense)
    # the redundant equality comes first: 4x + 2y = 2 is twice 2x = 0
    # plus 2y = 2
    h = ph.HRep(2, nonneg,
                (ph.linear_form([4, 2], 2), ph.linear_form([2, 0], 0),
                 ph.linear_form([0, 2], 2)))
    for sense in ("max", "min"):
        res = ph.lp_solve(objective, h, sense)
        assert res.status == "optimal"
        assert res.optimum == -1
        assert res.argument == (0, 1)
        assert_dual_identities(res, objective, h, sense)
    h = ph.HRep(2, (), (ph.linear_form([1, 1], 1), ph.linear_form([1, 1], 3)))
    assert ph.lp_solve(ph.linear_form([1, 0], 0), h).status == "infeasible"


def test_lp_matches_vertex_enumeration_on_the_cube():
    d = 3
    v = ph.regular_polytope("cube", d)
    h = ph.convex_hull_facets(v)
    rng = random.Random(20260816)
    for _ in range(25):
        obj = ph.linear_form(
            [frac(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)], 0)
        res = ph.lp_solve(obj, h, "max")
        assert res.status == "optimal"
        best = max(obj.value(p) for p in v.points)
        assert res.optimum == best
        assert h.holds(res.argument)
        res = ph.lp_solve(obj, h, "min")
        assert res.optimum == min(obj.value(p) for p in v.points)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_affine_point_sets(), st.data())
def test_lp_over_the_hull_matches_the_points(case, data):
    d, points = case
    v = ph.VRep(d, points)
    h = ph.convex_hull_facets(v)
    obj = ph.linear_form(data.draw(st.lists(st.integers(-5, 5), min_size=d,
                                            max_size=d)), 0)
    values = [obj.value(p) for p in v.points]
    for sense, best in (("max", max(values)), ("min", min(values))):
        res = ph.lp_solve(obj, h, sense)
        assert res.status == "optimal"
        assert res.optimum == best
        assert h.holds(res.argument)


def _seeded_lp(rng):
    """A random LP in dimension 1-4 with small rational data: some rows
    sparse, most of them through or around one seeded point so that many
    LPs are feasible, some with an equality repeated at a rational
    multiple, and some boxed so that most of those are bounded."""
    d = rng.randint(1, 4)
    point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]

    def q():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def form(slack):
        coeffs = [q() for _ in range(d)]
        if rng.random() < 0.15:
            return ph.linear_form(coeffs, q())
        return ph.linear_form(coeffs, sum(c * x for c, x in zip(coeffs, point))
                              - slack)

    ineqs = [form(rng.randint(0, 2)) for _ in range(rng.randint(0, 4))]
    eqs = [form(0) for _ in range(rng.randint(0, 2))]
    if eqs and rng.random() < 0.4:
        f = rng.choice(eqs)
        s = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
        eqs.insert(rng.randint(0, len(eqs)),
                   ph.LinearForm(tuple(s * c for c in f.coeffs), s * f.rhs))
    if rng.random() < 0.5:
        bound = rng.randint(3, 5)
        for k in range(d):
            unit = [0] * d
            unit[k] = 1
            ineqs.append(ph.linear_form(unit, -bound))
            ineqs.append(ph.linear_form([-x for x in unit], -bound))
    return form(0), ph.HRep(d, tuple(ineqs), tuple(eqs))


# sha256 over repr((status, optimum)) of the 800 solves below, the same
# from the Fraction tableau, the artificial start and the surplus start
LP_OPTIMA_DIGEST = ("fd340550785c1c1a19639ed6005f262d"
                    "be562fa8bfac716daa2e6ccdee134b84")
# sha256 over repr((status, optimum, argument, dual)) of the same solves,
# taken from the surplus start; where the optimum is not unique, arguments
# and multipliers differ from those of the artificial start
LP_PIN_DIGEST = ("954930707178a2f5ebc9be6dfd2536b2"
                 "09e893f0003252377c708af963e28546")


def test_lp_results_are_pinned():
    rng = random.Random(20261018)
    h, optima = hashlib.sha256(), hashlib.sha256()
    statuses = set()
    for _ in range(400):
        objective, hrep = _seeded_lp(rng)
        for sense in ("max", "min"):
            res = ph.lp_solve(objective, hrep, sense)
            statuses.add(res.status)
            if res.status == "optimal":
                assert hrep.holds(res.argument)
                assert objective.value(res.argument) == res.optimum
                assert_dual_identities(res, objective, hrep, sense)
            optima.update(repr((res.status, res.optimum)).encode("ascii"))
            h.update(repr((res.status, res.optimum, res.argument,
                           res.dual)).encode("ascii"))
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert optima.hexdigest() == LP_OPTIMA_DIGEST
    assert h.hexdigest() == LP_PIN_DIGEST


def _record_lps(monkeypatch) -> list:
    """Patch the integer LP core, as lp_solve calls it, so that each call
    appends its pivot counts to the returned list."""
    pivots = []
    core = ph._int_lp

    def recording_core(*args):
        result = core(*args)
        pivots.append(result[1])
        return result

    monkeypatch.setattr(ph, "_int_lp", recording_core)
    return pivots


def _record_hulls(monkeypatch) -> list:
    """Patch the hull so that each double description of a whole point
    set, whether for convex_hull_facets or for a VRep's cached facets,
    appends its VRep to the returned list."""
    built = []
    hull = ph._hull_with_masks

    def recording_hull(v):
        built.append(v)
        return hull(v)

    monkeypatch.setattr(ph, "_hull_with_masks", recording_hull)
    return built


def test_lp_pivot_counts(monkeypatch):
    # every row of the square holds at the origin, so the surplus basis is
    # feasible and phase 1 takes no pivot; phase 2 walks from the origin.
    # With one artificial per row these were (4, 0) and (4, 4): phase 1
    # spent 4 pivots finding a vertex and happened to end at (1, 1)
    objective = ph.linear_form([1, 1], 0)
    assert ph.lp_solve(objective, square_hrep(), "max").pivots == (0, 2)
    assert ph.lp_solve(objective, square_hrep(), "min").pivots == (0, 2)
    h = ph.HRep(1, (ph.linear_form([1], 2), ph.linear_form([-1], -1)), ())
    res = ph.lp_solve(ph.linear_form([1], 0), h)
    assert res.status == "infeasible" and res.pivots == (1, 0)
    assert ph.LpResult("infeasible").pivots is None
    # the face LP of an edge of the 3-cube: its one artificial sits on an
    # rhs-0 equality, so phase 1 only drives it out
    cube = ph.regular_polytope("cube", 3)
    res = face_lp(cube, [0, 1])
    assert (res.optimum, res.pivots) == (1, (1, 3))


def _record_flips(monkeypatch) -> list:
    """Patch the column negation of the LP core so that each call appends
    (free variable, its orientation before the flip) to the returned
    list: (k, 1) stores x-_k in place of x+_k, (k, -1) flips it back."""
    flips = []
    negate = simplex._negate_column

    def recording_negate(tab, orient, k):
        flips.append((k, orient[k]))
        negate(tab, orient, k)

    monkeypatch.setattr(simplex, "_negate_column", recording_negate)
    return flips


def test_lp_enters_negative_free_variables(monkeypatch):
    # each optimum needs negative coordinates, so x-_k enters: the free
    # variable's one column is negated before the pivot, and the argument
    # is read back with the sign of the stored orientation
    flips = _record_flips(monkeypatch)
    h = ph.HRep(1, (ph.linear_form([1], -2),), ())
    res = ph.lp_solve(ph.linear_form([-1], 0), h)
    assert (res.optimum, res.argument, res.dual) == (2, (-2,), (-1,))
    assert res.pivots == (0, 1) and flips == [(0, 1)]
    flips.clear()
    h = ph.HRep(2, (ph.linear_form([1, 0], -2), ph.linear_form([0, 1], -3)),
                ())
    res = ph.lp_solve(ph.linear_form([1, 1], 0), h, "min")
    assert (res.optimum, res.argument, res.dual) == (-5, (-2, -3), (1, 1))
    assert res.pivots == (0, 2) and flips == [(0, 1), (1, 1)]


def test_lp_flips_a_free_column_back_on_re_entry(monkeypatch):
    # x0 + x1 <= -1 fails at the origin; no x+ label improves phase 1, so
    # x-_0 enters and phase 1 stops at (-1, 0).  Phase 2 lowers x1 to its
    # bound -5 through x-_1, which takes the row of x-_0, so x0 leaves the
    # basis at 0; then x+_0 re-enters, its column negated back, and rises
    # to 4
    flips = _record_flips(monkeypatch)
    h = ph.HRep(2, (ph.linear_form([-1, -1], 1), ph.linear_form([0, 1], -5),
                    ph.linear_form([-1, 0], -10)), ())
    objective = ph.linear_form([1, 0], 0)
    res = ph.lp_solve(objective, h)
    assert (res.optimum, res.argument, res.dual) == (4, (4, -5), (-1, -1, 0))
    assert res.pivots == (1, 2)
    assert flips == [(0, 1), (1, 1), (0, -1)]
    assert_dual_identities(res, objective, h, "max")


def _hrep_of_rows(d, ineqs, eqs):
    """An HRep from [coeffs..., rhs] rows."""
    return ph.HRep(d, tuple(ph.linear_form(r[:-1], r[-1]) for r in ineqs),
                   tuple(ph.linear_form(r[:-1], r[-1]) for r in eqs))


def test_lp_ratio_ties_rank_x_minus_after_every_x_plus():
    # x-_a shares its column with x+_a but ranks after every x+ label in
    # Bland's ratio ties, as in the split tableau; breaking these ties on
    # the column index instead takes 14 and 9 phase-1 pivots, not 12 and 7
    h = _hrep_of_rows(4, [[1, -2, 1, 0, 1], [-1, 2, 1, -1, -1],
                          [1, 2, 2, 1, 0], [-1, -1, 0, -1, -1],
                          [-2, -1, 2, 1, 0]],
                      [[-1, -2, 0, -2, 1], [1, -2, 2, -1, 0]])
    objective = ph.linear_form([2, -1, 0, -1], 0)
    res = ph.lp_solve(objective, h)
    assert (res.optimum, res.argument) == (frac(-19, 2),
                                           (-4, frac(-3, 2), 2, 3))
    assert res.dual == (-5, 0, frac(-15, 4), 0, 0, frac(-9, 2), frac(25, 4))
    assert res.pivots == (12, 0)
    assert_dual_identities(res, objective, h, "max")
    h = _hrep_of_rows(4, [[2, -2, 2, 1, 0], [1, -1, 0, 2, -2],
                          [0, 1, 0, -2, 0], [1, -1, 0, 0, 2]],
                      [[-1, -2, 0, -1, 0], [1, 2, 0, 0, -1]])
    res = ph.lp_solve(ph.linear_form([1, -2, -1, 1], 0), h)
    assert (res.status, res.pivots) == ("infeasible", (7, 0))


def test_simplex_raises_on_a_revisited_basis(monkeypatch):
    # without the column negation the tableau no longer matches the
    # orientation it records, and the first LP above cycles; the repeat
    # of a (basis, orient) state must raise, not loop forever
    monkeypatch.setattr(simplex, "_negate_column", lambda tab, orient, k: None)
    h = _hrep_of_rows(4, [[1, -2, 1, 0, 1], [-1, 2, 1, -1, -1],
                          [1, 2, 2, 1, 0], [-1, -1, 0, -1, -1],
                          [-2, -1, 2, 1, 0]],
                      [[-1, -2, 0, -2, 1], [1, -2, 2, -1, 0]])
    with pytest.raises(RuntimeError, match="revisited a basis"):
        ph.lp_solve(ph.linear_form([2, -1, 0, -1], 0), h)


def _record_pivot_mix(monkeypatch) -> dict:
    """Patch the exact kernel so that each pivot appends whether it is
    unimodular with den = 1 (|p| == den == 1): under "lp" for the
    simplex's pivots, which _price_out does not make, and under "rref"
    for those of _int_rref."""
    mix = {"lp": [], "rref": []}
    for module, key in ((simplex, "lp"), (exact, "rref")):
        def recording(tab, den, r, c, pivot=module._int_pivot,
                      seen=mix[key]):
            seen.append(abs(tab[r][c]) == den == 1)
            return pivot(tab, den, r, c)

        monkeypatch.setattr(module, "_int_pivot", recording)
    return mix


def test_face_lp_pivot_totals(monkeypatch):
    # summed (phase 1, phase 2) pivots of the face LPs of all 28 n = 3
    # pairs and all 120 n = 4 pairs, pinned as work counts of lp_solve
    mix = _record_pivot_mix(monkeypatch)
    v = omega_core.reduced_vertex_vrep(3)
    pivots = []
    for pair in itertools.combinations(range(8), 2):
        res = face_lp(v, pair)
        assert res.optimum > 0
        pivots.append(res.pivots)
    assert [sum(p) for p in zip(*pivots)] == [28, 147]
    # the pivot mix the kernel's sparse route is for: 162 of the 175 face
    # LP pivots are unimodular with den = 1
    assert [sum(mix["lp"]), len(mix["lp"])] == [162, 175]
    mix["lp"].clear()
    # the width of every n = 4 pair face LP tableau, rhs left out: one
    # column for each of the 11 free variables (10 coordinates and t),
    # the 15 surplus columns of the 14 outside points and the cap, and
    # one artificial for the one equality.  Split into x+ and x-, with an
    # artificial on every row, it was 22 + 15 + 16 = 53
    widths = set()
    iterate = simplex._simplex_iterate

    def recording_iterate(tab, *args):
        widths.add(len(tab[0]) - 1)
        return iterate(tab, *args)

    monkeypatch.setattr(simplex, "_simplex_iterate", recording_iterate)
    v = omega_core.reduced_vertex_vrep(4)
    pivots = []
    for pair in itertools.combinations(range(16), 2):
        res = face_lp(v, pair)
        assert res.optimum > 0
        pivots.append(res.pivots)
    assert [sum(p) for p in zip(*pivots)] == [120, 1054]
    assert [sum(mix["lp"]), len(mix["lp"])] == [1032, 1174]
    assert widths == {27}
    # a single vertex gives a face LP with no equality, whose rows all
    # hold at x = 0: it starts feasible and makes no phase 1 pivot.
    # is_face takes each vertex through the closure and calls it a 0-face
    # whose form is tight on that vertex alone
    for k in range(16):
        res = face_lp(v, [k])
        assert res.optimum > 0 and res.pivots[0] == 0
        verdict = ph.is_face(v, [k])
        assert (verdict.kind, verdict.dimension) == ("proper_face", 0)
        slacks = [verdict.form.slack(p) for p in v.points]
        assert min(slacks) == 0
        assert [j for j, s in enumerate(slacks) if s == 0] == [k]


def test_is_face_pivots_only_in_its_screens_and_the_hull(monkeypatch):
    # is_face makes no LP.  On the 28 n = 3 pairs, all of its 40 RREF
    # pivots are unimodular with den = 1: the 28 span screens, the 6 of
    # the affine rank and the 6 of the hull's affine hull
    lps = _record_lps(monkeypatch)
    mix = _record_pivot_mix(monkeypatch)
    v = omega_core.reduced_vertex_vrep(3)
    for pair in itertools.combinations(range(8), 2):
        assert ph.is_face(v, pair).kind == "proper_face"
    assert lps == [] and mix["lp"] == []
    assert mix["rref"] == [True] * 40
    mix["rref"].clear()
    # n = 4: an edge has many supporting forms; the closure's must be
    # tight exactly on the pair.  120 span screens, 10 pivots of the
    # affine rank and 10 of the hull
    v = omega_core.reduced_vertex_vrep(4)
    for pair in itertools.combinations(range(16), 2):
        form = ph.is_face(v, pair).form
        slacks = [form.slack(p) for p in v.points]
        assert min(slacks) == 0
        assert [k for k, s in enumerate(slacks) if s == 0] == list(pair)
    assert lps == [] and mix["lp"] == []
    assert mix["rref"] == [True] * 140


def test_a_faces_query_mix_builds_one_hull(monkeypatch):
    # the mix of the benchmark's faces pass: all 28 n = 3 pair complements
    # (16 facets), 12 seeded n = 4 pairs (edges) and every second n = 4
    # pair complement (60 non-faces).  The screens decide the complements,
    # so only the edges reach the closure, which builds the n = 4 hull
    # once and no n = 3 hull; no query makes an LP
    lps = _record_lps(monkeypatch)
    hulls = _record_hulls(monkeypatch)
    v3 = omega_core.reduced_vertex_vrep(3)
    v4 = omega_core.reduced_vertex_vrep(4)
    n3 = list(itertools.combinations(range(8), 2))
    n4 = list(itertools.combinations(range(16), 2))
    queries = [(v3, [k for k in range(8) if k not in p]) for p in n3]
    queries += [(v4, p) for p in random.Random(1).sample(n4, 12)]
    queries += [(v4, [k for k in range(16) if k not in p]) for p in n4[::2]]
    kinds = Counter(ph.is_face(v, subset).kind for v, subset in queries)
    assert kinds == {"facet": 16, "proper_face": 12, "not_face": 72}
    assert lps == [] and hulls == [v4]


# one dual numerator read off the final tableau is put off by one; the
# checks that follow must refuse it even when asserts are stripped.  The
# tableau's last column before the rhs is the start column of a row, the
# column its multiplier is read from: the last artificial or, where no
# row has one, the surplus column of the last row.  Each phase runs the
# simplex once, and phase 2 prices its objective row afresh, so only the
# change made after the phase-2 run reaches the multipliers
_OFF_BY_ONE_DUAL = """
import sys
from omegapoly import polyhedra as ph, simplex
iterate = simplex._simplex_iterate
def off_by_one(tab, den, basis, orient, allowed):
    den, pivots, bounded = iterate(tab, den, basis, orient, allowed)
    tab[-1][-2] += den
    return den, pivots, bounded
simplex._simplex_iterate = off_by_one
try:
    print(%s)
except RuntimeError as exc:
    print(sys.flags.optimize, exc)
"""


def _run_optimized(call):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = _OFF_BY_ONE_DUAL % call
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dual_checks_survive_python_O():
    # the square starts on its surplus basis and skips phase 1
    square = ("ph.HRep(2, (ph.linear_form([1, 0], 0), "
              "ph.linear_form([0, 1], 0), ph.linear_form([-1, 0], -1), "
              "ph.linear_form([0, -1], -1)), ())")
    call = "ph.lp_solve(ph.linear_form([1, 1], 0), %s)" % square
    assert _run_optimized(call) == "1 dual stationarity failed\n"


def test_dual_checks_survive_python_O_after_phase_1():
    # x >= 1 fails at the origin, so its row starts on an artificial and
    # phase 1 runs before the off-by-one dual is read
    h = ph.HRep(1, (ph.linear_form([1], 1), ph.linear_form([-1], -3)), ())
    res = ph.lp_solve(ph.linear_form([1], 0), h)
    assert res.pivots == (1, 1) and res.optimum == 3
    call = ("ph.lp_solve(ph.linear_form([1], 0), ph.HRep(1, "
            "(ph.linear_form([1], 1), ph.linear_form([-1], -3)), ()))")
    assert _run_optimized(call) == "1 dual stationarity failed\n"


# the rhs of the first cached facet form that holds a cube edge is put
# off by one, so the sum of the holding forms is no longer tight on the
# edge; the closure's check must refuse it even when asserts are stripped
_OFF_BY_ONE_FACET = """
import sys
from omegapoly import polyhedra as ph
v = ph.regular_polytope('cube', 3)
k = next(k for k, (_, mask) in enumerate(v._facets) if mask & 3 == 3)
form, mask = v._facets[k]
v._facets[k] = (form[:-1] + (form[-1] + 1,), mask)
try:
    print(ph.is_face(v, [0, 1]))
except RuntimeError as exc:
    print(sys.flags.optimize, exc)
"""


def test_closure_check_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _OFF_BY_ONE_FACET],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 the sum of the facets holding 2 points is "
                           "not tight exactly on them at point 0\n")


def test_hrep_rejects_forms_of_the_wrong_dimension():
    good, short = ph.linear_form([1, 0], 0), ph.linear_form([1], 0)
    with pytest.raises(ValueError, match="inequality 1 has 1 coeff"):
        ph.HRep(2, (good, short), ())
    with pytest.raises(ValueError, match="equality 0 has 3 coeff"):
        ph.HRep(2, (good,), (ph.linear_form([1, 0, 0], 0),))
    assert ph.HRep(2, (good,), (good,)).holds((0, 5))


def test_lp_fractional_answer_is_exact():
    # max y subject to y <= x/3, y <= (1 - x)/7
    h = ph.HRep(2, (ph.linear_form([frac(1, 3), -1], 0),
                    ph.linear_form([frac(-1, 7), -1], frac(-1, 7))), ())
    res = ph.lp_solve(ph.linear_form([0, 1], 0), h, "max")
    assert res.optimum == frac(1, 10)
    assert res.argument == (frac(3, 10), frac(1, 10))


# --- face tests ---------------------------------------------------------------

def test_is_face_trivial_cases():
    v = ph.regular_polytope("simplex", 3)
    assert ph.is_face(v, []).kind == "empty"
    assert ph.is_face(v, range(4)).kind == "whole_polytope"
    with pytest.raises(ValueError):
        ph.is_face(v, [99])


@pytest.mark.parametrize("subset,message", [
    ([True, 2], "point index True is not an integer"),
    ([0, 1.0], "point index 1.0 is not an integer"),
    (["a"], "point index 'a' is not an integer"),
    ([10 ** 5000], "point index an integer of over %d digits out of range"
     % sys.get_int_max_str_digits()),
], ids=["bool", "float", "str", "huge"])
def test_is_face_refuses_an_index_that_is_not_a_point(subset, message):
    # True == 1, so a bool was read as point 1; a float or a str reached
    # the range test as a TypeError, and a huge int broke the message
    v = ph.regular_polytope("simplex", 3)
    with pytest.raises(ValueError) as info:
        ph.is_face(v, subset)
    assert str(info.value) == message


def test_every_simplex_subset_is_a_face():
    d = 4
    v = ph.regular_polytope("simplex", d)
    npts = len(v.points)
    for r in range(1, npts):
        for sub in itertools.combinations(range(npts), r):
            verdict = ph.is_face(v, sub)
            if r == npts - 1:
                assert verdict.kind == "facet"
            else:
                assert verdict.kind == "proper_face"
            assert verdict.dimension == r - 1
            for k, p in enumerate(v.points):
                s = verdict.form.slack(p)
                assert (s == 0) == (k in sub)


def test_single_vertex_is_a_zero_face():
    v = ph.regular_polytope("cube", 3)
    verdict = ph.is_face(v, [0])
    assert verdict.kind == "proper_face"
    assert verdict.dimension == 0


def test_midpoint_of_a_segment_is_not_a_face():
    v = ph.VRep(1, [(0,), (1,), (2,)])
    verdict = ph.is_face(v, [1])
    assert verdict.kind == "not_face"
    assert verdict.form is None


def test_not_face_whose_differences_are_dependent(monkeypatch):
    hulls = _record_hulls(monkeypatch)
    v = ph.regular_polytope("cube", 4)
    # 13 of the 16 vertices span the whole space, so the affine-hull
    # screen refuses them before their 12 dependent differences reach the
    # closure
    subset = (0, 1, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15)
    assert ph.is_face(v, subset).kind == "not_face"
    assert hulls == []
    # the diagonal rectangle 0000, 0011, 1100, 1111: 1111 - 0000 is the sum
    # of the other two differences, and no other vertex lies in its plane,
    # so it reaches the closure, which builds the hull: no facet holds
    # both 0000 and 1111, so the closure is every vertex.  The face LP
    # agrees, with optimum 0
    assert ph.is_face(v, (0, 3, 12, 15)).kind == "not_face"
    assert hulls == [v]
    assert face_lp(v, (0, 3, 12, 15)).optimum == 0


def test_zero_difference_is_in_every_row_space():
    # the screen's test of an outside point whose difference is zero:
    # zero lies in every affine hull, even that of a single point, whose
    # RREF has no rows
    assert exact._in_row_space([0, 0], [], 1, [])
    span, den, pivots = exact._int_rref([[2, 4]])
    assert (span, den, pivots) == ([[2, 4]], 2, [0])
    assert exact._in_row_space([0, 0], span, den, pivots)
    assert exact._in_row_space([3, 6], span, den, pivots)
    assert not exact._in_row_space([0, 1], span, den, pivots)


def test_screen_decides_every_n4_pair_complement(monkeypatch):
    # a pair complement holds 14 of the 16 vertices of the n = 4 polytope,
    # which span all of its 10 dimensions; no third vertex lies on the line
    # through a pair, so each pair is an edge found by the closure, which
    # builds the hull on the first pair and keeps it
    lps = _record_lps(monkeypatch)
    hulls = _record_hulls(monkeypatch)
    # and the points are cleared to integers once for all 240 queries
    cleared = []
    clear = ph._clear_matrix

    def counting_clear(rows):
        cleared.append(rows)
        return clear(rows)

    monkeypatch.setattr(ph, "_clear_matrix", counting_clear)
    # the shape of every RREF is_face takes: the (10 + 1) x 16 one of the
    # affine dependencies once, then a 5 x 2 cut of its 5 dependencies for
    # each complement, a 1 x 10 span of differences for each pair, and
    # the 15 x 10 one of the hull's differences once
    shapes = []
    rref = ph._int_rref

    def recording_rref(rows):
        rows = list(rows)
        shapes.append((len(rows), len(rows[0])))
        return rref(rows)

    monkeypatch.setattr(ph, "_int_rref", recording_rref)
    v = omega_core.reduced_vertex_vrep(4)
    pairs = list(itertools.combinations(range(16), 2))
    assert len(pairs) == 120
    for a, b in pairs:
        complement = [k for k in range(16) if k not in (a, b)]
        assert ph.is_face(v, complement).kind == "not_face"
    assert hulls == []
    for pair in pairs:
        verdict = ph.is_face(v, pair)
        assert (verdict.kind, verdict.dimension) == ("proper_face", 1)
        assert hulls == [v]
    assert lps == []
    assert cleared == [v.points]
    assert shapes[0] == (11, 16)
    assert sorted(Counter(shapes).items()) == [((1, 10), 120), ((5, 2), 120),
                                               ((11, 16), 1), ((15, 10), 1)]


def _both_screens(v, subset):
    """(span screen, dependency screen) answers on one subset."""
    idx = sorted(subset)
    outside = [k for k in range(len(v.points)) if k not in subset]
    return (ph._span_screen(v, idx, outside),
            ph._dependency_screen(v, idx, outside))


def _route_agreement_inputs():
    """(VRep, subsets) pairs on which the two screens must agree."""
    for v in (omega_core.reduced_vertex_vrep(3),
              ph.regular_polytope("cube", 3),
              ph.regular_polytope("cross", 3)):
        npts = len(v.points)
        yield v, [[k for k in range(npts) if mask >> k & 1]
                  for mask in range(1, 1 << npts)]
    v = omega_core.reduced_vertex_vrep(4)
    yield v, [[k for k in range(16) if k not in pair]
              for pair in itertools.combinations(range(16), 2)]
    v = omega_core.reduced_vertex_vrep(5)
    rng = random.Random(25)
    yield v, [sorted(set(range(32)) - set(rng.sample(range(32), size)))
              for size in (1, 2, 3, 4) for _ in range(25)]
    # a rational point set over D = 12 with a point that is no vertex,
    # and a square pyramid, its base centre and one more vertex in a
    # hyperplane of Q^4
    rational = ph.VRep(3, [(0, 0, 0), (frac(1, 2), 0, 0), (0, frac(1, 3), 0),
                           (frac(1, 2), frac(1, 3), 0), (0, 0, frac(1, 6)),
                           (frac(1, 4), frac(1, 6), frac(1, 12)),
                           (1, 1, frac(1, 2))])
    flat = ph.VRep(4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (2, 2, 0, 0),
                       (1, 1, 2, 0), (1, 1, 0, 0), (1, 0, 1, 0)])
    assert rational._integers[1] == 12 and ph.affine_rank(flat) == 3
    for v in (rational, flat):
        npts = len(v.points)
        yield v, [[k for k in range(npts) if mask >> k & 1]
                  for mask in range(1, 1 << npts)]


def test_the_span_and_dependency_screens_agree():
    # the screens are two routes to one answer: None when an outside point
    # lies in the subset's affine hull or a facet candidate's hyperplane
    # has outside points on both sides, else the hull's dimension and, for
    # a facet, its oriented normal
    answers = []
    for v, subsets in _route_agreement_inputs():
        for subset in subsets:
            span, dependency = _both_screens(v, subset)
            assert span == dependency, (v, subset)
            answers.append(span)
    assert ({a if a is None else a[0] for a in answers}
            == {None, 0, 1, 2, 3, 4, 5, 6})
    assert len(answers) == 255 + 255 + 63 + 120 + 100 + 127 + 127
    # the facets: every one of n = 3 (16), the 3-cube (6), the 3-cross
    # polytope (8) and the rational set (7); no n = 4 or n = 5 pair
    # complement is one, and the flat set is not full-dimensional
    assert sum(a is not None and a[1] is not None for a in answers) == 37


def test_a_simplex_has_no_affine_dependency():
    # no dependency leaves A empty, of rank 0: nothing is ever refused
    # and dim aff(S) = |S| - 1
    v = ph.regular_polytope("simplex", 4)
    assert v._dependencies == []
    for size in range(1, 6):
        for subset in itertools.combinations(range(5), size):
            span, dependency = _both_screens(v, set(subset))
            assert span == dependency and span[0] == size - 1
            assert (span[1] is not None) == (size == 4)
    verdict = ph.is_face(v, [0, 1, 2, 4])
    assert (verdict.kind, verdict.dimension) == ("facet", 3)


def test_a_pyramid_apex_complement_is_a_facet():
    # the apex is in no affine dependency, so its one column of A is zero:
    # rank 0, and the base has dimension 3 - 1 + 0 = 2, a facet
    v = ph.VRep(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
    assert v._dependencies == [[4, -4, -4, 4, 0]]
    assert _both_screens(v, {0, 1, 2, 3}) == ((2, [0, 0, 4]),) * 2
    verdict = ph.is_face(v, [0, 1, 2, 3])
    assert verdict == ph.FaceVerdict("facet", ph.linear_form([0, 0, 1], 0), 2)


def test_vrep_points_are_read_only():
    # a VRep's integers and rank are those of the points it was built on,
    # so neither the points nor the dimension can be rebound; each point
    # set gets its own VRep, with its own denominator and rank
    v = ph.VRep(2, [(0, 0), (1, 0), (0, 1)])
    assert ph.is_face(v, [1, 2]).form == ph.linear_form([-1, -1], -1)
    assert ph.is_face(v, [0, 1, 2]).dimension == 2
    with pytest.raises(AttributeError):
        v.points = ((0, 0), (1, 1))
    with pytest.raises(AttributeError):
        v.dim = 3
    assert v.points == ((0, 0), (1, 0), (0, 1)) and ph.affine_rank(v) == 2
    assert ph.is_face(v, [1, 2]).form == ph.linear_form([-1, -1], -1)
    v = ph.VRep(2, [(0, 0), (frac(1, 2), 0), (0, frac(1, 3))])
    assert ph.is_face(v, [1, 2]).form == ph.linear_form([-2, -3], -1)
    assert tight_masks([ph.linear_form([2, 3], 1)], v) == [0b110]
    v = ph.VRep(2, [(0, 0), (1, 1), (2, 2)])
    assert ph.is_face(v, [0, 1, 2]).dimension == 1
    assert ph.affine_rank(v) == 1
    assert ph.is_face(v, [1]).kind == "not_face"
    assert ph.is_face(v, [0]).kind == "facet"


@pytest.mark.parametrize("kind,d", [("cube", 3), ("cube", 4),
                                    ("cross", 3), ("cross", 4)])
def test_is_face_agrees_with_hull_tight_sets(kind, d):
    v = ph.regular_polytope(kind, d)
    h = ph.convex_hull_facets(v)
    npts = len(v.points)
    for form in h.inequalities:
        tight = frozenset(k for k in range(npts) if form.slack(v.points[k]) == 0)
        verdict = ph.is_face(v, tight)
        assert verdict.kind == "facet"
        # the facet's supporting form is unique up to scale in full dimension
        assert verdict.form == form
        # dropping one vertex of a square-or-bigger facet face breaks it,
        # while a simplicial facet degrades to a smaller face
        sub = sorted(tight)[:-1]
        subverdict = ph.is_face(v, sub)
        if kind == "cube":
            assert subverdict.kind == "not_face"
        else:
            assert subverdict.kind == "proper_face"
            assert subverdict.dimension == len(sub) - 1
        # a facet plus any outside vertex is never a face
        extra = next(k for k in range(npts) if k not in tight)
        assert ph.is_face(v, sorted(tight) + [extra]).kind == "not_face"


def _hull_facets(v) -> dict:
    """{tight bitmask: form} of the hull's facets: the double description's
    answer, independent of is_face's routes."""
    h, pairs = ph._hull_with_masks(v)
    return {mask: form for (_, mask), form in zip(pairs, h.inequalities)}


def _indices(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@pytest.mark.parametrize("v", [omega_core.reduced_vertex_vrep(3),
                               ph.regular_polytope("cube", 3),
                               ph.regular_polytope("cross", 3)],
                         ids=["n3", "cube3", "cross3"])
def test_is_face_says_facet_exactly_on_hull_tight_sets(v, monkeypatch):
    # a facet candidate is decided by the sign of its one hyperplane on
    # the outside points: "facet", with the hull's form, on every tight
    # set, and on no other nonempty proper subset.  No facet builds the
    # VRep's hull; the first subset that reaches the closure does
    facets = _hull_facets(v)
    hulls = _record_hulls(monkeypatch)
    npts = len(v.points)
    for mask in range(1, (1 << npts) - 1):
        before = len(hulls)
        verdict = ph.is_face(v, _indices(mask))
        assert (verdict.kind == "facet") == (mask in facets), mask
        if mask in facets:
            assert verdict == ph.FaceVerdict("facet", facets[mask], v.dim - 1)
            assert len(hulls) == before
    assert hulls == [v]


@pytest.mark.parametrize("n", [4, 5])
def test_is_face_near_each_hull_facet(n, monkeypatch):
    # each facet tight set T of n = 4 and n = 5 is a facet with the hull's
    # form, without the VRep's hull; T plus an outside point is no face;
    # T less a point spans the same hyperplane, which holds that point,
    # unless T is a simplex, whose faces are all faces.  A simplex facet
    # less a point is a face of dimension dim - 2, which only the closure
    # decides, from the hull that the first one builds; at n = 5 only the
    # first point of a simplex facet is dropped, to keep the test short
    v = omega_core.reduced_vertex_vrep(n)
    facets = _hull_facets(v)
    lps = _record_lps(monkeypatch)
    hulls = _record_hulls(monkeypatch)
    npts = len(v.points)
    for mask, form in facets.items():
        tight = _indices(mask)
        built = list(hulls)
        assert ph.is_face(v, tight) == ph.FaceVerdict("facet", form, v.dim - 1)
        for k in range(npts):
            if not mask >> k & 1:
                assert ph.is_face(v, sorted(tight + [k])).kind == "not_face"
        assert hulls == built
        simplex = len(tight) == v.dim
        dropped = tight[:1] if simplex and n == 5 else tight
        for k in dropped:
            verdict = ph.is_face(v, [j for j in tight if j != k])
            if simplex:
                assert (verdict.kind, verdict.dimension) == ("proper_face",
                                                             v.dim - 2)
                assert hulls == [v]
            else:
                assert verdict.kind == "not_face"
                assert hulls == built
    assert hulls == [v] and lps == []


def test_a_flat_polytope_takes_the_closure_on_every_facet(monkeypatch):
    # the 3-cube on the hyperplane x4 = x1 + 1 of Q^4 is not
    # full-dimensional, so no subset is a facet candidate: each of its 6
    # facets, of dimension 2 = affine rank - 1, is found by the closure,
    # from the one hull the first facet builds, with the hull's form, one
    # of many that support it
    v = ph.VRep(4, [p + (p[0] + 1,)
                    for p in ph.regular_polytope("cube", 3).points])
    facets = _hull_facets(v)
    lps = _record_lps(monkeypatch)
    hulls = _record_hulls(monkeypatch)
    assert ph.affine_rank(v) == 3
    forms = {}
    for mask in facets:
        verdict = ph.is_face(v, _indices(mask))
        assert (verdict.kind, verdict.dimension) == ("facet", 2)
        assert verdict.form == facets[mask]
        forms[tuple(_indices(mask))] = (verdict.form.coeffs, verdict.form.rhs)
    assert lps == [] and hulls == [v]
    assert forms == {(0, 1, 2, 3): ((1, 0, 0, 0), 0),
                     (4, 5, 6, 7): ((-1, 0, 0, 0), -1),
                     (0, 1, 4, 5): ((0, 1, 0, 0), 0),
                     (2, 3, 6, 7): ((0, -1, 0, 0), -1),
                     (0, 2, 4, 6): ((0, 0, 1, 0), 0),
                     (1, 3, 5, 7): ((0, 0, -1, 0), -1)}


def test_positive_verdict_forms_support_exactly():
    v = ph.regular_polytope("cross", 3)
    rng = random.Random(5)
    npts = len(v.points)
    for _ in range(20):
        sub = sorted(rng.sample(range(npts), rng.randint(1, npts - 1)))
        verdict = ph.is_face(v, sub)
        if verdict.kind in ("facet", "proper_face"):
            for k, p in enumerate(v.points):
                s = verdict.form.slack(p)
                assert s >= 0
                assert (s == 0) == (k in sub)


def _face_pin_queries():
    """Seeded is_face queries: cubes, cross-polytopes and simplices in
    dimensions 2-4, each coordinate scaled and shifted by non-integer
    rationals, on random subsets and on their hull's facet sets; then all
    28 n = 3 pair complements and every second n = 4 pair complement."""
    rng = random.Random(20261019)
    for kind in ("cube", "cross", "simplex"):
        for d in (2, 3, 4):
            scale = [Fraction(rng.choice((-5, -2, 3, 7)),
                              rng.choice((2, 3, 4))) for _ in range(d)]
            shift = [Fraction(rng.randint(-9, 9), rng.choice((2, 5, 6)))
                     for _ in range(d)]
            v = ph.VRep(d, [[s * x + t for x, s, t in zip(p, scale, shift)]
                            for p in ph.regular_polytope(kind, d).points])
            npts = len(v.points)
            for _ in range(8):
                yield v, rng.sample(range(npts), rng.randint(1, npts - 1))
            for form in ph.convex_hull_facets(v).inequalities[:3]:
                tight = [k for k, p in enumerate(v.points)
                         if form.slack(p) == 0]
                yield v, tight
                yield v, tight[1:]
    for n in (3, 4):
        v = omega_core.reduced_vertex_vrep(n)
        pairs = list(itertools.combinations(range(2 ** n), 2))
        for a, b in pairs if n == 3 else pairs[::2]:
            yield v, [k for k in range(2 ** n) if k not in (a, b)]


# sha256 over repr((kind, dimension, form)) of the verdicts of
# _face_pin_queries (a not_face verdict has form None); a proper face's
# form is the coprime sum of the hull facets that hold it
FACE_PIN_DIGEST = ("9d8c8975cbd159861e3e2e005b45348b"
                   "ad21f0e56a0a2099f8c88a3eb0e1a732")
# sha256 over repr((kind, dimension)) of the same verdicts: what a face
# is does not depend on which supporting form is returned for it
FACE_KIND_DIGEST = ("82c387ae32c2efa4deafcabad7069e3d"
                    "56db17f2c3e1ad84c64e7a31a1ee9f7c")


def test_is_face_verdicts_are_pinned():
    h, kind_h = hashlib.sha256(), hashlib.sha256()
    kinds = set()
    for v, subset in _face_pin_queries():
        verdict = ph.is_face(v, subset)
        kinds.add(verdict.kind)
        h.update(repr((verdict.kind, verdict.dimension,
                       verdict.form)).encode("ascii"))
        kind_h.update(repr((verdict.kind,
                            verdict.dimension)).encode("ascii"))
    assert kinds == {"facet", "proper_face", "not_face"}
    assert kind_h.hexdigest() == FACE_KIND_DIGEST
    assert h.hexdigest() == FACE_PIN_DIGEST


def _face_lattice(v):
    """Vertex bitmasks of the nonempty faces of the polytope of v, itself
    included: the facet masks of _hull_with_masks closed under
    intersection, since a face is the intersection of the facets that
    hold it (Kaibel & Pfetsch 2002)."""
    _, pairs = ph._hull_with_masks(v)
    faces = {(1 << len(v.points)) - 1}
    for _, mask in pairs:
        faces |= {face & mask for face in faces}
    faces.discard(0)
    return faces


def _f_vector(v, faces):
    """Face counts by dimension, each face ranked by integer RREF over
    the VRep's integer points."""
    pts = v._integers[0]
    counts = [0] * (v.dim + 1)
    for face in faces:
        counts[ph._int_affine_rank([p for k, p in enumerate(pts)
                                    if face >> k & 1])] += 1
    assert counts.pop() == 1  # the polytope itself, full-dimensional
    return tuple(counts)


# n: (f-vector, vertex triples that are faces, quadruples that are not).
# For n = 3 the polytope is simplicial (16 facets of 6 vertices in
# dimension 6), so its f-vector follows from f_0, f_1, f_2 by
# Dehn-Sommerville; for n = 4 the values were found by this closure.
FACE_LATTICE_PINS = {
    3: ((8, 28, 56, 68, 48, 16), 56, 2),
    4: ((16, 120, 560, 1780, 3872, 5592, 5060, 2600, 640, 56), 560, 40),
}


def _record_closures(monkeypatch) -> list:
    """Patch is_face's closure so that each subset that reaches it
    appends its sorted point indices to the returned list."""
    reached = []
    closure = ph._closure_form

    def recording_closure(v, idx):
        reached.append(tuple(idx))
        return closure(v, idx)

    monkeypatch.setattr(ph, "_closure_form", recording_closure)
    return reached


def _check_against_the_face_lp(v, masks, expected, monkeypatch) -> list:
    """is_face(v, S).is_face for the subset S of each mask, checked against
    the face LP oracle on each S that reaches the closure and against
    expected(mask), an independent answer, on each S the screens decide."""
    reached = _record_closures(monkeypatch)
    verdicts = []
    for mask in masks:
        subset = _indices(mask)
        before = len(reached)
        verdict = ph.is_face(v, subset).is_face
        if len(reached) > before:
            assert verdict == (face_lp(v, subset).optimum > 0), subset
        else:
            assert verdict == expected(mask), subset
        verdicts.append(verdict)
    assert 0 < len(reached) < len(verdicts)
    return verdicts


@pytest.mark.parametrize("n", sorted(FACE_LATTICE_PINS))
def test_face_lattice_is_pinned(n, monkeypatch):
    f_vector, triples, bad_quadruples = FACE_LATTICE_PINS[n]
    v = omega_core.reduced_vertex_vrep(n)
    faces = _face_lattice(v)
    assert _f_vector(v, faces) == f_vector
    assert len(faces) == sum(f_vector) + 1
    # Euler's relation for a polytope of even dimension d = n(n+1)/2
    assert sum((-1) ** k * f for k, f in enumerate(f_vector)) == 0
    # 2- and 3-neighborly: every pair and every triple of vertices is a
    # face, but not every quadruple
    npts = len(v.points)
    subsets = {size: [sum(1 << k for k in c)
                      for c in itertools.combinations(range(npts), size)]
               for size in (2, 3, 4)}
    assert all(s in faces for s in subsets[2])
    assert sum(s in faces for s in subsets[3]) == len(subsets[3]) == triples
    assert sum(s not in faces for s in subsets[4]) == bad_quadruples
    if n == 4:
        assert len(faces) == 20297
        masks = random.Random(0).sample(range(1, 1 << npts), 400)
    else:
        masks = range(1, 1 << npts)
    # is_face agrees with the face lattice, on every nonempty subset for
    # n = 3 and on 400 seeded ones, faces and non-faces, for n = 4: with
    # the face LP where it takes the closure, and with this lattice where
    # its screens decide
    verdicts = _check_against_the_face_lp(v, masks, faces.__contains__,
                                          monkeypatch)
    assert verdicts == [mask in faces for mask in masks]
    assert True in verdicts and False in verdicts


def test_the_lp_route_agrees_with_the_closure_for_five_parts(monkeypatch):
    # S is a face iff it equals the intersection of the facets holding it
    # (Kaibel & Pfetsch 2002).  Seeded subsets of the 32 vertices: a third
    # drawn at a random size, a third intersections of random facets
    # (faces), and a third such faces with one more vertex
    v = omega_core.reduced_vertex_vrep(5)
    facets = [mask for _, mask in ph._hull_with_masks(v)[1]]
    everything = (1 << 32) - 1
    rng = random.Random(5)
    masks = []
    while len(masks) < 600:
        if len(masks) % 3 == 0:
            mask = sum(1 << k for k in rng.sample(range(32),
                                                  rng.randint(1, 31)))
        else:
            mask = everything
            for facet in rng.sample(facets, rng.randint(2, 8)):
                mask &= facet
            if len(masks) % 3 == 2:
                mask |= 1 << rng.randrange(32)
        if mask:
            masks.append(mask)

    def closure(mask):
        out = everything
        for facet in facets:
            if facet & mask == mask:
                out &= facet
        return out

    # is_face takes this closure itself, so the face LP is the check
    # wherever it does; the closure checks the screens' verdicts
    verdicts = _check_against_the_face_lp(
        v, masks, lambda mask: closure(mask) == mask, monkeypatch)
    assert 100 < verdicts.count(True) < 500


# --- text format ---------------------------------------------------------------

def test_vrep_text_round_trip():
    v = ph.VRep(2, [(frac(1, 2), 0), (1, 1), (-3, frac(7, 5))])
    text = ph.vrep_to_text(v)
    assert "V-representation" in text
    assert "3 3 rational" in text
    back = ph.vrep_from_text(text)
    assert back == v


def test_hrep_text_round_trip_with_linearity():
    h = ph.convex_hull_facets(ph.VRep(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1)]))
    text = ph.hrep_to_text(h)
    assert text.splitlines()[1] == "linearity 1 1"
    back = ph.hrep_from_text(text)
    assert back == h


def test_vrep_text_rejects_rays():
    text = "V-representation\nbegin\n1 3 rational\n0 1 0\nend\n"
    with pytest.raises(ValueError):
        ph.vrep_from_text(text)


def test_hrep_text_parse_errors():
    with pytest.raises(ValueError):
        ph.hrep_from_text("H-representation\nbegin\n1 2 rational\n0\nend\n")
    with pytest.raises(ValueError):
        ph.hrep_from_text("nonsense\n")
    with pytest.raises(ValueError):
        ph.hrep_from_text("H-representation\nlinearity 1 5\nbegin\n"
                          "1 2 rational\n0 1\nend\n")
