"""Independent routes that the tests check the package against."""

import itertools
from math import gcd

from omegapoly.exact import _clear_matrix, _dot
from omegapoly.omega3_census import _orbit_generators
from omegapoly.polyhedra import HRep, linear_form, lp_solve


def tight_masks(forms, v):
    """For each form, the bitmask of the points of the VRep v it is tight on.

    Bit k is set iff coeffs . points[k] == rhs.  The points are read as
    v's integers Q / D over one common D and each form is scaled to
    integers (c, rhs), so the test c . Q_k == rhs * D is exact and runs on
    plain ints.  The double description finds the same masks from its
    rays, without the forms.
    """
    pts, den = v._integers
    masks = []
    for f in forms:
        if len(f.coeffs) != v.dim:
            raise ValueError("form has dimension %d, points have %d"
                             % (len(f.coeffs), v.dim))
        (ints,), _ = _clear_matrix([(*f.coeffs, f.rhs)])
        coeffs, rhs = ints[:-1], ints[-1] * den
        masks.append(sum(1 << k for k, p in enumerate(pts)
                         if _dot(coeffs, p) == rhs))
    return masks


def face_lp(v, subset):
    """The face LP of a nonempty proper subset S of the points of the VRep
    v, solved by the public lp_solve; S is a face iff its optimum is > 0.

    With s0 the first point of S in index order, it looks for a
    hyperplane f . x = f . s0 through S with every other point strictly
    on its positive side: maximize t over (f, t) subject to
    (p - s0) . f - t >= 0 for each point p outside S, then t <= 1, then
    (p - s0) . f = 0 for each other point p of S, in index order.  A
    positive optimum gives a supporting form tight exactly on S; optimum
    zero means no hyperplane through S leaves the rest on one side.  The
    rows are written on v's integers Q / D, so every row is scaled by
    D > 0, which moves neither the optimum nor a pivot.
    """
    inside = sorted(set(subset))
    pts, den = v._integers
    s0 = pts[inside[0]]
    d = v.dim

    def row(k, t):
        return linear_form([a - b for a, b in zip(pts[k], s0)] + [t], 0)

    outside = [row(k, -den) for k in range(len(pts)) if k not in inside]
    cap = linear_form([0] * d + [-den], -den)
    on = [row(k, 0) for k in inside[1:]]
    return lp_solve(linear_form([0] * d + [1], 0),
                    HRep(d + 1, (*outside, cap), tuple(on)))


def generator_permutations(n):
    """The census generators of _orbit_generators(n) as permutations of
    the vertex indices: k goes to the bit position of the delta swap
    image of 1 << k."""
    perms = []
    for shift, select in _orbit_generators(n):
        def image(mask):
            moved = ((mask >> shift) ^ mask) & select
            return mask ^ moved ^ (moved << shift)
        perms.append(tuple(image(1 << k).bit_length() - 1
                           for k in range(1 << n)))
    return perms


def symmetry_group(n):
    """Every product of the generator permutations, as tuples of vertex
    indices."""
    gens = generator_permutations(n)
    identity = tuple(range(1 << n))
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            hg = tuple(h[k] for k in g)
            if hg not in group:
                group.add(hg)
                frontier.append(hg)
    return group


def census_to_dict(report):
    """The census report as the dict that census_to_json writes: its
    json.dumps(..., indent=1) is the reference for the writer."""
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


def switched_hypermetric_forms(n, b):
    """The switched hypermetric inequalities of type b on the nodes 0..n,
    as coprime integer forms (c..., r) for c . y >= r in the reduced
    coordinates of n parts.

    b is zero-padded to n + 1 entries and placed on the nodes in every
    order.  Switching sum_{i<j} b_i b_j d_ij <= 0 by a node set S negates
    the terms of the pairs that S separates and moves their sum to the
    right: sum v_ij d_ij <= -sum_{ij in delta(S)} b_i b_j (Deza & Laurent,
    Geometry of Cuts and Metrics, 1997).  The covariance map reads the
    cut of code z off its reduced vertex as d_0i = y_ii and
    d_ij = y_ii + y_jj - 2 y_ij for parts i < j.
    """
    nodes = range(n + 1)
    pairs = list(itertools.combinations(nodes, 2))
    padded = tuple(b) + (0,) * (n + 1 - len(b))
    forms = set()
    for order in set(itertools.permutations(padded)):
        for switch in range(1 << (n + 1)):
            a = {}  # the left side sum v_ij d_ij over the reduced y[i,j]
            rhs = 0
            for i, j in pairs:
                w = order[i] * order[j]
                if (switch >> i ^ switch >> j) & 1:
                    w = -w
                    rhs += w
                if i == 0:
                    a[j, j] = a.get((j, j), 0) + w
                else:
                    a[i, i] = a.get((i, i), 0) + w
                    a[j, j] = a.get((j, j), 0) + w
                    a[i, j] = a.get((i, j), 0) - 2 * w
            form = [-a.get((i, j), 0) for i in range(1, n + 1)
                    for j in range(i, n + 1)] + [-rhs]
            g = gcd(*form)
            forms.add(tuple(x // g for x in form))
    return forms
