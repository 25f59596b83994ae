"""Independent routes that the tests check the package against."""

from omegapoly.exact import _clear_matrix, _dot
from omegapoly.omega3_census import _orbit_generators


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
