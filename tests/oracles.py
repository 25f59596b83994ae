"""Independent routes that the tests check the package against."""

from omegapoly.exact import _clear_matrix, _dot


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
