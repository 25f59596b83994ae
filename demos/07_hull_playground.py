"""The exact geometry engine on its own: hulls, LPs, face tests, text IO.

Everything below is general-purpose: points in, facets out, all over
fractions.Fraction with no floating point anywhere.
"""

from fractions import Fraction

from omegapoly import (
    HRep, VRep, convex_hull_facets, hrep_to_text, is_face, linear_form,
    lp_solve, regular_polytope, vrep_from_text, vrep_to_text,
)

# facet counts of the standard fixtures
for kind in ("simplex", "cube", "cross"):
    counts = [len(convex_hull_facets(regular_polytope(kind, d)).inequalities)
              for d in range(2, 7)]
    print("%-8s d = 2..6 -> facets %s" % (kind, counts))

# a flat polytope: the hull reports the affine hull as equalities
square_in_plane = VRep(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
h = convex_hull_facets(square_in_plane)
print("\nsquare inside the z = 1 plane:")
print(hrep_to_text(h))

# exact LP over the unit square, fractional data welcome
square = convex_hull_facets(regular_polytope("cube", 2))
res = lp_solve(linear_form([Fraction(1, 3), 1], 0), square, "max")
print("max x/3 + y over the square: %s at %s" % (res.optimum, res.argument))
print("dual multipliers:", res.dual)

# face tests: vertices and edges of the square are faces, a diagonal is not
v = regular_polytope("cube", 2)   # (0,0), (0,1), (1,0), (1,1)
for subset, label in (((0,), "corner"), ((0, 1), "left edge"),
                      ((0, 3), "diagonal"), ((0, 1, 2, 3), "everything")):
    verdict = is_face(v, subset)
    print("%-10s -> %s" % (label, verdict.kind))

# cdd-style text round trips
text = vrep_to_text(regular_polytope("simplex", 2))
print("\nV-representation text:")
print(text)
if vrep_from_text(text) != regular_polytope("simplex", 2):
    raise SystemExit("the V-representation text does not read back")
