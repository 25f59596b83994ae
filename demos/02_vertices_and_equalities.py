"""The polytope's vertices and the equalities its points satisfy.

Each clique (one vertex per part) becomes a 0/1 point in 4n^2
coordinates X[i,j,p,q].  Four families of linear equalities pin the
affine hull; check_equalities evaluates every instance exactly, and
reduce/lift move between full coordinates and the n(n+1)/2 that matter:
a fractional y lifts to a point of the affine hull and reduces back.
"""

from fractions import Fraction

from omegapoly import (
    Assignment, OmegaPoint, ReducedPoint, all_assignments, check_equalities,
    lift_point, reduce_point, reduced_vertex, vertex_from_assignment,
)
from omegapoly.omega_core import coord_index, coord_tuples

n = 2
a = Assignment((1, 2))
x = vertex_from_assignment(n, a)
print("vertex of assignment %s, nonzero coordinates:" % a)
for (i, j, p, q) in coord_tuples(n):
    v = x.coord(i, j, p, q)
    if v != 0:
        print("  X[%d,%d,%d,%d] = %s" % (i, j, p, q, v))

report = check_equalities(x)
print("\nequality check on the vertex: ok =", report.ok)

# break one coordinate and watch the report name the equations
coords = list(x.coords)
coords[coord_index(n, 1, 1, 1, 2)] = Fraction(1)
bad = check_equalities(OmegaPoint(n, tuple(coords)))
print("\nafter setting X[1,1,1,2] = 1: %d violations" % len(bad.violations))
for v in bad.violations:
    print("  equation (%d) at %s, residual %s" % (v.equation, v.indices, v.residual))

# reduced coordinates: y[i,j] = X[i,j,1,1] for i <= j
print("\nreduced coordinates of every 2-part vertex:")
for a in all_assignments(2):
    print("  %s -> %s" % (a, reduced_vertex(2, a).y))

# lift is total: any rational y gives the unique affine-hull point
if lift_point(reduce_point(x)) != x:
    raise SystemExit("lifting the reduced point does not give it back")
fractional = lift_point(
    ReducedPoint(2, (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5))))
print("\na fractional point on the affine hull:")
print("  y =", ", ".join(str(v) for v in reduce_point(fractional).y))
print("equalities still hold:", check_equalities(fractional).ok)
