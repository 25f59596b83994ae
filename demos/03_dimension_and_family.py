"""Dimension of the polytope, computed and witnessed.

The affine hull of the 2^n vertices has dimension n(n+1)/2.  The upper
bound comes out of the equalities; the lower bound is witnessed by an
explicit family of n(n+1)/2 + 1 affinely independent vertices, not by
rank luck.
"""

from omegapoly import (
    VRep, affine_rank, independent_family, omega_dimension,
    vertex_from_assignment,
)
from omegapoly.omega_core import coord_count

for n in range(2, 7):
    dim = omega_dimension(n)
    print("n = %d: affine dimension %2d = n(n+1)/2" % (n, dim))
    if dim != n * (n + 1) // 2:
        raise SystemExit("n = %d: dimension %d is not n(n+1)/2" % (n, dim))

n = 4
fam = independent_family(n)
print("\nwitness family for n = %d (%d assignments):" % (n, len(fam)))
print("  all twos:      ", fam[0])
print("  single ones:   ", ", ".join(str(a) for a in fam[1:n + 1]))
print("  pairs of ones: ", ", ".join(str(a) for a in fam[n + 1:]))

pts = [vertex_from_assignment(n, a).coords for a in fam]
rank = affine_rank(VRep(coord_count(n), pts))
print("affine rank of the family: %d (need %d)" % (rank, n * (n + 1) // 2))
if rank != n * (n + 1) // 2:
    raise SystemExit("the family has affine rank %d, not n(n+1)/2" % (rank,))
