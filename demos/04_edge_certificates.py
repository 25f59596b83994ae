"""Why every pair of vertices spans an edge of the polytope.

For any two cliques a and b, weight the edge coordinates: 2 on edges
used by neither clique, 1 on one marked edge of each, 0 elsewhere.  The
resulting linear form is 1 exactly on the two chosen vertices and at
least 2 everywhere else, so the hyperplane F = 1 supports the polytope
in precisely conv(a, b).  Construction records F(a), F(b) and the
minimum over the other vertices from the closed form of F;
verify_certificate is the check, evaluating the weights at all 2^n
vertices.
"""

import itertools

from omegapoly import (
    Assignment, all_assignments, certificate_to_json, edge_certificate,
    edges_via_hull, verify_certificate,
)

a = Assignment((1, 2, 1))
b = Assignment((2, 2, 2))
cert = edge_certificate(3, a, b)
print("pair %s / %s" % (a, b))
print("marked edge of a:", cert.marked_a)
print("marked edge of b:", cert.marked_b)
print("F(a) = %d, F(b) = %d, min over the other 6 vertices = %d"
      % (cert.f_a, cert.f_b, cert.min_other))
print("independent re-check:", verify_certificate(cert))

print("\nweights (i > j, only the nonzero ones):")
for key in sorted(cert.alpha):
    if cert.alpha[key]:
        print("  X[%d,%d,%d,%d] -> %d" % (key + (cert.alpha[key],)))

# every pair, a few part counts
for n in (2, 3, 4, 5):
    pairs = list(itertools.combinations(all_assignments(n), 2))
    for x, y in pairs:
        c = edge_certificate(n, x, y)
        if not verify_certificate(c):
            raise SystemExit("certificate for %s, %s fails" % (x, y))
    print("n = %d: certified all %4d pairs" % (n, len(pairs)))

# the geometric cross-check reads the facet incidence instead
print("\n1-faces counted geometrically:",
      {n: edges_via_hull(n) for n in (2, 3)})

print("\ncertificate file format (n = 2 to keep it short):")
print(certificate_to_json(edge_certificate(2, Assignment((1, 1)),
                                           Assignment((2, 2)))))
