"""The three-part case analysis: which six-vertex sets are facets.

Remove two of the eight vertices and ask whether the remaining six form
a face.  The answer depends only on how many parts the removed pair
agrees on, and each case carries an explicit linear form:

  0 agreeing parts: facet; six edge coordinates sum to 1 on the six
  2 agreeing parts: facet; a single edge coordinate vanishes on the six
  1 agreeing part:  not a face; a witness form pins the six at value 1
                    while the removed pair evaluates to 0 and 2
"""

import itertools

from omegapoly import all_assignments, analyze_pair, classify_pair
from omegapoly.omega_core import coord_index, coord_tuples

pairs = list(itertools.combinations(all_assignments(3), 2))
by_kind = {}
for a, b in pairs:
    by_kind.setdefault(classify_pair(a, b).kind, []).append((a, b))

print("28 vertex pairs fall into %d classes:" % len(by_kind))
for kind in ("disjoint", "shared_edge", "shared_vertex"):
    print("  %-13s %2d pairs" % (kind + ":", len(by_kind[kind])))


def show(form):
    terms = []
    for (i, j, p, q) in coord_tuples(3):
        c = form.coeffs[coord_index(3, i, j, p, q)]
        if c != 0:
            coef = "" if c == 1 else "%s " % c
            terms.append("%sX[%d%d,%d%d]" % (coef, i, j, p, q))
    return " + ".join(terms)


for kind in ("disjoint", "shared_edge", "shared_vertex"):
    a, b = by_kind[kind][0]
    report = analyze_pair(a, b)
    print("\n%s pair %s / %s" % (kind, a, b))
    print("  form: %s  (rhs %s)" % (show(report.form), report.form.rhs))
    print("  values on removed pair: %s, on the rest: %s"
          % ([str(v) for v in sorted(report.excluded_values)],
             sorted(str(v) for v in set(report.other_values))))
    # the six span a hyperplane: is_face decides them by the sides of
    # the removed pair
    print("  is_face verdict on the six: %s" % report.verdict.kind)
    if report.verdict.kind == "facet":
        print("  face dimension %d (ambient 6)" % report.verdict.dimension)

# tallies across all 28
facet_pairs = sum(1 for a, b in pairs
                  if analyze_pair(a, b).verdict.kind == "facet")
print("\n%d of 28 removed pairs leave a facet; the other %d leave no face"
      % (facet_pairs, len(pairs) - facet_pairs))
