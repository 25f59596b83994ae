"""Acceptance suite: one test per advertised guarantee, exact arithmetic
throughout, every tolerance zero.  Each test ends with a single printed
PASS line so a -s run reads as a checklist."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

from omegapoly import cli, graph2p, neighborly, omega3_census, omega_core, polyhedra
from omegapoly.graph2p import Assignment
from oracles import symmetry_group


def ok(line):
    print("PASS  " + line)


def test_all_vertices_satisfy_equalities_up_to_eight_parts():
    checked = 0
    for n in range(2, 9):
        for x in omega_core.all_vertices(n):
            report = omega_core.check_equalities(x)
            assert report.violations == ()
            checked += 1
    ok("vertex equalities: %d vertices over n = 2..8, zero violations"
       % checked)


def test_dimension_formula_and_independent_family_up_to_six_parts():
    for n in range(2, 7):
        expected = n * (n + 1) // 2
        assert omega_core.omega_dimension(n) == expected
        fam = omega_core.independent_family(n)
        assert len(fam) == expected + 1
        pts = [omega_core.vertex_from_assignment(n, a).coords for a in fam]
        rank = polyhedra.affine_rank(
            polyhedra.VRep(omega_core.coord_count(n), pts))
        assert rank == expected
    ok("dimension: n(n+1)/2 for n = 2..6, witnessed by independent families")


def test_every_vertex_pair_is_an_edge_certificates_and_geometry():
    pairs_done = 0
    for n in range(2, 7):
        for a, b in itertools.combinations(omega_core.all_assignments(n), 2):
            cert = neighborly.edge_certificate(n, a, b)
            assert cert.f_a == 1
            assert cert.f_b == 1
            assert cert.min_other >= 2
            assert neighborly.verify_certificate(cert)
            pairs_done += 1
    counts = {n: omega3_census.edges_via_hull(n) for n in (2, 3, 4, 5)}
    assert counts == {2: 6, 3: 28, 4: 120, 5: 496}
    ok("edges: %d certified pairs over n = 2..6; geometric counts %s"
       % (pairs_done, sorted(counts.values())))


def test_two_part_polytope_is_a_simplex():
    vrep = omega_core.reduced_vertex_vrep(2)
    assert vrep.dim == 3
    hrep = polyhedra.convex_hull_facets(vrep)
    assert len(hrep.inequalities) == 4
    assert hrep.equalities == ()
    ok("two parts: 4 reduced vertices give exactly 4 facets in dimension 3")


def test_three_part_case_analysis_all_pairs():
    group = symmetry_group(3)
    assigns = omega_core.all_assignments(3)
    index_of = {a: k for k, a in enumerate(assigns)}
    vertices = [omega_core.vertex_from_assignment(3, a) for a in assigns]
    counts = {"disjoint": 0, "shared_edge": 0, "shared_vertex": 0}
    facet_forms = {}
    for a, b in itertools.combinations(assigns, 2):
        report = omega3_census.analyze_pair(a, b)
        kind = report.pair_class.kind
        counts[kind] += 1
        if kind == "disjoint":
            assert report.verdict.kind == "facet"
            assert sorted(report.excluded_values) == [3, 3]
            assert list(report.other_values) == [1] * 6
        elif kind == "shared_edge":
            assert report.verdict.kind == "facet"
            assert sorted(report.excluded_values) == [1, 1]
            assert list(report.other_values) == [0] * 6
            nonzero = [c for c in report.form.coeffs if c != 0]
            assert nonzero == [1] and report.form.rhs == 0
        else:
            assert report.verdict.kind == "not_face"
            assert sorted(report.excluded_values) == [0, 2]
            assert list(report.other_values) == [1] * 6
            assert report.verdict.form is None
            # the witness is left out of the group check below: it fixes
            # j < k for the two disagreeing parts and which excluded
            # vertex sits at 0, so half of its images are another
            # (equally valid) witness
            continue
        facet_forms[frozenset((a, b))] = report.form
    # the two facet forms are written from the pair on the upper
    # coordinates X[i,j,p,q], i < j, and the group carries each onto the
    # one written for the image pair: a vertex permutation g moves each
    # upper coordinate to the one whose 0/1 column over the vertices is
    # its column permuted by g, so the image takes at vertex g[k] the
    # value the form takes at vertex k
    upper = [c for c, (i, j, _, _) in enumerate(omega_core.coord_tuples(3))
             if i < j]
    column = {c: tuple(v.coords[c] for v in vertices) for c in upper}
    coord_of = {col: c for c, col in column.items()}
    assert len(coord_of) == 12
    for form in facet_forms.values():
        assert all(x == 0 for c, x in enumerate(form.coeffs)
                   if c not in column)
    transported = 0
    for g in group:
        inverse = sorted(range(8), key=g.__getitem__)
        move = {c: coord_of[tuple(col[k] for k in inverse)]
                for c, col in column.items()}
        for pair, form in facet_forms.items():
            coeffs = [Fraction(0)] * len(form.coeffs)
            for c, m in move.items():
                coeffs[m] = form.coeffs[c]
            image = frozenset(assigns[g[index_of[z]]] for z in pair)
            assert polyhedra.LinearForm(tuple(coeffs), form.rhs) \
                == facet_forms[image]
            transported += 1
    assert counts == {"disjoint": 4, "shared_edge": 12, "shared_vertex": 12}
    assert len(group) == 48 and transported == 16 * 48
    ok("three-part cases: 4 disjoint facets, 12 vanishing-coordinate "
       "facets, 12 non-faces with 0/2/1 witnesses; %d facet forms match "
       "their group images" % transported)


def test_three_part_facets_six_of_eight_vertices_constant_incidence():
    report = omega3_census.facet_census(3)
    assert all(rec.vertices_on == 6 for rec in report.facets)
    assert report.per_vertex_incidence == 12
    ok("three-part structure: all %d facets contain 6 of 8 vertices, "
       "every vertex on %d facets"
       % (report.facet_count, report.per_vertex_incidence))


def _nullspace_vector(rows):
    """One nonzero rational solution of rows . c = 0, by plain elimination.

    Written out here so the oracle shares no code with the hull engine.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = next(c for c in range(ncols) if c not in pivots)
    sol = [Fraction(0)] * ncols
    sol[free] = Fraction(1)
    for row, c in zip(m, pivots):
        sol[c] = -row[free]
    return sol


def _oracle_facets_three_parts():
    """Exhaustive facet search: every hyperplane spanned by affinely
    independent vertices with the remaining vertices strictly one side."""
    vrep = omega_core.reduced_vertex_vrep(3)
    pts = vrep.points
    found = set()
    for sub in itertools.combinations(range(len(pts)), 7):
        # 7 points in a 5-flat are never affinely independent
        chosen = [pts[k] for k in sub]
        assert polyhedra.affine_rank(polyhedra.VRep(6, chosen)) == 6
    for sub in itertools.combinations(range(len(pts)), 6):
        chosen = [pts[k] for k in sub]
        if polyhedra.affine_rank(polyhedra.VRep(6, chosen)) != 5:
            continue
        base = chosen[0]
        rows = [[a - b for a, b in zip(p, base)] for p in chosen[1:]]
        c = _nullspace_vector(rows)
        rhs = sum(ci * xi for ci, xi in zip(c, base))
        rest = [pts[k] for k in range(len(pts)) if k not in sub]
        vals = [sum(ci * xi for ci, xi in zip(c, p)) - rhs for p in rest]
        if all(v > 0 for v in vals):
            pass
        elif all(v < 0 for v in vals):
            c = [-x for x in c]
            rhs = -rhs
        else:
            continue
        # positive scaling to coprime integers, orientation untouched
        from math import gcd
        nums = list(c) + [rhs]
        den = 1
        for x in nums:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in nums]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        found.add((tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])))
    return found


def test_census_matches_exhaustive_hyperplane_oracle_and_is_stable():
    r3a = omega3_census.facet_census(3)
    r3b = omega3_census.facet_census(3)
    assert omega3_census.census_to_json(r3a) == omega3_census.census_to_json(r3b)

    oracle = _oracle_facets_three_parts()
    census_forms = {(rec.form.coeffs, rec.form.rhs) for rec in r3a.facets}
    assert len(oracle) == r3a.facet_count
    assert oracle == census_forms

    r4a = omega3_census.facet_census(4)
    r4b = omega3_census.facet_census(4)
    assert omega3_census.census_to_json(r4a) == omega3_census.census_to_json(r4b)
    assert r4a.facet_count == len(r4a.facets)
    ok("census: n = 3 count %d equals the hyperplane oracle; n = 3 and "
       "n = 4 (%d facets) byte-stable across runs"
       % (r3a.facet_count, r4a.facet_count))


def test_regular_polytope_facet_counts():
    for d in range(2, 7):
        for kind, expect in (("simplex", d + 1), ("cube", 2 * d),
                             ("cross", 2 ** d)):
            v = polyhedra.regular_polytope(kind, d)
            h = polyhedra.convex_hull_facets(v)
            assert len(h.inequalities) == expect
    ok("fixtures: simplex/cube/cross facet counts d+1, 2d, 2^d for d = 2..6")


def test_clique_solver_agrees_with_brute_force_on_200_graphs():
    rng = random.Random(20260816)
    with_clique = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        missing = []
        for (i, j) in itertools.combinations(range(1, n + 1), 2):
            for p in (1, 2):
                for q in (1, 2):
                    if rng.random() < rng.choice((0.15, 0.35)):
                        missing.append(((i, p), (j, q)))
        g = graph2p.without_edges(graph2p.complete_graph(n), missing)
        cliques = graph2p.enumerate_cliques(g)
        found = graph2p.find_clique(g)
        if cliques:
            assert found is not None
            assert graph2p.is_clique(g, found)
            with_clique += 1
        else:
            assert found is None
    ok("2SAT: verdicts match brute force on 200 random graphs "
       "(%d satisfiable)" % with_clique)


def test_verify_output_is_reproducible(capsys):
    code1 = cli.main(["verify", "--n", "3"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "--n", "3"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "overall: PASS" in out1
    ok("determinism: verify --n 3 is byte-identical over two runs")


# sha256 of the stdout of the census orbits of every size and of the
# largest hull; a change here is a change to published results, not a
# refactoring
PINNED_STDOUT = {
    ("census", "--n", "2", "--orbits"):
        "a78bc4448dd8453e6a48979d58d248ee22b697af2d67e36bea7977cddd690698",
    ("census", "--n", "3", "--orbits"):
        "9c56dadb210d2fef5bfc8fecceac2303c34b86272ebc6b6fc40c9b0c407f5f54",
    ("census", "--n", "4", "--orbits"):
        "7bc340aae90924f12b6f621e44ece3ed40bf110f7866c1e6dcf5f21ed2307f0d",
    ("census", "--n", "5", "--allow-large", "--orbits"):
        "1693ceeea5c976ae41a6d5e244f8b029aaaba113fcd04efbc8e25857bd13faa4",
    ("hull", "--n", "5"):
        "7848549040fe169f58e07bed4c635141d5362f5dc10088cc4e277e08d9e9174a",
}


def test_five_part_census_and_hull_are_byte_identical(capsys):
    for argv, digest in PINNED_STDOUT.items():
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
    ok("pinned: census --n 2..5 --orbits and hull --n 5 stdout match "
       "their sha256 digests")
