import random
from fractions import Fraction

import pytest

from omegapoly import graph2p as g2
from omegapoly import neighborly, omega3_census
from omegapoly import omega_core as oc
from omegapoly import polyhedra as ph
from omegapoly.graph2p import Assignment, graph_from_json
from omegapoly.guards import ScaleGuardError


def test_coord_index_is_a_bijection():
    for n in (1, 2, 3):
        seen = [oc.coord_index(n, i, j, p, q) for (i, j, p, q) in oc.coord_tuples(n)]
        assert seen == list(range(oc.coord_count(n)))
    with pytest.raises(ValueError):
        oc.coord_index(2, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        oc.coord_index(2, 1, 3, 1, 1)
    with pytest.raises(ValueError):
        oc.coord_index(2, 1, 1, 0, 1)


def test_reduced_index_is_a_bijection():
    for n in (1, 2, 3, 5):
        seen = [oc.reduced_index(n, i, j) for (i, j) in oc.reduced_pairs(n)]
        assert seen == list(range(oc.reduced_count(n)))
    with pytest.raises(ValueError):
        oc.reduced_index(3, 2, 1)


def test_vertex_coordinates_follow_the_indicator_rule():
    x = oc.vertex_from_assignment(2, Assignment((1, 2)))
    assert x.coord(1, 1, 1, 1) == 1
    assert x.coord(2, 2, 2, 2) == 1
    assert x.coord(1, 2, 1, 2) == 1
    assert x.coord(2, 1, 2, 1) == 1
    # the remaining entries vanish, including the tempting diagonal one
    assert x.coord(1, 1, 2, 2) == 0
    assert sum(x.coords) == 4
    assert set(x.coords) == {0, 1}

    x = oc.vertex_from_assignment(1, Assignment((1,)))
    assert x.coords == (1, 0, 0, 0)

    with pytest.raises(ValueError):
        oc.vertex_from_assignment(3, Assignment((1, 2)))


def test_vertices_have_n_squared_ones():
    for n in (1, 2, 3, 4):
        for x in oc.all_vertices(n):
            assert sum(x.coords) == n * n


def test_vertices_satisfy_every_equality():
    for n in (1, 2, 3, 4, 5):
        for x in oc.all_vertices(n):
            assert oc.check_equalities(x).ok


def test_equality_report_pinpoints_a_flip():
    x = oc.vertex_from_assignment(2, Assignment((1, 2)))
    coords = list(x.coords)
    coords[oc.coord_index(2, 1, 1, 1, 2)] = Fraction(1)
    bad = oc.check_equalities(oc.OmegaPoint(2, coords=tuple(coords)))
    assert not bad.ok
    assert any(v.equation == 3 and v.indices == (1,) for v in bad.violations)
    # the flip also breaks block symmetry and a row sum
    eqs = {v.equation for v in bad.violations}
    assert 1 in eqs and 4 in eqs
    residuals = {v.residual for v in bad.violations}
    assert all(r != 0 for r in residuals)


def test_reduce_rejects_points_off_the_affine_hull():
    x = oc.vertex_from_assignment(2, Assignment((1, 1)))
    coords = list(x.coords)
    coords[0] = Fraction(1, 2)
    with pytest.raises(ValueError):
        oc.reduce_point(oc.OmegaPoint(2, tuple(coords)))


def test_reduce_lift_round_trip_on_vertices():
    for n in (1, 2, 3, 4):
        for a in oc.all_assignments(n):
            x = oc.vertex_from_assignment(n, a)
            r = oc.reduce_point(x)
            assert r == oc.reduced_vertex(n, a)
            assert oc.lift_point(r) == x


def test_lift_reduce_round_trip_on_random_rational_points():
    rng = random.Random(99)
    for n in (2, 3, 5):
        for _ in range(10):
            y = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                      for _ in range(oc.reduced_count(n)))
            r = oc.ReducedPoint(n, y)
            x = oc.lift_point(r)
            assert oc.check_equalities(x).ok
            assert oc.reduce_point(x) == r


def test_lift_hits_the_documented_block_formulas():
    r = oc.ReducedPoint(2, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 2)))
    x = oc.lift_point(r)
    assert x.coord(1, 1, 1, 1) == Fraction(1, 3)
    assert x.coord(1, 1, 2, 2) == Fraction(2, 3)
    assert x.coord(1, 1, 1, 2) == 0
    assert x.coord(1, 2, 1, 1) == Fraction(1, 7)
    assert x.coord(1, 2, 1, 2) == Fraction(1, 3) - Fraction(1, 7)
    assert x.coord(1, 2, 2, 1) == Fraction(1, 2) - Fraction(1, 7)
    assert x.coord(1, 2, 2, 2) == 1 - Fraction(1, 3) - Fraction(1, 2) + Fraction(1, 7)
    assert x.coord(2, 1, 2, 1) == x.coord(1, 2, 1, 2)


def test_centroid_reduces_to_quarters_and_halves():
    n = 3
    vs = oc.all_vertices(n)
    m = len(vs)
    coords = tuple(sum(v.coords[k] for v in vs) / m
                   for k in range(oc.coord_count(n)))
    r = oc.reduce_point(oc.OmegaPoint(n, coords))
    for (i, j) in oc.reduced_pairs(n):
        assert r.value(i, j) == (Fraction(1, 2) if i == j else Fraction(1, 4))


def test_independent_family_order_and_rank():
    fam = oc.independent_family(2)
    assert [a.choice for a in fam] == [(2, 2), (1, 2), (2, 1), (1, 1)]
    for n in (2, 3, 4, 5):
        fam = oc.independent_family(n)
        assert len(fam) == oc.reduced_count(n) + 1
        assert len(set(fam)) == len(fam)
        pts = [oc.reduced_vertex(n, a).y for a in fam]
        v = ph.VRep(oc.reduced_count(n), pts)
        assert ph.affine_rank(v) == oc.reduced_count(n)


def test_omega_dimension_matches_the_closed_form():
    for n in (2, 3, 4, 5):
        assert oc.omega_dimension(n) == n * (n + 1) // 2
    with pytest.raises(ValueError):
        oc.omega_dimension(1)


def test_reduced_vertex_vrep_shape():
    v = oc.reduced_vertex_vrep(3)
    assert v.dim == 6
    assert len(v.points) == 8
    assert ph.affine_rank(v) == 6


def test_reduced_bits_are_the_reduced_vertices_as_ints():
    # the census reads its tangent cone from these rows, so they must be
    # the VRep's points and the reduced vertices, as plain 0/1 ints
    for n in (1, 2, 3, 5):
        vrep = oc.reduced_vertex_vrep(n)
        for z, point in enumerate(vrep.points):
            bits = oc.reduced_bits(n, z)
            assert bits == point
            assert bits == oc.reduced_vertex(n, Assignment.from_code(n, z)).y
            assert {type(b) for b in bits} == {int}


def test_all_vertices_guard():
    with pytest.raises(ScaleGuardError) as err:
        oc.all_vertices(25)
    assert err.value.guard == "bruteforce"


def test_json_past_the_digit_limit_is_refused_in_a_line_of_its_own():
    with pytest.raises(ValueError) as err:
        graph_from_json('{"n": %s, "missing_edges": []}' % ("9" * 5000))
    assert str(err.value).startswith("JSON holds an integer of over ")
    assert "set_int_max_str_digits" not in str(err.value)


@pytest.mark.parametrize("build", [oc.reduced_vertex, oc.vertex_from_assignment])
def test_an_n_past_the_digit_limit_is_named_in_the_part_count_message(build):
    # n is echoed by _shown, so a 5,001-digit n does not hit Python's
    # int-to-str limit in place of the function's own message
    with pytest.raises(ValueError) as err:
        build(10 ** 5000, Assignment((1,)))
    msg = str(err.value)
    assert msg.startswith("assignment has 1 parts, expected an integer of ")
    assert "\n" not in msg and len(msg) < 200


@pytest.mark.parametrize("call, message", [
    (lambda huge: oc.vertex_from_assignment(2, Assignment((1, 2))).coord(
        huge, 1, 1, 1),
     "parts (an integer of over 4300 digits, 1) out of range 1..2"),
    (lambda huge: oc.coord_index(huge, 1, 0, 1, 1),
     "parts (1, 0) out of range 1..an integer of over 4300 digits"),
    (lambda huge: oc.OmegaPoint(huge, ()),
     "expected an integer of over 4300 digits coordinates, got 0"),
    (lambda huge: oc.ReducedPoint(huge, ()),
     "expected an integer of over 4300 digits reduced coordinates, got 0"),
    (lambda huge: oc.reduced_index(2, 1, huge),
     "need 1 <= i <= j <= n, got (1, an integer of over 4300 digits)"),
], ids=["coord", "coord_index", "OmegaPoint", "ReducedPoint", "reduced_index"])
def test_an_int_past_the_digit_limit_is_named_in_the_index_messages(call,
                                                                   message):
    # the caller's ints are echoed by _shown, not formatted with %d
    with pytest.raises(ValueError) as err:
        call(10 ** 5000)
    assert str(err.value) == message


def test_a_vertex_code_round_trips_in_assignment_order():
    # code k is the k-th assignment, part 1 the top bit
    for n in (1, 3, 5):
        assigns = oc.all_assignments(n)
        assert [a.code for a in assigns] == list(range(1 << n))
        assert all(Assignment.from_code(n, a.code) == a for a in assigns)
        assert assigns == sorted(assigns)
    assert Assignment((2, 1, 1)).code == 4 and Assignment((1, 1, 2)).code == 1
    for code in (-1, 8):
        with pytest.raises(ValueError):
            Assignment.from_code(3, code)


_A, _B = Assignment((1, 2)), Assignment((2, 2))
_SQUARE = ph.regular_polytope("cube", 2)

# each entry point that takes a count: its name in the count rule's
# messages, a call on the count x, the argument's name and its least value
_COUNTED = [
    ("all_assignments", oc.all_assignments, "n", 1),
    ("all_vertices", oc.all_vertices, "n", 1),
    ("reduced_vertex_vrep", oc.reduced_vertex_vrep, "n", 1),
    ("vertex_from_assignment", lambda x: oc.vertex_from_assignment(x, _A),
     "n", 1),
    ("reduced_vertex", lambda x: oc.reduced_vertex(x, _A), "n", 1),
    ("independent_family", oc.independent_family, "n", 1),
    ("OmegaPoint", lambda x: oc.OmegaPoint(x, ()), "n", 1),
    ("ReducedPoint", lambda x: oc.ReducedPoint(x, ()), "n", 1),
    ("omega_dimension", oc.omega_dimension, "n", 2),
    ("facet_census", omega3_census.facet_census, "n", 2),
    ("edges_via_hull", omega3_census.edges_via_hull, "n", 2),
    ("edge_certificate", lambda x: neighborly.edge_certificate(x, _A, _B),
     "n", 2),
    ("Assignment.from_code", lambda x: Assignment.from_code(x, 0), "n", 1),
    ("Assignment.from_code", lambda x: Assignment.from_code(2, x),
     "vertex code", 0),
    ("coord_index", lambda x: oc.coord_index(x, 1, 1, 1, 1), "n", 1),
    ("reduced_index", lambda x: oc.reduced_index(x, 1, 1), "n", 1),
    ("VRep", lambda x: ph.VRep(x, []), "dim", 1),
    ("HRep", lambda x: ph.HRep(x, (), ()), "dim", 1),
    ("regular_polytope", lambda x: ph.regular_polytope("cube", x), "d", 1),
    ("convex_hull_facets",
     lambda x: ph.convex_hull_facets(_SQUARE, max_dim=x), "max_dim", 1),
    ("convex_hull_facets",
     lambda x: ph.convex_hull_facets(_SQUARE, max_points=x), "max_points", 1),
]

# one below the least value, 0 and -1, where below it, for every entry
# point above
_BELOW_LEAST = [
    pytest.param(lambda f=f, x=x: f(x),
                 "%s: %s must be at least %d, got %d" % (what, name, least, x),
                 id="%s-%s-%d" % (what, name.replace(" ", "-"), x))
    for what, f, name, least in _COUNTED
    for x in sorted({least - 1, 0, -1}, reverse=True) if x < least]

# each upper bound of the count rule: the function it names, a call on
# the count x, the argument's name, the bound and the guard it trips
# (None for a plain ValueError)
_BOUNDED = [
    ("all_assignments", lambda x: oc.all_assignments(x, 3), "n", 3,
     "bruteforce"),
    ("all_vertices", lambda x: oc.all_vertices(x, 3), "n", 3, "bruteforce"),
    ("reduced_vertex_vrep", lambda x: oc.reduced_vertex_vrep(x, 3), "n", 3,
     "bruteforce"),
    ("omega_dimension", lambda x: oc.omega_dimension(x, 3), "n", 3,
     "bruteforce"),
    ("edge_certificate", lambda x: neighborly.edge_certificate(
        x, Assignment((1,) * x), Assignment((2,) * x), 3), "n", 3,
     "bruteforce"),
    ("verify_certificate", lambda x: neighborly.verify_certificate(
        neighborly.edge_certificate(x, Assignment((1,) * x),
                                    Assignment((2,) * x), x), 3), "n", 3,
     "bruteforce"),
    ("enumerate_cliques",
     lambda x: g2.enumerate_cliques(g2.complete_graph(x), 3), "n", 3,
     "bruteforce"),
    ("Graph2P", g2.Graph2P, "n", 10000, "graph-parts"),
    ("solve_2sat", lambda x: g2.solve_2sat(x, ()), "num_vars", 10000,
     "graph-parts"),
    ("graph_from_dict",
     lambda x: g2.graph_from_dict({"n": x, "missing_edges": []}), "n", 10000,
     "graph-parts"),
    ("facet_census", lambda x: omega3_census.facet_census(
        x, include_orbits=False, allow_large=True), "n", 5, "census-max"),
    ("facet_census", omega3_census.facet_census, "n without allow_large", 4,
     "census"),
    ("edges_via_hull", omega3_census.edges_via_hull, "n", 4, None),
    ("convex_hull_facets", lambda x: ph.convex_hull_facets(
        ph.regular_polytope("simplex", x), max_dim=3), "dim", 3, "hull-dim"),
    ("convex_hull_facets", lambda x: ph.convex_hull_facets(
        ph.VRep(2, [(k, k * k) for k in range(x)]), max_points=4),
     "point count", 4, "hull-points"),
]


def _refusal(guard, most, x, message):
    if guard is None:
        return ValueError(message)
    return ScaleGuardError(guard, most, x, message)


# the bound itself, then one past it, for every bound above: the call is
# accepted at the bound, and refused past it in one line, with the guard
# and the numbers on the exception
_PAST_MOST = [
    pytest.param(lambda f=f, most=most: (f(most), f(most + 1)),
                 _refusal(guard, most, most + 1,
                          "%s: %s must be at most %d, got %d"
                          % (what, name, most, most + 1)),
                 id="%s-%s-%d" % (what, name.replace(" ", "-"), most + 1))
    for what, f, name, most, guard in _BOUNDED]


@pytest.mark.parametrize("call, message", [
    (lambda: oc.all_assignments(3.0),
     "all_assignments: n and bound must be integers, got 3.0 and 20"),
    (lambda: oc.all_assignments(True),
     "all_assignments: n and bound must be integers, got True and 20"),
    (lambda: oc.all_assignments(2, 20.0),
     "all_assignments: n and bound must be integers, got 2 and 20.0"),
    (lambda: oc.all_vertices(2.0),
     "all_vertices: n and bound must be integers, got 2.0 and 20"),
    (lambda: oc.reduced_vertex_vrep(2.0),
     "reduced_vertex_vrep: n and bound must be integers, got 2.0 and 20"),
    (lambda: oc.omega_dimension(2.0),
     "omega_dimension: n and bound must be integers, got 2.0 and 20"),
    (lambda: omega3_census.facet_census(3.0),
     "facet_census: n must be an integer, got 3.0"),
    (lambda: omega3_census.edges_via_hull(3.0),
     "edges_via_hull: n must be an integer, got 3.0"),
    (lambda: omega3_census.facet_census("3"),
     "facet_census: n must be an integer, got '3'"),
    (lambda: omega3_census.facet_census(None),
     "facet_census: n must be an integer, got None"),
    (lambda: omega3_census.edges_via_hull("3"),
     "edges_via_hull: n must be an integer, got '3'"),
    (lambda: omega3_census.edges_via_hull(None),
     "edges_via_hull: n must be an integer, got None"),
    (lambda: oc.omega_dimension("3"),
     "omega_dimension: n and bound must be integers, got '3' and 20"),
    (lambda: oc.omega_dimension(None),
     "omega_dimension: n and bound must be integers, got None and 20"),
    (lambda: oc.reduced_vertex_vrep("3"),
     "reduced_vertex_vrep: n and bound must be integers, got '3' and 20"),
    (lambda: oc.reduced_vertex_vrep(None),
     "reduced_vertex_vrep: n and bound must be integers, got None and 20"),
    (lambda: neighborly.edge_certificate(2.0, _A, _B),
     "edge_certificate: n and bound must be integers, got 2.0 and 20"),
    (lambda: oc.independent_family(2.0),
     "independent_family: n must be an integer, got 2.0"),
    (lambda: oc.independent_family(True),
     "independent_family: n must be an integer, got True"),
    (lambda: oc.vertex_from_assignment(2.0, _A),
     "vertex_from_assignment: n must be an integer, got 2.0"),
    (lambda: oc.reduced_vertex(2.0, _A),
     "reduced_vertex: n must be an integer, got 2.0"),
    (lambda: Assignment.from_code(2, True),
     "Assignment.from_code: vertex code must be an integer, got True"),
    (lambda: Assignment.from_code(2, 1.0),
     "Assignment.from_code: vertex code must be an integer, got 1.0"),
    (lambda: Assignment.from_code(2.0, 1),
     "Assignment.from_code: n must be an integer, got 2.0"),
    (lambda: neighborly.edge_certificate("2", _A, _B),
     "edge_certificate: n and bound must be integers, got '2' and 20"),
    (lambda: neighborly.edge_certificate(None, _A, _B),
     "edge_certificate: n and bound must be integers, got None and 20"),
    (lambda: ph.VRep(2.0, [(0, 0)]), "VRep: dim must be an integer, got 2.0"),
    (lambda: ph.VRep("2", [(0, 0)]), "VRep: dim must be an integer, got '2'"),
    (lambda: ph.HRep(2.0, (), ()), "HRep: dim must be an integer, got 2.0"),
    (lambda: oc.OmegaPoint(2.0, (0,) * 16),
     "OmegaPoint: n must be an integer, got 2.0"),
    (lambda: oc.ReducedPoint(2.0, (0,) * 3),
     "ReducedPoint: n must be an integer, got 2.0"),
    (lambda: ph.regular_polytope("cube", True),
     "regular_polytope: d must be an integer, got True"),
    (lambda: ph.convex_hull_facets(_SQUARE, max_dim=15.0),
     "convex_hull_facets: max_dim must be an integer, got 15.0"),
    (lambda: ph.convex_hull_facets(_SQUARE, max_points=None),
     "convex_hull_facets: max_points must be an integer, got None"),
    (lambda: oc.coord_index(2.0, 1, 1, 1, 1),
     "coord_index: n must be an integer, got 2.0"),
    (lambda: oc.reduced_index(2.0, 1, 2),
     "reduced_index: n must be an integer, got 2.0"),
    (lambda: (Assignment.from_code(2, 3), Assignment.from_code(2, 4)),
     "Assignment.from_code: vertex code 4 out of range for 2 parts"),
    *_BELOW_LEAST,
    *_PAST_MOST,
], ids=["all_assignments", "all_assignments-bool", "all_assignments-bound",
        "all_vertices", "reduced_vertex_vrep", "omega_dimension",
        "facet_census", "edges_via_hull", "facet_census-str",
        "facet_census-none", "edges_via_hull-str", "edges_via_hull-none",
        "omega_dimension-str", "omega_dimension-none",
        "reduced_vertex_vrep-str", "reduced_vertex_vrep-none",
        "edge_certificate",
        "independent_family", "independent_family-bool",
        "vertex_from_assignment", "reduced_vertex", "from_code-bool",
        "from_code-float", "from_code-n", "edge_certificate-str",
        "edge_certificate-none", "VRep-float", "VRep-str", "HRep-float",
        "OmegaPoint-float", "ReducedPoint-float",
        "regular_polytope-bool", "convex_hull_facets-max_dim-float",
        "convex_hull_facets-max_points-none", "coord_index-float",
        "reduced_index-float", "from_code-code-4",
        *[param.id for param in _BELOW_LEAST + _PAST_MOST]])
def test_a_float_or_bool_part_count_is_refused_by_the_int_rule(call, message):
    # a float n failed in a shift or in range(), a bool ran as 1 part, a
    # str or None n failed in a comparison or a sum, and a negative n in
    # a shift, before the count rule; each refusal is one line that names
    # the function called, and a row past a bound also pins the exception's
    # type, guard, limit and requested value
    with pytest.raises(ValueError) as err:
        call()
    want = message if isinstance(message, ValueError) else ValueError(message)
    assert (type(err.value), str(err.value), vars(err.value)) == (
        type(want), str(want), vars(want))
