import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import omegapoly
from omegapoly import omega3_census as o3
from omegapoly import omega_core as oc
from omegapoly import polyhedra as ph
from omegapoly.graph2p import Assignment
from omegapoly.guards import ScaleGuardError
from oracles import (census_to_dict, generator_permutations,
                     switched_hypermetric_forms, symmetry_group, tight_masks)


def all3():
    return oc.all_assignments(3)


def pairs3():
    return list(itertools.combinations(all3(), 2))


# --- symmetries ----------------------------------------------------------

def test_symmetry_group_on_vertex_indices():
    for n, order in ((2, 8), (3, 48), (4, 384), (5, 3840)):
        for g in generator_permutations(n):
            assert sorted(g) == list(range(2 ** n))
            assert all(g[g[k]] == k for k in range(2 ** n))
        assert len(symmetry_group(n)) == order


def test_symmetries_act_bijectively_on_assignments():
    # the index generators are the part transpositions and the part-1
    # swap, read on the assignments themselves
    for n in range(2, 6):
        whole = oc.all_assignments(n)
        *transpositions, swap = generator_permutations(n)
        for t, g in enumerate(transpositions, start=1):
            for k, a in enumerate(whole):
                rho = list(a.choice)
                rho[t - 1], rho[t] = rho[t], rho[t - 1]
                assert whole[g[k]] == Assignment(tuple(rho))
        for k, a in enumerate(whole):
            assert whole[swap[k]] == Assignment((3 - a.rho(1),) + a.choice[1:])


def test_package_exports_resolve():
    names = omegapoly.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(omegapoly, name) is not None
    gone = {"Symmetry", "identity_symmetry", "all_symmetries",
            "apply_to_assignment", "apply_to_point", "apply_to_form",
            "form_to_reduced"}
    for module in (omegapoly, o3):
        assert not gone & set(dir(module))


# --- pair classification ----------------------------------------------------

def test_classify_pair_counts():
    kinds = {"disjoint": 0, "shared_edge": 0, "shared_vertex": 0}
    for a, b in pairs3():
        cls = o3.classify_pair(a, b)
        kinds[cls.kind] += 1
        assert len(cls.parts) == {"disjoint": 0, "shared_vertex": 1,
                                  "shared_edge": 2}[cls.kind]
        for i in cls.parts:
            assert a.rho(i) == b.rho(i)
    assert kinds == {"disjoint": 4, "shared_edge": 12, "shared_vertex": 12}


def test_classify_pair_validation():
    a = Assignment((1, 1, 1))
    with pytest.raises(ValueError):
        o3.classify_pair(a, a)
    with pytest.raises(ValueError):
        o3.classify_pair(Assignment((1, 1)), Assignment((2, 2)))


# --- the three cases --------------------------------------------------------

def coeff(form, i, j, p, q):
    return form.coeffs[oc.coord_index(3, i, j, p, q)]


def test_disjoint_form_is_the_two_clique_edge_sum():
    for a, b in pairs3():
        if o3.classify_pair(a, b).kind != "disjoint":
            continue
        form = o3.analyze_pair(a, b).form
        assert form.rhs == 1
        expect = {}
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            expect[(i, j, a.rho(i), a.rho(j))] = 1
            expect[(i, j, b.rho(i), b.rho(j))] = 1
        for (i, j, p, q) in oc.coord_tuples(3):
            assert coeff(form, i, j, p, q) == expect.get((i, j, p, q), 0)


def test_disjoint_representative_matches_the_written_out_equation():
    form = o3.analyze_pair(Assignment((1, 1, 1)), Assignment((2, 2, 2))).form
    ones = {(1, 2, 1, 1), (1, 3, 1, 1), (2, 3, 1, 1),
            (1, 2, 2, 2), (1, 3, 2, 2), (2, 3, 2, 2)}
    for (i, j, p, q) in oc.coord_tuples(3):
        assert coeff(form, i, j, p, q) == (1 if (i, j, p, q) in ones else 0)
    assert form.rhs == 1


def test_shared_edge_form_is_one_coordinate():
    for a, b in pairs3():
        cls = o3.classify_pair(a, b)
        if cls.kind != "shared_edge":
            continue
        form = o3.analyze_pair(a, b).form
        assert form.rhs == 0
        i, j = cls.parts
        for (ii, jj, p, q) in oc.coord_tuples(3):
            want = 1 if (ii, jj, p, q) == (i, j, a.rho(i), a.rho(j)) else 0
            assert coeff(form, ii, jj, p, q) == want


def test_shared_vertex_witness_values():
    for a, b in pairs3():
        if o3.classify_pair(a, b).kind != "shared_vertex":
            continue
        report = o3.analyze_pair(a, b)
        assert sorted(report.excluded_values) == [0, 2]
        assert list(report.other_values) == [1] * 6
        assert report.verdict.kind == "not_face"
        assert report.verdict.form is None


def test_analyze_pair_verdicts_by_class():
    for a, b in pairs3():
        report = o3.analyze_pair(a, b)
        kind = report.pair_class.kind
        if kind == "disjoint":
            assert report.verdict.kind == "facet"
            assert sorted(report.excluded_values) == [3, 3]
            assert list(report.other_values) == [1] * 6
        elif kind == "shared_edge":
            assert report.verdict.kind == "facet"
            assert sorted(report.excluded_values) == [1, 1]
            assert list(report.other_values) == [0] * 6
        else:
            assert report.verdict.kind == "not_face"


def test_analyze_pair_makes_one_face_test_per_pair(monkeypatch):
    # one is_face call per pair, on the six other vertices: a facet
    # candidate, which needs neither the hull nor an LP
    calls, hulls, lps = [], [], []
    real, hull, core = ph.is_face, ph._hull_with_masks, ph._int_lp

    def counting(vrep, subset):
        calls.append(tuple(subset))
        return real(vrep, subset)

    monkeypatch.setattr(ph, "is_face", counting)
    monkeypatch.setattr(ph, "_hull_with_masks",
                        lambda v: hulls.append(v) or hull(v))
    monkeypatch.setattr(ph, "_int_lp", lambda *a: lps.append(a) or core(*a))
    for a, b in pairs3():
        o3.analyze_pair(a, b)
    assert len(calls) == 28 and len(set(calls)) == 28
    assert hulls == [] and lps == []


# --- census -------------------------------------------------------------------

def test_census_two_parts_is_a_simplex():
    report = o3.facet_census(2)
    assert report.facet_count == 4
    assert report.per_vertex_incidence == 3
    assert all(rec.vertices_on == 3 for rec in report.facets)
    assert [o.size for o in report.orbits] == [4]
    assert report.orbits[0].representative == 0


def test_census_three_parts():
    report = o3.facet_census(3)
    assert report.facet_count == 16
    assert report.per_vertex_incidence == 12
    assert all(rec.vertices_on == 6 for rec in report.facets)
    sizes = sorted(o.size for o in report.orbits)
    assert sizes == [4, 12]
    assert sum(sizes) == report.facet_count
    # tight sets really are tight sets of the facet forms
    vrep = oc.reduced_vertex_vrep(3)
    assigns = all3()
    for rec in report.facets:
        tight = {assigns[k] for k, p in enumerate(vrep.points)
                 if rec.form.slack(p) == 0}
        assert tight == set(rec.tight)


def test_census_refuses_a_form_action_off_the_tangent_cone(monkeypatch):
    # a group image that lands on the mask of a facet through the base
    # vertex must be the form the double description gave that facet; a
    # part-1 swap that keeps the rhs gives another one
    actions = o3._form_actions

    def wrong_rhs(n):
        *transpositions, swap = actions(n)
        return transpositions + [lambda form: swap(form)[:-1] + form[-1:]]

    assert [(o.size, o.representative)
            for o in o3.facet_census(3).orbits] == [(12, 0), (4, 2)]
    monkeypatch.setattr(o3, "_form_actions", wrong_rhs)
    with pytest.raises(RuntimeError, match="not its tangent cone form"):
        o3.facet_census(3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_equals_the_full_hull(n):
    # the tangent cone at any base vertex, closed under the group, gives
    # the forms, masks and order of the DD over all the points, and the
    # same orbits: every base for n <= 4, a few for n = 5
    hrep, hull = ph._hull_with_masks(oc.reduced_vertex_vrep(n))
    report = o3.facet_census(n, allow_large=True)
    assert [(rec.form, sum(1 << a.code for a in rec.tight))
            for rec in report.facets] == [(ph._int_form(form), mask)
                                          for form, mask in hull]
    for base in range(1 << n) if n <= 4 else (0, 10, 21, 31):
        facets, orbit_of = o3._census_facets(n, base)
        assert facets == hull
        assert o3._orbit_records(orbit_of) == report.orbits


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_records_derive_their_views_from_the_ints(n):
    # a record keeps the coprime int form and the tight mask; form, tight
    # and vertices_on are read from them, and the mask is exactly the
    # set of vertices the form is tight on
    report = o3.facet_census(n, allow_large=True)
    points = oc.reduced_vertex_vrep(n).points
    assigns = oc.all_assignments(n)
    for rec in report.facets:
        *coeffs, rhs = rec.int_form
        assert all(type(c) is int for c in rec.int_form)
        assert math.gcd(*rec.int_form) == 1
        assert rec.form == ph.LinearForm(tuple(map(Fraction, coeffs)),
                                         Fraction(rhs))
        assert rec.tight == tuple(a for k, a in enumerate(assigns)
                                  if rec.mask >> k & 1)
        slacks = [rec.form.slack(p) for p in points]
        assert min(slacks) == 0
        assert rec.mask == sum(1 << k for k, t in enumerate(slacks) if t == 0)
        assert rec.vertices_on == len(rec.tight) == rec.mask.bit_count()
        assert rec.n == n


def test_census_runs_on_the_even_parts_vertex(monkeypatch):
    # rho(i) = 2 on exactly the even parts; at n = 5 that is code 10, the
    # fourth cheapest of the 32 tangent cones and the only one pinned
    assert [o3._base_code(n) for n in (2, 3, 4, 5)] == [1, 2, 5, 10]
    bases = []
    route = o3._census_facets

    def recorded(n, base):
        bases.append((n, base))
        return route(n, base)

    monkeypatch.setattr(o3, "_census_facets", recorded)
    for n in (2, 3, 4, 5):
        o3.facet_census(n, allow_large=True)
    assert bases == [(2, 1), (3, 2), (4, 5), (5, 10)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_orbits_are_the_group_orbits_of_the_forms(n):
    # orbits from the forms alone: tight sets by evaluation, and each
    # orbit as the images of its first member under the whole group
    report = o3.facet_census(n, allow_large=True)
    masks = tight_masks([rec.form for rec in report.facets],
                        oc.reduced_vertex_vrep(n))
    index = {mask: k for k, mask in enumerate(masks)}
    orbits, seen = [], set()
    for k, mask in enumerate(masks):
        if k in seen:
            continue
        members = {index[sum(1 << g[b] for b in range(1 << n)
                             if mask >> b & 1)] for g in symmetry_group(n)}
        seen |= members
        orbits.append(o3.OrbitRecord(len(members), k))
    assert tuple(orbits) == report.orbits


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_form_actions_follow_the_delta_swaps(n):
    # each generator acts on forms as an involution that keeps the gcd,
    # and takes every facet form to a facet form tight on exactly the
    # delta-swapped mask
    facets, _ = o3._census_facets(n, o3._base_code(n))
    forms = {form for form, _ in facets}
    vrep = oc.reduced_vertex_vrep(n)
    rng = random.Random(n)
    for (shift, select), act in zip(o3._orbit_generators(n),
                                    o3._form_actions(n)):
        for _ in range(50):
            form = tuple(rng.randint(-9, 9)
                         for _ in range(oc.reduced_count(n) + 1))
            assert act(act(form)) == form
            assert math.gcd(*act(form)) == math.gcd(*form)
        for form, mask in facets:
            image = act(form)
            assert act(image) == form and image in forms
            moved = ((mask >> shift) ^ mask) & select
            assert tight_masks([ph._int_form(image)], vrep) == [
                mask ^ moved ^ (moved << shift)]


# hypermetric types b with sum 1: triangle, pentagonal and the n = 5 one
HYPERMETRIC_TYPES = ((1, 1, -1), (1, 1, 1, -1, -1), (2, 1, 1, -1, -1, -1))


@pytest.mark.parametrize("n, sizes", [(3, [16]), (4, [40, 16]),
                                      (5, [80, 96, 192])])
def test_census_is_the_switched_hypermetric_family(n, sizes):
    # every facet for n <= 5 is a switched hypermetric inequality on the
    # n + 1 nodes of the cut polytope, and every such inequality of these
    # types is a facet (Deza & Laurent); past n = 5 that stops holding
    families = [switched_hypermetric_forms(n, b) for b in HYPERMETRIC_TYPES
                if len(b) <= n + 1]
    assert [len(family) for family in families] == sizes
    report = o3.facet_census(n, allow_large=True)
    assert set().union(*families) == {(*rec.form.coeffs, rec.form.rhs)
                                      for rec in report.facets}


def test_census_orbits_optional():
    report = o3.facet_census(2, include_orbits=False)
    assert report.orbits is None
    obj = json.loads(o3.census_to_json(report))
    assert "orbits" not in obj


def to_reduced(form):
    """The reduced-space form that agrees with a full-space form on the
    polytope, read off its values on independent_family(3): the all-twos
    vertex gives the constant c0, the vertex with part i alone at 1 gives
    c0 + c_ii, and the one with parts i and j at 1 gives
    c0 + c_ii + c_jj + c_ij."""
    fam = oc.independent_family(3)
    vals = [form.value(oc.vertex_from_assignment(3, a).coords) for a in fam]
    c0 = vals[0]
    coeffs = [None] * oc.reduced_count(3)
    for i in range(1, 4):
        coeffs[oc.reduced_index(3, i, i)] = vals[i] - c0
    for (i, j), val in zip(itertools.combinations(range(1, 4), 2), vals[4:]):
        coeffs[oc.reduced_index(3, i, j)] = (
            val - c0 - coeffs[oc.reduced_index(3, i, i)]
            - coeffs[oc.reduced_index(3, j, j)])
    return ph.LinearForm(tuple(coeffs), form.rhs - c0)


def test_census_forms_match_the_case_analysis():
    report = o3.facet_census(3)
    census_forms = {(rec.form.coeffs, rec.form.rhs) for rec in report.facets}

    case_forms = set()
    for a, b in pairs3():
        report = o3.analyze_pair(a, b)
        if report.pair_class.kind == "shared_vertex":
            continue
        red = to_reduced(report.form)
        norm = ph._coprime_form(
            ph._clear_matrix([(*red.coeffs, red.rhs)])[0][0])
        case_forms.add((norm.coeffs, norm.rhs))

    assert case_forms == census_forms


def test_census_is_deterministic():
    a = o3.census_to_json(o3.facet_census(3))
    b = o3.census_to_json(o3.facet_census(3))
    assert a == b


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_json_is_the_indented_dump(n):
    # census_to_json writes the bytes itself; json.dumps with indent=1 is
    # the reference, with and without orbits
    for orbits in (True, False):
        report = o3.facet_census(n, allow_large=True, include_orbits=orbits)
        assert o3.census_to_json(report) == json.dumps(
            census_to_dict(report), indent=1)
    empty = o3.CensusReport(n, (), 0, 0, ())
    assert o3.census_to_json(empty) == json.dumps(census_to_dict(empty),
                                                  indent=1)


def test_census_five_parts_opt_in():
    report = o3.facet_census(5, allow_large=True)
    assert report.facet_count == 368
    assert report.per_vertex_incidence == 210
    assert sorted({rec.vertices_on for rec in report.facets}) == [15, 20, 24]
    sizes = sorted(o.size for o in report.orbits)
    assert sizes == [16, 32, 40, 40, 80, 160]
    assert sum(sizes) == report.facet_count


def test_census_guards():
    with pytest.raises(ValueError):
        o3.facet_census(1)
    with pytest.raises(ScaleGuardError) as err:
        o3.facet_census(5)
    assert err.value.guard == "census"
    assert "allow_large" in str(err.value)
    with pytest.raises(ScaleGuardError):
        o3.facet_census(6, allow_large=True)


def test_census_json_layout():
    obj = json.loads(o3.census_to_json(o3.facet_census(2)))
    assert obj["n"] == 2
    assert obj["facet_count"] == 4
    assert obj["per_vertex_incidence"] == 3
    assert len(obj["facets"]) == 4
    for rec in obj["facets"]:
        assert set(rec) == {"coeffs", "rhs", "vertices_on"}
        assert len(rec["coeffs"]) == 3
        Fraction(rec["rhs"])  # parses
    assert obj["orbits"] == [{"size": 4, "representative": 0}]
