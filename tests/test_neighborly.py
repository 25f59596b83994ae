import itertools
import random

import pytest

from omegapoly import neighborly as nb
from omegapoly import omega3_census, polyhedra
from omegapoly.graph2p import Assignment, VertexRef
from omegapoly.guards import ScaleGuardError


def all_assignments(n):
    return [Assignment(c) for c in itertools.product((1, 2), repeat=n)]


def test_two_part_certificate_worked_example():
    a = Assignment((1, 1))
    b = Assignment((2, 2))
    c = nb.edge_certificate(2, a, b)
    assert c.alpha == {(2, 1, 1, 1): 1, (2, 1, 2, 2): 1,
                       (2, 1, 1, 2): 2, (2, 1, 2, 1): 2}
    assert c.f_a == 1 and c.f_b == 1 and c.min_other == 2
    assert nb.verify_certificate(c)


def test_marked_edges_are_deterministic():
    a = Assignment((1, 1, 1))
    b = Assignment((1, 1, 2))
    c = nb.edge_certificate(3, a, b)
    # first differing part is 3, partner part is 1, lower part first
    assert c.marked_a == (VertexRef(1, 1), VertexRef(3, 1))
    assert c.marked_b == (VertexRef(1, 1), VertexRef(3, 2))
    c2 = nb.edge_certificate(3, a, b)
    assert c2 == c

    b = Assignment((2, 1, 1))
    c = nb.edge_certificate(3, a, b)
    assert c.marked_a == (VertexRef(1, 1), VertexRef(2, 1))
    assert c.marked_b == (VertexRef(1, 2), VertexRef(2, 1))


def test_certificates_for_every_pair_small_n():
    for n in (2, 3, 4):
        allv = all_assignments(n)
        for a, b in itertools.combinations(allv, 2):
            c = nb.edge_certificate(n, a, b)
            assert c.f_a == 1 and c.f_b == 1 and c.min_other >= 2
            assert nb.verify_certificate(c)
            # the JSON layout lists each marked edge's lower part first
            assert _verifies(nb.certificate_to_dict(c))
            # weights only use the agreed menu
            assert set(c.alpha.values()) <= {0, 1, 2}


def _pair_codes(n, count=None, seed=0):
    """Every pair of distinct n-part codes, or count of them drawn by seed."""
    if count is None:
        return list(itertools.combinations(range(1 << n), 2))
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1 << n), 2)) for _ in range(count)]


@pytest.mark.parametrize("n, count", [(2, None), (3, None), (4, None),
                                      (5, None), (6, 60), (7, 40), (8, 20)])
def test_closed_form_equals_the_scan_of_alpha(n, count):
    # construction records the closed form; the scan of alpha at every
    # code, which verify_certificate runs, must give the same three values
    for a, b in _pair_codes(n, count, seed=n):
        c = nb.edge_certificate(n, Assignment.from_code(n, a),
                                Assignment.from_code(n, b))
        assert (nb._closed_form(n, a, b) == (c.f_a, c.f_b, c.min_other)
                == nb._evaluations(c.alpha, n, a, b)), (n, a, b)


def test_evaluate_alpha_is_linear_in_weights():
    a = Assignment((1, 2, 1))
    b = Assignment((2, 2, 2))
    c = nb.edge_certificate(3, a, b)
    doubled = {k: 2 * w for k, w in c.alpha.items()}
    for z in range(1 << 3):
        assert (nb.evaluate_alpha(doubled, 3, z)
                == 2 * nb.evaluate_alpha(c.alpha, 3, z))


def test_a_bool_entry_cannot_reach_a_certificate():
    # Assignment((True, 2)) once equalled Assignment((1, 2)), so its
    # certificate was built and written as "a": [true, 2], which
    # certificate_from_json then refused
    with pytest.raises(ValueError):
        nb.edge_certificate(2, Assignment((True, 2)), Assignment((2, 1)))
    obj = nb.certificate_to_dict(
        nb.edge_certificate(2, Assignment((1, 2)), Assignment((2, 1))))
    assert obj["a"] == [1, 2]
    with pytest.raises(ValueError) as info:
        nb.certificate_from_dict(dict(obj, a=[True, 2]))
    assert str(info.value) == '"a" holds true, not an integer'


def test_verify_rejects_tampered_certificates():
    from dataclasses import replace
    a = Assignment((1, 1, 1))
    b = Assignment((1, 1, 2))
    c = nb.edge_certificate(3, a, b)

    zeroed = replace(c, alpha={k: 0 for k in c.alpha})
    assert not nb.verify_certificate(zeroed)

    doubled = replace(c, alpha={k: 2 * w for k, w in c.alpha.items()})
    assert not nb.verify_certificate(doubled)

    # move the marked weight of a onto an edge both cliques share
    tampered = dict(c.alpha)
    assert tampered[(3, 1, 1, 1)] == 1
    tampered[(3, 1, 1, 1)] = 0
    tampered[(2, 1, 1, 1)] = 1
    assert not nb.verify_certificate(replace(c, alpha=tampered))

    assert not nb.verify_certificate(replace(c, b=c.a))


def test_certificate_argument_validation():
    a = Assignment((1, 1))
    with pytest.raises(ValueError):
        nb.edge_certificate(2, a, a)
    with pytest.raises(ValueError):
        nb.edge_certificate(2, a, Assignment((1, 2, 2)))
    with pytest.raises(ValueError):
        nb.edge_certificate(1, Assignment((1,)), Assignment((2,)))
    with pytest.raises(ScaleGuardError):
        nb.edge_certificate(25, Assignment((1,) * 25), Assignment((2,) * 25))


def test_geometric_edge_count_two_parts():
    # four vertices, every pair an edge
    assert omega3_census.edges_via_hull(2) == 6
    # the census reaches n = 5 and refuses n = 6 for the edge count too
    with pytest.raises(ScaleGuardError) as refused:
        omega3_census.edges_via_hull(6)
    assert refused.value.guard == "census-max"


@pytest.mark.parametrize("kind,d,edges", [("cube", 3, 12), ("cross", 3, 12),
                                          ("cube", 4, 32), ("cross", 4, 24)])
def test_geometric_edge_count_finds_non_edges(kind, d, edges):
    # the reduced polytopes are 2-neighborly, so use fixtures whose
    # diagonals are not edges to see the facet closure, which
    # edges_via_hull shares with is_face, say no
    v = polyhedra.regular_polytope(kind, d)
    pairs = itertools.combinations(range(len(v.points)), 2)
    assert sum(polyhedra.is_face(v, pair).is_face for pair in pairs) == edges


def test_certificate_json_round_trip():
    a = Assignment((1, 2, 1))
    b = Assignment((2, 1, 1))
    c = nb.edge_certificate(3, a, b)
    back = nb.certificate_from_json(nb.certificate_to_json(c))
    assert nb.verify_certificate(back)
    assert back.alpha == c.alpha
    assert back.a == c.a and back.b == c.b
    assert nb.certificate_to_dict(back) == nb.certificate_to_dict(c)
    # pairs differing in part 1 keep their marked tuples verbatim
    back2 = nb.certificate_from_dict(nb.certificate_to_dict(c))
    assert back2 == c


def test_certificate_json_round_trip_is_exact_for_every_pair():
    # a marked edge is stored lower part first, as the JSON lists it, so
    # reading a certificate back from its own JSON gives an equal one
    for n in (2, 3, 4):
        for a, b in itertools.combinations(all_assignments(n), 2):
            c = nb.edge_certificate(n, a, b)
            assert nb.certificate_from_json(nb.certificate_to_json(c)) == c
            assert all(u.part < v.part for u, v in (c.marked_a, c.marked_b))


def test_verify_accepts_a_mark_listed_higher_part_first():
    obj = _cert_dict()
    flipped = [edge[::-1] for edge in obj["marked"]]
    back = nb.certificate_from_dict(dict(obj, marked=flipped))
    assert back.marked_a == (VertexRef(2, 1), VertexRef(1, 1))
    assert nb.verify_certificate(back)
    assert nb.certificate_to_dict(back) == obj


@pytest.mark.parametrize("marked", [
    5, [], [[[1, 1], [2, 1]]], [[[1, 1], [2, 1]]] * 3, [[[1, 1]], [[1, 2]]],
    [[[1, 1], [2, 1], [3, 1]], [[1, 2], [2, 2]]],
    [[[1], [2, 1]], [[1, 2], [2, 2]]], [[5, [2, 1]], [[1, 2], [2, 2]]],
])
def test_certificate_from_dict_refuses_a_misshapen_mark(marked):
    obj = dict(_cert_dict(), marked=marked)
    with pytest.raises(ValueError) as info:
        nb.certificate_from_dict(obj)
    assert str(info.value).startswith('"marked" must be a list of 2 ')
    assert "\n" not in str(info.value)


def test_certificate_dict_layout():
    c = nb.edge_certificate(2, Assignment((1, 1)), Assignment((1, 2)))
    obj = nb.certificate_to_dict(c)
    assert obj["n"] == 2
    assert obj["a"] == [1, 1] and obj["b"] == [1, 2]
    assert obj["F_a"] == "1" and obj["F_b"] == "1"
    assert len(obj["alpha"]) == 4
    for ent in obj["alpha"]:
        assert set(ent) == {"i", "j", "p", "q", "w"}
        assert ent["i"] > ent["j"]


def _set_w(obj, w):
    obj["alpha"][0]["w"] = w


@pytest.mark.parametrize("edit, message", [
    (lambda o: _set_w(o, 1.7), 'alpha "w" holds 1.7, not an integer'),
    (lambda o: _set_w(o, True), 'alpha "w" holds true, not an integer'),
    (lambda o: o.pop("marked"), 'JSON input lacks "marked"'),
    (lambda o: o.__setitem__("n", True),
     "certificate_from_dict: n must be an integer, got True"),
    (lambda o: o.__setitem__("n", 3.0),
     "certificate_from_dict: n must be an integer, got 3.0"),
    (lambda o: o.__setitem__("a", [1, 1.0, 1]),
     '"a" holds 1.0, not an integer'),
    (lambda o: o.__setitem__("b", [2, True, 1]),
     '"b" holds true, not an integer'),
    (lambda o: o["marked"][0].__setitem__(1, [2, 1.0]),
     '"marked" holds 1.0, not an integer'),
    (lambda o: o["marked"][1].__setitem__(0, [1, False]),
     '"marked" holds false, not an integer'),
], ids=["float-w", "bool-w", "no-marked", "bool-n", "float-n", "float-a",
        "bool-b", "float-marked", "bool-marked"])
def test_certificate_from_dict_refuses_malformed_json(edit, message):
    # the JSON rules of convert: a missing key is named, and a float or
    # bool is refused instead of being truncated or read as an int
    c = nb.edge_certificate(3, Assignment((1, 1, 1)), Assignment((2, 2, 1)))
    obj = nb.certificate_to_dict(c)
    assert nb.certificate_from_dict(obj) == c
    edit(obj)
    with pytest.raises(ValueError) as info:
        nb.certificate_from_dict(obj)
    assert str(info.value) == message


def _cert_dict():
    c = nb.edge_certificate(3, Assignment((1, 1, 1)), Assignment((2, 2, 1)))
    return nb.certificate_to_dict(c)


def _verifies(obj):
    return nb.verify_certificate(nb.certificate_from_dict(obj))


def test_verify_compares_the_recorded_evaluations():
    obj = _cert_dict()
    assert _verifies(obj)
    for key, value in (("F_a", "5"), ("F_b", "2"), ("min_other", "7")):
        assert not _verifies(dict(obj, **{key: value}))


def test_verify_refuses_a_dropped_alpha_entry():
    # the dropped weight would otherwise be read as 0
    obj = _cert_dict()
    for k, ent in enumerate(obj["alpha"]):
        if ent["w"] == 0:
            break
    obj["alpha"].pop(k)
    assert not _verifies(obj)


def test_verify_refuses_an_extra_alpha_entry():
    obj = _cert_dict()
    obj["alpha"].append({"i": 9, "j": 1, "p": 1, "q": 1, "w": 2})
    assert not _verifies(obj)


def test_certificate_from_dict_refuses_a_repeated_alpha_entry():
    obj = _cert_dict()
    obj["alpha"].append(dict(obj["alpha"][0], w=5))
    with pytest.raises(ValueError) as info:
        nb.certificate_from_dict(obj)
    assert str(info.value) == ('"alpha" lists (i, j, p, q) = (2, 1, 1, 1) '
                               'twice')
    # an int past Python's digit limit is named, not formatted with %d
    obj["alpha"][-1] = dict(obj["alpha"][0], i=10 ** 5000)
    obj["alpha"].append(obj["alpha"][-1])
    with pytest.raises(ValueError) as info:
        nb.certificate_from_dict(obj)
    assert str(info.value) == ('"alpha" lists (i, j, p, q) = (an integer of '
                               'over 4300 digits, 1, 1, 1) twice')


# the n = 3 certificate for 1,1,1 / 2,2,1 marks [[1, 1], [2, 1]] on a and
# [[1, 2], [2, 2]] on b
@pytest.mark.parametrize("marked", [
    # wrong positions, and part 9 of 3
    [[[1, 2], [3, 2]], [[2, 1], [9, 7]]],
    # both ends in part 1
    [[[1, 1], [1, 1]], [[1, 2], [2, 2]]],
    # part 4 of 3
    [[[1, 1], [4, 1]], [[1, 2], [2, 2]]],
    # an edge of a, but of weight 0
    [[[1, 1], [3, 1]], [[1, 2], [2, 2]]],
    # an edge of b marked for a
    [[[1, 2], [2, 2]], [[1, 2], [2, 2]]],
])
def test_verify_checks_the_marked_edges(marked):
    obj = _cert_dict()
    assert obj["marked"] == [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]
    assert not _verifies(dict(obj, marked=marked))


def test_verify_refuses_a_marked_edge_both_cliques_share():
    # 1,1,1 / 1,1,2 share the edge [[1, 1], [2, 1]].  Moving both weight-1
    # marks onto it keeps F(a) = F(b) = 1 and the minimum elsewhere at 4,
    # so only the rule that a mark avoids the other clique refuses it
    obj = nb.certificate_to_dict(nb.edge_certificate(
        3, Assignment((1, 1, 1)), Assignment((1, 1, 2))))
    for ent in obj["alpha"]:
        if (ent["i"], ent["j"], ent["p"], ent["q"]) == (2, 1, 1, 1):
            ent["w"] = 1
        elif ent["w"] == 1:
            ent["w"] = 0
    c = nb.certificate_from_dict(dict(obj, marked=[[[1, 1], [2, 1]]] * 2))
    assert nb._evaluations(c.alpha, 3, c.a.code, c.b.code) == (1, 1, 4)
    assert not nb.verify_certificate(c)
