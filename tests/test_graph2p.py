import contextlib
import enum
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omegapoly import graph2p as g2
from omegapoly.cli import main
from omegapoly.guards import ScaleGuardError


def test_assignment_basics():
    a = g2.Assignment((1, 2, 1))
    assert a.n == 3
    assert a.rho(1) == 1 and a.rho(2) == 2 and a.rho(3) == 1
    assert str(a) == "1,2,1"
    assert g2.assignment_from_text("1,2,1") == a
    assert g2.assignment_from_text(" 2 , 1 ") == g2.Assignment((2, 1))
    with pytest.raises(ValueError):
        g2.Assignment((1, 3))
    with pytest.raises(ValueError):
        g2.Assignment(())
    with pytest.raises(ValueError):
        g2.assignment_from_text("1,,2")
    with pytest.raises(ValueError):
        a.rho(4)


@pytest.mark.parametrize("part,message", [
    (True, "part True is not an integer"),
    (1.5, "part 1.5 is not an integer"),
    (10 ** 5000, "part an integer of over %d digits out of range"
     % sys.get_int_max_str_digits()),
], ids=["bool", "float", "huge"])
def test_rho_refuses_a_part_that_is_not_one(part, message):
    # True == 1 read part 1, a float reached the tuple index as a
    # TypeError, and a huge int broke the message
    with pytest.raises(ValueError) as info:
        g2.Assignment((1, 2)).rho(part)
    assert str(info.value) == message


@pytest.mark.parametrize("choice", [(True, 2), (1.0, 2), (1, 2.0)])
def test_assignment_entries_are_the_ints_1_and_2(choice):
    # True == 1 and 1.0 == 1, but a bool would reach certificate JSON as
    # true and a float would print as 1.0
    with pytest.raises(ValueError) as err:
        g2.Assignment(choice)
    assert str(err.value) == "assignment entries must be 1 or 2"


def test_an_n_past_the_digit_limit_is_named_in_the_part_count_message():
    # the caller's n is echoed by _shown, not formatted with %d, which
    # raises past Python's int-to-str limit instead of the message
    # (a graph that large is refused by the parts ceiling when built)
    huge = 10 ** 5000
    checks = [
        (lambda: g2.solve_2sat(huge, ()), "graph with an integer of over "),
        (lambda: g2.Graph2P(huge, missing=[((1, 1), (0, 1))]),
         "graph with an integer of over "),
    ]
    for call, start in checks:
        with pytest.raises(ValueError) as err:
            call()
        msg = str(err.value)
        assert msg.startswith(start), msg
        assert "\n" not in msg and len(msg) < 200


def test_assignments_sort_lexicographically():
    a = g2.Assignment((1, 2))
    b = g2.Assignment((2, 1))
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_complete_graph_shape():
    for n in (2, 3, 5):
        g = g2.complete_graph(n)
        assert len(g.edges) == 4 * n * (n - 1) // 2
        assert g.missing_edges() == []
    # one part is fine: no cross-part pairs, so both assignments are cliques
    assert g2.enumerate_cliques(g2.complete_graph(1)) == [
        g2.Assignment((1,)), g2.Assignment((2,))]
    with pytest.raises(ValueError):
        g2.Graph2P(0)


def test_edges_and_missing_edges_partition_the_cross_pairs():
    g = g2.without_edges(g2.complete_graph(4), [
        ((1, 1), (2, 1)), ((3, 2), (1, 2)), ((4, 1), (3, 1))])
    cross = [(g2.VertexRef(i, p), g2.VertexRef(j, q))
             for i, j in itertools.combinations(range(1, 5), 2)
             for p in (1, 2) for q in (1, 2)]
    missing = g.missing_edges()
    assert missing == [e for e in cross if e in g.missing]
    assert g.edges.isdisjoint(missing)
    assert g.edges | set(missing) == set(cross)
    assert [e for e in cross if not g.has_edge(*e)] == missing
    assert repr(g) == "Graph2P(n=4, edges=21)"


def test_graph_is_built_from_its_missing_edges_only():
    g = g2.Graph2P(3, missing=[((2, 1), (1, 1))])
    assert g.missing == {(g2.VertexRef(1, 1), g2.VertexRef(2, 1))}
    assert g == g2.without_edges(g2.complete_graph(3), [((1, 1), (2, 1))])
    # a positional edge list is refused instead of being read as missing
    with pytest.raises(TypeError):
        g2.Graph2P(3, [((1, 1), (2, 1))])


def test_edge_validation():
    g = g2.complete_graph(2)
    assert g.has_edge((1, 1), (2, 2))
    assert g.has_edge((2, 2), (1, 1))  # orientation free
    with pytest.raises(ValueError):
        g.has_edge((1, 1), (1, 2))  # same part never adjacent
    with pytest.raises(ValueError):
        g.has_edge((1, 3), (2, 1))
    with pytest.raises(ValueError):
        g.has_edge((0, 1), (2, 1))
    with pytest.raises(ValueError):
        g.has_edge((1, 1), (3, 1))  # part beyond n


def test_without_edges_and_cliques():
    g = g2.complete_graph(3)
    assert g2.is_clique(g, g2.Assignment((1, 1, 1)))
    assert len(g2.enumerate_cliques(g)) == 8

    g = g2.without_edges(g, [((1, 1), (2, 1))])
    assert not g.has_edge((2, 1), (1, 1))
    cliques = g2.enumerate_cliques(g)
    assert len(cliques) == 6
    assert all(not (a.rho(1) == 1 and a.rho(2) == 1) for a in cliques)
    # enumeration is lexicographic
    assert cliques == sorted(cliques)

    with pytest.raises(ValueError):
        g2.is_clique(g, g2.Assignment((1, 1)))


def test_removing_all_edges_between_two_parts_kills_all_cliques():
    missing = [((1, p), (2, q)) for p in (1, 2) for q in (1, 2)]
    g = g2.without_edges(g2.complete_graph(4), missing)
    assert g2.enumerate_cliques(g) == []
    assert g2.find_clique(g) is None


# literal codes: 2 (v - 1) is x_v and 2 (v - 1) + 1 is not x_v
X1, NOT_X1, X2, NOT_X2, X3 = 0, 1, 2, 3, 4


def test_to_2cnf_clause_encoding():
    # forbidding the pair (1,1),(2,1) is the clause (not x1 or not x2)
    g = g2.without_edges(g2.complete_graph(2), [((1, 1), (2, 1))])
    assert g2.to_2cnf(g) == ((NOT_X1, NOT_X2),) == ((1, 3),)
    g = g2.without_edges(g2.complete_graph(2), [((1, 2), (2, 2))])
    assert g2.to_2cnf(g) == ((X1, X2),) == ((0, 2),)
    assert g2.to_2cnf(g2.complete_graph(3)) == ()


def test_solve_2sat_forced_and_unsat():
    a = g2.solve_2sat(1, [(X1, X1)])
    assert a is not None and a.rho(1) == 1
    a = g2.solve_2sat(1, [(NOT_X1, NOT_X1)])
    assert a is not None and a.rho(1) == 2
    assert g2.solve_2sat(1, [(X1, X1), (NOT_X1, NOT_X1)]) is None
    # implication chain x1 -> x2 -> x3 with x1 forced true
    a = g2.solve_2sat(3, [(X1, X1), (NOT_X1, X2), (NOT_X2, X3)])
    assert a is not None and a.choice == (1, 1, 1)
    # the clauses may come as lists, and from a generator
    a = g2.solve_2sat(2, ([NOT_X1, NOT_X2] for _ in range(2)))
    assert a is not None and a.choice != (1, 1)


CNF_REFUSALS = [
    (0, (), "solve_2sat: num_vars must be at least 1, got 0"),
    (-1, (), "solve_2sat: num_vars must be at least 1, got -1"),
    (-3, (), "solve_2sat: num_vars must be at least 1, got -3"),
    (1, ((0, 2),), "clause (0, 2) is not a pair of literal codes 0..1"),
    # (variable, polarity) pairs are not literal codes
    (2, (((1, True), (2, True)),),
     "clause ((1, True), (2, True)) is not a pair of literal codes 0..3"),
    (2, (0, 1), "clause 0 is not a pair of literal codes 0..3"),
    (2, ([0, 1, 2],), "clause a list is not a pair of literal codes 0..3"),
]


def test_cnf2_validation():
    for num_vars, clauses, message in CNF_REFUSALS:
        with pytest.raises(ValueError) as info:
            g2.solve_2sat(num_vars, clauses)
        assert str(info.value) == message


def test_find_clique_agrees_with_enumeration():
    rng = random.Random(4242)
    for _ in range(80):
        n = rng.randint(2, 7)
        missing = []
        for (i, j) in itertools.combinations(range(1, n + 1), 2):
            for p in (1, 2):
                for q in (1, 2):
                    if rng.random() < 0.3:
                        missing.append(((i, p), (j, q)))
        g = g2.without_edges(g2.complete_graph(n), missing)
        cliques = g2.enumerate_cliques(g)
        found = g2.find_clique(g)
        if cliques:
            assert found is not None
            assert g2.is_clique(g, found)
            assert found in cliques
        else:
            assert found is None


THREE_PART_PAIRS = [((i, p), (j, q))
                    for i, j in itertools.combinations(range(1, 4), 2)
                    for p in (1, 2) for q in (1, 2)]


def test_every_three_part_graph_against_enumeration():
    # one graph per subset of the 12 cross-part pairs of n = 3
    assert len(THREE_PART_PAIRS) == 12
    no_clique = 0
    for bits in range(1 << 12):
        g = g2.Graph2P(3, missing=[e for k, e in enumerate(THREE_PART_PAIRS)
                                   if bits >> k & 1])
        cliques = g2.enumerate_cliques(g)
        found = g2.find_clique(g)
        if cliques:
            assert found in cliques
        else:
            assert found is None
            no_clique += 1
        # both entry points read the same clauses in the same order
        assert found == g2.solve_2sat(g.n, g2.to_2cnf(g))
    assert no_clique == NO_CLIQUE_THREE_PART_GRAPHS


# graphs among the 4,096 of n = 3 with no clique, as counted by a
# separate scan of the subsets that meet all 8 assignments
NO_CLIQUE_THREE_PART_GRAPHS = 1699


def _satisfies(a: g2.Assignment, clauses) -> bool:
    # code k is the literal on variable k // 2 + 1, positive iff k is even,
    # and x_v is true iff rho(v) = 1
    return all(any((a.rho(k // 2 + 1) == 1) == (k % 2 == 0) for k in cl)
               for cl in clauses)


def test_cnf_models_are_exactly_the_cliques():
    rng = random.Random(777)
    for _ in range(50):
        n = rng.randint(2, 8)
        missing = []
        for (i, j) in itertools.combinations(range(1, n + 1), 2):
            for p in (1, 2):
                for q in (1, 2):
                    if rng.random() < 0.25:
                        missing.append(((i, p), (j, q)))
        g = g2.without_edges(g2.complete_graph(n), missing)
        c = g2.to_2cnf(g)
        models = [a for a in (g2.Assignment(ch) for ch in
                              itertools.product((1, 2), repeat=n))
                  if _satisfies(a, c)]
        assert models == g2.enumerate_cliques(g)


def test_solve_2sat_agrees_with_brute_force():
    rng = random.Random(20260816)
    for _ in range(200):
        nv = rng.randint(1, 10)
        c = [(rng.randrange(2 * nv), rng.randrange(2 * nv))
             for _ in range(rng.randint(0, 3 * nv))]
        sat = any(_satisfies(g2.Assignment(ch), c)
                  for ch in itertools.product((1, 2), repeat=nv))
        got = g2.solve_2sat(nv, c)
        if sat:
            assert got is not None
            assert _satisfies(got, c)
        else:
            assert got is None


def test_enumerate_guard():
    g = g2.complete_graph(25)
    with pytest.raises(ScaleGuardError) as err:
        g2.enumerate_cliques(g)
    assert err.value.guard == "bruteforce"
    assert "bound 20" in str(err.value)
    # raising the bound unlocks it; 2SAT never needs the guard
    small = g2.enumerate_cliques(g2.complete_graph(3), bound=3)
    assert len(small) == 8
    assert g2.find_clique(g) is not None


def test_graph_json_round_trip():
    g = g2.without_edges(g2.complete_graph(3),
                         [((1, 1), (2, 1)), ((2, 2), (3, 1))])
    text = g2.graph_to_json(g)
    assert g2.graph_from_json(text) == g
    obj = g2.graph_to_dict(g)
    assert obj["n"] == 3
    assert [[1, 1], [2, 1]] in obj["missing_edges"]


def test_graph_intake_builds_one_key_per_pair():
    # a row in both orientations is one missing edge
    g = g2.graph_from_dict({"n": 3, "missing_edges": [[[1, 1], [2, 2]],
                                                      [[2, 2], [1, 1]]]})
    assert g.missing_edges() == [(g2.VertexRef(1, 1), g2.VertexRef(2, 2))]
    assert repr(g) == "Graph2P(n=3, edges=11)"
    assert g2.to_2cnf(g) == ((1, 2),)
    assert g2.graph_to_dict(g)["missing_edges"] == [[[1, 1], [2, 2]]]

    # tuple rows, VertexRef rows and int subclasses from Python are read
    # like JSON lists
    class Pos(enum.IntEnum):
        FIRST = 1
        SECOND = 2

    rows = [((3, 1), (1, 2)), (g2.VertexRef(2, 1), g2.VertexRef(3, 2)),
            [(1, Pos.FIRST), (2, Pos.SECOND)], ((2, 2), (1, 1))]
    g = g2.graph_from_dict({"n": 3, "missing_edges": rows})
    built = g2.Graph2P(3, missing=[((1, 2), (3, 1)), ((2, 1), (3, 2)),
                                   ((1, 1), (2, 2))])
    expected = [(g2.VertexRef(1, 1), g2.VertexRef(2, 2)),
                (g2.VertexRef(1, 2), g2.VertexRef(3, 1)),
                (g2.VertexRef(2, 1), g2.VertexRef(3, 2))]
    assert g.missing_edges() == built.missing_edges() == expected
    assert g.missing == built.missing == frozenset(expected)
    assert all(type(v) is g2.VertexRef for e in g.missing for v in e)
    assert g == built and hash(g) == hash(built)
    assert g != g2.Graph2P(4, missing=expected)
    assert g != g2.without_edges(built, [((2, 2), (3, 2))])
    assert len({g, built, g2.graph_from_json(g2.graph_to_json(g))}) == 1
    assert [e for e in expected if g.has_edge(*e)] == []
    assert g.has_edge((3, 2), (1, 2)) and g.has_edge((1, 1), (2, 1))


NEEDS_KEYS = 'graph JSON needs an object with "n" and "missing_edges"'
BAD_SHAPE = ('"missing_edges" must be a list of [[part, pos], [part, pos]] '
             'integer pairs')


@pytest.mark.parametrize("bad, message", [
    ({"n": "3", "missing_edges": []},
     "graph_from_dict: n must be an integer, got '3'"),
    ({"n": 0, "missing_edges": []},
     "graph_from_dict: n must be at least 1, got 0"),
    ({"n": -1, "missing_edges": 5},
     "graph_from_dict: n must be at least 1, got -1"),
    ({"n": 2}, NEEDS_KEYS),
    ({"missing_edges": []}, NEEDS_KEYS),
    ([2, []], NEEDS_KEYS),
    ({"n": 2, "missing_edges": [[1, 2]]}, BAD_SHAPE),
    ({"n": 2, "missing_edges": [[[1, 1], [2]]]}, BAD_SHAPE),
    ({"n": 2, "missing_edges": 5}, BAD_SHAPE),
    ({"n": 2, "missing_edges": [[[1, 1], [2, True]]]}, BAD_SHAPE),
    ({"n": 2, "missing_edges": [[[1, 1], [3, 1]]]},
     "vertex VertexRef(part=3, pos=1): part out of range 1..2"),
    ({"n": 2, "missing_edges": [[[2, 2], [2, 1]]]},
     "edge VertexRef(part=2, pos=2)-VertexRef(part=2, pos=1) joins vertices "
     "of the same part"),
    ({"n": 2, "missing_edges": [[[1, 3], [2, 1]]]},
     "vertex VertexRef(part=1, pos=3): pos must be 1 or 2"),
    # every row's shape is checked before any row's range
    ({"n": 2, "missing_edges": [[[1, 1], [3, 1]], [[1, 1], [2]]]}, BAD_SHAPE),
], ids=["string-n", "zero-n", "negative-n", "no-missing-edges", "no-n", "not-an-object",
        "edge-of-ints", "short-vertex", "scalar-missing-edges", "bool-pos",
        "part-out-of-range", "same-part", "pos-3", "shape-before-range"])
def test_graph_json_messages(bad, message):
    with pytest.raises(ValueError) as info:
        g2.graph_from_dict(bad)
    assert str(info.value) == message


def test_graph_json_parts_ceiling_comes_before_the_rows():
    # the ceiling is checked before anything else is read per part or row
    with pytest.raises(ScaleGuardError) as info:
        g2.graph_from_dict({"n": 10 ** 7, "missing_edges": 5})
    assert (info.value.guard, info.value.limit) == ("graph-parts", 10000)
    assert g2.graph_from_dict({"n": 10000, "missing_edges": []}).n == 10000


@pytest.mark.parametrize("n, message", [
    (10001, "graph with 10001 parts is out of reach: n = 10000 is the "
            "largest graph"),
    (10 ** 5000, "graph with an integer of over 4300 digits parts is out of "
                 "reach: n = 10000 is the largest graph"),
], ids=["past-the-ceiling", "past-the-digit-limit"])
def test_a_graph_built_in_python_meets_the_parts_ceiling(n, message):
    # the constructor applies the ceiling graph_from_dict does, so no
    # Graph2P holds an n that repr or graph_to_json cannot print
    with pytest.raises(ScaleGuardError) as info:
        g2.Graph2P(n)
    assert (info.value.guard, str(info.value)) == ("graph-parts", message)
    assert repr(g2.Graph2P(10000)) == "Graph2P(n=10000, edges=199980000)"


def test_a_2cnf_meets_the_parts_ceiling():
    # each variable stands for a part, so solve_2sat holds its 2CNF to
    # the ceiling a Graph2P is held to
    with pytest.raises(ScaleGuardError) as info:
        g2.solve_2sat(100000, ())
    assert (info.value.guard, str(info.value)) == (
        "graph-parts", "graph with 100000 parts is out of reach: n = 10000 "
                       "is the largest graph")
    assert g2.solve_2sat(10000, ()).n == 10000


@pytest.mark.parametrize("build, message", [
    (lambda: g2.Graph2P(2.5), "Graph2P: n must be an integer, got 2.5"),
    (lambda: g2.Graph2P(True), "Graph2P: n must be an integer, got True"),
    (lambda: g2.Graph2P(0), "Graph2P: n must be at least 1, got 0"),
    (lambda: g2.Graph2P(-1), "Graph2P: n must be at least 1, got -1"),
    (lambda: g2.Graph2P(2, missing=[((1.0, 1), (2, 1))]),
     "vertex VertexRef(part=1.0, pos=1): part must be an integer"),
    (lambda: g2.Graph2P(2, missing=[((1, 1), (True, 2))]),
     "vertex VertexRef(part=True, pos=2): part must be an integer"),
    (lambda: g2.Graph2P(2, missing=[((1, 1.0), (2, 1))]),
     "vertex VertexRef(part=1, pos=1.0): pos must be 1 or 2"),
    (lambda: g2.Graph2P(2, missing=[((1, 1), (2, True))]),
     "vertex VertexRef(part=2, pos=True): pos must be 1 or 2"),
    (lambda: g2.complete_graph(2).has_edge((1.0, 1), (2, 1)),
     "vertex VertexRef(part=1.0, pos=1): part must be an integer"),
    (lambda: g2.solve_2sat(2.0, ()),
     "solve_2sat: num_vars must be an integer, got 2.0"),
    (lambda: g2.solve_2sat(2, ((1.0, 2),)),
     "clause (1.0, 2) is not a pair of literal codes 0..3"),
    (lambda: g2.solve_2sat(2, ((1, True),)),
     "clause (1, True) is not a pair of literal codes 0..3"),
    (lambda: g2.solve_2sat(2, ((False, 3),)),
     "clause (False, 3) is not a pair of literal codes 0..3"),
    (lambda: g2.solve_2sat(2, ((0, -1),)),
     "clause (0, -1) is not a pair of literal codes 0..3"),
    (lambda: g2.solve_2sat(2, ((4, 0),)),
     "clause (4, 0) is not a pair of literal codes 0..3"),
], ids=["float-n", "bool-n", "zero-n", "negative-n", "float-part", "bool-part", "float-pos",
        "bool-pos", "float-part-in-has-edge", "float-num-vars",
        "float-variable", "bool-variable", "bool-code", "negative-code",
        "code-of-twice-num-vars"])
def test_graphs_and_2cnfs_built_in_python_hold_to_ints(build, message):
    # True == 1 and 1.0 == 1, so without the check a float n built a
    # graph that JSON cannot read back, a bool part was read as part 1,
    # and a float code reached the 2SAT core as a TypeError; a bool code
    # would be read as x_1 or not x_1, a negative one as a list index
    # from the end, and one of 2 num_vars as an IndexError
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("clause, shown", [
    ((1,), "(1,)"),
    ((10 ** 5000, 1, 2), "an integer of over 4300 digits"),
], ids=["one-literal", "past-the-digit-limit"])
def test_a_clause_without_two_literals_is_echoed_by_shown(clause, shown):
    with pytest.raises(ValueError) as info:
        g2.solve_2sat(3, (clause,))
    assert str(info.value) == ("clause %s is not a pair of literal codes 0..5"
                               % shown)


def test_clique_check_survives_python_O():
    # -O strips assert statements; the checks after solving must still
    # run, so the 2SAT core is made to return a non-clique, which is also
    # a model that violates the clause
    script = """
import sys
from omegapoly import graph2p as g2
g = g2.without_edges(g2.complete_graph(2), [((1, 1), (2, 1))])
g2._solve_implications = lambda num_vars, clauses: (1, 1)
for solve in (lambda: g2.find_clique(g),
              lambda: g2.solve_2sat(g.n, g2.to_2cnf(g))):
    try:
        solve()
    except RuntimeError as exc:
        print(sys.flags.optimize, exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 2SAT answer 1,1 is not a clique\n"
                           "1 2SAT assignment 1,1 violates a clause\n")


# Seeded graphs shaped like the benchmark's: about 3n missing edges, a
# planted clique when satisfiable, two fully severed parts when not.
PIN_SIZES = (2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 48, 64)
# sha256 of the outputs below, also taken before the DIMACS writer was
# removed, so the removal moved no byte of them
PIN_DIGEST = "88a92d557d7fb52ac55ea7d835de91bddb9ed8cb0980bcc64d84bf4169f97883"


def _seeded_missing(rng, n, satisfiable):
    hidden = [rng.choice((1, 2)) for _ in range(n + 1)]
    missing = set()
    if not satisfiable:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        missing.update(((i, p), (j, q)) for p in (1, 2) for q in (1, 2))
    while len(missing) < min(3 * n, n * (n - 1)):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        p, q = rng.choice((1, 2)), rng.choice((1, 2))
        if satisfiable and p == hidden[i] and q == hidden[j]:
            continue
        missing.add(((i, p), (j, q)))
    return missing


def _cli_stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def test_graph_outputs_are_pinned(tmp_path):
    chunks = []
    for seed, n, satisfiable in itertools.product((1, 2, 3), PIN_SIZES,
                                                  (True, False)):
        missing = _seeded_missing(random.Random(seed * 1000 + n), n,
                                  satisfiable)
        path = tmp_path / ("g%d_%d_%d.json" % (seed, n, satisfiable))
        path.write_text(json.dumps({"n": n, "missing_edges": [
            [list(u), list(v)] for u, v in sorted(missing)]}),
            encoding="ascii")
        chunks.append(_cli_stdout("clique-solve", "--graph", str(path)))
        if n <= 8:
            chunks.append(_cli_stdout("clique-solve", "--graph", str(path),
                                      "--enumerate"))
        g = g2.graph_from_json(path.read_text(encoding="ascii"))
        chunks.append(g2.graph_to_json(g))
    assert chunks.count("no clique\n") == 3 * len(PIN_SIZES)
    digest = hashlib.sha256("\x00".join(chunks).encode()).hexdigest()
    assert digest == PIN_DIGEST
