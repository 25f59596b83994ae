import argparse
import contextlib
import hashlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegapoly import (cli, graph2p, neighborly, omega3_census, omega_core,
                       polyhedra)
from omegapoly.cli import build_parser, main
from omegapoly.guards import exact_number


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("OMEGA_MAX_BRUTEFORCE", "OMEGA_MAX_HULL_DIM",
                 "OMEGA_MAX_HULL_POINTS"):
        monkeypatch.delenv(name, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_vertices_full_and_reduced(capsys):
    code, out, err = run(capsys, "vertices", "--n", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("1,1 ")
    assert len(lines[0].split()) == 1 + 16

    code, out, _ = run(capsys, "vertices", "--n", "2", "--reduced")
    lines = out.splitlines()
    assert lines[0] == "1,1 1 1 1"
    assert lines[-1] == "2,2 0 0 0"


def test_verify_passes_and_is_reproducible(capsys):
    code, out1, err = run(capsys, "verify", "--n", "3")
    assert code == 0 and err == ""
    assert "overall: PASS" in out1
    for row in ("vertex equalities", "dimension", "independent family",
                "edge certificates", "three-part case analysis"):
        assert row in out1
    assert "FAIL" not in out1

    code, out2, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert out2 == out1

    # the case-analysis row only exists for three parts
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert "three-part case analysis" not in out


def test_verify_reports_failed_checks_and_exits_1(capsys, monkeypatch):
    # a verification that fails prints FAIL on its row and overall, and
    # exits 1: refuse one certificate and let one case analysis raise
    certify = neighborly.verify_certificate
    analyze = omega3_census.analyze_pair
    refused = tuple(omega_core.all_assignments(3)[:2])
    raised = []

    def refuse_one(cert, bound):
        return (cert.a, cert.b) != refused and certify(cert, bound)

    def raise_once(a, b):
        if not raised:
            raised.append((a, b))
            raise RuntimeError("case check failed")
        return analyze(a, b)

    monkeypatch.setattr(neighborly, "verify_certificate", refuse_one)
    monkeypatch.setattr(omega3_census, "analyze_pair", raise_once)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 1 and err == ""
    status = {name: rest.split()[0] for name, rest in
              (line.split(":", 1) for line in out.splitlines())}
    assert status == {"vertex equalities": "PASS", "dimension": "PASS",
                      "independent family": "PASS",
                      "edge certificates": "FAIL",
                      "three-part case analysis": "FAIL", "overall": "FAIL"}
    assert "27/28 pairs certified" in out
    assert out.endswith("overall: FAIL\n") and len(raised) == 1


def test_hull_output_parses_back(capsys):
    code, out, _ = run(capsys, "hull", "--n", "2")
    assert code == 0
    h = polyhedra.hrep_from_text(out)
    assert h.dim == 3
    assert len(h.inequalities) == 4
    assert h.equalities == ()


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["facet_count"] == 4
    assert "orbits" not in obj

    code, out, _ = run(capsys, "census", "--n", "3", "--orbits")
    obj = json.loads(out)
    assert obj["facet_count"] == 16
    assert obj["per_vertex_incidence"] == 12
    assert sorted(o["size"] for o in obj["orbits"]) == [4, 12]


def test_edge_cert_round_trips_through_verify(capsys):
    code, out, _ = run(capsys, "edge-cert", "--n", "3",
                       "--a", "1,2,1", "--b", "2,2,2")
    assert code == 0
    cert = neighborly.certificate_from_json(out)
    assert neighborly.verify_certificate(cert)
    assert cert.f_a == 1 and cert.f_b == 1 and cert.min_other >= 2


def _record_one_too_many(monkeypatch):
    """Make construction record min_other one higher than it is."""
    closed_form = neighborly._closed_form

    def off_by_one(n, a, b):
        f_a, f_b, min_other = closed_form(n, a, b)
        return f_a, f_b, min_other + 1

    monkeypatch.setattr(neighborly, "_closed_form", off_by_one)


def test_verify_fails_a_wrong_closed_form(capsys, monkeypatch):
    # construction trusts the closed form; the scan in verify_certificate
    # refuses every certificate it recorded wrongly
    _record_one_too_many(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 1 and err == ""
    assert "edge certificates:         FAIL  0/28 pairs certified" in out
    assert out.endswith("overall: FAIL\n")


def test_edge_cert_prints_no_certificate_that_fails_its_check(capsys,
                                                             monkeypatch):
    _record_one_too_many(monkeypatch)
    code, out, err = run(capsys, "edge-cert", "--n", "3",
                         "--a", "1,2,1", "--b", "2,2,2")
    assert (code, out) == (1, "")
    assert err == ("error: the certificate for 1,2,1 / 2,2,2 fails its "
                   "check on all 8 vertices\n")


def test_face_test_disjoint_and_shared_vertex(capsys):
    code, out, _ = run(capsys, "face-test", "--n", "3",
                       "--exclude", "1,1,1", "2,2,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "disjoint"
    assert obj["agreeing_parts"] == []
    assert obj["verdict"] == "facet"
    assert obj["face_dimension"] == 5
    assert sorted(obj["excluded_values"]) == ["3", "3"]

    code, out, _ = run(capsys, "face-test", "--n", "3",
                       "--exclude", "1,1,1", "1,2,2")
    obj = json.loads(out)
    assert obj["class"] == "shared_vertex"
    assert obj["verdict"] == "not_face"
    assert sorted(obj["excluded_values"]) == ["0", "2"]


# sha256 of the concatenated face-test stdout for all 28 three-part pairs,
# in itertools.combinations(all_assignments(3), 2) order
FACE_TEST_ALL_PAIRS = \
    "133e79685e8f553e6763802a0ca8714c09a55aa541c03c1205aefc24a03cf907"


def test_face_test_all_pairs_are_byte_identical(capsys):
    outs = []
    for a, b in itertools.combinations(omega_core.all_assignments(3), 2):
        code, out, _ = run(capsys, "face-test", "--n", "3",
                           "--exclude", str(a), str(b))
        assert code == 0
        outs.append(out)
    digest = hashlib.sha256("".join(outs).encode("ascii")).hexdigest()
    assert digest == FACE_TEST_ALL_PAIRS


def test_face_test_usage_errors(capsys):
    code, _, err = run(capsys, "face-test", "--n", "2",
                       "--exclude", "1,1", "2,2")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "face-test", "--n", "3",
                       "--exclude", "1,1,1", "1,1,1")
    assert code == 2
    code, _, err = run(capsys, "face-test", "--n", "3",
                       "--exclude", "1,1,1", "1,x,1")
    assert code == 2


def test_clique_solve(tmp_path, capsys):
    g = graph2p.without_edges(graph2p.complete_graph(3),
                              [((1, 1), (2, 1)), ((1, 1), (2, 2))])
    path = tmp_path / "g.json"
    path.write_text(graph2p.graph_to_json(g), encoding="ascii")

    code, out, _ = run(capsys, "clique-solve", "--graph", str(path))
    assert code == 0
    found = graph2p.assignment_from_text(out.strip())
    assert graph2p.is_clique(g, found)
    assert found.rho(1) == 2  # vertex (1,1) has no neighbors in part 2

    code, out, _ = run(capsys, "clique-solve", "--graph", str(path),
                       "--enumerate")
    listed = [graph2p.assignment_from_text(ln) for ln in out.splitlines()]
    assert listed == graph2p.enumerate_cliques(g)

    # sever parts 1 and 2 entirely: no clique left
    g = graph2p.without_edges(graph2p.complete_graph(3),
                              [((1, p), (2, q)) for p in (1, 2)
                               for q in (1, 2)])
    path.write_text(graph2p.graph_to_json(g), encoding="ascii")
    code, out, _ = run(capsys, "clique-solve", "--graph", str(path))
    assert code == 0
    assert out.strip() == "no clique"
    code, out, _ = run(capsys, "clique-solve", "--graph", str(path),
                       "--enumerate")
    assert code == 0 and out == ""

    code, _, err = run(capsys, "clique-solve", "--graph",
                       str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err


def test_convert_round_trip(tmp_path, capsys):
    v = polyhedra.regular_polytope("simplex", 2)
    text = polyhedra.vrep_to_text(v)
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="ascii")
    code, out, _ = run(capsys, "convert", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "V" and obj["dim"] == 2

    path2 = tmp_path / "v.json"
    path2.write_text(out, encoding="ascii")
    code, out2, _ = run(capsys, "convert", "--input", str(path2))
    assert code == 0
    assert out2 == text

    h = polyhedra.convex_hull_facets(v)
    htext = polyhedra.hrep_to_text(h)
    path3 = tmp_path / "h.txt"
    path3.write_text(htext, encoding="ascii")
    code, out3, _ = run(capsys, "convert", "--input", str(path3))
    obj = json.loads(out3)
    assert obj["kind"] == "H"
    path4 = tmp_path / "h.json"
    path4.write_text(out3, encoding="ascii")
    code, out4, _ = run(capsys, "convert", "--input", str(path4))
    assert out4 == htext

    path5 = tmp_path / "junk.txt"
    path5.write_text("what is this\n", encoding="ascii")
    code, _, err = run(capsys, "convert", "--input", str(path5))
    assert code == 2 and "error:" in err


def test_convert_never_clears_v_input_to_integers(tmp_path, capsys,
                                                  monkeypatch):
    # one common denominator of n points with distinct prime denominators
    # has as many digits as all of them, so convert, which has no size
    # guard, must not build it
    def refuse(rows):
        raise AssertionError("convert cleared the points")

    monkeypatch.setattr(polyhedra, "_clear_matrix", refuse)
    text = "V-representation\nbegin\n3 2 rational\n1 1/2\n1 1/3\n1 1/5\nend\n"
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="ascii")
    code, out, err = run(capsys, "convert", "--input", str(path))
    assert (code, err) == (0, "")
    path.write_text(out, encoding="ascii")
    code, out, err = run(capsys, "convert", "--input", str(path))
    assert (code, err, out) == (0, "", text)


_rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _vreps(draw):
    d = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[_rational] * d), max_size=6,
                           unique=True))
    return polyhedra.VRep(d, points)


@st.composite
def _hreps(draw):
    d = draw(st.integers(1, 4))
    form = st.builds(polyhedra.linear_form, st.lists(_rational, min_size=d,
                                                     max_size=d), _rational)
    return polyhedra.HRep(d, tuple(draw(st.lists(form, max_size=5))),
                          tuple(draw(st.lists(form, max_size=3))))


def _convert(tmp, text):
    """stdout of a successful convert run on text."""
    tmp.write_text(text, encoding="ascii")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["convert", "--input", str(tmp)]) == 0
    return out.getvalue()


def _assert_round_trips(rep, to_text, from_text, tmp_path_factory):
    text = to_text(rep)
    assert from_text(text) == rep
    tmp = tmp_path_factory.mktemp("convert") / "input"
    as_json = _convert(tmp, text)
    assert _convert(tmp, as_json) == text


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_vreps())
def test_random_vrep_survives_text_and_convert(tmp_path_factory, v):
    _assert_round_trips(v, polyhedra.vrep_to_text, polyhedra.vrep_from_text,
                        tmp_path_factory)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_hreps())
def test_random_hrep_survives_text_and_convert(tmp_path_factory, h):
    _assert_round_trips(h, polyhedra.hrep_to_text, polyhedra.hrep_from_text,
                        tmp_path_factory)


DEEP_ARRAY = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("command,text", [
    pytest.param("convert", "V-representation\nbegin\n3 3 rational\n1 0 0\n",
                 id="cdd-cut-after-first-row"),
    pytest.param("convert", "V-representation\nbegin\n",
                 id="cdd-no-size-line"),
    pytest.param("convert", "H-representation\nlinearity\nbegin\n"
                            "1 2 rational\n0 1\nend\n",
                 id="cdd-bare-linearity"),
    pytest.param("convert", "V-representation\nbegin\n1 2 rational\n"
                            "1 1/0\nend\n",
                 id="cdd-zero-denominator"),
    pytest.param("convert", '{"kind": "V", "points": [[1, 0]]}',
                 id="json-v-no-dim"),
    pytest.param("convert", '{"kind": "H", "inequalities": [], '
                            '"equalities": []}',
                 id="json-h-no-dim"),
    pytest.param("convert", '{"kind": "H", "dim": 1, "inequalities": '
                            '[{"coeffs": [1]}], "equalities": []}',
                 id="json-h-no-rhs"),
    pytest.param("convert", '{"kind": "V", "dim": "2", "points": [[1, 0]]}',
                 id="json-v-string-dim"),
    pytest.param("convert", '{"kind": "V", "dim": 2, "points": [5]}',
                 id="json-v-scalar-point"),
    pytest.param("convert", '{"kind": "V", "dim": 2, "points": 5}',
                 id="json-v-scalar-points"),
    pytest.param("convert", '{"kind": "V", "dim": 2, "points": [[1, null]]}',
                 id="json-v-null-coordinate"),
    pytest.param("convert", '{"kind": "H", "dim": "2", "inequalities": [], '
                            '"equalities": []}',
                 id="json-h-string-dim"),
    pytest.param("convert", '{"kind": "H", "dim": 2, "inequalities": '
                            '[{"coeffs": 5, "rhs": 0}], "equalities": []}',
                 id="json-h-scalar-coeffs"),
    pytest.param("convert", '{"kind": "H", "dim": 2, "inequalities": '
                            '[{"coeffs": [1, 0], "rhs": [0]}], '
                            '"equalities": []}',
                 id="json-h-list-rhs"),
    pytest.param("convert", '{"kind": "H", "dim": 2, "inequalities": 5, '
                            '"equalities": []}',
                 id="json-h-scalar-inequalities"),
    pytest.param("convert", "H-representation\nbegin\n1 1 rational\n5\nend\n",
                 id="cdd-h-no-coordinates"),
    pytest.param("convert", '{"kind": "V", "dim": 1, "points": [[0.1]]}',
                 id="json-v-float-coordinate"),
    pytest.param("convert", '{"kind": "V", "dim": 1, "points": [[true]]}',
                 id="json-v-bool-coordinate"),
    pytest.param("convert", '{"kind": "V", "dim": 1, "points": [["1/0"]]}',
                 id="json-v-zero-denominator"),
    pytest.param("clique-solve", '{"n": 2}', id="graph-no-missing-edges"),
    pytest.param("clique-solve", '{"n": 2, "missing_edges": [[1, 2]]}',
                 id="graph-edge-of-ints"),
    pytest.param("clique-solve", '{"n": 2, "missing_edges": [[[1, 1], [2]]]}',
                 id="graph-short-vertex"),
    pytest.param("clique-solve", '{"n": 2, "missing_edges": 5}',
                 id="graph-scalar-missing-edges"),
    pytest.param("clique-solve",
                 '{"n": 2, "missing_edges": [[[1, 1], [2, "1"]]]}',
                 id="graph-string-pos"),
    # nesting past the JSON parser's recursion limit
    pytest.param("clique-solve", DEEP_ARRAY, id="graph-deep-nesting"),
    pytest.param("convert", '{"kind": "V", "dim": 1, "points": %s}'
                 % (DEEP_ARRAY,), id="json-v-deep-nesting"),
    # a long bad value is echoed cut short
    pytest.param("convert", '{"kind": "V", "dim": 1, "points": [["%s"]]}'
                 % ("a" * 100000,), id="json-v-long-string"),
    pytest.param("convert", "V-representation\nbegin\n1 2 rational\n1 %s\n"
                            "end\n" % ("x" * 100000,), id="cdd-long-entry"),
    pytest.param("convert", "V-representation\n%s\nbegin\n1 2 rational\n"
                            "1 1\nend\n" % ("y" * 100000,),
                 id="cdd-long-stray-line"),
    pytest.param("convert", "V-representation\nbegin\n%s 2 rational\n1 1\n"
                            "end\n" % ("7" * 100000,), id="cdd-long-size"),
    pytest.param("convert", "H-representation\nlinearity 2 1 1\nbegin\n"
                            "2 2 rational\n0 1\n0 -1\nend\n",
                 id="cdd-repeated-linearity"),
    # a long number that parses is echoed cut short too
    pytest.param("convert", "V-representation\nbegin\n1 2 rational\n%s 1\n"
                            "end\n" % ("7" * 4000,),
                 id="cdd-long-leading-entry"),
    pytest.param("convert", "V-representation\nbegin\n%s 2 rational\n1 1\n"
                            "end\n" % ("7" * 4000,),
                 id="cdd-long-row-count"),
    pytest.param("convert", "V-representation\nbegin\n-%s 2 rational\n"
                            "end\n" % ("7" * 4000,),
                 id="cdd-long-negative-row-count"),
    pytest.param("convert", "V-representation\nbegin\n1 %s rational\n1 1\n"
                            "end\n" % ("7" * 4000,),
                 id="cdd-long-column-count"),
    pytest.param("clique-solve", '{"n": 2, "missing_edges": [[[%s, 1], '
                                 '[2, 1]]]}' % ("7" * 4000,),
                 id="graph-long-part"),
    pytest.param("clique-solve", '{"n": 2, "missing_edges": [[[1, %s], '
                                 '[2, 1]]]}' % ("7" * 4000,),
                 id="graph-long-position"),
    pytest.param("clique-solve", '{"n": %s, "missing_edges": []}'
                 % ("7" * 4000,), id="graph-long-part-count"),
])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="ascii")
    flag = "--graph" if command == "clique-solve" else "--input"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode("ascii")) < 200


def test_a_long_bad_argument_is_cut_short(capsys, monkeypatch):
    long = "q" * 100000
    code, out, err = run(capsys, "face-test", "--n", "3",
                         "--exclude", long, "1,1,1")
    assert code == 2 and out == ""
    assert err.startswith("error: bad assignment 'qqq")
    assert err.count("\n") == 1 and len(err.encode("ascii")) < 200
    monkeypatch.setenv("OMEGA_MAX_BRUTEFORCE", long)
    code, out, err = run(capsys, "vertices", "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: OMEGA_MAX_BRUTEFORCE='qqq")
    assert err.count("\n") == 1 and len(err.encode("ascii")) < 200


NINES = "9" * 4000


@pytest.mark.parametrize("argv", [
    ("vertices", "--n", NINES),
    ("verify", "--n", NINES),
    ("hull", "--n", NINES),
    ("census", "--n", NINES),
    ("edge-cert", "--n", NINES, "--a", "1,1", "--b", "1,2"),
], ids=["vertices", "verify", "hull", "census", "edge-cert"])
def test_a_long_int_argument_is_cut_short(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "9" * 41 not in err and "(4000 characters)" in err
    assert len(err.encode("ascii")) < 200


@pytest.mark.parametrize("argv, line", [
    (("vertices", "--n", "0"), "all_assignments: n must be at least 1, got 0"),
    (("vertices", "--n", "-1"),
     "all_assignments: n must be at least 1, got -1"),
    (("verify", "--n", "0"), "all_vertices: n must be at least 1, got 0"),
    (("verify", "--n", "-1"), "all_vertices: n must be at least 1, got -1"),
    (("hull", "--n", "0"), "hull: n must be at least 2, got 0"),
    (("hull", "--n", "-1"), "hull: n must be at least 2, got -1"),
    (("hull", "--n", "1"), "hull: n must be at least 2, got 1"),
    (("census", "--n", "0"), "facet_census: n must be at least 2, got 0"),
    (("census", "--n", "-1"), "facet_census: n must be at least 2, got -1"),
    (("edge-cert", "--n", "0", "--a", "1,1", "--b", "1,2"),
     "edge_certificate: n must be at least 2, got 0"),
    (("edge-cert", "--n", "-1", "--a", "1,1", "--b", "1,2"),
     "edge_certificate: n must be at least 2, got -1"),
    (("vertices", "--n", "2", "--max-bruteforce", "0"),
     "vertices: --max-bruteforce must be at least 1, got 0"),
    (("face-test", "--n", "2", "--exclude", "1,1", "1,2"),
     "face-test: n must be at least 3, got 2"),
    (("face-test", "--n", "4", "--exclude", "1,1,1,1", "1,2,2,2"),
     "face-test: n must be at most 3, got 4"),
    (("verify", "--n", "21"), "all_vertices: n must be at most 20, got 21; "
     "raise it with --max-bruteforce (env OMEGA_MAX_BRUTEFORCE)"),
    (("census", "--n", "5"), "facet_census: n without allow_large must be "
     "at most 4, got 5; raise it with --allow-large"),
    (("census", "--n", "6"), "facet_census: n must be at most 5, got 6"),
    (("hull", "--n", "6"), "convex_hull_facets: dim must be at most 15, "
     "got 21; raise it with --max-hull-dim (env OMEGA_MAX_HULL_DIM)"),
], ids=["vertices-0", "vertices--1", "verify-0", "verify--1", "hull-0",
        "hull--1", "hull-1", "census-0", "census--1", "edge-cert-0",
        "edge-cert--1", "max-bruteforce-0", "face-test-2", "face-test-4",
        "verify-21", "census-5", "census-6", "hull-6"])
def test_a_count_below_its_least_exits_2_with_one_line(capsys, argv, line):
    # the count rule's message, from the function that refused the count,
    # below its least or past its most, with the hint of a guard that a
    # flag raises
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % (line,))


@pytest.mark.parametrize("argv", [
    ("vertices", "--n", "9" * 5000),
    ("census", "--n", "9" * 5000),
    ("vertices", "--n", "2", "--max-bruteforce", "9" * 5000),
    ("vertices", "--n", "x" * 5000),
], ids=["n-past-the-digit-limit", "census-n-past-the-digit-limit",
        "guard-past-the-digit-limit", "n-not-a-number"])
def test_argparse_echoes_a_long_int_flag_cut_short(capsys, argv):
    # the usage line, then one error line that shows the value cut short
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    usage, line = err.splitlines()
    assert usage.startswith("usage: omega ")
    assert "error: argument --" in line and "(5002 characters)" in line
    assert len(line.encode("ascii")) < 200


@pytest.mark.parametrize("text", [
    '{"kind": "V", "dim": 1, "points": [["1e10000000"]]}',
    "V-representation\nbegin\n1 2 rational\n1 1e10000000\nend\n",
    '{"kind": "V", "dim": 1, "points": [["1.5"]]}',
    "V-representation\nbegin\n1 2 rational\n1 1.5\nend\n",
], ids=["json-exponent", "cdd-exponent", "json-decimal", "cdd-decimal"])
def test_decimal_and_exponent_strings_are_refused_at_once(tmp_path, capsys,
                                                          text):
    # an exact number is a sign, digits and an optional /digits; Fraction
    # alone would spend seconds building 10**10000000 before failing
    path = tmp_path / "input"
    path.write_text(text, encoding="ascii")
    start = time.perf_counter()
    code, out, err = run(capsys, "convert", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exact_numbers_keep_the_forms_fraction_reads():
    assert [exact_number(t) for t in ("7", "-3/4", "+6/8", " 1_000 ")] == [
        7, Fraction(-3, 4), Fraction(3, 4), 1000]
    for text in ("1.5", "1e3", "1E3", ".5", "2.", "1/2e3", "1/0.5"):
        with pytest.raises(ValueError):
            exact_number(text)


@pytest.mark.parametrize("value", [
    "[" * 985 + "]" * 985,
    "[%s]" % ", ".join(["0"] * 500),
    '{"k": "%s"}' % ("x" * 500,),
], ids=["deep-list", "long-list", "object"])
def test_a_list_or_object_in_a_bad_value_is_named_not_echoed(tmp_path, capsys,
                                                             value):
    path = tmp_path / "input"
    path.write_text('{"kind": "V", "dim": 1, "points": [[%s]]}' % (value,),
                    encoding="ascii")
    code, out, err = run(capsys, "convert", "--input", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode("ascii")) < 200


def test_guard_trips_name_their_override(capsys):
    code, _, err = run(capsys, "census", "--n", "5")
    assert code == 2
    assert "--allow-large" in err

    code, _, err = run(capsys, "vertices", "--n", "25")
    assert code == 2
    assert "--max-bruteforce" in err
    assert "OMEGA_MAX_BRUTEFORCE" in err

    code, _, err = run(capsys, "hull", "--n", "2", "--max-hull-dim", "2")
    assert code == 2
    assert "--max-hull-dim" in err


def test_clique_solve_refuses_too_many_parts(tmp_path, capsys):
    # 34 bytes that used to ask the solver for 146 MB
    path = tmp_path / "g.json"
    path.write_text('{"n": 400000, "missing_edges": []}', encoding="ascii")
    code, out, err = run(capsys, "clique-solve", "--graph", str(path))
    assert code == 2 and out == ""
    assert err == ("error: graph_from_dict: n must be at most 10000, "
                   "got 400000\n")
    path.write_text('{"n": 10001, "missing_edges": []}', encoding="ascii")
    code, out, err = run(capsys, "clique-solve", "--graph", str(path))
    assert (code, out, err) == (
        2, "", "error: graph_from_dict: n must be at most 10000, got 10001\n")
    path.write_text('{"n": 10000, "missing_edges": []}', encoding="ascii")
    code, out, _ = run(capsys, "clique-solve", "--graph", str(path))
    assert code == 0 and out == ",".join(["1"] * 10000) + "\n"


@pytest.mark.parametrize("extra", [(), ("--allow-large",)])
def test_census_past_five_parts_names_no_override(capsys, extra):
    # no flag reaches n = 6, so the message must not point at one
    code, out, err = run(capsys, "census", "--n", "6", *extra)
    assert code == 2 and out == ""
    assert err == "error: facet_census: n must be at most 5, got 6\n"


def test_each_subcommand_takes_only_the_guards_it_reads(capsys,
                                                        monkeypatch):
    code, _, err = run(capsys, "census", "--n", "3", "--max-hull-dim", "3")
    assert code == 2 and "--max-hull-dim" in err
    code, _, _ = run(capsys, "clique-solve", "--graph", "g.json",
                     "--max-hull-points", "9")
    assert code == 2
    # census reads no guard, so a bad guard variable cannot break it
    monkeypatch.setenv("OMEGA_MAX_HULL_DIM", "x")
    code, out, _ = run(capsys, "census", "--n", "3")
    assert code == 0 and json.loads(out)["facet_count"] == 16
    flags = {name: sorted(a.dest for a in sub._actions
                          if a.dest.startswith("max_"))
             for name, sub in _subcommands().items()}
    assert flags == {
        "vertices": ["max_bruteforce"], "verify": ["max_bruteforce"],
        "hull": ["max_bruteforce", "max_hull_dim", "max_hull_points"],
        "census": [], "edge-cert": ["max_bruteforce"], "face-test": [],
        "clique-solve": ["max_bruteforce"], "convert": []}


def _subcommands():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_env_defaults_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_MAX_HULL_DIM", "2")
    code, _, err = run(capsys, "hull", "--n", "2")
    assert code == 2 and "hull" in err
    # an explicit flag beats the environment
    code, out, _ = run(capsys, "hull", "--n", "2", "--max-hull-dim", "3")
    assert code == 0
    assert len(polyhedra.hrep_from_text(out).inequalities) == 4

    monkeypatch.setenv("OMEGA_MAX_HULL_DIM", "banana")
    code, _, err = run(capsys, "hull", "--n", "2")
    assert code == 2 and "not an integer" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    code, _, err = run(capsys, "vertices")
    assert code == 2
    code, _, err = run(capsys, "edge-cert", "--n", "2", "--a", "1,1",
                       "--b", "1,1")
    assert code == 2 and "distinct" in err


# --- one parser per process -------------------------------------------------

def fresh(capsys, *argv):
    """Run main on a parser built by build_parser for this call alone."""
    cli._parser.cache_clear()
    return run(capsys, *argv)


def _graph_file(tmp_path):
    g = graph2p.without_edges(graph2p.complete_graph(3),
                              [((1, 1), (2, 1)), ((2, 2), (3, 1))])
    path = tmp_path / "g.json"
    path.write_text(graph2p.graph_to_json(g), encoding="ascii")
    return str(path)


def test_parser_reuse_after_usage_error_and_help(tmp_path, capsys):
    calls = [("clique-solve",), ("--help",),
             ("clique-solve", "--graph", _graph_file(tmp_path)),
             ("census", "--n", "2", "--max-bruteforce", "3"),
             ("clique-solve", "--help"), ("census", "--n", "2")]
    expected = [fresh(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in expected] == [2, 0, 0, 2, 0, 0]
    assert expected[1][1].startswith("usage: omega")
    assert expected[4][1].startswith("usage: omega clique-solve")
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == expected
    # the same sequence again on the now warm parser
    assert [run(capsys, *argv) for argv in calls] == expected


def test_parser_reuse_reads_guards_on_every_call(capsys, monkeypatch):
    argv = ("vertices", "--n", "3")
    monkeypatch.setenv("OMEGA_MAX_BRUTEFORCE", "2")
    tripped = fresh(capsys, *argv)
    monkeypatch.delenv("OMEGA_MAX_BRUTEFORCE")
    passed = fresh(capsys, *argv)
    assert tripped[0] == 2 and "OMEGA_MAX_BRUTEFORCE" in tripped[2]
    assert passed[0] == 0 and len(passed[1].splitlines()) == 8
    cli._parser.cache_clear()
    for value in ("2", None, "2", "3", None):
        if value is None:
            monkeypatch.delenv("OMEGA_MAX_BRUTEFORCE", raising=False)
        else:
            monkeypatch.setenv("OMEGA_MAX_BRUTEFORCE", value)
        assert run(capsys, *argv) == (tripped if value == "2" else passed)
    # a flag on one call is not left behind for the next
    assert run(capsys, *argv, "--max-bruteforce", "2") == tripped
    assert run(capsys, *argv) == passed


def test_parser_reuse_forgets_flags_of_earlier_calls(tmp_path, capsys):
    path = _graph_file(tmp_path)
    plain = fresh(capsys, "clique-solve", "--graph", path)
    listing = fresh(capsys, "clique-solve", "--graph", path, "--enumerate")
    assert plain[0] == listing[0] == 0
    assert len(plain[1].splitlines()) == 1
    assert len(listing[1].splitlines()) == 4
    cli._parser.cache_clear()
    assert run(capsys, "clique-solve", "--graph", path,
               "--enumerate") == listing
    assert run(capsys, "clique-solve", "--graph", path) == plain


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    # a work counter, not a timing: later calls must build no parser
    parsers_per_build = 1 + len(_subcommands())
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [("clique-solve", "--graph", _graph_file(tmp_path)),
             ("census", "--n", "3"), ("verify", "--n", "3")]
    try:
        assert fresh(capsys, *calls[0])[0] == 0
        one = len(built)
        assert one == parsers_per_build
        built.clear()
        cli._parser.cache_clear()
        assert [run(capsys, *argv)[0] for argv in calls] == [0, 0, 0]
        assert len(built) == one
    finally:
        cli._parser.cache_clear()
