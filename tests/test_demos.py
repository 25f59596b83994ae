"""Every demo script runs to completion against the source tree, and its
stdout is byte-identical to the pinned output, with and without -O."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change here is a change to published
# results, not a refactoring, and a demo missing here fails its test
DEMO_STDOUT = {
    "01_cliques_and_2sat.py":
        "d84f5856df336fe6042b2cc544649ee0e2081d71ef18916953b1c5ac03155e76",
    "02_vertices_and_equalities.py":
        "e8417c7ea89ceeebc24884aabcf4e562b88dad8c1c9639c5220c3e89858614d4",
    "03_dimension_and_family.py":
        "efacf1759bf336b5394ed295c9d142ece9f3d6d7a7ddee7ca886ef304908376a",
    "04_edge_certificates.py":
        "026a16afceb44f565d2dbca8c33b4e36b7fc4ca334e6b4499ec2ed157ce392d0",
    # is_face decides the six by the sides of their hyperplane, with no
    # LP, and the demo's verdict lines say so
    "05_three_part_faces.py":
        "c8f9177aeaae1cf9128bb10a0f78afca814be79bbf33910591c7291048a7bf03",
    "06_facet_census.py":
        "e4ae47e8d304e7c3ae2b77e8277b1b0b0978356fc29604271d8df7071c5b1200",
    "07_hull_playground.py":
        "cedb91dccdc176839f1ebe4fbb613253840eea110870452930e45d4106fa1125",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode("ascii")).hexdigest()
    assert digest == DEMO_STDOUT[demo]


@pytest.mark.parametrize("argv", [
    *([str(ROOT / "demos" / demo)] for demo in DEMOS),
    ["-m", "omegapoly.cli", "face-test", "--n", "3",
     "--exclude", "1,1,1", "2,2,2"],
], ids=[*("demo-" + demo[:2] for demo in DEMOS), "face-test"])
def test_stdout_is_the_same_under_python_O(argv):
    # -O strips assert statements; no check or output may rest on them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]
