"""Self-test of the benchmark: two runs give identical counts and digests.

Run from the root of a checkout:

    python3 perfbench/selftest.py [workload ...]

Each workload runs twice, one pass each, with the same seed.  Both runs
must print a correct result, and their exact counts and output digests
must agree.  Exit status 0 means they did; 1 lists what differed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

WORKLOADS = ("census", "verify", "faces", "cliques")
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s"
                           % (workload, proc.returncode, proc.stderr))
    info = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("perfbench-info "))
    return info, json.loads(lines[-1])


def main(argv) -> int:
    problems = []
    for workload in argv or WORKLOADS:
        info1, res1 = run_once(workload, 1)
        info2, res2 = run_once(workload, 1)
        for res in (res1, res2):
            if not res["correct"]:
                problems.append("%s: result not correct" % (workload,))
        for key in ("counts", "digest"):
            if info1[key] != info2[key]:
                problems.append("%s: %s differ: %r vs %r"
                                % (workload, key, info1[key], info2[key]))
        print("%s: counts %s digest %s"
              % (workload, json.dumps(info1["counts"]), info1["digest"]))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
