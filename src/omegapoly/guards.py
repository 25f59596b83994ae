"""Size guards for operations that enumerate exponentially many objects
or run vertex/facet conversion, both of which blow up without warning.

Every guarded operation takes the bound as a keyword argument so callers
(including the command line driver) can raise it deliberately, except
for the fixed ceilings, which nothing overrides.  parse_json is the
guard on reading JSON: every JSON reader of the package goes through it.
"""

import json

DEFAULT_BRUTEFORCE_BOUND = 20
DEFAULT_HULL_MAX_DIM = 15
DEFAULT_HULL_MAX_POINTS = 64

# a fixed ceiling on the parts of a graph read from JSON: solving
# allocates per part, so without it a 34-byte file can ask for any
# amount of memory (n = 400000 took 146 MB)
GRAPH_MAX_PARTS = 10000


class ScaleGuardError(ValueError):
    """An operation was asked to run past its configured size guard.

    guard names which limit tripped: "bruteforce", "hull-dim",
    "hull-points", "census" (n = 5 without allow_large), "census-max"
    (n > 5) or "graph-parts" (a graph JSON past GRAPH_MAX_PARTS); nothing
    overrides the last two.  The command line uses it to point at the
    override flag where there is one.
    """

    def __init__(self, guard: str, limit: int, requested: int, message: str):
        super().__init__(message)
        self.guard = guard
        self.limit = limit
        self.requested = requested


def check_bruteforce(n: int, bound: int, what: str) -> None:
    """Reject part counts whose 2**n enumeration would be hopeless."""
    if n > bound:
        raise ScaleGuardError(
            "bruteforce", bound, n,
            "%s: %d parts is too large for brute force (bound %d)"
            % (what, n, bound))


def parse_json(text: str):
    """json.loads, with nesting too deep for the parser refused as a
    one-line ValueError instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
