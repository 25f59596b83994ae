"""Edge certificates: every pair of distinct vertices spans an edge.

For two assignments a and b, a nonnegative weighting of the cross-part
edge coordinates gives a linear form F that evaluates to 1 on both
vertices and at least 2 on every other vertex.  The hyperplane F = 1
then supports the polytope exactly on conv(a, b), so {a, b} is a 1-face.
Weights: 2 on edges used by neither clique, 1 on one marked edge of each
clique, 0 on every other clique edge.

The marked edges are chosen deterministically: i* is the smallest part
where a and b differ, j* the smallest other part, and each clique marks
its own edge between parts i* and j*.  Any choice of one edge per clique
meeting the other clique nowhere works; construction always re-verifies
by full enumeration, so a bad choice cannot slip through.  Part 1 is
always one end of a mark, and marks are stored lower part first.

verify_certificate recomputes F on all 2^n vertices from alpha and
compares the values with the ones the certificate records; it also
checks that each recorded marked edge is such a choice, with weight 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .graph2p import Assignment, VertexRef, positions
from .guards import (DEFAULT_BRUTEFORCE_BOUND, _shown, check_bruteforce,
                     json_fields, json_int, json_list, json_number,
                     json_positive_int, parse_json)

AlphaKey = tuple[int, int, int, int]  # (i, j, p, q) with i > j


@dataclass(frozen=True)
class EdgeCertificate:
    """Weights alpha over edge coordinates X[i,j,p,q], i > j, plus the
    recorded evaluations: f_a and f_b must be 1 and min_other >= 2."""

    n: int
    a: Assignment
    b: Assignment
    marked_a: tuple[VertexRef, VertexRef]
    marked_b: tuple[VertexRef, VertexRef]
    alpha: dict[AlphaKey, int]
    f_a: int
    f_b: int
    min_other: int


@functools.lru_cache(maxsize=None)
def _alpha_keys(n: int) -> tuple[AlphaKey, ...]:
    """The edge coordinates (i, j, p, q), i > j, of n parts, in the order
    certificates list them; built once per n."""
    return tuple((i, j, p, q) for i in range(2, n + 1) for j in range(1, i)
                 for p in (1, 2) for q in (1, 2))


def _clique_keys(n: int, z: int) -> list[AlphaKey]:
    """The edge coordinates (i, j, p, q), i > j, on the clique of code z."""
    rho = positions(n, z)
    return [(i, j, rho[i - 1], rho[j - 1])
            for i in range(2, n + 1) for j in range(1, i)]


def evaluate_alpha(alpha: dict[AlphaKey, int], n: int, z: int) -> int:
    """Value of sum alpha[i,j,p,q] * X[i,j,p,q] at the vertex of code z."""
    return sum([alpha.get(key, 0) for key in _clique_keys(n, z)])


def _evaluations(alpha: dict[AlphaKey, int], n: int, a: int,
                 b: int) -> tuple[int, int, int | None]:
    """F(a), F(b) and the minimum of F over every other vertex (None if
    there is none), found by evaluating alpha at all 2^n vertex codes."""
    values = [evaluate_alpha(alpha, n, z) for z in range(1 << n)]
    others = (v for z, v in enumerate(values) if z != a and z != b)
    return values[a], values[b], min(others, default=None)


def _alpha_key(edge: tuple[VertexRef, VertexRef]) -> AlphaKey:
    """The coordinate (i, j, p, q), i > j, of an edge listed either way."""
    lo, hi = sorted(edge)
    return (hi.part, lo.part, hi.pos, lo.pos)


def _marked_edges(n: int, a: int, b: int):
    """Each code's clique edge on parts {i*, j*} = {1, max(i*, 2)}, 1 first."""
    ra, rb = positions(n, a), positions(n, b)
    istar = next(i for i in range(1, n + 1) if ra[i - 1] != rb[i - 1])
    hi = max(istar, 2)
    return tuple((VertexRef(1, rho[0]), VertexRef(hi, rho[hi - 1]))
                 for rho in (ra, rb))


def edge_certificate(n: int, a: Assignment, b: Assignment,
                     bound: int = DEFAULT_BRUTEFORCE_BOUND) -> EdgeCertificate:
    """Build and exhaustively verify the certificate for the pair {a, b}."""
    if n < 2:
        raise ValueError("need at least two parts")
    if a.n != n or b.n != n:
        raise ValueError("assignments must have %s parts" % (_shown(n),))
    if a == b:
        raise ValueError("assignments must be distinct")
    check_bruteforce(n, bound, "edge_certificate")

    za, zb = a.code, b.code
    mark_a, mark_b = _marked_edges(n, za, zb)
    marked = {_alpha_key(mark_a), _alpha_key(mark_b)}
    on = {*_clique_keys(n, za), *_clique_keys(n, zb)}
    alpha = {key: 2 if key not in on else 1 if key in marked else 0
             for key in _alpha_keys(n)}

    f_a, f_b, min_other = _evaluations(alpha, n, za, zb)
    if f_a != 1 or f_b != 1 or min_other < 2:
        raise RuntimeError(
            "certificate construction failed for %s, %s: F(a)=%d F(b)=%d "
            "min_other=%d" % (a, b, f_a, f_b, min_other))
    return EdgeCertificate(n, a, b, mark_a, mark_b, alpha, f_a, f_b, min_other)


def _marked_edge_holds(c: EdgeCertificate, edge: tuple[VertexRef, VertexRef],
                       own: int, other: int) -> bool:
    """Is edge, listed either way, on the clique of code own and not on
    that of other, with weight 1?  (So it is a cross-part edge of n parts.)"""
    key = _alpha_key(edge)
    return (key in _clique_keys(c.n, own)
            and key not in _clique_keys(c.n, other) and c.alpha[key] == 1)


def verify_certificate(c: EdgeCertificate,
                       bound: int = DEFAULT_BRUTEFORCE_BOUND) -> bool:
    """Recompute every evaluation from alpha alone; nothing is trusted.

    alpha must weight exactly the edge coordinates of n parts, so a
    missing weight is not read as 0 and an extra one not ignored, and the
    recorded f_a, f_b and min_other must equal the recomputed values.
    Each marked edge must join two distinct parts of 1..n, lie on its own
    clique and not on the other, and carry weight 1.
    """
    check_bruteforce(c.n, bound, "verify_certificate")
    if c.a == c.b or c.a.n != c.n or c.b.n != c.n:
        return False
    keys = _alpha_keys(c.n)
    if len(c.alpha) != len(keys) or any(k not in c.alpha for k in keys):
        return False
    za, zb = c.a.code, c.b.code
    if not (_marked_edge_holds(c, c.marked_a, za, zb)
            and _marked_edge_holds(c, c.marked_b, zb, za)):
        return False
    f_a, f_b, min_other = _evaluations(c.alpha, c.n, za, zb)
    return (f_a == c.f_a == 1 and f_b == c.f_b == 1
            and min_other == c.min_other and min_other >= 2)


# --- serialization --------------------------------------------------------

def certificate_to_dict(c: EdgeCertificate) -> dict:
    marked = [[[j, q], [i, p]] for (i, j, p, q)
              in map(_alpha_key, (c.marked_a, c.marked_b))]
    alpha = [{"i": i, "j": j, "p": p, "q": q, "w": c.alpha[(i, j, p, q)]}
             for (i, j, p, q) in _alpha_keys(c.n)]
    return {
        "n": c.n,
        "a": list(c.a.choice),
        "b": list(c.b.choice),
        "marked": marked,
        "alpha": alpha,
        "F_a": str(c.f_a),
        "F_b": str(c.f_b),
        "min_other": str(c.min_other),
    }


def _json_recorded(x, what: str) -> int:
    """A recorded evaluation: an int or an integer string like "2"."""
    v = json_number(x, what)
    if v.denominator != 1:
        raise ValueError("%s holds %s, not an integer" % (what, _shown(x)))
    return v.numerator


def certificate_from_dict(obj: dict) -> EdgeCertificate:
    """Read the layout of certificate_to_dict back.

    The JSON rules of the convert command apply: a missing key is named,
    and a float or bool where an integer belongs is refused, each as a
    one-line ValueError.  So is an alpha entry listed twice.
    """
    n = json_positive_int(obj, "n")
    a, b, marked_rows, alpha_rows, f_a, f_b, min_other = json_fields(
        obj, "a", "b", "marked", "alpha", "F_a", "F_b", "min_other")
    a = Assignment(json_list(a, '"a"', json_int))
    b = Assignment(json_list(b, '"b"', json_int))
    marked = [tuple(VertexRef(*json_list(w, '"marked"', json_int, 2))
                    for w in json_list(edge, '"marked"', length=2))
              for edge in json_list(marked_rows, '"marked"', length=2)]
    keys = ("i", "j", "p", "q", "w")
    alpha = {}
    for ent in json_list(alpha_rows, '"alpha"'):
        i, j, p, q, w = (json_int(x, 'alpha "%s"' % (key,))
                         for key, x in zip(keys, json_fields(ent, *keys)))
        if (i, j, p, q) in alpha:
            raise ValueError('"alpha" lists (i, j, p, q) = (%d, %d, %d, %d) '
                             'twice' % (i, j, p, q))
        alpha[(i, j, p, q)] = w
    return EdgeCertificate(n, a, b, marked[0], marked[1], alpha,
                           _json_recorded(f_a, '"F_a"'),
                           _json_recorded(f_b, '"F_b"'),
                           _json_recorded(min_other, '"min_other"'))


def certificate_to_json(c: EdgeCertificate) -> str:
    return json.dumps(certificate_to_dict(c), indent=1)


def certificate_from_json(text: str) -> EdgeCertificate:
    return certificate_from_dict(parse_json(text))
