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
meeting the other clique nowhere works.  Part 1 is always one end of a
mark, and marks are stored lower part first.

Construction records F(a), F(b) and the minimum of F over the other
vertices from the closed form of F (_closed_form), counted on the vertex
codes, not evaluated from alpha.  verify_certificate is the 2^n check:
it recomputes F on all 2^n vertices from alpha alone and compares the
values with the ones the certificate records, so a wrong closed form or
a bad choice of marks cannot pass it; it also checks that each recorded
marked edge is such a choice, with weight 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .graph2p import Assignment, VertexRef, part_bit, positions
from .guards import (DEFAULT_BRUTEFORCE_BOUND, _shown, check_bruteforce,
                     check_count, json_fields, json_int, json_list,
                     json_number, parse_json)

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


def _mark_part(n: int, a: int, b: int) -> int:
    """max(i*, 2), where i* is the smallest part where the distinct codes
    a and b differ: part i is bit n - i, so i* is the top bit of a ^ b."""
    return max(n + 1 - (a ^ b).bit_length(), 2)


def _marked_edges(n: int, a: int, b: int):
    """Each code's clique edge on parts {i*, j*} = {1, max(i*, 2)}, 1 first."""
    hi = _mark_part(n, a, b)
    return tuple((VertexRef(1, rho[0]), VertexRef(hi, rho[hi - 1]))
                 for rho in (positions(n, a), positions(n, b)))


def _closed_form(n: int, a: int, b: int) -> tuple[int, int, int]:
    """F(a), F(b) and the minimum of F over every other vertex, n >= 2,
    for the weights edge_certificate gives the pair, from the closed form
    of F rather than from alpha.

    An edge of the clique of z lies on the clique of a iff z agrees with a
    on both its parts.  With da = z ^ a, db = z ^ b and C(k) the pairs
    among k parts, C(n) - C(s_a) - C(s_b) + C(s_ab) edges of z have weight
    2, where s_a = n - popcount(da), s_b = n - popcount(db) and
    s_ab = n - popcount(da | db); the marked edge of a lies on z iff
    da & m == 0, m being the bits of the two marked parts, and likewise
    for b.  Every other edge of z has weight 0.
    """
    # pairs[k] = C(n - k): the pairs of parts where two codes k parts
    # apart agree
    pairs = [(n - k) * (n - k - 1) // 2 for k in range(n + 1)]
    m = part_bit(n, 1) | part_bit(n, _mark_part(n, a, b))
    values = []
    for z in range(1 << n):
        da, db = z ^ a, z ^ b
        values.append(2 * (pairs[0] - pairs[da.bit_count()]
                           - pairs[db.bit_count()]
                           + pairs[(da | db).bit_count()])
                      + (not (da & m)) + (not (db & m)))
    others = (v for z, v in enumerate(values) if z != a and z != b)
    return values[a], values[b], min(others)


def edge_certificate(n: int, a: Assignment, b: Assignment,
                     bound: int = DEFAULT_BRUTEFORCE_BOUND) -> EdgeCertificate:
    """Build the certificate for the pair {a, b}.

    The recorded evaluations come from _closed_form, not from a scan of
    alpha; verify_certificate is the check by enumeration.  n passes the
    count rule, from 2 parts, before it is compared with a and b.
    """
    check_bruteforce(n, bound, "edge_certificate", least=2)
    if a.n != n or b.n != n:
        raise ValueError("assignments must have %s parts" % (_shown(n),))
    if a == b:
        raise ValueError("assignments must be distinct")

    za, zb = a.code, b.code
    mark_a, mark_b = _marked_edges(n, za, zb)
    marked = {_alpha_key(mark_a), _alpha_key(mark_b)}
    on = {*_clique_keys(n, za), *_clique_keys(n, zb)}
    alpha = {key: 2 if key not in on else 1 if key in marked else 0
             for key in _alpha_keys(n)}

    f_a, f_b, min_other = _closed_form(n, za, zb)
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
    n, a, b, marked_rows, alpha_rows, f_a, f_b, min_other = json_fields(
        obj, "n", "a", "b", "marked", "alpha", "F_a", "F_b", "min_other")
    check_count(n, "certificate_from_dict", 1)
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
            raise ValueError('"alpha" lists (i, j, p, q) = (%s, %s, %s, %s) '
                             'twice' % tuple(map(_shown, (i, j, p, q))))
        alpha[(i, j, p, q)] = w
    return EdgeCertificate(n, a, b, marked[0], marked[1], alpha,
                           _json_recorded(f_a, '"F_a"'),
                           _json_recorded(f_b, '"F_b"'),
                           _json_recorded(min_other, '"min_other"'))


def certificate_to_json(c: EdgeCertificate) -> str:
    return json.dumps(certificate_to_dict(c), indent=1)


def certificate_from_json(text: str) -> EdgeCertificate:
    return certificate_from_dict(parse_json(text))
