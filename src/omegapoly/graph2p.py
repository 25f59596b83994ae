"""Multipartite graphs with two vertices per part, and their cliques.

A graph here always has parts 1..n and each part holds exactly the two
vertices (part, 1) and (part, 2).  Edges only ever join vertices of
distinct parts.  An n-clique must pick one vertex from every part, so
cliques are the same thing as assignments rho: {1..n} -> {1, 2}.

Clique finding reduces to 2SAT.  The encoding is fixed everywhere in
this package: boolean variable x_i is true exactly when rho(i) = 1.
Each absent cross-part edge {(i,p), (j,q)} forbids the joint choice
rho(i) = p and rho(j) = q, which is the two-literal clause

    (not x_i if p = 1 else x_i)  or  (not x_j if q = 1 else x_j)

so models of the 2CNF are precisely the cliques.  A literal is an int
code, 2 (v - 1) for x_v and 2 (v - 1) + 1 for not x_v, so the clause
is the pair (2 i - p, 2 j - q); to_2cnf writes these, and find_clique
and solve_2sat solve them with one 2SAT core, _solve_implications.

A clique is also a vertex of the clique polytope, and the package
names a vertex by its code: the n-bit int with bit n - i set iff
rho(i) = 2 (part_bit).  Assignment is the parse and print shell.
A Graph2P is stored as its complement.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .guards import (DEFAULT_BRUTEFORCE_BOUND, GRAPH_MAX_PARTS,
                     _shown, check_bruteforce, check_count, is_int,
                     parse_json)


class VertexRef(NamedTuple):
    """One of the two vertices of a part; pos is 1 or 2."""

    part: int
    pos: int


Edge = tuple[VertexRef, VertexRef]


@dataclass(frozen=True, order=True)
class Assignment:
    """A choice of one vertex per part: choice[k] = rho(k + 1), the int 1
    or 2 (a bool or a float is refused).  Its vertex code has the bit
    part_bit(n, i) set iff rho(i) = 2, so code order is tuple order."""

    choice: tuple[int, ...]

    def __post_init__(self):
        if not self.choice:
            raise ValueError("assignment needs at least one part")
        if not all(is_int(c) and c in (1, 2) for c in self.choice):
            raise ValueError("assignment entries must be 1 or 2")

    @property
    def n(self) -> int:
        return len(self.choice)

    @property
    def code(self) -> int:
        return int("".join([str(c - 1) for c in self.choice]), 2)

    @classmethod
    def from_code(cls, n: int, code: int) -> Assignment:
        """The assignment of n parts with the given vertex code; both pass
        the count rule (check_count), n from 1 and the code from 0; the
        code's top, 2**n - 1, is an n-bit int, so it is tested by shifting."""
        check_count(n, "Assignment.from_code", 1)
        check_count(code, "Assignment.from_code", 0, "vertex code")
        if code >> n:
            raise ValueError("Assignment.from_code: vertex code %s out of "
                             "range for %s parts" % (_shown(code), _shown(n)))
        return cls(positions(n, code))

    def rho(self, part: int) -> int:
        """Chosen position of the given part (parts are 1-based)."""
        if not is_int(part):
            raise ValueError("part %s is not an integer"
                             % (_shown(part, repr),))
        if not 1 <= part <= len(self.choice):
            raise ValueError("part %s out of range" % (_shown(part),))
        return self.choice[part - 1]

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.choice)


def part_bit(n: int, i: int) -> int:
    """The bit of part i in an n-part vertex code: bit n - i, so part 1 is
    the top bit.  This is the one definition of the code's layout."""
    return 1 << (n - i)


def positions(n: int, code: int) -> tuple[int, ...]:
    """rho(1), ..., rho(n) of the vertex code: bit n - i is part i's."""
    return tuple([(code >> k & 1) + 1 for k in range(n - 1, -1, -1)])


def assignment_from_text(text: str) -> Assignment:
    """Parse "1,2,1" into an Assignment."""
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError("bad assignment %s, want comma-separated 1/2"
                         % (_shown(text, repr),))
    return Assignment(parts)


_POSITIONS = (1, 2)


def _edge_error(i, p, j, q, n: int) -> ValueError:
    """What is wrong with the pair (i, p)-(j, q) against n parts."""
    for part, pos in ((i, p), (j, q)):
        if not is_int(part):
            return ValueError("vertex %s: part must be an integer"
                              % (_shown(VertexRef(part, pos), repr),))
        if not 1 <= part <= n:
            return ValueError("vertex %s: part out of range 1..%s"
                              % (_shown(VertexRef(part, pos), repr),
                                 _shown(n)))
        if not (is_int(pos) and pos in _POSITIONS):
            return ValueError("vertex %s: pos must be 1 or 2"
                              % (_shown(VertexRef(part, pos), repr),))
    return ValueError("edge %r-%r joins vertices of the same part"
                      % (VertexRef(i, p), VertexRef(j, q)))


def _edge_keys(rows: Iterable, n: int) -> list[tuple[int, int, int, int]]:
    """The key (i, j, p, q), i < j, of each cross-part pair
    ((i, p), (j, q)) or ((j, q), (i, p)) in rows, checked against n parts;
    the first bad pair raises.  A float or a bool is no part or pos."""
    keys = []
    append = keys.append
    for (i, p), (j, q) in rows:
        # type() is int settles most rows; is_int the int subclasses
        if (p in _POSITIONS and q in _POSITIONS
                and (type(i) is int and type(j) is int and type(p) is int
                     and type(q) is int or all(map(is_int, (i, j, p, q))))):
            if 0 < i < j <= n:
                append((i, j, p, q))
                continue
            if 0 < j < i <= n:
                append((j, i, q, p))
                continue
        raise _edge_error(i, p, j, q, n)
    return keys


def _cross_keys(n: int):
    """Every cross-part pair as a key, in (i, j, p, q) order."""
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for p in _POSITIONS:
            for q in _POSITIONS:
                yield (i, j, p, q)


def _edge(key: tuple[int, int, int, int]) -> Edge:
    i, j, p, q = key
    return (VertexRef(i, p), VertexRef(j, q))


class Graph2P:
    """Immutable n-partite graph, two vertices per part, cross-part edges only.

    The graph is stored as its complement: the missing cross-part pairs,
    each as the int key (i, j, p, q) with i < j for the pair
    {(i, p), (j, q)}, kept sorted and without repeats.  That order is
    the (i, j, p, q) order of the 2SAT clauses and of the graph JSON
    rows.  Every consumer reads the missing edges, and the graphs of
    interest are dense, so the complement is the small side.  The
    VertexRef views (missing, missing_edges(), edges) are built on
    request.  The constructor is keyword-only so that nobody can pass
    the present edges where the missing ones are meant.
    """

    def __init__(self, n: int, *, missing: Iterable = ()):
        check_count(n, "Graph2P", 1, most=GRAPH_MAX_PARTS, guard="graph-parts")
        self.n = n
        # sorting first keeps the runs of the input, which is cheaper
        # than sorting a set; dict.fromkeys then drops the repeats
        self._keys = tuple(dict.fromkeys(sorted(_edge_keys(missing, n))))

    @property
    def missing(self) -> frozenset[Edge]:
        """The missing edges as canonical VertexRef pairs, lower part first."""
        return frozenset(map(_edge, self._keys))

    @property
    def edges(self) -> frozenset[Edge]:
        """The present edges, rebuilt from the missing ones on every access."""
        missing = set(self._keys)
        return frozenset(_edge(k) for k in _cross_keys(self.n)
                         if k not in missing)

    def __eq__(self, other):
        return (isinstance(other, Graph2P)
                and self.n == other.n and self._keys == other._keys)

    def __hash__(self):
        return hash((self.n, self._keys))

    def __repr__(self):
        present = 2 * self.n * (self.n - 1) - len(self._keys)
        return "Graph2P(n=%d, edges=%d)" % (self.n, present)

    def has_edge(self, u, v) -> bool:
        (key,) = _edge_keys([(u, v)], self.n)
        k = bisect.bisect_left(self._keys, key)
        return k == len(self._keys) or self._keys[k] != key

    def missing_edges(self) -> list[Edge]:
        """Cross-part vertex pairs that are not edges, in (i, j, p, q) order."""
        return list(map(_edge, self._keys))


def complete_graph(n: int) -> Graph2P:
    """All 4 * C(n, 2) cross-part edges present."""
    return Graph2P(n)


def without_edges(g: Graph2P, missing: Iterable) -> Graph2P:
    """Copy of g with the given edges removed."""
    return Graph2P(g.n, missing=itertools.chain(g.missing_edges(), missing))


def is_clique(g: Graph2P, a: Assignment) -> bool:
    """Does picking vertex (k, a.rho(k)) from every part induce a clique?

    It does unless some missing edge joins two picked vertices.
    """
    if a.n != g.n:
        raise ValueError("assignment has %d parts, graph has %s"
                         % (a.n, _shown(g.n)))
    return _misses_every_edge(g, a.choice)


def _misses_every_edge(g: Graph2P, rho: tuple[int, ...]) -> bool:
    return not any(rho[i - 1] == p and rho[j - 1] == q
                   for i, j, p, q in g._keys)


def enumerate_cliques(g: Graph2P,
                      bound: int = DEFAULT_BRUTEFORCE_BOUND) -> list[Assignment]:
    """All cliques in lexicographic order, by enumerating the codes."""
    check_bruteforce(g.n, bound, "enumerate_cliques")
    every = (positions(g.n, z) for z in range(1 << g.n))
    return [Assignment(rho) for rho in every if _misses_every_edge(g, rho)]


# --- 2CNF ---------------------------------------------------------------

def to_2cnf(g: Graph2P) -> tuple[tuple[int, int], ...]:
    """One clause per absent cross-part edge, in key order, over one
    variable per part: the literal codes (2 i - p, 2 j - q) of the key
    (i, j, p, q), each of which forbids its vertex."""
    return tuple([(2 * i - p, 2 * j - q) for i, j, p, q in g._keys])


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Component index per node, numbered in order of completion.

    Iterative Tarjan; completion order is reverse topological on the
    condensation, which is what the 2SAT decision rule needs.  Each
    frame of the work stack holds a node and the iterator over its
    successors, so a node resumes where it left off after a descent.
    A visited node is on the Tarjan stack exactly while it has no
    component yet.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                iw = index[w]
                if iw == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if iw < low[v] and comp[w] == -1:
                    low[v] = iw
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp


def _solve_implications(num_vars: int, clauses) -> tuple[int, ...] | None:
    """The 2SAT core: part choices satisfying clauses, or None.

    A literal is an int code, 2 (v - 1) for x_v and 2 (v - 1) + 1 for
    not x_v, so code ^ 1 is its negation; each clause is a pair of codes.
    Implication graph plus strongly connected components (Aspvall, Plass
    & Tarjan 1979), so the cost is linear in variables + clauses.  The
    implications are added in clause order, which fixes the model found.
    Variable x_i true decodes to rho(i) = 1.
    """
    adj: list[list[int]] = [[] for _ in range(2 * num_vars)]
    for a, b in clauses:
        adj[a ^ 1].append(b)  # not a implies b
        adj[b ^ 1].append(a)  # not b implies a
    comp = _tarjan_scc(adj)
    pos, neg = comp[0::2], comp[1::2]
    if any(map(operator.eq, pos, neg)):
        return None
    # the literal whose component completes first sits deeper in the
    # implication order and is safe to set true
    return tuple([1 if x < y else 2 for x, y in zip(pos, neg)])


def solve_2sat(num_vars: int, clauses: Iterable) -> Assignment | None:
    """A model of the 2CNF over variables 1..num_vars, decoded as part
    choices, or None if there is none.

    Each clause is a pair of int literal codes below 2 num_vars, coded as
    in to_2cnf and _solve_implications; anything else is refused.  The
    model found is checked against every clause.
    """
    check_count(num_vars, "solve_2sat", 1, "num_vars",  # a variable is a part
                GRAPH_MAX_PARTS, "graph-parts")
    clauses = tuple(clauses)
    top = 2 * num_vars
    for clause in clauses:
        if not (isinstance(clause, (tuple, list)) and len(clause) == 2
                and all(is_int(k) and 0 <= k < top for k in clause)):
            raise ValueError("clause %s is not a pair of literal codes "
                             "0..%d" % (_shown(clause, repr), top - 1))
    choice = _solve_implications(num_vars, clauses)
    if choice is None:
        return None
    result = Assignment(choice)
    # literal k holds when part (k >> 1) + 1 chose (k & 1) + 1: rho = 1,
    # x true, for an even k, and rho = 2 for an odd one
    if not all(choice[a >> 1] == (a & 1) + 1 or choice[b >> 1] == (b & 1) + 1
               for a, b in clauses):
        raise RuntimeError("2SAT assignment %s violates a clause" % (result,))
    return result


def find_clique(g: Graph2P) -> Assignment | None:
    """A clique of g via the 2SAT reduction, or None if there is none.

    The clauses are those of to_2cnf(g), handed to the 2SAT core
    unchecked, since a graph's keys are checked when it is built.
    """
    choice = _solve_implications(g.n, to_2cnf(g))
    if choice is None:
        return None
    result = Assignment(choice)
    if not is_clique(g, result):
        raise RuntimeError("2SAT answer %s is not a clique" % (result,))
    return result


# --- serialization ------------------------------------------------------

def graph_to_dict(g: Graph2P) -> dict:
    """JSON object storing the complement, which is small for dense graphs."""
    missing = [[[i, p], [j, q]] for i, j, p, q in g._keys]
    return {"n": g.n, "missing_edges": missing}


def graph_from_dict(obj: dict) -> Graph2P:
    """The graph of a graph JSON object.  The shape of every row is
    checked before the range of any row, so a malformed file is named as
    such wherever its bad row sits."""
    if not isinstance(obj, dict) or not {"n", "missing_edges"} <= obj.keys():
        raise ValueError('graph JSON needs an object with "n" and '
                         '"missing_edges"')
    n = obj["n"]
    # checked here too, so a bad or large n is refused before any row is read
    check_count(n, "graph_from_dict", 1, most=GRAPH_MAX_PARTS,
                guard="graph-parts")
    rows = obj["missing_edges"]
    if not isinstance(rows, list) or not _are_edge_rows(rows):
        raise ValueError('"missing_edges" must be a list of '
                         '[[part, pos], [part, pos]] integer pairs')
    return Graph2P(n, missing=rows)


def _are_edge_rows(rows: list) -> bool:
    """Is every row a [[part, pos], [part, pos]] with integer entries?"""
    for row in rows:
        if not isinstance(row, _PAIR_TYPES) or len(row) != 2:
            return False
        u, v = row
        if not (isinstance(u, _PAIR_TYPES) and len(u) == 2
                and isinstance(v, _PAIR_TYPES) and len(v) == 2):
            return False
        # type() is int settles what JSON gives; is_int the int subclasses
        if not (type(u[0]) is int and type(u[1]) is int
                and type(v[0]) is int and type(v[1]) is int
                or all(map(is_int, (*u, *v)))):
            return False
    return True


_PAIR_TYPES = (list, tuple)


def graph_to_json(g: Graph2P) -> str:
    obj = graph_to_dict(g)
    rows = ",\n  ".join(json.dumps(row) for row in obj["missing_edges"])
    if rows:
        return '{"n": %d,\n "missing_edges": [\n  %s\n ]}\n' % (obj["n"], rows)
    return '{"n": %d, "missing_edges": []}\n' % (obj["n"],)


def graph_from_json(text: str) -> Graph2P:
    return graph_from_dict(parse_json(text))
