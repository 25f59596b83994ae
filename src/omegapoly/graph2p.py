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

so models of the 2CNF are precisely the cliques.

A Graph2P is stored as its complement, the set of missing cross-part
edges.  That is what the 2CNF, the DIMACS text and the graph JSON all
list, so parsing a graph and solving it never builds the 4 * C(n, 2)
present edges; only the edges property does, on request.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .guards import (DEFAULT_BRUTEFORCE_BOUND, GRAPH_MAX_PARTS,
                     ScaleGuardError, check_bruteforce)


class VertexRef(NamedTuple):
    """One of the two vertices of a part; pos is 1 or 2."""

    part: int
    pos: int


Edge = tuple[VertexRef, VertexRef]


@dataclass(frozen=True, order=True)
class Assignment:
    """A choice of one vertex per part: choice[k] = rho(k + 1) in {1, 2}."""

    choice: tuple[int, ...]

    def __post_init__(self):
        if not self.choice:
            raise ValueError("assignment needs at least one part")
        if any(c not in (1, 2) for c in self.choice):
            raise ValueError("assignment entries must be 1 or 2")

    @property
    def n(self) -> int:
        return len(self.choice)

    def rho(self, part: int) -> int:
        """Chosen position of the given part (parts are 1-based)."""
        if not 1 <= part <= len(self.choice):
            raise ValueError("part %r out of range" % (part,))
        return self.choice[part - 1]

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.choice)


def assignment_from_text(text: str) -> Assignment:
    """Parse "1,2,1" into an Assignment."""
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError("bad assignment %r, want comma-separated 1/2" % (text,))
    return Assignment(parts)


def _canonical_edge(u, v, n: int) -> Edge:
    """The pair (u, v) checked against n parts, lower part first."""
    i, p = u
    j, q = v
    for part, pos in (u, v):
        if not 1 <= part <= n:
            raise ValueError("vertex %r: part out of range 1..%d"
                             % (VertexRef(part, pos), n))
        if pos not in (1, 2):
            raise ValueError("vertex %r: pos must be 1 or 2"
                             % (VertexRef(part, pos),))
    if i == j:
        raise ValueError("edge %r-%r joins vertices of the same part"
                         % (VertexRef(i, p), VertexRef(j, q)))
    if i < j:
        return (VertexRef(i, p), VertexRef(j, q))
    return (VertexRef(j, q), VertexRef(i, p))


def _cross_pairs(n: int):
    """Every cross-part vertex pair, canonical, in (i, j, p, q) order."""
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for p in (1, 2):
            for q in (1, 2):
                yield (VertexRef(i, p), VertexRef(j, q))


def _pair_order(e: Edge) -> tuple[int, int, int, int]:
    """Sort key giving the (i, j, p, q) order of _cross_pairs."""
    u, v = e
    return (u.part, v.part, u.pos, v.pos)


class Graph2P:
    """Immutable n-partite graph, two vertices per part, cross-part edges only.

    The graph is stored as its complement: missing is the frozenset of
    canonical cross-part pairs that are not edges.  Every consumer reads
    the missing edges (one 2SAT clause each, one row of the graph JSON),
    and the graphs of interest are dense, so the complement is the small
    side.  The constructor is keyword-only so that nobody can pass the
    present edges where the missing ones are meant.
    """

    def __init__(self, n: int, *, missing: Iterable = ()):
        if n < 1:
            raise ValueError("need at least one part")
        self.n = n
        self.missing = frozenset([_canonical_edge(u, v, n)
                                  for (u, v) in missing])

    @property
    def edges(self) -> frozenset[Edge]:
        """The present edges, rebuilt from missing on every access."""
        return frozenset(e for e in _cross_pairs(self.n)
                         if e not in self.missing)

    def __eq__(self, other):
        return (isinstance(other, Graph2P)
                and self.n == other.n and self.missing == other.missing)

    def __hash__(self):
        return hash((self.n, self.missing))

    def __repr__(self):
        present = 2 * self.n * (self.n - 1) - len(self.missing)
        return "Graph2P(n=%d, edges=%d)" % (self.n, present)

    def has_edge(self, u, v) -> bool:
        return _canonical_edge(u, v, self.n) not in self.missing

    def missing_edges(self) -> list[Edge]:
        """Cross-part vertex pairs that are not edges, in (i, j, p, q) order."""
        return sorted(self.missing, key=_pair_order)


def complete_graph(n: int) -> Graph2P:
    """All 4 * C(n, 2) cross-part edges present."""
    return Graph2P(n)


def without_edges(g: Graph2P, missing: Iterable) -> Graph2P:
    """Copy of g with the given edges removed."""
    return Graph2P(g.n, missing=itertools.chain(g.missing, missing))


def is_clique(g: Graph2P, a: Assignment) -> bool:
    """Does picking vertex (k, a.rho(k)) from every part induce a clique?

    It does unless some missing edge joins two picked vertices.
    """
    if a.n != g.n:
        raise ValueError("assignment has %d parts, graph has %d" % (a.n, g.n))
    rho = a.choice
    for (i, p), (j, q) in g.missing:
        if rho[i - 1] == p and rho[j - 1] == q:
            return False
    return True


def enumerate_cliques(g: Graph2P,
                      bound: int = DEFAULT_BRUTEFORCE_BOUND) -> list[Assignment]:
    """All cliques in lexicographic assignment order, by full enumeration."""
    check_bruteforce(g.n, bound, "enumerate_cliques")
    out = []
    for choice in itertools.product((1, 2), repeat=g.n):
        a = Assignment(choice)
        if is_clique(g, a):
            out.append(a)
    return out


# --- 2CNF ---------------------------------------------------------------

Literal = tuple[int, bool]  # (variable 1..num_vars, True = positive)


@dataclass(frozen=True)
class Cnf2:
    """A 2CNF: every clause has exactly two literals (repeats allowed)."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal], ...]

    def __post_init__(self):
        num_vars = self.num_vars
        if num_vars < 1:
            raise ValueError("need at least one variable")
        for cl in self.clauses:
            if len(cl) != 2:
                raise ValueError("clause %r does not have two literals" % (cl,))
            for var, pol in cl:
                if not 1 <= var <= num_vars:
                    raise ValueError("literal variable %d out of range" % (var,))
                if not isinstance(pol, bool):
                    raise ValueError("literal polarity must be bool")


def to_2cnf(g: Graph2P) -> Cnf2:
    """One variable per part, one clause per absent cross-part edge.

    The clause forbidding rho(i) = p uses literal (i, p == 2): for p = 1
    the literal is "not x_i" (x_i true means rho(i) = 1), for p = 2 it
    is "x_i".
    """
    return Cnf2(g.n, tuple([((i, p == 2), (j, q == 2))
                            for (i, p), (j, q) in g.missing_edges()]))


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Component index per node, numbered in order of completion.

    Iterative Tarjan; completion order is reverse topological on the
    condensation, which is what the 2SAT decision rule needs.  Each
    frame of the work stack holds a node and the iterator over its
    successors, so a node resumes where it left off after a descent.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
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
        onstack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp


def _lit_node(var: int, pol: bool) -> int:
    return 2 * (var - 1) + (0 if pol else 1)


def _satisfies(c: Cnf2, a: Assignment) -> bool:
    if a.n < c.num_vars:
        raise ValueError("assignment has %d parts, formula has %d variables"
                         % (a.n, c.num_vars))
    rho = a.choice
    for (v1, p1), (v2, p2) in c.clauses:
        if (rho[v1 - 1] == 1) != p1 and (rho[v2 - 1] == 1) != p2:
            return False
    return True


def solve_2sat(c: Cnf2) -> Assignment | None:
    """A satisfying assignment decoded as part choices, or None.

    Implication graph plus strongly connected components, so the cost is
    linear in variables + clauses.  Variable x_i true decodes to
    rho(i) = 1.
    """
    nn = 2 * c.num_vars
    adj: list[list[int]] = [[] for _ in range(nn)]
    for (v1, p1), (v2, p2) in c.clauses:
        a1 = _lit_node(v1, p1)
        a2 = _lit_node(v2, p2)
        adj[a1 ^ 1].append(a2)  # not l1 implies l2
        adj[a2 ^ 1].append(a1)  # not l2 implies l1
    comp = _tarjan_scc(adj)
    choice = []
    for var in range(1, c.num_vars + 1):
        pos = comp[_lit_node(var, True)]
        neg = comp[_lit_node(var, False)]
        if pos == neg:
            return None
        # the literal whose component completes first sits deeper in the
        # implication order and is safe to set true
        choice.append(1 if pos < neg else 2)
    result = Assignment(tuple(choice))
    if not _satisfies(c, result):
        raise RuntimeError("2SAT assignment %s violates a clause" % (result,))
    return result


def find_clique(g: Graph2P) -> Assignment | None:
    """A clique of g via the 2SAT reduction, or None if there is none."""
    result = solve_2sat(to_2cnf(g))
    if result is None:
        return None
    if not is_clique(g, result):
        raise RuntimeError("2SAT answer %s is not a clique" % (result,))
    return result


# --- serialization ------------------------------------------------------

def graph_to_dict(g: Graph2P) -> dict:
    """JSON object storing the complement, which is small for dense graphs."""
    missing = [[[u.part, u.pos], [v.part, v.pos]] for (u, v) in g.missing_edges()]
    return {"n": g.n, "missing_edges": missing}


def graph_from_dict(obj: dict) -> Graph2P:
    if not isinstance(obj, dict) or not {"n", "missing_edges"} <= obj.keys():
        raise ValueError('graph JSON needs an object with "n" and '
                         '"missing_edges"')
    n = obj["n"]
    if not _is_int(n):
        raise ValueError("n must be an integer")
    if n > GRAPH_MAX_PARTS:
        raise ScaleGuardError(
            "graph-parts", GRAPH_MAX_PARTS, n,
            "graph with %d parts is out of reach: n = %d is the largest "
            "graph" % (n, GRAPH_MAX_PARTS))
    rows = obj["missing_edges"]
    if not isinstance(rows, list) or not all(map(_is_edge_row, rows)):
        raise ValueError('"missing_edges" must be a list of '
                         '[[part, pos], [part, pos]] integer pairs')
    return Graph2P(n, missing=rows)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_edge_row(row) -> bool:
    """Is row a [[part, pos], [part, pos]] with integer entries?"""
    if not isinstance(row, (list, tuple)) or len(row) != 2:
        return False
    for w in row:
        if not isinstance(w, (list, tuple)) or len(w) != 2:
            return False
        for x in w:
            if not isinstance(x, int) or isinstance(x, bool):
                return False
    return True


def graph_to_json(g: Graph2P) -> str:
    obj = graph_to_dict(g)
    rows = ",\n  ".join(json.dumps(row) for row in obj["missing_edges"])
    if rows:
        return '{"n": %d,\n "missing_edges": [\n  %s\n ]}\n' % (obj["n"], rows)
    return '{"n": %d, "missing_edges": []}\n' % (obj["n"],)


def graph_from_json(text: str) -> Graph2P:
    return graph_from_dict(json.loads(text))


def cnf_to_dimacs(c: Cnf2) -> str:
    lines = ["p cnf %d %d" % (c.num_vars, len(c.clauses))]
    for (l1, l2) in c.clauses:
        toks = [(var if pol else -var) for (var, pol) in (l1, l2)]
        lines.append("%d %d 0" % (toks[0], toks[1]))
    return "\n".join(lines) + "\n"


def cnf_from_dimacs(text: str) -> Cnf2:
    num_vars = None
    declared = None
    clauses: list[tuple[Literal, Literal]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            toks = line.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise ValueError("bad problem line %r" % (line,))
            num_vars, declared = int(toks[2]), int(toks[3])
            continue
        if num_vars is None:
            raise ValueError("clause before problem line")
        toks = [int(t) for t in line.split()]
        if toks[-1] != 0:
            raise ValueError("clause line %r not 0-terminated" % (line,))
        lits = toks[:-1]
        if len(lits) != 2:
            raise ValueError("clause %r does not have exactly two literals" % (line,))
        clauses.append(tuple((abs(t), t > 0) for t in lits))  # type: ignore[arg-type]
    if num_vars is None:
        raise ValueError("missing problem line")
    if declared != len(clauses):
        raise ValueError("declared %s clauses, found %d" % (declared, len(clauses)))
    return Cnf2(num_vars, tuple(clauses))
