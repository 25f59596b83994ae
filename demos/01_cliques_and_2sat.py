"""Finding cliques with one vertex per part, the 2SAT way.

A graph here is n parts with two vertices each and only cross-part
edges.  Picking one vertex per part so that all chosen pairs are
adjacent is exactly a satisfying assignment of a 2CNF with one variable
per part, so cliques come out of a linear-time solver instead of a
2^n search.
"""

from omegapoly import (
    complete_graph, enumerate_cliques, find_clique, graph_to_json,
    is_clique, to_2cnf, without_edges,
)

g = complete_graph(4)
print("complete graph on 4 parts: %d edges" % len(g.edges))
print("cliques:", len(enumerate_cliques(g)))

# knock out a few edges and watch the count drop
g = without_edges(g, [
    ((1, 1), (2, 1)),
    ((1, 1), (2, 2)),   # vertex (1,1) now sees nothing in part 2
    ((3, 1), (4, 1)),
])
cliques = enumerate_cliques(g)
print("\nafter removing 3 edges: %d cliques" % len(cliques))
for a in cliques:
    if not is_clique(g, a):
        raise SystemExit("%s is not a clique" % (a,))
print("first few:", ", ".join(str(a) for a in cliques[:4]))

# the same graph as a 2CNF
cnf = to_2cnf(g)
print("\n2CNF: %d variables, %d clauses (one per missing edge)"
      % (g.n, len(cnf)))

found = find_clique(g)
print("2SAT solver picks:", found)
if found not in cliques:
    raise SystemExit("2SAT answer %s is not an enumerated clique" % (found,))

# sever parts 1 and 2 completely: no clique can exist
dead = without_edges(g, [((1, p), (2, q)) for p in (1, 2) for q in (1, 2)])
print("\nno edges between parts 1 and 2 ->", find_clique(dead))

print("\ngraph file format:")
print(graph_to_json(dead))
