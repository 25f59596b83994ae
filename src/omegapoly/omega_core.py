"""Vertices and affine structure of the two-per-part clique polytope.

The polytope for n parts lives in a 4 n^2 coordinate space indexed by
X[i, j, p, q] with parts i, j in 1..n and positions p, q in {1, 2}.  The
vertex of an assignment rho puts weight [p = rho(i)] * [q = rho(j)] on
X[i, j, p, q]: diagonal blocks (i = j) carry the chosen vertices of the
graph, off-diagonal blocks carry the chosen edges.

Four families of affine equalities hold at every vertex and cut out the
affine hull:

    (1)  X[i,j,p,q] = X[j,i,q,p]                  block symmetry
    (2)  X[i,i,1,1] + X[i,i,2,2] = 1               one pick per part
    (3)  X[i,i,1,2] = 0                            no mixed diagonal
    (4)  X[i,j,p,1] + X[i,j,p,2] = X[i,i,p,p]      edges sum to their vertex

They make the n(n+1)/2 coordinates y[i,j] = X[i,j,1,1] (i <= j) a full
parametrization; reduce_point and lift_point convert back and forth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graph2p import Assignment, part_bit, positions
from .guards import (DEFAULT_BRUTEFORCE_BOUND, _shown, check_bruteforce,
                     check_count)
from . import polyhedra
from .polyhedra import VRep

_ZERO = Fraction(0)
_ONE = Fraction(1)


def coord_count(n: int) -> int:
    return 4 * n * n


def coord_index(n: int, i: int, j: int, p: int, q: int) -> int:
    """Flat position of X[i,j,p,q] in lexicographic (i, j, p, q) order."""
    check_count(n, "coord_index", 1)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("parts (%s, %s) out of range 1..%s"
                         % (_shown(i), _shown(j), _shown(n)))
    if p not in (1, 2) or q not in (1, 2):
        raise ValueError("positions must be 1 or 2")
    return (((i - 1) * n + (j - 1)) * 2 + (p - 1)) * 2 + (q - 1)


def coord_tuples(n: int):
    """All (i, j, p, q) in flat order."""
    return itertools.product(range(1, n + 1), range(1, n + 1), (1, 2), (1, 2))


def reduced_count(n: int) -> int:
    return n * (n + 1) // 2


def reduced_index(n: int, i: int, j: int) -> int:
    """Flat position of y[i,j] (for i <= j) in lexicographic order."""
    check_count(n, "reduced_index", 1)
    if not (1 <= i <= j <= n):
        raise ValueError("need 1 <= i <= j <= n, got (%s, %s)"
                         % (_shown(i, repr), _shown(j, repr)))
    return (i - 1) * (2 * n - i + 2) // 2 + (j - i)


def reduced_pairs(n: int):
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            yield (i, j)


@dataclass(frozen=True)
class OmegaPoint:
    """A point of the full 4 n^2 dimensional coordinate space."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        check_count(self.n, "OmegaPoint", 1)
        if len(self.coords) != coord_count(self.n):
            raise ValueError("expected %s coordinates, got %d" % (
                _shown(coord_count(self.n)), len(self.coords)))

    def coord(self, i: int, j: int, p: int, q: int) -> Fraction:
        return self.coords[coord_index(self.n, i, j, p, q)]


@dataclass(frozen=True)
class ReducedPoint:
    """A point in the n(n+1)/2 coordinates y[i,j] = X[i,j,1,1], i <= j."""

    n: int
    y: tuple[Fraction, ...]

    def __post_init__(self):
        check_count(self.n, "ReducedPoint", 1)
        if len(self.y) != reduced_count(self.n):
            raise ValueError("expected %s reduced coordinates, got %d" % (
                _shown(reduced_count(self.n)), len(self.y)))

    def value(self, i: int, j: int) -> Fraction:
        return self.y[reduced_index(self.n, i, j)]


def _code(n: int, a: Assignment, what: str) -> int:
    """The vertex code of a, once the count rule has passed n for what
    and a is checked to have n parts."""
    check_count(n, what, 1)
    if a.n != n:
        raise ValueError("assignment has %d parts, expected %s"
                         % (a.n, _shown(n)))
    return a.code


def _vertex(n: int, z: int) -> OmegaPoint:
    rho = positions(n, z)
    return OmegaPoint(n, tuple([_ONE if p == rho[i - 1] and q == rho[j - 1]
                                else _ZERO
                                for (i, j, p, q) in coord_tuples(n)]))


def vertex_from_assignment(n: int, a: Assignment) -> OmegaPoint:
    """The 0/1 vertex of an assignment: X[i,j,p,q] = [p = rho(i)][q = rho(j)]."""
    return _vertex(n, _code(n, a, "vertex_from_assignment"))


def all_assignments(n: int,
                    bound: int = DEFAULT_BRUTEFORCE_BOUND) -> list[Assignment]:
    """The 2^n assignments in lexicographic order, which is code order."""
    check_bruteforce(n, bound, "all_assignments")
    return [Assignment.from_code(n, z) for z in range(1 << n)]


def all_vertices(n: int,
                 bound: int = DEFAULT_BRUTEFORCE_BOUND) -> list[OmegaPoint]:
    """The 2^n vertices in lexicographic assignment order."""
    check_bruteforce(n, bound, "all_vertices")
    return [_vertex(n, z) for z in range(1 << n)]


@dataclass(frozen=True)
class EqualityViolation:
    equation: int            # 1..4, numbering the families in the docstring
    indices: tuple[int, ...]
    residual: Fraction


@dataclass(frozen=True)
class EqualityReport:
    violations: tuple[EqualityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_equalities(x: OmegaPoint) -> EqualityReport:
    """Evaluate every instance of equality families (1)-(4) on x.

    Residuals are left-hand side minus right-hand side; the report lists
    each violated instance with its indices.
    """
    n = x.n
    bad = []
    for (i, j, p, q) in coord_tuples(n):
        r = x.coord(i, j, p, q) - x.coord(j, i, q, p)
        if r != 0:
            bad.append(EqualityViolation(1, (i, j, p, q), r))
    for i in range(1, n + 1):
        r = x.coord(i, i, 1, 1) + x.coord(i, i, 2, 2) - 1
        if r != 0:
            bad.append(EqualityViolation(2, (i,), r))
        r = x.coord(i, i, 1, 2)
        if r != 0:
            bad.append(EqualityViolation(3, (i,), r))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for p in (1, 2):
                r = (x.coord(i, j, p, 1) + x.coord(i, j, p, 2)
                     - x.coord(i, i, p, p))
                if r != 0:
                    bad.append(EqualityViolation(4, (i, j, p), r))
    return EqualityReport(tuple(bad))


def reduce_point(x: OmegaPoint) -> ReducedPoint:
    """Keep the coordinates y[i,j] = X[i,j,1,1], i <= j.

    Only meaningful on points satisfying the equalities, so anything else
    is rejected.
    """
    report = check_equalities(x)
    if not report.ok:
        raise ValueError("point violates %d equality instances, cannot reduce"
                         % (len(report.violations),))
    y = [x.coord(i, j, 1, 1) for (i, j) in reduced_pairs(x.n)]
    return ReducedPoint(x.n, tuple(y))


def lift_point(r: ReducedPoint) -> OmegaPoint:
    """The unique point of the affine hull with the given y coordinates.

    Diagonal blocks follow from (2) and (3), off-diagonal blocks from (4)
    and block symmetry (1):

        X[i,i,1,1] = y[i,i]            X[i,i,2,2] = 1 - y[i,i]
        X[i,j,1,1] = y[i,j]            X[i,j,1,2] = y[i,i] - y[i,j]
        X[i,j,2,1] = y[j,j] - y[i,j]   X[i,j,2,2] = 1 - y[i,i] - y[j,j] + y[i,j]

    for i < j, and X[j,i,q,p] = X[i,j,p,q].  Total on all inputs.
    """
    n = r.n
    coords = [_ZERO] * coord_count(n)

    def put(i, j, p, q, val):
        coords[coord_index(n, i, j, p, q)] = val

    for i in range(1, n + 1):
        yii = r.value(i, i)
        put(i, i, 1, 1, yii)
        put(i, i, 2, 2, _ONE - yii)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yii, yjj, yij = r.value(i, i), r.value(j, j), r.value(i, j)
            vals = {(1, 1): yij,
                    (1, 2): yii - yij,
                    (2, 1): yjj - yij,
                    (2, 2): _ONE - yii - yjj + yij}
            for (p, q), val in vals.items():
                put(i, j, p, q, val)
                put(j, i, q, p, val)
    out = OmegaPoint(n, tuple(coords))
    if not check_equalities(out).ok:
        raise RuntimeError("lifted point violates the equalities")
    return out


def reduced_bits(n: int, z: int) -> tuple[int, ...]:
    """The reduced vertex of code z as the ints 0 and 1:
    y[i,j] = [rho(i) = 1][rho(j) = 1], the AND of the two clear bits of
    parts i and j."""
    return tuple([0 if z & (part_bit(n, i) | part_bit(n, j)) else 1
                  for (i, j) in reduced_pairs(n)])


def reduced_vertex(n: int, a: Assignment) -> ReducedPoint:
    """The reduced vertex of a, without the full-space detour."""
    bits = reduced_bits(n, _code(n, a, "reduced_vertex"))
    return ReducedPoint(n, tuple([_ONE if b else _ZERO for b in bits]))


def reduced_vertex_vrep(n: int,
                        bound: int = DEFAULT_BRUTEFORCE_BOUND) -> VRep:
    """All 2^n reduced vertices as a VRep, in assignment order."""
    check_bruteforce(n, bound, "reduced_vertex_vrep")
    return VRep(reduced_count(n),
                [reduced_bits(n, z) for z in range(1 << n)])


def independent_family(n: int) -> list[Assignment]:
    """n(n+1)/2 + 1 assignments whose vertices are affinely independent.

    The all-twos assignment, the n assignments with a single 1, and the
    C(n, 2) assignments with exactly two 1s, in that order.
    """
    check_count(n, "independent_family", 1)
    twos = sum(part_bit(n, i) for i in range(1, n + 1))
    codes = [twos] + [twos ^ part_bit(n, i) for i in range(1, n + 1)]
    codes += [twos ^ part_bit(n, i) ^ part_bit(n, j)
              for i, j in itertools.combinations(range(1, n + 1), 2)]
    return [Assignment.from_code(n, z) for z in codes]


def omega_dimension(n: int, bound: int = DEFAULT_BRUTEFORCE_BOUND) -> int:
    """Affine dimension of the vertex set, computed from scratch."""
    check_bruteforce(n, bound, "omega_dimension", least=2)
    vertices = all_vertices(n, bound)
    return polyhedra.affine_rank(VRep(coord_count(n), [v.coords for v in vertices]))

