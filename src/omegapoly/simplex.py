"""The integer simplex core _int_lp, which also checks its duals on integers;
lp_solve in polyhedra is its one caller.  Imports only exact."""

from .exact import _dot, _int_pivot, _unit_pivot


def _price_out(tab, den, basis, cost):
    """Reset the objective row (the tableau's last row) to den * (z - c).
    It starts at -den * c.  Each basic entry is den and its column is
    zero in every other row, so a _unit_pivot on it clears the objective
    row's entry and changes no other row; that entry is still -den * c
    there, a multiple of den, so each division is exact."""
    tab[-1] = [-x * den for x in cost] + [0] * (len(tab[-1]) - len(cost))
    for i, bv in enumerate(basis):
        if tab[-1][bv]:
            _unit_pivot(tab, den, i, bv)


def _negate_column(tab, orient, k):
    """Store the other orientation of free variable k: x-_k for x+_k or
    back.  Its column is nonbasic, so the tableau stays a basis form."""
    for row in tab:
        row[k] = -row[k]
    orient[k] = -orient[k]


def _simplex_iterate(tab, den, basis, orient, allowed):
    """Run primal simplex to optimality on the integer tableau tab / den.

    Columns 0..d-1, d = len(orient), belong to the free variables x =
    x+ - x-, one column each: column k holds x+_k where orient[k] is 1
    and x-_k = -x+_k where it is -1, and these columns may always enter.
    Of the other columns only those in allowed may.  Bland's rule runs on
    the labels of the split tableau, with both halves of every free
    variable: x+_k is label k, x-_k label d + k and column c >= d label
    c + d.  A free variable enters in the orientation whose reduced cost
    is negative, its column negated first if it holds the other one; a
    basic column is never negated, so orient names each basic label.
    Every pivot is the one the split tableau takes, on the same column.

    Returns (den, pivots made, False if unbounded).  Entering and leaving
    follow Bland's rule (smallest improving label, ratio ties broken by
    smallest basic label), which cannot cycle.  Ratios rhs / coef with
    coef > 0 are compared by cross-multiplying.  The basis and orient
    name the split basis, so a (basis, orient) state seen before can
    only come from a faulty tableau, and it raises RuntimeError instead
    of looping forever.
    """
    d = len(orient)

    def label(c):
        return c if c < d and orient[c] > 0 else c + d

    pivots = 0
    seen = set()
    while True:
        state = (tuple(basis), tuple(orient))
        if state in seen:
            raise RuntimeError("simplex revisited a basis, which Bland's "
                               "rule rules out; the tableau is faulty")
        seen.add(state)
        obj = tab[-1]
        # x+_k improves where orient[k] * obj[k] < 0; when no x+ label
        # does, x-_k improves wherever obj[k] != 0
        enter = next((k for k in range(d) if orient[k] * obj[k] < 0), None)
        if enter is None:
            enter = next((k for k in range(d) if obj[k]), None)
        if enter is None:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return den, pivots, True
        elif obj[enter] > 0:
            _negate_column(tab, orient, enter)
        leave = None
        for i, bv in enumerate(basis):
            coef = tab[i][enter]
            if coef <= 0:
                continue
            if leave is not None:
                cmp = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * coef
                if cmp > 0 or (cmp == 0 and label(bv) > label(basis[leave])):
                    continue
            leave = i
        if leave is None:
            return den, pivots, False
        den = _int_pivot(tab, den, leave, enter)
        basis[leave] = enter
        pivots += 1


def _int_lp(cost: list[int], rows: list[list[int]], n_ineq: int):
    """Maximize cost . x over free x in Q^d, all in integers.

    rows are [coeffs..., rhs] with d coefficients: the first n_ineq mean
    coeffs . x >= rhs, the rest coeffs . x = rhs.  Two-phase simplex with
    Bland's rule on the integer tableau tab / den (_int_pivot), with one
    column per free variable (see _simplex_iterate).

    The start basis holds x = 0 wherever it can.  An inequality with
    rhs <= 0 holds there; it is written negated, so that its surplus
    entry is +1, and its surplus column starts basic.  Only equalities
    and inequalities with rhs > 0 start on an artificial, and phase 1
    prices those artificials alone (Chvatal, Linear Programming, ch. 8).
    When they all start at 0, as on the rhs-0 equalities of a face LP,
    phase 1 makes no simplex pivot and only drives them out.  Each row's
    start column carries its multiplier: a row that starts on its
    surplus gets no artificial, whose column would equal that surplus
    column (+e_i at the start, cost 0 in phase 2) in every tableau.

    Scaling all rows by one positive factor, or the cost by one, leaves
    Bland's pivots and the argument unchanged (the multipliers scale with
    the cost and inversely with the rows), so callers clear denominators
    that way.  Such a scaling keeps each rhs's sign, so the same rows
    start on their surplus columns, and each surplus entry is +1 or -1
    whatever the row's scale: a positive column scaling, which leaves
    Bland's choices unchanged as well.

    Returns (status, (phase 1 pivots, phase 2 pivots), den, x, y).  For
    an optimal solve x / den is the argument and y / den the multipliers
    of the rows (see LpResult); the three dual identities are checked on
    these numerators before returning.  Otherwise den, x and y are None.
    """
    d, m = len(cost), len(rows)
    nreal = d + n_ineq  # x | surplus

    # each row starts basic on its surplus column if x = 0 satisfies it,
    # else on an artificial column of its own
    start, nart = [], 0
    for i, row in enumerate(rows):
        if i < n_ineq and row[-1] <= 0:
            start.append(d + i)
        else:
            start.append(nreal + nart)
            nart += 1

    # rows are x | surplus | artificial | rhs, flipped to rhs >= 0 (and
    # a surplus start too, so that its surplus entry is +1); the last row
    # is the objective row den * (z - c)
    tab: list[list[int]] = []
    signs: list[int] = []
    for i, (*coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 or start[i] < nreal else 1
        row = ([sign * x for x in coeffs] + [0] * (n_ineq + nart)
               + [sign * rhs])
        if i < n_ineq:
            row[d + i] = -sign
        row[start[i]] = 1
        signs.append(sign)
        tab.append(row)
    tab.append([0] * (nreal + nart + 1))
    basis = list(start)
    orient = [1] * d

    # phase 1: maximize minus the sum of the artificials, which all start
    # basic.  At z = 0 the start is already feasible and optimal
    _price_out(tab, 1, basis, [0] * nreal + [-1] * nart)
    den, phase1 = 1, 0
    if tab[-1][-1] != 0:
        den, phase1, bounded = _simplex_iterate(
            tab, 1, basis, orient, range(d, nreal + nart))
        if not bounded:
            raise RuntimeError("phase 1 came out unbounded, which its "
                               "construction rules out")
        if tab[-1][-1] != 0:  # z = -(sum of artificials) at optimum
            return "infeasible", (phase1, 0), None, None, None

    # drive leftover artificials out of the basis, each on its row's
    # first nonzero label, which is x+_k before any x-; a row with no real
    # entry left is redundant and keeps its artificial basic at zero
    for i in range(m):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tab[i][j] != 0), None)
            if col is not None:
                if col < d and orient[col] < 0:
                    _negate_column(tab, orient, col)
                den = _int_pivot(tab, den, i, col)
                basis[i] = col
                phase1 += 1

    # phase 2
    _price_out(tab, den, basis, [o * c for o, c in zip(orient, cost)])
    den, phase2, bounded = _simplex_iterate(tab, den, basis, orient,
                                            range(d, nreal))
    if not bounded:
        return "unbounded", (phase1, phase2), None, None, None

    values = dict(zip(basis, (row[-1] for row in tab)))
    x = [orient[k] * values.get(k, 0) for k in range(d)]
    # the objective row's start columns hold den * c_B B^-1; with the
    # sign flips undone, y / den is the multiplier of each row
    y = [signs[i] * tab[-1][c] for i, c in enumerate(start)]

    for k in range(d):
        if sum(y[i] * rows[i][k] for i in range(m)) != cost[k] * den:
            raise RuntimeError("dual stationarity failed")
    if sum(y[i] * rows[i][-1] for i in range(m)) != _dot(cost, x):
        raise RuntimeError("strong duality failed")
    if any(y[i] > 0 for i in range(n_ineq)):
        raise RuntimeError("dual sign failed")
    return "optimal", (phase1, phase2), den, x, y
