"""Vertex-to-facet conversion by double description on primitive integer
vectors.  Imports only exact."""

from typing import Sequence

from .exact import _coprime, _dot


def _columns(masks: Sequence[int], width: int) -> list[int]:
    """The transpose of masks of at most width bits: entry c is the bitset
    of the positions whose mask has bit c.  Written as binary strings of
    width digits, last mask first, and joined, the masks put the digit of
    each position on bit c at a stride of width, so every width-th digit
    from offset width - 1 - c, read as a binary number, is column c."""
    spec = "0%db" % width
    rows = "".join([format(mask, spec) for mask in reversed(masks)])
    return [int("0" + rows[width - 1 - c::width], 2) for c in range(width)]


def _byte_tables(masks: Sequence[int]) -> list[list[int | None]]:
    """Byte-chunk lookup tables over the positions of rays with the given
    tight masks: entry v of tables[k], read through _table_entry, is the
    bitset of the rays tight on every constraint of the byte value v at
    byte k, that is, on every set bit of v << 8k.

    Only entry 0, every ray, and the eight single-bit entries, the
    columns of constraints 8k to 8k + 7, are built, by one transposition
    of the masks (_columns); an entry of two or more bits stays None
    until _table_entry first reads it.
    """
    width = (max(masks, default=0).bit_length() + 7) // 8 * 8
    columns = _columns(masks, width)
    everyone = (1 << len(masks)) - 1
    tables: list[list[int | None]] = []
    for low in range(0, width, 8):
        table: list[int | None] = [None] * 256
        table[0] = everyone
        for b in range(8):
            table[1 << b] = columns[low + b]
        tables.append(table)
    return tables


def _table_entry(table: list[int | None], v: int) -> int:
    """Entry v of a table from _byte_tables, filled in on its first read
    and kept: the AND of the entry of the top bit of v and the entry of
    the rest of v, read the same way."""
    entry = table[v]
    if entry is None:
        top = 1 << (v.bit_length() - 1)
        entry = table[v] = table[top] & _table_entry(table, v ^ top)
    return entry


def _partners_by_count(mask: int, minus: list, need: int) -> list:
    """The entries (ray, tight mask, a . ray, position bit) of minus that
    are tight on at least need of the constraints in mask: one popcount
    per entry."""
    return [e for e in minus if (mask & e[1]).bit_count() >= need]


def _miss_columns(tables: list[list[int | None]],
                  minus_bits: int) -> list[int]:
    """For each constraint c, the rays of the bitset minus_bits that are
    not tight on c: minus_bits less the single-bit entry of c."""
    return [minus_bits & ~table[1 << b] for table in tables for b in range(8)]


def _partners_by_planes(mask: int, misses: list[int],
                        minus_bits: int, slack: int) -> int:
    """The rays of the bitset minus_bits that miss at most slack of the
    constraints in mask, as a bitset, where misses[c] is the set of rays
    of minus_bits that miss constraint c (_miss_columns).

    Bit-sliced counting: after each constraint c of mask, planes[j] holds
    the rays that have missed at least j + 1 of the constraints seen.
    With slack = popcount(mask) - need, these are the rays
    _partners_by_count keeps, at popcount(mask) * (slack + 1) big-int
    steps on ints as wide as minus_bits, however many rays it holds.
    """
    planes = [0] * (slack + 1)
    rest = mask
    while rest:
        low = rest & -rest
        miss = misses[low.bit_length() - 1]
        for j in range(slack, 0, -1):
            planes[j] |= planes[j - 1] & miss
        planes[0] |= miss
        rest ^= low
    return minus_bits & ~planes[slack]


def _dd_extreme_rays(m: int, cons: list[tuple[int, ...]]
                     ) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of {y in Q^m : a . y >= 0 for every a in cons}, each
    with the bitmask of the constraints it is tight on (bit k for cons[k]).

    Incremental double description.  Starts from the full space as
    lineality, eliminates one lineality vector per independent constraint,
    then splits rays with the usual positive/zero/negative step, keeping
    only adjacent pairs (Fukuda-Prodon, "Double description method
    revisited", 1996).  The final cone must be pointed, which holds
    whenever the constraint normals span Q^m; the caller guarantees that.

    Each ray carries the bitmask of processed constraints it is tight on,
    and these masks are exact zero sets: lineality vectors stay orthogonal
    to every processed constraint, so eliminating one changes no earlier
    slack, and a ray made from a plus/minus pair is a positive combination
    of two rays with nonnegative slacks, so it is tight exactly where both
    are.  Two rays are adjacent iff their common zero set has rank
    cone_dim - 2, where cone_dim = m - len(lineality), which holds iff no
    third ray is tight on the whole common set.

    The adjacency test runs on bitsets over the positions of the rays,
    looked up in byte-chunk tables made at each step (_byte_tables): the
    rays tight on the constraints of one byte of a mask are one entry.
    A step builds the single-bit entries, the columns of its constraints,
    by one transposition of the masks, and fills an entry of more bits
    when the adjacency test first reads it (_table_entry): the DD on the
    n = 5 census face cone fills 1,222 of the 10,621 such entries of
    its 43 tables.  Positions are laid out minus rays first, then zero,
    then plus rays, so the minus rays are the low len(minus) bits.  A
    pair needs at least cone_dim - 2 common zeros.  Every ray kept is
    extreme, so tight on cone_dim - 1 or more (slack >= 1); each plus ray
    finds the minus rays that pass this count by one popcount per minus
    ray (_partners_by_count) or, when its op-count estimate is lower, by
    bit-sliced counting (_partners_by_planes), the pattern-tree idea of
    Terzer and Stelling (2008) in flat form.  That counting runs on
    len(minus)-bit ints: the single-bit entries cut to the low bits, once
    per step (_miss_columns).
    For a partner, the AND of the entries of the nonzero bytes of the
    common zeros is the set of rays tight on all of them, which always
    holds the pair itself, and the pair is adjacent iff it holds nothing
    else.  The AND stops as soon as only the pair is left.  Both routes
    keep the minus rays in order, and the survivors are the plus rays,
    the zero rays, then the new rays in that order, so rays, masks and
    their order depend neither on the route nor on the layout.

    Rays and constraints are primitive integer vectors, so every dot
    product and combination stays in plain int arithmetic.
    """
    lineality: list[tuple[int, ...]] = [
        tuple(1 if k == i else 0 for k in range(m)) for i in range(m)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (vector, tight bitmask)

    for idx, a in enumerate(cons):
        bit = 1 << idx
        hit = next((k for k, v in enumerate(lineality) if _dot(a, v) != 0), None)
        if hit is not None:
            v = lineality.pop(hit)
            dv = _dot(a, v)
            if dv < 0:
                v = tuple(-x for x in v)
                dv = -dv
            new_lin = []
            for u in lineality:
                du = _dot(a, u)
                if du != 0:
                    u = _coprime([dv * ux - du * vx for ux, vx in zip(u, v)])
                new_lin.append(u)
            lineality = new_lin
            new_rays = []
            for r, mask in rays:
                dr = _dot(a, r)
                if dr != 0:
                    r = _coprime([dv * rx - dr * vx for rx, vx in zip(r, v)])
                new_rays.append((r, mask | bit))
            # v itself was orthogonal to every earlier constraint, so it
            # is tight on all of them and strictly feasible on this one
            new_rays.append((v, bit - 1))
            rays = new_rays
            continue

        plus: list[tuple[tuple[int, ...], int, int]] = []
        zero: list[tuple[tuple[int, ...], int]] = []
        minus: list[tuple[tuple[int, ...], int, int, int]] = []
        for r, mask in rays:
            t = _dot(a, r)
            if t > 0:
                plus.append((r, mask, t))
            elif t < 0:
                minus.append((r, mask, t, 1 << len(minus)))
            else:
                zero.append((r, mask))
        survivors = ([(r, mask) for r, mask, _ in plus]
                     + [(r, mask | bit) for r, mask in zero])
        if not (plus and minus):
            rays = survivors
            continue
        tables = _byte_tables([e[1] for e in minus] + [e[1] for e in zero]
                              + [e[1] for e in plus])
        need = m - len(lineality) - 2
        everyone = (1 << len(rays)) - 1
        minus_bits = (1 << len(minus)) - 1
        misses = _miss_columns(tables, minus_bits)
        first_plus = 1 << (len(minus) + len(zero))
        for j, (rp, mp, tp) in enumerate(plus):
            zeros = mp.bit_count()
            slack = zeros - need
            if zeros * (slack + 1) * 3 < len(minus):
                hits = _partners_by_planes(mp, misses, minus_bits, slack)
                partners = []
                while hits:
                    low = hits & -hits
                    partners.append(minus[low.bit_length() - 1])
                    hits ^= low
            else:
                partners = _partners_by_count(mp, minus, need)
            bp = first_plus << j
            for rn, mn, tn, bn in partners:
                common = mp & mn
                pair = bp | bn
                tight = everyone
                rest = common
                k = 0
                while rest and tight != pair:
                    v = rest & 0xFF
                    if v:
                        entry = tables[k][v]
                        if entry is None:
                            entry = _table_entry(tables[k], v)
                        tight &= entry
                    rest >>= 8
                    k += 1
                if tight != pair:
                    continue
                w = _coprime([tp * nx - tn * px for px, nx in zip(rp, rn)])
                survivors.append((w, common | bit))
        rays = survivors

    if lineality:
        raise ValueError("cone is not pointed; constraints do not span")
    return rays
