"""Oriented link diagrams as planar diagram (PD) codes.

A diagram is a set of crossings plus a count of crossingless circles
("free loops").  Each crossing ``X(a,b,c,d)`` lists the four arc labels
counterclockwise around the crossing, starting at the incoming understrand:
``a`` is the incoming under arc, ``c`` the outgoing under arc, and ``b``/``d``
carry the overstrand, whose direction is resolved from the global succession
rule: the outgoing over arc is the successor of the incoming over arc within
its component's arc cycle.

Sign convention: a crossing is positive exactly when the incoming overstrand
occupies position ``d``.  Equivalently, rotating the overstrand's direction
counterclockwise by a quarter turn gives the understrand's direction.  This
matches the usual reading of published PD codes (e.g. the standard trefoil
code X(1,4,2,5);X(3,6,4,1);X(5,2,6,3) has writhe -3).

Arc labels are positive integers; each label occurs exactly twice overall.
Text grammar::

    PD   := item (';' item)*
    item := 'X(' int ',' int ',' int ',' int ')' | 'O'

``O`` denotes a free loop (PD codes cannot express a crossingless circle).
"""

from __future__ import annotations

import re
from bisect import insort
from functools import partial
from itertools import chain, compress
from typing import Iterable, NamedTuple


class PDSyntaxError(ValueError):
    """Malformed PD text; carries the 0-based offset of the bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PDValidationError(ValueError):
    """Structurally invalid diagram (bad arc multiplicities or succession)."""


class _cached:
    """An attribute computed on first use and then stored on the instance,
    as functools.cached_property does, but without the lock that one takes
    on every first use before Python 3.12 (skein nodes make several)."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class Crossing(NamedTuple):
    """One crossing; over_in records which of b/d is the incoming over arc."""

    a: int
    b: int
    c: int
    d: int
    over_in: str  # 'b' or 'd'

    @property
    def over_in_arc(self) -> int:
        return self.b if self.over_in == "b" else self.d

    @property
    def over_out_arc(self) -> int:
        return self.d if self.over_in == "b" else self.b

    @property
    def sign(self) -> int:
        return 1 if self.over_in == "d" else -1

    def slots(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


# Crossing from a tuple of its fields, without the NamedTuple __new__
_crossing = partial(tuple.__new__, Crossing)


class Diagram:
    """An oriented link diagram: crossings plus crossingless circles.

    Immutable and hashable; equal only to another Diagram.
    """

    crossings: tuple[Crossing, ...]
    free_loops: int
    # Positions of the only crossings that can take part in an R1/R2 move,
    # or None when any can: reduce settles its result (empty set) and the
    # moves on a settled diagram record which crossings they touched.
    _unsettled: frozenset[int] | None = None

    def __init__(self, crossings: tuple[Crossing, ...] = (), free_loops: int = 0):
        self.__dict__.update(crossings=crossings, free_loops=free_loops)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.crossings == other.crossings and self.free_loops == other.free_loops

    def __hash__(self) -> int:
        return hash((self.crossings, self.free_loops))

    def __repr__(self) -> str:
        return f"Diagram(crossings={self.crossings!r}, free_loops={self.free_loops!r})"

    def __reduce__(self):
        # pickles and copies carry the two fields, not the cached index
        # or the reduction marks
        return (Diagram, (self.crossings, self.free_loops))

    def arcs(self) -> set[int]:
        out: set[int] = set()
        for x in self.crossings:
            out.update(x.slots())
        return out

    @_cached
    def _arc_index(self) -> _ArcIndex:
        # a diagram never changes, so one index serves every step on it
        return _ArcIndex(self.crossings)


# memo keys print arc positions from these: "%s" of a str is several times
# cheaper than "%d" of an int (diagrams past 128 crossings make their own)
_LABELS = tuple(map(str, range(1, 257)))


class _ArcIndex:
    """Where each arc of a diagram starts and ends.

    end[arc] and start[arc] name the pass the arc arrives at and leaves
    from: 2*i + 1 for the understrand of crossing i, 2*i for its
    overstrand.  Both dicts are in pass order, so list(end)[p] is the arc
    into pass p and list(start)[p] the arc out of it.  succ[arc] is the
    arc after arc.  The component walk (cycles), the positions along it
    (names) and the arc -> component map (owner) are computed on first use.
    """

    def __init__(self, crossings: tuple[Crossing, ...]):
        self.end: dict[int, int] = {}
        self.start: dict[int, int] = {}
        self.succ: dict[int, int] = {}
        end, start, succ = self.end, self.start, self.succ
        pass_code = 0
        for a, b, c, d, over_in in crossings:
            if over_in == "d":
                b, d = d, b
            # b, d = over-in, over-out; the over pass goes in first
            end[b] = start[d] = pass_code
            end[a] = start[c] = pass_code + 1
            succ[a] = c
            succ[b] = d
            pass_code += 2

    @_cached
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Arc cycles ordered by minimal arc, each from its minimal arc."""
        succ = self.succ
        cycles: list[tuple[int, ...]] = []
        left = len(succ)
        rest = None
        # each walk starts at the least arc no earlier walk met, so the
        # cycles come out in order and start at their minimal arcs
        first = min(succ, default=None)
        while left:
            cycle = [first]
            arc = succ[first]
            while arc != first:
                cycle.append(arc)
                arc = succ[arc]
            cycles.append(tuple(cycle))
            left -= len(cycle)
            if left:
                if rest is None:
                    rest = set(succ)
                rest.difference_update(cycle)
                first = min(rest)
        return tuple(cycles)

    @_cached
    def names(self) -> dict[int, str]:
        """Arc -> its position from 1 along the cycles, as text, in walk order."""
        n = len(self.succ)
        labels = _LABELS if n <= len(_LABELS) else map(str, range(1, n + 1))
        return dict(zip(chain.from_iterable(self.cycles), labels))

    @_cached
    def owner(self) -> dict[int, int]:
        """Arc -> index of its component in cycles."""
        return {arc: k for k, cycle in enumerate(self.cycles) for arc in cycle}


UNKNOT = Diagram(free_loops=1)


# -- parsing and validation --------------------------------------------------

_ITEM = re.compile(r"\s*(O|X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\))\s*")


def parse_pd(text: str) -> Diagram:
    """Parse PD text, resolve overstrand directions, and validate.

    Raises PDSyntaxError for malformed text and PDValidationError when the
    arc structure is inconsistent (an arc not used exactly twice, succession
    not a bijection, or an overstrand whose direction cannot be resolved).
    """
    tuples: list[tuple[int, int, int, int]] = []
    free_loops = 0
    pos = 0
    while True:
        m = _ITEM.match(text, pos)
        if m is None:
            found = text[pos] if pos < len(text) else "end of input"
            raise PDSyntaxError(f"expected 'X(a,b,c,d)' or 'O', found {found!r}", pos)
        if m.group(1) == "O":
            free_loops += 1
        else:
            tuples.append(tuple([int(g) for g in m.groups()[1:]]))  # type: ignore[arg-type]
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != ";":
            raise PDSyntaxError(f"expected ';', found {text[pos]!r}", pos)
        pos += 1
    if not tuples and free_loops == 0:
        raise PDSyntaxError("empty diagram", 0)
    for t in tuples:
        for label in t:
            if label < 1:
                raise PDValidationError(f"arc labels must be positive, found {label}")
    over_ins = _resolve_over_directions(tuples)
    crossings = [Crossing(a, b, c, d, over_in) for (a, b, c, d), over_in in zip(tuples, over_ins)]
    return Diagram(tuple(crossings), free_loops)


def _resolve_over_directions(tuples: list[tuple[int, int, int, int]]) -> list[str]:
    """Decide, for each crossing, whether b or d is the incoming over arc.

    Every arc must end at exactly one pass and start at exactly one pass.
    Under passes fix a as an end and c as a start; the over pass of each
    crossing consumes one end and one start from {b, d}.  Unit propagation
    commits every locally forced choice; anything still undecided afterwards
    is genuinely ambiguous input.
    """
    counts: dict[int, int] = {}
    for t in tuples:
        for label in t:
            counts[label] = counts.get(label, 0) + 1
    bad = sorted(label for label, n in counts.items() if n != 2)
    if bad:
        raise PDValidationError(
            f"each arc label must occur exactly twice; violated by {bad}"
        )

    end_free = {label: 1 for label in counts}
    start_free = {label: 1 for label in counts}

    def consume(table: dict[int, int], label: int, what: str) -> None:
        table[label] -= 1
        if table[label] < 0:
            raise PDValidationError(
                f"arc succession is not a bijection: arc {label} {what} twice"
            )

    for a, _, c, _ in tuples:
        consume(end_free, a, "ends")
        consume(start_free, c, "starts")

    decided: dict[int, str] = {}
    while len(decided) < len(tuples):
        progress = False
        for i, (_, b, _, d) in enumerate(tuples):
            if i in decided:
                continue
            b_in_ok = end_free[b] > 0 and start_free[d] > 0
            d_in_ok = end_free[d] > 0 and start_free[b] > 0
            if b == d:
                # over pass enters and leaves on one arc: sign is unknowable
                b_in_ok = d_in_ok = end_free[b] > 0 and start_free[b] > 0
            if not b_in_ok and not d_in_ok:
                raise PDValidationError(
                    f"arc succession is not a bijection at crossing {i + 1}"
                )
            if b_in_ok and d_in_ok:
                continue
            over_in = "b" if b_in_ok else "d"
            incoming, outgoing = (b, d) if over_in == "b" else (d, b)
            consume(end_free, incoming, "ends")
            consume(start_free, outgoing, "starts")
            decided[i] = over_in
            progress = True
        if not progress:
            undecided = sorted(set(range(len(tuples))) - set(decided))
            raise PDValidationError(
                "overstrand direction is ambiguous at crossing(s) "
                + ", ".join(str(i + 1) for i in undecided)
            )
    return [decided[i] for i in range(len(tuples))]


def pd_text(d: Diagram) -> str:
    """PD text for d with its current labels (crossings in stored order)."""
    items = [f"X({x.a},{x.b},{x.c},{x.d})" for x in d.crossings]
    items += ["O"] * d.free_loops
    return ";".join(items)


# -- components and orientation-derived data ----------------------------------


def components(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Arc cycles ordered by minimal arc, each starting at its minimal arc.

    Free loops contribute empty trailing cycles, so len(components(d)) is the
    component count of the link.
    """
    return d._arc_index.cycles + ((),) * d.free_loops


def sign(d: Diagram, x: Crossing) -> int:
    """+1 or -1 for a crossing of d."""
    if x not in d.crossings:
        raise ValueError("crossing does not belong to this diagram")
    return x.sign


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(x.sign for x in d.crossings)


def linking_number(d: Diagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between components c1 and c2.

    c1 and c2 index into components(d); they must be distinct and in range.
    """
    comps = components(d)
    n = len(comps)
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise ValueError(f"component index out of range (diagram has {n})")
    if c1 == c2:
        raise ValueError("linking number needs two distinct components")
    owner = d._arc_index.owner
    total = 0
    wanted = {c1, c2}
    for x in d.crossings:
        if {owner[x.a], owner[x.over_in_arc]} == wanted:
            total += x.sign
    # in a planar diagram two components cross an even number of times
    if total % 2:
        raise PDValidationError(
            f"components {c1} and {c2} cross an odd number of times;"
            " the PD code is not planar"
        )
    return total // 2


# -- elementary moves ---------------------------------------------------------


def _crossing_index(d: Diagram, x: Crossing) -> int:
    try:
        # tuple.index tries identity first, and two crossings of a diagram
        # differ in their first field (each arc ends once), so this
        # compares one int per crossing and allocates nothing
        return d.crossings.index(x)
    except ValueError:
        raise ValueError("crossing does not belong to this diagram") from None


def switch_crossing(d: Diagram, x: Crossing) -> Diagram:
    """Exchange over/under at x; arc labels and all other crossings unchanged."""
    i = _crossing_index(d, x)
    a, b, c, d_, over_in = x
    y = _crossing((d_, a, b, c, "b") if over_in == "d" else (b, c, d_, a, "d"))
    out = Diagram(d.crossings[:i] + (y,) + d.crossings[i + 1 :], d.free_loops)
    if d._unsettled is not None:
        # a switch keeps every kink status; new R2 pairs all contain i
        out.__dict__["_unsettled"] = d._unsettled | {i}
    return out


def mirror(d: Diagram) -> Diagram:
    """Exchange over/under at every crossing (every sign negates)."""
    out = d
    for x in list(out.crossings):
        out = switch_crossing(out, x)
    return out


def smooth_crossing(d: Diagram, x: Crossing) -> Diagram:
    """Oriented smoothing at x: a joins the over-out arc, over-in joins c.

    The crossing count drops by one and the component count changes by
    exactly one.  Each run of joined arcs takes its minimal label; a run
    that closes on itself becomes a free loop.  Only the crossings at the
    far ends of x's arcs are rebuilt.
    """
    i = _crossing_index(d, x)
    a, b, c, d_, over_in = x
    oi, oo = (d_, b) if over_in == "d" else (b, d_)
    loops = d.free_loops
    if a == oo and oi == c:
        loops, runs = loops + 2, ()  # two kinks: two circles
    elif a == c and oi == oo:
        loops, runs = loops + 1, ()  # both strands meet only x: one circle
    elif a == oo or oi == c:
        # a kink closes into a circle; the other join fuses two arcs
        loops, runs = loops + 1, ((oi, c) if a == oo else (a, oo),)
    elif a == c or oi == oo:
        runs = ((a, oo, oi, c),)  # one strand meets only x: one run
    else:
        runs = ((a, oo), (oi, c))
    mapping: dict[int, int] = {}
    for run in runs:
        low = min(run)
        for arc in run:
            mapping[arc] = low
    start, end = d._arc_index.start, d._arc_index.end
    # the other crossings that share an arc with x
    far = {start[a] >> 1, end[oo] >> 1, start[oi] >> 1, end[c] >> 1}
    far.discard(i)
    # not tuple(<generator>): that grows by repeated realloc, which past
    # 512 bytes leaves pymalloc and ratchets peak RSS on long diagrams;
    # tuple(<list>) allocates once
    kept = list(d.crossings)
    get = mapping.get
    for j in far:
        a, b, c, d_, over_in = kept[j]
        kept[j] = _crossing((get(a, a), get(b, b), get(c, c), get(d_, d_), over_in))
    del kept[i]
    out = Diagram(tuple(kept), loops)
    if d._unsettled is not None:
        # only the rebuilt crossings can gain a kink or an R2 partner
        unsettled = far.union(d._unsettled)
        unsettled.discard(i)
        out.__dict__["_unsettled"] = frozenset([j - (j > i) for j in unsettled])
    return out


# -- Reidemeister reduction ----------------------------------------------------


def reduce(d: Diagram) -> Diagram:
    """Apply R1 and R2 simplifications until none remain.

    Both moves preserve the link type, hence the Conway polynomial.  No other
    moves are attempted; the result is generally not a minimal diagram.
    The first kink in crossing order is removed first; with no kink left,
    the lexicographically first R2 pair (i, j), i < j, goes next.
    """
    xs = d.crossings
    index = d._arc_index
    end, start = index.end, index.start
    inn, out = list(end), list(start)  # the arcs into and out of each pass

    def is_kink(i: int) -> bool:
        # a kink shares one arc between its over and under passes
        p = i + i
        return out[p + 1] == inn[p] or inn[p + 1] == out[p]

    def partners(i: int) -> list[int]:
        # opposite-sign crossings joined to i by an under arc and an over
        # arc: u is the under pass of crossing j = u >> 1, and u - 1 is
        # the over pass of j
        p = i + i
        overs = (end[out[p]], start[inn[p]])
        found = []
        for u in (end[out[p + 1]], start[inn[p + 1]]):
            j = u >> 1
            if u & 1 and u - 1 in overs and j != i and xs[j][4] != xs[i][4]:
                found.append(j)
        return found

    def note(i: int) -> None:
        # queue crossing i if it is a kink or has an R2 partner; only a move
        # that touches a crossing can change that
        if is_kink(i):
            insort(kinks, i)
        found = partners(i)
        if found:
            for j in [i] + found:
                insort(pairs, j)

    # sorted worklists of the crossings that may be a kink or have an R2
    # partner; each is checked again when taken
    kinks: list[int] = []
    pairs: list[int] = []
    for i in range(len(xs)) if d._unsettled is None else d._unsettled:
        note(i)
    if not kinks and not pairs:
        d.__dict__["_unsettled"] = frozenset()
        return d

    def drop_pass(p: int) -> None:
        # join the arc into pass p to the arc out of it; as in
        # smooth_crossing, the joined arc keeps the smaller label
        nonlocal loops
        u, v = inn[p], out[p]
        del end[u], start[v]
        if u == v:
            loops += 1  # the arc closes into a crossingless circle
            return
        s, e = start.pop(u), end.pop(v)  # where u starts and v ends
        r = min(u, v)
        start[r], end[r] = s, e
        out[s] = inn[e] = r
        touched.update((s >> 1, e >> 1))

    # moves rewrite the incidences, so they work on copies
    end, start = dict(end), dict(start)
    alive = [True] * len(xs)
    loops = d.free_loops
    touched: set[int] = set()
    changed: set[int] = set()
    while True:
        move: list[int] = []
        while kinks and not move:
            i = kinks.pop(0)
            if alive[i] and is_kink(i):
                move = [i]
        while pairs and not move:
            i = pairs.pop(0)
            if alive[i]:
                found = partners(i)
                if found:
                    move = [i, min(found)]
        if not move:
            break
        touched.clear()
        for i in move:
            alive[i] = False
            drop_pass(i + i + 1)
            drop_pass(i + i)
        changed |= touched
        for i in touched:
            if alive[i]:
                note(i)
    kept = list(xs)
    for i in changed:
        if alive[i]:
            p = i + i
            over_in = xs[i][4]
            b, d_ = (out[p], inn[p]) if over_in == "d" else (inn[p], out[p])
            kept[i] = _crossing((inn[p + 1], b, out[p + 1], d_, over_in))
    # through a list, as in smooth_crossing: tuple(<iterator>) grows by
    # repeated realloc, which ratchets peak RSS
    result = Diagram(tuple(list(compress(kept, alive))), loops)
    result.__dict__["_unsettled"] = frozenset()
    return result


def is_graph_connected(d: Diagram) -> bool:
    """True when the diagram is one piece as a 4-valent graph.

    Free loops count as separate pieces.  The empty diagram is connected.
    Two link components are in one piece when they cross, so the pieces
    are the classes of the union, over all crossings, of the components
    of its under and over arcs.
    """
    pieces = d.free_loops
    if not d.crossings:
        return pieces <= 1
    if pieces:
        return False
    index = d._arc_index
    joins = len(index.cycles) - 1
    if not joins:
        return True
    owner = index.owner
    piece = list(range(joins + 1))  # component -> piece label
    # b is on the overstrand whichever way it runs
    for a, b, _, _, _ in d.crossings:
        p, q = piece[owner[a]], piece[owner[b]]
        if p != q:
            piece = [p if r == q else r for r in piece]
            joins -= 1
            if not joins:
                return True
    return False


# -- canonical form -----------------------------------------------------------


def _relabel(d: Diagram, mapping: dict[int, int]) -> Diagram:
    get = mapping.get
    crossings = [
        Crossing(get(a, a), get(b, b), get(c, c), get(d_, d_), over_in)
        for a, b, c, d_, over_in in d.crossings
    ]
    return Diagram(tuple(crossings), d.free_loops)


def canonical_code(d: Diagram) -> str:
    """Deterministic string key for memoization.

    Components are traversed in order of their minimal original arc label,
    starting at that arc; arcs are renumbered sequentially from 1 along the
    traversal; the relabeled crossings are serialized in sorted order.  Two
    diagrams that differ only by an order-preserving relabeling of arcs get
    the same code.

    The code leaves out which of b/d is the incoming over arc, but the
    sequential labels keep it: the over-out arc is the over-in arc + 1, or
    the first arc of the cycle when the over-in arc is its last.  Both
    readings fit only on a two-arc cycle; an under pass on it fixes the
    direction, and a cycle with no under pass lifts off the rest, so either
    reading is split and worth 0.  parse_pd refuses as ambiguous a code with
    a component that passes under nowhere.
    """
    index = d._arc_index
    names, end, xs = index.names, index.end, d.crossings
    # crossings differ in their relabelled first field, so the sorted order
    # is the walk order of their under-in arcs
    rows = []
    for arc, name in names.items():
        e = end[arc]
        if e & 1:
            _, b, c, d_, _ = xs[e >> 1]
            rows.append("X(%s,%s,%s,%s)" % (name, names[b], names[c], names[d_]))
    return ";".join(rows + ["O"] * d.free_loops)


# -- constructions ------------------------------------------------------------


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 next to d1 (labels shifted clear of d1's)."""
    offset = max(d1.arcs(), default=0)
    shifted = _relabel(d2, {arc: arc + offset for arc in d2.arcs()})
    return Diagram(d1.crossings + shifted.crossings, d1.free_loops + d2.free_loops)


def _arc_end_slot(d: Diagram, arc: int) -> tuple[int, str]:
    """(crossing index, 'a' or over slot letter) where arc arrives."""
    for i, x in enumerate(d.crossings):
        if x.a == arc:
            return i, "a"
        if x.over_in_arc == arc:
            return i, x.over_in
    raise ValueError(f"arc {arc} does not end at any crossing")


def _replace_slot(d: Diagram, index: int, slot: str, new_arc: int) -> Diagram:
    x = d.crossings[index]
    fields = {"a": x.a, "b": x.b, "c": x.c, "d": x.d}
    fields[slot] = new_arc
    y = Crossing(fields["a"], fields["b"], fields["c"], fields["d"], x.over_in)
    return Diagram(d.crossings[:index] + (y,) + d.crossings[index + 1 :], d.free_loops)


def connected_sum(d1: Diagram, arc1: int, d2: Diagram, arc2: int) -> Diagram:
    """Splice two knot diagrams along the chosen arcs, respecting orientation.

    Both inputs must be single-component diagrams with at least one crossing
    (a bare free loop has no arc to cut).
    """
    for d, arc, which in ((d1, arc1, "first"), (d2, arc2, "second")):
        if len(components(d)) != 1:
            raise ValueError(f"{which} operand is not a knot diagram")
        if arc not in d.arcs():
            raise ValueError(f"arc {arc} not present in the {which} operand")
    offset = max(d1.arcs(), default=0)
    shifted = _relabel(d2, {arc: arc + offset for arc in d2.arcs()})
    arc2s = arc2 + offset
    # cut arc1 (runs S1->E1) and arc2 (S2->E2); rejoin S1->E2 and S2->E1
    i1, slot1 = _arc_end_slot(d1, arc1)
    left = _replace_slot(d1, i1, slot1, arc2s)
    i2, slot2 = _arc_end_slot(shifted, arc2s)
    right = _replace_slot(shifted, i2, slot2, arc1)
    return Diagram(left.crossings + right.crossings, d1.free_loops + d2.free_loops)


def meridian_link(d: Diagram, arc: int | None = None) -> Diagram:
    """Add a small circle clasping one arc of a knot diagram once (lk = +1).

    The circle crosses the strand twice, once over and once under, with both
    crossings positive.  For the crossingless unknot the free loop itself is
    materialized as the clasped strand.
    """
    if len(components(d)) != 1:
        raise ValueError("meridian_link needs a knot diagram")
    if not d.crossings:
        # the unknot 'O': the result is a positive Hopf diagram
        return Diagram(
            (Crossing(4, 2, 3, 1, "d"), Crossing(2, 4, 1, 3, "d")),
            d.free_loops - 1,
        )
    if arc is None:
        arc = min(d.arcs())
    if arc not in d.arcs():
        raise ValueError(f"arc {arc} not present in the diagram")
    base = max(d.arcs())
    u, w, p, q = base + 1, base + 2, base + 3, base + 4
    i, slot = _arc_end_slot(d, arc)
    out = _replace_slot(d, i, slot, w)
    strand_enters_under = Crossing(u, q, w, p, "d")  # strand under, circle over
    strand_enters_over = Crossing(q, u, p, arc, "d")  # strand over, circle under
    return Diagram(
        out.crossings + (strand_enters_over, strand_enters_under), out.free_loops
    )


def _braid_closure(word: Iterable[int], strands: int) -> Diagram:
    """Trace closure of a braid word (internal constructor for tests/sweeps).

    Letters are nonzero integers: +i crosses strands i,i+1 with positive
    sign, -i with negative sign.  Strands are oriented upward; strand k's
    final arc is fused back onto its initial arc.
    """
    if strands < 1:
        raise ValueError("strands must be >= 1")
    letters = list(word)
    for letter in letters:
        if letter == 0 or abs(letter) >= strands:
            raise ValueError(f"braid letter {letter} out of range for {strands} strands")
    current = list(range(1, strands + 1))
    fresh = strands
    crossings: list[Crossing] = []
    for letter in letters:
        i = abs(letter)
        l_in, r_in = current[i - 1], current[i]
        l_out, r_out = fresh + 1, fresh + 2
        fresh += 2
        if letter > 0:
            crossings.append(Crossing(r_in, r_out, l_out, l_in, "d"))
        else:
            crossings.append(Crossing(l_in, r_in, r_out, l_out, "b"))
        current[i - 1], current[i] = l_out, r_out
    # closure: top of strand k rejoins its bottom arc
    mapping: dict[int, int] = {}
    loops = 0
    for k in range(strands):
        top, bottom = current[k], k + 1
        if top == bottom:
            loops += 1  # strand met no crossing: a crossingless circle
        else:
            mapping[top] = bottom
    d = _relabel(Diagram(tuple(crossings), loops), mapping)
    return d


def torus2_diagram(m: int) -> Diagram:
    """Standard diagram of the (2, m) torus link: closure of a 2-strand
    braid with m positive crossings.  Knot for odd m, 2-component link
    for even m; the crossingless unlink (m = 0) is not representable."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _braid_closure([1] * m, 2)


def _reverse_component(d: Diagram, comp: int) -> Diagram:
    """Reverse the orientation of one component (ingestion/testing helper)."""
    cycles = components(d)
    if not (0 <= comp < len(cycles)):
        raise ValueError("component index out of range")
    arcs = set(cycles[comp])
    out: list[Crossing] = []
    for x in d.crossings:
        under_rev = x.a in arcs
        over_rev = x.over_in_arc in arcs
        if under_rev and over_rev:
            out.append(Crossing(x.c, x.d, x.a, x.b, x.over_in))
        elif under_rev:
            flipped = "b" if x.over_in == "d" else "d"
            out.append(Crossing(x.c, x.d, x.a, x.b, flipped))
        elif over_rev:
            flipped = "b" if x.over_in == "d" else "d"
            out.append(Crossing(x.a, x.b, x.c, x.d, flipped))
        else:
            out.append(x)
    return Diagram(tuple(out), d.free_loops)
