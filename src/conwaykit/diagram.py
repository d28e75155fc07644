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
from bisect import bisect
from functools import partial
from itertools import chain
from typing import Iterable, NamedTuple


class PDSyntaxError(ValueError):
    """Malformed PD text; carries the 0-based offset of the bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PDValidationError(ValueError):
    """Structurally invalid diagram (bad arc multiplicities or succession,
    or crossings that do not lie in the plane)."""


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

    Immutable and hashable; equal only to another Diagram.  The constructor
    refuses all but a planar diagram: free_loops an int >= 0, Crossings
    with over_in 'b' or 'd' and positive int labels, each label used twice
    and no arc arriving at two passes.  It is the one check: parse_pd
    builds through it, and the moves and the builders make valid diagrams
    from valid ones and skip it.
    """

    crossings: tuple[Crossing, ...]
    free_loops: int

    def __init__(self, crossings: tuple[Crossing, ...] = (), free_loops: int = 0):
        if free_loops.__class__ is not int:
            raise TypeError(f"free_loops must be an int, found {free_loops!r}")
        if free_loops < 0:
            raise ValueError(f"free_loops must be >= 0, found {free_loops}")
        crossings = tuple(crossings)
        labels: list[int] = []
        for x in crossings:
            if x.__class__ is not Crossing or x[4] not in ("b", "d"):
                raise TypeError(
                    f"expected a Crossing with over_in 'b' or 'd', found {x!r}"
                )
            labels += x[:4]
        bad = [v for v in labels if v.__class__ is not int]  # a bool is not a label
        if bad:
            raise TypeError(f"arc labels must be ints, found {bad[0]!r}")
        other = _pair_slots(labels)
        self.__dict__.update(crossings=crossings, free_loops=free_loops)
        # with each label twice, succession is a bijection when no arc
        # arrives at two passes, that is when every arc has its own end
        if 2 * len(self._passes[0]) != len(labels):
            raise PDValidationError(
                "arc succession is not a bijection: an arc arrives at two passes"
            )
        _check_planar(other)

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
        # pickles and copies carry the two fields, not the cached arc data
        # or the reduction marks; a copy of a valid diagram is valid
        return (_diagram, (self.crossings, self.free_loops))

    def arcs(self) -> set[int]:
        return set(self._passes[0])

    # the arc data and the reduction mark below are computed on first use;
    # a diagram never changes, so its arc data serve every step on it
    @_cached
    def _passes(self) -> tuple[dict[int, int], dict[int, int]]:
        """(end, start): end[arc] and start[arc] name the pass the arc
        arrives at and leaves from, 2*i + 1 for the understrand of crossing
        i and 2*i for its overstrand.  In a valid diagram each arc leaves
        one pass, so start holds its arcs in pass order and
        list(start)[end[arc]] is the arc after arc."""
        end: dict[int, int] = {}
        start: dict[int, int] = {}
        pass_code = 0
        for a, b, c, d, over_in in self.crossings:
            if over_in == "d":
                b, d = d, b
            # b, d = over-in, over-out; the over pass goes in first
            end[b] = start[d] = pass_code
            end[a] = start[c] = pass_code + 1
            pass_code += 2
        return end, start

    @_cached
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        """Arc cycles ordered by minimal arc, each from its minimal arc."""
        end, start = self._passes
        outs = list(start)  # pass -> the arc leaving it
        cycles: list[tuple[int, ...]] = []
        left = len(end)
        rest = None
        # each walk starts at the least arc no earlier walk met, so the
        # cycles come out in order and start at their minimal arcs
        first = min(end, default=None)
        while left:
            cycle = [first]
            arc = outs[end[first]]
            while arc != first:
                cycle.append(arc)
                arc = outs[end[arc]]
            cycles.append(tuple(cycle))
            left -= len(cycle)
            if left:
                if rest is None:
                    rest = set(end)
                rest.difference_update(cycle)
                first = min(rest)
        return tuple(cycles)

    @_cached
    def _owner(self) -> dict[int, int]:
        """Arc -> index of its component in _cycles."""
        return {arc: k for k, cycle in enumerate(self._cycles) for arc in cycle}

    @_cached
    def _unsettled(self) -> frozenset[int]:
        """Positions of the crossings a move has touched since reduce last
        settled the diagram (the empty set then); they hold every kink and a
        crossing of every R2 pair.  A diagram no move has touched has every
        crossing marked."""
        return frozenset(range(len(self.crossings)))


def _diagram(crossings: tuple[Crossing, ...], free_loops: int) -> Diagram:
    """A Diagram without the check, for crossings known to be valid."""
    d = object.__new__(Diagram)
    d.__dict__.update(crossings=crossings, free_loops=free_loops)
    return d


# memo keys print arc positions from these: "%s" of a str is several times
# cheaper than "%d" of an int (diagrams past 128 crossings make their own)
_LABELS = tuple(map(str, range(1, 257)))


UNKNOT = _diagram((), 1)


# -- parsing and validation --------------------------------------------------

_ITEM = re.compile(r"\s*(O|X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\))\s*")


def parse_pd(text: str) -> Diagram:
    """Parse PD text, resolve overstrand directions, and build the Diagram.

    Raises PDSyntaxError for malformed text.  The Diagram constructor
    raises PDValidationError when the arc structure is inconsistent (an
    arc not used exactly twice, succession not a bijection, or crossings
    that do not lie in the plane).
    """
    labels: list[int] = []  # a, b, c, d of each crossing in turn
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
            labels += map(int, m.group(2, 3, 4, 5))
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != ";":
            raise PDSyntaxError(f"expected ';', found {text[pos]!r}", pos)
        pos += 1
    over_ins = _resolve_over_directions(_pair_slots(labels))
    fields = iter(labels)
    crossings = tuple(map(_crossing, zip(fields, fields, fields, fields, over_ins)))
    return Diagram(crossings, free_loops)


def _pair_slots(labels: list[int]) -> list[int]:
    """Slot s -> the slot at the other end of its arc, where labels[s] is
    the arc in slot s: 4*i + 0..3 hold a, b, c, d of crossing i.  Each
    label must be positive and occur exactly twice."""
    if min(labels, default=1) < 1:
        raise PDValidationError(f"arc labels must be positive, found {min(labels)}")
    other = [-1] * len(labels)
    first: dict[int, int] = {}
    bad = set()
    for slot, label in enumerate(labels):
        j = first.setdefault(label, slot)
        if j != slot:
            if other[j] < 0:
                other[j], other[slot] = slot, j
            else:
                bad.add(label)  # a third use
    bad.update(label for label, j in first.items() if other[j] < 0)
    if bad:
        raise PDValidationError(
            f"each arc label must occur exactly twice; violated by {sorted(bad)}"
        )
    return other


def _resolve_over_directions(other: list[int]) -> list[str]:
    """Decide, for each crossing, whether b or d is the incoming over arc.

    A strand entering at slot s leaves at s ^ 2 and enters the next crossing
    at other[s ^ 2].  One walk of each component, from one of its under
    passes entering at a, sets every over_in it meets.  A component that
    passes under nowhere is then walked in from slot b of a crossing still
    without a direction: it lies over all it meets and crosses nothing of
    its own, so either direction gives the same writhe, linking numbers and
    Conway polynomial (0, it lifts off).  Nothing is refused here: a walk
    that enters an under pass at c means two passes share an arc end, and
    the Diagram constructor refuses that with every choice of directions.
    """
    over_in: list[str | None] = [None] * (len(other) >> 2)
    entered = bytearray(len(other))
    # the under passes first: a b start is walked only if still undecided
    for start in chain(range(0, len(other), 4), range(1, len(other), 4)):
        s = start
        if s & 1 and over_in[s >> 2]:
            continue
        while not entered[s]:
            entered[s] = 1
            if s & 1:
                over_in[s >> 2] = "b" if s & 3 == 1 else "d"
            s = other[s ^ 2]
    return over_in  # type: ignore[return-value]


def _check_planar(other: list[int]) -> None:
    """Raise PDValidationError unless the crossings lie in the plane.

    Slots run counterclockwise, so a face leaves slot s along its arc to
    t = other[s] and goes on from slot (t - 1) mod 4 of that crossing.  By
    Euler's formula a connected piece of k crossings bounds k + 2 faces in
    the plane and fewer on any other surface, so n + 2p faces are needed,
    p the number of pieces.
    """
    turn = [t - 1 if t & 3 else t + 3 for t in other]  # slot -> next slot of its face
    seen = bytearray(len(other))
    faces = pieces = 0
    for start in range(len(other)):
        if seen[start]:
            continue
        pieces += 1
        todo = [start]  # slots of this piece, each walked round its face
        for s in todo:
            if not seen[s]:
                faces += 1
                while not seen[s]:
                    seen[s] = 1
                    todo.append(other[s])  # the face across the arc
                    s = turn[s]
    n = len(other) >> 2
    if faces != n + 2 * pieces:
        raise PDValidationError(
            f"the PD code is not planar: its {n} crossings bound {faces} faces,"
            f" not {n + 2 * pieces}"
        )


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
    return d._cycles + ((),) * d.free_loops


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(x.sign for x in d.crossings)


def linking_number(d: Diagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between components c1 and c2.

    c1 and c2 index into components(d); they must be distinct and in range.
    Every Diagram is planar (see Diagram), which makes the count even.
    """
    comps = components(d)
    n = len(comps)
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise ValueError(f"component index out of range (diagram has {n})")
    if c1 == c2:
        raise ValueError("linking number needs two distinct components")
    owner = d._owner
    total = 0
    wanted = {c1, c2}
    for x in d.crossings:
        if {owner[x.a], owner[x.over_in_arc]} == wanted:
            total += x.sign
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


def _switched(x: Crossing) -> Crossing:
    # the over-in arc becomes a; the slots keep their counterclockwise order
    a, b, c, d_, over_in = x
    return _crossing((d_, a, b, c, "b") if over_in == "d" else (b, c, d_, a, "d"))


def switch_crossing(d: Diagram, x: Crossing) -> Diagram:
    """Exchange over/under at x; arc labels and all other crossings unchanged."""
    i = _crossing_index(d, x)
    y = _switched(x)
    out = _diagram(d.crossings[:i] + (y,) + d.crossings[i + 1 :], d.free_loops)
    # a switch keeps every kink status; new R2 pairs all contain i
    out.__dict__["_unsettled"] = d._unsettled | {i}
    return out


def mirror(d: Diagram) -> Diagram:
    """Exchange over/under at every crossing (every sign negates)."""
    return _diagram(tuple([_switched(x) for x in d.crossings]), d.free_loops)


def _splice(d: Diagram, gone: tuple[int, ...], bridges: dict[int, int]) -> Diagram:
    """d without the crossings at the ascending positions gone, each arc
    into them continued by bridges[arc].

    bridges maps each arc that arrives at a pass of a gone crossing to an
    arc that leaves one.  Followed from an arc that leaves a kept crossing,
    it gives a run of arcs that join under the smallest label; a run that
    closes on itself becomes a free loop.  Only the crossings at the two
    ends of each run are rebuilt.  A splice keeps a diagram planar, and the
    rebuilt crossings are the only ones that can gain a kink or an R2
    partner, so they join the crossings d left unsettled.
    """
    end, start = d._passes
    mapping: dict[int, int] = {}
    ends = set()  # positions of the crossings at the ends of the runs
    nexts = bridges.values()
    for u in bridges:
        if u in nexts:
            continue  # not the first arc of a run
        low = arc = u
        while arc in bridges:
            arc = bridges[arc]
            if arc < low:
                low = arc
        mapping[u] = mapping[arc] = low
        ends.update((start[u] >> 1, end[arc] >> 1))
        while bridges[u] != arc:  # inner arcs: no kept crossing, but not a closed run
            u = bridges[u]
            mapping[u] = low
    loops = d.free_loops
    for u in bridges:
        if u not in mapping:  # on a run that closes: its arcs meet no kept crossing
            loops += 1
            while u not in mapping:
                mapping[u] = u
                u = bridges[u]
    kept = list(d.crossings)
    get = mapping.get
    for j in ends:
        a, b, c, d_, over_in = kept[j]
        kept[j] = _crossing((get(a, a), get(b, b), get(c, c), get(d_, d_), over_in))
    for i in reversed(gone):
        del kept[i]
    # not tuple(<generator>): that grows by repeated realloc, which past
    # 512 bytes leaves pymalloc and ratchets peak RSS on long diagrams;
    # tuple(<list>) allocates once
    out = _diagram(tuple(kept), loops)
    ends.update(d._unsettled)
    ends.difference_update(gone)
    out.__dict__["_unsettled"] = frozenset([j - bisect(gone, j) for j in ends])
    return out


def smooth_crossing(d: Diagram, x: Crossing) -> Diagram:
    """Oriented smoothing at x: a joins the over-out arc, over-in joins c.

    The crossing count drops by one and the component count changes by
    exactly one.  One splice with these crossed bridges: a kink at x
    closes into a free loop, and every other join fuses two arcs under the
    smaller label (no strand of a planar diagram meets x alone: a == c or
    over-in == over-out).  Only the crossings at the far ends of x's arcs
    are rebuilt.
    """
    a, b, c, d_, over_in = x
    oi, oo = (d_, b) if over_in == "d" else (b, d_)
    return _splice(d, (_crossing_index(d, x),), {a: oo, oi: c})


# -- Reidemeister reduction ----------------------------------------------------


def reduce(d: Diagram) -> Diagram:
    """Apply R1 and R2 simplifications until none remain.

    Both moves preserve the link type, hence the Conway polynomial.  No other
    moves are attempted; the result is generally not a minimal diagram.
    The first kink in crossing order is removed first; with no kink left,
    the lexicographically first R2 pair (i, j), i < j, goes next.

    Each step searches, in crossing order, the positions of the crossings
    a move has touched since reduce last settled d (every crossing if no
    move has); they hold every kink and a crossing of every R2 pair, so
    the first kink met ends the search.  The move is spliced out with
    straight bridges, and a search that finds no move settles the result.
    """
    while True:
        xs = d.crossings
        end, start = d._passes
        move = None
        for i in sorted(d._unsettled):
            a, b, c, d_, over_in = xs[i]
            oi, oo = (d_, b) if over_in == "d" else (b, d_)
            if a == oo or c == oi:
                # a kink shares one arc between its over and under passes
                move = (i,)
                break
            # an R2 partner j has the other sign and is joined to i by an
            # under arc and an over arc: u is the under pass of j = u >> 1,
            # and u - 1 the over pass of j
            for u in (end[c], start[a]):
                if u & 1 and (u - 1 == end[oo] or u - 1 == start[oi]):
                    j = u >> 1
                    if xs[j][4] != over_in:
                        found = (i, j) if i < j else (j, i)
                        if move is None or found < move:
                            move = found
        if move is None:
            d.__dict__["_unsettled"] = frozenset()
            return d
        bridges = {}
        for i in move:
            a, b, c, d_, over_in = xs[i]
            oi, oo = (d_, b) if over_in == "d" else (b, d_)
            bridges[a], bridges[oi] = c, oo
        d = _splice(d, move, bridges)


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
    joins = len(d._cycles) - 1
    if not joins:
        return True
    owner = d._owner
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
    return _diagram(tuple(crossings), d.free_loops)


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
    reading is split and worth 0.  parse_pd gives a component that passes
    under nowhere the direction that enters its first crossing at b.
    """
    end, xs = d._passes[0], d.crossings
    n = len(end)
    labels = _LABELS if n <= len(_LABELS) else map(str, range(1, n + 1))
    # arc -> its position from 1 along the cycles, as text, in walk order
    names = dict(zip(chain.from_iterable(d._cycles), labels))
    # crossings differ in their relabelled first field, so the sorted order
    # is the walk order of their under-in arcs
    rows = []
    for arc, name in names.items():
        e = end[arc]
        if e & 1:
            _, b, c, d_, _ = xs[e >> 1]
            rows.append("X(%s,%s,%s,%s)" % (name, names[b], names[c], names[d_]))
    return ";".join(rows + ["O"] * d.free_loops)


def _first_visit_scan(d: Diagram) -> tuple[int | None, int]:
    """Locate under-first crossings along the canonical traversal.

    Returns (index of the first crossing reached on its understrand or
    None, total count of such crossings).  Components are walked in
    ascending order of minimal arc label, each starting from its minimal
    arc; a crossing is classified by the strand of its first visit.
    """
    end = d._passes[0]
    seen = bytearray(len(d.crossings))
    first_bad: int | None = None
    bad = 0
    for arc in chain.from_iterable(d._cycles):
        e = end[arc]
        i = e >> 1
        if seen[i]:
            continue
        seen[i] = 1
        if e & 1:
            bad += 1
            if first_bad is None:
                first_bad = i
    return first_bad, bad


# -- constructions ------------------------------------------------------------


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 next to d1 (labels shifted clear of d1's)."""
    offset = max(d1.arcs(), default=0)
    shifted = _relabel(d2, {arc: arc + offset for arc in d2.arcs()})
    return _diagram(d1.crossings + shifted.crossings, d1.free_loops + d2.free_loops)


def _redirect(d: Diagram, ends: dict[int, int]) -> Diagram:
    """d with ends[arc] in the slot where each arc of ends arrives."""
    end = d._passes[0]
    xs = list(d.crossings)
    for arc, new_arc in ends.items():
        p = end[arc]  # the pass arc arrives at: 2*i + 1 under, 2*i over
        x = xs[p >> 1]
        xs[p >> 1] = x._replace(**{"a" if p & 1 else x.over_in: new_arc})
    return _diagram(tuple(xs), d.free_loops)


def connected_sum(d1: Diagram, arc1: int, d2: Diagram, arc2: int) -> Diagram:
    """Splice two knot diagrams along the chosen arcs, respecting orientation.

    Both inputs must be single-component diagrams with at least one crossing
    (a bare free loop has no arc to cut).
    """
    for d, arc, which in ((d1, arc1, "first"), (d2, arc2, "second")):
        if len(components(d)) != 1:
            raise ValueError(f"{which} operand is not a knot diagram")
        if arc.__class__ is not int or arc not in d.arcs():  # True == 1, no label
            raise ValueError(f"arc {arc!r} not present in the {which} operand")
    arc2 += max(d1.arcs(), default=0)  # its label in the union
    # cut arc1 (runs S1->E1) and arc2 (S2->E2); rejoin S1->E2 and S2->E1
    return _redirect(disjoint_union(d1, d2), {arc1: arc2, arc2: arc1})


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
        return _diagram(
            (Crossing(4, 2, 3, 1, "d"), Crossing(2, 4, 1, 3, "d")),
            d.free_loops - 1,
        )
    if arc is None:
        arc = min(d.arcs())
    if arc.__class__ is not int or arc not in d.arcs():  # True == 1, no label
        raise ValueError(f"arc {arc!r} not present in the diagram")
    base = max(d.arcs())
    u, w, p, q = base + 1, base + 2, base + 3, base + 4
    out = _redirect(d, {arc: w})
    strand_enters_under = Crossing(u, q, w, p, "d")  # strand under, circle over
    strand_enters_over = Crossing(q, u, p, arc, "d")  # strand over, circle under
    return _diagram(
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
    return _relabel(_diagram(tuple(crossings), loops), mapping)


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
        a, b, c, d_, over_in = x
        if (a in arcs) != (x.over_in_arc in arcs):
            over_in = "b" if over_in == "d" else "d"  # one strand turns: the sign flips
        if a in arcs:
            a, b, c, d_ = c, d_, a, b  # the understrand now enters at c
        out.append(Crossing(a, b, c, d_, over_in))
    return _diagram(tuple(out), d.free_loops)
