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
    _planar = False  # True once the diagram is known to be planar

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
    not a bijection, an overstrand whose direction cannot be resolved, or
    crossings that do not lie in the plane).
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
    if not labels and free_loops == 0:
        raise PDSyntaxError("empty diagram", 0)
    if 0 in labels:
        raise PDValidationError("arc labels must be positive, found 0")
    other = _pair_slots(labels)
    over_ins = _resolve_over_directions(other)
    _check_planar(other)
    fields = iter(labels)
    crossings = tuple(map(_crossing, zip(fields, fields, fields, fields, over_ins)))
    out = Diagram(crossings, free_loops)
    out.__dict__["_planar"] = True
    return out


def _pair_slots(labels: list[int]) -> list[int]:
    """Slot s -> the slot at the other end of its arc, where labels[s] is
    the arc in slot s: 4*i + 0..3 hold a, b, c, d of crossing i.  Each
    label must occur exactly twice."""
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
    passes entering at a, sets every over_in it meets; entering an under
    pass at c means two passes share an arc end, so succession is not a
    bijection.  A component that passes under nowhere is ambiguous.
    """
    over_in: list[str | None] = [None] * (len(other) >> 2)
    entered = bytearray(len(other))
    for start in range(0, len(other), 4):
        s = start
        while not entered[s]:
            entered[s] = 1
            if s & 3 == 2:
                raise PDValidationError(
                    f"arc succession is not a bijection at crossing {(s >> 2) + 1}"
                )
            if s & 1:
                over_in[s >> 2] = "b" if s & 3 == 1 else "d"
            s = other[s ^ 2]
    if None in over_in:
        raise PDValidationError(
            "overstrand direction is ambiguous at crossing(s) "
            + ", ".join(str(i + 1) for i, o in enumerate(over_in) if o is None)
        )
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


def _require_planar(d: Diagram) -> None:
    """The planarity check of the public roots, once per diagram (parse_pd
    marks its results).  Switches, smoothings and R1/R2 keep a diagram
    planar, so no skein node checks again."""
    if not d._planar:
        _check_planar(_pair_slots([v for x in d.crossings for v in x[:4]]))
        d.__dict__["_planar"] = True


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


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(x.sign for x in d.crossings)


def linking_number(d: Diagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between components c1 and c2.

    c1 and c2 index into components(d); they must be distinct and in range.
    d must be planar (else PDValidationError), which makes the count even.
    """
    _require_planar(d)
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
    out = Diagram(d.crossings[:i] + (y,) + d.crossings[i + 1 :], d.free_loops)
    if d._unsettled is not None:
        # a switch keeps every kink status; new R2 pairs all contain i
        out.__dict__["_unsettled"] = d._unsettled | {i}
    return out


def mirror(d: Diagram) -> Diagram:
    """Exchange over/under at every crossing (every sign negates)."""
    return Diagram(tuple([_switched(x) for x in d.crossings]), d.free_loops)


def smooth_crossing(d: Diagram, x: Crossing) -> Diagram:
    """Oriented smoothing at x: a joins the over-out arc, over-in joins c.

    The crossing count drops by one and the component count changes by
    exactly one.  A kink at x closes into a free loop; every other join
    fuses two arcs under the smaller label (no strand of a planar diagram
    meets x alone: a == c or over-in == over-out).  Only the crossings at
    the far ends of x's arcs are rebuilt.
    """
    i = _crossing_index(d, x)
    a, b, c, d_, over_in = x
    oi, oo = (d_, b) if over_in == "d" else (b, d_)
    loops = d.free_loops
    if a == oo and oi == c:
        loops, runs = loops + 2, ()  # two kinks: two circles
    elif a == oo or oi == c:
        # a kink closes into a circle; the other join fuses two arcs
        loops, runs = loops + 1, ((oi, c) if a == oo else (a, oo),)
    else:
        runs = ((a, oo), (oi, c))
    mapping: dict[int, int] = {}
    for u, v in runs:
        mapping[u] = mapping[v] = min(u, v)
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


def _redirect(d: Diagram, ends: dict[int, int]) -> Diagram:
    """d with ends[arc] in the slot where each arc of ends arrives."""
    end = d._arc_index.end
    xs = list(d.crossings)
    for arc, new_arc in ends.items():
        p = end[arc]  # the pass arc arrives at: 2*i + 1 under, 2*i over
        x = xs[p >> 1]
        xs[p >> 1] = x._replace(**{"a" if p & 1 else x.over_in: new_arc})
    return Diagram(tuple(xs), d.free_loops)


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
    out = _redirect(d, {arc: w})
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
        a, b, c, d_, over_in = x
        if (a in arcs) != (x.over_in_arc in arcs):
            over_in = "b" if over_in == "d" else "d"  # one strand turns: the sign flips
        if a in arcs:
            a, b, c, d_ = c, d_, a, b  # the understrand now enters at c
        out.append(Crossing(a, b, c, d_, over_in))
    return Diagram(tuple(out), d.free_loops)
