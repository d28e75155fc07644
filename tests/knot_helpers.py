"""Diagram builders and checks that only the tests use.

They build on the package's public diagram functions and the Crossing
fields; the package itself needs none of them.
"""

from __future__ import annotations

from conwaykit.diagram import (
    Crossing,
    Diagram,
    components,
    linking_number,
    smooth_crossing,
    switch_crossing,
)
from conwaykit.poly import IntPoly
from conwaykit.skein import SkeinContext, a2


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(x.sign for x in d.crossings)


def over_in_arc(x: Crossing) -> int:
    """The arc the overstrand enters x on: the one of b/d that over_in names."""
    return x.b if x.over_in == "b" else x.d


def over_out_arc(x: Crossing) -> int:
    """The arc the overstrand leaves x on: the one of b/d it does not enter on."""
    return x.d if x.over_in == "b" else x.b


def reverse_component(d: Diagram, comp: int) -> Diagram:
    """d with component comp (an index into components(d)) run backwards."""
    arcs = set(components(d)[comp])
    out = []
    for x in d.crossings:
        a, b, c, d_, over_in = x
        if (a in arcs) != (over_in_arc(x) in arcs):
            over_in = "b" if over_in == "d" else "d"  # one strand turns: the sign flips
        if a in arcs:
            a, b, c, d_ = c, d_, a, b  # the understrand now enters at c
        out.append(Crossing(a, b, c, d_, over_in))
    return Diagram(tuple(out), d.free_loops)


def meridian_link(d: Diagram, arc: int | None = None) -> Diagram:
    """A knot diagram d with a small circle clasping its arc once (lk = +1;
    arc defaults to the smallest).  The circle crosses the strand twice,
    once over and once under, both crossings positive.  The crossingless
    unknot gives the positive Hopf diagram."""
    if not d.crossings:
        return Diagram(
            (Crossing(4, 2, 3, 1, "d"), Crossing(2, 4, 1, 3, "d")), d.free_loops - 1
        )
    if arc is None:
        arc = min(d.arcs())
    base = max(d.arcs())
    u, w, p, q = base + 1, base + 2, base + 3, base + 4
    # arc now ends at the first clasp crossing, and w takes its old end slot
    xs = [
        x._replace(a=w) if x.a == arc
        else x._replace(**{x.over_in: w}) if over_in_arc(x) == arc
        else x
        for x in d.crossings
    ]
    strand_enters_under = Crossing(u, q, w, p, "d")  # strand under, circle over
    strand_enters_over = Crossing(q, u, p, arc, "d")  # strand over, circle under
    return Diagram(tuple(xs) + (strand_enters_over, strand_enters_under), d.free_loops)


def check_a2_skein(d_plus: Diagram, x: Crossing, ctx: SkeinContext) -> bool:
    """a2(K+) - a2(K-) = lk(L0) at a positive crossing x of a knot: smoothing
    a knot's self-crossing leaves a two-component link (at a kink the
    second component is a free loop)."""
    assert x.sign == 1, x
    drop = a2(d_plus, ctx) - a2(switch_crossing(d_plus, x), ctx)
    return drop == linking_number(smooth_crossing(d_plus, x), 0, 1)


def conway_torus2_recurrence(top: int) -> list[IntPoly]:
    """The Conway polynomials of the (2, m) torus links for m = 0..top from
    P(0) = 0, P(1) = 1, P(m) = z*P(m-1) + P(m-2), in one pass."""
    values = [IntPoly(), IntPoly((1,))]
    while len(values) <= top:
        values.append(values[-1].shift(1) + values[-2])
    return values[: top + 1]
