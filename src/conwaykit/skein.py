"""Conway polynomials by the descending-diagram skein recursion.

The algorithm evaluates nabla(L+) - nabla(L-) = z nabla(L0) with a
deterministic crossing choice.  A diagram is first R1/R2-reduced; a split
diagram contributes 0 and a lone circle contributes 1.  Otherwise walk the
components in order of their minimal arc label, each from its minimal arc:
if every crossing is first reached on its overstrand the diagram is
descending, hence an unlink (1 for a knot, 0 for two or more components).
If not, the first crossing reached on its understrand gets switched and
smoothed, and the relation expresses the value in terms of the two simpler
diagrams.  Each switch lowers the number of under-first crossings and each
smoothing removes a crossing, so the pair (crossings, under-first count)
decreases lexicographically and the recursion terminates.

Values are memoized on canonical diagram codes in a SkeinContext, which
also carries a node budget so runaway inputs fail fast instead of hanging.
A node that splits waits on one explicit stack frame, not a Python frame, so
diagram size is bounded by the node budget, not by Python's recursion limit.
"""

from __future__ import annotations

__all__ = [
    "NodeBudgetExceeded", "SkeinContext", "SkeinInvariantError", "a2",
    "check_skein_identity", "conway", "conway_Kn", "conway_torus2",
]

from .diagram import (
    Crossing,
    Diagram,
    _first_visit_scan,
    canonical_code,
    components,
    is_graph_connected,
    reduce as _reduce,
    smooth_crossing,
    switch_crossing,
)
from .poly import IntPoly

# shared by every node that needs them; an IntPoly never changes
_ZERO = IntPoly()
_ONE = IntPoly((1,))


class NodeBudgetExceeded(RuntimeError):
    """A skein computation outgrew its context's node budget.

    Retry with a SkeinContext whose node_budget is larger.
    """


class SkeinInvariantError(RuntimeError):
    """A skein child's (crossings, under-first) measure is not below its parent's.

    On a valid diagram this cannot happen; it stops the computation rather
    than risk a search that never ends.
    """


class SkeinContext:
    """Shared memo table and accounting for a batch of computations.

    A caller sets node_budget and reduce_diagrams; the memo and the two
    counters are state that starts empty.  reduce_diagrams applies R1/R2
    reduction before every expansion; it is on by default and exists as a
    knob so that tests and verify's property_reduction_invariance can
    confirm the reduction does not change computed values.
    """

    # not a SimpleNamespace subclass like VerifyConfig: the engine reads
    # these attributes on every node, and a SimpleNamespace subclass's
    # attributes read several times slower on Python 3.11
    def __init__(self, node_budget: int = 1_000_000, reduce_diagrams: bool = True):
        self.memo: dict[str, IntPoly] = {}
        self.node_budget = node_budget
        self.nodes_expanded = 0
        self.cache_hits = 0
        self.reduce_diagrams = reduce_diagrams

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"SkeinContext({fields})"


def conway(d: Diagram, ctx: SkeinContext | None = None) -> IntPoly:
    """Conway polynomial of the oriented link presented by d.

    The empty diagram evaluates to 1 (the multiplicative unit, consistent
    with connected sums); any split diagram evaluates to 0.  d needs no
    check here: a Diagram refuses non-planar crossings when it is made.
    """
    if ctx is None:
        ctx = SkeinContext()
    # One frame per node that splits, while its children run:
    # [key, measure, sign, switched child until it runs, z * nabla(smoothing)
    # once known].  The smoothing runs first, then the switched child; the
    # node's value goes to the memo when its frame pops.  Every memo-miss
    # node's measure must drop below its parent's, the top frame's.  A frame
    # holds its switched child, not its own diagram, so the node's cached
    # arc data is freed while its children run.
    stack: list[list] = []
    current = d
    memo = ctx.memo
    while True:
        ctx.nodes_expanded += 1
        if ctx.nodes_expanded > ctx.node_budget:
            raise NodeBudgetExceeded(
                "skein expansion exceeded the budget of %d nodes" % ctx.node_budget
            )
        if ctx.reduce_diagrams:
            current = _reduce(current)
        if not is_graph_connected(current):
            value = _ZERO
        elif not current.crossings:
            # connected and crossingless: one circle, or nothing at all
            value = _ONE
        else:
            key = canonical_code(current)
            cached = memo.get(key)
            if cached is not None:
                ctx.cache_hits += 1
                value = cached
            else:
                bad_index, bad_count = _first_visit_scan(current)
                measure = (len(current.crossings), bad_count)
                if stack and not measure < stack[-1][1]:
                    raise SkeinInvariantError(
                        "skein measure %r did not drop below %r" % (measure, stack[-1][1])
                    )
                if bad_index is not None:
                    x = current.crossings[bad_index]
                    stack.append([key, measure, x.sign, switch_crossing(current, x), None])
                    current = smooth_crossing(current, x)
                    continue
                value = _ONE if len(current._cycles) == 1 else _ZERO
                memo[key] = value
        # value is current's: pop every frame whose switched child it ends
        while stack and stack[-1][4] is not None:
            key, _, sign, _, term = stack.pop()
            value = value + term if sign > 0 else value - term
            memo[key] = value
        if not stack:
            return value
        # value is the top frame's smoothing: its switched child runs next
        frame = stack[-1]
        frame[4] = value.shift(1)
        current, frame[3] = frame[3], None


def conway_torus2(m: int) -> IntPoly:
    """Closed form for the closure of the 2-strand braid with m positive
    crossings, the solution of P(0) = 0, P(1) = 1, P(m) = z*P(m-1) + P(m-2):
    the coefficient of z^(m-1-2k) is C(m-1-k, k), each one the last times
    an exact ratio: one integer step per coefficient."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = [0] * m
    c = 1
    for k in range((m + 1) // 2):
        if k:
            # C(m-1-k, k) from C(m-k, k-1)
            c = c * ((m + 1 - 2 * k) * (m - 2 * k)) // (k * (m - k))
        coeffs[m - 1 - 2 * k] = c
    return IntPoly(coeffs)


def conway_Kn(n: int) -> IntPoly:
    """Conway polynomial of the connected sum of the (2, 2n+3) torus knot
    with the mirror of the (2, 2n+1) torus knot.

    The mirror factor needs no sign adjustment: a knot's polynomial has
    only even powers, so mirroring leaves it unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return conway_torus2(2 * n + 3) * conway_torus2(2 * n + 1)


def a2(d: Diagram, ctx: SkeinContext | None = None) -> int:
    """The z^2 coefficient of a knot diagram's Conway polynomial."""
    if len(components(d)) != 1:
        raise ValueError("a2 is defined for knot diagrams only")
    return conway(d, ctx).coeff(2)


def check_skein_identity(
    d: Diagram, x: Crossing, ctx: SkeinContext | None = None
) -> bool:
    """Verify nabla(L+) - nabla(L-) = z nabla(L0) at crossing x of d."""
    if ctx is None:
        ctx = SkeinContext()
    switched = switch_crossing(d, x)
    plus, minus = (d, switched) if x.sign > 0 else (switched, d)
    left = conway(plus, ctx) - conway(minus, ctx)
    right = conway(smooth_crossing(d, x), ctx).shift(1)
    return left == right
