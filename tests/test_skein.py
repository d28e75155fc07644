"""Skein engine tests.

Anchor values are independent of the engine: torus closures obey the
two-term recurrence that conway_torus2 solves in closed form, the
figure-eight value 1-z^2 and trefoil value 1+z^2 are standard, and the
structural laws (parity, a1 = lk, multiplicativity, split vanishing) are
checked on seeded random braid closures.
"""

from __future__ import annotations

import random
import sys
import weakref

import pytest

from conwaykit import diagram
from conwaykit.diagram import (
    Diagram,
    PDValidationError,
    _braid_closure,
    _relabel,
    components,
    connected_sum,
    disjoint_union,
    linking_number,
    mirror,
    parse_pd,
    reduce,
    smooth_crossing,
    switch_crossing,
    torus2_diagram,
)
from conwaykit.poly import IntPoly, parse_poly
from conwaykit import skein
from conwaykit.skein import (
    NodeBudgetExceeded,
    SkeinContext,
    SkeinInvariantError,
    a2,
    check_skein_identity,
    conway,
    conway_Kn,
    conway_torus2,
)
from conwaykit.verify import random_closure

from knot_helpers import (
    check_a2_skein,
    conway_torus2_recurrence,
    meridian_link,
    reverse_component,
)

TREFOIL_PD = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"


# -- pinned values ---------------------------------------------------------------


def test_base_cases():
    assert conway(parse_pd("O")) == IntPoly((1,))
    assert conway(Diagram()) == IntPoly((1,))
    assert conway(parse_pd("O;O")) == IntPoly()
    assert conway(parse_pd("X(1,2,2,1)")) == IntPoly((1,))
    assert conway(parse_pd("X(1,1,2,2)")) == IntPoly((1,))


def test_hopf_orientations():
    hopf = torus2_diagram(2)
    z = IntPoly((0, 1))
    assert conway(hopf) == z
    assert conway(mirror(hopf)) == -z
    assert conway(reverse_component(hopf, 0)) == -z
    assert conway(reverse_component(hopf, 1)) == -z


def test_small_knots():
    assert conway(torus2_diagram(3)) == parse_poly("1+z^2")
    assert conway(parse_pd(TREFOIL_PD)) == parse_poly("1+z^2")
    assert conway(torus2_diagram(5)) == parse_poly("1+3z^2+z^4")
    fig8 = _braid_closure([1, -2, 1, -2], 3)
    assert conway(fig8) == parse_poly("1-z^2")
    assert a2(fig8) == -1


def test_torus_link_values():
    assert conway(torus2_diagram(4)) == parse_poly("2z+z^3")
    assert conway(torus2_diagram(6)) == parse_poly("3z+4z^3+z^5")


def test_trefoil_unknotting():
    t = torus2_diagram(3)
    for x in t.crossings:
        from conwaykit.diagram import switch_crossing, smooth_crossing

        assert conway(switch_crossing(t, x)) == IntPoly((1,))
        assert conway(smooth_crossing(t, x)) == IntPoly((0, 1))


# -- closed-form oracle ------------------------------------------------------------


def test_conway_torus2_recurrence_values():
    assert conway_torus2(0) == IntPoly()
    assert conway_torus2(1) == IntPoly((1,))
    assert conway_torus2(2) == IntPoly((0, 1))
    assert conway_torus2(3) == parse_poly("1+z^2")
    assert conway_torus2(5) == parse_poly("1+3z^2+z^4")
    assert conway_torus2(7) == parse_poly("1+6z^2+5z^4+z^6")
    with pytest.raises(ValueError):
        conway_torus2(-1)


def test_conway_torus2_closed_form_matches_the_recurrence():
    for m, value in enumerate(conway_torus2_recurrence(2000)):
        assert conway_torus2(m) == value, m


def test_oracle_equivalence_through_m_11():
    ctx = SkeinContext()
    for m in range(1, 12):
        assert conway(torus2_diagram(m), ctx) == conway_torus2(m)


def test_conway_Kn():
    assert conway_Kn(1) == parse_poly("1+3z^2+z^4") * parse_poly("1+z^2")
    # the paper's knots: T(2, 2n+3) # mirror T(2, 2n+1), built as diagrams
    for n in list(range(1, 11)) + [20, 40]:
        built = connected_sum(
            torus2_diagram(2 * n + 3), 1, mirror(torus2_diagram(2 * n + 1)), 1
        )
        assert conway(built) == conway_Kn(n), n
    # a2(T(2, 2j+1)) = j(j+1)/2 adds under connected sum, giving (n+1)^2;
    # the degrees 2n+2 and 2n add to 4n+2, and both ends are 1 in each factor
    for n in range(1, 61):
        p = conway_Kn(n)
        assert p.coeff(2) == (n + 1) ** 2, n
        assert len(p.coeffs) - 1 == 4 * n + 2, n
        assert p.coeffs[0] == p.coeffs[-1] == 1, n
    with pytest.raises(ValueError):
        conway_Kn(0)


# -- structural laws ---------------------------------------------------------------


def test_multiplicativity_pinned():
    t = torus2_diagram(3)
    fig8 = _braid_closure([1, -2, 1, -2], 3)
    assert conway(connected_sum(t, 1, t, 1)) == parse_poly("1+2z^2+z^4")
    assert conway(connected_sum(t, 1, fig8, 1)) == parse_poly("1-z^4")


def test_multiplicativity_random_pairs():
    rng = random.Random(7)
    ctx = SkeinContext()
    done = 0
    while done < 15:
        d1 = random_closure(rng, 6)
        d2 = random_closure(rng, 6)
        if len(components(d1)) != 1 or len(components(d2)) != 1:
            continue
        if not d1.crossings or not d2.crossings:
            continue
        arc1 = min(d1.arcs())
        arc2 = min(d2.arcs())
        s = connected_sum(d1, arc1, d2, arc2)
        assert conway(s, ctx) == conway(d1, ctx) * conway(d2, ctx)
        done += 1


def test_connected_sum_site_independence():
    t5 = torus2_diagram(5)
    t3 = torus2_diagram(3)
    values = {
        conway(connected_sum(t5, a, t3, b))
        for a in sorted(t5.arcs())
        for b in sorted(t3.arcs())
    }
    assert values == {parse_poly("1+3z^2+z^4") * parse_poly("1+z^2")}


def test_split_vanishing():
    t = torus2_diagram(3)
    hopf = torus2_diagram(2)
    assert conway(disjoint_union(t, t)) == IntPoly()
    assert conway(disjoint_union(hopf, parse_pd("O"))) == IntPoly()
    assert conway(disjoint_union(parse_pd("O"), parse_pd("O"))) == IntPoly()


def test_parity_and_linking_on_random_closures():
    rng = random.Random(13)
    ctx = SkeinContext()
    knots = links = 0
    for _ in range(60):
        d = random_closure(rng)
        p = conway(d, ctx)
        ncomp = len(components(d))
        if ncomp == 1:
            assert p.coeff(0) == 1
            assert p.parity() == "even"
            knots += 1
        elif ncomp == 2:
            assert p.parity() in ("odd", "zero")
            assert p.coeff(1) == linking_number(d, 0, 1)
            links += 1
    assert knots >= 10 and links >= 10


def test_meridian_linking_value():
    knots = ((parse_pd("O"), None), (torus2_diagram(3), 1), (parse_pd(TREFOIL_PD), 5))
    for knot, arc in knots:
        m = meridian_link(knot, arc)
        assert len(components(m)) == 2
        assert linking_number(m, 0, 1) == 1
        p = conway(m, SkeinContext())
        assert p.coeff(1) == 1  # a1 = lk = +1 by construction
        assert p.parity() == "odd"


# -- invariance --------------------------------------------------------------------


def test_relabeling_invariance():
    rng = random.Random(29)
    for _ in range(25):
        d = random_closure(rng, 7)
        arcs = sorted(d.arcs())
        fresh = rng.sample(range(1, 500), len(arcs))
        relabeled = _relabel(d, dict(zip(arcs, fresh)))
        assert conway(d, SkeinContext()) == conway(relabeled, SkeinContext())


def test_reduction_invariance():
    rng = random.Random(31)
    for _ in range(25):
        d = random_closure(rng, 7)
        plain = conway(d, SkeinContext(reduce_diagrams=False))
        reduced = conway(d, SkeinContext())
        assert plain == reduced


def test_crossing_order_invariance():
    d = parse_pd(TREFOIL_PD)
    rotated = Diagram(d.crossings[1:] + d.crossings[:1], 0)
    assert conway(d, SkeinContext()) == conway(rotated, SkeinContext())


# -- skein identity checks ----------------------------------------------------------


def test_skein_identity_examples():
    hopf = torus2_diagram(2)
    ctx = SkeinContext()
    for x in hopf.crossings:
        assert check_skein_identity(hopf, x, ctx)
    t5 = torus2_diagram(5)
    for x in t5.crossings:
        assert check_skein_identity(t5, x, ctx)
    tref = parse_pd(TREFOIL_PD)
    for x in tref.crossings:
        assert check_skein_identity(tref, x, ctx)


def test_skein_identity_random_sweep():
    rng = random.Random(37)
    ctx = SkeinContext()
    checked = 0
    for _ in range(30):
        d = random_closure(rng, 7)
        for x in d.crossings:
            assert check_skein_identity(d, x, ctx)
            checked += 1
    assert checked > 50


def test_a2_skein_examples():
    t3 = torus2_diagram(3)
    t5 = torus2_diagram(5)
    ctx = SkeinContext()
    for x in t3.crossings:
        assert check_a2_skein(t3, x, ctx)
    for x in t5.crossings:
        assert check_a2_skein(t5, x, ctx)
    # the drops themselves: 1 for the trefoil, 2 for the (2,5) knot
    from conwaykit.diagram import switch_crossing

    assert a2(t3, ctx) - a2(switch_crossing(t3, t3.crossings[0]), ctx) == 1
    assert a2(t5, ctx) - a2(switch_crossing(t5, t5.crossings[0]), ctx) == 2


def test_a2_skein_random_positive_crossings():
    rng = random.Random(41)
    ctx = SkeinContext()
    checked = 0
    for _ in range(40):
        d = random_closure(rng, 7)
        if len(components(d)) != 1:
            continue
        for x in d.crossings:
            if x.sign == 1:
                assert check_a2_skein(d, x, ctx)
                checked += 1
    assert checked > 20


def test_a2_skein_preconditions():
    with pytest.raises(ValueError, match="knot diagrams only"):
        a2(torus2_diagram(2))


def test_identity_checks_make_their_own_context():
    t5 = torus2_diagram(5)
    assert all(check_skein_identity(t5, x) for x in t5.crossings)


# -- context bookkeeping -------------------------------------------------------------


def test_budget_enforcement():
    with pytest.raises(NodeBudgetExceeded):
        conway(torus2_diagram(5), SkeinContext(node_budget=2))
    # a tight but sufficient budget succeeds
    ctx = SkeinContext(node_budget=100)
    assert conway(torus2_diagram(3), ctx) == parse_poly("1+z^2")
    assert 0 < ctx.nodes_expanded <= 100


def test_deep_smoothing_chains_need_no_recursion():
    # torus2_diagram(300) smooths 299 times in a row; the engine must not
    # spend a Python frame on each
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        value = conway(torus2_diagram(300))
    finally:
        sys.setrecursionlimit(limit)
    assert value == conway_torus2(300)


def stuck_switch(monkeypatch):
    real_scan = skein._first_visit_scan

    def stuck_scan(d):
        index, _ = real_scan(d)
        return index, 1  # claims the switch removed no under-first crossing

    monkeypatch.setattr(skein, "_first_visit_scan", stuck_scan)
    monkeypatch.setattr(skein, "_reduce", lambda d: d)


def stuck_smoothing(monkeypatch):
    monkeypatch.setattr(skein, "smooth_crossing", lambda d, x: d)


@pytest.mark.parametrize(
    "plant", [stuck_switch, stuck_smoothing], ids=["switched", "smoothed"]
)
def test_measure_that_does_not_drop_raises_a_typed_error(monkeypatch, plant):
    plant(monkeypatch)
    # without the check on that edge the budget would stop the search
    with pytest.raises(SkeinInvariantError, match="did not drop below"):
        conway(
            parse_pd("X(1,4,2,5);X(5,2,6,3);X(3,6,4,1)"),
            SkeinContext(node_budget=1000),
        )


def test_a_waiting_node_keeps_no_diagram_of_its_own(monkeypatch):
    # torus2_diagram(40) smooths 39 times in a row, so 38 nodes wait while
    # the 2-crossing diagram is smoothed; only that diagram and the root,
    # which the caller holds, may still be alive then
    inputs, alive = [], []
    real_smooth = skein.smooth_crossing

    def recording(d, x):
        inputs.append(weakref.ref(d))
        if len(d.crossings) == 2:
            alive.append(sum(r() is not None for r in inputs))
        return real_smooth(d, x)

    monkeypatch.setattr(skein, "smooth_crossing", recording)
    assert conway(torus2_diagram(40)) == conway_torus2(40)
    assert alive and max(alive) <= 2, alive


def test_memo_reuse():
    ctx = SkeinContext()
    first = conway(torus2_diagram(5), ctx)
    expanded = ctx.nodes_expanded
    second = conway(torus2_diagram(5), ctx)
    assert first == second
    assert ctx.cache_hits >= 1
    assert ctx.nodes_expanded <= expanded + 2  # reduce + lookup only


def test_memo_entries_match_fresh_recomputation():
    ctx = SkeinContext()
    conway(torus2_diagram(7), ctx)
    conway(parse_pd(TREFOIL_PD), ctx)
    sampled = sorted(ctx.memo)[::3][:8]
    for key in sampled:
        assert conway(parse_pd(key), SkeinContext()) == ctx.memo[key]


# -- the root check ------------------------------------------------------------------


def test_the_root_check_runs_once_and_passes_to_derived_diagrams(monkeypatch):
    walks = []
    face_walk = diagram._check_planar

    def counted(other):
        walks.append(len(other) // 4)
        face_walk(other)

    monkeypatch.setattr(diagram, "_check_planar", counted)
    ctx = SkeinContext()
    # parse_pd walks once and so does the constructor of a hand-built
    # diagram; no move, builder or conway call walks again
    tref = Diagram(parse_pd(TREFOIL_PD).crossings)
    assert walks == [3, 3]
    for x in tref.crossings:
        assert check_skein_identity(tref, x, ctx)
        child = smooth_crossing(tref, x)
        conway(child, ctx)
        conway(reduce(switch_crossing(child, child.crossings[0])), ctx)
    t5 = torus2_diagram(5)
    for x in t5.crossings:
        assert check_a2_skein(t5, x, ctx)
    t3 = torus2_diagram(3)
    conway(switch_crossing(t3, t3.crossings[0]))
    assert walks == [3, 3]


def test_over_directions_that_break_succession_are_refused():
    with pytest.raises(PDValidationError, match="not a bijection"):
        Diagram(tuple(x._replace(over_in="d") for x in parse_pd(TREFOIL_PD).crossings))
    # a component that passes under nowhere has a valid succession
    assert conway(_braid_closure([-1, 1], 2)) == IntPoly()
    assert conway(_braid_closure([2, -1, 1], 3)) == IntPoly()
