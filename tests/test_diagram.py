"""Diagram structure: parsing, validation, moves, reduction, constructions.

Oracles here are hand-derived: the Hopf/trefoil/figure-eight sign counts
follow from the counterclockwise PD convention worked out in the module
docstring, and were frozen before the skein engine existed.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from itertools import chain, count

import pytest

from conwaykit.diagram import (
    Crossing,
    Diagram,
    PDSyntaxError,
    PDValidationError,
    UNKNOT,
    _braid_closure,
    _relabel,
    _reverse_component,
    canonical_code,
    components,
    connected_sum,
    disjoint_union,
    is_graph_connected,
    linking_number,
    meridian_link,
    mirror,
    parse_pd,
    pd_text,
    reduce,
    smooth_crossing,
    switch_crossing,
    torus2_diagram,
    writhe,
)
from conwaykit.poly import IntPoly
from conwaykit.skein import conway

TREFOIL_PD = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"  # standard table code, writhe -3


# -- parsing and validation ----------------------------------------------------


def test_parse_standard_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert len(d.crossings) == 3
    assert d.free_loops == 0
    # every overstrand enters at slot b here, so all crossings are negative
    assert [x.over_in for x in d.crossings] == ["b", "b", "b"]
    assert writhe(d) == -3
    assert len(components(d)) == 1


def test_parse_unknot_and_loops():
    assert parse_pd("O") == Diagram(free_loops=1)
    assert parse_pd("O;O") == Diagram(free_loops=2)
    assert len(components(parse_pd("O"))) == 1


def test_parse_kink_orientations():
    # one-crossing unknot diagrams; over direction is forced either way
    neg = parse_pd("X(1,2,2,1)")
    assert neg.crossings[0].sign == -1
    pos = parse_pd("X(1,1,2,2)")
    assert pos.crossings[0].sign == +1


def test_parse_round_trip():
    for text in (TREFOIL_PD, "O", "X(1,2,2,1);O"):
        d = parse_pd(text)
        assert parse_pd(pd_text(d)) == d


def test_syntax_errors_have_positions():
    with pytest.raises(PDSyntaxError) as exc:
        parse_pd("X(1,2,3)")
    assert exc.value.position == 0
    with pytest.raises(PDSyntaxError):
        parse_pd("")
    with pytest.raises(PDSyntaxError) as exc:
        parse_pd("X(1,4,2,5),X(3,6,4,1)")
    assert exc.value.position == 10
    with pytest.raises(PDSyntaxError):
        parse_pd("Y(1,2,3,4)")


def test_validation_rejects_bad_multiplicity():
    with pytest.raises(PDValidationError):
        parse_pd("X(1,2,3,4)")  # every arc occurs once
    with pytest.raises(PDValidationError):
        parse_pd("X(1,1,1,2)")  # arc 1 occurs three times
    with pytest.raises(PDValidationError):
        parse_pd("X(0,1,0,1)")  # labels must be positive


def test_validation_rejects_double_underpass():
    # arc 1 is the incoming understrand twice: succession cannot be a bijection
    with pytest.raises(PDValidationError):
        parse_pd("X(1,3,2,4);X(1,4,2,3)")


def test_validation_directs_an_over_only_component():
    # one circle lying entirely over another: either orientation is
    # consistent, so the parser walks it in from slot b of crossing 1
    d = parse_pd("X(1,2,4,3);X(4,2,1,3)")
    assert d == _braid_closure([-1, 1], 2)
    assert [x.over_in for x in d.crossings] == ["b", "d"]
    x, y = d.crossings
    turned = Diagram((x._replace(over_in="d"), y._replace(over_in="b")))
    for e in (d, turned):
        assert conway(e) == IntPoly()
        assert writhe(e) == 0 and linking_number(e, 0, 1) == 0
    # the same circles with the arcs on one side swapped cross on a torus
    with pytest.raises(PDValidationError, match="not planar"):
        parse_pd("X(1,3,2,4);X(2,4,1,3)")


def test_mutation_sweep_rejected():
    rng = random.Random(11)
    base = TREFOIL_PD
    rejected = 0
    for _ in range(50):
        d = parse_pd(base)
        labels = [str(n) for x in d.crossings for n in x.slots()]
        i = rng.randrange(len(labels))
        if rng.random() < 0.5:
            labels[i] = "9"  # duplicate an existing label / orphan another
        else:
            labels[i] = str(20 + rng.randrange(5))  # fresh label used once
        text = ";".join(
            "X(%s,%s,%s,%s)" % tuple(labels[4 * k : 4 * k + 4]) for k in range(3)
        )
        try:
            parse_pd(text)
        except (PDValidationError, PDSyntaxError):
            rejected += 1
    assert rejected == 50


# -- components, signs, linking ------------------------------------------------


def test_hopf_link_structure():
    hopf = torus2_diagram(2)
    comps = components(hopf)
    assert len(comps) == 2
    assert all(len(c) == 2 for c in comps)
    assert [x.sign for x in hopf.crossings] == [1, 1]
    assert writhe(hopf) == 2
    assert linking_number(hopf, 0, 1) == 1


def test_torus2_family_linking():
    assert linking_number(torus2_diagram(4), 0, 1) == 2
    assert linking_number(torus2_diagram(6), 0, 1) == 3


def test_torus2_knot_cases():
    for m in (1, 3, 5, 7):
        d = torus2_diagram(m)
        assert len(components(d)) == 1
        assert writhe(d) == m
    with pytest.raises(ValueError):
        torus2_diagram(0)


def test_figure_eight_writhe_zero():
    fig8 = _braid_closure([1, -2, 1, -2], 3)
    assert len(components(fig8)) == 1
    assert len(fig8.crossings) == 4
    assert writhe(fig8) == 0


def test_linking_number_argument_errors():
    hopf = torus2_diagram(2)
    with pytest.raises(ValueError):
        linking_number(hopf, 0, 0)
    with pytest.raises(ValueError):
        linking_number(hopf, 0, 2)


def test_reverse_component_negates_linking():
    hopf = torus2_diagram(2)
    rev = _reverse_component(hopf, 0)
    assert linking_number(rev, 0, 1) == -1
    assert _reverse_component(rev, 0) == hopf


# -- moves ----------------------------------------------------------------------


def test_switch_is_involutive_and_negates_sign():
    d = torus2_diagram(3)
    for i, x in enumerate(d.crossings):
        once = switch_crossing(d, x)
        assert once.crossings[i].sign == -x.sign
        assert sorted(once.arcs()) == sorted(d.arcs())
        again = switch_crossing(once, once.crossings[i])
        assert again == d


@pytest.mark.parametrize("move", [switch_crossing, smooth_crossing])
def test_moves_refuse_a_crossing_of_another_diagram(move):
    d = torus2_diagram(3)
    # crossings of two other trefoil diagrams: the table's and d's mirror
    for x in parse_pd(TREFOIL_PD).crossings + mirror(d).crossings:
        with pytest.raises(ValueError, match="^crossing does not belong to this diagram$"):
            move(d, x)


def test_mirror_negates_writhe():
    for d in (torus2_diagram(3), parse_pd(TREFOIL_PD), torus2_diagram(4)):
        assert writhe(mirror(d)) == -writhe(d)
        assert mirror(mirror(d)) == d


def test_smooth_hopf_crossing():
    hopf = torus2_diagram(2)
    out = smooth_crossing(hopf, hopf.crossings[0])
    assert len(out.crossings) == 1
    assert len(components(out)) == 1
    assert reduce(out) == UNKNOT


def test_smooth_kink_splits_off_loop():
    kink = parse_pd("X(1,2,2,1)")
    out = smooth_crossing(kink, kink.crossings[0])
    assert out.crossings == ()
    assert len(components(out)) == 2  # free loop + unknot


def test_smooth_changes_component_count_by_one():
    rng = random.Random(23)
    for _ in range(40):
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8))]
        d = _braid_closure(word, strands)
        if not d.crossings:
            continue
        x = d.crossings[rng.randrange(len(d.crossings))]
        before = len(components(d))
        after = len(components(smooth_crossing(d, x)))
        assert abs(after - before) == 1
        assert len(smooth_crossing(d, x).crossings) == len(d.crossings) - 1


# -- reduction -------------------------------------------------------------------


def test_reduce_single_kinks():
    assert reduce(parse_pd("X(1,2,2,1)")) == UNKNOT
    assert reduce(parse_pd("X(1,1,2,2)")) == UNKNOT
    assert reduce(torus2_diagram(1)) == UNKNOT


def test_reduce_r2_bigon_on_unknot():
    # sigma sigma^-1 closure: one-component three-crossing unknot
    d = _braid_closure([1, 1, -1], 2)
    assert reduce(d) == UNKNOT


def test_reduce_r2_overlying_circle():
    # sigma sigma^-1 on the 2-strand braid closes into a split two-circle diagram
    d = _braid_closure([1, -1], 2)
    assert reduce(d) == Diagram(free_loops=2)


def test_reduce_leaves_alternating_diagrams_alone():
    for d in (parse_pd(TREFOIL_PD), torus2_diagram(2), torus2_diagram(5)):
        assert reduce(d) == d


def test_reduce_kink_on_larger_diagram():
    # stabilized trefoil: extra sigma_2 kink on a 3-strand closure
    d = _braid_closure([1, 1, 1, 2], 3)
    r = reduce(d)
    assert len(r.crossings) == 3
    assert len(components(r)) == 1


def test_reduce_marks_only_the_diagram_it_settles():
    # moves add the crossings they touch; reduce leaves its input as it was
    # and marks only its result as settled
    d = _braid_closure([1, -2, -1, 2, 1], 3)
    r = reduce(d)
    assert (len(d.crossings), len(r.crossings)) == (5, 2)
    assert d._unsettled == frozenset(range(5))
    assert r._unsettled == frozenset()


def test_a_diagram_no_move_touched_hands_a_full_mark_to_its_children():
    # every crossing of an untouched diagram is marked, and a switch or a
    # smoothing carries the whole mark
    d = torus2_diagram(5)
    x = d.crossings[2]
    assert switch_crossing(d, x)._unsettled == frozenset(range(5))
    assert smooth_crossing(d, x)._unsettled == frozenset(range(4))


def test_pickle_and_copies_carry_only_the_fields():
    # the cached arc index and the reduction marks stay behind
    fresh = len(pickle.dumps(torus2_diagram(100)))
    d = torus2_diagram(100)
    conway(d)
    assert len(pickle.dumps(d)) == fresh
    reduced = reduce(_braid_closure([1, 1, 1, 2], 3))
    for value in (d, reduced):
        for clone in (
            pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
        ):
            assert clone == value
            assert vars(clone).keys() == {"crossings", "free_loops"}


# -- connectivity ---------------------------------------------------------------


def test_graph_connectivity():
    assert is_graph_connected(parse_pd(TREFOIL_PD))
    assert is_graph_connected(UNKNOT)
    assert is_graph_connected(Diagram())
    assert not is_graph_connected(Diagram(free_loops=2))
    assert not is_graph_connected(disjoint_union(torus2_diagram(2), torus2_diagram(3)))
    assert not is_graph_connected(parse_pd("X(1,2,2,1);O"))


# -- canonical code ---------------------------------------------------------------


def test_canonical_code_is_shift_invariant():
    d = parse_pd(TREFOIL_PD)
    shifted = _relabel(d, {arc: arc + 40 for arc in d.arcs()})
    assert canonical_code(d) == canonical_code(shifted)
    assert canonical_code(d) != canonical_code(mirror(d))


def test_canonical_code_ignores_crossing_order():
    d = parse_pd(TREFOIL_PD)
    rotated = Diagram(d.crossings[1:] + d.crossings[:1], 0)
    assert canonical_code(d) == canonical_code(rotated)


def test_canonical_code_of_loops():
    assert canonical_code(parse_pd("O")) == "O"
    assert canonical_code(Diagram(free_loops=2)) == "O;O"


def test_canonical_code_reparses_to_same_diagram():
    for d in (parse_pd(TREFOIL_PD), torus2_diagram(2), torus2_diagram(5)):
        again = parse_pd(canonical_code(d))
        assert canonical_code(again) == canonical_code(d)


def test_canonical_code_keeps_every_over_direction():
    # the code leaves out which of b/d is the over-in arc; parsing it must
    # recover the same one at every crossing, for knots and links alike
    rng = random.Random(17)
    seen: Counter = Counter()
    for _ in range(400):
        strands = rng.randint(2, 4)
        length = rng.randint(1, 12)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        d = _braid_closure(word, strands)
        for e in (d, reduce(d)):
            if not e.crossings:
                continue
            walk = chain.from_iterable(components(e))
            walked = _relabel(e, dict(zip(walk, count(1))))
            # the docstring's rule: the over-out arc follows the over-in arc
            wrap = {cycle[-1]: cycle[0] for cycle in components(walked) if cycle}
            for x in walked.crossings:
                assert x.over_out_arc == wrap.get(x.over_in_arc, x.over_in_arc + 1)
            parsed = parse_pd(canonical_code(e))
            unders = {x.a for x in walked.crossings}
            # a component that passes under nowhere records no direction in
            # any PD code; it lifts off the rest, so the link is split and
            # either direction gives the same writhe and value
            over_only = set()
            for cycle in components(walked):
                if unders.isdisjoint(cycle):
                    over_only.update(cycle)
            for x, y in zip(sorted(walked.crossings), parsed.crossings):
                assert x.over_in == y.over_in or x.b in over_only, pd_text(e)
            if over_only:
                assert conway(parsed) == conway(e) == IntPoly()
                assert writhe(parsed) == writhe(e)
                seen["over only"] += 1
            else:
                seen[len(components(e))] += 1
    assert all(seen[key] for key in (1, 2, 3, "over only")), seen


# -- constructions -----------------------------------------------------------------


def test_disjoint_union_counts():
    d = disjoint_union(torus2_diagram(2), parse_pd(TREFOIL_PD))
    assert len(d.crossings) == 5
    assert len(components(d)) == 3
    assert len(d.arcs()) == 10  # relabeling kept everything distinct


def test_connected_sum_structure():
    t = torus2_diagram(3)
    s = connected_sum(t, 1, t, 1)
    assert len(s.crossings) == 6
    assert len(components(s)) == 1
    assert writhe(s) == 6


def test_connected_sum_rejects_links_and_bad_arcs():
    hopf = torus2_diagram(2)
    t = torus2_diagram(3)
    with pytest.raises(ValueError):
        connected_sum(hopf, 1, t, 1)
    with pytest.raises(ValueError):
        connected_sum(t, 99, t, 1)
    with pytest.raises(ValueError):
        connected_sum(UNKNOT, 1, t, 1)  # bare loop has no arc to cut


def test_meridian_of_unknot_is_positive_hopf():
    m = meridian_link(UNKNOT)
    assert len(m.crossings) == 2
    assert len(components(m)) == 2
    assert [x.sign for x in m.crossings] == [1, 1]
    assert linking_number(m, 0, 1) == 1


def test_meridian_always_links_once():
    t = parse_pd(TREFOIL_PD)
    for arc in sorted(t.arcs()):
        m = meridian_link(t, arc)
        assert len(components(m)) == 2
        comps = components(m)
        knot_arcs = set(comps[0]) | set(comps[1])
        assert len(m.crossings) == len(t.crossings) + 2
        # the circle is the component made of the two fresh arcs
        fresh = [i for i, c in enumerate(comps) if not set(c) & t.arcs()]
        assert len(fresh) == 1
        assert linking_number(m, 0, 1) == 1
        assert knot_arcs  # silence unused warnings in older pytest
    with pytest.raises(ValueError):
        meridian_link(torus2_diagram(2))
    with pytest.raises(ValueError):
        meridian_link(t, 999)


def test_braid_closure_free_strands_become_loops():
    d = _braid_closure([1], 3)
    assert d.free_loops == 1
    assert len(components(d)) == 2
