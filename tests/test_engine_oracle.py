"""The indexed engine against the straightforward implementations it replaced.

The reference functions below are the all-pairs Reidemeister search, the
arc-level connectivity test, the canonical code built from relabelled
Crossing objects and the smoothing that relabels every crossing, kept
verbatim as oracles.  The indexed versions in conwaykit.diagram must agree
with them exactly: the same R1/R2 moves in the same order give the same
reduced diagram, and with it the same memo keys, node counts and
polynomials.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from importlib import resources

import pytest

from conwaykit import skein
from conwaykit.diagram import (
    Crossing,
    Diagram,
    PDValidationError,
    _braid_closure,
    canonical_code,
    components,
    is_graph_connected,
    parse_pd,
    reduce,
    smooth_crossing,
    switch_crossing,
    torus2_diagram,
)
from conwaykit.skein import SkeinContext, conway

from knot_helpers import over_in_arc, over_out_arc

# -- reference implementations ----------------------------------------------------


def ref_components(d: Diagram) -> tuple[tuple[int, ...], ...]:
    succ: dict[int, int] = {}
    for x in d.crossings:
        succ[x.a] = x.c
        succ[over_in_arc(x)] = over_out_arc(x)
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in sorted(succ):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        arc = succ[start]
        while arc != start:
            cycle.append(arc)
            seen.add(arc)
            arc = succ[arc]
        cycles.append(tuple(cycle))
    cycles.extend(() for _ in range(d.free_loops))
    return tuple(cycles)


def ref_remove_crossings(d: Diagram, gone: set[int], bridges: dict[int, int]) -> Diagram:
    mapping: dict[int, int] = {}
    loops = d.free_loops
    heads = set(bridges) - set(bridges.values())
    visited: set[int] = set()
    for head in sorted(heads):
        run = [head]
        while run[-1] in bridges:
            run.append(bridges[run[-1]])
        target = min(run)
        for arc in run:
            mapping[arc] = target
        visited.update(run)
    for start in sorted(bridges):
        if start in visited:
            continue
        arc = start
        while True:
            visited.add(arc)
            arc = bridges[arc]
            if arc == start:
                break
        loops += 1
    kept = []
    for i, x in enumerate(d.crossings):
        if i in gone:
            continue
        kept.append(
            Crossing(
                mapping.get(x.a, x.a),
                mapping.get(x.b, x.b),
                mapping.get(x.c, x.c),
                mapping.get(x.d, x.d),
                x.over_in,
            )
        )
    return Diagram(tuple(kept), loops)


def ref_smooth(d: Diagram, i: int) -> Diagram:
    x = d.crossings[i]
    return ref_remove_crossings(d, {i}, {x.a: over_out_arc(x), over_in_arc(x): x.c})


def ref_unsettled(d: Diagram, i: int) -> frozenset[int] | None:
    """What reduce must search after smoothing d at crossing i: every other
    crossing that shares an arc with i, plus whatever d left unsettled."""
    if d._unsettled is None:
        return None
    arcs = set(d.crossings[i][:4])
    near = {j for j, y in enumerate(d.crossings) if arcs & set(y[:4])}
    return frozenset(j - (j > i) for j in (near | d._unsettled) - {i})


def ref_r1_index(d: Diagram) -> int | None:
    for i, x in enumerate(d.crossings):
        if x.c == over_in_arc(x) or x.a == over_out_arc(x):
            return i
    return None


def ref_r2_pair(d: Diagram) -> tuple[int, int] | None:
    for i, x in enumerate(d.crossings):
        for j in range(i + 1, len(d.crossings)):
            y = d.crossings[j]
            if x.sign == y.sign:
                continue
            over_direct = (
                over_out_arc(x) == over_in_arc(y) or over_out_arc(y) == over_in_arc(x)
            )
            under_direct = x.c == y.a or y.c == x.a
            if over_direct and under_direct:
                return i, j
    return None


def ref_reduce(d: Diagram) -> Diagram:
    while True:
        i = ref_r1_index(d)
        if i is not None:
            x = d.crossings[i]
            d = ref_remove_crossings(d, {i}, {x.a: x.c, over_in_arc(x): over_out_arc(x)})
            continue
        pair = ref_r2_pair(d)
        if pair is not None:
            i, j = pair
            x, y = d.crossings[i], d.crossings[j]
            bridges = {x.a: x.c, y.a: y.c}
            bridges[over_in_arc(x)] = over_out_arc(x)
            bridges[over_in_arc(y)] = over_out_arc(y)
            d = ref_remove_crossings(d, {i, j}, bridges)
            continue
        return d


def ref_is_graph_connected(d: Diagram) -> bool:
    n = len(d.crossings)
    pieces = d.free_loops
    if n == 0:
        return pieces <= 1
    if pieces:
        return False
    arc_home: dict[int, int] = {}
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, x in enumerate(d.crossings):
        for arc in x[:4]:
            if arc in arc_home:
                ri, rj = find(arc_home[arc]), find(i)
                parent[ri] = rj
            else:
                arc_home[arc] = i
    return len({find(i) for i in range(n)}) == 1


def ref_relabel(d: Diagram, mapping: dict[int, int]) -> Diagram:
    return Diagram(
        tuple(
            Crossing(
                mapping.get(x.a, x.a),
                mapping.get(x.b, x.b),
                mapping.get(x.c, x.c),
                mapping.get(x.d, x.d),
                x.over_in,
            )
            for x in d.crossings
        ),
        d.free_loops,
    )


def ref_canonical_code(d: Diagram) -> str:
    mapping: dict[int, int] = {}
    for cycle in ref_components(d):
        for arc in cycle:
            mapping[arc] = len(mapping) + 1
    relabeled = ref_relabel(d, mapping)
    items = sorted((x.a, x.b, x.c, x.d) for x in relabeled.crossings)
    parts = [f"X({a},{b},{c},{d})" for a, b, c, d in items]
    parts += ["O"] * d.free_loops
    return ";".join(parts)


# -- inputs ---------------------------------------------------------------------


def relabeled(d: Diagram, rng: random.Random) -> Diagram:
    """d with its components in a random order, each from a random
    basepoint, labelled along that walk, and its crossings shuffled.
    Every other call also scatters the labels by a random injection."""
    cycles = [list(c) for c in ref_components(d) if c]
    rng.shuffle(cycles)
    walk: list[int] = []
    for cycle in cycles:
        k = rng.randrange(len(cycle))
        walk += cycle[k:] + cycle[:k]
    labels = list(range(1, len(walk) + 1))
    if rng.random() < 0.5:
        labels = sorted(rng.sample(range(1, 5 * len(walk) + 1), len(walk)))
        rng.shuffle(labels)
    new = dict(zip(walk, labels))
    xs = [
        Crossing(new[x.a], new[x.b], new[x.c], new[x.d], x.over_in) for x in d.crossings
    ]
    rng.shuffle(xs)
    return Diagram(tuple(xs), d.free_loops)


def random_diagrams(seed: int, count: int) -> list[Diagram]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 4)
        length = rng.randint(1, 20)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        out.append(relabeled(_braid_closure(word, strands), rng))
    return out


# Diagrams with a strand that meets a single crossing and nothing else.  No
# planar diagram has one (the strand's loop would cross the other strand
# once), so no Diagram can be made of them and the smoothing has no case
# for them.
STRAND_LOOPS = [
    (Crossing(1, 5, 2, 5, "d"), Crossing(2, 3, 1, 3, "d")),  # over strands
    (Crossing(1, 2, 1, 3, "d"), Crossing(2, 4, 3, 4, "d")),  # an under strand
    (Crossing(1, 2, 1, 2, "b"),),  # both strands of one crossing
]


def arc_shape(x: Crossing) -> tuple[bool, bool, bool, bool]:
    """Which arcs of x coincide: the two kinks a == over-out and
    over-in == c, then the strand loops over-in == over-out and a == c
    (which planar diagrams never have)."""
    oi, oo = over_in_arc(x), over_out_arc(x)
    return (x.a == oo, oi == x.c, oi == oo, x.a == x.c)


def fresh(d: Diagram) -> Diagram:
    """An equal diagram that carries nothing cached from earlier steps."""
    return Diagram(d.crossings, d.free_loops)


def assert_agrees(d: Diagram) -> Diagram:
    """Check one diagram; returns its reduction."""
    want = ref_reduce(fresh(d))
    got = reduce(d)
    assert got == want, d
    assert is_graph_connected(got) == ref_is_graph_connected(want)
    assert components(got) == ref_components(want)
    if want.crossings:
        assert canonical_code(got) == ref_canonical_code(want)
    return got


# -- tests ----------------------------------------------------------------------


def test_reduce_connectivity_and_key_agree_on_random_relabelled_closures():
    rng = random.Random(5)
    for d in random_diagrams(11, 300):
        r = assert_agrees(d)
        # children of a reduced diagram take the reduction's shortcut: only
        # crossings next to the move are searched for R1/R2 moves
        for x in rng.sample(r.crossings, min(3, len(r.crossings))):
            for child in (smooth_crossing(r, x), switch_crossing(r, x)):
                assert_agrees(child)


def test_every_engine_node_agrees_with_the_references(monkeypatch):
    nodes = 0

    def checked_reduce(d: Diagram) -> Diagram:
        nonlocal nodes
        nodes += 1
        return assert_agrees(d)

    monkeypatch.setattr(skein, "_reduce", checked_reduce)
    for d in random_diagrams(12, 120):
        ctx = SkeinContext()
        conway(d, ctx)
    assert nodes > 2000


@pytest.mark.parametrize("word", [(1, -2) * 7, (1, 2) * 9, (1, -2, 3) * 5])
def test_reduce_of_unreduced_inputs_matches_reference(word):
    rng = random.Random(len(word))
    d = _braid_closure(word, max(abs(w) for w in word) + 1)
    for x in d.crossings[::3]:
        d = switch_crossing(d, x)
    for _ in range(5):
        assert_agrees(relabeled(d, rng))


@pytest.mark.parametrize("k", [10, 20, 40, 60])
def test_reduce_clears_r2_and_kink_chains_as_the_reference_does(k):
    # the chains a linear-time reduce must clear with the same moves: k R2
    # pairs on 2 strands leave both strands as free loops, and k - 1 kinks
    # on k strands leave one
    for d, loops in (
        (_braid_closure([1, -1] * k, 2), 2),
        (_braid_closure(range(1, k), k), 1),
    ):
        got = reduce(d)
        assert got == ref_reduce(fresh(d))
        assert (got.crossings, got.free_loops) == ((), loops)


def test_smoothing_matches_reference_at_every_crossing():
    """Every crossing of unreduced closures, their reductions (settled) and a
    switch of each reduction (one crossing unsettled)."""
    rng = random.Random(13)
    inputs = []
    for d in random_diagrams(13, 150):
        r = reduce(fresh(d))
        inputs += [d, r]
        if r.crossings:
            inputs.append(switch_crossing(r, rng.choice(r.crossings)))
    shapes: Counter = Counter()
    for d in inputs:
        for i, x in enumerate(d.crossings):
            shapes[arc_shape(x)] += 1
            child = smooth_crossing(d, x)
            assert child == ref_smooth(fresh(d), i), (d, i)
            assert child._unsettled == ref_unsettled(d, i), (d, i)
            assert_agrees(child)
    # plain, each kink, both kinks
    assert set(shapes) == {
        (False, False, False, False),
        (True, False, False, False),
        (False, True, False, False),
        (True, True, False, False),
    }, shapes


@pytest.mark.parametrize("xs", STRAND_LOOPS, ids=["over", "under", "both"])
def test_strand_loops_are_refused_as_non_planar(xs):
    with pytest.raises(PDValidationError, match="not planar"):
        Diagram(xs)


def test_canonical_code_past_the_label_table():
    # the shared position labels cover 256 arcs; longer diagrams make their own
    for m in (63, 64, 65, 300):  # 4m arcs
        d = _braid_closure((1, -2) * m, 3)
        assert canonical_code(d) == ref_canonical_code(d)


# Node count, hit count and sha256 over the sorted (key, coefficients) memo
# items of memo_corpus() in one shared context.  Engine optimizations must
# keep the keys, values and counts bit-identical.
MEMO_PIN = (
    2_973,
    1_068,
    "fb3da0d4e359a79161e04a4e463a4af26dcd3d72fbae6c92da91a1a2e3d304c4",
)


def memo_corpus() -> list[Diagram]:
    rng = random.Random(6)
    out = []
    for k in range(5, 9):
        for word in ((1, -2) * k, (1, 2) * k):
            d = _braid_closure(word, 3)
            out += [relabeled(d, rng) for _ in range(3)]
    out.append(torus2_diagram(30))
    table = json.loads(resources.files("conwaykit").joinpath("data/knot_table.json").read_text())
    out += [parse_pd(entry["pd"]) for entry in table]
    return out


def test_memo_contents_match_the_pinned_digest():
    ctx = SkeinContext()
    for d in memo_corpus():
        conway(d, ctx)
    digest = hashlib.sha256(
        repr(sorted((key, value.coeffs) for key, value in ctx.memo.items())).encode()
    ).hexdigest()
    assert (ctx.nodes_expanded, ctx.cache_hits, digest) == MEMO_PIN
