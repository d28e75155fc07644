"""Seeded fuzz of parse_pd, and the engine's laws on every code it accepts.

Most random label assignments are not PD codes of any diagram.  parse_pd
must refuse each of those with a typed error, so that every code it
accepts is a planar link diagram and its Conway polynomial obeys the laws
of one: the mirror law, invariance when every component is reversed, and
invariance under R1/R2.  Random PD-like text gets a diagram or one of the
two typed errors, never another exception.  The same laws hold on seeded
braid closures of up to 12 crossings, where smoothing and R1/R2 splice
longer runs of arcs.

parse_pd builds through the Diagram constructor, so its refusals are the
constructor's.  Hand-built diagrams get the same guarantee from it:
every mutant of a closure is refused with a typed error or is the diagram
parse_pd reads from its PD text, and every public diagram function runs
on it and makes diagrams that pass the constructor's check.

Every diagram the package makes prints a PD code that parses back to it,
up to the direction of a component that passes under nowhere: no PD code
records that direction, and both give the same invariants.
"""

from __future__ import annotations

import random

import pytest

from conwaykit.diagram import (
    Crossing,
    Diagram,
    PDSyntaxError,
    PDValidationError,
    _braid_closure,
    canonical_code,
    components,
    connected_sum,
    disjoint_union,
    is_graph_connected,
    linking_number,
    mirror,
    parse_pd,
    pd_text,
    reduce,
    smooth_crossing,
    switch_crossing,
    torus2_diagram,
)
from conwaykit.poly import IntPoly
from conwaykit.skein import SkeinContext, conway
from conwaykit.table import load_table

from knot_helpers import meridian_link, reverse_component, writhe


def random_codes(rng: random.Random, count: int) -> list[str]:
    """Codes of 1-5 crossings whose labels 1..2n each occur twice, shuffled."""
    codes = []
    for _ in range(count):
        n = rng.randint(1, 5)
        labels = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(labels)
        codes.append(
            ";".join("X(%d,%d,%d,%d)" % tuple(labels[4 * k : 4 * k + 4]) for k in range(n))
        )
    return codes


def assert_laws(d: Diagram) -> None:
    p = conway(d)
    mu = len(components(d))
    # mirror law: nabla(L*) = (-1)^(mu - 1) nabla(L)
    assert conway(mirror(d)) == (p if mu % 2 else -p), d
    reversed_ = d
    for k in range(mu):
        reversed_ = reverse_component(reversed_, k)
    assert conway(reversed_) == p, d
    assert conway(d, SkeinContext(reduce_diagrams=False)) == p, d


def test_every_accepted_label_assignment_obeys_the_laws():
    accepted = 0
    for text in random_codes(random.Random(1), 2000):
        try:
            d = parse_pd(text)
        except PDValidationError:
            continue
        accepted += 1
        assert_laws(d)
    assert accepted > 300


# the four PDValidationError messages of the Diagram constructor
CONSTRUCTOR_REFUSALS = (
    "each arc label must occur exactly twice",
    "arc labels must be positive",
    "arc succession is not a bijection: an arc arrives at two passes",
    "the PD code is not planar",
)


def test_parse_refusals_are_the_constructors_refusals():
    with pytest.raises(PDValidationError, match="an arc arrives at two passes"):
        parse_pd("X(1,3,2,4);X(1,4,2,3)")
    for text in random_codes(random.Random(4), 2000):
        try:
            d = parse_pd(text)
        except PDValidationError as e:
            assert str(e).startswith(CONSTRUCTOR_REFUSALS), (text, str(e))
            continue
        assert Diagram(d.crossings, d.free_loops) == d


def test_random_text_gets_a_diagram_or_a_typed_error():
    rng = random.Random(2)
    codes = random_codes(rng, 1000)
    alphabet = "X(),;O0123456789 -"
    accepted = 0
    for code in codes:
        if rng.random() < 0.5:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        else:
            # up to three random edits of a label assignment
            chars = list(code)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(chars) + 1)
                edit = rng.random()
                if edit < 0.4 and i < len(chars):
                    chars[i] = rng.choice(alphabet)
                elif edit < 0.7 and i < len(chars):
                    del chars[i]
                else:
                    chars.insert(i, rng.choice(alphabet))
            text = "".join(chars)
        try:
            d = parse_pd(text)
        except (PDSyntaxError, PDValidationError):
            continue
        accepted += 1
        assert_laws(d)
    assert accepted > 20


def test_braid_closures_up_to_12_crossings_obey_the_laws():
    rng = random.Random(3)
    for _ in range(200):
        strands = rng.randint(2, 5)
        length = rng.randint(1, 12)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        d = _braid_closure(word, strands)
        xs = list(d.crossings)
        rng.shuffle(xs)  # the laws hold in any crossing order
        assert_laws(Diagram(tuple(xs), d.free_loops))


def mutant(rng: random.Random) -> tuple[tuple[Crossing, ...], int]:
    """A seeded closure's crossings and free loops with 0-2 mutations: a
    label made a duplicate of another, 0 or -1, or an over_in flipped or
    set to 'x'."""
    strands = rng.randint(2, 4)
    word = [
        rng.choice([1, -1]) * rng.randint(1, strands - 1)
        for _ in range(rng.randint(1, 8))
    ]
    d = _braid_closure(word, strands)
    xs = [list(x) for x in d.crossings]
    rng.shuffle(xs)
    labels = sorted(d.arcs())
    for _ in range(rng.randint(0, 2)):
        x = rng.choice(xs)
        kind = rng.randrange(3)
        if kind == 0:
            x[rng.randrange(4)] = rng.choice(labels)
        elif kind == 1:
            x[rng.randrange(4)] = rng.choice([0, -1])
        else:
            x[4] = rng.choice(["x", "b" if x[4] == "d" else "d"])
    return tuple(Crossing(*x) for x in xs), d.free_loops


def run_public_functions(d: Diagram, ctx: SkeinContext) -> None:
    """Every public diagram function, with valid arguments, and conway.
    The diagrams the moves and builders make skip the constructor's check,
    so each is checked here."""
    mu = len(components(d))
    pd_text(d)
    canonical_code(d)
    is_graph_connected(d)
    r = reduce(d)
    assert conway(r, ctx) == conway(d, ctx)
    made = [r, disjoint_union(d, mirror(d))]
    if mu > 1:
        linking_number(d, 0, 1)
    if d.crossings:
        made += [switch_crossing(d, d.crossings[0]), smooth_crossing(d, d.crossings[0])]
    if mu == 1 and d.crossings:
        arc = min(d.arcs())
        made.append(connected_sum(d, arc, d, arc))
    for out in made:
        assert Diagram(out.crossings, out.free_loops) == out


def assert_round_trip(d: Diagram, ctx: SkeinContext) -> bool:
    """parse_pd(pd_text(d)) is d, but for the direction of each component
    that passes under nowhere, and has d's invariants; True when d has
    such a component."""
    back = parse_pd(pd_text(d))
    unders = {x.a for x in d.crossings}
    over_only = [set(c) for c in components(d) if c and unders.isdisjoint(c)]
    # such a component lies over all it meets, so turning it round flips
    # over_in at each of its crossings and changes nothing else
    turned = set()
    for arcs in over_only:
        if any(x.b in arcs and x != y for x, y in zip(d.crossings, back.crossings)):
            turned |= arcs
    flip = {"b": "d", "d": "b"}
    want = [
        x._replace(over_in=flip[x.over_in]) if x.b in turned else x
        for x in d.crossings
    ]
    assert back == Diagram(tuple(want), d.free_loops)
    if not over_only:
        return False
    assert conway(back, ctx) == conway(d, ctx) == IntPoly()
    assert writhe(back) == writhe(d)
    mu = len(components(d))
    for i in range(mu):
        for j in range(i + 1, mu):
            assert linking_number(back, i, j) == linking_number(d, i, j)
    return True


def test_every_diagram_the_package_makes_parses_back():
    rng = random.Random(13)
    ctx = SkeinContext()
    table = load_table(validate=False).values()
    knots = [e.diagram() for e in table if e.components == 1]
    tied = [k for k in knots if k.crossings]
    made = [torus2_diagram(m) for m in range(1, 10)]
    made += [meridian_link(k) for k in knots]
    made += [
        connected_sum(k, min(k.arcs()), h, min(h.arcs())) for k in tied for h in tied
    ]
    made.append(_braid_closure([-1, 1], 2))
    for _ in range(300):
        strands = rng.randint(2, 4)
        word = [
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 12))
        ]
        made.append(_braid_closure(word, strands))
    over_only = 0
    for d in made:
        for e in (d, mirror(d), reduce(d)):
            over_only += assert_round_trip(e, ctx)
    assert over_only > 10, over_only


def test_hand_built_diagrams_are_refused_or_agree_with_parse_pd():
    rng = random.Random(5)
    ctx = SkeinContext()
    accepted = refused = 0
    for _ in range(2000):
        xs, loops = mutant(rng)
        try:
            d = Diagram(xs, loops)
        except (TypeError, ValueError):  # PDValidationError is a ValueError
            refused += 1
            continue
        accepted += 1
        assert_round_trip(d, ctx)
        run_public_functions(d, ctx)
    assert accepted > 500 and refused > 500


@pytest.mark.parametrize(
    "crossings, free_loops, error",
    [
        (((1, 2, 2, 1, "d"),), 0, TypeError),  # a plain tuple
        ((), -1, ValueError),
        ((), True, TypeError),
        ((), 1.5, TypeError),
        ((Crossing(True, 2, 2, 1, "d"),), 0, TypeError),
        ((Crossing("1", 2, 2, 1, "d"),), 0, TypeError),
        ((Crossing(0, 2, 2, 0, "d"),), 0, PDValidationError),
        ((Crossing(1, 2, 2, 1, "x"),), 0, TypeError),
        ((Crossing(1, 2, 2, 3, "d"),), 0, PDValidationError),
    ],
)
def test_hand_built_diagrams_with_bad_fields_are_refused(crossings, free_loops, error):
    with pytest.raises(error):
        Diagram(crossings, free_loops)


def test_builders_refuse_arcs_that_are_not_int_labels():
    # True and 1.0 are found in a set of ints, but they are no label
    knot = parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
    for arc in (True, 1.0):
        with pytest.raises(ValueError, match="not present"):
            connected_sum(knot, arc, knot, 1)
        with pytest.raises(ValueError, match="not present"):
            connected_sum(knot, 1, knot, arc)
