"""Seeded fuzz of parse_pd, and the engine's laws on every code it accepts.

Most random label assignments are not PD codes of any diagram.  parse_pd
must refuse each of those with a typed error, so that every code it
accepts is a planar link diagram and its Conway polynomial obeys the laws
of one: the mirror law, invariance when every component is reversed, and
invariance under R1/R2.  Random PD-like text gets a diagram or one of the
two typed errors, never another exception.  The same laws hold on seeded
braid closures of up to 12 crossings, where smoothing and R1/R2 splice
longer runs of arcs.
"""

from __future__ import annotations

import random

from conwaykit.diagram import (
    Diagram,
    PDSyntaxError,
    PDValidationError,
    _braid_closure,
    _reverse_component,
    components,
    mirror,
    parse_pd,
)
from conwaykit.skein import SkeinContext, conway


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
        reversed_ = _reverse_component(reversed_, k)
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
