"""Seeded inputs for the benchmark workloads.

Everything here is independent of the conwaykit package: the benchmark
builds PD text itself, so a change to the package's own diagram
constructors cannot change what the benchmark feeds it.  The program only
ever sees the PD strings produced here.

Crossings are tuples (a, b, c, d, over_in) in the package's PD convention:
a is the incoming under arc, c the outgoing under arc, and over_in names
which of b/d is the incoming over arc.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

DEFAULT_SEED = 1

ALT3 = (1, -2)  # sigma1 sigma2^-1
POS3 = (1, 2)  # sigma1 sigma2


def alt3(k: int):
    return ("alt3^%d" % k, ALT3 * k, 3)


def pos3(k: int):
    return ("pos3^%d" % k, POS3 * k, 3)


def torus2(m: int):
    return ("torus2_%d" % m, (1,) * m, 2)


# (name, braid word, strands).  A diagram's node count moves by about 20%
# (time by about 27%) from one labeling to the next, so the sizes are kept
# small enough for one run to average over a few dozen labelings of each.
SKEIN_BRAIDS = [alt3(k) for k in range(6, 11)] + [pos3(k) for k in range(5, 10)]
TORUS_WIDE = [torus2(m) for m in (60, 80, 100)]
CLI_BRAIDS = [alt3(k) for k in range(3, 7)]
# the braid families by name, as golden.json records their counts
FAMILIES = {"skein_braids": SKEIN_BRAIDS, "torus_wide": TORUS_WIDE, "cli_table": CLI_BRAIDS}


def braid_closure(word, strands: int) -> list[tuple[int, int, int, int, str]]:
    """Closure of a braid word with the package's own closure labels.

    Letters are nonzero integers: +i crosses strands i and i+1 positively,
    -i negatively.  Every strand must meet a crossing.
    """
    current = list(range(1, strands + 1))
    fresh = strands
    xs = []
    for letter in word:
        i = abs(letter)
        l_in, r_in = current[i - 1], current[i]
        l_out, r_out = fresh + 1, fresh + 2
        fresh += 2
        if letter > 0:
            xs.append((r_in, r_out, l_out, l_in, "d"))
        else:
            xs.append((l_in, r_in, r_out, l_out, "b"))
        current[i - 1], current[i] = l_out, r_out
    if any(top == k + 1 for k, top in enumerate(current)):
        raise ValueError("every strand must meet a crossing")
    glue = {top: k + 1 for k, top in enumerate(current)}
    return [tuple(glue.get(v, v) for v in x[:4]) + (x[4],) for x in xs]


def arc_cycles(xs) -> list[list[int]]:
    """Components as arc cycles, each from its minimal arc, by minimal arc."""
    succ = {}
    for a, b, c, d, over_in in xs:
        succ[a] = c
        if over_in == "b":
            succ[b] = d
        else:
            succ[d] = b
    seen: set[int] = set()
    cycles = []
    for start in sorted(succ):
        if start in seen:
            continue
        cycle = [start]
        arc = succ[start]
        while arc != start:
            cycle.append(arc)
            arc = succ[arc]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def relabel(xs, rng: random.Random):
    """Random component order, basepoints and crossing order.

    Labels stay consecutive along each component, as in published PD codes.
    """
    cycles = arc_cycles(xs)
    rng.shuffle(cycles)
    mapping: dict[int, int] = {}
    for cycle in cycles:
        k = rng.randrange(len(cycle))
        for arc in cycle[k:] + cycle[:k]:
            mapping[arc] = len(mapping) + 1
    out = [tuple(mapping[v] for v in x[:4]) + (x[4],) for x in xs]
    rng.shuffle(out)
    return out


def pd_string(xs) -> str:
    return ";".join("X(%d,%d,%d,%d)" % x[:4] for x in xs)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def pass_rng(seed: int, pass_index: int) -> random.Random:
    """Each pass of a run gets its own labelings, so that one run averages
    over several of them and the seed-to-seed spread stays small."""
    return random.Random("%d/%d" % (seed, pass_index))


@dataclass(frozen=True)
class Item:
    name: str
    pd: str
    components: int
    linking: int  # linking number; meaningful for 2-component links


def linking_number(xs, cycles) -> int:
    """Half the signed count of crossings between the first two components."""
    owner = {arc: i for i, cycle in enumerate(cycles) for arc in cycle}
    total = 0
    for a, b, _, d, over_in in xs:
        over = b if over_in == "b" else d
        if owner[a] != owner[over]:
            total += 1 if over_in == "d" else -1
    return total // 2


def braid_items(family, seed: int | None, pass_index: int = 0) -> list[Item]:
    """One item per braid of the family; seed None keeps the generator's
    own labels."""
    rng = None if seed is None else pass_rng(seed, pass_index)
    items = []
    for name, word, strands in family:
        xs = braid_closure(word, strands)
        cycles = arc_cycles(xs)
        lk = linking_number(xs, cycles)
        if rng is not None:
            xs = relabel(xs, rng)
        items.append(Item(name, pd_string(xs), len(cycles), lk))
    return items
