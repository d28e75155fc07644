"""Verification harness for the closed-form coefficient identities.

Two families of knots, indexed by (n, l, r), have z^2 coefficients given
by closed forms:

    a2_A(n, l, r) = 4l^2 + r^2 + 2lr +  6l + 5r - 2n + 6
    a2_B(n, l, r) = 2l^2 + r^2 + 2lr + 10l + 5r - 2n + 6

The harness checks everything that is decidable in exact arithmetic:

  * the six induction increments that establish the closed forms
    (8l+2, 2l+2r+4, -2 for the A family; 4l+8, 2l+2r+4, -2 for B);
  * the alternating sum a3_of(n) = sum_k [a2_A(n,n-k,k-1) - a2_B(n,n-k,k-1)],
    its change of variable to sum_j (2j^2-4j), the exact equation
    3 a3_of(n) = n(n-1)(2n-7), and its nonvanishing for n >= 2;
  * the degree-8 polynomial chain that settles the n = 1 case, recomputed
    both from the stored table polynomials and from scratch by the skein
    engine on the table diagrams;
  * the base-case and n = 1 anchors tying the closed forms to concrete
    knots (products and coefficients of table polynomials);
  * structural property sweeps of the skein engine itself on seeded
    random diagrams (skein identity, parity laws, a1 = lk,
    multiplicativity, split vanishing, relabeling and reduction
    invariance).

Every report compares exact integers or polynomials; there are no
tolerances anywhere.
"""

from __future__ import annotations

import random
from itertools import product, repeat
from math import prod
from types import SimpleNamespace
from typing import NamedTuple

from .diagram import (
    Diagram,
    _braid_closure,
    _relabel,
    components,
    connected_sum,
    disjoint_union,
    linking_number,
    mirror,
    reduce as _reduce,
)
from .poly import IntPoly, format_poly, parse_poly
from .skein import (
    SkeinContext,
    a2,
    check_skein_identity,
    conway,
)
from .table import KnotTableEntry, TableError, _describe, check_entry, load_table


class VerifyConfig(SimpleNamespace):
    """Index bounds and seed of one verification run; the sweep sizes are
    the module constants THEOREM_MAX_N, DIAGRAM_SAMPLES and PAIR_SAMPLES."""

    def __init__(
        self, max_n: int = 50, max_l: int = 50, max_r: int = 50, seed: int = 20260817
    ):
        super().__init__(max_n=max_n, max_l=max_l, max_r=max_r, seed=seed)


class VerificationReport(NamedTuple):
    check_name: str
    inputs: str
    expected: str
    computed: str
    passed: bool


def _report(name: str, inputs: str, expected: str, computed: str) -> VerificationReport:
    return VerificationReport(name, inputs, expected, computed, expected == computed)


def _tally(
    name: str, inputs: str, bad: list[str], total: int, what: str
) -> VerificationReport:
    """One report for a sweep: how many of its checks went wrong, and the
    first of them."""
    expected = f"0 {what} in {total} checks"
    computed = (
        expected if not bad else f"{len(bad)} {what} in {total} checks, first: {bad[0]}"
    )
    return _report(name, inputs, expected, computed)


def a2_A(n: int, l: int, r: int) -> int:
    """Closed form for the z^2 coefficient of the first knot family,
    4l^2 + r^2 + 2lr + 6l + 5r - 2n + 6, evaluated in nested form."""
    if n < 0 or l < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    return (4 * l + 2 * r + 6) * l + (r + 5) * r + 6 - 2 * n


def a2_B(n: int, l: int, r: int) -> int:
    """Closed form for the z^2 coefficient of the second knot family,
    2l^2 + r^2 + 2lr + 10l + 5r - 2n + 6, evaluated in nested form."""
    if n < 0 or l < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    return (2 * l + 2 * r + 10) * l + (r + 5) * r + 6 - 2 * n


def a3_of(n: int) -> int:
    """The z^3 coefficient of the link-polynomial difference at index n:
    the alternating sum of the two closed forms over the skein steps."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for l, r in zip(range(n - 1, -1, -1), range(n)):  # l = n-k, r = k-1
        total += a2_A(n, l, r) - a2_B(n, l, r)
    return total


# One row per induction increment: (family, stepped index, swept indices,
# c_l, c_r, c_0).  A row checks f(p) - f(p - e_step) = c_l*l + c_r*r + c_0
# with the stepped index from 1 and the other swept indices from 0 up to
# their bounds; indices that are not swept stay at 0.
_STEPS = (
    ("A", "l", "l", 8, 0, 2),
    ("A", "r", "lr", 2, 2, 4),
    ("A", "n", "nlr", 0, 0, -2),
    ("B", "l", "l", 4, 0, 8),
    ("B", "r", "lr", 2, 2, 4),
    ("B", "n", "nlr", 0, 0, -2),
)


def check_recurrences(max_n: int, max_l: int, max_r: int) -> list[VerificationReport]:
    """Verify the six induction increments of the closed forms on the
    full index box [0..max] (one aggregated report per identity)."""
    if max_n < 1 or max_l < 1 or max_r < 1:
        raise ValueError("bounds must be >= 1")
    top = {"n": max_n, "l": max_l, "r": max_r}
    reports = []
    for family, step, swept, c_l, c_r, c_0 in _STEPS:
        f = a2_A if family == "A" else a2_B
        axes = {k: range(int(k == step), top[k] + 1) for k in swept}
        axis = "nlr".index(step)
        # walk one column per point of the other swept indices along the
        # stepped index: each value serves the steps into and out of its point
        bases = (axes.get(k, (0,)) if k != step else (0,) for k in "nlr")
        bad = []
        for base in product(*bases):
            prev = f(*base)
            cols = [axes[step] if i == axis else repeat(b) for i, b in enumerate(base)]
            for n, l, r in zip(*cols):
                cur = f(n, l, r)
                if cur - prev != c_l * l + c_r * r + c_0:
                    bad.append((n, l, r))
                prev = cur
        label = ",".join(f"{k}={{{k}}}" for k in swept)  # e.g. "l={l},r={r}"
        reports.append(
            _tally(
                f"recurrence_{family}_{step}_step",
                ", ".join(f"{a.start} <= {k} <= {top[k]}" for k, a in axes.items()),
                # found column by column, named in (n, l, r) order
                [label.format(n=n, l=l, r=r) for n, l, r in sorted(bad)],
                prod(map(len, axes.values())),
                "mismatches",
            )
        )
    return reports


def theorem_sum_check(max_n: int) -> list[VerificationReport]:
    """Verify a3_of(n) against the closed form n(n-1)(2n-7)/3, against the
    change of variable sum_{j<n} (2j^2-4j), and its sign behavior."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    inputs = f"1 <= n <= {max_n}"

    closed_bad: list[str] = []
    subst_bad: list[str] = []
    zero_bad: list[str] = []
    sign_bad: list[str] = []
    subst = 0  # sum_{j<n} (2j^2-4j), kept as a running total
    for n in range(1, max_n + 1):
        v = a3_of(n)
        subst += 2 * (n - 1) ** 2 - 4 * (n - 1)
        numerator = n * (n - 1) * (2 * n - 7)
        if 3 * v != numerator:
            closed_bad.append(f"n={n}: {v} != {numerator // 3}")
        if v != subst:
            subst_bad.append(f"n={n}")
        if n >= 2 and v == 0:
            zero_bad.append(f"n={n}")
        want_sign = 0 if n == 1 else (-1 if n in (2, 3) else 1)
        got_sign = (v > 0) - (v < 0)
        if got_sign != want_sign:
            sign_bad.append(f"n={n}: sign {got_sign}")

    def agg(name: str, bad: list[str], what: str) -> VerificationReport:
        expected = f"{what} for all n"
        computed = expected if not bad else f"violated at {bad[0]} (+{len(bad) - 1} more)"
        return _report(name, inputs, expected, computed)

    return [
        agg("sum_closed_form", closed_bad, "a3_of(n) = n(n-1)(2n-7)/3 exactly"),
        agg("sum_change_of_variable", subst_bad, "k-sum equals sum of 2j^2-4j"),
        agg("sum_nonvanishing", zero_bad, "a3_of(n) != 0 for n >= 2"),
        agg("sum_sign_pattern", sign_bad, "sign is 0,-,-,+,+,... from n=1"),
    ]


CHAIN_STEP1 = "1+4z^2+8z^4+6z^6+z^8"
CHAIN_STEP2 = "1+4z^2+3z^4+z^6"
CHAIN_DIFF = "5z^4+5z^6+z^8"
CHAIN_FINAL = "5z^5+5z^7+z^9"

_CHAIN_NAMES = ("8_19", "3_1", "L6a1{1}", "10_148")


def k1_chain(
    table: dict[str, KnotTableEntry], ctx: SkeinContext
) -> list[VerificationReport]:
    """Recompute the degree-8 polynomial chain two ways from the given
    table, computing the engine's values in the given context.

    Route one multiplies/subtracts the stored table polynomials; route two
    recomputes every polynomial from the table diagrams with the skein
    engine (taking the mirror where the chain calls for it).  Both must
    reproduce the four printed values, and the difference must be nonzero.
    """
    missing = [name for name in _CHAIN_NAMES if name not in table]
    if missing:
        raise TableError(f"table lacks entries: {', '.join(missing)}")

    t = table
    step1 = t["8_19"].conway * t["3_1"].conway - t["L6a1{1}"].conway.shift(1)
    step2 = t["10_148"].conway
    diff = step1 - step2
    e819 = conway(t["8_19"].diagram(), ctx)
    e31m = conway(mirror(t["3_1"].diagram()), ctx)
    e63 = conway(t["L6a1{1}"].diagram(), ctx)
    rows = (
        ("chain_step1_table", CHAIN_STEP1, step1,
         "nabla(8_19)*nabla(3_1) - z*nabla(L6a1{1}), table polynomials"),
        ("chain_step1_engine", CHAIN_STEP1, e819 * e31m - e63.shift(1),
         "same chain, every polynomial recomputed by the skein engine"),
        ("chain_step2_table", CHAIN_STEP2, step2,
         "stored nabla(10_148) (mirror leaves knot polynomials unchanged)"),
        ("chain_step2_engine", CHAIN_STEP2, conway(mirror(t["10_148"].diagram()), ctx),
         "engine nabla of the mirrored 10_148 diagram"),
        ("chain_step3_difference", CHAIN_DIFF, diff, "step1 - step2"),
        ("chain_step4_final", CHAIN_FINAL, diff.shift(1), "z * (step1 - step2)"),
    )
    nonzero = "nonzero" if diff != IntPoly() else "zero"
    return [_report("chain_step3_nonzero", "step1 - step2", "nonzero", nonzero)] + [
        _report(name, inputs, expected, format_poly(value))
        for name, expected, value, inputs in rows
    ]


def closed_form_crosscheck(
    table: dict[str, KnotTableEntry], ctx: SkeinContext
) -> list[VerificationReport]:
    """Anchor the closed forms to concrete knots of the given table,
    computing the engine's values in the given context.

    At (1,0,0) both formulas must equal the z^2 coefficients of the chain
    polynomials; at (0,0,0) both must equal 6, matching a2(8_19)+a2(3_1)
    = 5+1 and a2(5_2)+4 = 2+4, with the a2 values recomputed by the
    engine from the table diagrams.
    """
    for name in ("8_19", "3_1", "5_2"):
        if name not in table:
            raise TableError(f"table lacks entry {name}")

    t = table
    engine_A = a2(t["8_19"].diagram(), ctx) + a2(mirror(t["3_1"].diagram()), ctx)
    engine_B = a2(mirror(t["5_2"].diagram()), ctx) + 4
    rows = (
        ("closed_form_A_at_1_0_0", parse_poly(CHAIN_STEP1).coeff(2), a2_A(1, 0, 0),
         "a2_A(1,0,0) vs z^2 coefficient of " + CHAIN_STEP1),
        ("closed_form_B_at_1_0_0", parse_poly(CHAIN_STEP2).coeff(2), a2_B(1, 0, 0),
         "a2_B(1,0,0) vs z^2 coefficient of " + CHAIN_STEP2),
        ("closed_form_A_base", a2_A(0, 0, 0), engine_A,
         "a2_A(0,0,0) vs a2(8_19) + a2(mirror 3_1), engine values"),
        ("closed_form_B_base", a2_B(0, 0, 0), engine_B,
         "a2_B(0,0,0) vs a2(mirror 5_2) + 4, engine value"),
    )
    return [
        _report(name, inputs, str(expected), str(computed))
        for name, expected, computed, inputs in rows
    ]


# the sum's bound, the property suite's closures and its knot pairs, and
# the crossings of those closures
THEOREM_MAX_N = 1000
DIAGRAM_SAMPLES = 100
PAIR_SAMPLES = 50
MAX_RANDOM_CROSSINGS = 8


def random_closure(
    rng: random.Random, max_crossings: int = MAX_RANDOM_CROSSINGS
) -> Diagram:
    """Seeded random braid closure; the workhorse of the property sweeps."""
    strands = rng.randint(2, 4)
    length = rng.randint(1, max_crossings)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
    return _braid_closure(word, strands)


def _property_suite(config: VerifyConfig) -> list[VerificationReport]:
    rng = random.Random(config.seed)
    ctx = SkeinContext()
    samples = [random_closure(rng) for _ in range(DIAGRAM_SAMPLES)]
    reports = []

    def tally(name: str, inputs: str, fails: list[str], total: int):
        inputs = f"{inputs}, seed {config.seed}"
        reports.append(_tally(name, inputs, fails, total, "failures"))

    tally(
        "property_skein_identity",
        f"{len(samples)} random closures <= {MAX_RANDOM_CROSSINGS} "
        f"crossings, every crossing",
        [
            f"diagram {i}"
            for i, d in enumerate(samples)
            for x in d.crossings
            if not check_skein_identity(d, x, ctx)
        ],
        sum(len(d.crossings) for d in samples),
    )

    fails, knots, links = [], 0, 0
    for i, d in enumerate(samples):
        ncomp = len(components(d))
        p = conway(d, ctx)
        if ncomp == 1:
            knots += 1
            if p.parity() != "even" or p.coeff(0) != 1:
                fails.append(f"knot diagram {i}: {format_poly(p)}")
        elif ncomp == 2:
            links += 1
            if p.parity() not in ("odd", "zero"):
                fails.append(f"link diagram {i}: {format_poly(p)}")
            elif p.coeff(1) != linking_number(d, 0, 1):
                fails.append(f"link diagram {i}: a1 != lk")
    tally(
        "property_parity_and_linking",
        f"{knots} knots (even, constant 1), {links} 2-component links "
        f"(odd, a1 = lk)",
        fails,
        knots + links,
    )

    fails, total = [], 0
    while total < PAIR_SAMPLES:
        d1 = random_closure(rng, 6)
        d2 = random_closure(rng, 6)
        if len(components(d1)) != 1 or len(components(d2)) != 1:
            continue
        total += 1
        s = connected_sum(d1, min(d1.arcs()), d2, min(d2.arcs()))
        if conway(s, ctx) != conway(d1, ctx) * conway(d2, ctx):
            fails.append(f"pair {total}")
    tally(
        "property_multiplicativity",
        f"{PAIR_SAMPLES} random knot pairs <= 6 crossings",
        fails,
        total,
    )

    fails = [
        f"pair {i}"
        for i in range(20)
        if conway(disjoint_union(random_closure(rng, 5), random_closure(rng, 5)), ctx)
        != IntPoly()
    ]
    tally("property_split_vanishing", "20 random disjoint unions", fails, 20)

    fails = []
    for i, d in enumerate(samples[:50]):
        arcs = sorted(d.arcs())
        fresh = rng.sample(range(1, 10 * (len(arcs) + 2)), len(arcs))
        relabeled = _relabel(d, dict(zip(arcs, fresh)))
        if conway(d, SkeinContext()) != conway(relabeled, SkeinContext()):
            fails.append(f"diagram {i}")
    tally(
        "property_basepoint_invariance",
        f"{len(samples[:50])} random closures relabeled "
        "(fresh basepoints and component order)",
        fails,
        len(samples[:50]),
    )

    fails = [
        f"diagram {i}"
        for i, d in enumerate(samples[:30])
        if conway(d, SkeinContext(reduce_diagrams=False)) != conway(d, SkeinContext())
    ]
    tally(
        "property_reduction_invariance",
        f"{len(samples[:30])} random closures with and without R1/R2 reduction",
        fails,
        len(samples[:30]),
    )

    fails = []
    for i, d in enumerate(samples):
        r = _reduce(d)
        if len(r.crossings) > len(d.crossings):
            fails.append(f"diagram {i}: grew")
        elif conway(r, ctx) != conway(d, ctx):
            fails.append(f"diagram {i}: value changed")
    tally(
        "property_reduce_preserves_conway",
        f"{len(samples)} random closures",
        fails,
        len(samples),
    )
    return reports


def _table_reports(
    table: dict[str, KnotTableEntry], ctx: SkeinContext
) -> list[VerificationReport]:
    reports = [_report("table_load", "reference table", "loadable", "loadable")]
    for entry in table.values():
        reports.append(
            _report(
                f"table_{entry.name}",
                f"engine recomputation of PD for {entry.name}",
                _describe(entry.conway, entry.components),
                check_entry(entry, ctx),
            )
        )
    return reports


def run_all(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run every check; never raises, failures become failed reports.

    The table (the packaged one, or the file KNOT_TABLE names) is loaded
    once; its checks share one SkeinContext.  The sweep sizes are the
    module constants.  A table that cannot be loaded fails table_load and
    skips the chain and closed-form checks; a table that loads must hold
    their entries.
    """
    if config is None:
        config = VerifyConfig()
    reports: list[VerificationReport] = []

    def guarded(name: str, check, *args):
        try:
            reports.extend(check(*args))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            raised = f"{type(exc).__name__}: {exc}"
            reports.append(_report(name, "check raised", "no exception", raised))

    try:
        table = load_table(validate=False)
    except TableError as exc:
        reports.append(_report("table_load", "reference table", "loadable", str(exc)))
    else:
        ctx = SkeinContext()
        guarded("table_load", _table_reports, table, ctx)
        guarded("chain", k1_chain, table, ctx)
        guarded("closed_form", closed_form_crosscheck, table, ctx)
    guarded("recurrence", check_recurrences, config.max_n, config.max_l, config.max_r)
    guarded("sum", theorem_sum_check, THEOREM_MAX_N)
    guarded("property", _property_suite, config)

    return sorted(reports, key=lambda r: r.check_name)
