import json
import random
from itertools import product

import pytest

from conwaykit.diagram import Diagram, components, disjoint_union
from conwaykit.poly import IntPoly
from conwaykit.table import TableError, default_table_path
from conwaykit.verify import (
    CHAIN_DIFF,
    CHAIN_FINAL,
    CHAIN_STEP1,
    CHAIN_STEP2,
    VerifyConfig,
    _property_suite,
    a2_A,
    a2_B,
    a3_of,
    check_recurrences,
    closed_form_crosscheck,
    k1_chain,
    random_closure,
    run_all,
    theorem_sum_check,
)


def test_closed_form_spot_values():
    assert a2_A(0, 0, 0) == 6
    assert a2_B(0, 0, 0) == 6
    assert a2_A(1, 0, 0) == 4
    assert a2_B(1, 0, 0) == 4
    assert a2_A(0, 1, 0) == 16
    assert a2_B(0, 1, 0) == 18
    assert a2_A(0, 0, 1) == 12
    assert a2_B(0, 0, 1) == 12
    assert a2_A(2, 3, 1) == 4 * 9 + 1 + 6 + 18 + 5 - 4 + 6
    assert a2_B(2, 3, 1) == 2 * 9 + 1 + 6 + 30 + 5 - 4 + 6


def test_closed_forms_equal_the_expanded_polynomials():
    # the forms are evaluated in nested form; the module docstring's
    # expansions are the reference
    for n, l, r in product(range(13), repeat=3):
        assert a2_A(n, l, r) == 4 * l * l + r * r + 2 * l * r + 6 * l + 5 * r - 2 * n + 6
        assert a2_B(n, l, r) == 2 * l * l + r * r + 2 * l * r + 10 * l + 5 * r - 2 * n + 6


def test_closed_form_rejects_negative_indices():
    for fn in (a2_A, a2_B):
        with pytest.raises(ValueError):
            fn(-1, 0, 0)
        with pytest.raises(ValueError):
            fn(0, -1, 0)
        with pytest.raises(ValueError):
            fn(0, 0, -1)


def test_recurrences_small_box():
    reports = check_recurrences(3, 3, 3)
    assert len(reports) == 6
    assert all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert names == {
        "recurrence_A_l_step",
        "recurrence_A_r_step",
        "recurrence_A_n_step",
        "recurrence_B_l_step",
        "recurrence_B_r_step",
        "recurrence_B_n_step",
    }
    n_step = next(r for r in reports if r.check_name == "recurrence_A_n_step")
    assert n_step.expected == "0 mismatches in 48 checks"  # 3 * 4 * 4


def test_recurrences_bounds_validated():
    with pytest.raises(ValueError):
        check_recurrences(0, 3, 3)


def test_a3_of_pinned_values():
    assert a3_of(0) == 0
    assert a3_of(1) == 0
    assert a3_of(2) == -2
    assert a3_of(3) == -2
    assert a3_of(4) == 4
    assert a3_of(5) == 20
    with pytest.raises(ValueError):
        a3_of(-1)


def test_a3_of_is_the_k_indexed_sum():
    for n in range(301):
        assert a3_of(n) == sum(
            a2_A(n, n - k, k - 1) - a2_B(n, n - k, k - 1) for k in range(1, n + 1)
        )


def test_theorem_sum_check():
    reports = theorem_sum_check(1000)
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    assert a3_of(1000) == 1000 * 999 * 1993 // 3
    with pytest.raises(ValueError):
        theorem_sum_check(1)


def test_k1_chain_exact_values():
    reports = k1_chain()
    by_name = {r.check_name: r for r in reports}
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    assert by_name["chain_step1_table"].computed == CHAIN_STEP1 == "1+4z^2+8z^4+6z^6+z^8"
    assert by_name["chain_step1_engine"].computed == CHAIN_STEP1
    assert by_name["chain_step2_table"].computed == CHAIN_STEP2 == "1+4z^2+3z^4+z^6"
    assert by_name["chain_step2_engine"].computed == CHAIN_STEP2
    assert by_name["chain_step3_difference"].computed == CHAIN_DIFF == "5z^4+5z^6+z^8"
    assert by_name["chain_step3_nonzero"].computed == "nonzero"
    assert by_name["chain_step4_final"].computed == CHAIN_FINAL == "5z^5+5z^7+z^9"


def test_k1_chain_requires_entries():
    from conwaykit.table import load_table

    table = load_table(validate=False)
    del table["8_19"]
    with pytest.raises(TableError, match="8_19"):
        k1_chain(table)


def test_closed_form_crosscheck():
    reports = closed_form_crosscheck()
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    by_name = {r.check_name: r for r in reports}
    assert by_name["closed_form_A_base"].computed == "6"
    assert by_name["closed_form_B_base"].computed == "6"
    assert by_name["closed_form_A_at_1_0_0"].computed == "4"
    assert by_name["closed_form_B_at_1_0_0"].computed == "4"


def test_random_closure_deterministic():
    a = [random_closure(random.Random(7)) for _ in range(5)]
    b = [random_closure(random.Random(7)) for _ in range(5)]
    assert a == b


SMALL = dict(
    max_n=3,
    max_l=3,
    max_r=3,
    theorem_max_n=20,
    diagram_samples=12,
    pair_samples=4,
)


def test_run_all_passes_and_is_sorted():
    reports = run_all(VerifyConfig(**SMALL))
    assert len(reports) >= 20
    assert all(r.passed for r in reports), [
        (r.check_name, r.computed) for r in reports if not r.passed
    ]
    assert [r.check_name for r in reports] == sorted(r.check_name for r in reports)
    # one report per table entry plus the load report
    assert sum(r.check_name.startswith("table_") for r in reports) == 7


def test_run_all_flags_corrupted_entry(tmp_path):
    raw = json.loads(default_table_path().read_text())
    next(e for e in raw if e["name"] == "5_2")["conway"] = "1+9z^2"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    reports = run_all(VerifyConfig(table_path=str(p), **SMALL))
    failed = [r for r in reports if not r.passed]
    assert [r.check_name for r in failed] == ["table_5_2"]
    assert "1+9z^2" in failed[0].expected
    assert "1+2z^2" in failed[0].computed


def test_run_all_survives_missing_table():
    reports = run_all(VerifyConfig(table_path="/nonexistent/t.json", **SMALL))
    failed = [r for r in reports if not r.passed]
    assert len(failed) == 1
    assert failed[0].check_name == "table_load"
    # the arithmetic checks still ran
    names = {r.check_name for r in reports}
    assert "sum_closed_form" in names
    assert "recurrence_A_n_step" in names
    assert not any(n.startswith("chain_") for n in names)


def test_run_all_fails_table_without_chain_entries(tmp_path):
    # a table that loads but lacks the chain entries must not pass quietly
    p = tmp_path / "empty.json"
    p.write_text("[]")
    reports = run_all(VerifyConfig(table_path=str(p), **SMALL))
    failed = {r.check_name: r.computed for r in reports if not r.passed}
    assert failed == {
        "chain": "TableError: table lacks entries: 8_19, 3_1, L6a1{1}, 10_148",
        "closed_form": "TableError: table lacks entry 8_19",
    }
    assert any(r.check_name == "table_load" and r.passed for r in reports)


# (family, perturbation, box) -> computed strings of the six recurrence
# reports, in the order check_recurrences returns them
RECURRENCE_FAULTS = [
    ("A", lambda n, l, r: (l == 5 and r == 0), (9, 8, 7), [
        "2 mismatches in 8 checks, first: l=5",
        "1 mismatches in 63 checks, first: l=5,r=1",
        "0 mismatches in 648 checks",
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "0 mismatches in 648 checks",
    ]),
    ("A", lambda n, l, r: (n == 7 and l == 3), (9, 8, 7), [
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "16 mismatches in 648 checks, first: n=7,l=3,r=0",
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "0 mismatches in 648 checks",
    ]),
    ("B", lambda n, l, r: 2 * (n == 3 and r == 4), (9, 8, 7), [
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "0 mismatches in 648 checks",
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "18 mismatches in 648 checks, first: n=3,l=0,r=4",
    ]),
    # column order meets (5,0,3) before (2,4,0); the report names (2,4,0)
    ("A", lambda n, l, r: (n, l, r) in ((2, 4, 0), (5, 0, 3)), (9, 8, 7), [
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "4 mismatches in 648 checks, first: n=2,l=4,r=0",
        "0 mismatches in 8 checks",
        "0 mismatches in 63 checks",
        "0 mismatches in 648 checks",
    ]),
    ("B", lambda n, l, r: (l == 0), (3, 3, 3), [
        "0 mismatches in 3 checks",
        "0 mismatches in 12 checks",
        "0 mismatches in 48 checks",
        "1 mismatches in 3 checks, first: l=1",
        "0 mismatches in 12 checks",
        "0 mismatches in 48 checks",
    ]),
]


@pytest.mark.parametrize(
    "family,fault,box,computed",
    RECURRENCE_FAULTS,
    ids=["A_l5", "A_n7_l3", "B_n3_r4", "A_n2_l4_and_n5_r3", "B_l0"],
)
def test_recurrence_mismatch_strings(monkeypatch, family, fault, box, computed):
    from conwaykit import verify

    name = "a2_" + family
    exact = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda n, l, r: exact(n, l, r) + fault(n, l, r))
    reports = check_recurrences(*box)
    assert [r.computed for r in reports] == computed
    assert [r.passed for r in reports] == [c.startswith("0 ") for c in computed]


# a2_A perturbed at points of the anti-diagonals l + r = n - 1 that a3_of
# sums -> computed strings of the four sum reports for 1 <= n <= 5, where
# a3_of(1..5) = 0, -2, -2, 4, 20
SUM_FAULTS = [
    ({(1, 0, 0): 1}, [
        "violated at n=1: 1 != 0 (+0 more)",
        "violated at n=1 (+0 more)",
        "a3_of(n) != 0 for n >= 2 for all n",
        "violated at n=1: sign 1 (+0 more)",
    ]),
    # a3_of(2) becomes 0 and a3_of(4) becomes -1
    ({(2, 1, 0): 2, (4, 0, 3): -5}, [
        "violated at n=2: 0 != -2 (+1 more)",
        "violated at n=2 (+1 more)",
        "violated at n=2 (+0 more)",
        "violated at n=2: sign 0 (+1 more)",
    ]),
]


@pytest.mark.parametrize("faults,computed", SUM_FAULTS, ids=["n1", "n2_and_n4"])
def test_sum_violation_strings(monkeypatch, faults, computed):
    from conwaykit import verify

    exact = verify.a2_A
    monkeypatch.setattr(
        verify, "a2_A", lambda n, l, r: exact(n, l, r) + faults.get((n, l, r), 0)
    )
    reports = theorem_sum_check(5)
    assert [r.computed for r in reports] == computed
    assert [r.passed for r in reports] == [not c.startswith("violated") for c in computed]


def _split(d):
    """d beside one more crossingless circle: a split link, worth 0."""
    return Diagram(d.crossings, d.free_loops + 1)


def _plus_if(term, wanted):
    """real conway -> a stand-in that adds term to its value wherever
    wanted(d, ctx) holds."""
    return lambda real: lambda d, ctx=None: real(d, ctx) + term * bool(wanted(d, ctx))


# verify attribute, real -> faulty stand-in, and the computed strings of
# the property reports that then fail, for the SMALL sample sizes
PROPERTY_FAULTS = {
    "skein_identity": (
        "check_skein_identity", lambda real: lambda d, x, ctx: x != d.crossings[-1],
        {"property_skein_identity": "12 failures in 43 checks, first: diagram 0"},
    ),
    "odd_knots": (
        "conway", _plus_if(IntPoly.z().shift(2), lambda d, ctx: len(components(d)) == 1),
        {
            "property_parity_and_linking":
                "4 failures in 6 checks, first: knot diagram 2: 1+z^3",
            "property_multiplicativity": "4 failures in 4 checks, first: pair 1",
        },
    ),
    "even_links": (
        "conway", _plus_if(IntPoly.one(), lambda d, ctx: len(components(d)) == 2),
        {"property_parity_and_linking": "2 failures in 6 checks, first: link diagram 4: 1"},
    ),
    "linking_number": (
        "linking_number", lambda real: lambda d, c1, c2: real(d, c1, c2) + 1,
        {"property_parity_and_linking":
            "2 failures in 6 checks, first: link diagram 4: a1 != lk"},
    ),
    "union": (
        "disjoint_union", lambda real: lambda d1, d2: d1,
        {"property_split_vanishing": "10 failures in 20 checks, first: pair 0"},
    ),
    "relabel": (
        "_relabel", lambda real: lambda d, mapping: _split(real(d, mapping)),
        {"property_basepoint_invariance": "5 failures in 12 checks, first: diagram 2"},
    ),
    "unreduced": (
        "conway", _plus_if(IntPoly.one(), lambda d, ctx: not ctx.reduce_diagrams),
        {"property_reduction_invariance": "12 failures in 12 checks, first: diagram 0"},
    ),
    "reduce_grows": (
        "_reduce", lambda real: lambda d: disjoint_union(d, d),
        {"property_reduce_preserves_conway":
            "12 failures in 12 checks, first: diagram 0: grew"},
    ),
    "reduce_splits": (
        "_reduce", lambda real: _split,
        {"property_reduce_preserves_conway":
            "5 failures in 12 checks, first: diagram 2: value changed"},
    ),
}


@pytest.mark.parametrize(
    "name,fault,failed", PROPERTY_FAULTS.values(), ids=list(PROPERTY_FAULTS)
)
def test_property_failure_strings(monkeypatch, name, fault, failed):
    from conwaykit import verify

    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    reports = _property_suite(VerifyConfig(**SMALL))
    assert {r.check_name: r.computed for r in reports if not r.passed} == failed


# each point of the box is evaluated once per row that sweeps it: 801 calls
# of each closed form for (9, 8, 7) = 9 + 9*8 + 10*9*8, where evaluating
# both ends of every step would take 2 * (8 + 63 + 648) = 1438
@pytest.mark.parametrize("box,calls", [((9, 8, 7), 801), ((50, 50, 50), 135_303)])
def test_recurrences_evaluate_each_point_once(monkeypatch, box, calls):
    from conwaykit import verify

    counts = {}
    for name in ("a2_A", "a2_B"):
        def counted(n, l, r, name=name, exact=getattr(verify, name)):
            counts[name] = counts.get(name, 0) + 1
            return exact(n, l, r)

        monkeypatch.setattr(verify, name, counted)
    assert all(r.passed for r in check_recurrences(*box))
    assert counts == {"a2_A": calls, "a2_B": calls}


def test_run_all_default_names_and_inputs():
    reports = run_all(VerifyConfig())
    assert all(r.passed for r in reports)
    seed = "seed 20260817"
    assert [(r.check_name, r.inputs) for r in reports] == [
        ("chain_step1_engine", "same chain, every polynomial recomputed by the skein engine"),
        ("chain_step1_table", "nabla(8_19)*nabla(3_1) - z*nabla(L6a1{1}), table polynomials"),
        ("chain_step2_engine", "engine nabla of the mirrored 10_148 diagram"),
        ("chain_step2_table",
         "stored nabla(10_148) (mirror leaves knot polynomials unchanged)"),
        ("chain_step3_difference", "step1 - step2"),
        ("chain_step3_nonzero", "step1 - step2"),
        ("chain_step4_final", "z * (step1 - step2)"),
        ("closed_form_A_at_1_0_0",
         "a2_A(1,0,0) vs z^2 coefficient of 1+4z^2+8z^4+6z^6+z^8"),
        ("closed_form_A_base", "a2_A(0,0,0) vs a2(8_19) + a2(mirror 3_1), engine values"),
        ("closed_form_B_at_1_0_0", "a2_B(1,0,0) vs z^2 coefficient of 1+4z^2+3z^4+z^6"),
        ("closed_form_B_base", "a2_B(0,0,0) vs a2(mirror 5_2) + 4, engine value"),
        ("property_basepoint_invariance",
         "50 random closures relabeled (fresh basepoints and component order), " + seed),
        ("property_multiplicativity", "50 random knot pairs <= 6 crossings, " + seed),
        ("property_parity_and_linking",
         "40 knots (even, constant 1), 34 2-component links (odd, a1 = lk), " + seed),
        ("property_reduce_preserves_conway", "100 random closures, " + seed),
        ("property_reduction_invariance",
         "30 random closures with and without R1/R2 reduction, " + seed),
        ("property_skein_identity",
         "100 random closures <= 8 crossings, every crossing, " + seed),
        ("property_split_vanishing", "20 random disjoint unions, " + seed),
        ("recurrence_A_l_step", "1 <= l <= 50"),
        ("recurrence_A_n_step", "1 <= n <= 50, 0 <= l <= 50, 0 <= r <= 50"),
        ("recurrence_A_r_step", "0 <= l <= 50, 1 <= r <= 50"),
        ("recurrence_B_l_step", "1 <= l <= 50"),
        ("recurrence_B_n_step", "1 <= n <= 50, 0 <= l <= 50, 0 <= r <= 50"),
        ("recurrence_B_r_step", "0 <= l <= 50, 1 <= r <= 50"),
        ("sum_change_of_variable", "1 <= n <= 1000"),
        ("sum_closed_form", "1 <= n <= 1000"),
        ("sum_nonvanishing", "1 <= n <= 1000"),
        ("sum_sign_pattern", "1 <= n <= 1000"),
        ("table_0_1", "engine recomputation of PD for 0_1"),
        ("table_10_148", "engine recomputation of PD for 10_148"),
        ("table_3_1", "engine recomputation of PD for 3_1"),
        ("table_5_2", "engine recomputation of PD for 5_2"),
        ("table_8_19", "engine recomputation of PD for 8_19"),
        ("table_L6a1{1}", "engine recomputation of PD for L6a1{1}"),
        ("table_load", "reference table"),
    ]


def test_property_inputs_count_the_closures_they_sweep():
    # the relabeling and reduction sweeps cover samples[:50] and [:30];
    # with 12 samples the inputs must say 12, not 50 and 30
    inputs = {r.check_name: r.inputs for r in run_all(VerifyConfig(**SMALL))}
    seed = "seed 20260817"
    assert inputs["property_basepoint_invariance"] == (
        "12 random closures relabeled (fresh basepoints and component order), " + seed
    )
    assert inputs["property_reduction_invariance"] == (
        "12 random closures with and without R1/R2 reduction, " + seed
    )
