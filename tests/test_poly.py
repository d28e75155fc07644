"""Exact-polynomial arithmetic: pinned values, ring laws, text round-trips."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from conwaykit.poly import MAX_EXPONENT, IntPoly, PolySyntaxError, format_poly, parse_poly


def P(text: str) -> IntPoly:
    return parse_poly(text)


def degree(p: IntPoly) -> int:
    """Degree of p; the zero polynomial has degree -1."""
    return len(p.coeffs) - 1


# -- pinned arithmetic -------------------------------------------------------


def test_product_of_torus_factors():
    # (1+5z^2+5z^4+z^6)(1+z^2), checked by hand term by term
    assert P("1+5z^2+5z^4+z^6") * P("1+z^2") == P("1+6z^2+10z^4+6z^6+z^8")


def test_difference_of_composite_polynomials():
    assert P("1+4z^2+8z^4+6z^6+z^8") - P("1+4z^2+3z^4+z^6") == P("5z^4+5z^6+z^8")


def test_shift_multiplies_by_z():
    assert P("2z+2z^3").shift(1) == P("2z^2+2z^4")
    assert P("5z^4+5z^6+z^8").shift(1) == P("5z^5+5z^7+z^9")
    assert IntPoly().shift(3) == IntPoly()
    with pytest.raises(ValueError):
        P("1").shift(-1)


def test_coeff_lookup():
    p = P("1+4z^2+3z^4+z^6")
    assert [p.coeff(k) for k in range(8)] == [1, 0, 4, 0, 3, 0, 1, 0]
    assert p.coeff(100) == 0
    with pytest.raises(ValueError):
        p.coeff(-1)


def test_parity_classification():
    assert P("1+4z^2+3z^4+z^6").parity() == "even"
    assert P("2z+2z^3").parity() == "odd"
    assert P("1+z").parity() == "mixed"
    assert IntPoly().parity() == "zero"
    assert P("7").parity() == "even"


def test_degree():
    assert degree(IntPoly()) == -1
    assert degree(P("5")) == 0
    assert degree(P("1+6z^2+10z^4+6z^6+z^8")) == 8


# -- normalization -----------------------------------------------------------


def test_trailing_zeros_are_trimmed():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly((0, 0, 0)) == IntPoly()
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)


def test_normalization_is_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        cs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        p = IntPoly(cs)
        assert IntPoly(p.coeffs) == p
        assert not p.coeffs or p.coeffs[-1] != 0


def test_construction_rejects_non_integer_coefficients():
    # a bool is an int to isinstance, and a trailing zero is still checked
    for bad in ([1.5], [1, "2"], [0, 1, 2.0], [True], [1, False], [2, 0.0]):
        with pytest.raises(TypeError):
            IntPoly(bad)


def test_arithmetic_results_are_not_type_checked_again(monkeypatch):
    p, q = P("1+2z^2+z^4"), P("z-z^3")

    def checked_init(self, coeffs=()):
        raise AssertionError("an arithmetic result went through IntPoly.__init__")

    monkeypatch.setattr(IntPoly, "__init__", checked_init)
    results = [p + q, p - q, p - p, p * q, q.shift(2), -q, 3 * q, 0 * q]
    monkeypatch.undo()
    assert [format_poly(r) for r in results] == [
        "1+z+2z^2-z^3+z^4",
        "1-z+2z^2+z^3+z^4",
        "0",
        "z+z^3-z^5-z^7",
        "z^3-z^5",
        "-z+z^3",
        "3z-3z^3",
        "0",
    ]
    # trimmed like any other IntPoly
    assert all(not r.coeffs or r.coeffs[-1] for r in results)


def test_subtraction_cancels_to_zero():
    p = P("1+6z^2+10z^4+6z^6+z^8")
    assert p - p == IntPoly()
    assert format_poly(p - p) == "0"


# -- ring laws on random triples ---------------------------------------------


def _random_poly(rng: random.Random) -> IntPoly:
    return IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + IntPoly() == p
        assert p * IntPoly((1,)) == p
        assert (p - q) + q == p
        assert p - q == -(q - p)


def test_degree_additivity_for_nonzero_products():
    rng = random.Random(20241)
    seen = 0
    while seen < 100:
        p, q = _random_poly(rng), _random_poly(rng)
        if not p or not q:
            continue
        assert degree(p * q) == degree(p) + degree(q)  # Z has no zero divisors
        seen += 1


def test_scalar_multiplication():
    assert 3 * P("1+z^2") == P("3+3z^2")
    assert -1 * P("2z") == P("-2z")
    assert 0 * P("1+z^2") == IntPoly()


def test_arithmetic_with_non_polynomials():
    # an int scales from either side; anything else is a TypeError
    p = P("1+z^2")
    assert p * 3 == 3 * p == P("3+3z^2")
    for apply in (
        lambda: p + 1,
        lambda: 1 + p,
        lambda: p - 1,
        lambda: 1 - p,
        lambda: p * 2.5,
        lambda: 2.5 * p,
        lambda: p * "z",
        lambda: p * True,
        lambda: True * p,
        lambda: IntPoly((1, 2)) * True,
    ):
        with pytest.raises(TypeError):
            apply()


# -- text form ---------------------------------------------------------------


def test_format_canonical_examples():
    assert format_poly(P("1+z^2")) == "1+z^2" == str(P("1+z^2"))
    assert format_poly(P("2z+2z^3")) == "2z+2z^3"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(IntPoly((0, -2, 0, 1))) == "-2z+z^3"
    assert format_poly(IntPoly((-1,))) == "-1"
    assert format_poly(IntPoly((0, 1))) == "z"


def test_parse_accepts_grammar_forms():
    assert P("17") == IntPoly((17,))
    assert P("z") == IntPoly((0, 1))
    assert P("3z") == IntPoly((0, 3))
    assert P("z^5") == IntPoly((0, 0, 0, 0, 0, 1))
    assert P("4z^3") == IntPoly((0, 0, 0, 4))
    assert P("1-z^2-z^4") == IntPoly((1, 0, -1, 0, -1))
    assert P("-2+z") == IntPoly((-2, 1))
    assert P("1+1") == IntPoly((2,))  # repeated powers accumulate


def test_format_refuses_a_coefficient_too_long_to_print():
    # Python converts at most `limit` digits of an int to text; the longest
    # coefficient that prints also parses back, and one digit more is the
    # package's own refusal, which names the power of z and the limit
    limit = sys.get_int_max_str_digits()
    widest = IntPoly((10**limit - 1,))
    assert parse_poly(format_poly(widest)) == widest
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"z\\^{k}: it has over {limit} digits") as exc:
            format_poly(IntPoly((10**limit,)).shift(k))
        assert "set_int_max_str_digits" not in str(exc.value)


def test_round_trip_on_random_polynomials():
    rng = random.Random(20242)
    for _ in range(100):
        p = _random_poly(rng)
        assert parse_poly(format_poly(p)) == p


def test_syntax_errors_carry_position():
    # offsets index the text as given, leading whitespace included; a number
    # too long for int() is refused at its first digit
    for text, pos in [
        ("", 0), ("1+", 2), ("x", 0), ("1++2", 2), ("2z^", 2), ("1 + z", 1),
        ("  x", 2), (" 1+", 3), ("\t1 + z", 2),
        ("9" * 5000, 0), ("z^" + "9" * 5000, 2), ("1-" + "9" * 5000 + "z", 2),
    ]:
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(text)
        assert exc.value.position == pos


def test_exponent_bound_refuses_before_allocating():
    assert degree(parse_poly(f"z^{MAX_EXPONENT}")) == MAX_EXPONENT
    with pytest.raises(PolySyntaxError, match="exponent too large") as exc:
        parse_poly(f"1+z^{MAX_EXPONENT + 1}")
    assert exc.value.position == 4
    # a dense list of 10^9 + 1 coefficients would take about 8 GB
    tracemalloc.start()
    try:
        with pytest.raises(PolySyntaxError, match="exponent too large") as exc:
            parse_poly("z^1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.position == 2
    assert peak < 1 << 20


def test_parse_rejects_stray_suffix():
    with pytest.raises(PolySyntaxError):
        parse_poly("1+z^2)")


def test_docstring_examples():
    # every module of the package, so that examples added anywhere stay true
    import doctest
    import importlib
    import pkgutil

    import conwaykit

    attempted = {}
    for name in ["conwaykit"] + [
        "conwaykit." + info.name for info in pkgutil.iter_modules(conwaykit.__path__)
    ]:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    assert attempted["conwaykit.poly"] >= 10
