"""Exact integer polynomials in one variable z.

Conway polynomials of links live in Z[z], so everything here is integer
arithmetic; no floating point is involved anywhere.  Polynomials are kept
normalized (no trailing zero coefficients), which makes equality and hashing
structural.

The text form accepted by :func:`parse_poly` is a sum of terms::

    poly := ['-'] term (('+'|'-') term)*
    term := int | int? 'z' | int? 'z^' int

and :func:`format_poly` emits the canonical form: ascending powers, ``z^2``
style exponents, ``0`` for the zero polynomial.

>>> p = parse_poly("1+5z^2+5z^4+z^6")
>>> q = parse_poly("1+z^2")
>>> format_poly(p * q)
'1+6z^2+10z^4+6z^6+z^8'
>>> (p * q - parse_poly("z") * parse_poly("2z+2z^3")).coeff(2)
4
"""

from __future__ import annotations

__all__ = ["IntPoly", "PolySyntaxError", "format_poly", "parse_poly"]

import re
import sys
from typing import Iterable


# the largest exponent parse_poly accepts: the dense coefficient list it
# builds is one entry longer, and every table degree is far below it
MAX_EXPONENT = 100_000


class _PositionedError(ValueError):
    """A syntax error that carries the 0-based offset of the bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolySyntaxError(_PositionedError):
    """Raised by parse_poly; carries the 0-based offset of the bad character."""


class IntPoly:
    """An element of Z[z], stored as a tuple of coefficients, constant first.

    Immutable and hashable; equal only to another IntPoly.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            # a bool is an int to isinstance, but True is not a coefficient
            if c.__class__ is not int:
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        _store(self, cs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the slot cannot be restored by assignment
        return self.__class__, (self.coeffs,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        if other.__class__ is not IntPoly:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _exact(out)

    def __neg__(self) -> IntPoly:
        return _exact([-c for c in self.coeffs])

    def __sub__(self, other: IntPoly) -> IntPoly:
        if other.__class__ is not IntPoly:
            return NotImplemented
        return self + -other

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if other.__class__ is not IntPoly:
            return self.__rmul__(other)  # p * 3 == 3 * p
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _exact(out)

    def __rmul__(self, scalar: int) -> IntPoly:
        if scalar.__class__ is not int:
            return NotImplemented
        return _exact([scalar * c for c in self.coeffs])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def shift(self, k: int) -> IntPoly:
        """Multiply by z**k.  k must be >= 0."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if not self.coeffs:
            return self
        return _exact([0] * k + list(self.coeffs))

    def coeff(self, k: int) -> int:
        """Coefficient of z**k; 0 beyond the degree, k < 0 rejected."""
        if k < 0:
            raise ValueError("coefficient index must be >= 0")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def parity(self) -> str:
        """Which powers carry nonzero coefficients: even, odd, mixed or zero."""
        even, odd = any(self.coeffs[0::2]), any(self.coeffs[1::2])
        return "mixed" if even and odd else "even" if even else "odd" if odd else "zero"

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)!r})"


def _store(p: IntPoly, cs: list[int]) -> IntPoly:
    """Give p the coefficients cs, trailing zeros dropped; returns p."""
    while cs and cs[-1] == 0:
        cs.pop()
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


def _exact(cs: list[int]) -> IntPoly:
    """IntPoly(cs) for ints that IntPoly arithmetic made: no type check."""
    return _store(object.__new__(IntPoly), cs)


def format_poly(p: IntPoly) -> str:
    """Canonical text: ascending powers, 'z^2' style, '0' for zero.

    A coefficient longer than sys.get_int_max_str_digits() raises ValueError.

    >>> format_poly(IntPoly((1, 0, 4, 0, 3, 0, 1)))
    '1+4z^2+3z^4+z^6'
    >>> format_poly(IntPoly((0, -2, 0, 1)))
    '-2z+z^3'
    >>> format_poly(IntPoly())
    '0'
    """
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        try:
            digits = str(abs(c))
        except ValueError:  # Python's text asks for sys.set_int_max_str_digits()
            limit = sys.get_int_max_str_digits()  # only Pythons with a limit get here
            msg = f"cannot print the coefficient of z^{k}: it has over {limit} digits"
            raise ValueError(msg) from None
        var = "" if k == 0 else "z" if k == 1 else f"z^{k}"
        body = var if var and digits == "1" else digits + var
        parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts).removeprefix("+") or "0"


# a term with the sign before it: the first term may open with '-', and each
# later one, which follows the digit or 'z' that ends the one before, needs
# its '+' or '-'
_TERM = re.compile(r"((?<![\dz])-?|(?<=[\dz])[+-])(\d+)?(z(?:\^(\d+))?)?")


def parse_poly(text: str) -> IntPoly:
    """Parse polynomial text; raises PolySyntaxError with the bad offset.

    Whitespace may surround the text but not sit inside it; offsets index
    the text as given.  An exponent above MAX_EXPONENT is refused at its
    first digit, before any coefficient list is built.

    >>> parse_poly("2z+2z^3").coeffs
    (0, 2, 0, 2)
    >>> parse_poly("0")
    IntPoly('0')
    >>> parse_poly("1+") # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    PolySyntaxError: ...
    """
    pos = len(text) - len(text.lstrip())
    end = pos + len(text.strip())
    if pos == end:
        raise PolySyntaxError("empty polynomial", pos)
    coeffs: dict[int, int] = {}
    while pos < end:
        m = _TERM.match(text, pos, end)
        if m is None:
            raise PolySyntaxError(f"expected '+' or '-', found {text[pos]!r}", pos)
        pos = m.end()
        if pos == m.end(1):
            found = text[pos] if pos < end else "end of input"
            raise PolySyntaxError(f"expected a term, found {found!r}", pos)
        coeff = _read_int(m, 2, PolySyntaxError) if m[2] else 1
        power = _read_int(m, 4, PolySyntaxError) if m[4] else 1 if m[3] else 0
        if power > MAX_EXPONENT:
            raise PolySyntaxError("exponent too large", m.start(4))
        coeffs[power] = coeffs.get(power, 0) + (-coeff if m[1] == "-" else coeff)
    top = max(coeffs)
    return IntPoly([coeffs.get(k, 0) for k in range(top + 1)])


def _read_int(m: re.Match, group: int, error: type) -> int:
    """int() of a digit group; one too long for int() raises error at its first digit."""
    try:
        return int(m[group])
    except ValueError:
        raise error("number too long", m.start(group)) from None
