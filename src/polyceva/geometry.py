"""Exact planar geometry over the rationals.

Every scalar is a ``fractions.Fraction`` (arbitrary precision, canonical
form: positive denominator, gcd 1), so nothing is ever rounded.  The
engine modules read points as integer homogeneous triples
(`homogeneous`) and decide their identities by exact comparison of
integers or Fractions.

Lines are stored as homogeneous triples (a, b, c) for the locus
a*x + b*y + c = 0, normalized so the first nonzero coefficient of (a, b)
is +1.  That makes line equality, parallelism and duplicate detection
plain field comparisons.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidRational
from .frozen import Frozen, from_decimal, rational_text

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")

# Longest numerator or denominator parse_rational accepts, in digits.
MAX_DIGITS = 1000


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p/q" (or "p"), denominator positive.

    Digits are ASCII only, at most MAX_DIGITS per part.  Raises
    InvalidRational for anything else, including "1/0".
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InvalidRational(f"not a rational string: {text!r}")
    digits, den_digits = match.groups()
    # Only a text longer than MAX_DIGITS can hold a part that is.
    if (len(text) > MAX_DIGITS
            and max(len(digits), len(den_digits or "")) > MAX_DIGITS):
        raise InvalidRational(
            f"rational has more than {MAX_DIGITS} digits in a part")
    num = from_decimal(digits)
    if text[0] == "-":
        num = -num
    if den_digits is None:
        return Fraction(num)
    den = from_decimal(den_digits)
    if den == 0:
        raise InvalidRational(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Serialize to "p/q", or "p" when the denominator is 1."""
    return rational_text(value.numerator, value.denominator)


class Point(Frozen):
    """Exact point in the plane."""

    _fields = ("x", "y")
    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike):
        d = self.__dict__
        d["x"] = as_rational(x)
        d["y"] = as_rational(y)


class Line(Frozen):
    """Line a*x + b*y + c = 0, canonicalized on construction.

    The first nonzero coefficient among (a, b) is forced to +1, so two
    Line values describe the same locus iff they are equal as tuples.
    """

    _fields = ("a", "b", "c")
    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike):
        a = as_rational(a)
        b = as_rational(b)
        c = as_rational(c)
        if a != 0:
            b, c, a = b / a, c / a, Fraction(1)
        elif b != 0:
            c, b = c / b, Fraction(1)
        else:
            raise ValueError("degenerate line: a = b = 0")
        Frozen.__init__(self, a, b, c)

    def value_at(self, p: Point) -> Fraction:
        """Exact value of a*x + b*y + c at p; zero iff p lies on the line."""
        return self.a * p.x + self.b * p.y + self.c

    def contains(self, p: Point) -> bool:
        return self.value_at(p) == 0

    def is_parallel_to(self, other: "Line") -> bool:
        """True for parallel or coincident lines (equal direction)."""
        return self.a * other.b - other.a * self.b == 0


def line_through(p: Point, q: Point) -> Line:
    """The unique line containing two distinct points."""
    if p == q:
        raise ValueError(f"no unique line through coincident points {p}")
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Exact intersection point of two non-parallel lines."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        if l1 == l2:
            raise ValueError(f"lines coincide: {l1}")
        raise ValueError(f"parallel lines {l1} and {l2}")
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


# Integer homogeneous coordinates (X, Y, W) of the point (X/W, Y/W), W > 0.
Homogeneous = tuple[int, int, int]


def homogeneous(p: Point) -> Homogeneous:
    """Integer homogeneous coordinates (X, Y, W) of p, with x = X/W,
    y = Y/W and W > 0 the least common denominator of x and y."""
    dx = p.x.denominator
    dy = p.y.denominator
    w = math.lcm(dx, dy)
    return p.x.numerator * (w // dx), p.y.numerator * (w // dy), w


def point_from_ratio(a: Point, b: Point, ratio: RationalLike) -> Point:
    """The unique X on line AB with (A - X) = ratio * (B - X), the point
    whose directed ratio XA / XB is ratio.

    Solving (A - X) = r (B - X) gives X = (A - r B) / (1 - r); r = 1 has
    no solution (X escapes to infinity), and A = B leaves only X = B,
    the denominator end.  With r = p/q and a coordinate u = u_n/u_d of
    A, v = v_n/v_d of B, each coordinate of X is the one integer
    quotient (q u_n v_d - p v_n u_d) / ((q - p) u_d v_d), reduced once.
    """
    r = as_rational(ratio)
    if r == 1:
        raise ValueError("no finite point realizes directed ratio 1")
    if a == b:
        raise ValueError(
            f"ratio point {a} coincides with the denominator end")
    p, q = r.numerator, r.denominator
    coords = []
    for u, v in ((a.x, b.x), (a.y, b.y)):
        u_n, u_d = u.numerator, u.denominator
        v_n, v_d = v.numerator, v.denominator
        x = Fraction(q * u_n * v_d - p * v_n * u_d, (q - p) * u_d * v_d)
        # The defining relation q (u - x) = p (v - x), cross-multiplied.
        x_n, x_d = x.numerator, x.denominator
        assert (q * (u_n * x_d - x_n * u_d) * v_d
                == p * (v_n * x_d - x_n * v_d) * u_d)
        coords.append(x)
    return Point(*coords)


def are_concurrent(lines: Sequence[Line]) -> bool:
    """True iff all lines pass through one common point.

    Requires at least two pairwise-distinct lines; families containing a
    parallel pair return False (parallelism is not a point here).
    """
    if len(lines) < 2:
        raise ValueError("concurrency needs at least two lines")
    if len(set(lines)) != len(lines):
        raise ValueError("duplicate line in concurrency test")
    first = lines[0]
    partner = next((l for l in lines[1:] if not first.is_parallel_to(l)), None)
    if partner is None:
        return False
    common = intersect_lines(first, partner)
    return all(l.contains(common) for l in lines)
