"""Exact planar geometry over the rationals.

Every value is exact (arbitrary-precision integers and
``fractions.Fraction``, canonical form: positive denominator, gcd 1), so
nothing is ever rounded.  A `Point` stores its coordinates as reduced
integer parts and its canonical integer homogeneous triple, both
computed once when it is built; its ``x`` and ``y`` are Fraction views
built on each read.  The engine modules read points as those triples
(`homogeneous`) and decide their identities by exact comparison of
integers.  `parse_parts` is the one reader of the wire format "p/q".

A `Line` a*x + b*y + c = 0 stores its canonical integer triple (gcd 1,
the first nonzero of (a, b) positive), and its ``a``, ``b`` and ``c``
are Fraction views normalized to lead with 1.  Joins and meets are
cross products of triples, and incidence, parallelism and the checks
for coincident and duplicate lines are integer comparisons: only
``Line.value_at``, whose value is one, builds a Fraction.
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

# Longest numerator or denominator parse_parts accepts, in digits.
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


def parse_parts(text: str) -> tuple[int, int]:
    """The integer parts (num, den) of the wire format "p/q" (or "p",
    den 1), den positive and the pair not reduced.

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
        return num, 1
    den = from_decimal(den_digits)
    if den == 0:
        raise InvalidRational(f"zero denominator: {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """The Fraction of the wire format "p/q" (or "p"); see `parse_parts`."""
    return Fraction(*parse_parts(text))


def format_rational(value: Fraction) -> str:
    """Serialize to "p/q", or "p" when the denominator is 1."""
    return rational_text(value.numerator, value.denominator)


# Integer homogeneous coordinates (X, Y, W) of the point (X/W, Y/W), W > 0.
Homogeneous = tuple[int, int, int]


class Point(Frozen):
    """Exact point in the plane.

    A Point stores, computed once when it is built, ``parts``, the
    reduced integer parts (xn, xd, yn, yd) of x = xn/xd and y = yn/yd
    (gcd 1, denominators positive), and ``triple``, its canonical
    homogeneous triple (`homogeneous`).  ``x`` and ``y`` build their
    Fraction on each read, so repr, == and hash, which read them, are
    those of the pair of Fractions.  Code that needs neither Fraction
    reads the integers.
    """

    _fields = ("x", "y")
    parts: tuple[int, int, int, int]
    triple: Homogeneous

    def __init__(self, x: RationalLike, y: RationalLike):
        x = as_rational(x)
        y = as_rational(y)
        _store(self, x.numerator, x.denominator, y.numerator, y.denominator)

    @classmethod
    def from_parts(cls, xn: int, xd: int, yn: int, yd: int) -> "Point":
        """The point (xn/xd, yn/yd) of integer parts, reduced with one gcd
        per coordinate and built with no Fraction.  Raises ValueError
        unless both denominators are positive."""
        if xd <= 0 or yd <= 0:
            raise ValueError(
                f"point denominators must be positive, got {xd} and {yd}")
        g = math.gcd(xn, xd)
        h = math.gcd(yn, yd)
        p = object.__new__(cls)
        _store(p, xn // g, xd // g, yn // h, yd // h)
        return p

    @property
    def x(self) -> Fraction:
        return Fraction(self.parts[0], self.parts[1])

    @property
    def y(self) -> Fraction:
        return Fraction(self.parts[2], self.parts[3])


def _store(p: Point, xn: int, xd: int, yn: int, yd: int) -> None:
    """Set the parts of a Point from reduced parts, and its triple: W is
    lcm(xd, yd), so gcd(X, Y, W) = 1."""
    if xd == yd:
        triple = (xn, yn, xd)
    else:
        g = math.gcd(xd, yd)
        triple = (xn * (yd // g), yn * (xd // g), xd // g * yd)
    d = p.__dict__
    d["parts"] = (xn, xd, yn, yd)
    d["triple"] = triple


class Line(Frozen):
    """Line a*x + b*y + c = 0, held as its canonical integer triple.

    A Line stores, computed once when it is built, ``triple``, the
    integer multiple (A, B, C) of (a, b, c) with gcd 1 whose first
    nonzero of (A, B) is positive, so two Lines describe the same locus
    iff their triples are equal.  ``a``, ``b`` and ``c`` are Fraction
    views, (1, B/A, C/A), or (0, 1, C/B) when A = 0, built on each read,
    so repr, == and hash, which read them, are those of the normalized
    Fractions.  The line functions read the integers.
    """

    _fields = ("a", "b", "c")
    triple: tuple[int, int, int]

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike):
        a = as_rational(a)
        b = as_rational(b)
        c = as_rational(c)
        _canonical(self, a.numerator * b.denominator * c.denominator,
                   b.numerator * a.denominator * c.denominator,
                   c.numerator * a.denominator * b.denominator)

    a = property(lambda self: _view(self.triple, 0))
    b = property(lambda self: _view(self.triple, 1))
    c = property(lambda self: _view(self.triple, 2))

    def value_at(self, p: Point) -> Fraction:
        """Exact value of a*x + b*y + c at p; zero iff p lies on the line."""
        a, b, c = self.triple
        x, y, w = p.triple
        return Fraction(a * x + b * y + c * w, (a or b) * w)

    def contains(self, p: Point) -> bool:
        a, b, c = self.triple
        x, y, w = p.triple
        return a * x + b * y + c * w == 0

    def is_parallel_to(self, other: "Line") -> bool:
        """True for parallel or coincident lines (equal direction)."""
        a, b, _ = self.triple
        a2, b2, _ = other.triple
        return a * b2 == a2 * b


def _view(triple: tuple[int, int, int], k: int) -> Fraction:
    """Coefficient k of a canonical line triple over its first nonzero
    of (A, B)."""
    return Fraction(triple[k], triple[0] or triple[1])


def _canonical(line: Line, a: int, b: int, c: int) -> Line:
    """Store in ``line`` the canonical form of the integer triple
    (a, b, c): divided by gcd(a, b, c), with the sign that makes the
    first nonzero of (a, b) positive.  Raises ValueError when a = b = 0."""
    if not (a or b):
        raise ValueError("degenerate line: a = b = 0")
    g = math.gcd(a, b, c)
    if (a or b) < 0:
        g = -g
    line.__dict__["triple"] = (a // g, b // g, c // g)
    return line


def line_through(p: Point, q: Point) -> Line:
    """The unique line containing two distinct points: the cross product
    of their homogeneous triples, made canonical."""
    if p.triple == q.triple:
        raise ValueError(f"no unique line through coincident points {p}")
    x_p, y_p, w_p = p.triple
    x_q, y_q, w_q = q.triple
    return _canonical(object.__new__(Line), y_p * w_q - w_p * y_q,
                      w_p * x_q - x_p * w_q, x_p * y_q - y_p * x_q)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Exact intersection point of two non-parallel lines: the cross
    product of their triples, as a point."""
    a1, b1, c1 = l1.triple
    a2, b2, c2 = l2.triple
    w = a1 * b2 - a2 * b1
    if w == 0:
        if l1.triple == l2.triple:
            raise ValueError(f"lines coincide: {l1}")
        raise ValueError(f"parallel lines {l1} and {l2}")
    x = b1 * c2 - b2 * c1
    y = a2 * c1 - a1 * c2
    if w < 0:
        x, y, w = -x, -y, -w
    return Point.from_parts(x, w, y, w)


def homogeneous(p: Point) -> Homogeneous:
    """Integer homogeneous coordinates (X, Y, W) of p, with x = X/W,
    y = Y/W and W > 0 the least common denominator of x and y: the
    triple p stored when it was built."""
    return p.triple


def point_from_ratio(a: Point, b: Point, ratio: RationalLike) -> Point:
    """The unique X on line AB with (A - X) = ratio * (B - X), the point
    whose directed ratio XA / XB is ratio.

    Solving (A - X) = r (B - X) gives X = (A - r B) / (1 - r); r = 1 has
    no solution (X escapes to infinity), and A = B leaves only X = B,
    the denominator end.  With r = p/q, signs chosen so that q - p > 0,
    and a coordinate u = u_n/u_d of A, v = v_n/v_d of B, each coordinate
    of X is the one integer quotient
    (q u_n v_d - p v_n u_d) / ((q - p) u_d v_d), reduced once.
    """
    r = as_rational(ratio)
    if r == 1:
        raise ValueError("no finite point realizes directed ratio 1")
    if a.triple == b.triple:
        raise ValueError(
            f"ratio point {a} coincides with the denominator end")
    p, q = r.numerator, r.denominator
    if q < p:
        p, q = -p, -q
    ax_n, ax_d, ay_n, ay_d = a.parts
    bx_n, bx_d, by_n, by_d = b.parts
    point = Point.from_parts(
        q * ax_n * bx_d - p * bx_n * ax_d, (q - p) * ax_d * bx_d,
        q * ay_n * by_d - p * by_n * ay_d, (q - p) * ay_d * by_d)
    # The defining relation q (u - x) = p (v - x) for each coordinate,
    # cross-multiplied.
    x_n, x_d, y_n, y_d = point.parts
    assert (q * (ax_n * x_d - x_n * ax_d) * bx_d
            == p * (bx_n * x_d - x_n * bx_d) * ax_d)
    assert (q * (ay_n * y_d - y_n * ay_d) * by_d
            == p * (by_n * y_d - y_n * by_d) * ay_d)
    return point


def are_concurrent(lines: Sequence[Line]) -> bool:
    """True iff all lines pass through one common point.

    Requires at least two pairwise-distinct lines; families containing a
    parallel pair return False (parallelism is not a point here).
    """
    if len(lines) < 2:
        raise ValueError("concurrency needs at least two lines")
    if len({line.triple for line in lines}) != len(lines):
        raise ValueError("duplicate line in concurrency test")
    first = lines[0]
    partner = next((l for l in lines[1:] if not first.is_parallel_to(l)), None)
    if partner is None:
        return False
    common = intersect_lines(first, partner)
    return all(l.contains(common) for l in lines)
