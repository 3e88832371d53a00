"""Cevian products for polygons inscribed in a circle.

Vertices live on the circle x^2 + y^2 = r^2 and are kept rational via
the tangent half-angle parametrization

    u  ->  ( r(1 - u^2)/(1 + u^2),  2ru/(1 + u^2) ),

a bijection from the rationals onto the rational circle points minus
(-r, 0).  Through each vertex A_i runs a line d_i; it crosses the t
side-lines A_j A_{j+1}, j = i+s .. i+s+t-1 (with 2s + t = n), and meets
the circle again at a second point M'_i.  The identity verified here:
the squared product of the signed side ratios at the crossings equals
the product over i of the squared chord ratios |M'_i A_{i+s}|^2 /
|M'_i A_{i+s+t}|^2.  Squares are used because the chord "ratio" relates
non-collinear segments, where only the magnitude is well-defined; when
all d_i pass through one common point the sign is pinned down by the
plain cevian product and equals (-1)^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import (
    DegenerateConfig,
    InvariantViolation,
    NotConcurrent,
    Tangent,
)
from .frozen import Frozen
from .geometry import (
    Line,
    Point,
    RationalLike,
    as_rational,
    distance_squared,
    line_through,
)
from .ceva import Factor, idx_shift, side_factors, validate_split


def circle_point(u: RationalLike, r: RationalLike) -> Point:
    """Rational point of parameter u on the circle x^2 + y^2 = r^2."""
    u = as_rational(u)
    r = as_rational(r)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    den = 1 + u * u
    return Point(r * (1 - u * u) / den, 2 * r * u / den)


def second_intersection(line: Line, known: Point, r: RationalLike) -> Point:
    """The other point where a secant meets the circle x^2 + y^2 = r^2.

    ``known`` must lie on both the line and the circle.  With one
    rational root of the substituted quadratic in hand, the second root
    is rational by the sum-of-roots relation, so no square root is ever
    taken.  Raises Tangent when the line only touches at ``known``.
    """
    r = as_rational(r)
    if not line.contains(known):
        raise ValueError("known point is not on the line")
    if known.x * known.x + known.y * known.y != r * r:
        raise ValueError("known point is not on the circle")
    return _chord_end(known, Point(known.x - line.b, known.y + line.a))


def _chord_end(known: Point, through: Point) -> Point:
    """Second circle point of the secant from the circle point ``known``
    through ``through``; the circle is centred at the origin."""
    # Parametrize as known + t * dir; the quadratic in t has roots 0 and
    # -2(known . dir)/|dir|^2.
    dir_x = through.x - known.x
    dir_y = through.y - known.y
    dot = known.x * dir_x + known.y * dir_y
    if dot == 0:
        raise Tangent(f"line {line_through(known, through)} is tangent at {known}")
    t = -2 * dot / (dir_x * dir_x + dir_y * dir_y)
    return Point(known.x + t * dir_x, known.y + t * dir_y)


class SecondParam(Frozen):
    """Vertex line given by a second circle parameter: d_i joins A_i to
    the circle point of parameter v."""

    _fields = ("v",)
    v: Fraction

    def __init__(self, v: RationalLike):
        self.__dict__["v"] = as_rational(v)


class ThroughPoint(Frozen):
    """Vertex line given by an arbitrary second point off the vertex."""

    _fields = ("point",)
    point: Point

    def __init__(self, point: Point):
        self.__dict__["point"] = point


LineSpec = Union[SecondParam, ThroughPoint]


class InscribedConfig(Frozen):
    """Inscribed n-gon with one line per vertex and an (s, t) split.

    params must be strictly increasing, which orders the vertices by
    angle along the circle (the parameter is monotone in the half-angle
    tangent).  Construction validates structure and general position:
    every required side crossing exists away from the side's endpoints,
    no d_i is tangent, and no second circle point M'_i lands on a vertex
    used by the chord ratios.  It keeps what that check computes: the
    vertices, a second point P_i of each d_i, the M'_i and the n*t side
    ratios, which repr, == and hash leave out.
    """

    _fields = ("radius", "params", "line_specs", "s", "t")
    radius: Fraction
    params: tuple[Fraction, ...]
    line_specs: tuple[LineSpec, ...]
    s: int
    t: int
    vertices: tuple[Point, ...]
    line_points: tuple[Point, ...]
    m_primes: tuple[Point, ...]
    factors: tuple[Factor, ...]

    def __init__(self, radius: RationalLike, params: Sequence[RationalLike],
                 line_specs: Sequence[LineSpec], s: int, t: int):
        radius = as_rational(radius)
        params = tuple(as_rational(u) for u in params)
        line_specs = tuple(line_specs)
        d = self.__dict__
        d["radius"] = radius
        d["params"] = params
        d["line_specs"] = line_specs
        d["s"] = s
        d["t"] = t
        if radius <= 0:
            raise InvariantViolation(f"radius must be positive, got {radius}")
        n = len(params)
        validate_split(n, s, t)
        if any(a >= b for a, b in zip(params, params[1:])):
            raise InvariantViolation("circle parameters must be strictly increasing")
        if len(line_specs) != n:
            raise InvariantViolation(
                f"need one line spec per vertex, got {len(line_specs)}")
        vertices = tuple(circle_point(u, radius) for u in params)
        line_points = []
        for i, spec in enumerate(line_specs, start=1):
            if isinstance(spec, SecondParam):
                if spec.v in params:
                    raise InvariantViolation(
                        f"line {i}: second parameter {spec.v} is a vertex parameter")
                line_points.append(circle_point(spec.v, radius))
            elif isinstance(spec, ThroughPoint):
                if spec.point == vertices[i - 1]:
                    raise InvariantViolation(
                        f"line {i}: through-point coincides with vertex {i}")
                line_points.append(spec.point)
            else:
                raise InvariantViolation(f"line {i}: unknown spec {spec!r}")
        m_primes: list[Point] = []
        d["vertices"] = vertices
        d["line_points"] = tuple(line_points)
        d["factors"] = side_factors(
            vertices, self._checked_line_points(m_primes), s, t)
        d["m_primes"] = tuple(m_primes)

    def _checked_line_points(self, m_primes: list[Point]) -> Iterator[Point]:
        """Yield each P_i once M'_i is found and checked, appending it to
        m_primes; side_factors checks vertex i's sides before asking for
        P_{i+1}, so every vertex is checked in full before the next."""
        n = self.n
        for i, (a_i, p) in enumerate(zip(self.vertices, self.line_points), start=1):
            if isinstance(self.line_specs[i - 1], SecondParam):
                m_prime = p
            else:
                m_prime = _chord_end(a_i, p)
            # Chord ratios divide by |M' A_{i+s+1}| and |M' A_{i+s+t}|, and
            # the numerator vertex A_{i+s} must be avoided as well.
            for k in {idx_shift(i, self.s, n), idx_shift(i, self.s + 1, n),
                      idx_shift(i, self.s + self.t, n)}:
                if m_prime == self.vertices[k - 1]:
                    raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, k,
                                           "second circle point is a vertex")
            m_primes.append(m_prime)
            yield p

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def common_point(self) -> Point | None:
        """The one point every d_i is specified through, or None."""
        points = {spec.point if isinstance(spec, ThroughPoint) else None
                  for spec in self.line_specs}
        return points.pop() if len(points) == 1 else None

    def vertex(self, i: int) -> Point:
        """1-based cyclic vertex access; any integer index wraps mod n."""
        return self.vertices[(i - 1) % self.n]


def vertex_lines(cfg: InscribedConfig) -> tuple[Line, ...]:
    """The lines d_1 .. d_n."""
    return tuple(line_through(a, p) for a, p in zip(cfg.vertices, cfg.line_points))


def inscribed_chord_product_squared(cfg: InscribedConfig) -> Fraction:
    """Product over i of |M'_i A_{i+s}|^2 / |M'_i A_{i+s+t}|^2.

    This is the square of the chord-ratio product; squared distances
    keep it rational and exact.
    """
    return _chord_ratio_product(cfg, cfg.m_primes)


def _chord_ratio_product(cfg: InscribedConfig, apexes) -> Fraction:
    """Product over i of |P_i A_{i+s}|^2 / |P_i A_{i+s+t}|^2, where P_i is
    the i-th of ``apexes``."""
    vertices = cfg.vertices
    n = cfg.n
    product = Fraction(1)
    for i, apex in enumerate(apexes, start=1):
        product *= _chord_ratio(apex, vertices[idx_shift(i, cfg.s, n) - 1],
                                vertices[idx_shift(i, cfg.s + cfg.t, n) - 1])
    return product


def _chord_ratio(apex: Point, near: Point, far: Point) -> Fraction:
    """|apex near|^2 / |apex far|^2."""
    return distance_squared(apex, near) / distance_squared(apex, far)


def similar_triangles_relation(cfg: InscribedConfig, i: int) -> bool:
    """Exact check of the inscribed-angle factorization at vertex i.

    At the first crossing M = d_i x side-line A_{i+s} A_{i+s+1}, the
    pairs of triangles cut by the chord through A_i and M'_i are
    similar (whether M falls inside or outside the circle), giving

        |M A_{i+s}|^2 / |M A_{i+s+1}|^2
            = (|M' A_{i+s}|^2 / |M' A_{i+s+1}|^2)
            * (|A_i A_{i+s}|^2 / |A_i A_{i+s+1}|^2).

    M is collinear with A_{i+s} and A_{i+s+1}, so the left side is the
    square of the side factor at M.  Returns the exact comparison, true
    for every valid configuration.
    """
    n = cfg.n
    j = idx_shift(i, cfg.s, n)  # validates i in 1..n
    a_i = cfg.vertices[i - 1]
    a_j = cfg.vertices[j - 1]
    a_jn = cfg.vertices[idx_shift(j, 1, n) - 1]
    ratio = cfg.factors[(i - 1) * cfg.t].value
    return ratio * ratio == (_chord_ratio(cfg.m_primes[i - 1], a_j, a_jn)
                             * _chord_ratio(a_i, a_j, a_jn))


def chord_telescoping_squared(cfg: InscribedConfig) -> Fraction:
    """Product over i of |A_i A_{i+s}|^2 / |A_i A_{i+s+t}|^2.

    Because i+s+t = i-s mod n, every chord appears once in a numerator
    and once in a denominator, so the product is exactly 1.
    """
    return _chord_ratio_product(cfg, cfg.vertices)


class InscribedReport(Frozen):
    """Both sides of the squared identity plus the raw signed product
    ``lhs``, and ``expected``, the value that pins lhs, or None if none."""

    _fields = ("lhs", "lhs_squared", "rhs_squared", "holds", "m_prime_points",
               "factors", "expected")
    lhs: Fraction
    lhs_squared: Fraction
    rhs_squared: Fraction
    holds: bool
    m_prime_points: tuple[Point, ...]
    factors: tuple[Factor, ...]
    expected: Fraction | None

    def __init__(self, lhs: Fraction, lhs_squared: Fraction,
                 rhs_squared: Fraction, holds: bool,
                 m_prime_points: tuple[Point, ...], factors: tuple[Factor, ...],
                 expected: Fraction | None):
        self.__dict__.update(zip(self._fields, (
            lhs, lhs_squared, rhs_squared, holds, m_prime_points, factors,
            expected)))


def inscribed_identity_report(cfg: InscribedConfig) -> InscribedReport:
    """Verify lhs^2 = rhs^2 exactly for an inscribed configuration."""
    lhs = math.prod((f.value for f in cfg.factors), start=Fraction(1))
    lhs_squared = lhs * lhs
    rhs_squared = inscribed_chord_product_squared(cfg)
    return InscribedReport(lhs, lhs_squared, rhs_squared,
                           lhs_squared == rhs_squared, cfg.m_primes,
                           cfg.factors, None)


def concurrent_secants_check(cfg: InscribedConfig) -> InscribedReport:
    """Specialization where every d_i passes through one common point.

    Requires ``cfg.common_point``.  The signed side product is then
    pinned to ``expected`` = (-1)^n and the chord product has magnitude
    exactly 1; ``holds`` demands both on top of the squared identity.
    """
    if cfg.common_point is None:
        raise NotConcurrent("vertex lines do not share one common point")
    report = inscribed_identity_report(cfg)
    expected = Fraction(-1) ** cfg.n
    return InscribedReport(report.lhs, report.lhs_squared, report.rhs_squared,
                           report.holds and report.lhs == expected
                           and report.rhs_squared == 1,
                           report.m_prime_points, report.factors, expected)


def inscribed_opposite_side_check(cfg: InscribedConfig) -> InscribedReport:
    """The t = 1 instance: n is odd and each d_i crosses exactly the one
    side opposite its vertex."""
    if cfg.t != 1:
        raise InvariantViolation(f"single-crossing case needs t = 1, got t={cfg.t}")
    return inscribed_identity_report(cfg)
