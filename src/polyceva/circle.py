"""Cevian products for polygons inscribed in a circle.

Vertices live on the circle x^2 + y^2 = r^2 and are kept rational via
the tangent half-angle parametrization

    u  ->  ( r(1 - u^2)/(1 + u^2),  2ru/(1 + u^2) ),

a bijection from the rationals onto the rational circle points minus
(-r, 0).  The engine works on the parameter p/q as the integer pair
[p : q], where [1 : 0] is (-r, 0): vertices, second circle points and
chord ratios are integer expressions in these pairs, and Points are
built only for output.  Through each vertex A_i runs a line d_i; it crosses the t
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

from fractions import Fraction
from typing import Sequence, Union

from .errors import DegenerateConfig, InvariantViolation, Tangent
from .frozen import Frozen
from .geometry import (
    Homogeneous,
    Point,
    RationalLike,
    as_rational,
    format_rational,
    homogeneous,
    line_through,
)
from .ceva import (
    PARITY_SIGNS,
    Factor,
    factor_product,
    side_factors,
    validate_split,
)

# A circle parameter p/q as the integer pair [p : q]; any nonzero
# multiple names the same point.
Pair = tuple[int, int]


def _pair_point(pair: Pair, r: Fraction) -> Point:
    """The circle point of parameter pair [p : q]; [1 : 0] is (-r, 0)."""
    x, y, w = _pair_triple(pair, r.numerator, r.denominator)
    return Point.from_parts(x, w, y, w)


def _pair_triple(pair: Pair, a: int, b: int) -> Homogeneous:
    """Homogeneous integer coordinates of the circle point [p : q] on
    radius a/b: (a(q^2 - p^2), 2apq, b(p^2 + q^2)), with no gcd taken."""
    p, q = pair
    return a * (q * q - p * p), 2 * a * p * q, b * (p * p + q * q)


# What fixes d_i beyond A_i: a Point it passes through, or the
# parameter of its second circle point M'_i.
LineSpec = Union[Point, Fraction]


class InscribedConfig(Frozen):
    """Inscribed n-gon with one line per vertex and an (s, t) split.

    params must be strictly increasing, which orders the vertices by
    angle along the circle (the parameter is monotone in the half-angle
    tangent).  Each line spec is a Point off A_i that d_i passes through,
    or the parameter of M'_i: a Fraction, or an int or "p/q" string,
    stored as a Fraction.  Construction validates structure and general
    position: every required side crossing exists away from the side's
    endpoints, no d_i is tangent, and no second circle point M'_i lands
    on a vertex used by the chord ratios.

    The check runs in integer circle parameters: a parameter p/q is the
    pair [p : q], the pair [1 : 0] being (-r, 0).  Construction keeps
    the vertex pairs ``param_pairs``, the pairs ``m_prime_pairs`` of the
    M'_i, the n*t side ratios ``factors`` and ``common_point``, which
    repr, == and hash leave out: vertex i's t ratios, in sides_hit
    order, are factors[(i-1)*t : i*t], and ``common_point`` is the one
    Point every d_i is specified through, or None.  ``vertices`` and
    ``m_primes`` are Points built from those on each access; d_i is the
    line through A_i and M'_i, which differ once construction has passed.
    """

    _fields = ("radius", "params", "line_specs", "s", "t")
    radius: Fraction
    params: tuple[Fraction, ...]
    line_specs: tuple[LineSpec, ...]
    s: int
    t: int
    param_pairs: tuple[Pair, ...]
    m_prime_pairs: tuple[Pair, ...]
    factors: tuple[Factor, ...]
    common_point: Point | None

    def __init__(self, radius: RationalLike, params: Sequence[RationalLike],
                 line_specs: Sequence[Point | RationalLike], s: int, t: int):
        radius = as_rational(radius)
        params = tuple(as_rational(u) for u in params)
        line_specs = tuple(as_rational(spec) if isinstance(spec, (int, str))
                           else spec for spec in line_specs)
        a, b = radius.numerator, radius.denominator
        if a <= 0:
            raise InvariantViolation(
                f"radius must be positive, got {format_rational(radius)}")
        n = len(params)
        validate_split(n, s, t)
        pairs = tuple((u.numerator, u.denominator) for u in params)
        # p/q < p'/q' cross-multiplied: denominators are positive.
        if any(p * q_next >= p_next * q
               for (p, q), (p_next, q_next) in zip(pairs, pairs[1:])):
            raise InvariantViolation("circle parameters must be strictly increasing")
        if len(line_specs) != n:
            raise InvariantViolation(
                f"need one line spec per vertex, got {len(line_specs)}")
        vertices = [_pair_triple(pair, a, b) for pair in pairs]
        # Each d_i as its second point P_i, homogeneous, and the pair of
        # its second circle point M'_i.
        vertex_pairs = set(pairs)
        lines = []
        for i, spec in enumerate(line_specs, start=1):
            if isinstance(spec, Point):
                x_p, y_p, w_p = homogeneous(spec)
                x_a, y_a, w_a = vertices[i - 1]
                # A positive multiple of the direction P_i - A_i.
                dx = x_p * w_a - x_a * w_p
                dy = y_p * w_a - y_a * w_p
                if dx == 0 and dy == 0:
                    raise InvariantViolation(
                        f"line {i}: through-point coincides with vertex {i}")
                # The chord from [p : q] in direction (dx, dy) ends at
                # [-(dx q + dy p) : dy q - dx p], by the tangent of the
                # half-angle sum.
                p, q = pairs[i - 1]
                lines.append(((x_p, y_p, w_p),
                              (-(dx * q + dy * p), dy * q - dx * p)))
            elif isinstance(spec, Fraction):
                pair = (spec.numerator, spec.denominator)
                if pair in vertex_pairs:
                    raise InvariantViolation(
                        f"line {i}: second parameter {format_rational(spec)} "
                        "is a vertex parameter")
                lines.append((_pair_triple(pair, a, b), pair))
            else:
                raise InvariantViolation(f"line {i}: unknown spec {spec!r}")
        Frozen.__init__(self, radius, params, line_specs, s, t)
        d = self.__dict__
        d["param_pairs"] = pairs
        # Each vertex in full before the next: its tangency, then its
        # M'_i against the chord-ratio vertices, then its side factors.
        factors = []
        for i, (point, (p, q)) in enumerate(lines):
            p_a, q_a = pairs[i]
            if p * q_a == p_a * q:
                # M'_i = A_i: the line only touches the circle there.
                a_i = _pair_point(pairs[i], radius)
                raise Tangent(f"line {line_through(a_i, line_specs[i])} "
                              f"is tangent at {a_i}")
            # Chord ratios divide by |M' A_{i+s+1}| and |M' A_{i+s+t}|, and
            # the numerator vertex A_{i+s} must be avoided as well.
            for k in (i + s, i + s + 1, i + s + t):
                p_k, q_k = pairs[k % n]
                if p * q_k == p_k * q:
                    raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i + 1,
                                           k % n + 1,
                                           "second circle point is a vertex")
            factors += side_factors(vertices, i + 1, point, s, t)
        d["factors"] = tuple(factors)
        d["m_prime_pairs"] = tuple(pair for _, pair in lines)
        # Each spec's stored triple is compared with the first one's, so
        # no Point is hashed and no Fraction built.
        first = line_specs[0]
        d["common_point"] = (first if isinstance(first, Point) and all(
            isinstance(spec, Point) and homogeneous(spec) == homogeneous(first)
            for spec in line_specs[1:]) else None)

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(_pair_point(pair, self.radius) for pair in self.param_pairs)

    @property
    def m_primes(self) -> tuple[Point, ...]:
        return tuple(_pair_point(pair, self.radius) for pair in self.m_prime_pairs)


def inscribed_chord_product_squared(cfg: InscribedConfig) -> Fraction:
    """Product over i of |M'_i A_{i+s}|^2 / |M'_i A_{i+s+t}|^2.

    This is the square of the chord-ratio product; squared distances
    keep it rational and exact.
    """
    return _chord_ratio_product(cfg, cfg.m_prime_pairs)


def _chord_ratio_product(cfg: InscribedConfig, apexes) -> Fraction:
    """Product over i of |P_i A_{i+s}|^2 / |P_i A_{i+s+t}|^2, where P_i is
    the circle point of the i-th pair of ``apexes``."""
    pairs = cfg.param_pairs
    n = cfg.n
    s, st = cfg.s, cfg.s + cfg.t
    num = den = 1
    for i, apex in enumerate(apexes):
        near, far = _chord_ratio(apex, pairs[(i + s) % n], pairs[(i + st) % n])
        num *= near
        den *= far
    return Fraction(num, den)


def _chord_ratio(apex: Pair, near: Pair, far: Pair) -> tuple[int, int]:
    """|apex near|^2 / |apex far|^2 for circle points given by parameter
    pairs, as an unreduced integer (numerator, denominator).

    |[p1 : q1] [p2 : q2]|^2 = 4 r^2 (p1 q2 - p2 q1)^2
    / ((p1^2 + q1^2)(p2^2 + q2^2)); in the ratio 4 r^2 and the apex's
    p^2 + q^2 cancel.
    """
    p, q = apex
    p_n, q_n = near
    p_f, q_f = far
    c_n = p * q_n - p_n * q
    c_f = p * q_f - p_f * q
    return c_n * c_n * (p_f * p_f + q_f * q_f), c_f * c_f * (p_n * p_n + q_n * q_n)


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
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    # The first of vertex i's factors, on side j = i + s.
    ratio = cfg.factors[(i - 1) * cfg.t]
    pairs = cfg.param_pairs
    a_j = pairs[ratio.j - 1]
    a_jn = pairs[ratio.j % n]
    m_num, m_den = _chord_ratio(cfg.m_prime_pairs[i - 1], a_j, a_jn)
    a_num, a_den = _chord_ratio(pairs[i - 1], a_j, a_jn)
    return (ratio.num ** 2 * m_den * a_den
            == ratio.den ** 2 * m_num * a_num)


def chord_telescoping_squared(cfg: InscribedConfig) -> Fraction:
    """Product over i of |A_i A_{i+s}|^2 / |A_i A_{i+s+t}|^2.

    Because i+s+t = i-s mod n, every chord appears once in a numerator
    and once in a denominator, so the product is exactly 1.
    """
    return _chord_ratio_product(cfg, cfg.param_pairs)


class InscribedReport(Frozen):
    """Both sides of the squared identity for ``config`` plus the raw
    signed product ``lhs``, and ``expected``, the value that pins lhs, or
    None if none.  ``factors`` are the config's."""

    _fields = ("config", "lhs", "lhs_squared", "rhs_squared", "holds",
               "expected")
    config: InscribedConfig
    lhs: Fraction
    lhs_squared: Fraction
    rhs_squared: Fraction
    holds: bool
    expected: Fraction | None

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self.config.factors


def inscribed_identity_report(cfg: InscribedConfig) -> InscribedReport:
    """Verify lhs^2 = rhs^2 exactly for an inscribed configuration."""
    return _identity_report(cfg, None)


def concurrent_secants_check(cfg: InscribedConfig) -> InscribedReport:
    """Specialization where every d_i passes through one common point.

    Requires ``cfg.common_point``.  The signed side product is then
    pinned to ``expected`` = (-1)^n and the chord product has magnitude
    exactly 1; ``holds`` demands both on top of the squared identity.
    """
    if cfg.common_point is None:
        raise ValueError("vertex lines do not share one common point")
    return _identity_report(cfg, PARITY_SIGNS[cfg.n % 2])


def _identity_report(cfg: InscribedConfig,
                     expected: Fraction | None) -> InscribedReport:
    """The report on cfg, lhs pinned to ``expected`` unless it is None."""
    lhs = Fraction(*factor_product(cfg.factors))
    lhs_squared = lhs * lhs
    rhs_squared = inscribed_chord_product_squared(cfg)
    holds = lhs_squared == rhs_squared
    if expected is not None:
        holds = holds and lhs == expected and rhs_squared == 1
    return InscribedReport(cfg, lhs, lhs_squared, rhs_squared, holds, expected)

