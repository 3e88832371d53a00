"""Exact Point-based reference for the kernel, and the geometry the
library does not carry.

Reference geometry over Fractions: signed areas, collinearity, squared
distances, directed ratios and affine maps of Points, and lines as
normalized Fraction coefficients (Line, line_through, intersect_lines
and are_concurrent), the reference for polyceva.geometry's integer
lines, which this module does not import.  The swap
identity of the normalized two-point line form, a step of the paper's
proof, is checked here too (line_value_antisymmetry); the library
computes no line form.

Side factors: for each vertex line and side-line the crossing M_ij is
found with intersect_lines, the general-position checks are made at that
point, and the factor is directed_ratio(M_ij, A_j, A_{j+1}), paired with
M_ij for polyceva.ceva.crossing_point to be checked against.  It shares
no formula with the area-principle kernel (polyceva.ceva.side_factors),
which never builds the crossing point, nor its walk over the sides each
vertex line crosses (sides_crossed here, the kernel's wrapping index
there).  The failed converse (converse_counterexample) places its free
points by the ratio formula and meets each line with its side-line the
same way.  Circle points come from the half-angle formula in Fractions,
the second circle point M'_i from the secant's direction, and every
chord ratio from squared distances between those Points;
polyceva.circle computes all three in integer parameter pairs and
builds no Point for them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from polyceva.ceva import CevaConfig, Factor
from polyceva.errors import DegenerateConfig, GeometryError, Tangent
from polyceva.frozen import Frozen
from polyceva.geometry import Point, RationalLike, as_rational


class NotCollinear(GeometryError):
    """A directed ratio was requested for three non-collinear points."""


class AxisAligned(GeometryError):
    """A vertex shares an x or y coordinate with the pivot, so the
    normalized two-point line form is undefined."""


class DivisionByZero(GeometryError):
    """A line-form value required to be nonzero vanished (the evaluation
    point lies on the line)."""


class AffineMap(Frozen):
    """Invertible affine transform (x, y) -> (m11 x + m12 y + tx, m21 x + m22 y + ty)."""

    _fields = ("m11", "m12", "m21", "m22", "tx", "ty")
    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    tx: Fraction
    ty: Fraction

    def __init__(self, m11: RationalLike, m12: RationalLike, m21: RationalLike,
                 m22: RationalLike, tx: RationalLike, ty: RationalLike):
        m11, m12, m21, m22, tx, ty = map(as_rational,
                                         (m11, m12, m21, m22, tx, ty))
        if m11 * m22 - m12 * m21 == 0:
            raise ValueError("affine map is not invertible (zero determinant)")
        Frozen.__init__(self, m11, m12, m21, m22, tx, ty)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(1, 0, 0, 1, 0, 0)


class Line(Frozen):
    """Line a*x + b*y + c = 0 over Fractions, normalized on construction
    so the first nonzero coefficient among (a, b) is 1: the reference
    for polyceva.geometry.Line, which holds an integer triple, and its
    line functions below."""

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
    """The unique line containing two distinct points:
    (y_p - y_q) x + (x_q - x_p) y + (x_p y_q - x_q y_p) = 0."""
    if p == q:
        raise ValueError(f"no unique line through coincident points {p}")
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Exact intersection point of two non-parallel lines, by Cramer's
    rule."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        if l1 == l2:
            raise ValueError(f"lines coincide: {l1}")
        raise ValueError(f"parallel lines {l1} and {l2}")
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def are_concurrent(lines) -> bool:
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


def affine_apply(map_: AffineMap, p: Point) -> Point:
    return Point(map_.m11 * p.x + map_.m12 * p.y + map_.tx,
                 map_.m21 * p.x + map_.m22 * p.y + map_.ty)


def signed_area2(p: Point, q: Point, r: Point) -> Fraction:
    """Twice the signed area of triangle pqr (positive when ccw)."""
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def is_collinear(p: Point, q: Point, r: Point) -> bool:
    return signed_area2(p, q, r) == 0


def distance_squared(p: Point, q: Point) -> Fraction:
    """Squared Euclidean distance; exact, unlike the distance itself."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def directed_ratio(x: Point, a: Point, b: Point) -> Fraction:
    """Signed ratio r of directed segments XA/XB: (A - X) = r * (B - X).

    All three points must be collinear and X must differ from B.  The
    ratio is negative exactly when X lies strictly between A and B.  It
    is computed from whichever coordinate of (B - X) is nonzero; when
    both are usable the two quotients must agree, which is asserted as a
    free self-check.
    """
    if x == b:
        raise ValueError(
            f"ratio point {x} coincides with the denominator end")
    if not is_collinear(x, a, b):
        raise NotCollinear(f"{x}, {a}, {b} are not collinear")
    dxb = b.x - x.x
    dyb = b.y - x.y
    if dxb != 0:
        ratio = (a.x - x.x) / dxb
        assert dyb == 0 or ratio == (a.y - x.y) / dyb
        return ratio
    return (a.y - x.y) / dyb


def normalized_line_value(x: Fraction, y: Fraction, vertex: Point,
                          pivot: Point) -> Fraction:
    """Value at (x, y) of the two-point form of the line vertex-pivot:

        (x - a)/(X - a) - (y - b)/(Y - b)

    with pivot (a, b) and vertex (X, Y).  Zero exactly on the line.
    Defined only when the vertex shares no coordinate with the pivot.
    """
    if vertex.x == pivot.x or vertex.y == pivot.y:
        raise AxisAligned(
            f"vertex {vertex} shares a coordinate with pivot {pivot}")
    return (x - pivot.x) / (vertex.x - pivot.x) - (y - pivot.y) / (vertex.y - pivot.y)


def line_value_antisymmetry(cfg: CevaConfig, r: int, q: int) -> bool:
    """Check the exact swap identity of the normalized line form.

    Writing D(u, v) for the value of the A_v-pivot line form at A_u and
    P(u) = (X_u - a)(Y_u - b), the identity

        D(r, q) / D(q, r) = -P(r) / P(q)

    holds whenever no vertex of cfg shares a coordinate with the pivot
    and A_q is off the line A_r-pivot.  Returns the (always true) exact
    comparison rather than assuming it.
    """
    if r == q:
        raise ValueError("indices must differ")
    for v in cfg.vertices:
        if v.x == cfg.pivot.x or v.y == cfg.pivot.y:
            raise AxisAligned(
                f"vertex {v} shares a coordinate with pivot {cfg.pivot}")
    a_r = cfg.vertices[r - 1]
    a_q = cfg.vertices[q - 1]
    d_rq = normalized_line_value(a_r.x, a_r.y, a_q, cfg.pivot)
    d_qr = normalized_line_value(a_q.x, a_q.y, a_r, cfg.pivot)
    if d_qr == 0:
        raise DivisionByZero(f"vertex {q} lies on the cevian line at vertex {r}")
    p_r = (a_r.x - cfg.pivot.x) * (a_r.y - cfg.pivot.y)
    p_q = (a_q.x - cfg.pivot.x) * (a_q.y - cfg.pivot.y)
    return d_rq / d_qr == -p_r / p_q


def sides_crossed(i: int, s: int, t: int, n: int) -> list[int]:
    """The sides j = i+s, ..., i+s+t-1 (mod n, 1-based) that the line
    through vertex i crosses."""
    return [(i + s + d - 1) % n + 1 for d in range(t)]


def crossing(vertices, a_i, p, i, j) -> tuple[Factor, Point]:
    """The crossing M_ij of line A_i P with side-line A_j A_{j+1}, as
    its ratio and the point itself."""
    a_j = vertices[j - 1]
    a_jn = vertices[j % len(vertices)]
    lines = line_through(a_i, p), line_through(a_j, a_jn)
    try:
        m = intersect_lines(*lines)
    except ValueError as exc:
        raise DegenerateConfig(DegenerateConfig.PARALLEL, i, j) from exc
    if m == a_j or m == a_jn:
        raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, j)
    return Factor(i, j, directed_ratio(m, a_j, a_jn)), m


def circle_point(u: Fraction, r: Fraction) -> Point:
    """u -> (r(1 - u^2)/(1 + u^2), 2ru/(1 + u^2))."""
    return Point(r * (1 - u * u) / (1 + u * u), 2 * r * u / (1 + u * u))


def chord_end(known: Point, through: Point) -> Point:
    """Second circle point of the secant from the circle point ``known``
    through ``through``; the circle is centred at the origin."""
    # Parametrize as known + k * dir; the quadratic in k has roots 0 and
    # -2(known . dir)/|dir|^2.
    dir_x = through.x - known.x
    dir_y = through.y - known.y
    dot = known.x * dir_x + known.y * dir_y
    if dot == 0:
        raise Tangent(f"line {line_through(known, through)} is tangent at {known}")
    k = -2 * dot / (dir_x * dir_x + dir_y * dir_y)
    return Point(known.x + k * dir_x, known.y + k * dir_y)


def chord_ratio(apex: Point, near: Point, far: Point) -> Fraction:
    """|apex near|^2 / |apex far|^2."""
    return distance_squared(apex, near) / distance_squared(apex, far)


def ceva_crossings(vertices, pivot, s, t) -> tuple[tuple[Factor, Point], ...]:
    """(factor, M_ij) of each crossing of a structurally valid
    polygon-with-pivot draw."""
    n = len(vertices)
    return tuple(crossing(vertices, vertices[i - 1], pivot, i, j)
                 for i in range(1, n + 1) for j in sides_crossed(i, s, t, n))


def ceva_factors(vertices, pivot, s, t) -> tuple[Factor, ...]:
    """Factors of a structurally valid polygon-with-pivot draw."""
    return tuple(f for f, _ in ceva_crossings(vertices, pivot, s, t))


def converse_counterexample(vertices, pivot):
    """The failed converse on a structurally valid pentagon, from literal
    intersections: (branch, K, crossings, concurrent), crossings[k-1]
    being the (factor, M_k) on side k; or DegenerateConfig with the
    reason and indices the builder must raise.

    Vertex i's line crosses side i + 2 (mod 5): through the pivot for
    i = 1, 2, 3, whose ratios multiply to K; through M_1 on line A_1A_2
    at ratio scale/K for vertex 4, scale 1 unless that ratio is 1 or
    A_4 M_1 passes through the pivot, then 2; and through M_2 on line
    A_2A_3 at ratio -1/scale for vertex 5.  A_4 on line A_1A_2 makes
    every A_4 M_1 that side-line (or no line), and A_5 on line A_2A_3
    does the same to A_5 M_2.
    """
    a1, a2, a3, a4, a5 = vertices
    genuine = [crossing(vertices, vertices[i - 1], pivot, i, i + 2)
               for i in (1, 2, 3)]
    k = math.prod((f.value for f, _ in genuine), start=Fraction(1))
    if is_collinear(a1, a2, a4):
        raise DegenerateConfig(DegenerateConfig.PARALLEL, 4, 1)
    for branch, scale in (("1/K", 1), ("2/K", 2)):
        if scale == k:
            continue
        m1 = ratio_point(a1, a2, scale / k)
        if not line_through(a4, m1).contains(pivot):
            break
    else:
        raise DegenerateConfig(DegenerateConfig.HITS_VERTEX)
    if is_collinear(a2, a3, a5):
        raise DegenerateConfig(DegenerateConfig.PARALLEL, 5, 2)
    m2 = ratio_point(a2, a3, Fraction(-1, scale))
    cevians = [*(line_through(v, pivot) for v in (a1, a2, a3)),
               line_through(a4, m1), line_through(a5, m2)]
    if len(set(cevians)) < 5:
        raise DegenerateConfig(DegenerateConfig.PARALLEL)
    crossings = (crossing(vertices, a4, m1, 4, 1),
                 crossing(vertices, a5, m2, 5, 2), *genuine)
    return branch, k, crossings, are_concurrent(cevians)


def ratio_point(a: Point, b: Point, r: Fraction) -> Point:
    """X = (A - r B) / (1 - r), the point with (A - X) = r (B - X)."""
    return Point((a.x - r * b.x) / (1 - r), (a.y - r * b.y) / (1 - r))


def inscribed_crossings(radius, params, specs, s, t):
    """(factor, M_ij) of each crossing and the second circle points of a
    structurally valid inscribed draw, checked vertex by vertex:
    tangency, then the second point landing on a vertex, then each
    side."""
    vertices = [circle_point(u, radius) for u in params]
    n = len(vertices)
    crossings = []
    m_primes = []
    for i, spec in enumerate(specs, start=1):
        a_i = vertices[i - 1]
        if isinstance(spec, Point):
            p = spec
            m_prime = chord_end(a_i, p)
        else:
            p = m_prime = circle_point(spec, radius)
        # The chord ratios' vertices A_{i+s}, A_{i+s+1} and A_{i+s+t}.
        for k in {(i + d - 1) % n + 1 for d in (s, s + 1, s + t)}:
            if m_prime == vertices[k - 1]:
                raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, k)
        crossings += [crossing(vertices, a_i, p, i, j)
                      for j in sides_crossed(i, s, t, n)]
        m_primes.append(m_prime)
    return tuple(crossings), tuple(m_primes)


def inscribed_factors(radius, params, specs, s, t):
    """Factors and second circle points of a structurally valid inscribed
    draw."""
    crossings, m_primes = inscribed_crossings(radius, params, specs, s, t)
    return tuple(f for f, _ in crossings), m_primes


def inscribed_chords(radius, params, specs, s, t):
    """The chord product squared, the chord telescoping product squared
    and the similar-triangles verdict at each vertex of a structurally
    valid inscribed draw."""
    factors, m_primes = inscribed_factors(radius, params, specs, s, t)
    vertices = [circle_point(u, radius) for u in params]
    n = len(vertices)

    def product(apexes):
        return math.prod((chord_ratio(apex, vertices[(i + s) % n],
                                      vertices[(i + s + t) % n])
                          for i, apex in enumerate(apexes)),
                         start=Fraction(1))

    similar = tuple(
        factors[i * t].value ** 2
        == chord_ratio(m_primes[i], vertices[(i + s) % n], vertices[(i + s + 1) % n])
        * chord_ratio(vertices[i], vertices[(i + s) % n], vertices[(i + s + 1) % n])
        for i in range(n))
    return product(m_primes), product(vertices), similar
