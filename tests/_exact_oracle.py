"""Exact reference for the side factors and chord ratios, from Points.

For each vertex line and side-line the crossing M_ij is found with
intersect_lines, the general-position checks are made at that point, and
the factor is directed_ratio(M_ij, A_j, A_{j+1}), paired with M_ij for
polyceva.ceva.crossing_point to be checked against.  It shares no
formula with the area-principle kernel (polyceva.ceva.side_factors),
which never builds the crossing point.  Circle points come from the
half-angle formula in Fractions, the second circle point M'_i from the
secant's direction, and every chord ratio from squared distances between
those Points; polyceva.circle computes all three in integer parameter
pairs and builds no Point for them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from polyceva.ceva import Factor, idx_shift, sides_hit
from polyceva.circle import SecondParam
from polyceva.errors import (
    CoincidentLines,
    DegenerateConfig,
    ParallelLines,
    Tangent,
)
from polyceva.geometry import (
    Point,
    directed_ratio,
    distance_squared,
    intersect_lines,
    line_through,
)


def crossing(vertices, a_i, p, i, j) -> tuple[Factor, Point]:
    """The crossing M_ij of line A_i P with side-line A_j A_{j+1}, as
    its ratio and the point itself."""
    a_j = vertices[j - 1]
    a_jn = vertices[j % len(vertices)]
    try:
        m = intersect_lines(line_through(a_i, p), line_through(a_j, a_jn))
    except (ParallelLines, CoincidentLines) as exc:
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
                 for i in range(1, n + 1) for j in sides_hit(i, s, t, n))


def ceva_factors(vertices, pivot, s, t) -> tuple[Factor, ...]:
    """Factors of a structurally valid polygon-with-pivot draw."""
    return tuple(f for f, _ in ceva_crossings(vertices, pivot, s, t))


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
        if isinstance(spec, SecondParam):
            p = m_prime = circle_point(spec.v, radius)
        else:
            p = spec.point
            m_prime = chord_end(a_i, p)
        for k in {idx_shift(i, s, n), idx_shift(i, s + 1, n),
                  idx_shift(i, s + t, n)}:
            if m_prime == vertices[k - 1]:
                raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, k)
        crossings += [crossing(vertices, a_i, p, i, j)
                      for j in sides_hit(i, s, t, n)]
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
