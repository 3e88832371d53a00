"""Exact reference for the side factors: the literal crossing-point
definition.

For each vertex line and side-line the crossing M_ij is found with
intersect_lines, the general-position checks are made at that point, and
the factor is directed_ratio(M_ij, A_j, A_{j+1}).  It shares no formula
with the area-principle kernel (polyceva.ceva.side_factors), which never
builds the crossing point.  The second circle point M'_i comes from the
line's coefficients by the sum of the roots of the substituted quadratic,
not from the kernel's chord construction.
"""

from __future__ import annotations

from polyceva.ceva import Factor, idx_shift, sides_hit
from polyceva.circle import SecondParam, circle_point
from polyceva.errors import (
    CoincidentLines,
    DegenerateConfig,
    ParallelLines,
    Tangent,
)
from polyceva.geometry import Point, directed_ratio, intersect_lines, line_through


def crossing_factor(vertices, a_i, p, i, j) -> Factor:
    """Ratio at the crossing of line A_i P with side-line A_j A_{j+1}."""
    a_j = vertices[j - 1]
    a_jn = vertices[j % len(vertices)]
    try:
        m = intersect_lines(line_through(a_i, p), line_through(a_j, a_jn))
    except (ParallelLines, CoincidentLines) as exc:
        raise DegenerateConfig(DegenerateConfig.PARALLEL, i, j) from exc
    if m == a_j or m == a_jn:
        raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, j)
    return Factor(i, j, directed_ratio(m, a_j, a_jn))


def second_circle_point(line, known):
    """The other point where ``line`` meets the circle x^2 + y^2 = r^2
    through ``known``.  Substituting the line a x + b y + c = 0 gives a
    quadratic whose roots sum to a rational expression in a, b, c; a
    double root means the line is tangent at ``known``."""
    a, b, c = line.a, line.b, line.c
    if a != 0:
        # x = -(b y + c)/a:  (a^2 + b^2) y^2 + 2 b c y + c^2 - a^2 r^2 = 0.
        y = -2 * b * c / (a * a + b * b) - known.y
        other = Point(-(b * y + c) / a, y)
    else:
        # y = -c/b:  x^2 = r^2 - (c/b)^2, roots x and -x.
        other = Point(-known.x, known.y)
    if other == known:
        raise Tangent(f"line {line} is tangent at {known}")
    return other


def ceva_factors(vertices, pivot, s, t) -> tuple[Factor, ...]:
    """Factors of a structurally valid polygon-with-pivot draw."""
    n = len(vertices)
    return tuple(crossing_factor(vertices, vertices[i - 1], pivot, i, j)
                 for i in range(1, n + 1) for j in sides_hit(i, s, t, n))


def inscribed_factors(radius, params, specs, s, t):
    """Factors and second circle points of a structurally valid inscribed
    draw, checked vertex by vertex: tangency, then the second point
    landing on a vertex, then each side."""
    vertices = [circle_point(u, radius) for u in params]
    n = len(vertices)
    factors = []
    m_primes = []
    for i, spec in enumerate(specs, start=1):
        a_i = vertices[i - 1]
        if isinstance(spec, SecondParam):
            p = m_prime = circle_point(spec.v, radius)
        else:
            p = spec.point
            m_prime = second_circle_point(line_through(a_i, p), a_i)
        for k in {idx_shift(i, s, n), idx_shift(i, s + 1, n),
                  idx_shift(i, s + t, n)}:
            if m_prime == vertices[k - 1]:
                raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, k)
        factors += [crossing_factor(vertices, a_i, p, i, j)
                    for j in sides_hit(i, s, t, n)]
        m_primes.append(m_prime)
    return tuple(factors), tuple(m_primes)
