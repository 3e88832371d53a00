"""Standalone SVG figures for configurations.

The only floating point in the package lives here: exact coordinates are
converted to floats for layout, and nothing is ever read back from the
figure.  Each float is one int true division, which rounds correctly,
so it equals ``float()`` of the exact rational it stands for: a vertex
or pivot coordinate is its numerator over its denominator, a crossing
M_ij is taken from its factor's integer pair and the homogeneous
triples of its side's endpoints, and a drawn line from the canonical
integer triple of its `Line` (`line_through` of two points, or a
counterexample's cevian).  No Fraction, Point or Line is built per
factor.  Output is deterministic for a fixed config.
"""

from __future__ import annotations

import math

from .ceva import CevaConfig, Counterexample, Factor
from .circle import InscribedConfig
from .geometry import Homogeneous, Line, Point, homogeneous, line_through


# Side of the square figure and its blank border, in SVG user units.
SIZE = 640
MARGIN = 40

_STYLE = {
    "polygon": 'fill="none" stroke="#222" stroke-width="1.5"',
    "cevian": 'stroke="#1565c0" stroke-width="0.8"',
    "circle": 'fill="none" stroke="#888" stroke-width="1"',
    "vertex": 'fill="#222"',
    "meet": 'fill="#c62828"',
    "pivot": 'fill="#2e7d32"',
    "label": 'font-family="sans-serif" font-size="11"',
}


class _Layout:
    """Maps model coordinates into a y-flipped viewport.

    Raises OverflowError when the padded extent or the scale is not a
    finite float, so no figure holds an ``inf`` or ``nan``.
    """

    def __init__(self, points: list[tuple[float, float]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        pad_x = (self.x1 - self.x0) * 0.08 or 1.0
        pad_y = (self.y1 - self.y0) * 0.08 or 1.0
        self.x0 -= pad_x
        self.x1 += pad_x
        self.y0 -= pad_y
        self.y1 += pad_y
        extent = max(self.x1 - self.x0, self.y1 - self.y0)
        if not math.isfinite(extent):
            raise OverflowError("figure extent exceeds the float range")
        self.scale = (SIZE - 2 * MARGIN) / extent
        if not math.isfinite(self.scale):
            raise OverflowError("figure scale exceeds the float range")

    def to_view(self, x: float, y: float) -> tuple[float, float]:
        vx = MARGIN + (x - self.x0) * self.scale
        vy = SIZE - MARGIN - (y - self.y0) * self.scale
        return vx, vy

    def clip_line(self, line: tuple[float, float, float]
                  ) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """Chord of the (infinite) line a*x + b*y + c = 0 across the
        model bounding box."""
        a, b, c = line
        hits = []
        if b != 0:
            for x in (self.x0, self.x1):
                y = -(a * x + c) / b
                if self.y0 - 1e-9 <= y <= self.y1 + 1e-9:
                    hits.append((x, y))
        if a != 0:
            for y in (self.y0, self.y1):
                x = -(b * y + c) / a
                if self.x0 - 1e-9 <= x <= self.x1 + 1e-9:
                    hits.append((x, y))
        if len(hits) < 2:
            return None
        hits.sort()
        return hits[0], hits[-1]


def _xy(p: Point) -> tuple[float, float]:
    xn, xd, yn, yd = p.parts
    return xn / xd, yn / yd


def _coefficients(line: Line) -> tuple[float, float, float]:
    """float() of each of a line's a, b and c: its canonical triple over
    the first nonzero of its first two, which is positive, so a zero
    coefficient is 0.0, never -0.0."""
    a, b, c = line.triple
    lead = a or b
    return a / lead, b / lead, c / lead


def _meet(a: Homogeneous, b: Homogeneous, f: Factor) -> tuple[float, float]:
    """float() of each coordinate of the crossing a factor measures, as
    `crossing_point` gives it, on the side from A to B.

    The point X with (A - X) = r (B - X), r = p/q, is (q A - p B) /
    (q - p); over the triples' common denominator its coordinates are
    (q X_A W_B - p X_B W_A) / ((q - p) W_A W_B), the divisor made
    positive."""
    x_a, y_a, w_a = a
    x_b, y_b, w_b = b
    p, q = f.num, f.den
    if q < p:
        p, q = -p, -q
    u = q * w_b
    v = p * w_a
    w = (q - p) * w_a * w_b
    return (u * x_a - v * x_b) / w, (u * y_a - v * y_b) / w


def _figure(corners, lines, dots, radius=None) -> str:
    """One standalone SVG document.

    Draws the circle of ``radius``, an integer pair (num, den), about the
    origin when given, each of ``lines``, (a, b, c) float triples,
    clipped to the view, the edges of the polygon with float ``corners``
    and then ``dots``, (float point, style, label) triples, in the order
    given.  The dots and the circle's bounding square set the layout.
    """
    box = [xy for xy, _, _ in dots]
    if radius is not None:
        num, den = radius
        r = num / den
        box += [(-r, -r), (r, r)]
    layout = _Layout(box)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">']
    if radius is not None:
        vx, vy = layout.to_view(0.0, 0.0)
        parts.append(f'<circle cx="{vx:.2f}" cy="{vy:.2f}" '
                     f'r="{r * layout.scale:.2f}" {_STYLE["circle"]}/>')
    chords = [layout.clip_line(line) for line in lines]
    edges = list(zip(corners, (*corners[1:], corners[0])))
    for style, segments in (("cevian", chords), ("polygon", edges)):
        for ends in filter(None, segments):
            (vx1, vy1), (vx2, vy2) = (layout.to_view(*end) for end in ends)
            parts.append(f'<line x1="{vx1:.2f}" y1="{vy1:.2f}" '
                         f'x2="{vx2:.2f}" y2="{vy2:.2f}" {_STYLE[style]}/>')
    for xy, style, label in dots:
        vx, vy = layout.to_view(*xy)
        parts.append(f'<circle cx="{vx:.2f}" cy="{vy:.2f}" r="3" {_STYLE[style]}/>')
        parts.append(f'<text x="{vx + 5:.2f}" y="{vy - 5:.2f}" '
                     f'{_STYLE["label"]}>{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _meets(cfg, triples) -> list:
    """Labelled dots at the side crossings of a ceva or inscribed config
    whose vertices have these homogeneous triples."""
    n = len(triples)
    return [(_meet(triples[f.j - 1], triples[f.j % n], f), "meet",
             f"M{f.j}" if cfg.t == 1 else f"M{f.i},{f.j}") for f in cfg.factors]


def _dots(points, style: str, label: str) -> list:
    return [(xy, style, f"{label}{i}") for i, xy in enumerate(points, start=1)]


def render_ceva_svg(cfg: CevaConfig) -> str:
    triples = [homogeneous(v) for v in cfg.vertices]
    corners = [_xy(v) for v in cfg.vertices]
    return _figure(corners, [_coefficients(line_through(v, cfg.pivot))
                             for v in cfg.vertices],
                   [*_meets(cfg, triples), *_dots(corners, "vertex", "A"),
                    (_xy(cfg.pivot), "pivot", "M")])


def render_inscribed_svg(cfg: InscribedConfig) -> str:
    # An inscribed config builds its Points on each access.  d_i is the
    # line through A_i and M'_i.
    vertices = cfg.vertices
    m_primes = cfg.m_primes
    triples = [homogeneous(v) for v in vertices]
    corners = [_xy(v) for v in vertices]
    return _figure(corners, [_coefficients(line_through(v, m))
                             for v, m in zip(vertices, m_primes)],
                   [*_meets(cfg, triples),
                    *_dots(map(_xy, m_primes), "meet", "M&#8242;"),
                    *_dots(corners, "vertex", "A")], cfg.parts[0])


def render_counterexample_svg(result: Counterexample) -> str:
    corners = [_xy(v) for v in result.vertices]
    return _figure(corners, list(map(_coefficients, result.cevians)),
                   [*_dots(map(_xy, result.meet_points), "meet", "M"),
                    *_dots(corners, "vertex", "A"),
                    (_xy(result.pivot), "pivot", "M")])
