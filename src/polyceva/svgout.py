"""Standalone SVG figures for configurations.

The only floating point in the package lives here: exact rational
coordinates are converted to floats for layout, and nothing is ever
read back from the figure.  Output is deterministic for a fixed config.
"""

from __future__ import annotations

import math

from .ceva import CevaConfig, Counterexample, crossing_point
from .circle import InscribedConfig
from .geometry import Line, Point, line_through


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

    def clip_line(self, line: Line) -> tuple[tuple[float, float],
                                             tuple[float, float]] | None:
        """Chord of the (infinite) line across the model bounding box."""
        a, b, c = float(line.a), float(line.b), float(line.c)
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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _xy(p: Point) -> tuple[float, float]:
    return float(p.x), float(p.y)


def _figure(vertices, lines, dots, radius=None) -> str:
    """One standalone SVG document.

    Draws the circle of ``radius`` about the origin when given, each of
    ``lines`` clipped to the view, the edges of the polygon ``vertices``
    and then ``dots``, (point, style, label) triples, in the order
    given.  The dots and the circle's bounding square set the layout.
    """
    box = [_xy(p) for p, _, _ in dots]
    if radius is not None:
        r = float(radius)
        box += [(-r, -r), (r, r)]
    layout = _Layout(box)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">']
    if radius is not None:
        vx, vy = layout.to_view(0.0, 0.0)
        parts.append(f'<circle cx="{_fmt(vx)}" cy="{_fmt(vy)}" '
                     f'r="{_fmt(r * layout.scale)}" {_STYLE["circle"]}/>')
    chords = [layout.clip_line(line) for line in lines]
    edges = [(_xy(p), _xy(q)) for p, q in zip(vertices, (*vertices[1:], vertices[0]))]
    for style, segments in (("cevian", chords), ("polygon", edges)):
        for ends in filter(None, segments):
            (vx1, vy1), (vx2, vy2) = (layout.to_view(*end) for end in ends)
            parts.append(f'<line x1="{_fmt(vx1)}" y1="{_fmt(vy1)}" '
                         f'x2="{_fmt(vx2)}" y2="{_fmt(vy2)}" {_STYLE[style]}/>')
    for p, style, label in dots:
        vx, vy = layout.to_view(*_xy(p))
        parts.append(f'<circle cx="{_fmt(vx)}" cy="{_fmt(vy)}" r="3" {_STYLE[style]}/>')
        parts.append(f'<text x="{_fmt(vx + 5)}" y="{_fmt(vy - 5)}" '
                     f'{_STYLE["label"]}>{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _meets(cfg, vertices) -> list:
    """Labelled dots at the side crossings of a ceva or inscribed config
    with these vertices."""
    return [(crossing_point(vertices, f), "meet",
             f"M{f.j}" if cfg.t == 1 else f"M{f.i},{f.j}") for f in cfg.factors]


def _dots(points, style: str, label: str) -> list:
    return [(p, style, f"{label}{i}") for i, p in enumerate(points, start=1)]


def render_ceva_svg(cfg: CevaConfig) -> str:
    return _figure(cfg.vertices,
                   [line_through(v, cfg.pivot) for v in cfg.vertices],
                   [*_meets(cfg, cfg.vertices), *_dots(cfg.vertices, "vertex", "A"),
                    (cfg.pivot, "pivot", "M")])


def render_inscribed_svg(cfg: InscribedConfig) -> str:
    # An inscribed config builds its Points on each access.  d_i is the
    # line through A_i and M'_i.
    vertices = cfg.vertices
    m_primes = cfg.m_primes
    return _figure(vertices, list(map(line_through, vertices, m_primes)),
                   [*_meets(cfg, vertices), *_dots(m_primes, "meet", "M&#8242;"),
                    *_dots(vertices, "vertex", "A")], cfg.radius)


def render_counterexample_svg(result: Counterexample) -> str:
    return _figure(result.vertices, result.cevians,
                   [*_dots(result.meet_points, "meet", "M"),
                    *_dots(result.vertices, "vertex", "A"),
                    (result.pivot, "pivot", "M")])
