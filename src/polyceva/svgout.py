"""Standalone SVG figures for configurations.

The only floating point in the package lives here: exact rational
coordinates are converted to floats for layout, and nothing is ever
read back from the figure.  Output is deterministic for a fixed config.
"""

from __future__ import annotations

from .ceva import CevaConfig, build_converse_counterexample, crossing_point
from .circle import InscribedConfig, vertex_lines
from .geometry import Line, Point, line_through


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
    """Maps model coordinates into a y-flipped viewport."""

    def __init__(self, points: list[tuple[float, float]], size: int, margin: int):
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
        self.scale = (size - 2 * margin) / max(self.x1 - self.x0,
                                               self.y1 - self.y0)
        self.size = size
        self.margin = margin

    def to_view(self, x: float, y: float) -> tuple[float, float]:
        vx = self.margin + (x - self.x0) * self.scale
        vy = self.size - self.margin - (y - self.y0) * self.scale
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


class _Svg:
    def __init__(self, layout: _Layout):
        self.layout = layout
        self.parts: list[str] = []

    def line_segment(self, line: Line, style: str) -> None:
        clipped = self.layout.clip_line(line)
        if clipped is None:
            return
        (x1, y1), (x2, y2) = clipped
        vx1, vy1 = self.layout.to_view(x1, y1)
        vx2, vy2 = self.layout.to_view(x2, y2)
        self.parts.append(
            f'<line x1="{_fmt(vx1)}" y1="{_fmt(vy1)}" '
            f'x2="{_fmt(vx2)}" y2="{_fmt(vy2)}" {style}/>')

    def edge(self, p: Point, q: Point, style: str) -> None:
        vx1, vy1 = self.layout.to_view(float(p.x), float(p.y))
        vx2, vy2 = self.layout.to_view(float(q.x), float(q.y))
        self.parts.append(
            f'<line x1="{_fmt(vx1)}" y1="{_fmt(vy1)}" '
            f'x2="{_fmt(vx2)}" y2="{_fmt(vy2)}" {style}/>')

    def dot(self, p: Point, style: str, label: str) -> None:
        vx, vy = self.layout.to_view(float(p.x), float(p.y))
        self.parts.append(f'<circle cx="{_fmt(vx)}" cy="{_fmt(vy)}" r="3" {style}/>')
        self.parts.append(
            f'<text x="{_fmt(vx + 5)}" y="{_fmt(vy - 5)}" '
            f'{_STYLE["label"]}>{label}</text>')

    def circle(self, radius: float) -> None:
        vx, vy = self.layout.to_view(0.0, 0.0)
        self.parts.append(
            f'<circle cx="{_fmt(vx)}" cy="{_fmt(vy)}" '
            f'r="{_fmt(radius * self.layout.scale)}" {_STYLE["circle"]}/>')

    def document(self) -> str:
        size = self.layout.size
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{size}" height="{size}" '
                f'viewBox="0 0 {size} {size}">')
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def _meet_label(i: int, j: int, single: bool) -> str:
    return f"M{j}" if single else f"M{i},{j}"


def render_ceva_svg(cfg: CevaConfig, size: int = 640, margin: int = 40) -> str:
    feet = [(f.i, f.j, crossing_point(cfg.vertices, f)) for f in cfg.factors]
    featured = [*cfg.vertices, cfg.pivot, *(f[2] for f in feet)]
    layout = _Layout([(float(p.x), float(p.y)) for p in featured], size, margin)
    svg = _Svg(layout)
    for i in range(1, cfg.n + 1):
        svg.line_segment(line_through(cfg.vertex(i), cfg.pivot), _STYLE["cevian"])
    for i in range(1, cfg.n + 1):
        svg.edge(cfg.vertex(i), cfg.vertex(i + 1), _STYLE["polygon"])
    single = cfg.t == 1
    for i, j, foot in feet:
        svg.dot(foot, _STYLE["meet"], _meet_label(i, j, single))
    for i in range(1, cfg.n + 1):
        svg.dot(cfg.vertex(i), _STYLE["vertex"], f"A{i}")
    svg.dot(cfg.pivot, _STYLE["pivot"], "M")
    return svg.document()


def render_inscribed_svg(cfg: InscribedConfig, size: int = 640,
                         margin: int = 40) -> str:
    feet = [(f.i, f.j, crossing_point(cfg.vertices, f)) for f in cfg.factors]
    r = float(cfg.radius)
    featured = [(-r, -r), (r, r)]
    featured += [(float(p.x), float(p.y))
                 for p in (*cfg.vertices, *cfg.m_primes, *(f[2] for f in feet))]
    layout = _Layout(featured, size, margin)
    svg = _Svg(layout)
    svg.circle(r)
    for line in vertex_lines(cfg):
        svg.line_segment(line, _STYLE["cevian"])
    for i in range(1, cfg.n + 1):
        svg.edge(cfg.vertex(i), cfg.vertex(i + 1), _STYLE["polygon"])
    single = cfg.t == 1
    for i, j, foot in feet:
        svg.dot(foot, _STYLE["meet"], _meet_label(i, j, single))
    for i, mp in enumerate(cfg.m_primes, start=1):
        svg.dot(mp, _STYLE["meet"], f"M&#8242;{i}")
    for i in range(1, cfg.n + 1):
        svg.dot(cfg.vertex(i), _STYLE["vertex"], f"A{i}")
    return svg.document()


def render_counterexample_svg(vertices, pivot: Point, size: int = 640,
                              margin: int = 40) -> str:
    result = build_converse_counterexample(vertices, pivot)
    featured = [*result.vertices, result.pivot, *result.meet_points]
    layout = _Layout([(float(p.x), float(p.y)) for p in featured], size, margin)
    svg = _Svg(layout)
    for line in result.cevians:
        svg.line_segment(line, _STYLE["cevian"])
    n = len(result.vertices)
    for i in range(1, n + 1):
        svg.edge(result.vertices[i - 1], result.vertices[i % n], _STYLE["polygon"])
    for i, meet in enumerate(result.meet_points, start=1):
        svg.dot(meet, _STYLE["meet"], f"M{i}")
    for i, v in enumerate(result.vertices, start=1):
        svg.dot(v, _STYLE["vertex"], f"A{i}")
    svg.dot(result.pivot, _STYLE["pivot"], "M")
    return svg.document()
