"""Figures take their floats straight from exact integers: every dot and
every drawn line equals float() of the exact point or Line it stands
for, as the Point-based constructions give them."""

import functools

import pytest

from polyceva import svgout
from polyceva.ceva import CevaConfig, crossing_point
from polyceva.circle import InscribedConfig
from polyceva.fuzz import GenParams, gen_ceva_config, gen_inscribed_config
from polyceva.geometry import Point, line_through

# Seeded config generators, by kind.
CONFIGS = {
    "ceva": gen_ceva_config,
    "inscribed": gen_inscribed_config,
    "concurrent": functools.partial(gen_inscribed_config, concurrent=True),
}


def _drawn(monkeypatch, cfg):
    """The corners, lines and dots the figure of cfg is laid out from."""
    calls = []
    monkeypatch.setattr(svgout, "_figure", lambda *args: calls.append(args))
    if isinstance(cfg, InscribedConfig):
        svgout.render_inscribed_svg(cfg)
    else:
        svgout.render_ceva_svg(cfg)
    (corners, lines, dots, *_), = calls
    return corners, lines, dots


def _hex(values) -> list[str]:
    """The floats' exact spellings, which tell 0.0 from -0.0."""
    return [v.hex() for v in values]


def _point(p) -> list[str]:
    return _hex((float(p.x), float(p.y)))


def _line(line) -> list[str]:
    return _hex((float(line.a), float(line.b), float(line.c)))


@pytest.mark.parametrize("bound", [10, 10**300], ids=["small", "300-digit"])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_floats_are_those_of_the_exact_figure(monkeypatch, kind, bound):
    params = GenParams(seed=24, n_min=3, n_max=7, coordinate_bound=bound)
    ratios = []
    for trial in range(12 if bound == 10 else 3):
        cfg = CONFIGS[kind](params, trial)
        corners, lines, dots = _drawn(monkeypatch, cfg)
        vertices = cfg.vertices
        if kind == "ceva":
            through = [cfg.pivot] * cfg.n
        else:
            through = cfg.m_primes
        assert list(map(_hex, corners)) == list(map(_point, vertices))
        assert list(map(_hex, lines)) == [
            _line(line_through(v, p)) for v, p in zip(vertices, through)]
        meets = dots[:len(cfg.factors)]
        assert [_hex(xy) for xy, style, _ in meets] == [
            _point(crossing_point(vertices, f)) for f in cfg.factors]
        assert {style for _, style, _ in meets} == {"meet"}
        ratios += cfg.factors
    # Both signs of q - p, for each factor value p/q.
    assert any(f.num > f.den for f in ratios)
    assert any(f.num < f.den for f in ratios)


def test_zero_is_positive_zero(monkeypatch):
    """A cevian whose cross product has a negative first coefficient and
    zeros after it draws as (1.0, 0.0, 0.0), and a crossing on an axis
    has a coordinate 0.0: no -0.0 reaches the figure."""
    cfg = CevaConfig((Point(0, -3), Point(2, 1), Point(-2, 1)),
                     Point(0, 0), 1, 1)
    _, lines, dots = _drawn(monkeypatch, cfg)
    assert _hex(lines[0]) == _hex((1.0, 0.0, 0.0))
    assert _hex(dots[0][0]) == _hex((0.0, 1.0))
