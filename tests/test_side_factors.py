"""The area-principle kernel and the parameter-form chord ratios against
the exact Point-based oracle.

Raw seeded draws, degenerate ones included, go through both; every
factor, every chord product, every DegenerateConfig (reason, i, j) and
every Tangent must agree.  Draws that fail a structural invariant are
skipped: they never reach either computation.  Large-operand draws
(about 300 digits per numerator and denominator, n up to 12) check the
integer scale factors of the kernel, which small bounds can hide.
Aimed draws put a second circle point on purpose at (-r, 0), the one
point with no finite parameter, on a vertex, or make a line tangent.
"""

import inspect
import random
import textwrap
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import polyceva.ceva
from polyceva.ceva import CevaConfig, crossing_point, side_factors, sides_hit
from polyceva.circle import (
    InscribedConfig,
    chord_telescoping_squared,
    inscribed_chord_product_squared,
    similar_triangles_relation,
)
from polyceva.errors import DegenerateConfig, InvariantViolation, Tangent
from polyceva.geometry import Point, homogeneous

from _exact_oracle import (
    AffineMap,
    affine_apply,
    ceva_crossings,
    ceva_factors,
    circle_point,
    inscribed_chords,
    inscribed_crossings,
    inscribed_factors,
)

# Parts of about 300 digits: far apart denominators give every point its
# own homogeneous weight W.
BIG = 10**300

# Bound 2 draws are cheap and mostly degenerate, so take more of them.
DRAWS = {2: 600, 10: 200}


def _rational(rng, bound):
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def _point(rng, bound):
    return Point(_rational(rng, bound), _rational(rng, bound))


def _shape(rng, n_max):
    n = rng.randint(3, n_max)
    s = rng.randint(1, (n - 1) // 2)
    return n, s, n - 2 * s


def _outcome(fn, *args):
    """The computed value, or the failure as a tuple led by its kind."""
    try:
        return fn(*args)
    except DegenerateConfig as exc:
        return ("degenerate", exc.reason, exc.i, exc.j)
    except Tangent as exc:
        return ("tangent", str(exc))


def _big_rational(rng):
    return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def _ceva_draw(rng, bound, n_max=9):
    n, s, t = _shape(rng, n_max)
    return (tuple(_point(rng, bound) for _ in range(n)), _point(rng, bound),
            s, t)


def _inscribed_draw(rng, bound, concurrent, n_max=7):
    pool = sorted({F(p, q) for p in range(-bound, bound + 1)
                   for q in range(1, bound + 1)})
    n, s, t = _shape(rng, min(n_max, len(pool) - 1))
    radius = F(rng.randint(1, bound), rng.randint(1, bound))
    params = tuple(sorted(rng.sample(pool, n)))
    if concurrent:
        specs = (_point(rng, bound),) * n
    else:
        others = [u for u in pool if u not in params]
        specs = tuple(_point(rng, bound) if rng.random() < 0.3
                      else rng.choice(others) for _ in range(n))
    return radius, params, specs, s, t


def _tally(seen, outcome):
    seen[outcome[0] if isinstance(outcome[0], str) else "valid"] += 1


@pytest.mark.parametrize("bound", [2, 10])
def test_ceva_kernel_matches_oracle(bound):
    rng = random.Random(f"ceva-oracle:{bound}")
    seen = Counter()
    for _ in range(DRAWS[bound]):
        vertices, pivot, s, t = _ceva_draw(rng, bound)
        try:
            kernel = _outcome(lambda: CevaConfig(vertices, pivot, s, t).factors)
        except InvariantViolation:
            continue
        assert kernel == _outcome(ceva_factors, vertices, pivot, s, t)
        triples = [homogeneous(v) for v in vertices]
        m = homogeneous(pivot)
        assert kernel == _outcome(lambda: tuple(
            f for i in range(1, len(vertices) + 1)
            for f in side_factors(triples, i, m, s, t)))
        _tally(seen, kernel)
    assert seen["valid"] > 20 and seen["degenerate"] > 0


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["inscribed", "concurrent"])
@pytest.mark.parametrize("bound", [2, 10])
def test_inscribed_kernel_matches_oracle(bound, concurrent):
    rng = random.Random(f"inscribed-oracle:{bound}:{concurrent}")
    seen = Counter()
    for _ in range(DRAWS[bound] // 2):
        draw = _inscribed_draw(rng, bound, concurrent)

        def build():
            cfg = InscribedConfig(*draw)
            return cfg.factors, cfg.m_primes

        try:
            kernel = _outcome(build)
        except InvariantViolation:
            continue
        assert kernel == _outcome(inscribed_factors, *draw)
        _tally(seen, kernel)
    assert seen["valid"] > 10
    if bound == 2:  # degeneracy is rare at bound 10
        assert seen["degenerate"] > 0 and seen["tangent"] > 0


def _kernel_walking_one_side_late():
    """side_factors with its walk started one side late, so that vertex
    i's line crosses sides i+s+1 .. i+s+t in place of i+s .. i+s+t-1."""
    source = textwrap.dedent(inspect.getsource(side_factors))
    start = "k = (i - 1 + s) % n"
    assert source.count(start) == 1
    namespace = {}
    exec(source.replace(start, "k = (i + s) % n"), vars(polyceva.ceva),
         namespace)
    return namespace["side_factors"]


@pytest.mark.parametrize("kind", ["ceva", "inscribed"])
def test_oracle_walks_its_own_sides(kind, monkeypatch):
    """The oracle derives which sides each vertex line crosses without
    polyceva.ceva: with the kernel's walk shifted by one side, the
    kernel leaves the oracle's factors on every valid draw.  The shift
    replaces the kernel's code, so it reaches every name bound to it."""
    rng = random.Random(f"side-walk:{kind}")
    config, oracle = ((CevaConfig, ceva_factors) if kind == "ceva" else
                      (InscribedConfig, lambda *d: inscribed_factors(*d)[0]))
    draws = []
    for _ in range(40):
        draw = (_ceva_draw(rng, 10) if kind == "ceva"
                else _inscribed_draw(rng, 10, False))
        try:
            factors = config(*draw).factors
        except (InvariantViolation, DegenerateConfig, Tangent):
            continue
        draws.append((draw, factors))
    monkeypatch.setattr(side_factors, "__code__",
                        _kernel_walking_one_side_late().__code__)
    for draw, factors in draws:
        assert _outcome(oracle, *draw) == factors
        assert _outcome(lambda: config(*draw).factors) != factors
    assert len(draws) > 10


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32))
def test_kernel_walks_the_sides_sides_hit_lists(n, seed):
    """For every split of an n-gon, vertex i's run of factors crosses
    exactly the sides sides_hit(i, s, t, n) lists, in that order."""
    rng = random.Random(seed)

    def point():
        return Point.from_parts(rng.randint(-10**6, 10**6), 1,
                                rng.randint(-10**6, 10**6), 1)

    vertices = tuple(point() for _ in range(n))
    pivot = point()
    for s in range(1, (n - 1) // 2 + 1):
        t = n - 2 * s
        try:
            cfg = CevaConfig(vertices, pivot, s, t)
        except (InvariantViolation, DegenerateConfig):
            continue
        for i in range(1, n + 1):
            run = cfg.factors[(i - 1) * t:i * t]
            assert [f.i for f in run] == [i] * t
            assert [f.j for f in run] == sides_hit(i, s, t, n)


SQUARE = [(0, 0, 1), (4, 0, 1), (4, 4, 1), (0, 4, 1)]


@pytest.mark.parametrize("i, s, t", [
    (1, 2, 0),   # no side to walk
    (1, -1, 6),  # 2s + t = n with a negative s
    (1, 1, 1),   # 2s + t != n
    (0, 1, 2),
    (5, 1, 2),
])
def test_kernel_rejects_calls_outside_its_domain(i, s, t):
    with pytest.raises(ValueError):
        side_factors(SQUARE, i, (1, 2, 1), s, t)


def _big_ceva_draw(rng, degenerate):
    """A ceva draw with ~300-digit coordinates.  A degenerate-prone one
    is a bound-2 draw under a random large affine map, which keeps every
    parallel and every incidence, so failures reach the kernel too."""
    if not degenerate:
        n, s, t = _shape(rng, 12)
        return (tuple(Point(_big_rational(rng), _big_rational(rng))
                      for _ in range(n)),
                Point(_big_rational(rng), _big_rational(rng)), s, t)
    vertices, pivot, s, t = _ceva_draw(rng, 2, n_max=12)
    image = AffineMap(*(_big_rational(rng) for _ in range(6)))
    return (tuple(affine_apply(image, v) for v in vertices),
            affine_apply(image, pivot), s, t)


def _big_inscribed_draw(rng, concurrent, degenerate):
    """An inscribed draw with ~300-digit coordinates.  A degenerate-prone
    one is a bound-2 draw scaled about the centre by a large factor,
    which keeps tangency, parallels and incidences."""
    if degenerate:
        radius, params, specs, s, t = _inscribed_draw(rng, 2, concurrent,
                                                      n_max=12)
        k = abs(_big_rational(rng))
        specs = tuple(Point(sp.x * k, sp.y * k) if isinstance(sp, Point)
                      else sp for sp in specs)
        return k * radius, params, specs, s, t
    n, s, t = _shape(rng, 12)
    drawn = sorted({_big_rational(rng) for _ in range(2 * n)})
    params = tuple(sorted(rng.sample(drawn, n)))
    others = [u for u in drawn if u not in params]

    def through():
        return Point(_big_rational(rng), _big_rational(rng))

    specs = ((through(),) * n if concurrent else
             tuple(through() if rng.random() < 0.5
                   else rng.choice(others) for _ in range(n)))
    return abs(_big_rational(rng)), params, specs, s, t


def test_ceva_kernel_matches_oracle_large_operands():
    rng = random.Random("ceva-oracle:big")
    seen = Counter()
    for k in range(60):
        vertices, pivot, s, t = _big_ceva_draw(rng, degenerate=k % 2 == 1)
        try:
            kernel = _outcome(lambda: CevaConfig(vertices, pivot, s, t).factors)
        except InvariantViolation:
            continue
        assert kernel == _outcome(ceva_factors, vertices, pivot, s, t)
        _tally(seen, kernel)
    assert seen["valid"] > 20 and seen["degenerate"] > 5


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["inscribed", "concurrent"])
def test_inscribed_kernel_matches_oracle_large_operands(concurrent):
    rng = random.Random(f"inscribed-oracle:big:{concurrent}")
    seen = Counter()
    for k in range(40):
        draw = _big_inscribed_draw(rng, concurrent, degenerate=k % 2 == 1)

        def build():
            cfg = InscribedConfig(*draw)
            return cfg.factors, cfg.m_primes

        try:
            kernel = _outcome(build)
        except InvariantViolation:
            continue
        assert kernel == _outcome(inscribed_factors, *draw)
        _tally(seen, kernel)
    assert seen["valid"] > 10 and seen["degenerate"] > 0


def _crossings(cfg):
    """(factor, crossing_point) of each factor of a config."""
    vertices = cfg.vertices
    return tuple((f, crossing_point(vertices, f)) for f in cfg.factors)


@pytest.mark.parametrize("kind", ["ceva", "inscribed", "concurrent"])
def test_crossing_points_match_oracle(kind):
    """crossing_point rebuilds from each factor the point M_ij that the
    oracle intersects lines for, at small and ~300-digit operands."""
    rng = random.Random(f"crossing-oracle:{kind}")
    checked = 0
    for k in range(60):
        big = k % 10 == 9
        if kind == "ceva":
            draw = (_big_ceva_draw(rng, degenerate=False) if big
                    else _ceva_draw(rng, 10))
        else:
            concurrent = kind == "concurrent"
            draw = (_big_inscribed_draw(rng, concurrent, degenerate=False)
                    if big else _inscribed_draw(rng, 10, concurrent))
        try:
            cfg = (CevaConfig if kind == "ceva" else InscribedConfig)(*draw)
        except (InvariantViolation, DegenerateConfig, Tangent):
            continue
        assert _crossings(cfg) == (ceva_crossings(*draw) if kind == "ceva"
                                   else inscribed_crossings(*draw)[0])
        checked += 1
    assert checked > 50


def _kernel_chords(radius, params, specs, s, t):
    cfg = InscribedConfig(radius, params, specs, s, t)
    return (inscribed_chord_product_squared(cfg), chord_telescoping_squared(cfg),
            tuple(similar_triangles_relation(cfg, i) for i in range(1, cfg.n + 1)))


def _aimed_draw(draw, rng, aim):
    """The draw with one line i replaced by a line through A_i aimed so
    that M'_i is (-r, 0), or the vertex A_{i+s}, or so that the line is
    tangent at A_i.  Its through-point is a random point of that line."""
    radius, params, specs, s, t = draw
    n = len(params)
    i = rng.randrange(n)
    a_i = circle_point(params[i], radius)
    if aim == "antipode":
        target = Point(-radius, 0)
    elif aim == "vertex":
        target = circle_point(params[(i + s) % n], radius)
    else:
        target = Point(a_i.x - a_i.y, a_i.y + a_i.x)
    k = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    through = Point(a_i.x + (target.x - a_i.x) * k,
                    a_i.y + (target.y - a_i.y) * k)
    return radius, params, specs[:i] + (through,) + specs[i + 1:], s, t


def _chord_draws(rng, big):
    """(aim, draw) pairs: plain and concurrent draws, aim None, each
    non-concurrent one followed by an aimed copy; small draws, or ones
    with ~300-digit parts."""
    for k in range(30 if big else 120):
        concurrent = k % 4 == 3
        if big:
            draw = _big_inscribed_draw(rng, concurrent, degenerate=k % 2 == 1)
        else:
            draw = _inscribed_draw(rng, rng.choice([2, 10]), concurrent)
        yield None, draw
        if not concurrent:
            aim = ("antipode", "vertex", "tangent")[k % 3]
            yield aim, _aimed_draw(draw, rng, aim)


@pytest.mark.parametrize("big, least", [(False, 10), (True, 3)],
                         ids=["small", "large_operands"])
def test_chord_ratios_match_oracle(big, least):
    rng = random.Random(f"chord-oracle:{big}")
    seen = Counter()
    for aim, draw in _chord_draws(rng, big):
        try:
            kernel = _outcome(_kernel_chords, *draw)
        except InvariantViolation:
            continue
        assert kernel == _outcome(inscribed_chords, *draw)
        _tally(seen, kernel)
        if isinstance(kernel[0], F):
            assert kernel[1] == 1 and all(kernel[2])
            cfg = InscribedConfig(*draw)
            seen["antipode"] += Point(-cfg.radius, 0) in cfg.m_primes
        elif aim is not None:
            seen[f"{aim}:{kernel[0]}"] += 1
    assert seen["valid"] > 4 * least and seen["antipode"] > least
    assert seen["vertex:degenerate"] > least and seen["tangent:tangent"] > least
